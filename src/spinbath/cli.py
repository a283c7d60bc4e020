"""Declarative pipeline driver: flat key-value config in, deterministic data
products out (realization, correlation series, spectra, scalograms, SST maps,
band traces, manifest with content hashes).

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import cce, lattice, tfa
from .hamiltonian import TermMask

OUTDIR_ENV = "SPINBATH_OUTDIR"

#: default channel bands on the omega_bar axis
BANDS = {"0Q": (0.0, 0.1), "1Q": (0.4, 0.6), "2Q": (0.9, 1.1)}


class ConfigError(ValueError):
    pass


class PipelineError(RuntimeError):
    pass


#: failures of the input (config or realization file), exit code 1
INPUT_ERRORS = (ConfigError, lattice.LatticeError)


@dataclass
class RunConfig:
    # lattice / bath
    a0: float = 5.43e-10
    box: tuple[int, int, int] = (10, 10, 7)
    abundance: float = 0.02
    seed: int = 0
    spin: float = 0.5
    gamma: float = 5.3190e7
    A0_over_Edd: float = 1.0e4
    L0: float = 3.4e-9
    realization_file: str | None = None
    sites: tuple[int, ...] | None = None       # explicit lattice site indices
    hf_axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    # CCE
    order: int = 2
    r_cutoff_a0: float = 2.7
    secular: bool = False
    mask_A: bool = True
    mask_B: bool = True
    mask_CD: bool = True
    mask_EF: bool = True
    c_hf: float = 0.5
    # time grid
    tbar_max: float = 200.0
    samples: int = 4096
    # wavelet
    mu: float = 5.0
    sigma: float = 0.6
    voices: int = 32
    gamma_sst: float = 1e-8
    zero_pad: int = 1
    # output
    outdir: str = "out"

    def term_mask(self) -> TermMask:
        m = TermMask(self.mask_A, self.mask_B, self.mask_CD, self.mask_EF)
        if self.secular:
            m = TermMask(m.enable_A, m.enable_B, False, False)
        return m

    def species(self) -> lattice.SpeciesParams:
        e_dd = lattice.compute_E_dd(self.gamma, self.a0)
        return lattice.SpeciesParams(self.spin, self.gamma,
                                     self.A0_over_Edd * e_dd, self.L0)


_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}


def _finite(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"not a number: {text!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"non-finite value: {text!r}")
    return v


def _parse_axis(value: str) -> tuple[float, float, float]:
    """Unit hf axis from ``x y z``, ``miller h k l`` or ``angles theta phi``."""
    parts = value.split()
    if parts[:1] == ["angles"]:
        if len(parts) != 3:
            raise ConfigError("hf_axis angles form needs theta and phi in degrees")
        return tuple(lattice.hf_axis_from_angles(_finite(parts[1]), _finite(parts[2])))
    if parts[:1] == ["miller"]:
        if len(parts) != 4:
            raise ConfigError("hf_axis miller form needs three integers")
        parts = parts[1:]
    elif len(parts) != 3:
        raise ConfigError(f"cannot parse hf_axis value {value!r}")
    try:
        return tuple(lattice.hf_axis_from_miller(*[_finite(p) for p in parts]))
    except lattice.LatticeError as exc:
        raise ConfigError(f"hf_axis {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse flat ``key = value`` lines ('#' comments); unknown keys rejected,
    out-of-range values named."""
    cfg = RunConfig()
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = value
    for key, value in seen.items():
        try:
            _apply_key(cfg, key, value)
        except ValueError as exc:       # ConfigError and LatticeError included
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    _validate(cfg)
    return cfg


def _apply_key(cfg: RunConfig, key: str, value: str) -> None:
    if key == "hf_axis":
        cfg.hf_axis = _parse_axis(value)
    elif key == "box":
        dims = tuple(int(p) for p in value.split())
        if len(dims) != 3:
            raise ConfigError("box needs three integers")
        cfg.box = dims
    elif key == "sites":
        sites = tuple(int(p) for p in value.split())
        repeated = sorted(k for k, n in Counter(sites).items() if n > 1)
        if repeated:
            raise ConfigError(f"repeated site index {repeated[0]}")
        cfg.sites = sites
    elif key in ("secular", "mask_A", "mask_B", "mask_CD", "mask_EF"):
        if value.lower() not in _BOOL:
            raise ConfigError(f"bad boolean for {key!r}: {value!r}")
        setattr(cfg, key, _BOOL[value.lower()])
    elif key in ("seed", "order", "samples", "voices", "zero_pad"):
        setattr(cfg, key, int(value))
    elif key in ("a0", "abundance", "spin", "gamma", "A0_over_Edd", "L0",
                 "c_hf", "r_cutoff_a0", "tbar_max", "mu", "sigma", "gamma_sst"):
        setattr(cfg, key, _finite(value))
    elif key in ("realization_file", "outdir"):
        setattr(cfg, key, value)
    else:
        raise ConfigError(f"unknown configuration key {key!r}")


def _validate(cfg: RunConfig) -> None:
    two_i = 2 * cfg.spin
    checks = [("seed", cfg.seed >= 0), ("a0", cfg.a0 > 0), ("L0", cfg.L0 > 0),
              ("A0_over_Edd", cfg.A0_over_Edd > 0),
              # gamma is negative for 29Si; half-integer as in SpeciesParams
              ("gamma", cfg.gamma != 0),
              ("spin", 0.5 <= two_i < math.inf and abs(two_i - round(two_i)) <= 1e-12),
              ("abundance", 0.0 <= cfg.abundance <= 1.0),
              ("order", 1 <= cfg.order <= 6),
              ("r_cutoff_a0", cfg.r_cutoff_a0 > 0),
              ("c_hf", cfg.c_hf >= 0), ("tbar_max", cfg.tbar_max > 0),
              ("samples", cfg.samples >= 16),
              ("mu", cfg.mu > cfg.sigma), ("sigma", cfg.sigma > 0),
              ("voices", cfg.voices >= 1), ("gamma_sst", cfg.gamma_sst >= 0),
              ("zero_pad", cfg.zero_pad >= 1),
              ("box", all(n >= 1 for n in cfg.box))]
    for name, ok in checks:
        if not ok:
            raise ConfigError(f"configuration value out of range: {name!r}")
    try:
        lattice.compute_E_dd(cfg.gamma, cfg.a0)
    except lattice.LatticeError as exc:
        raise ConfigError(str(exc)) from None
    if (round(two_i) + 1) ** cfg.order > cce.EXACT_DIM_CAP:
        raise ConfigError(f"'spin' = {cfg.spin:g} at 'order' = {cfg.order} gives clusters of "
                          f"dimension {two_i + 1:g}^{cfg.order}, above {cce.EXACT_DIM_CAP}")


def _check_band_coverage(cfg: RunConfig) -> None:
    """Every band in BANDS needs at least one CWT row (the SST bins are the
    same frequencies) on the configured time grid and voice count. The grid
    step tbar_max / (samples - 1) is the one ``cce.time_grid`` produces."""
    scales = tfa.default_scales(cfg.samples, cfg.tbar_max / (cfg.samples - 1),
                                tfa.BumpParams(cfg.mu, cfg.sigma), cfg.voices)
    freqs = cfg.mu / scales
    for name, (lo, hi) in BANDS.items():
        if not ((freqs >= lo) & (freqs <= hi)).any():
            raise ConfigError(
                f"'tbar_max' = {cfg.tbar_max:g}, 'samples' = {cfg.samples} and "
                f"'voices' = {cfg.voices} give no wavelet row in band {name} "
                f"[{lo}, {hi}]: centre frequencies span {freqs.min():.3g} to "
                f"{freqs.max():.3g}")


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not text") from None
    cfg = parse_config(text)
    override = os.environ.get(OUTDIR_ENV)
    if override:
        cfg.outdir = override
    return cfg


# ---------------------------------------------------------------------------
# pipeline stages

def _resolve_realization(cfg: RunConfig) -> lattice.BathRealization:
    if cfg.realization_file:
        return lattice.load_realization(cfg.realization_file)
    spec = lattice.LatticeSpec(cfg.a0, cfg.box, cfg.species(), cfg.abundance,
                               seed=cfg.seed, explicit_sites=cfg.sites)
    return lattice.build_realization(spec, np.array(cfg.hf_axis))


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class RunManifest:
    config_echo: dict
    derived: dict
    products: dict = field(default_factory=dict)   # path -> sha256
    timings: dict = field(default_factory=dict)    # stage -> seconds

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("[config]\n")
            for k in sorted(self.config_echo):
                fh.write(f"{k} = {self.config_echo[k]}\n")
            fh.write("\n[derived]\n")
            for k in sorted(self.derived):
                fh.write(f"{k} = {self.derived[k]}\n")
            fh.write("\n[products]\n")
            for k in sorted(self.products):
                fh.write(f"{k} = {self.products[k]}\n")
            fh.write("\n[timings]\n")
            for k in sorted(self.timings):
                fh.write(f"{k} = {self.timings[k]:.3f}\n")


class _Stage:
    """Collects wall-clock timings and rewraps stage failures with the name;
    input errors and failures of a nested stage pass through unchanged."""

    def __init__(self):
        self.timings = {}

    def run(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except (*INPUT_ERRORS, PipelineError):
            raise
        except Exception as exc:
            raise PipelineError(f"stage {name!r} failed: {exc}") from exc
        self.timings[name] = time.perf_counter() - t0
        return result


def _outdir(cfg: RunConfig) -> Path:
    """Make the output directory; each command calls this before its first stage."""
    outdir = Path(cfg.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create 'outdir' {outdir}: {exc.strerror}") from None
    return outdir


def _new_manifest(cfg: RunConfig, stage: _Stage) -> RunManifest:
    return RunManifest(config_echo=dict(vars(cfg)), derived={}, timings=stage.timings)


def _simulate(cfg: RunConfig, realization: lattice.BathRealization, order: int):
    """Bath -> clusters -> CCE correlation on the configured time grid.
    Returns (cluster set, raw series)."""
    cset = cce.enumerate_clusters(realization, cfg.r_cutoff_a0 * realization.a0, order)
    times = cce.time_grid(cfg.tbar_max, cfg.samples)
    series = cce.compute_correlation(realization, cset, cfg.c_hf, cfg.term_mask(),
                                     times_tbar=times)
    return cset, series


def _save_correlation(stage: _Stage, series, outdir: Path, prefix: str):
    """Write the raw and the normalized series. Returns (paths, normalized)."""
    cpath = outdir / f"{prefix}correlation.csv"
    cce.save_series(cpath, series)
    cbar = stage.run("normalize", tfa.normalize_correlation, series)
    nbpath = outdir / f"{prefix}correlation_normalized.csv"
    cce.save_series(nbpath, cbar)
    return [str(cpath), str(nbpath)], cbar


def _analyze(stage: _Stage, cfg: RunConfig, cbar, outdir: Path, prefix: str):
    """Spectrum, CWT and SST of a normalized series, with the spectrum and
    both maps exported. Returns (paths, scalogram, SST map)."""
    spectrum = stage.run("spectrum", tfa.power_spectrum, cbar, cfg.zero_pad)
    scal = stage.run("cwt", tfa.cwt_bump, cbar.values, cbar.dt,
                     tfa.BumpParams(cfg.mu, cfg.sigma), cfg.voices)
    sst = stage.run("sst", tfa.synchrosqueeze, scal, cfg.gamma_sst)
    spath = outdir / f"{prefix}spectrum.csv"
    tfa.save_spectrum(spath, spectrum)
    files = [str(spath)]
    files += tfa.save_map(outdir / f"{prefix}cwt", scal)
    files += tfa.save_map(outdir / f"{prefix}sst", sst)
    return files, scal, sst


def _save_bands(scal, sst, outdir: Path, prefix: str) -> list:
    paths = []
    for name, (lo, hi) in BANDS.items():
        for kind, obj in (("cwt", scal), ("sst", sst)):
            trace = tfa.band_amplitude(obj, lo, hi)
            p = outdir / f"{prefix}band_{name}_{kind}.csv"
            with open(p, "w") as fh:
                fh.write(f"# band = {name} [{lo}, {hi}] ({kind})\n")
                cce._write_rows(fh, scal.times_tbar, trace)
            paths.append(str(p))
    return paths


def run_pipeline(cfg: RunConfig, realization: lattice.BathRealization | None = None,
                 tag: str = "") -> RunManifest:
    """Full pipeline: bath -> CCE correlation -> spectrum -> CWT -> SST ->
    band traces, everything written under cfg.outdir with content hashes."""
    _check_band_coverage(cfg)
    outdir = _outdir(cfg)
    prefix = (tag + "_") if tag else ""
    stage = _Stage()
    if realization is None:
        realization = stage.run("realization", _resolve_realization, cfg)
    cset, series = stage.run("cce", _simulate, cfg, realization, cfg.order)
    rpath = outdir / f"{prefix}realization.csv"
    lattice.save_realization(rpath, realization)
    files, cbar = _save_correlation(stage, series, outdir, prefix)
    files.insert(0, str(rpath))
    maps, scal, sst = stage.run("analyze", _analyze, stage, cfg, cbar, outdir, prefix)
    files += maps
    files += stage.run("bands", _save_bands, scal, sst, outdir, prefix)

    manifest = _new_manifest(cfg, stage)
    sizes = Counter(len(c) for c in cset.clusters)
    manifest.derived.update({
        "A_bar": series.metadata["A_bar"],
        "sigma_hf": realization.sigma_hf,
        "E_dd": realization.E_dd,
        "n_spinful": realization.n_spins,
        "cluster_counts": dict(sorted(sizes.items())),
        "max_imag": series.metadata["max_imag"],
    })
    for f in files:
        manifest.products[f] = _sha256(f)
    manifest.write(outdir / f"{prefix}manifest.txt")
    return manifest


def simulate(cfg: RunConfig) -> str:
    """Bath and CCE only: writes the raw and normalized correlation series and
    returns a one-line summary."""
    outdir = _outdir(cfg)
    stage = _Stage()
    realization = stage.run("realization", _resolve_realization, cfg)
    cset, series = stage.run("cce", _simulate, cfg, realization, cfg.order)
    paths, _ = _save_correlation(stage, series, outdir, "")
    return f"{paths[0]}: {len(cset.clusters)} clusters"


def analyze_series(cfg: RunConfig, series_path) -> RunManifest:
    """Analyze-only stage on an exported normalized correlation file."""
    outdir = _outdir(cfg)
    stage = _Stage()
    series = cce.load_series(series_path)
    cbar = series if series.metadata.get("normalized") else \
        stage.run("normalize", tfa.normalize_correlation, series)
    files, _, _ = stage.run("analyze", _analyze, stage, cfg, cbar, outdir, "analyze_")
    manifest = _new_manifest(cfg, stage)
    for f in files:
        manifest.products[f] = _sha256(f)
    manifest.write(outdir / "analyze_manifest.txt")
    return manifest


def compare_orders(cfg: RunConfig, orders) -> str:
    """Per-order correlation curves and their deviation (max and L2 norm) from
    the highest order, as a text table written to the output directory."""
    orders = sorted(int(o) for o in orders)
    if len(orders) < 2:
        raise ConfigError("compare-orders needs at least two orders")
    for m in orders:
        _validate(replace(cfg, order=m))
    outdir = _outdir(cfg)
    stage = _Stage()
    realization = stage.run("realization", _resolve_realization, cfg)
    curves = {}
    for m in orders:
        _, series = stage.run("cce", _simulate, cfg, realization, m)
        curves[m] = stage.run("normalize", tfa.normalize_correlation, series)
        cce.save_series(outdir / f"cce{m}_correlation_normalized.csv", curves[m])
    ref = curves[orders[-1]].values
    lines = ["# order,max_dev,l2_dev"]
    n = len(ref)
    for m in orders:
        d = curves[m].values - ref
        lines.append(f"{m},{np.abs(d).max():.16e},{np.sqrt((d**2).sum() / n):.16e}")
    report = "\n".join(lines) + "\n"
    (outdir / "order_deviations.csv").write_text(report)
    return report


#: channel decompositions: A is always retained (it only shifts levels)
CHANNELS = {"B": TermMask(True, True, False, False),
            "CD": TermMask(True, False, True, False),
            "EF": TermMask(True, False, False, True)}


def sweep_hf_axis(cfg: RunConfig, axes) -> list:
    """Run the pipeline per hyperfine axis (unit 3-vectors) on one fixed
    realization, including per-channel (B / CD / EF) mask decompositions."""
    if not axes:
        raise ConfigError("sweep-axis needs at least one axis")
    _check_band_coverage(cfg)       # before outdir exists, as in run_pipeline
    _outdir(cfg)
    realization = _Stage().run("realization", _resolve_realization, cfg)
    manifests = []
    for i, axis in enumerate(axes):
        fixed = replace(realization, hf_axis=np.asarray(axis))
        sub = replace(cfg, outdir=str(Path(cfg.outdir) / f"axis{i}"), hf_axis=tuple(axis))
        manifests.append(run_pipeline(sub, realization=fixed, tag="full"))
        for name, mask in CHANNELS.items():
            chan = replace(sub, mask_A=mask.enable_A, mask_B=mask.enable_B,
                           mask_CD=mask.enable_CD, mask_EF=mask.enable_EF,
                           secular=False)
            manifests.append(run_pipeline(chan, realization=fixed, tag=f"chan{name}"))
    return manifests


# ---------------------------------------------------------------------------
# command line

def _add_config_arg(p):
    p.add_argument("config", help="path to key-value configuration file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spinbath",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-bath", help="build and export a bath realization")
    _add_config_arg(p)

    p = sub.add_parser("simulate", help="run CCE and export the correlation series")
    _add_config_arg(p)

    p = sub.add_parser("analyze", help="time-frequency analysis of an exported series")
    _add_config_arg(p)
    p.add_argument("series", help="correlation series file")

    p = sub.add_parser("run", help="full pipeline")
    _add_config_arg(p)

    p = sub.add_parser("compare-orders", help="CCE order convergence report")
    _add_config_arg(p)
    p.add_argument("orders", nargs="+", type=int)

    p = sub.add_parser("sweep-axis", help="pipeline over several hf axes on a fixed bath")
    _add_config_arg(p)
    p.add_argument("axes", nargs="+",
                   help="axes as comma-separated triplets, e.g. 0,0,1 1,1,1")
    return ap


def _cmd_generate(cfg: RunConfig) -> None:
    path = _outdir(cfg) / "realization.csv"
    realization = _resolve_realization(cfg)
    lattice.save_realization(path, realization)
    print(f"{path}: N={realization.n_spins} A_bar={realization.A_bar:.6e}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "generate-bath":
            _cmd_generate(cfg)
        elif args.command == "simulate":
            print(simulate(cfg))
        elif args.command == "analyze":
            analyze_series(cfg, args.series)
        elif args.command == "run":
            run_pipeline(cfg)
        elif args.command == "compare-orders":
            print(compare_orders(cfg, args.orders), end="")
        elif args.command == "sweep-axis":
            sweep_hf_axis(cfg, [_parse_axis(a.replace(",", " ")) for a in args.axes])
    except INPUT_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (PipelineError, cce.CCEError, tfa.TFAError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
