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
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import cce, lattice, tfa
from .hamiltonian import TermMask, cluster_dim

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
        return TermMask(self.mask_A, self.mask_B, self.mask_CD, self.mask_EF)

    def species(self) -> lattice.SpeciesParams:
        e_dd = lattice.compute_E_dd(self.gamma, self.a0)
        return lattice.SpeciesParams(self.spin, self.gamma,
                                     self.A0_over_Edd * e_dd, self.L0)


def _boolean(text: str) -> bool:
    words = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}
    if text.lower() not in words:
        raise ConfigError(f"not a boolean: {text!r}")
    return words[text.lower()]


def _finite(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"not a number: {text!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"non-finite value: {text!r}")
    return v


def _parse_axis(value: str) -> tuple[float, float, float]:
    """Unit hf axis from ``x y z``, ``miller h k l`` or ``angles theta phi``,
    as plain floats, so the manifest echoes it alike under any numpy."""
    parts = value.split()
    if parts[:1] == ["angles"]:
        if len(parts) != 3:
            raise ConfigError("hf_axis angles form needs theta and phi in degrees")
        return tuple(lattice.hf_axis_from_angles(_finite(parts[1]), _finite(parts[2])).tolist())
    if parts[:1] == ["miller"]:
        if len(parts) != 4:
            raise ConfigError("hf_axis miller form needs three integers")
        parts = parts[1:]
    elif len(parts) != 3:
        raise ConfigError(f"cannot parse hf_axis value {value!r}")
    try:
        return tuple(lattice.hf_axis_from_miller(*[_finite(p) for p in parts]).tolist())
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
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            _apply_key(cfg, key, value)
        except ValueError as exc:       # ConfigError and LatticeError included
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    _validate(cfg)
    return cfg


#: a key's value parser, by the type of its RunConfig default (None: a string)
_PARSERS = {bool: _boolean, int: int, float: _finite, str: str, type(None): str}
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _apply_key(cfg: RunConfig, key: str, value: str) -> None:
    if key == "hf_axis":
        cfg.hf_axis = _parse_axis(value)
    elif key in ("box", "sites"):
        ints = tuple(int(p) for p in value.split())
        if key == "box" and len(ints) != 3:
            raise ConfigError("box needs three integers")
        repeated = sorted(k for k, n in Counter(ints).items() if n > 1)
        if key == "sites" and repeated:
            raise ConfigError(f"repeated site index {repeated[0]}")
        setattr(cfg, key, ints)
    else:
        setattr(cfg, key, _PARSERS[type(_DEFAULTS[key])](value))


def _validate(cfg: RunConfig) -> None:
    two_i = 2 * cfg.spin
    checks = [("seed", cfg.seed >= 0), ("a0", cfg.a0 > 0), ("L0", cfg.L0 > 0),
              ("A0_over_Edd", cfg.A0_over_Edd > 0),
              # gamma is negative for 29Si; half-integer as in SpeciesParams
              ("gamma", cfg.gamma != 0),
              ("spin", 0.5 <= two_i < math.inf and abs(two_i - round(two_i)) <= 1e-12),
              ("abundance", 0.0 <= cfg.abundance <= 1.0),
              ("order", 2 <= cfg.order <= 6),
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
    if not (cfg.mask_B or cfg.mask_CD or cfg.mask_EF):
        raise ConfigError("'mask_B', 'mask_CD' and 'mask_EF' are all false: with no flip "
                          "term the Hamiltonian is diagonal and the correlation is constant")
    try:
        e_dd = lattice.compute_E_dd(cfg.gamma, cfg.a0)
    except lattice.LatticeError as exc:
        raise ConfigError(str(exc)) from None
    # the couplings are A0 exp(-r^2 / L0^2): both scales stay finite and > 0
    with np.errstate(over="ignore", under="ignore"):
        a0_hf, l0_sq = cfg.A0_over_Edd * e_dd, np.float64(cfg.L0) ** 2
    for name, value, what in (("A0_over_Edd", a0_hf, "A0 = A0_over_Edd * E_dd"),
                              ("L0", l0_sq, "L0^2")):
        if not 0 < value < math.inf:
            raise ConfigError(f"{name!r} = {getattr(cfg, name):g} gives {what} = {value:g}, "
                              "not finite and > 0")
    n_sites = 8 * math.prod(cfg.box)
    if cfg.sites and not 0 <= min(cfg.sites) <= max(cfg.sites) < n_sites:
        raise ConfigError(f"'sites' index outside 0 to {n_sites - 1}, the sites of "
                          f"'box' = {' '.join(map(str, cfg.box))}")


def _preflight(cfg: RunConfig, command: str, args=()) -> np.ndarray:
    """Every refusal that ``cfg`` and ``command``'s arguments (sorted orders,
    axes) decide, before the bath and the ``RunRecord``. Returns the time grid."""
    order = cfg.order
    if command == "compare-orders":
        if len(args) < 2:
            raise ConfigError("compare-orders needs at least two orders")
        for lo, hi in zip(args, args[1:]):
            if lo == hi:
                raise ConfigError(f"compare-orders got order {lo} twice")
        if not 2 <= args[0] <= args[-1] <= 6:
            raise ConfigError(f"compare-orders got order {args[0] if args[0] < 2 else args[-1]}"
                              ", outside the 2 to 6 of 'order'")
        order = args[-1]
    if command == "sweep-axis" and not args:
        raise ConfigError("sweep-axis needs at least one axis")
    if cluster_dim(cfg.spin, order) > cce.EXACT_DIM_CAP:
        raise ConfigError(f"'spin' = {cfg.spin:g} at 'order' = {order} gives clusters of "
                          f"dimension {2 * cfg.spin + 1:g}^{order}, above {cce.EXACT_DIM_CAP}")
    if command in ("run", "sweep-axis"):
        named = f"'tbar_max' = {cfg.tbar_max:g}, 'samples' = {cfg.samples}"
        freqs = cfg.mu / _preflight_analysis(cfg, cfg.samples, cce.grid_step(
            cfg.tbar_max, cfg.samples), named, ConfigError)
        for name, (lo, hi) in BANDS.items():    # a CWT row each; the SST bins are the same
            if not ((freqs >= lo) & (freqs <= hi)).any():
                raise ConfigError(f"{named} and 'voices' = {cfg.voices} give no wavelet row "
                                  f"in band {name} [{lo}, {hi}]: centre frequencies span "
                                  f"{freqs.min():.3g} to {freqs.max():.3g}")
    try:
        return cce.time_grid(cfg.tbar_max, cfg.samples)
    except MemoryError as exc:
        raise PipelineError(f"'samples' = {cfg.samples} gives a time grid that cannot be "
                            f"allocated: {exc}") from None


def _preflight_analysis(cfg: RunConfig, n: int, dt: float, named: str, error) -> np.ndarray:
    """The refusals of ``cfg``'s spectrum, CWT and SST on ``n`` samples of step
    ``dt``, named by ``named``: no scale grid (raised as ``error``), or a map or
    padded spectrum, sized by tfa from the scale count before any scale is
    made, larger than physical memory. Returns the scales."""
    keys = f"{named} and 'voices' = {cfg.voices}"
    params = tfa.BumpParams(cfg.mu, cfg.sigma)
    held = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    try:
        n_scales = tfa.scale_range(n, dt, params, cfg.voices)[1]
        for given, what, nbytes in ((keys, "CWT map and SST bin map", tfa.cwt_nbytes(n_scales, n)),
                                    (f"{named} and 'zero_pad' = {cfg.zero_pad}", "padded spectrum",
                                     tfa.spectrum_nbytes(n, cfg.zero_pad))):
            if nbytes > held:
                raise PipelineError(f"{given} give a {what} of {nbytes / 1e9:.3g} GB, more "
                                    f"than the {held / 1e9:.3g} GB of physical memory")
        return tfa.default_scales(n, dt, params, cfg.voices)
    except tfa.TFAError as exc:
        raise error(f"'mu' = {cfg.mu:g}, 'sigma' = {cfg.sigma:g}, {keys} give no wavelet "
                    f"scale grid: {exc}") from None
    except MemoryError as exc:
        raise PipelineError(f"{keys} give a wavelet scale grid that cannot be allocated: "
                            f"{exc}") from None


def load_config(path) -> RunConfig:
    cfg = parse_config(lattice.read_text(path, "config", ConfigError))
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


class RunRecord:
    """One command's run: times the stages and rewraps their failures with the
    stage name, names the products and writes the manifest with their hashes.
    ``outdir`` is made at the first product or manifest; one whose nearest
    existing ancestor is not a directory this process may write to is refused
    at once."""

    def __init__(self, cfg: RunConfig, tag: str = ""):
        self.outdir = Path(cfg.outdir)
        near = os.path.abspath(self.outdir)
        while not os.path.lexists(near):
            near = os.path.dirname(near)
        if not os.path.isdir(near) or not os.access(near, os.W_OK | os.X_OK):
            raise ConfigError(f"cannot create 'outdir' {self.outdir}: {near} is not a "
                              "directory this process may write to")
        self.prefix = (tag + "_") if tag else ""
        # no outdir: the manifest sits in it, and may be moved with it
        self.config_echo = {k: v for k, v in vars(cfg).items() if k != "outdir"}
        self.derived = {}
        self.products = {}      # path -> sha256, hashed by write()
        self.timings = {}       # stage -> seconds

    def run(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` timed as stage ``name``, whose runs add up;
        input errors and failures of a nested stage pass through unchanged."""
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except (*INPUT_ERRORS, PipelineError):
            raise
        except Exception as exc:
            raise PipelineError(f"stage {name!r} failed: {exc}") from exc
        self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - t0
        return result

    def path(self, name: str, shared: bool = False) -> Path:
        """Product ``outdir/{prefix}{name}``, recorded; a ``shared`` product
        (the bath that every tagged run in the directory uses) takes no prefix."""
        p = self._made() / (name if shared else self.prefix + name)
        self.products[str(p)] = ""
        return p

    def _made(self) -> Path:
        """``outdir``, made if it is not there yet; what the check in
        ``__init__`` cannot see (a race, a full disk) is refused here."""
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create 'outdir' {self.outdir}: {exc.strerror}") from None
        return self.outdir

    def write(self) -> None:
        """Hash every recorded product and write ``{prefix}manifest.txt``,
        which lists them relative to its own directory."""
        for p in self.products:
            self.products[p] = _sha256(p)
        sections = {"config": self.config_echo, "derived": self.derived,
                    "products": {str(Path(p).relative_to(self.outdir)): digest
                                 for p, digest in self.products.items()},
                    "timings": {k: f"{t:.3f}" for k, t in self.timings.items()}}
        text = []
        for name, items in sections.items():
            text.append(f"[{name}]\n" + "".join(f"{k} = {items[k]}\n" for k in sorted(items)))
        (self._made() / f"{self.prefix}manifest.txt").write_text("\n".join(text))


def _bath(record: RunRecord, cfg: RunConfig, order: int, strict: bool = False):
    """The realization and its clusters up to ``order``, two timed stages, with
    the refusals the bath decides: a realization file's spin over the dimension
    cap and, if ``strict``, an ``order`` above the spin count before the
    enumeration; no pair to correlate (an empty bath too) after it."""
    realization = record.run("realization", _resolve_realization, cfg)
    spin = realization.species.spin_I
    if cfg.realization_file and cluster_dim(spin, order) > cce.EXACT_DIM_CAP:
        raise ConfigError(f"spin {spin:g} of realization file {cfg.realization_file} at "
                          f"'order' = {order} gives clusters of dimension {2 * spin + 1:g}^"
                          f"{order}, above {cce.EXACT_DIM_CAP}")
    if strict and order > realization.n_spins:
        raise ConfigError(f"order {order} exceeds the bath's {realization.n_spins} spins")
    cset = record.run("clusters", cce.enumerate_clusters, realization,
                      cfg.r_cutoff_a0 * realization.a0, order)
    if len(cset.levels) < 2 or not len(cset.levels[1]):      # no pair, so nothing larger
        raise PipelineError(f"no pair of the bath's {realization.n_spins} spins lies within "
                            f"'r_cutoff_a0' = {cfg.r_cutoff_a0:g}: the correlation is constant")
    return realization, cset


def _cce(record: RunRecord, cfg: RunConfig, times_tbar, realization, cset, stage: str = "cce"):
    """CCE correlation of ``cset``, timed as ``stage``, then its [derived] values."""
    series = record.run(stage, cce.compute_correlation, realization, cset, cfg.c_hf,
                        cfg.term_mask(), times_tbar=times_tbar)
    record.derived.update(
        A_bar=realization.A_bar, sigma_hf=realization.sigma_hf, E_dd=realization.E_dd,
        n_spinful=realization.n_spins, spin_I=realization.species.spin_I,
        hf_axis=tuple(realization.hf_axis.tolist()),
        cluster_counts={k: len(rows) for k, rows in enumerate(cset.levels, 1) if len(rows)},
        max_imag=series.metadata["max_imag"])
    return series


def _save_correlation(record: RunRecord, series):
    """Write the raw and the normalized series. Returns the normalized one."""
    cce.save_series(record.path("correlation.csv"), series)
    cbar = record.run("normalize", tfa.normalize_correlation, series)
    cce.save_series(record.path("correlation_normalized.csv"), cbar)
    return cbar


def _analyze(record: RunRecord, cfg: RunConfig, cbar, bands: bool = False) -> None:
    """Spectrum, CWT and SST of a normalized series, each exported with, if
    ``bands``, each map's band traces. The SST overwrites the CWT map once the
    CWT's products are out, so the stage holds one map."""
    spectrum = record.run("spectrum", tfa.power_spectrum, cbar, cfg.zero_pad)
    tfa.save_spectrum(record.path("spectrum.csv"), spectrum)
    scal = record.run("cwt", tfa.cwt_bump, cbar, tfa.BumpParams(cfg.mu, cfg.sigma), cfg.voices)
    _save_map(record, scal, bands)
    _save_map(record, record.run("sst", tfa.synchrosqueeze, scal, cfg.gamma_sst), bands)


def _save_map(record: RunRecord, obj, bands: bool) -> None:
    """Write a map as ``{kind}.bin`` and, with ``bands``, its band traces."""
    tfa.save_map(record.path(f"{obj.kind}.bin"), record.path(f"{obj.kind}.meta.txt"), obj)
    if bands:
        record.run("bands", _save_bands, record, obj)


def _save_bands(record: RunRecord, obj) -> None:
    for name, (lo, hi) in BANDS.items():
        trace = tfa.band_amplitude(obj, lo, hi)
        with open(record.path(f"band_{name}_{obj.kind}.csv"), "w") as fh:
            fh.write(f"# band = {name} [{lo}, {hi}] ({obj.kind})\n")
            lattice.write_rows(fh, lattice.key_cells(obj.times_tbar), trace)


def run_pipeline(cfg: RunConfig) -> RunRecord:
    """Full pipeline: bath -> CCE correlation -> spectrum -> CWT -> SST ->
    band traces, everything written under cfg.outdir with content hashes."""
    times_tbar = _preflight(cfg, "run")
    record = RunRecord(cfg)
    return _pipeline(record, cfg, times_tbar, *_bath(record, cfg, cfg.order))


def _pipeline(record: RunRecord, cfg: RunConfig, times_tbar, realization, cset) -> RunRecord:
    """``run_pipeline`` after the bath stage, on a given bath and cluster set."""
    series = _cce(record, cfg, times_tbar, realization, cset)
    lattice.save_realization(record.path("realization.csv", shared=True), realization)
    cbar = _save_correlation(record, series)
    record.run("analyze", _analyze, record, cfg, cbar, bands=True)
    record.write()
    return record


def simulate(cfg: RunConfig) -> str:
    """Bath and CCE only: writes both correlation series, returns a one-line summary."""
    times_tbar = _preflight(cfg, "simulate")
    record = RunRecord(cfg)
    realization, cset = _bath(record, cfg, cfg.order)
    _save_correlation(record, _cce(record, cfg, times_tbar, realization, cset))
    record.write()
    return f"{record.outdir / 'correlation.csv'}: {cset.n_clusters} clusters"


def analyze_series(cfg: RunConfig, series_path) -> RunRecord:
    """Analyze-only stage on an exported normalized correlation file."""
    record = RunRecord(cfg, "analyze")
    series = cce.load_series(series_path)
    cbar = series if series.metadata.get("normalized") else \
        record.run("normalize", tfa.normalize_correlation, series)
    _preflight_analysis(cfg, len(series.values), series.dt,
                        f"the {len(series.values)} samples of {series_path}", PipelineError)
    record.run("analyze", _analyze, record, cfg, cbar)
    record.write()
    return record


def compare_orders(cfg: RunConfig, orders) -> str:
    """Per-order correlation curves and their deviation (max and L2 norm) from
    the highest order, as a text table written to the output directory."""
    orders = sorted(int(o) for o in orders)
    times_tbar = _preflight(cfg, "compare-orders", orders)
    record = RunRecord(cfg)
    realization, cset = _bath(record, cfg, orders[-1], strict=True)
    curves = {}
    for m in orders:    # the order-m set is the order-M set's clusters of size <= m
        series = _cce(record, cfg, times_tbar, realization, cset.up_to(m), f"cce{m}")
        curves[m] = record.run(f"normalize{m}", tfa.normalize_correlation, series)
        cce.save_series(record.path(f"cce{m}_correlation_normalized.csv"), curves[m])
    ref = curves[orders[-1]].values
    lines = ["# order,max_dev,l2_dev"]
    for m in orders:
        d = curves[m].values - ref
        lines.append(f"{m},{np.abs(d).max():.16e},{np.sqrt((d**2).sum() / len(ref)):.16e}")
    report = "\n".join(lines) + "\n"
    record.path("order_deviations.csv").write_text(report)
    record.write()
    return report


#: each channel's mask fields: its own term and A (which only shifts levels)
#: on, the other terms off
CHANNELS = {name: {"mask_A": True,
                   **{f"mask_{term}": term == name for term in ("B", "CD", "EF")}}
            for name in ("B", "CD", "EF")}


def sweep_hf_axis(cfg: RunConfig, axes) -> list:
    """Run the pipeline per hyperfine axis (divided by its norm as ``run`` does)
    on one fixed realization and cluster set, with per-channel (B / CD / EF)
    mask decompositions. Each axis directory holds one ``realization.csv``;
    every manifest lists it and gives the timings of the shared bath stage."""
    times_tbar = _preflight(cfg, "sweep-axis", axes)
    bath = RunRecord(cfg)
    realization, cset = _bath(bath, cfg, cfg.order)
    records = []
    for i, axis in enumerate(axes):
        fixed = replace(realization, hf_axis=np.asarray(axis) / np.linalg.norm(axis))
        sub = replace(cfg, outdir=str(Path(cfg.outdir) / f"axis{i}"), hf_axis=tuple(axis))
        variants = {"full": sub, **{f"chan{name}": replace(sub, **masks)
                                    for name, masks in CHANNELS.items()}}
        for tag, variant in variants.items():
            record = RunRecord(variant, tag)
            record.timings.update(bath.timings)
            records.append(_pipeline(record, variant, times_tbar, fixed, cset))
    return records


# ---------------------------------------------------------------------------
# command line

#: subcommand -> (help, the argument after the config file as the name and
#: keywords of ``add_argument`` if it takes one, handler of (config, parsed
#: arguments)); a handler looks its command function up when it is called
COMMANDS = {
    "generate-bath": ("build and export a bath realization", None,
                      lambda cfg, args: _cmd_generate(cfg)),
    "simulate": ("run CCE and export the correlation series", None,
                 lambda cfg, args: print(simulate(cfg))),
    "analyze": ("time-frequency analysis of an exported series",
                ("series", {"help": "correlation series file"}),
                lambda cfg, args: analyze_series(cfg, args.series)),
    "run": ("full pipeline", None, lambda cfg, args: run_pipeline(cfg)),
    "compare-orders": ("CCE order convergence report", ("orders", {"nargs": "+", "type": int}),
                       lambda cfg, args: print(compare_orders(cfg, args.orders), end="")),
    "sweep-axis": ("pipeline over several hf axes on a fixed bath", ("axes", {
        "nargs": "+", "help": "axes as comma-separated triplets, e.g. 0,0,1 1,1,1"}),
        lambda cfg, args: sweep_hf_axis(
            cfg, [_parse_axis(a.replace(",", " ")) for a in args.axes])),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spinbath", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, extra, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="path to key-value configuration file")
        if extra:
            p.add_argument(extra[0], **extra[1])
    return ap


def _cmd_generate(cfg: RunConfig) -> None:
    record = RunRecord(cfg)
    realization = record.run("realization", _resolve_realization, cfg)
    path = record.path("realization.csv")
    lattice.save_realization(path, realization)
    record.write()
    print(f"{path}: N={realization.n_spins} A_bar={realization.A_bar:.6e}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command][2](load_config(args.config), args)
    except INPUT_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (PipelineError, cce.CCEError, tfa.TFAError, OSError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
