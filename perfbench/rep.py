"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/rep.py CONFIG MODE [--ref REF.npz] [--write-ref REF.npz]

MODE is ``setup`` (import and load the config only), ``plain`` (untraced
pipeline run) or ``traced`` (pipeline run with layer spans). The config's
``outdir`` must be a directory that does not exist yet under
``perfbench/.work``; it is deleted once the products are checked and hashed,
and a rep whose ``outdir`` is anywhere else (for instance one set through
``SPINBATH_OUTDIR``) fails without running.

Times are reported twice: as measured (``*_wall_s``) and scaled to the
reference host speed of ``speed.py`` (``setup_s``, ``run_s`` and the
per-layer times). Set-up is scaled by ``SETUP_PROBES`` speed probes run
right after it, the pipeline by the probes taken while it runs. Probe time
is kept out of ``run_wall_s`` but not out of the per-layer self times, of
which it is about 1.5%.

Prints one JSON object on its last line. ``run.py`` starts this script with
the BLAS thread count pinned and ``PYTHONPATH`` pointing at the checkout's
``src``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

#: a rep fails if any accuracy figure exceeds this
ACCURACY_GATE = 1e-10
BANDS = ("0Q", "1Q", "2Q")
#: the only directory a rep writes to or deletes under
WORK = Path(__file__).resolve().parent / ".work"
#: speed probes right after set-up, which scale its time
SETUP_PROBES = 20


def _sha256(path) -> str:
    """The benchmark's own hash, so the manifest's hashes are checked rather
    than trusted."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_series(path):
    """(metadata, values) of a two-column series file with '# k = v' header."""
    import numpy as np
    meta = {}
    with open(path) as fh:
        for ln in fh:
            if not ln.startswith("#"):
                break
            k, _, v = ln[1:].partition("=")
            meta[k.strip()] = v.strip()
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return meta, data[:, 1]


def check_products(outdir: Path, manifest, ref, write_ref) -> dict:
    """Hashes, sizes, counts and accuracy figures of one run's products."""
    import numpy as np
    errors = []
    hashes = {}
    total = os.path.getsize(outdir / "manifest.txt")
    for path, claimed in manifest.products.items():
        digest = _sha256(path)
        if digest != claimed:
            errors.append(f"manifest hash of {Path(path).name} does not match the file")
        hashes[Path(path).name] = digest
        total += os.path.getsize(path)

    meta, C = _read_series(outdir / "correlation.csv")
    rpath = outdir / "realization.csv"
    with open(rpath) as fh:
        spin = float(fh.readline().split(",")[3])
    A = np.loadtxt(rpath, delimiter=",", skiprows=1, ndmin=2)[:, 4]
    expect = float((A ** 2).sum() * spin * (spin + 1) / 3.0)
    bands = {b: _read_series(outdir / f"band_{b}_cwt.csv")[1] for b in BANDS}
    acc = {"sum_rule_rel": abs(C[0] - expect) / expect,
           "imag_rel": float(meta["max_imag"]) / C[0]}
    if write_ref:
        np.savez(write_ref, correlation=C, **{f"band_{b}": v for b, v in bands.items()})
    if ref:
        with np.load(ref, allow_pickle=False) as r:
            acc["ref_dev_rel"] = float(np.abs(C - r["correlation"]).max() / r["correlation"][0])
            acc["cwt_band_dev_rel"] = max(
                float(np.abs(bands[b] - r[f"band_{b}"]).max() / np.abs(r[f"band_{b}"]).max())
                for b in BANDS)
    for k, v in acc.items():
        if not v <= ACCURACY_GATE:          # also catches NaN
            errors.append(f"{k} = {v:.3e} exceeds {ACCURACY_GATE:.0e}")

    counts = {"products": len(hashes), "n_spins": len(A), "samples": len(C)}
    counts.update({f"clusters_size{k}": v
                   for k, v in manifest.derived["cluster_counts"].items()})
    return {"hashes": hashes, "output_mb": total / 1e6, "accuracy": acc,
            "counts": counts, "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("mode", choices=("setup", "plain", "traced"))
    ap.add_argument("--ref")
    ap.add_argument("--write-ref")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    from spinbath import cli
    cfg = cli.load_config(args.config)
    setup_wall_s = time.perf_counter() - t0
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(cli.__file__).resolve().parents:
        print(f"spinbath imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    # imported after set-up is timed, since it imports numpy
    import speed
    speed.probe()                                   # warm-up
    probes = [speed.probe() for _ in range(SETUP_PROBES)]
    out = {"mode": args.mode, "setup_wall_s": setup_wall_s,
           "setup_s": setup_wall_s * speed.scale(probes),
           "setup_probe_s": statistics.fmean(probes)}
    if args.mode == "setup":
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["env"] = {"numpy": np.__version__,
                      "blas": f"{blas.get('name')} {blas.get('version')}"}
        print(json.dumps(out))
        return 0

    outdir = Path(cfg.outdir).resolve()
    if WORK.resolve() not in outdir.parents or outdir.exists():
        print(f"outdir {outdir} is not a new directory under {WORK}; "
              "refusing to write or delete it", file=sys.stderr)
        return 2
    tracer = None
    if args.mode == "traced":
        import spans
        tracer = spans.Tracer()
    try:
        c1 = time.process_time()
        with speed.Sampler() as sampler:
            with tracer.installed() if tracer else contextlib.nullcontext():
                manifest = cli.run_pipeline(cfg)
        out["run_cpu_s"] = time.process_time() - c1 - sampler.spent
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        scale = speed.scale(sampler.times)
        out.update(run_wall_s=sampler.elapsed, run_s=sampler.elapsed * scale,
                   run_probe_s=statistics.fmean(sampler.times),
                   run_probes=len(sampler.times))
        if tracer:
            out["layers"] = spans.layer_metrics(tracer, scale)
        out.update(check_products(outdir, manifest, args.ref, args.write_ref))
        if tracer and tracer.unrestored():
            out["errors"].append("wrapped attributes not restored: "
                                 + ", ".join(tracer.unrestored()))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    # one CPU for the whole rep, so that the speed probes and the pipeline
    # run on the same one
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.exit(main())
