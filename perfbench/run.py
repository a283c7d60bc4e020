"""spinbath pipeline benchmark.

    python3 perfbench/run.py --workload si-o2-s1024 --seed 0 --seconds 40 --trace 0

Run from the repository root. Each repetition ("rep") runs
``cli.run_pipeline`` once, in a fresh interpreter (``perfbench/rep.py``), one
rep at a time (a closed loop with one client), with the BLAS thread count
pinned to ``BLAS_THREADS``. Reps repeat until the next one would end after
``--seconds``; at least one runs.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced reps and reports the per-layer
metrics of the traced ones (see ``spans.py``), plus the tracing overhead.

Every time metric, end-to-end or per layer, is the measured time scaled to a
reference host speed by speed probes taken during it in the same rep (see
``speed.py``), because a shared host drifts in speed by more than the bounds.
The report lines also give the measured times.

Inputs come from ``--seed``: the workload's config is run on the silicon
reference bath (bath seed 0) with the hyperfine axis drawn uniformly on the
sphere from the seed; seed 0 keeps the default [001] axis. The axis changes
every product but not the cluster set, so the work per rep does not depend on
the seed, while a different bath seed changes the order-4 cluster count by
a factor of up to 18.

Correctness gates, any of which fails the rep:
  * accuracy: the C(0) sum rule, the imaginary residue and, at seed 0, the
    deviation of the correlation series and of the three CWT band traces
    from this benchmark's stored reference (``ref/<workload>.npz``), each at
    most 1e-10 relative;
  * determinism: every product's SHA-256 is identical across all reps of one
    invocation, traced or not, and matches the manifest;
  * exact counts: spin, cluster, sample and product counts repeat exactly
    across reps, and every per-layer count across traced reps;
  * every module attribute wrapped for tracing is restored afterwards.
SST maps are covered by the determinism gate only: their bin reassignment is
discontinuous, so a tolerance comparison would not be meaningful.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, prefixed
with '#', give the environment, every rep, every gate and every metric with
its unit.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: workload -> config lines on top of the spinbath defaults
WORKLOADS = {
    # the 24 080-cluster order-4 set of acceptance criterion 10 on a
    # 256-sample series: the CCE trace formula (phase table and weighted sum)
    # takes ~60% of a rep and ~65% of compute_correlation, against ~14%
    # assembly and ~13% eigh, on one thread of a 2-core Xeon VM (the full
    # 4096-sample run takes ~110 s there, too long to repeat inside one
    # benchmark run)
    "si-o4-s256": "order = 4\nsamples = 256\n",
    # the order-2 run users start with, on a 1024-sample series: map export
    # and the CWT/SST dominate and the CCE trace is idle (at the default 4096
    # samples a rep takes ~17 s on the same VM, too few reps per run for a
    # steady median)
    "si-o2-s1024": "samples = 1024\n",
    # spin 3/2, order 3: 3 528 clusters up to dimension 64 on a short series,
    # so eigensolves and assembly weigh as much as the trace (~47% against
    # ~48% of compute_correlation, measured as above)
    "i32-o3": "spin = 1.5\norder = 3\nsamples = 256\n",
    # the 8-spin convergence bath, for the benchmark's own smoke test
    "smoke": ("sites = 1426 1375 1430 1929 4286 4287 4841 4284\n"
              "order = 2\nsamples = 256\nvoices = 8\n"),
}

#: BLAS threads for every rep; 1 is <= nproc on any machine and keeps the
#: figures steady on a shared host
BLAS_THREADS = 1
#: setup-only reps per invocation, spread over the measured run, so setup_s is
#: a median of many
SETUP_REPS = 8
#: no rep is started or allowed to run past this many seconds of the invocation
DEADLINE_S = 170.0

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}
PER_LAYER = {
    "lattice.build_s": "s", "lattice.save_s": "s", "lattice.n_spins": "count",
    "cce.enumerate_s": "s", "cce.weights_s": "s", "cce.clusters": "count",
    "cce.clusters_nonzero": "count", "cce.weight_useful_frac": "fraction",
    "cce.compute_s": "s", "cce.clusters_per_s": "1/s", "cce.trace_macs": "count",
    "cce.lines": "count", "spinops.eigh_dim3": "count",
    "hamiltonian.matrices": "count", "hamiltonian.bytes": "B",
    "cce.save_series_s": "s", "tfa.normalize_s": "s", "tfa.spectrum_s": "s",
    "tfa.save_spectrum_s": "s", "tfa.bands_s": "s", "tfa.cwt_s": "s",
    "tfa.sst_s": "s", "tfa.scales": "count", "tfa.map_cells": "count",
    "tfa.save_map_s": "s", "tfa.map_bytes": "B", "tfa.save_map_mb_per_s": "MB/s",
    "cli.hash_s": "s", "cli.bytes_hashed": "B", "cli.self_s": "s",
    "trace.overhead_s": "s",
}
#: exact per-layer counts: they must repeat across traced reps
EXACT = [k for k, u in PER_LAYER.items() if u in ("count", "B")]

#: base of every per-layer ratio, printed next to it
RATIO_BASES = {
    "cce.weight_useful_frac": "cce.clusters_nonzero / cce.clusters",
    "cce.clusters_per_s": "cce.clusters_nonzero / inclusive cce.compute_correlation time",
    "tfa.save_map_mb_per_s": "tfa.map_bytes / tfa.save_map_s",
    "trace.overhead_s": "median traced run_s - median untraced run_s",
}


def hf_axis(seed: int):
    """Unit hyperfine axis for a seed; None (the default [001]) for seed 0."""
    if seed == 0:
        return None
    rng = random.Random(seed)
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def environment(root: Path, numpy_env: dict) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    fs = "unknown"
    try:
        best = ""
        with open("/proc/self/mounts") as fh:
            for ln in fh:
                parts = ln.split()
                mnt = parts[1]
                if str(root).startswith(mnt) and len(mnt) >= len(best):
                    best, fs = mnt, f"{parts[2]} on {mnt}"
    except OSError:
        pass
    return (f"python={sys.version.split()[0]} numpy={numpy_env.get('numpy')} "
            f"blas={numpy_env.get('blas')} blas_threads={BLAS_THREADS} (pinned) "
            f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"(each rep pinned to cpu {max(os.sched_getaffinity(0))}) "
            f"cpu=\"{cpu}\" output_fs=\"{fs}\"")


def run_rep(config: Path, mode: str, env: dict, timeout: float, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), str(config), mode, *extra]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"mode": mode, "errors": [f"timed out after {timeout:.0f} s"]}
    if p.returncode != 0:
        tail = (p.stderr.strip().splitlines() or ["no output"])[-1]
        return {"mode": mode, "errors": [f"exit code {p.returncode}: {tail}"]}
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"mode": mode, "errors": ["no result line"]}


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="run one seed-0 rep and store its correlation series "
                         "and CWT band traces as the workload's reference")
    args = ap.parse_args(argv)
    t_begin = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "spinbath" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/spinbath not found",
              file=sys.stderr)
        return 2
    ref = HERE / "ref" / f"{args.workload}.npz"
    if args.write_reference:
        args.seed = 0
    elif args.seed == 0 and not ref.is_file():
        print(f"perfbench: reference {ref} missing", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    axis = hf_axis(args.seed)
    config = work / "config.txt"
    body = WORKLOADS[args.workload]
    if axis is not None:
        body += "hf_axis = " + " ".join(repr(x) for x in axis) + "\n"
    config.write_text(body + f"outdir = {work / 'out'}\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # spinbath's load_config lets this variable override outdir; the reps
    # write only under the work directory
    env.pop("SPINBATH_OUTDIR", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - t_begin)

    try:
        if args.write_reference:
            r = run_rep(config, "plain", env, left(), ["--write-ref", str(ref)])
            print(json.dumps(r.get("accuracy")), r.get("errors"))
            return 0 if not r.get("errors") else 2
        extra = ["--ref", str(ref)] if args.seed == 0 else []
        plan = ("plain", "traced") if args.trace else ("plain",)
        setups, reps, longest = [], [], 0.0
        t0 = time.perf_counter()

        def setups_upto(share: float) -> None:
            # setup-only reps are spread over the run, so that setup_s samples
            # the host at many moments rather than at one
            while len(setups) < max(1, math.ceil(SETUP_REPS * share)) and left() > 0:
                setups.append(run_rep(config, "setup", env, left()))

        while True:
            setups_upto(min(1.0, (time.perf_counter() - t0) / args.seconds))
            elapsed = time.perf_counter() - t0
            if len(reps) >= len(plan) and elapsed + longest > args.seconds:
                break
            if len(reps) >= len(plan) and left() < longest:
                break
            t = time.perf_counter()
            reps.append(run_rep(config, plan[len(reps) % len(plan)], env, left(), extra))
            longest = max(longest, time.perf_counter() - t)
        setups_upto(1.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = report(args, axis, root, setups, reps)
    print(json.dumps(result))
    return 0


def report(args, axis, root, setups, reps) -> dict:
    """Apply the cross-rep gates, print the human-readable report and return
    the result object."""
    print(f"# env {environment(root, setups[0].get('env', {}))}")
    print(f"# workload {args.workload} seed {args.seed} hf_axis "
          f"{'[0, 0, 1] (default)' if axis is None else [round(x, 6) for x in axis]}"
          f"; config: {WORKLOADS[args.workload].strip().replace(chr(10), '; ') or 'defaults'}")
    for key, what in (("setup_probe_s", "after set-up"), ("run_probe_s", "during runs")):
        probes = [r[key] for r in setups + reps if key in r]
        if probes:
            print(f"# speed probe {what}: mean time per rep median {median(probes) * 1e3:.4f} "
                  f"ms, min {min(probes) * 1e3:.4f}, max {max(probes) * 1e3:.4f} "
                  f"(times are scaled by speed.REF_S / probe time)")
    problems = [f"setup rep {i + 1}: {e}" for i, s in enumerate(setups)
                for e in s.get("errors", [])]

    first = next((r for r in reps if not r.get("errors")), None)
    first_traced = next((r for r in reps if "layers" in r and not r.get("errors")), None)
    for r in reps:
        if first is None or r.get("errors"):
            continue
        diff = sorted(k for k in set(first["hashes"]) | set(r["hashes"])
                      if first["hashes"].get(k) != r["hashes"].get(k))
        if diff:
            r["errors"].append("sha256 differs from the first rep: " + ", ".join(diff))
        if r["counts"] != first["counts"]:
            r["errors"].append(f"counts {r['counts']} differ from {first['counts']}")
        if "layers" in r:
            moved = [k for k in EXACT if r["layers"][k] != first_traced["layers"][k]]
            if moved:
                r["errors"].append("per-layer counts differ across traced reps: "
                                   + ", ".join(moved))

    for i, r in enumerate(reps, 1):
        status = "ok" if not r.get("errors") else "FAILED: " + "; ".join(r["errors"])
        if "run_s" in r:
            print(f"# rep {i} {r['mode']:6s} run_s={r['run_s']:.4f} s "
                  f"(measured {r['run_wall_s']:.4f} s, cpu {r['run_cpu_s']:.4f} s, "
                  f"{r['run_probes']} probes of {r['run_probe_s'] * 1e3:.4f} ms) "
                  f"setup_s={r['setup_s']:.4f} s (measured {r['setup_wall_s']:.4f} s) "
                  f"peak_rss_mb={r['peak_rss_mb']:.1f} MB "
                  f"output_mb={r['output_mb']:.3f} MB {status}")
        else:
            print(f"# rep {i} {r['mode']:6s} {status}")
    for p in problems:
        print(f"# FAILED {p}")

    good = [r for r in reps if not r.get("errors")]
    plain = [r for r in good if r["mode"] == "plain"]
    traced = [r for r in good if r["mode"] == "traced"]
    failed = len(reps) - len(good)
    if good:
        acc = {k: max(r["accuracy"][k] for r in good) for k in good[0]["accuracy"]}
        print("# accuracy (max over reps, gate 1e-10): "
              + " ".join(f"{k}={v:.3e}" for k, v in acc.items()))
        if args.seed != 0:
            print("# reference comparison skipped: the stored reference is for seed 0 only")
        print(f"# determinism: {len(first['hashes'])} products, sha256 identical across "
              f"{len(good)} reps ({len(plain)} untraced, {len(traced)} traced)")
        print("# counts (exact across reps): "
              + " ".join(f"{k}={v}" for k, v in first["counts"].items()))
    print(f"# failed_frac = {failed}/{len(reps)} = {failed / len(reps):.3f}")

    samples = {k: [r[k] for r in plain] for k in ("run_s", "peak_rss_mb", "output_mb")}
    samples["setup_s"] = [r["setup_s"] for r in setups + reps if "setup_s" in r]
    measured = {"run_s": [r["run_wall_s"] for r in plain],
                "setup_s": [r["setup_wall_s"] for r in setups + reps if "setup_s" in r]}
    e2e = {k: median(samples[k]) for k in END_TO_END}
    for k, v in e2e.items():
        spread = (f", min {min(samples[k]):.6g}, max {max(samples[k]):.6g}"
                  if samples[k] else "")
        if measured.get(k):
            spread += (f"; scaled to the reference host speed, measured median "
                       f"{median(measured[k]):.6g}")
        print(f"# metric {k} = {v:.6g} {END_TO_END[k]} "
              f"(median of {len(samples[k])}{spread})")

    layers = {}
    if traced:
        layers = {k: traced[0]["layers"][k] if k in EXACT
                  else median([r["layers"][k] for r in traced])
                  for k in PER_LAYER if k != "trace.overhead_s"}
        layers["trace.overhead_s"] = median([r["run_s"] for r in traced]) - e2e["run_s"]
        for k, v in layers.items():
            base = f"  [{RATIO_BASES[k]}]" if k in RATIO_BASES else ""
            exact = " (exact)" if k in EXACT else f" (median of {len(traced)})"
            print(f"# layer {k} = {v:.6g} {PER_LAYER[k]}{exact}{base}")
        timed = {k: v for k, v in layers.items()
                 if PER_LAYER[k] == "s" and k != "trace.overhead_s"}
        print(f"# largest layer by self time: {max(timed, key=timed.get)}")

    wanted, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in wanted.items()
               if not math.isnan(v)}
    return {"correct": failed == 0 and not problems and len(metrics) == len(units),
            "attempted": len(reps), "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
