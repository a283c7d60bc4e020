"""Smoke test of the benchmark on the 8-spin convergence bath (order 2, 256
samples). Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""
import importlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import rep  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=170)


@pytest.fixture
def workdir():
    """A fresh directory under perfbench/.work, the only place a rep writes."""
    path = rep.WORK / f"test-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def user_outdir(tmp_path):
    """A directory named by SPINBATH_OUTDIR that holds a user's file."""
    path = tmp_path / "user-out"
    path.mkdir()
    (path / "keep.txt").write_text("user data\n")
    return path


def wrapped_originals():
    return {(m, a): getattr(importlib.import_module(f"spinbath.{m}"), a)
            for m, a in spans.WRAPPED}


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_by_name_with_unit(trace, key):
    p = bench("--workload", "smoke", "--seed", "0", "--seconds", "1",
              "--trace", str(trace))
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, p.stdout
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    want = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert re.search(rf"^# (metric|layer) {re.escape(name)} = \S+ {re.escape(unit)} ",
                         p.stdout, re.M), name
    assert "ref_dev_rel=0.000e+00" in p.stdout


def test_traced_and_untraced_hashes_match():
    p = bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert p.returncode == 0, p.stderr
    m = re.search(r"sha256 identical across (\d+) reps \((\d+) untraced, (\d+) traced\)",
                  p.stdout)
    assert m and int(m[2]) >= 1 and int(m[3]) >= 1, p.stdout
    assert json.loads(p.stdout.splitlines()[-1])["correct"]
    assert "reference comparison skipped" in p.stdout


def test_hash_mismatch_fails_the_rep(capsys):
    rep = {"mode": "plain", "setup_s": 0.1, "setup_wall_s": 0.1, "run_s": 1.0,
           "run_wall_s": 1.0, "run_cpu_s": 1.0, "setup_probe_s": 2e-3,
           "run_probe_s": 2e-3, "run_probes": 5,
           "peak_rss_mb": 1.0, "output_mb": 1.0, "hashes": {"a.bin": "0"}, "counts": {"n_spins": 8},
           "accuracy": {"sum_rule_rel": 0.0}, "errors": []}
    other = dict(rep, hashes={"a.bin": "1"}, errors=[])
    args = run.argparse.Namespace(workload="smoke", seed=1, trace=0)
    setup = {"setup_s": 0.1, "setup_wall_s": 0.1, "setup_probe_s": 2e-3}
    result = run.report(args, [0.0, 0.0, 1.0], ROOT, [setup], [rep, other])
    assert not result["correct"] and result["failed"] == 1
    assert "sha256 differs from the first rep: a.bin" in capsys.readouterr().out


def test_reference_deviation_fails_the_rep(workdir, capsys, monkeypatch):
    import numpy as np
    monkeypatch.delenv("SPINBATH_OUTDIR", raising=False)
    with np.load(ROOT / "perfbench" / "ref" / "smoke.npz") as r:
        arrays = dict(r)
    arrays["correlation"] = arrays["correlation"] * (1 + 1e-8)
    bad = workdir / "bad.npz"
    np.savez(bad, **arrays)
    cfg = workdir / "config.txt"
    cfg.write_text(run.WORKLOADS["smoke"] + f"outdir = {workdir / 'out'}\n")
    assert rep.main([str(cfg), "plain", "--ref", str(bad)]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert [e.split(" =")[0] for e in out["errors"]] == ["ref_dev_rel"]
    assert not (workdir / "out").exists()


def test_rep_refuses_an_outdir_outside_the_work_directory(workdir, user_outdir,
                                                          monkeypatch):
    monkeypatch.setenv("SPINBATH_OUTDIR", str(user_outdir))
    cfg = workdir / "config.txt"
    cfg.write_text(run.WORKLOADS["smoke"] + f"outdir = {workdir / 'out'}\n")
    assert rep.main([str(cfg), "plain"]) != 0
    assert [f.name for f in user_outdir.iterdir()] == ["keep.txt"]
    assert not (workdir / "out").exists()


def test_user_outdir_survives_a_run(user_outdir):
    env = dict(os.environ, SPINBATH_OUTDIR=str(user_outdir))
    p = bench("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", "0",
              env=env)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout.splitlines()[-1])["correct"], p.stdout
    assert [f.name for f in user_outdir.iterdir()] == ["keep.txt"]
    assert (user_outdir / "keep.txt").read_text() == "user data\n"


def test_wrapped_attributes_restored(tmp_path):
    from spinbath import cli
    before = wrapped_originals()
    cfg = cli.parse_config(run.WORKLOADS["smoke"] + f"outdir = {tmp_path}\n")
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(wrapped_originals()[k] is not fn for k, fn in before.items())
        cli.run_pipeline(cfg)
    assert tracer.unrestored() == []
    assert wrapped_originals() == before
    assert {s.name for s in tracer.spans} == {f"{m}.{a}" for m, a in spans.WRAPPED}
    # self times partition the root span
    assert sum(tracer.self_times().values()) == pytest.approx(
        tracer.total("cli.run_pipeline"), rel=1e-9)
    assert set(spans.layer_metrics(tracer)) == set(run.PER_LAYER) - {"trace.overhead_s"}

    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("pipeline failure")
    assert wrapped_originals() == before


def test_sampler_probes_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    t = time.perf_counter()
    with speed.Sampler() as sampler:
        while time.perf_counter() - t < 5 * speed.PERIOD_S:
            pass
    wall = time.perf_counter() - t
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.times) >= 3
    assert sampler.spent >= sum(sampler.times)
    assert sampler.elapsed == pytest.approx(wall - sampler.spent, abs=1e-3)
    # a block shorter than one period still gets a probe
    with speed.Sampler() as short:
        pass
    assert len(short.times) == 1 and short.spent == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    p = bench("--workload", "si-o2-s1024", "--seed", "0", "--seconds", "1",
              "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert "{" not in p.stdout
