import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbath import cli
from spinbath import cce, tfa

#: value words as text: numbers (extreme and non-finite too), booleans and
#: the hf_axis forms
VALUE_TEXT = st.one_of(st.floats().map(repr), st.integers(-10 ** 30, 10 ** 30).map(str),
                       st.sampled_from(["0", "0.5", "1.5", "100.5", "1e308", "1e-320", "nan",
                                        "yes", "off", "miller", "angles", "1_0", "0x10"]),
                       st.text(max_size=5))

FAST_BODY = """
a0 = 5.43e-10
box = 3 3 3
sites = 10 11
hf_axis = 0 0 1
order = 2
tbar_max = 400
samples = 256
voices = 8
"""


#: FAST_BODY with the hf axis left at its default, so a case can set it
BASE_BODY = FAST_BODY.replace("hf_axis = 0 0 1\n", "")


def with_keys(body, extra):
    """``body`` with every key that ``extra`` sets replaced by extra's line."""
    keys = {ln.partition("=")[0].strip() for ln in extra.splitlines() if "=" in ln}
    kept = [ln for ln in body.splitlines() if ln.partition("=")[0].strip() not in keys]
    return "\n".join(kept + [extra])


def cli_env():
    """The environment for ``python -m spinbath.cli``: this checkout's
    sources first on PYTHONPATH, no output-directory override."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != cli.OUTDIR_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def write_cfg(tmp_path, body, outdir=None, name="run.cfg"):
    if outdir is None:
        outdir = tmp_path / "out"
    p = tmp_path / name
    p.write_text(body + f"\noutdir = {outdir}\n")
    return p, Path(outdir)


def manifest_products(path):
    """[products] section of a manifest as {file name: sha256}."""
    section = path.read_text().split("[products]\n")[1].split("\n\n")[0]
    pairs = (line.split(" = ") for line in section.splitlines())
    return {Path(k).name: v for k, v in pairs}


class TestParseConfig:
    def test_defaults(self):
        cfg = cli.parse_config("")
        assert cfg.order == 2 and cfg.samples == 4096
        assert cfg.box == (10, 10, 7) and cfg.abundance == 0.02
        assert cfg.c_hf == 0.5 and cfg.r_cutoff_a0 == 2.7

    def test_comments_and_values(self):
        cfg = cli.parse_config("order = 3  # truncation\nsamples=256\nsecular=yes\n")
        assert cfg.order == 3 and cfg.samples == 256 and cfg.secular is True

    def test_unknown_key(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("not_a_key = 1")

    def test_duplicate_key(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("order = 2\norder = 3")

    def test_out_of_range_names_key(self):
        with pytest.raises(cli.ConfigError, match="abundance"):
            cli.parse_config("abundance = 1.5")

    def test_bad_boolean(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("secular = maybe")

    def test_axis_forms(self):
        cfg = cli.parse_config("hf_axis = miller 1 1 1")
        assert np.allclose(cfg.hf_axis, np.ones(3) / np.sqrt(3))
        cfg = cli.parse_config("hf_axis = angles 90 0")
        assert np.allclose(cfg.hf_axis, [1, 0, 0], atol=1e-12)
        cfg = cli.parse_config("hf_axis = 0 0 2")
        assert np.allclose(cfg.hf_axis, [0, 0, 1])
        with pytest.raises(cli.ConfigError):
            cli.parse_config("hf_axis = 0 0")

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))
    def test_axis_is_unit_or_refused(self, v):
        # components whose norm overflows or underflows cannot be normalized
        try:
            axis = cli._parse_axis(" ".join(repr(x) for x in v))
        except cli.ConfigError:
            return
        assert abs(np.linalg.norm(axis) - 1.0) <= 1e-12

    @pytest.mark.parametrize("body, dim", [("spin = 100.5", "202^2"),
                                           ("spin = 4.5\norder = 4", "10^4"),
                                           ("spin = 2.5\norder = 6", "6^6")])
    def test_cluster_dimension_over_cap_refused(self, body, dim):
        with pytest.raises(cli.ConfigError) as exc:
            cli.parse_config(body)
        msg = str(exc.value)
        assert "'spin'" in msg and "'order'" in msg and dim in msg and "\n" not in msg

    def test_cluster_dimension_at_cap_allowed(self):
        assert (2 * 1.5 + 1) ** 6 == cce.EXACT_DIM_CAP
        cfg = cli.parse_config("spin = 1.5\norder = 6")
        assert (cfg.spin, cfg.order) == (1.5, 6)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from([f.name for f in dataclasses.fields(cli.RunConfig)]),
                  st.lists(VALUE_TEXT, max_size=4).map(" ".join))
        .map(" = ".join), st.text(max_size=30)), max_size=6).map("\n".join))
    def test_fuzzed_config_parses_or_is_refused_in_one_line(self, text):
        # known keys with fuzzed values reach every value parser and range check
        try:
            cli.parse_config(text)
        except cli.ConfigError as exc:
            assert "\n" not in str(exc)

    def test_mask_construction(self):
        cfg = cli.parse_config("mask_EF = false\nsecular = true")
        m = cfg.term_mask()
        assert m.enable_A and m.enable_B and not m.enable_CD and not m.enable_EF

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        p = tmp_path / "c.cfg"
        p.write_text("outdir = somewhere\n")
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "forced"))
        cfg = cli.load_config(p)
        assert cfg.outdir == str(tmp_path / "forced")


class TestSubcommands:
    def test_generate_bath(self, tmp_path, capsys):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["generate-bath", str(cfgp)]) == 0
        assert (outdir / "realization.csv").exists()
        assert "N=2" in capsys.readouterr().out

    def test_simulate_then_analyze(self, tmp_path):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["simulate", str(cfgp)]) == 0
        series = outdir / "correlation_normalized.csv"
        assert series.exists()
        assert cli.main(["analyze", str(cfgp), str(series)]) == 0
        assert (outdir / "analyze_sst.bin").exists()
        assert (outdir / "analyze_manifest.txt").exists()

    def test_run_products_and_manifest(self, tmp_path):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["run", str(cfgp)]) == 0
        for name in ("realization.csv", "correlation.csv",
                     "correlation_normalized.csv", "spectrum.csv",
                     "cwt.bin", "cwt.meta.txt", "sst.bin", "sst.meta.txt",
                     "band_0Q_sst.csv", "band_1Q_cwt.csv", "band_2Q_sst.csv",
                     "manifest.txt"):
            assert (outdir / name).exists(), name
        assert not list(outdir.glob("*.table.txt"))
        text = (outdir / "manifest.txt").read_text()
        for section in ("[config]", "[derived]", "[products]", "[timings]"):
            assert section in text
        # every file written is hashed, and every hashed file exists
        import hashlib
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in outdir.iterdir() if p.name != "manifest.txt"}
        assert manifest_products(outdir / "manifest.txt") == written

    def test_run_determinism(self, tmp_path):
        cfg1, out1 = write_cfg(tmp_path, FAST_BODY, tmp_path / "o1", "a.cfg")
        cfg2, out2 = write_cfg(tmp_path, FAST_BODY, tmp_path / "o2", "b.cfg")
        assert cli.main(["run", str(cfg1)]) == 0
        assert cli.main(["run", str(cfg2)]) == 0
        a = (out1 / "correlation.csv").read_bytes()
        b = (out2 / "correlation.csv").read_bytes()
        assert a == b

    def test_compare_orders(self, tmp_path, capsys):
        body = FAST_BODY.replace("sites = 10 11", "sites = 10 11 12 13")
        cfgp, outdir = write_cfg(tmp_path, body)
        assert cli.main(["compare-orders", str(cfgp), "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "# order,max_dev,l2_dev" in out
        assert (outdir / "order_deviations.csv").exists()
        assert (outdir / "cce2_correlation_normalized.csv").exists()
        # the highest order is its own reference
        last = out.strip().splitlines()[-1].split(",")
        assert float(last[1]) == 0.0

    def test_compare_orders_needs_two(self, tmp_path, capsys):
        cfgp, _ = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["compare-orders", str(cfgp), "2"]) == 1

    def test_compare_orders_rejects_out_of_range_order(self, tmp_path, capsys):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["compare-orders", str(cfgp), "0", "2"]) == 1
        assert "'order'" in capsys.readouterr().err
        assert not outdir.exists()

    def test_sweep_axis(self, tmp_path):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["sweep-axis", str(cfgp), "0,0,1", "1,2,3"]) == 0
        for i in range(2):
            d = outdir / f"axis{i}"
            assert (d / "full_manifest.txt").exists()
            for chan in ("B", "CD", "EF"):
                assert (d / f"chan{chan}_correlation.csv").exists()
        # the fixed realization is shared across axes
        r0 = cce.load_series(outdir / "axis0" / "full_correlation.csv")
        r1 = cce.load_series(outdir / "axis1" / "full_correlation.csv")
        assert r0.values[0] == pytest.approx(r1.values[0], rel=1e-12)

    @pytest.mark.parametrize("axis", ["1,x,0", "0,0,0", "1,0", "nan,0,1", "1e200,0,0"])
    def test_sweep_axis_rejects_bad_axis_before_work(self, tmp_path, capsys, axis):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["sweep-axis", str(cfgp), "0,0,1", axis]) == 1
        assert "config error" in capsys.readouterr().err
        assert not outdir.exists()

    def test_products_identical_across_blas_threads(self, tmp_path):
        env = cli_env()
        products = []
        for threads in ("1", "2"):
            cfgp, outdir = write_cfg(tmp_path, FAST_BODY, tmp_path / f"out{threads}",
                                     f"t{threads}.cfg")
            subprocess.run([sys.executable, "-m", "spinbath.cli", "run", str(cfgp)],
                           env={**env, "OPENBLAS_NUM_THREADS": threads},
                           check=True, timeout=300)
            products.append(manifest_products(outdir / "manifest.txt"))
        assert len(products[0]) == 14
        assert products[0] == products[1]

    @pytest.mark.skipif((len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                         else os.cpu_count() or 1) < 2, reason="two BLAS threads need two CPUs")
    @pytest.mark.xfail(strict=True, reason=(
        "OpenBLAS splits a zdot of more than 10 000 elements across threads: the "
        "trace sum of silicon order 3 at 256 samples has 16 384 rows (2048 "
        "clusters of dimension 8 per chunk)"))
    def test_order_3_correlation_identical_across_blas_threads(self, tmp_path):
        env = cli_env()
        series = []
        for threads in ("1", "2"):
            cfgp, outdir = write_cfg(tmp_path, "order = 3\nsamples = 256\n",
                                     tmp_path / f"out{threads}", f"t{threads}.cfg")
            subprocess.run([sys.executable, "-m", "spinbath.cli", "simulate", str(cfgp)],
                           env={**env, "OPENBLAS_NUM_THREADS": threads},
                           check=True, timeout=300)
            series.append((outdir / "correlation.csv").read_bytes())
        assert series[0] == series[1]


class TestExitCodes:
    def test_config_error_is_1(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("order = 99\n")
        assert cli.main(["run", str(p)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_runtime_error_is_2(self, tmp_path, capsys):
        # an empty bath is a runtime failure, not a config failure
        cfgp, _ = write_cfg(tmp_path, FAST_BODY.replace("sites = 10 11",
                                                        "abundance = 0"))
        assert cli.main(["run", str(cfgp)]) == 2
        assert "runtime error" in capsys.readouterr().err

    def test_success_is_0(self, tmp_path):
        cfgp, _ = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["run", str(cfgp)]) == 0

    @pytest.mark.parametrize("extra_body, command, code, named", [
        pytest.param("", ["run", "{tmp}/absent.cfg"], 1, "absent.cfg", id="missing-config"),
        pytest.param("seed = -1", ["run", "{cfg}"], 1, "'seed'", id="negative-seed"),
        pytest.param("hf_axis = nan 0 1", ["run", "{cfg}"], 1, "'hf_axis'", id="nan-axis"),
        # the norm overflows to inf, which would normalize the axis to zero
        pytest.param("hf_axis = 1e200 0 0", ["run", "{cfg}"], 1, "'hf_axis'",
                     id="overflowing-axis", marks=pytest.mark.filterwarnings("error")),
        pytest.param("hf_axis = miller 1e200 0 0", ["run", "{cfg}"], 1, "'hf_axis'",
                     id="overflowing-miller-axis", marks=pytest.mark.filterwarnings("error")),
        # gamma may be negative (29Si) but not zero
        pytest.param("gamma = 0", ["run", "{cfg}"], 1, "'gamma'", id="zero-gamma"),
        pytest.param("spin = 0.3", ["run", "{cfg}"], 1, "'spin'", id="non-half-integer-spin"),
        # 2 * spin overflows to inf, which round() cannot take
        pytest.param("spin = 1e308", ["run", "{cfg}"], 1, "'spin'", id="overflowing-spin"),
        pytest.param("L0 = inf", ["run", "{cfg}"], 1, "'L0'", id="infinite-float"),
        pytest.param("sites = 10 11 10", ["run", "{cfg}"], 1, "'sites'",
                     id="repeated-site"),
        # a grid whose Nyquist frequency lies below the 1Q and 2Q bands
        pytest.param("tbar_max = 1e9\nsamples = 16", ["run", "{cfg}"], 1,
                     "band 1Q", id="bands-above-nyquist"),
        # a grid too short for any wavelet row below omega_bar = 0.1
        pytest.param("tbar_max = 100\nsamples = 4096", ["run", "{cfg}"], 1,
                     "band 0Q", id="band-below-lowest-scale"),
        pytest.param("realization_file = {tmp}/bad.csv", ["run", "{cfg}"], 1,
                     "bad.csv:1", id="malformed-realization"),
        # a header and no site rows: refused before the mean coupling of none
        pytest.param("realization_file = {tmp}/no-sites.csv", ["run", "{cfg}"], 1,
                     "no-sites.csv: no site rows", id="realization-without-sites",
                     marks=pytest.mark.filterwarnings("error")),
        pytest.param("", ["analyze", "{cfg}", "{tmp}/bad.csv"], 2, "bad.csv:2",
                     id="malformed-series"),
        pytest.param("", ["analyze", "{cfg}", "{tmp}/absent.csv"], 2, "absent.csv",
                     id="missing-series"),
    ])
    def test_bad_input_is_one_line(self, tmp_path, capsys, extra_body, command,
                                   code, named):
        (tmp_path / "bad.csv").write_text("0.0,1.0\n0.1,oops\n")
        (tmp_path / "no-sites.csv").write_text("5.43e-10,3.4e-9,1e4,0.5,-5.319e7,0,0,1\n")
        cfgp, outdir = write_cfg(tmp_path, with_keys(BASE_BODY, extra_body.format(tmp=tmp_path)))
        argv = [a.format(tmp=tmp_path, cfg=cfgp) for a in command]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(("config error: ", "runtime error: ")[code - 1])
        assert err.count("\n") == 1 and named in err
        assert not (outdir / "correlation.csv").exists()

    @pytest.mark.parametrize("extra_body", ["gamma = 1e200", "a0 = 1e-300"])
    def test_infinite_E_dd_refused_before_outdir(self, tmp_path, capsys, extra_body):
        cfgp, outdir = write_cfg(tmp_path, with_keys(BASE_BODY, extra_body))
        assert cli.main(["run", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "give no finite E_dd" in err
        assert not outdir.exists()

    def test_cluster_dimension_refused_before_work(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("work started for a config over the dimension cap")

        # guarded, so a missing check fails here instead of allocating the run
        monkeypatch.setattr(cli, "_resolve_realization", unreachable)
        cfgp, outdir = write_cfg(tmp_path, with_keys(BASE_BODY, "spin = 100.5"))
        assert cli.main(["run", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'spin'" in err and "'order'" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("command", [
        ["generate-bath", "{cfg}"], ["simulate", "{cfg}"],
        ["analyze", "{cfg}", "{tmp}/series.csv"], ["run", "{cfg}"],
        ["compare-orders", "{cfg}", "2", "3"], ["sweep-axis", "{cfg}", "0,0,1"]],
        ids=lambda c: c[0])
    def test_uncreatable_outdir_is_one_line(self, tmp_path, capsys, monkeypatch, command):
        def unreachable(*args, **kwargs):
            raise AssertionError("work started before the output directory was made")

        # the first work of every command: the bath, or the series for analyze
        monkeypatch.setattr(cli, "_resolve_realization", unreachable)
        monkeypatch.setattr(cce, "load_series", unreachable)
        (tmp_path / "afile").write_text("")
        cfgp, _ = write_cfg(tmp_path, FAST_BODY, tmp_path / "afile" / "out")
        assert cli.main([a.format(tmp=tmp_path, cfg=cfgp) for a in command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'outdir'" in err

    #: leaves band 0Q without a wavelet row on the configured grid
    SHORT_GRID = "tbar_max = 100\nsamples = 4096"

    @pytest.mark.parametrize("command", [["run", "{cfg}"],
                                         ["sweep-axis", "{cfg}", "0,0,1"]])
    def test_band_coverage_refused_before_output(self, tmp_path, capsys, command):
        cfgp, outdir = write_cfg(tmp_path, with_keys(BASE_BODY, self.SHORT_GRID))
        assert cli.main([a.format(cfg=cfgp) for a in command]) == 1
        assert "band 0Q" in capsys.readouterr().err
        assert not outdir.exists()

    def test_analyze_skips_band_coverage(self, tmp_path):
        # analyze takes its grid from the series file and writes no band traces
        t = cce.time_grid(400.0, 256)
        series = tmp_path / "series.csv"
        cce.save_series(series, cce.CorrelationSeries(t, np.cos(0.5 * t)))
        cfgp, outdir = write_cfg(tmp_path, with_keys(BASE_BODY, self.SHORT_GRID))
        assert cli.main(["analyze", str(cfgp), str(series)]) == 0
        assert (outdir / "analyze_manifest.txt").exists()

    def test_zero_step_series_refused(self, tmp_path, capsys):
        # every sample at tbar = 0 used to load and then divide by the zero step
        series = tmp_path / "flat.csv"
        series.write_text("0,1\n0,0.5\n0,0.2\n0,0.1\n")
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["analyze", str(cfgp), str(series)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert "flat.csv" in err and "time grid" in err
        assert not list(outdir.glob("analyze_*"))

    @pytest.mark.parametrize("command", ["run", "simulate", "analyze",
                                         "compare-orders", "sweep-axis"])
    def test_numeric_failure_is_2(self, tmp_path, capsys, monkeypatch, command):
        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        t = cce.time_grid(400.0, 256)
        series = tmp_path / "series.csv"
        cce.save_series(series, cce.CorrelationSeries(t, np.cos(0.5 * t)))
        monkeypatch.setattr(cce, "compute_correlation", diverge)
        monkeypatch.setattr(tfa, "cwt_bump", diverge)
        cfgp, _ = write_cfg(tmp_path, FAST_BODY)
        extra = {"analyze": [str(series)], "compare-orders": ["2", "3"],
                 "sweep-axis": ["0,0,1"]}.get(command, [])
        assert cli.main([command, str(cfgp), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: stage ") and err.count("\n") == 1
        assert "did not converge" in err
