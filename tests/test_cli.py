import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbath import cli
from spinbath import cce, lattice, tfa

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

#: FAST_BODY on three sites, so that ``compare-orders 2 3`` is in range
THREE_SITE_BODY = FAST_BODY.replace("sites = 10 11", "sites = 10 11 12")

#: FAST_BODY on four mutually close sites: one connected cluster of each size
FOUR_SITE_BODY = FAST_BODY.replace("sites = 10 11", "sites = 10 11 12 13")


#: a CCE correlation past the float range, as the run reports it
NOT_FINITE = "stage 'cce' failed: the correlation is not finite"


def with_keys(body, extra):
    """``body`` with every key that ``extra`` sets replaced by extra's line."""
    keys = {ln.partition("=")[0].strip() for ln in extra.splitlines() if "=" in ln}
    kept = [ln for ln in body.splitlines() if ln.partition("=")[0].strip() not in keys]
    return "\n".join(kept + [extra])


def cli_env():
    """The environment for ``python -m spinbath.cli``: this checkout's
    sources first on PYTHONPATH, no output-directory override, and a
    RuntimeWarning raised as an error, as pytest raises it in process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != cli.OUTDIR_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env


def write_cfg(tmp_path, body, outdir=None, name="run.cfg"):
    if outdir is None:
        outdir = tmp_path / "out"
    p = tmp_path / name
    p.write_text(body + f"\noutdir = {outdir}\n")
    return p, Path(outdir)


def manifest_section(path, name):
    """[name] section of a manifest as {key: value as written}."""
    section = path.read_text().split(f"[{name}]\n")[1].split("\n\n")[0]
    return dict(line.split(" = ") for line in section.splitlines())


def manifest_products(path):
    """[products] section of a manifest as {name as listed: sha256}."""
    return manifest_section(path, "products")


def hashes(paths):
    """{file name: sha256} of the files ``paths``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


class TestParseConfig:
    def test_defaults(self):
        cfg = cli.parse_config("")
        assert cfg.order == 2 and cfg.samples == 4096
        assert cfg.box == (10, 10, 7) and cfg.abundance == 0.02
        assert cfg.c_hf == 0.5 and cfg.r_cutoff_a0 == 2.7

    def test_comments_and_values(self):
        cfg = cli.parse_config("order = 3  # truncation\nsamples=256\nmask_EF=no\n")
        assert cfg.order == 3 and cfg.samples == 256 and cfg.mask_EF is False

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
            cli.parse_config("mask_A = maybe")

    def test_axis_forms(self):
        cfg = cli.parse_config("hf_axis = miller 1 1 1")
        assert np.allclose(cfg.hf_axis, np.ones(3) / np.sqrt(3))
        cfg = cli.parse_config("hf_axis = angles 90 0")
        assert np.allclose(cfg.hf_axis, [1, 0, 0], atol=1e-12)
        cfg = cli.parse_config("hf_axis = 0 0 2")
        assert np.allclose(cfg.hf_axis, [0, 0, 1])
        with pytest.raises(cli.ConfigError):
            cli.parse_config("hf_axis = 0 0")

    @pytest.mark.parametrize("form", ["1 1 0", "miller 1 1 0", "angles 90 45"])
    def test_axis_is_plain_floats(self, form):
        # numpy scalars would echo as np.float64(...) in every manifest
        axis = cli.parse_config(f"hf_axis = {form}").hf_axis
        assert [type(c) for c in axis] == [float] * 3
        assert np.allclose(axis, [np.sqrt(0.5), np.sqrt(0.5), 0.0], atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))
    def test_axis_is_unit_or_refused(self, v):
        # components whose norm overflows or underflows cannot be normalized
        try:
            axis = cli._parse_axis(" ".join(repr(x) for x in v))
        except cli.ConfigError:
            return
        assert abs(np.linalg.norm(axis) - 1.0) <= 1e-12

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

    @pytest.mark.parametrize("field", dataclasses.fields(cli.RunConfig), ids=lambda f: f.name)
    def test_default_text_parses_to_the_default(self, field):
        # a key parses as the type of its default: the default's own text
        # gives it back, of the same type (manifests echo it with str)
        value = field.default
        if value is None:       # unset, as when the key is left out
            text = ""
        elif isinstance(value, tuple):
            text = f"{field.name} = " + " ".join(str(v) for v in value)
        else:
            text = f"{field.name} = {value}"
        parsed = getattr(cli.parse_config(text), field.name)
        assert parsed == value and str(parsed) == str(value)

    def test_mask_construction(self):
        # the high-field Hamiltonian: A and B on, C/D and E/F off
        cfg = cli.parse_config("mask_CD = false\nmask_EF = false")
        m = cfg.term_mask()
        assert m.enable_A and m.enable_B and not m.enable_CD and not m.enable_EF

    def test_secular_key_is_unknown(self):
        # one spelling of the high-field mode: mask_CD and mask_EF off
        with pytest.raises(cli.ConfigError, match="^unknown configuration key .secular.$"):
            cli.parse_config("secular = true")

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
        written = hashes(p for p in outdir.iterdir() if p.name != "manifest.txt")
        assert manifest_products(outdir / "manifest.txt") == written

    def test_manifest_gives_the_realization_files_spin(self, tmp_path):
        gen, bath = write_cfg(tmp_path, with_keys(FAST_BODY, "spin = 1.5\nhf_axis = 1 1 0"),
                              tmp_path / "bath", "bath.cfg")
        assert cli.main(["generate-bath", str(gen)]) == 0
        cfgp, outdir = write_cfg(tmp_path, with_keys(
            FAST_BODY, f"realization_file = {bath / 'realization.csv'}"))
        assert cli.main(["run", str(cfgp)]) == 0
        config, derived = (manifest_section(outdir / "manifest.txt", name)
                           for name in ("config", "derived"))
        # the config's spin and axis are echoed, the file's, which the CCE
        # used, are derived
        assert config["spin"] == "0.5" and derived["spin_I"] == "1.5"
        assert config["hf_axis"] == "(0.0, 0.0, 1.0)"
        assert derived["hf_axis"] == "(0.7071067811865476, 0.7071067811865476, 0.0)"

    def test_manifest_verifies_after_the_directory_moves(self, tmp_path):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["run", str(cfgp)]) == 0
        moved = shutil.move(outdir, tmp_path / "elsewhere" / "copy")
        listed = manifest_products(moved / "manifest.txt")
        assert len(listed) == 14
        for name, digest in listed.items():
            assert hashlib.sha256((moved / name).read_bytes()).hexdigest() == digest, name
        # no line names the directory it was written in, outdir included
        assert str(tmp_path) not in (moved / "manifest.txt").read_text()

    def test_analyze_normalizes_a_series_flagged_not_normalized(self, tmp_path):
        # the header's False is a boolean, not the truthy string "False"
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["simulate", str(cfgp)]) == 0
        raw = outdir / "correlation.csv"
        flagged = tmp_path / "flagged.csv"
        flagged.write_text("# normalized = False\n" + raw.read_text())
        products = []
        for series in (raw, flagged):
            assert cli.main(["analyze", str(cfgp), str(series)]) == 0
            products.append(hashes(p for p in outdir.glob("analyze_*")
                                   if p.name != "analyze_manifest.txt"))
        assert products[0] == products[1]

    def test_analyze_manifest_lists_what_it_wrote(self, tmp_path):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["simulate", str(cfgp)]) == 0
        assert cli.main(["analyze", str(cfgp), str(outdir / "correlation.csv")]) == 0
        written = hashes(p for p in outdir.glob("analyze_*")
                         if p.name != "analyze_manifest.txt")
        assert len(written) == 5
        assert manifest_products(outdir / "analyze_manifest.txt") == written

    @pytest.mark.parametrize("command, count", [
        (["generate-bath"], 1), (["simulate"], 2), (["compare-orders", "2", "3"], 3)],
        ids=["generate-bath", "simulate", "compare-orders"])
    def test_manifest_lists_what_it_wrote(self, tmp_path, command, count):
        cfgp, outdir = write_cfg(tmp_path, THREE_SITE_BODY)
        assert cli.main([command[0], str(cfgp), *command[1:]]) == 0
        written = hashes(p for p in outdir.iterdir() if p.name != "manifest.txt")
        assert len(written) == count
        assert manifest_products(outdir / "manifest.txt") == written

    @pytest.mark.parametrize("command, order", [(["simulate"], 2),
                                                (["compare-orders", "2", "3"], 3)],
                             ids=["simulate", "compare-orders"])
    def test_cce_commands_derive_what_run_derives(self, tmp_path, command, order):
        # compare-orders derives the values of its highest order
        run_cfg, run_out = write_cfg(tmp_path, with_keys(THREE_SITE_BODY, f"order = {order}"),
                                     tmp_path / "run", "run.cfg")
        assert cli.main(["run", str(run_cfg)]) == 0
        cfgp, outdir = write_cfg(tmp_path, THREE_SITE_BODY)
        assert cli.main([command[0], str(cfgp), *command[1:]]) == 0
        derived = manifest_section(outdir / "manifest.txt", "derived")
        assert "cluster_counts" in derived
        assert derived == manifest_section(run_out / "manifest.txt", "derived")

    def test_every_product_prints_the_series_grid(self, tmp_path):
        # linspace(0, 500, 1000) ends at 500 exactly, where k * dt ends one
        # ulp above it: the band traces and map sidecars print the series' grid
        cfgp, outdir = write_cfg(tmp_path, with_keys(FAST_BODY, "tbar_max = 500\nsamples = 1000"))
        assert cli.main(["run", str(cfgp)]) == 0
        last = (outdir / "correlation.csv").read_text().splitlines()[-1].split(",")[0]
        assert last == "5.0000000000000000e+02"
        bands, metas = sorted(outdir.glob("band_*.csv")), sorted(outdir.glob("*.meta.txt"))
        assert len(bands) == 2 * len(cli.BANDS) and len(metas) == 2
        for p in bands:
            assert p.read_text().splitlines()[-1].split(",")[0] == last
        for p in metas:
            assert p.read_text().splitlines()[-1].split(",")[-1] == last

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

    def test_compare_orders_matches_simulate(self, tmp_path):
        # each order traces its prefix of the highest order's cluster set
        cfgp, outdir = write_cfg(tmp_path, FOUR_SITE_BODY)
        assert cli.main(["compare-orders", str(cfgp), "2", "3", "4"]) == 0
        for m in (2, 3, 4):
            simp, simdir = write_cfg(tmp_path, with_keys(FOUR_SITE_BODY, f"order = {m}"),
                                     tmp_path / f"sim{m}", f"sim{m}.cfg")
            assert cli.main(["simulate", str(simp)]) == 0
            assert (outdir / f"cce{m}_correlation_normalized.csv").read_bytes() == \
                (simdir / "correlation_normalized.csv").read_bytes(), m

    def test_compare_orders_times_each_order(self, tmp_path):
        cfgp, outdir = write_cfg(tmp_path, THREE_SITE_BODY)
        assert cli.main(["compare-orders", str(cfgp), "2", "3"]) == 0
        assert set(manifest_section(outdir / "manifest.txt", "timings")) == {
            "realization", "clusters", "cce2", "normalize2", "cce3", "normalize3"}

    def test_compare_orders_checks_its_orders_without_validate(self, tmp_path, monkeypatch):
        # the preflight checks the compared orders; the parsed config is not re-validated
        cfg = cli.load_config(write_cfg(tmp_path, THREE_SITE_BODY)[0])

        def unreachable(*args, **kwargs):
            raise AssertionError("the config was validated again")

        monkeypatch.setattr(cli, "_validate", unreachable)
        assert cli.compare_orders(cfg, [3, 2]).startswith("# order,max_dev,l2_dev\n2,")

    def test_compare_orders_needs_two(self, tmp_path, capsys):
        cfgp, _ = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["compare-orders", str(cfgp), "2"]) == 1

    def test_compare_orders_rejects_repeated_order(self, tmp_path, capsys):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["compare-orders", str(cfgp), "2", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "order 2" in err
        assert not outdir.exists()

    def test_compare_orders_rejects_out_of_range_order(self, tmp_path, capsys):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        # order 1 has a constant correlation, which cannot be normalized
        for order in ("0", "1"):
            assert cli.main(["compare-orders", str(cfgp), order, "2"]) == 1
            assert "'order'" in capsys.readouterr().err
            assert not outdir.exists()

    def test_compare_orders_rejects_order_above_spin_count(self, tmp_path, capsys,
                                                           monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("CCE run for an order above the spin count")

        monkeypatch.setattr(cce, "compute_correlation", unreachable)
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        # order 3 would be clamped to the bath's two spins: two equal rows
        assert cli.main(["compare-orders", str(cfgp), "2", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "order 3" in err and "2 spins" in err
        assert not (outdir / "order_deviations.csv").exists()

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

    @pytest.mark.parametrize("tag, masks", [
        ("full", ""), ("chanB", "mask_CD = false\nmask_EF = false"),
        ("chanCD", "mask_B = false\nmask_EF = false"),
        ("chanEF", "mask_B = false\nmask_CD = false")], ids=["full", "chanB", "chanCD", "chanEF"])
    def test_sweep_axis_full_products_match_run(self, tmp_path, tag, masks):
        # each variant is the run with its mask keys; the parsed axis is
        # divided by its norm once more in build_realization
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["sweep-axis", str(cfgp), "1,1,0"]) == 0
        runp, rundir = write_cfg(tmp_path, with_keys(FAST_BODY, f"hf_axis = 1 1 0\n{masks}"),
                                 tmp_path / "run-out", "run1.cfg")
        assert cli.main(["run", str(runp)]) == 0
        names = sorted(p.name for p in rundir.iterdir() if p.name != "manifest.txt")
        assert len(names) == 14
        # the realization is the directory's bath, so it takes no variant prefix
        assert sorted(p.name for p in (outdir / "axis0").glob("*realization*")) == \
            ["realization.csv"]
        for name in names:
            swept = name if name == "realization.csv" else f"{tag}_{name}"
            assert (outdir / "axis0" / swept).read_bytes() == \
                (rundir / name).read_bytes(), name

    def test_sweep_axis_manifests_list_what_they_wrote(self, tmp_path):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["sweep-axis", str(cfgp), "0,0,1"]) == 0
        d = outdir / "axis0"
        for tag in ("full", "chanB", "chanCD", "chanEF"):
            written = hashes([d / "realization.csv"] + [
                p for p in d.glob(f"{tag}_*") if p.name != f"{tag}_manifest.txt"])
            assert len(written) == 14
            assert manifest_products(d / f"{tag}_manifest.txt") == written, tag

    def test_sweep_axis_manifests_time_the_shared_bath(self, tmp_path):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["sweep-axis", str(cfgp), "0,0,1", "1,2,3"]) == 0
        manifests = sorted(outdir.glob("axis*/*_manifest.txt"))
        assert len(manifests) == 8
        shared = [{k: v for k, v in manifest_section(m, "timings").items()
                   if k in ("realization", "clusters")} for m in manifests]
        assert set(shared[0]) == {"realization", "clusters"}
        assert all(s == shared[0] for s in shared)

    @pytest.mark.parametrize("command, body, order", [
        (["run"], FAST_BODY, 2), (["simulate"], FAST_BODY, 2),
        # enumerated at the highest order; the lower orders trace its prefixes
        (["compare-orders", "2", "3"], THREE_SITE_BODY, 3),
        # the axis and the channel masks move no site
        (["sweep-axis", "0,0,1", "1,2,3"], FAST_BODY, 2)],
        ids=["run", "simulate", "compare-orders", "sweep-axis"])
    def test_each_command_enumerates_its_clusters_once(self, tmp_path, monkeypatch,
                                                       command, body, order):
        orders = []
        enumerate_clusters = cce.enumerate_clusters

        def counted(realization, r_cutoff, max_order):
            orders.append(max_order)
            return enumerate_clusters(realization, r_cutoff, max_order)

        monkeypatch.setattr(cce, "enumerate_clusters", counted)
        cfgp, _ = write_cfg(tmp_path, body)
        assert cli.main([command[0], str(cfgp), *command[1:]]) == 0
        assert orders == [order]

    def test_manifests_echo_the_axis_as_plain_floats(self, tmp_path):
        axis = "hf_axis = (0.7071067811865475, 0.7071067811865475, 0.0)"
        runp, rundir = write_cfg(tmp_path, with_keys(FAST_BODY, "hf_axis = 1 1 0"),
                                 tmp_path / "run-out", "run1.cfg")
        assert cli.main(["run", str(runp)]) == 0
        assert axis in (rundir / "manifest.txt").read_text().splitlines()
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["sweep-axis", str(cfgp), "0,0,1", "1,1,0"]) == 0
        for i, line in enumerate(["hf_axis = (0.0, 0.0, 1.0)", axis]):
            for m in sorted((outdir / f"axis{i}").glob("*_manifest.txt")):
                assert line in m.read_text().splitlines(), m.name

    @pytest.mark.parametrize("command, body, calls", [
        (["run"], FAST_BODY, 1),
        # one weight set per order: the order-2 set is the order-3 set's prefix
        (["compare-orders", "2", "3"], THREE_SITE_BODY, 2),
        # every axis and channel mask runs on the one cluster set and its weights
        (["sweep-axis", "0,0,1", "1,2,3"], FAST_BODY, 1)],
        ids=["run", "compare-orders", "sweep-axis"])
    def test_each_cluster_set_is_weighed_once(self, tmp_path, monkeypatch,
                                              command, body, calls):
        sets = []
        combination_coefficients = cce.combination_coefficients

        def counted(cset):
            sets.append(len(cset.clusters))
            return combination_coefficients(cset)

        monkeypatch.setattr(cce, "combination_coefficients", counted)
        cfgp, _ = write_cfg(tmp_path, body)
        assert cli.main([command[0], str(cfgp), *command[1:]]) == 0
        assert len(sets) == calls

    @pytest.mark.parametrize("command, body", [
        (["run"], FAST_BODY), (["simulate"], FAST_BODY),
        (["compare-orders", "2", "3"], THREE_SITE_BODY),
        (["sweep-axis", "0,0,1", "1,2,3"], FAST_BODY)],
        ids=["run", "simulate", "compare-orders", "sweep-axis"])
    def test_no_command_reads_the_cluster_views(self, tmp_path, monkeypatch, command, body):
        # ClusterSet.clusters and the weights' len and iteration are views for
        # the benchmark's tracer; every command reads the per-size arrays
        def unread(*args):
            raise AssertionError("a cluster view was read")

        monkeypatch.setattr(cce.ClusterSet, "clusters", property(unread))
        for name in ("__len__", "__iter__"):
            monkeypatch.setattr(cce.Weights, name, unread)
        cfgp, _ = write_cfg(tmp_path, body)
        assert cli.main([command[0], str(cfgp), *command[1:]]) == 0

    @pytest.mark.parametrize("axis", ["1,x,0", "0,0,0", "1,0", "nan,0,1", "1e200,0,0"])
    def test_sweep_axis_rejects_bad_axis_before_work(self, tmp_path, capsys, axis):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["sweep-axis", str(cfgp), "0,0,1", axis]) == 1
        assert "config error" in capsys.readouterr().err
        assert not outdir.exists()

    def test_sweep_axis_needs_an_axis(self, tmp_path):
        # the CLI's nargs="+" never passes none, but the function is public
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        with pytest.raises(cli.ConfigError, match="at least one axis"):
            cli.sweep_hf_axis(cli.load_config(cfgp), [])
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
                     id="overflowing-axis"),
        pytest.param("hf_axis = miller 1e200 0 0", ["run", "{cfg}"], 1, "'hf_axis'",
                     id="overflowing-miller-axis"),
        # gamma may be negative (29Si) but not zero
        pytest.param("gamma = 0", ["run", "{cfg}"], 1, "'gamma'", id="zero-gamma"),
        pytest.param("spin = 0.3", ["run", "{cfg}"], 1, "'spin'", id="non-half-integer-spin"),
        # 2 * spin overflows to inf, which round() cannot take
        pytest.param("spin = 1e308", ["run", "{cfg}"], 1, "'spin'", id="overflowing-spin"),
        pytest.param("L0 = inf", ["run", "{cfg}"], 1, "'L0'", id="infinite-float"),
        pytest.param("sites = 10 11 10", ["run", "{cfg}"], 1, "'sites'",
                     id="repeated-site"),
        pytest.param("hf_axis = angles 10", ["run", "{cfg}"], 1, "'hf_axis'",
                     id="axis-angles-without-phi"),
        pytest.param("hf_axis = miller 1 1", ["run", "{cfg}"], 1, "'hf_axis'",
                     id="axis-miller-of-two"),
        pytest.param("box = 3 3", ["run", "{cfg}"], 1, "'box'", id="box-of-two"),
        # past the float range in the CCE, which prints no warning first
        pytest.param("A0_over_Edd = 1e-320", ["run", "{cfg}"], 2, NOT_FINITE,
                     id="E-over-A_bar-overflows"),
        pytest.param("A0_over_Edd = 1e10\ngamma = 1e154", ["run", "{cfg}"], 2, NOT_FINITE,
                     id="coupling-squared-overflows"),
        pytest.param("c_hf = 1e308", ["run", "{cfg}"], 2, NOT_FINITE,
                     id="hamiltonian-overflows"),
        # a lone spin's correlation is constant, so normalizing it fails
        pytest.param("order = 1", ["run", "{cfg}"], 1, "'order'", id="order-1"),
        # so does that of a bath with no pair inside the cutoff: refused before the CCE
        pytest.param("sites = 10", ["run", "{cfg}"], 2, "1 spins lies within 'r_cutoff_a0'",
                     id="one-spin"),
        pytest.param("r_cutoff_a0 = 1e-300", ["simulate", "{cfg}"], 2,
                     "2 spins lies within 'r_cutoff_a0' = 1e-300", id="no-pair-in-cutoff"),
        pytest.param("sites = 10 11 12\nr_cutoff_a0 = 1e-300",
                     ["compare-orders", "{cfg}", "2", "3"], 2,
                     "3 spins lies within 'r_cutoff_a0' = 1e-300", id="compare-orders-no-pair"),
        # an order above the spin count is refused first
        pytest.param("r_cutoff_a0 = 1e-300", ["compare-orders", "{cfg}", "2", "3"], 1,
                     "order 3 exceeds the bath's 2 spins", id="compare-orders-order-first"),
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
                     "no-sites.csv: no site rows", id="realization-without-sites"),
        # the header's axis norm overflows: refused with no RuntimeWarning first
        pytest.param("realization_file = {tmp}/huge-axis.csv", ["run", "{cfg}"], 1,
                     "hf_axis must be a unit vector", id="realization-axis-norm-overflows"),
        pytest.param("realization_file = {tmp}/repeated.csv", ["run", "{cfg}"], 1,
                     "repeated.csv: site index 10 is repeated", id="realization-repeated-index"),
        pytest.param("realization_file = {tmp}/coincident.csv", ["simulate", "{cfg}"], 1,
                     "coincident.csv: sites 10 and 12 share one position",
                     id="realization-coincident-sites"),
        pytest.param("", ["analyze", "{cfg}", "{tmp}/bad.csv"], 2, "bad.csv:2",
                     id="malformed-series"),
        pytest.param("", ["analyze", "{cfg}", "{tmp}/absent.csv"], 2, "absent.csv",
                     id="missing-series"),
        # finite values whose mean overflows, with no RuntimeWarning first
        pytest.param("", ["analyze", "{cfg}", "{tmp}/huge.csv"], 2,
                     "stage 'normalize' failed: the correlation is not finite",
                     id="series-mean-overflows"),
        # a file that is not UTF-8 text, each input read once
        pytest.param("", ["run", "{tmp}/latin1.txt"], 1, "config file {tmp}/latin1.txt is not",
                     id="config-not-text"),
        pytest.param("realization_file = {tmp}/latin1.txt", ["run", "{cfg}"], 1,
                     "realization file {tmp}/latin1.txt is not", id="realization-not-text"),
        pytest.param("", ["analyze", "{cfg}", "{tmp}/latin1.txt"], 2,
                     "series file {tmp}/latin1.txt is not", id="series-not-text"),
        # a 7 PiB time grid, which no 64-bit address space maps: nothing is allocated
        # and numpy's text is kept behind the key that sized the grid
        # run sizes the map from the scale count, and refuses it before the
        # time grid or the scale grid is made
        pytest.param("samples = 1000000000000000", ["run", "{cfg}"], 2,
                     "'samples' = 1000000000000000 and 'voices' = 8 give a CWT map and SST "
                     "bin map of 6.91e+09 GB", id="run-grid-not-allocatable"),
        pytest.param("samples = 1000000000000000", ["simulate", "{cfg}"], 2,
                     "'samples' = 1000000000000000 gives a time grid that cannot be "
                     "allocated: Unable to allocate", id="simulate-grid-not-allocatable"),
    ])
    def test_bad_input_is_one_line(self, tmp_path, capsys, extra_body, command,
                                   code, named):
        (tmp_path / "bad.csv").write_text("0.0,1.0\n0.1,oops\n")
        (tmp_path / "huge.csv").write_text("0,1e308\n1,1e308\n2,1e308\n3,-1e308\n")
        head = "5.43e-10,3.4e-9,1e4,0.5,-5.319e7,0,0,1\n"
        (tmp_path / "no-sites.csv").write_text(head)
        (tmp_path / "huge-axis.csv").write_text("5.43e-10,3.4e-9,1e4,0.5,-5.319e7,1e155,0,0\n"
                                                "10,0,0,0,1\n")
        (tmp_path / "repeated.csv").write_text(head + "10,0,0,0,1\n10,5e-10,0,0,1\n")
        (tmp_path / "coincident.csv").write_text(head + "10,0,0,0,1\n11,5e-10,0,0,1\n"
                                                 "12,0,0,0,1\n")
        (tmp_path / "latin1.txt").write_bytes("order = 2 # \xb5s\n".encode("latin-1"))
        cfgp, outdir = write_cfg(tmp_path, with_keys(BASE_BODY, extra_body.format(tmp=tmp_path)))
        argv = [a.format(tmp=tmp_path, cfg=cfgp) for a in command]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(("config error: ", "runtime error: ")[code - 1])
        assert err.count("\n") == 1 and named.format(tmp=tmp_path) in err
        assert not (outdir / "correlation.csv").exists()

    @pytest.mark.parametrize("command", [["run"], ["simulate"], ["compare-orders", "2", "3"],
                                         ["sweep-axis", "0,0,1"]], ids=lambda c: c[0])
    def test_unallocatable_grid_leaves_no_outdir(self, tmp_path, capsys, command):
        # a 7 PiB time grid, which no 64-bit address space maps: the output
        # directory is made at the first product, which no command reaches.
        # run and sweep-axis refuse the map, sized from the scale count, first
        cfgp, outdir = write_cfg(tmp_path, with_keys(THREE_SITE_BODY,
                                                     "samples = 1000000000000000"))
        assert cli.main([command[0], str(cfgp), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert "'samples'" in err
        assert ("give a CWT map" if command[0] in ("run", "sweep-axis")
                else "Unable to allocate") in err
        assert not outdir.exists()

    def test_unallocatable_scale_grid_is_one_line(self, tmp_path, capsys, monkeypatch):
        # a grid whose map fits but whose scales or bump-support table cannot
        # be allocated: exit 2 in one line that keeps numpy's message
        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 PiB")

        monkeypatch.setattr(tfa, "bump_support", unallocatable)
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["run", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert err == ("runtime error: 'tbar_max' = 400, 'samples' = 256 and 'voices' = 8 give "
                       "a wavelet scale grid that cannot be allocated: Unable to allocate "
                       "16.0 PiB\n")
        assert not outdir.exists()

    def test_sweep_axis_without_a_pair_leaves_no_axis_directory(self, tmp_path, capsys):
        cfgp, outdir = write_cfg(tmp_path, with_keys(BASE_BODY, "r_cutoff_a0 = 1e-300"))
        assert cli.main(["sweep-axis", str(cfgp), "0,0,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert "2 spins lies within 'r_cutoff_a0' = 1e-300" in err
        assert not (outdir / "axis0").exists()

    @pytest.mark.parametrize("command", [["run"], ["simulate"], ["compare-orders", "2", "3"],
                                         ["sweep-axis", "0,0,1"]], ids=lambda c: c[0])
    def test_flip_free_mask_refused_before_outdir(self, tmp_path, capsys, command):
        # A alone is diagonal in the product basis: the correlation is constant
        cfgp, outdir = write_cfg(tmp_path, with_keys(
            THREE_SITE_BODY, "mask_B = false\nmask_CD = false\nmask_EF = false"))
        assert cli.main([command[0], str(cfgp), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert all(f"'{key}'" in err for key in ("mask_B", "mask_CD", "mask_EF"))
        assert not outdir.exists()

    # a0 = 1.5e308 overflows the bond length, with no RuntimeWarning
    @pytest.mark.parametrize("extra_body", ["gamma = 1e200", "a0 = 1e-300", "a0 = 1.5e308"])
    def test_infinite_E_dd_refused_before_outdir(self, tmp_path, capsys, extra_body):
        cfgp, outdir = write_cfg(tmp_path, with_keys(BASE_BODY, extra_body))
        assert cli.main(["run", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "give no finite E_dd" in err
        assert not outdir.exists()

    # decided by the config alone, each with no RuntimeWarning first
    @pytest.mark.parametrize("extra_body, named", [
        # the wavelet scale range overflows, or holds over 2^31 - 1 scales
        pytest.param("mu = 1e308", "'mu'", id="scale-range-overflows"),
        pytest.param("voices = 1000000000000", "'voices'", id="too-many-scales"),
        pytest.param("A0_over_Edd = 1e308", "'A0_over_Edd'", id="A0-overflows"),
        pytest.param("A0_over_Edd = 1e300\ngamma = 1e154", "'A0_over_Edd'",
                     id="A0-overflows-at-large-gamma"),
        pytest.param("L0 = 1e200", "'L0'", id="L0-squared-overflows"),
        pytest.param("L0 = 1e-170", "'L0'", id="L0-squared-underflows"),
        # box 3 3 3 holds sites 0 to 215
        pytest.param("sites = 10 99999", "'sites'", id="site-above-box"),
        pytest.param("sites = -1 3", "'sites'", id="negative-site"),
        # scales whose bump covers no bin of the CWT's padded FFT: 2 pi a_max /
        # (sigma dt) overflows to inf at 1e-308, so the padding is capped first;
        # 32 voices give the grid of the README's example
        pytest.param("sigma = 0.01\nvoices = 32", "'sigma' = 0.01, 'tbar_max' = 400, "
                     "'samples' = 256 and 'voices' = 32 give no wavelet scale grid: 59 of 193",
                     id="sigma-too-narrow"),
        pytest.param("sigma = 1e-308\nvoices = 32", "'sigma' = 1e-308, 'tbar_max' = 400, "
                     "'samples' = 256 and 'voices' = 32 give no wavelet scale grid: 193 of 193",
                     id="padding-target-overflows")])
    def test_out_of_range_refused_before_outdir(self, tmp_path, capsys, extra_body, named):
        cfgp, outdir = write_cfg(tmp_path, with_keys(BASE_BODY, extra_body))
        assert cli.main(["run", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert named in err
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

    @pytest.mark.parametrize("command, body, dim", [
        (["run"], "spin = 100.5", "202^2"), (["simulate"], "spin = 4.5\norder = 4", "10^4"),
        (["sweep-axis", "0,0,1"], "spin = 2.5\norder = 6", "6^6"),
        # checked at the highest order compared, not at the config's order 2
        (["compare-orders", "2", "5"], "spin = 2.5", "6^5")],
        ids=["run", "simulate", "sweep-axis", "compare-orders"])
    def test_cluster_dimension_over_cap_refused(self, tmp_path, capsys, monkeypatch,
                                                command, body, dim):
        def unreachable(*args, **kwargs):
            raise AssertionError("work started for a config over the dimension cap")

        monkeypatch.setattr(cli, "_resolve_realization", unreachable)
        cfgp, outdir = write_cfg(tmp_path, with_keys(THREE_SITE_BODY, body))
        assert cli.main([command[0], str(cfgp), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'spin'" in err and "'order'" in err and dim in err
        assert not outdir.exists()

    @pytest.mark.parametrize("command", [["generate-bath"], ["compare-orders", "2", "3"],
                                         ["analyze", "{tmp}/series.csv"]], ids=lambda c: c[0])
    def test_cluster_dimension_unchecked_at_an_order_not_run(self, tmp_path, command):
        # 6^5 is above the cap at the config's order, which these commands do not run
        t = cce.time_grid(400.0, 256)
        cce.save_series(tmp_path / "series.csv", cce.CorrelationSeries(t, np.cos(0.5 * t)))
        cfgp, outdir = write_cfg(tmp_path, with_keys(THREE_SITE_BODY, "spin = 2.5\norder = 5"))
        assert cli.main([command[0], str(cfgp),
                         *[a.format(tmp=tmp_path) for a in command[1:]]]) == 0
        assert any(outdir.glob("*manifest.txt"))

    @pytest.mark.parametrize("command, order", [
        (["run", "{cfg}"], 4), (["simulate", "{cfg}"], 4), (["sweep-axis", "{cfg}", "0,0,1"], 4),
        # checked at the highest order compared, not at the config's order
        (["compare-orders", "{cfg}", "2", "4"], 2)],
        ids=["run", "simulate", "sweep-axis", "compare-orders"])
    def test_realization_file_spin_over_cap_refused(self, tmp_path, capsys, monkeypatch,
                                                    command, order):
        def unreachable(*args, **kwargs):
            raise AssertionError("CCE run for clusters over the dimension cap")

        # the config's spin 1/2 passes at order 4; the file's spin 9/2 gives 10^4
        gen, bath = write_cfg(tmp_path, with_keys(FAST_BODY, "spin = 4.5\nsites = 10 11 12 13"),
                              tmp_path / "bath", "bath.cfg")
        assert cli.main(["generate-bath", str(gen)]) == 0
        monkeypatch.setattr(cce, "compute_correlation", unreachable)
        cfgp, outdir = write_cfg(tmp_path, with_keys(
            FAST_BODY, f"realization_file = {bath / 'realization.csv'}\norder = {order}"))
        capsys.readouterr()
        assert cli.main([a.format(cfg=cfgp) for a in command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "spin 4.5" in err and "realization.csv" in err and "'order' = 4" in err
        assert not list(outdir.rglob("*.csv"))

    @pytest.mark.parametrize("command", [
        ["generate-bath", "{cfg}"], ["simulate", "{cfg}"],
        ["analyze", "{cfg}", "{tmp}/series.csv"], ["run", "{cfg}"],
        ["compare-orders", "{cfg}", "2", "3"], ["sweep-axis", "{cfg}", "0,0,1"]],
        ids=lambda c: c[0])
    def test_uncreatable_outdir_is_one_line(self, monkeypatch, tmp_path, capsys, command):
        # refused before any work: neither the bath nor the series is read
        t = cce.time_grid(400.0, 256)
        cce.save_series(tmp_path / "series.csv", cce.CorrelationSeries(t, np.cos(0.5 * t)))

        def unreachable(*args, **kwargs):
            raise AssertionError("work started for an outdir that cannot be made")

        monkeypatch.setattr(cli, "_resolve_realization", unreachable)
        monkeypatch.setattr(cce, "load_series", unreachable)
        (tmp_path / "afile").write_text("")
        cfgp, _ = write_cfg(tmp_path, THREE_SITE_BODY, tmp_path / "afile" / "out")
        assert cli.main([a.format(tmp=tmp_path, cfg=cfgp) for a in command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'outdir'" in err and "afile" in err

    #: leaves band 0Q without a wavelet row on the configured grid
    SHORT_GRID = "tbar_max = 100\nsamples = 4096"

    @pytest.mark.parametrize("command", [["run", "{cfg}"],
                                         ["sweep-axis", "{cfg}", "0,0,1"]])
    def test_band_coverage_refused_before_output(self, tmp_path, capsys, command):
        cfgp, outdir = write_cfg(tmp_path, with_keys(BASE_BODY, self.SHORT_GRID))
        assert cli.main([a.format(cfg=cfgp) for a in command]) == 1
        assert "band 0Q" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("command, extra_body, args, code, named", [
        pytest.param(command, *case[1:], id=f"{command}-{case[0]}")
        for group, cases in {
            "every": [("grid-not-allocatable", "samples = 1000000000000000", None, 2,
                       "'samples' = 1000000000000000")],
            "compare-orders": [
                ("one-order", "", ["2"], 1, "at least two orders"),
                ("repeated-order", "", ["3", "2", "3"], 1, "order 3 twice"),
                ("order-1", "", ["1", "3"], 1, "order 1, outside the 2 to 6 of 'order'"),
                ("order-7", "", ["2", "7"], 1, "order 7, outside the 2 to 6 of 'order'")],
            "analyzing": [
                ("band-coverage", SHORT_GRID, None, 1, "band 0Q"),
                ("scale-grid", "sigma = 0.01\nvoices = 32", None, 1, "59 of 193"),
                # a 4 PB spectrum, sized and never allocated
                ("padded-spectrum", "zero_pad = 1000000000000", None, 2,
                 "'samples' = 256 and 'zero_pad' = 1000000000000 give a padded spectrum"),
                # about 1.1 M scales, a small grid, but a 23 TB map
                ("map", "samples = 1048576\nvoices = 60000", None, 2,
                 "'samples' = 1048576 and 'voices' = 60000 give a CWT map")],
        }.items()
        for command in {"every": ["run", "simulate", "compare-orders", "sweep-axis"],
                        "analyzing": ["run", "sweep-axis"]}.get(group, [group])
        for case in cases])
    def test_config_refusal_precedes_all_work(self, tmp_path, capsys, monkeypatch, command,
                                              extra_body, args, code, named):
        # every refusal that the config and the arguments decide comes before
        # the bath and before the output directory; the dimension cap's cases
        # are test_cluster_dimension_over_cap_refused's
        def unreachable(*args, **kwargs):
            raise AssertionError("work started for a config that is refused")

        monkeypatch.setattr(cli, "_resolve_realization", unreachable)
        monkeypatch.setattr(cce, "compute_correlation", unreachable)
        if args is None:
            args = {"compare-orders": ["2", "3"], "sweep-axis": ["0,0,1"]}.get(command, [])
        cfgp, outdir = write_cfg(tmp_path, with_keys(THREE_SITE_BODY, extra_body))
        assert cli.main([command, str(cfgp), *args]) == code
        err = capsys.readouterr().err
        assert err.startswith(("config error: ", "runtime error: ")[code - 1])
        assert err.count("\n") == 1 and named in err
        assert not outdir.exists()

    @pytest.mark.parametrize("samples, extra_body, named", [
        pytest.param(4, "", "spans no positive finite octave count", id="four-samples"),
        # 59 of the 193 scales have no bump support on the CWT's padded FFT
        pytest.param(256, "sigma = 0.01\nvoices = 32", "'voices' = 32 give no wavelet scale "
                     "grid: 59 of 193", id="empty-support"),
        # 840 001 scales: a grid of 6.7 MB, but a 1.1 TB map
        pytest.param(65536, "voices = 60000", "'voices' = 60000 give a CWT map", id="map"),
        # a 4 PB spectrum, sized and never allocated
        pytest.param(256, "zero_pad = 1000000000000", "'zero_pad' = 1000000000000 give a "
                     "padded spectrum", id="padded-spectrum")])
    def test_analyze_refusal_precedes_its_products(self, tmp_path, capsys, monkeypatch,
                                                   samples, extra_body, named):
        # the series decides analyze's grid, so its refusals are runtime errors
        def unreachable(*args, **kwargs):
            raise AssertionError("time-frequency work started for a refused series")

        t = cce.time_grid(400.0, samples)
        series = tmp_path / "series.csv"
        cce.save_series(series, cce.CorrelationSeries(t, np.cos(0.5 * t)))
        monkeypatch.setattr(tfa, "power_spectrum", unreachable)
        monkeypatch.setattr(tfa, "cwt_bump", unreachable)
        cfgp, outdir = write_cfg(tmp_path, with_keys(FAST_BODY, extra_body))
        assert cli.main(["analyze", str(cfgp), str(series)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert f"the {samples} samples of {series}" in err and named in err
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["run", "analyze"])
    def test_map_refusal_allocates_nothing_map_sized(self, tmp_path, capsys, command):
        # 840 001 scales on 65 536 samples: the 1.1 TB map is sized from the
        # scale count, before the scale grid (6.7 MB) or the bump-support
        # table is made; making them first peaked at 125 MB traced
        cfgp, outdir = write_cfg(tmp_path, with_keys(FAST_BODY, "samples = 65536\nvoices = 60000"))
        argv, cfg = ["run", str(cfgp)], cli.load_config(cfgp)
        preflight, args = cli._preflight, (cfg, "run")
        if command == "analyze":
            series = tmp_path / "series.csv"
            t = cce.time_grid(400.0, 65536)
            cce.save_series(series, cce.CorrelationSeries(t, np.cos(0.5 * t)))
            argv, loaded = ["analyze", str(cfgp), str(series)], cce.load_series(series)
            preflight, args = cli._preflight_analysis, (cfg, len(loaded.values), loaded.dt,
                                                        "the series", cli.PipelineError)
        tracemalloc.start()
        try:
            with pytest.raises(cli.PipelineError, match="give a CWT map"):
                preflight(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert "'voices' = 60000 give a CWT map and SST bin map of 1.1e+03 GB, more than " \
               "the " in err and err.endswith(" GB of physical memory\n")
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

    @pytest.mark.parametrize("command, product", [
        ("generate-bath", "realization.csv"), ("simulate", "correlation.csv"),
        ("simulate", "correlation_normalized.csv"), ("analyze", "analyze_cwt.bin"),
        ("analyze", "analyze_manifest.txt"), ("run", "correlation.csv"),
        ("run", "cwt.bin"), ("run", "manifest.txt"),
        ("compare-orders", "cce3_correlation_normalized.csv"),
        ("compare-orders", "order_deviations.csv"),
        ("sweep-axis", "axis0/realization.csv")])
    def test_unwritable_product_is_2(self, tmp_path, capsys, command, product):
        # a directory where the product goes: the write fails with an OSError
        t = cce.time_grid(400.0, 256)
        series = tmp_path / "series.csv"
        cce.save_series(series, cce.CorrelationSeries(t, np.cos(0.5 * t)))
        body = THREE_SITE_BODY if command == "compare-orders" else FAST_BODY
        cfgp, outdir = write_cfg(tmp_path, body)
        (outdir / product).mkdir(parents=True)
        extra = {"analyze": [str(series)], "compare-orders": ["2", "3"],
                 "sweep-axis": ["0,0,1"]}.get(command, [])
        assert cli.main([command, str(cfgp), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert product in err

    @pytest.mark.parametrize("command", ["generate-bath", "run", "simulate", "analyze",
                                         "compare-orders", "sweep-axis"])
    def test_numeric_failure_is_2(self, tmp_path, capsys, monkeypatch, command):
        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        t = cce.time_grid(400.0, 256)
        series = tmp_path / "series.csv"
        cce.save_series(series, cce.CorrelationSeries(t, np.cos(0.5 * t)))
        monkeypatch.setattr(cce, "compute_correlation", diverge)
        monkeypatch.setattr(tfa, "cwt_bump", diverge)
        if command == "generate-bath":          # its one stage builds the bath
            monkeypatch.setattr(lattice, "build_realization", diverge)
        body = THREE_SITE_BODY if command == "compare-orders" else FAST_BODY
        cfgp, _ = write_cfg(tmp_path, body)
        extra = {"analyze": [str(series)], "compare-orders": ["2", "3"],
                 "sweep-axis": ["0,0,1"]}.get(command, [])
        assert cli.main([command, str(cfgp), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: stage ") and err.count("\n") == 1
        assert "did not converge" in err
