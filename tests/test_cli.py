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


#: FAST_BODY on three sites, so that ``compare-orders 2 3`` is in range
THREE_SITE_BODY = FAST_BODY.replace("sites = 10 11", "sites = 10 11 12")

#: FAST_BODY on four mutually close sites: one connected cluster of each size
FOUR_SITE_BODY = FAST_BODY.replace("sites = 10 11", "sites = 10 11 12 13")

#: FAST_BODY with no explicit sites: the bath is drawn at 'abundance'
DRAWN_BODY = FAST_BODY.replace("sites = 10 11\n", "")

#: leaves band 0Q without a wavelet row on the configured grid
SHORT_GRID = "tbar_max = 100\nsamples = 4096"


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


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The input files the refusal and analysis tests read, made once: good and
    refused series and realization files, a file that is not text, and a
    plain file where an output directory would go."""
    d = tmp_path_factory.mktemp("inputs")
    for name, samples in (("series.csv", 256), ("four.csv", 4), ("long.csv", 65536)):
        t = cce.time_grid(400.0, samples)
        cce.save_series(d / name, cce.CorrelationSeries(t, np.cos(0.5 * t)))
    # every sample at tbar = 0 used to load and then divide by the zero step
    (d / "flat.csv").write_text("0,1\n0,0.5\n0,0.2\n0,0.1\n")
    (d / "bad.csv").write_text("0.0,1.0\n0.1,oops\n")
    (d / "huge.csv").write_text("0,1e308\n1,1e308\n2,1e308\n3,-1e308\n")
    head = "5.43e-10,3.4e-9,1e4,0.5,-5.319e7,0,0,1\n"
    (d / "no-sites.csv").write_text(head)
    (d / "huge-axis.csv").write_text("5.43e-10,3.4e-9,1e4,0.5,-5.319e7,1e155,0,0\n10,0,0,0,1\n")
    (d / "repeated.csv").write_text(head + "10,0,0,0,1\n10,5e-10,0,0,1\n")
    (d / "coincident.csv").write_text(head + "10,0,0,0,1\n11,5e-10,0,0,1\n12,0,0,0,1\n")
    (d / "latin1.txt").write_bytes("order = 2 # \xb5s\n".encode("latin-1"))
    (d / "afile").write_text("")
    # spin 9/2 on four sites: the config's spin 1/2 passes at order 4, the
    # file's gives clusters of dimension 10^4
    gen, _ = write_cfg(d, with_keys(FAST_BODY, "spin = 4.5\nsites = 10 11 12 13"), d / "bath",
                       "bath.cfg")
    assert cli.main(["generate-bath", str(gen)]) == 0
    return d


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

    @pytest.mark.parametrize("axis", ["0,0,1", "2,0,0", "1,1,0", "1,2,3", "-1,0,0", "-0,0,1",
                                      "0.6,0,0.8", "1e150,1e150,1e150"])
    def test_sweep_axis_argument_is_the_config_axis(self, axis):
        # a sweep-axis axis x,y,z is the unit vector of hf_axis = x y z, to the bit
        assert cli._axis_argument(axis) == \
            cli.parse_config("hf_axis = " + axis.replace(",", " ")).hf_axis

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


#: the products of ``run``: 14 files
RUN_PRODUCTS = {"realization.csv", "correlation.csv", "correlation_normalized.csv", "spectrum.csv",
                "cwt.bin", "cwt.meta.txt", "sst.bin", "sst.meta.txt",
                *(f"band_{band}_{kind}.csv" for band in ("0Q", "1Q", "2Q")
                  for kind in ("cwt", "sst"))}

SIMULATE_PRODUCTS = {"correlation.csv", "correlation_normalized.csv"}

#: each command's manifests, by path under outdir, and the products each lists
MANIFESTS = {
    "generate-bath": {"manifest.txt": {"realization.csv"}},
    "simulate": {"manifest.txt": SIMULATE_PRODUCTS},
    # after a simulate, whose manifest stays
    "analyze": {"manifest.txt": SIMULATE_PRODUCTS, "analyze_manifest.txt": {
        f"analyze_{name}" for name in ("spectrum.csv", "cwt.bin", "cwt.meta.txt", "sst.bin",
                                       "sst.meta.txt")}},
    "run": {"manifest.txt": RUN_PRODUCTS},
    "compare-orders": {"manifest.txt": {"cce2_correlation_normalized.csv",
                                        "cce3_correlation_normalized.csv", "order_deviations.csv"}},
    # one directory per axis, with one bath that each variant's manifest lists
    "sweep-axis": {f"axis0/{tag}_manifest.txt": {"realization.csv"} | {
        f"{tag}_{name}" for name in RUN_PRODUCTS - {"realization.csv"}}
        for tag in ("full", "chanB", "chanCD", "chanEF")},
}


#: each command that runs the CCE: its arguments, its config, the order it
#: enumerates its clusters at and the number of cluster sets it weighs
CLUSTER_WORK = {
    "run": ([], FAST_BODY, 2, 1), "simulate": ([], FAST_BODY, 2, 1),
    # enumerated at the highest order; the lower orders trace its prefixes,
    # one weight set per order: the order-2 set is the order-3 set's prefix
    "compare-orders": (["2", "3"], THREE_SITE_BODY, 3, 2),
    # the axis and the channel masks move no site: every axis and mask
    # runs on the one cluster set and its weights
    "sweep-axis": (["0,0,1", "1,2,3"], FAST_BODY, 2, 1)}


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

    def test_sweep_axis_manifests_time_the_shared_bath(self, tmp_path):
        cfgp, outdir = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["sweep-axis", str(cfgp), "0,0,1", "1,2,3"]) == 0
        manifests = sorted(outdir.glob("axis*/*_manifest.txt"))
        assert len(manifests) == 8
        shared = [{k: v for k, v in manifest_section(m, "timings").items()
                   if k in ("realization", "clusters")} for m in manifests]
        assert set(shared[0]) == {"realization", "clusters"}
        assert all(s == shared[0] for s in shared)

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

    @pytest.fixture(scope="class")
    def manifested(self, tmp_path_factory):
        """Each command of MANIFESTS run once on THREE_SITE_BODY: {command:
        (the directory it ran in, its outdir moved elsewhere)}."""
        moved = {}
        for command in MANIFESTS:
            d = tmp_path_factory.mktemp(command)
            cfgp, outdir = write_cfg(d, THREE_SITE_BODY)
            if command == "analyze":
                assert cli.main(["simulate", str(cfgp)]) == 0
            args = {"analyze": [str(outdir / "correlation.csv")], "compare-orders": ["2", "3"],
                    "sweep-axis": ["0,0,1"]}.get(command, [])
            assert cli.main([command, str(cfgp), *args]) == 0
            moved[command] = d, Path(shutil.move(outdir, d / "elsewhere" / "copy"))
        return moved

    @pytest.mark.parametrize("command", MANIFESTS)
    def test_manifest_lists_exactly_what_it_wrote(self, manifested, command):
        moved, manifests = manifested[command][1], MANIFESTS[command]
        # every file written is a manifest or a product that one lists
        assert {p.relative_to(moved) for p in moved.rglob("*") if p.is_file()} == \
            {Path(m) for m in manifests} | {Path(m).parent / name
                                            for m, names in manifests.items() for name in names}
        for m, names in manifests.items():
            assert [ln for ln in (moved / m).read_text().splitlines() if ln.startswith("[")] == \
                ["[config]", "[derived]", "[products]", "[timings]"], m
            assert set(manifest_products(moved / m)) == names, m

    @pytest.mark.parametrize("command", MANIFESTS)
    def test_manifest_verifies_after_the_directory_moves(self, manifested, command):
        ran_in, moved = manifested[command]
        for m, names in MANIFESTS[command].items():
            manifest = moved / m
            assert manifest_products(manifest) == hashes(manifest.parent / name
                                                         for name in sorted(names)), m
            # no line names the directory it was written in, outdir included,
            # or echoes a numpy scalar's repr
            text = manifest.read_text()
            assert str(ran_in) not in text and "np." not in text, m

    @pytest.fixture(scope="class")
    def cluster_work(self, tmp_path_factory):
        """Each command of CLUSTER_WORK run once under three probes: {command:
        its exit code, the orders it enumerated at, the cluster sets it
        weighed and the cluster views it read}."""
        enumerate_clusters = cce.enumerate_clusters
        combination_coefficients = cce.combination_coefficients
        work = {}

        def counted_enumeration(realization, r_cutoff, max_order):
            seen["orders"].append(max_order)
            return enumerate_clusters(realization, r_cutoff, max_order)

        def counted_weights(cset):
            seen["sets"].append(cset)
            return combination_coefficients(cset)

        # ClusterSet.clusters and the weights' len and iteration are views for
        # the benchmark's tracer; every command reads the per-size arrays
        def unread(*args):
            seen["views"].append(args)
            raise AssertionError("a cluster view was read")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cce, "enumerate_clusters", counted_enumeration)
            mp.setattr(cce, "combination_coefficients", counted_weights)
            mp.setattr(cce.ClusterSet, "clusters", property(unread))
            for name in ("__len__", "__iter__"):
                mp.setattr(cce.Weights, name, unread)
            for command, (args, body, _, _) in CLUSTER_WORK.items():
                seen = work[command] = {"orders": [], "sets": [], "views": []}
                cfgp, _ = write_cfg(tmp_path_factory.mktemp(command), body)
                try:
                    seen["code"] = cli.main([command, str(cfgp), *args])
                except AssertionError:      # a view was read: its test fails
                    seen["code"] = None
        return work

    @pytest.mark.parametrize("command", CLUSTER_WORK)
    def test_each_command_enumerates_its_clusters_once(self, cluster_work, command):
        assert cluster_work[command]["code"] == 0
        assert cluster_work[command]["orders"] == [CLUSTER_WORK[command][2]]

    @pytest.mark.parametrize("command", CLUSTER_WORK)
    def test_each_cluster_set_is_weighed_once(self, cluster_work, command):
        assert cluster_work[command]["code"] == 0
        assert len(cluster_work[command]["sets"]) == CLUSTER_WORK[command][3]

    @pytest.mark.parametrize("command", CLUSTER_WORK)
    def test_no_command_reads_the_cluster_views(self, cluster_work, command):
        assert cluster_work[command]["code"] == 0 and cluster_work[command]["views"] == []

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


@dataclasses.dataclass(frozen=True)
class Refusal:
    """A bad input and what its refusal must be. ``argv`` is the command line
    after ``spinbath``, in which ``{cfg}`` is the config file of ``body`` with
    ``edits`` and ``{inp}`` the ``inputs`` directory, as in ``named``."""
    argv: str
    code: int                   # 1 config error, 2 runtime error
    named: tuple                # texts the one stderr line holds
    edits: str = ""             # config lines set over ``body``
    body: str = FAST_BODY
    line: str = ""              # the whole line after its prefix, where it is pinned
    absent: tuple = ("",)       # paths under outdir left absent; "" is outdir itself
    unreachable: tuple = ()     # functions, as "module.name", that must not be called
    fails: tuple = ()           # (function, exception): the function raises it
    outdir: str = ""            # outdir, if not the test's own
    product_dir: str = ""       # a directory made where this product goes


def refusal(id, argv, code, *named, **kw):
    return pytest.param(Refusal(argv, code, named, **kw), id=id)


#: the bath and the CCE, which every refusal the config decides precedes:
#: guarded, so a missing check fails its row instead of running the work
WORK = ("cli._resolve_realization", "cce.compute_correlation")

#: the arguments after the config file of a command that takes some
ARGS = {"analyze": " {inp}/series.csv", "compare-orders": " 2 3", "sweep-axis": " 0,0,1"}

#: a CCE correlation past the float range, as the run reports it
NOT_FINITE = "stage 'cce' failed: the correlation is not finite"

DIVERGE = np.linalg.LinAlgError("eigenvalues did not converge")

#: the stage in which each command meets a DIVERGE from the function named:
#: the one stage of generate-bath builds the bath, and analyze's CWT is a
#: stage inside its analyze stage
DIVERGED = {"generate-bath": ("realization", "lattice.build_realization"),
            "run": ("cce", "cce.compute_correlation"),
            "simulate": ("cce", "cce.compute_correlation"), "analyze": ("cwt", "tfa.cwt_bump"),
            "compare-orders": ("cce2", "cce.compute_correlation"),
            "sweep-axis": ("cce", "cce.compute_correlation")}

#: each command's refusal of a 7 PiB time grid, which no 64-bit address space
#: maps: nothing is allocated, no outdir made, and numpy's text is kept behind
#: the key that sized the grid. run and sweep-axis size the map from the scale
#: count, and refuse it first
HUGE_GRID = {"run": "and 'voices' = 8 give a CWT map and SST bin map of 6.91e+09 GB",
             "simulate": "gives a time grid that cannot be allocated: Unable to allocate",
             "compare-orders": "gives a time grid that cannot be allocated: Unable to allocate",
             "sweep-axis": "and 'voices' = 8 give a CWT map and SST bin map of 6.91e+09 GB"}

REFUSALS = [
    # parsing the config refuses, alike under every command, before any work
    refusal("run-missing-config", "run {inp}/absent.cfg", 1, "{inp}/absent.cfg", unreachable=WORK),
    # a file that is not UTF-8 text, each input read once
    refusal("run-config-not-text", "run {inp}/latin1.txt", 1, "config file {inp}/latin1.txt is not",
            unreachable=WORK),
    # the removed high-field key: mask_CD and mask_EF off is that mode
    refusal("run-secular-key", "run {cfg}", 1, "unknown configuration key 'secular'",
            edits="secular = true", unreachable=WORK),
    refusal("run-negative-seed", "run {cfg}", 1, "'seed'", edits="seed = -1", unreachable=WORK),
    # a lone spin's correlation is constant, so normalizing it fails
    refusal("run-order-1", "run {cfg}", 1, "'order'", edits="order = 1", unreachable=WORK),
    refusal("run-nan-axis", "run {cfg}", 1, "'hf_axis'", edits="hf_axis = nan 0 1",
            unreachable=WORK),
    # the norm overflows to inf, which would normalize the axis to zero
    refusal("run-overflowing-axis", "run {cfg}", 1, "'hf_axis'", edits="hf_axis = 1e200 0 0",
            unreachable=WORK),
    refusal("run-overflowing-miller-axis", "run {cfg}", 1, "'hf_axis'",
            edits="hf_axis = miller 1e200 0 0", unreachable=WORK),
    refusal("run-axis-angles-without-phi", "run {cfg}", 1, "'hf_axis'",
            edits="hf_axis = angles 10", unreachable=WORK),
    refusal("run-axis-miller-of-two", "run {cfg}", 1, "'hf_axis'", edits="hf_axis = miller 1 1",
            unreachable=WORK),
    # gamma may be negative (29Si) but not zero
    refusal("run-zero-gamma", "run {cfg}", 1, "'gamma'", edits="gamma = 0", unreachable=WORK),
    refusal("run-non-half-integer-spin", "run {cfg}", 1, "'spin'", edits="spin = 0.3",
            unreachable=WORK),
    # 2 * spin overflows to inf, which round() cannot take
    refusal("run-overflowing-spin", "run {cfg}", 1, "'spin'", edits="spin = 1e308",
            unreachable=WORK),
    refusal("run-infinite-float", "run {cfg}", 1, "'L0'", edits="L0 = inf", unreachable=WORK),
    refusal("run-box-of-two", "run {cfg}", 1, "'box'", edits="box = 3 3", unreachable=WORK),
    refusal("run-repeated-site", "run {cfg}", 1, "'sites'", edits="sites = 10 11 10",
            unreachable=WORK),
    # box 3 3 3 holds sites 0 to 215
    refusal("run-site-above-box", "run {cfg}", 1, "'sites'", edits="sites = 10 99999",
            unreachable=WORK),
    refusal("run-negative-site", "run {cfg}", 1, "'sites'", edits="sites = -1 3",
            unreachable=WORK),
    # no index at all, which would reach the bath as an empty one; leaving
    # the key out draws the sites at 'abundance'
    refusal("generate-bath-empty-sites", "generate-bath {cfg}", 1,
            "bad value for 'sites': no site index", edits="sites =", unreachable=WORK),
    # decided by the config alone, each with no RuntimeWarning first
    refusal("run-A0-overflows", "run {cfg}", 1, "'A0_over_Edd'", edits="A0_over_Edd = 1e308",
            unreachable=WORK),
    refusal("run-A0-overflows-at-large-gamma", "run {cfg}", 1, "'A0_over_Edd'",
            edits="A0_over_Edd = 1e300\ngamma = 1e154", unreachable=WORK),
    refusal("run-L0-squared-overflows", "run {cfg}", 1, "'L0'", edits="L0 = 1e200",
            unreachable=WORK),
    refusal("run-L0-squared-underflows", "run {cfg}", 1, "'L0'", edits="L0 = 1e-170",
            unreachable=WORK),
    *(refusal(f"run-E_dd-{edits.replace(' = ', '-')}", "run {cfg}", 1, "give no finite E_dd",
              edits=edits, unreachable=WORK)
      # a0 = 1.5e308 overflows the bond length, with no RuntimeWarning
      for edits in ("gamma = 1e200", "a0 = 1e-300", "a0 = 1.5e308")),
    # A alone is diagonal in the product basis: the correlation is constant
    refusal("run-flip-free-mask", "run {cfg}", 1, "'mask_B', 'mask_CD' and 'mask_EF' are all false",
            edits="mask_B = false\nmask_CD = false\nmask_EF = false", unreachable=WORK),

    # each command's preflight refuses what the config and its arguments
    # decide, before the bath and before the output directory
    refusal("compare-orders-one-order", "compare-orders {cfg} 2", 1, "at least two orders",
            unreachable=WORK),
    refusal("compare-orders-repeated-order", "compare-orders {cfg} 3 2 3", 1, "order 3 twice",
            unreachable=WORK),
    # order 1 has a constant correlation, which cannot be normalized
    refusal("compare-orders-order-1", "compare-orders {cfg} 1 3", 1,
            "order 1, outside the 2 to 6 of 'order'", unreachable=WORK),
    refusal("compare-orders-order-7", "compare-orders {cfg} 2 7", 1,
            "order 7, outside the 2 to 6 of 'order'", unreachable=WORK),
    # an axis is three comma-separated finite numbers of a length that
    # normalizes: no empty component, and no hf_axis form by its word
    *(refusal(f"sweep-axis-axis-{axis}", "sweep-axis {cfg} 0,0,1 " + axis, 1,
              f"sweep-axis axis '{axis}'", unreachable=WORK)
      for axis in ("1,x,0", "0,0,0", "1,0", "nan,0,1", "1e200,0,0", "0,,0,1", "0,0,1,",
                   "0,0,1,2", "miller,1,1,0", "angles,90,0")),
    # the largest cluster's dimension, at the order the command runs
    refusal("run-dimension-over-cap", "run {cfg}", 1, "'spin' = 100.5 at 'order' = 2", "202^2",
            edits="spin = 100.5", unreachable=WORK),
    refusal("simulate-dimension-over-cap", "simulate {cfg}", 1, "'spin' = 4.5 at 'order' = 4",
            "10^4", edits="spin = 4.5\norder = 4", unreachable=WORK),
    refusal("sweep-axis-dimension-over-cap", "sweep-axis {cfg} 0,0,1", 1,
            "'spin' = 2.5 at 'order' = 6", "6^6", edits="spin = 2.5\norder = 6", unreachable=WORK),
    # checked at the highest order compared, not at the config's order 2
    refusal("compare-orders-dimension-over-cap", "compare-orders {cfg} 2 5", 1,
            "'spin' = 2.5 at 'order' = 5", "6^5", edits="spin = 2.5", unreachable=WORK),
    *(refusal(f"{command}-grid-not-allocatable", f"{command} {{cfg}}{ARGS.get(command, '')}", 2,
              "'samples' = 1000000000000000 " + text, edits="samples = 1000000000000000",
              unreachable=WORK)
      for command, text in HUGE_GRID.items()),
    # a grid whose Nyquist frequency lies below the 1Q and 2Q bands
    refusal("run-bands-above-nyquist", "run {cfg}", 1, "band 1Q",
            edits="tbar_max = 1e9\nsamples = 16", unreachable=WORK),
    # the wavelet scale range overflows, or holds over 2^31 - 1 scales
    refusal("run-scale-range-overflows", "run {cfg}", 1, "'mu'", edits="mu = 1e308",
            unreachable=WORK),
    refusal("run-too-many-scales", "run {cfg}", 1, "'voices'", edits="voices = 1000000000000",
            unreachable=WORK),
    # scales whose bump covers no bin of the CWT's padded FFT: 2 pi a_max /
    # (sigma dt) overflows to inf at 1e-308, so the padding is capped first;
    # 32 voices give the grid of the README's example
    refusal("run-padding-target-overflows", "run {cfg}", 1, "'sigma' = 1e-308, 'tbar_max' = "
            "400, 'samples' = 256 and 'voices' = 32 give no wavelet scale grid: 193 of 193",
            edits="sigma = 1e-308\nvoices = 32", unreachable=WORK),
    # a grid whose map fits but whose scales or bump-support table cannot be
    # allocated: exit 2 in one line that keeps numpy's message
    refusal("run-scale-grid-not-allocatable", "run {cfg}", 2, line="'tbar_max' = 400, 'samples' "
            "= 256 and 'voices' = 8 give a wavelet scale grid that cannot be allocated: Unable "
            "to allocate 16.0 PiB", fails=("tfa.bump_support", MemoryError(
                "Unable to allocate 16.0 PiB")), unreachable=WORK),
    *(refusal(f"{command}-{case}", f"{command} {{cfg}}{ARGS.get(command, '')}", code, named,
              edits=edits, unreachable=WORK)
      for command in ("run", "sweep-axis") for case, edits, code, named in (
          ("band-coverage", SHORT_GRID, 1, "band 0Q"),
          ("scale-grid", "sigma = 0.01\nvoices = 32", 1, "'sigma' = 0.01, 'tbar_max' = 400, "
           "'samples' = 256 and 'voices' = 32 give no wavelet scale grid: 59 of 193"),
          # a 4 PB spectrum, sized and never allocated
          ("padded-spectrum", "zero_pad = 1000000000000", 2,
           "'samples' = 256 and 'zero_pad' = 1000000000000 give a padded spectrum"),
          # about 1.1 M scales, a small grid, but a 23 TB map
          ("map", "samples = 1048576\nvoices = 60000", 2,
           "'samples' = 1048576 and 'voices' = 60000 give a CWT map"))),

    # an outdir that cannot be made is refused before any work: neither the
    # bath nor the series is read
    *(refusal(f"{command}-uncreatable-outdir", f"{command} {{cfg}}{ARGS.get(command, '')}", 1,
              "cannot create 'outdir' {inp}/afile/out: {inp}/afile is not a directory",
              outdir="{inp}/afile/out",
              unreachable=("cli._resolve_realization", "cce.load_series"))
      for command in cli.COMMANDS),

    # the bath decides the rest, once per command
    refusal("run-malformed-realization", "run {cfg}", 1, "{inp}/bad.csv:1",
            edits="realization_file = {inp}/bad.csv"),
    # a header and no site rows: refused before the mean coupling of none
    refusal("run-realization-without-sites", "run {cfg}", 1, "no-sites.csv: no site rows",
            edits="realization_file = {inp}/no-sites.csv"),
    # the header's axis norm overflows: refused with no RuntimeWarning first
    refusal("run-realization-axis-norm-overflows", "run {cfg}", 1, "hf_axis must be a unit vector",
            edits="realization_file = {inp}/huge-axis.csv"),
    refusal("run-realization-repeated-index", "run {cfg}", 1,
            "repeated.csv: site index 10 is repeated",
            edits="realization_file = {inp}/repeated.csv"),
    refusal("simulate-realization-coincident-sites", "simulate {cfg}", 1,
            "coincident.csv: sites 10 and 12 share one position",
            edits="realization_file = {inp}/coincident.csv"),
    refusal("run-realization-not-text", "run {cfg}", 1, "realization file {inp}/latin1.txt is not",
            edits="realization_file = {inp}/latin1.txt"),
    # the file's spin 9/2 at order 4, whatever the config's spin
    *(refusal(f"{command}-realization-spin-over-cap", f"{command} {{cfg}}{args}", 1,
              "spin 4.5 of realization file {inp}/bath/realization.csv at 'order' = 4",
              edits=f"realization_file = {{inp}}/bath/realization.csv\norder = {order}",
              unreachable=("cce.compute_correlation",))
      for command, args, order in (
          ("run", "", 4), ("simulate", "", 4), ("sweep-axis", " 0,0,1", 4),
          # checked at the highest order compared, not at the config's order
          ("compare-orders", " 2 4", 2))),
    # an empty bath is a runtime failure, not a config failure
    refusal("run-empty-bath", "run {cfg}", 2, "no pair of the bath's 0 spins",
            body=DRAWN_BODY, edits="abundance = 0", unreachable=("cce.compute_correlation",)),
    # which generate-bath would write as a file that no command can load
    refusal("generate-bath-empty-bath", "generate-bath {cfg}", 2,
            "'abundance' = 0 and 'seed' = 0 draw no spinful site in 'box' = 3 3 3",
            body=DRAWN_BODY, edits="abundance = 0"),
    # so does one with no pair inside the cutoff: refused before the CCE
    refusal("run-one-spin", "run {cfg}", 2, "1 spins lies within 'r_cutoff_a0'",
            edits="sites = 10", unreachable=("cce.compute_correlation",)),
    refusal("simulate-no-pair-in-cutoff", "simulate {cfg}", 2,
            "2 spins lies within 'r_cutoff_a0' = 1e-300", edits="r_cutoff_a0 = 1e-300",
            unreachable=("cce.compute_correlation",)),
    refusal("compare-orders-no-pair", "compare-orders {cfg} 2 3", 2,
            "3 spins lies within 'r_cutoff_a0' = 1e-300",
            edits="sites = 10 11 12\nr_cutoff_a0 = 1e-300",
            unreachable=("cce.compute_correlation",)),
    # and no axis directory
    refusal("sweep-axis-no-pair", "sweep-axis {cfg} 0,0,1", 2,
            "2 spins lies within 'r_cutoff_a0' = 1e-300", edits="r_cutoff_a0 = 1e-300",
            unreachable=("cce.compute_correlation",)),
    # order 3 would be clamped to the bath's two spins, two equal rows: refused
    # before the enumeration, so before the bath's lack of a pair
    refusal("compare-orders-order-above-spin-count", "compare-orders {cfg} 2 3", 1,
            "order 3 exceeds the bath's 2 spins", edits="r_cutoff_a0 = 1e-300",
            unreachable=("cce.enumerate_clusters", "cce.compute_correlation")),

    # past the float range in the CCE, which prints no warning first
    refusal("run-E-over-A_bar-overflows", "run {cfg}", 2, NOT_FINITE,
            edits="A0_over_Edd = 1e-320"),
    refusal("run-coupling-squared-overflows", "run {cfg}", 2, NOT_FINITE,
            edits="A0_over_Edd = 1e10\ngamma = 1e154"),
    refusal("run-hamiltonian-overflows", "run {cfg}", 2, NOT_FINITE, edits="c_hf = 1e308"),
    refusal("analyze-malformed-series", "analyze {cfg} {inp}/bad.csv", 2, "{inp}/bad.csv:2"),
    refusal("analyze-missing-series", "analyze {cfg} {inp}/absent.csv", 2, "{inp}/absent.csv"),
    refusal("analyze-series-not-text", "analyze {cfg} {inp}/latin1.txt", 2,
            "series file {inp}/latin1.txt is not"),
    refusal("analyze-zero-step-series", "analyze {cfg} {inp}/flat.csv", 2, "flat.csv",
            "time grid"),
    # finite values whose mean overflows, with no RuntimeWarning first
    refusal("analyze-series-mean-overflows", "analyze {cfg} {inp}/huge.csv", 2,
            "stage 'normalize' failed: the correlation is not finite"),
    # the series decides analyze's grid, so its refusals are runtime errors,
    # all before the time-frequency work
    *(refusal(f"analyze-{case}", f"analyze {{cfg}} {{inp}}/{series}", 2,
              f"the {samples} samples of {{inp}}/{series}", named, edits=edits,
              unreachable=("tfa.power_spectrum", "tfa.cwt_bump"))
      for case, series, samples, edits, named in (
          ("four-samples", "four.csv", 4, "", "spans no positive finite octave count"),
          # 59 of the 193 scales have no bump support on the CWT's padded FFT
          ("empty-support", "series.csv", 256, "sigma = 0.01\nvoices = 32",
           "'voices' = 32 give no wavelet scale grid: 59 of 193"),
          # 840 001 scales: a grid of 6.7 MB, but a 1.1 TB map
          ("map", "long.csv", 65536, "voices = 60000", "'voices' = 60000 give a CWT map"),
          # a 4 PB spectrum, sized and never allocated
          ("padded-spectrum", "series.csv", 256, "zero_pad = 1000000000000",
           "'zero_pad' = 1000000000000 give a padded spectrum"))),
    *(refusal(f"{command}-numeric-failure", f"{command} {{cfg}}{ARGS.get(command, '')}", 2,
              line=f"stage '{stage}' failed: eigenvalues did not converge",
              body=THREE_SITE_BODY, absent=(), fails=(function, DIVERGE))
      for command, (stage, function) in DIVERGED.items()),
    # a directory where the product goes: the write fails with an OSError
    *(refusal(f"{command}-unwritable-{product}", f"{command} {{cfg}}{ARGS.get(command, '')}", 2,
              product, body=THREE_SITE_BODY, absent=(), product_dir=product)
      for command, product in (
          ("generate-bath", "realization.csv"), ("simulate", "correlation.csv"),
          ("simulate", "correlation_normalized.csv"), ("analyze", "analyze_cwt.bin"),
          ("analyze", "analyze_manifest.txt"), ("run", "correlation.csv"), ("run", "cwt.bin"),
          ("run", "manifest.txt"), ("compare-orders", "cce3_correlation_normalized.csv"),
          ("compare-orders", "order_deviations.csv"), ("sweep-axis", "axis0/realization.csv"))),
]


class TestExitCodes:
    def test_success_is_0(self, tmp_path):
        cfgp, _ = write_cfg(tmp_path, FAST_BODY)
        assert cli.main(["run", str(cfgp)]) == 0

    @pytest.mark.parametrize("row", REFUSALS)
    def test_refusal(self, inputs, tmp_path, capsys, monkeypatch, row):
        # the row's exit code and one stderr line, with its prefix and named
        # text; no call to what the refusal precedes, and nothing on disk
        # where the row names an absence
        for target in row.unreachable:
            def unreachable(*args, target=target, **kwargs):
                raise AssertionError(f"{target} was called for a refused input")

            monkeypatch.setattr(f"spinbath.{target}", unreachable)
        if row.fails:
            def fail(*args, **kwargs):
                raise row.fails[1]

            monkeypatch.setattr(f"spinbath.{row.fails[0]}", fail)
        cfgp, outdir = write_cfg(tmp_path, with_keys(row.body, row.edits.format(inp=inputs)),
                                 row.outdir.format(inp=inputs) or None)
        if row.product_dir:
            (outdir / row.product_dir).mkdir(parents=True)
        assert cli.main([a.format(cfg=cfgp, inp=inputs) for a in row.argv.split()]) == row.code
        err = capsys.readouterr().err
        prefix = ("config error: ", "runtime error: ")[row.code - 1]
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")
        assert not row.line or err == prefix + row.line + "\n"
        for text in row.named:
            assert text.format(inp=inputs) in err, text
        for path in row.absent:
            assert not (outdir / path).exists(), path or outdir

    @pytest.mark.parametrize("command", [["generate-bath"], ["compare-orders", "2", "3"],
                                         ["analyze", "{inp}/series.csv"]], ids=lambda c: c[0])
    def test_cluster_dimension_unchecked_at_an_order_not_run(self, inputs, tmp_path, command):
        # 6^5 is above the cap at the config's order, which these commands do not run
        cfgp, outdir = write_cfg(tmp_path, with_keys(THREE_SITE_BODY, "spin = 2.5\norder = 5"))
        assert cli.main([command[0], str(cfgp),
                         *[a.format(inp=inputs) for a in command[1:]]]) == 0
        assert any(outdir.glob("*manifest.txt"))

    def test_empty_outdir_refused_before_any_stage(self, tmp_path, capsys, monkeypatch):
        # an empty outdir would write into the working directory, which '.' names
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.OUTDIR_ENV, "")      # an empty override is ignored
        cfgp, _ = write_cfg(tmp_path, FAST_BODY, "")
        assert cli.main(["run", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and "'outdir'" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
        write_cfg(tmp_path, FAST_BODY, ".")
        assert cli.main(["run", str(cfgp)]) == 0
        assert (tmp_path / "manifest.txt").exists()

    @pytest.mark.parametrize("command", ["run", "analyze"])
    def test_map_refusal_allocates_nothing_map_sized(self, inputs, tmp_path, capsys, command):
        # 840 001 scales on 65 536 samples: the 1.1 TB map is sized from the
        # scale count, before the scale grid (6.7 MB) or the bump-support
        # table is made; making them first peaked at 125 MB traced
        cfgp, outdir = write_cfg(tmp_path, with_keys(FAST_BODY, "samples = 65536\nvoices = 60000"))
        argv, cfg = ["run", str(cfgp)], cli.load_config(cfgp)
        preflight, args = cli._preflight, (cfg, "run")
        if command == "analyze":
            series = inputs / "long.csv"
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

    def test_analyze_skips_band_coverage(self, inputs, tmp_path):
        # analyze takes its grid from the series file and writes no band traces
        cfgp, outdir = write_cfg(tmp_path, with_keys(FAST_BODY, SHORT_GRID))
        assert cli.main(["analyze", str(cfgp), str(inputs / "series.csv")]) == 0
        assert (outdir / "analyze_manifest.txt").exists()
