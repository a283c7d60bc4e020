"""The 17-digit text exports, checked byte for byte against plain per-line
f-string writers, and the map table checked for streaming one row at a time."""
import tracemalloc
from pathlib import Path

import numpy as np

from spinbath import cce, cli, tfa

#: zero and negative zero, the smallest subnormal and the smallest normal,
#: the largest double, a literal that parses to 10.0 and the largest double
#: below 10, negative values and a mix of exponents
EDGE = np.array([0.0, 5e-324, 1.7976931348623157e308, 9.99999999999999999,
                 np.nextafter(10.0, 0.0), -0.0, 2.2250738585072014e-308,
                 -2.5e-7, -1.0e300, 1.0 / 3.0, 6.02214076e23, -np.pi, 1e-5,
                 123456.789, 0.1])


def ref_series(path, series):
    with open(path, "w") as fh:
        for k in sorted(series.metadata):
            fh.write(f"# {k} = {series.metadata[k]}\n")
        for t, v in zip(series.times_tbar, series.values):
            fh.write(f"{t:.16e},{v:.16e}\n")


def ref_spectrum(path, spec):
    with open(path, "w") as fh:
        fh.write("# omega_bar,power\n")
        for w, p in zip(spec.omega_bar, spec.power):
            fh.write(f"{w:.16e},{p:.16e}\n")


def ref_map_table(path, freqs, times, mod):
    with open(path, "w") as fh:
        fh.write("# omega_bar,tbar,modulus\n")
        for i, f in enumerate(freqs):
            row = mod[i]
            for j, t in enumerate(times):
                fh.write(f"{f:.16e},{t:.16e},{row[j]:.16e}\n")


def ref_band(path, header, times, trace):
    with open(path, "w") as fh:
        fh.write(header)
        for t, v in zip(times, trace):
            fh.write(f"{t:.16e},{v:.16e}\n")


def edge_rows(n_rows):
    """Rows that cycle through EDGE, each shifted by one against the last."""
    return np.array([np.roll(EDGE, -i) for i in range(n_rows)])


class TestByteIdentity:
    def test_series(self, tmp_path):
        # the time grid must be uniform from 0, so only the values carry EDGE
        series = cce.CorrelationSeries(np.linspace(0.0, 1e5 / 3, len(EDGE)), EDGE.copy(),
                                       metadata={"normalized": True, "A_bar": 1.5})
        cce.save_series(tmp_path / "new.csv", series)
        ref_series(tmp_path / "ref.csv", series)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_spectrum(self, tmp_path):
        spec = tfa.Spectrum(EDGE.copy(), np.abs(EDGE[::-1]))
        tfa.save_spectrum(tmp_path / "new.csv", spec)
        ref_spectrum(tmp_path / "ref.csv", spec)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_map_table(self, tmp_path):
        sst = tfa.SSTMap(freq_bins=EDGE[::-1].copy(), times_tbar=EDGE.copy(),
                         coeffs=edge_rows(len(EDGE)).astype(complex))
        files = tfa.save_map(tmp_path / "sst", sst)
        ref_map_table(tmp_path / "ref.txt", sst.freq_bins, sst.times_tbar,
                      np.abs(sst.coeffs))
        assert files[2] == f"{tmp_path / 'sst'}.table.txt"
        assert Path(files[2]).read_bytes() == (tmp_path / "ref.txt").read_bytes()

    def test_band_files(self, tmp_path):
        # one row per band, so each band trace is |row| of the EDGE values
        freqs = np.array([1.0, 0.5, 0.05])
        coeffs = edge_rows(3).astype(complex)
        scal = tfa.Scalogram(scales=5.0 / freqs, center_freqs=freqs,
                             times_tbar=EDGE.copy(), coeffs=coeffs, dcoeffs=coeffs)
        sst = tfa.SSTMap(freq_bins=freqs[::-1].copy(), times_tbar=scal.times_tbar,
                         coeffs=coeffs[::-1].copy())
        paths = cli._save_bands(scal, sst, tmp_path, "new_")
        assert len(paths) == 2 * len(cli.BANDS)
        for name, (lo, hi) in cli.BANDS.items():
            for kind, obj in (("cwt", scal), ("sst", sst)):
                ref = tmp_path / f"ref_band_{name}_{kind}.csv"
                ref_band(ref, f"# band = {name} [{lo}, {hi}] ({kind})\n",
                         scal.times_tbar, tfa.band_amplitude(obj, lo, hi))
                new = tmp_path / f"new_band_{name}_{kind}.csv"
                assert new.read_bytes() == ref.read_bytes()


def test_save_map_streams_rows(tmp_path):
    """Peak allocation stays far below the table size: rows are written one at
    a time, never the whole table as text or the whole map as Python floats."""
    rng = np.random.default_rng(0)
    shape = (300, 4096)
    sst = tfa.SSTMap(freq_bins=np.geomspace(0.01, 3.0, shape[0]),
                     times_tbar=np.arange(shape[1]) * 0.05,
                     coeffs=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    tracemalloc.start()
    try:
        tfa.save_map(tmp_path / "sst", sst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "sst.table.txt").stat().st_size
    assert peak < size / 4, f"peak {peak / 1e6:.1f} MB for a {size / 1e6:.1f} MB table"
