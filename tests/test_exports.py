"""The 17-digit text exports (series, spectrum, band traces and the bath
realization), all formatted by ``lattice.write_rows`` and ``lattice.key_cells``,
checked byte for byte against plain per-line f-string writers."""
import io

import numpy as np
import pytest

from spinbath import cce, cli, lattice, tfa

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


def ref_band(path, header, times, trace):
    with open(path, "w") as fh:
        fh.write(header)
        for t, v in zip(times, trace):
            fh.write(f"{t:.16e},{v:.16e}\n")


def ref_realization(path, real):
    head = [real.a0, real.species.L0, real.species.A0 / real.E_dd, real.species.spin_I,
            real.species.gamma, *real.hf_axis]
    with open(path, "w") as fh:
        fh.write(",".join(f"{v:.16e}" for v in head) + "\n")
        for i, (x, y, z), a in zip(real.site_indices, real.positions, real.hf_couplings_A):
            fh.write(f"{i},{x:.16e},{y:.16e},{z:.16e},{a:.16e}\n")


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

    def test_band_files(self, tmp_path):
        # one row per band, so each band trace is |row| of the EDGE values
        freqs = np.array([1.0, 0.5, 0.05])
        coeffs = edge_rows(3).astype(complex)
        scal = tfa.Scalogram(scales=5.0 / freqs, freqs=freqs,
                             times_tbar=EDGE.copy(), coeffs=coeffs,
                             sst_bins=np.full(coeffs.shape, -1, dtype=np.int16))
        sst = tfa.SSTMap(freqs=freqs[::-1].copy(), times_tbar=scal.times_tbar,
                         coeffs=coeffs[::-1].copy())
        record = cli.RunRecord(cli.RunConfig(outdir=str(tmp_path)), "new")
        cli._save_bands(record, scal)
        cli._save_bands(record, sst)
        assert len(record.products) == 2 * len(cli.BANDS)
        for name, (lo, hi) in cli.BANDS.items():
            for kind, obj in (("cwt", scal), ("sst", sst)):
                ref = tmp_path / f"ref_band_{name}_{kind}.csv"
                ref_band(ref, f"# band = {name} [{lo}, {hi}] ({kind})\n",
                         scal.times_tbar, tfa.band_amplitude(obj, lo, hi))
                new = tmp_path / f"new_band_{name}_{kind}.csv"
                assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("n_sites", [12, 0])
    def test_realization(self, tmp_path, n_sites):
        # EDGE values, -0.0 included, in the position columns; the nonzero
        # ones, made positive, as couplings, up to A0 = 1e300 (the check
        # A <= A0 (1 + 1e-12) would overflow at the largest double)
        A = np.abs(EDGE[(EDGE != 0) & (np.abs(EDGE) <= 1e300)])[:n_sites]
        species = lattice.SpeciesParams(spin_I=1.5, gamma=-5.319e7, A0=A.max(initial=1.0),
                                        L0=3.4e-9)
        real = lattice.BathRealization(positions=edge_rows(3).T[:n_sites], hf_couplings_A=A,
                                       hf_axis=np.array([0.6, -0.0, 0.8]), species=species,
                                       a0=5.43e-10, site_indices=[7 ** k for k in range(n_sites)])
        lattice.save_realization(tmp_path / "new.csv", real)
        ref_realization(tmp_path / "ref.csv", real)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def plain_rows(keys, values):
    return "".join(f"{k:.16e},{v:.16e}\n" for k, v in zip(keys, values))


def test_rows_never_reuse_another_grids_keys():
    # equal-length grids that differ in one key, or only in the sign of a
    # zero key, interleaved and then cycled through more grids than any
    # memo of formatted grids could hold, each file against a plain writer
    base = np.linspace(0.0, 1e5 / 3, len(EDGE))
    one_key = base.copy()
    one_key[7] = np.nextafter(one_key[7], np.inf)
    neg_zero = base.copy()
    neg_zero[0] = -0.0
    shifted = [base + i for i in range(1, 12)]
    for keys in [base, one_key, base, neg_zero, one_key, neg_zero, base, *shifted, *shifted,
                 neg_zero, base]:
        fh = io.StringIO()
        lattice.write_rows(fh, lattice.key_cells(keys), EDGE)
        assert fh.getvalue() == plain_rows(keys, EDGE)
