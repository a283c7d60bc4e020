import dataclasses
import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbath import cli, tfa
from spinbath.cce import CCEError, CorrelationSeries

README = Path(__file__).resolve().parents[1] / "README.md"


def tone_series(omega=0.5, n=2048, tmax=400.0, amp=1.0):
    t = np.linspace(0.0, tmax, n)
    return t, amp * np.cos(omega * t)


def make_series(values, tmax=400.0):
    t = np.linspace(0.0, tmax, len(values))
    return CorrelationSeries(t, values)


def on_grid(x, dt):
    """``x`` as a series on the grid k * dt."""
    return CorrelationSeries(np.arange(len(x)) * dt, x)


def beat_series(n, dt=0.37):
    """Two tones and white noise: many retained cells, several per SST bin."""
    t = np.arange(n) * dt
    noise = np.random.default_rng(n).normal(size=n)
    return np.cos(0.9 * t) + 0.5 * np.cos(2.3 * t) + 0.3 * noise, dt


def padded_length(n, dt, scales, p):
    """The CWT's FFT length: the next power of two of max(n, 2 pi a_max /
    (sigma dt)), capped at 16 n before rounding."""
    need = max(n, int(np.ceil(2.0 * np.pi * scales.max() / (p.sigma * dt))))
    return 1 << int(np.ceil(np.log2(min(need, 16 * n))))


def rows_and_derivative(x, dt, p, scales):
    """The map W that tfa._cwt_rows fills on ``scales`` and the whole
    time-derivative map dW assembled from the row blocks it yields."""
    W = np.empty((len(scales), len(x)), dtype=complex)
    dW = np.empty_like(W)
    for r, block in tfa._cwt_rows(np.asarray(x, dtype=float), dt, p, scales, W):
        dW[r] = block
    return W, dW


def cwt_and_derivative(x, dt, p=tfa.BumpParams(), voices=32):
    """cwt_bump's scalogram, and the whole dW map of the same block code
    (tfa._cwt_rows), which cwt_bump reads one block at a time and keeps no
    copy of."""
    scal = tfa.cwt_bump(on_grid(x, dt), p, voices)
    W, dW = rows_and_derivative(x, dt, p, scal.scales)
    assert np.array_equal(W, scal.coeffs)
    return scal, dW


def assert_same_bits(a, b):
    assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_rows_match_one_scale_transforms(scales, W, dW, x, dt, p, npad):
    """Each row of W and dW on ``scales`` lies within 1e-13 of its own max
    modulus of the one-scale inverse FFT at npad."""
    n = len(x)
    X = np.fft.fft(x, npad)
    omega = 2.0 * np.pi * np.fft.fftfreq(npad, dt)
    for i, a in enumerate(scales):
        win = np.sqrt(a) * tfa._bump_window(a * omega, p)
        for got, want in ((W[i], np.fft.ifft(X * win)[:n]),
                          (dW[i], np.fft.ifft(X * win * 1j * omega)[:n])):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def whole_map_sst(scal, dW, gamma):
    """The SST reassignment on the whole map at once, from W and dW: every
    retained cell in one np.add.at call, in row-major order, into a new map.
    Call it before synchrosqueeze, which writes its map over W."""
    W = scal.coeffs
    absW = np.abs(W)
    sel = absW > gamma * absW.max()
    w_inst = np.full(W.shape, np.nan)
    w_inst[sel] = np.real(-1j * dW[sel] / W[sel])
    log_f = np.log2(scal.freqs[::-1])
    dlog = (log_f[-1] - log_f[0]) / (len(log_f) - 1)
    valid = sel & (w_inst > 0)
    rows, cols = np.nonzero(valid)
    idx = np.rint((np.log2(w_inst[valid]) - log_f[0]) / dlog).astype(int)
    keep = (idx >= 0) & (idx < len(log_f))
    mass = W * (scal.scales ** -1.5 * np.gradient(scal.scales))[:, None]
    T = np.zeros(W.shape, dtype=complex)
    np.add.at(T, (idx[keep], cols[keep]), mass[rows[keep], cols[keep]])
    return T


class TestBumpParams:
    def test_defaults(self):
        p = tfa.BumpParams()
        assert p.mu == 5.0 and p.sigma == 0.6

    def test_invalid(self):
        with pytest.raises(tfa.TFAError):
            tfa.BumpParams(mu=0.5, sigma=0.6)
        with pytest.raises(tfa.TFAError):
            tfa.BumpParams(mu=5.0, sigma=0.0)


class TestNormalize:
    def test_unit_value_at_zero(self):
        t, x = tone_series()
        s = tfa.normalize_correlation(make_series(3.7 * x + 0.9))
        assert s.values[0] == pytest.approx(1.0, abs=1e-14)
        assert abs(s.values.mean()) < 1e-12

    def test_degenerate_rejected(self):
        s = make_series(np.full(64, 2.0), tmax=10.0)
        with pytest.raises(tfa.TFAError):
            tfa.normalize_correlation(s)

    def test_marks_metadata(self):
        t, x = tone_series()
        s = tfa.normalize_correlation(make_series(x + 0.5))
        assert s.metadata["normalized"] is True


class TestPowerSpectrum:
    def test_tone_on_grid_bin(self):
        # omega = 0.5 commensurate with tmax = 400*pi: a single rfft bin
        n = 4096
        t = np.linspace(0.0, 400 * np.pi, n)
        s = CorrelationSeries(t, np.cos(0.5 * t))
        spec = tfa.power_spectrum(s)
        k = np.argmax(spec.power)
        assert spec.omega_bar[k] == pytest.approx(0.5, rel=1e-2)
        assert spec.power[k] > 1e3 * np.partition(spec.power, -2)[-2] or \
            spec.power[k] / spec.power.sum() > 0.9

    def test_parseval_consistent_padding(self):
        t, x = tone_series()
        s = make_series(x)
        p1 = tfa.power_spectrum(s, 1)
        p2 = tfa.power_spectrum(s, 4)
        assert len(p2.omega_bar) > len(p1.omega_bar)
        assert p2.omega_bar[1] < p1.omega_bar[1]

    @pytest.mark.parametrize("factor", [0, -3, 1.5, 2.0])
    def test_pad_factor_other_than_integer_from_1_refused(self, factor):
        with pytest.raises(tfa.TFAError, match="zero_pad_factor"):
            tfa.power_spectrum(make_series(tone_series()[1]), factor)


class TestBumpWindow:
    def test_compact_support(self):
        p = tfa.BumpParams()
        xi = np.linspace(-10, 20, 3001)
        w = tfa._bump_window(xi, p)
        assert np.all(w[np.abs(xi - p.mu) >= p.sigma] == 0)
        assert w[np.argmin(np.abs(xi - p.mu))] == pytest.approx(1.0, abs=1e-4)

    def test_zero_mean_wavelet(self):
        # no support at xi = 0, so the time-domain kernel has zero mean
        p = tfa.BumpParams()
        assert tfa._bump_window(np.array([0.0]), p)[0] == 0.0


class TestCWT:
    def test_tone_ridge_at_expected_scale(self):
        t, x = tone_series(omega=0.5, n=4096, tmax=400 * np.pi)
        scal = tfa.cwt_bump(CorrelationSeries(t, x))
        mid = scal.coeffs[:, scal.coeffs.shape[1] // 2]
        ridge = scal.freqs[np.argmax(np.abs(mid))]
        assert ridge == pytest.approx(0.5, rel=0.05)

    def test_analytic_phase_rotation(self):
        # for a real tone, the analytic CWT phase advances as exp(i omega t)
        t, x = tone_series(omega=0.5, n=4096, tmax=400 * np.pi)
        scal = tfa.cwt_bump(CorrelationSeries(t, x))
        i = np.argmin(np.abs(scal.freqs - 0.5))
        mid = slice(1000, 3000)
        phase = np.unwrap(np.angle(scal.coeffs[i, mid]))
        slope = np.polyfit(t[mid], phase, 1)[0]
        assert slope == pytest.approx(0.5, rel=1e-3)

    def test_time_shift_covariance(self):
        # a well-localized packet shifted in time shifts the coefficients;
        # compare away from the edges where padding differs
        n, dt, k = 2048, 0.1, 37
        t = np.arange(n) * dt
        x1 = np.exp(-((t - 60) / 15) ** 2) * np.cos(2.1 * t)
        x2 = np.roll(x1, k)
        W1 = tfa.cwt_bump(on_grid(x1, dt)).coeffs
        W2 = tfa.cwt_bump(on_grid(x2, dt)).coeffs
        cols = np.arange(n // 4, n // 2)
        dev = np.abs(W2[:, cols + k] - W1[:, cols]).max()
        assert dev < 1e-8 * np.abs(W1).max()

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(2, 512))
        dt = 0.05
        axy = tfa.cwt_bump(on_grid(2 * x + 3 * y, dt))
        ax = tfa.cwt_bump(on_grid(x, dt))
        ay = tfa.cwt_bump(on_grid(y, dt))
        assert np.abs(axy.coeffs - 2 * ax.coeffs - 3 * ay.coeffs).max() < 1e-10

    @pytest.mark.parametrize("n", [256, 257])
    def test_rows_match_one_scale_transforms(self, n, monkeypatch):
        # every row, so the first and last scale of each FFT block and the
        # rows of a trailing partial block are all checked (npad = 2048 here,
        # for 193 and 194 scales), at transform lengths M that are not all
        # powers of two
        length_blocks, lengths = tfa._length_blocks, []

        def spy(*args):
            blocks = length_blocks(*args)
            lengths.extend(M for _, M in blocks)
            return blocks

        monkeypatch.setattr(tfa, "_length_blocks", spy)
        x, dt = beat_series(n)
        p = tfa.BumpParams()
        scal, dW = cwt_and_derivative(x, dt, p)
        assert any(M & (M - 1) for M in lengths)
        assert_rows_match_one_scale_transforms(scal.scales, scal.coeffs, dW, x, dt, p,
                                               padded_length(n, dt, scal.scales, p))

    def test_rows_match_one_scale_transforms_on_custom_scales(self):
        # the first scale's support is the first positive bin alone and the
        # second's ends at the last one; the rest alternate wide and narrow
        # supports, so each of the three blocks (at M = 675, 432 and 384)
        # reuses buffer rows that held wide and narrow supports before
        n, dt, p = 256, 0.1, tfa.BumpParams()
        npad = 16 * n
        omega = 2.0 * np.pi * np.fft.fftfreq(npad, dt)
        first, last = p.mu / omega[1], p.mu / omega[npad // 2 - 1]
        k = np.arange(150)
        scales = np.r_[first, last, np.where(k % 2, 0.3 * first / (1 + k), last * (1 + k / 20))]
        assert padded_length(n, dt, scales, p) == npad
        x, _ = beat_series(n, dt)
        W, dW = rows_and_derivative(x, dt, p, scales)
        support = [np.flatnonzero(tfa._bump_window(a * omega, p)) for a in scales]
        assert support[0].tolist() == [1] and support[1][-1] == npad // 2 - 1
        assert max(len(s) for s in support[2::2]) > 100 > 10 > min(len(s) for s in support[3::2])
        assert_rows_match_one_scale_transforms(scales, W, dW, x, dt, p, npad)

    def test_rows_match_one_scale_transforms_on_a_wide_bump(self):
        # the widest support holds more than npad - n bins, so the chirp-z
        # convolution of the first block runs at a length M above npad
        n, p = 256, tfa.BumpParams(1.0, 0.9)
        x, dt = beat_series(n)
        scal, dW = cwt_and_derivative(x, dt, p)
        npad = padded_length(n, dt, scal.scales, p)
        omega = 2.0 * np.pi * np.fft.fftfreq(npad, dt)
        widest = max(np.count_nonzero(tfa._bump_window(a * omega, p)) for a in scal.scales)
        assert widest > npad - n
        assert_rows_match_one_scale_transforms(scal.scales, scal.coeffs, dW, x, dt, p, npad)

    @pytest.mark.parametrize("dt", [0.1, 0.048828125, 1 / 3, 7.3e-5, 2.9e4])
    def test_positive_bins_have_the_fftfreq_bits(self, dt):
        # a scale whose bump needs two bins leaves npad the power of two at
        # n; at npad = 2 there is no positive bin to build
        p = tfa.BumpParams()
        scales = np.array([p.sigma * dt / (2.0 * np.pi)])
        for npad in (2 ** e for e in range(2, 21)):
            got_npad, omega = tfa.bump_support(npad, dt, p, scales)[:2]
            want = 2.0 * np.pi * np.fft.fftfreq(npad, dt)[1:(npad + 1) // 2]
            assert got_npad == npad
            assert_same_bits(omega, want)

    def test_underflowing_window_is_empty_support(self):
        # the scale's only bin inside |u| < 1 sits at u = 0.9995, where the
        # window exp(1 - 1/(1 - u^2)) ~ exp(-999) underflows to exactly 0.0
        n, dt, p = 256, 0.1, tfa.BumpParams()
        npad = 16 * n
        omega = 2.0 * np.pi * np.fft.fftfreq(npad, dt)
        a = (p.mu + 0.9995 * p.sigma) / omega[1]
        assert padded_length(n, dt, np.array([a]), p) == npad
        assert np.flatnonzero(np.abs(a * omega - p.mu) < p.sigma).tolist() == [1]
        assert not tfa._bump_window(a * omega, p).any()
        assert tfa.bump_support(n, dt, p, np.array([a]))[-1].tolist() == [True]

    @pytest.mark.parametrize("sigma, empty", [(0.01, "59 of 193"), (1e-308, "187 of 193")])
    def test_grid_with_empty_support_refused(self, sigma, empty, monkeypatch):
        # the grid cwt_bump would transform, refused before any row block
        def unreachable(*args, **kwargs):
            raise AssertionError("a row block made for a refused grid")

        monkeypatch.setattr(tfa, "_cwt_rows", unreachable)
        with pytest.raises(tfa.TFAError, match=f"{empty} wavelet scales, the first"):
            tfa.cwt_bump(on_grid(np.ones(256), 0.1), tfa.BumpParams(5.0, sigma))

    # the CWT takes a CorrelationSeries, whose construction refuses a grid,
    # a sample count or values the transform cannot take
    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    def test_time_step_not_finite_and_positive_rejected(self, dt):
        with np.errstate(invalid="ignore"):     # 0 * inf
            t = np.arange(256) * dt
        with pytest.raises(CCEError, match="time grid"):
            tfa.cwt_bump(CorrelationSeries(t, np.ones(256)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_series_not_finite_rejected(self, bad):
        x = np.ones(256)
        x[100] = bad
        with pytest.raises(CCEError, match="the correlation is not finite"):
            tfa.cwt_bump(on_grid(x, 0.1))

    @pytest.mark.parametrize("samples", [0, 1])
    def test_empty_series_rejected(self, samples):
        with pytest.raises(CCEError, match="at least two samples"):
            tfa.cwt_bump(on_grid(np.ones(samples), 0.1))

    def test_columns_are_the_series_grid(self):
        # linspace(0, 500, 1000) ends at 500 exactly, where k * dt ends one
        # ulp above it: the maps keep the series' own grid
        t = np.linspace(0.0, 500.0, 1000)
        series = CorrelationSeries(t, np.cos(0.5 * t))
        assert 999 * series.dt != 500.0
        scal = tfa.cwt_bump(series, voices_per_octave=8)
        assert_same_bits(scal.times_tbar, t)
        assert_same_bits(tfa.synchrosqueeze(scal).times_tbar, t)

    @pytest.mark.parametrize("voices", [0, -4, np.nan])
    def test_voices_below_one_rejected(self, voices):
        with pytest.raises(tfa.TFAError, match="voices_per_octave must be >= 1"):
            tfa.cwt_bump(on_grid(np.ones(256), 0.1), voices_per_octave=voices)

    @pytest.mark.parametrize("n, dt, mu, match", [
        # mu n dt overflows, and mu dt underflows to 0
        (256, 0.1, 1e308, "positive finite octave count"),
        (256, 1e-300, 1e-30, "positive finite octave count"),
        # log2(2^34 / 4) = 32 octaves at 2^26 voices: 2^31 + 1 scales
        (2 ** 34, 1.0, 5.0, "above the 2\\^31 - 1")])
    def test_scale_grid_refused_before_it_is_made(self, n, dt, mu, match, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("scales made for a refused grid")

        monkeypatch.setattr(np, "arange", unreachable)
        with pytest.raises(tfa.TFAError, match=match):
            tfa.default_scales(n, dt, tfa.BumpParams(mu, mu / 2), 2 ** 26)

    def test_smooth_lengths_match_brute_force(self):
        def smooth(k):
            for f in (2, 3, 5):
                while k % f == 0:
                    k //= f
            return k == 1

        m = np.arange(1, 5000)
        want = [next(k for k in itertools.count(i) if smooth(k)) for i in m]
        assert tfa._smooth_lengths(m).tolist() == want

    def test_voices_control_grid_density(self):
        t, x = tone_series(n=1024)
        s16 = tfa.cwt_bump(CorrelationSeries(t, x), voices_per_octave=16)
        s64 = tfa.cwt_bump(CorrelationSeries(t, x), voices_per_octave=64)
        assert len(s64.scales) > 3 * len(s16.scales)

    @pytest.mark.parametrize("n, voices, n_scales, dtype", [
        (256, 32, 193, np.int16), (64, 8200, 32801, np.int32),
        # the two sides of the switch: 2^15 scales and one more
        (24, 12676, 2 ** 15, np.int16), (20, 14112, 2 ** 15 + 1, np.int32)])
    def test_sized_map_is_the_allocated_map(self, n, voices, n_scales, dtype):
        # what the preflight sizes against physical memory, from the scale
        # count of scale_range, is what cwt_bump holds
        series = on_grid(np.cos(0.5 * np.arange(n)), 1.0)
        scal = tfa.cwt_bump(series, voices_per_octave=voices)
        assert scal.coeffs.shape == (n_scales, n) and scal.sst_bins.dtype == dtype
        assert tfa.cwt_nbytes(n_scales, n) == scal.coeffs.nbytes + scal.sst_bins.nbytes
        assert tfa.scale_range(n, series.dt, tfa.BumpParams(), voices) == (scal.scales[0], n_scales)


class TestSST:
    def setup_method(self):
        t, x = tone_series(omega=0.5, n=4096, tmax=400 * np.pi)
        self.series = CorrelationSeries(t, x)
        self.scal = tfa.cwt_bump(self.series)
        self.cwt_mid = self._mid(self.scal.coeffs)      # before the SST writes over W
        self.sst = tfa.synchrosqueeze(self.scal)

    def _mid(self, coeffs):
        n = coeffs.shape[1]
        return np.abs(coeffs[:, n // 4: 3 * n // 4])

    def test_tone_concentrates_near_bin(self):
        E = self._mid(self.sst.coeffs) ** 2
        prof = E.sum(axis=1)
        k = np.argmax(prof)
        assert self.sst.freqs[k] == pytest.approx(0.5, rel=0.03)
        near = prof[max(k - 1, 0): k + 2].sum()
        assert near / prof.sum() > 0.9

    def test_sharper_than_cwt(self):
        def spread(freqs, mod):
            E = mod ** 2
            w = E.sum(axis=1)
            lw = np.log(freqs)
            mean = (w * lw).sum() / w.sum()
            return np.sqrt((w * (lw - mean) ** 2).sum() / w.sum())

        s_c = spread(self.scal.freqs, self.cwt_mid)
        s_s = spread(self.sst.freqs, self._mid(self.sst.coeffs))
        assert s_s <= 0.5 * s_c

    def test_negative_gamma_rejected(self):
        with pytest.raises(tfa.TFAError):
            tfa.synchrosqueeze(self.scal, gamma=-1.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_gamma_not_finite_rejected(self, gamma):
        # at either, the threshold gamma * max|W| used to keep no cell
        with pytest.raises(tfa.TFAError, match="gamma must be finite and >= 0"):
            tfa.synchrosqueeze(self.scal, gamma=gamma)

    @pytest.mark.parametrize("pick", [[40], [40, 40], [41, 40]])
    def test_scales_other_than_two_or_more_ascending_rejected(self, pick):
        # one scale, two equal scales and a descending pair, in a Scalogram
        # built by hand: cwt_bump's own grids ascend
        scal = dataclasses.replace(self.scal, **{f: getattr(self.scal, f)[pick] for f in
                                                 ("scales", "freqs", "coeffs", "sst_bins")})
        with pytest.raises(tfa.TFAError, match="strictly ascending"):
            tfa.synchrosqueeze(scal)

    def test_freq_bins_ascending(self):
        assert np.all(np.diff(self.sst.freqs) > 0)
        assert_same_bits(self.sst.freqs, self.scal.freqs[::-1])
        assert (self.scal.kind, self.sst.kind) == ("cwt", "sst")

    def test_threshold_suppresses_noise_rows(self):
        strict = tfa.synchrosqueeze(tfa.cwt_bump(self.series), gamma=0.5)
        lax = tfa.synchrosqueeze(tfa.cwt_bump(self.series), gamma=0.0)
        assert np.abs(strict.coeffs).sum() < np.abs(lax.coeffs).sum()


@pytest.mark.parametrize("n", [256, 257])
@pytest.mark.parametrize("gamma", [0.0, 1e-8, 0.5])
def test_sst_matches_whole_map_reassignment(n, gamma):
    x, dt = beat_series(n)
    scal, dW = cwt_and_derivative(x, dt)
    assert scal.sst_bins.dtype == np.int16
    want, W = whole_map_sst(scal, dW, gamma), scal.coeffs
    assert tfa.synchrosqueeze(scal, gamma).coeffs is W
    assert_same_bits(W, want)


@pytest.mark.parametrize("gamma", [0.0, 1e-8])
def test_sst_with_exact_zero_cells_matches_whole_map_reassignment(gamma, monkeypatch):
    # exact zeros of W (a whole row, a column, scattered cells), set in each
    # row block before cwt_bump reads it, make the block-wide phase transform
    # divide by zero: no warning may escape, and those cells get no bin
    rows = tfa._cwt_rows

    def zeroed(x, dt, p, scales, W):
        zero = np.random.default_rng(3).random(W.shape) < 0.05
        zero[5] = zero[:, 17] = True
        for r, dW in rows(x, dt, p, scales, W):
            W[r][zero[r]] = 0.0
            if r.start <= 5 < r.stop:
                dW[5 - r.start, ::2] = 0.0
            yield r, dW

    monkeypatch.setattr(tfa, "_cwt_rows", zeroed)
    x, dt = beat_series(256)
    scal, dW = cwt_and_derivative(x, dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.real(-1j * dW / scal.coeffs)
    assert (scal.coeffs == 0).sum() > 0.05 * scal.coeffs.size
    assert not np.isfinite(w[scal.coeffs == 0]).any()
    assert (scal.sst_bins[~(np.isfinite(w) & (w > 0))] == -1).all()
    want, W = whole_map_sst(scal, dW, gamma), scal.coeffs
    assert tfa.synchrosqueeze(scal, gamma).coeffs is W
    assert_same_bits(W, want)


@pytest.mark.parametrize("extra", [0, 1])
def test_sst_on_more_scales_than_int16_bins_matches_whole_map_reassignment(extra):
    # 2^15 scales take bins 0 .. 2^15 - 1, the int16 map's range; one more
    # takes an int32 map, and the tone at the top center frequency (the
    # Nyquist frequency) fills bins above int16's range. Samples and voices
    # whose default grid holds 2^15 + extra scales, found by a search:
    n, voices = {0: (24, 12676), 1: (20, 14112)}[extra]
    dt, p = 1.0, tfa.BumpParams()
    x = np.cos(np.pi * np.arange(n))
    scal, dW = cwt_and_derivative(x, dt, p, voices)
    assert len(scal.scales) == 2 ** 15 + extra
    assert scal.sst_bins.dtype == (np.int32 if extra else np.int16)
    assert scal.sst_bins.max() >= 2 ** 15 - 1 + extra
    want, W = whole_map_sst(scal, dW, 0.0), scal.coeffs
    assert tfa.synchrosqueeze(scal, 0.0).coeffs is W
    assert_same_bits(W, want)


def traced_peak(fn, *args):
    """fn(*args), and the peak traced memory above what was held before it."""
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn(*args)
    return out, tracemalloc.get_traced_memory()[1] - base


class TestWorkingSet:
    def test_no_map_sized_temporaries(self, tmp_path):
        # besides W and the bin map the stage holds only blocks: a few
        # scales' FFTs and their dW in the CWT, a few columns of cells in the
        # SST, which writes T over W, and a few rows in the map export
        series = CorrelationSeries(*tone_series(omega=0.5, n=4096, tmax=400 * np.pi))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scal, cwt_peak = traced_peak(tfa.cwt_bump, series)
            held = tracemalloc.get_traced_memory()[0] - base
            sst, sst_peak = traced_peak(tfa.synchrosqueeze, scal, 1e-8)
            _, save_peak = traced_peak(tfa.save_map, tmp_path / "sst.bin",
                                       tmp_path / "sst.meta.txt", sst)
        finally:
            tracemalloc.stop()
        maps = scal.coeffs.nbytes + scal.sst_bins.nbytes
        assert cwt_peak <= maps + 8 * 2 ** 20
        assert held + sst_peak <= maps + 8 * 2 ** 20
        assert save_peak <= 2 ** 20

    def test_analyze_holds_one_map(self, tmp_path):
        # the CWT's map and band traces are written before the SST writes
        # over W, so the stage never holds a second map-sized array
        t, x = tone_series(omega=0.5, n=4096, tmax=400 * np.pi)
        cfg = cli.RunConfig(outdir=str(tmp_path))
        record = cli.RunRecord(cfg)
        n_scales = len(tfa.default_scales(len(x), t[1] - t[0], tfa.BumpParams(), cfg.voices))
        tracemalloc.start()
        try:
            _, peak = traced_peak(cli._analyze, record, cfg, CorrelationSeries(t, x), True)
        finally:
            tracemalloc.stop()
        assert len(record.products) == 5 + 2 * len(cli.BANDS)
        # W (complex) and the int16 bin map
        assert peak <= n_scales * len(x) * (16 + 2) + 8 * 2 ** 20


class TestBandAmplitude:
    def test_band_selection(self):
        t, x = tone_series(omega=0.5, n=2048, tmax=200 * np.pi)
        scal = tfa.cwt_bump(CorrelationSeries(t, x))
        inband = tfa.band_amplitude(scal, 0.4, 0.6)
        out = tfa.band_amplitude(scal, 0.9, 1.1)
        mid = slice(512, 1536)
        assert inband[mid].mean() > 10 * out[mid].mean()

    def test_rows_add_as_a_sum_over_rows(self):
        # row by row in row order, with the bits of np.sum over axis 0
        t, x = tone_series(omega=0.5, n=2048, tmax=200 * np.pi)
        scal = tfa.cwt_bump(CorrelationSeries(t, x))
        one = scal.freqs[100]
        for lo, hi in [(0.0, 0.1), (0.4, 0.6), (one, one), (0.0, np.inf)]:
            sel = (scal.freqs >= lo) & (scal.freqs <= hi)
            assert sel.any()
            assert_same_bits(tfa.band_amplitude(scal, lo, hi),
                             np.abs(scal.coeffs[sel]).sum(axis=0))

    def test_empty_band_rejected(self):
        t, x = tone_series(n=512)
        scal = tfa.cwt_bump(CorrelationSeries(t, x))
        with pytest.raises(tfa.TFAError):
            tfa.band_amplitude(scal, 1e6, 2e6)

    def test_sst_rows_add_as_a_sum_over_rows(self):
        # the SST map's rows are picked by its own ascending frequencies
        t, x = tone_series(omega=0.5, n=2048, tmax=200 * np.pi)
        sst = tfa.synchrosqueeze(tfa.cwt_bump(CorrelationSeries(t, x)))
        for lo, hi in [(0.0, 0.1), (0.4, 0.6), (0.0, np.inf)]:
            sel = (sst.freqs >= lo) & (sst.freqs <= hi)
            assert_same_bits(tfa.band_amplitude(sst, lo, hi),
                             np.abs(sst.coeffs[sel]).sum(axis=0))


class TestExports:
    def test_spectrum_file(self, tmp_path):
        spec = tfa.Spectrum(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        p = tmp_path / "spec.csv"
        tfa.save_spectrum(p, spec)
        lines = p.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 3

    def test_map_round_trip(self, tmp_path, monkeypatch):
        t, x = tone_series(n=512)
        scal = tfa.cwt_bump(CorrelationSeries(t, x))
        monkeypatch.chdir(tmp_path)
        files = tfa.save_map("cwt.bin", "cwt.meta.txt", scal)
        assert files == ["cwt.bin", "cwt.meta.txt"]
        raw = np.fromfile(files[0], dtype="<f8").reshape(scal.coeffs.shape)
        assert np.array_equal(raw, np.abs(scal.coeffs))
        meta = (tmp_path / "cwt.meta.txt").read_text()
        assert f"# shape = {scal.coeffs.shape[0]} {scal.coeffs.shape[1]}" in meta
        # the README's recipe for the omega_bar,tbar,modulus long form, its one
        # python block run as written; 17 significant digits round-trip a
        # double, so it is exact
        blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
        assert len(blocks) == 1
        recipe = {}
        exec(blocks[0], recipe)
        table, freqs, times = recipe["table"], recipe["freqs"], recipe["times"]
        assert table.shape == (scal.coeffs.size, 3)
        assert np.array_equal(table[:, 0], np.repeat(scal.freqs, len(times)))
        assert np.array_equal(table[:, 1], np.tile(scal.times_tbar, len(freqs)))
        assert np.array_equal(table[:, 2], raw.ravel())
