"""Correlation normalization, periodogram, bump-wavelet CWT and the
synchrosqueezed transform, with band summation utilities.

Signals arrive on the normalized time grid tbar, so every frequency below is
already the normalized angular frequency omega_bar.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cce import CorrelationSeries, _key_cells, _write_rows


class TFAError(ValueError):
    pass


@dataclass(frozen=True)
class BumpParams:
    """Fourier-domain bump window: center mu, half-width sigma. mu > sigma
    keeps omega = 0 outside the support, so the wavelet has zero mean."""
    mu: float = 5.0
    sigma: float = 0.6

    def __post_init__(self):
        if not self.mu > self.sigma > 0:
            raise TFAError(f"bump parameters need mu > sigma > 0, got mu={self.mu}, sigma={self.sigma}")


@dataclass
class Spectrum:
    omega_bar: np.ndarray
    power: np.ndarray


@dataclass
class Scalogram:
    scales: np.ndarray          # ascending scale = descending frequency
    center_freqs: np.ndarray    # mu / a, per scale
    times_tbar: np.ndarray
    coeffs: np.ndarray          # (n_scales, n_times) complex
    sst_bins: np.ndarray        # each cell's SST bin (freq_bins index), -1 for none
    metadata: dict = field(default_factory=dict)


@dataclass
class SSTMap:
    freq_bins: np.ndarray       # ascending omega_bar bins (log-spaced)
    times_tbar: np.ndarray
    coeffs: np.ndarray          # (n_bins, n_times) complex
    metadata: dict = field(default_factory=dict)


def normalize_correlation(series: CorrelationSeries) -> CorrelationSeries:
    """Shift to zero time-mean and rescale so the t = 0 value is exactly 1."""
    v = series.values
    mean = v.mean()
    denom = v[0] - mean
    if abs(denom) <= 1e-14 * max(abs(v[0]), 1e-300):
        raise TFAError("degenerate correlation series: C(0) equals its time mean")
    return CorrelationSeries(times_tbar=series.times_tbar.copy(), values=(v - mean) / denom,
                             metadata={**series.metadata, "normalized": True})


def power_spectrum(series: CorrelationSeries, zero_pad_factor: int = 1) -> Spectrum:
    """One-sided rectangular-window periodogram |FFT|^2 of the (zero-padded)
    series, frequency axis in omega_bar. The pad factor is an integer >= 1."""
    if not isinstance(zero_pad_factor, (int, np.integer)) or zero_pad_factor < 1:
        raise TFAError(f"zero_pad_factor must be an integer >= 1, got {zero_pad_factor!r}")
    n = len(series.values) * int(zero_pad_factor)
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, series.dt)
    return Spectrum(omega_bar=omega, power=np.abs(np.fft.rfft(series.values, n)) ** 2)


def _bump_window(xi: np.ndarray, p: BumpParams) -> np.ndarray:
    """exp(1 - 1/(1 - u^2)) on |u| < 1 with u = (xi - mu)/sigma, else 0."""
    u = (xi - p.mu) / p.sigma
    out = np.zeros_like(xi)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def default_scales(n: int, dt: float, params: BumpParams,
                   voices_per_octave: int = 32) -> np.ndarray:
    """Log2-spaced scales spanning wavelet periods from 2*dt up to half the
    series duration."""
    if not voices_per_octave >= 1:
        raise TFAError(f"voices_per_octave must be >= 1, got {voices_per_octave}")
    a_min = params.mu * dt / np.pi                 # center freq at Nyquist
    a_max = params.mu * (n * dt) / (4.0 * np.pi)   # period = duration / 2
    n_oct = np.log2(a_max / a_min)
    if n_oct <= 0:
        raise TFAError("series too short for the requested scale range")
    k = np.arange(int(np.ceil(n_oct * voices_per_octave)) + 1)
    return a_min * 2.0 ** (k / voices_per_octave)


def _row_blocks(shape: tuple, cells: int) -> list:
    """Consecutive row slices of a (rows, cols) map, ~`cells` cells each."""
    b = max(1, cells // max(shape[1], 1))
    return [slice(i, min(i + b, shape[0])) for i in range(0, shape[0], b)]


def _cwt_rows(x: np.ndarray, dt: float, params: BumpParams, scales: np.ndarray, W: np.ndarray):
    """Fill W a row block at a time (see cwt_bump), yielding each block's rows
    r and their time derivative dW[r] in a buffer the next block reuses."""
    n = len(x)
    # pad far enough that the narrowest bump (largest scale) still covers at
    # least two FFT bins: resolution 2 pi / (npad dt) <= sigma / a_max
    need = max(n, int(np.ceil(2.0 * np.pi * scales.max() / (params.sigma * dt))))
    need = min(need, 16 * n)        # absurd scales still fail the support check
    npad = 1 << int(np.ceil(np.log2(need)))
    pos = slice(1, (npad + 1) // 2)     # the bump support, as mu > sigma > 0
    X = np.fft.fft(x, npad)[pos]
    omega = 2.0 * np.pi * np.fft.fftfreq(npad, dt)[pos]
    # support bins of each scale; the extra bin on each side covers rounding
    # of a * omega against (omega -+ sigma / a) at the edges of |u| < 1
    lo = np.maximum(np.searchsorted(omega, (params.mu - params.sigma) / scales) - 1, 0)
    hi = np.minimum(np.searchsorted(omega, (params.mu + params.sigma) / scales) + 1, len(omega))
    root = np.exp(2j * np.pi * np.fft.fftfreq(2 * npad))  # root[q] = w^(q/2)
    M = 1 << int(n + (hi - lo).max() - 2).bit_length()
    lag = np.r_[:n, n - M:0]                              # t - j at each of the M points
    chirp = np.fft.fft(root[-lag * lag % (2 * npad)]) / npad
    t = np.arange(n)
    blocks = _row_blocks((len(scales), M), 2 ** 16)
    buf = np.empty((2, blocks[0].stop, M), dtype=complex)
    phase = np.empty((blocks[0].stop, n), dtype=np.int64)
    dW = np.empty((blocks[0].stop, n), dtype=complex)
    for r in blocks:
        m = hi[r] - lo[r]                       # a block's supports, end to end
        rows = np.repeat(np.arange(len(m)), m)
        j = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
        bins = j + lo[r][rows]
        win = np.sqrt(scales[r])[rows] * _bump_window(scales[r][rows] * omega[bins], params)
        empty = np.bincount(rows, win != 0, len(m)) == 0
        if empty.any():
            raise TFAError(f"scale {scales[r][empty.argmax()]} has empty bump "
                           "support inside the sampled band")
        blk, q, d = buf[:, :len(m)], phase[:len(m)], dW[:len(m)]
        blk[...] = 0
        y = root[j * j % (2 * npad)]
        y *= X[bins]
        y *= win
        blk[0, rows, j] = y
        y *= omega[bins]
        y *= 1j
        blk[1, rows, j] = y
        np.fft.fft(blk, out=blk)
        blk *= chirp
        np.fft.ifft(blk, out=blk)
        np.add.outer(2 * (lo[r] + pos.start), t, out=q)
        q *= t
        q &= 2 * npad - 1                       # t^2 + 2 k0 t mod 2 npad
        root.take(q, out=d)
        np.multiply(blk[0, :, :n], d, out=W[r])
        d *= blk[1, :, :n]
        yield r, d


def cwt_bump(x: np.ndarray, dt: float, params: BumpParams = BumpParams(),
             voices_per_octave: int = 32,
             scales: np.ndarray | None = None) -> Scalogram:
    """Bump-wavelet CWT evaluated in the Fourier domain, with each cell's SST bin.

    Per scale a the row is ifft(xhat(w) * sqrt(a) * bump(a w))[:n] at npad,
    the next power of two resolving the narrowest bump: analytic for real
    input, as the bump lies at positive frequencies only. A chirp-z
    (Bluestein) transform sums it over the K support bins k0 + j by one FFT
    convolution at M >= n + max K - 1: with w = exp(2 pi i / npad), row[t] =
    w^(t^2/2 + k0 t) / npad * sum_j y_j w^(j^2/2) w^(-(t-j)^2/2), each phase
    from one root table at an exact integer index, 2^16 // M rows per buffer.
    Each block's exact spectral time derivative dW, never held whole, gives
    its cells' phase-transform frequency w = Re(-i dW/W) and so the SST bin:
    the nearest center frequency on a log2 axis (int16 up to 2^15 scales), or
    -1 where w is not finite and > 0, off the grid, or on a grid synchrosqueeze refuses.
    """
    x = np.asarray(x, dtype=float)
    if not (0 < dt < np.inf and x.size and np.isfinite(x).all()):
        raise TFAError("the CWT needs a nonempty finite series and a time step finite and > 0, "
                       f"got {x.size} samples and dt = {dt}")
    n = len(x)
    if scales is None:
        scales = default_scales(n, dt, params, voices_per_octave)
    scales = np.asarray(scales, dtype=float)
    if not (scales.size and np.isfinite(scales).all() and (scales > 0).all()):
        raise TFAError("scales must be a nonempty set of finite values > 0")
    W = np.empty((len(scales), n), dtype=complex)
    bins = np.empty(W.shape, dtype=np.int16 if len(scales) <= 2 ** 15 else np.int32)
    center = params.mu / scales
    log_f = np.log2(center[::-1])
    dlog = (log_f[-1] - log_f[0]) / (len(log_f) - 1) if _ascending(scales) else np.nan
    for r, dW in _cwt_rows(x, dt, params, scales, W):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k = np.rint((np.log2(np.real(-1j * dW / W[r])) - log_f[0]) / dlog)
            bins[r] = np.where((k >= 0) & (k < len(scales)), k, -1)
    # approximate edge-effect halfwidth per scale, in samples
    coi = np.minimum(np.ceil(2.0 * np.pi * scales / (params.sigma * dt)), n).astype(int)
    return Scalogram(scales=scales, center_freqs=center,
                     times_tbar=np.arange(n) * dt, coeffs=W, sst_bins=bins,
                     metadata={"voices_per_octave": voices_per_octave,
                               "coi_halfwidth_samples": coi})


def _ascending(scales: np.ndarray) -> bool:
    return len(scales) > 1 and bool((np.diff(scales) > 0).all())


def synchrosqueeze(scalogram: Scalogram, gamma: float = 1e-8) -> SSTMap:
    """Reassign CWT coefficients to instantaneous-frequency bins.

    Each cell whose |W| exceeds gamma * max|W| and that has an SST bin (see
    cwt_bump) contributes W * a^(-3/2) * da to that bin. Both passes walk
    max(1, 2^15 // n_times) scale rows at a time, and the retained cells
    scatter by flat index into T, so every bin sums its cells in row-major order.
    """
    if not 0 <= gamma < np.inf:
        raise TFAError(f"gamma must be finite and >= 0, got {gamma}")
    if not _ascending(scalogram.scales):
        raise TFAError("synchrosqueezing needs two or more strictly ascending scales")
    W, bins = scalogram.coeffs, scalogram.sst_bins
    blocks = _row_blocks(W.shape, 2 ** 15)
    thr = gamma * np.max([np.abs(W[r]).max() for r in blocks]) if W.size else 0.0
    weight = scalogram.scales ** -1.5 * np.gradient(scalogram.scales)
    n_cols = W.shape[1]
    T = np.zeros(W.shape, dtype=complex)
    for r in blocks:
        Wb = W[r]
        cells = np.flatnonzero((np.abs(Wb) > thr) & (bins[r] >= 0))   # row-major
        rows, cols = np.divmod(cells, n_cols)
        k = bins[r].reshape(-1)[cells].astype(np.intp)
        np.add.at(T.reshape(-1), k * n_cols + cols, Wb.reshape(-1)[cells] * weight[r][rows])
    return SSTMap(freq_bins=scalogram.center_freqs[::-1], times_tbar=scalogram.times_tbar,
                  coeffs=T, metadata=dict(scalogram.metadata))


def band_amplitude(obj, omega_lo: float, omega_hi: float) -> np.ndarray:
    """Per-time-sample sum of |coefficients| over a frequency band."""
    if not isinstance(obj, (Scalogram, SSTMap)):
        raise TFAError(f"unsupported map type {type(obj).__name__}")
    freqs = obj.center_freqs if isinstance(obj, Scalogram) else obj.freq_bins
    sel = (freqs >= omega_lo) & (freqs <= omega_hi)
    if not sel.any():
        raise TFAError(f"no frequency rows inside band [{omega_lo}, {omega_hi}]")
    return np.abs(obj.coeffs[sel]).sum(axis=0)


# ---------------------------------------------------------------------------
# exports

def save_spectrum(path, spec: Spectrum) -> None:
    with open(path, "w") as fh:
        fh.write("# omega_bar,power\n")
        _write_rows(fh, spec.omega_bar, spec.power)


def save_map(bin_path, meta_path, obj) -> list:
    """Modulus matrix at ``bin_path`` (little-endian float64, row-major, one
    row per frequency) and grids at 17 significant digits in the sidecar
    ``meta_path``, together every map cell exactly. Returns the two paths."""
    freqs, kind = (obj.center_freqs, "cwt") if isinstance(obj, Scalogram) else (obj.freq_bins, "sst")
    with open(bin_path, "wb") as fh:        # a row block at a time: no map-sized copy
        for r in _row_blocks(obj.coeffs.shape, 2 ** 15):
            np.abs(obj.coeffs[r]).astype("<f8", copy=False).tofile(fh)
    with open(meta_path, "w") as fh:
        fh.write(f"# kind = {kind}\n")
        fh.write("# shape = %d %d\n" % obj.coeffs.shape)
        for k, v in sorted(obj.metadata.items()):
            if not isinstance(v, np.ndarray):
                fh.write(f"# {k} = {v}\n")
        for axis, grid in (("omega_bar rows", freqs), ("tbar columns", obj.times_tbar)):
            fh.write(f"# {axis}:\n" + ",".join(_key_cells(grid)) + "\n")
    return [bin_path, meta_path]
