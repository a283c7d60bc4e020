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
    dcoeffs: np.ndarray         # time derivative d/db of coeffs
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
    md = dict(series.metadata)
    md["normalized"] = True
    return CorrelationSeries(times_tbar=series.times_tbar.copy(),
                             values=(v - mean) / denom, metadata=md)


def power_spectrum(series: CorrelationSeries, zero_pad_factor: int = 1) -> Spectrum:
    """One-sided rectangular-window periodogram |FFT|^2 of the (zero-padded)
    series, frequency axis in omega_bar."""
    v = series.values
    n = len(v) * max(1, int(zero_pad_factor))
    spec = np.fft.rfft(v, n)
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, series.dt)
    return Spectrum(omega_bar=omega, power=np.abs(spec) ** 2)


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


def cwt_bump(x: np.ndarray, dt: float, params: BumpParams = BumpParams(),
             voices_per_octave: int = 32,
             scales: np.ndarray | None = None) -> Scalogram:
    """Bump-wavelet CWT evaluated in the Fourier domain.

    Per scale a the row is ifft(xhat(w) * sqrt(a) * bump(a w)); the bump
    support lies at positive frequencies only, so the transform is analytic
    for real input. The time derivative (spectral, exact for the band-limited
    kernel) is stored alongside for synchrosqueezing. Input is zero-padded to
    the next power of two, npad. The inverse FFTs of both products run
    batched, max(1, 2^16 // npad) scales per reused (2, block, npad) buffer.
    Each scale's window is evaluated and written on its support bins only,
    (mu -+ sigma) / a padded by one bin, a block's supports at once, and the
    buffer is cleared only where the previous block wrote; every other bin
    stays zero.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if scales is None:
        scales = default_scales(n, dt, params, voices_per_octave)
    scales = np.asarray(scales, dtype=float)
    # pad far enough that the narrowest bump (largest scale) still covers at
    # least two FFT bins: resolution 2 pi / (npad dt) <= sigma / a_max
    need = max(n, int(np.ceil(2.0 * np.pi * scales.max() / (params.sigma * dt))))
    need = min(need, 16 * n)        # absurd scales still fail the support check
    npad = 1 << int(np.ceil(np.log2(need)))
    pos = slice(1, (npad + 1) // 2)     # the bump support, as mu > sigma > 0
    X = np.fft.fft(x, npad)[pos]
    omega = 2.0 * np.pi * np.fft.fftfreq(npad, dt)[pos]
    W = np.empty((len(scales), n), dtype=complex)
    dW = np.empty_like(W)
    # support bins of each scale; the extra bin on each side covers rounding
    # of a * omega against (omega -+ sigma / a) at the edges of |u| < 1
    lo = np.searchsorted(omega, (params.mu - params.sigma) / scales) - 1
    hi = np.searchsorted(omega, (params.mu + params.sigma) / scales) + 1
    lo, hi = np.maximum(lo, 0), np.minimum(hi, len(omega))
    blocks = _row_blocks((len(scales), npad), 2 ** 16)
    buf = np.zeros((2, blocks[0].stop, npad), dtype=complex)
    rows = cols = np.zeros(0, dtype=int)        # the buffer cells the last block wrote
    for r in blocks:
        buf[:, rows, cols] = 0
        m = hi[r] - lo[r]                       # a block's supports, end to end
        rows = np.repeat(np.arange(len(m)), m)
        bins = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m - lo[r], m)
        a = scales[r][rows]
        win = np.sqrt(a) * _bump_window(a * omega[bins], params)
        empty = np.bincount(rows, win != 0, len(m)) == 0
        if empty.any():
            raise TFAError(f"scale {scales[r][empty.argmax()]} has empty bump "
                           "support inside the sampled band")
        cols = bins + pos.start
        buf[0, rows, cols] = X[bins] * win
        buf[1, rows, cols] = X[bins] * win * 1j * omega[bins]
        W[r], dW[r] = np.fft.ifft(buf[:, :len(m)])[..., :n]
    # approximate edge-effect halfwidth per scale, in samples
    coi = np.minimum(np.ceil(2.0 * np.pi * scales / (params.sigma * dt)), n).astype(int)
    return Scalogram(scales=scales, center_freqs=params.mu / scales,
                     times_tbar=np.arange(n) * dt, coeffs=W, dcoeffs=dW,
                     metadata={"voices_per_octave": voices_per_octave,
                               "coi_halfwidth_samples": coi})


def synchrosqueeze(scalogram: Scalogram, gamma: float = 1e-8) -> SSTMap:
    """Reassign CWT coefficients to instantaneous-frequency bins.

    The phase-transform frequency is Re(-i dW/W) wherever |W| exceeds
    gamma * max|W|; each retained cell contributes W * a^(-3/2) * da to the
    nearest log-spaced frequency bin (the scale grid's own center
    frequencies). Both passes walk max(1, 2^15 // n_times) scale rows at a
    time, in row order, so every bin sums its cells in row-major order. The
    phase transform runs on the whole block (exact zeros of W give inf or
    nan there, which no retained cell reads), and the retained cells, taken
    by flat index, scatter through one flat index into T in that order.
    """
    if gamma < 0:
        raise TFAError("gamma must be nonnegative")
    W, dW = scalogram.coeffs, scalogram.dcoeffs
    blocks = _row_blocks(W.shape, 2 ** 15)
    thr = gamma * np.max([np.abs(W[r]).max() for r in blocks]) if W.size else 0.0

    freqs = scalogram.center_freqs[::-1]            # ascending
    log_f = np.log2(freqs)
    dlog = (log_f[-1] - log_f[0]) / max(len(freqs) - 1, 1)
    a = scalogram.scales
    weight = a ** -1.5 * np.gradient(a)

    n_cols = W.shape[1]
    T = np.zeros((len(freqs), n_cols), dtype=complex)
    for r in blocks:
        Wb = W[r]
        with np.errstate(divide="ignore", invalid="ignore"):
            w_inst = np.real(-1j * dW[r] / Wb)
        sel = (np.abs(Wb) > thr) & (w_inst > 0)
        idx = np.rint((np.log2(w_inst[sel]) - log_f[0]) / dlog).astype(int)
        keep = (idx >= 0) & (idx < len(freqs))
        cells = np.flatnonzero(sel)[keep]           # row-major in the block
        rows, cols = np.divmod(cells, n_cols)
        np.add.at(T.reshape(-1), idx[keep] * n_cols + cols,
                  Wb.reshape(-1)[cells] * weight[r][rows])
    return SSTMap(freq_bins=freqs, times_tbar=scalogram.times_tbar, coeffs=T,
                  metadata=dict(scalogram.metadata))


def band_amplitude(obj, omega_lo: float, omega_hi: float) -> np.ndarray:
    """Per-time-sample sum of |coefficients| over a frequency band."""
    if isinstance(obj, Scalogram):
        freqs = obj.center_freqs
    elif isinstance(obj, SSTMap):
        freqs = obj.freq_bins
    else:
        raise TFAError(f"unsupported map type {type(obj).__name__}")
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


def save_map(prefix, obj) -> list:
    """Binary modulus matrix (little-endian float64, row-major, one row per
    frequency) plus a text sidecar with the grids at 17 significant digits,
    which together hold every map cell exactly. Returns the two paths."""
    if isinstance(obj, Scalogram):
        freqs, kind = obj.center_freqs, "cwt"
    else:
        freqs, kind = obj.freq_bins, "sst"
    bin_path, meta_path = f"{prefix}.bin", f"{prefix}.meta.txt"
    with open(bin_path, "wb") as fh:        # a row block at a time: no map-sized copy
        for r in _row_blocks(obj.coeffs.shape, 2 ** 15):
            np.abs(obj.coeffs[r]).astype("<f8", copy=False).tofile(fh)
    with open(meta_path, "w") as fh:
        fh.write(f"# kind = {kind}\n")
        fh.write("# shape = %d %d\n" % obj.coeffs.shape)
        for k, v in sorted(obj.metadata.items()):
            if isinstance(v, np.ndarray):
                continue
            fh.write(f"# {k} = {v}\n")
        for axis, grid in (("omega_bar rows", freqs), ("tbar columns", obj.times_tbar)):
            fh.write(f"# {axis}:\n" + ",".join(_key_cells(grid)) + "\n")
    return [bin_path, meta_path]
