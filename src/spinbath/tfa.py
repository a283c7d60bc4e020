"""Correlation normalization, periodogram, bump-wavelet CWT and the
synchrosqueezed transform, with band summation utilities.

Signals arrive on the normalized time grid tbar, so every frequency below is
already the normalized angular frequency omega_bar.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .cce import CorrelationSeries, _blocks, _key_cells, _write_rows


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
    kind: ClassVar[str] = "cwt"
    scales: np.ndarray          # ascending scale = descending frequency
    freqs: np.ndarray           # center frequency mu / a of each row
    times_tbar: np.ndarray
    coeffs: np.ndarray          # (n_scales, n_times) complex
    sst_bins: np.ndarray        # each cell's SST bin (SSTMap row), -1 for none
    metadata: dict = field(default_factory=dict)


@dataclass
class SSTMap:
    kind: ClassVar[str] = "sst"
    freqs: np.ndarray           # ascending omega_bar bins (log-spaced)
    times_tbar: np.ndarray
    coeffs: np.ndarray          # (n_bins, n_times) complex
    metadata: dict = field(default_factory=dict)


def normalize_correlation(series: CorrelationSeries) -> CorrelationSeries:
    """Shift to zero time-mean and rescale so the t = 0 value is exactly 1; a
    mean past the float range leaves values that the new series refuses."""
    v = series.values
    with np.errstate(over="ignore", invalid="ignore"):
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
    with np.errstate(over="ignore"):        # a u past the float range lies outside too
        u = (xi - p.mu) / p.sigma
    out = np.zeros_like(xi)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def default_scales(n: int, dt: float, params: BumpParams,
                   voices_per_octave: int = 32) -> np.ndarray:
    """The scale grid cwt_bump transforms: log2-spaced scales spanning
    wavelet periods from 2*dt up to half the series duration. A range of no
    positive finite octave count, or of more scales than the int32 SST bin
    map indexes (2^31 - 1), is refused before any scale is made, and a grid
    with a scale whose bump covers no bin of the padded FFT (see
    bump_support) once it is made."""
    if not 1 <= voices_per_octave <= 2 ** 31 - 1:
        raise TFAError(f"voices_per_octave must be >= 1 and at most 2^31 - 1, "
                       f"got {voices_per_octave}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a_min = params.mu * np.float64(dt) / np.pi     # center freq at Nyquist
        a_max = params.mu * (n * dt) / (4.0 * np.pi)   # period = duration / 2
        n_oct = np.log2(a_max / a_min)
    if not 0 < n_oct < np.inf:
        raise TFAError(f"the scale range {a_min:g} to {a_max:g} spans no positive finite "
                       "octave count")
    count = np.ceil(n_oct * voices_per_octave) + 1
    if count > 2 ** 31 - 1:
        raise TFAError(f"{count:.3g} scales, above the 2^31 - 1 the SST bin map indexes")
    scales = a_min * 2.0 ** (np.arange(int(count)) / voices_per_octave)
    empty = bump_support(n, dt, params, scales)[-1]
    if empty.any():
        raise TFAError(f"{empty.sum()} of {len(scales)} wavelet scales, the first "
                       f"{scales[empty.argmax()]:.6g}, have no bump support on the "
                       "CWT's padded FFT")
    return scales


def _smooth_lengths(m) -> np.ndarray:
    """The smallest 2^a 3^b 5^c at or above each m, elementwise: lengths
    that numpy's FFT splits into radix-2, -3 and -5 passes alone."""
    m = np.asarray(m)
    top = 1 << int(m.max() - 1).bit_length()        # a power of two is one of them
    table = []
    p5 = 1
    while p5 <= top:
        p3 = p5
        while p3 <= top:
            p = p3
            while p <= top:
                table.append(p)
                p *= 2
            p3 *= 3
        p5 *= 5
    table.sort()
    return np.array(table)[np.searchsorted(table, m)]


def _length_blocks(lengths: list, cells: int) -> list:
    """Consecutive row slices, each with the largest of its rows' transform
    lengths: a block grows while its rows times that length stay within
    `cells`, and holds one row at least."""
    blocks, start = [], 0
    while start < len(lengths):
        stop, M = start + 1, lengths[start]
        while stop < len(lengths) and (stop + 1 - start) * max(M, lengths[stop]) <= cells:
            M = max(M, lengths[stop])
            stop += 1
        blocks.append((slice(start, stop), M))
        start = stop
    return blocks


def bump_support(n: int, dt: float, params: BumpParams, scales: np.ndarray):
    """(npad, omega, lo, hi, empty): the padded FFT length of cwt_bump on n
    samples of step dt, its positive bins omega (the whole bump support, as
    mu > sigma > 0), each scale's support omega[lo:hi], and whether each
    scale's window sqrt(a) * bump(a * omega) is 0 on all of it. a * omega
    rounds monotonically along the bins, so the window peaks at one of the
    two bins around mu / a: those two decide ``empty`` at O(scales) cost."""
    # pad far enough that the narrowest bump (largest scale) still covers at
    # least two FFT bins: resolution 2 pi / (npad dt) <= sigma / a_max
    with np.errstate(over="ignore"):
        need = np.ceil(2.0 * np.pi * scales.max() / (params.sigma * dt))
    need = int(min(max(n, need), 16 * n))   # absurd scales still fail the support check
    npad = 1 << int(np.ceil(np.log2(need)))
    # np.fft.fftfreq(npad, dt)[1:(npad + 1) // 2] without the other bins:
    # fftfreq is an int arange times 1 / (npad * dt), so the bits are its own
    omega = 2.0 * np.pi * (np.arange(1, (npad + 1) // 2) * (1.0 / (npad * dt)))
    # support bins of each scale; the extra bin on each side covers rounding
    # of a * omega against (omega -+ sigma / a) at the edges of |u| < 1
    lo = np.maximum(np.searchsorted(omega, (params.mu - params.sigma) / scales) - 1, 0)
    hi = np.minimum(np.searchsorted(omega, (params.mu + params.sigma) / scales) + 1, len(omega))
    k = (np.searchsorted(omega, params.mu / scales)[:, None] + [-1, 0]).clip(0, len(omega) - 1)
    win = np.sqrt(scales)[:, None] * _bump_window(scales[:, None] * omega[k], params)
    return npad, omega, lo, hi, ~win.any(axis=1)


def _cwt_rows(x: np.ndarray, dt: float, params: BumpParams, scales: np.ndarray, W: np.ndarray):
    """Fill W a row block at a time (see cwt_bump), yielding each block's rows
    r and their time derivative dW[r] in a buffer the next block reuses.
    Each block runs its chirp-z convolution at its own length M, the smallest
    2^a 3^b 5^c >= n + K - 1 for the block's widest support K, with at most
    2^15 rows times M cells per product."""
    n = len(x)
    npad, omega, lo, hi, _ = bump_support(n, dt, params, scales)
    pos = slice(1, len(omega) + 1)          # omega's bins in the padded FFT
    X = np.fft.fft(x, npad)[pos].copy()     # copies: the negative halves are not kept
    root = np.exp(2j * np.pi * np.fft.fftfreq(2 * npad))  # root[q] = w^(q/2)
    blocks = _length_blocks(_smooth_lengths(n + hi - lo - 1).tolist(), 2 ** 15)
    rows_max = max(r.stop - r.start for r, _ in blocks)
    buf = np.empty(2 * max((r.stop - r.start) * M for r, M in blocks), dtype=complex)
    phase = np.empty((rows_max, n), dtype=np.int64)
    dW = np.empty((rows_max, n), dtype=complex)
    t = np.arange(n)
    chirp = np.empty(0)
    for r, M in blocks:
        if len(chirp) != M:                     # over ascending scales M only falls
            lag = np.r_[:n, n - M:0]            # t - j at each of the M points
            chirp = np.fft.fft(root[-lag * lag % (2 * npad)]) / npad
        m = hi[r] - lo[r]                       # a block's supports, end to end
        rows = np.repeat(np.arange(len(m)), m)
        j = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
        bins = j + lo[r][rows]
        win = np.sqrt(scales[r])[rows] * _bump_window(scales[r][rows] * omega[bins], params)
        blk, q, d = buf[:2 * len(m) * M].reshape(2, len(m), M), phase[:len(m)], dW[:len(m)]
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


def cwt_bump(series: CorrelationSeries, params: BumpParams = BumpParams(),
             voices_per_octave: int = 32) -> Scalogram:
    """Bump-wavelet CWT of a series on its default_scales grid, evaluated in
    the Fourier domain, with each cell's SST bin; the map's columns are the
    series' own time grid.

    Per scale a the row is ifft(xhat(w) * sqrt(a) * bump(a w))[:n] at npad,
    the next power of two resolving the narrowest bump: analytic for real
    input, as the bump lies at positive frequencies only. A chirp-z
    (Bluestein) transform sums it over the K support bins k0 + j by one FFT
    convolution of length M >= n + K - 1: with w = exp(2 pi i / npad), row[t] =
    w^(t^2/2 + k0 t) / npad * sum_j y_j w^(j^2/2) w^(-(t-j)^2/2), each phase
    from one root table at an exact integer index. Each row block takes its
    own M, the smallest 2^a 3^b 5^c at or above n + K - 1 for its widest K,
    and holds about 2^15 / M rows.
    Each block's exact spectral time derivative dW, never held whole, gives
    its cells' phase-transform frequency w = Re(-i dW/W) and so the SST bin:
    the nearest center frequency on a log2 axis (int16 up to 2^15 scales), or
    -1 where w is not finite and > 0 or off the grid.
    """
    x, dt = series.values, series.dt
    n = len(x)
    scales = default_scales(n, dt, params, voices_per_octave)
    W = np.empty((len(scales), n), dtype=complex)
    bins = np.empty(W.shape, dtype=np.int16 if len(scales) <= 2 ** 15 else np.int32)
    center = params.mu / scales
    log_f = np.log2(center[::-1])
    dlog = (log_f[-1] - log_f[0]) / (len(log_f) - 1)
    for r, dW in _cwt_rows(x, dt, params, scales, W):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k = np.rint((np.log2(np.real(-1j * dW / W[r])) - log_f[0]) / dlog)
            bins[r] = np.where((k >= 0) & (k < len(scales)), k, -1)
    return Scalogram(scales=scales, freqs=center, times_tbar=series.times_tbar, coeffs=W,
                     sst_bins=bins, metadata={"voices_per_octave": voices_per_octave})


def synchrosqueeze(scalogram: Scalogram, gamma: float = 1e-8) -> SSTMap:
    """Reassign CWT coefficients to instantaneous-frequency bins, writing the
    SST map T over the scalogram's W: this consumes the scalogram.

    Each cell whose |W| exceeds gamma * max|W| and that has an SST bin (see
    cwt_bump) contributes W * a^(-3/2) * da to that bin. A column of T
    depends only on the same column of W and of the bin map, so after max|W|
    the reassignment walks max(1, 2^15 // n_scales) columns at a time: a
    block's cells scatter by flat index, in row-major order, into a zeroed
    block buffer (a dropped cell into one slot past it), so every bin sums
    its cells in row-major order, and the buffer is written over the block
    of W it was read from. No second map is held.
    """
    if not 0 <= gamma < np.inf:
        raise TFAError(f"gamma must be finite and >= 0, got {gamma}")
    scales = scalogram.scales       # cwt_bump's ascend, one built by hand may not
    if not (len(scales) > 1 and (np.diff(scales) > 0).all()):
        raise TFAError("synchrosqueezing needs two or more strictly ascending scales")
    W, bins = scalogram.coeffs, scalogram.sst_bins
    n_rows, n_cols = W.shape
    thr = gamma * max(np.abs(W[s:e]).max() for s, e in _blocks(n_rows, max(1, 2 ** 15 // n_cols)))
    weight = scales ** -1.5 * np.gradient(scales)
    width = max(1, 2 ** 15 // n_rows)
    buf = np.empty(n_rows * min(width, n_cols) + 1, dtype=complex)
    for c in range(0, n_cols, width):
        cols = slice(c, min(c + width, n_cols))
        w = cols.stop - c
        keep = (np.abs(W[:, cols]) > thr) & (bins[:, cols] >= 0)
        mass = W[:, cols] * weight[:, None]
        k = bins[:, cols].astype(np.intp)      # int16 * w would wrap
        k *= w
        k += np.arange(w)
        k[~keep] = mass.size
        Tb = buf[:mass.size + 1]
        Tb[...] = 0
        np.add.at(Tb, k.reshape(-1), mass.reshape(-1))
        W[:, cols] = Tb[:-1].reshape(mass.shape)
    return SSTMap(freqs=scalogram.freqs[::-1], times_tbar=scalogram.times_tbar,
                  coeffs=W, metadata=dict(scalogram.metadata))


def band_amplitude(obj: Scalogram | SSTMap, omega_lo: float, omega_hi: float) -> np.ndarray:
    """Per-time-sample sum of |coefficients| over a frequency band, added a
    row at a time in row order, as a sum over rows adds them, so no copy of
    the band's rows is held."""
    rows = np.flatnonzero((obj.freqs >= omega_lo) & (obj.freqs <= omega_hi))
    if not rows.size:
        raise TFAError(f"no frequency rows inside band [{omega_lo}, {omega_hi}]")
    total = np.abs(obj.coeffs[rows[0]])
    for i in rows[1:]:
        total += np.abs(obj.coeffs[i])
    return total


# ---------------------------------------------------------------------------
# exports

def save_spectrum(path, spec: Spectrum) -> None:
    with open(path, "w") as fh:
        fh.write("# omega_bar,power\n")
        _write_rows(fh, spec.omega_bar, spec.power)


def save_map(bin_path, meta_path, obj: Scalogram | SSTMap) -> list:
    """Modulus matrix at ``bin_path`` (little-endian float64, row-major, one
    row per frequency) and grids at 17 significant digits in the sidecar
    ``meta_path``, together every map cell exactly. Returns the two paths."""
    with open(bin_path, "wb") as fh:        # a row block at a time: no map-sized copy
        for s, e in _blocks(len(obj.coeffs), max(1, 2 ** 15 // obj.coeffs.shape[1])):
            np.abs(obj.coeffs[s:e]).astype("<f8", copy=False).tofile(fh)
    with open(meta_path, "w") as fh:
        fh.write(f"# kind = {obj.kind}\n")
        fh.write("# shape = %d %d\n" % obj.coeffs.shape)
        for k, v in sorted(obj.metadata.items()):
            fh.write(f"# {k} = {v}\n")
        for axis, grid in (("omega_bar rows", obj.freqs), ("tbar columns", obj.times_tbar)):
            fh.write(f"# {axis}:\n" + ",".join(_key_cells(grid)) + "\n")
    return [bin_path, meta_path]
