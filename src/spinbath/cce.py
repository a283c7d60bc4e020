"""Cluster enumeration, per-cluster two-point correlations and the cluster
correlation expansion, plus a whole-bath exact-diagonalization oracle.

The infinite-temperature two-point correlation of a cluster is evaluated from
the eigendecomposition of its effective Hamiltonian:

    C(t) = (1/d) sum_{m,n} |<m| B |n>|^2 exp(i (E_m - E_n) t),

with B the Overhauser operator restricted to the cluster. Times are carried on
the normalized grid tbar = t * A_bar, so phases use eigenvalue gaps in units
of A_bar.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, groupby

import numpy as np

from .hamiltonian import TermMask, bath_operator_diagonal, cluster_hamiltonians
from .lattice import BathRealization, finite_floats, read_text
from .spinops import spin_matrices

#: Hilbert dimension cap of whole-bath ED and of a config's largest clusters
EXACT_DIM_CAP = 4096


class CCEError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterSet:
    """Connected clusters of spinful sites up to ``max_order_M`` under the
    proximity graph of ``enumerate_clusters``."""
    max_order_M: int
    clusters: tuple                      # tuples of site positions' indices, sorted by (size, lex)

    def up_to(self, m: int) -> "ClusterSet":
        """The clusters of size <= m: the set ``enumerate_clusters`` gives at order m."""
        return ClusterSet(min(m, self.max_order_M), tuple(c for c in self.clusters if len(c) <= m))

    @cached_property
    def weights(self) -> dict:
        """``combination_coefficients`` of the set, computed once: they depend
        on the clusters alone, so every axis and mask of a sweep shares them."""
        return combination_coefficients(self)


@dataclass
class CorrelationSeries:
    """Real-valued finite correlation, one value per sample of a uniform
    normalized time grid (see ``_uniform_grid``)."""
    times_tbar: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times_tbar = _uniform_grid(self.times_tbar)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.times_tbar.shape:
            raise CCEError(f"{self.values.size} correlation values on "
                           f"{len(self.times_tbar)} time samples")
        if not np.isfinite(self.values).all():
            raise CCEError("the correlation is not finite")

    @property
    def dt(self) -> float:
        return float(self.times_tbar[1] - self.times_tbar[0])


def _uniform_grid(times_tbar) -> np.ndarray:
    """``times_tbar`` as a float array; CCEError unless it is finite and
    uniform from 0 with a positive step and at least two samples."""
    t = np.asarray(times_tbar, dtype=float)
    if len(t) < 2 or t[0] != 0.0:
        raise CCEError("time grid must start at 0 with at least two samples")
    if not np.isfinite(t).all():
        raise CCEError("time grid must be finite")
    dt = np.diff(t)
    if not dt[0] > 0:
        raise CCEError(f"time grid must increase, got step {dt[0]!r}")
    if np.abs(dt - dt[0]).max() > 1e-9 * dt[0]:
        raise CCEError("time grid must be uniform")
    return t


def time_grid(tbar_max: float, samples: int) -> np.ndarray:
    return np.linspace(0.0, tbar_max, samples)


def _proximity_adjacency(positions: np.ndarray, r_cutoff: float):
    n = len(positions)
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    close = (dist <= r_cutoff) & ~np.eye(n, dtype=bool)
    return [set(np.nonzero(close[i])[0].tolist()) for i in range(n)]


def enumerate_clusters(realization: BathRealization, r_cutoff: float,
                       max_order: int) -> ClusterSet:
    """All connected subsets of spinful sites of size <= max_order under the
    r_cutoff proximity graph, size by size: every connected k+1 subset is a
    connected k subset plus one of its neighbours, and each size is sorted."""
    if max_order < 1:
        raise CCEError("max_order must be >= 1")
    n = realization.n_spins
    M = min(max_order, n)
    adj = _proximity_adjacency(realization.positions, r_cutoff)
    level = [(v,) for v in range(n)]
    clusters = list(level)
    for _ in range(M - 1):
        level = sorted({tuple(sorted(c + (u,))) for c in level
                        for u in set().union(*(adj[v] for v in c)).difference(c)})
        clusters += level
    return ClusterSet(max_order_M=M, clusters=tuple(clusters))


def cluster_correlation(cluster, realization: BathRealization,
                        c_hf: float = 0.5, mask: TermMask = TermMask.full(), *,
                        times_tbar: np.ndarray) -> np.ndarray:
    """Complex C_zeta(tbar) of one cluster by exact diagonalization and a
    direct exp of every phase: the dense oracle behind
    ``exact_bath_correlation``, kept apart from the batched trace path."""
    cluster = tuple(cluster)
    E, V = np.linalg.eigh(cluster_hamiltonians([cluster], realization, c_hf, mask)[0])
    b = bath_operator_diagonal(cluster, realization)
    Bp = (V.conj().T * b) @ V
    W = (np.abs(Bp) ** 2) / len(E)
    P = np.exp(1j * np.outer(E / realization.A_bar, np.asarray(times_tbar, float)))
    return np.einsum("mt,mt->t", P, W @ P.conj())


def combination_coefficients(cset: ClusterSet) -> dict:
    """Integer weight a(k) of each cluster's raw correlation in the CCE total.

    Summing Ctilde_c = C_c - sum_{s < c present} Ctilde_s over the set gives
    the superset identity a(k) = 1 - sum_{s > k present} a(s), solved exactly
    in one pass from the largest clusters down. Each size is an int array of
    rows in lex order, keyed in radix n (the site count); a larger size's
    column subsets are looked up among its keys by ``searchsorted`` and add
    their a by ``np.add.at``. Zero weights are left out; the rest come in set
    order.
    """
    sizes = [np.array(list(g), dtype=np.int64) for _, g in groupby(cset.clusters, len)]
    n = 1 + max((int(c.max()) for c in sizes), default=0)
    done = []                                   # (clusters, a) of each larger size
    for small in reversed(sizes):
        radix = _radix(n, small.shape[1])
        keys, above = small @ radix, np.zeros(len(small), dtype=np.int64)
        for big, a in done:
            for cols in combinations(range(big.shape[1]), small.shape[1]):
                q = big[:, cols] @ radix
                at = np.searchsorted(keys, q).clip(max=len(keys) - 1)
                hit = keys[at] == q
                np.add.at(above, at[hit], a[hit])
        done.append((small, 1 - above))
    weights = [x for _, a in reversed(done) for x in a.tolist()]
    return {c: x for c, x in zip(cset.clusters, weights) if x}


def _radix(n: int, k: int) -> np.ndarray:
    """Place values n**(k-1), ..., 1 of a k-digit radix-n key: int64 while
    n**k fits, else Python ints, so that no key wraps."""
    return np.array([n ** p for p in range(k - 1, -1, -1)],
                    dtype=np.int64 if n ** k <= 2 ** 63 else object)


def _finalize_series(total: np.ndarray, times_tbar, realization,
                     **metadata) -> CorrelationSeries:
    md = {"A_bar": realization.A_bar, "max_imag": float(np.abs(total.imag).max()),
          "n_spins": realization.n_spins, **metadata}
    return CorrelationSeries(times_tbar=times_tbar, values=total.real, metadata=md)


def exact_bath_correlation(realization: BathRealization, c_hf: float = 0.5,
                           mask: TermMask = TermMask.full(), *,
                           times_tbar: np.ndarray) -> CorrelationSeries:
    """Whole-bath evaluation of the trace formula; the reference the CCE
    recursion is tested against. Refuses Hilbert dimensions above 4096."""
    n = realization.n_spins
    d_local = int(round(2 * realization.species.spin_I)) + 1
    if d_local ** n > EXACT_DIM_CAP:
        raise CCEError(f"exact evaluation dimension {d_local}^{n} exceeds cap {EXACT_DIM_CAP}")
    cluster = tuple(range(n))
    c = cluster_correlation(cluster, realization, c_hf, mask, times_tbar=times_tbar)
    return _finalize_series(c, times_tbar, realization, order=n, mode="exact")


# ---------------------------------------------------------------------------
# batched CCE driver

def compute_correlation(realization: BathRealization, cset: ClusterSet,
                        c_hf: float = 0.5, mask: TermMask = TermMask.full(), *,
                        times_tbar: np.ndarray) -> CorrelationSeries:
    """Total CCE correlation, vectorized over clusters of equal size.

    Equal-size clusters share the structural operators of their pair terms, so
    Hamiltonian assembly, eigensolves and the trace formula all run stacked.
    Results are accumulated in deterministic (size, lexicographic) order. A
    grid that is not uniform from 0 is refused before any of that work.
    """
    times_tbar = _uniform_grid(times_tbar)
    if realization.n_spins == 0:
        raise CCEError("no spinful sites in realization")
    coeffs = cset.weights                           # in set order: one run per size
    total = np.zeros(len(times_tbar), dtype=complex)
    # a value past the float range (|B'|^2, E / A_bar) leaves inf or NaN in
    # the total, which CorrelationSeries refuses: no warning is printed first
    with np.errstate(over="ignore", invalid="ignore"):
        for _, group in groupby(coeffs.items(), key=lambda kv: len(kv[0])):
            clusters, weights = zip(*group)
            total += _group_correlation(np.array(clusters, dtype=int),
                                        np.array(weights, dtype=float),
                                        realization, c_hf, mask, times_tbar)
    return _finalize_series(total, times_tbar, realization, order=cset.max_order_M,
                            mode="cce", n_clusters=len(cset.clusters))


def _group_correlation(clusters: np.ndarray, weights: np.ndarray,
                       realization: BathRealization, c_hf: float,
                       mask: TermMask, times_tbar: np.ndarray) -> np.ndarray:
    """Weighted sum of correlations over same-size clusters.

    Clusters go in chunks of ~2**22 / (d * nt), which fix the K = nc * d rows
    of each per-sample trace sum and so the bits of the result. Of a chunk
    only E and the real W = a |B'|^2 / d (a the cluster's CCE weight) are
    held whole, in buffers reused by every chunk: the eigen stage runs on
    sub-blocks of ~2**16 / d**2 clusters, and P, Q = W @ P (a real GEMM on
    P's float view) and the trace sum_k conj(Q) P on tiles of w samples.
    w is the widest multiple of 4 from 4 to 16 whose K rows of w + 1
    complex samples take at most 1 MiB, so P and Q each fit half of a 2 MiB
    L2 while a tile's dots and multiplies walk them (w = 4 at K = 16 384,
    16 up to K = 3855).
    These rules keep the bits of a chunk-wide P, Q = W @ conj(P) and
    einsum("cmt,cmt->t") under the OpenBLAS SkylakeX, Haswell and Sandybridge
    kernels, except in the last samples of a grid of two or more tiles whose
    nt is not a multiple of 4, where SkylakeX dgemm edge kernels may round
    otherwise:

    - the phase table is built column by column on strided columns (see
      ``_phase_table``): nt % w joins the last tile, and a later tile
      continues from the previous tile's last column, carried into its
      column 0;
    - w stays a multiple of 4, so the GEMM's N = 2w is a multiple of 8: at
      w = 14 it rounds otherwise;
    - the per-sample dot is ``vecdot(Q, P)`` with both operands at a non-unit
      stride, which selects OpenBLAS's sequential zdotc loop: its
      accumulators are the exact negations of zdotu's on conj(Q), as the
      einsum summed them;
    - buffer rows have odd length, so the dot's row-by-row walk does not
      map every step onto one cache set;
    - a sub-block holds one cluster only if its chunk does: a one-row
      ``A[clusters] @ mz.T`` in ``bath_operator_diagonal`` rounds otherwise;
    - B' = (conj(V) b)^T V is one batched matmul, with the bits of
      einsum("ckm,ck,ckn->cmn", optimize=True).
    """
    dim = spin_matrices(realization.species.spin_I).dim ** clusters.shape[1]
    nt, dt = len(times_tbar), times_tbar[1] - times_tbar[0]
    out = np.zeros(nt, dtype=complex)

    chunk = max(1, int(2 ** 22 / (dim * nt)))
    rows = min(chunk, len(clusters)) * dim
    tiles = _blocks(nt, min(16, max(4, (2 ** 16 // rows - 1) // 4 * 4)))
    shape = (min(chunk, len(clusters)), dim, (nt - tiles[-1][0] + 1) | 1)
    P_buf, Q_buf = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    E_buf, W_buf = np.empty(shape[:2]), np.empty(shape[:2] + (dim,))
    for lo in range(0, len(clusters), chunk):
        cl, w = clusters[lo:lo + chunk], weights[lo:lo + chunk]
        nc = len(cl)
        E, W = E_buf[:nc], W_buf[:nc]
        for s, e in _blocks(nc, max(2, 2 ** 16 // dim ** 2)):
            E[s:e], V = np.linalg.eigh(cluster_hamiltonians(cl[s:e], realization, c_hf, mask))
            b = bath_operator_diagonal(cl[s:e], realization)   # (e - s, dim), diagonal of B
            Bp = (V.conj() * b[:, :, None]).mT @ V
            W[s:e] = (np.abs(Bp) ** 2) * (w[s:e] / dim)[:, None, None]
        f = E / realization.A_bar
        step, first = np.exp(1j * f * (dt + 0j)), np.exp(1j * f * times_tbar[0])
        for t0, t1 in tiles:
            o = int(t0 > 0)            # column 0 of a later tile holds the carry
            P = _phase_table(step, first, P_buf[:nc, :, :o + t1 - t0])[..., o:]
            first = P[..., -1]
            Q = Q_buf[:nc, :, :t1 - t0]
            np.matmul(W, P.view(float), out=Q.view(float))
            out[t0:t1] += np.vecdot(Q.reshape(nc * dim, -1), P.reshape(nc * dim, -1), axis=0)
    return out


def _blocks(n: int, size: int) -> list:
    """(start, stop) of blocks of ``size`` over range(n), the remainder in the last."""
    edges = [*range(0, max(n - size + 1, 1), size), n]
    return list(zip(edges, edges[1:]))


def _phase_table(step: np.ndarray, first: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Running product first * step**k, k = 0, 1, ..., along the last axis of
    ``out``. With step = exp(1j * f * dt) and first = exp(1j * f * t0) that
    is exp(1j * f * t) on the uniform grid from t0 (the only grid
    ``compute_correlation`` accepts) at one complex multiply per element
    instead of one exp; the phase drift over the grid stays near machine
    precision. ``first`` may be a column of ``out``.

    One multiply per column: on strided columns (``out``'s last axis is its
    fastest) numpy takes its scalar complex loop, a_r b_r - a_i b_i without
    FMA, which gives the bits of ``np.cumprod``'s accumulate loop for every
    row length. A contiguous multiply takes the SIMD loop and rounds
    otherwise."""
    out[..., 0] = first
    for k in range(1, out.shape[-1]):
        np.multiply(out[..., k - 1], step, out=out[..., k])
    return out


# ---------------------------------------------------------------------------
# series I/O

def save_series(path, series: CorrelationSeries) -> None:
    """Two-column text (tbar, value) at 17 significant digits with a metadata
    header block."""
    with open(path, "w") as fh:
        for k in sorted(series.metadata):
            fh.write(f"# {k} = {series.metadata[k]}\n")
        _write_rows(fh, series.times_tbar, series.values)


def _write_rows(fh, keys, values) -> None:
    """Write ``key,value`` lines at 17 significant digits with one ``%``
    template and one write. The key column comes from ``_key_cells``, so a
    grid that several files print is formatted once."""
    cells = _key_cells(keys)
    template = ",%.16e\n".join(cells) + ",%.16e\n" if cells else ""
    fh.write(template % tuple(values.tolist()))


def _key_cells(keys) -> tuple:
    """Each of ``keys`` at 17 significant digits, memoized on the float64
    bytes of the grid: a grid that differs in one bit, the sign of a zero
    included, is formatted anew."""
    return _format_grid(np.asarray(keys, dtype=float).tobytes())


@lru_cache(maxsize=8)
def _format_grid(grid: bytes) -> tuple:
    return tuple(f"{k:.16e}" for k in np.frombuffer(grid).tolist())


def load_series(path) -> CorrelationSeries:
    """Read a file written by ``save_series``. A malformed file raises
    CCEError naming the file and, for a bad line, its number."""
    meta, times, vals = {}, [], []
    for lineno, ln in enumerate(read_text(path, "series", CCEError).split("\n"), 1):
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            k, _, v = ln[1:].partition("=")
            meta[k.strip()] = _parse_meta(v.strip())
            continue
        try:
            a, b = finite_floats(ln.split(","), 2)
        except ValueError as exc:
            raise CCEError(f"{path}:{lineno}: {exc}") from None
        times.append(a)
        vals.append(b)
    try:
        return CorrelationSeries(times_tbar=np.array(times), values=np.array(vals),
                                 metadata=meta)
    except CCEError as exc:
        raise CCEError(f"{path}: {exc}") from None


def _parse_meta(v: str):
    if v in ("True", "False"):      # as save_series prints a boolean
        return v == "True"
    for cast in (int, float):
        try:
            return cast(v)
        except ValueError:
            pass
    return v
