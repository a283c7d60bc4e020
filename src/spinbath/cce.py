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
from functools import cached_property
from itertools import combinations

import numpy as np

from .hamiltonian import TermMask, bath_operator_diagonal, cluster_dim, cluster_hamiltonians
from .lattice import BathRealization, finite_floats, key_cells, read_text, write_rows

#: Hilbert dimension cap of whole-bath ED and of a config's largest clusters
EXACT_DIM_CAP = 4096


class CCEError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ClusterSet:
    """Connected clusters of spinful sites up to ``max_order_M`` under the
    proximity graph of ``enumerate_clusters``."""
    max_order_M: int
    levels: tuple       # per size k = 1 .. max_order_M, an (n_k, k) int array of rows in lex order

    def up_to(self, m: int) -> "ClusterSet":
        """The clusters of size <= m: the set ``enumerate_clusters`` gives at
        order m, whose levels are this set's first ones."""
        return ClusterSet(min(m, self.max_order_M), self.levels[:m])

    @property
    def n_clusters(self) -> int:
        return sum(map(len, self.levels))

    @property
    def clusters(self) -> "_Clusters":
        """Every cluster as a tuple, in (size, lex) order: a view that builds
        nothing until it is iterated. ``perfbench/spans.py`` counts it; the
        pipeline reads ``levels``."""
        return _Clusters(self.levels)

    @cached_property
    def weights(self) -> "Weights":
        """``combination_coefficients`` of the set, computed once: they depend
        on the clusters alone, so every axis and mask of a sweep shares them."""
        return combination_coefficients(self)


@dataclass(frozen=True, eq=False)
class _Clusters:
    levels: tuple

    def __len__(self):
        return sum(map(len, self.levels))

    def __iter__(self):
        return (tuple(c) for rows in self.levels for c in rows.tolist())


@dataclass(frozen=True, eq=False)
class Weights:
    """Integer CCE weights of a ``ClusterSet``: ``per_size[k - 1]`` holds the
    weight of each row of ``levels[k - 1]``, zeros included."""
    levels: tuple
    per_size: tuple

    def nonzero(self):
        """Per size, its rows of nonzero weight and their weights, in set
        order: the level itself where no weight is zero, as at the top one."""
        for rows, a in zip(self.levels, self.per_size):
            keep = a != 0
            yield (rows, a) if keep.all() else (rows[keep], a[keep])

    # ``perfbench/spans.py`` reads the weights as the clusters of nonzero
    # weight: their count, and each as a tuple, built only when iterated

    def __len__(self):
        return sum(map(np.count_nonzero, self.per_size))

    def __iter__(self):
        return (tuple(c) for rows, _ in self.nonzero() for c in rows.tolist())


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


def grid_step(tbar_max: float, samples: int) -> float:
    """The step of ``time_grid(tbar_max, samples)`` without making the grid:
    np.linspace's own step, tbar_max / (samples - 1), so it has the bits of
    ``times[1] - times[0]``."""
    return tbar_max / (samples - 1)


def _proximity_adjacency(positions: np.ndarray, r_cutoff: float):
    """The graph of sites within ``r_cutoff`` of each other in CSR form
    (indptr, indices): the neighbours of site i are
    indices[indptr[i]:indptr[i + 1]], ascending. The distance matrix is taken
    a block of rows at a time, so no (n, n) array is held."""
    n = len(positions)
    indptr, indices = np.zeros(n + 1, dtype=np.intp), []
    for s, e in _blocks(n, max(1, 2 ** 18 // max(n, 1))):
        diff = positions[s:e, None, :] - positions[None, :, :]
        close = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)) <= r_cutoff
        close[np.arange(e - s), np.arange(s, e)] = False
        indptr[s + 1:e + 1] = np.count_nonzero(close, axis=1)
        indices.append(np.nonzero(close)[1])
    return np.cumsum(indptr, out=indptr), np.concatenate(indices)


def enumerate_clusters(realization: BathRealization, r_cutoff: float,
                       max_order: int) -> ClusterSet:
    """All connected subsets of spinful sites of size <= max_order under the
    r_cutoff proximity graph, size by size: every connected k+1 subset is a
    connected k subset plus one of its neighbours (see ``_extend``)."""
    if max_order < 1:
        raise CCEError("max_order must be >= 1")
    n = realization.n_spins
    M = min(max_order, n)
    graph = _proximity_adjacency(realization.positions, r_cutoff)
    levels = [np.arange(n)[:, None]]
    while len(levels) < M:
        levels.append(_extend(levels[-1], *graph))
    return ClusterSet(max_order_M=M, levels=tuple(levels[:M]))


def _extend(level: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The connected (k+1)-site sets from the (m, k) rows of every connected
    k-site set, in lex order: each row plus each neighbour of its members
    that it does not hold, sorted, as a radix-n key (n = len(indptr) - 1).
    The keys are made and deduplicated ~2**14 candidates at a time, then
    deduplicated together and decoded. An empty level stays a (0, k + 1)
    array."""
    m, k = level.shape
    n = len(indptr) - 1
    radix = _radix(n, k + 1)
    deg = indptr[level + 1] - indptr[level]           # neighbours of each member
    step = max(1, m * 2 ** 14 // max(int(deg.sum()), 1))
    keys = _sorted_unique(np.concatenate([
        _sorted_unique(_grown(level[s:e], deg[s:e], indptr, indices) @ radix)
        for s, e in _blocks(m, step)]))
    rows = keys[:, None] // radix
    rows %= n
    return rows.astype(np.intp, copy=False)


def _grown(rows: np.ndarray, deg: np.ndarray, indptr: np.ndarray,
           indices: np.ndarray) -> np.ndarray:
    """``rows`` (m, k), each extended by each neighbour of its members that
    it does not hold (``deg`` of them per member), each new row sorted."""
    members, deg = rows.ravel(), deg.ravel()
    # every member's neighbours in one run: its start in ``indices``, minus
    # its start in the run, plus the place in the run
    at = np.repeat(indptr[members] - (np.cumsum(deg) - deg), deg)
    at += np.arange(len(at))
    new = indices[at]
    grown = np.repeat(rows, deg.reshape(rows.shape).sum(axis=1), axis=0)
    fresh = (grown != new[:, None]).all(axis=1)
    grown = np.concatenate([grown[fresh], new[fresh, None]], axis=1)
    grown.sort(axis=1)
    return grown


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted in place, each kept where it differs from the one
    before (``np.unique`` imports ``numpy.ma``, which then stays loaded)."""
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def cluster_correlation(cluster, realization: BathRealization,
                        c_hf: float = 0.5, mask: TermMask = TermMask(), *,
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


def combination_coefficients(cset: ClusterSet) -> Weights:
    """Integer weight a(k) of each cluster's raw correlation in the CCE total.

    Summing Ctilde_c = C_c - sum_{s < c present} Ctilde_s over the set gives
    the superset identity a(k) = 1 - sum_{s > k present} a(s), solved exactly
    in one pass from the largest clusters down. Each level's rows, in lex
    order, are keyed in radix n (one more than the largest site index); a
    larger level's column subsets are looked up among its keys by
    ``searchsorted`` and add their a by ``np.add.at``. Zero weights stay in
    place (see ``Weights.nonzero``).
    """
    n = 1 + max((int(rows.max()) for rows in cset.levels if len(rows)), default=0)
    done = []                                   # (rows, a) of each larger level
    for small in reversed(cset.levels):
        radix = _radix(n, small.shape[1])
        keys, above = small @ radix, np.zeros(len(small), dtype=np.int64)
        for big, a in done:
            for cols in combinations(range(big.shape[1]), small.shape[1]):
                q = big[:, cols] @ radix
                at = np.searchsorted(keys, q).clip(max=len(keys) - 1)
                hit = keys[at] == q
                np.add.at(above, at[hit], a[hit])
        done.append((small, 1 - above))
    return Weights(cset.levels, tuple(a for _, a in reversed(done)))


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
                           mask: TermMask = TermMask(), *,
                           times_tbar: np.ndarray) -> CorrelationSeries:
    """Whole-bath evaluation of the trace formula; the reference the CCE
    recursion is tested against. Refuses Hilbert dimensions above 4096."""
    n = realization.n_spins
    if cluster_dim(realization.species.spin_I, n) > EXACT_DIM_CAP:
        raise CCEError(f"exact evaluation of {n} spins exceeds dimension cap {EXACT_DIM_CAP}")
    cluster = tuple(range(n))
    c = cluster_correlation(cluster, realization, c_hf, mask, times_tbar=times_tbar)
    return _finalize_series(c, times_tbar, realization, order=n, mode="exact")


# ---------------------------------------------------------------------------
# batched CCE driver

def compute_correlation(realization: BathRealization, cset: ClusterSet,
                        c_hf: float = 0.5, mask: TermMask = TermMask(), *,
                        times_tbar: np.ndarray) -> CorrelationSeries:
    """Total CCE correlation: the eigen stage's stream of line blocks
    (``_line_blocks``) over the clusters of nonzero weight, summed by the
    trace formula (``_trace``). Results are accumulated in deterministic
    (size, lexicographic) order. A grid that is not uniform from 0 is refused
    before any of that work.
    """
    times_tbar = _uniform_grid(times_tbar)
    if realization.n_spins == 0:
        raise CCEError("no spinful sites in realization")
    levels, weights = zip(*cset.weights.nonzero())
    # a value past the float range (|B'|^2, E / A_bar) leaves inf or NaN in
    # the total, which CorrelationSeries refuses: no warning is printed first
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = _line_blocks(levels, realization, c_hf, mask, len(times_tbar))
        total = _trace(blocks, np.concatenate(weights, dtype=float), realization.A_bar,
                       times_tbar)
    return _finalize_series(total, times_tbar, realization, order=cset.max_order_M,
                            mode="cce", n_clusters=cset.n_clusters)


def _line_blocks(levels, realization: BathRealization, c_hf: float,
                 mask: TermMask, nt: int):
    """The eigen stage as a stream: per chunk of each of ``levels`` (one
    (n_k, k) array of cluster index rows per size, in the order given), yield
    the chunk's rows (nc, k), its energies E (nc, d) and its unweighted line
    weights |B'|^2 (nc, d, d), with B' = V^dagger B V the bath operator in the
    eigenbasis. E and |B'|^2 are views of buffers reused by every chunk of a
    size and overwritten by the next chunk, so a consumer may scale them in
    place but must not keep them.

    A chunk holds ~2**22 / (d * nt) clusters: that fixes the K = nc * d rows
    of each per-sample trace sum in ``_trace`` and so the bits of the
    correlation. The eigen stage runs on sub-blocks of ~2**15 / d**2
    clusters (512 KiB per complex stack), and a sub-block holds one cluster
    only if its chunk does: a one-row ``A[clusters] @ mz.T`` in
    ``bath_operator_diagonal`` rounds otherwise. Nothing of a sub-block is
    held when a chunk is yielded. A consumer that holds nothing of the
    current chunk but E and |B'|^2 when it asks for the next block keeps the
    stage's peak at E + |B'|^2 + max(its own chunk buffers, one sub-block)."""
    for rows in levels:
        yield from _size_line_blocks(rows, realization, c_hf, mask, nt)


def _size_line_blocks(clusters: np.ndarray, realization: BathRealization,
                      c_hf: float, mask: TermMask, nt: int):
    """``_line_blocks`` of one cluster size, whose buffers go with it."""
    dim = cluster_dim(realization.species.spin_I, clusters.shape[1])
    chunk = max(1, int(2 ** 22 / (dim * nt)))
    nmax = min(chunk, len(clusters))
    E_buf, B2_buf = np.empty((nmax, dim)), np.empty((nmax, dim, dim))
    for lo in range(0, len(clusters), chunk):
        rows = clusters[lo:lo + chunk]
        E, B2 = E_buf[:len(rows)], B2_buf[:len(rows)]
        for s, e in _blocks(len(rows), max(2, 2 ** 15 // dim ** 2)):
            _eigen_lines(rows[s:e], realization, c_hf, mask, E[s:e], B2[s:e])
        yield rows, E, B2


def _eigen_lines(rows: np.ndarray, realization: BathRealization, c_hf: float,
                 mask: TermMask, E: np.ndarray, B2: np.ndarray) -> None:
    """Eigensolve one sub-block of clusters into E and |B'|^2 into B2.
    B' = (conj(V) b)^T V is one batched matmul, with the bits of
    einsum("ckm,ck,ckn->cmn", optimize=True); its modulus is squared in B2,
    with the bits of ``np.abs(B') ** 2``."""
    E[...], V = np.linalg.eigh(cluster_hamiltonians(rows, realization, c_hf, mask))
    b = bath_operator_diagonal(rows, realization)       # (nc, dim), diagonal of B
    Vb = np.conjugate(V)                                # conj(V) b in one buffer
    Vb *= b[:, :, None]
    np.abs(Vb.mT @ V, out=B2)
    np.square(B2, out=B2)


def _trace(blocks, weights: np.ndarray, A_bar: float, times_tbar: np.ndarray) -> np.ndarray:
    """Trace consumer of a ``_line_blocks`` stream: sum over its chunks of
    (1/d) sum_{m,n} a |B'_mn|^2 exp(i (E_m - E_n) t), with ``weights`` the
    CCE weight a of each of the stream's clusters, in stream order.

    Each chunk's |B'|^2 is scaled in place to W = |B'|^2 * (a / d), one
    multiply per element. P and Q = W @ P (a real GEMM on P's float view)
    and the trace sum_k conj(Q) P then run on tiles of w samples. w is the
    widest multiple of 4 from 4 to 16 whose K rows (the first chunk of a
    size, its largest) of w + 1 complex samples take at most 1 MiB, so P
    and Q each fit half of a 2 MiB L2 while a tile's dots and multiplies
    walk them (w = 4 at K = 16 384, 16 up to K = 3855). P and Q are made
    per chunk, with the tiles and the odd row length that the size's first
    chunk sets, and they, E / A_bar (divided into E in place) and W go
    before the stream is asked for the next block: the eigen stage's
    sub-block then never overlaps the tile buffers. The chunks' traces add
    up into their size's sum; the sizes' sums then add up in stream order.
    These rules keep the bits of a chunk-wide P, Q = W @ conj(P) and
    einsum("cmt,cmt->t") under the OpenBLAS SkylakeX, Haswell and
    Sandybridge kernels, except in the last samples of a grid of two or more
    tiles whose nt is not a multiple of 4, where SkylakeX dgemm edge kernels
    may round otherwise:

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
      map every step onto one cache set.
    """
    nt = len(times_tbar)
    parts, lo = {}, 0                   # d -> the sum over that size's chunks
    for _, E, B2 in blocks:
        nc, dim = B2.shape[:2]
        if dim not in parts:            # the first chunk of a size, its largest
            parts[dim] = np.zeros(nt, dtype=complex)
            tiles = _blocks(nt, min(16, max(4, (2 ** 16 // (nc * dim) - 1) // 4 * 4)))
            width = (nt - tiles[-1][0] + 1) | 1
        W = np.multiply(B2, (weights[lo:lo + nc] / dim)[:, None, None], out=B2)
        lo += nc
        P_buf, Q_buf = (np.empty((nc, dim, width), dtype=complex) for _ in range(2))
        _trace_chunk(parts[dim], np.divide(E, A_bar, out=E), W, P_buf, Q_buf, tiles,
                     times_tbar)
        # nothing of this chunk is held while the stream solves the next one
        del E, B2, W, P_buf, Q_buf
    # the sizes' sums add up in stream order, from zero
    return sum(parts.values(), np.zeros(nt, dtype=complex))


def _trace_chunk(out: np.ndarray, f: np.ndarray, W: np.ndarray, P_buf: np.ndarray,
                 Q_buf: np.ndarray, tiles: list, times_tbar: np.ndarray) -> None:
    """Add one chunk's trace, of frequencies ``f`` = E / A_bar and weights W,
    into ``out``, tile by tile (see ``_trace``). The phase recursion is
    seeded in column 0 of ``P_buf`` and its step is built in place, so
    nothing but the chunk's own buffers outlives the call: ``_trace`` then
    holds only the stream's E and |B'|^2 when it asks for the next block."""
    nc, dim = f.shape
    step = np.multiply(1j, f)
    step *= (times_tbar[1] - times_tbar[0]) + 0j
    np.exp(step, out=step)
    first = np.multiply(1j, f, out=P_buf[..., 0])      # the seed, in P's column 0
    first *= times_tbar[0]
    np.exp(first, out=first)
    for t0, t1 in tiles:
        o = int(t0 > 0)            # column 0 of a later tile holds the carry
        P = _phase_table(step, first, P_buf[:, :, :o + t1 - t0])[..., o:]
        first = P[..., -1]
        Q = Q_buf[:, :, :t1 - t0]
        np.matmul(W, P.view(float), out=Q.view(float))
        out[t0:t1] += np.vecdot(Q.reshape(nc * dim, -1), P.reshape(nc * dim, -1), axis=0)


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
        write_rows(fh, key_cells(series.times_tbar), series.values)


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
