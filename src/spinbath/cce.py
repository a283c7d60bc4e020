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

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import TermMask, bath_operator_diagonal, cluster_hamiltonians
from .lattice import BathRealization
from .spinops import spin_matrices

#: whole-bath exact diagonalization refuses Hilbert spaces above this
EXACT_DIM_CAP = 4096


class CCEError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterSet:
    """Connected clusters of spinful sites up to ``max_order_M`` under the
    proximity graph of ``enumerate_clusters``."""
    max_order_M: int
    clusters: tuple                      # tuples of site positions' indices, sorted by (size, lex)
    subcluster_links: dict               # cluster -> tuple of proper subclusters in the set

    def by_size(self, n: int):
        return [c for c in self.clusters if len(c) == n]


@dataclass
class CorrelationSeries:
    """Real-valued correlation on a uniform normalized time grid."""
    times_tbar: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times_tbar = _uniform_grid(self.times_tbar)
        self.values = np.asarray(self.values, dtype=float)

    @property
    def dt(self) -> float:
        return float(self.times_tbar[1] - self.times_tbar[0])


def _uniform_grid(times_tbar) -> np.ndarray:
    """``times_tbar`` as a float array; CCEError unless it is uniform from 0
    with a positive step and at least two samples."""
    t = np.asarray(times_tbar, dtype=float)
    if len(t) < 2 or t[0] != 0.0:
        raise CCEError("time grid must start at 0 with at least two samples")
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
    r_cutoff proximity graph (ESU-style enumeration, each subset once)."""
    if max_order < 1:
        raise CCEError("max_order must be >= 1")
    n = realization.n_spins
    M = min(max_order, n)
    adj = _proximity_adjacency(realization.positions, r_cutoff)
    found = []

    def extend(sub: list, ext: set, nbhd: set, v: int):
        found.append(tuple(sub))
        if len(sub) == M:
            return
        ext = set(ext)
        while ext:
            w = ext.pop()
            new = {u for u in adj[w] if u > v and u not in nbhd and u not in sub}
            extend(sub + [w], ext | new, nbhd | adj[w], v)

    for v in range(n):
        extend([v], {u for u in adj[v] if u > v}, set(adj[v]) | {v}, v)

    clusters = tuple(sorted((tuple(sorted(c)) for c in found), key=lambda c: (len(c), c)))
    present = set(clusters)
    links = {}
    for c in clusters:
        subs = []
        if len(c) > 1:
            for bits in range(1, (1 << len(c)) - 1):
                s = tuple(c[i] for i in range(len(c)) if bits >> i & 1)
                if s in present:
                    subs.append(s)
        links[c] = tuple(sorted(subs, key=lambda s: (len(s), s)))
    return ClusterSet(max_order_M=M, clusters=clusters, subcluster_links=links)


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
    """Integer weight of each cluster's raw correlation in the CCE total.

    Running the subtraction recursion symbolically (clusters in increasing
    size) turns C(t) = sum_zeta Ctilde_zeta into a single weighted sum over
    raw cluster correlations; zero-weight clusters can be skipped entirely.
    """
    vecs = {}
    total = defaultdict(int)
    for c in cset.clusters:
        vec = defaultdict(int)
        vec[c] = 1
        for s in cset.subcluster_links[c]:
            if s not in vecs:
                raise CCEError(f"cluster set integrity violation: missing {s}")
            for k, v in vecs[s].items():
                vec[k] -= v
        vecs[c] = dict(vec)
        for k, v in vec.items():
            total[k] += v
    return {k: v for k, v in total.items() if v != 0}


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
    coeffs = combination_coefficients(cset)
    groups = defaultdict(list)
    for c, a in sorted(coeffs.items(), key=lambda kv: (len(kv[0]), kv[0])):
        groups[len(c)].append((c, a))

    total = np.zeros(len(times_tbar), dtype=complex)
    for size in sorted(groups):
        clusters = np.array([c for c, _ in groups[size]], dtype=int)
        weights = np.array([a for _, a in groups[size]], dtype=float)
        total += _group_correlation(clusters, weights, realization, c_hf, mask,
                                    times_tbar)
    return _finalize_series(total, times_tbar, realization, order=cset.max_order_M,
                            mode="cce", n_clusters=len(cset.clusters))


def _group_correlation(clusters: np.ndarray, weights: np.ndarray,
                       realization: BathRealization, c_hf: float,
                       mask: TermMask, times_tbar: np.ndarray) -> np.ndarray:
    """Weighted sum of correlations over same-size clusters, chunked to bound
    memory (phase arrays are (chunk, d^size, n_times) complex).

    The phase table, its conjugate and W @ conj(P) live in three buffers
    allocated once per group and reused by every chunk. Their rows are padded
    to an odd length: the trace sum walks each buffer with a stride of one
    row, and a power-of-two row (256 samples = 4 KiB) would map every step
    onto the same cache set. The padding changes no arithmetic.
    """
    dim = spin_matrices(realization.species.spin_I).dim ** clusters.shape[1]
    nt = len(times_tbar)
    out = np.zeros(nt, dtype=complex)

    chunk = max(1, int(2 ** 22 / (dim * nt)))
    shape = (min(chunk, len(clusters)), dim, nt | 1)
    P_buf, Pc_buf, Q_buf = (np.empty(shape, dtype=complex) for _ in range(3))
    for lo in range(0, len(clusters), chunk):
        cl = clusters[lo:lo + chunk]
        w = weights[lo:lo + chunk]
        nc = len(cl)
        E, V = np.linalg.eigh(cluster_hamiltonians(cl, realization, c_hf, mask))
        b = bath_operator_diagonal(cl, realization)   # (nc, dim), diagonal of B
        Bp = np.einsum("ckm,ck,ckn->cmn", V.conj(), b, V, optimize=True)
        W = (np.abs(Bp) ** 2) * (w / dim)[:, None, None]
        P = _phase_table(E / realization.A_bar, times_tbar, out=P_buf[:nc, :, :nt])
        Pc = np.conjugate(P, out=Pc_buf[:nc, :, :nt])
        Q = np.matmul(W, Pc, out=Q_buf[:nc, :, :nt])
        out += np.einsum("cmt,cmt->t", P, Q, optimize=True)
    return out


def _phase_table(freqs: np.ndarray, times: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """exp(1j * freqs[..., None] * times) on a uniform grid (the only grid
    ``compute_correlation`` accepts) via a running product (one complex
    multiply per element instead of one exp); the phase drift over the grid
    stays near machine precision. Written into ``out`` (shape freqs.shape +
    (len(times),), any row strides) when given."""
    if out is None:
        out = np.empty(freqs.shape + (len(times),), dtype=complex)
    dt = times[1] - times[0]
    out[...] = np.exp(1j * freqs * (dt + 0j))[..., None]
    out[..., 0] = np.exp(1j * freqs * times[0])
    return np.cumprod(out, axis=-1, out=out)


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
    template and one write."""
    template = "".join(f"{k:.16e},%.16e\n" for k in keys)
    fh.write(template % tuple(values.tolist()))


def load_series(path) -> CorrelationSeries:
    """Read a file written by ``save_series``. A malformed file raises
    CCEError naming the file and, for a bad line, its number."""
    meta = {}
    times, vals = [], []
    try:
        with open(path) as fh:
            for lineno, ln in enumerate(fh, 1):
                ln = ln.strip()
                if not ln:
                    continue
                if ln.startswith("#"):
                    k, _, v = ln[1:].partition("=")
                    meta[k.strip()] = _parse_meta(v.strip())
                    continue
                try:
                    a, b = (float(x) for x in ln.split(","))
                except ValueError:
                    raise CCEError(f"{path}:{lineno}: expected 'tbar,value', got {ln!r}") from None
                if not (np.isfinite(a) and np.isfinite(b)):
                    raise CCEError(f"{path}:{lineno}: non-finite value in {ln!r}")
                times.append(a)
                vals.append(b)
    except OSError as exc:
        raise CCEError(f"cannot read series file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise CCEError(f"series file {path} is not text") from None
    try:
        return CorrelationSeries(times_tbar=np.array(times), values=np.array(vals),
                                 metadata=meta)
    except CCEError as exc:
        raise CCEError(f"{path}: {exc}") from None


def _parse_meta(v: str):
    for cast in (int, float):
        try:
            return cast(v)
        except ValueError:
            pass
    return v
