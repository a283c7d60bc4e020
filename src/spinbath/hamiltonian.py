"""Spin-I matrices and per-cluster effective Hamiltonians: hyperfine diagonal
plus the six-term dipolar alphabet, each term switched by ``TermMask``. The
high-field Hamiltonian is the alphabet's A + B subset: C/D and E/F off. Dense
complex matrices in the product basis of a cluster's spins (slot 0 slowest),
each ordered m = I down to -I.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress

import numpy as np

from .lattice import BathRealization, PairGeometry, pair_geometry


class HamiltonianError(ValueError):
    pass


@dataclass(frozen=True)
class SpinMatrices:
    """Iz / ladder operators for one spin, dimensionless (hbar = 1)."""
    dim: int
    Iz: np.ndarray
    Iplus: np.ndarray
    Iminus: np.ndarray


def spin_matrices(spin_I: float) -> SpinMatrices:
    """Standard angular-momentum matrices for half-integer spin_I."""
    twoI = 2.0 * spin_I
    if abs(twoI - round(twoI)) > 1e-12 or round(twoI) < 1:
        raise HamiltonianError(f"spin must be a positive half-integer, got {spin_I}")
    d = cluster_dim(spin_I, 1)
    m = spin_I - np.arange(d)                    # I, I-1, ..., -I
    # <m+1| I+ |m> = sqrt(I(I+1) - m(m+1)) above the diagonal; row 0 is m = I
    Ip = np.diag(np.sqrt(spin_I * (spin_I + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    return SpinMatrices(dim=d, Iz=np.diag(m).astype(complex), Iplus=Ip, Iminus=Ip.conj().T)


def cluster_dim(spin_I: float, size: int) -> int:
    """Hilbert dimension (2I+1)^size of ``size`` spins I, an exact int that
    builds no matrix, so a spin far over any dimension cap costs nothing."""
    return (round(2 * spin_I) + 1) ** size


@dataclass(frozen=True)
class TermMask:
    """Switches for the dipolar terms: zz (A), flip-flop (B), single-quantum
    (C, D) and double-quantum (E, F). C/D and E/F toggle together so every
    emitted operator stays Hermitian."""
    enable_A: bool = True
    enable_B: bool = True
    enable_CD: bool = True
    enable_EF: bool = True


def alphabet_coefficients(geom: PairGeometry):
    """Coefficients (including the r^-3 prefactor) of the four independent
    alphabet structures, one per pair: zz, flip-flop, and the complex
    single-/double-quantum weights (their adjoints carry the conjugates).
    Every term is given; ``cluster_hamiltonians`` leaves out the masked ones.
    """
    c = geom.cos_theta
    sin_sq = 1.0 - c ** 2
    pref = geom.prefactor
    sin_2t = 2.0 * np.sqrt(np.clip(sin_sq, 0.0, 1.0)) * c
    return (pref * (3.0 * c ** 2 - 1.0), pref * (1.0 - 3.0 * c ** 2) / 4.0,
            pref * 0.75 * sin_2t * np.exp(-1j * geom.phi_ij),
            pref * 0.75 * sin_sq * np.exp(-2j * geom.phi_ij))


def bath_operator_diagonal(clusters, realization: BathRealization) -> np.ndarray:
    """Diagonal of sum_i A_i Iz_i in the product basis (it is diagonal there):
    (dim,) for one cluster, (n_clusters, dim) for a stack of equal-size ones."""
    clusters = np.asarray(clusters, dtype=int)
    mz = mz_table(realization.species.spin_I, clusters.shape[-1])
    return realization.hf_couplings_A[clusters] @ mz.T


@lru_cache(maxsize=None)
def mz_table(spin_I: float, n: int) -> np.ndarray:
    """(d^n, n) array of per-slot Iz quantum numbers, slot 0 slowest; cached
    per spin and size, as every sub-block of a size reads it, and read-only."""
    m = spin_matrices(spin_I).Iz.diagonal().real
    grids = np.meshgrid(*([m] * n), indexing="ij")
    table = np.stack([g.ravel() for g in grids], axis=1)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _pair_structures(spin_I: float, size: int, p: int, q: int):
    """Support of the four alphabet structures of the pair (p, q) embedded
    in a ``size``-spin cluster: IzIz, I+I- + I-I+, I+Iz + IzI+ and I+I+, each
    as (flat indices into a (dim, dim) matrix, values, flat indices of the
    transposed positions). The transposed indices, where the adjoint goes,
    are None for the two Hermitian structures. The support is the nonzeros
    plus the diagonal: adding coef * 0 there turns a -0.0 that c_hf * b may
    leave on the diagonal into +0.0, exactly as a dense add of the whole
    structure does, so the scatter reproduces the dense sum bit for bit."""
    spins = spin_matrices(spin_I)
    Iz, Ip, Im, eye = spins.Iz, spins.Iplus, spins.Iminus, np.eye(spins.dim, dtype=complex)

    def op(a, b):
        """Kron chain over the slots (slot 0 slowest): a on p, b on q, identity elsewhere."""
        out = np.ones((1, 1), dtype=complex)
        for k in range(size):
            out = np.kron(out, a if k == p else b if k == q else eye)
        return out

    out = []
    for S, adjoint in ((op(Iz, Iz), False), (op(Ip, Im) + op(Im, Ip), False),
                       (op(Ip, Iz) + op(Iz, Ip), True), (op(Ip, Ip), True)):
        rows, cols = np.nonzero((S != 0) | np.eye(len(S), dtype=bool))
        arrays = (rows * len(S) + cols, S[rows, cols],
                  cols * len(S) + rows if adjoint else None)
        for a in arrays:                 # cached and shared: keep them read-only
            if a is not None:
                a.flags.writeable = False
        out.append(arrays)
    return tuple(out)


def cluster_hamiltonians(clusters, realization: BathRealization,
                         c_hf: float = 0.5,
                         mask: TermMask = TermMask()) -> np.ndarray:
    """Effective Hamiltonians of equal-size clusters, stacked (n_clusters,
    dim, dim): c_hf * sum A_i Iz_i plus every pairwise dipolar term, in the
    cluster tensor space. ``clusters`` is an (n_clusters, size) array of site
    indices. Each pair term is scattered onto the support of its embedded
    structures (cached per spin, size and pair), shared by the whole stack;
    the C/D and E/F terms also add their adjoints on the transposed
    positions."""
    clusters = np.asarray(clusters, dtype=int)
    if clusters.ndim != 2 or clusters.shape[1] == 0:
        raise HamiltonianError("clusters must be a (n_clusters, size >= 1) array of site indices")
    ordered = np.sort(clusters, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise HamiltonianError("duplicate site indices in a cluster")
    nc, size = clusters.shape
    spin_I = realization.species.spin_I
    dim = cluster_dim(spin_I, size)

    # built transposed, one row per matrix entry, so that every scatter moves
    # whole contiguous rows of nc values
    Ht = np.zeros((dim * dim, nc), dtype=complex)
    Ht[np.arange(dim) * (dim + 1)] = (c_hf * bath_operator_diagonal(clusters, realization)).T
    pos = realization.positions[clusters]             # (nc, size, 3)
    enabled = (mask.enable_A, mask.enable_B, mask.enable_CD, mask.enable_EF)
    for p, q in combinations(range(size), 2):
        geom = pair_geometry(pos[:, p], pos[:, q], realization.hf_axis,
                             realization.species)
        terms = zip(alphabet_coefficients(geom), _pair_structures(spin_I, size, p, q))
        for coef, (idx, values, idx_t) in compress(terms, enabled):
            half = values[:, None] * coef
            Ht[idx] += half
            if idx_t is not None:
                Ht[idx_t] += half.conj()
    return np.ascontiguousarray(Ht.T).reshape(nc, dim, dim)
