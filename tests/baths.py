"""Shared bath builders for the test suite."""
import numpy as np

from spinbath import lattice as L

DIAMOND_A0 = 3.567e-10
SILICON_A0 = 5.43e-10
GAMMA_C13 = 6.7283e7
GAMMA_SI29 = 5.3190e7
L0_DEFAULT = 3.4e-9

# fixed 8-spin convergence bath: two nearest-neighbor clumps of four on the
# silicon 10x10x7 lattice, separated well beyond the 2.7 a0 cutoff
CONVERGENCE_SITES = (1426, 1375, 1430, 1929, 4286, 4287, 4841, 4284)
CONVERGENCE_AXIS_DEG = (54.7356, 0.0)


def species(spin=0.5, gamma=GAMMA_C13, a0=DIAMOND_A0, a0_ratio=1.0e4,
            L0=L0_DEFAULT) -> L.SpeciesParams:
    return L.SpeciesParams(spin, gamma, a0_ratio * L.compute_E_dd(gamma, a0), L0)


def bath_from_positions(pos, sp, axis, a0) -> L.BathRealization:
    pos = np.asarray(pos, dtype=float)
    axis = np.asarray(axis, dtype=float)
    return L.BathRealization(positions=pos, hf_couplings_A=L.assign_hf_couplings(pos, sp),
                             hf_axis=axis / np.linalg.norm(axis), species=sp, a0=a0)


def nn_pair(spin=0.5, axis=(0, 0, 1), bond_dir=(1, 1, 1), a0=DIAMOND_A0,
            center=None, detune=0.0) -> L.BathRealization:
    """Nearest-neighbor pair along ``bond_dir``. With detune = 0 the pair sits
    symmetric about the origin (equal couplings); otherwise it is slid along
    the bond until (A_i - A_j) / mean(A) hits ``detune`` (bisection)."""
    sp = species(spin=spin, a0=a0)
    bond = a0 * np.sqrt(3.0) / 4.0
    u = np.asarray(bond_dir, dtype=float)
    u = u / np.linalg.norm(u)
    if center is None and detune == 0.0:
        pos = np.array([-0.5 * bond * u, 0.5 * bond * u])
    elif detune == 0.0:
        pos = np.array([center - 0.5 * bond * u, center + 0.5 * bond * u])
    else:
        def delta_frac(s):
            r1, r2 = abs(s - bond / 2), abs(s + bond / 2)
            A1 = sp.A0 * np.exp(-r1 ** 2 / sp.L0 ** 2)
            A2 = sp.A0 * np.exp(-r2 ** 2 / sp.L0 ** 2)
            return (A1 - A2) / (0.5 * (A1 + A2)) - detune
        lo, hi = 1e-13, 3e-9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if delta_frac(lo) * delta_frac(mid) <= 0:
                hi = mid
            else:
                lo = mid
        s = 0.5 * (lo + hi)
        pos = np.array([(s - bond / 2) * u, (s + bond / 2) * u])
    return bath_from_positions(pos, sp, axis, a0)


def convergence_bath() -> L.BathRealization:
    sp = species(gamma=GAMMA_SI29, a0=SILICON_A0)
    spec = L.LatticeSpec(SILICON_A0, (10, 10, 7), sp, 0.02, seed=0,
                         explicit_sites=CONVERGENCE_SITES)
    return L.build_realization(spec, L.hf_axis_from_angles(*CONVERGENCE_AXIS_DEG))


def random_bath(rng, n, spin=0.5, scale=0.7e-9, axis=(0, 0, 1)) -> L.BathRealization:
    sp = species(spin=spin)
    pos = rng.normal(scale=scale, size=(n, 3))
    return bath_from_positions(pos, sp, np.asarray(axis, float), DIAMOND_A0)
