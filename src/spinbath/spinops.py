"""Spin-I matrices.

Dense complex matrices throughout; cluster dimensions (2I+1)^order stay at or
below cce.EXACT_DIM_CAP = 4096, which spin 3/2 reaches at order 6. Basis
ordering is m = I down to -I.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SpinOpsError(ValueError):
    pass


@dataclass(frozen=True)
class SpinMatrices:
    """Iz / ladder operators for one spin, dimensionless (hbar = 1)."""
    spin_I: float
    dim: int
    Iz: np.ndarray
    Iplus: np.ndarray
    Iminus: np.ndarray


def spin_matrices(spin_I: float) -> SpinMatrices:
    """Standard angular-momentum matrices for half-integer spin_I."""
    twoI = 2.0 * spin_I
    if abs(twoI - round(twoI)) > 1e-12 or round(twoI) < 1:
        raise SpinOpsError(f"spin must be a positive half-integer, got {spin_I}")
    d = int(round(twoI)) + 1
    m = spin_I - np.arange(d)                    # I, I-1, ..., -I
    Iz = np.diag(m).astype(complex)
    Ip = np.zeros((d, d), dtype=complex)
    # <m+1| I+ |m> = sqrt(I(I+1) - m(m+1)); row index 0 is m = I
    for col in range(1, d):
        mm = m[col]
        Ip[col - 1, col] = np.sqrt(spin_I * (spin_I + 1) - mm * (mm + 1))
    return SpinMatrices(spin_I=spin_I, dim=d, Iz=Iz, Iplus=Ip, Iminus=Ip.conj().T)
