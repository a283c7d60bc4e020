"""Tensor-product embedding of one-spin operators, for the dense reference
Hamiltonians the tests build site by site."""
import numpy as np


def embed(op: np.ndarray, k: int, n: int, d: int) -> np.ndarray:
    """identity x ... x op (slot k) x ... x identity on a d^n space.

    Slot 0 varies slowest (leftmost kron factor).
    """
    op = np.asarray(op)
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match local dim {d}")
    if not 0 <= k < n:
        raise ValueError(f"slot {k} out of range for {n} slots")
    left = np.eye(d ** k)
    right = np.eye(d ** (n - k - 1))
    return np.kron(np.kron(left, op), right)
