import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbath import spinops as so

spins = st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5])


class TestSpinMatrices:
    def test_spin_half_pauli(self):
        m = so.spin_matrices(0.5)
        assert np.allclose(m.Iz, np.diag([0.5, -0.5]))
        assert np.allclose(m.Iplus, [[0, 1], [0, 0]])
        assert np.allclose(m.Iminus, [[0, 0], [1, 0]])

    def test_spin_three_half_ladder(self):
        m = so.spin_matrices(1.5)
        # <3/2| I+ |1/2> = sqrt(3), <1/2| I+ |-1/2> = 2, <-1/2| I+ |-3/2> = sqrt(3)
        assert m.Iplus[0, 1] == pytest.approx(np.sqrt(3))
        assert m.Iplus[1, 2] == pytest.approx(2.0)
        assert m.Iplus[2, 3] == pytest.approx(np.sqrt(3))

    def test_invalid_spin(self):
        for bad in (0.0, -0.5, 0.3):
            with pytest.raises(so.SpinOpsError):
                so.spin_matrices(bad)

    @settings(max_examples=10, deadline=None)
    @given(spins)
    def test_commutators(self, I):
        m = so.spin_matrices(I)
        Ix = (m.Iplus + m.Iminus) / 2
        Iy = (m.Iplus - m.Iminus) / 2j
        assert np.allclose(Ix @ Iy - Iy @ Ix, 1j * m.Iz, atol=1e-12)
        assert np.allclose(m.Iz @ m.Iplus - m.Iplus @ m.Iz, m.Iplus, atol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(spins)
    def test_casimir(self, I):
        m = so.spin_matrices(I)
        Ix = (m.Iplus + m.Iminus) / 2
        Iy = (m.Iplus - m.Iminus) / 2j
        I2 = Ix @ Ix + Iy @ Iy + m.Iz @ m.Iz
        assert np.allclose(I2, I * (I + 1) * np.eye(m.dim), atol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(spins)
    def test_iz_trace_moment(self, I):
        m = so.spin_matrices(I)
        # tr(Iz^2) = d * I(I+1)/3
        assert np.trace(m.Iz @ m.Iz).real == pytest.approx(m.dim * I * (I + 1) / 3)


class TestEmbed:
    def test_two_slot_kron(self):
        m = so.spin_matrices(0.5)
        assert np.allclose(so.embed(m.Iz, 0, 2, 2), np.kron(m.Iz, np.eye(2)))
        assert np.allclose(so.embed(m.Iz, 1, 2, 2), np.kron(np.eye(2), m.Iz))

    def test_slot_operators_commute(self):
        m = so.spin_matrices(1.0)
        A = so.embed(m.Iplus, 0, 3, 3)
        B = so.embed(m.Iz, 2, 3, 3)
        assert np.allclose(A @ B, B @ A)

    def test_shape_mismatch(self):
        with pytest.raises(so.SpinOpsError):
            so.embed(np.eye(3), 0, 2, 2)

    def test_slot_out_of_range(self):
        with pytest.raises(so.SpinOpsError):
            so.embed(np.eye(2), 2, 2, 2)

    def test_trace_multiplicative(self):
        m = so.spin_matrices(0.5)
        op = m.Iz @ m.Iz
        emb = so.embed(op, 1, 3, 2)
        assert np.trace(emb).real == pytest.approx(4 * np.trace(op).real)

