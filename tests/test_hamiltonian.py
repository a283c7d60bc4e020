from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbath import hamiltonian as ham
from spinbath import lattice as L
from spinbath.hamiltonian import spin_matrices

from baths import nn_pair, random_bath
from embedding import embed

MAGIC = np.arccos(1 / np.sqrt(3))


def geom_at(theta, phi=0.3, prefactor=1.0):
    return L.PairGeometry(cos_theta=np.cos(theta), phi_ij=phi, prefactor=prefactor)


def cartesian_reference(cluster, bath, c_hf):
    """c_hf sum A_i Iz_i + sum_pairs pref (3 (I1.n)(I2.n) - I1.I2), built site
    by site with embedding.embed from the bond vectors, with no code shared
    with the alphabet assembly. Spin operators are quantized along the hf
    axis, in the frame of lattice.rotation_to_axis."""
    spins = spin_matrices(bath.species.spin_I)
    d, n = spins.dim, len(cluster)
    Ix = (spins.Iplus + spins.Iminus) / 2
    Iy = (spins.Iplus - spins.Iminus) / 2j
    ops = [[embed(o, k, n, d) for o in (Ix, Iy, spins.Iz)] for k in range(n)]
    H = c_hf * sum(bath.hf_couplings_A[i] * ops[k][2] for k, i in enumerate(cluster))
    R = L.rotation_to_axis(bath.hf_axis)
    gamma2 = L.MU0_OVER_4PI * L.HBAR * bath.species.gamma ** 2
    for a, b in combinations(range(n), 2):
        r = bath.positions[cluster[b]] - bath.positions[cluster[a]]
        dist = np.linalg.norm(r)
        u = R.T @ (r / dist)
        In_a = sum(u[k] * ops[a][k] for k in range(3))
        In_b = sum(u[k] * ops[b][k] for k in range(3))
        dot = sum(ops[a][k] @ ops[b][k] for k in range(3))
        H = H + gamma2 / dist ** 3 * (3 * In_a @ In_b - dot)
    return H


def dense_alphabet_reference(clusters, bath, c_hf, mask):
    """Whole-matrix assembly of the alphabet: every structure a dense kron
    chain of single-site operators, added with one coefficient per cluster,
    and H += half + half^H for C/D and E/F. The same arithmetic as the
    scatter in ``cluster_hamiltonians``, written the direct way."""
    clusters = np.asarray(clusters)
    nc, n = clusters.shape
    spins = spin_matrices(bath.species.spin_I)
    d = spins.dim
    Iz, Ip, Im = spins.Iz, spins.Iplus, spins.Iminus

    def op(p, q, a, b):
        out = np.ones((1, 1), dtype=complex)
        for k in range(n):
            out = np.kron(out, a if k == p else b if k == q else np.eye(d, dtype=complex))
        return out

    H = np.zeros((nc, d ** n, d ** n), dtype=complex)
    H[:, np.arange(d ** n), np.arange(d ** n)] = c_hf * ham.bath_operator_diagonal(clusters, bath)
    pos = bath.positions[clusters]
    for p, q in combinations(range(n), 2):
        geom = L.pair_geometry(pos[:, p], pos[:, q], bath.hf_axis, bath.species)
        cA, cB, cC, cE = ham.alphabet_coefficients(geom)
        if mask.enable_A:
            H += cA[:, None, None] * op(p, q, Iz, Iz)
        if mask.enable_B:
            H += cB[:, None, None] * (op(p, q, Ip, Im) + op(p, q, Im, Ip))
        if mask.enable_CD:
            half = cC[:, None, None] * (op(p, q, Ip, Iz) + op(p, q, Iz, Ip))
            H += half + half.conj().transpose(0, 2, 1)
        if mask.enable_EF:
            half = cE[:, None, None] * op(p, q, Ip, Ip)
            H += half + half.conj().transpose(0, 2, 1)
    return H


def is_hermitian(H, rtol=1e-12):
    return np.abs(H - np.swapaxes(H, -1, -2).conj()).max() <= rtol * np.abs(H).max()


def total_mz(spins, n):
    return sum(embed(spins.Iz, k, n, spins.dim) for k in range(n))


class TestAlphabetCoefficients:
    def test_magic_angle_kills_zz_and_flipflop(self):
        cA, cB, cC, cE = ham.alphabet_coefficients(geom_at(MAGIC))
        assert abs(cA) < 1e-12 and abs(cB) < 1e-12
        assert abs(cC) > 0 and abs(cE) > 0

    def test_theta_zero(self):
        cA, cB, cC, cE = ham.alphabet_coefficients(geom_at(0.0))
        assert cA == pytest.approx(2.0)
        assert cB == pytest.approx(-0.5)
        assert abs(cC) < 1e-12 and abs(cE) < 1e-12

    def test_theta_ninety(self):
        cA, cB, cC, cE = ham.alphabet_coefficients(geom_at(np.pi / 2, phi=0.0))
        assert cA == pytest.approx(-1.0)
        assert cB == pytest.approx(0.25)
        assert abs(cC) < 1e-12
        assert cE == pytest.approx(0.75)

    def test_flipflop_is_minus_quarter_zz(self):
        for th in np.linspace(0.05, np.pi - 0.05, 17):
            cA, cB, _, _ = ham.alphabet_coefficients(geom_at(th))
            assert cB == pytest.approx(-cA / 4.0, rel=1e-12)

    def test_phi_enters_only_as_phase(self):
        for phi in (0.0, 1.0, 2.5):
            _, _, cC, cE = ham.alphabet_coefficients(geom_at(0.7, phi=phi))
            ref = ham.alphabet_coefficients(geom_at(0.7, phi=0.0))
            assert cC == pytest.approx(ref[2] * np.exp(-1j * phi), rel=1e-12)
            assert cE == pytest.approx(ref[3] * np.exp(-2j * phi), rel=1e-12)


SPINS = st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5])


class TestSpinMatrices:
    def test_spin_half_pauli(self):
        m = spin_matrices(0.5)
        assert np.allclose(m.Iz, np.diag([0.5, -0.5]))
        assert np.allclose(m.Iplus, [[0, 1], [0, 0]])
        assert np.allclose(m.Iminus, [[0, 0], [1, 0]])

    def test_spin_three_half_ladder(self):
        m = spin_matrices(1.5)
        # <3/2| I+ |1/2> = sqrt(3), <1/2| I+ |-1/2> = 2, <-1/2| I+ |-3/2> = sqrt(3)
        assert m.Iplus[0, 1] == pytest.approx(np.sqrt(3))
        assert m.Iplus[1, 2] == pytest.approx(2.0)
        assert m.Iplus[2, 3] == pytest.approx(np.sqrt(3))

    def test_invalid_spin(self):
        for bad in (0.0, -0.5, 0.3):
            with pytest.raises(ham.HamiltonianError):
                spin_matrices(bad)

    @settings(max_examples=10, deadline=None)
    @given(SPINS)
    def test_commutators(self, I):
        m = spin_matrices(I)
        Ix = (m.Iplus + m.Iminus) / 2
        Iy = (m.Iplus - m.Iminus) / 2j
        assert np.allclose(Ix @ Iy - Iy @ Ix, 1j * m.Iz, atol=1e-12)
        assert np.allclose(m.Iz @ m.Iplus - m.Iplus @ m.Iz, m.Iplus, atol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(SPINS)
    def test_casimir(self, I):
        m = spin_matrices(I)
        Ix = (m.Iplus + m.Iminus) / 2
        Iy = (m.Iplus - m.Iminus) / 2j
        I2 = Ix @ Ix + Iy @ Iy + m.Iz @ m.Iz
        assert np.allclose(I2, I * (I + 1) * np.eye(m.dim), atol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(SPINS)
    def test_iz_trace_moment(self, I):
        m = spin_matrices(I)
        # tr(Iz^2) = d * I(I+1)/3
        assert np.trace(m.Iz @ m.Iz).real == pytest.approx(m.dim * I * (I + 1) / 3)


class TestPairHamiltonian:
    def test_hermitian_random_geometry(self):
        rng = np.random.default_rng(3)
        masks = [ham.TermMask(), ham.TermMask(enable_CD=False, enable_EF=False),
                 ham.TermMask(True, False, True, False),
                 ham.TermMask(False, False, False, True)]
        for _ in range(5):
            bath = random_bath(rng, 3, spin=1.5, axis=rng.normal(size=3))
            for mask in masks:
                H = ham.cluster_hamiltonians([(0, 1), (0, 2), (1, 2)], bath, mask=mask)
                assert is_hermitian(H)

    def test_matches_cartesian_form(self):
        # the assembly against the dipolar Hamiltonian written with cartesian
        # operators, pref * (3 (I1.n)(I2.n) - I1.I2), the sign convention
        # implied by the zz coefficient 3cos^2(theta) - 1; every cluster of a
        # 4-spin bath in one stack, random non-[001] hf axes
        rng = np.random.default_rng(7)
        for size in (2, 3):
            for spin in (0.5, 1.5):
                for _ in range(3):
                    bath = random_bath(rng, 4, spin=spin, axis=rng.normal(size=3))
                    c_hf = rng.uniform(0.1, 1.0)
                    clusters = list(combinations(range(4), size))
                    H = ham.cluster_hamiltonians(clusters, bath, c_hf)
                    Href = np.array([cartesian_reference(c, bath, c_hf) for c in clusters])
                    assert np.abs(H - Href).max() < 1e-12 * np.abs(Href).max()
                    assert is_hermitian(H)

    @pytest.mark.parametrize("spin, sizes", [(0.5, (2, 3, 4)), (1.5, (2, 3))])
    def test_scatter_is_bit_identical_to_dense_sum(self, spin, sizes):
        # bit patterns compared, so signed zeros count too; c_hf = 0 leaves
        # -0.0 on the diagonal wherever b < 0, which the dense sum's later
        # zero adds turn into +0.0
        rng = np.random.default_rng(11)
        masks = [ham.TermMask(), ham.TermMask(enable_CD=False, enable_EF=False),
                 ham.TermMask(False, True, False, True), ham.TermMask(False, False, False, False)]
        for size in sizes:
            bath = random_bath(rng, size + 2, spin=spin, axis=rng.normal(size=3))
            clusters = list(combinations(range(size + 2), size))
            for mask in masks:
                for c_hf in (0.5, 0.0):
                    H = ham.cluster_hamiltonians(clusters, bath, c_hf, mask)
                    ref = dense_alphabet_reference(clusters, bath, c_hf, mask)
                    assert np.array_equal(H.view(np.uint64), ref.view(np.uint64))

    def test_secular_conserves_total_mz(self):
        bath = random_bath(np.random.default_rng(4), 2, spin=1.5, axis=(1, 2, 3))
        high_field = ham.TermMask(enable_CD=False, enable_EF=False)
        H = ham.cluster_hamiltonians([(0, 1)], bath, 0.0, high_field)[0]
        Mz = total_mz(spin_matrices(1.5), 2)
        assert np.abs(H @ Mz - Mz @ H).max() < 1e-12 * np.abs(H).max()

    def test_full_alphabet_breaks_total_mz(self):
        bath = random_bath(np.random.default_rng(4), 2, axis=(1, 2, 3))
        H = ham.cluster_hamiltonians([(0, 1)], bath, 0.0)[0]
        Mz = total_mz(spin_matrices(0.5), 2)
        assert np.abs(H @ Mz - Mz @ H).max() > 1e-3 * np.abs(H).max()


class TestBathOperator:
    def test_diagonal_matches_dense(self):
        bath = random_bath(np.random.default_rng(0), 3)
        spins = spin_matrices(0.5)
        dense = sum(bath.hf_couplings_A[k] * embed(spins.Iz, k, 3, 2) for k in range(3))
        assert np.allclose(dense - np.diag(np.diag(dense)), 0)
        diag = ham.bath_operator_diagonal((0, 1, 2), bath)
        assert np.allclose(np.diag(dense), diag)
        stacked = ham.bath_operator_diagonal([(0, 1, 2), (0, 1, 2)], bath)
        assert stacked.shape == (2, 8) and np.allclose(stacked, diag)

    def test_single_spin_eigenvalues(self):
        bath = random_bath(np.random.default_rng(1), 1, spin=1.5)
        diag = ham.bath_operator_diagonal((0,), bath)
        A = bath.hf_couplings_A[0]
        assert np.allclose(sorted(diag), sorted(A * np.array([1.5, 0.5, -0.5, -1.5])))

    def test_mz_table_shape_and_sum(self):
        mz = ham.mz_table(0.5, 3)
        assert mz.shape == (8, 3)
        assert np.allclose(np.sort(mz.sum(axis=1)),
                           np.sort([1.5, 0.5, 0.5, 0.5, -0.5, -0.5, -0.5, -1.5]))

    @pytest.mark.parametrize("spin,n", [(0.5, 1), (0.5, 4), (1.5, 3)])
    def test_mz_table_is_cached_and_read_only(self, spin, n):
        mz = ham.mz_table(spin, n)
        assert ham.mz_table(spin, n) is mz
        fresh = ham.mz_table.__wrapped__(spin, n)
        assert fresh is not mz and np.array_equal(fresh, mz)
        with pytest.raises(ValueError, match="read-only"):
            mz[0, 0] = 0.0


class TestClusterHamiltonian:
    def test_duplicate_site_rejected(self):
        bath = nn_pair()
        with pytest.raises(ham.HamiltonianError):
            ham.cluster_hamiltonians([(0, 0)], bath)

    def test_empty_cluster_rejected(self):
        bath = nn_pair()
        with pytest.raises(ham.HamiltonianError):
            ham.cluster_hamiltonians([()], bath)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_triple_cluster_hermitian(self, seed):
        bath = random_bath(np.random.default_rng(seed), 3)
        H = ham.cluster_hamiltonians([(0, 1, 2)], bath)[0]
        assert is_hermitian(H, 1e-10)

    def test_c_hf_scales_diagonal(self):
        bath = nn_pair()
        h1 = ham.cluster_hamiltonians([(0, 1)], bath, 1.0)[0]
        h0 = ham.cluster_hamiltonians([(0, 1)], bath, 0.0)[0]
        b = ham.bath_operator_diagonal((0, 1), bath)
        assert np.allclose(h1 - h0, np.diag(b))


class TestEmbed:
    def test_two_slot_kron(self):
        m = spin_matrices(0.5)
        assert np.allclose(embed(m.Iz, 0, 2, 2), np.kron(m.Iz, np.eye(2)))
        assert np.allclose(embed(m.Iz, 1, 2, 2), np.kron(np.eye(2), m.Iz))

    def test_slot_operators_commute(self):
        m = spin_matrices(1.0)
        A = embed(m.Iplus, 0, 3, 3)
        B = embed(m.Iz, 2, 3, 3)
        assert np.allclose(A @ B, B @ A)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            embed(np.eye(3), 0, 2, 2)

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            embed(np.eye(2), 2, 2, 2)

    def test_trace_multiplicative(self):
        m = spin_matrices(0.5)
        op = m.Iz @ m.Iz
        emb = embed(op, 1, 3, 2)
        assert np.trace(emb).real == pytest.approx(4 * np.trace(op).real)
