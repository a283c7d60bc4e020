import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbath import lattice as L
from baths import (DIAMOND_A0, GAMMA_C13, GAMMA_SI29, SILICON_A0, species)

# golden constant: independent hand evaluation of the dipolar energy formula
# (mu0/4pi) hbar gamma^2 / (a0 sqrt(3)/4)^3 for 13C at the diamond lattice
# constant, done on paper before the implementation existed
E_DD_C13_DIAMOND = 1.2956139623680327e4


#: numeric fields as text: finite, extreme, non-finite and malformed
NUMBER_TEXT = st.one_of(st.floats().map(repr), st.integers(-10 ** 30, 10 ** 30).map(str),
                        st.sampled_from(["0", "-0", "0.5", "1e-320", "1e308", "nan", "inf",
                                         "", " ", "1_0", "0x10"]))


def silicon_spec(rho=0.02, seed=0, box=(10, 10, 7)):
    sp = species(gamma=GAMMA_SI29, a0=SILICON_A0)
    return L.LatticeSpec(SILICON_A0, box, sp, rho, seed=seed)


class TestSpecies:
    @pytest.mark.parametrize("spin", [0.0, 0.5 - 1e-9, 0.75, 1e308, np.inf, np.nan])
    def test_spin_not_positive_half_integer_refused(self, spin):
        # 2 * 1e308 overflows to inf, which round() cannot take
        with pytest.raises(L.LatticeError, match="half-integer"):
            L.SpeciesParams(spin, GAMMA_C13, 1e6, 1e-9)

    @pytest.mark.parametrize("spin", [0.5, 1.0, 1.5, 4.5, 0.5 + 1e-13])
    def test_half_integer_spin_accepted(self, spin):
        assert L.SpeciesParams(spin, GAMMA_C13, 1e6, 1e-9).spin_I == spin


class TestBuildLattice:
    def test_site_count_paper_box(self):
        pos = L.build_diamond_lattice(silicon_spec())
        assert len(pos) == 5600

    def test_site_count_single_cell(self):
        pos = L.build_diamond_lattice(silicon_spec(box=(1, 1, 1)))
        assert len(pos) == 8

    def test_nearest_neighbor_distance(self):
        pos = L.build_diamond_lattice(silicon_spec(box=(2, 2, 2)))
        d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        d[d == 0] = np.inf
        bond = SILICON_A0 * np.sqrt(3) / 4
        assert d.min() == pytest.approx(bond, rel=1e-12)
        assert d.min() >= bond - 1e-12

    def test_box_centered_on_origin(self):
        pos = L.build_diamond_lattice(silicon_spec(box=(3, 2, 1)))
        lo, hi = pos.min(axis=0), pos.max(axis=0)
        # the box spans [-L/2, L/2) per axis up to the basis offsets
        assert np.all(lo < 0) and np.all(hi > 0)

    def test_deterministic_ordering(self):
        a = L.build_diamond_lattice(silicon_spec(box=(2, 3, 2)))
        b = L.build_diamond_lattice(silicon_spec(box=(2, 3, 2)))
        assert np.array_equal(a, b)

    def test_bad_box(self):
        with pytest.raises(L.LatticeError):
            silicon_spec(box=(0, 1, 1))


class TestSampling:
    def test_rho_zero_empty(self):
        pos = L.build_diamond_lattice(silicon_spec())
        assert len(L.sample_spinful_sites(pos, 0.0, 1)) == 0

    def test_rho_one_all(self):
        pos = L.build_diamond_lattice(silicon_spec(box=(2, 2, 2)))
        assert len(L.sample_spinful_sites(pos, 1.0, 1)) == len(pos)

    def test_count_within_binomial_bound(self):
        pos = L.build_diamond_lattice(silicon_spec())
        sigma = np.sqrt(5600 * 0.02 * 0.98)
        for seed in range(8):
            n = len(L.sample_spinful_sites(pos, 0.02, seed))
            assert abs(n - 112) < 4 * sigma

    def test_seed_reproducible(self):
        pos = L.build_diamond_lattice(silicon_spec())
        a = L.sample_spinful_sites(pos, 0.05, 123)
        b = L.sample_spinful_sites(pos, 0.05, 123)
        assert np.array_equal(a, b)
        c = L.sample_spinful_sites(pos, 0.05, 124)
        assert not np.array_equal(a, c)

    def test_rho_out_of_range(self):
        with pytest.raises(L.LatticeError):
            L.sample_spinful_sites(np.zeros((4, 3)), 1.5, 0)


class TestHfCouplings:
    def test_origin_gives_A0(self):
        sp = species()
        A, _ = L.assign_hf_couplings(np.zeros((1, 3)), sp)
        assert A[0] == pytest.approx(sp.A0, rel=1e-15)

    def test_L0_gives_A0_over_e(self):
        sp = species()
        A, _ = L.assign_hf_couplings(np.array([[sp.L0, 0, 0]]), sp)
        assert A[0] == pytest.approx(sp.A0 / np.e, rel=1e-14)

    def test_monotone_decreasing_in_radius(self):
        sp = species()
        r = np.linspace(0, 4e-9, 40)
        pos = np.stack([r, np.zeros_like(r), np.zeros_like(r)], axis=1)
        A, _ = L.assign_hf_couplings(pos, sp)
        assert np.all(np.diff(A) < 0)

    def test_silicon_mean_coupling_matches_reported_scale(self):
        # angular-frequency mean around 13.5e6 rad/s for the 10x10x7 silicon
        # box at rho = 0.02 (statistical over seeds)
        spec = silicon_spec()
        pos = L.build_diamond_lattice(spec)
        means = []
        for seed in range(10):
            idx = L.sample_spinful_sites(pos, 0.02, seed)
            _, abar = L.assign_hf_couplings(pos[idx], spec.species)
            means.append(abar)
        assert abs(np.mean(means) - 13.5e6) < 0.3 * 13.5e6


class TestEdd:
    def test_cubic_law(self):
        assert L.compute_E_dd(GAMMA_C13, 2 * DIAMOND_A0) == pytest.approx(
            L.compute_E_dd(GAMMA_C13, DIAMOND_A0) / 8, rel=1e-12)

    def test_gamma_squared(self):
        a = L.compute_E_dd(GAMMA_C13, DIAMOND_A0)
        b = L.compute_E_dd(2 * GAMMA_C13, DIAMOND_A0)
        assert b == pytest.approx(4 * a, rel=1e-12)

    def test_c13_golden_constant(self):
        assert L.compute_E_dd(GAMMA_C13, DIAMOND_A0) == pytest.approx(E_DD_C13_DIAMOND,
                                                                     rel=1e-12)

    @pytest.mark.parametrize("gamma,a0", [(1e200, DIAMOND_A0), (GAMMA_C13, 1e-200),
                                          (GAMMA_C13, 1e300), (0.0, DIAMOND_A0)],
                             ids=["gamma-overflow", "a0-underflow", "a0-overflow",
                                  "zero-gamma"])
    def test_no_finite_scale_refused(self, gamma, a0):
        # gamma^2 overflows, bond^3 underflows or overflows, or E_dd is 0
        with pytest.raises(L.LatticeError, match="E_dd"):
            L.compute_E_dd(gamma, a0)


def polar_angle(g):
    """Polar angle of a pair w.r.t. the hf axis; cos_theta may overshoot 1 by an ulp."""
    return np.arccos(np.clip(g.cos_theta, -1.0, 1.0))


class TestPairGeometry:
    def test_bond_111_against_001_axis_is_magic(self):
        g = L.pair_geometry(np.zeros(3), np.array([1.0, 1, 1]),
                            np.array([0, 0, 1.0]), species())
        assert polar_angle(g) == pytest.approx(np.arccos(1 / np.sqrt(3)), abs=1e-9)

    def test_bond_parallel_to_axis(self):
        g = L.pair_geometry(np.zeros(3), np.array([1.0, 1, 1]),
                            np.array([1.0, 1, 1]) / np.sqrt(3), species())
        assert polar_angle(g) == pytest.approx(0.0, abs=1e-9)

    def test_z_bond_z_axis(self):
        sp = species()
        r = 2e-10
        g = L.pair_geometry(np.zeros(3), np.array([0, 0, r]),
                            np.array([0, 0, 1.0]), sp)
        assert polar_angle(g) == pytest.approx(0.0, abs=1e-12)
        expected = L.MU0_OVER_4PI * L.HBAR * sp.gamma ** 2 / r ** 3
        assert g.prefactor == pytest.approx(expected, rel=1e-14)

    def test_coincident_sites_error(self):
        with pytest.raises(L.LatticeError):
            L.pair_geometry(np.zeros(3), np.zeros(3), np.array([0, 0, 1.0]), species())

    def test_antiparallel_axis_convention(self):
        # [00-1] axis uses the documented rotation about x by pi
        g = L.pair_geometry(np.zeros(3), np.array([1.0, 2.0, 3.0]),
                            np.array([0, 0, -1.0]), species())
        r = np.array([1.0, 2.0, 3.0])
        local = np.diag([1.0, -1.0, -1.0]).T @ r
        assert polar_angle(g) == pytest.approx(np.arccos(local[2] / np.linalg.norm(r)), abs=1e-12)
        assert g.phi_ij == pytest.approx(np.arctan2(local[1], local[0]), abs=1e-12)

    def test_identity_frame_for_z_axis(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = rng.normal(size=3)
            g = L.pair_geometry(np.zeros(3), r, np.array([0, 0, 1.0]), species())
            assert g.phi_ij == pytest.approx(np.arctan2(r[1], r[0]), abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_theta_invariant_under_common_rotation(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.normal(size=3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        g1 = L.pair_geometry(np.zeros(3), r, axis, species())
        g2 = L.pair_geometry(np.zeros(3), Q @ r, Q @ axis, species())
        assert polar_angle(g2) == pytest.approx(polar_angle(g1), abs=1e-10)


class TestRealization:
    def test_all_pair_distances_at_least_bond(self):
        spec = silicon_spec(rho=0.1, seed=5, box=(3, 3, 3))
        real = L.build_realization(spec, np.array([0, 0, 1.0]))
        d = np.linalg.norm(real.positions[:, None] - real.positions[None, :], axis=-1)
        d[d == 0] = np.inf
        assert d.min() >= SILICON_A0 * np.sqrt(3) / 4 - 1e-12

    def test_unit_axis_required(self):
        sp = species()
        with pytest.raises(L.LatticeError):
            L.BathRealization(positions=np.zeros((1, 3)),
                              hf_couplings_A=np.array([sp.A0]),
                              hf_axis=np.array([0, 0, 2.0]), E_dd=1.0,
                              A_bar=sp.A0, species=sp, a0=DIAMOND_A0)

    def test_abar_consistency_required(self):
        sp = species()
        with pytest.raises(L.LatticeError):
            L.BathRealization(positions=np.zeros((1, 3)),
                              hf_couplings_A=np.array([sp.A0]),
                              hf_axis=np.array([0, 0, 1.0]), E_dd=1.0,
                              A_bar=0.5 * sp.A0, species=sp, a0=DIAMOND_A0)

    def test_explicit_site_list_bypasses_prng(self):
        spec = silicon_spec()
        want = (3, 100, 2500)
        spec2 = L.LatticeSpec(spec.lattice_constant_a0, spec.box_dims, spec.species,
                              spec.abundance_rho, seed=99, explicit_sites=want)
        real = L.build_realization(spec2, np.array([0, 0, 1.0]))
        assert real.site_indices == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.one_of(NUMBER_TEXT, st.text(max_size=6)),
                             min_size=1, max_size=9).map(",".join), max_size=4))
    def test_fuzzed_file_loads_or_is_refused_in_one_line(self, tmp_path_factory, lines):
        # arbitrary lines: wrong field counts and malformed numbers
        path = tmp_path_factory.mktemp("fuzz") / "real.csv"
        path.write_text("\n".join(lines))
        try:
            L.load_realization(path)
        except L.LatticeError as exc:
            assert "\n" not in str(exc)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(NUMBER_TEXT, min_size=8, max_size=8),
           st.lists(st.lists(NUMBER_TEXT, min_size=5, max_size=5), max_size=3))
    def test_fuzzed_values_load_or_are_refused_in_one_line(self, tmp_path_factory,
                                                           head, rows):
        # well-formed lines with extreme values reach every check on the values
        path = tmp_path_factory.mktemp("fuzz") / "real.csv"
        path.write_text("\n".join(",".join(r) for r in [head, *rows]))
        try:
            L.load_realization(path)
        except L.LatticeError as exc:
            assert "\n" not in str(exc)

    def test_save_load_round_trip(self, tmp_path):
        spec = silicon_spec(rho=0.05, seed=7, box=(3, 3, 3))
        real = L.build_realization(spec, L.hf_axis_from_miller(1, 1, 1))
        path = tmp_path / "real.csv"
        L.save_realization(path, real)
        back = L.load_realization(path)
        assert np.array_equal(back.positions, real.positions)
        assert np.array_equal(back.hf_couplings_A, real.hf_couplings_A)
        assert np.array_equal(back.hf_axis, real.hf_axis)
        assert back.site_indices == real.site_indices
        assert back.species.spin_I == real.species.spin_I
        assert back.E_dd == pytest.approx(real.E_dd, rel=1e-15)
