import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbath import cce, cli
from spinbath.hamiltonian import TermMask

from baths import DIAMOND_A0, bath_from_positions, nn_pair, random_bath, species


def chain_bath(n, spacing=0.4e-9, spin=0.5):
    pos = np.array([[i * spacing, 0.0, 0.0] for i in range(n)])
    return bath_from_positions(pos, species(spin=spin), (0, 0, 1), DIAMOND_A0)


class TestTimeGrid:
    def test_defaults(self):
        cfg = cli.RunConfig()
        t = cce.time_grid(cfg.tbar_max, cfg.samples)
        assert len(t) == 4096 and t[0] == 0.0 and t[-1] == pytest.approx(200.0)

    def test_series_validation(self):
        with pytest.raises(cce.CCEError):
            cce.CorrelationSeries(np.array([1.0, 2.0]), np.zeros(2))
        with pytest.raises(cce.CCEError):
            cce.CorrelationSeries(np.array([0.0, 1.0, 3.0]), np.zeros(3))


class TestEnumeration:
    def test_chain_clusters(self):
        bath = chain_bath(4, spacing=0.4e-9)
        # cutoff covers one hop only: edges (0,1), (1,2), (2,3)
        cset = cce.enumerate_clusters(bath, 0.5e-9, 3)
        assert cset.by_size(1) == [(0,), (1,), (2,), (3,)]
        assert cset.by_size(2) == [(0, 1), (1, 2), (2, 3)]
        assert cset.by_size(3) == [(0, 1, 2), (1, 2, 3)]

    def test_disconnected_pair_excluded(self):
        bath = chain_bath(2, spacing=2.0e-9)
        cset = cce.enumerate_clusters(bath, 0.5e-9, 2)
        assert cset.by_size(2) == []

    def test_complete_graph_counts(self):
        bath = random_bath(np.random.default_rng(0), 6, scale=0.2e-9)
        cset = cce.enumerate_clusters(bath, 1e-6, 4)
        from math import comb
        for k in range(1, 5):
            assert len(cset.by_size(k)) == comb(6, k)

    def test_subcluster_links_are_subsets(self):
        bath = random_bath(np.random.default_rng(1), 5, scale=0.4e-9)
        cset = cce.enumerate_clusters(bath, 0.8e-9, 3)
        for c, subs in cset.subcluster_links.items():
            for s in subs:
                assert set(s) < set(c)
                assert s in cset.subcluster_links

    def test_max_order_clamped_to_bath_size(self):
        bath = chain_bath(2)
        cset = cce.enumerate_clusters(bath, 1e-6, 5)
        assert cset.max_order_M == 2

    def test_bad_order(self):
        with pytest.raises(cce.CCEError):
            cce.enumerate_clusters(chain_bath(2), 1e-9, 0)


class TestCombinationCoefficients:
    def test_complete_graph_inclusion_exclusion(self):
        # on a complete graph every subset is present; the recursion reduces to
        # inclusion-exclusion, whose net weight is known in closed form
        bath = random_bath(np.random.default_rng(2), 5, scale=0.2e-9)
        cset = cce.enumerate_clusters(bath, 1e-6, 3)
        coeffs = cce.combination_coefficients(cset)
        from math import comb
        # weight depends only on cluster size k with M = 3, N = 5:
        # a_k = sum_{j>=k} (-1)^(j-k) C(N-k, j-k) truncated at j = M
        for c, a in coeffs.items():
            k = len(c)
            expect = sum((-1) ** (j - k) * comb(5 - k, j - k) for j in range(k, 4))
            assert a == expect

    def test_singleton_only(self):
        bath = chain_bath(3, spacing=2e-9)
        cset = cce.enumerate_clusters(bath, 0.5e-9, 2)
        coeffs = cce.combination_coefficients(cset)
        assert coeffs == {(0,): 1, (1,): 1, (2,): 1}


class TestClusterCorrelation:
    def test_single_spin_static(self):
        bath = nn_pair()
        t = cce.time_grid(50.0, 256)
        c = cce.cluster_correlation((0,), bath, times_tbar=t)
        A = bath.hf_couplings_A[0]
        # a lone spin-1/2 gives the time-independent value A^2/4
        assert np.allclose(c, A * A / 4, rtol=1e-12)

    def test_t0_sum_rule_spin_half(self):
        bath = random_bath(np.random.default_rng(4), 3)
        c = cce.cluster_correlation((0, 1, 2), bath, times_tbar=cce.time_grid(10, 64))
        expect = (bath.hf_couplings_A ** 2).sum() * 0.5 * 1.5 / 3
        assert c[0].real == pytest.approx(expect, rel=1e-12)

    def test_t0_sum_rule_spin_three_half(self):
        bath = random_bath(np.random.default_rng(5), 2, spin=1.5)
        c = cce.cluster_correlation((0, 1), bath, times_tbar=cce.time_grid(10, 64))
        expect = (bath.hf_couplings_A ** 2).sum() * 1.5 * 2.5 / 3
        assert c[0].real == pytest.approx(expect, rel=1e-12)

    def test_secular_pair_analytic(self):
        # equal couplings, secular mask: flip-flop splits the m=0 sector and
        # the 0Q correlation stays constant for spin-1/2 (B commutes with H)
        bath = nn_pair(axis=(0, 0, 1), bond_dir=(0, 0, 1))
        t = cce.time_grid(100.0, 512)
        c = cce.cluster_correlation((0, 1), bath, mask=TermMask.secular(),
                                    times_tbar=t)
        assert np.abs(c - c[0]).max() < 1e-10 * abs(c[0])


class TestCCERecursion:
    @pytest.mark.parametrize("n,spin", [(2, 0.5), (3, 0.5), (4, 0.5),
                                        (2, 1.5), (3, 1.5)])
    def test_complete_expansion_matches_exact(self, n, spin):
        bath = random_bath(np.random.default_rng(10 + n), n, spin=spin)
        t = cce.time_grid(60.0, 256)
        exact = cce.exact_bath_correlation(bath, times_tbar=t)
        cset = cce.enumerate_clusters(bath, 1e-6, n)
        got = cce.compute_correlation(bath, cset, times_tbar=t)
        scale = abs(exact.values[0])
        assert np.abs(got.values - exact.values).max() < 1e-10 * scale

    def test_batched_matches_per_cluster_path(self):
        bath = random_bath(np.random.default_rng(20), 5)
        t = cce.time_grid(40.0, 128)
        cset = cce.enumerate_clusters(bath, 1.2e-9, 3)
        fast = cce.compute_correlation(bath, cset, times_tbar=t)
        slow = sum(a * cce.cluster_correlation(c, bath, times_tbar=t)
                   for c, a in cce.combination_coefficients(cset).items())
        assert np.abs(fast.values - slow.real).max() < 1e-10 * abs(slow[0])

    def test_partial_last_chunk_matches_per_cluster_path(self):
        # spin 3/2 triples (dim 64) on 2048 samples are chunked 32 at a time,
        # so the 35 triples of a complete 7-spin bath take one full chunk and
        # a partial one that uses only the first rows of the trace buffers
        bath = random_bath(np.random.default_rng(21), 7, spin=1.5)
        t = cce.time_grid(40.0, 2048)
        assert 2 ** 22 // (64 * len(t)) == 32
        cset = cce.enumerate_clusters(bath, 1e-6, 3)
        assert len(cset.by_size(3)) == 35
        fast = cce.compute_correlation(bath, cset, times_tbar=t)
        slow = sum(a * cce.cluster_correlation(c, bath, times_tbar=t)
                   for c, a in cce.combination_coefficients(cset).items())
        assert np.abs(fast.values - slow.real).max() < 1e-10 * abs(slow[0])

    def test_metadata(self):
        bath = random_bath(np.random.default_rng(22), 3)
        cset = cce.enumerate_clusters(bath, 1e-6, 2)
        s = cce.compute_correlation(bath, cset, times_tbar=cce.time_grid(10, 64))
        assert s.metadata["order"] == 2
        assert s.metadata["n_spins"] == 3
        assert s.metadata["max_imag"] < 1e-10 * abs(s.values[0])

    @pytest.mark.parametrize("times", [np.linspace(0.0, 3.0, 40) ** 2,
                                       np.linspace(1.0, 11.0, 64), np.zeros(1)],
                             ids=["non-uniform", "offset", "one-sample"])
    def test_bad_grid_refused_before_eigensolves(self, monkeypatch, times):
        def unreachable(*args, **kwargs):
            raise AssertionError("Hamiltonians assembled for a grid that is refused")

        bath = random_bath(np.random.default_rng(24), 3)
        cset = cce.enumerate_clusters(bath, 1e-6, 2)
        monkeypatch.setattr(cce, "cluster_hamiltonians", unreachable)
        with pytest.raises(cce.CCEError, match="time grid"):
            cce.compute_correlation(bath, cset, times_tbar=times)

    def test_exact_cap(self):
        bath = random_bath(np.random.default_rng(23), 7, spin=1.5)
        with pytest.raises(cce.CCEError):
            cce.exact_bath_correlation(bath, times_tbar=cce.time_grid(10, 64))


class TestPhaseTable:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_exp(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(3, 4))
        t = np.linspace(0.0, 37.0, 200)
        got = cce._phase_table(f, t)
        ref = np.exp(1j * f[..., None] * t)
        assert np.abs(got - ref).max() < 1e-9

    @pytest.mark.parametrize("times", [np.linspace(0.0, 37.0, 200)])
    def test_padded_out_is_bit_identical(self, times):
        f = np.random.default_rng(8).normal(size=(3, 4))
        buf = np.empty((3, 4, len(times) | 1), dtype=complex)
        got = cce._phase_table(f, times, out=buf[:, :, :len(times)])
        assert np.shares_memory(got, buf)
        ref = cce._phase_table(f, times)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestSeriesIO:
    def test_round_trip(self, tmp_path):
        t = cce.time_grid(10.0, 64)
        v = np.cos(t)
        s = cce.CorrelationSeries(t, v, {"A_bar": 1.5e7, "order": 2, "mode": "cce"})
        p = tmp_path / "series.csv"
        cce.save_series(p, s)
        back = cce.load_series(p)
        assert np.allclose(back.times_tbar, t, atol=0, rtol=1e-15)
        assert np.allclose(back.values, v, atol=0, rtol=1e-15)
        assert back.metadata["A_bar"] == pytest.approx(1.5e7)
        assert back.metadata["order"] == 2
        assert back.metadata["mode"] == "cce"

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(2, 64),
           st.floats(min_value=0.0, max_value=1e300, exclude_min=True))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, data, n, dt):
        # finite values, -0.0 and subnormals included
        values = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                             min_size=n, max_size=n)))
        t = np.arange(n) * dt
        p = tmp_path_factory.mktemp("series") / "series.csv"
        cce.save_series(p, cce.CorrelationSeries(t, values))
        back = cce.load_series(p)
        assert np.array_equal(back.times_tbar.view(np.uint64), t.view(np.uint64))
        assert np.array_equal(back.values.view(np.uint64), values.view(np.uint64))
        # the same grid with a zero step is refused, built or loaded
        with pytest.raises(cce.CCEError, match="time grid"):
            cce.CorrelationSeries(np.arange(n) * 0.0, values)
        with open(p, "w") as fh:
            cce._write_rows(fh, np.arange(n) * 0.0, values)
        with pytest.raises(cce.CCEError, match="time grid"):
            cce.load_series(p)
