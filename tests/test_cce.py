import tracemalloc
from collections import defaultdict
from itertools import combinations, groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbath import cce, cli, lattice
from spinbath.hamiltonian import (TermMask, bath_operator_diagonal, cluster_dim,
                                  cluster_hamiltonians)

from baths import DIAMOND_A0, SILICON_A0, bath_from_positions, nn_pair, random_bath, species


def chain_bath(n, spacing=0.4e-9, spin=0.5):
    pos = np.array([[i * spacing, 0.0, 0.0] for i in range(n)])
    return bath_from_positions(pos, species(spin=spin), (0, 0, 1), DIAMOND_A0)


class TestTimeGrid:
    def test_defaults(self):
        cfg = cli.RunConfig()
        t = cce.time_grid(cfg.tbar_max, cfg.samples)
        assert len(t) == 4096 and t[0] == 0.0 and t[-1] == pytest.approx(200.0)

    @pytest.mark.parametrize("samples", [2, 16, 1024, 4096, 49152])
    @pytest.mark.parametrize("tbar_max", [200.0, 2400.0, 0.1, 1e-300, 3e300])
    def test_step_has_the_grids_bits(self, tbar_max, samples):
        times = cce.time_grid(tbar_max, samples)
        step = cce.grid_step(tbar_max, samples)
        assert np.float64(step).view(np.uint64) == (times[1] - times[0]).view(np.uint64)

    def test_series_validation(self):
        with pytest.raises(cce.CCEError):
            cce.CorrelationSeries(np.array([1.0, 2.0]), np.zeros(2))
        with pytest.raises(cce.CCEError):
            cce.CorrelationSeries(np.array([0.0, 1.0, 3.0]), np.zeros(3))
        with pytest.raises(cce.CCEError, match="0 correlation values on 2 time samples"):
            cce.CorrelationSeries(np.array([0.0, 1.0]), np.zeros(0))
        # NaN or inf anywhere after t = 0, the first step included
        for times in ([0.0, 1.0, np.nan, 3.0], [0.0, 1.0, 2.0, np.inf], [0.0, np.inf],
                      [0.0, 1.0, np.inf, np.inf]):
            with pytest.raises(cce.CCEError, match="time grid must be finite"):
                cce.CorrelationSeries(np.array(times), np.zeros(len(times)))


def by_size(cset, n):
    return [c for c in cset.clusters if len(c) == n]


def weight_dict(weights):
    """The weights as a dict of nonzero integers keyed by cluster tuples, in set order."""
    return {tuple(c): x for rows, a in weights.nonzero()
            for c, x in zip(rows.tolist(), a.tolist())}


def csr_sets(graph):
    """The neighbour sets of a CSR graph (indptr, indices), each row ascending."""
    indptr, indices = graph
    rows = [indices[s:e].tolist() for s, e in zip(indptr[:-1], indptr[1:])]
    assert all(r == sorted(r) for r in rows)
    return [set(r) for r in rows]


def assert_same_set(got, want):
    assert got.max_order_M == want.max_order_M
    assert len(got.levels) == len(want.levels)
    for k, (a, b) in enumerate(zip(got.levels, want.levels), 1):
        assert a.shape == b.shape == (len(b), k) and np.array_equal(a, b)


def dense_adjacency(positions, r_cutoff):
    """The proximity graph from the whole (n, n, 3) difference array."""
    n = len(positions)
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    close = (dist <= r_cutoff) & ~np.eye(n, dtype=bool)
    return [set(np.nonzero(close[i])[0].tolist()) for i in range(n)]


class TestEnumeration:
    def test_chain_clusters(self):
        bath = chain_bath(4, spacing=0.4e-9)
        # cutoff covers one hop only: edges (0,1), (1,2), (2,3)
        cset = cce.enumerate_clusters(bath, 0.5e-9, 3)
        assert by_size(cset, 1) == [(0,), (1,), (2,), (3,)]
        assert by_size(cset, 2) == [(0, 1), (1, 2), (2, 3)]
        assert by_size(cset, 3) == [(0, 1, 2), (1, 2, 3)]

    def test_disconnected_pair_excluded(self):
        bath = chain_bath(2, spacing=2.0e-9)
        cset = cce.enumerate_clusters(bath, 0.5e-9, 2)
        assert by_size(cset, 2) == []

    def test_complete_graph_counts(self):
        bath = random_bath(np.random.default_rng(0), 6, scale=0.2e-9)
        cset = cce.enumerate_clusters(bath, 1e-6, 4)
        from math import comb
        for k in range(1, 5):
            assert len(by_size(cset, k)) == comb(6, k)

    def test_enumeration_memory(self):
        # the silicon reference bath at order 4: the 24 080 clusters take
        # 0.7 MiB as per-size int arrays (1.9 MiB as tuples), which leaves
        # no room for a per-cluster subset table
        bath = cli._resolve_realization(cli.RunConfig())
        tracemalloc.start()
        try:
            cset = cce.enumerate_clusters(bath, 2.7 * bath.a0, 4)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(cset.clusters) == 24080
        assert held < 2 ** 20

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 700])
    def test_adjacency_matches_dense(self, n):
        # 2**18 // 700 = 374 rows: one block, then a remainder of 326
        positions = np.random.default_rng(n).uniform(0.0, 20.0, size=(n, 3))
        for r_cutoff in (0.5, 2.7, 5.0):
            assert csr_sets(cce._proximity_adjacency(positions, r_cutoff)) == \
                dense_adjacency(positions, r_cutoff), r_cutoff

    def test_adjacency_matches_dense_on_the_lattice(self):
        # lattice distances sit on the cutoff at one bond length and at a0 / sqrt(2)
        bath = cli._resolve_realization(cli.RunConfig())
        for r_cutoff in (2.7 * bath.a0, np.sqrt(3) / 4 * bath.a0, bath.a0 / np.sqrt(2)):
            assert csr_sets(cce._proximity_adjacency(bath.positions, r_cutoff)) == \
                dense_adjacency(bath.positions, r_cutoff), r_cutoff / bath.a0

    def test_adjacency_memory(self):
        # 2000 spins: the whole difference array and distance matrix took 160 MB
        positions = np.random.default_rng(0).uniform(0.0, 20.0, size=(2000, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            indptr, indices = cce._proximity_adjacency(positions, 2.7)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(indices) == indptr[-1] > 0
        assert peak < 32 * 2 ** 20

    def test_max_order_clamped_to_bath_size(self):
        bath = chain_bath(2)
        cset = cce.enumerate_clusters(bath, 1e-6, 5)
        assert cset.max_order_M == 2

    def test_bad_order(self):
        with pytest.raises(cce.CCEError):
            cce.enumerate_clusters(chain_bath(2), 1e-9, 0)

    @pytest.mark.parametrize("bath, r_cutoff", [
        (cli._resolve_realization(cli.RunConfig()), 2.7 * SILICON_A0),
        (random_bath(np.random.default_rng(0), 9, spin=1.5, scale=0.5e-9), 0.8e-9),
        # three spins: the order-4 set is clamped to the bath size
        (chain_bath(3), 0.5e-9)], ids=["silicon", "spin-3/2", "clamped"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_prefix_is_the_lower_order_set(self, bath, r_cutoff, m):
        full = cce.enumerate_clusters(bath, r_cutoff, 4)
        prefix = full.up_to(m)
        assert_same_set(prefix, cce.enumerate_clusters(bath, r_cutoff, m))
        assert all(np.shares_memory(a, b) for a, b in zip(prefix.levels, full.levels))


class TestCombinationCoefficients:
    def test_complete_graph_inclusion_exclusion(self):
        # on a complete graph every subset is present; the recursion reduces to
        # inclusion-exclusion, whose net weight is known in closed form
        bath = random_bath(np.random.default_rng(2), 5, scale=0.2e-9)
        cset = cce.enumerate_clusters(bath, 1e-6, 3)
        coeffs = weight_dict(cce.combination_coefficients(cset))
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
        coeffs = weight_dict(cce.combination_coefficients(cset))
        assert coeffs == {(0,): 1, (1,): 1, (2,): 1}

    def test_sizes_without_clusters(self):
        # two pairs far apart: no triple or quadruple at order 4, and an
        # empty set gives no weights
        bath = bath_from_positions([[0, 0, 0], [0.3e-9, 0, 0], [5e-9, 0, 0],
                                    [5.3e-9, 0, 0], [10e-9, 0, 0]],
                                   species(), (0, 0, 1), DIAMOND_A0)
        cset = cce.enumerate_clusters(bath, 0.5e-9, 4)
        assert {len(c) for c in cset.clusters} == {1, 2}
        # the empty levels stay (0, k) arrays, with (0,) weight arrays
        assert [rows.shape for rows in cset.levels] == [(5, 1), (2, 2), (0, 3), (0, 4)]
        weights = cce.combination_coefficients(cset)
        assert [a.shape for a in weights.per_size] == [(5,), (2,), (0,), (0,)]
        coeffs = weight_dict(weights)
        assert coeffs == reference_coefficients(cset)
        assert coeffs == {(0, 1): 1, (2, 3): 1, (4,): 1}
        assert weight_dict(cce.combination_coefficients(cce.ClusterSet(3, ()))) == {}

    def test_keys_past_int64(self):
        # order 6 on 7 spins with every site index above 1448: n**6 > 2**63,
        # so a radix-n key of a 6-site row does not fit in int64
        bath = random_bath(np.random.default_rng(4), 7, scale=0.2e-9)
        small = cce.enumerate_clusters(bath, 1e-6, 6)
        assert len(by_size(small, 6)) == 7
        relabel = {v: 1449 + 1000 * v for v in range(7)}
        cset = cce.ClusterSet(6, tuple(np.vectorize(relabel.get)(rows) for rows in small.levels))
        coeffs = weight_dict(cce.combination_coefficients(cset))
        assert coeffs == reference_coefficients(cset)
        assert coeffs == {tuple(relabel[v] for v in c): a
                          for c, a in weight_dict(cce.combination_coefficients(small)).items()}


def reference_clusters(bath, r_cutoff, max_order):
    """Connected subsets of size <= max_order, from a bitmask over all 2^n
    subsets and a breadth-first search on the cutoff graph, in (size, lex)
    order."""
    pos = bath.positions
    n = len(pos)
    close = np.linalg.norm(pos[:, None] - pos[None], axis=-1) <= r_cutoff
    found = []
    for bits in range(1, 1 << n):
        sub = [i for i in range(n) if bits >> i & 1]
        if len(sub) > max_order:
            continue
        seen, todo = {sub[0]}, [sub[0]]
        while todo:
            i = todo.pop()
            for j in sub:
                if j not in seen and close[i, j]:
                    seen.add(j)
                    todo.append(j)
        if len(seen) == len(sub):
            found.append(tuple(sub))
    return tuple(sorted(found, key=lambda c: (len(c), c)))


def reference_links(clusters):
    """Proper subclusters of each cluster that are in the set, from a bitmask
    over its subsets, in (size, lex) order."""
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
    return links


def reference_coefficients(cset):
    """CCE weights from the symbolic subtraction recursion, clusters in
    increasing size, each Ctilde kept as a dict of raw-correlation weights."""
    links = reference_links(cset.clusters)
    vecs = {}
    total = defaultdict(int)
    for c in cset.clusters:
        vec = defaultdict(int)
        vec[c] = 1
        for s in links[c]:
            for k, v in vecs[s].items():
                vec[k] -= v
        vecs[c] = dict(vec)
        for k, v in vec.items():
            total[k] += v
    return {k: v for k, v in total.items() if v != 0}


class TestBookkeepingMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["random", "chain"]), st.integers(1, 9), st.integers(1, 5),
           st.floats(0.2, 2.0), st.integers(0, 2 ** 32 - 1))
    def test_clusters_and_coefficients(self, kind, n, order, cutoff_nm, seed):
        # cutoffs below the typical spacing leave the graph disconnected
        rng = np.random.default_rng(seed)
        if kind == "random":
            bath = random_bath(rng, n, scale=0.7e-9)
        else:
            x = np.cumsum(rng.uniform(0.2e-9, 1.0e-9, n))
            bath = bath_from_positions(np.c_[x, np.zeros((n, 2))], species(),
                                       (0, 0, 1), DIAMOND_A0)
        cset = cce.enumerate_clusters(bath, cutoff_nm * 1e-9, order)
        assert tuple(cset.clusters) == reference_clusters(bath, cutoff_nm * 1e-9, order)
        coeffs = weight_dict(cce.combination_coefficients(cset))
        assert coeffs == reference_coefficients(cset)
        assert list(coeffs) == [c for c in cset.clusters if c in coeffs]


def set_clusters(realization, r_cutoff, max_order):
    """The enumeration on neighbour sets and cluster tuples, each size a
    sorted set of the smaller size's tuples plus one neighbour each."""
    adj = csr_sets(cce._proximity_adjacency(realization.positions, r_cutoff))
    level = [(v,) for v in range(realization.n_spins)]
    clusters = list(level)
    for _ in range(min(max_order, realization.n_spins) - 1):
        level = sorted({tuple(sorted(c + (u,))) for c in level
                        for u in set().union(*(adj[v] for v in c)).difference(c)})
        clusters += level
    return tuple(clusters)


def set_coefficients(clusters):
    """The weights as a dict keyed by cluster tuples: each size's rows keyed
    in radix n, looked up by ``searchsorted`` from every larger size's column
    subsets, and the nonzero weights kept in set order."""
    sizes = [np.array(list(g), dtype=np.int64) for _, g in groupby(clusters, len)]
    n = 1 + max((int(c.max()) for c in sizes), default=0)
    done = []
    for small in reversed(sizes):
        radix = cce._radix(n, small.shape[1])
        keys, above = small @ radix, np.zeros(len(small), dtype=np.int64)
        for big, a in done:
            for cols in combinations(range(big.shape[1]), small.shape[1]):
                q = big[:, cols] @ radix
                at = np.searchsorted(keys, q).clip(max=len(keys) - 1)
                hit = keys[at] == q
                np.add.at(above, at[hit], a[hit])
        done.append((small, 1 - above))
    weights = [x for _, a in reversed(done) for x in a.tolist()]
    return {c: x for c, x in zip(clusters, weights) if x}


def assert_matches_sets(bath, r_cutoff, order):
    cset = cce.enumerate_clusters(bath, r_cutoff, order)
    assert cset.max_order_M == min(order, bath.n_spins)
    assert len(cset.levels) == cset.max_order_M
    for k, rows in enumerate(cset.levels, 1):
        assert rows.dtype == np.intp and rows.shape == (len(rows), k)
    clusters = set_clusters(bath, r_cutoff, order)
    assert tuple(cset.clusters) == clusters
    weights = cset.weights
    assert [a.shape for a in weights.per_size] == [(len(rows),) for rows in cset.levels]
    coeffs = set_coefficients(clusters)
    assert weight_dict(weights) == coeffs and list(weight_dict(weights)) == list(coeffs)
    return cset, coeffs


class TestArraysMatchSets:
    # uniform baths at ~3.5 neighbours a site, from empty to 2000 spins
    @pytest.mark.parametrize("n,order", [(0, 3), (1, 3), (2, 4), (9, 5), (150, 4),
                                         (2000, 4)])
    def test_random_baths(self, n, order):
        rng = np.random.default_rng(n)
        side = 20.0 * (n / 2000) ** (1 / 3)
        bath = bath_from_positions(rng.uniform(0.0, side, size=(n, 3)) * 1e-10,
                                   species(), (0, 0, 1), DIAMOND_A0)
        cset, _ = assert_matches_sets(bath, 1.5e-10, order)
        if n == 2000:
            assert len(cset.levels[3]) > 10 ** 4

    @pytest.mark.parametrize("order,count", [(2, 603), (3, 3528), (4, 24080), (5, 178038)])
    def test_default_bath(self, order, count):
        bath = cli._resolve_realization(cli.RunConfig())
        cset, coeffs = assert_matches_sets(bath, 2.7 * bath.a0, order)
        assert len(cset.clusters) == count
        if order <= 3:
            assert coeffs == reference_coefficients(cset)

    def test_keys_past_int64(self):
        # 1500 sites in a chain of nearest neighbours at order 6: n**6 > 2**63,
        # so the radix-n keys of the 6-site rows are Python ints
        bath = chain_bath(1500, spacing=0.05e-9)
        assert cce._radix(1500, 6).dtype == object
        cset, _ = assert_matches_sets(bath, 0.07e-9, 6)
        assert [len(rows) for rows in cset.levels] == [1500, 1499, 1498, 1497, 1496, 1495]

    def test_empty_levels_stay_arrays(self):
        # no two sites within the cutoff: every level above the first is empty
        bath = chain_bath(4, spacing=2e-9)
        cset, coeffs = assert_matches_sets(bath, 0.5e-9, 4)
        assert [rows.shape for rows in cset.levels] == [(4, 1), (0, 2), (0, 3), (0, 4)]
        assert [rows.shape for rows, _ in cset.weights.nonzero()] == \
            [(4, 1), (0, 2), (0, 3), (0, 4)]
        assert [rows.shape for rows in cset.up_to(2).levels] == [(4, 1), (0, 2)]

    def test_perfbench_shapes(self):
        # the shapes perfbench/spans.py counts under --trace 1: the set's
        # clusters, and the weights read as the clusters of nonzero weight
        # (its count, and each cluster's size). The views build nothing until
        # they are iterated
        bath = cli._resolve_realization(cli.RunConfig())
        cset = cce.enumerate_clusters(bath, 2.7 * bath.a0, 3)
        weights = cce.combination_coefficients(cset)
        tracemalloc.start()
        try:
            counts = len(cset.clusters), len(weights)
            held = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == (3528, 3527) and held < 2 ** 10
        # one cluster, the site 10, has weight 0
        assert set(cset.clusters) - set(weights) == {(10,)}
        assert [len(c) for c in weights] == [1] * 116 + [2] * 486 + [3] * 2925
        assert list(weights) == list(weight_dict(weights))
        assert len(list(cset.clusters)) == 3528


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
        c = cce.cluster_correlation((0, 1), bath, mask=TermMask(enable_CD=False, enable_EF=False),
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
                   for c, a in weight_dict(cce.combination_coefficients(cset)).items())
        assert np.abs(fast.values - slow.real).max() < 1e-10 * abs(slow[0])

    def test_partial_last_chunk_matches_per_cluster_path(self):
        # spin 3/2 triples (dim 64) on 2048 samples are chunked 32 at a time,
        # so the 35 triples of a complete 7-spin bath take one full chunk and
        # a partial one that uses only the first rows of the trace buffers
        bath = random_bath(np.random.default_rng(21), 7, spin=1.5)
        t = cce.time_grid(40.0, 2048)
        assert 2 ** 22 // (64 * len(t)) == 32
        cset = cce.enumerate_clusters(bath, 1e-6, 3)
        assert len(by_size(cset, 3)) == 35
        fast = cce.compute_correlation(bath, cset, times_tbar=t)
        slow = sum(a * cce.cluster_correlation(c, bath, times_tbar=t)
                   for c, a in weight_dict(cce.combination_coefficients(cset)).items())
        assert np.abs(fast.values - slow.real).max() < 1e-10 * abs(slow[0])

    def test_trace_memory_is_tiled(self):
        # order 2 on 4096 samples: 256 pairs (d = 4) per chunk, where P and Q
        # spanning the grid would take 64 MiB each
        bath = random_bath(np.random.default_rng(25), 40)
        cset = cce.enumerate_clusters(bath, 1e-6, 2)
        assert len(by_size(cset, 2)) > 256
        t = cce.time_grid(200.0, 4096)
        tracemalloc.start()
        try:
            cce.compute_correlation(bath, cset, times_tbar=t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_metadata(self):
        bath = random_bath(np.random.default_rng(22), 3)
        cset = cce.enumerate_clusters(bath, 1e-6, 2)
        s = cce.compute_correlation(bath, cset, times_tbar=cce.time_grid(10, 64))
        assert s.metadata["order"] == 2
        assert s.metadata["n_spins"] == 3
        assert s.metadata["max_imag"] < 1e-10 * abs(s.values[0])

    @pytest.mark.parametrize("times", [np.linspace(0.0, 3.0, 40) ** 2,
                                       np.linspace(1.0, 11.0, 64), np.zeros(1),
                                       np.array([0.0, 1.0, np.nan, 3.0]),
                                       np.array([0.0, np.inf, np.inf])],
                             ids=["non-uniform", "offset", "one-sample", "nan", "inf"])
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


def reference_phase_table(freqs, times, out):
    """The running-product phase table as one call over the whole grid."""
    out[...] = np.exp(1j * freqs * ((times[1] - times[0]) + 0j))[..., None]
    out[..., 0] = np.exp(1j * freqs * times[0])
    return np.cumprod(out, axis=-1, out=out)


def reference_group_correlation(clusters, weights, realization, c_hf, mask,
                                times_tbar, check_q):
    """The trace path before the real GEMM: three padded buffers, conj(P) by
    ``np.conjugate`` and a complex ``np.matmul``. Hands each chunk's W and Q
    to ``check_q``."""
    dim = cluster_dim(realization.species.spin_I, clusters.shape[1])
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
        b = bath_operator_diagonal(cl, realization)
        Bp = np.einsum("ckm,ck,ckn->cmn", V.conj(), b, V, optimize=True)
        W = (np.abs(Bp) ** 2) * (w / dim)[:, None, None]
        P = reference_phase_table(E / realization.A_bar, times_tbar, P_buf[:nc, :, :nt])
        Pc = np.conjugate(P, out=Pc_buf[:nc, :, :nt])
        Q = np.matmul(W, Pc, out=Q_buf[:nc, :, :nt])
        check_q(W, Q)
        out += np.einsum("cmt,cmt->t", P, Q, optimize=True)
    return out


def chunk_wide_group_correlation(clusters, weights, realization, c_hf, mask,
                                 times_tbar):
    """The trace path before the time axis was tiled: the eigen stage on the
    whole chunk, P and Q in padded buffers spanning the grid, the real GEMM in
    ~1 MiB sub-blocks and one einsum per chunk."""
    dim = cluster_dim(realization.species.spin_I, clusters.shape[1])
    nt = len(times_tbar)
    out = np.zeros(nt, dtype=complex)
    chunk = max(1, int(2 ** 22 / (dim * nt)))
    block = max(1, 2 ** 16 // (dim * nt))
    shape = (min(chunk, len(clusters)), dim, nt | 1)
    P_buf, Q_buf = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    for lo in range(0, len(clusters), chunk):
        cl = clusters[lo:lo + chunk]
        nc = len(cl)
        E, V = np.linalg.eigh(cluster_hamiltonians(cl, realization, c_hf, mask))
        b = bath_operator_diagonal(cl, realization)
        Bp = np.einsum("ckm,ck,ckn->cmn", V.conj(), b, V, optimize=True)
        W = (np.abs(Bp) ** 2) * (weights[lo:lo + chunk] / dim)[:, None, None]
        P = reference_phase_table(E / realization.A_bar, times_tbar, P_buf[:nc, :, :nt])
        Q = Q_buf[:nc, :, :nt]
        for s in range(0, nc, block):
            Ps, Qs = P[s:s + block], Q[s:s + block]
            np.matmul(W[s:s + block], Ps.view(float), out=Qs.view(float))
            np.negative(Qs.imag, out=Qs.imag)
        out += np.einsum("cmt,cmt->t", P, Q, optimize=True)
    return out


def group_correlation(clusters, weights, realization, c_hf, mask, times_tbar):
    """The weighted trace of one size's clusters, through the eigen stage's
    stream and the trace consumer."""
    blocks = cce._line_blocks([clusters], realization, c_hf, mask, len(times_tbar))
    return cce._trace(blocks, weights, realization.A_bar, times_tbar)


def group_inputs(spin, size, n_spins, n_clusters):
    """A random bath with its first ``n_clusters`` clusters of ``size`` and
    integer weights in [-3, 3], zeros included."""
    rng = np.random.default_rng(30 + size)
    bath = random_bath(rng, n_spins, spin=spin)
    clusters = np.array(list(combinations(range(n_spins), size))[:n_clusters])
    # a zero weight leaves every row of W zero
    weights = rng.integers(-3, 4, len(clusters)).astype(float)
    return bath, clusters, weights


class TestTraceMatchesReference:
    # 223 clusters of dimension d on nt samples: a chunk of 218 clusters, then
    # a partial chunk of 5, each traced over 75 tiles: 16 samples wide at
    # K = 218 * 16 rows, 4 wide at K = 218 * 64
    @pytest.mark.parametrize("spin,size,n_spins,nt,mask", [
        (0.5, 4, 11, 1200, TermMask()),
        (1.5, 3, 13, 300, TermMask()),
        (0.5, 4, 11, 1200, TermMask(enable_CD=False, enable_EF=False)),
    ], ids=["spin-half-size-4", "spin-3/2-size-3", "secular"])
    def test_bit_identical_to_complex_gemm(self, monkeypatch, spin, size, n_spins,
                                          nt, mask):
        dim = int(2 * spin + 1) ** size
        assert int(2 ** 22 / (dim * nt)) == 218
        bath, clusters, weights = group_inputs(spin, size, n_spins, 223)
        t = cce.time_grid(60.0, nt)

        tiles = []
        vecdot = np.vecdot

        def keep_q(a, b, *args, **kwargs):
            # a tile's trace conjugates its first operand, W @ P as (K, w)
            tiles.append(np.conj(a))
            return vecdot(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "vecdot", keep_q)
        got = group_correlation(clusters, weights, bath, 0.5, mask, t)
        monkeypatch.undo()
        qs = []                          # each chunk's (K, nt) Q, tile by tile
        for q in tiles:
            if qs and qs[-1].shape[1] < nt:
                qs[-1] = np.concatenate([qs[-1], q], axis=1)
            else:
                qs.append(q)
        qs = [q.reshape(-1, dim, nt) for q in qs]
        assert len(tiles) == 2 * 75 and [len(q) for q in qs] == [218, 5]

        zeros = []

        def check_q(W, Q):
            # equal in value; the sign of a zero may differ (Im Q at t = 0)
            assert np.array_equal(qs.pop(0), Q)
            zeros.append((W[(W != 0).any(axis=(1, 2))] == 0).mean())

        ref = reference_group_correlation(clusters, weights, bath, 0.5, mask, t, check_q)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert not qs
        # the secular Hamiltonian keeps total Mz, so W is exactly zero across
        # Mz sectors even where the cluster weight is not
        assert (min(zeros) > 0.1) == (mask == TermMask(enable_CD=False, enable_EF=False))


class TestTiledTraceMatchesReference:
    # every case has K of 4160 to 4480 rows and so 12-sample tiles: nt = 33,
    # 256, 1000 and 1001 end in a merged tile of 21, 16, 16 and 17 samples;
    # below 24 the grid is one tile. At nt = 1000 both sizes end in a partial
    # chunk (262 clusters of d = 16, 65 of d = 64), and each full
    # chunk in a remainder of the eigen sub-blocks (128 and 8 clusters) that
    # joins the last sub-block: 6 clusters, and a single cluster
    @pytest.mark.parametrize("nt", [2, 5, 15, 16, 17, 33, 36, 256, 1000, 1001])
    @pytest.mark.parametrize("spin,size,n_spins,n_clusters,mask", [
        (0.5, 4, 11, 270, TermMask()),
        (1.5, 3, 13, 70, TermMask()),
        (0.5, 4, 11, 270, TermMask(enable_CD=False, enable_EF=False)),
    ], ids=["spin-half-size-4", "spin-3/2-size-3", "secular"])
    def test_bit_identical_to_chunk_wide_trace(self, spin, size, n_spins, n_clusters,
                                              mask, nt):
        dim = int(2 * spin + 1) ** size
        chunk, sub = int(2 ** 22 / (dim * nt)), 2 ** 15 // dim ** 2
        if nt == 1000:
            assert n_clusters % chunk and chunk % sub in (1, 6)
        bath, clusters, weights = group_inputs(spin, size, n_spins, n_clusters)
        t = cce.time_grid(60.0, nt)
        got = group_correlation(clusters, weights, bath, 0.5, mask, t)
        ref = chunk_wide_group_correlation(clusters, weights, bath, 0.5, mask, t)
        if nt % 4 == 0 or nt < 32:
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        else:
            # SkylakeX dgemm edge kernels round the last samples of a tile
            # narrower than the grid otherwise
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_full_chunk_at_k_16384_bit_identical_to_chunk_wide_trace(self):
        # 4100 spin-1/2 pairs on 256 samples: a chunk of 4096 (K = 16 384
        # rows, 4-sample tiles) and a partial chunk of 4
        bath, clusters, weights = group_inputs(0.5, 2, 92, 4100)
        t = cce.time_grid(60.0, 256)
        assert 2 ** 22 // (4 * len(t)) == 4096
        got = group_correlation(clusters, weights, bath, 0.5, TermMask(), t)
        ref = chunk_wide_group_correlation(clusters, weights, bath, 0.5, TermMask(), t)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_full_chunk_at_k_16384_fits_the_cache_budget(self):
        # 4096 spin-1/2 pairs on 256 samples: P and Q of (4096, 4, 5) complex
        # take 2.5 MiB (6.4 MiB traced in all); at 16-sample tiles P and Q
        # alone would take 8.5 MiB
        bath, clusters, weights = group_inputs(0.5, 2, 92, 4096)
        t = cce.time_grid(60.0, 256)
        tracemalloc.start()
        try:
            group_correlation(clusters, weights, bath, 0.5, TermMask(), t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_odd_grid_memory_matches_even_grid(self):
        # an odd grid is tiled like an even one: no buffer spans its samples
        bath, clusters, weights = group_inputs(0.5, 4, 11, 270)
        peaks = []
        for nt in (1000, 1001):
            t = cce.time_grid(60.0, nt)
            tracemalloc.start()
            try:
                group_correlation(clusters, weights, bath, 0.5, TermMask(), t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_chunk_buffers_are_reused(self):
        # spin 3/2 pairs (d = 16) on 64 samples: chunks of 4096 clusters,
        # whose W takes 8 MiB. Two and a half chunks peak less than a quarter
        # of that above one, so no chunk's W is held while the next one's is
        # allocated
        bath, clusters, weights = group_inputs(1.5, 2, 145, 10240)
        t = cce.time_grid(60.0, 64)
        assert 2 ** 22 // (16 * len(t)) == 4096
        peaks = []
        for n in (4096, 10240):
            tracemalloc.start()
            try:
                group_correlation(clusters[:n], weights[:n], bath, 0.5, TermMask(), t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 * 2 ** 20

    def test_large_clusters_bit_identical_to_chunk_wide_trace(self):
        # d = 256 leaves 2**15 / d**2 = 0 clusters per sub-block; blocks of two
        # keep the bits, since a one-cluster stack assembles other ones
        bath, clusters, weights = group_inputs(1.5, 4, 8, 5)
        t = cce.time_grid(60.0, 64)
        got = group_correlation(clusters, weights, bath, 0.5, TermMask(), t)
        ref = chunk_wide_group_correlation(clusters, weights, bath, 0.5, TermMask(), t)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestLineBlocks:
    # 256 spin-3/2 triples on 256 samples make one full chunk of d = 64, 512
    # make two. A chunk's E, W and two (256, 64, 5) tile buffers take 10.6
    # MiB; the eigen stage adds one sub-block of 8 clusters (512 KiB per
    # complex stack). Nothing of a sub-block is held while the trace runs, and
    # nothing of the trace but E and W while the next chunk is solved
    @pytest.mark.parametrize("n_spins,n_clusters", [(13, 256), (16, 512)],
                             ids=["one-chunk", "two-chunks"])
    def test_full_d64_chunk_holds_little_beyond_its_buffers(self, n_spins, n_clusters):
        bath, clusters, weights = group_inputs(1.5, 3, n_spins, n_clusters)
        t = cce.time_grid(60.0, 256)
        assert 2 ** 22 // (64 * len(t)) == 256 and len(clusters) == n_clusters
        buffers = 256 * 64 * 8 + 256 * 64 * 64 * 8 + 2 * 256 * 64 * 5 * 16
        tracemalloc.start()
        try:
            group_correlation(clusters, weights, bath, 0.5, TermMask(), t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= buffers + 2 ** 20

    def test_one_pass_feeds_two_consumers(self):
        # spin 3/2 up to triples on 1000 samples: chunks of 65 triples (two
        # of them) and of 262 pairs, so the buffers of a size are reused
        bath = random_bath(np.random.default_rng(12), 10, spin=1.5)
        cset = cce.enumerate_clusters(bath, 1e-6, 3)
        t = cce.time_grid(60.0, 1000)
        rng = np.random.default_rng(5)
        weights = [rng.integers(-3, 4, cset.n_clusters).astype(float) for _ in range(2)]

        def stream():
            return cce._line_blocks(cset.levels, bath, 0.5, TermMask(), len(t))

        # each consumer scales its blocks in place: each takes its own copy
        copies = [[], []]
        for rows, E, B2 in stream():
            for kept in copies:
                kept.append((rows.copy(), E.copy(), B2.copy()))
        assert len(copies[0]) == 4 and [len(r) for r, _, _ in copies[0]] == [10, 45, 65, 55]
        for kept, w in zip(copies, weights):
            shared = cce._trace(iter(kept), w, bath.A_bar, t)
            alone = cce._trace(stream(), w, bath.A_bar, t)
            assert np.array_equal(shared.view(np.uint64), alone.view(np.uint64))

    def test_total_adds_the_sizes_sums_in_order(self):
        # each size's chunks sum apart, and the total adds those sums from
        # zero: a running sum over every chunk rounds otherwise
        bath = random_bath(np.random.default_rng(12), 10, spin=1.5)
        cset = cce.enumerate_clusters(bath, 1e-6, 3)
        t = cce.time_grid(60.0, 1000)
        got = cce.compute_correlation(bath, cset, 0.5, TermMask(), times_tbar=t)
        total = np.zeros(len(t), dtype=complex)
        for size in (1, 2, 3):
            coeffs = {c: a for c, a in weight_dict(cset.weights).items() if len(c) == size}
            total += group_correlation(np.array(list(coeffs)), np.array(list(coeffs.values()),
                                                                        dtype=float),
                                       bath, 0.5, TermMask(), t)
        assert np.array_equal(got.values.view(np.uint64), total.real.view(np.uint64))


class TestPhaseTable:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_exp(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(3, 4))
        t = np.linspace(0.0, 37.0, 200)
        got = cce._phase_table(np.exp(1j * f * (t[1] - t[0])), np.exp(1j * f * t[0]),
                               np.empty((3, 4, len(t)), dtype=complex))
        ref = np.exp(1j * f[..., None] * t)
        assert np.abs(got - ref).max() < 1e-9

    # tiles of one and two samples continue from the carry column at 17 and
    # 18 samples; 2 and 3 are one short tile
    @pytest.mark.parametrize("nt", [2, 3, 17, 18, 200, 201])
    def test_padded_out_is_bit_identical(self, nt):
        times = np.linspace(0.0, 37.0, nt)
        f = np.random.default_rng(8).normal(size=(3, 4))
        buf = np.empty((3, 4, len(times) | 1), dtype=complex)
        got = reference_phase_table(f, times, buf[:, :, :len(times)])
        assert np.shares_memory(got, buf)
        ref = reference_phase_table(f, times, np.empty((3, 4, len(times)), dtype=complex))
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        # 16-sample tiles, each continued from a column of the same buffer
        step, first = np.exp(1j * f * ((times[1] - times[0]) + 0j)), np.exp(1j * f * times[0])
        for t0 in range(0, len(times), 16):
            o = int(t0 > 0)
            tile = cce._phase_table(step, first, buf[:, :, :o + min(16, len(times) - t0)])[..., o:]
            first = tile[..., -1]
            assert np.array_equal(tile.view(np.uint64), ref[..., t0:t0 + 16].view(np.uint64))


class TestSeriesIO:
    def test_round_trip(self, tmp_path):
        t = cce.time_grid(10.0, 64)
        v = np.cos(t)
        s = cce.CorrelationSeries(t, v, {"A_bar": 1.5e7, "order": 2, "mode": "cce",
                                         "normalized": False})
        p = tmp_path / "series.csv"
        cce.save_series(p, s)
        back = cce.load_series(p)
        assert np.allclose(back.times_tbar, t, atol=0, rtol=1e-15)
        assert np.allclose(back.values, v, atol=0, rtol=1e-15)
        assert back.metadata["A_bar"] == pytest.approx(1.5e7)
        assert back.metadata["order"] == 2
        assert back.metadata["mode"] == "cce"
        assert back.metadata["normalized"] is False

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
            lattice.write_rows(fh, lattice.key_cells(np.arange(n) * 0.0), values)
        with pytest.raises(cce.CCEError, match="time grid"):
            cce.load_series(p)
