from itertools import combinations, product

import pytest

from covpkit import (
    CostTensor,
    InputError,
    SizeLimitError,
    brute_force_oracle,
    certificate_reconstructs,
    cycle_components,
    matching_covp,
    mst_covp,
    sp_directed_covp,
    sp_undirected_covp,
    tsp_covp,
    weighted_graph,
)
from covpkit.graphs import (
    cycle_components_pairwise,
    is_maximum_matching,
    is_round_trip,
    is_simple_path,
    is_spanning_tree,
    maximum_matchings,
    simple_paths,
    spanning_trees,
)

from conftest import random_scalar


def complete_graph(n, weight_fn, directed=False):
    if directed:
        edges = [(i, j, weight_fn(i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    else:
        edges = [(i, j, weight_fn(i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return weighted_graph(n, edges, directed=directed)


class TestGraphValidation:
    def test_self_loop(self):
        with pytest.raises(InputError):
            weighted_graph(3, [(1, 1, 0)])

    def test_parallel(self):
        with pytest.raises(InputError):
            weighted_graph(3, [(1, 2, 0), (2, 1, 1)])

    def test_out_of_range(self):
        with pytest.raises(InputError):
            weighted_graph(2, [(1, 3, 0)])


class TestCycleComponents:
    def test_triangle(self):
        g = weighted_graph(3, [(1, 2, 0), (1, 3, 0), (2, 3, 0)])
        assert cycle_components(g) == [[(1, 2), (1, 3), (2, 3)]]

    def test_path_all_bridges(self):
        g = weighted_graph(3, [(1, 2, 0), (2, 3, 0)])
        assert cycle_components(g) == [[(1, 2)], [(2, 3)]]

    def test_bowtie_two_blocks(self):
        g = weighted_graph(5, [(1, 2, 0), (1, 3, 0), (2, 3, 0), (3, 4, 0), (3, 5, 0), (4, 5, 0)])
        assert cycle_components(g) == [
            [(1, 2), (1, 3), (2, 3)],
            [(3, 4), (3, 5), (4, 5)],
        ]

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(60):
            n = rng.randint(2, 7)
            possible = list(combinations(range(1, n + 1), 2))
            count = rng.randint(1, len(possible))
            chosen = rng.sample(possible, count)
            g = weighted_graph(n, [(u, v, 0) for u, v in chosen])
            assert cycle_components(g) == cycle_components_pairwise(g)


class TestMst:
    def test_equal_triangle(self):
        g = complete_graph(3, lambda i, j: 7)
        report = mst_covp(g)
        assert report.holds
        assert certificate_reconstructs(report, g)

    def test_unequal_triangle(self):
        g = weighted_graph(3, [(1, 2, 1), (1, 3, 1), (2, 3, 2)])
        report = mst_covp(g)
        assert not report.holds
        t1, t2 = report.witness
        assert is_spanning_tree(g, t1) and is_spanning_tree(g, t2)
        assert sorted(report.witness_values) == [2, 3]

    def test_bridges_free(self):
        g = weighted_graph(3, [(1, 2, 4), (2, 3, 9)])
        report = mst_covp(g)
        assert report.holds and report.common_value == 13

    def test_bowtie_differing_blocks(self):
        edges = [(1, 2, 5), (1, 3, 5), (2, 3, 5), (3, 4, 8), (3, 5, 8), (4, 5, 8)]
        report = mst_covp(weighted_graph(5, edges))
        assert report.holds

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            mst_covp(weighted_graph(4, [(1, 2, 0), (3, 4, 0)]))

    def test_k30_one_heavier_edge(self):
        n = 30
        g = complete_graph(n, lambda i, j: 6 if (i, j) == (2, n) else 5)
        report = mst_covp(g)
        assert not report.holds
        weights = g.weight_map()
        t1, t2 = report.witness
        assert is_spanning_tree(g, t1) and is_spanning_tree(g, t2)
        values = tuple(sum(weights[e] for e in t) for t in report.witness)
        assert values == report.witness_values
        assert sorted(values) == [5 * (n - 1), 5 * (n - 1) + 1]


class TestSpUndirected:
    @staticmethod
    def pattern_graph(n, a, b):
        def wf(i, j):
            if i == 1 and j == n:
                return a + b
            if i == 1:
                return a
            if j == n:
                return b
            return 0

        return complete_graph(n, wf)

    def test_pattern_holds(self):
        g = self.pattern_graph(4, 2, 3)
        report = sp_undirected_covp(g)
        assert report.holds and report.common_value == 5
        assert certificate_reconstructs(report, g)
        oracle = brute_force_oracle("sp-undir", g)
        assert oracle.holds and oracle.common_value == 5

    def test_all_zero_n3(self):
        g = complete_graph(3, lambda i, j: 0)
        report = sp_undirected_covp(g)
        assert report.holds and report.common_value == 0

    def test_interior_edge_breaks(self):
        g = self.pattern_graph(4, 0, 0)
        edges = [(u, v, 1 if (u, v) == (2, 3) else w) for u, v, w in g.edges]
        g2 = weighted_graph(4, edges)
        report = sp_undirected_covp(g2)
        assert not report.holds
        p1, p2 = report.witness
        assert is_simple_path(g2, p1) and is_simple_path(g2, p2)
        assert report.witness_values[0] != report.witness_values[1]

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            sp_undirected_covp(complete_graph(3, lambda i, j: -1))

    def test_incomplete_rejected(self):
        with pytest.raises(InputError):
            sp_undirected_covp(weighted_graph(3, [(1, 2, 0), (2, 3, 0)]))


class TestSpDirected:
    def test_telescoping(self):
        g = weighted_graph(3, [(1, 2, 1), (2, 3, 3), (1, 3, 4)], directed=True)
        report = sp_directed_covp(g)
        assert report.holds and report.certificate["potentials"] == (0, 1, 4)

    def test_all_zero(self):
        g = complete_graph(4, lambda i, j: 0, directed=True)
        report = sp_directed_covp(g)
        assert report.holds and report.certificate["potentials"] == (0, 0, 0, 0)

    def test_violation(self):
        g = weighted_graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 0)], directed=True)
        report = sp_directed_covp(g)
        assert not report.holds
        assert sorted(report.witness_values) == [0, 2]
        for path in report.witness:
            assert is_simple_path(g, path)

    def test_malformed_edge_set(self):
        with pytest.raises(InputError):
            sp_directed_covp(weighted_graph(3, [(1, 2, 0)], directed=True))


class TestMatching:
    def test_even_pattern(self):
        a = [1, 2, 3, 4]
        g = complete_graph(4, lambda i, j: a[i - 1] + a[j - 1])
        report = matching_covp(g)
        assert report.holds and report.common_value == 10
        assert certificate_reconstructs(report, g)

    def test_odd_uniform(self):
        g = complete_graph(5, lambda i, j: 6)
        report = matching_covp(g)
        assert report.holds and report.common_value == 12

    def test_even_failure(self):
        g = complete_graph(4, lambda i, j: 1 if (i, j) == (1, 2) else 0)
        report = matching_covp(g)
        assert not report.holds
        m1, m2 = report.witness
        assert is_maximum_matching(g, m1) and is_maximum_matching(g, m2)
        assert sorted(report.witness_values) == [0, 1]

    def test_odd_failure(self):
        g = complete_graph(5, lambda i, j: 1 if (i, j) == (1, 2) else 0)
        report = matching_covp(g)
        assert not report.holds
        for m in report.witness:
            # maximum cardinality on odd n leaves one vertex exposed
            assert len(m) == 2
        assert report.witness_values[0] != report.witness_values[1]

    def test_n2(self):
        g = complete_graph(2, lambda i, j: 5)
        assert matching_covp(g).holds


class TestTsp:
    def test_sum_matrix(self):
        tensor = CostTensor.from_function((3, 3), lambda t: t[0] + 10 * t[1])
        report = tsp_covp(tensor)
        assert report.holds
        assert certificate_reconstructs(report, tensor)

    def test_zero(self):
        assert tsp_covp(CostTensor.zeros((4, 4))).holds

    def test_diagonal_ignored(self):
        tensor = CostTensor.from_entries((3, 3), {(1, 1): 99, (2, 2): -5})
        assert tsp_covp(tensor).holds

    def test_single_entry_fails(self):
        tensor = CostTensor.from_entries((4, 4), {(1, 2): 1})
        report = tsp_covp(tensor)
        assert not report.holds
        t1, t2 = report.witness
        assert is_round_trip(4, t1) and is_round_trip(4, t2)
        assert sorted(report.witness_values) == [0, 1]

    def test_non_sum_witness_n50(self):
        n = 50
        entries = {(i, j): i + 2 * j for i in range(1, n + 1) for j in range(1, n + 1)}
        entries[(n, n - 1)] += 1
        tensor = CostTensor.from_entries((n, n), entries)
        report = tsp_covp(tensor)
        assert not report.holds
        t1, t2 = report.witness
        assert is_round_trip(n, t1) and is_round_trip(n, t2)
        values = tuple(
            sum(tensor.at((x, y)) for x, y in zip(t, t[1:] + t[:1])) for t in report.witness
        )
        assert values == report.witness_values and values[0] != values[1]

    def test_too_small(self):
        with pytest.raises(InputError):
            tsp_covp(CostTensor.zeros((2, 2)))


class TestOracleAgreement:
    KINDS = ("mst", "sp-undir", "sp-dir", "matching", "tsp")

    @staticmethod
    def _instance(kind, n, weight_fn):
        if kind == "tsp":
            data = []
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    data.append(weight_fn(i, j) if i != j else 0)
            return CostTensor((n, n), tuple(data))
        return complete_graph(n, weight_fn, directed=(kind == "sp-dir"))

    @staticmethod
    def _check(kind, instance):
        if kind == "mst":
            return mst_covp(instance)
        if kind == "sp-undir":
            return sp_undirected_covp(instance)
        if kind == "sp-dir":
            return sp_directed_covp(instance)
        if kind == "matching":
            return matching_covp(instance)
        return tsp_covp(instance)

    @pytest.mark.parametrize("kind", KINDS)
    def test_exhaustive_small_grid(self, kind):
        # weights over {0,1,2} on K_4 (K_3 for the asymmetric trip case)
        n = 4
        pairs = list(combinations(range(1, n + 1), 2))
        for weights in product((0, 1, 2), repeat=len(pairs)):
            table = dict(zip(pairs, weights))
            instance = self._instance(kind, n, lambda i, j: table[tuple(sorted((i, j)))])
            report = self._check(kind, instance)
            oracle = brute_force_oracle(kind, instance)
            assert report.holds == oracle.holds, (kind, weights)
            if not report.holds:
                assert report.witness is not None, (kind, weights)
                v1, v2 = report.witness_values
                assert v1 != v2

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_rational(self, kind, rng):
        for _ in range(60):
            n = rng.randint(3, 6)
            table = {}

            def wf(i, j):
                key = (i, j) if kind in ("sp-dir", "tsp") else tuple(sorted((i, j)))
                if key not in table:
                    value = random_scalar(rng, span=3)
                    if kind == "sp-undir":
                        value = abs(value)
                    table[key] = value
                return table[key]

            instance = self._instance(kind, n, wf)
            report = self._check(kind, instance)
            oracle = brute_force_oracle(kind, instance)
            assert report.holds == oracle.holds
            if report.holds and report.certificate is not None:
                assert certificate_reconstructs(report, instance)
            if not report.holds:
                assert report.witness is not None
                v1, v2 = report.witness_values
                assert v1 != v2


class TestOracleBounds:
    def test_tree_count_k4(self):
        g = complete_graph(4, lambda i, j: 0)
        assert len(spanning_trees(g)) == 16  # Cayley: 4^2

    def test_path_count_k4(self):
        g = complete_graph(4, lambda i, j: 0)
        assert len(simple_paths(g)) == 5  # 1-4, 1-2-4, 1-3-4, 1-2-3-4, 1-3-2-4

    def test_matching_count_k4(self):
        g = complete_graph(4, lambda i, j: 0)
        assert len(maximum_matchings(g)) == 3

    def test_size_guard(self):
        g = complete_graph(8, lambda i, j: 0)
        with pytest.raises(SizeLimitError):
            spanning_trees(g)
