import itertools
import random

import pytest

from ddcrit.domination import all_minimum_dds, dds_of_size, dds_walk, gamma_xk, is_k_tuple_dominating
from ddcrit.graphs import Graph, add_edge, is_connected
from ddcrit.constructions import h_r33
from oracles import brute_all_minimum_dds, brute_min_k_tuple_size, brute_near_dds


def test_is_k_tuple_dominating():
    k4 = Graph.complete(4)
    assert is_k_tuple_dominating(k4, {0, 1}, 2)
    p4 = Graph.path(4)
    assert not is_k_tuple_dominating(p4, {0, 1, 2}, 2)  # vertex 3 covered once
    with pytest.raises(ValueError):
        is_k_tuple_dominating(k4, {0}, 0)


def test_gamma2_small_values():
    for n in range(2, 7):
        assert gamma_xk(Graph.complete(n), 2).size == 2
    assert gamma_xk(Graph.path(4), 2).size == 4
    assert gamma_xk(Graph.cycle(4), 2).size == 3
    assert gamma_xk(Graph.cycle(5), 2).size == 4
    assert gamma_xk(h_r33(3), 2).size == 4


def test_gamma_infeasible_is_a_result_not_a_number():
    g = Graph.from_edges(3, [(1, 2)])  # isolated vertex
    result = gamma_xk(g, 2)
    assert not result.feasible
    assert result.size is None and result.witness is None
    # 1-tuple domination is still fine
    assert gamma_xk(g, 1).size == 2


def test_witness_revalidates():
    for g in (Graph.path(4), Graph.cycle(5), h_r33(3), Graph.complete(6)):
        for k in (1, 2):
            result = gamma_xk(g, k)
            assert result.feasible
            assert is_k_tuple_dominating(g, result.witness.vertices, k)
            assert len(result.witness.vertices) == result.size
            closed = [g.rows[v] | (1 << v) for v in range(g.n)]
            mask = sum(1 << v for v in result.witness.vertices)
            assert result.witness.coverage == tuple(
                (closed[v] & mask).bit_count() for v in range(g.n)
            )


def test_gamma_matches_oracle_small(graphs_small):
    for n in range(1, 7):
        for g in graphs_small[n]:
            for k in (1, 2):
                expected = brute_min_k_tuple_size(g, k)
                result = gamma_xk(g, k)
                if expected is None:
                    assert not result.feasible
                else:
                    assert result.feasible and result.size == expected


def test_ordinary_domination_matches_oracle_n7(graphs_small):
    for g in graphs_small[7]:
        assert gamma_xk(g, 1).size == brute_min_k_tuple_size(g, 1)


def test_gamma_monotone_in_k(graphs_small):
    for g in graphs_small[6]:
        sizes = []
        for k in (1, 2, 3):
            result = gamma_xk(g, k)
            sizes.append(result.size if result.feasible else None)
        for a, b in zip(sizes, sizes[1:]):
            if a is not None and b is not None:
                assert a <= b


def test_gamma2_edge_monotonicity(graphs_small):
    for g in graphs_small[5]:
        base = gamma_xk(g, 2)
        if not base.feasible:
            continue
        for u, v in g.non_edges():
            after = gamma_xk(add_edge(g, u, v), 2)
            assert after.feasible and after.size <= base.size


def test_all_minimum_dds_examples():
    assert all_minimum_dds(Graph.complete(3)) == [
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    ]
    assert all_minimum_dds(Graph.path(4)) == [frozenset({0, 1, 2, 3})]
    assert all_minimum_dds(Graph.cycle(4)) == [
        frozenset({0, 1, 2}),
        frozenset({0, 1, 3}),
        frozenset({0, 2, 3}),
        frozenset({1, 2, 3}),
    ]
    with pytest.raises(ValueError):
        all_minimum_dds(Graph.from_edges(2, []))


def test_all_minimum_dds_complete_and_minimum(graphs_small):
    for g in (g for n in range(1, 8) for g in graphs_small[n]):
        if gamma_xk(g, 2).feasible:
            size = gamma_xk(g, 2).size
            found = all_minimum_dds(g)
            expected = [
                frozenset(c)
                for c in itertools.combinations(range(g.n), size)
                if is_k_tuple_dominating(g, c, 2)
            ]
            assert found == expected
            assert found  # the optimum itself is always present
            assert found == brute_all_minimum_dds(g)  # the enumeration it replaced
        else:
            with pytest.raises(ValueError):
                all_minimum_dds(g)
            with pytest.raises(ValueError):
                brute_all_minimum_dds(g)


def test_solver_witness_on_family_graph():
    g = h_r33(3)
    result = gamma_xk(g, 2)
    assert result.size == 4
    assert is_k_tuple_dominating(g, result.witness.vertices, 2)


def test_walker_matches_subset_brute_force(graphs_small):
    for n in range(1, 8):
        for g in graphs_small[n]:
            for size in range(n + 1):
                for slack in (0, 1, 2):
                    assert list(dds_walk(g, size, slack)) == brute_near_dds(g, size, slack), (g, size, slack)


def _at_most_3_by_solver(g):
    result = gamma_xk(g, 2)
    return result.feasible and result.size <= 3


def _at_most_3(g):
    # a superset of a double dominating set is one
    return dds_of_size(g, min(3, g.n))


def test_three_vertex_test_matches_the_solver(graphs_by_n):
    for n in range(1, 9):
        for g in graphs_by_n[n]:
            assert _at_most_3(g) == _at_most_3_by_solver(g)
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(9, 16)
        p = rng.choice((0.3, 0.5, 0.7, 0.85))
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        assert _at_most_3(g) == _at_most_3_by_solver(g)


def test_three_vertex_test_on_tiny_graphs_and_isolated_vertices():
    # every graph on 1-3 vertices: only the whole vertex set can work, and it
    # does exactly when there is no isolated vertex
    tiny = {
        Graph.empty(1): False,
        Graph.empty(2): False,
        Graph.complete(2): True,
        Graph.empty(3): False,
        Graph.from_edges(3, [(0, 1)]): False,
        Graph.path(3): True,
        Graph.complete(3): True,
    }
    assert {g: _at_most_3(g) for g in tiny} == tiny
    for n in range(2, 12):
        # K_{n-1} plus an isolated vertex has no double dominating set
        g = Graph.from_edges(n, itertools.combinations(range(n - 1), 2))
        assert not _at_most_3(g) and not gamma_xk(g, 2).feasible


def test_pair_rule_for_3_sets_matches_the_walker(graphs_by_n):
    def walked(g):
        return next(dds_walk(g, 3), None) is not None

    for n in range(1, 9):
        for g in graphs_by_n[n]:
            assert dds_of_size(g, 3) == walked(g), g
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(9, 16)
        p = rng.choice((0.3, 0.5, 0.7, 0.85))
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        assert dds_of_size(g, 3) == walked(g), g
    # no 3-set on two vertices or fewer
    for g in (Graph.empty(1), Graph.empty(2), Graph.complete(2)):
        assert not dds_of_size(g, 3) and not walked(g)
