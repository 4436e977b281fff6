import pytest

from ddcrit.constructions import (
    _h_r33_with_matching,
    clique_chain,
    h_6t,
    h_6t_named_cut,
    h_r33,
    h_r33_triple,
    is_in_family_H,
    sequential_join,
)
from ddcrit.criticality import criticality_report
from ddcrit.domination import gamma_xk
from ddcrit.graphs import (
    Graph,
    canonical_key,
    diameter,
    is_k1r_free,
    min_degree,
    vertex_connectivity,
)
from ddcrit.matching import is_k_factor_critical_direct
from oracles import degree, is_isomorphic, neighbors, odd_component_count

H_6_3_CANONICAL = b"HFGm]^|"  # pinned labeling class of the order-9 sharpness example


def test_sequential_join_of_singletons_is_path():
    parts = [Graph.complete(1)] * 4
    assert bool(is_isomorphic(sequential_join(parts), Graph.path(4)))


def test_sequential_join_validation():
    with pytest.raises(ValueError):
        sequential_join([Graph.complete(2)])
    with pytest.raises(ValueError):
        clique_chain(1, 0, 2, 1)


def test_sequential_join_edge_set_is_consecutive_joins():
    a, b, c = Graph.complete(2), Graph.cycle(3), Graph.complete(1)
    joined = sequential_join([a, b, c])
    expected = set()
    expected.update(a.edges())
    expected.update((2 + u, 2 + v) for u, v in b.edges())
    expected.update((u, 2 + v) for u in range(2) for v in range(3))
    expected.update((2 + u, 5) for u in range(3))
    assert set(joined.edges()) == expected
    # appending a part only adds the last consecutive join
    prefix = sequential_join([a, b])
    assert set(prefix.edges()) == {e for e in expected if 5 not in e}


def test_clique_chain_properties():
    g = clique_chain(1, 1, 1, 1)
    assert bool(is_isomorphic(g, Graph.path(4)))
    big = clique_chain(1, 4, 5, 1)
    assert big.n == 11
    assert min_degree(big) == 4
    assert diameter(big) == 3
    report = criticality_report(big)
    assert report.gamma2 == 4 and report.is_critical
    assert is_k_factor_critical_direct(big, 3).holds


def test_h_r33_parameter_validation():
    for bad in (1, 2, 4, -3):
        with pytest.raises(ValueError):
            h_r33(bad)
    for bad in (1, 2, 6):
        with pytest.raises(ValueError):
            h_6t(bad)


def test_h_r33_degree_profile():
    for r in (3, 5, 7):
        g = h_r33(r)
        assert g.n == r + 6 and g.n % 2 == 1
        degrees = [degree(g, v) for v in range(g.n)]
        assert degrees[: r] == [r + 2] * r               # main clique
        assert degrees[r : r + 3] == [4] * 3             # triangle, where the minimum lives
        assert degrees[r + 3] == r + 2                   # isolated vertex of the triple
        assert degrees[r + 4 :] == [r + 3] * 2           # edge of the triple
        assert min_degree(g) == 4


def test_h_r33_property_vector():
    for r in (3, 5):
        g = h_r33(r)
        assert vertex_connectivity(g) >= 3
        assert is_k1r_free(g, 3)[0]
        report = criticality_report(g)
        assert report.gamma2 == 4 and report.is_critical
        verdict = is_k_factor_critical_direct(g, 3)
        assert not verdict.holds and verdict.witness_failure == h_r33_triple(r)


def test_h_r33_matching_choice_is_irrelevant():
    a = _h_r33_with_matching(5, (0, 1, 2))
    b = _h_r33_with_matching(5, (1, 2, 0))
    c = _h_r33_with_matching(5, (2, 0, 1))
    assert bool(is_isomorphic(a, b)) and bool(is_isomorphic(a, c))


def test_h_6t_pinned_labeling_class():
    assert canonical_key(h_6t(3)) == H_6_3_CANONICAL


def test_h_6t_property_vector():
    for t in (3, 5, 7):
        g = h_6t(t)
        assert g.n == t + 6
        assert min_degree(g) == 4
        assert vertex_connectivity(g) == 4
        assert not is_k1r_free(g, 3)[0]
        report = criticality_report(g)
        assert report.gamma2 == 4 and report.is_critical
        assert not is_k_factor_critical_direct(g, 3).holds


def test_h_6t_wiring_matches_drawing():
    g = h_6t(3)
    c1, c2, c3, c4, apex, near = 3, 4, 5, 6, 7, 8
    assert neighbors(g, apex) == set(range(7))
    assert neighbors(g, near) == {0, 1, c1, c2, c3}
    assert not g.adjacent(apex, near)
    assert neighbors(g, c4) == {c1, c2, 2, apex}  # cycle ends plus x_t plus apex
    assert g.adjacent(c3, 0) and g.adjacent(c3, 1) and not g.adjacent(c3, 2)


def test_removing_the_triple_leaves_two_odd_components():
    from ddcrit.graphs import components

    for r in (3, 5):
        g = h_r33(r)
        triple = h_r33_triple(r)
        assert odd_component_count(g, triple) == 2
        assert sorted(len(c) for c in components(g, triple)) == [3, r]
        # the triangle alone is not a cutset: the rest stays connected
        assert len(components(g, frozenset({r, r + 1, r + 2}))) == 1


def test_family_membership():
    assert is_in_family_H(h_r33(3))
    assert is_in_family_H(h_r33(7))
    assert not is_in_family_H(h_6t(3))
    assert not is_in_family_H(Graph.complete(9))
    assert not is_in_family_H(Graph.complete(8))  # even order
