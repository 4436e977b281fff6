import pytest

from ddcrit.graphs import Graph
from ddcrit.matching import ParityError, is_k_factor_critical_direct
from ddcrit.constructions import clique_chain, h_6t, h_r33, h_r33_triple
from oracles import (
    EnumerationBoundError,
    brute_max_matching_size,
    cycle,
    exists_augmenting_path,
    has_perfect_matching,
    is_k_factor_critical_favaron,
    is_matching,
    matching_number,
    maximum_matching,
    star,
)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def test_maximum_matching_small():
    assert len(maximum_matching(cycle(4))) == 2
    assert len(maximum_matching(cycle(5))) == 2
    assert len(maximum_matching(petersen())) == 5
    m = maximum_matching(Graph.complete(7))
    assert len(m) == 3 and is_matching(Graph.complete(7), m)


def test_matching_against_oracle(graphs_small):
    for n in range(1, 7):
        for g in graphs_small[n]:
            m = maximum_matching(g)
            assert is_matching(g, m)
            assert len(m) == brute_max_matching_size(g)


def test_berge_no_augmenting_path(graphs_small):
    for g in graphs_small[6]:
        assert not exists_augmenting_path(g, maximum_matching(g))
    # spot checks on larger graphs
    for g in (petersen(), h_r33(5), h_6t(5), clique_chain(1, 4, 5, 1)):
        assert not exists_augmenting_path(g, maximum_matching(g))


def test_has_perfect_matching():
    assert has_perfect_matching(Graph.complete(4))
    assert not has_perfect_matching(star(3))
    assert not has_perfect_matching(Graph.complete(5))


def test_family_graph_loses_perfect_matching_without_triple():
    g = h_r33(3)
    triple = h_r33_triple(3)
    remaining = sorted(set(range(g.n)) - triple)
    pos = {v: i for i, v in enumerate(remaining)}
    sub = Graph.from_edges(
        len(remaining),
        [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos],
    )
    assert not has_perfect_matching(sub)


def test_direct_factor_criticality():
    assert is_k_factor_critical_direct(Graph.complete(5), 1).holds
    assert is_k_factor_critical_direct(Graph.complete(4), 2).holds
    verdict = is_k_factor_critical_direct(h_r33(3), 3)
    assert not verdict.holds
    assert verdict.witness_failure == h_r33_triple(3)
    with pytest.raises(ParityError):
        is_k_factor_critical_direct(Graph.complete(4), 1)
    with pytest.raises(ValueError):
        is_k_factor_critical_direct(Graph.complete(4), 5)


def test_favaron_factor_criticality():
    assert is_k_factor_critical_favaron(Graph.complete(5), 1).holds
    # star with four leaves: deleting the center leaves four odd components
    verdict = is_k_factor_critical_favaron(star(4), 1)
    assert not verdict.holds and verdict.witness_failure == frozenset({0})
    with pytest.raises(ParityError):
        is_k_factor_critical_favaron(star(3), 1)
    with pytest.raises(EnumerationBoundError):
        is_k_factor_critical_favaron(Graph.complete(22), 0)


def test_failure_witnesses_revalidate():
    for g, k in ((h_r33(3), 3), (h_6t(3), 3), (star(4), 1)):
        verdict = is_k_factor_critical_direct(g, k)
        assert not verdict.holds
        removed = verdict.witness_failure
        remaining = sorted(set(range(g.n)) - removed)
        pos = {v: i for i, v in enumerate(remaining)}
        sub = Graph.from_edges(
            len(remaining),
            [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos],
        )
        assert not has_perfect_matching(sub)


def test_oracles_agree_small(graphs_small):
    for n in range(1, 7):
        for g in graphs_small[n]:
            for k in range(0, min(3, g.n) + 1):
                if (g.n - k) % 2:
                    continue
                direct = is_k_factor_critical_direct(g, k)
                favaron = is_k_factor_critical_favaron(g, k)
                assert direct.holds == favaron.holds


def test_wide_clique_chains_are_3_factor_critical():
    # odd-order chains with inner cliques of size >= 4 survive any 3 deletions
    for s, t in ((4, 5), (5, 4)):
        g = clique_chain(1, s, t, 1)
        assert is_k_factor_critical_direct(g, 3).holds


def test_odd_order_k14_free_critical_graphs_are_factor_critical(
    theorem1_corpus, connected_small
):
    # instance check of the factor-criticality prerequisite: exhaustive on
    # connected odd orders <= 7, then the constrained order-9 corpus
    from ddcrit.harness import analyze

    corpus = [g for g in connected_small if g.n % 2 == 1] + list(theorem1_corpus)
    applicable = 0
    for g in corpus:
        report = analyze(g, "full")
        if report.critical and report.gamma2 == 4 and report.k14_free and report.min_degree >= 2:
            applicable += 1
            assert report.factor_critical[1] is True
    assert applicable > 0


def test_matching_number_matches_maximum_matching():
    for g in (cycle(7), petersen(), star(5)):
        assert matching_number(g) == len(maximum_matching(g))
