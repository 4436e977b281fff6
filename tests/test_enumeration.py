import collections
import random

import pytest

from ddcrit import enumeration
from ddcrit.enumeration import (
    _extensions,
    _in_labels,
    _levels,
    connected_graphs,
    enumerate_graphs,
)
from ddcrit.graphs import Graph, _canonical, canonical_key, is_connected, is_k1r_free, min_degree, to_graph6
from oracles import (
    all_extensions,
    brute_automorphisms,
    naive_all_graphs,
    orbitless_levels,
    relabel,
    summed_extensions,
    unpruned_levels,
    vertex_invariants,
)

# class counts per order, cross-checked between the two generators below
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
# connected claw-free graphs, OEIS A022562
CONNECTED_CLAW_FREE_COUNTS = [1, 1, 2, 5, 14, 50, 191, 881, 4494]


@pytest.fixture(scope="module")
def naive_by_n():
    """The naive generator's classes on 1..6 vertices (7 is refused)."""
    return {n: naive_all_graphs(n) for n in range(1, 7)}


def test_naive_enumeration_counts(naive_by_n):
    for n in range(1, 7):
        assert len(naive_by_n[n]) == ALL_COUNTS[n]
    with pytest.raises(ValueError):
        naive_all_graphs(7)


def test_augmentation_agrees_with_naive(naive_by_n):
    for n in range(1, 7):
        naive_keys = {canonical_key(g) for g in naive_by_n[n]}
        aug_keys = {canonical_key(g) for g in enumerate_graphs(n)}
        assert naive_keys == aug_keys


def test_levels_match_per_order_runs(graphs_by_n):
    for n in range(1, 9):
        assert len(graphs_by_n[n]) == ALL_COUNTS[n]
    assert [canonical_key(g) for g in graphs_by_n[7]] == [
        canonical_key(g) for g in enumerate_graphs(7)
    ]


def test_connected_counts(graphs_by_n):
    for n in range(1, 9):
        got = sum(1 for g in graphs_by_n[n] if is_connected(g))
        assert got == CONNECTED_COUNTS[n]


def test_claw_free_restriction_is_exact():
    for n in range(1, 8):
        filtered = {canonical_key(g) for g in enumerate_graphs(n) if is_k1r_free(g, 3)[0]}
        restricted = {canonical_key(g) for g in enumerate_graphs(n, claw_free=True)}
        assert filtered == restricted


def test_min_degree_restriction_is_exact():
    for n in range(2, 8):
        filtered = {canonical_key(g) for g in enumerate_graphs(n) if min_degree(g) >= 3}
        restricted = {canonical_key(g) for g in enumerate_graphs(n, final_min_degree=3)}
        assert filtered == restricted
    assert enumerate_graphs(1, final_min_degree=4) == []


def test_a_floor_of_half_the_order_leaves_nothing_for_the_connectivity_filter():
    # the filter is skipped when 2 * floor >= n - 1, and every child meets the floor
    for n in range(1, 8):
        for degree in range(n):
            everything = enumerate_graphs(n, final_min_degree=degree)
            assert all(min_degree(g) >= degree for g in everything)
            connected = enumerate_graphs(n, final_min_degree=degree, connected=True)
            assert connected == [g for g in everything if is_connected(g)]


def test_output_is_deterministic_and_canonical():
    runs = [enumerate_graphs(5), enumerate_graphs(5)]
    assert runs[0] == runs[1]
    # representatives are emitted in their canonical labeling
    for g in runs[0]:
        assert canonical_key(g).decode("ascii") == to_graph6(g)


def test_connected_helper():
    assert len(connected_graphs(6)) == CONNECTED_COUNTS[6]


def test_invariant_filter_matches_unpruned_oracle(graphs_by_n):
    expected = list(unpruned_levels(8))
    assert [graphs_by_n[n] for n in range(1, 9)] == expected
    for n in range(1, 8):
        assert enumerate_graphs(n) == expected[n - 1]


@pytest.mark.parametrize("degree", [3, 4])
def test_invariant_filter_matches_unpruned_oracle_claw_free(degree):
    for n in range(1, 10):
        *_, last = unpruned_levels(n, claw_free=True, final_min_degree=degree)
        expected = [g for g in last if min_degree(g) >= degree]
        assert enumerate_graphs(n, claw_free=True, final_min_degree=degree) == expected


def test_vertex_invariants_follow_relabeling(graphs_small):
    rng = random.Random(7)
    for n in range(1, 8):
        for g in graphs_small[n]:
            perm = list(range(n))
            rng.shuffle(perm)
            before = vertex_invariants(g.rows, range(n))
            after = vertex_invariants(relabel(g, perm).rows, range(n))
            assert [after[perm[v]] for v in range(n)] == before


def test_feasible_neighborhoods_match_all_neighborhoods_oracle(graphs_small):
    for n in range(1, 8):
        for parent in graphs_small[n]:
            assert sorted(_extensions(parent, False, 0)) == sorted(all_extensions(parent, False, 0))
    # floors the level builder never pairs with these parents, down to
    # parents with a vertex two or more below the floor
    for n in range(1, 7):
        for parent in graphs_small[n]:
            for floor in range(1, 5):
                assert sorted(_extensions(parent, False, floor)) == sorted(all_extensions(parent, False, floor))


@pytest.mark.parametrize("degree", [3, 4])
def test_feasible_neighborhoods_match_oracle_claw_free(degree):
    for n in range(2, 10):
        *parent_levels, _ = _levels(n, True, degree)
        for k, level in enumerate(parent_levels, start=1):
            floor = degree - (n - k - 1)  # the floor of the children's level
            for parent in level:
                children = list(_extensions(parent, True, floor))
                assert children == list(summed_extensions(parent, True, floor))
                assert sorted(children) == sorted(all_extensions(parent, True, floor))


def test_parent_sums_give_the_summed_children_in_order(graphs_by_n):
    for n in range(1, 9):
        for parent in graphs_by_n[n]:
            assert list(_extensions(parent, False, 0)) == list(summed_extensions(parent, False, 0))


def test_generated_theorem1_corpus_is_claw_free_with_min_degree_4():
    # the theorem1 campaign takes both facts from the generator unchecked
    for n in range(1, 11):
        for g in connected_graphs(n, claw_free=True, final_min_degree=4):
            assert is_k1r_free(g, 3)[0] and min_degree(g) >= 4


def test_labelings_per_level_are_pinned(monkeypatch):
    calls = collections.Counter()
    stored = collections.Counter()
    original, original_in_labels = enumeration._canonical, enumeration._in_labels

    def counted(rows, n):
        calls[n] += 1
        return original(rows, n)

    def counted_in_labels(perm, auts):
        stored[len(perm)] += 1
        return original_in_labels(perm, auts)

    monkeypatch.setattr(enumeration, "_canonical", counted)
    monkeypatch.setattr(enumeration, "_in_labels", counted_in_labels)
    enumerate_graphs(9, claw_free=True, final_min_degree=4)
    assert [calls[k] for k in range(2, 10)] == [2, 4, 10, 26, 60, 151, 447, 1724]
    # generators are stored for the classes with a nontrivial group, and
    # none at the last level, which no level extends
    assert [stored[k] for k in range(2, 10)] == [2, 4, 10, 26, 57, 136, 379, 0]


def test_siblings_are_one_per_orbit_of_the_parent_group(graphs_small):
    for n in range(1, 8):
        for parent in graphs_small[n]:
            code, perm, auts = _canonical(parent.rows, n)
            assert code == parent.rows
            group = brute_automorphisms(code, n)
            for claw_free in (False, True):
                expected = [
                    rows
                    for rows in _extensions(parent, claw_free, 0)
                    if all(sum(1 << sigma[v] for v in range(n) if rows[-1] >> v & 1) >= rows[-1] for sigma in group)
                ]
                assert list(_extensions(parent, claw_free, 0, _in_labels(perm, auts))) == expected


@pytest.fixture(scope="module")
def claw_free_levels():
    return list(_levels(9, True, None))


def test_levels_match_orbitless_oracle(graphs_by_n, claw_free_levels):
    assert [graphs_by_n[n] for n in range(1, 9)] == list(orbitless_levels(8, False))
    assert claw_free_levels == list(orbitless_levels(9, True))
    for degree in (3, 4):
        for n in range(1, 10):
            assert list(_levels(n, True, degree)) == list(orbitless_levels(n, True, degree))


def test_connected_claw_free_counts_match_oeis(claw_free_levels):
    assert [sum(map(is_connected, level)) for level in claw_free_levels] == CONNECTED_CLAW_FREE_COUNTS


def _assert_one_per_class(got, expected):
    keys = [canonical_key(g) for g in got]
    assert len(keys) == len(set(keys))
    assert set(keys) == {canonical_key(g) for g in expected}


def test_connected_graphs_give_each_connected_class_once(graphs_by_n):
    for n in range(1, 9):
        _assert_one_per_class(connected_graphs(n), [g for g in graphs_by_n[n] if is_connected(g)])
    for degree in (None, 3, 4):
        for n in range(1, 10):
            kwargs = dict(claw_free=True, final_min_degree=degree)
            _assert_one_per_class(connected_graphs(n, **kwargs), enumerate_graphs(n, connected=True, **kwargs))


def test_connected_graphs_label_only_tied_last_level_children(monkeypatch):
    calls = collections.Counter()
    original = enumeration._canonical

    def counted(rows, n):
        calls[n] += 1
        return original(rows, n)

    monkeypatch.setattr(enumeration, "_canonical", counted)
    connected_graphs(9, claw_free=True, final_min_degree=4)
    # the last level labels only tied children whose key another tied child
    # of that level shares (852 when it labeled every tied child)
    assert [calls[k] for k in range(2, 10)] == [2, 4, 10, 26, 60, 151, 447, 452]


def _packed(invariants):
    """The multiset of (degree, neighbor-degree sum) pairs as the library keys it."""
    key = 0
    for degree, total in sorted(invariants):
        key = key << 18 | degree << 12 | total
    return key


def test_children_are_flagged_tied_exactly_when_the_maximum_is_shared(graphs_small):
    for n in range(1, 8):
        for parent in graphs_small[n]:
            code, perm, auts = _canonical(parent.rows, n)
            for claw_free in (False, True):
                for gens in (b"", _in_labels(perm, auts)):
                    keyed = list(_extensions(parent, claw_free, 0, gens, True))
                    assert [rows for rows, _, _ in keyed] == list(_extensions(parent, claw_free, 0, gens))
                    for rows, tied, key in keyed:
                        invariants = vertex_invariants(rows, range(n + 1))
                        assert tied is (invariants.count(max(invariants)) > 1)
                        assert key == (_packed(invariants) if tied else None)
