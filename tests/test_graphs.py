import random

import pytest

from ddcrit.constructions import clique_chain, h_6t, h_r33
from ddcrit.graphs import (
    Graph,
    Graph6Error,
    _canonical,
    _path_count,
    add_edge,
    canonical_key,
    closed_neighborhood,
    complement,
    components,
    diameter,
    from_graph6,
    independence_number,
    is_connected,
    is_isomorphic,
    is_k1r_free,
    min_degree,
    odd_component_count,
    relabel,
    to_graph6,
    vertex_connectivity,
)
from oracles import (
    all_pairs_vertex_connectivity,
    brute_independence_number,
    equitable_refine,
    full_signature_refine,
    reference_canonical,
    unit_flow,
)

# -- construction and validation ----------------------------------------------


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(65, (0,) * 65)
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (1, 2))  # self-loop at 1
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


def test_basic_accessors():
    g = Graph.path(4)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degree(1) == 2
    assert g.neighbors(1) == {0, 2}
    assert g.non_edges() == [(0, 2), (0, 3), (1, 3)]
    assert Graph.complete(5).is_complete()


# -- graph6 --------------------------------------------------------------------


def test_graph6_star_example():
    # "D?{" encodes the 5-vertex star centered at the last vertex
    g = from_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert to_graph6(g) == "D?{"


def test_graph6_triangle_hand_encoded():
    # 3 vertices, upper-triangle bits 111 padded to 111000 -> 56+63 = 'w'
    assert sorted(from_graph6("Bw").edges()) == [(0, 1), (0, 2), (1, 2)]
    assert to_graph6(Graph.complete(3)) == "Bw"


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error) as exc:
        from_graph6("")
    assert exc.value.offset == 0
    with pytest.raises(Graph6Error) as exc:
        from_graph6("D?")  # truncated body
    assert exc.value.offset == 2
    with pytest.raises(Graph6Error) as exc:
        from_graph6("Bw?")  # trailing bytes
    assert exc.value.offset == 2
    with pytest.raises(Graph6Error) as exc:
        from_graph6("B`")  # non-zero padding bits
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error):
        from_graph6("B\x1f")  # byte below range
    with pytest.raises(Graph6Error):
        from_graph6("~~????")  # n >= 2^18
    with pytest.raises(Graph6Error):
        from_graph6("~?B?" + "?" * 100)  # long form n=129 > 64


def test_graph6_roundtrip_exhaustive_small(graphs_small):
    for n in range(1, 6):
        for g in graphs_small[n]:
            assert from_graph6(to_graph6(g)) == g


def test_graph6_roundtrip_random_large():
    rng = random.Random(42)
    for n in (10, 33, 62, 63, 64):
        for _ in range(5):
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
            ]
            g = Graph.from_edges(n, edges)
            line = to_graph6(g)
            assert from_graph6(line) == g
            if n <= 62:
                assert len(line) == 1 + (n * (n - 1) // 2 + 5) // 6
            else:
                assert line.startswith("~")


# -- elementary operations ------------------------------------------------------


def test_add_edge():
    p4 = Graph.path(4)
    c4 = add_edge(p4, 0, 3)
    assert bool(is_isomorphic(c4, Graph.cycle(4)))
    assert p4.non_edges() == [(0, 2), (0, 3), (1, 3)]  # original untouched
    with pytest.raises(ValueError):
        add_edge(p4, 0, 0)
    with pytest.raises(ValueError):
        add_edge(p4, 0, 1)
    k4_minus = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert add_edge(k4_minus, 0, 1) == Graph.complete(4)


def test_add_chord_to_c5_gives_house():
    # all chords of a 5-cycle give the same 6-edge graph up to isomorphism
    keys = set()
    c5 = Graph.cycle(5)
    for u, v in c5.non_edges():
        keys.add(canonical_key(add_edge(c5, u, v)))
    assert len(keys) == 1


def test_complement():
    assert complement(Graph.complete(5)) == Graph.empty(5)
    g = Graph.from_edges(5, [(0, 1), (2, 3), (1, 4)])
    assert complement(complement(g)) == g
    assert bool(is_isomorphic(complement(Graph.cycle(5)), Graph.cycle(5)))


def test_closed_neighborhood():
    k4 = Graph.complete(4)
    assert closed_neighborhood(k4, 2) == {0, 1, 2, 3}
    g = Graph.from_edges(3, [(1, 2)])  # K1 + K2
    assert closed_neighborhood(g, 0) == {0}
    assert closed_neighborhood(Graph.path(4), 1) == {0, 1, 2}
    with pytest.raises(ValueError):
        closed_neighborhood(k4, 7)


def test_min_degree():
    assert min_degree(Graph.complete(5)) == 4
    assert min_degree(Graph.star(3)) == 1


def test_components_and_odd_count():
    g = Graph.from_edges(3, [(1, 2)])
    assert components(g) == [frozenset({0}), frozenset({1, 2})]
    assert components(Graph.cycle(6)) == [frozenset(range(6))]
    assert odd_component_count(Graph.complete(4)) == 0
    assert odd_component_count(Graph.star(3), {0}) == 3
    assert odd_component_count(Graph.cycle(6), {0, 3}) == 0


def test_odd_component_parity_invariant():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        removed = {v for v in range(n) if rng.random() < 0.3}
        count = odd_component_count(g, removed)
        assert count % 2 == (n - len(removed)) % 2


def test_diameter():
    assert diameter(Graph.path(4)) == 3
    assert diameter(Graph.complete(7)) == 1
    assert diameter(Graph.complete(1)) == 0
    assert diameter(Graph.from_edges(3, [(1, 2)])) is None


def test_diameter_one_iff_complete(graphs_small):
    for n in range(2, 6):
        for g in graphs_small[n]:
            assert (diameter(g) == 1) == g.is_complete()


# -- connectivity ----------------------------------------------------------------


def test_vertex_connectivity_basics():
    assert vertex_connectivity(Graph.complete(5)) == 4
    assert vertex_connectivity(Graph.complete(2)) == 1
    assert vertex_connectivity(Graph.cycle(6)) == 2
    assert vertex_connectivity(Graph.path(5)) == 1
    assert vertex_connectivity(Graph.from_edges(4, [(0, 1), (2, 3)])) == 0
    with pytest.raises(ValueError):
        vertex_connectivity(Graph.complete(1))


def test_vertex_connectivity_bounded_by_min_degree(graphs_small):
    for n in range(2, 7):
        for g in graphs_small[n]:
            assert vertex_connectivity(g) <= min_degree(g)


def test_vertex_connectivity_against_cut_enumeration(graphs_small):
    # brute force: smallest vertex set whose removal disconnects
    import itertools

    for g in graphs_small[5]:
        if g.is_complete():
            continue
        brute = None
        for size in range(g.n):
            for cut in itertools.combinations(range(g.n), size):
                if len(components(g, frozenset(cut))) > 1:
                    brute = size
                    break
            if brute is not None:
                break
        assert vertex_connectivity(g) == brute


def _gnp(rng, n, p):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_vertex_connectivity_matches_all_pairs_oracle(graphs_by_n):
    rng = random.Random(41)
    for n in range(2, 9):
        for g in graphs_by_n[n]:
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert vertex_connectivity(h) == all_pairs_vertex_connectivity(h), to_graph6(h)
    for n in range(9, 31):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            g = _gnp(rng, n, p)
            assert vertex_connectivity(g) == all_pairs_vertex_connectivity(g), to_graph6(g)


def test_limited_path_count_matches_unit_flow(graphs_small):
    for n in range(2, 8):
        for g in graphs_small[n]:
            for s, t in g.non_edges():
                flow = unit_flow(g, s, t)
                for limit in range(n + 1):
                    assert _path_count(g.rows, s, t, limit) == min(flow, limit), (to_graph6(g), s, t, limit)
    # sparse graphs have long augmenting paths; on these three the second
    # path is found only by re-entering a vertex that carries the first
    for text, s, t in (("HcOOZ?o", 5, 7), ("IM_A?KGHG", 3, 5), ("J??Kf?ES@O?", 2, 3)):
        g = from_graph6(text)
        assert _path_count(g.rows, s, t, g.n) == unit_flow(g, s, t) == 2
    rng = random.Random(43)
    for _ in range(2000):
        n = rng.randint(9, 24)
        g = _gnp(rng, n, rng.uniform(2.5, 5.0) / n)
        s, t = rng.choice(g.non_edges())
        assert _path_count(g.rows, s, t, n) == unit_flow(g, s, t), (to_graph6(g), s, t)


def test_vertex_connectivity_pinned():
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    assert vertex_connectivity(_petersen()) == 3
    assert vertex_connectivity(_hypercube(4)) == 4
    assert vertex_connectivity(k33) == 3
    assert vertex_connectivity(h_6t(3)) == 4
    assert vertex_connectivity(h_r33(3)) == 3


# -- induced stars and independence ----------------------------------------------


def test_is_k1r_free():
    free, witness = is_k1r_free(Graph.star(3), 3)
    assert not free and witness.center == 0 and witness.leaves == (1, 2, 3)
    assert is_k1r_free(Graph.cycle(5), 3) == (True, None)
    assert is_k1r_free(Graph.star(3), 4) == (True, None)
    with pytest.raises(ValueError):
        is_k1r_free(Graph.path(3), 1)


def test_k1r_witness_is_induced_star(graphs_small):
    for g in graphs_small[6]:
        for r in (3, 4):
            free, witness = is_k1r_free(g, r)
            if free:
                continue
            center, leaves = witness
            assert len(leaves) == r
            assert all(g.adjacent(center, leaf) for leaf in leaves)
            assert all(
                not g.adjacent(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1 :]
            )


def test_independence_number_examples():
    assert independence_number(Graph.star(3))[0] == 3
    assert independence_number(Graph.complete(6))[0] == 1
    assert independence_number(Graph.cycle(5))[0] == 2


def test_independence_number_against_oracle(graphs_small):
    for n in range(1, 8):
        for g in graphs_small[n]:
            alpha, witness = independence_number(g)
            assert alpha == brute_independence_number(g)
            assert len(witness) == alpha
            assert all(not g.adjacent(u, v) for u in witness for v in witness if u < v)


# -- canonical labeling and isomorphism -------------------------------------------


def test_canonical_key_label_invariance():
    rng = random.Random(11)
    specimens = [
        Graph.cycle(5),
        Graph.star(4),
        Graph.complete(7),
        Graph.empty(6),
        Graph.from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if (u + v) % 3]),
    ]
    for g in specimens:
        key = canonical_key(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(relabel(g, perm)) == key


def test_canonical_key_separates_all_small_classes(graphs_small):
    # exactly 11 keys across all labeled 4-vertex graphs
    import itertools

    keys = set()
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << 6):
        edges = [pairs[i] for i in range(6) if mask >> i & 1]
        keys.add(canonical_key(Graph.from_edges(4, edges)))
    assert len(keys) == 11
    # and keys computed per class are pairwise distinct
    for n in range(1, 7):
        class_keys = [canonical_key(g) for g in graphs_small[n]]
        assert len(set(class_keys)) == len(class_keys)


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def _rook_3x3():
    """K3 square K3: the cells of a 3x3 board, adjacent in a row or a column."""
    return Graph.from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if u // 3 == v // 3 or u % 3 == v % 3])


def _hypercube(d):
    return Graph.from_edges(1 << d, [(u, u | 1 << b) for u in range(1 << d) for b in range(d) if not u >> b & 1])


def test_canonical_keys_are_pinned():
    # a change of refinement order or tie-break changes these strings
    assert canonical_key(h_r33(3)) == b"HwCZ|z\\"
    assert canonical_key(_petersen()) == b"I@OZCMgs?"
    assert canonical_key(complement(_petersen())) == b"IJm}mveyW"
    assert canonical_key(clique_chain(1, 2, 2, 1)) == b"EJmw"
    assert canonical_key(_rook_3x3()) == b"HBYleVS"
    assert canonical_key(_hypercube(4)) == b"O?????NKqiLGd_i_X_F_?"


def _assert_canonical_matches_reference(rows, n):
    assert _canonical(rows, n) == reference_canonical(rows, n)


def test_canonical_matches_reference_on_every_class_upto_8(graphs_by_n):
    rng = random.Random(19)
    for n in range(1, 9):
        for g in graphs_by_n[n]:
            perm = list(range(n))
            rng.shuffle(perm)
            _assert_canonical_matches_reference(relabel(g, perm).rows, n)


def test_canonical_matches_reference_on_random_graphs():
    rng = random.Random(23)
    for _ in range(2000):
        n = rng.randint(9, 14)
        p = rng.random()
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        _assert_canonical_matches_reference(g.rows, n)


def _disjoint_union(*parts):
    edges = []
    offset = 0
    for g in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph.from_edges(offset, edges)


def test_canonical_matches_reference_on_symmetric_graphs():
    # Equal leaves abound here, so the orbit pruning and the back-jump both
    # fire. In the vertex-transitive graphs every cell the search splits is
    # an orbit; in the unions of regular graphs of one degree the equitable
    # cells are coarser than the orbits, so a back-jump above the depth where
    # a leaf's path leaves the best leaf's path skips a smaller code.
    rng = random.Random(29)
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    c3, c4 = Graph.cycle(3), Graph.cycle(4)
    specimens = [
        _petersen(),
        _rook_3x3(),
        _hypercube(4),
        _disjoint_union(c3, c4, c3, c4),
        _disjoint_union(c3, c3, c4),
        _disjoint_union(c3, c4, Graph.cycle(5)),
        _disjoint_union(Graph.cycle(6), c3, c3),
        _disjoint_union(Graph.complete(4), k33, Graph.complete(4)),
    ]
    for n in range(3, 13):
        specimens += [Graph.cycle(n), Graph.complete(n)]
    for g in specimens:
        for h in (g, complement(g)):
            for _ in range(4):
                perm = list(range(h.n))
                rng.shuffle(perm)
                _assert_canonical_matches_reference(relabel(h, perm).rows, h.n)


def _individualizations(colors):
    """What the canonical search refines next: one vertex split off its cell."""
    for v in range(len(colors)):
        child = [2 * c for c in colors]
        child[v] -= 1
        yield child


def _assert_refinement_matches_oracle(rows, n, colors):
    expected = full_signature_refine(rows, n, colors)
    assert equitable_refine(rows, n, colors) == expected
    return expected


def test_cell_local_refinement_matches_full_signature_oracle(graphs_small):
    rng = random.Random(13)
    for n in range(1, 8):
        for g in graphs_small[n]:
            perm = list(range(n))
            rng.shuffle(perm)
            rows = relabel(g, perm).rows
            unit = [0] * n
            refined = _assert_refinement_matches_oracle(rows, n, unit)
            for child in [*_individualizations(unit), *_individualizations(refined)]:
                _assert_refinement_matches_oracle(rows, n, child)


def test_cell_local_refinement_matches_oracle_on_random_graphs():
    rng = random.Random(17)
    for _ in range(2000):
        n = rng.randint(9, 12)
        p = rng.random()
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        refined = _assert_refinement_matches_oracle(g.rows, n, [0] * n)
        for child in _individualizations(refined):
            _assert_refinement_matches_oracle(g.rows, n, child)


def test_is_isomorphic():
    c5 = Graph.cycle(5)
    cert = is_isomorphic(c5, complement(c5))
    assert cert and cert.mapping is not None
    assert not is_isomorphic(Graph.complete(4), Graph.cycle(4))
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    assert is_isomorphic(g, g).mapping is not None


def test_is_isomorphic_mapping_is_edge_exact():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        mapping = is_isomorphic(g, h).mapping
        assert mapping is not None
        for u in range(n):
            for v in range(u + 1, n):
                assert g.adjacent(u, v) == h.adjacent(mapping[u], mapping[v])


def test_relabel_rejects_non_permutation():
    with pytest.raises(ValueError):
        relabel(Graph.path(3), (0, 0, 2))


def test_is_connected():
    assert is_connected(Graph.path(5))
    assert not is_connected(Graph.from_edges(2, []))
