"""Built-in isomorph-free enumeration of small graphs.

:func:`enumerate_graphs` grows graphs one vertex at a time: every class on
k+1 vertices arises from a class on k vertices, by deleting any vertex. Two
prunes survive that deletion: ``claw_free`` (only claws touching the new
vertex are looked for), and ``final_min_degree`` d at target order n, as
every ancestor at level k has minimum degree at least d-(n-k).

A child is kept only when its new vertex has the maximal invariant,
(degree, sum of neighbor degrees); every class has such a vertex, whose
deletion lands on a stored class. Only neighborhoods N that meet the floor
and give the new vertex the largest degree t are built, and only vertices of
degree t compare sums, got from the parent's: N adds popcount(row & N) to a
vertex's sum, and t more to a vertex in N.

Siblings are deduplicated by the parent's automorphisms: N and s(N) give
isomorphic children, on which the filter and the claw test agree, so only
the least mask of each orbit is kept. The generators are those
``_canonical`` found labeling the parent, in canonical labels, in one
``bytes``; they generate the whole group (see there).

Other children are labeled and deduplicated per level by canonical code, and
levels are sorted by it. At the last level, :func:`connected_graphs` labels
only children whose maximum is tied. Tying is a property of the class, and
an isomorphism of two untied children maps new vertex to new vertex, so it
comes from an automorphism of one stored parent, which the orbit test rules
out: each untied class arises once.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .graphs import MAX_VERTICES, Graph, _bits, _canonical, is_connected


def _claw_touching(rows: list[int], v: int) -> bool:
    """Does the graph contain an induced 3-leaf star using vertex v?"""
    nv = rows[v]
    # v as the center: three pairwise-nonadjacent neighbors
    for a in _bits(nv):
        rest_a = nv & ~rows[a] & ~((1 << (a + 1)) - 1)
        for b in _bits(rest_a):
            if rest_a & ~rows[b] & ~((1 << (b + 1)) - 1):
                return True
    # v as a leaf: a neighbor u with two nonadjacent neighbors outside N[v]
    for u in _bits(nv):
        pool = rows[u] & ~nv & ~(1 << v)
        for a in _bits(pool):
            if pool & ~rows[a] & ~((1 << (a + 1)) - 1):
                return True
    return False


def _extensions(parent: Graph, claw_free: bool, degree_floor: int, gens: bytes = b"", flagged: bool = False):
    """Adjacency rows of the children whose new vertex has a maximal invariant,
    one per orbit of neighborhoods under the group generated by ``gens``, the
    images of the parent's vertices under each generator in turn. ``flagged``
    pairs each with whether that maximum is tied."""
    k = parent.n
    new_bit = 1 << k
    prows = parent.rows
    degrees = [r.bit_count() for r in prows]
    if min(degrees) < degree_floor - 1:
        return
    images = [[1 << x for x in gens[i : i + k]] for i in range(0, len(gens), k)]
    # each vertex's sum of neighbor degrees in the parent, from which every
    # child's sums follow (see the module docstring)
    sums = [sum(degrees[u] for u in _bits(r)) for r in prows]
    forced = sum(1 << v for v in range(k) if degrees[v] < degree_floor)
    forced_sum = sum(degrees[v] for v in _bits(forced))
    forced_rows = [r | new_bit if forced >> v & 1 else r for v, r in enumerate(prows)]
    for t in range(max(max(degrees), degree_floor, forced.bit_count()), k + 1):
        pool = [(v, 1 << v, degrees[v]) for v in range(k) if not forced >> v & 1 and degrees[v] < t]
        # child degrees that tie t: degree t - 1 plus the new vertex, or degree t
        tie_in = sum(1 << v for v in range(k) if degrees[v] == t - 1)
        tie_out = sum(1 << v for v in range(k) if degrees[v] == t)
        for extra in itertools.combinations(pool, t - forced.bit_count()):
            nbhd = forced
            new_sum = forced_sum + t
            for _, bit, degree in extra:
                nbhd |= bit
                new_sum += degree
            # every tied vertex has the new vertex's degree, so compare sums;
            # a tied vertex left over has the larger one
            tied = (nbhd & tie_in) | tie_out
            equal = False
            while tied:
                low = tied & -tied
                u = low.bit_length() - 1
                s = sums[u] + (prows[u] & nbhd).bit_count() + (t if nbhd & low else 0)
                if s >= new_sum:
                    if s > new_sum:
                        break
                    equal = True
                tied ^= low
            if tied or images and not _least_in_orbit(nbhd, images):
                continue
            rows = forced_rows.copy()
            for v, _, _ in extra:
                rows[v] |= new_bit
            rows.append(nbhd)
            if claw_free and _claw_touching(rows, k):
                continue
            yield (tuple(rows), equal) if flagged else tuple(rows)


def _least_in_orbit(mask: int, images: list[list[int]]) -> bool:
    """Is ``mask`` least in its orbit? ``images[i][v]`` is 1 << (image of v
    under the i-th generator)."""
    orbit = {mask}
    stack = [mask]
    while stack:
        m = stack.pop()
        for image_of in images:
            image = 0
            rest = m
            while rest:
                low = rest & -rest
                image |= image_of[low.bit_length() - 1]
                rest ^= low
            if image < mask:
                return False
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    return True


def _in_labels(perm: tuple[int, ...], auts: list[list[int]]) -> bytes:
    """Automorphisms of labeled rows as permutations of the labels ``perm``
    gives, one after another: the image of each label in turn."""
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    return bytes(perm[sigma[v]] for sigma in auts for v in inv)


def _levels(n: int, claw_free: bool, final_min_degree: Optional[int], canonical: bool = True) -> Iterator[list[Graph]]:
    """Each level, sorted by canonical code; unless ``canonical``, the last
    level starts with its untied children, unlabeled."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError("vertex count out of range")
    level = [Graph.empty(1)]
    groups = [b""]
    yield level
    for k in range(2, n + 1):
        floor = 0 if final_min_degree is None else final_min_degree - (n - k)
        seen: dict[tuple[int, ...], bytes] = {}
        unlabeled: list[tuple[int, ...]] = []
        for parent, gens in zip(level, groups):
            for rows, tied in _extensions(parent, claw_free, floor, gens, True):
                if k == n and not (tied or canonical):
                    unlabeled.append(rows)
                    continue
                code, perm, auts = _canonical(rows, k)
                if code not in seen:
                    seen[code] = _in_labels(perm, auts) if auts and k < n else b""
        level = [Graph._trusted(k, rows) for rows in unlabeled + sorted(seen)]
        groups = [seen[g.rows] for g in level] if k < n else []
        yield level


def _last_level(n: int, claw_free: bool, floor: Optional[int], connected: bool, canonical: bool) -> list[Graph]:
    for out in _levels(n, claw_free, floor, canonical):
        pass
    if floor is not None:
        out = [g for g in out if min(r.bit_count() for r in g.rows) >= floor]
    return [g for g in out if is_connected(g)] if connected else out


def enumerate_graphs(
    n: int,
    *,
    claw_free: bool = False,
    final_min_degree: Optional[int] = None,
    connected: bool = False,
) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, in canonical form, sorted
    by canonical code: only claw-free ones with ``claw_free``, only those of
    minimum degree at least ``final_min_degree``, only connected ones with
    ``connected``."""
    return _last_level(n, claw_free, final_min_degree, connected, True)


def graphs_upto(n: int, *, claw_free: bool = False) -> dict[int, list[Graph]]:
    """Every isomorphism class on 1..n vertices, grouped by order."""
    return dict(enumerate(_levels(n, claw_free, None), start=1))


def connected_graphs(n: int, *, claw_free: bool = False, final_min_degree: Optional[int] = None) -> list[Graph]:
    """The connected classes ``enumerate_graphs`` gives, one graph per class
    in generation order, not necessarily in canonical form."""
    return _last_level(n, claw_free, final_min_degree, True, False)
