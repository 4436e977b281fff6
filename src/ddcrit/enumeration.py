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
only tied children (the maximum is shared) whose key another tied child has.
Tying is a property of the class, and an isomorphism of two untied children
maps new vertex to new vertex, so it comes from an automorphism of one
stored parent, which the orbit test rules out: each untied class arises
once. A tied child's key is the multiset of its (degree, sum) pairs, got
from the parent's tables as above. It waits under its key until a second
tied child has the key; then both are labeled, as is every later one.
Isomorphic children have equal keys, so a child still alone under its key
when the level ends is isomorphic to no other and comes out unlabeled. The
order-9 theorem1 corpus (claw-free, minimum degree 4) takes 452 last-level
labelings, 1 152 in all, against 852 and 1 552 when every tied child is
labeled.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .graphs import MAX_VERTICES, Graph, _canonical, is_connected


def _claw_touching(rows: list[int], v: int) -> bool:
    """Does the graph contain an induced 3-leaf star using vertex v?"""
    nv = rows[v]
    # v as the center: three pairwise-nonadjacent neighbors; each bit peeled
    # off leaves the bits above it
    rest = nv
    while rest:
        low = rest & -rest
        rest ^= low
        rest_a = rest & ~rows[low.bit_length() - 1]
        while rest_a:
            low = rest_a & -rest_a
            rest_a ^= low
            if rest_a & ~rows[low.bit_length() - 1]:
                return True
    # v as a leaf: a neighbor u with two nonadjacent neighbors outside N[v]
    rest = nv
    while rest:
        low = rest & -rest
        rest ^= low
        pool = rows[low.bit_length() - 1] & ~nv & ~(1 << v)
        while pool:
            low = pool & -pool
            pool ^= low
            if pool & ~rows[low.bit_length() - 1]:
                return True
    return False


def _extensions(parent: Graph, claw_free: bool, degree_floor: int, gens: bytes = b"", keyed: bool = False):
    """Adjacency rows of the children whose new vertex has a maximal invariant,
    one per orbit of neighborhoods under the group generated by ``gens``, the
    images of the parent's vertices under each generator in turn. ``keyed``
    pairs each with whether that maximum is tied and, when it is, with the
    multiset of the child's (degree, neighbor-degree sum) pairs, packed into
    one int (else None)."""
    k = parent.n
    new_bit = 1 << k
    prows = parent.rows
    degrees = [r.bit_count() for r in prows]
    if min(degrees) < degree_floor - 1:
        return
    images = [[1 << x for x in gens[i : i + k]] for i in range(0, len(gens), k)]
    # each vertex's sum of neighbor degrees in the parent, counted against one
    # mask per degree bit; every child's sums follow (see the module docstring)
    planes = [sum(1 << v for v in range(k) if degrees[v] >> b & 1) for b in range(max(degrees).bit_length())]
    sums = [sum((r & plane).bit_count() << b for b, plane in enumerate(planes)) for r in prows]
    forced = sum(1 << v for v in range(k) if degrees[v] < degree_floor)
    forced_sum = sum(degrees[v] for v in range(k) if forced >> v & 1)
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
            if not keyed:
                yield tuple(rows)
            elif not equal:
                yield tuple(rows), False, None
            else:
                # each vertex's (degree, sum) as degree << 12 | sum (a sum is
                # below 64 ** 2), sorted and packed 18 bits each into one int
                codes = [t << 12 | new_sum]
                for v in range(k):
                    inside = nbhd >> v & 1
                    codes.append((degrees[v] + inside) << 12 | sums[v] + (prows[v] & nbhd).bit_count() + t * inside)
                codes.sort()
                key = 0
                for code in codes:
                    key = key << 18 | code
                yield tuple(rows), True, key


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


def _collided(children, unlabeled: list, parked: dict) -> Iterator[tuple[int, ...]]:
    """The keyed children to label: the tied ones whose key another tied
    child has. Untied children go to ``unlabeled``; a tied child waits in
    ``parked`` under its key until a second one has it, when both are given
    out, as is every later one (the key then maps to None)."""
    for rows, tied, key in children:
        if not tied:
            unlabeled.append(rows)
        elif key not in parked:
            parked[key] = rows
        else:
            if parked[key] is not None:
                yield parked[key]
                parked[key] = None
            yield rows


def _levels(n: int, claw_free: bool, final_min_degree: Optional[int], canonical: bool = True) -> Iterator[list[Graph]]:
    """Each level, sorted by canonical code; unless ``canonical``, the last
    level starts with the children it leaves unlabeled."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError("vertex count out of range")
    level = [Graph.empty(1)]
    groups = [b""]
    yield level
    for k in range(2, n + 1):
        floor = 0 if final_min_degree is None else final_min_degree - (n - k)
        seen: dict[tuple[int, ...], bytes] = {}
        unlabeled: list[tuple[int, ...]] = []
        parked: dict[int, Optional[tuple[int, ...]]] = {}
        keyed = k == n and not canonical
        for parent, gens in zip(level, groups):
            children = _extensions(parent, claw_free, floor, gens, keyed)
            for rows in _collided(children, unlabeled, parked) if keyed else children:
                code, perm, auts = _canonical(rows, k)
                if code not in seen:
                    seen[code] = _in_labels(perm, auts) if auts and k < n else b""
        unlabeled.extend(rows for rows in parked.values() if rows is not None)
        parked.clear()  # freed before the level's graphs are built, the peak
        level = [Graph._trusted(k, rows) for rows in itertools.chain(unlabeled, sorted(seen))]
        groups = [seen[g.rows] for g in level] if k < n else []
        yield level


def _last_level(n: int, claw_free: bool, floor: Optional[int], connected: bool, canonical: bool) -> list[Graph]:
    if n == 1 and floor is not None and floor > 0:
        return []  # K1 misses the floor; every larger child is built to meet it
    for out in _levels(n, claw_free, floor, canonical):
        pass
    # minimum degree at least (n - 1) / 2 makes any two vertices adjacent or
    # give them a common neighbor
    if not connected or 2 * (floor or 0) >= n - 1:
        return out
    return [g for g in out if is_connected(g)]


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


def connected_graphs(n: int, *, claw_free: bool = False, final_min_degree: Optional[int] = None) -> list[Graph]:
    """The connected classes ``enumerate_graphs`` gives, one graph per class
    in generation order, not necessarily in canonical form."""
    return _last_level(n, claw_free, final_min_degree, True, False)
