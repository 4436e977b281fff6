"""Built-in isomorph-free enumeration of small graphs.

:func:`enumerate_graphs` grows graphs one vertex at a time: every class on
k+1 vertices arises from some class on k vertices by attaching a new vertex
with some neighborhood, because deleting any vertex of the bigger graph lands
in the smaller level. Candidates are deduplicated per level by canonical key.

The augmentation generator accepts two sound prunes:

* ``claw_free``: induced subgraphs of claw-free graphs are claw-free, so a
  level-k graph with a claw has no claw-free descendant. Candidates are
  pre-screened by looking only at claws touching the new vertex.
* ``final_min_degree`` d with target order n: deleting n-k vertices lowers a
  degree by at most n-k, so any ancestor of a final graph with minimum degree
  d satisfies deg(v) + (n-k) >= d at level k. States failing that are dead.

Before canonical labeling, a child is dropped when its new vertex's
invariant, (degree, sum of neighbor degrees), is below the maximum over its
vertices. Both prunes survive deleting any vertex, so every class on k+1
vertices has a vertex v of maximal invariant whose deletion lands on a stored
class; extending that class by the neighborhood of v gives a child the filter
keeps, and the output is unchanged while most children skip labeling.

Children are not drawn from all 2^k neighborhoods: only those meeting the
degree floor with a new vertex of largest degree are built, i.e. supersets of
the parent's below-floor vertices whose size t reaches both the floor and the
parent's maximum degree, leaving out vertices already of degree t (a parent
with a vertex two below the floor has no child). Only the vertices whose
degree ties the new vertex's are compared, and their neighbor-degree sums
come from the parent's, computed once per parent: attaching a new vertex
with neighborhood N of size t adds popcount(row & N) to a vertex's sum, and
t more when the vertex is in N, while the new vertex's sum is t plus the
parent degrees over N. Rows are built only for children that pass, and the
stored canonical rows skip ``Graph``'s validation, since they are a
relabeling of rows built from valid ones.

Results are sorted by canonical key, so output order is deterministic.
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


def _extensions(parent: Graph, claw_free: bool, degree_floor: int):
    """Adjacency rows of the children whose new vertex has a maximal invariant."""
    k = parent.n
    new_bit = 1 << k
    prows = parent.rows
    degrees = [r.bit_count() for r in prows]
    if min(degrees) < degree_floor - 1:
        return
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
            while tied:
                low = tied & -tied
                u = low.bit_length() - 1
                if sums[u] + (prows[u] & nbhd).bit_count() + (t if nbhd & low else 0) > new_sum:
                    break
                tied ^= low
            if tied:
                continue
            rows = forced_rows.copy()
            for v, _, _ in extra:
                rows[v] |= new_bit
            rows.append(nbhd)
            if claw_free and _claw_touching(rows, k):
                continue
            yield tuple(rows)


def _levels(n: int, claw_free: bool, final_min_degree: Optional[int]) -> Iterator[list[Graph]]:
    level = [Graph.empty(1)]
    yield level
    for k in range(2, n + 1):
        floor = 0 if final_min_degree is None else final_min_degree - (n - k)
        seen: dict[tuple[int, ...], Graph] = {}
        for parent in level:
            for rows in _extensions(parent, claw_free, floor):
                code, _ = _canonical(rows, k)
                if code not in seen:
                    seen[code] = Graph._trusted(k, code)
        level = [seen[code] for code in sorted(seen)]
        yield level


def enumerate_graphs(
    n: int,
    *,
    claw_free: bool = False,
    final_min_degree: Optional[int] = None,
    connected: bool = False,
) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, optionally constrained.

    With ``claw_free`` only claw-free graphs are produced (and the search
    space collapses accordingly); with ``final_min_degree`` only graphs whose
    minimum degree reaches that bound. ``connected`` filters the output.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError("vertex count out of range")
    for level in _levels(n, claw_free, final_min_degree):
        out = level
    if final_min_degree is not None:
        out = [g for g in out if min(r.bit_count() for r in g.rows) >= final_min_degree]
    if connected:
        out = [g for g in out if is_connected(g)]
    return out


def graphs_upto(n: int, *, claw_free: bool = False) -> dict[int, list[Graph]]:
    """Every isomorphism class on 1..n vertices, grouped by order."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError("vertex count out of range")
    return {k: level for k, level in enumerate(_levels(n, claw_free, None), start=1)}


def connected_graphs(n: int, **kwargs) -> list[Graph]:
    return enumerate_graphs(n, connected=True, **kwargs)
