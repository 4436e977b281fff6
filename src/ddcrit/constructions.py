"""Parameterized generators for the graph families under study.

Three families:

* chains of cliques joined consecutively (the diameter-3 extremal shape),
* an odd clique fully joined to a point-plus-edge triple, with a disjoint
  triangle tied to that triple by six cross edges forming a 2-regular
  bipartite graph (the exceptional family, one member per odd r >= 3),
* a clique, a 4-cycle and two nonadjacent apex vertices wired so the result
  is 4-connected and edge critical but contains an induced claw (the
  sharpness example, one member per odd t >= 3).

Generators emit a fixed vertex order (main part first, then the auxiliary
parts in numbered order) so downstream reports are stable.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .graphs import Graph, canonical_key


def sequential_join(parts: list[Graph]) -> Graph:
    """Disjoint union with complete joins between consecutive parts only."""
    if len(parts) < 2:
        raise ValueError("sequential join needs at least 2 parts")
    offsets = []
    n = 0
    for p in parts:
        offsets.append(n)
        n += p.n
    edges = []
    placed = list(zip(offsets, parts))
    for off, p in placed:
        edges.extend((off + u, off + v) for u, v in p.edges())
    for (off_a, a), (off_b, b) in zip(placed, placed[1:]):
        edges.extend((off_a + u, off_b + v) for u in range(a.n) for v in range(b.n))
    return Graph.from_edges(n, edges)


def clique_chain(*sizes: int) -> Graph:
    """Sequential join of complete graphs of the given sizes."""
    if any(s < 1 for s in sizes):
        raise ValueError("clique sizes must be positive")
    return sequential_join([Graph.complete(s) for s in sizes])


def _h_r33_with_matching(r: int, deleted: tuple[int, int, int]) -> Graph:
    # clique 0..r-1, triangle r..r+2, triple r+3..r+5 (r+3 isolated, r+4 r+5 an edge);
    # the clique is fully joined to the triple; triangle vertex r+i reaches the
    # two triple vertices r+3+j with j != deleted[i]
    n = r + 6
    edges = list(itertools.combinations(range(r), 2))
    edges += list(itertools.combinations((r, r + 1, r + 2), 2))
    edges.append((r + 4, r + 5))
    edges += [(a, b) for a in range(r) for b in (r + 3, r + 4, r + 5)]
    for i in range(3):
        for j in range(3):
            if j != deleted[i]:
                edges.append((r + i, r + 3 + j))
    return Graph.from_edges(n, edges)


def h_r33(r: int) -> Graph:
    """The exceptional-family member of order r+6 for odd r >= 3.

    The six cross edges realize the complete bipartite graph between the
    triangle and the triple minus a perfect matching; all matching choices
    give isomorphic graphs, so the identity matching is deleted.
    """
    if r < 3 or r % 2 == 0:
        raise ValueError("r must be an odd integer >= 3")
    return _h_r33_with_matching(r, (0, 1, 2))


def h_r33_triple(r: int) -> frozenset:
    """Vertices of the point-plus-edge triple inside :func:`h_r33`."""
    return frozenset((r + 3, r + 4, r + 5))


def h_6t(t: int) -> Graph:
    """The sharpness example of order t+6 for odd t >= 3.

    Vertex order: clique 0..t-1, then the 4-cycle c1..c4 as t..t+3 (cycle
    c1-c4-c2-c3-c1), then the dominating apex t+4 and the near-apex t+5.
    Extra wiring: last clique vertex to c4, every other clique vertex to c3;
    the apex sees the whole clique and cycle, the near-apex sees everything
    except c4 and the last clique vertex. The two apexes are nonadjacent.
    """
    if t < 3 or t % 2 == 0:
        raise ValueError("t must be an odd integer >= 3")
    n = t + 6
    c1, c2, c3, c4 = t, t + 1, t + 2, t + 3
    apex, near = t + 4, t + 5
    edges = list(itertools.combinations(range(t), 2))
    edges += [(c1, c4), (c4, c2), (c2, c3), (c3, c1)]
    edges.append((t - 1, c4))
    edges += [(c3, i) for i in range(t - 1)]
    edges += [(apex, v) for v in range(t + 4) if v != apex]
    edges += [(near, v) for v in range(t + 4) if v not in (c4, t - 1)]
    return Graph.from_edges(n, edges)


def h_6t_named_cut(t: int) -> frozenset:
    """The 3-set {c4, apex, near-apex} whose removal kills perfect matchings."""
    return frozenset((t + 3, t + 4, t + 5))


@lru_cache(maxsize=None)
def _family_key(r: int) -> bytes:
    return canonical_key(h_r33(r))


def is_in_family_H(g: Graph, key: Optional[bytes] = None) -> bool:
    """Membership in the exceptional family: isomorphic to some h_r33(r).

    ``key``, when the caller already holds it, is the canonical key of ``g``
    and saves labeling the graph again.
    """
    r = g.n - 6
    if r < 3 or r % 2 == 0:
        return False
    return (canonical_key(g) if key is None else key) == _family_key(r)
