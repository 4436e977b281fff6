"""Exact k-tuple domination: feasibility, minimum solutions, full enumeration,
and a bounded test of whether three vertices double dominate.

A set S k-tuple dominates when every closed neighborhood meets S at least k
times. Such a set exists iff the minimum degree is at least k-1; that case is
reported as an explicit infeasible result rather than an error or a sentinel
size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, _bits, min_degree


@dataclass(frozen=True, slots=True)
class DdsWitness:
    """A k-tuple dominating set together with its per-vertex coverage counts."""

    k: int
    vertices: frozenset
    coverage: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class GammaResult:
    k: int
    feasible: bool
    size: Optional[int] = None
    witness: Optional[DdsWitness] = None


def _closed_rows(g: Graph) -> list[int]:
    return [g.rows[v] | (1 << v) for v in range(g.n)]


def is_k_tuple_dominating(g: Graph, s, k: int) -> bool:
    if k < 1:
        raise ValueError("tuple order k must be at least 1")
    mask = 0
    for v in s:
        g.check_vertex(v)
        mask |= 1 << v
    return all(((g.rows[v] | (1 << v)) & mask).bit_count() >= k for v in range(g.n))


def _witness(g: Graph, k: int, mask: int) -> DdsWitness:
    closed = _closed_rows(g)
    coverage = tuple((closed[v] & mask).bit_count() for v in range(g.n))
    return DdsWitness(k, frozenset(_bits(mask)), coverage)


def gamma_xk(g: Graph, k: int) -> GammaResult:
    """Exact minimum k-tuple domination number with one optimal witness.

    Branch and bound: branch on the least-covered vertex, candidates ordered
    by how many still-deficient closed neighborhoods they hit, ties broken by
    lowest index. The pruning bound is ceil(remaining deficiency / largest
    closed neighborhood).
    """
    if k < 1:
        raise ValueError("tuple order k must be at least 1")
    if min_degree(g) < k - 1:
        return GammaResult(k, False)
    n = g.n
    closed = _closed_rows(g)
    max_closed = max(r.bit_count() for r in closed)

    # greedy upper bound, also the initial incumbent witness; a candidate's
    # gain is the number of still-deficient vertices its closed row hits
    cov = [0] * n
    short = (1 << n) - 1  # the vertices covered fewer than k times
    greedy_mask = 0
    while short:
        best_v, best_gain = -1, -1
        for v in range(n):
            if greedy_mask >> v & 1:
                continue
            gain = (closed[v] & short).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        greedy_mask |= 1 << best_v
        for w in _bits(closed[best_v]):
            cov[w] += 1
            if cov[w] == k:
                short ^= 1 << w
    best_mask = greedy_mask
    best_size = greedy_mask.bit_count()

    def dfs(cov: tuple[int, ...], chosen: int, excluded: int, size: int):
        nonlocal best_mask, best_size
        deficiency = 0
        short = 0
        for u, c in enumerate(cov):
            if c < k:
                deficiency += k - c
                short |= 1 << u
        if deficiency == 0:
            if size < best_size:
                best_size, best_mask = size, chosen
            return
        if size + (deficiency + max_closed - 1) // max_closed >= best_size:
            return
        v = min(_bits(short), key=lambda u: (cov[u], u))
        need = k - cov[v]
        avail = closed[v] & ~chosen & ~excluded
        if avail.bit_count() < need:
            return
        cands = sorted(_bits(avail), key=lambda u: (-(closed[u] & short).bit_count(), u))
        ex = excluded
        for u in cands:
            new_cov = list(cov)
            for w in _bits(closed[u]):
                new_cov[w] += 1
            dfs(tuple(new_cov), chosen | (1 << u), ex, size + 1)
            ex |= 1 << u
            if (closed[v] & ~chosen & ~ex).bit_count() < need:
                break

    dfs((0,) * n, 0, 0, 0)
    return GammaResult(k, True, best_size, _witness(g, k, best_mask))


def gamma2_at_most_3(g: Graph) -> bool:
    """Does some set of at most 3 vertices double dominate g?

    A superset of a double dominating set is one, so only sets of size
    min(3, n) are walked, in lexicographic order, with the once/twice
    coverage of the vertices still to be chosen: a pair is cut when a vertex
    covered fewer than twice can no longer get its missing cover from one
    later vertex, and a first vertex when some vertex cannot be covered twice
    by it and two later ones.
    """
    n = g.n
    if n < 3:  # of K1, 2K1 and K2 only K2 has one, its two vertices
        return n == 2 and g.rows[0] == 2
    full = (1 << n) - 1
    closed = _closed_rows(g)
    # vertices covered at least once / at least twice by the vertices x..n-1
    once = [0] * (n + 1)
    twice = [0] * (n + 1)
    for x in range(n - 1, -1, -1):
        twice[x] = twice[x + 1] | (once[x + 1] & closed[x])
        once[x] = once[x + 1] | closed[x]
    for a in range(n - 2):
        ca = closed[a]
        if (ca & once[a + 1]) | twice[a + 1] != full:
            continue
        for b in range(a + 1, n - 1):
            ge1, ge2 = ca | closed[b], ca & closed[b]
            if ge2 | (ge1 & once[b + 1]) != full:
                continue
            need = full & ~ge2  # each needs one more cover, from the third vertex
            if any(need & ~closed[c] == 0 for c in range(b + 1, n)):
                return True
    return False


def all_minimum_dds(g: Graph) -> list[frozenset]:
    """Every minimum double dominating set, in lexicographic order.

    Enumerates exactly the subsets of the optimal size, so the list is
    complete by construction.
    """
    result = gamma_xk(g, 2)
    if not result.feasible:
        raise ValueError("no double dominating set exists: an isolated vertex is present")
    size = result.size
    closed = _closed_rows(g)
    out = []
    for combo in itertools.combinations(range(g.n), size):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if all((closed[v] & mask).bit_count() >= 2 for v in range(g.n)):
            out.append(frozenset(combo))
    return out
