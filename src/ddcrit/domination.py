"""Exact k-tuple domination: feasibility and minimum solutions, plus one
walker over the vertex sets of a given size that double dominate, or nearly.

A set S k-tuple dominates when every closed neighborhood meets S at least k
times. Such a set exists iff the minimum degree is at least k-1; that case is
reported as an explicit infeasible result rather than an error or a sentinel
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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


def dds_walk(g: Graph, size: int, slack: int = 0) -> Iterator[tuple[int, int]]:
    """The size-sets that cover every vertex of g and leave at most ``slack``
    vertices covered once, as (set mask, mask of those vertices), in
    lexicographic order; with slack 0, the double dominating sets of that size.

    A branch is cut when the vertices after it can no longer cover some vertex
    once, or all but ``slack`` twice. The last two vertices of a set are tried
    in one loop.
    """
    n = g.n
    full = (1 << n) - 1
    closed = _closed_rows(g)
    if size == 1:  # one vertex covers nothing twice
        yield from ((1 << x, full) for x in range(n) if closed[x] == full and n <= slack)
    if not 2 <= size <= n:
        return
    # vertices covered at least once / at least twice by the vertices x..n-1
    once = [0] * (n + 1)
    twice = [0] * (n + 1)
    for x in range(n - 1, -1, -1):
        twice[x] = twice[x + 1] | (once[x + 1] & closed[x])
        once[x] = once[x + 1] | closed[x]
    # (next vertex, vertices left, chosen, covered once, covered twice)
    stack = [(0, size, 0, 0, 0)]
    while stack:
        start, left, chosen, ge1, ge2 = stack.pop()
        if left > 2:
            for x in range(start, n - left + 1):
                row = closed[x]
                one, two, rest = ge1 | row, ge2 | (ge1 & row), x + 1
                reach = two | (one & once[rest]) | twice[rest]
                if reach == full or slack and (full & ~reach).bit_count() <= slack and one | once[rest] == full:
                    stack.append((rest, left, chosen, ge1, ge2))  # x's later siblings
                    stack.append((rest, left - 1, chosen | 1 << x, one, two))
                    break
            continue
        for x in range(start, n - 1):
            row = closed[x]
            two = ge2 | (ge1 & row)
            reach = two | ((ge1 | row) & once[x + 1])
            # with no slack, reaching every vertex twice covers it once
            if reach != full and not (
                slack and (full & ~reach).bit_count() <= slack and ge1 | row | once[x + 1] == full
            ):
                continue
            need, miss = full & ~two, full & ~(ge1 | row)  # the last vertex must cover miss
            for y in range(x + 1, n):
                row = closed[y]
                short = need & ~row
                if not short or slack and not miss & ~row and (short | miss).bit_count() <= slack:
                    yield chosen | 1 << x | 1 << y, short | miss


def dds_of_size(g: Graph, size: int) -> bool:
    """Does some set of ``size`` vertices double dominate g? {a, b, c} does
    exactly when N[a] | N[b] is all and N[c] holds N[a] ^ N[b]; c may be last."""
    if size != 3:
        return next(dds_walk(g, size), None) is not None
    n = g.n
    full = (1 << n) - 1
    closed = _closed_rows(g)
    for a in range(n - 2):
        row = closed[a]
        for b in range(a + 1, n - 1):
            if row | closed[b] == full:
                odd = row ^ closed[b]
                for c in range(b + 1, n):
                    if closed[c] & odd == odd:
                        return True
    return False


def all_minimum_dds(g: Graph) -> list[frozenset]:
    """Every minimum double dominating set, in lexicographic order: the sets
    of the least size that has any."""
    if min_degree(g) < 1:
        raise ValueError("no double dominating set exists: an isolated vertex is present")
    for size in range(2, g.n + 1):  # the whole vertex set is one
        found = [frozenset(_bits(mask)) for mask, _ in dds_walk(g, size)]
        if found:
            return found
