"""General-graph maximum matching and the direct factor-criticality test.

The matching engine is a blossom-contraction augmenting search, dependency
free and exact. Factor criticality is decided directly: delete every k-set,
ask for a perfect matching. The test suite cross-checks it on every small
graph against the odd-component counting criterion (o(G-S) <= |S|-k for
every S with |S| >= k), which lives beside the tests.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, _bits


class ParityError(ValueError):
    """k-factor criticality needs n and k of equal parity."""


@dataclass(frozen=True, slots=True)
class FactorCriticalityVerdict:
    k: int
    holds: bool
    witness_failure: Optional[frozenset] = None


def _try_augment(rows: tuple[int, ...], n: int, root: int, match: list[int]) -> bool:
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    q = deque([root])

    def lca(a: int, b: int) -> int:
        seen = set()
        v = a
        while True:
            v = base[v]
            seen.add(v)
            if match[v] == -1:
                break
            v = p[match[v]]
        v = b
        while True:
            v = base[v]
            if v in seen:
                return v
            v = p[match[v]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    while q:
        v = q.popleft()
        for to in _bits(rows[v]):
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                cur = lca(v, to)
                blossom = [False] * n
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            q.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    # augment along the alternating tree
                    while to != -1:
                        pv = p[to]
                        ppv = match[pv]
                        match[to] = pv
                        match[pv] = to
                        to = ppv
                    return True
                used[match[to]] = True
                q.append(match[to])
    return False


def _maximum_matching_array(rows: tuple[int, ...], n: int) -> list[int]:
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in _bits(rows[v]):
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1 and rows[v]:  # an isolated vertex stays unmatched
            _try_augment(rows, n, v, match)
    return match


def maximum_matching(g: Graph) -> frozenset:
    """A maximum matching as a frozenset of sorted vertex pairs."""
    match = _maximum_matching_array(g.rows, g.n)
    return frozenset((v, match[v]) for v in range(g.n) if match[v] > v)


def matching_number(g: Graph) -> int:
    match = _maximum_matching_array(g.rows, g.n)
    return sum(1 for v in range(g.n) if match[v] != -1) // 2


def is_matching(g: Graph, edges) -> bool:
    seen = set()
    for u, v in edges:
        if not g.adjacent(u, v) or u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and matching_number(g) * 2 == g.n


def _has_pm_minus(rows: tuple[int, ...], n: int, removed_mask: int) -> bool:
    if (n - removed_mask.bit_count()) % 2:
        return False
    sub = tuple(0 if removed_mask >> v & 1 else row & ~removed_mask for v, row in enumerate(rows))
    # the deleted vertices are isolated, so a perfect matching of the rest
    # leaves exactly them unmatched
    return _maximum_matching_array(sub, n).count(-1) == removed_mask.bit_count()


def is_k_factor_critical_direct(g: Graph, k: int) -> FactorCriticalityVerdict:
    """Delete every k-set and test for a perfect matching in what is left.

    The witness, when the property fails, is the lexicographically least
    k-set whose removal leaves no perfect matching.
    """
    if not 0 <= k <= g.n:
        raise ValueError(f"k must lie in 0..{g.n}")
    if (g.n - k) % 2:
        raise ParityError(f"n={g.n} and k={k} have different parities")
    for combo in itertools.combinations(range(g.n), k):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if not _has_pm_minus(g.rows, g.n, mask):
            return FactorCriticalityVerdict(k, False, frozenset(combo))
    return FactorCriticalityVerdict(k, True)
