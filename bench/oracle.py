"""Brute-force cross-check of scan records, independent of the ddcrit solvers.

Only ``Graph`` and graph6 decoding come from ddcrit. Double domination is
decided by subset enumeration, criticality by asking, for each non-edge,
whether a set one smaller than the double domination number already doubly
dominates the augmented graph (supersets of a doubly dominating set are
doubly dominating, so that one size decides it), and k-factor-criticality by
deleting every k-set and searching for a perfect matching by recursion.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from ddcrit.graphs import from_graph6


def _masks(n: int, size: int):
    for combo in combinations(range(n), size):
        mask = 0
        for v in combo:
            mask |= 1 << v
        yield mask


def _doubly_dominates(closed: list[int], mask: int) -> bool:
    return all((c & mask).bit_count() >= 2 for c in closed)


def _closed(rows) -> list[int]:
    return [row | (1 << v) for v, row in enumerate(rows)]


def gamma2(rows) -> Optional[int]:
    """Least size of a double dominating set; None when a vertex is isolated."""
    if any(row == 0 for row in rows):
        return None
    closed = _closed(rows)
    n = len(rows)
    for size in range(2, n + 1):
        if any(_doubly_dominates(closed, m) for m in _masks(n, size)):
            return size
    return None  # unreachable: the whole vertex set doubly dominates


def _connected(rows) -> bool:
    seen = frontier = 1
    while frontier:
        grow = 0
        for v in range(len(rows)):
            if frontier >> v & 1:
                grow |= rows[v]
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << len(rows)) - 1


def critical(rows) -> Optional[bool]:
    """Edge criticality as the scan report states it: None when undefined."""
    base = gamma2(rows)
    if base is None or not _connected(rows):
        return None
    n = len(rows)
    for u in range(n):
        for v in range(u + 1, n):
            if rows[u] >> v & 1:
                continue
            closed = _closed(rows)
            closed[u] |= 1 << v
            closed[v] |= 1 << u
            if not any(_doubly_dominates(closed, m) for m in _masks(n, base - 1)):
                return False
    return True


def _perfect_matching(rows, alive: int) -> bool:
    if not alive:
        return True
    low = alive & -alive
    v = low.bit_length() - 1
    rest = alive ^ low
    partners = rows[v] & rest
    while partners:
        bit = partners & -partners
        if _perfect_matching(rows, rest ^ bit):
            return True
        partners ^= bit
    return False


def factor_critical(rows, k: int) -> Optional[bool]:
    """k-factor-criticality; None when n and k differ in parity, as reported."""
    n = len(rows)
    if k > n or (n - k) % 2:
        return None
    full = (1 << n) - 1
    return all(_perfect_matching(rows, full & ~m) for m in _masks(n, k))


def cross_check(record: dict) -> list[str]:
    """Disagreements between one full scan record and the brute force."""
    rows = from_graph6(record["graph6"]).rows
    report = record["report"]
    expected = {
        "gamma2": gamma2(rows),
        "critical": critical(rows),
        "factor_critical.1": factor_critical(rows, 1),
        "factor_critical.3": factor_critical(rows, 3),
    }
    got = {
        "gamma2": report.get("gamma2"),
        "critical": report.get("critical"),
        "factor_critical.1": report.get("factor_critical", {}).get("1"),
        "factor_critical.3": report.get("factor_critical", {}).get("3"),
    }
    return [
        f"input {record['input_index']} {record['graph6']!r}: {key} is {got[key]!r}, brute force says {want!r}"
        for key, want in expected.items()
        if got[key] != want
    ]
