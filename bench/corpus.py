"""Seeded scan corpora for the benchmark, built without importing ddcrit.

Each scan workload draws its inputs from a fixed pool of numbered blocks. A
block's content depends only on its number, so the reference stdout
digest for every block can be stored once in ``reference.json``; the
``--seed`` of a run picks which blocks it scans, and in what order.

Blocks are small, so that a run scans many of them and reports the median
over many commands, which a burst of load on a shared machine barely moves.
Within a block, orders and edge probabilities are stratified: every order in
{8, 9, 10} appears equally often, and within an order the edge probabilities
are spread evenly over [0.35, 0.75]. Each line is still a draw from the stated
distribution (order uniform, probability uniform), but blocks cost nearly the
same to scan.
"""

from __future__ import annotations

import random

ORDERS = (8, 9, 10)
P_LOW, P_HIGH = 0.35, 0.75

POOL_BLOCKS = 96
RANDOM_LINES = 300  # scan-random: lines per block
CACHED_CLASSES, CACHED_COPIES = 40, 20  # scan-cached: 800 lines per block
SMOKE_RANDOM_LINES = 20
SMOKE_CACHED_CLASSES, SMOKE_CACHED_COPIES = 4, 5


def encode_graph6(n: int, rows: list[int]) -> str:
    """Header-less short-form graph6 of a graph on n <= 62 vertices."""
    out = [n + 63]
    acc = nb = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((rows[j] >> i) & 1)
            nb += 1
            if nb == 6:
                out.append(acc + 63)
                acc = nb = 0
    if nb:
        out.append((acc << (6 - nb)) + 63)
    return bytes(out).decode("ascii")


def _shapes(rng: random.Random, count: int) -> list[tuple[int, float]]:
    """(order, edge probability) pairs: each order equally often, and within
    an order the probabilities stratified over [P_LOW, P_HIGH]; shuffled."""
    shapes = []
    for i, n in enumerate(ORDERS):
        share = len(range(i, count, len(ORDERS)))
        shapes += [(n, P_LOW + (P_HIGH - P_LOW) * (j + rng.random()) / share) for j in range(share)]
    rng.shuffle(shapes)
    return shapes


def _random_rows(rng: random.Random, n: int, p: float) -> list[int]:
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _relabel(rng: random.Random, rows: list[int]) -> list[int]:
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for v, row in enumerate(rows):
        mask = 0
        for u in range(n):
            if row >> u & 1:
                mask |= 1 << perm[u]
        out[perm[v]] = mask
    return out


def random_block(block: int, lines: int = RANDOM_LINES) -> list[str]:
    """graph6 lines of one scan-random block."""
    rng = random.Random(f"scan-random/{block}/{lines}")
    return [encode_graph6(n, _random_rows(rng, n, p)) for n, p in _shapes(rng, lines)]


def cached_block(
    block: int, classes: int = CACHED_CLASSES, copies: int = CACHED_COPIES
) -> tuple[list[str], list[int]]:
    """graph6 lines of one scan-cached block and the class index of each line.

    Every class is a random graph written ``copies`` times, each copy a fresh
    random relabelling, and all lines are shuffled together.
    """
    rng = random.Random(f"scan-cached/{block}/{classes}x{copies}")
    items = []
    for cls, (n, p) in enumerate(_shapes(rng, classes)):
        rows = _random_rows(rng, n, p)
        items.extend((encode_graph6(n, _relabel(rng, rows)), cls) for _ in range(copies))
    rng.shuffle(items)
    return [line for line, _ in items], [cls for _, cls in items]


def block_order(seed: int) -> list[int]:
    """The pool blocks in the order a run with this seed scans them."""
    order = list(range(POOL_BLOCKS))
    random.Random(seed).shuffle(order)
    return order
