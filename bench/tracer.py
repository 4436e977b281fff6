"""Outside-in tracing of one in-process ddcrit CLI run.

Each layer's public functions are wrapped at every module attribute that
holds them, so calls through names that callers imported directly
(``ddcrit.harness.vertex_connectivity``, ``ddcrit.criticality.gamma_xk``, ...)
are recorded too. ``ddcrit.harness._criticality_report`` is an ``lru_cache``
holding the unwrapped function, so it is rebuilt, with the same size, around
the wrapped one. Canonical labeling inside enumeration goes through the
private ``_canonical`` and stays inside the enumeration span.

Spans (name, start, end, parent) and counts are kept in memory and written
out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from math import comb
from typing import Callable, Optional

STRUCTURE = ("is_k1r_free", "diameter", "min_degree", "is_connected", "independence_number")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.memo = None  # the rebuilt criticality lru_cache

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- installing the wrappers -------------------------------------------

    def _rebind(self, original, replacement) -> int:
        """Point every ddcrit module attribute holding ``original`` at ``replacement``."""
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ddcrit" and not mod_name.startswith("ddcrit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)
                    hits += 1
        return hits

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import ddcrit.cli  # noqa: F401  (imports every layer)
        from ddcrit import constructions, criticality, domination, enumeration, graphs, harness, matching

        count = self.counts

        def enumerated(args, result):
            count["enumeration.connected_graphs.graphs"] += len(result)

        def augmentations(args, result):
            count["criticality.augmentations"] += len(result.per_nonedge)

        def deletion_sets(args, verdict):
            g, k = args
            if verdict.holds:
                count["matching.deletion_sets"] += comb(g.n, k)
            else:
                count["matching.deletion_sets"] += lex_rank(g.n, sorted(verdict.witness_failure)) + 1

        def lookup(args, hit):
            count["harness.cache.hits"] += hit is not None

        targets = [
            (enumeration.connected_graphs, "enumeration.connected_graphs", enumerated),
            (graphs.canonical_key, "graphs.canonical_key", None),
            (graphs.vertex_connectivity, "graphs.vertex_connectivity", None),
            (graphs.from_graph6, "graphs.codec.from_graph6", None),
            (domination.gamma_xk, "domination.gamma_xk", None),
            (domination.all_minimum_dds, "domination.all_minimum_dds", None),
            (criticality.check_observation1, "criticality.check_observation1", None),
            (matching.is_k_factor_critical_direct, "matching.factor_critical", deletion_sets),
            (constructions.is_in_family_H, "constructions.is_in_family_H", None),
            (harness.analyze, "harness.analyze", None),
            (harness.compute_verdicts, "harness.compute_verdicts", None),
            (harness.record_to_json, "cli.record_to_json", None),
        ] + [(getattr(graphs, name), f"graphs.structure.{name}", None) for name in STRUCTURE]
        for fn, name, hook in targets:
            if not self._rebind(fn, self.wrap(name, fn, hook)):
                raise RuntimeError(f"no module binds {name}")

        report = criticality.criticality_report
        traced_report = self.wrap("criticality.criticality_report", report, augmentations)
        self._rebind(report, traced_report)
        self.memo = functools.lru_cache(maxsize=harness._criticality_report.cache_info().maxsize)(traced_report)
        self._set(harness, "_criticality_report", self.memo)

        cache = harness.ReportCache
        self._set(cache, "lookup", self.wrap("harness.cache.lookup", cache.lookup, lookup))
        self._set(cache, "store", self.wrap("harness.cache.store", cache.store))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- turning spans into per-layer numbers ------------------------------

    def summary(self, root: int) -> dict:
        """Per-name calls, self time and inclusive durations, plus coverage of ``root``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        inclusive: dict[str, list[float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            inclusive.setdefault(name, []).append(end - start)
        _, start, end, _ = self.spans[root]
        return {
            "calls": calls,
            "self_s": self_s,
            "inclusive": inclusive,
            "coverage": child_time[root] / (end - start),
        }


def lex_rank(n: int, subset: list[int]) -> int:
    """Position of ``subset`` in ``itertools.combinations(range(n), k)`` order."""
    rank, prev = 0, -1
    k = len(subset)
    for i, v in enumerate(subset):
        for skipped in range(prev + 1, v):
            rank += comb(n - skipped - 1, k - i - 1)
        prev = v
    return rank

