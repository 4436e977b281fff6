"""Scan pipeline: per-graph property reports, named structural checks, the
verification campaigns, and a JSONL report cache.

Every invariant of a graph is read through one per-graph memo,
``GraphFacts``, which computes a field on first read and keeps it. Each named
check tests its hypotheses cheapest first (degree, claws and diameter before
the domination solver, connectivity before criticality, factor criticality
and family membership last), so a campaign computes only what its own
verdict reads and stops at the first hypothesis that fails. Full property
reports and verdicts are read from the same memo; with a report cache, the
memo adopts the cached full report (computed once per class). Scan output
is JSONL, one record per surviving input line, deterministic for a fixed
input order and flag set. A scan streams: it reads one input line at a
time and emits its record before reading the next.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Optional, Union

from . import criticality as crit
from .constructions import clique_chain, is_in_family_H
from .criticality import FAIL, NOT_APPLICABLE, PASS
from .domination import gamma_xk
from .enumeration import _levels, connected_graphs
from .graphs import (
    Graph,
    Graph6Error,
    canonical_key,
    diameter,
    from_graph6,
    independence_number,
    is_connected,
    is_k1r_free,
    min_degree,
    vertex_connectivity,
)
from .matching import FactorCriticalityVerdict, is_k_factor_critical_direct

# Each graph's memo computes its report once, so this keeps nothing: a sized
# cache held the report of every distinct graph a scan met and never hit. It
# stays an lru_cache under this name because the benchmark tracer reads its
# ``cache_info()`` and rebinds it, and the tests monkeypatch it.
_criticality_report = lru_cache(maxsize=0)(crit.criticality_report)


@dataclass
class PropertyReport:
    """All computed invariants of one graph."""

    canonical_id: str
    order: int
    min_degree: int
    connectivity: int
    diameter: Optional[int]
    claw_free: bool
    k14_free: bool
    depth: str
    gamma2: Optional[int] = None
    critical: Optional[bool] = None
    factor_critical: Optional[dict[int, Optional[bool]]] = None
    in_family_H: Optional[bool] = None

    def to_json_dict(self) -> dict:
        out = {name: getattr(self, name) for name in ("order", "depth", *_fields(self.depth))}
        if self.depth == "full":
            out["factor_critical"] = {str(k): v for k, v in (self.factor_critical or {}).items()}
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "PropertyReport":
        out = cls(**{name: data[name] for name in ("order", "depth", *_fields(data["depth"]))})
        if out.depth == "full":
            out.factor_critical = {int(k): v for k, v in data["factor_critical"].items()}
        return out


_FAST_FIELDS = ("canonical_id", "min_degree", "connectivity", "diameter", "claw_free", "k14_free")
_FULL_FIELDS = ("gamma2", "critical", "in_family_H")


def _fields(depth: str) -> tuple[str, ...]:
    """Report fields of a depth, factor criticality aside."""
    return _FAST_FIELDS + _FULL_FIELDS if depth == "full" else _FAST_FIELDS


class GraphFacts:
    """The invariants of one graph, each computed on first read and kept.

    Attribute names match ``PropertyReport``. Factor criticality is read per
    deletion size through ``factor_verdict`` (witness included) or
    ``factor_critical_at``. A cached full report is taken in through
    ``adopt`` (see ``analyze``) instead of being computed.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.order = g.n
        self._factor: dict[int, Optional[FactorCriticalityVerdict]] = {}
        self._factor_holds: dict[int, Optional[bool]] = {}

    def adopt(self, report: PropertyReport) -> None:
        """Take the fields of a report of this graph (or of an isomorphic one)."""
        for name in _fields(report.depth):
            setattr(self, name, getattr(report, name))  # shadows the cached_property
        if report.depth == "full":
            self._factor_holds.update(report.factor_critical or {})

    # The bodies below call the module-level functions of the same names.

    @cached_property
    def canonical_id(self) -> str:
        return canonical_key(self.g).decode("ascii")

    @cached_property
    def min_degree(self) -> int:
        return min_degree(self.g)

    @cached_property
    def connectivity(self) -> int:
        # single-vertex graphs record 0 (they are complete, and complete
        # graphs carry the n-1 convention)
        return 0 if self.g.n == 1 else vertex_connectivity(self.g)

    @cached_property
    def diameter(self) -> Optional[int]:
        return diameter(self.g)

    @cached_property
    def claw_free(self) -> bool:
        return is_k1r_free(self.g, 3)[0]

    @cached_property
    def k14_free(self) -> bool:
        return is_k1r_free(self.g, 4)[0]

    @cached_property
    def gamma2(self) -> Optional[int]:
        gamma = gamma_xk(self.g, 2)
        return gamma.size if gamma.feasible else None

    @cached_property
    def criticality(self) -> Optional[crit.CriticalityReport]:
        """None outside the domain: an isolated vertex, or a disconnected graph."""
        if self.gamma2 is None or not is_connected(self.g):
            return None
        return _criticality_report(self.g, self.gamma2)

    @cached_property
    def critical(self) -> Optional[bool]:
        return None if self.criticality is None else self.criticality.is_critical

    @cached_property
    def in_family_H(self) -> bool:
        return is_in_family_H(self.g, self.canonical_id.encode("ascii"))

    def factor_verdict(self, k: int) -> Optional[FactorCriticalityVerdict]:
        """Direct k-factor-criticality test; None when k > n or n - k is odd."""
        if k not in self._factor:
            applies = k <= self.order and (self.order - k) % 2 == 0
            self._factor[k] = is_k_factor_critical_direct(self.g, k) if applies else None
        return self._factor[k]

    def factor_critical_at(self, k: int) -> Optional[bool]:
        if k not in self._factor_holds:
            verdict = self.factor_verdict(k)
            self._factor_holds[k] = None if verdict is None else verdict.holds
        return self._factor_holds[k]

    def report(self, depth: str) -> PropertyReport:
        out = PropertyReport(order=self.order, depth=depth, **{name: getattr(self, name) for name in _fields(depth)})
        if depth == "full":
            out.factor_critical = {k: self.factor_critical_at(k) for k in (1, 3)}
        return out


def analyze(
    g: Union[Graph, GraphFacts], depth: str = "full", cache: Optional["ReportCache"] = None
) -> PropertyReport:
    """The property report of a graph, or of the graph behind a memo.

    ``fast`` stops after the structural fields; ``full`` adds the double
    domination number, criticality, factor criticality for deletion sizes 1
    and 3, and membership in the exceptional family. Only full reports are
    cached. Given a memo, the report reuses the fields it already holds, and
    a cache hit is adopted into it.
    """
    if depth not in ("fast", "full"):
        raise ValueError("depth must be 'fast' or 'full'")
    facts = g if isinstance(g, GraphFacts) else GraphFacts(g)
    if cache is not None and depth == "full":
        hit = cache.lookup(facts.canonical_id)
        if hit is not None:
            facts.adopt(hit)
            return hit
    report = facts.report(depth)
    if cache is not None and depth == "full":
        cache.store(report.canonical_id, report)
    return report


# -- named checks -------------------------------------------------------------


@lru_cache(maxsize=None)
def _clique_chain_keys(n: int) -> dict[bytes, tuple[int, int]]:
    """Canonical keys of the 1,s,t,1 clique chains of order n."""
    out: dict[bytes, tuple[int, int]] = {}
    for s in range(1, n - 2):
        t = n - 2 - s
        if t >= 1 and s <= t:
            out[canonical_key(clique_chain(1, s, t, 1))] = (s, t)
    return out


def matching_clique_chain(g: Graph) -> Optional[tuple[int, int]]:
    """The (s,t) with g isomorphic to the 1,s,t,1 clique chain, if any."""
    if g.n < 4:
        return None
    return _clique_chain_keys(g.n).get(canonical_key(g))


def _verdict(status: str, witness: Optional[dict] = None) -> dict:
    out = {"status": status}
    if witness is not None:
        out["witness"] = witness
    return out


def _four_critical(f: GraphFacts) -> bool:
    return f.gamma2 == 4 and bool(f.critical)


def _lemma1(f: GraphFacts) -> dict:
    """The diameter of a connected 4-critical graph is 2 or 3."""
    if f.diameter is None or not _four_critical(f):
        return _verdict(NOT_APPLICABLE)
    ok = f.diameter in (2, 3)
    return _verdict(PASS if ok else FAIL, None if ok else {"diameter": f.diameter})


def _lemma2(f: GraphFacts) -> dict:
    """A diameter-3 graph is 4-critical iff it is a 1,s,t,1 clique chain."""
    if f.diameter != 3:
        return _verdict(NOT_APPLICABLE)
    chain = _clique_chain_keys(f.order).get(f.canonical_id.encode("ascii"))
    four_critical = _four_critical(f)
    ok = four_critical == (chain is not None)
    return _verdict(
        PASS if ok else FAIL,
        None if ok else {"gamma2_critical": four_critical, "clique_chain": list(chain) if chain else None},
    )


def _lemma3(f: GraphFacts) -> dict:
    """Star-free 4-critical graphs have small independence number."""
    if f.diameter is None:
        return _verdict(NOT_APPLICABLE)
    applicable_r = [r for r, free in ((3, f.claw_free), (4, f.k14_free)) if free]
    if not applicable_r or not _four_critical(f):
        return _verdict(NOT_APPLICABLE)
    alpha, witness_set = independence_number(f.g)
    bad = [r for r in applicable_r if alpha > r]
    return _verdict(
        PASS if not bad else FAIL,
        None if not bad else {"r": bad[0], "alpha": alpha, "independent_set": sorted(witness_set)},
    )


def _obs1(f: GraphFacts) -> dict:
    """Minimum sets of every augmentation meet the new edge."""
    if f.diameter is None or not f.critical:
        return _verdict(NOT_APPLICABLE)
    obs = crit.check_observation1(f.g, f.criticality)
    if obs.ok:
        return _verdict(PASS)
    u, v, dds = obs.counterexample
    return _verdict(FAIL, {"u": u, "v": v, "dds": sorted(dds)})


def _theorem1_hypotheses(f: GraphFacts) -> bool:
    # a 3-connected graph is connected, so no separate connectedness test
    return (
        f.order % 2 == 1
        and f.min_degree >= 4
        and f.claw_free
        and f.gamma2 == 4
        and f.connectivity >= 3
        and bool(f.critical)
    )


def _theorem1(f: GraphFacts) -> dict:
    """The hypotheses force 3-factor-criticality or family membership."""
    if not _theorem1_hypotheses(f):
        return _verdict(NOT_APPLICABLE)
    if f.in_family_H or f.factor_critical_at(3):
        return _verdict(PASS)
    verdict = f.factor_verdict(3)
    return _verdict(FAIL, {"failing_3_set": sorted(verdict.witness_failure)})


# The five named checks. Each tests its hypotheses cheapest first and reads
# only the fields its verdict needs; fail entries carry a witness that replays.
CHECKS: dict[str, Callable[[GraphFacts], dict]] = {
    "lemma1": _lemma1,
    "lemma2": _lemma2,
    "lemma3": _lemma3,
    "obs1": _obs1,
    "theorem1": _theorem1,
}


def compute_verdicts(facts: GraphFacts) -> dict[str, dict]:
    """All five named checks, read from the memo of one graph."""
    return {name: check(facts) for name, check in CHECKS.items()}


def _are_vertices(g: Graph, items) -> bool:
    """Is a witness field a list of vertices of g?"""
    return isinstance(items, list) and all(isinstance(v, int) and 0 <= v < g.n for v in items)


def replay_verdict(g: Graph, name: str, verdict: dict) -> bool:
    """Confirm that a fail verdict's witness demonstrates the failure.

    Returns True when the recorded witness still exhibits the violation when
    recomputed through the library, False otherwise. Pass and not-applicable
    verdicts replay trivially.
    """
    if verdict.get("status") != FAIL:
        return True
    witness = verdict.get("witness") or {}
    if name == "lemma1":
        return diameter(g) == witness.get("diameter") and witness.get("diameter") not in (2, 3)
    if name == "lemma2":
        if diameter(g) != 3:  # a disconnected graph is outside criticality's domain
            return False
        report = crit.criticality_report(g)
        four = report.is_critical and report.gamma2 == 4
        return four != (matching_clique_chain(g) is not None)
    if name == "lemma3":
        r, indep = witness.get("r"), witness.get("independent_set")
        if r not in (3, 4) or not _are_vertices(g, indep) or len(set(indep)) <= r:
            return False
        free, _ = is_k1r_free(g, r)
        return free and all(not g.adjacent(u, v) for i, u in enumerate(indep) for v in indep[i + 1:])
    if name == "obs1":
        from .domination import is_k_tuple_dominating
        from .graphs import add_edge

        u, v, dds = witness.get("u"), witness.get("v"), witness.get("dds")
        if not _are_vertices(g, [u, v]) or not _are_vertices(g, dds) or g.adjacent(u, v):
            return False
        try:
            report = crit.criticality_report(g)
        except ValueError:  # an isolated vertex or a disconnected graph: no critical graph
            return False
        entry = next((e for e in report.per_nonedge if {e.u, e.v} == {u, v}), None)
        if entry is None or len(dds) != entry.gamma2_after or not is_k_tuple_dominating(add_edge(g, u, v), dds, 2):
            return False
        hit = len(set(dds) & {u, v})
        return hit == 0 or (entry.drop == 2 and hit != 2)
    if name == "theorem1":
        from .matching import _has_pm_minus

        failing = witness.get("failing_3_set")
        # three distinct vertices, or the mask below deletes fewer than three
        if not _are_vertices(g, failing) or len(set(failing)) != 3 or is_in_family_H(g):
            return False
        mask = 0
        for v in failing:
            mask |= 1 << v
        return not _has_pm_minus(g.rows, g.n, mask)
    raise ValueError(f"unknown check {name!r}")


# -- scan ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Hypotheses:
    """Filter conditions a scanned graph must meet to produce a record."""

    connected: bool = False
    odd_order: bool = False
    min_degree: Optional[int] = None
    min_connectivity: Optional[int] = None
    claw_free: bool = False
    k14_free: bool = False
    gamma2: Optional[int] = None
    critical: bool = False

    def needs_full(self) -> bool:
        return self.gamma2 is not None or self.critical

    def fast_pass(self, facts: GraphFacts) -> bool:
        # cheapest first: a failed test leaves the rest uncomputed
        if self.odd_order and facts.order % 2 == 0:
            return False
        if self.min_degree is not None and facts.min_degree < self.min_degree:
            return False
        if self.connected and facts.diameter is None:
            return False
        if self.claw_free and not facts.claw_free:
            return False
        if self.k14_free and not facts.k14_free:
            return False
        if self.min_connectivity is not None and facts.connectivity < self.min_connectivity:
            return False
        return True

    def full_pass(self, facts: GraphFacts) -> bool:
        if self.gamma2 is not None and facts.gamma2 != self.gamma2:
            return False
        if self.critical and not facts.critical:
            return False
        return True


def decode_lines(lines: Iterable[str]) -> Iterator[tuple[int, str, Union[Graph, Graph6Error]]]:
    """Each non-blank graph6 line as ``(input_index, text, graph or decode error)``.

    Blank lines yield nothing but still count in the index, so an index
    names the line of the input it came from.
    """
    for index, line in enumerate(lines):
        text = line.strip()
        if not text:
            continue
        try:
            decoded = from_graph6(text)
        except Graph6Error as exc:
            decoded = exc
        yield index, text, decoded


def _scan_one(
    item: tuple[int, str, Union[Graph, Graph6Error]],
    hypotheses: Hypotheses,
    depth: str,
    cache: Optional["ReportCache"],
) -> Optional[dict]:
    index, text, g = item
    if isinstance(g, Graph6Error):
        return {"input_index": index, "graph6": text, "error": str(g)}
    facts = GraphFacts(g)
    if not hypotheses.fast_pass(facts):
        return None
    if depth == "full" or hypotheses.needs_full():
        # builds the full report, or adopts a cached one, into the memo
        report = analyze(facts, "full", cache=cache)
        if not hypotheses.full_pass(facts):
            return None
    if depth == "fast":
        return {"input_index": index, "graph6": text, "report": analyze(facts, "fast").to_json_dict(), "verdicts": {}}
    return {"input_index": index, "graph6": text, "report": report.to_json_dict(), "verdicts": compute_verdicts(facts)}


def scan(
    lines: Iterable[str],
    hypotheses: Hypotheses = Hypotheses(),
    depth: str = "full",
    cache: Optional["ReportCache"] = None,
) -> Iterator[dict]:
    """One record per surviving input line, in input order.

    Malformed lines yield error records and scanning continues. Lines are
    read lazily: a record is yielded before the line after it is read, so a
    scan holds one graph at a time however long its input.
    """
    if depth not in ("fast", "full"):
        raise ValueError("depth must be 'fast' or 'full'")
    for item in decode_lines(lines):
        record = _scan_one(item, hypotheses, depth, cache)
        if record is not None:
            yield record


def record_to_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# -- verification campaigns ----------------------------------------------------


@dataclass
class CampaignSummary:
    name: str
    examined: int = 0
    passed: int = 0
    failed: int = 0
    not_applicable: int = 0
    violations: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def count(self, g: Graph, verdict: dict):
        self.examined += 1
        status = verdict["status"]
        if status == PASS:
            self.passed += 1
        elif status == FAIL:
            self.failed += 1
            self.violations.append({"graph6": canonical_key(g).decode("ascii"), "verdict": verdict})
        else:
            self.not_applicable += 1

    def describe(self) -> str:
        return (
            f"{self.name}: examined={self.examined} pass={self.passed} "
            f"fail={self.failed} not-applicable={self.not_applicable}"
        )


# Lemma 2's forward direction is checked on the 1,s,t,1 clique chains with
# s, t up to this bound.
_LEMMA2_CHAIN_MAX = 4


def run_campaign(name: str, graphs: Iterable[Graph], cache: Optional["ReportCache"] = None) -> CampaignSummary:
    """Run one named check over a corpus.

    Each graph gets one memo. Without a cache it computes only the fields
    the check reads; with one, it first takes the full report (from the
    cache, or computed and stored) so the cache keeps holding full reports.
    ``lemma1`` tallies the diameters of its passes; ``lemma2`` adds the
    forward direction of the classification, that every 1,s,t,1 clique chain
    is 4-critical with diameter 3 (the corpus check is the converse);
    ``theorem1`` tallies the exceptional family members it meets.
    """
    check = CHECKS[name]
    summary = CampaignSummary(name)
    family: dict[str, int] = {}
    for g in graphs:
        facts = GraphFacts(g)
        if cache is not None:
            analyze(facts, "full", cache=cache)
        verdict = check(facts)
        summary.count(g, verdict)
        if name == "lemma1" and verdict["status"] == PASS:
            hist = summary.extras.setdefault("diameter_counts", {})
            hist[facts.diameter] = hist.get(facts.diameter, 0) + 1
        if name == "theorem1" and verdict["status"] != NOT_APPLICABLE and facts.in_family_H:
            family[facts.canonical_id] = family.get(facts.canonical_id, 0) + 1
    if name == "lemma2":
        forward_failures = []
        for s, t in itertools.product(range(1, _LEMMA2_CHAIN_MAX + 1), repeat=2):
            chain = clique_chain(1, s, t, 1)
            report = crit.criticality_report(chain)
            if not (report.is_critical and report.gamma2 == 4 and diameter(chain) == 3):
                forward_failures.append({"s": s, "t": t})
        summary.extras["forward_checked"] = _LEMMA2_CHAIN_MAX**2
        summary.extras["forward_failures"] = forward_failures
        summary.failed += len(forward_failures)
        summary.violations.extend({"forward": f} for f in forward_failures)
    if name == "theorem1":
        summary.extras["family_classes"] = sorted(family)
        summary.extras["family_occurrences"] = family
    return summary


# -- report cache ---------------------------------------------------------------


class ReportCache:
    """JSONL cache of full property reports keyed by canonical id.

    Stores append a line and are idempotent per key. Each line carries the
    ``version`` of the code that wrote it. Lines of another version (or of
    none) are not served: a load that finds any warns once with their count,
    and their reports are recomputed and stored again. Corrupt lines are
    skipped with a warning each; so is a line whose report is not of full
    depth, or is filed under a key other than its own canonical id. A load
    that skips any line rewrites the file with only the lines it serves, so
    the next load has nothing to skip.
    """

    # Raise this whenever a stored report could differ from what the current
    # code computes: a new field, a changed meaning, a solver fix.
    VERSION = 1

    def __init__(self, path):
        self.path = path
        self._entries: dict[str, PropertyReport] = {}
        kept: list[str] = []  # the lines served, for a rewrite
        stale = 0
        corrupt = 0
        try:
            # a non-ASCII byte is read as a lone surrogate, which fails the
            # encode below, so it spoils its own line only
            with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line.encode("ascii"))
                        if data.get("version") != self.VERSION:  # its report may have another schema
                            stale += 1
                            continue
                        report = PropertyReport.from_json_dict(data["report"])
                        if report.depth != "full" or report.canonical_id != data["key"]:
                            raise ValueError("not the full report of its key")
                        self._entries[data["key"]] = report
                        kept.append(line + "\n")
                    except (ValueError, KeyError, TypeError, AttributeError):
                        corrupt += 1
                        print(
                            f"warning: skipping corrupt cache line {lineno} in {path}",
                            file=sys.stderr,
                        )
        except FileNotFoundError:
            pass
        if stale:
            print(
                f"warning: dropping {stale} cache lines from {path} not written by version {self.VERSION}",
                file=sys.stderr,
            )
        if stale or corrupt:
            partial = f"{path}.partial"
            with open(partial, "w", encoding="ascii") as fh:
                fh.writelines(kept)
            os.replace(partial, path)

    def lookup(self, key: str) -> Optional[PropertyReport]:
        return self._entries.get(key)

    def store(self, key: str, report: PropertyReport) -> None:
        if key in self._entries:
            return
        self._entries[key] = report
        line = json.dumps(
            {"key": key, "report": report.to_json_dict(), "version": self.VERSION},
            sort_keys=True,
            separators=(",", ":"),
        )
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(line + "\n")


# -- built-in corpora ------------------------------------------------------------


def default_corpus(check: str, max_order: int) -> Iterator[Graph]:
    """Built-in corpus for a named campaign.

    The first four checks walk every connected graph up to the order cap. The
    main-claim campaign walks connected claw-free graphs of odd order with
    minimum degree at least 4 (its own hypotheses), which keeps the
    enumeration tractable at order 9 without an external generator.
    """
    if check == "theorem1":
        for n in range(3, max_order + 1):
            if n % 2 == 1:
                yield from connected_graphs(n, claw_free=True, final_min_degree=4)
    else:
        for level in _levels(max_order, False, None):
            yield from filter(is_connected, level)
