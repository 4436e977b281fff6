"""Edge-criticality of the double domination number, plus the structural
facts about minimum double dominating sets of single-edge augmentations.

A connected graph is edge critical when adding any missing edge strictly
lowers the double domination number. Complete graphs have no missing edge and
are classified critical vacuously, with an explicit flag so reports stay
honest.

Every augmentation is decided from one walk over the subsets of G, with no
solver run on G+uv. Call a vertex deficient under a set S when its closed
neighborhood meets S fewer than two times. Adding uv changes only the closed
neighborhoods of u and v, each by one vertex, so S double dominates G+uv iff
every deficient vertex lies in {u, v}, each deficient endpoint meets S exactly
once, and the new edge repairs it: u deficient needs v in S, v deficient
needs u in S. A deficient endpoint also forces uv to be a non-edge (an edge
would already count the other endpoint). The double domination number drops
by at most two under one added edge (put u and v, or a neighbor of each, into
a minimum set of G+uv), so walking the (gamma-2)-subsets and then the
(gamma-1)-subsets of G finds gamma(G+uv) for every non-edge at once; a
non-edge repaired by neither pass keeps gamma. The subsets come from
``domination.dds_walk`` with a slack of two deficient vertices, in
``itertools.combinations`` order, so the sets found for uv at its own size
are exactly the minimum double dominating sets of G+uv, in lexicographic
order, whenever the edge lowers the number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from .graphs import Graph, _bits, components, is_connected, min_degree
from .domination import dds_walk, gamma_xk

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


class NonEdgeDrop(NamedTuple):
    u: int
    v: int
    gamma2_after: int
    drop: int


@dataclass(frozen=True, slots=True)
class CriticalityReport:
    gamma2: int
    is_critical: bool
    per_nonedge: tuple[NonEdgeDrop, ...]
    vacuous: bool


# The report and then the checks that read the minimum sets of the same
# graph's augmentations (Observation 1, each Lemma 4/5 cutset) share one walk.
@lru_cache(maxsize=16)
def _lowered(g: Graph, gamma2: int) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
    """Every non-edge uv with gamma(G+uv) < gamma2, mapped to gamma(G+uv) and
    the minimum double dominating sets of G+uv, as masks in lexicographic
    order. Memoized: callers must not change the dict.

    Reads the sets of sizes gamma2-2 and gamma2-1 that cover every vertex and
    leave at most two covered once: a set that leaves more, or misses a
    vertex, leaves a vertex no single edge repairs.
    """
    lowered: dict[tuple[int, int], tuple[int, list[int]]] = {}

    def repaired(chosen: int, u: int, v: int) -> None:
        size, sets = lowered.setdefault((u, v) if u < v else (v, u), (chosen.bit_count(), []))
        if size == chosen.bit_count():  # a pair lowered by two keeps only its smaller sets
            sets.append(chosen)

    for size in (gamma2 - 2, gamma2 - 1):
        for chosen, short in dds_walk(g, size, 2):
            if short and short & (short - 1) == 0:
                u = short.bit_length() - 1
                for v in _bits(chosen & ~(g.rows[u] | 1 << u)):
                    repaired(chosen, u, v)
            elif short.bit_count() == 2 and short & chosen == short:
                repaired(chosen, (short & -short).bit_length() - 1, short.bit_length() - 1)
    return {pair: (size, tuple(sets)) for pair, (size, sets) in lowered.items()}


def criticality_report(g: Graph, gamma2: Optional[int] = None) -> CriticalityReport:
    """Classify edge criticality from one walk over the subsets of g.

    ``gamma2``, when the caller already knows it, is taken as the double
    domination number of ``g`` instead of being solved again.
    """
    if min_degree(g) < 1:
        raise ValueError("criticality needs minimum degree at least 1")
    if not is_connected(g):
        raise ValueError("criticality is defined for connected graphs only")
    if gamma2 is None:
        gamma2 = gamma_xk(g, 2).size
    lowered = _lowered(g, gamma2)
    entries = []
    for u, v in g.non_edges():
        after = lowered.get((u, v), (gamma2,))[0]
        entries.append(NonEdgeDrop(u, v, after, gamma2 - after))
    vacuous = not entries
    critical = vacuous or all(e.drop >= 1 for e in entries)
    return CriticalityReport(gamma2, critical, tuple(entries), vacuous)


def _minimum_sets(g: Graph, report: CriticalityReport) -> dict[tuple[int, int], list[frozenset]]:
    """The minimum double dominating sets of every augmentation of a critical
    graph, in lexicographic order, keyed by the added non-edge."""
    lowered = _lowered(g, report.gamma2)
    return {pair: [frozenset(_bits(mask)) for mask in masks] for pair, (_, masks) in lowered.items()}


@dataclass(frozen=True, slots=True)
class Obs1Result:
    ok: bool
    counterexample: Optional[tuple] = None  # (u, v, offending minimum set)


def check_observation1(g: Graph, report: Optional[CriticalityReport] = None) -> Obs1Result:
    """Every minimum double dominating set of G+uv must meet {u,v}; when the
    augmentation lowers the number by two it must contain both endpoints.

    Checked over all minimum sets of every augmentation, since any one of
    them could serve as the chosen set.
    """
    if report is None:
        report = criticality_report(g)
    if not report.is_critical:
        raise ValueError("observation check needs an edge-critical graph")
    minimum = _minimum_sets(g, report)
    for u, v, after, drop in report.per_nonedge:
        for dds in minimum[u, v]:
            hit = len(dds & {u, v})
            if hit == 0 or (drop == 2 and hit != 2):
                return Obs1Result(False, (u, v, dds))
    return Obs1Result(True)


@dataclass(frozen=True, slots=True)
class ProfileCheckResult:
    status: str  # pass / fail / not-applicable
    mode: Optional[str] = None  # "many-components" or "two-large-components"
    detail: Optional[str] = None
    counterexample: Optional[frozenset] = None


def check_lemma45_profile(
    g: Graph,
    cut,
    x: int,
    y: int,
    report: Optional[CriticalityReport] = None,
) -> ProfileCheckResult:
    """Shape of the minimum sets of G+xy when a cutset separates x from y.

    With three or more components every minimum set of G+xy has size 3 and
    meets {x,y} exactly once. With exactly two components, both of size at
    least two, every minimum set has size 3 and meets the cutset. A cutset
    with two components one of which is a singleton fits neither hypothesis
    and is reported as not applicable.
    """
    cut = frozenset(cut)
    if report is None:
        report = criticality_report(g)
    if not (report.is_critical and report.gamma2 == 4):
        raise ValueError("profile check needs an edge-critical graph with double domination number 4")
    comps = components(g, cut)
    if len(comps) < 2:
        raise ValueError("the supplied set is not a cutset")
    loc_x = next((i for i, c in enumerate(comps) if x in c), None)
    loc_y = next((i for i, c in enumerate(comps) if y in c), None)
    if loc_x is None or loc_y is None or loc_x == loc_y:
        raise ValueError("x and y must lie in different components of the cut graph")
    if len(comps) >= 3:
        mode = "many-components"
    elif all(len(c) >= 2 for c in comps):
        mode = "two-large-components"
    else:
        return ProfileCheckResult(NOT_APPLICABLE, None, "a component of the cut graph is a singleton")
    for mask in _lowered(g, report.gamma2)[min(x, y), max(x, y)][1]:
        dds = frozenset(_bits(mask))
        if len(dds) != 3:
            return ProfileCheckResult(FAIL, mode, "minimum set size differs from 3", dds)
        if mode == "many-components" and len(dds & {x, y}) != 1:
            return ProfileCheckResult(FAIL, mode, "minimum set does not meet {x,y} exactly once", dds)
        if mode == "two-large-components" and not dds & cut:
            return ProfileCheckResult(FAIL, mode, "minimum set misses the cutset", dds)
    return ProfileCheckResult(PASS, mode)
