"""Edge-criticality of the double domination number, plus the structural
facts about minimum double dominating sets of single-edge augmentations.

A connected graph is edge critical when adding any missing edge strictly
lowers the double domination number. Complete graphs have no missing edge and
are classified critical vacuously, with an explicit flag so reports stay
honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .graphs import Graph, add_edge, components, is_connected, min_degree
from .domination import all_minimum_dds, gamma_xk

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


def criticality_report(g: Graph, gamma2: Optional[int] = None) -> CriticalityReport:
    """Classify edge criticality by solving every single-edge augmentation.

    ``gamma2``, when the caller already knows it, is taken as the double
    domination number of ``g`` instead of being solved again.
    """
    if min_degree(g) < 1:
        raise ValueError("criticality needs minimum degree at least 1")
    if not is_connected(g):
        raise ValueError("criticality is defined for connected graphs only")
    if gamma2 is None:
        gamma2 = gamma_xk(g, 2).size
    entries = []
    for u, v in g.non_edges():
        after = gamma_xk(add_edge(g, u, v), 2).size
        entries.append(NonEdgeDrop(u, v, after, gamma2 - after))
    vacuous = not entries
    critical = vacuous or all(e.drop >= 1 for e in entries)
    return CriticalityReport(gamma2, critical, tuple(entries), vacuous)


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
    for u, v, after, drop in report.per_nonedge:
        for dds in all_minimum_dds(add_edge(g, u, v)):
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
    augmented = add_edge(g, x, y)
    for dds in all_minimum_dds(augmented):
        if len(dds) != 3:
            return ProfileCheckResult(FAIL, mode, "minimum set size differs from 3", dds)
        if mode == "many-components" and len(dds & {x, y}) != 1:
            return ProfileCheckResult(FAIL, mode, "minimum set does not meet {x,y} exactly once", dds)
        if mode == "two-large-components" and not dds & cut:
            return ProfileCheckResult(FAIL, mode, "minimum set misses the cutset", dds)
    return ProfileCheckResult(PASS, mode)
