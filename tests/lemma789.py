"""Structure checker for the paper's Lemmas 7-9, used only by the tests.

For a graph that meets the main theorem's hypotheses but is not
3-factor-critical, it looks for the 3-sets whose removal leaves exactly two
odd components, checks the diameter-2 tiling of Lemma 8, and, outside the
exceptional family, that no vertex sees all three cut vertices (Lemma 9).
It is not one of the harness's named checks: scan records and campaign
output do not carry it.
"""

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ddcrit.criticality import FAIL, NOT_APPLICABLE, PASS
from ddcrit.graphs import Graph, components
from ddcrit.harness import THEOREM1, GraphFacts


@dataclass
class Lemma789Result:
    """Structure report for a hypothesis-satisfying graph that is not
    3-factor-critical: a 3-set with exactly two odd components must exist,
    and in the diameter-2 case the cut neighborhoods tile the components."""

    status: str
    reason: Optional[str] = None
    cutsets: list = field(default_factory=list)
    lemma8_status: str = NOT_APPLICABLE
    lemma8_detail: Optional[dict] = None
    lemma9_status: str = NOT_APPLICABLE


def verify_lemma7_8_9(g: Graph) -> Lemma789Result:
    facts = GraphFacts(g)
    if not THEOREM1.holds(facts):
        return Lemma789Result(NOT_APPLICABLE, "hypotheses not satisfied")
    if facts.factor_critical_at(3):
        return Lemma789Result(NOT_APPLICABLE, "graph is 3-factor-critical")

    found = []
    for combo in itertools.combinations(range(g.n), 3):
        cut = frozenset(combo)
        comps = components(g, cut)
        odd = [c for c in comps if len(c) % 2 == 1]
        if len(odd) == 2 and len(comps) == 2:
            found.append((cut, comps))
    if not found:
        return Lemma789Result(FAIL, "no 3-set with exactly two odd components")

    result = Lemma789Result(PASS)
    result.cutsets = [sorted(cut) for cut, _ in found]
    if facts.diameter == 2:
        detail = {"checked": 0, "failures": []}
        for cut, comps in found:
            c1, c2 = comps
            a_sets = [frozenset(v for v in c1 if g.adjacent(v, s)) for s in sorted(cut)]
            b_sets = [frozenset(v for v in c2 if g.adjacent(v, s)) for s in sorted(cut)]
            detail["checked"] += 1

            def complete(sub: frozenset) -> bool:
                return all(g.adjacent(u, v) for u in sub for v in sub if u < v)

            ok = (
                all(a and b for a, b in zip(a_sets, b_sets))
                and all(complete(a) for a in a_sets)
                and all(complete(b) for b in b_sets)
                and frozenset().union(*a_sets) == c1
                and frozenset().union(*b_sets) == c2
                and any(a_sets[i] & a_sets[j] for i in range(3) for j in range(i + 1, 3))
                and any(b_sets[i] & b_sets[j] for i in range(3) for j in range(i + 1, 3))
            )
            if not ok:
                detail["failures"].append(sorted(cut))
        result.lemma8_status = PASS if not detail["failures"] else FAIL
        result.lemma8_detail = detail
        if detail["failures"]:
            result.status = FAIL
    if not facts.in_family_H:
        # outside the exceptional family the three cut neighborhoods on each
        # side can have no common vertex
        bad = []
        for cut, comps in found:
            c1, c2 = comps
            meets_all_1 = frozenset(
                v for v in c1 if all(g.adjacent(v, s) for s in cut)
            )
            meets_all_2 = frozenset(
                v for v in c2 if all(g.adjacent(v, s) for s in cut)
            )
            if meets_all_1 or meets_all_2:
                bad.append(sorted(cut))
        result.lemma9_status = PASS if not bad else FAIL
        if bad:
            result.status = FAIL
    return result
