"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy corpora (every graph class up to 8 vertices, the constrained
order-9 corpus) are session fixtures shared with the rest of the suite, and
repeated solver work is memoized process-wide, so the stated runtime budgets
hold with a lot of slack even when a criterion is run on its own.
"""

import time

from ddcrit.constructions import (
    clique_chain,
    h_6t,
    h_6t_named_cut,
    h_r33,
    h_r33_triple,
    is_in_family_H,
)
from ddcrit.criticality import criticality_report
from ddcrit.domination import gamma_xk, is_k_tuple_dominating
from ddcrit.graphs import (
    Graph,
    canonical_key,
    diameter,
    is_connected,
    is_k1r_free,
    min_degree,
    to_graph6,
    vertex_connectivity,
)
from ddcrit.harness import (
    Hypotheses,
    analyze,
    matching_clique_chain,
    record_to_json,
    run_campaign,
    scan,
)
from ddcrit.matching import _has_pm_minus, is_k_factor_critical_direct
from oracles import brute_max_matching_size, brute_min_k_tuple_size, is_k_factor_critical_favaron, maximum_matching


def _report(num: int, name: str, ok: bool, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_exceptional_family_reproduction():
    start = time.perf_counter()
    problems = []
    for r in (3, 5, 7):
        g = h_r33(r)
        rep = criticality_report(g)
        verdict = is_k_factor_critical_direct(g, 3)
        checks = {
            "order": g.n == r + 6 and g.n % 2 == 1,
            "min_degree": min_degree(g) == 4,
            "connectivity": vertex_connectivity(g) >= 3,
            "claw_free": is_k1r_free(g, 3)[0],
            "gamma2": rep.gamma2 == 4,
            "critical": rep.is_critical,
            "not_3fc": not verdict.holds,
            "witness_is_triple": verdict.witness_failure == h_r33_triple(r),
        }
        problems.extend(f"r={r}:{k}" for k, v in checks.items() if not v)
    elapsed = time.perf_counter() - start
    _report(1, "family reproduction", not problems and elapsed < 10, f"{elapsed:.1f}s {problems}")


def test_criterion_2_sharpness_example():
    start = time.perf_counter()
    problems = []
    for t in (3, 5):
        g = h_6t(t)
        rep = criticality_report(g)
        verdict = is_k_factor_critical_direct(g, 3)
        named = h_6t_named_cut(t)
        named_mask = sum(1 << v for v in named)
        witness_mask = sum(1 << v for v in verdict.witness_failure)
        checks = {
            "order": g.n == t + 6,
            "min_degree": min_degree(g) == 4,
            "connectivity": vertex_connectivity(g) == 4,
            "gamma2": rep.gamma2 == 4,
            "critical": rep.is_critical,
            "has_claw": not is_k1r_free(g, 3)[0],
            "not_3fc": not verdict.holds,
            "named_cut_verified": not _has_pm_minus(g.rows, g.n, named_mask),
            "returned_witness_verified": not _has_pm_minus(g.rows, g.n, witness_mask),
        }
        problems.extend(f"t={t}:{k}" for k, v in checks.items() if not v)
    elapsed = time.perf_counter() - start
    _report(2, "sharpness example", not problems and elapsed < 10, f"{elapsed:.1f}s {problems}")


def test_criterion_3_diameter3_classification_both_directions(connected_upto_8):
    start = time.perf_counter()
    summary = run_campaign("lemma2", connected_upto_8)
    converse_ok = summary.failed == 0
    forward_ok = not summary.extras["forward_failures"]
    # spot check the converse logic on the chains themselves
    spot = all(
        matching_clique_chain(clique_chain(1, s, t, 1)) == (min(s, t), max(s, t))
        for s, t in ((1, 1), (2, 3), (4, 4))
    )
    elapsed = time.perf_counter() - start
    _report(
        3,
        "diameter-3 classification",
        converse_ok and forward_ok and spot and elapsed < 300,
        f"{elapsed:.1f}s examined={summary.examined}",
    )


def test_criterion_4_diameter_bound_exhaustive(connected_upto_8):
    start = time.perf_counter()
    summary = run_campaign("lemma1", connected_upto_8)
    diam_counts = summary.extras.get("diameter_counts", {})
    ok = (
        summary.failed == 0
        and summary.passed > 0
        and set(diam_counts) <= {2, 3}
    )
    elapsed = time.perf_counter() - start
    _report(
        4,
        "diameter bound",
        ok and elapsed < 300,
        f"{elapsed:.1f}s critical4={summary.passed} diameters={diam_counts}",
    )


def test_criterion_5_independence_bound_exhaustive(connected_upto_8):
    start = time.perf_counter()
    summary = run_campaign("lemma3", connected_upto_8)
    elapsed = time.perf_counter() - start
    _report(
        5,
        "independence bound",
        summary.failed == 0 and summary.passed > 0 and elapsed < 300,
        f"{elapsed:.1f}s applicable={summary.passed}",
    )


def test_criterion_6_minimum_sets_meet_added_edge(connected_upto_8):
    start = time.perf_counter()
    summary = run_campaign("obs1", connected_upto_8)
    elapsed = time.perf_counter() - start
    _report(
        6,
        "augmentation minimum sets",
        summary.failed == 0 and summary.passed > 0 and elapsed < 300,
        f"{elapsed:.1f}s critical={summary.passed}",
    )


def test_criterion_7_main_theorem_campaign(theorem1_corpus):
    start = time.perf_counter()
    summary = run_campaign("theorem1", theorem1_corpus)
    family = summary.extras["family_classes"]
    ok = (
        summary.failed == 0
        and len(family) == 1
        and family[0] == canonical_key(h_r33(3)).decode("ascii")
    )
    elapsed = time.perf_counter() - start
    _report(
        7,
        "main theorem campaign",
        ok and elapsed < 1800,
        f"{elapsed:.1f}s examined={summary.examined} applicable={summary.passed} family={family}",
    )


def test_criterion_8a_matching_oracle_equivalence(graphs_small):
    start = time.perf_counter()
    mismatches = 0
    for n in range(1, 8):
        for g in graphs_small[n]:
            if len(maximum_matching(g)) != brute_max_matching_size(g):
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(8, "oracle equivalence a: matching", mismatches == 0, f"{elapsed:.1f}s n<=7")


def test_criterion_8b_factor_criticality_oracle_equivalence(graphs_by_n):
    start = time.perf_counter()
    mismatches = []
    for n in range(1, 9):
        for g in graphs_by_n[n]:
            for k in (0, 1, 2, 3):
                if k > g.n or (g.n - k) % 2:
                    continue
                direct = is_k_factor_critical_direct(g, k)
                favaron = is_k_factor_critical_favaron(g, k)
                if direct.holds != favaron.holds:
                    mismatches.append((to_graph6(g), k))
    elapsed = time.perf_counter() - start
    _report(
        8,
        "oracle equivalence b: factor criticality",
        not mismatches,
        f"{elapsed:.1f}s n<=8 k<=3 {mismatches[:3]}",
    )


def test_criterion_8c_domination_oracle_equivalence(connected_upto_8):
    start = time.perf_counter()
    mismatches = 0
    for g in connected_upto_8:
        expected = brute_min_k_tuple_size(g, 2)
        result = gamma_xk(g, 2)
        got = result.size if result.feasible else None
        if expected != got:
            mismatches += 1
        elif result.feasible and not is_k_tuple_dominating(g, result.witness.vertices, 2):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(8, "oracle equivalence c: domination", mismatches == 0, f"{elapsed:.1f}s connected n<=8")


def test_criterion_9_scan_determinism(graphs_small):
    start = time.perf_counter()
    lines = [to_graph6(g) + "\n" for g in graphs_small[6]]

    def output(source) -> bytes:
        records = scan(source, Hypotheses(connected=True), depth="full")
        return "\n".join(record_to_json(r) for r in records).encode("ascii")

    outputs = [output(lines), output(lines), output(line for line in lines)]
    elapsed = time.perf_counter() - start
    _report(
        9,
        "scan determinism",
        outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) > 0,
        f"{elapsed:.1f}s two runs over a list and one over a one-shot generator byte-identical",
    )
