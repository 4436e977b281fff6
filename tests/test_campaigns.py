"""Demand-driven campaigns: same verdicts as the eager path, pinned campaign
output, and proof that expensive invariants run only where a verdict needs
them."""

import json

import pytest

from ddcrit import constructions, harness
from ddcrit import criticality as crit
from ddcrit.cli import main
from ddcrit.constructions import h_6t, h_r33, is_in_family_H
from ddcrit.graphs import Graph, canonical_key, from_graph6, to_graph6
from ddcrit.harness import (
    CHECKS,
    GraphFacts,
    Hypotheses,
    ReportCache,
    analyze,
    compute_verdicts,
    default_corpus,
    record_to_json,
    run_campaign,
    scan,
)
from oracles import eager_verdicts

# `ddcrit verify <check> --max-order 7` stdout, recorded before the checks
# became demand driven
PINNED_ORDER7 = {
    "lemma1": '{"check":"lemma1","examined":996,"extras":{"diameter_counts":{"2":21,"3":6}},'
    '"failed":0,"not_applicable":969,"passed":27,"violations":[]}',
    "lemma2": '{"check":"lemma2","examined":996,"extras":{"forward_checked":16,"forward_failures":[]},'
    '"failed":0,"not_applicable":560,"passed":436,"violations":[]}',
    "lemma3": '{"check":"lemma3","examined":996,"extras":{},'
    '"failed":0,"not_applicable":969,"passed":27,"violations":[]}',
    "obs1": '{"check":"obs1","examined":996,"extras":{},'
    '"failed":0,"not_applicable":917,"passed":79,"violations":[]}',
    "theorem1": '{"check":"theorem1","examined":23,"extras":{"family_classes":[],"family_occurrences":{}},'
    '"failed":0,"not_applicable":23,"passed":0,"violations":[]}',
}

# order-9 graphs of the theorem1 corpus (claw-free, minimum degree 4), each
# stopping at a different hypothesis
PASSES_OUTSIDE_FAMILY = "Htoyz\\v"  # 3-factor-critical
TWO_CONNECTED = "HwCW~Nw"  # gamma2 4, connectivity 2
NOT_CRITICAL = "HKyujt|"  # gamma2 4, 3-connected, not critical


def test_demand_driven_verdicts_match_eager_reference(connected_upto_8, theorem1_corpus):
    mismatches = []
    for g in list(connected_upto_8) + list(theorem1_corpus):
        facts = GraphFacts(g)
        expected = eager_verdicts(g, analyze(facts, "full"))
        assert compute_verdicts(facts) == expected
        for name, check in CHECKS.items():
            if check(GraphFacts(g)) != expected[name]:
                mismatches.append((to_graph6(g), name))
    assert not mismatches


@pytest.mark.parametrize("check", sorted(PINNED_ORDER7))
def test_campaign_output_is_pinned_at_order_7(check, capsys):
    assert main(["verify", check, "--max-order", "7"]) == 0
    assert capsys.readouterr().out == PINNED_ORDER7[check] + "\n"


def test_theorem1_campaign_is_pinned_at_order_9(theorem1_corpus):
    summary = run_campaign("theorem1", theorem1_corpus)
    assert (summary.examined, summary.passed, summary.failed, summary.not_applicable) == (1544, 18, 0, 1526)
    assert summary.extras["family_classes"] == ["HwCZ|z\\"]
    assert summary.extras["family_occurrences"] == {"HwCZ|z\\": 1}
    assert summary.violations == []


def _count_calls(monkeypatch, name):
    """Replace ``harness.<name>`` by a wrapper logging each graph it is given."""
    seen = []
    original = getattr(harness, name)

    def counted(g, *args):
        seen.append((to_graph6(g), *args))
        return original(g, *args)

    monkeypatch.setattr(harness, name, counted)
    return seen


def test_theorem1_runs_expensive_tests_only_past_cheaper_hypotheses(monkeypatch):
    family, outside, two_conn, not_crit = (
        h_r33(3),
        from_graph6(PASSES_OUTSIDE_FAMILY),
        from_graph6(TWO_CONNECTED),
        from_graph6(NOT_CRITICAL),
    )
    corpus = [family, h_6t(3), Graph.complete(9), Graph.cycle(9), outside, two_conn, not_crit]
    connectivity = _count_calls(monkeypatch, "vertex_connectivity")
    criticality = _count_calls(monkeypatch, "_criticality_report")
    membership = _count_calls(monkeypatch, "is_in_family_H")
    factor = _count_calls(monkeypatch, "is_k_factor_critical_direct")
    summary = run_campaign("theorem1", corpus)
    assert (summary.passed, summary.failed, summary.not_applicable) == (2, 0, 5)
    name = to_graph6
    # h_6t has a claw, K9 has gamma2 2 and C9 minimum degree 2
    assert connectivity == [(name(g),) for g in (family, outside, two_conn, not_crit)]
    # each memo hands its gamma2 and its canonical key on instead of recomputing them
    assert criticality == [(name(g), 4) for g in (family, outside, not_crit)]
    assert membership == [(name(g), canonical_key(g)) for g in (family, outside)]
    assert factor == [(name(outside), 3)]  # the family member passes without it


def test_criticality_reuses_the_memos_gamma2(monkeypatch):
    g = h_r33(3)
    harness._criticality_report.cache_clear()
    solved = []
    for module in (harness, crit):
        original = module.gamma_xk

        def counted(h, k, original=original):
            solved.append((to_graph6(h), k))
            return original(h, k)

        monkeypatch.setattr(module, "gamma_xk", counted)
    assert GraphFacts(g).critical is True
    # g itself once; the augmentations are decided without a solver run
    assert solved == [(to_graph6(g), 2)]


def test_memo_labels_its_graph_once(monkeypatch):
    g = h_r33(5)
    assert is_in_family_H(g)  # warms the family's own key
    labeled = []
    for module in (harness, constructions):
        original = module.canonical_key

        def counted(h, original=original):
            labeled.append(to_graph6(h))
            return original(h)

        monkeypatch.setattr(module, "canonical_key", counted)
    facts = GraphFacts(g)
    assert facts.in_family_H is True
    assert facts.canonical_id == canonical_key(h_r33(5)).decode("ascii")
    assert labeled == [to_graph6(g)]


def test_scan_computes_each_field_once(monkeypatch):
    graphs = [h_r33(3), from_graph6(NOT_CRITICAL), Graph.cycle(9)]
    lines = [to_graph6(g) + "\n" for g in graphs]
    connectivity = _count_calls(monkeypatch, "vertex_connectivity")
    hyp = Hypotheses(connected=True, min_connectivity=3, gamma2=4)
    records = list(scan(lines, hyp, depth="full"))
    assert [r["graph6"] for r in records] == [to_graph6(h_r33(3)), NOT_CRITICAL]
    assert connectivity == [(line.strip(),) for line in lines]  # once each, C9 included
    del connectivity[:]
    fast = list(scan(lines, Hypotheses(min_degree=4), depth="fast"))
    assert [r["report"]["depth"] for r in fast] == ["fast", "fast"]
    assert connectivity == [(line.strip(),) for line in lines[:2]]  # C9 stopped at its degree


def test_scan_keeps_no_criticality_report_past_its_graph():
    graphs = [h_r33(3), h_6t(3), from_graph6(NOT_CRITICAL), from_graph6(PASSES_OUTSIDE_FAMILY), Graph.cycle(7)]
    harness._criticality_report.cache_clear()
    records = list(scan([to_graph6(g) + "\n" for g in graphs], depth="full"))
    assert len(records) == len(graphs)
    info = harness._criticality_report.cache_info()
    assert info.misses >= len(graphs)  # every report went through it
    assert info.currsize == 0


def test_scan_cache_hits_skip_structural_fields(tmp_path, monkeypatch):
    lines = [to_graph6(h_r33(3)) + "\n", to_graph6(h_6t(3)) + "\n"]
    cold = [record_to_json(r) for r in scan(lines, cache=ReportCache(tmp_path / "c.jsonl"))]
    connectivity = _count_calls(monkeypatch, "vertex_connectivity")
    warm = [record_to_json(r) for r in scan(lines, cache=ReportCache(tmp_path / "c.jsonl"))]
    assert warm == cold
    assert connectivity == []


def _count_memos(monkeypatch):
    """Log the graph of each ``GraphFacts`` built and of each report adopted."""
    built, adopted = [], []
    init, adopt = GraphFacts.__init__, GraphFacts.adopt

    def counted_init(self, g):
        built.append(to_graph6(g))
        init(self, g)

    def counted_adopt(self, report):
        adopted.append(to_graph6(self.g))
        adopt(self, report)

    monkeypatch.setattr(GraphFacts, "__init__", counted_init)
    monkeypatch.setattr(GraphFacts, "adopt", counted_adopt)
    return built, adopted


def test_one_memo_per_graph_with_a_cache(tmp_path, monkeypatch):
    g = h_r33(3)
    perms = [list(range(9)), list(range(8, -1, -1)), [(v + 3) % 9 for v in range(9)]]
    copies = [Graph.from_edges(9, [(p[u], p[v]) for u, v in g.edges()]) for p in perms]
    names = [to_graph6(h) for h in copies]
    assert len(set(names)) == 3
    cache = ReportCache(tmp_path / "c.jsonl")
    built, adopted = _count_memos(monkeypatch)
    records = list(scan([name + "\n" for name in names], cache=cache))
    assert [r["verdicts"]["theorem1"]["status"] for r in records] == [crit.PASS] * 3
    assert built == names
    assert adopted == names[1:]  # the first line computes the report the others hit
    del built[:], adopted[:]
    summary = run_campaign("theorem1", copies, cache=cache)
    assert summary.passed == 3
    assert built == names and adopted == names


def test_verify_with_cache_matches_and_then_hits(tmp_path, monkeypatch, capsys):
    path = tmp_path / "reports.jsonl"
    argv = ["verify", "theorem1", "--max-order", "7", "--cache", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == PINNED_ORDER7["theorem1"] + "\n"
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    corpus_keys = sorted(canonical_key(g).decode("ascii") for g in default_corpus("theorem1", 7))
    assert sorted(e["key"] for e in entries) == corpus_keys  # one line per examined class
    assert all(e["report"]["depth"] == "full" for e in entries)

    hits = []
    lookup = ReportCache.lookup

    def counted(self, key):
        found = lookup(self, key)
        hits.append(found is not None)
        return found

    monkeypatch.setattr(ReportCache, "lookup", counted)
    before = path.read_text()
    assert main(argv) == 0
    assert capsys.readouterr().out == PINNED_ORDER7["theorem1"] + "\n"
    assert hits == [True] * len(corpus_keys)
    assert path.read_text() == before
