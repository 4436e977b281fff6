"""Demand-driven campaigns: same verdicts as the eager path, pinned campaign
output, and proof that expensive invariants run only where a verdict needs
them."""

import itertools
import json
import random

import pytest

from ddcrit import constructions, harness
from ddcrit import criticality as crit
from ddcrit.cli import main
from ddcrit.constructions import h_6t, h_r33, is_in_family_H
from ddcrit.domination import gamma_xk
from ddcrit.graphs import Graph, canonical_key, from_graph6, to_graph6
from ddcrit.harness import (
    CHECKS,
    FOUR_CRITICAL,
    LEMMA1,
    LEMMA3,
    OBS1,
    THEOREM1,
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
from oracles import eager_verdicts, fast_pass, four_critical, full_pass, lemma_gates, theorem1_hypotheses

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


# each scan flag alone, bounds 0 and 5 included
SINGLE_FLAGS = [
    *(Hypotheses(**{name: True}) for name in ("connected", "odd_order", "claw_free", "k14_free", "critical")),
    *(Hypotheses(**{name: k}) for name in ("min_degree", "min_connectivity", "gamma2") for k in range(6)),
]


def test_demand_driven_verdicts_match_eager_reference(graphs_by_n, theorem1_corpus):
    mismatches = []
    for g in [g for n in range(1, 9) for g in graphs_by_n[n]] + list(theorem1_corpus):
        facts = GraphFacts(g)
        expected = eager_verdicts(g, analyze(facts, "full"))
        assert compute_verdicts(facts) == expected
        # the rung table against the hypothesis tests it replaced
        assert THEOREM1.holds(facts) == theorem1_hypotheses(facts)
        assert FOUR_CRITICAL.holds(facts) == four_critical(facts)
        assert {"lemma1": LEMMA1.holds(facts), "lemma3": LEMMA3.holds(facts), "obs1": OBS1.holds(facts)} == lemma_gates(
            facts
        )
        for h in SINGLE_FLAGS:
            assert h.holds(facts) == (fast_pass(h, facts) and full_pass(h, facts)), (to_graph6(g), h)
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
    # h_6t has a claw, K9 has gamma2 2 and C9 minimum degree 2; criticality
    # comes before connectivity, so connectivity runs on critical graphs only
    # each memo hands its gamma2 and its canonical key on instead of recomputing them
    assert criticality == [(name(g), 4) for g in (family, outside, two_conn, not_crit)]
    assert connectivity == [(name(g),) for g in (family, outside)]
    assert membership == [(name(g), canonical_key(g)) for g in (family, outside)]
    assert factor == [(name(outside), 3)]  # the family member passes without it


def test_theorem1_skips_the_facts_its_corpus_already_has(tmp_path, monkeypatch, capsys):
    claws = _count_calls(monkeypatch, "is_k1r_free")
    solves = _count_calls(monkeypatch, "gamma_xk")
    summary = run_campaign("theorem1", default_corpus("theorem1", 9))
    assert (summary.examined, summary.passed, summary.not_applicable) == (1544, 18, 1526)
    # the generator builds the corpus claw-free, and gamma2 = 4 is decided by
    # walking 3- and 4-sets, so the exact solver never runs
    assert claws == []
    assert solves == []
    # graphs read from a file are claw-tested, and h_6t stops at its claw
    path = tmp_path / "corpus.g6"
    path.write_text(to_graph6(h_6t(3)) + "\n")
    del solves[:]
    assert main(["verify", "theorem1", "--input", str(path)]) == 0
    assert '"not_applicable":1' in capsys.readouterr().out
    assert claws == [(to_graph6(h_6t(3)), 3)] and solves == []


def test_checks_read_a_gamma2_the_memo_holds(monkeypatch):
    bounded = _count_calls(monkeypatch, "dds_of_size")
    for g in (h_r33(3), Graph.complete(9), from_graph6(NOT_CRITICAL)):
        facts = GraphFacts(g)
        analyze(facts, "full")
        compute_verdicts(facts)
    assert bounded == []
    assert GraphFacts(Graph.complete(9)).gamma2_is(4) is False
    assert bounded == [(to_graph6(Graph.complete(9)), 3)]


def test_gamma2_is_4_matches_the_solver(graphs_by_n, monkeypatch):
    solves = _count_calls(monkeypatch, "gamma_xk")
    graphs = [g for n in range(1, 9) for g in graphs_by_n[n]]
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(9, 16)
        p = rng.choice((0.3, 0.5, 0.7, 0.85))
        graphs.append(Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    for g in graphs:
        size = gamma_xk(g, 2).size
        for k in range(2, 6):
            facts = GraphFacts(g)
            answer = facts.gamma2_is(k)
            assert answer == (size == k), (to_graph6(g), k)
            # a yes is kept for criticality to read
            assert ("gamma2" in facts.__dict__) == answer
    assert solves == []


def test_each_rung_refuses_alone_and_accepts_a_bound_exactly_met(graphs_small):
    # h_r33(3) meets every rung, with minimum degree 4 and connectivity 3
    # exactly; no corpus graph reaches the connectivity rung below 3, so each
    # failure is preset on its memo
    met = dict(order=9, min_degree=4, diameter=2, claw_free=True, k14_free=True, gamma2=4, critical=True, connectivity=3)

    def preset(**fields):
        facts = GraphFacts(h_r33(3))
        for name, value in {**met, **fields}.items():
            setattr(facts, name, value)  # shadows the memo
        return facts

    constants = {"FOUR_CRITICAL": FOUR_CRITICAL, "LEMMA1": LEMMA1, "LEMMA3": LEMMA3, "OBS1": OBS1, "THEOREM1": THEOREM1}
    assert all(h.holds(preset()) for h in constants.values())
    refused_by = [
        ({"order": 8}, {"THEOREM1"}),
        ({"min_degree": 3}, {"THEOREM1"}),
        ({"diameter": None}, {"LEMMA1", "LEMMA3", "OBS1"}),
        ({"claw_free": False}, {"THEOREM1"}),
        ({"k14_free": False}, {"LEMMA3"}),
        ({"gamma2": 3}, {"FOUR_CRITICAL", "LEMMA1", "LEMMA3", "THEOREM1"}),
        ({"gamma2": 5}, {"FOUR_CRITICAL", "LEMMA1", "LEMMA3", "THEOREM1"}),
        ({"critical": False}, set(constants)),
        ({"connectivity": 2}, {"THEOREM1"}),
    ]
    for fields, refusing in refused_by:
        facts = preset(**fields)
        assert {name for name, h in constants.items() if not h.holds(facts)} == refusing, fields
    # a bound of 0 is a bound: no graph has double domination number 0, and
    # every graph has minimum degree and connectivity at least 0
    graphs = [h_r33(3), Graph.complete(1), Graph.empty(3)] + [g for n in range(1, 8) for g in graphs_small[n]]
    for g in graphs:
        assert not Hypotheses(gamma2=0).holds(GraphFacts(g))
        assert Hypotheses(min_degree=0).holds(GraphFacts(g))
        assert Hypotheses(min_connectivity=0).holds(GraphFacts(g))
    assert not Hypotheses(gamma2=0).holds(preset())


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
    corpus_keys = sorted(facts.canonical_id for facts in default_corpus("theorem1", 7))
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


def test_theorem1_violations_replay_on_the_printed_graph_in_any_stream_order(monkeypatch, theorem1_corpus):
    # no corpus graph fails theorem1, so drop its hypotheses: 92 order-9 graphs
    # then fail with a genuine witness, many of them not in canonical form
    monkeypatch.setattr(harness, "THEOREM1", Hypotheses())
    summary = run_campaign("theorem1", theorem1_corpus)
    violations = summary.violations
    assert summary.failed == len(violations) == 92
    assert violations == sorted(violations, key=record_to_json)
    assert run_campaign("theorem1", reversed(theorem1_corpus)).violations == violations
    assert any(v["examined_graph6"] != v["graph6"] for v in violations)
    for v in violations:
        examined = from_graph6(v["examined_graph6"])
        assert canonical_key(examined).decode("ascii") == v["graph6"]
        assert harness.replay_verdict(examined, "theorem1", v["verdict"])
