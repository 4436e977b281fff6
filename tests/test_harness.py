import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddcrit
from ddcrit import harness
from ddcrit.cli import main
from ddcrit.constructions import clique_chain, h_6t, h_r33, h_r33_triple
from ddcrit.criticality import FAIL, NOT_APPLICABLE, PASS
from ddcrit.graphs import Graph, canonical_key, from_graph6, is_connected, to_graph6
from ddcrit.harness import (
    GraphFacts,
    Hypotheses,
    ReportCache,
    analyze,
    compute_verdicts,
    replay_verdict,
    scan,
)
from lemma789 import verify_lemma7_8_9


def _lines(graphs):
    return [to_graph6(g) + "\n" for g in graphs]


# -- analyze -------------------------------------------------------------------


def test_analyze_fast_vs_full():
    g = h_r33(3)
    fast = analyze(g, "fast")
    assert fast.depth == "fast" and fast.gamma2 is None
    assert fast.order == 9 and fast.min_degree == 4 and fast.connectivity == 3
    assert fast.claw_free and fast.k14_free and fast.diameter == 2
    full = analyze(g, "full")
    assert full.gamma2 == 4 and full.critical is True
    assert full.factor_critical == {1: True, 3: False}
    assert full.in_family_H is True
    with pytest.raises(ValueError):
        analyze(g, "deep")


def test_analyze_single_vertex_and_disconnected():
    report = analyze(Graph.complete(1), "full")
    assert report.connectivity == 0 and report.gamma2 is None and report.critical is None
    two = analyze(Graph.from_edges(4, [(0, 1), (2, 3)]), "full")
    assert two.diameter is None and two.gamma2 == 4 and two.critical is None


def test_analyze_complete_graph():
    report = analyze(Graph.complete(5), "full")
    assert report.gamma2 == 2 and report.critical is True  # vacuously
    assert report.factor_critical[1] is True


def test_report_sharpness_example():
    report = analyze(h_6t(3), "full")
    assert report.connectivity == 4 and not report.claw_free
    assert report.gamma2 == 4 and report.critical and report.factor_critical[3] is False
    assert report.in_family_H is False


# -- verdicts ------------------------------------------------------------------


def test_verdicts_on_family_member():
    g = h_r33(3)
    verdicts = compute_verdicts(GraphFacts(g))
    assert verdicts["lemma1"]["status"] == PASS
    assert verdicts["lemma2"]["status"] == NOT_APPLICABLE  # diameter 2
    assert verdicts["lemma3"]["status"] == PASS
    assert verdicts["obs1"]["status"] == PASS
    assert verdicts["theorem1"]["status"] == PASS  # in the exceptional family


def test_verdicts_on_clique_chain():
    g = clique_chain(1, 2, 3, 1)
    verdicts = compute_verdicts(GraphFacts(g))
    assert verdicts["lemma1"]["status"] == PASS
    assert verdicts["lemma2"]["status"] == PASS
    assert verdicts["theorem1"]["status"] == NOT_APPLICABLE  # even order, low degree


def test_verdicts_on_plain_graph():
    g = Graph.cycle(6)
    verdicts = compute_verdicts(GraphFacts(g))
    assert all(v["status"] in (PASS, NOT_APPLICABLE) for v in verdicts.values())
    assert verdicts["lemma1"]["status"] == NOT_APPLICABLE


# -- replay ---------------------------------------------------------------------


def test_replay_accepts_pass_and_rejects_bogus_witnesses():
    g = h_r33(3)
    for name, verdict in compute_verdicts(GraphFacts(g)).items():
        assert replay_verdict(g, name, verdict)
    # fabricated failures must not replay
    assert not replay_verdict(g, "lemma1", {"status": FAIL, "witness": {"diameter": 4}})
    for r, independent in ((3, [0, 1, 2, 3]), (3, [0, 0, 0, 0]), (None, [0, 1, 2, 3]), (3, [0, 1, 2, 99])):
        witness = {"r": r, "alpha": 4, "independent_set": independent}
        assert not replay_verdict(g, "lemma3", {"status": FAIL, "witness": witness})
    assert not replay_verdict(
        g, "theorem1", {"status": FAIL, "witness": {"failing_3_set": sorted(h_r33_triple(3))}}
    )  # the graph is in the family, so this is not a theorem violation
    sharp = h_6t(3)
    for failing, replays in (([5, 6, 7], True), ([0, 1, 99], False), ([0, 0, 1], False), ([0, 1, "2"], False)):
        assert replay_verdict(sharp, "theorem1", {"status": FAIL, "witness": {"failing_3_set": failing}}) is replays
    # outside criticality's domain, and a vertex that is not one
    split = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not replay_verdict(split, "obs1", {"status": FAIL, "witness": {"u": 0, "v": 2, "dds": [0, 1, 2, 3]}})
    assert not replay_verdict(split, "lemma2", {"status": FAIL, "witness": {}})
    assert not replay_verdict(g, "obs1", {"status": FAIL, "witness": {"u": 0, "v": 99, "dds": [0, 1, 2, 3]}})
    with pytest.raises(ValueError):
        replay_verdict(g, "lemma99", {"status": FAIL})


def test_replay_confirms_genuine_failure_mechanics():
    # star with four leaves: deleting the center and two leaves strands the
    # others, a genuine matching failure, so the witness replays
    g = Graph.star(4)
    assert replay_verdict(g, "theorem1", {"status": FAIL, "witness": {"failing_3_set": [0, 1, 2]}})


# -- scan ------------------------------------------------------------------------


def test_scan_emits_records_in_order(graphs_small):
    lines = _lines(g for g in graphs_small[5])
    records = list(scan(lines, Hypotheses(connected=True), depth="full"))
    assert [r["graph6"] for r in records] == [
        to_graph6(g) for g in graphs_small[5] if is_connected(g)
    ]
    assert all(r["report"]["depth"] == "full" for r in records)
    indices = [r["input_index"] for r in records]
    assert indices == sorted(indices)


def test_scan_handles_malformed_lines():
    lines = ["Bw\n", "not graph6!!\n", "D?{\n"]
    records = list(scan(lines))
    assert len(records) == 3
    assert "error" in records[1] and records[1]["input_index"] == 1
    assert records[0]["report"]["order"] == 3
    assert records[2]["report"]["order"] == 5


def test_scan_empty_stream():
    assert list(scan([])) == []


def test_scan_hypothesis_filters():
    graphs = [h_r33(3), Graph.complete(9), Graph.cycle(9), h_6t(3)]
    lines = _lines(graphs)
    hyp = Hypotheses(
        connected=True,
        odd_order=True,
        min_degree=4,
        min_connectivity=3,
        claw_free=True,
        gamma2=4,
        critical=True,
    )
    records = list(scan(lines, hyp))
    assert [r["graph6"] for r in records] == [to_graph6(h_r33(3))]
    assert records[0]["report"]["in_family_H"] is True


def test_scan_fast_depth_skips_solver_fields():
    records = list(scan(_lines([h_r33(3)]), depth="fast"))
    assert records[0]["verdicts"] == {}
    assert "gamma2" not in records[0]["report"]


@pytest.mark.parametrize("depth", ["fast", "full"])
def test_scan_reads_at_most_one_line_past_its_last_record(depth, graphs_small):
    # disconnected graphs are filtered out, and a blank and a malformed line
    # sit among the rest, so skipped lines are counted too
    lines = _lines(graphs_small[5]) + ["\n", "!!!\n"] + _lines(graphs_small[4])
    read = 0

    def counting():
        nonlocal read
        for line in lines:
            read += 1
            yield line

    emitted = 0
    for record in scan(counting(), Hypotheses(connected=True), depth=depth):
        assert read <= record["input_index"] + 2
        emitted += 1
    assert emitted == 21 + 1 + 6 and read == len(lines)


def test_scan_surfaces_family_class_under_main_hypotheses(theorem1_corpus):
    lines = _lines(g for g in theorem1_corpus if g.n == 9)
    hyp = Hypotheses(
        connected=True,
        odd_order=True,
        min_degree=4,
        min_connectivity=3,
        claw_free=True,
        gamma2=4,
        critical=True,
    )
    family = [
        r for r in scan(lines, hyp) if r["report"]["in_family_H"]
    ]
    assert len(family) == 1
    assert family[0]["report"]["canonical_id"] == canonical_key(h_r33(3)).decode("ascii")
    assert family[0]["verdicts"]["theorem1"]["status"] == PASS


# -- campaigns on tiny corpora -------------------------------------------------


def test_campaigns_on_singleton_corpora():
    from ddcrit.harness import run_campaign

    p4 = run_campaign("lemma1", [Graph.path(4)])
    assert p4.passed == 1 and p4.extras["diameter_counts"] == {3: 1}
    c6 = run_campaign("lemma1", [Graph.cycle(6)])
    assert c6.not_applicable == 1 and c6.ok
    family = run_campaign("theorem1", [h_r33(5)])
    assert family.passed == 1
    assert family.extras["family_classes"] == [canonical_key(h_r33(5)).decode("ascii")]
    sharp = run_campaign("theorem1", [h_6t(3)])
    assert sharp.not_applicable == 1  # fails the claw-free hypothesis


# -- structural check for non-3-factor-critical hypothesis graphs ------------------


def test_lemma789_on_family_members():
    for r in (3, 5):
        result = verify_lemma7_8_9(h_r33(r))
        assert result.status == PASS
        assert sorted(h_r33_triple(r)) in result.cutsets
        assert result.lemma8_status == PASS  # diameter 2 case
        assert result.lemma9_status == NOT_APPLICABLE  # family member


def test_lemma789_not_applicable_cases():
    assert verify_lemma7_8_9(Graph.complete(9)).status == NOT_APPLICABLE  # 3fc holds
    assert verify_lemma7_8_9(h_6t(3)).status == NOT_APPLICABLE  # has a claw
    assert verify_lemma7_8_9(Graph.cycle(9)).status == NOT_APPLICABLE  # low degree


# -- cache ------------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ReportCache(path)
    g = h_r33(3)
    report = analyze(g, "full", cache=cache)
    key = report.canonical_id
    assert cache.lookup(key) == report
    # a second store of an isomorphic graph is a no-op
    relabeled = Graph.from_edges(9, [(8 - u, 8 - v) for u, v in g.edges()])
    analyze(relabeled, "full", cache=cache)
    lines = [l for l in path.read_text().splitlines() if l]
    assert len(lines) == 1
    # reload from disk: field-for-field identical
    fresh = ReportCache(path)
    assert fresh.lookup(key) == report


def test_cache_lookup_missing_and_corrupt(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    assert ReportCache(path).lookup("Bw") is None
    path.write_text('{"key": "Bw", "report"\n')  # corrupt line
    cache = ReportCache(path)
    assert cache.lookup("Bw") is None
    assert "corrupt cache line" in capsys.readouterr().err


def test_cache_skips_a_line_with_a_non_ascii_byte(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    report = analyze(h_6t(3), "full", cache=ReportCache(path))
    good = path.read_bytes()
    # the first line is the same entry under a key with a non-ASCII byte in
    # it: well-formed JSON once decoded, so only the byte marks it corrupt
    path.write_bytes(good.replace(b'"key":"', b'"key":"\xc3\xa9', 1) + good)
    cache = ReportCache(path)
    assert cache.lookup(report.canonical_id) == report
    assert cache.lookup("\udcc3\udca9" + report.canonical_id) is None
    assert "skipping corrupt cache line 1 " in capsys.readouterr().err


def test_cache_recomputes_lines_of_another_version(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    g = h_6t(3)
    report = analyze(g, "full", cache=ReportCache(path))
    (entry,) = [json.loads(line) for line in path.read_text().splitlines()]
    assert entry["version"] == ReportCache.VERSION
    # an unversioned line and a line of a later version, both holding a report
    # the current code would not compute, around a line this version serves
    wrong = dict(entry["report"], critical=not report.critical)
    unversioned = {"key": entry["key"], "report": wrong}
    later = dict(unversioned, version=ReportCache.VERSION + 1)
    other = analyze(h_r33(3), "full", cache=ReportCache(tmp_path / "other.jsonl"))
    served = (tmp_path / "other.jsonl").read_text()
    path.write_text(json.dumps(unversioned) + "\n" + served + json.dumps(later) + "\n")
    cache = ReportCache(path)
    assert cache.lookup(entry["key"]) is None
    assert cache.lookup(other.canonical_id) == other
    err = capsys.readouterr().err
    assert err.count("warning") == 1 and "dropping 2 cache lines" in err
    assert path.read_text() == served  # the stale lines are gone from the file
    assert analyze(g, "full", cache=cache) == report
    assert path.read_text() == served + json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
    assert ReportCache(path).lookup(entry["key"]) == report
    assert capsys.readouterr().err == ""  # a later load has nothing to warn about


@pytest.mark.parametrize("wrong", ["fast_depth", "other_graph"])
def test_cli_skips_a_cache_line_of_the_wrong_depth_or_graph(wrong, tmp_path, capsys):
    g = h_r33(3)
    key = canonical_key(g).decode("ascii")
    report = analyze(g, "fast") if wrong == "fast_depth" else analyze(Graph.complete(4), "full")
    line = json.dumps({"key": key, "report": report.to_json_dict(), "version": ReportCache.VERSION})
    cache = tmp_path / "reports.jsonl"
    corpus = tmp_path / "family.g6"
    corpus.write_text(to_graph6(g) + "\n")
    assert main(["scan", str(corpus)]) == 0
    uncached = capsys.readouterr().out
    for argv in (["scan", str(corpus)], ["verify", "theorem1", "--input", str(corpus)]):
        cache.write_text(line + "\n")
        assert main([*argv, "--cache", str(cache)]) == 0
        out, err = capsys.readouterr()
        assert "skipping corrupt cache line 1 " in err
        if argv[0] == "scan":
            assert out == uncached
        else:
            summary = json.loads(out)
            assert summary["passed"] == 1 and summary["extras"]["family_classes"] == [key]


def test_a_load_drops_the_lines_it_skips_from_the_file(tmp_path, capsys):
    g = h_r33(3)
    key = canonical_key(g).decode("ascii")
    wrong = analyze(Graph.complete(4), "full")
    line = json.dumps({"key": key, "report": wrong.to_json_dict(), "version": ReportCache.VERSION})
    cache = tmp_path / "reports.jsonl"
    cache.write_text(line + "\n")
    corpus = tmp_path / "family.g6"
    corpus.write_text(to_graph6(g) + "\n")
    warnings = 0
    for _ in range(3):
        assert main(["scan", str(corpus), "--cache", str(cache)]) == 0
        warnings += capsys.readouterr().err.count("warning")
    assert warnings == 1
    (entry,) = [json.loads(l) for l in cache.read_text().splitlines()]
    assert entry["key"] == key
    assert ReportCache(cache).lookup(key) == analyze(g, "full")
    assert not (tmp_path / "reports.jsonl.partial").exists()


def test_cached_analyze_returns_identical_report(tmp_path):
    cache = ReportCache(tmp_path / "c.jsonl")
    g = h_6t(3)
    first = analyze(g, "full", cache=cache)
    again = analyze(g, "full", cache=cache)
    assert first == again


# -- CLI ----------------------------------------------------------------------------


# a child process imports the ddcrit under test, installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(ddcrit.__file__).parents[1]), os.environ.get("PYTHONPATH")])),
}


def run_cli(args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "ddcrit", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def _feed_stdin(monkeypatch, text: str):
    # the CLI reads the bytes under sys.stdin, as it does from a terminal or pipe
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode("ascii"))))


def test_cli_construct_and_analyze_pipeline():
    built = run_cli(["construct", "hr33", "--r", "3"])
    assert built.returncode == 0
    line = built.stdout.strip()
    analyzed = run_cli(["analyze", line])
    assert analyzed.returncode == 0
    record = json.loads(analyzed.stdout)
    assert record["report"]["gamma2"] == 4
    assert record["report"]["in_family_H"] is True


def test_cli_construct_rejects_bad_parameters():
    result = run_cli(["construct", "hr33", "--r", "4"])
    assert result.returncode == 2
    assert run_cli(["construct", "seqjoin", "--s", "0", "--t", "3"]).returncode == 2


def test_cli_construct_builds_each_family(capsys):
    for argv, expected in (
        (["seqjoin", "--s", "2", "--t", "3"], clique_chain(1, 2, 3, 1)),
        (["hr33", "--r", "3"], h_r33(3)),
        (["h6t", "--t", "5"], h_6t(5)),
    ):
        assert main(["construct", *argv]) == 0
        assert from_graph6(capsys.readouterr().out) == expected


def test_cli_gamma2_and_factor_critical():
    g6 = to_graph6(Graph.path(4))
    result = run_cli(["gamma2", g6])
    assert json.loads(result.stdout) == {
        "input_index": 0,
        "graph6": g6,
        "feasible": True,
        "gamma2": 4,
        "witness": [0, 1, 2, 3],
    }
    fc = run_cli(["factor-critical", "--k", "3", to_graph6(h_r33(3))])
    record = json.loads(fc.stdout)
    assert record["holds"] is False and record["witness_failure"] == [6, 7, 8]
    bad = run_cli(["factor-critical", "--k", "2", to_graph6(h_r33(3))])
    assert bad.returncode == 2  # parity


def test_cli_critical_subcommand():
    result = run_cli(["critical", to_graph6(Graph.path(4))])
    record = json.loads(result.stdout)
    assert record["critical"] is True and record["gamma2"] == 4
    assert all(e["drop"] >= 1 for e in record["per_nonedge"])


def test_cli_critical_reports_graphs_outside_its_domain_as_analyze_does(monkeypatch, capsys):
    isolated = "B?"  # two vertices, no edge
    disconnected = to_graph6(Graph.from_edges(4, [(0, 1), (2, 3)]))
    _feed_stdin(monkeypatch, f"{isolated}\n{disconnected}\n")
    assert main(["critical"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    outside = {"critical": None, "vacuous": None, "per_nonedge": []}
    assert records == [
        {"input_index": 0, "graph6": isolated, "gamma2": None, **outside},
        {"input_index": 1, "graph6": disconnected, "gamma2": 4, **outside},
    ]
    for record in records:
        report = analyze(from_graph6(record["graph6"]), "full")
        assert (report.gamma2, report.critical) == (record["gamma2"], record["critical"])


def test_cli_scan_stdin_exit_codes(tmp_path):
    ok = run_cli(["scan", "--connected"], stdin="Bw\nD?{\n")
    assert ok.returncode == 0
    assert len(ok.stdout.splitlines()) == 2
    bad = run_cli(["scan"], stdin="Bw\n!!!\n")
    assert bad.returncode == 2  # decode error surfaced
    records = [json.loads(l) for l in bad.stdout.splitlines()]
    assert any("error" in r for r in records)


@pytest.mark.parametrize(
    "argv",
    [["analyze", "-"], ["gamma2"], ["critical"], ["factor-critical", "--k", "1"], ["scan"]],
    ids=lambda argv: argv[0],
)
def test_cli_line_commands_report_a_bad_line_and_go_on(argv, monkeypatch, capsys):
    _feed_stdin(monkeypatch, "Bw\n\n!!!\nB?\n")
    assert main(argv) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    # the blank line 1 gets no record but keeps its index
    assert [(r["input_index"], r["graph6"]) for r in records] == [(0, "Bw"), (2, "!!!"), (3, "B?")]
    assert records[1] == {"input_index": 2, "graph6": "!!!", "error": "byte 33 outside graph6 range 63..126 at byte 0"}
    assert "error" not in records[0]


NON_ASCII_CORPUS = b"Bw\nB\xc3\xa9\nBw\n"


def test_cli_scan_reports_a_non_ascii_byte_in_a_file_and_goes_on(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(NON_ASCII_CORPUS)
    assert main(["scan", str(corpus), "--depth", "fast"]) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["input_index"] for r in records] == [0, 1, 2]
    assert records[1]["error"] == "non-ASCII byte at byte 1"
    assert "error" not in records[0] and "error" not in records[2]


@pytest.mark.parametrize("argv", [["scan", "--depth", "fast"], ["analyze", "-", "--depth", "fast"]], ids=lambda a: a[0])
def test_cli_reports_a_non_ascii_byte_on_strict_utf8_stdin(argv):
    result = subprocess.run(
        [sys.executable, "-m", "ddcrit", *argv],
        input=b"Bw\nB\xff\nBw\n",
        capture_output=True,
        env={**CHILD_ENV, "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert result.returncode == 2, result.stderr
    assert b"Traceback" not in result.stderr
    records = [json.loads(line) for line in result.stdout.splitlines()]
    assert [r["input_index"] for r in records] == [0, 1, 2]
    assert records[1]["error"] == "non-ASCII byte at byte 1"
    assert "error" not in records[0] and "error" not in records[2]


def test_cli_verify_input_stops_at_a_non_ascii_byte(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(NON_ASCII_CORPUS)
    assert main(["verify", "lemma1", "--input", str(corpus)]) == 2
    assert capsys.readouterr() == ("", "error: line 1: non-ASCII byte at byte 1\n")


def test_cli_reports_a_file_it_cannot_read_in_one_line(tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "missing.g6")
    for argv in (["scan", missing], ["verify", "lemma1", "--input", missing], ["scan", "--cache", str(tmp_path)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: [Errno ") and err.count("\n") == 1

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["construct", "hr33", "--r", "3"]) == 0  # a closed pipe is no error


def test_cli_verify_small_order():
    result = run_cli(["verify", "lemma1", "--max-order", "5"])
    assert result.returncode == 0
    summary = json.loads(result.stdout)
    assert summary["failed"] == 0
    assert summary["examined"] == 1 + 1 + 2 + 6 + 21


def test_cli_verify_with_input_corpus(tmp_path):
    corpus = tmp_path / "family.g6"
    corpus.write_text(to_graph6(h_r33(3)) + "\n" + to_graph6(h_6t(3)) + "\n")
    result = run_cli(["verify", "theorem1", "--input", str(corpus)])
    assert result.returncode == 0
    summary = json.loads(result.stdout)
    assert summary["passed"] == 1 and summary["not_applicable"] == 1
    assert summary["extras"]["family_classes"] == [canonical_key(h_r33(3)).decode("ascii")]


def test_cli_verify_input_stops_at_a_bad_line_before_touching_the_cache(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(to_graph6(h_r33(3)) + "\n!!!\n" + to_graph6(h_6t(3)) + "\n")
    cache = tmp_path / "reports.jsonl"
    argv = ["verify", "theorem1", "--input", str(corpus), "--cache", str(cache)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 1: byte 33 outside graph6 range 63..126 at byte 0\n"
    assert not cache.exists()
    analyze(h_6t(3), "full", cache=ReportCache(cache))
    before = cache.read_bytes()
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
    assert cache.read_bytes() == before


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "theorem1", "--input", "corpus.g6", "--max-order", "7"],
        ["verify", "lemma1", "--max-order", "0"],
        ["verify", "lemma1", "--max-order", "-3"],
        ["scan", "--workers", "0"],
        ["scan", "--workers", "-1"],
    ],
)
def test_cli_rejects_conflicting_and_out_of_range_options(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err


def test_cli_usage_error_exit_code():
    result = run_cli(["verify", "lemma99"])
    assert result.returncode == 2


def test_benchmark_tracer_still_binds_every_layer(tmp_path, capsys):
    # bench/tracer.py wraps these functions by name; a rename in the package
    # would otherwise surface only in the benchmark's own test suite. The
    # theorem1 corpus below order 9 stops before connectivity, so the run
    # reads two order-9 graphs that reach factor criticality.
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(_lines([h_r33(3), from_graph6("Htoyz\\v")])))
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("ddcrit_bench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    report = harness._criticality_report
    assert report.cache_info() is not None  # the tracer sizes its own memo from it
    tracer = tracer_module.Tracer()
    try:
        tracer.install()  # raises when no module binds one of its targets
        assert main(["verify", "theorem1", "--input", str(corpus)]) == 0
    finally:
        tracer.uninstall()
    assert harness._criticality_report is report
    assert "examined" in capsys.readouterr().out
    names = {span[0] for span in tracer.spans}
    assert {"graphs.vertex_connectivity", "matching.factor_critical"} <= names
