"""Command line front end.

Graphs travel as graph6 text, one per line. JSONL records go to stdout and
human summaries to stderr. Exit status: 0 when every check passed or was not
applicable, 1 when any check failed, 2 on usage or decode errors and when
a file cannot be read or written, and 3 on an internal error (a fault of
ddcrit itself, reported in one ``error: internal:`` line on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import sys
from typing import Iterable, Iterator, Optional

from .constructions import clique_chain, h_6t, h_r33
from .criticality import FAIL
from .domination import gamma_xk
from .graphs import MAX_VERTICES, Graph, Graph6Error, to_graph6
from .harness import (
    CHECKS,
    GraphFacts,
    Hypotheses,
    ReportCache,
    analyze,
    decode_lines,
    default_corpus,
    record_to_json,
    run_campaign,
    scan,
)
from .matching import is_k_factor_critical_direct

OK, ANY_FAIL, USAGE, INTERNAL = 0, 1, 2, 3


def _stdin_lines() -> Iterator[str]:
    """Stdin decoded from its bytes as input files are, whatever encoding the
    locale or PYTHONIOENCODING gives ``sys.stdin``."""
    text = io.TextIOWrapper(sys.stdin.buffer, encoding="ascii", errors="surrogateescape")
    try:
        yield from text
    finally:
        text.detach()  # leaves sys.stdin open


def _input_lines(source: Optional[str]) -> Iterable[str]:
    if source is None or source == "-":
        yield from _stdin_lines()
    else:
        # a non-ASCII byte is read as a lone surrogate, so its line fails to
        # decode as graph6 (with the byte's offset) instead of the whole file
        with open(source, "r", encoding="ascii", errors="surrogateescape") as fh:
            yield from fh


def _graph_arg_lines(arg: str) -> Iterable[str]:
    # positional argument is either a literal graph6 line or '-' for stdin
    if arg == "-":
        yield from _stdin_lines()
    else:
        yield arg


# an argparse type: argparse names it in the message for a non-integer
def order_cap(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_VERTICES:
        raise argparse.ArgumentTypeError(f"must lie in 1..{MAX_VERTICES}, got {value}")
    return value


def _each_graph(args) -> int:
    """One record per non-blank line of the graph argument.

    The record holds the line's index and text plus the fields that
    ``args.record(g, args)`` returns. A line that does not decode, or whose
    graph the solver rejects with ``ValueError`` (``ParityError`` included),
    gets an error record instead; processing goes on and the exit status
    becomes 2.
    """
    status = OK
    for index, text, g in decode_lines(_graph_arg_lines(args.graph)):
        try:
            if isinstance(g, Graph6Error):
                raise g
            fields = args.record(g, args)
        except ValueError as exc:
            fields = {"error": str(exc)}
            status = USAGE
        print(record_to_json({"input_index": index, "graph6": text, **fields}))
    return status


def _analyze(g: Graph, args) -> dict:
    return {"report": analyze(g, args.depth, cache=args.cache).to_json_dict()}


def _gamma2(g: Graph, args) -> dict:
    result = gamma_xk(g, 2)
    fields = {"feasible": result.feasible}
    if result.feasible:
        fields["gamma2"] = result.size
        fields["witness"] = sorted(result.witness.vertices)
    return fields


def _critical(g: Graph, args) -> dict:
    facts = GraphFacts(g)
    report = facts.criticality
    if report is None:  # an isolated vertex or a disconnected graph, reported as analyze does
        return {"gamma2": facts.gamma2, "critical": None, "vacuous": None, "per_nonedge": []}
    return {
        "gamma2": report.gamma2,
        "critical": report.is_critical,
        "vacuous": report.vacuous,
        "per_nonedge": [
            {"u": e.u, "v": e.v, "gamma2_after": e.gamma2_after, "drop": e.drop} for e in report.per_nonedge
        ],
    }


def _factor_critical(g: Graph, args) -> dict:
    verdict = is_k_factor_critical_direct(g, args.k)
    fields = {"k": args.k, "holds": verdict.holds}
    if verdict.witness_failure is not None:
        fields["witness_failure"] = sorted(verdict.witness_failure)
    return fields


def _cmd_construct(args) -> int:
    try:
        g = args.build(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    print(to_graph6(g))
    return OK


def _cmd_scan(args) -> int:
    hypotheses = Hypotheses(**{f.name: getattr(args, f.name) for f in dataclasses.fields(Hypotheses)})
    saw_fail = False
    saw_error = False
    emitted = 0
    for record in scan(_input_lines(args.input), hypotheses, args.depth, args.cache):
        print(record_to_json(record))
        emitted += 1
        if "error" in record:
            saw_error = True
        for verdict in record.get("verdicts", {}).values():
            if verdict.get("status") == FAIL:
                saw_fail = True
    print(f"scan: {emitted} records", file=sys.stderr)
    if saw_error:
        return USAGE
    return ANY_FAIL if saw_fail else OK


def _cmd_verify(args) -> int:
    if args.input is None:
        default_order = 9 if args.check == "theorem1" else 8
        corpus = default_corpus(args.check, args.max_order or default_order)
    else:
        # the whole file is decoded first, so a bad line stops the run before
        # any graph is checked or cached
        corpus = []
        for index, _, g in decode_lines(_input_lines(args.input)):
            if isinstance(g, Graph6Error):
                print(f"error: line {index}: {g}", file=sys.stderr)
                return USAGE
            corpus.append(g)
    summary = run_campaign(args.check, corpus, cache=args.cache)
    record = dataclasses.asdict(summary)
    record["check"] = record.pop("name")
    print(record_to_json(record))
    print(summary.describe(), file=sys.stderr)
    return OK if summary.ok else ANY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddcrit",
        description="Exact double domination criticality and factor criticality toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="property report for graph6 input")
    p.add_argument("graph", help="a graph6 line, or '-' to read lines from stdin")
    p.add_argument("--depth", choices=("fast", "full"), default="full")
    p.add_argument("--cache", type=ReportCache, help="JSONL report cache file")
    p.set_defaults(func=_each_graph, record=_analyze)

    p = sub.add_parser("gamma2", help="double domination number")
    p.add_argument("graph", nargs="?", default="-")
    p.set_defaults(func=_each_graph, record=_gamma2)

    p = sub.add_parser("critical", help="edge-criticality report")
    p.add_argument("graph", nargs="?", default="-")
    p.set_defaults(func=_each_graph, record=_critical)

    p = sub.add_parser("factor-critical", help="k-factor-criticality, direct test")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_each_graph, record=_factor_critical)

    p = sub.add_parser("construct", help="emit a family member as graph6")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("seqjoin", help="clique chain 1,s,t,1")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--t", type=int, required=True)
    q.set_defaults(build=lambda a: clique_chain(1, a.s, a.t, 1))
    q = fam.add_parser("hr33", help="exceptional family member of order r+6")
    q.add_argument("--r", type=int, required=True)
    q.set_defaults(build=lambda a: h_r33(a.r))
    q = fam.add_parser("h6t", help="sharpness example of order t+6")
    q.add_argument("--t", type=int, required=True)
    q.set_defaults(build=lambda a: h_6t(a.t))
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("scan", help="filter graph6 lines and emit JSONL records")
    p.add_argument("input", nargs="?", default=None, help="graph6 file, default stdin")
    p.add_argument("--depth", choices=("fast", "full"), default="full")
    p.add_argument("--cache", type=ReportCache, help="JSONL report cache file")
    for f in dataclasses.fields(Hypotheses):  # one option per field, read back by _cmd_scan
        kind = {"action": "store_true"} if f.default is False else {"type": int, "default": None}
        p.add_argument("--" + f.name.replace("_", "-"), **kind)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="run a named exhaustive campaign")
    p.add_argument("check", choices=tuple(CHECKS))
    source = p.add_mutually_exclusive_group()
    source.add_argument(
        "--max-order", type=order_cap, help="order cap of the built-in corpus (default 9 for theorem1, else 8)"
    )
    source.add_argument("--input", help="graph6 corpus file overriding the built-in enumeration")
    p.add_argument("--cache", type=ReportCache, help="JSONL report cache file")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # opens the --cache file
        return args.func(args)
    except BrokenPipeError:  # downstream closed the pipe, not an error
        return OK
    except OSError as exc:  # an input, cache or output file that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # a fault of ddcrit, which must not read as "a check failed"
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {message}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
