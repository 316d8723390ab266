"""Command-line front end: girth, enum, count, extremal, bench, verify."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .edges_fast import enumerate_edges_fast
from .enum_core import EnumConfig, brute_force_total, enumerate_baseline, validate_threshold
from .errors import BudgetExceededError, GirthscopeError, ParseError, ValidationError
from .extremal import densest_girth_graphs, format_extremal_report
from .girth import girth_unweighted, girth_weighted
from .graph import Graph, INFINITE, complete_graph, parse_dimacs, parse_edge_list
from .induced_fast import enumerate_induced_fast

EXIT_OK = 0
EXIT_DISCREPANCY = 1  # verify or bench found solutions that differ
EXIT_USAGE = 2  # bad flags or flag combination
EXIT_PARSE = 3  # unreadable or malformed graph input
EXIT_VALIDATION = 4  # well-formed input violating a contract
EXIT_BUDGET = 5  # exhaustive operation over budget
EXIT_PIPE = 141  # stdout closed by its reader; 128 + SIGPIPE, as a shell reports a process the signal ends


def _k_value(text: str):
    if text.lower() in ("inf", "infinite", "infinity"):
        return INFINITE
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"girth threshold {text!r} is not an integer or 'inf'")
    try:
        validate_threshold(value)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _add_graph_options(p: argparse.ArgumentParser):
    p.add_argument("--graph", "-g", required=True, help="path to the input graph")
    p.add_argument(
        "--format",
        choices=("auto", "edgelist", "dimacs"),
        default="auto",
        help="input format (auto: DIMACS if a four-token 'p' line is present)",
    )
    p.add_argument("--weighted", action="store_true", help="accept a weight column (all weights 1: unweighted)")


def _add_enum_options(p: argparse.ArgumentParser):
    p.add_argument("-k", type=_k_value, required=True, help="girth threshold (integer >= 3, or 'inf')")
    p.add_argument("--mode", choices=("induced", "edge"), default="induced")
    p.add_argument("--connectivity", choices=("connected", "any"), default="connected")
    p.add_argument("--no-empty", action="store_true", help="do not emit the empty solution")
    p.add_argument("--limit", type=int, default=None, help="stop after this many solutions")


def _load_graph(args) -> Graph:
    try:
        text = Path(args.graph).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {args.graph}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {args.graph}: not text ({exc.reason})") from exc
    fmt = args.format
    if fmt == "auto":
        # a DIMACS header "p edge <n> <m>" has four tokens; an edge-list line has two or three
        lines = (line.split("#", 1)[0].split() for line in text.splitlines())
        has_p_line = any(len(tokens) == 4 and tokens[0] == "p" for tokens in lines)
        fmt = "dimacs" if has_p_line else "edgelist"
    weighted = getattr(args, "weighted", False)
    if fmt == "dimacs":
        return parse_dimacs(text, weighted=weighted)
    return parse_edge_list(text, weighted=weighted)


def _solution_line(solution: frozenset[int], g: Graph, mode: str, endpoints: bool) -> str:
    ids = sorted(solution)
    if endpoints and mode == "edge":
        return " ".join(f"{u}-{v}" for u, v in (g.endpoints(e) for e in ids))
    return " ".join(map(str, ids))


class _UsageError(Exception):
    """Usage problem argparse cannot see, such as an unwritable --output (mapped to the usage exit code)."""


def _run_enumeration(args, g: Graph, sink) -> int:
    """Run the fast engine of the variant, or the baseline where there is none.

    No fast engine runs a weighted graph or induced mode without connectivity.
    """
    include_empty = not args.no_empty
    if g.weighted or (args.mode == "induced" and args.connectivity == "any"):
        cfg = EnumConfig(args.k, args.mode, args.connectivity, include_empty, args.limit)
        return enumerate_baseline(g, cfg, sink)
    if args.mode == "induced":
        return enumerate_induced_fast(g, args.k, sink, include_empty=include_empty, limit=args.limit)
    return enumerate_edges_fast(
        g, args.k, sink, connectivity=args.connectivity, include_empty=include_empty, limit=args.limit
    )


def _report_limit(args, count: int) -> None:
    """Say on stderr when a run stopped at --limit: the output may then be a prefix."""
    if args.limit is not None and count == args.limit:
        print(f"limit of {args.limit} solutions reached; more solutions may exist", file=sys.stderr)


def _cmd_girth(args) -> int:
    g = _load_graph(args)
    value = girth_weighted(g) if g.weighted else girth_unweighted(g)
    print("inf" if value == INFINITE else int(value))
    return EXIT_OK


def _cmd_enum(args) -> int:
    g = _load_graph(args)
    try:
        out = open(args.output, "w") if args.output else sys.stdout
    except OSError as exc:
        raise _UsageError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    try:
        def sink(solution, ordinal):
            out.write(_solution_line(solution, g, args.mode, args.endpoints) + "\n")

        count = _run_enumeration(args, g, sink)
    finally:
        if args.output:
            out.close()
    _report_limit(args, count)
    return EXIT_OK


def _cmd_count(args) -> int:
    g = _load_graph(args)
    count = _run_enumeration(args, g, None)
    print(count)
    _report_limit(args, count)
    return EXIT_OK


def _cmd_extremal(args) -> int:
    result = densest_girth_graphs(
        args.n,
        args.k,
        limit=args.limit,
        connected_only=not args.any,
        reduce_isomorphic=args.reduce_iso,
    )
    print(format_extremal_report(result))
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .bench import BENCH_MAX_EXPONENT, bench_compare

    if args.complete is not None:
        n = args.complete
        brute_force_total(n, n * (n - 1) // 2, args.mode, BENCH_MAX_EXPONENT)  # refuse before building K_N
        g = complete_graph(n)
        desc = f"K_{n}"
    else:
        g = _load_graph(args)
        desc = args.graph
    report = bench_compare(g, args.k, mode=args.mode, limit=args.limit, graph_desc=desc)
    for line in report.to_kv_lines():
        print(line)
    if not report.ok:
        print("fast solutions differ from brute force", file=sys.stderr)
        return EXIT_DISCREPANCY
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_verification

    failures = run_verification(random_count=args.random_count, seed=args.seed, report=print)
    return EXIT_DISCREPANCY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="girthscope",
        description="Enumerate connected subgraphs of bounded girth; search densest girth-k graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("girth", help="print the girth of a graph")
    _add_graph_options(p)
    p.set_defaults(func=_cmd_girth)

    p = sub.add_parser("enum", help="stream all solutions, one sorted id list per line")
    _add_graph_options(p)
    _add_enum_options(p)
    p.add_argument("--output", "-o", default=None, help="write solutions to a file instead of stdout")
    p.add_argument("--endpoints", action="store_true", help="print edge solutions as u-v pairs")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("count", help="print the number of solutions")
    _add_graph_options(p)
    _add_enum_options(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("extremal", help="densest n-vertex graph(s) of girth >= k")
    p.add_argument("-n", type=int, required=True, help="vertex count")
    p.add_argument("-k", type=_k_value, required=True)
    p.add_argument("--limit", type=int, default=None, help="cap on explored solutions")
    p.add_argument("--any", action="store_true", help="allow disconnected witnesses")
    p.add_argument("--reduce-iso", action="store_true", help="keep one witness per isomorphism class")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("bench", help="time the fast engine against the brute-force filter")
    p.add_argument("--graph", "-g", default=None, help="path to the input graph")
    p.add_argument(
        "--format", choices=("auto", "edgelist", "dimacs"), default="auto", help="input format"
    )
    p.add_argument("--complete", type=int, default=None, metavar="N", help="benchmark on K_N instead of a file")
    p.add_argument("-k", type=_k_value, required=True)
    p.add_argument("--mode", choices=("induced", "edge"), default="edge")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="cross-check all engines against brute force on small corpora")
    p.add_argument("--random-count", type=int, default=50)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=_cmd_verify)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Parse arguments, run the command, map errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) == "bench" and (args.graph is None) == (args.complete is None):
        print("bench needs exactly one of --graph or --complete", file=sys.stderr)
        return EXIT_USAGE
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here rather than at interpreter exit
        return status
    except BrokenPipeError:
        # the reader stopped reading (`girthscope enum ... | head`): stop
        # quietly, with stdout on devnull so that the final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GirthscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv: list[str] | None = None) -> None:
    sys.exit(run_cli(argv))


if __name__ == "__main__":
    main()
