"""Command-line front end.

Exit codes: 0 success, 1 at least one FAIL line from a verification
subcommand, 2 unreadable or malformed input, 3 violated domain precondition
(disconnected graph, invalid instance, exhausted budget, out of memory, ...).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import convexity, graph as graphmod
from .chordal import chordality, simplicial_vertices
from .cnf import format_dimacs, parse_dimacs, random_restricted_cnf
from .errors import GeohullError, ParseError
from .fixtures import FIXTURES
from .reduction import (build_reduction, equivalence_check, format_labels,
                        verify_structure)
from .solver import hull_number_bruteforce, hull_number_exact


_BUDGET_HELP = ("cap on hull evaluations for the {} search, "
                "counting those spent building its concave cores")


def _budget(text: str) -> int:
    """``--budget`` value: a count of hull evaluations, so nonnegative."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {budget}")
    return budget


def _read_text(path: str) -> str:
    """The file's text.  Bytes that are not UTF-8 raise ParseError (exit 2),
    not UnicodeDecodeError, a ValueError that ``run`` maps to exit 3."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _parse_set(text: str) -> list[int]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"bad vertex set {text!r}") from exc


def _format_set(vertices) -> str:
    return ",".join(str(v) for v in sorted(vertices))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``run`` in the process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="geohull",
        description="Geodetic convexity toolkit: intervals, hulls, hull "
                    "numbers, chordality, and a CNF-to-graph reduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_cmd(name: str, help_text: str, with_set: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True, metavar="FILE")
        if with_set:
            p.add_argument("--set", required=True, metavar="I,J,K",
                           help="comma-separated 0-based vertex indices")
        return p

    graph_cmd("interval", "vertices on shortest paths between set members",
              with_set=True)
    graph_cmd("hull", "smallest convex superset of the set", with_set=True)
    graph_cmd("convex", "is the set convex?", with_set=True)
    graph_cmd("concave", "is the set concave?", with_set=True)
    # The oracle has no budget, so the two options exclude each other.
    p = graph_cmd("hullnum", "minimum hull-set size and witness")
    search = p.add_mutually_exclusive_group()
    search.add_argument("--oracle", action="store_true",
                        help="use the brute-force subset search instead")
    search.add_argument("--budget", type=_budget, default=None, metavar="N",
                        help=_BUDGET_HELP.format("exact"))
    graph_cmd("simplicial", "vertices whose neighborhood is a clique")
    graph_cmd("chordal", "perfect elimination ordering, when one exists")
    graph_cmd("deps", "all interval dependencies {u,v} -> w")

    p = sub.add_parser("reduce", help="build the reduction graph of a CNF")
    p.add_argument("--cnf", required=True, metavar="FILE")
    p.add_argument("--out-graph", required=True, metavar="FILE")
    p.add_argument("--out-labels", required=True, metavar="FILE")

    p = sub.add_parser("verify-reduction",
                       help="run the structural checks on a CNF's reduction")
    p.add_argument("--cnf", required=True, metavar="FILE")

    p = sub.add_parser("equiv",
                       help="check satisfiable <=> hull number <= 4n")
    p.add_argument("--cnf", required=True, metavar="FILE")
    p.add_argument("--budget", type=_budget, default=None, metavar="N",
                   help=_BUDGET_HELP.format("h <= 4n decision"))

    p = sub.add_parser("fixture", help="emit a built-in example graph")
    p.add_argument("name", choices=sorted(FIXTURES))
    p.add_argument("--out-graph", default=None, metavar="FILE")

    p = sub.add_parser("gen-cnf", help="generate a random restricted CNF")
    p.add_argument("--n", required=True, type=int, metavar="N",
                   help="number of variables")
    p.add_argument("--seed", required=True, type=int, metavar="N")
    return parser


def _print_report(report) -> int:
    """Print a verification report; exit code 1 when it holds a FAIL line."""
    print(report)
    return 0 if report.passed else 1


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command
    # The input file is read first, so its errors come before those of --set.
    if "graph" in args:
        g = graphmod.parse_graph(_read_text(args.graph))
    if "cnf" in args:
        cnf = parse_dimacs(_read_text(args.cnf))
    if cmd in ("interval", "hull", "convex", "concave"):
        s = _parse_set(args.set)
        if cmd == "interval":
            print(_format_set(convexity.interval(g, s)))
        elif cmd == "hull":
            print(_format_set(convexity.hull(g, s)))
        elif cmd == "convex":
            print("true" if convexity.is_convex(g, s) else "false")
        else:
            print("true" if convexity.is_concave(g, s) else "false")
    elif cmd == "hullnum":
        if args.oracle:
            result = hull_number_bruteforce(g)
        else:
            result = hull_number_exact(g, node_budget=args.budget)
        print(f"h={result.hull_number}")
        print(f"witness={_format_set(result.witness)}")
    elif cmd == "simplicial":
        print(_format_set(simplicial_vertices(g)))
    elif cmd == "chordal":
        peo = chordality(g)
        if peo is None:
            print("not-chordal")
        else:
            print("chordal")
            print(" ".join(str(v) for v in peo))
    elif cmd == "deps":
        for (u, v), w in convexity.interval_dependencies(g):
            print(f"{{{u},{v}}} -> {w}")
    elif cmd == "reduce":
        rg = build_reduction(cnf)
        with open(args.out_graph, "w", encoding="utf-8") as handle:
            handle.writelines(graphmod.format_graph_chunks(rg.graph))
        with open(args.out_labels, "w", encoding="utf-8") as handle:
            handle.write(format_labels(rg))
        print(f"vertices={rg.graph.vertex_count} "
              f"edges={rg.graph.edge_count} k={rg.k}")
    elif cmd == "verify-reduction":
        return _print_report(verify_structure(build_reduction(cnf)))
    elif cmd == "equiv":
        return _print_report(equivalence_check(cnf, node_budget=args.budget))
    elif cmd == "fixture":
        chunks = graphmod.format_graph_chunks(FIXTURES[args.name]())
        if args.out_graph:
            with open(args.out_graph, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
    else:  # gen-cnf, the last subcommand the parser admits
        print(format_dimacs(random_restricted_cnf(args.n, args.seed)), end="")
    return 0


def run(argv: Sequence[str]) -> int:
    """Parse and execute one invocation; returns the exit code."""
    args = _build_parser().parse_args(list(argv))
    try:
        return _dispatch(args)
    except (GeohullError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, OSError)) else 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
