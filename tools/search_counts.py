"""The hull-number searches' work and answers on fixed input sets, as JSON.

Usage, from the repository root::

    python3 tools/search_counts.py TREE [--large] [--out A.json]
    python3 tools/search_counts.py --compare A.json B.json

The first form imports ``geohull`` from ``TREE/src``, the random-graph
builder from ``TREE/tests/helpers.py`` and the benchmark pools from
``TREE/perfbench/workloads.py``.  It runs one search per input of each set
below, each from a fresh ``_Search``, and writes per set: the number of
inputs, the total hull evaluations, a digest of the answers (hull numbers,
or decisions with their lower bounds), a separate digest of the witnesses,
the number of witnesses that are not a hull set of the claimed size, and
the seconds the set took.

Sets (``exact`` is ``hull_number_exact``, ``decide`` is the decision search
at k = 4n, seeded with the paper's cores or with its root core build):

- ``criterion-3 exact``, ``criterion-3 decide seeded`` and ``criterion-3
  decide root``: the 50 instances ``random_restricted_cnf(seed % 5 + 1,
  seed)`` of the acceptance suite's criterion 3;
- ``n6 exact``: ``random_restricted_cnf(6, seed)`` for seeds 0-7;
- ``random exact``: 2,000 ``random_connected_graph(Random(2024),
  max_vertices=16)``;
- ``toolkit-small exact``: the toolkit-small benchmark pool at seed 1;
- ``equiv-batch decide seeded``: the equiv-batch benchmark pool at seed 1;
- with ``--large`` also ``n7s0 exact``, ``n20s1 exact`` and ``n20s2
  exact``, which take about a minute together.

The second form prints, per set, the two evaluation totals and which
digests differ, and exits 1 when an answer digest differs or a witness is
invalid.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import sys
import time
import types


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _import_tree(tree: str):
    root = os.path.abspath(tree)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests"),
                    root]
    gh = types.SimpleNamespace(**{
        name: importlib.import_module(f"geohull.{name}")
        for name in ("graph", "convexity", "chordal", "cnf", "reduction",
                     "solver")})
    if not os.path.abspath(gh.solver.__file__).startswith(root + os.sep):
        raise SystemExit(f"geohull was imported from {gh.solver.__file__}, "
                         f"not from {root}")
    return gh


def _sets(gh, large: bool):
    """(name, kind, graphs or reductions) for every set, in order; kind is
    "exact", "seeded" or "root"."""
    from helpers import random_connected_graph
    from perfbench.workloads import EquivBatch, ToolkitSmall

    def reductions(pairs):
        return [gh.reduction.build_reduction(gh.cnf.random_restricted_cnf(n, s))
                for n, s in pairs]

    criterion_3 = reductions((seed % 5 + 1, seed) for seed in range(50))
    rng = random.Random(2024)
    sets = [
        ("criterion-3 exact", "exact", [rg.graph for rg in criterion_3]),
        ("criterion-3 decide seeded", "seeded", criterion_3),
        ("criterion-3 decide root", "root", criterion_3),
        ("n6 exact", "exact",
         [rg.graph for rg in reductions((6, s) for s in range(8))]),
        ("random exact", "exact",
         [random_connected_graph(rng, max_vertices=16) for _ in range(2000)]),
        ("toolkit-small exact", "exact",
         [gh.graph.Graph(n, edges)
          for n, edges, _, _ in ToolkitSmall(gh, 1).items]),
        ("equiv-batch decide seeded", "seeded",
         [gh.reduction.build_reduction(gh.cnf.parse_dimacs(text))
          for text in EquivBatch(gh, 1).items]),
    ]
    if large:
        for n, seed in ((7, 0), (20, 1), (20, 2)):
            sets.append((f"n{n}s{seed} exact", "exact",
                         [rg.graph for rg in reductions([(n, seed)])]))
    return sets


def _measure(gh, kind: str, inputs) -> dict:
    solver, reduction = gh.solver, gh.reduction
    evaluations, answers, witnesses, invalid = 0, [], [], 0
    began = time.perf_counter()
    for item in inputs:
        g = item if kind == "exact" else item.graph
        search = solver._Search(g, None)
        if kind == "exact":
            result = search.run()
            answer, witness = result.hull_number, result.witness
            valid = len(witness) == answer
        else:
            cores = reduction._paper_cores(item) if kind == "seeded" else None
            decision = search.decide(item.k, cores)
            answer = (decision.witness is not None, decision.lower_bound)
            witness = decision.witness
            valid = witness is None or len(witness) <= item.k
        if witness is not None:
            valid = valid and gh.convexity.is_hull_set(g, witness)
            witness = sorted(witness)
        evaluations += search.evaluations
        answers.append(answer)
        witnesses.append(witness)
        invalid += not valid
    return {"inputs": len(answers), "evaluations": evaluations,
            "answers": _digest(answers), "witnesses": _digest(witnesses),
            "invalid_witnesses": invalid,
            "seconds": round(time.perf_counter() - began, 3)}


def record(tree: str, large: bool) -> dict:
    gh = _import_tree(tree)
    return {"python": sys.version.split()[0],
            "sets": {name: _measure(gh, kind, inputs)
                     for name, kind, inputs in _sets(gh, large)}}


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)["sets"]
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)["sets"]
    bad = 0
    for name in [name for name in a if name in b]:
        ra, rb = a[name], b[name]
        same = {key: "same" if ra[key] == rb[key] else "differ"
                for key in ("inputs", "answers", "witnesses")}
        invalid = ra["invalid_witnesses"] + rb["invalid_witnesses"]
        bad += invalid > 0 or "differ" in (same["inputs"], same["answers"])
        print(f"{name}: evaluations {ra['evaluations']} -> "
              f"{rb['evaluations']} ({rb['evaluations'] - ra['evaluations']:+d}); "
              + ", ".join(f"{key} {word}" for key, word in same.items())
              + f"; {invalid} invalid witnesses")
    for name in sorted(set(a) ^ set(b)):
        print(f"{name}: in one record only")
    return 1 if bad else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", nargs="?",
                        help="source tree whose src/ holds geohull")
    parser.add_argument("--large", action="store_true",
                        help="add the n = 7 and n = 20 exact solves")
    parser.add_argument("--out", metavar="FILE",
                        help="write the record here, not to stdout")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the per-set deltas of two records")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if not args.tree:
        parser.error("name a tree, or give --compare")
    text = json.dumps(record(args.tree, args.large), indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
