"""Time and peak-RSS growth of the reduce -> verify-reduction steps at scale.

Usage, from the repository root::

    python3 tools/verify_scale.py --n 500 --seed 1

Generates ``random_restricted_cnf(n, seed)``, builds its reduction and
measures nine steps, each in its own forked child so that one step's peak
does not hide the next one's:

* ``generate``: ``random_restricted_cnf(n, seed)`` itself;
* ``build``: ``build_reduction`` of the generated instance;
* ``sweep``: ``Graph.distance_layers()`` on the freshly built graph;
* ``peo``: ``is_perfect_elimination_ordering`` of the staged ordering;
* ``verify``: ``verify_structure``, with the layers already built;
* ``hull``: ``is_hull_set`` of the all-true assignment's set
  ``assignment_to_hull_set(rg, (True,) * n)``, with the layers already
  built: one hull closure from 4n vertices;
* ``format_graph``: the graph's text format, as one string;
* ``write``: the same text written chunk by chunk to ``os.devnull``, as
  ``geohull reduce`` writes its graph file (without the disk's cost);
* ``parse``: ``parse_graph`` of that text, made before the child starts so
  that only the parse counts.

A child starts with the parent's memory and only its own pages count, so
its peak-RSS growth is its ``ru_maxrss`` at the end less its resident set
at the start.  Prints one line per step and then the verifier's lines, and
as its last line one JSON object with every number.  Linux only: it reads
``/proc/self/statm`` and forks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from geohull import (assignment_to_hull_set, build_reduction,  # noqa: E402
                     format_graph, is_hull_set,
                     is_perfect_elimination_ordering, parse_graph,
                     random_restricted_cnf, verify_structure)
from geohull.graph import format_graph_chunks  # noqa: E402


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _measure(step):
    """Run ``step()`` in a forked child; returns (seconds, peak-RSS growth
    in MB, the JSON-ready value ``step`` returned)."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 1
        try:
            start_rss = _rss_mb()
            start = time.perf_counter()
            value = step()
            seconds = time.perf_counter() - start
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            with os.fdopen(write_end, "w", encoding="utf-8") as out:
                json.dump([seconds, max(0.0, peak_mb - start_rss), value], out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "r", encoding="utf-8") as source:
        text = source.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise SystemExit(f"measured step failed in its child (status {status})")
    return json.loads(text)


def _write(g) -> None:
    """Stream g's text format to the null device, as ``reduce`` writes it."""
    with open(os.devnull, "w", encoding="ascii") as sink:
        sink.writelines(format_graph_chunks(g))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True, help="variables")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    results = {}
    results["generate"] = _measure(
        lambda: random_restricted_cnf(args.n, args.seed).clause_count)
    cnf = random_restricted_cnf(args.n, args.seed)
    results["build"] = _measure(lambda: build_reduction(cnf).graph.vertex_count)
    rg = build_reduction(cnf)
    g = rg.graph
    results["sweep"] = _measure(lambda: len(g.distance_layers()))
    results["peo"] = _measure(
        lambda: is_perfect_elimination_ordering(g, rg.elimination_ordering()))
    results["format_graph"] = _measure(lambda: len(format_graph(g)))
    results["write"] = _measure(lambda: _write(g))
    text = format_graph(g)
    results["parse"] = _measure(lambda: parse_graph(text).edge_count)
    g.distance_layers()
    results["verify"] = _measure(lambda: verify_structure(rg).lines())
    hull_set = assignment_to_hull_set(rg, (True,) * args.n)
    results["hull"] = _measure(lambda: is_hull_set(g, hull_set))

    print(f"n={args.n} seed={args.seed} m={cnf.clause_count} "
          f"vertices={g.vertex_count} edges={g.edge_count}")
    for name in ("generate", "build", "sweep", "peo", "verify", "hull",
                 "format_graph", "write", "parse"):
        seconds, growth, _ = results[name]
        print(f"{name:>12}: {seconds:8.3f} s  peak-RSS growth {growth:7.1f} MB")
    for line in results["verify"][2]:
        print(line)
    print(json.dumps({
        "n": args.n, "seed": args.seed, "clauses": cnf.clause_count,
        "vertices": g.vertex_count, "edges": g.edge_count,
        "steps": {name: {"seconds": round(seconds, 4),
                         "peak_rss_growth_mb": round(growth, 1)}
                  for name, (seconds, growth, _) in results.items()},
        "verify_lines": results["verify"][2]}))


if __name__ == "__main__":
    main()
