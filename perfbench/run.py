"""geohull benchmark: one closed-loop workload per process, outputs checked.

    python3 perfbench/run.py --workload equiv-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own module, next to this file)
from tracer import MODULES, Tracer  # noqa: E402

WORKLOADS = ("equiv-batch", "verify-large", "toolkit-small")
SETUP_REPEATS = 11
MIN_PASSES = 3
MIN_ITEMS_FOR_P90 = 100

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
                    "item_p90_ms": "ms", "failed_ratio": "ratio",
                    "peak_rss_mb": "MB"}
# item_p90_ms and failed_ratio are printed but left out of the JSON line:
# verify-large never has ten items beyond its p90, and failed_ratio is 0
# on a correct run (the JSON line carries it as ``failed``/``attempted``).
GATED = ("setup_s", "items_per_s", "item_p50_ms", "peak_rss_mb")

LAYER_SPANS = (
    ["solver.hull_number_exact", "graph.between_table", "graph.distances",
     "graph.Graph"]
    + [f"convexity.{f}" for f in ("is_concave", "hull", "interval", "is_convex",
                                  "is_hull_set", "interval_dependencies")]
    + [f"chordal.{f}" for f in ("chordality", "simplicial_vertices",
                                "is_perfect_elimination_ordering")]
    + [f"cnf.{f}" for f in ("parse_dimacs", "validate_restricted",
                            "is_satisfiable")]
    + [f"reduction.{f}" for f in ("build_reduction", "verify_structure",
                                  "equivalence_check", "format_labels")]
    + ["cli.run"])
LAYER_SELF_ONLY = ("graph.parse_graph", "graph.format_graph")


def import_geohull():
    """Import the package afresh, dropping any copy already loaded."""
    for key in [k for k in sys.modules if k == "geohull" or k.startswith("geohull.")]:
        del sys.modules[key]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    gh = importlib.import_module("geohull")
    importlib.import_module("geohull.cli")
    return gh


def set_up(name: str, seed: int, tiny: bool, workdir: str):
    """Import the program afresh and generate the inputs; returns the
    package, the workload and the seconds this took."""
    start = perf_counter()
    gh = import_geohull()
    if name == "equiv-batch":
        wl = workloads.EquivBatch(gh, seed, tiny)
    elif name == "verify-large":
        wl = workloads.VerifyLarge(gh, seed, workdir, tiny)
    else:
        wl = workloads.ToolkitSmall(gh, seed, tiny)
    return gh, wl, perf_counter() - start


class Run:
    """What a measurement keeps: each pool item's timings, failures, and
    the checked answer for each pool item."""

    def __init__(self, size: int):
        self.timings = [array("d") for _ in range(size)]
        self.passes = 0
        self.executions = 0
        self.failures: list[str] = []
        self.failed_items: set[int] = set()
        self.answers: dict[int, tuple] = {}

    @property
    def latencies(self) -> list[float]:
        """Each item's latency: the median of its timings over the passes."""
        return [statistics.median(t) for t in self.timings]

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def execute(wl, run: Run, index: int, tracer=None) -> float:
    """Run pool item ``index`` once and return its latency.  The output is
    checked right after, outside the timer and with tracing paused: fully the
    first time, against that checked answer after."""
    item = wl.items[index]
    if tracer is not None:
        tracer.item, tracer.active = index, True
    start = perf_counter()
    try:
        out, error = wl.run(item), None
    except Exception as exc:  # a raising item is counted as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    run.executions += 1
    if error is None:
        error = verify(wl, run, index, item, out)
    if error is not None:
        run.failures.append(f"pass {run.passes} item {index}: {error}")
        run.failed_items.add(index)
    return latency


class Session:
    """The program and workload in use, with every set-up time taken.

    Set-up is repeated between passes, spread over the run, each time with
    a fresh import; the loop goes on with the newest objects, whose inputs
    must be the same as the first ones.  ``setup_s`` is the median.
    """

    def __init__(self, name: str, seed: int, tiny: bool, workdir: str):
        self.args = name, seed, tiny, workdir
        self.gh, self.wl, took = set_up(*self.args)
        self.setup_times = [took]

    def set_up_again(self) -> None:
        gh, wl, took = set_up(*self.args)
        if wl.inputs_digest != self.wl.inputs_digest:
            raise RuntimeError("the same seed generated different inputs")
        self.gh, self.wl = gh, wl
        self.setup_times.append(took)

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_times)


def pin(cpus, index: int) -> None:
    """Keep this process on ``cpus[index]`` (modulo their number), or, for
    a negative index, on all of them again.  Does nothing where affinity
    cannot be set."""
    if len(cpus) < 2:
        return
    try:
        os.sched_setaffinity(0, cpus if index < 0 else {cpus[index % len(cpus)]})
    except OSError:
        pass


def measure(session: Session, seconds: float) -> Run:
    """Closed loop of whole passes over the pool for about ``seconds``.

    An item's latency is the median of its timings over the passes.  The
    shared box this was built on changes speed from second to second, for
    each of its two cores on its own (the same code runs up to 1.8 times
    slower at times), and the scheduler tends to keep a lone busy process
    on one core.  The passes take the cores in turn, so every item is timed
    on each of them and at many moments, and its median reads the box's
    typical speed over the run rather than one core's state at one time.
    A pass starts only if it is expected to end within ``seconds`` (at
    least MIN_PASSES are made).  Set-up is repeated after a pass when
    ``seconds / SETUP_REPEATS`` have gone by since the last one.
    """
    run = Run(len(session.wl.items))
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    start = last_setup = perf_counter()
    try:
        while True:
            pin(cpus, run.passes)
            pass_start = perf_counter()
            for index, timings in enumerate(run.timings):
                timings.append(execute(session.wl, run, index))
            run.passes += 1
            now = perf_counter()
            pass_s = now - pass_start
            if (len(session.setup_times) < SETUP_REPEATS
                    and now - last_setup >= seconds / SETUP_REPEATS):
                session.set_up_again()
                last_setup = now = perf_counter()
            if run.passes >= MIN_PASSES and now + pass_s - start > seconds:
                return run
    finally:
        pin(cpus, -1)


def traced_pass(session: Session, run: Run, tracer) -> tuple[float, float]:
    """One pass in which each item runs untraced and then traced, back to
    back, so that both timings see the same machine state; returns the
    summed untraced and traced latencies."""
    untraced = traced = 0.0
    for index in range(len(run.timings)):
        untraced += execute(session.wl, run, index)
        traced += execute(session.wl, run, index, tracer)
    return untraced, traced


def verify(wl, run: Run, index: int, item, out):
    """None when the output is right, else what is wrong with it."""
    try:
        answer = wl.answer(out)
        if index in run.answers:
            if answer != run.answers[index]:
                return "answer differs from the checked answer for the same input"
            return None
        error = wl.check(item, out)
    except Exception as exc:  # a check that cannot run is a failure
        return f"check raised {type(exc).__name__}: {exc}"
    if error is None:
        run.answers[index] = answer
    return error


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(run: Run, setup_s: float) -> dict:
    latencies = sorted(t * 1000.0 for t in run.latencies)
    completed = len(latencies) - len(run.failed_items)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": completed / run.busy_s,
        "item_p50_ms": statistics.median(latencies),
        "failed_ratio": len(run.failures) / run.executions,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(latencies) >= MIN_ITEMS_FOR_P90:
        metrics["item_p90_ms"] = percentile(latencies, 0.9)
    return metrics


def per_layer(table: dict, untraced_wall: float, traced_wall: float,
              items: int) -> dict:
    metrics = {}
    for span in LAYER_SPANS:
        row = table.get(span, {"calls": 0, "self_s": 0.0})
        metrics[f"{span}.calls"] = (row["calls"], "count")
        metrics[f"{span}.self_s"] = (row["self_s"], "s")
        if span == "graph.between_table":
            metrics[f"{span}.ops"] = (row.get("ops", 0), "count")
    for span in LAYER_SELF_ONLY:
        metrics[f"{span}.self_s"] = (table.get(span, {"self_s": 0.0})["self_s"], "s")
    for module in MODULES:
        total = sum(row["self_s"] for name, row in table.items()
                    if name.startswith(module + "."))
        metrics[f"{module}.self_s"] = (total, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    metrics["trace.items"] = (items, "count")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """One workload in this process; prints the report, returns the result."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        session = Session(name, seed, tiny, workdir)
        run = measure(session, seconds / 2 if trace else seconds)
        if trace:
            tracer = Tracer()
            tracer.install(session.gh)
            try:
                untraced_s, traced_s = traced_pass(session, run, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl = session.wl
    answers = workloads.digest(run.answers.get(i) for i in range(len(wl.items)))

    print(f"workload {name} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"pool={len(wl.items)} items, {run.passes} passes, "
          f"{len(session.setup_times)} set-ups, "
          f"summed item latency {run.busy_s:.3f}s")
    for message in run.failures[:20]:
        print(f"FAILED {message}")
    print(f"fingerprint inputs={wl.inputs_digest} answers={answers}")
    if trace:
        table = tracer.table()
        path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
        tracer.dump(path)
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        print(f"{'layer':40} {'calls':>9} {'self_s':>10}")
        for span, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{span:40} {row['calls']:9d} {row['self_s']:10.4f}")
        metrics = per_layer(table, untraced_s, traced_s, len(wl.items))
    else:
        e2e = end_to_end(run, session.setup_s)
        for metric, unit in END_TO_END_UNITS.items():
            value = e2e.get(metric)
            shown = (f"{value:.6g} {unit}" if value is not None else
                     f"n/a ({len(run.timings)} items, fewer than "
                     f"{MIN_ITEMS_FOR_P90})")
            print(f"metric {metric} = {shown}")
        metrics = {m: (e2e[m], END_TO_END_UNITS[m]) for m in GATED}
    return {"correct": not run.failures, "attempted": run.executions,
            "failed": len(run.failures),
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    combined = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "geohull", "__init__.py")):
        print(f"error: no geohull package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
