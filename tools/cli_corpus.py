"""A fixed corpus of ``geohull`` invocations, recorded for byte-identity checks.

Usage, from the repository root::

    python3 tools/cli_corpus.py TREE --out A.json
    python3 tools/cli_corpus.py --compare A.json B.json

The first form imports ``geohull`` from ``TREE/src`` and runs every
invocation of the corpus in-process through ``geohull.cli.run``, in a fresh
temporary directory.  It writes one JSON object: the interpreter's version,
the sha256 of each input file, and per invocation its argv, exit code,
stdout, stderr and the sha256 of each file it wrote.  The temporary
directory's path reads ``<tmp>`` wherever it appears, so records from two
trees, or from two interpreters, compare equal when the behaviour is.  The
input graphs are fixed here; the CNF inputs are written by the tree's own
``gen-cnf``, so a changed generator shows as a changed input.

The second form lists each input and each invocation whose record differs
between the two files, and exits 1 when there is one.

Only the standard library is used, so any interpreter that ``geohull``
supports (``requires-python`` in ``pyproject.toml``) can run it.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

FIG2 = "5 6\n0 1\n1 2\n1 3\n2 3\n2 4\n3 4\n"

# Graph files by name; None marks a path that is never written.
GRAPHS = {
    "fig2.g": FIG2.encode(),
    "disconnected.g": b"3 1\n0 1\n",
    "malformed.g": b"3 2\n0 1\n1 x\n",
    "latin1.g": b"2 1\n0 1\n# caf\xe9\n",
    "missing.g": None,
    # Texts with two faults each: the first in reading order is reported.
    "count-then-bad.g": b"3 5\n0 1\n1 x\n1 2\n",
    "range-then-bad.g": b"3 3\n0 1\n0 7\n1 x\n",
    "bad-then-range.g": b"3 3\n0 1\n1 x\n0 7\n",
    "loop-then-count.g": b"3 9\n0 0\n1 2\n",
}

SET_COMMANDS = ("interval", "hull", "convex", "concave")
PLAIN_COMMANDS = ("hullnum", "simplicial", "chordal", "deps")
FIG2_SETS = ("4,1", "0,4", "2,3,4", "1", "0,9", "a")

# (n, seed) pairs for gen-cnf, reduce and verify-reduction; those with
# n <= 5 also go through equiv and hullnum on the reduction.
SIZES = ((1, 0), (2, 1), (3, 3), (4, 7), (5, 4), (20, 1), (24, 2))

# The instances of the acceptance suite's criterion 3.
CRITERION_3 = tuple((seed % 5 + 1, seed) for seed in range(50))

# (n, seed) pairs for gen-cnf alone: the generator at scale, where its
# instances are too large to reduce or solve here.
GEN_ONLY_SIZES = ((100, 3), (400, 1), (1000, 1))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _import_cli(tree: str):
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    import geohull.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"geohull was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


def _invoke(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _corpus(tmp: str, cnf_path) -> list[list[str]]:
    """Every recorded argv, in order.  ``cnf_path(n, seed)`` writes that
    instance's file (once) and returns its path."""
    def path(name: str) -> str:
        return os.path.join(tmp, name)

    fig2, disconnected = path("fig2.g"), path("disconnected.g")
    corpus = [[cmd, "--graph", fig2, "--set", s]
              for cmd in SET_COMMANDS for s in FIG2_SETS]
    corpus += [[cmd, "--graph", disconnected, "--set", "0,2"]
               for cmd in SET_COMMANDS]
    corpus += [[cmd, "--graph", path(name)]
               for cmd in PLAIN_COMMANDS for name in GRAPHS]
    corpus += [["hullnum", "--graph", fig2, "--oracle"],
               ["hullnum", "--graph", fig2, "--budget", "1"],
               ["fixture", "fig2"],
               ["fixture", "fig2", "--out-graph", path("fixture.g")]]
    for n, seed in SIZES:
        corpus.append(["gen-cnf", "--n", str(n), "--seed", str(seed)])
        cnf = cnf_path(n, seed)
        stem = path(f"n{n}s{seed}")
        corpus += [["reduce", "--cnf", cnf, "--out-graph", stem + ".g",
                    "--out-labels", stem + ".labels"],
                   ["verify-reduction", "--cnf", cnf]]
        if n <= 5:
            corpus += [["equiv", "--cnf", cnf],
                       ["equiv", "--cnf", cnf, "--budget", "3"],
                       ["hullnum", "--graph", stem + ".g"]]
    # Closing the simplicial vertices spends a budget of 1, so this exits 3
    # whatever the search's branching rule.
    corpus.append(["equiv", "--cnf", cnf_path(5, 4), "--budget", "1"])
    corpus += [["equiv", "--cnf", path("latin1.cnf")],
               ["verify-reduction", "--cnf", path("missing.cnf")]]
    corpus += [["equiv", "--cnf", cnf_path(n, seed)]
               for n, seed in CRITERION_3]
    corpus += [["gen-cnf", "--n", str(n), "--seed", str(seed)]
               for n, seed in GEN_ONLY_SIZES]
    return corpus


def record(tree: str) -> dict:
    cli = _import_cli(tree)
    with tempfile.TemporaryDirectory(prefix="cli-corpus-") as tmp:
        def mask(text: str) -> str:
            return text.replace(tmp, "<tmp>")

        inputs = {}

        def write_input(name: str, data: bytes) -> str:
            with open(os.path.join(tmp, name), "wb") as handle:
                handle.write(data)
            inputs[name] = _sha256(data)
            return os.path.join(tmp, name)

        def cnf_path(n: int, seed: int) -> str:
            name = f"n{n}s{seed}.cnf"
            if name not in inputs:
                code, text, err = _invoke(
                    cli, ["gen-cnf", "--n", str(n), "--seed", str(seed)])
                if code != 0:
                    raise SystemExit(f"gen-cnf {n} {seed} failed: {err}")
                write_input(name, text.encode())
            return os.path.join(tmp, name)

        for name, data in GRAPHS.items():
            if data is not None:
                write_input(name, data)
        write_input("latin1.cnf", b"c caf\xe9\np cnf 1 1\n1 0\n")

        records = []
        for argv in _corpus(tmp, cnf_path):
            outputs = [argv[i + 1] for i, arg in enumerate(argv)
                       if arg in ("--out-graph", "--out-labels")]
            code, out, err = _invoke(cli, argv)
            files = {}
            for name in outputs:
                with open(name, "rb") as handle:
                    files[mask(name)] = _sha256(handle.read())
            records.append({"argv": [mask(a) for a in argv], "exit": code,
                            "stdout": mask(out), "stderr": mask(err),
                            "files": files})
    return {"python": sys.version.split()[0], "inputs": inputs,
            "exits": dict(sorted(collections.Counter(
                r["exit"] for r in records).items())),
            "records": records}


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    differ = [f"input {name}" for name in sorted(set(a["inputs"])
                                                 | set(b["inputs"]))
              if a["inputs"].get(name) != b["inputs"].get(name)]
    if len(a["records"]) != len(b["records"]):
        differ.append(f"{len(a['records'])} against {len(b['records'])} "
                      "invocations")
    differ += [" ".join(ra["argv"])
               for ra, rb in zip(a["records"], b["records"]) if ra != rb]
    for line in differ:
        print(f"differs: {line}")
    print(f"{len(a['records'])} invocations (Python {a['python']} against "
          f"{b['python']}), exit codes {a['exits']}; {len(differ)} differ")
    return 1 if differ else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", nargs="?",
                        help="source tree whose src/ holds geohull")
    parser.add_argument("--out", metavar="FILE",
                        help="write the record here, not to stdout")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the differences between two records")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if not args.tree:
        parser.error("name a tree, or give --compare")
    text = json.dumps(record(args.tree), indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
