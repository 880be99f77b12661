"""Lines of ``src/geohull`` that Tier-1 never runs.

Usage, from the repository root::

    python3 tools/line_trace.py [TREE]

Runs the test suite of ``TREE`` (default: this repository) in-process with
``pytest.main``, under ``sys.settrace`` and ``threading.settrace``, and
records each line of ``TREE/src/geohull`` that a frame reaches.  It then
compiles every module of the package and lists each line that some code
object's ``co_lines()`` maps to but that never ran, as ``file:line: text``,
followed by a one-line summary.  Exits with pytest's own exit code.

Only the standard library and pytest are used (no ``coverage``).  A line
run only in a child process, such as ``python -m geohull`` from a test,
counts as never run.  Tracing makes the suite run several times slower.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
import threading
import types

import pytest


def _code_lines(code: types.CodeType) -> set[int]:
    """Every line that code or a code object nested in it maps to."""
    lines = {line for _, _, line in code.co_lines()
             if line is not None and line > 0}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _trace(package: str):
    """Start tracing frames of files under package; returns the lines that
    ran, by file."""
    prefix = package + os.sep
    ran = collections.defaultdict(set)

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran[filename]
        lines.add(frame.f_lineno)

        def on_line(frame, event, arg):
            lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    return ran


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", nargs="?", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="source tree with src/geohull and tests/ (default: this one)")
    args = parser.parse_args()
    tree = os.path.abspath(args.tree)
    package = os.path.join(tree, "src", "geohull")

    os.chdir(tree)
    sys.path.insert(0, os.path.join(tree, "src"))
    ran = _trace(package)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              os.path.join(tree, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed_total = traced = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        lines = _code_lines(compile(source, path, "exec"))
        missed = sorted(lines - ran[path])
        traced += len(lines)
        missed_total += len(missed)
        text = source.splitlines()
        for line in missed:
            print(f"{os.path.relpath(path, tree)}:{line}: "
                  f"{text[line - 1].strip()}")
    print(f"{missed_total} of {traced} traced lines of "
          f"{os.path.relpath(package, tree)} never ran")
    sys.exit(int(status))


if __name__ == "__main__":
    main()
