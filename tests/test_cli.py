import os
import subprocess
import sys

import pytest

import geohull
from geohull import (TooLarge, format_dimacs, format_labels, make_cnf,
                     parse_graph)
from geohull.cli import run

FIG2_TEXT = "5 6\n0 1\n1 2\n1 3\n2 3\n2 4\n3 4\n"
SAMPLE_DIMACS = "p cnf 3 3\n1 2 3 0\n1 2 3 0\n-1 -2 -3 0\n"


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.g"
    path.write_text(FIG2_TEXT)
    return str(path)


@pytest.fixture
def sample_cnf_file(tmp_path):
    path = tmp_path / "sample.cnf"
    path.write_text(SAMPLE_DIMACS)
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_fixture_fig2(capsys):
    code, out = invoke(capsys, "fixture", "fig2")
    assert code == 0
    assert out == FIG2_TEXT
    # The same command through ``python -m geohull`` (``__main__`` and main).
    src = os.path.dirname(os.path.dirname(geohull.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "geohull", "fixture", "fig2"],
                          capture_output=True, text=True, env=env, check=False)
    assert (done.returncode, done.stdout) == (0, FIG2_TEXT)


def test_fixture_to_file(tmp_path, capsys):
    target = tmp_path / "out.g"
    code, out = invoke(capsys, "fixture", "fig2", "--out-graph", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == FIG2_TEXT


def test_interval(capsys, fig2_file):
    code, out = invoke(capsys, "interval", "--graph", fig2_file, "--set", "4,1")
    assert code == 0
    assert out == "1,2,3,4\n"


def test_hull(capsys, fig2_file):
    code, out = invoke(capsys, "hull", "--graph", fig2_file, "--set", "0,4")
    assert code == 0
    assert out == "0,1,2,3,4\n"


def test_convex_and_concave(capsys, fig2_file):
    assert invoke(capsys, "convex", "--graph", fig2_file, "--set", "2,3,4") == (0, "true\n")
    assert invoke(capsys, "convex", "--graph", fig2_file, "--set", "0,3") == (0, "false\n")
    assert invoke(capsys, "concave", "--graph", fig2_file, "--set", "1") == (0, "false\n")


def test_hullnum(capsys, fig2_file):
    code, out = invoke(capsys, "hullnum", "--graph", fig2_file)
    assert code == 0
    assert out == "h=2\nwitness=0,4\n"


def test_hullnum_oracle(capsys, fig2_file):
    code, out = invoke(capsys, "hullnum", "--graph", fig2_file, "--oracle")
    assert code == 0
    assert out == "h=2\nwitness=0,4\n"


def test_hullnum_budget_exhausted(tmp_path, capsys):
    path = tmp_path / "c4.g"
    path.write_text("4 4\n0 1\n0 3\n1 2\n2 3\n")
    code, _ = invoke(capsys, "hullnum", "--graph", str(path), "--budget", "1")
    assert code == 3


def test_hullnum_oracle_takes_no_budget(capsys, fig2_file):
    # The brute-force oracle has no budget to honour, so asking for one is
    # a usage error, in either order.
    for options in (["--oracle", "--budget", "5"], ["--budget", "5", "--oracle"]):
        with pytest.raises(SystemExit) as info:
            run(["hullnum", "--graph", fig2_file, *options])
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, fig2_file):
    import geohull.convexity as convexity_module

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(convexity_module, "hull", exhausted)
    assert run(["hull", "--graph", fig2_file, "--set", "0"]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"
    monkeypatch.undo()
    # For real: the 8-byte file "65536 0" passes the parse cap, but its
    # distance layers do not fit in 256 MiB of address space.  The limit is
    # set in the child alone.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    path = tmp_path / "wide.g"
    path.write_text("65536 0\n")
    src = os.path.dirname(os.path.dirname(geohull.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["hullnum"], ["hull", "--set", "0"], ["deps"]):
        done = subprocess.run(
            [sys.executable, "-m", "geohull", *argv, "--graph", str(path)],
            capture_output=True, text=True, env=env, check=False,
            preexec_fn=limit)
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", "error: out of memory\n"), argv


@pytest.mark.parametrize("command", ["hullnum", "equiv"])
@pytest.mark.parametrize("budget", ["-1", "abc"])
def test_bad_budget_is_usage_error(capsys, fig2_file, sample_cnf_file,
                                   command, budget):
    source = ["--graph", fig2_file] if command == "hullnum" else [
        "--cnf", sample_cnf_file]
    with pytest.raises(SystemExit) as info:
        run([command, *source, "--budget", budget])
    assert info.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_simplicial(capsys, fig2_file):
    assert invoke(capsys, "simplicial", "--graph", fig2_file) == (0, "0,4\n")


def test_chordal(capsys, fig2_file):
    code, out = invoke(capsys, "chordal", "--graph", fig2_file)
    assert code == 0
    assert out == "chordal\n4 3 2 1 0\n"


def test_chordal_negative(tmp_path, capsys):
    path = tmp_path / "c4.g"
    path.write_text("4 4\n0 1\n0 3\n1 2\n2 3\n")
    code, out = invoke(capsys, "chordal", "--graph", str(path))
    assert code == 0
    assert out == "not-chordal\n"


def test_deps(capsys, fig2_file):
    code, out = invoke(capsys, "deps", "--graph", fig2_file)
    assert code == 0
    lines = out.splitlines()
    assert "{0,3} -> 1" in lines
    assert "{1,4} -> 2" in lines
    assert "{3,4} -> 2" not in lines
    assert lines == [
        "{0,2} -> 1", "{0,3} -> 1", "{0,4} -> 1", "{0,4} -> 2",
        "{0,4} -> 3", "{1,4} -> 2", "{1,4} -> 3"]


def test_reduce_round_trip(tmp_path, capsys, sample_cnf_file, sample_reduction):
    graph_out = tmp_path / "red.g"
    labels_out = tmp_path / "red.labels"
    code, out = invoke(capsys, "reduce", "--cnf", sample_cnf_file,
                       "--out-graph", str(graph_out),
                       "--out-labels", str(labels_out))
    assert code == 0
    assert out == "vertices=39 edges=144 k=12\n"
    assert parse_graph(graph_out.read_text()) == sample_reduction.graph
    assert labels_out.read_text() == format_labels(sample_reduction)


def test_verify_reduction(capsys, sample_cnf_file):
    code, out = invoke(capsys, "verify-reduction", "--cnf", sample_cnf_file)
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 9
    assert not any(line.startswith("FAIL") for line in lines)
    assert any(line.startswith("NOTE") for line in lines)


def test_equiv(capsys, sample_cnf_file):
    code, out = invoke(capsys, "equiv", "--cnf", sample_cnf_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "satisfiable=true"
    assert lines[1] == "h=12"
    assert lines[2] == "k=12"
    assert all(line.startswith("PASS") for line in lines[3:])


def test_equiv_budget_counts_no_root_core_build(capsys, sample_cnf_file):
    # Seeded with the paper's concave sets, the decision search settles
    # the sample in 10 hull evaluations; the unseeded hull_number_at_most
    # spends 70, most of them building its root cores.
    code, out = invoke(capsys, "equiv", "--cnf", sample_cnf_file,
                       "--budget", "10")
    assert code == 0
    assert out.splitlines()[1] == "h=12"
    code = run(["equiv", "--cnf", sample_cnf_file, "--budget", "9"])
    assert code == 3
    assert "hull number is at least 12" in capsys.readouterr().err


def _fresh_process(*argv):
    src = os.path.dirname(os.path.dirname(geohull.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "geohull", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return done.returncode, done.stdout


def test_one_process_runs_match_fresh_processes(tmp_path, capsys, fig2_file,
                                                sample_cnf_file):
    # The parser is built once per process; parsing must leave it as new.
    assert geohull.cli._build_parser() is geohull.cli._build_parser()
    commands = [
        ["verify-reduction", "--cnf", sample_cnf_file],
        ["reduce", "--cnf", sample_cnf_file,
         "--out-graph", str(tmp_path / "{}.g"),
         "--out-labels", str(tmp_path / "{}.labels")],
        ["hullnum", "--graph", fig2_file, "--budget", "50"],
        ["chordal", "--graph", fig2_file],
        ["verify-reduction", "--cnf", sample_cnf_file],
    ]
    for argv in commands:
        in_process = invoke(capsys, *(a.format("same") for a in argv))
        fresh = _fresh_process(*(a.format("fresh") for a in argv))
        assert in_process == fresh
    for suffix in ("g", "labels"):
        assert ((tmp_path / f"same.{suffix}").read_text()
                == (tmp_path / f"fresh.{suffix}").read_text())
    # A usage error after a successful call is still a usage error, and the
    # call after it still succeeds.
    with pytest.raises(SystemExit) as info:
        run(["hullnum", "--graph", fig2_file, "--budget", "-1"])
    assert info.value.code == 2
    assert "--budget" in capsys.readouterr().err
    assert invoke(capsys, "hullnum", "--graph", fig2_file) == \
        (0, "h=2\nwitness=0,4\n")


def test_gen_cnf_deterministic(capsys):
    first = invoke(capsys, "gen-cnf", "--n", "4", "--seed", "7")
    second = invoke(capsys, "gen-cnf", "--n", "4", "--seed", "7")
    assert first == second
    assert first[0] == 0
    assert first[1].startswith("p cnf 4 ")


def test_outputs_are_stable(capsys, fig2_file):
    for argv in (["hullnum", "--graph", fig2_file],
                 ["deps", "--graph", fig2_file],
                 ["chordal", "--graph", fig2_file]):
        assert invoke(capsys, *argv) == invoke(capsys, *argv)


# -- error handling ------------------------------------------------------------

def test_missing_file_is_input_error(capsys):
    code, _ = invoke(capsys, "hull", "--graph", "/no/such/file", "--set", "0")
    assert code == 2


def test_malformed_graph_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.g"
    path.write_text("not a graph\n")
    code, _ = invoke(capsys, "simplicial", "--graph", str(path))
    assert code == 2


@pytest.mark.parametrize("command", ["equiv", "verify-reduction"])
def test_negative_cnf_count_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "neg.cnf"
    path.write_text("p cnf -1 0\n")
    code, _ = invoke(capsys, command, "--cnf", str(path))
    assert code == 2


@pytest.mark.parametrize("command", ["equiv", "verify-reduction"])
def test_duplicate_problem_line_is_input_error(tmp_path, capsys, command):
    # Were the second header to replace the first, equiv would read a
    # one-variable instance and exit 3 on its occurrence violations.
    path = tmp_path / "twice.cnf"
    path.write_text("p cnf 3 1\n3 0\np cnf 1 1\n")
    code = run([command, "--cnf", str(path)])
    assert code == 2
    assert "duplicate problem line" in capsys.readouterr().err


def test_hostile_cnf_header_is_rejected_before_allocation(tmp_path, capsys,
                                                          monkeypatch):
    # One claimed variable without clauses must not cost per-variable lists:
    # a regression raises here instead of allocating a billion of them.
    import geohull.cnf as cnf_module

    def refuse(cnf):
        raise AssertionError("per-variable occurrence lists were built")

    monkeypatch.setattr(cnf_module, "_occurrences", refuse)
    text = "p cnf 1000000000 0\n"
    assert cnf_module.validate_restricted(cnf_module.parse_dimacs(text)) == [
        "variable count 1000000000 > clause count 0: 3n occurrences need n <= m"]
    path = tmp_path / "huge.cnf"
    path.write_text(text)
    code, _ = invoke(capsys, "reduce", "--cnf", str(path),
                     "--out-graph", str(tmp_path / "huge.g"),
                     "--out-labels", str(tmp_path / "huge.labels"))
    assert code == 3
    code, _ = invoke(capsys, "verify-reduction", "--cnf", str(path))
    assert code == 3


def _cyclic_dimacs(n):
    """n variables and n clauses: variable v positive in clauses v and v + 1
    and negative in v + 2, mod n."""
    clauses = [[] for _ in range(n)]
    for v in range(n):
        clauses[v].append(v + 1)
        clauses[(v + 1) % n].append(v + 1)
        clauses[(v + 2) % n].append(-(v + 1))
    return format_dimacs(make_cnf(n, clauses))


def test_reduction_over_the_vertex_cap_exits_3(tmp_path, capsys, monkeypatch):
    # A small, valid file whose reduction (13 * 5100 vertices) exceeds the
    # graph cap: refused before the hub clique's members are listed or the
    # graph is started.
    import geohull.graph as graph_module
    import geohull.reduction as reduction_module

    def refuse(*args, **kwargs):
        raise AssertionError("the graph was started")

    monkeypatch.setattr(graph_module.Graph, "__init__", refuse)
    monkeypatch.setattr(reduction_module, "_hub", refuse)
    path = tmp_path / "cyclic.cnf"
    path.write_text(_cyclic_dimacs(5100))
    out_graph = tmp_path / "cyclic.g"
    code = run(["reduce", "--cnf", str(path), "--out-graph", str(out_graph),
                "--out-labels", str(tmp_path / "cyclic.labels")])
    assert code == 3
    assert "66300 vertices, over the cap of 65536" in capsys.readouterr().err
    assert not out_graph.exists()
    code = run(["verify-reduction", "--cnf", str(path)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "over the cap" in captured.err


def test_gen_cnf_over_the_reduction_cap_exits_3(capsys, monkeypatch):
    import geohull.cnf as cnf_module

    def refuse(seed):
        raise AssertionError("the generator was seeded")

    monkeypatch.setattr(cnf_module.random, "Random", refuse)
    code = run(["gen-cnf", "--n", "1000000000", "--seed", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "over the cap" in captured.err


def test_gen_cnf_with_a_drawn_m_over_the_reduction_cap_exits_3(capsys,
                                                              monkeypatch):
    # n = 5000 seed 0 draws m = 11311, so 12n + m is over the cap; it is
    # refused before the first variable's Random.choice, which a valid n
    # reaches.
    import geohull.cnf as cnf_module

    def refuse(self, items):
        raise AssertionError("clauses were placed")

    monkeypatch.setattr(cnf_module.random.Random, "choice", refuse)
    code = run(["gen-cnf", "--n", "5000", "--seed", "0"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "over the cap" in captured.err
    with pytest.raises(AssertionError, match="clauses were placed"):
        run(["gen-cnf", "--n", "3", "--seed", "0"])


def test_hostile_graph_header_is_rejected_before_allocation(tmp_path, capsys,
                                                            monkeypatch):
    # A graph is never built from a header over the cap: a regression raises
    # here instead of allocating a billion adjacency sets.
    import geohull.graph as graph_module

    def refuse(self, *args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graph_module.Graph, "__init__", refuse)
    cap = graph_module.MAX_VERTICES
    with pytest.raises(TooLarge):
        parse_graph(f"{cap + 1} 0\n")
    with pytest.raises(AssertionError, match="a graph was built"):
        parse_graph(f"{cap} 0\n")
    path = tmp_path / "huge.g"
    path.write_text("1000000000 0\n")
    code, _ = invoke(capsys, "hull", "--graph", str(path), "--set", "0")
    assert code == 3


def test_bad_set_is_input_error(capsys, fig2_file):
    code, _ = invoke(capsys, "hull", "--graph", fig2_file, "--set", "0,x")
    assert code == 2


@pytest.mark.parametrize("command, option, data", [
    ("hullnum", "--graph", b"3 1\n0 \xff1\n"),
    ("equiv", "--cnf", b"p cnf 1 3\n1 0\n1 0\n-1 \xff0\n"),
])
def test_non_utf8_input_is_input_error(tmp_path, capsys, command, option,
                                       data):
    path = tmp_path / "bad.in"
    path.write_bytes(data)
    code = run([command, option, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    position = data.index(b"\xff")
    assert captured.err == (
        f"error: {path}: not UTF-8 text: 'utf-8' codec can't decode byte "
        f"0xff in position {position}: invalid start byte\n")


def test_disconnected_is_precondition_error(tmp_path, capsys):
    path = tmp_path / "disc.g"
    path.write_text("4 2\n0 1\n2 3\n")
    code, _ = invoke(capsys, "hull", "--graph", str(path), "--set", "0")
    assert code == 3


def test_out_of_range_set_is_precondition_error(capsys, fig2_file):
    code, _ = invoke(capsys, "hull", "--graph", fig2_file, "--set", "0,9")
    assert code == 3


def test_invalid_cnf_is_precondition_error(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, _ = invoke(capsys, "verify-reduction", "--cnf", str(path))
    assert code == 3


def test_failing_check_exits_one(tmp_path, capsys, monkeypatch):
    import geohull.cli as cli_module
    from geohull.reduction import CheckResult, StructureReport

    path = tmp_path / "sample.cnf"
    path.write_text(SAMPLE_DIMACS)
    monkeypatch.setattr(
        cli_module, "verify_structure",
        lambda rg: StructureReport(
            (CheckResult("order", False, "forced failure"),), ()))
    code, out = invoke(capsys, "verify-reduction", "--cnf", str(path))
    assert code == 1
    assert out.startswith("FAIL order")


def test_failing_witness_check_exits_one(sample_cnf_file, capsys, monkeypatch):
    import geohull.reduction as reduction_module
    from geohull import (HullDecision, assignment_to_hull_set,
                         build_reduction, satisfying_assignments)

    cnf = make_cnf(3, [[1, 2, 3], [1, 2, 3], [-1, -2, -3]])
    rg = build_reduction(cnf)
    witness = (assignment_to_hull_set(rg, next(satisfying_assignments(cnf)))
               - {min(rg.designated_simplicial())})
    monkeypatch.setattr(reduction_module, "_decide_with_paper_cores",
                        lambda rg, node_budget=None: HullDecision(witness, 11))
    code, out = invoke(capsys, "equiv", "--cnf", sample_cnf_file)
    assert code == 1
    assert "FAIL witness-simplicial: witness misses a simplicial vertex\n" in out
