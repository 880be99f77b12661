"""The benchmark's own tests: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for metric, unit in run.END_TO_END_UNITS.items():
        line = next(l for l in lines if l.startswith(f"metric {metric} = "))
        assert line.endswith(f" {unit}") or "n/a" in line
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.GATED)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == run.END_TO_END_UNITS[metric] and entry["value"] > 0


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "equiv-batch", "--seed", "3", "--seconds", "0.3",
                 "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    for entry in declared:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
    assert metrics["solver.hull_number_exact.calls"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_same_seed_gives_identical_inputs(tmp_path):
    gh = run.import_geohull()
    makers = (lambda s: workloads.EquivBatch(gh, s, tiny=True),
              lambda s: workloads.VerifyLarge(gh, s, str(tmp_path), tiny=True),
              lambda s: workloads.ToolkitSmall(gh, s, tiny=True))
    for make in makers:
        first, again, other = make(5), make(5), make(6)
        assert repr(first.items).encode() == repr(again.items).encode()
        assert first.inputs_digest == again.inputs_digest
        assert first.inputs_digest != other.inputs_digest


def test_seed_one_inputs_match_the_baseline_fingerprints(tmp_path):
    with open(os.path.join(BENCH, "baseline.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)["fingerprints"]
    gh = run.import_geohull()
    pools = {"equiv-batch": workloads.EquivBatch(gh, 1),
             "verify-large": workloads.VerifyLarge(gh, 1, str(tmp_path)),
             "toolkit-small": workloads.ToolkitSmall(gh, 1)}
    for name, wl in pools.items():
        assert wl.inputs_digest == recorded[name]["inputs"], name


def test_wrong_answers_raise_failed_ratio(monkeypatch):
    real_toolkit = workloads.ToolkitSmall.run
    real_equiv = workloads.EquivBatch.run

    def toolkit_off_by_one(self, item):
        *rest, result = real_toolkit(self, item)
        return (*rest, replace(result, hull_number=result.hull_number + 1))

    def equiv_flipped(self, text):
        cnf, report, rg, structure = real_equiv(self, text)
        return cnf, replace(report, satisfiable=not report.satisfiable), rg, structure

    monkeypatch.setattr(workloads.ToolkitSmall, "run", toolkit_off_by_one)
    monkeypatch.setattr(workloads.EquivBatch, "run", equiv_flipped)
    for name in ("toolkit-small", "equiv-batch"):
        result = run.run_workload(name, 3, 0.2, trace=False, tiny=True)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "equiv-batch", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
