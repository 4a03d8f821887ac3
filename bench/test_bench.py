"""Tests of the benchmark harness itself, on the tiny ``smoke`` workload.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import replay
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_smoke_untraced_reports_every_end_to_end_metric():
    proc, result = run_bench("--workload", "smoke", "--seed", "1", "--seconds", "0",
                             "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_reports_every_layer_metric_and_pinned_counts():
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    proc, result = run_bench("--workload", "smoke", "--seed", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert "COUNT DRIFT" not in proc.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for name, value in expected["smoke"]["counts"].items():
        assert metrics[name] == value, name
    assert metrics["fail_frac"] == 0
    assert metrics["cli.commands"] == len(workloads.WORKLOADS["smoke"].commands)


def test_tampered_expectation_fails_by_name(tmp_path, monkeypatch, capsys):
    import run

    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    command = "verify -i h50.col --targets 3,3,3,3 --cert h50.cert"
    expected["smoke"]["commands"][command]["stdout"] = "PASS R(3,3,3,3)>=52\n"
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected), encoding="utf-8")
    monkeypatch.setattr(run, "EXPECTED", tampered)

    code = run.main(["--workload", "smoke", "--seed", "1", "--trace", "1"])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["fail_frac"]["value"] > 0
    assert f"GATE FAIL smoke: {command} [stdout]" in err


def test_traced_replay_restores_every_original(tmp_path):
    from ramseykit import cli, coloring, residues, verify

    owners = {"cli": cli, "coloring": coloring, "residues": residues, "verify": verify,
              "CirculantColoring": coloring.CirculantColoring,
              "ExplicitColoring": coloring.ExplicitColoring}
    before = {(o, a): v for o, owner in owners.items() for a, v in vars(owner).items()
              if callable(v)}

    tracer = replay.Tracer()
    report = replay.replay(workloads.WORKLOADS["smoke"], tmp_path, 1, tracer)

    assert all(r["exit"] == 0 for r in report["results"])
    assert {s[0] for s in tracer.spans} >= {"cli.command", "verify.witness",
                                            "construct.compose", "coloring.rows"}
    after = {(o, a): v for o, owner in owners.items() for a, v in vars(owner).items()
             if callable(v)}
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_order_is_repeatable_and_respects_inputs(name):
    workload = workloads.WORKLOADS[name]
    for seed in range(8):
        order = workload.ordered(seed)
        assert order == workload.ordered(seed)
        assert sorted(c.text for c in order) == sorted(c.text for c in workload.commands)
        have = set(workload.harness_files)
        for cmd in order:
            assert set(cmd.inputs) <= have
            have.update(cmd.coloring_outputs)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_probe_command_is_part_of_its_workload(name):
    workload = workloads.WORKLOADS[name]
    if workload.probe is None:
        assert workload.probe_metric is None
        return
    assert workload.probe_command in workload.commands
    assert workload.probe_metric in {m["name"] for m in SPEC["per_layer"]}
