"""Smoke tests of the benchmark command at its test size (ROB-2, 512 programs)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.catalog import END_TO_END, FUZZ_SHAPE, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "perfbench" / "expected.json"

needs_two_cpus = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="2-worker workloads refuse to oversubscribe"
)


def bench(*args: str, env: dict | None = None) -> tuple[int, str, dict | None]:
    """Run the benchmark command; returns (exit code, stdout, last-line JSON)."""
    base = {k: v for k, v in os.environ.items() if k != "REPRO_MC_ENGINE"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "smoke", "--seconds", "0.1", *args],
        cwd=ROOT,
        env={**base, **(env or {})},
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, proc.stdout, result


def test_every_end_to_end_metric_prints_with_its_unit():
    code, out, result = bench("--workload", "rob8", "--trace", "0")
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in END_TO_END.items():
        assert any(line.split()[:1] == [name] and unit in line for line in out.splitlines())


@needs_two_cpus
def test_per_layer_counters_come_home_from_a_two_worker_pool():
    code, out, result = bench("--workload", "rob8-2w", "--trace", "1")
    assert code == 0, out
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == PER_LAYER
    value = {name: m["value"] for name, m in metrics.items()}
    # Every search of this workload runs in a pool child: these values
    # exist only if the children's counters reached the coordinator.
    assert value["mc.states_executed"] > 0
    assert value["mc.search_s.shadow"] > 0
    assert value["campaign.shard_busy_s"] > 0
    assert value["uarch.step_calls"] > 0
    assert value["core.product_snapshot_restore_s"] > 0
    assert value["campaign.shards"] > 0
    assert value["campaign.work_efficiency"] >= 1
    assert (ROOT / ".perfbench_out" / "trace-rob8-2w-smoke-seed20250726.jsonl").is_file()


def test_traced_fuzz_reports_the_oracle_layers():
    code, out, result = bench("--workload", "fuzz-defended", "--trace", "1")
    assert code == 0, out
    value = {name: m["value"] for name, m in result["metrics"].items()}
    batches, per_batch, rounds = FUZZ_SHAPE["smoke"]
    assert value["fuzz.programs"] == batches * per_batch * rounds
    assert 0 < value["fuzz.repeat_step_share"] < 1
    assert value["core.product_steps"] == value["fuzz.product_cycles"]
    assert value["mc.states_executed"] == 0


def test_gate_fails_on_a_planted_wrong_expectation(tmp_path):
    expected = json.loads(EXPECTED.read_text())
    cell = expected["smoke"]["rob8"]["rob"]
    cell["kind"] = "attack" if cell["kind"] == "proved" else "proved"
    planted = tmp_path / "expected.json"
    planted.write_text(json.dumps(expected))
    code, out, result = bench("--workload", "rob8", "--trace", "0", "--expected", str(planted))
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED rob" in out


def test_refuses_to_run_under_an_engine_override():
    code, out, result = bench(
        "--workload", "rob8", "--trace", "0", env={"REPRO_MC_ENGINE": "object"}
    )
    assert code == 2 and result is None


def _compare(tmp_path, change_env: dict) -> subprocess.CompletedProcess:
    env = {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6", "engines": {"rob": "vector"}}
    record = {
        "workload": "rob8", "seed": 1, "size": "full", "trace": 0, "correct": True,
        "env": env, "metrics": {name: 1.0 for name in END_TO_END},
    }
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    parent.write_text(json.dumps(record) + "\n")
    change.write_text(json.dumps({**record, "env": {**env, **change_env}}) + "\n")
    return subprocess.run(
        [sys.executable, "perfbench/compare.py", str(parent), str(change)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )


def test_compare_refuses_a_numpy_less_record(tmp_path):
    proc = _compare(tmp_path, {"numpy": None, "engines": {"rob": "packed"}})
    assert proc.returncode == 2 and "refusing" in proc.stdout
    proc = _compare(tmp_path, {})
    assert proc.returncode == 0 and "wall_s" in proc.stdout


def test_gate_fails_an_attack_that_does_not_replay():
    from dataclasses import replace

    from perfbench import workloads
    from repro.core.verifier import verify

    prepared = workloads.prepare("table2-2w", 0, "smoke")
    result = {cell: verify(task) for cell, task in prepared.tasks.items()}
    expected = json.loads(EXPECTED.read_text())["smoke"]["table2-2w"]
    assert workloads.check("table2-2w", 0, prepared, result, expected).failed == 0
    # Equal memories in both copies: nothing secret differs, so the
    # replayed program cannot leak.
    cell = "shadow/SimpleOoO"
    cex = result[cell].counterexample
    twins = (cex.dmem_pair[0], cex.dmem_pair[0])
    result[cell] = replace(result[cell], counterexample=replace(cex, dmem_pair=twins))
    gate = workloads.check("table2-2w", 0, prepared, result, expected)
    assert gate.failed == 1 and "does not replay" in gate.failures[0]
