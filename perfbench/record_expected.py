"""Regenerate ``perfbench/expected.json`` from the serial reference paths.

    PYTHONPATH=src:. python3 perfbench/record_expected.py

Every explorer cell is verified on its own with the plain serial
``repro.core.verifier.verify``, so the benchmark's 2-worker workloads are
checked against a different execution path than the one they time.
Fuzz verdict counts are recorded for the named seeds and seeds 0-63.
Only rerun this when a change is meant to alter verdicts or statistics,
and say so in the change.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from perfbench.catalog import DEFAULT_SEED, HELD_OUT_SEED, SIZES, WORKLOADS
from perfbench import workloads
from repro.core.verifier import verify

PATH = Path(__file__).with_name("expected.json")
FUZZ_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED, *range(64))


def _explorer(name: str, size: str) -> dict:
    tasks = workloads.prepare(name, DEFAULT_SEED, size).tasks
    return workloads.observe(name, {cell: verify(task) for cell, task in tasks.items()})


def _fuzz(job: tuple[int, str]) -> tuple[str, dict]:
    seed, size = job
    prepared = workloads.prepare("fuzz-defended", seed, size)
    seen = workloads.observe("fuzz-defended", prepared.call())
    return str(seed), seen["verdicts"]


def main() -> None:
    expected: dict = {}
    with ProcessPoolExecutor(2) as pool:
        for size in SIZES:
            section = {
                name: _explorer(name, size)
                for name, workload in WORKLOADS.items()
                if workload.kind == "explorer"
            }
            seeds = dict(pool.map(_fuzz, [(seed, size) for seed in FUZZ_SEEDS]))
            section["fuzz-defended"] = {"seeds": seeds}
            expected[size] = section
    PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
