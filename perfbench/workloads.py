"""Workload inputs, the timed call, and the correctness gate.

:func:`prepare` builds a workload's inputs (the part of set-up that
depends on the workload) and returns the one call the benchmark times.
:func:`check` then compares what the call returned with the committed
expectations in ``expected.json`` and replays every attack on a freshly
built product -- outside the timed interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from perfbench.catalog import FUZZ_SHAPE, WORKLOADS
from repro.bench import fig2, table2
from repro.bench.configs import QUICK
from repro.bench.runner import run_units
from repro.campaign.scheduler import verify_sharded
from repro.core.verifier import verify
from repro.fuzz.campaign import run_fuzz
from repro.fuzz.configs import preset_config
from repro.mc.packed import resolve_engine
from repro.mc.replay import replay

#: The Table-2 design kept by the smoke size (both of its cells attack).
SMOKE_DESIGN = "SimpleOoO"


@dataclass
class Prepared:
    """A built workload: the timed call plus what the gate needs.

    ``tasks`` maps each explorer cell to its verification task (for
    replays and the engine record); fuzz workloads carry ``shape``
    instead.
    """

    call: Callable[[], object]
    tasks: dict
    shape: tuple[int, int, int] | None = None


def _rob_task(size: str):
    rob = 8 if size == "full" else 2
    return fig2.point_task(fig2.PANELS[0], "rob", rob, QUICK)


def prepare(name: str, seed: int, size: str = "full") -> Prepared:
    """Build one workload's inputs.  Only the fuzz workload uses ``seed``."""
    if name == "table2-2w":
        units = table2.units(QUICK)
        if size == "smoke":
            units = [u for u in units if u.key[1] == SMOKE_DESIGN]
        return Prepared(
            call=lambda: {
                "/".join(key): outcome
                for key, outcome in run_units(
                    units, n_workers=2, experiment=table2.EXPERIMENT
                ).items()
            },
            tasks={"/".join(u.key): u.task for u in units},
        )
    if name == "rob8":
        task = _rob_task(size)
        return Prepared(call=lambda: {"rob": verify(task)}, tasks={"rob": task})
    if name == "rob8-2w":
        task = _rob_task(size)
        return Prepared(
            # The task has two secret-pair roots, so on two workers the
            # default ``subroot="auto"`` would shard whole roots only.
            call=lambda: {"rob": verify_sharded(task, n_workers=2, subroot="always")},
            tasks={"rob": task},
        )
    if name == "fuzz-defended":
        config = preset_config("fuzz-defended", seed).config
        n_batches, batch_size, rounds = FUZZ_SHAPE[size]
        return Prepared(
            call=lambda: run_fuzz(
                config,
                n_batches=n_batches,
                batch_size=batch_size,
                max_rounds=rounds,
                backend="serial",
            ),
            tasks={},
            shape=FUZZ_SHAPE[size],
        )
    raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")


def engines(prepared: Prepared) -> dict[str, str]:
    """The state engine ``resolve_engine`` picks for each explorer cell."""
    return {
        cell: resolve_engine("auto", task.build_product(), task.shared_visited)
        for cell, task in prepared.tasks.items()
    }


def observe(name: str, result) -> dict:
    """The result in the shape ``expected.json`` stores it."""
    if WORKLOADS[name].kind == "fuzz":
        verdicts: dict[str, int] = {}
        for merged in result.rounds:
            for verdict, count in merged.verdicts.items():
                verdicts[verdict] = verdicts.get(verdict, 0) + count
        return {
            "programs": result.programs,
            "rounds": len(result.rounds),
            "truncated_rounds": sum(r.truncated for r in result.rounds),
            "verdicts": dict(sorted(verdicts.items())),
            "product_cycles": sum(r.cycles for r in result.rounds),
        }
    return {
        cell: {
            "kind": outcome.kind,
            "states": outcome.stats.states,
            "transitions": outcome.stats.transitions,
        }
        for cell, outcome in sorted(result.items())
    }


@dataclass
class Gate:
    """The gate's verdict on one run: operations attempted and failed."""

    attempted: int
    failed: int
    failures: list[str]
    work: int  # merged states (explorer) or product cycles (fuzz)


def crashed(name: str, prepared: Prepared, why: str) -> Gate:
    """A run that did not return: every operation it held failed."""
    if WORKLOADS[name].kind == "fuzz":
        n_batches, batch_size, rounds = prepared.shape
        attempted = n_batches * batch_size * rounds
    else:
        attempted = len(prepared.tasks)
    return Gate(attempted, attempted, [f"crash: {why}"], 0)


def check(name: str, seed: int, prepared: Prepared, result, expected: dict) -> Gate:
    """Compare a run with its expectation; replay every attack."""
    seen = observe(name, result)
    if WORKLOADS[name].kind == "fuzz":
        return _check_fuzz(seed, prepared, seen, expected)
    failures = []
    failed = 0
    for cell in sorted(prepared.tasks):
        want = expected.get(cell)
        got = seen.get(cell)
        problems = []
        if want is None:
            problems.append("no committed expectation")
        elif got != want:
            problems.append(f"expected {want}, got {got}")
        outcome = result.get(cell)
        if outcome is not None and outcome.attacked:
            # replay() raises unless the leakage assertion fires again.
            try:
                replay(prepared.tasks[cell].build_product(), outcome.counterexample)
            except (RuntimeError, AssertionError) as exc:
                problems.append(f"attack does not replay: {exc!r}")
        if problems:
            failed += 1
            failures.append(f"{cell}: " + "; ".join(problems))
    work = sum(cell["states"] for cell in seen.values())
    return Gate(len(prepared.tasks), failed, failures, work)


def _check_fuzz(seed: int, prepared: Prepared, seen: dict, expected: dict) -> Gate:
    """Fuzz gate: full rounds, no leak, no hang, committed verdict counts.

    Seeds without a committed entry are checked on the invariants alone
    (program count, round count, no leak, no hang, no truncation).
    """
    n_batches, batch_size, rounds = prepared.shape
    attempted = n_batches * batch_size * rounds
    verdicts = seen["verdicts"]
    failures = []
    bad = verdicts.get("leak", 0) + verdicts.get("hung", 0)
    if bad:
        failures.append(f"{bad} programs leaked or hung: {verdicts}")
    missing = attempted - seen["programs"]
    if missing:
        failures.append(f"{missing} of {attempted} programs did not run")
    if seen["rounds"] != rounds or seen["truncated_rounds"]:
        failures.append(
            f"{seen['rounds']} rounds ({seen['truncated_rounds']} truncated), "
            f"expected {rounds} full rounds"
        )
    failed = bad + max(missing, 0)
    want = expected.get("seeds", {}).get(str(seed))
    if want is not None:
        moved = sum(
            abs(want.get(v, 0) - verdicts.get(v, 0))
            for v in set(want) | set(verdicts)
        ) // 2
        if moved or seen["programs"] != sum(want.values()):
            failures.append(f"verdicts {verdicts}, expected {want}")
            failed = max(failed, moved, 1)
    return Gate(attempted, min(failed, attempted), failures, seen["product_cycles"])
