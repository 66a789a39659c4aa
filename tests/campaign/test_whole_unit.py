"""Whole-unit dispatch: a wide grid ships each unit as one shard.

A campaign with at least ``capacity`` units fills the backend at unit
granularity, so each unit ships as one whole-unit shard --
``verify(task)`` on a worker, the serial path itself.  Covered here:

- a multi-unit mini grid is bit-identical to the serial path on the
  serial, process and socket backends, with one shard per unit;
- a cost-dominant unit with fewer units than slots still shards by
  root, and ships whole once it has enough siblings;
- a zero budget still times every unit out;
- whole-unit shards are tagged ``root=None`` / ``roots=<n>`` and the
  trace report's work-efficiency section reads them.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import obs
from repro.bench import ablation, fig2
from repro.bench.configs import QUICK
from repro.campaign import scheduler
from repro.campaign.backends import SerialBackend, SocketClusterBackend
from repro.campaign.registry import core_spec
from repro.campaign.scheduler import BUDGET_NOTE, CampaignUnit, run_campaign
from repro.core.contracts import sandboxing
from repro.core.verifier import VerificationTask
from repro.isa.encoding import EncodingSpace
from repro.isa.params import MachineParams
from repro.mc.explorer import SearchLimits
from repro.obs import metrics
from repro.obs.report import format_work_efficiency
from repro.obs.sinks import read_trace, write_jsonl
from repro.uarch.config import Defense

TINY = EncodingSpace(
    load_rd=(1, 2),
    load_rs=(0, 1),
    load_imm=(0, 3),
    branch_rs=(0,),
    branch_off=(2,),
)

#: Mini grids whose every unit ships whole on two workers.
GRIDS = {
    "fig2-mini": lambda: fig2.units(
        QUICK, regfile_sizes=(2,), dmem_sizes=(2,), rob_sizes=(2,)
    ),
    "ablation-mini": lambda: ablation.units(
        QUICK, workloads=ablation.WORKLOADS[:2]
    ),
}


class _TwoSlotSerial(SerialBackend):
    """The inline backend advertising two slots, like a two-worker pool."""

    def capacity(self) -> int:
        return 2


def _task(defense: Defense) -> VerificationTask:
    """Six secret-pair roots on a tiny space."""
    return VerificationTask(
        core_factory=core_spec(
            "simple_ooo", defense=defense, params=MachineParams(imem_size=3)
        ),
        contract=sandboxing(),
        space=TINY,
        limits=SearchLimits(timeout_s=90),
    )


def _assert_bit_identical(serial, results, label):
    assert [r.key for r in results] == [r.key for r in serial]
    for ser, par in zip(serial, results):
        assert par.outcome.kind == ser.outcome.kind, (label, ser.key)
        assert par.outcome.stats == ser.outcome.stats, (label, ser.key)
        assert par.outcome.counterexample == ser.outcome.counterexample, (
            label, ser.key,
        )


def _events(rec, name):
    return [dict(event.attrs) for event in rec.events if event.name == name]


@pytest.fixture(scope="module")
def socket_backend():
    """One coordinator + two local worker agents, shared by the module."""
    backend = SocketClusterBackend()
    try:
        backend.spawn_local_workers(2)
        backend.wait_for_workers(2, timeout=60)
        yield backend
    finally:
        backend.close()


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_whole_units_are_bit_identical_across_backends(grid, socket_backend):
    units = GRIDS[grid]()
    serial_path = run_campaign(units, n_workers=1)
    for backend in ("serial", "process", socket_backend):
        results = run_campaign(units, n_workers=2, backend=backend)
        label = backend if isinstance(backend, str) else backend.name
        _assert_bit_identical(serial_path, results, label)
        assert results[0].telemetry.shards == len(units), label


def test_a_lone_dominant_unit_still_shards_by_root():
    """One six-root unit on two slots -- fewer units than slots -- shards
    by root; beside two one-root siblings it fills the slots at unit
    granularity and ships whole with them.  Both merge like serial."""
    big = _task(Defense.DELAY_FUTURISTIC)
    roots = big.build_roots()
    assert len(roots) == 6
    alone = [CampaignUnit("t", ("big",), big)]
    with obs.tracing() as rec:
        results = run_campaign(alone, backend=_TwoSlotSerial())
    _assert_bit_identical(run_campaign(alone, n_workers=1), results, "alone")
    assert results[0].telemetry.shards == len(roots)
    submits = _events(rec, "shard.submit")
    assert sorted(a["root"] for a in submits) == list(range(len(roots)))
    assert all("roots" not in a for a in submits)

    grid = alone + [
        CampaignUnit("t", ("first",), replace(big, roots=roots[:1])),
        CampaignUnit("t", ("last",), replace(big, roots=roots[-1:])),
    ]
    with obs.tracing() as rec:
        results = run_campaign(grid, backend=_TwoSlotSerial())
    _assert_bit_identical(run_campaign(grid, n_workers=1), results, "grid")
    assert results[0].telemetry.shards == len(grid)
    tags = {a["unit"]: (a["root"], a["roots"]) for a in _events(rec, "shard.submit")}
    assert tags == {"big": (None, 6), "first": (None, 1), "last": (None, 1)}


def test_only_whole_unit_proofs_calibrate_the_cost_model(monkeypatch):
    """A whole unit stops at its first non-proof root, so an attack's
    states say nothing about its every-root prediction: only proofs
    feed the calibration, while the throughput series sees every unit."""
    monkeypatch.setattr(scheduler, "_CALIBRATION", scheduler._Calibration())
    attack = _task(Defense.NONE)
    units = [CampaignUnit("t", (str(i),), attack) for i in range(2)]
    results = run_campaign(units, backend=_TwoSlotSerial())
    assert [r.outcome.kind for r in results] == ["attack", "attack"]
    assert results[0].telemetry.shards == len(units)
    assert scheduler._CALIBRATION.samples == 0
    assert metrics.LAST_REGISTRY.time_series("campaign.states_per_s").points
    units = GRIDS["fig2-mini"]()
    results = run_campaign(units, backend=_TwoSlotSerial())
    assert all(r.outcome.kind == "proved" for r in results)
    assert scheduler._CALIBRATION.samples == len(units)


def test_subroot_always_never_ships_whole():
    units = GRIDS["fig2-mini"]()
    results = run_campaign(
        units, backend=_TwoSlotSerial(), subroot="always"
    )
    assert results[0].telemetry.shards > len(units)


def test_shared_visited_units_never_ship_whole():
    task = replace(_task(Defense.DELAY_FUTURISTIC), shared_visited=True)
    units = [
        CampaignUnit("t", ("a",), task),
        CampaignUnit("t", ("b",), task),
    ]
    results = run_campaign(units, backend=_TwoSlotSerial(), subroot="never")
    assert results[0].telemetry.shards == 2 * len(task.build_roots())


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_zero_budget_times_out_every_unit(backend):
    units = GRIDS["fig2-mini"]()
    results = run_campaign(units, n_workers=2, budget_s=0.0, backend=backend)
    assert all(r.outcome.timed_out for r in results)
    assert all(r.outcome.note == BUDGET_NOTE for r in results)
    assert results[0].telemetry.shards == 0


def test_whole_unit_tags_and_work_efficiency_report(tmp_path):
    """A traced two-worker mini grid: every shard is a whole unit tagged
    ``root=None`` / ``roots=<n>``, and the report's work-efficiency
    section shows executed == merged states for every unit."""
    units = GRIDS["fig2-mini"]()
    with obs.tracing() as rec:
        results = run_campaign(units, n_workers=2, backend="process")
    n_roots = {"/".join(u.key): len(u.task.build_roots()) for u in units}
    for name in ("shard.submit", "shard.done"):
        events = _events(rec, name)
        assert len(events) == len(units), name
        for attrs in events:
            assert attrs["root"] is None, (name, attrs)
            assert attrs["roots"] == n_roots[attrs["unit"]], (name, attrs)
    for attrs in _events(rec, "shard.done"):
        assert attrs["used"] and not attrs["cancelled"]
    path = tmp_path / "trace.jsonl"
    write_jsonl(rec, path)
    report = format_work_efficiency(read_trace(path))
    lines = report.splitlines()
    assert lines[0].startswith("work efficiency")
    for result in results:
        label = "/".join(result.key)
        [line] = [line for line in lines if line.split()[0] == label]
        fields = line.split()
        assert fields[1:5] == [
            "1",
            str(result.outcome.stats.states),
            str(result.outcome.stats.states),
            "1.00",
        ], line
    total = lines[-1].split()
    assert total[0] == "total" and total[1] == str(len(units))
    assert total[4] == "1.00"


def test_work_efficiency_charges_cancelled_and_discarded_seconds():
    """Synthetic events: the section splits shard seconds by fate and
    divides executed by merged states per unit."""
    def event(name, **attrs):
        return {"type": "event", "name": name, "attrs": attrs}

    records = [
        event("shard.done", unit="u", states=30, elapsed=1.0, used=True, cancelled=False),
        event("shard.done", unit="u", states=20, elapsed=2.0, used=False, cancelled=True),
        event("shard.done", unit="u", states=10, elapsed=4.0, used=False, cancelled=False),
        event("unit.done", unit="u", states=30),
    ]
    [_, line, total] = format_work_efficiency(records).splitlines()
    assert line.split()[:5] == ["u", "3", "60", "30", "2.00"]
    assert line.split()[5:] == ["1.000s", "2.000s", "4.000s"]
    assert total.split()[0] == "total"
    assert format_work_efficiency([]).endswith("no shard.done events")


def test_whole_unit_rule():
    units = [CampaignUnit("t", (str(i),), _task(Defense.NONE)) for i in range(3)]
    roots = [[object()]] * 3
    rule = scheduler._whole_units
    assert rule(units, roots, 2, "auto") == [True] * 3
    assert rule(units, roots, 3, "never") == [True] * 3
    assert rule(units, roots, 2, "always") == [False] * 3
    # Fewer units than capacity: root and sub-root planning as before.
    assert rule(units, roots, 4, "auto") == [False] * 3
    # Root-less units settle in-process; shared_visited units split.
    assert rule(units, [[]] + roots[1:], 2, "auto") == [False, True, True]
    shared = units[:2] + [replace(units[2], task=replace(units[2].task, shared_visited=True))]
    assert rule(shared, roots, 2, "auto") == [True, True, False]
