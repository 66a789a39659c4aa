"""In-flight shard cancellation: the cancel board, the scheduler's early
sibling cancels, the cancelled-outcome guard and the shard telemetry tags.

A cancelled shard a worker has already taken still delivers a result
(``cancel()`` returns ``False`` on the process backend), but the pool
child stops at its next cancel probe, so that result -- a truncated
timeout noted ``CANCEL_NOTE`` -- arrives within milliseconds instead of
after the whole dead search.  The scheduler drops it as stale; the
merged outcomes never change.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro import obs
from repro.bench import fig2
from repro.bench.configs import QUICK
from repro.campaign.backends import (
    ProcessPoolBackend,
    SerialBackend,
    SocketClusterBackend,
    WorkItem,
)
from repro.campaign.backends import specs
from repro.campaign.registry import core_spec
from repro.campaign.scheduler import CampaignUnit, run_campaign
from repro.core.contracts import sandboxing
from repro.core.verifier import VerificationTask, verify
from repro.isa.encoding import EncodingSpace
from repro.isa.params import MachineParams
from repro.mc.explorer import CANCEL_NOTE, SearchLimits
from repro.mc.result import TIMEOUT, Outcome, SearchStats
from repro.uarch.config import Defense

TINY = EncodingSpace(
    load_rd=(1, 2),
    load_rs=(0, 1),
    load_imm=(0, 3),
    branch_rs=(0,),
    branch_off=(2,),
)


def _tiny_task() -> VerificationTask:
    """Six roots; roots 0, 2, 3 and 5 attack, roots 1 and 4 prove."""
    return VerificationTask(
        core_factory=core_spec(
            "simple_ooo", defense=Defense.NONE, params=MachineParams(imem_size=3)
        ),
        contract=sandboxing(),
        space=TINY,
        limits=SearchLimits(timeout_s=90),
    )


def _rob_root_item(rob: int, root: int = 0) -> WorkItem:
    """One whole-root shard of a Fig. 2 ROB proof (ROB-8: seconds)."""
    task = fig2.point_task(fig2.PANELS[0], "rob", rob, QUICK)
    return WorkItem(replace(task, roots=[task.build_roots()[root]]))


def _wait_running(backend: ProcessPoolBackend, ticket: int) -> None:
    """Until a pool child has taken ``ticket`` and is well into it."""
    deadline = time.monotonic() + 30
    while not backend._futures[ticket].running():
        assert time.monotonic() < deadline, "the pool never took the shard"
        time.sleep(0.01)
    time.sleep(0.5)


# ----------------------------------------------------------------------
# The cancel board on the process backend
# ----------------------------------------------------------------------
def test_process_backend_stops_a_running_shard():
    backend = ProcessPoolBackend(1)
    try:
        ticket = backend.submit_unit(_rob_root_item(8))
        _wait_running(backend, ticket)
        assert backend.cancel(ticket) is False  # its result still arrives
        t0 = time.monotonic()
        delivered = list(backend.as_completed())
        assert time.monotonic() - t0 < 2.0, "the cancelled shard ran on"
    finally:
        backend.close()
    [(done, outcome)] = delivered
    assert done == ticket
    assert outcome.kind == TIMEOUT
    assert outcome.note == CANCEL_NOTE


def test_a_ring_collision_never_stops_a_live_shard(monkeypatch):
    """With a one-slot board every ticket collides: cancelling the later
    shard must leave the earlier one running to its normal result."""
    monkeypatch.setattr(specs, "BOARD_SLOTS", 1)
    live, dead = _rob_root_item(4), _rob_root_item(8)
    backend = ProcessPoolBackend(2)
    try:
        live_ticket = backend.submit_unit(live)
        dead_ticket = backend.submit_unit(dead)
        _wait_running(backend, dead_ticket)
        assert backend.cancel(dead_ticket) is False
        delivered = dict(backend.as_completed())
    finally:
        backend.close()
    assert delivered[dead_ticket].note == CANCEL_NOTE
    outcome = delivered[live_ticket]
    expected = verify(live.task)
    assert outcome.note is None
    assert outcome.kind == expected.kind
    assert outcome.stats == expected.stats


def test_cancelling_half_an_oversubscribed_pool_spares_the_other_half():
    """Three children on fewer cores, eight ROB-4 root shards, every other
    one cancelled while the pool is busy: each spared shard still
    delivers exactly its serial outcome, and nothing is lost."""
    items = [_rob_root_item(4, root=ticket % 2) for ticket in range(8)]
    expected = verify(items[0].task)
    backend = ProcessPoolBackend(3)
    try:
        tickets = [backend.submit_unit(item) for item in items]
        time.sleep(0.3)
        for ticket in tickets[1::2]:
            backend.cancel(ticket)
        t0 = time.monotonic()
        delivered = dict(backend.as_completed())
        assert time.monotonic() - t0 < 30
    finally:
        backend.close()
    for ticket in tickets[::2]:
        outcome = delivered[ticket]
        assert outcome.note is None
        assert (outcome.kind, outcome.stats) == (expected.kind, expected.stats)
    assert not backend.outstanding()


# ----------------------------------------------------------------------
# The cancel frame on the socket backend
# ----------------------------------------------------------------------
def test_socket_cancel_frame_frees_the_agent_slot():
    backend = SocketClusterBackend()
    try:
        backend.spawn_local_workers(1)
        backend.wait_for_workers(1, timeout=60)
        ticket = backend.submit_unit(_rob_root_item(8))
        deadline = time.monotonic() + 30
        while ticket not in backend._assigned:
            assert time.monotonic() < deadline, "the shard was never sent"
            backend._poll(0.05)
        settle = time.monotonic() + 1.0
        while time.monotonic() < settle:  # let the agent start the search
            backend._poll(0.05)
        assert backend.cancel(ticket) is True  # discarded coordinator-side
        t0 = time.monotonic()
        while backend.outstanding():
            assert time.monotonic() - t0 < 2.0, "the agent kept its slot"
            backend._poll(0.05)
        assert list(backend.as_completed()) == []
        [conn] = [w for w in backend._workers if w.authed]
        assert conn.free_slots() == 1
    finally:
        backend.close()


# ----------------------------------------------------------------------
# The scheduler: early sibling cancels, the guard, the telemetry tags
# ----------------------------------------------------------------------
class _PoolLikeBackend(SerialBackend):
    """A serial stand-in for a pool whose workers took every shard.

    ``cancel`` returns ``False`` and the cancelled shard's truncated
    ``CANCEL_NOTE`` outcome still arrives, like a running pool shard.
    Ticket ``first`` completes first, then the newest queued ticket --
    an order in which serially-dead roots would otherwise run.
    """

    def __init__(self, first: int):
        super().__init__()
        self.first = first
        self.ran: list[int] = []
        self.cancelled: set[int] = set()

    def cancel(self, ticket: int) -> bool:
        if ticket in self._queue:
            self.cancelled.add(ticket)
        return False

    def as_completed(self):
        while self._queue:
            ticket = self.first
            if ticket not in self._queue:
                ticket = next(reversed(self._queue))
            item = self._queue.pop(ticket)
            if ticket in self.cancelled:
                yield ticket, Outcome(
                    TIMEOUT, 0.0, SearchStats(), note=CANCEL_NOTE
                )
                continue
            self.ran.append(ticket)
            yield ticket, item.run()


def test_a_settled_attack_root_cancels_serially_later_roots_at_once():
    """Roots are submitted last-first, so ticket 2 is root 3 (an attack).
    When it completes first, roots 0-2 (tickets 3-5) are dead before the
    unit can merge, and must never run; the merge is unchanged."""
    units = [CampaignUnit("t", ("a",), _tiny_task())]
    [serial] = run_campaign(units, n_workers=1)
    backend = _PoolLikeBackend(first=2)
    with obs.tracing() as rec:
        [result] = run_campaign(units, backend=backend, subroot="never")
    assert backend.ran[0] == 2
    assert not {3, 4, 5} & set(backend.ran), backend.ran
    assert {3, 4, 5} <= backend.cancelled
    assert result.outcome.kind == serial.outcome.kind
    assert result.outcome.stats == serial.outcome.stats
    assert result.outcome.counterexample == serial.outcome.counterexample
    done = {
        attrs["ticket"]: attrs
        for attrs in (
            dict(event.attrs) for event in rec.events
            if event.name == "shard.done"
        )
    }
    assert done[2]["used"] and not done[2]["cancelled"]
    assert done[2]["unit"] == "a" and done[2]["root"] == 3
    for ticket in (3, 4, 5):
        assert done[ticket]["cancelled"] and not done[ticket]["used"]
        assert done[ticket]["root"] == 5 - ticket
        assert done[ticket]["states"] == 0


class _RogueBackend(SerialBackend):
    """Delivers every shard as if it had been cancelled mid-search."""

    def as_completed(self):
        while self._queue:
            ticket = next(iter(self._queue))
            del self._queue[ticket]
            yield ticket, Outcome(TIMEOUT, 0.0, SearchStats(), note=CANCEL_NOTE)


def test_a_cancelled_outcome_for_an_owned_shard_is_refused():
    units = [CampaignUnit("t", ("a",), _tiny_task())]
    with pytest.raises(RuntimeError, match="cancelled outcome"):
        run_campaign(units, backend=_RogueBackend(), subroot="never")


def test_worker_shard_span_carries_its_ticket():
    backend = ProcessPoolBackend(1)
    with obs.tracing() as rec:
        try:
            backend.submit_unit(_rob_root_item(2))
            ticket = backend.submit_unit(_rob_root_item(2, root=1))
            delivered = dict(backend.as_completed())
        finally:
            backend.close()
    assert set(delivered) == {ticket - 1, ticket}
    spans = {
        dict(span.attrs)["ticket"] for span in rec.spans
        if span.name == "shard.run"
    }
    assert spans == {ticket - 1, ticket}
