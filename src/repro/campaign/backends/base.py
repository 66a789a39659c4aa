"""The execution-backend contract: where campaign shards actually run.

The campaign scheduler (:mod:`repro.campaign.scheduler`) plans work as
:class:`WorkItem` values -- one picklable, self-contained shard each: a
single-root :class:`repro.core.verifier.VerificationTask`, optionally
narrowed to one seeded frontier slice.  *Where* those items execute is
the backend's business:

- :class:`repro.campaign.backends.serial.SerialBackend` runs them inline
  (the deterministic reference),
- :class:`repro.campaign.backends.process.ProcessPoolBackend` fans them
  over a local ``ProcessPoolExecutor`` (the historical behavior), and
- :class:`repro.campaign.backends.cluster.SocketClusterBackend` streams
  them over TCP to ``python -m repro.campaign.worker`` agents on any
  number of hosts.

Because a shard's outcome is a pure function of its item -- the search is
deterministic and every input is in the pickle -- the scheduler's merged
results are bit-identical across backends; only wall-clock differs.

Backend contract
----------------
``submit_unit`` enqueues an item and returns a ticket.  ``as_completed``
is an iterator of ``(ticket, outcome)`` pairs that blocks while work is
outstanding and stops when none is; items may be submitted or cancelled
*between* yields (the scheduler requeues stolen work mid-iteration).
``cancel`` is best-effort: ``True`` guarantees the ticket will never be
yielded; ``False`` means a worker has already taken the item and its
result will still arrive.  Backends with in-flight cancellation (the
process pool; socket agents, behind the coordinator's discard) stop such
a search within one ``_CLOCK_STRIDE`` window, so that result arrives
promptly as a truncated timeout noted
:data:`repro.mc.explorer.CANCEL_NOTE`.  The scheduler must tolerate
stale results either way, and never merges a cancelled one.
``capacity`` is the backend's current parallel width -- the signal the
scheduler's sub-root planner and work-stealing rebalance key off.

Two lifecycle hooks complete the contract.  ``make_filter`` owns the
cross-process :class:`repro.mc.shared_filter.SharedVisitedFilter` a
``shared_visited`` unit wants: the process backend can create one (its
workers share the host's ``/dev/shm``), the serial and socket backends
return ``None`` and the unit soundly degrades to unshared search.
``set_deadline`` hands the backend the campaign's absolute wall-clock
deadline so it can refuse queued work after expiry (and, in the socket
backend, translate the monotonic instant into a *remaining budget* at
send time -- absolute monotonic clocks do not agree across hosts).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro import obs
from repro.obs import clock
from repro.mc.result import TIMEOUT, Outcome, SearchStats

if TYPE_CHECKING:  # imported lazily at runtime to keep workers light
    from repro.core.verifier import VerificationTask
    from repro.mc.explorer import FrontierEntry
    from repro.mc.shared_filter import SharedVisitedFilter

#: ``note`` attached to outcomes synthesized when the campaign budget
#: expires before a shard could run.
BUDGET_NOTE = "campaign budget exhausted"

#: The names ``run_campaign``'s string ``backend`` argument accepts.
BACKEND_NAMES = ("serial", "process", "socket")


def budget_outcome() -> Outcome:
    """The outcome stood in for work the campaign budget cut off."""
    return Outcome(
        kind=TIMEOUT, elapsed=0.0, stats=SearchStats(), note=BUDGET_NOTE
    )


class ShardFailure:
    """A shard raised instead of returning an outcome.

    Backends deliver this through ``as_completed`` rather than raising,
    because only the *scheduler* knows whether the failing shard still
    matters: a serially-dead shard (its slot already decided by a
    serially-earlier non-proof, or out-raced by a steal group) is work
    the serial engine would never have run, so its failure is ignored --
    exactly like the old pool path, which never fetched the result of an
    obsolete future.  A failure on a shard the merge still needs is
    re-raised by the scheduler: the error is deterministic and would
    fail identically anywhere, so crashing honestly beats retrying.
    """

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message

    def __repr__(self) -> str:
        return f"ShardFailure({self.message!r})"


def resolve_workers(n_workers: int | None) -> int:
    """``None`` means one worker per CPU (the campaign default)."""
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    return n_workers


def build_named_backend(name: str, n_workers: int | None = None):
    """Construct a backend from its CLI name (one place for the zoo).

    ``"socket"`` always raises: a cluster backend needs live connection
    state, so callers must construct and connect a
    :class:`repro.campaign.backends.SocketClusterBackend` themselves
    (the CLIs' ``--backend socket`` does exactly this).
    """
    if name == "serial":
        from repro.campaign.backends.serial import SerialBackend

        return SerialBackend()
    if name == "process":
        from repro.campaign.backends.process import ProcessPoolBackend

        return ProcessPoolBackend(resolve_workers(n_workers))
    if name == "socket":
        raise ValueError(
            "backend='socket' needs live connection state: construct "
            "repro.campaign.backends.SocketClusterBackend(...), connect or "
            "spawn its workers, and pass the instance (the campaign and "
            "fuzz CLIs' --backend socket do exactly this)"
        )
    raise ValueError(
        f"unknown backend {name!r}; expected an ExecutionBackend "
        f"instance or one of {BACKEND_NAMES}"
    )


def collect_results(
    backend: "ExecutionBackend", tickets: dict[int, int], count: int,
    label: str = "work item",
) -> list:
    """Drain ``as_completed`` for one wave of tickets; results by position.

    The deterministic fan-out pattern fuzz rounds and minimization waves
    share: ``tickets`` maps ticket -> result position, *every* result is
    collected (completion order never matters), and a
    :class:`ShardFailure` raises -- callers of this helper never submit
    serially-dead work, so a failure is always relevant.
    """
    results: list = [None] * count
    pending = count
    for ticket, outcome in backend.as_completed():
        index = tickets.pop(ticket, None)
        if index is None:
            continue
        if isinstance(outcome, ShardFailure):
            raise RuntimeError(f"{label} failed: {outcome.message}")
        results[index] = outcome
        pending -= 1
        if pending == 0:
            break
    if pending:
        raise RuntimeError(f"backend lost {label} results")
    return results


def _attach_filter(task: "VerificationTask", filter_name: str | None):
    """Attach the unit's shared visited filter inside a worker, if any."""
    if filter_name is None or not task.shared_visited:
        return None
    from repro.mc.shared_filter import SharedVisitedFilter

    try:
        return SharedVisitedFilter.attach(filter_name)
    except OSError:
        # The segment is gone (unit already decided and cleaned up, or the
        # platform lost it): degrade to unshared search, which is always
        # sound -- the filter only ever saves work.
        return None


@dataclass(frozen=True)
class WorkItem:
    """One schedulable shard: everything a worker needs, in one pickle.

    Three item kinds share the schedulable-unit contract (a pure
    function of the pickled fields, so merges are backend-independent):

    - ``task`` with ``entries is None``: verify ``task`` outright -- a
      whole-root shard when ``task`` carries one root, a whole-unit
      shard when it carries every root of its unit (the serial
      :func:`repro.core.verifier.verify` path, stopping at the first
      non-proof root);
    - ``task`` with ``entries``: a seeded sub-root *batch* -- a
      contiguous slice of one root's first-cycle frontier, searched in
      one :meth:`repro.mc.explorer.Explorer.run_seeded` call.  Because
      seeded entries are explored LIFO exactly like the serial engine
      explores a root's children, a batch outcome equals the serial
      merge of its entries' single-entry outcomes -- batching moves
      dispatch overhead, never results;
    - ``fuzz``: a random-testing unit -- a
      :class:`repro.fuzz.work.FuzzShard` batch or a
      :class:`repro.fuzz.work.MinimizeProbe` delta-debugging candidate
      -- whose ``run()`` returns its own result type instead of an
      :class:`Outcome` (backends pass results through opaquely).

    ``filter_name`` optionally names a same-host
    :class:`repro.mc.shared_filter.SharedVisitedFilter` segment; workers
    that cannot reach it (another host, a vanished segment) degrade to
    unshared search.

    ``spec_fp`` optionally carries the content fingerprint of the
    task's *spec* (the task stripped of roots and limits -- the heavy,
    per-unit-constant part).  Backends that keep workers hot use it to
    ship the spec once per worker and reference it by fingerprint
    thereafter (see :mod:`repro.campaign.backends.specs`); backends
    that do not simply ignore it.
    """

    task: "VerificationTask | None" = None
    entries: "tuple[FrontierEntry, ...] | None" = None
    filter_name: str | None = None
    fuzz: object | None = None
    spec_fp: int | None = None

    @property
    def limits(self):
        """The unit's :class:`repro.mc.explorer.SearchLimits`.

        Search shards carry them on the task, fuzz units on the
        payload; the wire layer's deadline translation reads and
        rewrites them through here.
        """
        if self.task is not None:
            return self.task.limits
        return self.fuzz.limits

    def run(self, ticket: int | None = None) -> Outcome:
        """Execute the shard; every backend funnels through here.

        An item that starts after the campaign deadline has already
        passed reports the budget timeout without searching at all
        (mirroring the serial path's pre-unit deadline check).
        ``ticket`` (the dispatcher's, where one crosses a pool or wire)
        only tags the ``shard.run`` trace span.
        """
        deadline = self.limits.deadline
        if deadline is not None and clock.monotonic() >= deadline:
            return budget_outcome()
        with obs.span(
            "shard.run",
            fuzz=self.fuzz is not None,
            entries=0 if self.entries is None else len(self.entries),
            ticket=ticket,
        ):
            return self._execute()

    def _execute(self) -> Outcome:
        if self.fuzz is not None:
            return self.fuzz.run()
        task = self.task
        visited_filter = _attach_filter(task, self.filter_name)
        try:
            if self.entries is None:
                from repro.core.verifier import verify

                return verify(task, visited_filter=visited_filter)
            from repro.mc.explorer import Explorer

            explorer = Explorer(
                task.build_product(),
                task.space,
                task.build_roots(),
                task.limits,
                shared_visited=task.shared_visited,
                visited_filter=visited_filter,
            )
            return explorer.run_seeded(list(self.entries))
        finally:
            if visited_filter is not None:
                visited_filter.close()


def execute_item(item: WorkItem) -> Outcome:
    """Module-level trampoline so pools can pickle the call by reference."""
    return item.run()


class ExecutionBackend:
    """Abstract executor of :class:`WorkItem` shards (see module docs)."""

    #: Human-readable backend kind (``"serial"`` / ``"process"`` /
    #: ``"socket"``); logged into campaign headers.
    name: str = "abstract"

    # -- the four core operations --------------------------------------
    def capacity(self) -> int:
        """Current parallel width (worker slots able to run items now)."""
        raise NotImplementedError

    def outstanding(self) -> int:
        """Items queued or occupying a worker slot right now.

        Counts cancelled items still running (they hold a slot until
        they stop), which scheduler-side bookkeeping cannot see --
        this is the honest denominator for the work-stealing idle check.
        """
        raise NotImplementedError

    def submit_unit(self, item: WorkItem) -> int:
        """Enqueue one shard; returns its ticket."""
        raise NotImplementedError

    def as_completed(self) -> Iterator[tuple[int, Outcome]]:
        """Yield ``(ticket, outcome)`` as shards finish; see module docs."""
        raise NotImplementedError

    def cancel(self, ticket: int) -> bool:
        """Best-effort cancel; ``True`` iff the ticket will never yield.

        On ``False`` the ticket's result still arrives -- truncated and
        noted ``CANCEL_NOTE`` if the backend could stop it mid-search.
        """
        raise NotImplementedError

    # -- lifecycle hooks ------------------------------------------------
    def set_deadline(self, deadline: float | None) -> None:
        """Install the campaign's absolute ``time.monotonic()`` deadline."""
        self._deadline = deadline

    # -- status hooks (observability only; see repro.obs.live) ----------
    #: The campaign's :class:`repro.obs.live.StatusPublisher`, if any.
    _status_publisher = None
    #: The campaign's :class:`repro.obs.metrics.MetricsRegistry`, if any.
    _registry = None

    def set_status_publisher(self, publisher) -> None:
        """Attach (or with ``None`` detach) the campaign's publisher.

        Backends call :meth:`_publish_status` from their wait loops so
        snapshots keep flowing while the scheduler blocks; everything
        here is observability-only and never touches results.
        """
        self._status_publisher = publisher

    def attach_registry(self, registry) -> None:
        """Hand the backend the campaign's metrics registry (or ``None``)
        so backend-side instruments (e.g. the cluster's heartbeat-RTT
        histogram) land in the campaign's trace."""
        self._registry = registry

    def _publish_status(self) -> None:
        """Tick the attached publisher, if any (rate-limited there)."""
        if self._status_publisher is not None:
            self._status_publisher.tick(self)

    def worker_health(self) -> tuple:
        """Per-worker :class:`repro.obs.live.WorkerHealth` records, for
        backends with that visibility (the cluster); empty otherwise."""
        return ()

    def broadcast_status(self, payload: dict) -> None:
        """Fan a ``status`` payload to attached observers, if the
        backend has any transport for them (the cluster); no-op here."""

    def make_filter(self, capacity: int) -> "SharedVisitedFilter | None":
        """Create a unit's cross-process visited filter, if this backend
        can share memory with its workers; ``None`` degrades the unit to
        unshared search (always sound)."""
        return None

    def close(self) -> None:
        """Release workers and transports; idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
