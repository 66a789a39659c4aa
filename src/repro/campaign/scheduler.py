"""Campaign scheduling: root + sub-root sharding over pluggable backends.

The paper's evaluation (Tables 2/3, Fig. 2, the BOOM hunt) is a grid of
*independent* verification tasks, and inside each task the secret-pair
quantifier roots are independent again: a root's DFS subtree never shares
states with another root's (visited-set keys embed the root index), so

- one :class:`repro.core.verifier.VerificationTask` shards into one
  subtask per root, and
- a whole campaign -- one bench table -- fans all shards of all units
  across an execution backend.

**Backends.**  The scheduler plans shards; *where* they run is a
pluggable :class:`repro.campaign.backends.ExecutionBackend`:
``SerialBackend`` (inline, the deterministic reference),
``ProcessPoolBackend`` (the single-host fan-out, the default for
``n_workers > 1``) or ``SocketClusterBackend`` (a TCP coordinator
feeding ``python -m repro.campaign.worker`` agents on any number of
hosts).  A shard's outcome is a pure function of its picklable
:class:`repro.campaign.backends.WorkItem`, so merged results are
bit-identical across backends; only wall-clock moves.

**Whole-unit dispatch.**  A grid of many small cells (Table 2: ten
cells on two workers) already fills the backend at unit granularity;
splitting it further only pays per-shard cold engines and speculative
sibling roots.  So a unit ships as one *whole-unit shard* -- a
``WorkItem`` carrying the unit's task with every root and no frontier
entries, which runs :func:`repro.core.verifier.verify`, the serial path
itself: one warm engine across the unit's roots, stopping at the first
non-proof root, bit-identical to serial by construction -- when all of
these hold: the campaign has at least ``capacity`` units, ``subroot``
is not ``"always"``, and the unit is not ``shared_visited``.  Every
other unit keeps the root and sub-root planning below.  A unit's
predicted cost plays no part: on two CPUs, shipping the Table-2 BOOM
cells and the Fig. 2 ROB-8 points whole too beat splitting them on
four workers (one warm engine and no speculative sibling roots
outweigh the lost parallelism), while grids with fewer units than
slots -- a lone ROB-8 cell -- still split.  Budget note: a whole unit
gets the task's ``timeout_s`` once, across all of its roots, exactly as
on the serial path, whereas root shards each get the full
``timeout_s``.  Whole-unit shards tag their ``shard.submit`` /
``shard.done`` events ``root=None`` and ``roots=<n>``.

**Sub-root sharding.**  Root sharding cannot split a workload dominated
by a *single* root's subtree (the Fig. 2 ROB sweep points).  Below the
root the same independence argument recurses one level: the first
cycle's nondeterministic choices (instruction assignments, predictor
bits) partition the root's DFS into subtrees whose environments diverge
permanently, so they can never share a visited state (see
:class:`repro.mc.explorer.RootExpansion`).  When a unit has fewer roots
than the backend has capacity (or ``subroot="always"``), the scheduler
expands each root's first cycle in-process (cheap: one product cycle per
choice) and dispatches the surviving children as seeded shards
(:meth:`repro.mc.explorer.Explorer.run_seeded`).

**Batched dispatch.**  One shard per first-cycle child swamps small
units in per-shard overhead (pickling, process hops, merge bookkeeping):
the Fig. 2 ROB-4 cell expands into ~72 children whose subtrees each run
milliseconds.  The scheduler therefore packs *contiguous* runs of
children into batches sized to a target work grain: per-child subtree
predictions (the cost model above) are corrected by a process-global
EWMA calibration (:class:`_Calibration`) that observes every finished
shard's predicted-vs-measured state count and throughput (a whole-unit
shard's only when it proves: otherwise it skipped roots its prediction
counts), yielding a grain of roughly :data:`TARGET_BATCH_SECONDS` of
measured work per shard.  Contiguity is what keeps the determinism
contract free: ``run_seeded`` on a contiguous slice of the expansion's
entries replays exactly the serial merge of its singletons, so batch
boundaries can move with calibration without ever touching results.  A floor of two batches
per backend slot is kept so rebalance still has raceable targets.

**Hot workers.**  Shards of one unit share everything but their seed
entries and limits; re-pickling the task's spec (space, core, contract)
per shard is pure dispatch overhead.  Items therefore carry a 128-bit
content fingerprint of their spec
(:func:`repro.campaign.backends.specs.spec_fingerprint`); the pool and
socket backends ship the spec inline only on a receiver's first
encounter and the bare fingerprint thereafter, and executors rehydrate
from a per-process cache (a cold process answers ``SpecMiss`` and the
dispatcher re-sends with the spec attached -- one extra round trip,
never an error).

**Work-stealing rebalance.**  First-cycle slices are far from even (the
Fig. 2 ROB-8 cell's shards are dominated by one); when the backend
reports idle capacity while such a batch is still in flight, the
scheduler *steals* it: a multi-entry batch is re-split into one shard
per entry, and a single-entry batch is expanded one more cycle
in-process (:meth:`repro.mc.explorer.Explorer.expand_entry` -- the
independence argument recurses again) into depth-2 children; either
way the children are requeued as fresh shards that race the original.
Both the steal candidate and the unit submission order come from the
same cost model the filter sizing uses (roots x first-frontier width ^
depth bound): units are planned largest-first, and the stolen batch is
the in-flight one with the largest prediction recorded at submit time,
not merely the oldest.  Whichever
representation finishes first wins and the loser is cancelled/discarded;
both merge to bit-identical outcomes (prelude + children replayed in
serial LIFO order *is* the original slice), so rebalance never perturbs
results -- it only converts idle capacity into wall-clock.  Slices of
``shared_visited`` units are never stolen: their stats are
timing-dependent already, and a discarded racer would have polluted the
unit's cross-process filter with subtrees nobody merged.

**Determinism.**  The serial engine's LIFO stack explores roots in
*reversed* list order, finishing one root's subtree before touching the
next, and within a root the DFS is fully deterministic.  The merge
therefore replays that order: scan per-root outcomes from the last root
to the first, summing search stats, and adopt the first non-proof as the
unit verdict.  Sub-root shards merge the same way one level down --
children in reversed yield order, the expansion prelude (root state +
every first-cycle transition) added on top -- before entering the root
scan; stolen slices nest the same composition once more.  Under budgets
generous enough that no shard times out, the merged outcome -- verdict,
counterexample *and* state/transition counts -- is bit-identical to the
monolithic serial search, for every backend, worker count and shard
granularity.  (When a budget *does* trip, verdicts may legitimately
differ across capacities: each shard gets the task's full ``timeout_s``,
so parallelism completes searches the serial engine would time out on.)
``n_workers=1`` with no explicit backend does not shard at all: it runs
the historical serial path unchanged, which is the reproducibility
baseline the merged results are tested against.

**Short-circuiting.**  A unit is decided as soon as the serial-order scan
hits a non-proof with every serially-earlier root proved; the remaining
(serially-later) shards are cancelled.  This mirrors the serial engine,
which would never have explored them.  A root that settles as a
non-proof cancels the shards of every serially-later root (lower list
index) at once, even while serially-earlier roots still block the unit:
the merge can never reach them.  Cancelled shards already running stop
at their next cancel probe (see
:mod:`repro.campaign.backends.specs`); their truncated outcomes, noted
:data:`repro.mc.explorer.CANCEL_NOTE`, are dropped as stale.

**Shared visited filters.**  A unit whose task opts into
``shared_visited`` asks the *backend* for one cross-process fingerprint
filter (:class:`repro.mc.shared_filter.SharedVisitedFilter`) spanning
all of its shards, sized by the unit's expected-state cost model
(:func:`repro.mc.shared_filter.suggest_capacity`: roots x first-frontier
width ^ depth bound, clamped).  Backends that cannot share memory with
their workers (serial: pointless; socket: workers live on other hosts)
return ``None`` and the unit soundly degrades to unshared search.
Verdict kinds are preserved (see the filter module's post-order
soundness note); explored-state counts become timing-dependent, so
shared-visited units are excluded from the bit-identity contract above
-- the mode trades reproducible statistics for less total work on
symmetric-root units.

**Budget.**  ``budget_s`` is one shared wall-clock budget for the whole
campaign.  The scheduler stamps the corresponding absolute deadline into
every shard's :class:`repro.mc.explorer.SearchLimits`, so in-flight
worker searches cancel themselves (the paper's third outcome, timeout);
the socket backend re-anchors the deadline as a remaining budget at send
time (absolute monotonic clocks do not cross hosts).  Units that cannot
start before the deadline are reported as timeouts without running.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, replace
from typing import Sequence

from repro import obs
from repro.obs import clock
from repro.obs.live import ProgressTracker, StatusPublisher
from repro.obs.metrics import (
    MetricsRegistry,
    fill_telemetry,
    log_bucket_boundaries,
    new_registry,
)
from repro.campaign.backends import (
    BACKEND_NAMES,
    BUDGET_NOTE,
    ExecutionBackend,
    ProcessPoolBackend,
    ShardFailure,
    WorkItem,
    budget_outcome as _budget_outcome,
    build_named_backend,
    resolve_workers,
    split_spec,
)
from repro.campaign.backends.specs import spec_fingerprint
from repro.campaign.log import CampaignLog
from repro.core.verifier import VerificationTask, verify
from repro.isa.instruction import Opcode
from repro.mc.explorer import CANCEL_NOTE, Explorer, RootExpansion
from repro.mc.result import PROVED, Outcome, SearchStats
from repro.mc.shared_filter import suggest_capacity

__all__ = [
    "BACKEND_NAMES",
    "BUDGET_NOTE",
    "SUBROOT_MODES",
    "CampaignResult",
    "CampaignUnit",
    "resolve_workers",
    "run_campaign",
    "verify_sharded",
]

#: Valid ``subroot`` modes: split below the root when a unit has fewer
#: roots than the backend has capacity / always (no unit ships whole) /
#: never.
SUBROOT_MODES = ("auto", "always", "never")


@dataclass
class CampaignTelemetry:
    """Observability counters for one campaign run.

    Purely diagnostic -- none of these affect results (the bit-identity
    contract is exactly that they cannot).  ``steals`` counts sub-root
    slices re-split by the work-stealing rebalance, ``steal_settled``
    the subset the in-process expansion decided outright, ``steal_won``
    the races the depth-2 re-split finished first.

    Every :class:`CampaignResult` of a run carries the run's telemetry
    object (one shared instance per campaign) -- that is the supported
    way to read the counters.  :data:`LAST_TELEMETRY` remains as a
    process-global convenience alias of the most recent campaign's
    object; it is re-pointed (never mutated in place) at the start of
    every ``run_campaign``, so counters can no longer leak across runs.

    Since the ``repro.obs`` layer landed this dataclass is a
    *compatibility shim*: the scheduler counts into the campaign's
    :class:`repro.obs.metrics.MetricsRegistry` (the superset --
    histograms and time series live only there, see
    ``repro.obs.metrics.LAST_REGISTRY``), and these fields are filled
    from the registry when the campaign ends
    (:func:`repro.obs.metrics.fill_telemetry`).
    """

    backend: str = ""
    capacity: int = 0
    steals: int = 0
    steal_settled: int = 0
    steal_won: int = 0
    #: Work items actually submitted to the backend (whole roots, seeded
    #: batches and steal racers) -- the dispatch-overhead denominator
    #: batching exists to shrink.
    shards: int = 0
    #: The states-per-batch grain the batch planner targeted this run
    #: (calibrated from measured shard runtimes of earlier campaigns in
    #: this process; the default until anything was measured).
    grain_states: float = 0.0


#: Telemetry of the most recent campaign in this process: an alias of
#: the object every ``CampaignResult.telemetry`` of that run carries.
#: Reset (re-pointed to a fresh instance) per ``run_campaign`` call.
LAST_TELEMETRY = CampaignTelemetry()

#: The wall-clock grain seeded batches aim for: long enough that worker
#: dispatch (pickling, queueing, result transport) is noise against the
#: search itself, short enough that the tail of a campaign still
#: load-balances.
TARGET_BATCH_SECONDS = 0.5

#: States-per-batch grain assumed before any shard was ever measured.
DEFAULT_GRAIN_STATES = 20_000


class _Calibration:
    """Measured-runtime feedback into the shard cost model (EWMA).

    ``_predicted_states`` / ``_predicted_subtree`` count *paths*
    (roots x width^depth) and ignore pruning entirely, so their absolute
    scale is off by orders of magnitude -- fine for ranking, useless for
    sizing.  Every completed shard reports (raw predicted, measured
    states, elapsed); two exponential moving averages turn that into

    - ``correction``: measured-states / predicted-states, making
      ``corrected()`` an absolute state-count estimate, and
    - ``states_per_s``: measured throughput, making ``grain_states()``
      the batch size worth ~:data:`TARGET_BATCH_SECONDS` of work.

    Process-global on purpose: a bench harness (or the Fig. 2 sweep)
    runs many campaigns back to back, and each plans with the rates the
    previous ones measured.  Calibration only moves *batch sizing* --
    pure scheduling -- so the bit-identity contract is untouched.
    """

    __slots__ = ("correction", "states_per_s", "samples")

    #: EWMA step: new samples move the estimate 30% of the way.
    ALPHA = 0.3

    def __init__(self):
        self.correction = 1.0
        self.states_per_s = 0.0
        self.samples = 0

    def observe(self, predicted: int, states: int, elapsed: float) -> None:
        if predicted <= 0 or states <= 0 or elapsed <= 0.0:
            return
        ratio = states / predicted
        rate = states / elapsed
        if self.samples == 0:
            self.correction = ratio
            self.states_per_s = rate
        else:
            self.correction += self.ALPHA * (ratio - self.correction)
            self.states_per_s += self.ALPHA * (rate - self.states_per_s)
        self.samples += 1

    def corrected(self, predicted: int) -> float:
        """The raw path-count estimate rescaled to measured states."""
        return predicted * self.correction

    def grain_states(self) -> float:
        """Target states per batch (~:data:`TARGET_BATCH_SECONDS`)."""
        if self.samples == 0:
            return float(DEFAULT_GRAIN_STATES)
        return max(1000.0, self.states_per_s * TARGET_BATCH_SECONDS)


#: The process-wide calibration state (see :class:`_Calibration`).
_CALIBRATION = _Calibration()

#: Grain-error histogram buckets: measured/predicted state ratios from
#: 0.001x to 1000x, four log buckets per decade.  A well-calibrated
#: planner concentrates mass around the 1.0 boundary.
_GRAIN_ERROR_BUCKETS = log_bucket_boundaries(-3, 3, 4)


def _plan_batches(weights: Sequence[int], n_batches: int) -> list[tuple[int, int]]:
    """Partition frontier entries into contiguous weight-balanced batches.

    Returns ``[start, end)`` index ranges covering ``weights`` in order
    -- contiguity is what keeps a batch's ``run_seeded`` equal to the
    serial merge of its entries.  Greedy: each batch closes once it
    reaches the remaining-average weight, while always leaving at least
    one entry per remaining batch.
    """
    count = len(weights)
    n_batches = max(1, min(n_batches, count))
    batches: list[tuple[int, int]] = []
    start = 0
    remaining = float(sum(weights))
    for index in range(n_batches):
        left = n_batches - index  # batches still to emit, incl. this one
        max_end = count - (left - 1)
        target = remaining / left
        end = start + 1
        acc = weights[start]
        while end < max_end and acc < target:
            acc += weights[end]
            end += 1
        batches.append((start, end))
        remaining -= acc
        start = end
    return batches


@dataclass(frozen=True)
class CampaignUnit:
    """One independently-verifiable cell of a campaign.

    ``experiment`` and ``key`` identify the cell in result logs and
    re-rendered tables (e.g. ``("shadow", "Sodor")`` for Table 2).
    """

    experiment: str
    key: tuple[str, ...]
    task: VerificationTask


@dataclass(frozen=True)
class CampaignResult:
    """One merged unit outcome, labelled like its unit.

    ``telemetry`` is the campaign's shared
    :class:`CampaignTelemetry` instance (identical on every result of
    one run); diagnostic only, excluded from equality-based tests by
    virtue of comparing outcomes, not results.
    """

    experiment: str
    key: tuple[str, ...]
    outcome: Outcome
    telemetry: CampaignTelemetry | None = None


def _check_picklable(unit: CampaignUnit) -> None:
    try:
        pickle.dumps(unit.task)
    except Exception as exc:  # pickle raises a zoo of types
        raise ValueError(
            f"campaign unit {unit.experiment}/{'/'.join(unit.key)} is not "
            "picklable and cannot be dispatched to worker processes; build "
            "its core_factory from repro.campaign.registry.CoreSpec instead "
            f"of a closure ({exc})"
        ) from None


def _merge_serial(outcomes: Sequence[Outcome | None]) -> Outcome | None:
    """Merge sibling shard outcomes in serial exploration order.

    Siblings are a unit's roots, one root's first-cycle children, or one
    stolen slice's depth-2 children; all are pushed in list order onto
    the serial engine's LIFO stack, so the scan runs from the last entry
    to the first, summing search stats, and adopts the first non-proof as
    the verdict.  Returns ``None`` while the merge is still blocked on a
    pending shard (``outcomes[i] is None``); pending shards *behind* the
    deciding one are serially dead -- the serial engine would never have
    explored them -- so they neither block nor contribute.
    """
    merged_stats = SearchStats()
    elapsed = 0.0
    decided: Outcome | None = None
    for index in reversed(range(len(outcomes))):
        outcome = outcomes[index]
        if outcome is None:
            return None
        merged_stats = merged_stats.combine(outcome.stats)
        elapsed += outcome.elapsed
        if outcome.kind != PROVED:
            decided = outcome
            break
    if decided is not None:
        return Outcome(
            kind=decided.kind,
            elapsed=elapsed,
            stats=merged_stats,
            counterexample=decided.counterexample,
            note=decided.note,
        )
    return Outcome(kind=PROVED, elapsed=elapsed, stats=merged_stats)


def _prepend_prelude(expansion: RootExpansion, merged: Outcome) -> Outcome:
    """Add an expansion's prelude on top of its children's merge.

    The serial engine pays for the expanded state and *every* one of its
    transitions before it descends into any child, so the prelude is
    added unconditionally -- even when a child decided the subtree.
    """
    return replace(
        merged,
        stats=expansion.stats.combine(merged.stats),
        elapsed=expansion.elapsed + merged.elapsed,
    )


class _StealGroup:
    """The re-split of one stolen shard, racing the original.

    Two shapes share the merge discipline:

    - A *batch re-split* (``expansion is None``): a multi-entry seeded
      batch re-dispatched as one shard per entry.  The entries are the
      batch's own frontier slice, so the group outcome is their plain
      serial merge -- no prelude (``run_seeded`` on the batch pays no
      expansion either).
    - A *depth-2 re-split* (``expansion`` set): a single-entry slice
      expanded one more cycle in-process; prelude (the slice's node and
      first transitions) plus one outcome per depth-2 child, composed
      exactly like a root slot composes its first-cycle children.

    Either way the composition is bit-identical to the original shard,
    which is why the race can never change results.
    """

    def __init__(self, expansion: RootExpansion | None, count: int | None = None):
        self.expansion = expansion
        n = len(expansion.entries) if expansion is not None else count
        self.outcomes: list[Outcome | None] = [None] * n
        self.tickets: list[int] = []

    def outcome(self) -> Outcome | None:
        merged = _merge_serial(self.outcomes)
        if merged is None or self.expansion is None:
            return merged
        return _prepend_prelude(self.expansion, merged)


class _RootSlot:
    """Shard book-keeping for one root of a unit.

    A slot is either a *whole-root* shard (one ticket, the historical
    granularity) or a *split* root (an in-process first-cycle expansion
    plus one seeded ticket per surviving child, some of which may be
    re-split again by the work-stealing rebalance).  A whole-unit shard
    is the unit's only slot, whose task keeps every root.
    """

    def __init__(self, subtask: VerificationTask):
        self.subtask = subtask  # deadline-stamped; single-root unless whole
        self.expansion: RootExpansion | None = None
        #: Contiguous ``[start, end)`` slices of ``expansion.entries``,
        #: one per dispatched batch; ``sub_outcomes`` / ``sub_tickets``
        #: / ``groups`` are indexed by *batch* position.
        self.batches: list[tuple[int, int]] = []
        self.sub_outcomes: list[Outcome | None] = []
        self.whole: Outcome | None = None
        self.tickets: list[int] = []  # every ticket under this slot
        self.sub_tickets: dict[int, int] = {}  # batch position -> ticket
        self.groups: dict[int, _StealGroup] = {}  # batch position -> steal
        self.unstealable: set[int] = set()

    def plan_subroot(self) -> bool:
        """Expand the root's first cycle; ``True`` if no worker is needed.

        Roots the expansion already settles (a first-cycle attack, an
        expired budget, or an empty frontier -- a proof) finalize
        in-process.  A one-child frontier stays a whole-root shard:
        splitting it buys nothing and a lone child may share the root's
        environment (see ``RootExpansion.splittable``).
        """
        task = self.subtask
        explorer = Explorer(
            task.build_product(), task.space, task.build_roots(), task.limits
        )
        expansion = explorer.expand_root()
        if expansion.decided is not None:
            self.whole = expansion.decided
            return True
        if not expansion.entries:
            self.whole = Outcome(
                kind=PROVED, elapsed=expansion.elapsed, stats=expansion.stats
            )
            return True
        if not expansion.splittable:
            return False
        self.expansion = expansion
        return False

    def plan_batches(self, weights: Sequence[int], n_batches: int) -> None:
        """Group the expansion's entries into dispatchable batches."""
        self.batches = _plan_batches(weights, n_batches)
        self.sub_outcomes = [None] * len(self.batches)

    def outcome(self) -> Outcome | None:
        """The root's merged outcome, or ``None`` while shards are pending."""
        if self.whole is not None:
            return self.whole
        if self.expansion is None:
            return None
        merged = _merge_serial(self.sub_outcomes)
        if merged is None:
            return None
        return _prepend_prelude(self.expansion, merged)

    def fill_pending_with_budget(self) -> None:
        """Stand in budget timeouts for shards that never reported."""
        if self.whole is not None:
            return
        if self.expansion is None:
            self.whole = _budget_outcome()
            return
        self.sub_outcomes = [
            outcome or _budget_outcome() for outcome in self.sub_outcomes
        ]


class _UnitState:
    """Book-keeping for one in-flight sharded unit.

    ``ships_whole`` marks a unit shipped as one whole-unit shard (a
    single slot running every root); ``n_roots`` is its task's root
    count.
    """

    def __init__(
        self,
        index: int,
        unit: CampaignUnit,
        slots: list[_RootSlot],
        n_roots: int,
        ships_whole: bool,
    ):
        self.index = index
        self.unit = unit
        self.slots = slots
        self.n_roots = n_roots
        self.ships_whole = ships_whole
        self.tickets: list[int] = []  # every ticket under this unit
        self.final: Outcome | None = None
        #: Highest root position already settled as a non-proof (-1:
        #: none); every root below it is serially dead.
        self.cutoff = -1
        #: Content fingerprint of the unit's task spec (the task minus
        #: roots and limits); stamped on every shard so hot-worker
        #: backends ship the spec once per worker.
        self.spec_fp: int | None = None
        # Cross-process visited filter for shared_visited units (one per
        # unit: sharing across units would be unsound -- different tasks).
        self.vfilter = None

    @property
    def filter_name(self) -> str | None:
        return None if self.vfilter is None else self.vfilter.name

    def release_filter(self) -> None:
        """Free the unit's filter segment (idempotent).

        Safe while shards are still mapped: an unlinked segment lives on
        until every worker detaches, and a worker attaching *after* the
        unlink degrades to unshared search.
        """
        if self.vfilter is not None:
            self.vfilter.close()
            self.vfilter.unlink()
            self.vfilter = None


class _ResultSink:
    """Streams finalized unit outcomes to the log in submission order.

    Parallel campaigns finalize units out of order; the sink buffers
    outcomes and writes the longest finalized prefix after every
    ``offer``, so log ordering stays deterministic while completed work
    survives a mid-campaign crash or interrupt.
    """

    def __init__(
        self,
        units: list[CampaignUnit],
        log: CampaignLog | None,
        tracker: ProgressTracker | None = None,
    ):
        self.units = units
        self.log = log
        self.tracker = tracker
        self.outcomes: list[Outcome | None] = [None] * len(units)
        self._next = 0

    def offer(self, index: int, outcome: Outcome) -> None:
        self.outcomes[index] = outcome
        if self.tracker is not None:
            # Every finalized unit passes through here (idempotent per
            # index on the tracker side), so live progress needs no
            # second choke point.
            self.tracker.unit_done(index, outcome.kind)
        if self.log is None:
            return
        while self._next < len(self.units):
            pending = self.outcomes[self._next]
            if pending is None:
                break
            unit = self.units[self._next]
            self.log.result(unit.experiment, unit.key, pending)
            self._next += 1


def _resolve_backend(
    backend, n_workers: int | None
) -> tuple[ExecutionBackend | None, bool, int]:
    """Map the ``backend`` argument onto (instance, owned-here, capacity).

    ``None`` keeps the historical behavior -- the serial fast path for
    one worker, an implicit process pool otherwise (instance ``None``
    here; :func:`_run_sharded` constructs it after planning so the pool
    can still be clamped to the shard count).
    """
    if backend is None:
        workers = resolve_workers(n_workers)
        return None, True, workers
    if isinstance(backend, ExecutionBackend):
        return backend, False, max(1, backend.capacity())
    built = build_named_backend(backend, n_workers)
    return built, True, built.capacity()


def run_campaign(
    units: Sequence[CampaignUnit],
    *,
    n_workers: int | None = None,
    budget_s: float | None = None,
    log: CampaignLog | None = None,
    experiment: str = "campaign",
    subroot: str = "auto",
    backend=None,
    rebalance: bool = True,
    status_json: str | None = None,
    status_interval: float = 1.0,
) -> list[CampaignResult]:
    """Run a campaign; results align with ``units`` (deterministic order).

    ``backend`` selects the executor: ``None`` (default) keeps the
    historical behavior -- ``n_workers=1`` runs every unit through the
    plain serial :func:`repro.core.verifier.verify`, larger counts fan
    shards over an implicit process pool; ``"serial"`` / ``"process"``
    name the corresponding :mod:`repro.campaign.backends` class; a
    live :class:`repro.campaign.backends.ExecutionBackend` instance
    (e.g. a connected ``SocketClusterBackend``) is used as-is and left
    open for the caller to reuse.  Merged outcomes are bit-identical
    across backends (see the module docstring).

    Units of a campaign with at least as many units as the backend has
    capacity ship as whole-unit shards (one ``verify`` per unit on a
    worker) unless they opt into ``shared_visited``; see "Whole-unit
    dispatch" in the module docstring.  ``subroot`` controls sharding
    of the remaining units *below* the root: ``"auto"`` splits a unit's
    roots into per-first-choice subtrees when the unit has fewer roots
    than the backend has capacity (single-root workloads root sharding
    cannot touch), ``"always"`` forces the split on every unit, whole
    units included (the CI determinism smoke), ``"never"`` keeps the
    root granularity.
    ``rebalance`` enables work-stealing of dominant sub-root slices into
    depth-2 shards when capacity idles (bit-identical either way).
    ``budget_s`` is a shared wall-clock budget; units it cuts off report
    timeout outcomes noted ``"campaign budget exhausted"``.

    ``status_json`` names a file to atomically rewrite with the latest
    :class:`repro.obs.live.ProgressSnapshot` about every
    ``status_interval`` seconds (every backend, serial included); the
    same snapshots stream to socket observers and to
    ``repro.obs.live.LAST_SNAPSHOT``.  Observability only -- results
    are bit-identical with or without it.
    """
    units = list(units)
    if subroot not in SUBROOT_MODES:
        raise ValueError(f"subroot must be one of {SUBROOT_MODES}")
    deadline = None if budget_s is None else clock.monotonic() + budget_s
    backend_obj, owned, capacity = _resolve_backend(backend, n_workers)
    # One telemetry object per campaign, shared by every result of the
    # run; the process-global alias is re-pointed (not mutated) so a
    # previous campaign's counters can never bleed into this one.  The
    # registry is the counters' source of truth; the telemetry shim is
    # filled from it when the campaign ends.
    global LAST_TELEMETRY
    telemetry = CampaignTelemetry(capacity=capacity)
    LAST_TELEMETRY = telemetry
    registry = new_registry()
    tracker = ProgressTracker(
        experiment=experiment, units_total=len(units), capacity=capacity
    )
    publisher = StatusPublisher(
        tracker, registry=registry, interval=status_interval, path=status_json
    )
    if log is not None:
        log.header(experiment, capacity, len(units))
    # Results stream to the log in submission order as units finalize
    # (each record is flushed), so an interrupted campaign keeps every
    # completed prefix for --from-log re-rendering.
    sink = _ResultSink(units, log, tracker)
    try:
        with obs.span("campaign", experiment=experiment, units=len(units)):
            if backend is None and capacity == 1:
                telemetry.backend = "serial"
                tracker.backend = "serial"
                outcomes = _run_serial(units, deadline, sink, publisher)
            else:
                outcomes = _run_sharded(
                    units, backend_obj, owned, capacity, deadline, sink,
                    subroot, rebalance, telemetry, registry,
                    tracker, publisher,
                )
    finally:
        fill_telemetry(telemetry, registry)
    return [
        CampaignResult(unit.experiment, unit.key, outcome, telemetry)
        for unit, outcome in zip(units, outcomes)
    ]


def _stamp_deadline(task: VerificationTask, deadline: float | None):
    if deadline is None:
        return task
    limits = task.limits
    if limits.deadline is not None:
        deadline = min(limits.deadline, deadline)
    return replace(task, limits=replace(limits, deadline=deadline))


def _run_serial(
    units: list[CampaignUnit],
    deadline: float | None,
    sink: _ResultSink,
    publisher: StatusPublisher | None = None,
) -> list[Outcome]:
    outcomes: list[Outcome] = []
    for index, unit in enumerate(units):
        if publisher is not None:
            publisher.tick()
        key = "/".join(unit.key)
        if deadline is not None and clock.monotonic() >= deadline:
            outcome = _budget_outcome()
        else:
            with obs.span("unit", unit=key):
                outcome = verify(_stamp_deadline(unit.task, deadline))
        obs.event(
            "unit.done", unit=key, kind=outcome.kind, elapsed=outcome.elapsed,
            states=outcome.stats.states,
        )
        outcomes.append(outcome)
        sink.offer(index, outcome)
        if sink.tracker is not None:
            sink.tracker.states += outcome.stats.states
            if outcome.elapsed > 0:
                sink.tracker.note_rate(outcome.stats.states / outcome.elapsed)
    if publisher is not None:
        publisher.tick(force=True)
    return outcomes


def _frontier_width(task: VerificationTask) -> int:
    """First-cycle fan-out estimate for the filter cost model.

    One open slot fetched on the first cycle yields one child per
    instruction, twice that for nondeterministically-predicted branches
    -- the measured widths (7 for the Fig. 2 sweep space, 13 for
    SPACE_SIMPLE) are reproduced exactly by this count.
    """
    return sum(
        2 if inst.op is Opcode.BRANCH else 1
        for inst in task.space.instructions()
    )


def _cost_model(task: VerificationTask) -> tuple[int, int]:
    """(frontier width, depth bound) of one unit's cost model.

    Building the core to read ``imem_size`` is the expensive part, so
    the planner computes this once per unit and threads it through both
    consumers below.
    """
    return _frontier_width(task), task.core_factory().params.imem_size


def _filter_capacity(
    unit: CampaignUnit, n_roots: int, model: tuple[int, int] | None = None
) -> int:
    """Cost-model filter size: roots x frontier width ^ depth bound."""
    width, depth = model if model is not None else _cost_model(unit.task)
    return suggest_capacity(n_roots, width, depth)


def _predicted_states(
    task: VerificationTask, n_roots: int, model: tuple[int, int] | None = None
) -> int:
    """Expected-state estimate: roots x frontier width ^ depth bound.

    The same coarse model ``suggest_capacity`` sizes filters with, kept
    unclamped: it only needs to *order* units (largest first, so the
    long pole starts before the queue fills with small cells) and to
    rank steal candidates by predicted remaining subtree size -- both
    pure scheduling decisions the bit-identity contract is immune to.
    """
    width, depth = model if model is not None else _cost_model(task)
    return max(1, n_roots) * width**depth


def _whole_units(
    units: Sequence[CampaignUnit],
    unit_roots: Sequence[list],
    capacity: int,
    subroot: str,
) -> list[bool]:
    """Which units ship as one whole-unit shard (see the module docs).

    A campaign with at least ``capacity`` units fills the backend at
    unit granularity, so a unit ships whole unless ``subroot="always"``
    forces splitting or it opts into ``shared_visited``.  Root-less
    units settle in-process without a shard either way.
    """
    if len(units) < capacity or subroot == "always":
        return [False] * len(units)
    return [
        bool(roots) and not unit.task.shared_visited
        for unit, roots in zip(units, unit_roots)
    ]


def _predicted_subtree(width: int, entry) -> int:
    """Predicted size of a seeded slice's remaining subtree.

    Every still-symbolic instruction slot of the entry's environment
    can fan out by the space's frontier width once some machine fetches
    it, so ``width ^ open-slots`` tracks the dominant path count below
    the slice.  Fully concretized slices predict 1 -- the smallest
    candidates, correctly: their subtrees are pure state-closure walks.
    """
    open_slots = sum(1 for inst in entry.env.imem if inst is None)
    return width**open_slots


def _run_sharded(
    units: list[CampaignUnit],
    backend: ExecutionBackend | None,
    owned: bool,
    capacity: int,
    deadline: float | None,
    sink: _ResultSink,
    subroot: str,
    rebalance: bool,
    telemetry: CampaignTelemetry,
    registry: MetricsRegistry,
    tracker: ProgressTracker | None = None,
    publisher: StatusPublisher | None = None,
) -> list[Outcome]:
    for unit in units:
        _check_picklable(unit)
    unit_roots = [unit.task.build_roots() for unit in units]
    models = [_cost_model(unit.task) for unit in units]  # (width, depth)
    unit_costs = [
        _predicted_states(unit.task, len(roots), model)
        for unit, roots, model in zip(units, unit_roots, models)
    ]
    whole = _whole_units(units, unit_roots, capacity, subroot)
    states: list[_UnitState] = []
    split: list[bool] = []
    for index, unit in enumerate(units):
        roots = unit_roots[index]
        if whole[index]:
            slots = [_RootSlot(_stamp_deadline(unit.task, deadline))]
        else:
            slots = [
                _RootSlot(
                    _stamp_deadline(replace(unit.task, roots=[root]), deadline)
                )
                for root in roots
            ]
        state = _UnitState(index, unit, slots, len(roots), whole[index])
        state.spec_fp = spec_fingerprint(split_spec(unit.task)[0])
        states.append(state)
        split.append(
            not whole[index]
            and (
                subroot == "always"
                or (subroot == "auto" and len(roots) < capacity)
            )
        )
    if backend is None:
        # Implicit process pool: splitting exists to raise the shard
        # count above the root count, so only clamp the pool to the
        # shard count (whole units count one) when nothing will split.
        total_shards = sum(len(s.slots) for s in states)
        if not any(split):
            capacity = max(1, min(capacity, total_shards))
        backend = ProcessPoolBackend(capacity)
        owned = True
    backend.set_deadline(deadline)
    telemetry.backend = backend.name
    telemetry.capacity = capacity
    if tracker is not None:
        tracker.backend = backend.name
        tracker.capacity = capacity
    # Status plumbing (observability only): the backend ticks the
    # publisher from its wait loop so snapshots flow while the drain
    # below blocks, and backend-side instruments (the cluster's
    # heartbeat-RTT histogram) land in the campaign's registry.
    backend.attach_registry(registry)
    if publisher is not None:
        backend.set_status_publisher(publisher)
    # Batch sizing: the calibrated per-batch state grain, plus a
    # campaign-wide floor keeping total shard count >= ~2x capacity so
    # small grids still fill every worker (with slack for stragglers).
    grain = _CALIBRATION.grain_states()
    registry.gauge("campaign.grain_states").set(grain)
    n_split_roots = sum(
        len(state.slots) for state in states if split[state.index]
    )
    min_batches = max(1, math.ceil(2 * capacity / max(1, n_split_roots)))
    #: ticket -> (unit state, root position, batch position, steal index)
    owner: dict[int, tuple[_UnitState, int, int | None, int | None]] = {}
    #: ticket -> (unit label, root tags), kept past cancellation so
    #: stale results still name what they wasted (trace tags only)
    labels: dict[int, tuple[str, dict]] = {}
    submitted: dict[int, float] = {}  # ticket -> submit instant
    predictions: dict[int, int] = {}  # ticket -> raw predicted states

    def cancel_ticket(ticket: int) -> None:
        if owner.pop(ticket, None) is None:
            return  # already delivered or cancelled
        backend.cancel(ticket)
        submitted.pop(ticket, None)
        predictions.pop(ticket, None)

    def try_finalize(state: _UnitState) -> bool:
        """Attempt the serial-order merge; cancel obsolete shards."""
        if state.final is not None:
            return True
        merged = _merge_serial([slot.outcome() for slot in state.slots])
        if merged is None:
            return False
        state.final = merged
        obs.event(
            "unit.done",
            unit="/".join(state.unit.key),
            kind=merged.kind,
            elapsed=merged.elapsed,
            states=merged.stats.states,
        )
        for ticket in state.tickets:
            cancel_ticket(ticket)
        # The filter is useless once the unit's verdict is merged; free
        # its segment now instead of holding it for the whole campaign.
        state.release_filter()
        return True

    def cancel_if_decided(state: _UnitState, root_pos: int) -> None:
        """Cancel shards a settled root leaves serially dead.

        Two levels, even while the *unit* is still blocked on other
        roots: a split root settled by a serially-early sub-shard no
        longer needs its other sub-shards, and a root settled as a
        non-proof leaves every serially-later root (lower position)
        dead.  The merge already ignores both, so stop paying for them.
        """
        slot = state.slots[root_pos]
        settled = slot.outcome()
        if settled is None:
            return
        if slot.expansion is not None:
            for ticket in slot.tickets:
                cancel_ticket(ticket)
        if settled.kind != PROVED and root_pos > state.cutoff:
            state.cutoff = root_pos
            for dead in state.slots[:root_pos]:
                for ticket in dead.tickets:
                    cancel_ticket(ticket)

    def submit(
        state: _UnitState,
        slot: _RootSlot,
        item: WorkItem,
        root_pos: int,
        sub_pos: int | None,
        steal_idx: int | None = None,
        predicted: int = 0,
    ) -> int:
        ticket = backend.submit_unit(item)
        registry.counter("campaign.shards").inc()
        if tracker is not None:
            tracker.shard_submitted()
        # A whole-unit shard names no single root: it carries the root
        # count instead.
        tags = (
            {"root": None, "roots": state.n_roots}
            if state.ships_whole
            else {"root": root_pos}
        )
        obs.event(
            "shard.submit",
            ticket=ticket,
            unit="/".join(state.unit.key),
            predicted=predicted,
            **tags,
        )
        owner[ticket] = (state, root_pos, sub_pos, steal_idx)
        labels[ticket] = ("/".join(state.unit.key), tags)
        submitted[ticket] = clock.monotonic()
        if predicted:
            predictions[ticket] = predicted
        state.tickets.append(ticket)
        slot.tickets.append(ticket)
        if sub_pos is not None and steal_idx is None:
            slot.sub_tickets[sub_pos] = ticket
        return ticket

    try:
        # Cost-model dispatch: plan and submit units largest-first (by
        # the roots x width^depth estimate), so the campaign's long pole
        # starts executing before the queue fills with small cells.
        # Results, logs and merges still follow unit *submission list*
        # order (the sink buffers), and shard outcomes are order-blind
        # pure functions -- only wall-clock moves.  Ties keep list
        # order (stable sort), so equal-cost grids behave historically.
        plan_order = sorted(
            states, key=lambda s: unit_costs[s.index], reverse=True
        )
        rec = obs.recorder()
        for state in plan_order:
            if deadline is not None and clock.monotonic() >= deadline:
                state.final = _budget_outcome()
                sink.offer(state.index, state.final)
                continue
            if rec is not None:
                plan_t0 = clock.monotonic()
            if state.unit.task.shared_visited:
                state.vfilter = backend.make_filter(
                    _filter_capacity(
                        state.unit, len(state.slots), models[state.index]
                    )
                )
            # Plan and submit in *serial* order (last slot first, the
            # LIFO exploration order): a serially-early root the planner
            # settles in-process with a non-proof kills its siblings
            # before any of their planning or submission work is paid.
            for root_pos in reversed(range(len(state.slots))):
                if try_finalize(state) or root_pos < state.cutoff:
                    break  # serially-earlier slots decided the rest
                slot = state.slots[root_pos]
                if split[state.index] and slot.plan_subroot():
                    # Settled in-process by the expansion; a non-proof
                    # makes every root still unplanned serially dead.
                    cancel_if_decided(state, root_pos)
                    continue
                if slot.expansion is None:
                    submit(
                        state,
                        slot,
                        WorkItem(
                            slot.subtask,
                            None,
                            state.filter_name,
                            spec_fp=state.spec_fp,
                        ),
                        root_pos,
                        None,
                        predicted=(
                            unit_costs[state.index]
                            if state.ships_whole
                            else _predicted_states(
                                slot.subtask, 1, models[state.index]
                            )
                        ),
                    )
                else:
                    # Batched dispatch: pack the first-cycle frontier
                    # into contiguous weight-balanced batches sized to
                    # the calibrated grain (floored so the campaign
                    # still fills every worker) instead of one tiny
                    # shard per entry.
                    entries = slot.expansion.entries
                    width = models[state.index][0]
                    weights = [
                        _predicted_subtree(width, entry) for entry in entries
                    ]
                    if _CALIBRATION.samples:
                        wanted = max(
                            min_batches,
                            math.ceil(
                                _CALIBRATION.corrected(sum(weights)) / grain
                            ),
                        )
                    else:
                        # Uncalibrated: raw path counts overestimate by
                        # orders of magnitude and would degenerate to
                        # one shard per entry; pack to the capacity
                        # floor until a measurement lands.
                        wanted = min_batches
                    slot.plan_batches(weights, wanted)
                    for sub_pos, (start, end) in enumerate(slot.batches):
                        submit(
                            state,
                            slot,
                            WorkItem(
                                slot.subtask,
                                tuple(entries[start:end]),
                                state.filter_name,
                                spec_fp=state.spec_fp,
                            ),
                            root_pos,
                            sub_pos,
                            predicted=sum(weights[start:end]),
                        )
            if rec is not None:
                # The planner's in-process expansions are dispatch
                # stalls the timeline should show; one pre-timed span
                # per unit keeps the loop free of context managers.
                rec.add_span(
                    "plan", plan_t0, clock.monotonic(),
                    unit="/".join(state.unit.key),
                )
            # Zero-root tasks and units fully settled while planning
            # (first-cycle attacks, empty frontiers) finalize immediately.
            if try_finalize(state):
                sink.offer(state.index, state.final)
        for ticket, outcome in backend.as_completed():
            info = owner.pop(ticket, None)
            unit_label, tags = labels.pop(ticket)
            cancelled = (
                isinstance(outcome, Outcome) and outcome.note == CANCEL_NOTE
            )
            if cancelled and info is not None:
                # Only cancel_ticket stops a shard, and it drops the
                # ticket first: a merge must never see a truncated result.
                raise RuntimeError(
                    f"shard {ticket} of unit {unit_label} returned a "
                    "cancelled outcome the scheduler never cancelled"
                )
            submitted.pop(ticket, None)
            predicted = predictions.pop(ticket, None)
            measured = isinstance(outcome, Outcome) and not outcome.timed_out
            if measured and outcome.elapsed > 0 and outcome.stats.states > 0:
                # Engine-level series: measured throughput over time.
                registry.time_series("campaign.states_per_s").add(
                    clock.monotonic(), outcome.stats.states / outcome.elapsed
                )
            # A whole unit stops at its first non-proof root, so only a
            # proof measures the every-root prediction it carries.
            if measured and "roots" in tags and outcome.kind != PROVED:
                predicted = None
            if predicted and measured:
                # The batch grain error -- measured states against the
                # EWMA-corrected prediction the batch was sized with
                # (observed *before* this sample moves the correction).
                if outcome.elapsed > 0 and outcome.stats.states > 0:
                    corrected = _CALIBRATION.corrected(predicted)
                    if corrected > 0:
                        registry.histogram(
                            "campaign.grain_error", _GRAIN_ERROR_BUCKETS
                        ).observe(outcome.stats.states / corrected)
                # Feed the measured runtime back into the cost model
                # (timeouts excluded: their state counts are truncated,
                # which would bias the correction low).
                _CALIBRATION.observe(
                    predicted, outcome.stats.states, outcome.elapsed
                )
            if tracker is not None and isinstance(outcome, Outcome):
                tracker.shard_done(outcome.stats.states, outcome.elapsed)
            # Stale results (cancelled or superseded: no owner) and those
            # of decided units are dropped; ``used`` tags a result kept
            # for the merge.  A kept root can still turn serially dead
            # later, so per-unit waste is read against the merged
            # ``states`` of the unit's ``unit.done`` event.
            live = info is not None and info[0].final is None
            used = False
            if live:
                state, root_pos, sub_pos, steal_idx = info
                slot = state.slots[root_pos]
                if isinstance(outcome, ShardFailure):
                    if _handle_shard_failure(
                        state, slot, sub_pos, steal_idx, outcome,
                        cancel_ticket,
                    ):
                        continue
                    raise RuntimeError(
                        "campaign shard for unit "
                        f"{state.unit.experiment}/{unit_label} "
                        f"failed: {outcome.message}"
                    )
                used = _record_outcome(
                    slot, sub_pos, steal_idx, outcome, cancel_ticket,
                    registry,
                )
            if isinstance(outcome, Outcome):
                obs.event(
                    "shard.done",
                    ticket=ticket,
                    unit=unit_label,
                    kind=outcome.kind,
                    states=outcome.stats.states,
                    elapsed=outcome.elapsed,
                    used=used,
                    cancelled=cancelled,
                    **tags,
                )
            if not live:
                continue
            if try_finalize(state):
                sink.offer(state.index, state.final)
            else:
                cancel_if_decided(state, root_pos)
            if rebalance and backend.capacity() > 1:
                _maybe_steal(
                    backend, owner, submitted, predictions, deadline,
                    submit, try_finalize, cancel_if_decided, cancel_ticket,
                    sink, registry,
                )
        for state in states:
            if state.final is None:  # every shard cancelled under it
                for slot in state.slots:
                    slot.fill_pending_with_budget()
                state.final = _merge_serial(
                    [slot.outcome() for slot in state.slots]
                )
                sink.offer(state.index, state.final)
        if publisher is not None:
            # The final snapshot always shows every unit done (and
            # reaches any attached observers before the backend closes).
            publisher.tick(backend, force=True)
        return [state.final for state in states]
    finally:
        # Filters are normally freed as their unit finalizes; this sweeps
        # whatever an abort or cancellation left behind.
        for state in states:
            state.release_filter()
        backend.set_status_publisher(None)
        backend.attach_registry(None)
        if owned:
            backend.close()
        else:
            # Caller-provided backends are reusable (the BOOM hunt runs
            # many rounds on one cluster): clear this campaign's deadline
            # so the next campaign does not inherit it.
            backend.set_deadline(None)


def _handle_shard_failure(
    state: _UnitState,
    slot: _RootSlot,
    sub_pos: int | None,
    steal_idx: int | None,
    failure: ShardFailure,
    cancel_ticket,
) -> bool:
    """``True`` if a raising shard can be ignored (serially dead).

    Mirrors the serial engine: work it would never have run cannot fail
    a campaign.  A failing *steal racer* is also non-fatal -- the group
    is torn down and the original whole-slice shard (which explores the
    same subtree, so a deterministic failure would resurface there)
    decides the slice.
    """
    if steal_idx is not None:
        group = slot.groups.pop(sub_pos, None)
        if group is not None:
            for ticket in group.tickets:
                cancel_ticket(ticket)
        slot.unstealable.add(sub_pos)
        return True
    if sub_pos is None:
        return slot.whole is not None
    return slot.sub_outcomes[sub_pos] is not None or slot.outcome() is not None


def _record_outcome(
    slot: _RootSlot,
    sub_pos: int | None,
    steal_idx: int | None,
    outcome: Outcome,
    cancel_ticket,
    registry: MetricsRegistry,
) -> bool:
    """Fold one shard outcome into its slot (original or steal racer).

    ``False`` when the outcome was not needed: its slice or root was
    already settled, or its steal group already torn down.
    """
    if sub_pos is None:
        if slot.whole is not None:
            return False
        slot.whole = outcome
        return True
    if slot.sub_outcomes[sub_pos] is not None:
        return False  # the other racer already settled this slice
    if steal_idx is None:
        # The original whole-slice shard won (or was never raced).
        slot.sub_outcomes[sub_pos] = outcome
        group = slot.groups.pop(sub_pos, None)
        if group is not None:
            for ticket in group.tickets:
                cancel_ticket(ticket)
        return True
    group = slot.groups.get(sub_pos)
    if group is None:
        return False  # group torn down by the original finishing first
    group.outcomes[steal_idx] = outcome
    composed = group.outcome()
    if composed is None:
        return True
    slot.sub_outcomes[sub_pos] = composed
    del slot.groups[sub_pos]
    registry.counter("campaign.steal_won").inc()
    obs.event("steal.won", batch=sub_pos)
    cancel_ticket(slot.sub_tickets[sub_pos])  # the out-raced original
    for ticket in group.tickets:
        cancel_ticket(ticket)
    return True


def _maybe_steal(
    backend: ExecutionBackend,
    owner: dict,
    submitted: dict,
    predictions: dict,
    deadline: float | None,
    submit,
    try_finalize,
    cancel_if_decided,
    cancel_ticket,
    sink: _ResultSink,
    registry: MetricsRegistry,
) -> None:
    """Re-split the predicted-largest in-flight batch when capacity idles.

    The candidate is raced, not preempted: its re-split children are
    requeued alongside it and whichever representation completes first
    wins (the compositions are bit-identical, so the race cannot change
    results).  A multi-entry batch re-splits into one shard per entry
    (plain serial merge); a single-entry batch is expanded one more
    cycle in-process into depth-2 children (prelude + merge), exactly
    the historical steal.  At most one steal per completion event keeps
    the in-process cost bounded.
    """
    if deadline is not None and clock.monotonic() >= deadline:
        return
    if backend.capacity() - backend.outstanding() < 1:
        # No genuinely idle slots (the backend counts cancelled-but-
        # still-running shards that scheduler bookkeeping cannot see).
        return
    # Cost-model candidate choice: prefer the batch with the *largest
    # predicted remaining subtree* (the raw prediction recorded at
    # submit time: frontier width ^ still-open slots, summed over the
    # batch) -- the in-flight shard most worth re-splitting -- over the
    # historical oldest-in-flight heuristic.  Submit age only breaks
    # ties (then ticket, for determinism of the choice itself; the race
    # result is bit-identical either way).
    candidate = None
    best = None
    for ticket, (state, root_pos, sub_pos, steal_idx) in owner.items():
        if steal_idx is not None or sub_pos is None:
            continue  # only whole, un-stolen seeded batches are targets
        if state.final is not None or state.unit.task.shared_visited:
            continue
        slot = state.slots[root_pos]
        if sub_pos in slot.groups or sub_pos in slot.unstealable:
            continue
        if slot.sub_outcomes[sub_pos] is not None or slot.outcome() is not None:
            continue
        predicted = predictions.get(ticket, 1)
        age = submitted.get(ticket, 0.0)
        rank = (-predicted, age, ticket)
        if best is None or rank < best:
            best = rank
            candidate = (ticket, state, root_pos, sub_pos)
    if candidate is None:
        return
    ticket, state, root_pos, sub_pos = candidate
    slot = state.slots[root_pos]
    start, end = slot.batches[sub_pos]
    entries = slot.expansion.entries[start:end]
    task = slot.subtask
    if len(entries) > 1:
        # Batch re-split: race the batch against one shard per entry.
        # Their serial merge is the batch's own ``run_seeded`` replay,
        # so no prelude and no in-process expansion is involved.
        registry.counter("campaign.steals").inc()
        obs.event(
            "steal", unit="/".join(state.unit.key), entries=len(entries)
        )
        width = _frontier_width(state.unit.task)
        group = _StealGroup(None, count=len(entries))
        slot.groups[sub_pos] = group
        for steal_idx, child in enumerate(entries):
            group.tickets.append(
                submit(
                    state, slot,
                    WorkItem(task, (child,), None, spec_fp=state.spec_fp),
                    root_pos, sub_pos, steal_idx,
                    predicted=_predicted_subtree(width, child),
                )
            )
        return
    [entry] = entries
    explorer = Explorer(
        task.build_product(), task.space, task.build_roots(), task.limits
    )
    expansion = explorer.expand_entry(entry)
    registry.counter("campaign.steals").inc()
    obs.event("steal", unit="/".join(state.unit.key), entries=1)
    if expansion.decided is not None:
        registry.counter("campaign.steal_settled").inc()
        slot.sub_outcomes[sub_pos] = expansion.decided
    elif not expansion.entries:
        registry.counter("campaign.steal_settled").inc()
        slot.sub_outcomes[sub_pos] = Outcome(
            kind=PROVED, elapsed=expansion.elapsed, stats=expansion.stats
        )
    elif not expansion.splittable:
        # A lone depth-2 child may share the slice's environment, voiding
        # the disjointness argument; leave the original to finish.
        slot.unstealable.add(sub_pos)
        return
    else:
        group = _StealGroup(expansion)
        slot.groups[sub_pos] = group
        width = _frontier_width(state.unit.task)
        for steal_idx, child in enumerate(expansion.entries):
            group.tickets.append(
                submit(
                    state, slot,
                    WorkItem(task, (child,), None, spec_fp=state.spec_fp),
                    root_pos, sub_pos, steal_idx,
                    predicted=_predicted_subtree(width, child),
                )
            )
        return
    # The in-process expansion settled the slice outright: retire the
    # original shard and see whether the root or unit is now decided.
    cancel_ticket(ticket)
    if try_finalize(state):
        sink.offer(state.index, state.final)
    else:
        cancel_if_decided(state, root_pos)


def verify_sharded(
    task: VerificationTask,
    *,
    n_workers: int | None = None,
    budget_s: float | None = None,
    subroot: str = "auto",
    backend=None,
    rebalance: bool = True,
) -> Outcome:
    """Verify one task, its secret-pair roots sharded across workers.

    The one-task convenience wrapper over :func:`run_campaign`; the BOOM
    attack hunt uses it to parallelize each exclusion round, and the
    Fig. 2 sweep points rely on its sub-root splitting (a single root's
    subtree dominates them -- root sharding alone cannot help).
    ``backend`` accepts the same values as :func:`run_campaign`,
    including a live (reusable) ``SocketClusterBackend``.
    """
    unit = CampaignUnit(experiment="task", key=("task",), task=task)
    [result] = run_campaign(
        [unit],
        n_workers=n_workers,
        budget_s=budget_s,
        subroot=subroot,
        backend=backend,
        rebalance=rebalance,
    )
    return result.outcome
