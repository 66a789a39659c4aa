"""The explicit-state search engine.

One :class:`Explorer` checks one product (design under verification)
against one encoding space and a set of secret-pair roots.  The search is
a depth-first traversal of the product transition system with:

- **lazy program concretization**: a symbolic instruction-memory slot is
  enumerated only when some machine actually fetches it; programs sharing
  a prefix share the whole search subtree up to the first difference.
- **shared predictor oracle**: nondeterministic branch predictions are
  free inputs keyed by ``(pc, occurrence)`` and shared by both copies.
- **visited-state closure**: product snapshots are canonical (sequence
  numbers rebased), so revisited states -- including those of looping
  programs -- are cut off.  An exhausted frontier is an unbounded proof
  over the modeled domain.
- **wall-clock budget**: exceeding it yields the paper's third outcome,
  timeout.
- **seeded frontiers**: :meth:`Explorer.expand_root` enumerates a root's
  first-cycle children (independent subtrees -- see
  :class:`RootExpansion`) and :meth:`Explorer.run_seeded` searches one
  such slice, the shard boundary ``repro.campaign`` uses to parallelize
  *inside* a single-root proof.

Hot-path engineering (the state engine)
---------------------------------------
The DFS expands hundreds of thousands of states per proof, so the state
handling is deliberately tuned; the frozen pre-overhaul engine lives in
:mod:`repro.mc.legacy` and the equivalence suite pins the two bit-equal:

- **Interned, fingerprinted snapshots**: every product snapshot is
  hash-consed through an :class:`repro.mc.intern.InternTable`.  Visited
  keys carry the table's small integer id instead of the deep nested
  tuple (hashed once at interning time, never re-walked), duplicate
  snapshots collapse onto one canonical object, and identity against
  that canonical object tells the engine when the product *already*
  embodies a popped state.
- **Restore discipline**: each expanded child costs exactly one
  ``restore`` + ``step_cycle``.  The historical engine restored once at
  choice-enumeration start and again per child; now fetch requests are
  read once per node, the first child steps straight off the node's
  restored state, and a node popped right after its own snapshot was
  taken (the common DFS descent) skips the node restore entirely.
- **Cross-root visited sharing** (``shared_visited=True``, opt-in):
  orientation-symmetric secret-pair roots -- ``(A, B)`` vs ``(B, A)``,
  the ordered reading of the paper's Eq. (1) quantifier -- explore
  mirror-image subtrees.  In shared mode visited keys canonicalize to a
  root-independent form (dmem pair sorted, machine copies swapped via
  the product's ``mirror_snapshot``), so the mirror root's subtree
  dedupes against work already done.  Verdicts are preserved (the
  product is symmetric under copy swap); explored-state counts may
  legitimately shrink, which is the point.  An optional cross-process
  :class:`repro.mc.shared_filter.SharedVisitedFilter` extends the same
  sharing across the worker processes of one campaign unit.

Default mode stays bit-identical to the historical engine: verdicts,
counterexamples and ``SearchStats`` alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.obs import clock
from repro.events import FetchBundle
from repro.isa.encoding import EncodingSpace
from repro.isa.instruction import HALT, Opcode
from repro.mc.env import Environment
from repro.mc.intern import InternTable, deep_sizeof, stable_fingerprint
from repro.mc.packed import PackedCodec, resolve_engine
from repro.mc.result import (
    ATTACK,
    PROVED,
    TIMEOUT,
    Counterexample,
    Outcome,
    SearchStats,
)

#: How many expansions between wall-clock (and cancel-probe) checks.
_CLOCK_STRIDE = 128

#: How many expanded states one ``engine.wave`` trace span covers.  Only
#: consulted when a recorder is installed (one ``is not None`` branch per
#: expansion otherwise), and wide enough that the two clock reads per
#: span disappear against ~1024 product steps.
_WAVE_STRIDE = 1024

#: ``note`` of the outcome a search returns when its cancel probe fired:
#: a truncated timeout whose stats are the states it actually executed.
#: The campaign never merges one (it only cancels work it has dropped).
CANCEL_NOTE = "cancelled mid-search"

#: The running shard's cancel probe: a zero-argument callable that turns
#: true once the shard's campaign has cancelled it, or ``None`` -- always
#: ``None`` outside a worker-pool child, so the serial path never pays
#: for it (see :func:`repro.campaign.backends.specs.execute_envelope`).
_CANCEL_PROBE = None


def install_cancel_probe(probe):
    """Make ``probe`` this process's cancel probe; returns the previous one.

    Every :class:`_Budget` built while it is installed (every search the
    shard runs) reads it once per ``_CLOCK_STRIDE`` expansions.
    """
    global _CANCEL_PROBE
    previous, _CANCEL_PROBE = _CANCEL_PROBE, probe
    return previous


@dataclass(frozen=True)
class SearchLimits:
    """Resource budget for one verification task.

    The paper uses a 7-day timeout on a Xeon server; these are the
    laptop-scale equivalents.  ``max_states`` is a safety net for test
    environments; ``None`` disables a limit.

    ``deadline`` is an *absolute* ``time.monotonic()`` instant shared by
    every task of a campaign (``repro.campaign``): the scheduler stamps it
    on each subtask it dispatches so that one shared wall-clock budget
    cancels in-flight searches across worker processes (``CLOCK_MONOTONIC``
    is system-wide on the platforms we support).  ``timeout_s`` remains the
    per-task relative budget; whichever expires first wins.
    """

    timeout_s: float | None = None
    max_states: int | None = None
    deadline: float | None = None


@dataclass(frozen=True)
class Root:
    """One initial-condition root: a pair of memories differing in secrets."""

    label: str
    dmem_pair: tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class FrontierEntry:
    """One seeded search node: a first-cycle child of a root.

    Everything a worker needs to resume the DFS below this node --
    resolved environment, canonical product snapshot, absolute depth --
    is plain data, so entries pickle across process boundaries.
    """

    env: Environment
    snap: tuple
    depth: int


@dataclass(frozen=True)
class RootExpansion:
    """The first-cycle expansion of one root: the sub-root shard plan.

    The first cycle's nondeterministic choices (instructions for the
    slots fetched this cycle, predictor bits for new branches) partition
    the root's DFS into independent subtrees: every surviving child's
    environment strictly extends the root environment with a *different*
    assignment, environments only ever grow along a path, and visited
    keys embed the environment -- so two children's subtrees can never
    share a state, and none can revisit the root.  Searching the children
    separately (:meth:`Explorer.run_seeded`) and merging in serial LIFO
    order reproduces the monolithic search bit for bit.

    ``decided`` is non-``None`` when the expansion itself settled the
    root: an attack found on a first-cycle transition, or the budget
    expiring at the root state.  ``stats``/``elapsed`` are the prelude
    the merge must add on top of the children's outcomes: the root state
    itself plus every first-cycle transition (the serial engine completes
    the whole expansion before descending).
    """

    decided: Outcome | None
    stats: SearchStats
    elapsed: float
    entries: tuple[FrontierEntry, ...]

    @property
    def splittable(self) -> bool:
        """Whether per-child shards are sound and worthwhile.

        With fewer than two children there is nothing to parallelize --
        and a lone child may share the root's environment (nothing was
        concretized), voiding the subtree-disjointness argument.
        """
        return self.decided is None and len(self.entries) >= 2


class _Budget:
    """Tracks elapsed time / state count / cancellation against the limits.

    ``note`` is :data:`CANCEL_NOTE` once the cancel probe captured at
    construction has fired, ``None`` otherwise; searches stamp it on
    their timeout outcome.
    """

    def __init__(self, limits: SearchLimits):
        self.limits = limits
        self.start = clock.monotonic()
        self._tick = 0
        self._probe = _CANCEL_PROBE
        self._strided = limits.timeout_s is not None or self._probe is not None
        self.note: str | None = None

    def elapsed(self) -> float:
        return clock.monotonic() - self.start

    def exhausted(self, states: int) -> bool:
        limits = self.limits
        if limits.max_states is not None and states >= limits.max_states:
            return True
        # The absolute campaign deadline is checked on *every* expansion
        # (one comparison): shards share it across worker processes, and a
        # strided check would let each shard overrun it by an unbounded
        # amount of work per tick window.  The ``>=`` boundary matches the
        # scheduler's pre-run check (``scheduler._run_shard``).
        if limits.deadline is not None and clock.monotonic() >= limits.deadline:
            return True
        if not self._strided:
            return False
        # The relative per-task budget keeps the strided check: it is not
        # shared with anyone, so overrunning it by a tick window is benign.
        # So does the cancel probe: a cancelled shard's result is dropped.
        self._tick += 1
        if self._tick % _CLOCK_STRIDE:
            return False
        if self._probe is not None and self._probe():
            self.note = CANCEL_NOTE
            return True
        timeout_s = limits.timeout_s
        return timeout_s is not None and clock.monotonic() - self.start > timeout_s


class Explorer:
    """Depth-first explicit-state search over one product."""

    def __init__(
        self,
        product,
        space: EncodingSpace,
        roots: list[Root],
        limits: SearchLimits = SearchLimits(),
        *,
        shared_visited: bool = False,
        visited_filter=None,
        engine: str = "auto",
    ):
        """Build a search engine over one product.

        ``shared_visited`` switches visited keys to the root-canonical
        (mirror-folded) form so orientation-symmetric roots share subtree
        work; verdict kinds are preserved, state counts may shrink (see
        the module docstring).  ``visited_filter`` optionally plugs a
        :class:`repro.mc.shared_filter.SharedVisitedFilter` in on top, so
        the sharing crosses worker-process boundaries; it is consulted
        only when ``shared_visited`` is on.

        ``engine`` selects the state engine the DFS runs on:
        ``"object"`` (nested-tuple snapshots), ``"packed"`` (flat
        tagged-word ``bytes``; see :mod:`repro.mc.packed`), ``"vector"``
        (memoized stepping over interned product states; see
        :mod:`repro.mc.vector`), or ``"auto"`` -- vector when the
        product's capability flags allow it and visited sharing is off,
        degrading to packed and then object otherwise, overridable via
        ``REPRO_MC_ENGINE``.  All engines explore bit-identically
        (pinned by ``tests/mc/test_engine_equivalence.py``); the choice
        only moves the per-state cost.
        """
        self.product = product
        self.space = space
        self.roots = roots
        self.limits = limits
        self.universe = space.instructions()
        self.shared_visited = shared_visited
        self.visited_filter = visited_filter
        self.engine = resolve_engine(engine, product, shared_visited)
        self._codec = PackedCodec(product) if self.engine == "packed" else None
        if self.engine == "vector":
            # Lazy import: the vector engine imports repro.core, whose
            # package imports this module.
            from repro.mc.vector import VectorEngine

            self._vector = VectorEngine(product)
        else:
            self._vector = None
        self._intern = InternTable()
        self._last_visited: set | None = None
        # Root canonicalization for shared mode: sort each root's memory
        # pair; a flipped pair means states mirror (machine copies swap)
        # before keying.  Products without mirror support simply never
        # fold, which degrades sharing but stays sound.
        self._mirror = getattr(product, "mirror_snapshot", None)
        canon_pairs: list[tuple] = []
        mirrored: list[bool] = []
        canon_ids: list[int] = []
        pair_ids: dict[tuple, int] = {}
        for root in roots:
            first, second = root.dmem_pair
            if self._mirror is not None and second < first:
                pair, flip = (second, first), True
            else:
                pair, flip = (first, second), False
            canon_pairs.append(pair)
            mirrored.append(flip)
            canon_ids.append(pair_ids.setdefault(pair, len(pair_ids)))
        self._canon_pairs = canon_pairs
        self._mirrored = mirrored
        self._canon_ids = canon_ids

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self) -> Outcome:
        """Search every root; return proof, first attack, or timeout."""
        stack: list[tuple] = []
        imem_size = self.product.params.imem_size
        vec = self._vector
        if vec is not None:
            for root_index, root in enumerate(self.roots):
                vec.select_root(root)
                env = Environment.empty(imem_size)
                stack.append(vec.seed_node(root_index, env, vec.capture(), 0))
            return self._searched(stack, vector=True)
        codec = self._codec
        snapshot = codec.snapshot if codec is not None else self.product.snapshot
        for root_index, root in enumerate(self.roots):
            self.product.reset(root.dmem_pair)
            env = Environment.empty(imem_size)
            snap, kref, sid = self._intern_state(root_index, snapshot())
            stack.append((root_index, env, snap, kref, sid, 0))
        return self._searched(stack, vector=False)

    def run_seeded(self, entries: Sequence[FrontierEntry]) -> Outcome:
        """Search a slice of the (single) root's first-cycle frontier.

        The sub-root shard entry point: instead of the bare root, the DFS
        starts from the given frontier entries (pushed in order, so the
        LIFO stack explores the *last* entry first, exactly as the serial
        engine explores a root's children).  The caller owns the serial
        merge: prelude stats from :meth:`expand_root` plus per-entry
        outcomes in reversed entry order.
        """
        if len(self.roots) != 1:
            raise ValueError("seeded search requires exactly one root")
        stack = []
        vec = self._vector
        if vec is not None:
            # Entries carry object-engine snapshots; replay each into the
            # live product (canonical frame by construction) and intern
            # the resulting state as dense ids.
            vec.select_root(self.roots[0])
            for entry in entries:
                self.product.restore(entry.snap)
                stack.append(vec.seed_node(0, entry.env, vec.capture(), entry.depth))
            return self._searched(stack, vector=True)
        codec = self._codec
        if codec is not None:
            # Frontier entries carry object-engine snapshots (the shard
            # plan crosses process boundaries in that form); re-encode
            # them through the live product before seeding.
            self.product.reset(self.roots[0].dmem_pair)
        for entry in entries:
            raw = entry.snap if codec is None else codec.encode(entry.snap)
            snap, kref, sid = self._intern_state(0, raw)
            stack.append((0, entry.env, snap, kref, sid, entry.depth))
        return self._searched(stack, vector=False)

    def expand_root(self) -> RootExpansion:
        """Expand the (single) root's first cycle; the sub-root planner.

        Mirrors the first iteration of :meth:`run` exactly: pop the root
        state, charge the budget, run every first-cycle choice through the
        product, and collect the surviving children as frontier entries in
        yield order.
        """
        [root] = self.roots
        imem_size = self.product.params.imem_size
        env = Environment.empty(imem_size)
        self.product.reset(root.dmem_pair)
        return self._expand_node(root, env, self.product.snapshot(), 0)

    def expand_entry(self, entry: FrontierEntry) -> RootExpansion:
        """Expand one frontier entry one more cycle; the depth-2 planner.

        The work-stealing rebalance (:mod:`repro.campaign.scheduler`)
        re-splits a dominant sub-root slice into its children's subtrees
        with this: the independence argument of :class:`RootExpansion`
        recurses verbatim (>= 2 surviving children means the cycle
        concretized at least one slot or predictor bit, so the children's
        environments conflict and their subtrees stay disjoint forever).
        Stats mirror the serial engine visiting the entry node at its
        absolute ``depth``: the prelude carries ``max_depth = depth``,
        children start at ``depth + 1``, so ``prelude + merged children``
        is bit-identical to :meth:`run_seeded` on the whole entry.
        """
        [root] = self.roots
        self.product.reset(root.dmem_pair)
        self.product.restore(entry.snap)
        return self._expand_node(root, entry.env, entry.snap, entry.depth)

    def _expand_node(
        self, root: Root, env: Environment, snap: tuple, depth: int
    ) -> RootExpansion:
        """One-cycle expansion of a node the product currently embodies."""
        budget = _Budget(self.limits)
        transitions = pruned = 0
        prune_reasons: dict[str, int] = {}
        if budget.exhausted(1):
            stats = SearchStats(1, 0, 0, depth, {})
            decided = Outcome(kind=TIMEOUT, elapsed=budget.elapsed(), stats=stats)
            return RootExpansion(decided, stats, budget.elapsed(), ())
        entries: list[FrontierEntry] = []
        requests = self.product.fetch_requests()
        stepped = False
        for child_env, bundles in self._choices(env, requests):
            if stepped:
                self.product.restore(snap)
            stepped = True
            result = self.product.step_cycle(bundles)
            transitions += 1
            if result.pruned:
                pruned += 1
                reason = result.reason or "assume"
                prune_reasons[reason] = prune_reasons.get(reason, 0) + 1
                continue
            if result.failed:
                stats = SearchStats(1, transitions, pruned, depth, prune_reasons)
                cex = Counterexample(
                    root_label=root.label,
                    dmem_pair=root.dmem_pair,
                    env=child_env,
                    depth=depth + 1,
                    reason=result.reason or "leakage",
                )
                decided = Outcome(
                    kind=ATTACK,
                    elapsed=budget.elapsed(),
                    stats=stats,
                    counterexample=cex,
                )
                return RootExpansion(decided, stats, budget.elapsed(), ())
            if self.product.quiescent():
                continue
            entries.append(
                FrontierEntry(child_env, self.product.snapshot(), depth + 1)
            )
        stats = SearchStats(1, transitions, pruned, depth, prune_reasons)
        return RootExpansion(None, stats, budget.elapsed(), tuple(entries))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def visited_footprint(self) -> tuple[int, int]:
        """(key count, approx deep bytes) of the last run's visited state.

        Counts the visited keys *and* the intern table backing them, so
        the number is comparable to the legacy engine's deep-tuple
        visited set (``repro.mc.legacy``).  Shared substructure counts
        once -- which is exactly the saving hash-consing buys.
        """
        if self._vector is not None:
            return self._vector.footprint()
        visited = self._last_visited if self._last_visited is not None else set()
        seen: set[int] = set()
        total = deep_sizeof(visited, seen)
        total += self._intern.approx_bytes(seen)
        return len(visited), total

    # ------------------------------------------------------------------
    # The DFS core
    # ------------------------------------------------------------------
    def _searched(self, stack: list[tuple], *, vector: bool) -> Outcome:
        """Run the DFS, wrapped in an ``engine.search`` trace span.

        With no recorder installed this is one ``None`` check on top of
        the search itself.  When tracing, the span carries the resolved
        engine, the verdict kind and the state count, and the recorder's
        counters absorb the engine's memo/visited sizes -- the numbers
        :meth:`visited_footprint` would deep-walk for, at ``len`` cost.
        """
        search = self._search_vector if vector else self._search
        rec = obs.recorder()
        if rec is None:
            return search(stack)
        with rec.span("engine.search", engine=self.engine) as sp:
            outcome = search(stack)
            # A real (stacked) span, not a pre-timed one, so the wave
            # spans recorded inside the search nest under it.
            sp.set(kind=outcome.kind, states=outcome.stats.states)
        rec.count("engine.states", outcome.stats.states)
        rec.count("engine.transitions", outcome.stats.transitions)
        vec = self._vector
        if vec is not None:
            rec.count("engine.visited", len(vec.visited))
            rec.count("engine.memo_entries", len(vec._expand_memo))
        elif self._last_visited is not None:
            rec.count("engine.visited", len(self._last_visited))
        return outcome

    def _intern_state(self, root_index: int, raw_snap: tuple):
        """Hash-cons one snapshot; returns (canonical, key snapshot, id).

        In shared mode the key snapshot of a flipped root is the mirror
        image (machine copies swapped), interned in the same table so
        mirror states of paired roots collapse onto one id.
        """
        snap, sid = self._intern.intern(raw_snap)
        kref = snap
        if (
            self.shared_visited
            and self._mirror is not None
            and self._mirrored[root_index]
        ):
            kref, sid = self._intern.intern(self._mirror(snap))
        return snap, kref, sid

    def _search(self, stack: list[tuple]) -> Outcome:
        """The DFS loop over an already-seeded stack."""
        budget = _Budget(self.limits)
        product = self.product
        codec = self._codec
        restore = codec.restore if codec is not None else product.restore
        step_cycle = product.step_cycle
        quiescent = product.quiescent
        snapshot = codec.snapshot if codec is not None else product.snapshot
        fetch_requests = product.fetch_requests
        intern_state = self._intern_state
        choices = self._choices
        shared = self.shared_visited
        vfilter = self.visited_filter if shared else None
        canon_ids = self._canon_ids
        if vfilter is not None:
            # Component fingerprints are cached by object identity: kref
            # objects are interned canonicals and env objects live in
            # visited keys, so both stay alive (ids stable) and repeat
            # across many states -- without the cache every expansion
            # would re-pickle the full deep snapshot, reintroducing the
            # per-state walk interning exists to avoid.
            pair_fps = [stable_fingerprint(pair) for pair in self._canon_pairs]
            env_fps: dict[int, int] = {}
            snap_fps: dict[int, int] = {}
        visited: set = set()
        self._last_visited = visited
        states = transitions = pruned = max_depth = 0
        prune_reasons: dict[str, int] = {}
        # Per-wave trace spans: one pre-timed span per _WAVE_STRIDE
        # expansions (see _searched); a single branch per pop when off.
        rec = obs.recorder()
        engine = self.engine
        wave_t0 = 0.0 if rec is None else clock.monotonic()
        # Data memories are *not* part of machine snapshots (they are
        # constant along a root's subtree), so the product must be re-reset
        # whenever the search crosses into a different root's subtree.
        active_root: int | None = None
        # The snapshot object (canonical, so identity suffices) the
        # product currently embodies; ``None`` when unknown.  Lets the
        # engine skip the node restore on the common DFS descent, where
        # the popped node is exactly the child just stepped into.
        current = None
        while stack:
            node = stack.pop()
            if vfilter is not None and len(node) == 1:
                # Post-order completion marker: every descendant of the
                # fingerprinted state has been popped and fully explored
                # (a search that ends early returns before reaching the
                # marker), so the subtree is now safe for sibling shards
                # to skip (see repro.mc.shared_filter's soundness note).
                vfilter.add(node[0])
                continue
            root_index, env, snap, kref, sid, depth = node
            if shared:
                key = (canon_ids[root_index], env, sid)
            else:
                key = (root_index, env, sid)
            if key in visited:
                continue
            if vfilter is not None:
                # The memo keys below are id()-based on purpose: they
                # never leave this process (the *values* they cache are
                # the process-independent fingerprints that do), and the
                # keyed objects are interned canonicals / visited-key
                # residents whose ids stay valid for the whole search.
                env_key = id(env)  # repro: allow[determinism] process-local memo key; only the cached fingerprint crosses processes
                env_fp = env_fps.get(env_key)
                if env_fp is None:
                    env_fp = stable_fingerprint((env.imem, env.preds))
                    env_fps[env_key] = env_fp
                kref_key = id(kref)  # repro: allow[determinism] process-local memo key; kref is an interned canonical kept alive by the visited set
                kref_fp = snap_fps.get(kref_key)
                if kref_fp is None:
                    kref_fp = stable_fingerprint(kref)
                    snap_fps[kref_key] = kref_fp
                fingerprint = stable_fingerprint(
                    (pair_fps[root_index], env_fp, kref_fp)
                )
                if fingerprint in vfilter:
                    # Another shard of this unit completed the subtree;
                    # no attack hides in it (see repro.mc.shared_filter).
                    visited.add(key)
                    continue
                # Inserted only on subtree completion: push the marker
                # *under* the children so it pops after all of them.
                stack.append((fingerprint,))
            visited.add(key)
            if root_index != active_root:
                product.reset(self.roots[root_index].dmem_pair)
                active_root = root_index
                current = None
            states += 1
            if rec is not None and not states % _WAVE_STRIDE:
                now = clock.monotonic()
                rec.add_span(
                    "engine.wave", wave_t0, now,
                    engine=engine, states=_WAVE_STRIDE,
                )
                wave_t0 = now
            if depth > max_depth:
                max_depth = depth
            if budget.exhausted(states):
                stats = SearchStats(
                    states, transitions, pruned, max_depth, prune_reasons,
                    0 if vfilter is None else vfilter.dropped,
                )
                return Outcome(
                    kind=TIMEOUT, elapsed=budget.elapsed(), stats=stats,
                    note=budget.note,
                )
            if snap is not current:
                restore(snap)
            requests = fetch_requests()
            stepped = False
            for child_env, bundles in choices(env, requests):
                if stepped:
                    restore(snap)
                stepped = True
                current = None  # stepping leaves the node state
                result = step_cycle(bundles)
                transitions += 1
                if result.pruned:
                    pruned += 1
                    reason = result.reason or "assume"
                    prune_reasons[reason] = prune_reasons.get(reason, 0) + 1
                    continue
                if result.failed:
                    stats = SearchStats(
                        states, transitions, pruned, max_depth, prune_reasons,
                        0 if vfilter is None else vfilter.dropped,
                    )
                    cex = Counterexample(
                        root_label=self.roots[root_index].label,
                        dmem_pair=self.roots[root_index].dmem_pair,
                        env=child_env,
                        depth=depth + 1,
                        reason=result.reason or "leakage",
                    )
                    return Outcome(
                        kind=ATTACK,
                        elapsed=budget.elapsed(),
                        stats=stats,
                        counterexample=cex,
                    )
                if quiescent():
                    continue  # terminal OK state
                child_snap, child_kref, child_id = intern_state(
                    root_index, snapshot()
                )
                current = child_snap  # the product embodies the child now
                stack.append(
                    (root_index, child_env, child_snap, child_kref, child_id,
                     depth + 1)
                )
            if not stepped:
                current = snap  # no choices fired; still at the node
        stats = SearchStats(
            states, transitions, pruned, max_depth, prune_reasons,
            0 if vfilter is None else vfilter.dropped,
        )
        return Outcome(kind=PROVED, elapsed=budget.elapsed(), stats=stats)

    def _search_vector(self, stack: list[tuple]) -> Outcome:
        """The DFS loop on the vector engine (:mod:`repro.mc.vector`).

        Accounting is line-for-line the serial :meth:`_search` loop --
        same visited-before-budget order, same prune/attack bookkeeping,
        same ``SearchStats`` -- with two representation swaps: stack
        nodes are ``(visited key, env, depth, state)`` with the root
        index in the key's top bits, and product cycles replay through
        the engine's memo tables instead of restore + ``step_cycle``.
        A node's expansion memoizes as a *summary*: the counter deltas
        fold once at record time (a replay bumps ``transitions`` /
        ``pruned`` in one add instead of re-walking pruned and quiescent
        records), and only the surviving children and a possible
        terminal attack keep their environment deltas.  Shared visited
        mode never reaches here -- ``resolve_engine`` degrades
        ``vector`` away when sharing is on -- so there is no
        cross-process filter branch to mirror.
        """
        from repro.mc.vector import ROOT_SHIFT, visited_key

        budget = _Budget(self.limits)
        vec = self._vector
        visited = vec.visited
        expansion_key = vec.expansion_key
        expand_memo = vec._expand_memo
        memo_get = expand_memo.get
        transition = vec.transition
        push_wave = vec.push_wave
        choices = self._choices
        roots = self.roots
        visited_add = visited.add
        env_ids = vec._env_ids
        env_setdefault = env_ids.setdefault
        key_of = visited_key
        stack_append = stack.append
        exhausted = _Budget.exhausted
        states = transitions = pruned = max_depth = 0
        prune_reasons: dict[str, int] = {}
        # Per-wave trace spans, mirroring _search (one branch per pop
        # when tracing is off).
        rec = obs.recorder()
        wave_t0 = 0.0 if rec is None else clock.monotonic()
        # Data memories are not part of the interned machine words (they
        # are constant along a root's subtree), so crossing into another
        # root's subtree re-resets the product and rebinds the engine's
        # per-memory memo tables.
        active_root: int | None = None
        while stack:
            key, env, depth, state = stack.pop()
            if key in visited:
                continue
            visited_add(key)
            root_index = key >> ROOT_SHIFT
            if root_index != active_root:
                vec.select_root(roots[root_index])
                active_root = root_index
            states += 1
            if rec is not None and not states % _WAVE_STRIDE:
                now = clock.monotonic()
                rec.add_span(
                    "engine.wave", wave_t0, now,
                    engine="vector", states=_WAVE_STRIDE,
                )
                wave_t0 = now
            if depth > max_depth:
                max_depth = depth
            if exhausted(budget, states):
                stats = SearchStats(
                    states, transitions, pruned, max_depth, prune_reasons, 0
                )
                return Outcome(
                    kind=TIMEOUT, elapsed=budget.elapsed(), stats=stats,
                    note=budget.note,
                )
            node_key, requests = expansion_key(state, env)
            summary = memo_get(node_key)
            if summary is None:
                # Memo miss: enumerate choices for real, with the serial
                # loop's exact accounting, while folding the expansion
                # into a summary.  An attack truncates the summary at
                # the failing record -- sound, because a replay fails at
                # the same point with identical counter deltas and never
                # needs the missing tail.
                n_trans = n_pruned = 0
                reasons: dict[str, int] = {}
                pushes: list[tuple] = []
                children: list[tuple] = []
                for child_env, bundles, slots, preds in choices(
                    env, requests, deltas=True
                ):
                    was_pruned, failed, reason, child, quiescent = transition(
                        state, bundles
                    )
                    n_trans += 1
                    transitions += 1
                    if was_pruned:
                        n_pruned += 1
                        pruned += 1
                        reason = reason or "assume"
                        reasons[reason] = reasons.get(reason, 0) + 1
                        prune_reasons[reason] = prune_reasons.get(reason, 0) + 1
                        continue
                    if failed:
                        reason = reason or "leakage"
                        expand_memo[node_key] = (
                            n_trans, n_pruned, tuple(reasons.items()),
                            (), (slots, preds, reason),
                        )
                        stats = SearchStats(
                            states, transitions, pruned, max_depth,
                            prune_reasons, 0,
                        )
                        cex = Counterexample(
                            root_label=roots[root_index].label,
                            dmem_pair=roots[root_index].dmem_pair,
                            env=child_env,
                            depth=depth + 1,
                            reason=reason,
                        )
                        return Outcome(
                            kind=ATTACK,
                            elapsed=budget.elapsed(),
                            stats=stats,
                            counterexample=cex,
                        )
                    if quiescent:
                        continue  # terminal OK state
                    pushes.append((slots, preds, child))
                    children.append((child_env, child))
                expand_memo[node_key] = (
                    n_trans, n_pruned, tuple(reasons.items()), pushes, None,
                )
                push_wave(root_index, depth + 1, children, stack)
                continue
            # Memo hit: replay the summary.  Counter deltas land in one
            # add each; child environments rebuild only where the search
            # actually consumes them (a pushed child or a
            # counterexample), exactly like the serial loop's
            # statistics.
            n_trans, n_pruned, reasons_items, pushes, attack = summary
            transitions += n_trans
            if n_pruned:
                pruned += n_pruned
                for reason, count in reasons_items:
                    prune_reasons[reason] = prune_reasons.get(reason, 0) + count
            if attack is not None:
                slots, preds, reason = attack
                child_env = env
                if slots is not None:
                    child_env = child_env.with_slots(slots)
                if preds is not None:
                    child_env = child_env.with_predictions(preds)
                stats = SearchStats(
                    states, transitions, pruned, max_depth, prune_reasons, 0
                )
                cex = Counterexample(
                    root_label=roots[root_index].label,
                    dmem_pair=roots[root_index].dmem_pair,
                    env=child_env,
                    depth=depth + 1,
                    reason=reason,
                )
                return Outcome(
                    kind=ATTACK,
                    elapsed=budget.elapsed(),
                    stats=stats,
                    counterexample=cex,
                )
            # The same push :meth:`repro.mc.vector.VectorEngine.push_wave`
            # performs, inlined without the call and re-binding overhead.
            depth1 = depth + 1
            for slots, preds, child in pushes:
                child_env = env
                if slots is not None:
                    child_env = child_env.with_slots(slots)
                if preds is not None:
                    child_env = child_env.with_predictions(preds)
                env_id = env_setdefault(child_env, len(env_ids))
                stack_append(
                    (key_of(root_index, env_id, child), child_env, depth1, child)
                )
        stats = SearchStats(
            states, transitions, pruned, max_depth, prune_reasons, 0
        )
        return Outcome(kind=PROVED, elapsed=budget.elapsed(), stats=stats)

    # ------------------------------------------------------------------
    # Nondeterministic-choice enumeration
    # ------------------------------------------------------------------
    def _choices(self, env: Environment, requests, deltas: bool = False):
        """Yield (extended environment, fetch bundles) for one cycle.

        Branches over (a) instructions for symbolic slots fetched this
        cycle and (b) predictor-oracle bits for newly predicted branches.
        The caller reads ``requests`` off the restored node state once;
        this generator never touches the product, so the search loop owns
        the restore discipline.  Yield order is bit-identical to the
        legacy engine's (the equivalence contract).

        With ``deltas`` the yield grows to ``(env, bundles, slot map,
        prediction map)`` -- the exact extension dicts applied to the
        node environment (``None`` where nothing was concretized).  The
        vector engine records these on a node-memo miss so a later hit
        can rebuild every child environment without re-enumerating
        choices (:meth:`_search_vector`).
        """
        n_slots = len(self.product.machines)
        imem = env.imem
        # A fetch PC is enumerable only inside the modeled instruction
        # memory; ``len(env.imem)`` additionally guards seeded frontiers
        # whose environment models a smaller memory than the product's
        # parameters claim.  Everything else -- a wrapped or overflowed PC
        # from a mispredicted fetch included -- reads as ``HALT``, exactly
        # like running off the end of the program.
        imem_size = min(self.product.params.imem_size, len(imem))
        open_pcs = sorted(
            {
                req.pc
                for req in requests
                if 0 <= req.pc < imem_size and imem[req.pc] is None
            }
        )
        iproduct = itertools.product
        branch_op = Opcode.BRANCH
        for insts in iproduct(self.universe, repeat=len(open_pcs)):
            if open_pcs:
                slot_map = dict(zip(open_pcs, insts))
                env_i = env.with_slots(slot_map)
            else:
                slot_map = None
                env_i = env
            imem_i = env_i.imem
            prediction = env_i.prediction
            # Which fetches need a fresh predictor-oracle bit?
            open_keys: list[tuple[int, int]] = []
            for req in requests:
                pc = req.pc
                if 0 <= pc < imem_size:
                    inst = imem_i[pc]
                    if inst is None:
                        inst = HALT
                else:
                    inst = HALT
                if inst.op is not branch_op or req.predictor != "nondet":
                    continue
                key = (pc, req.occurrence)
                if prediction(key) is None and key not in open_keys:
                    open_keys.append(key)
            bit_sets = (
                iproduct((False, True), repeat=len(open_keys))
                if open_keys
                else ((),)
            )
            for bits in bit_sets:
                if open_keys:
                    pred_map_delta = dict(zip(open_keys, bits))
                    env_ip = env_i.with_predictions(pred_map_delta)
                else:
                    pred_map_delta = None
                    env_ip = env_i
                # Direct oracle access (the dict behind env.prediction):
                # this loop runs once per transition of the whole search.
                pred_map = env_ip._pred_map
                bundles: list[FetchBundle | None] = [None] * n_slots
                for req in requests:
                    pc = req.pc
                    if 0 <= pc < imem_size:
                        inst = imem_i[pc]
                        if inst is None:
                            inst = HALT
                    else:
                        inst = HALT
                    predictor = req.predictor
                    if inst.op is not branch_op or predictor == "none":
                        taken = None
                    elif predictor == "taken":
                        taken = True
                    elif predictor == "not_taken":
                        taken = False
                    else:
                        taken = pred_map[(pc, req.occurrence)]
                    bundles[req.slot] = FetchBundle(pc, inst, taken)
                if deltas:
                    yield env_ip, bundles, slot_map, pred_map_delta
                else:
                    yield env_ip, bundles
