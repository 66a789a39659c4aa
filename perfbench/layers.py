"""Per-layer costs, timed from outside the program.

:func:`install` replaces each layer's public calls (listed in
:func:`_targets`) with wrappers that count the call and time it.  The
program itself is not changed: classes are patched in place, and a
function a caller imported by name is patched in the caller's module.

Each process keeps a stack of open timed calls, so a call's *self* time
(its duration minus the timed calls nested inside it) is known when it
returns.  Values accumulate in a per-process table that is flushed
through :func:`repro.obs.count` whenever the outermost timed call of the
process returns.  Pool children are forked after :func:`install`, run
each shard under the recorder ``execute_envelope`` installs, and so ship
their values home in the shard's ``TracedOutcome`` batch.

On the fuzz workload every product step inside ``run_trace`` is also
keyed by (product snapshot, fetch bundles) to measure how often the
oracle repeats a step.  That probe is tracing overhead: its time is
charged to ``self.obs`` and kept out of every other layer's figures.
"""

from __future__ import annotations

import os
import pickle
from time import perf_counter

from perfbench.catalog import PER_LAYER
from repro import obs

#: Open timed calls of this process: [child seconds, hidden seconds].
_STACK: list[list[float]] = []
#: Values not yet flushed to the recorder.
_PENDING: dict[str, float] = {}
#: Everything the coordinator process flushed (for ``unattributed_s``).
MAIN: dict[str, float] = {}
_MAIN_PID = os.getpid()
_PAUSED = False
_IN_TRACE = 0
_SEEN_STEPS: set[int] = set()

#: Layers whose self times add up to the attributed part of the wall time.
LAYERS = ("uarch", "core", "mc", "campaign", "fuzz", "obs")


def _add(name: str, value: float) -> None:
    _PENDING[name] = _PENDING.get(name, 0) + value


def _flush() -> None:
    main = os.getpid() == _MAIN_PID
    for name, value in _PENDING.items():
        obs.count(name, value)
        if main:
            MAIN[name] = MAIN.get(name, 0) + value
    _PENDING.clear()


def reset() -> None:
    """Forget everything recorded in this process."""
    _STACK.clear()
    _PENDING.clear()
    MAIN.clear()
    _SEEN_STEPS.clear()


def _reset_child() -> None:
    # A forked child inherits the parent's open calls and pending values;
    # they belong to the parent.
    global _IN_TRACE
    _STACK.clear()
    _PENDING.clear()
    _IN_TRACE = 0


def timed(fn, layer, calls=None, seconds=None, self_seconds=None, after=None, span=None):
    """Wrap ``fn`` as a timed call of ``layer``.

    ``calls`` counts calls, ``seconds`` adds the call's duration and
    ``self_seconds`` its self time; ``after(args, result, seconds)`` may
    add further values; ``span`` also records an ``obs`` span.
    """
    self_key = f"self.{layer}"
    stack, pending = _STACK, _PENDING
    call = fn
    if span is not None:
        def call(*args, **kwargs):
            with obs.span(span):
                return fn(*args, **kwargs)

    def wrapper(*args, **kwargs):
        if _PAUSED:
            return fn(*args, **kwargs)
        frame = [0.0, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            stack.pop()
            child, hidden = frame
            if stack:
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += hidden
            get = pending.get
            pending[self_key] = get(self_key, 0) + (elapsed - child)
            if calls:
                pending[calls] = get(calls, 0) + 1
            if seconds:
                pending[seconds] = get(seconds, 0) + (elapsed - hidden)
            if self_seconds:
                pending[self_seconds] = get(self_seconds, 0) + (elapsed - child)
            if after is None and not stack:
                _flush()
        if after is not None:
            after(args, result, elapsed - hidden)
            if not stack:
                _flush()
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_generator(fn, layer, self_seconds):
    """Wrap a generator function; each resumption is one timed call."""

    def step(gen):
        return next(gen)

    timed_step = timed(step, layer, self_seconds=self_seconds)

    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            try:
                item = timed_step(gen)
            except StopIteration:
                return
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


# ----------------------------------------------------------------------
# ``after`` hooks: values only the call's result or receiver knows
# ----------------------------------------------------------------------
def _after_search(args, outcome, seconds) -> None:
    explorer = args[0]
    scheme = "baseline" if type(explorer.product).__name__ == "BaselineProduct" else "shadow"
    _add(f"mc.search_s.{scheme}", seconds)
    _add(f"mc.states_executed.{scheme}", outcome.stats.states)


def _after_cancel(args, cancelled, seconds) -> None:
    if not cancelled:
        _add("campaign.cancel_misses", 1)


def _after_pool_init(args, result, seconds) -> None:
    backend = args[0]
    MAIN["campaign.capacity"] = max(MAIN.get("campaign.capacity", 0), backend.capacity())


def _after_envelope(args, envelope, seconds) -> None:
    _add("campaign.pickled_bytes", len(pickle.dumps(envelope)))


def _after_trace(args, trace, seconds) -> None:
    _add("fuzz.product_cycles", trace.cycles)
    if trace.verdict == "invalid":
        _add("fuzz.invalid", 1)


def _before_close(close):
    def wrapper(self):
        if not _PAUSED:
            _add("campaign.spec_misses", self.spec_misses)
        return close(self)

    wrapper.__wrapped__ = close
    return wrapper


def _in_trace(run_trace):
    def wrapper(*args, **kwargs):
        global _IN_TRACE
        _IN_TRACE += 1
        try:
            return run_trace(*args, **kwargs)
        finally:
            _IN_TRACE -= 1

    wrapper.__wrapped__ = run_trace
    return wrapper


def _probe_repeats(step_cycle):
    """Key each oracle product step before it runs (fuzz only)."""

    def wrapper(self, bundles):
        global _PAUSED
        if _IN_TRACE and not _PAUSED:
            t0 = perf_counter()
            _PAUSED = True
            try:
                key = hash((self.snapshot(), tuple(bundles)))
            finally:
                _PAUSED = False
            _add("fuzz.probed_steps", 1)
            if key in _SEEN_STEPS:
                _add("fuzz.repeat_steps", 1)
            else:
                _SEEN_STEPS.add(key)
            spent = perf_counter() - t0
            _add("self.obs", spent)
            if _STACK:
                _STACK[-1][0] += spent
                _STACK[-1][1] += spent
        return step_cycle(self, bundles)

    wrapper.__wrapped__ = step_cycle
    return wrapper


def _targets():
    """(owner, attribute, wrapper factory) for every timed call."""
    from repro.campaign.backends import base, process, serial
    from repro.core import products, shadow
    from repro.fuzz import generator, work
    from repro.isa import machine
    from repro.mc import explorer
    from repro.uarch import inorder, ooo_base

    def uarch(calls, seconds):
        return lambda fn: timed(fn, "uarch", calls=calls, seconds=seconds)

    step = uarch("uarch.step_calls", "uarch.step_s")
    state = uarch("uarch.snapshot_restore_calls", "uarch.snapshot_restore_s")
    targets = []
    for cls in (ooo_base.OoOCore, inorder.InOrderCore, machine.IsaMachine):
        targets.append((cls, "step", step))
        for name in ("snapshot", "restore", "snapshot_words", "restore_words"):
            if name in vars(cls):
                targets.append((cls, name, state))
    for cls in (products.ShadowProduct, products.BaselineProduct):
        targets.append(
            (cls, "step_cycle", lambda fn: timed(
                fn, "core", calls="core.product_steps",
                self_seconds="core.product_step_self_s",
            ))
        )
    # Self time, so the product's copy does not count the shadow logic's
    # twice; the vector engine copies the shadow logic on its own.
    copy = lambda fn: timed(fn, "core", self_seconds="core.product_snapshot_restore_s")  # noqa: E731
    for cls in (products.ShadowProduct, products.BaselineProduct, shadow.ContractShadowLogic):
        for name in ("snapshot", "restore", "snapshot_words", "restore_words"):
            if name in vars(cls):
                targets.append((cls, name, copy))
    targets.append((products.ShadowProduct, "step_cycle", _probe_repeats))
    targets.append(
        (shadow.ContractShadowLogic, "on_cycle", lambda fn: timed(
            fn, "core", calls="core.shadow_cycles", seconds="core.shadow_s"
        ))
    )
    for name in ("run", "run_seeded"):
        targets.append(
            (explorer.Explorer, name, lambda fn: timed(
                fn, "mc", seconds="mc.search_s", self_seconds="mc.self_s",
                after=_after_search, span="bench.mc.search",
            ))
        )
    for name in ("expand_root", "expand_entry"):
        targets.append(
            (explorer.Explorer, name, lambda fn: timed(
                fn, "campaign", seconds="campaign.plan_s",
                span="bench.campaign.plan",
            ))
        )
    pool = process.ProcessPoolBackend
    targets += [
        (pool, "__init__", lambda fn: timed(
            fn, "campaign", seconds="campaign.pool_s", after=_after_pool_init,
            span="bench.campaign.pool",
        )),
        (pool, "close", lambda fn: timed(
            fn, "campaign", seconds="campaign.pool_s", span="bench.campaign.pool",
        )),
        (pool, "close", _before_close),
        (process, "make_envelope", lambda fn: timed(
            fn, "campaign", after=_after_envelope
        )),
    ]
    for cls in (pool, serial.SerialBackend):
        targets += [
            (cls, "submit_unit", lambda fn: timed(
                fn, "campaign", calls="campaign.shards"
            )),
            (cls, "cancel", lambda fn: timed(fn, "campaign", after=_after_cancel)),
            (cls, "as_completed", lambda fn: _timed_generator(
                fn, "campaign", "campaign.wait_s"
            )),
        ]
    targets += [
        (base.WorkItem, "run", lambda fn: timed(
            fn, "campaign", seconds="campaign.shard_busy_s"
        )),
        (work, "run_trace", lambda fn: timed(
            fn, "fuzz", calls="fuzz.programs", seconds="fuzz.trace_s",
            after=_after_trace,
        )),
        (work, "run_trace", _in_trace),
        (work.FuzzShard, "run", lambda fn: timed(fn, "fuzz", span="bench.fuzz.shard")),
    ]
    for name in ("fresh", "mutate"):
        targets.append(
            (generator.ProgramSampler, name, lambda fn: timed(
                fn, "fuzz", seconds="fuzz.sample_s"
            ))
        )
    return targets


_INSTALLED: list[tuple[object, str, object]] = []


def install() -> None:
    """Wrap every timed call (idempotent until :func:`uninstall`)."""
    if _INSTALLED:
        return
    for owner, name, factory in _targets():
        original = getattr(owner, name)
        _INSTALLED.append((owner, name, original))
        setattr(owner, name, factory(original))
    os.register_at_fork(after_in_child=_reset_child)


def uninstall() -> None:
    """Restore the original calls, newest wrapper first."""
    while _INSTALLED:
        owner, name, original = _INSTALLED.pop()
        setattr(owner, name, original)


#: Per-layer metrics read from the program's own ``engine.*`` counters.
_ENGINE_COUNTERS = {
    "mc.states_executed": "engine.states",
    "mc.transitions": "engine.transitions",
    "mc.visited": "engine.visited",
    "mc.memo_entries": "engine.memo_entries",
}


def metrics(counters: dict, wall_s: float, merged_states: int) -> dict[str, float]:
    """Every per-layer metric except ``obs.trace_overhead``.

    ``counters`` are the traced run's recorder counters (coordinator
    plus every pool child), ``wall_s`` is the traced run's wall time and
    ``merged_states`` the serial-equivalent states of its result.  Most
    metrics are a counter of the same name; the rest are derived here.
    """
    c = lambda name: float(counters.get(_ENGINE_COUNTERS.get(name, name), 0))  # noqa: E731
    out = {name: c(name) for name in PER_LAYER if name != "obs.trace_overhead"}
    workers = MAIN.get("campaign.capacity", 1)
    probe_s = MAIN.get("self.obs", 0)
    busy = c("campaign.shard_busy_s") / (workers * (wall_s - probe_s))
    out.update({
        "mc.steps_per_transition": _ratio(c("uarch.step_calls"), c("mc.transitions")),
        "campaign.idle_share": 1 - busy if c("campaign.shards") else 0.0,
        "campaign.work_efficiency": _ratio(c("mc.states_executed"), merged_states),
        "fuzz.invalid_share": _ratio(c("fuzz.invalid"), c("fuzz.programs")),
        "fuzz.repeat_step_share": _ratio(c("fuzz.repeat_steps"), c("fuzz.probed_steps")),
        "unattributed_s": wall_s - sum(MAIN.get(f"self.{layer}", 0) for layer in LAYERS),
    })
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
