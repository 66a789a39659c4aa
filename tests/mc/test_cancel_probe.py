"""The search engine's cancel probe (in-flight shard cancellation).

A worker-pool child installs a probe for the shard it runs
(:func:`repro.mc.explorer.install_cancel_probe`); every engine's search
loop reads it once per ``_CLOCK_STRIDE`` expansions through
``_Budget.exhausted`` and stops with a truncated timeout noted
``CANCEL_NOTE``.  With no probe installed -- the serial path -- and with
a probe that never fires, searches are bit-identical to each other.
"""

from __future__ import annotations

import pytest

from repro.bench import fig2
from repro.bench.configs import QUICK
from repro.mc.explorer import (
    _CLOCK_STRIDE,
    CANCEL_NOTE,
    Explorer,
    install_cancel_probe,
)
from repro.mc.result import TIMEOUT

ENGINES = ("object", "packed", "vector")


def _task():
    return fig2.point_task(fig2.PANELS[0], "rob", 2, QUICK)


def _search(task, engine: str, mode: str, probe):
    """Run one search with ``probe`` installed for its duration."""
    roots = task.build_roots()
    if mode == "run_seeded":
        roots = roots[:1]
    explorer = Explorer(
        task.build_product(), task.space, roots, task.limits, engine=engine
    )
    entries = list(explorer.expand_root().entries) if mode == "run_seeded" else None
    previous = install_cancel_probe(probe)
    try:
        if entries is None:
            return explorer.run()
        return explorer.run_seeded(entries)
    finally:
        install_cancel_probe(previous)


@pytest.mark.parametrize("mode", ("run", "run_seeded"))
@pytest.mark.parametrize("engine", ENGINES)
def test_a_firing_probe_stops_the_search_within_one_stride(engine, mode):
    uncancelled = _search(_task(), engine, mode, None)
    assert uncancelled.stats.states > _CLOCK_STRIDE  # room to stop early
    outcome = _search(_task(), engine, mode, lambda: True)
    assert outcome.kind == TIMEOUT
    assert outcome.note == CANCEL_NOTE
    assert 0 < outcome.stats.states <= _CLOCK_STRIDE


@pytest.mark.parametrize("mode", ("run", "run_seeded"))
@pytest.mark.parametrize("engine", ENGINES)
def test_a_silent_probe_changes_nothing(engine, mode):
    polls = []

    def probe():
        polls.append(1)
        return False

    plain = _search(_task(), engine, mode, None)
    probed = _search(_task(), engine, mode, probe)
    assert polls, "the search never read its probe"
    assert probed.kind == plain.kind
    assert probed.stats == plain.stats
    assert probed.counterexample == plain.counterexample
    assert probed.note is None


def test_no_probe_outside_pool_children():
    """The serial path runs with no probe installed at all."""
    assert install_cancel_probe(None) is None
