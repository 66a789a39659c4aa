"""Old-vs-new state-engine equivalence over real benchmark grid slices.

The overhauled explorer (interned snapshots, restore discipline, cached
environment hashes) must be *bit-identical* to the frozen pre-overhaul
engine (:mod:`repro.mc.legacy`) in default mode: same verdicts, same
counterexamples, same ``SearchStats`` -- over representative slices of
every campaign-backed experiment (fig2 sweeps, the fetch-gate ablation,
the Table-2 scheme grid).  This is the contract that lets every committed
benchmark number and every logged campaign record keep its meaning across
the engine swap.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import ablation, fig2, table2
from repro.bench.configs import QUICK
from repro.mc.legacy import verify_legacy
from repro.core.verifier import verify


def _fig2_mini_units():
    return fig2.units(QUICK, regfile_sizes=(2,), dmem_sizes=(2,), rob_sizes=(2, 4))


def _ablation_mini_units():
    return ablation.units(QUICK, workloads=ablation.WORKLOADS[:2])


def _table2_units():
    return table2.units(QUICK)


SLICES = {
    "fig2-mini": _fig2_mini_units,
    "ablation-mini": _ablation_mini_units,
    "table2-grid": _table2_units,
}


ENGINES = ("object", "packed", "vector")


@pytest.mark.parametrize("slice_name", sorted(SLICES))
def test_new_engine_matches_legacy_bit_for_bit(slice_name, monkeypatch):
    """All three state engines (object tuples, packed word arrays, the
    memoizing vector engine) must reproduce the legacy search bit for bit,
    on every slice."""
    units = SLICES[slice_name]()
    assert units, slice_name
    for unit in units:
        old = verify_legacy(unit.task)
        for engine in ENGINES:
            monkeypatch.setenv("REPRO_MC_ENGINE", engine)
            new = verify(unit.task)
            label = f"{slice_name}:{'/'.join(unit.key)}:{engine}"
            assert new.kind == old.kind, label
            assert new.stats == old.stats, label
            assert new.counterexample == old.counterexample, label


def test_engine_selection_follows_capability(monkeypatch):
    """Auto-selection engages each engine exactly where the capability
    flags say: shadow products of OoO cores take the vector engine, the
    four-machine baseline and shared-visited searches fall back to the
    object engine."""
    from repro.mc.explorer import Explorer

    monkeypatch.delenv("REPRO_MC_ENGINE", raising=False)
    engines = set()
    for unit in table2.units(QUICK):
        task = unit.task
        product = task.build_product()
        explorer = Explorer(
            product, task.space, task.build_roots(), task.limits,
            shared_visited=task.shared_visited,
        )
        if not getattr(product, "packed_capable", False):
            expected = "object"
        elif getattr(product, "vector_capable", False):
            expected = "vector"
        else:
            expected = "packed"
        assert explorer.engine == expected, unit.key
        engines.add(explorer.engine)
        shared = Explorer(
            product, task.space, task.build_roots(), task.limits,
            shared_visited=True,
        )
        assert shared.engine == "object", unit.key
    # The grid exercises both sides of the capability split.
    assert engines == {"object", "vector"}
    # A vector request degrades down the chain on a product with only
    # the packed capability, and to object without either.
    from types import SimpleNamespace

    from repro.mc.packed import resolve_engine

    packed_only = SimpleNamespace(vector_capable=False, packed_capable=True)
    assert resolve_engine("vector", packed_only, False) == "packed"
    assert resolve_engine("vector", packed_only, True) == "object"
    assert resolve_engine("vector", SimpleNamespace(), False) == "object"


def test_vector_search_runs_on_the_standard_library():
    """A whole vector-engine search, in a fresh interpreter, never
    imports numpy: the engine is stdlib-only."""
    script = (
        "import sys\n"
        "from repro.bench import fig2\n"
        "from repro.bench.configs import QUICK\n"
        "from repro.mc.explorer import Explorer\n"
        "task = fig2.point_task(fig2.PANELS[0], 'rob', 2, QUICK)\n"
        "explorer = Explorer(task.build_product(), task.space,"
        " task.build_roots(), task.limits)\n"
        "outcome = explorer.run()\n"
        "assert explorer.engine == 'vector', explorer.engine\n"
        "assert outcome.proved, outcome\n"
        "print('numpy' in sys.modules)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "REPRO_MC_ENGINE"}
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("engine", ENGINES)
def test_seeded_shards_match_legacy_monolith(engine, monkeypatch):
    """Sub-root expansion + seeded shards of each engine, merged in
    serial LIFO order, still reproduce the legacy monolithic search on a
    single-root fig2 cell (the sub-root scheduler's workload)."""
    from repro.campaign.scheduler import _merge_serial, _prepend_prelude
    from repro.mc.explorer import Explorer

    monkeypatch.setenv("REPRO_MC_ENGINE", engine)
    task = fig2.point_task(fig2.PANELS[0], "rob", 2, QUICK)
    [root] = task.build_roots()[-1:]
    task.roots = [root]
    legacy = verify_legacy(task)
    expansion = Explorer(
        task.build_product(), task.space, [root], task.limits
    ).expand_root()
    assert expansion.decided is None
    outcomes = [
        Explorer(
            task.build_product(), task.space, [root], task.limits
        ).run_seeded([entry])
        for entry in expansion.entries
    ]
    merged = _prepend_prelude(expansion, _merge_serial(outcomes))
    assert merged.kind == legacy.kind
    assert merged.stats == legacy.stats
    assert merged.counterexample == legacy.counterexample
