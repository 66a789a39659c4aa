"""Unit coverage for the vector engine's stdlib data structures.

Three layers, matching :mod:`repro.mc.vector`'s structure:

- the packed blob is a flat little-endian word array: ``struct``
  recovers the exact words the cores emitted, for every
  ``packed_capable`` core configuration;
- the visited key: :func:`repro.mc.vector.visited_key` packs a search
  row into one int injectively (randomized and at the field edges) and
  the root index comes back out of the top bits;
- the visited set: a real search leaves exactly one key per explored
  state, the push keeps choice order without a prefilter, and the
  footprint counts the set.

The search-level contract (bit-identical verdicts/stats) lives in
``test_engine_equivalence.py``; this file owns the data structures.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.bench import fig2
from repro.bench.configs import QUICK
from repro.core.contracts import sandboxing
from repro.core.products import ShadowProduct
from repro.isa.instruction import HALT
from repro.mc.env import Environment
from repro.mc.explorer import Explorer
from repro.mc.packed import PackedCodec, decode_word, encode_word
from repro.mc.vector import ROOT_SHIFT, VectorEngine, visited_key
from repro.uarch.config import CacheConfig, Defense
from repro.uarch.simple_ooo import simple_ooo

from test_snapshot_roundtrip import DMEM_PAIR, PARAMS, PROGRAM, _fetch


# ---------------------------------------------------------------------------
# Packed blobs are flat little-endian word arrays
# ---------------------------------------------------------------------------
_CACHE = CacheConfig(n_sets=1, block_words=2, hit_latency=1, miss_latency=3)

_CORE_CONFIGS = {
    "insecure": lambda: simple_ooo(Defense.NONE, params=PARAMS),
    "delay-spectre": lambda: simple_ooo(Defense.DELAY_SPECTRE, params=PARAMS),
    "dom-cache": lambda: simple_ooo(
        Defense.DOM_SPECTRE, params=PARAMS, cache=_CACHE
    ),
}


@pytest.mark.parametrize("config", sorted(_CORE_CONFIGS))
def test_packed_blob_is_a_flat_word_array(config):
    """``struct.unpack('<Nq', blob)`` recovers the exact words the core
    emitted, on every reachable snapshot of a driven product."""
    product = ShadowProduct(_CORE_CONFIGS[config], sandboxing())
    assert product.packed_capable
    codec = PackedCodec(product)
    product.reset(DMEM_PAIR)
    for cycle in range(12):
        blob = codec.snapshot()
        words = []
        product.snapshot_words(words, codec.atoms)
        assert list(struct.unpack(f"<{len(blob) // 8}q", blob)) == words, (
            f"{config} cycle {cycle}"
        )
        # Every word decodes against the codec's atom table and
        # re-encodes to itself (tag round-trip; bools legitimately
        # re-encode as their 0/1 scalar).
        for word in words:
            value = decode_word(word, codec.atoms.values)
            assert encode_word(value, codec.atoms) == (
                (1 if value else 0) << 2 if isinstance(value, bool) else word
            )
        # And the blob restores to a snapshot fixpoint.
        codec.restore(blob)
        assert codec.snapshot() == blob
        requests = product.fetch_requests()
        bundles = [None] * len(product.machines)
        for req in requests:
            bundles[req.slot] = _fetch(PROGRAM, req.pc, predicted=True)
        result = product.step_cycle(bundles)
        if result.failed or result.pruned or product.quiescent():
            break


# ---------------------------------------------------------------------------
# The packed visited key
# ---------------------------------------------------------------------------
_TOP = (1 << 32) - 1
_EDGES = (0, 1, 2, 255, 256, (1 << 31) - 1, 1 << 31, _TOP - 1, _TOP)


def _key(row):
    root_index, env_id, sid0, sid1, shadow_id = row
    return visited_key(root_index, env_id, (sid0, sid1, shadow_id))


def test_visited_key_is_injective_on_field_edges():
    rng = random.Random(7)
    rows = {tuple(rng.choice(_EDGES) for _ in range(5)) for _ in range(4000)}
    keys = {_key(row) for row in rows}
    assert len(keys) == len(rows)
    for row in rows:
        assert _key(row) >> ROOT_SHIFT == row[0]


def test_visited_key_set_agrees_with_a_set_of_rows():
    """Insert/probe through packed keys answers exactly like a set of
    the row tuples themselves, across a randomized workload."""
    rng = random.Random(42)
    universe = [
        tuple(rng.randrange(0, 1 << rng.choice((3, 12, 32))) for _ in range(5))
        for _ in range(4000)
    ]
    keys: set[int] = set()
    rows: set[tuple] = set()
    for _ in range(12000):
        row = universe[rng.randrange(len(universe))]
        assert (_key(row) in keys) == (row in rows)
        keys.add(_key(row))
        rows.add(row)
    assert len(keys) == len(rows)


# ---------------------------------------------------------------------------
# The visited set inside a search
# ---------------------------------------------------------------------------
def _rob_task(rob=2):
    return fig2.point_task(fig2.PANELS[0], "rob", rob, QUICK)


def test_search_keeps_one_visited_key_per_explored_state():
    task = _rob_task()
    explorer = Explorer(
        task.build_product(), task.space, task.build_roots(), task.limits,
        engine="vector",
    )
    outcome = explorer.run()
    assert outcome.proved
    visited = explorer._vector.visited
    assert type(visited) is set
    assert len(visited) == outcome.stats.states
    # Every key names one of the task's roots in its top bits.
    assert {key >> ROOT_SHIFT for key in visited} == set(
        range(len(task.build_roots()))
    )
    keys, footprint = explorer.visited_footprint()
    assert keys == len(visited)
    assert footprint > 48 * len(visited)


def test_push_keeps_choice_order_and_visited_children():
    """The push appends every child in choice order -- an already
    visited child included (it is skipped when popped, like the serial
    engine does)."""
    task = _rob_task()
    product = task.build_product()
    engine = VectorEngine(product)
    [root, *_] = task.build_roots()
    engine.select_root(root)
    state = engine.capture()
    env = Environment.empty(product.params.imem_size)
    node = engine.seed_node(0, env, state, 0)
    engine.visited.add(node[0])
    children = [(env, state), (env.with_slots({0: HALT}), state)]
    stack: list[tuple] = []
    engine.push_wave(0, 1, children, stack)
    assert [entry[1] for entry in stack] == [child_env for child_env, _ in children]
    assert stack[0][0] == node[0]  # visited, still pushed
    assert stack[1][0] != node[0]
    assert all(entry[2] == 1 and entry[3] == state for entry in stack)
