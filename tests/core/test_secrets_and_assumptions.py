"""Tests for secret-pair enumeration and exclusion assumptions."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.assumptions import (
    no_illegal_accesses,
    no_misaligned_accesses,
    no_mispredicted_branches,
)
from repro.core.secrets import secret_memory_pairs
from repro.isa.params import MachineParams


def test_all_mode_is_complete_for_small_domains():
    params = MachineParams(value_bits=1, mem_size=4, n_public=2)
    roots = secret_memory_pairs(params, "all")
    # 2 secret cells x 1-bit values: C(4, 2) unordered image pairs.
    assert len(roots) == 6
    assert len({r.label for r in roots}) == 6


def test_single_mode_varies_one_cell():
    params = MachineParams(value_bits=2, mem_size=4, n_public=2)
    roots = secret_memory_pairs(params, "single")
    assert len(roots) == 2 * 6  # 2 cells x C(4,2) value pairs
    for root in roots:
        left, right = root.dmem_pair
        assert left[: params.n_public] == right[: params.n_public]
        differing = [i for i in range(4) if left[i] != right[i]]
        assert len(differing) == 1


def test_ordered_mode_emits_both_orientations():
    params = MachineParams(value_bits=1, mem_size=4, n_public=2)
    unordered = secret_memory_pairs(params, "all")
    ordered = secret_memory_pairs(params, "ordered")
    # P(4, 2) ordered image pairs = 2 x C(4, 2).
    assert len(ordered) == 2 * len(unordered)
    pairs = {root.dmem_pair for root in ordered}
    assert all((b, a) in pairs for a, b in pairs)


def test_roots_are_labelled_and_ordered_like_the_quantifier():
    """Labels, memories and order pinned against a direct enumeration
    (itertools order, ``sec<A>-vs-<B>`` labels, public image first)."""
    import itertools

    from repro.mc.explorer import Root

    params = MachineParams(value_bits=1, mem_size=4, n_public=2)
    public = (1, 0)
    images = list(itertools.product(range(2), repeat=2))
    for mode, pick in (
        ("all", itertools.combinations),
        ("ordered", itertools.permutations),
    ):
        expected = [
            Root(f"sec{a}-vs-{b}", (public + a, public + b))
            for a, b in pick(images, 2)
        ]
        assert secret_memory_pairs(params, mode, public) == expected, mode
    single = secret_memory_pairs(params, "single", public)
    assert [root.label for root in single] == [
        "sec(0, 0)-vs-(1, 0)",
        "sec(0, 0)-vs-(0, 1)",
    ]
    assert single[1].dmem_pair == ((1, 0, 0, 0), (1, 0, 0, 1))


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        secret_memory_pairs(MachineParams(), "everything")


def test_auto_mode_backs_off_to_single_for_large_domains():
    params = MachineParams(value_bits=2, mem_size=4, n_public=2)
    assert len(secret_memory_pairs(params, "auto")) == len(
        secret_memory_pairs(params, "single")
    )
    small = MachineParams(value_bits=1, mem_size=4, n_public=2)
    assert len(secret_memory_pairs(small, "auto")) == len(
        secret_memory_pairs(small, "all")
    )


def test_public_values_override():
    params = MachineParams(value_bits=1, mem_size=4, n_public=2)
    roots = secret_memory_pairs(params, "single", public_values=(1, 1))
    assert all(r.dmem_pair[0][:2] == (1, 1) for r in roots)
    with pytest.raises(ValueError):
        secret_memory_pairs(params, "single", public_values=(1,))


def test_no_secret_region_yields_no_roots():
    params = MachineParams(value_bits=1, mem_size=4, n_public=4)
    assert secret_memory_pairs(params, "all") == []


@given(
    mode=st.sampled_from(["all", "single"]),
    value_bits=st.integers(1, 2),
    n_public=st.integers(0, 3),
)
def test_pairs_always_differ_and_share_public(mode, value_bits, n_public):
    params = MachineParams(
        value_bits=value_bits, mem_size=4, n_public=n_public
    )
    for root in secret_memory_pairs(params, mode):
        left, right = root.dmem_pair
        assert left != right
        assert left[:n_public] == right[:n_public]
        assert all(0 <= v < params.value_domain for v in left + right)


def test_assumption_excludes_matching_events():
    assumption = no_misaligned_accesses()
    assert assumption.excludes(("misaligned",))
    assert assumption.excludes(("mispredict", "misaligned"))
    assert not assumption.excludes(("mispredict",))
    assert not assumption.excludes(())


def test_assumption_names_are_distinct():
    names = {
        a.name
        for a in (
            no_misaligned_accesses(),
            no_illegal_accesses(),
            no_mispredicted_branches(),
        )
    }
    assert len(names) == 3
