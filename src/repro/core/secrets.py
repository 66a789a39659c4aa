"""Enumeration of secret-memory pairs (the contract's ∀ M_sec, M'_sec).

Eq. (1) quantifies over all pairs of secret memories.  The model checker
enumerates this quantifier explicitly as search *roots*:

- ``"all"``: every unordered pair of distinct secret-region images over
  the value domain -- a *complete* instantiation of the quantifier within
  the modeled domain (the default when the image count is small).  The
  unordered reduction is sound because the product is symmetric under
  swapping the two copies: an attack distinguishing ``(A, B)`` mirrors to
  one distinguishing ``(B, A)``.
- ``"ordered"``: every *ordered* pair of distinct images -- the
  quantifier exactly as Eq. (1) writes it, twice the roots of ``"all"``.
  Useful as the workload where the explorer's ``shared_visited`` mode
  proves the swap symmetry automatically: mirror roots canonicalize onto
  each other's visited states, collapsing the ordered instantiation back
  to unordered cost.
- ``"single"``: pairs that differ in exactly one secret word, all other
  secret words zero -- the sweep-friendly reduction used by the Fig. 2
  benchmarks (recorded in EXPERIMENTS.md).

Public memory is fixed (zeros by default); ``public_values`` overrides it.
"""

from __future__ import annotations

import itertools

from repro.isa.params import MachineParams
from repro.mc.explorer import Root

#: Above this many secret-region images, "auto" falls back to "single".
_AUTO_ALL_LIMIT = 8


def secret_memory_pairs(
    params: MachineParams,
    mode: str = "auto",
    public_values: tuple[int, ...] | None = None,
) -> list[Root]:
    """Enumerate the secret-pair roots for a verification task."""
    if mode not in ("auto", "all", "ordered", "single"):
        raise ValueError("mode must be auto, all, ordered or single")
    public = public_values if public_values is not None else (0,) * params.n_public
    if len(public) != params.n_public:
        raise ValueError("public image has the wrong size")
    domain = params.value_domain
    n_secret = params.n_secret
    if n_secret == 0:
        return []
    if mode == "auto":
        mode = "all" if domain**n_secret <= _AUTO_ALL_LIMIT else "single"
    # Each secret image is formatted and joined to the public image once,
    # not once per pair it appears in: ``"all"`` over a 2-bit domain
    # pairs 256 images into 32,640 roots.
    if mode in ("all", "ordered"):
        named = [
            (f"{image}", public + image)
            for image in itertools.product(range(domain), repeat=n_secret)
        ]
        pick = itertools.combinations if mode == "all" else itertools.permutations
        pairs = pick(named, 2)
    else:
        pairs = []
        for cell in range(n_secret):
            for low, high in itertools.combinations(range(domain), 2):
                image_a = tuple(low if i == cell else 0 for i in range(n_secret))
                image_b = tuple(high if i == cell else 0 for i in range(n_secret))
                pairs.append(
                    ((f"{image_a}", public + image_a), (f"{image_b}", public + image_b))
                )
    return [
        Root("sec" + label_a + "-vs-" + label_b, (memory_a, memory_b))
        for (label_a, memory_a), (label_b, memory_b) in pairs
    ]


def with_mirrored_roots(roots: list[Root]) -> list[Root]:
    """Each root followed by its orientation-swapped mirror.

    Turns an unordered root list into the ordered-quantifier view: for
    every ``(A, B)`` the list also quantifies ``(B, A)``.  Verdicts are
    unchanged (copy-swap symmetry); the doubled work is exactly what the
    explorer's ``shared_visited`` mode exists to collapse, so benchmarks
    use this to measure cross-root sharing on real sweep cells.
    """
    mirrored: list[Root] = []
    for root in roots:
        first, second = root.dmem_pair
        mirrored.append(root)
        mirrored.append(
            Root(label=f"{root.label}-mirror", dmem_pair=(second, first))
        )
    return mirrored
