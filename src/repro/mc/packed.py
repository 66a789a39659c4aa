"""Bit-packed snapshot arrays: the packed state engine.

The object engine snapshots a product as nested tuples and hash-conses
them through an :class:`repro.mc.intern.InternTable`.  That keeps the
visited set small, but every intern probe still hashes (and on collision
walks) the whole nested structure, and every snapshot allocates the full
tuple tree.  The packed engine flattens a snapshot into a fixed-width
integer array instead:

- **Scalars pack inline.**  Each word carries a 2-bit tag in its low
  bits: ``value << 2`` for integers (bools encode as 0/1, preserving
  ``True == 1`` equality), the reserved word ``1`` for ``None``, and
  ``(atom_id << 2) | 2`` for interned atoms.  Python's arbitrary-width
  shifts keep negative values exact.
- **Substructures intern as atoms.**  Variable or object-valued pieces
  (the register file, each ROB entry, cache tags, branch-occurrence
  maps, pending-observation queues) are frozen to small tuples and
  interned in an :class:`AtomTable`; the array stores their dense ids.
  Equal substructures get equal ids -- dict equality is the same
  relation as tuple equality of the object snapshots -- so array
  equality coincides exactly with object-snapshot equality.
- **The canonical key is ``bytes``.**  Words serialize as little-endian
  64-bit integers into one flat buffer: hashing and comparing a visited
  key is a single C pass instead of a recursive tuple walk.

Selection is per-core via a capability flag: cores that implement
``snapshot_words``/``restore_words`` advertise ``packed_state = True``
and products advertise ``packed_capable`` when every machine does.  The
explorer consults :func:`resolve_engine` -- ``auto`` (the default) picks
the packed engine whenever the product is capable and cross-root visited
sharing is off (mirror folding operates on object snapshots), and falls
back to the object engine otherwise.  ``REPRO_MC_ENGINE`` forces either
engine from the environment.

Both engines are pinned bit-identical to :mod:`repro.mc.legacy` by
``tests/mc/test_engine_equivalence.py``: same verdicts, same
``SearchStats``, same counterexamples.
"""

from __future__ import annotations

import os
from struct import Struct

#: Environment variable forcing the engine: ``object``, ``packed`` or
#: ``vector``.
ENGINE_ENV = "REPRO_MC_ENGINE"

#: ``_packers`` cache bound: snapshots of one product cluster around a
#: handful of ROB occupancies, so a healthy search never approaches
#: this; if word counts drift per wave (a misdeclared core), the cache
#: stops growing and odd widths pack uncached instead of accumulating
#: one ``Struct`` per width forever.
_MAX_PACKERS = 64

#: 2-bit word tags (low bits).
TAG_SCALAR = 0
TAG_NONE = 1
TAG_ATOM = 2

#: The unique encoding of ``None``.
NONE_WORD = TAG_NONE


class AtomTable:
    """Equality-keyed dense interning of snapshot substructures.

    ``id_of`` maps a hashable atom to a stable small integer (first
    encounter wins); ``values`` decodes ids back.  One table lives per
    :class:`PackedCodec`, so ids are consistent across every snapshot
    of one search.
    """

    __slots__ = ("_ids", "values")

    def __init__(self):
        self._ids: dict = {}
        self.values: list = []

    def id_of(self, atom) -> int:
        ids = self._ids
        index = ids.get(atom)
        if index is None:
            index = len(self.values)
            ids[atom] = index
            self.values.append(atom)
        return index

    def approx_len(self) -> int:
        return len(self.values)


def encode_word(value, atoms: AtomTable) -> int:
    """Encode one scalar-or-atom field into a tagged word."""
    if value is None:
        return NONE_WORD
    kind = type(value)
    if kind is int:
        return value << 2
    if kind is bool:
        return (1 if value else 0) << 2
    return (atoms.id_of(value) << 2) | TAG_ATOM


def decode_word(word: int, values: list):
    """Decode one tagged word (inverse of :func:`encode_word`)."""
    tag = word & 3
    if tag == TAG_SCALAR:
        return word >> 2
    if tag == TAG_NONE:
        return None
    return values[word >> 2]


def resolve_engine(requested: str, product, shared_visited: bool) -> str:
    """Resolve an engine request to ``object``, ``packed`` or ``vector``.

    ``auto`` consults :data:`ENGINE_ENV` and otherwise prefers the
    vector engine.  Degradation is graceful and chained: a vector
    request falls back to ``packed`` when the product is not
    ``vector_capable``/``packed_capable``, or cross-root visited
    sharing is on (the memoizing engine keys visited rows per root, and
    mirror canonicalization is defined on object snapshots); the packed
    request then applies its own rules and may land on ``object``.
    """
    if requested == "auto":
        requested = os.environ.get(ENGINE_ENV, "") or "vector"
        if requested == "auto":
            requested = "vector"
    if requested not in ("object", "packed", "vector"):
        raise ValueError(f"unknown state engine {requested!r}")
    if requested == "vector" and (
        shared_visited
        or not getattr(product, "vector_capable", False)
        or not getattr(product, "packed_capable", False)
    ):
        requested = "packed"
    if requested == "packed" and (
        shared_visited or not getattr(product, "packed_capable", False)
    ):
        return "object"
    return requested


class PackedCodec:
    """Snapshot/restore adapter presenting a product in packed form.

    Drop-in for the ``snapshot``/``restore`` pair the search loop binds:
    ``snapshot()`` returns the state as one ``bytes`` buffer of 64-bit
    words, ``restore(blob)`` replays it into the live product.  The
    codec owns the :class:`AtomTable` backing the atom ids, so blobs are
    only meaningful against the codec that produced them (one codec per
    :class:`repro.mc.explorer.Explorer`).
    """

    __slots__ = ("product", "atoms", "_packers", "_buffer")

    def __init__(self, product):
        if not getattr(product, "packed_capable", False):
            raise ValueError(f"product {product!r} cannot pack its state")
        self.product = product
        self.atoms = AtomTable()
        # struct packers cached per word count (snapshots of one product
        # cluster around a handful of ROB occupancies; bounded by
        # _MAX_PACKERS against per-wave width drift).
        self._packers: dict[int, Struct] = {}
        # Reusable word-list buffer: ``snapshot``/``encode`` refill it
        # in place instead of allocating a fresh list per state (the
        # seeded-frontier path encodes hundreds of entries back to
        # back).
        self._buffer: list[int] = []

    def _packer(self, count: int) -> Struct:
        packers = self._packers
        packer = packers.get(count)
        if packer is None:
            packer = Struct(f"<{count}q")
            if len(packers) < _MAX_PACKERS:
                packers[count] = packer
        return packer

    def snapshot(self) -> bytes:
        words = self._buffer
        words.clear()
        self.product.snapshot_words(words, self.atoms)
        return self._packer(len(words)).pack(*words)

    def restore(self, blob: bytes) -> None:
        self.product.restore_words(
            self._packer(len(blob) >> 3).unpack(blob), 0, self.atoms
        )

    def encode(self, object_snap) -> bytes:
        """Re-encode an object-engine snapshot (seeded-frontier entry).

        Replays the snapshot into the live product (word layout stays
        the cores' single source of truth) and packs from the shared
        buffer -- no per-entry list allocation.
        """
        self.product.restore(object_snap)
        return self.snapshot()
