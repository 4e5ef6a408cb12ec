"""Fixed-width item sets and membership-pattern partitions.

An :class:`ItemSet` is a subset of the item universe ``{0, .., m-1}`` stored
as a Python integer bitmask (item ``i`` is bit ``i``).  All set arithmetic is
exact, and cardinality uses word-parallel popcount via ``int.bit_count``, so
intersections stay cheap even at millions of items.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index
from typing import Iterator, Optional, Sequence

import numpy as np


_LOWER_HEX = re.compile("[0-9a-f]*")


class UniverseMismatch(ValueError):
    """Raised when operands live over different item universes."""


def _check_same_universe(a: "ItemSet", b: "ItemSet") -> None:
    if a.m != b.m:
        raise UniverseMismatch(f"universe widths differ: {a.m} != {b.m}")


def _universe_size(m) -> int:
    # operator.index rejects a float or a str and makes a bool a plain int.
    m = index(m)
    if m <= 0:
        raise ValueError(f"universe size must be positive, got {m}")
    return m


@dataclass(frozen=True)
class ItemSet:
    """Immutable subset of an ``m``-item universe.

    Items are 0-indexed.  Serialization uses lowercase hex of the
    little-endian byte string, so item 0 is the least significant bit of the
    first byte.
    """

    m: int
    bits: int

    def __post_init__(self) -> None:
        bits = index(self.bits)
        m = _universe_size(self.m)
        self.__dict__.update(m=m, bits=bits)
        if bits < 0 or bits >> m:
            raise ValueError("bitmask sets items outside the universe")

    @classmethod
    def _new(cls, m: int, bits: int) -> "ItemSet":
        # Trusted construction, without ``__post_init__``'s checks: only for
        # ``0 <= bits < 1 << m`` with ``m > 0`` already known, as for the
        # results of same-universe operations.
        s = object.__new__(cls)
        d = s.__dict__
        d["m"] = m
        d["bits"] = bits
        return s

    @classmethod
    def empty(cls, m: int) -> "ItemSet":
        return cls(m, 0)

    @classmethod
    def full(cls, m: int) -> "ItemSet":
        m = _universe_size(m)
        return cls._new(m, (1 << m) - 1)

    @classmethod
    def from_indices(cls, m: int, indices) -> "ItemSet":
        m = _universe_size(m)
        bits = 0
        for i in indices:
            try:
                i = index(i)
            except TypeError:
                raise ValueError(f"item {i!r} is not an integer") from None
            if not 0 <= i < m:
                raise ValueError(f"item {i} outside universe of size {m}")
            bits |= 1 << i
        return cls._new(m, bits)

    @classmethod
    def from_numpy_indices(cls, m: int, indices: np.ndarray) -> "ItemSet":
        """Set of the items in an integer index array (repeats allowed), by
        one scatter into a bool array of the universe and ``np.packbits``;
        raises ``ValueError`` for an index outside ``[0, m)`` or an array
        of another dtype, and ``TypeError`` for a non-array."""
        m = _universe_size(m)
        if not isinstance(indices, np.ndarray):
            raise TypeError(f"item indices must be a numpy array, got {type(indices).__name__}")
        # numpy would index with a bool array as a mask.
        kind = indices.dtype.kind
        if kind not in "iu":
            raise ValueError(f"item indices must be integers, got dtype {indices.dtype}")
        if kind == "u" and indices.itemsize == 8:
            # numpy casts these to intp, where an index from 2**63 up turns
            # negative; read as signed, it is negative here already.
            indices, kind = indices.view(indices.dtype.str.replace("u", "i")), "i"
        buf = np.zeros(m, dtype=bool)
        try:
            # Numpy would wrap a negative index round; an empty array has no min().
            if kind == "i" and indices.size and indices.min() < 0:
                raise IndexError
            buf[indices] = True
        except IndexError:
            raise ValueError(f"item index outside universe of size {m}") from None
        raw = np.packbits(buf, bitorder="little").tobytes()
        return cls._new(m, int.from_bytes(raw, "little"))

    @classmethod
    def from_hex(cls, m: int, text: str) -> "ItemSet":
        """Inverse of :meth:`to_hex`: only that method's output is accepted,
        lowercase hex digits of exactly the serialized length."""
        m = _universe_size(m)
        want = 2 * ((m + 7) // 8)
        if len(text) != want or not _LOWER_HEX.fullmatch(text):
            raise ValueError(f"expected {want} lowercase hex digits for a universe of size {m}")
        return cls(m, int.from_bytes(bytes.fromhex(text), "little"))

    def to_hex(self) -> str:
        return self.bits.to_bytes((self.m + 7) // 8, "little").hex()

    def indices(self) -> np.ndarray:
        """Member items as a sorted integer array."""
        raw = np.frombuffer(self.bits.to_bytes((self.m + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.m, bitorder="little").view(bool).nonzero()[0]

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, item: int) -> bool:
        return 0 <= item < self.m and (self.bits >> item) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices().tolist())

    def __and__(self, other: "ItemSet") -> "ItemSet":
        _check_same_universe(self, other)
        return ItemSet._new(self.m, self.bits & other.bits)

    def __or__(self, other: "ItemSet") -> "ItemSet":
        _check_same_universe(self, other)
        return ItemSet._new(self.m, self.bits | other.bits)

    def __xor__(self, other: "ItemSet") -> "ItemSet":
        _check_same_universe(self, other)
        return ItemSet._new(self.m, self.bits ^ other.bits)

    def __sub__(self, other: "ItemSet") -> "ItemSet":
        _check_same_universe(self, other)
        return ItemSet._new(self.m, self.bits & ~other.bits)

    def __invert__(self) -> "ItemSet":
        """Complement within the universe."""
        return ItemSet._new(self.m, self.bits ^ ((1 << self.m) - 1))

    def intersection_size(self, other: "ItemSet") -> int:
        _check_same_universe(self, other)
        return (self.bits & other.bits).bit_count()

    def isdisjoint(self, other: "ItemSet") -> bool:
        _check_same_universe(self, other)
        return self.bits & other.bits == 0

    def __repr__(self) -> str:
        if self.m <= 64:
            return f"ItemSet({self.m}, {{{','.join(map(str, self))}}})"
        return f"ItemSet(m={self.m}, |.|={len(self)})"


def _cell_bits(m: int, sets: Sequence[ItemSet], start: int) -> list[int]:
    # Bitmasks of the membership-pattern cells of ``sets`` within ``start``.
    full = (1 << m) - 1
    cells = [start]
    for s in sets:
        if s.m != m:
            raise UniverseMismatch(f"set width {s.m} does not match universe {m}")
        inv = s.bits ^ full
        cells = [c & b for c in cells for b in (inv, s.bits)]
    return cells


def part_cells(m: int, sets: Sequence[ItemSet]) -> list[ItemSet]:
    """Partition the universe by membership pattern in ``sets``.

    The ``2**k`` cells come back ordered by pattern, the all-zeros pattern
    first and the first set's indicator most significant: the cell at index
    ``sum(b[i] << (k-1-i))`` holds exactly the items whose membership
    indicator in ``sets[i]`` equals ``b[i]`` for every ``i``.
    """
    # The full set is the one checked construction; the cells are its subsets.
    full = ItemSet.full(m)
    return [ItemSet._new(m, c) for c in _cell_bits(m, sets, full.bits)]


def part_profile(
    m: int, sets: Sequence[ItemSet], mask: Optional[ItemSet] = None
) -> tuple[int, ...]:
    """Cell cardinalities of the membership-pattern partition.

    With ``mask`` given, each entry counts the cell's items inside the mask
    instead, so the entries sum to ``len(mask)`` rather than ``m``.
    """
    if mask is not None and mask.m != m:
        raise UniverseMismatch(f"mask width {mask.m} does not match universe {m}")
    start = (1 << m) - 1 if mask is None else mask.bits
    return tuple(c.bit_count() for c in _cell_bits(m, sets, start))
