"""Partition-constrained uniform sampling.

A partition parameter fixes, for each cell of a partition of the universe,
how many items a sampled set must take from that cell.  Because the
constraint factorizes over cells, drawing an independent uniform
``counts[i]``-subset of each cell yields the uniform distribution over all
feasible sets; the exhaustive small-universe tests in the suite validate this
argument directly.

In-cell selection is a uniform permutation, or at large universes i.i.d.
per-item labels whose class counts a uniform fix-up then makes exact; either
is exactly uniform and runs at C speed for large cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb
from typing import Sequence

import numpy as np

from .itemsets import ItemSet, UniverseMismatch
from .rng import RngStream


class InvalidParameter(ValueError):
    """Raised for ill-formed partition parameters or count tables."""


def _check_partition(cells: Sequence[ItemSet]) -> int:
    # At least one cell, all of one universe, which they partition; returns its size.
    if not cells:
        raise InvalidParameter("at least one cell is required")
    m = cells[0].m
    union = 0
    for c in cells:
        if c.m != m:
            raise UniverseMismatch("cells live over different universes")
        if union & c.bits:
            raise InvalidParameter("cells are not pairwise disjoint")
        union |= c.bits
    if union != (1 << m) - 1:
        raise InvalidParameter("cells do not cover the universe")
    return m


def _check_count_rows(cells: Sequence[ItemSet], rows: Sequence[Sequence[int]]) -> list[int]:
    # One row per cell, all of one length, with counts >= 0 that sum to the
    # cell's size; returns the cell sizes.
    if len(rows) != len(cells):
        raise InvalidParameter("one count row per cell is required")
    width = len(rows[0])
    sizes = [len(c) for c in cells]
    for size, row in zip(sizes, rows):
        if len(row) != width:
            raise InvalidParameter("count rows have inconsistent lengths")
        if width and min(row) < 0:
            raise InvalidParameter(f"class counts {tuple(row)} include a negative count")
        if sum(row) != size:
            raise InvalidParameter(f"class counts {tuple(row)} do not sum to cell size {size}")
    return sizes


@dataclass(frozen=True)
class PartitionParameter:
    """A partition of the universe plus one prescribed count per cell."""

    cells: tuple[ItemSet, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_partition(self.cells)
        if len(self.counts) != len(self.cells):
            raise InvalidParameter("one count per cell is required")
        # 0 <= p <= |cell|: the cell splits into p chosen and |cell| - p other items.
        _check_count_rows(self.cells, [(p, len(c) - p) for c, p in zip(self.cells, self.counts)])

    @property
    def m(self) -> int:
        return self.cells[0].m

    @cached_property
    def _cell_indices(self) -> tuple[np.ndarray, ...]:
        return tuple(c.indices() for c in self.cells)

    @cached_property
    def _cell_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)


def sample_pc(param: PartitionParameter, rng: RngStream) -> ItemSet:
    """Uniform draw over all sets meeting the per-cell counts exactly."""
    m = param.m
    bits = 0
    for cell, items, count in zip(param.cells, param._cell_indices, param.counts):
        size = items.size
        if count == 0:
            continue
        if count == size:
            bits |= cell.bits
            continue
        chosen = rng.np.permutation(items)[:count]
        bits |= ItemSet.from_numpy_indices(m, chosen).bits
    return ItemSet(m, bits)


# Item slots drawn in one pass of :func:`refine_rows` (rows x universe size).
# For every universe size above half of this each pass is one row, so
# large-m draws and their memory are those of one refinement at a time.
_BATCH_ITEMS = 1 << 16

# Bits of the per-item draw of a one-row refinement (see refine_rows).
_LABEL_BITS = 16


def refine_rows(
    base_cells: Sequence[ItemSet],
    class_counts: Sequence[Sequence[int]],
    rng: RngStream,
    rows: int,
) -> list[list[ItemSet]]:
    """``rows`` independent refinements of the same cells.

    The cells must partition the universe; ``class_counts[i]`` gives, for
    cell ``i``, how many of its items land in each of the ``c`` classes, as
    counts >= 0 that sum to its size (:class:`InvalidParameter` otherwise).
    Within a cell the assignment is uniform over all assignments meeting the
    counts, and cells and refinements are independent.  Returns, per row,
    the ``c`` class sets, which partition the universe.

    Draw order, which the golden digests pin: rows are drawn in chunks of
    ``max(1, _BATCH_ITEMS // m)``, one row per chunk for every
    ``m > _BATCH_ITEMS // 2``.  Within a chunk cells are visited in order,
    and a cell whose items all land in one class draws nothing.

    Where chunks hold several rows (``m <= _BATCH_ITEMS // 2``), every other
    cell draws, for each row of the chunk in turn, one uniform permutation
    of its items in ascending order (the draws of ``rng.np.permutation``),
    and the classes with a non-zero count take consecutive blocks of that
    permutation in class order.  These chunks keep ``permuted``: their
    cells are small (tens of items in the m = 160 README runs), and there
    the draw below, with several numpy calls per cell and class, costs about
    15 times as much per row (300 against 20 us for four 35-46-item cells).

    Where every chunk is one row, every other cell of ``size`` items draws
    ``rng.np.integers(0, 1 << 16, size=size, dtype=np.uint16)``, one value
    per item in ascending order, and labels each item by how many of the
    thresholds ``(cum << 16) // size`` it clears, ``cum`` running over the
    row's cumulative counts but the last.  Each class with a surplus ``d``,
    in class order, releases ``rng.np.choice`` of ``d`` of its ascending
    positions without replacement, and the released items take the missing
    labels as one ``rng.np.shuffle``-d ``np.repeat`` of them in class order.
    This is exactly uniform: (1) the first labels are i.i.d., so their law
    does not change when the items are permuted; (2) the fix-up releases
    items uniformly within a class and places the missing labels by a
    uniform permutation, so it commutes with permuting the items and the
    result is exchangeable; (3) the result always meets the counts, and the
    permutations act transitively on assignments with fixed counts, so that
    exchangeable law is the uniform one.  The 16-bit precision changes only
    the size of the fix-up, never the law.
    """
    m = _check_partition(base_cells)
    sizes = _check_count_rows(base_cells, class_counts)
    n_classes = len(class_counts[0])
    # Whole cells that land in one class, as bits shared by every row; the
    # shuffled cells with their count rows, side by side as the columns
    # ``a:b`` of one index array per chunk.
    fixed = [0] * n_classes
    shuffled: list[tuple[ItemSet, Sequence[int], int, int]] = []
    total = 0
    for cell, row, size in zip(base_cells, class_counts, sizes):
        nonzero = [j for j, cnt in enumerate(row) if cnt]
        if len(nonzero) == 1:
            fixed[nonzero[0]] |= cell.bits
        elif nonzero:
            shuffled.append((cell, row, total, total + size))
            total += size
    chunk = max(1, _BATCH_ITEMS // m)
    if chunk == 1:
        return [_exchangeable_row(m, fixed, shuffled, rng) for _ in range(rows)]
    nbytes = (m + 7) // 8
    # Item x that lands in class j in row i of a chunk is item
    # (i * n_classes + j) * width + x of one universe: every (row, class)
    # owns a block of whole bytes, so one set build gives all of the chunk's
    # class masks, in that order.
    width = 8 * nbytes
    out: list[list[ItemSet]] = []
    for start in range(0, rows, chunk):
        r = min(chunk, rows - start)
        universe = r * n_classes * width
        # The smallest dtype keeps the index array small; a shuffle's draws
        # depend only on the length.
        dtype = np.min_scalar_type(universe - 1)
        class_offsets = np.arange(0, n_classes * width, width, dtype=dtype)
        flat = np.empty((r, total), dtype=dtype)
        for cell, row, a, b in shuffled:
            perm = flat[:, a:b]
            perm[:] = cell.indices()
            rng.np.permuted(perm, axis=1, out=perm)
            perm += np.repeat(class_offsets, row)
        flat += np.arange(0, universe, n_classes * width, dtype=dtype)[:, None]
        raw = ItemSet.from_numpy_indices(universe, flat.ravel()).bits.to_bytes(universe // 8, "little")
        masks = [int.from_bytes(raw[k : k + nbytes], "little") for k in range(0, len(raw), nbytes)]
        for i in range(0, len(masks), n_classes):
            out.append([ItemSet(m, f | b) for f, b in zip(fixed, masks[i : i + n_classes])])
    return out


def _exchangeable_row(
    m: int,
    fixed: Sequence[int],
    shuffled: Sequence[tuple[ItemSet, Sequence[int], int, int]],
    rng: RngStream,
) -> list[ItemSet]:
    # One row of a one-row chunk (see refine_rows): each multi-class cell
    # labels its items, and one mask is packed per class.
    n_classes = len(fixed)
    labels = np.full(m, n_classes, dtype=np.min_scalar_type(n_classes))
    for cell, row, a, b in shuffled:
        size = b - a
        r = rng.np.integers(0, 1 << _LABEL_BITS, size=size, dtype=np.uint16)
        lab = np.zeros(size, dtype=labels.dtype)
        cleared = [size]
        for cum in accumulate(row[:-1]):
            above = r >= (cum << _LABEL_BITS) // size
            cleared.append(np.count_nonzero(above))
            lab += above
        excess = [hi - lo - cnt for hi, lo, cnt in zip(cleared, cleared[1:] + [0], row)]
        if any(excess):
            released = [rng.np.choice(np.flatnonzero(lab == j), d, replace=False) for j, d in enumerate(excess) if d > 0]
            fill = np.repeat(np.arange(n_classes, dtype=lab.dtype), [max(-d, 0) for d in excess])
            rng.np.shuffle(fill)
            lab[np.concatenate(released)] = fill
        if size == m:
            labels = lab
        else:
            labels[cell.indices()] = lab
    masks = [int.from_bytes(np.packbits(labels == j, bitorder="little").tobytes(), "little") for j in range(n_classes)]
    return [ItemSet(m, f | mask) for f, mask in zip(fixed, masks)]


def refine_sample(
    base_cells: Sequence[ItemSet],
    class_counts: Sequence[Sequence[int]],
    rng: RngStream,
) -> list[ItemSet]:
    """One refinement of the cells: ``refine_rows(..., 1)[0]``, with the
    same arguments, result and draws."""
    return refine_rows(base_cells, class_counts, rng, 1)[0]


def expected_intersection(d: PartitionParameter, d2: PartitionParameter) -> Fraction:
    """Exact expected size of ``|U & U'|`` for independent draws U, U'.

    Sums ``p_i * p'_j * |P_i & P'_j| / (|P_i| * |P'_j|)`` over all pairs of
    non-empty cells, as exact rational arithmetic.
    """
    if d.m != d2.m:
        raise UniverseMismatch("parameters live over different universes")
    total = Fraction(0)
    for cell, size, count in zip(d.cells, d._cell_sizes, d.counts):
        if size == 0 or count == 0:
            continue
        for cell2, size2, count2 in zip(d2.cells, d2._cell_sizes, d2.counts):
            if size2 == 0 or count2 == 0:
                continue
            overlap = (cell.bits & cell2.bits).bit_count()
            if overlap:
                total += Fraction(count * count2 * overlap, size * size2)
    return total


def pc_avoidance_probability(param: PartitionParameter, avoid: ItemSet) -> Fraction:
    """Exact ``Pr(U & avoid == 0)`` for U drawn per the partition constraint.

    Closed form: a product over non-empty cells of hypergeometric ratios
    ``C(|P_i \\ avoid|, p_i) / C(|P_i|, p_i)``.
    """
    if avoid.m != param.m:
        raise UniverseMismatch("avoid-set width does not match universe")
    prob = Fraction(1)
    for cell, size, count in zip(param.cells, param._cell_sizes, param.counts):
        if size == 0:
            continue
        free = size - (cell.bits & avoid.bits).bit_count()
        num = comb(free, count) if count <= free else 0
        prob *= Fraction(num, comb(size, count))
    return prob


def pc_ally_avoidance_probability(param: PartitionParameter, avoid: ItemSet) -> Fraction:
    """Exact ``Pr(U & avoid == 0)`` under independent per-item inclusion."""
    if avoid.m != param.m:
        raise UniverseMismatch("avoid-set width does not match universe")
    prob = Fraction(1)
    for cell, size, count in zip(param.cells, param._cell_sizes, param.counts):
        if size == 0:
            continue
        hit = (cell.bits & avoid.bits).bit_count()
        prob *= Fraction(size - count, size) ** hit
    return prob
