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
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb
from operator import index
from typing import Sequence

import numpy as np

from .itemsets import ItemSet, UniverseMismatch
from .rng import RngStream


class InvalidParameter(ValueError):
    """Raised for ill-formed partition parameters or count tables."""


def _check_partition(cells: Sequence[ItemSet]) -> None:
    # At least one cell, all of one universe, which they partition.
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


def _row_fault(row: Sequence[int], width: int) -> str | None:
    # What is wrong with a count row whatever its cell: a length other than
    # the table's or a negative count.
    if len(row) != width:
        return "count rows have inconsistent lengths"
    if width and min(row) < 0:
        return f"class counts {tuple(row)} include a negative count"
    return None


def _check_count_rows(cells: Sequence[ItemSet], rows: Sequence[Sequence[int]]) -> None:
    # One row per cell, all of one length, with counts >= 0 that sum to the
    # cell's size.
    if len(rows) != len(cells):
        raise InvalidParameter("one count row per cell is required")
    width = len(rows[0])
    for cell, row in zip(cells, rows):
        fault = _row_fault(row, width)
        if fault:
            raise InvalidParameter(fault)
        if sum(row) != len(cell):
            raise InvalidParameter(f"class counts {tuple(row)} do not sum to cell size {len(cell)}")


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


# Item slots drawn in one pass of :func:`refine_masks` (rows x universe size).
# For every universe size above half of this each pass is one row, so
# large-m draws and their memory are those of one refinement at a time.
_BATCH_ITEMS = 1 << 16

# Bits of the per-item draw of a one-row refinement (see refine_masks).
_LABEL_BITS = 16


class _Plan:
    """What a count table alone fixes about a refinement (see refine_masks):
    the cell sizes, and with them the universe size, its rows must match;
    the one-class cells as ``(cell, class)``; the multi-class cells as
    ``(cell, a, b)``, side by side as the columns ``a:b`` of ``total``."""

    def __init__(self, table: tuple[tuple[int, ...], ...]) -> None:
        self.table = table
        self.sizes = tuple(sum(row) for row in table)
        self.m = sum(self.sizes)
        self.n_classes = len(table[0])
        fixed: list[tuple[int, int]] = []
        multi: list[tuple[int, int, int]] = []
        total = 0
        for i, (row, size) in enumerate(zip(table, self.sizes)):
            nonzero = [j for j, cnt in enumerate(row) if cnt]
            if len(nonzero) == 1:
                fixed.append((i, nonzero[0]))
            elif nonzero:
                multi.append((i, total, total + size))
                total += size
        self.fixed, self.multi, self.total = tuple(fixed), tuple(multi), total

    @cached_property
    def class_offsets(self) -> np.ndarray:
        # Multi-row chunks only: column x lands in class j, which owns the
        # whole bytes from ``j * width`` of each row's block.
        width = 8 * ((self.m + 7) // 8)
        offsets = np.arange(0, self.n_classes * width, width, dtype=np.min_scalar_type(self.n_classes * width - 1))
        rows = [self.table[i] for i, _, _ in self.multi]
        return np.repeat(np.tile(offsets, len(rows)), [cnt for row in rows for cnt in row])


@lru_cache(maxsize=64)
def _plan(table: tuple[tuple[int, ...], ...]) -> _Plan | None:
    # None for a table that no cells fit whatever their sizes: no rows, or
    # a row that _check_count_rows rejects on its own.
    if not table or any(_row_fault(row, len(table[0])) for row in table):
        return None
    return _Plan(table)


def refine_masks(
    base_cells: Sequence[ItemSet],
    class_counts: Sequence[Sequence[int]],
    rng: RngStream,
    rows: int,
) -> list[list[int]]:
    """``rows`` independent refinements of the same cells, as bitmasks.

    The cells must partition the universe; ``class_counts[i]`` gives, for
    cell ``i``, how many of its items land in each of the ``c`` classes, as
    counts >= 0 that sum to its size (:class:`InvalidParameter` otherwise).
    Within a cell the assignment is uniform over all assignments meeting the
    counts, and cells and refinements are independent.  Returns, per row,
    the ``c`` class masks (item ``i`` is bit ``i``), which partition the
    universe.  Callers that keep only some sets, or unions of classes, build
    just those from the masks.

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
    What the count table alone fixes is its plan, built once per table and
    cached: the count-row checks, the cell sizes the rows must match, the
    one-class and multi-class cells, the multi-class cells' columns of one
    index array and each column's class.  A call checks that its cells
    partition the universe with the plan's sizes, unpacks all multi-class
    cells at once and broadcasts their items to every row of the chunk;
    after the draws, one add of the plan's class offsets and the row
    offsets places each item in its (row, class) block, and one set built
    from all of them holds every class mask.  Cells or counts that miss the
    plan raise what :class:`PartitionParameter`'s checks raise.

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
    _check_partition(base_cells)
    plan = _plan(tuple(tuple(map(index, row)) for row in class_counts))
    if plan is None or tuple(map(len, base_cells)) != plan.sizes:
        # Partitioning cells miss their table's plan exactly when the rows
        # fail this check, which raises with its own text.
        _check_count_rows(base_cells, class_counts)
    m, n_classes = plan.m, plan.n_classes
    # Whole cells that land in one class, as bits shared by every row.
    fixed = [0] * n_classes
    for i, j in plan.fixed:
        fixed[j] |= base_cells[i].bits
    chunk = max(1, _BATCH_ITEMS // m)
    if chunk == 1:
        return [_exchangeable_row(plan, base_cells, fixed, rng) for _ in range(rows)]
    nbytes = (m + 7) // 8
    # Item x that lands in class j in row i of a chunk is item
    # (i * n_classes + j) * width + x of one universe: every (row, class)
    # owns a block of whole bytes, so one set over that universe holds all
    # of the chunk's class masks, in that order.
    width = 8 * nbytes
    # The multi-class cells' items, side by side in one row: one unpack.
    raw = b"".join(base_cells[i].bits.to_bytes(nbytes, "little") for i, _, _ in plan.multi)
    grid = np.frombuffer(raw, dtype=np.uint8).reshape(len(plan.multi), nbytes)
    items = np.unpackbits(grid, axis=1, count=m, bitorder="little").nonzero()[1]
    out: list[list[int]] = []
    for start in range(0, rows, chunk):
        r = min(chunk, rows - start)
        universe = r * n_classes * width
        # The smallest dtype keeps the index array small; a shuffle's draws
        # depend only on the length.
        dtype = np.min_scalar_type(universe - 1)
        flat = np.empty((r, plan.total), dtype=dtype)
        flat[:] = items
        for _, a, b in plan.multi:
            perm = flat[:, a:b]
            rng.np.permuted(perm, axis=1, out=perm)
        flat += plan.class_offsets + np.arange(0, universe, n_classes * width, dtype=dtype)[:, None]
        packed = ItemSet.from_numpy_indices(universe, flat.ravel()).bits.to_bytes(universe // 8, "little")
        masks = [int.from_bytes(packed[k : k + nbytes], "little") for k in range(0, len(packed), nbytes)]
        for i in range(0, len(masks), n_classes):
            out.append([f | b for f, b in zip(fixed, masks[i : i + n_classes])])
    return out


def _exchangeable_row(plan: _Plan, cells: Sequence[ItemSet], fixed: Sequence[int], rng: RngStream) -> list[int]:
    # One row of a one-row chunk (see refine_masks): each multi-class cell
    # labels its items, and one mask is packed per class.
    m, n_classes = plan.m, plan.n_classes
    labels = np.full(m, n_classes, dtype=np.min_scalar_type(n_classes))
    for i, a, b in plan.multi:
        row = plan.table[i]
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
            labels[cells[i].indices()] = lab
    masks = [int.from_bytes(np.packbits(labels == j, bitorder="little").tobytes(), "little") for j in range(n_classes)]
    return [f | mask for f, mask in zip(fixed, masks)]


def refine_rows(
    base_cells: Sequence[ItemSet],
    class_counts: Sequence[Sequence[int]],
    rng: RngStream,
    rows: int,
) -> list[list[ItemSet]]:
    """``rows`` independent refinements of the same cells: the class masks
    of :func:`refine_masks`, with the same arguments, checks and draws, as
    class sets."""
    masks = refine_masks(base_cells, class_counts, rng, rows)
    m = base_cells[0].m
    return [[ItemSet._new(m, x) for x in row] for row in masks]


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
