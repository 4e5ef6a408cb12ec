"""Partition-constrained uniform sampling.

A partition parameter fixes, for each cell of a partition of the universe,
how many items a sampled set must take from that cell.  Because the
constraint factorizes over cells, drawing an independent uniform
``counts[i]``-subset of each cell yields the uniform distribution over all
feasible sets; the exhaustive small-universe tests in the suite validate this
argument directly.

In-cell selection is a uniform permutation, or at large universes a uniformly
ordered sample of the items outside the largest class, split into blocks;
either is exactly uniform and runs at C speed for large cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Sequence

import numpy as np

from .itemsets import ItemSet, UniverseMismatch
from .rng import RngStream


class InvalidParameter(ValueError):
    """Raised for ill-formed partition parameters or count tables."""


@dataclass(frozen=True)
class PartitionParameter:
    """A partition of the universe plus one prescribed count per cell."""

    cells: tuple[ItemSet, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise InvalidParameter("at least one cell is required")
        m = self.cells[0].m
        union = 0
        for c in self.cells:
            if c.m != m:
                raise UniverseMismatch("cells live over different universes")
            if union & c.bits:
                raise InvalidParameter("cells are not pairwise disjoint")
            union |= c.bits
        if union != (1 << m) - 1:
            raise InvalidParameter("cells do not cover the universe")
        if len(self.counts) != len(self.cells):
            raise InvalidParameter("one count per cell is required")
        for c, p in zip(self.cells, self.counts):
            if not 0 <= p <= len(c):
                raise InvalidParameter(f"count {p} outside [0, {len(c)}]")

    @property
    def k(self) -> int:
        return len(self.cells)

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


def sample_pc_ally(param: PartitionParameter, rng: RngStream) -> ItemSet:
    """Independent-inclusion relaxation of :func:`sample_pc`.

    Each item of cell ``i`` joins with probability ``counts[i] / |cell_i|``,
    independently of everything else.  The Bernoulli draws use exact integer
    comparisons, no float thresholds.
    """
    m = param.m
    bits = 0
    for cell, items, count in zip(param.cells, param._cell_indices, param.counts):
        size = items.size
        if count == 0 or size == 0:
            continue
        if count == size:
            bits |= cell.bits
            continue
        hits = items[rng.np.integers(0, size, size=size) < count]
        bits |= ItemSet.from_numpy_indices(m, hits).bits
    return ItemSet(m, bits)


# Item slots drawn in one pass of :func:`refine_rows` (rows x universe size).
# For every universe size above half of this each pass is one row, so
# large-m draws and their memory are those of one refinement at a time.
_BATCH_ITEMS = 1 << 16


def refine_rows(
    base_cells: Sequence[ItemSet],
    class_counts: Sequence[Sequence[int]],
    rng: RngStream,
    rows: int,
) -> list[list[ItemSet]]:
    """``rows`` independent refinements of the same cells.

    ``class_counts[i]`` gives, for cell ``i``, how many of its items land in
    each of the ``c`` classes; each count row must sum to its cell's size.
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
    permutation in class order.  These chunks keep ``permuted`` rather than
    the draw below: their cells are small (tens of items in the m = 160
    README runs), and there one ``Generator.choice`` call costs several
    times a shuffle.

    Where every chunk is one row, every other cell of ``size`` items draws
    only the items that leave its largest class (the first one on a tie):
    ``rng.np.choice(size, k, replace=False)`` gives a uniformly ordered
    sample of ``k = size - max(row)`` positions among the cell's items in
    ascending order, the other classes take consecutive blocks of it in
    class order, and the largest class takes the rest of the cell.  The
    assignment is still uniform over all assignments meeting the counts.
    """
    if not base_cells:
        raise InvalidParameter("at least one cell is required")
    if len(class_counts) != len(base_cells):
        raise InvalidParameter("one count row per cell is required")
    m = base_cells[0].m
    n_classes = len(class_counts[0])
    # Whole cells that land in one class, as bits shared by every row; the
    # shuffled cells with their count rows, side by side as the columns
    # ``a:b`` of one index array per chunk.
    fixed = [0] * n_classes
    shuffled: list[tuple[ItemSet, Sequence[int], int, int]] = []
    total = 0
    for cell, row in zip(base_cells, class_counts):
        if cell.m != m:
            raise UniverseMismatch("cells live over different universes")
        if len(row) != n_classes:
            raise InvalidParameter("count rows have inconsistent lengths")
        size = len(cell)
        if sum(row) != size:
            raise InvalidParameter(f"class counts {tuple(row)} do not sum to cell size {size}")
        nonzero = [j for j, cnt in enumerate(row) if cnt]
        if len(nonzero) == 1:
            fixed[nonzero[0]] |= cell.bits
        elif nonzero:
            shuffled.append((cell, row, total, total + size))
            total += size
    chunk = max(1, _BATCH_ITEMS // m)
    if chunk == 1:
        return [_minority_row(m, fixed, shuffled, rng) for _ in range(rows)]
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


def _minority_row(
    m: int,
    fixed: Sequence[int],
    shuffled: Sequence[tuple[ItemSet, Sequence[int], int, int]],
    rng: RngStream,
) -> list[ItemSet]:
    # One row of a one-row chunk (see refine_rows): the placed items are
    # labelled by class, one mask is packed per class, and each cell's
    # largest class gets the cell's bits that no class took.
    n_classes = len(fixed)
    labels = np.full(m, n_classes, dtype=np.min_scalar_type(n_classes))
    rest = [0] * n_classes
    for cell, row, a, b in shuffled:
        size = b - a
        largest = row.index(max(row))
        positions = rng.np.choice(size, size - row[largest], replace=False)
        # A whole-universe cell's items are its positions; gathering them
        # would hold another index array as large as the sample.
        items = positions if size == m else cell.indices()[positions]
        pos = 0
        for j, cnt in enumerate(row):
            if cnt and j != largest:
                labels[items[pos : pos + cnt]] = j
                pos += cnt
        rest[largest] |= cell.bits
    masks = [int.from_bytes(np.packbits(labels == j, bitorder="little").tobytes(), "little") for j in range(n_classes)]
    placed = 0
    for mask in masks:
        placed |= mask
    return [ItemSet(m, f | mask | (r & ~placed)) for f, mask, r in zip(fixed, masks, rest)]


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
