"""Partition-constrained uniform sampling.

A partition parameter fixes, for each cell of a partition of the universe,
how many items a sampled set must take from that cell.  Because the
constraint factorizes over cells, drawing an independent uniform
``counts[i]``-subset of each cell yields the uniform distribution over all
feasible sets; the exhaustive small-universe tests in the suite validate this
argument directly.

In-cell selection is a uniform permutation truncated (or split) into blocks,
which is exactly uniform and runs at C speed for large cells.
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


def refine_sample(
    base_cells: Sequence[ItemSet],
    class_counts: Sequence[Sequence[int]],
    rng: RngStream,
) -> list[ItemSet]:
    """Assign each cell's items to labeled classes with prescribed counts.

    ``class_counts[i]`` gives, for cell ``i``, how many of its items land in
    each of the ``c`` classes; the row must sum to the cell size.  Within a
    cell the assignment is uniform over all assignments meeting the counts,
    and cells are independent.  Returns the ``c`` class sets, which partition
    the universe.

    Draw order, which the golden digests pin: cells are visited in order; a
    cell whose items all land in one class draws nothing; every other cell
    draws one uniform permutation of its items in ascending order (the draws
    of ``rng.np.permutation``), and the classes with a non-zero count take
    consecutive blocks of that permutation in class order.
    """
    if not base_cells:
        raise InvalidParameter("at least one cell is required")
    if len(class_counts) != len(base_cells):
        raise InvalidParameter("one count row per cell is required")
    m = base_cells[0].m
    # Smallest dtype that holds every item index (uint32 at m = 1.6M), so the
    # blocks held until the classes are built take half the int64 memory or
    # less.  A shuffle's draws depend only on the length, not the dtype.
    index_dtype = np.min_scalar_type(m - 1)
    n_classes = len(class_counts[0])
    acc = [0] * n_classes
    pieces: list[list[np.ndarray]] = [[] for _ in range(n_classes)]
    for cell, row in zip(base_cells, class_counts):
        if cell.m != m:
            raise UniverseMismatch("cells live over different universes")
        if len(row) != n_classes:
            raise InvalidParameter("count rows have inconsistent lengths")
        size = len(cell)
        if sum(row) != size:
            raise InvalidParameter(f"class counts {tuple(row)} do not sum to cell size {size}")
        if size == 0:
            continue
        nonzero = [j for j, cnt in enumerate(row) if cnt]
        if len(nonzero) == 1:
            # Whole cell lands in one class; no shuffle needed.
            acc[nonzero[0]] |= cell.bits
            continue
        # ``rng.np.permutation`` is a copy plus this in-place shuffle.
        perm = cell.indices().astype(index_dtype)
        rng.np.shuffle(perm)
        pos = 0
        for j in nonzero:
            pieces[j].append(perm[pos : pos + row[j]])
            pos += row[j]
    for j, parts in enumerate(pieces):
        if parts:
            items = parts[0] if len(parts) == 1 else np.concatenate(parts)
            acc[j] |= ItemSet.from_numpy_indices(m, items).bits
    return [ItemSet(m, a) for a in acc]


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
