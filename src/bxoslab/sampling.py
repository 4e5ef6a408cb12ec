"""Partition-constrained uniform sampling.

A partition parameter fixes, for each cell of a partition of the universe,
how many items a sampled set must take from that cell.  Because the
constraint factorizes over cells, drawing an independent uniform
``counts[i]``-subset of each cell yields the uniform distribution over all
feasible sets; the exhaustive small-universe tests in the suite validate this
argument directly.

One engine, behind :func:`refine_masks`, draws every such set, as class 0 of
the count rows ``(p, |cell| - p)``, and every refinement into more classes
that ``construction`` samples.  In-cell selection is a uniform permutation, or
at large universes i.i.d. per-item labels, drawn for the whole universe in item
order, whose class counts a fix-up by uniform rejection then makes exact;
either is exactly uniform and runs at C speed for large cells.  The labels are
the 16-bit lanes of the raw Philox words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from math import comb
from operator import index
from typing import Iterator, Sequence

import numpy as np

from .itemsets import ItemSet, UniverseMismatch
from .rng import RngStream


class InvalidParameter(ValueError):
    """Raised for ill-formed partition parameters or count tables."""


def _check_partition(cells: Sequence[ItemSet]) -> None:
    # ItemSet cells, at least one, all of one universe, which they partition.
    if not isinstance(cells, Sequence):
        raise InvalidParameter(f"cells must be a sequence, got {type(cells).__name__}")
    for i, c in enumerate(cells):
        if not isinstance(c, ItemSet):
            raise InvalidParameter(f"cell {i} is not an ItemSet, got {type(c).__name__}")
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


@dataclass(frozen=True)
class PartitionParameter:
    """A partition of the universe plus one prescribed count per cell."""

    cells: tuple[ItemSet, ...]
    counts: tuple[int, ...]
    # The cell sizes, as the entry check counted them.
    sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_partition(self.cells)
        if not isinstance(self.counts, Sequence):
            raise InvalidParameter(f"counts must be a sequence, got {type(self.counts).__name__}")
        if len(self.counts) != len(self.cells):
            raise InvalidParameter("one count per cell is required")
        sizes = tuple(map(len, self.cells))
        # 0 <= p <= |cell|: the cell splits into p chosen and |cell| - p other items.
        for i, (p, size) in enumerate(zip(self.counts, sizes)):
            try:
                p = index(p)
            except TypeError:
                raise InvalidParameter(f"cell {i}: count {p!r} is non-integer") from None
            if p < 0 or p > size:
                fault = "negative" if p < 0 else f"above the cell's {size} items"
                raise InvalidParameter(f"cell {i}: count {p} is {fault}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def m(self) -> int:
        return self.cells[0].m


# Item slots drawn in one pass of :func:`refine_masks` (rows x universe size).
# For every universe size above half of this each pass is one row, so
# large-m draws and their memory are those of one refinement at a time.
_BATCH_ITEMS = 1 << 16

# Bits of the per-item draw of a one-row refinement, and the items drawn and
# labelled per pass (a multiple of four, so the passes read the raw words one
# call would; see refine_masks).
_LABEL_BITS = 16
_LABEL_CHUNK = 1 << 15


class _Plan:
    """What a count table alone fixes about a refinement (see refine_masks):
    the universe size its rows must match; the one-class cells as
    ``(cell, class)``; the multi-class cells as ``(cell, a, b)``, side by
    side as the columns ``a:b`` of one index array.  It only derives: the
    table reaches it through :func:`_draw`, checked by :func:`_checked_table`
    or as one of ``construction``'s constant tables."""

    def __init__(self, table: tuple[tuple[int, ...], ...]) -> None:
        self.table = table
        self.m = sum(map(sum, table))
        self.n_classes = len(table[0])
        fixed: list[tuple[int, int]] = []
        multi: list[tuple[int, int, int]] = []
        width = 0
        for i, row in enumerate(table):
            nonzero = [j for j, cnt in enumerate(row) if cnt]
            if len(nonzero) == 1:
                fixed.append((i, nonzero[0]))
            elif nonzero:
                multi.append((i, width, width + sum(row)))
                width = multi[-1][2]
        self.fixed, self.multi = tuple(fixed), tuple(multi)

    @cached_property
    def class_offsets(self) -> np.ndarray:
        # Draws at m <= _BATCH_ITEMS // 2: column x of the k-th multi-class
        # cell holds an item ``k * width + y`` of the unpacked cells, and its
        # offset moves that item to ``j * width + y``, into class j, which
        # owns the whole bytes from ``j * width`` of each row's block.
        width = 8 * ((self.m + 7) // 8)
        classes = np.arange(0, self.n_classes * width, width, dtype=np.intp)
        return np.concatenate([np.repeat(classes - k * width, self.table[i]) for k, (i, _, _) in enumerate(self.multi)])


# One plan per count table, built by _draw; only checked tables reach it.
_plan = lru_cache(maxsize=64)(_Plan)


def _checked_count(value: int, name: str) -> int:
    # A number of rows to draw: an integer (numpy's too) >= 0.
    try:
        value = index(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise InvalidParameter(f"{name} must be >= 0, got {value}")
    return value


def _checked_table(cells: Sequence[ItemSet], class_counts: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    # The entry check of refine_masks, in the order its docstring gives;
    # only a table that passes reaches the plan cache.
    _check_partition(cells)
    try:
        given = [tuple(row) for row in class_counts]
    except TypeError:
        raise InvalidParameter(f"class counts {class_counts!r} are not rows of counts") from None
    table = []
    for row in given:
        try:
            table.append(tuple(map(index, row)))
        except TypeError:
            raise InvalidParameter(f"class counts {row} include a non-integer count") from None
    for row in table:
        if len(row) != len(table[0]):
            raise InvalidParameter("count rows have inconsistent lengths")
        if min(row, default=0) < 0:
            raise InvalidParameter(f"class counts {row} include a negative count")
    if len(table) != len(cells):
        raise InvalidParameter("one count row per cell is required")
    for row, cell in zip(table, cells):
        if sum(row) != len(cell):
            raise InvalidParameter(f"class counts {row} do not sum to cell size {len(cell)}")
    return tuple(table)


def refine_masks(
    base_cells: Sequence[ItemSet],
    class_counts: Sequence[Sequence[int]],
    rng: RngStream,
    rows: int,
) -> list[list[int]]:
    """``rows`` independent refinements of the same cells, as bitmasks.

    The cells must partition the universe; ``class_counts[i]`` gives, for
    cell ``i``, how many of its items land in each of the ``c`` classes, as
    integer counts >= 0 that sum to its size (:class:`InvalidParameter`
    otherwise).  ``rows`` is checked first, as an integer (numpy's too, not
    a float or a string) >= 0.  The entry check is then one pass that reports
    the first fault in this order: the cells, a table or row that is not
    iterable, non-integer counts, each row's length and sign in row order,
    the number of rows, each row's sum.
    :class:`PartitionParameter` checks its cells the same way and names a
    count that does not fit.  ``construction``'s samplers skip this
    check and call the engine, ``_draw``: each of their partitions is checked
    once, where it is built, and ``Instance.validate`` recounts what they drew.
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
    permutation in class order.  These chunks keep permutations: their
    cells are small (tens of items in the m = 160 README runs), and there
    the draw below, with several numpy calls per cell and class, costs
    about 12 times as much per row (260 against 21 us for one clause pair
    of a basis at m = 160, on a 2-vCPU x86-64 host).
    What the count table alone fixes is its plan, built once per table and
    cached: the universe size the rows must match, the one-class and
    multi-class cells, the multi-class cells' columns of one index array
    and each column's class offset.  A call unpacks all multi-class cells
    at once and adds their items to each row's offset in the chunk; the
    array is ``np.intp``, whose pointer-size items numpy shuffles in its
    fast swap loop, with the same draws as for any other integer type.
    Each row of the chunk is shuffled by ``rng.np.permuted`` along its
    axis; a one-row call (``rows == 1``) instead shuffles each cell's
    items in place with ``Generator.shuffle``, which draws what
    ``permuted`` draws for one row, and adds no row offset.
    After the draws, one add of the plan's class offsets places each item
    in its (row, class) block, and one set built from all of them, with the
    one-class cells' items added to every row, holds every class mask.

    Where every chunk is one row (``m > _BATCH_ITEMS // 2``), a row works
    in item order.  Unless every cell lands in one class, it reads one
    16-bit draw per item of the universe in ascending order: the
    little-endian 16-bit lanes, low lane first, of the raw 64-bit words of
    ``rng.np.bit_generator.random_raw``, ``ceil(len / 4)`` words per pass of
    ``_LABEL_CHUNK`` items.  A 32-bit half that numpy holds between draws
    stays held for its next 32-bit draw.  An item of a multi-class cell of
    ``size`` items takes the label of how many of the thresholds
    ``(cum << 16) // size`` it clears, ``cum`` running over its
    row's cumulative counts but the last; one table per call, indexed by
    (cell, draw), holds every label, and the items of one-class cells take
    no label.  Then, cell by cell and class by class, each (cell, class)
    with a surplus ``d`` releases ``d`` of its items by sequential
    rejection: batches of ``rng.np.integers(0, m, size=...)`` uniform
    items, each batch as long as the hits still wanted need on average
    (``ceil(wanted * m / members not yet hit)``, at most ``_LABEL_CHUNK``),
    keep the first hit of each member in draw order until ``d`` are
    released.  The released items of a cell take the missing labels as one
    ``rng.np.shuffle``-d ``np.repeat`` of them in class order.  The class
    masks are packed a pass at a time, and a (cell, class) count is a
    popcount of that class's words within the cell's.  This is
    exactly uniform: (1) the first labels are i.i.d., so their law does not
    change when the items are permuted; (2) sequential rejection releases a
    uniformly ordered sample of a class's items in its cell, and the missing
    labels are placed by a uniform permutation, so the fix-up commutes with
    permuting the items and the result is exchangeable; (3) the result
    always meets the counts, and the permutations act transitively on
    assignments with fixed counts, so that exchangeable law is the uniform
    one.  The 16-bit precision changes only the size of the fix-up, never
    the law; rejection costs about ``d * m / |S|`` draws for a surplus of
    ``d`` among the ``|S|`` items of that (cell, class).  Per call the
    buffers hold one cell id per item and 64 Ki labels per multi-class
    cell; nothing of them is cached.
    """
    rows = _checked_count(rows, "rows")
    table = _checked_table(base_cells, class_counts)
    return _draw(table, [c.bits for c in base_cells], rng, rows)


def _draw(table: tuple[tuple[int, ...], ...], cells: Sequence[int], rng: RngStream, rows: int) -> list[list[int]]:
    # refine_masks without its entry check, from a checked table of tuples,
    # int cell masks and rows >= 0.  The caller owes cells that partition the
    # universe with the row sums as sizes: on others a multi-row chunk misses
    # the counts, and a one-row chunk may never return, as it takes a cell's
    # last class count from its row sum and _release then waits for items
    # that are not there.
    plan = _plan(table)
    m, n_classes = plan.m, plan.n_classes
    # Whole cells that land in one class, as bits shared by every row.
    fixed = [0] * n_classes
    for i, j in plan.fixed:
        fixed[j] |= cells[i]
    if not plan.multi or not rows:
        return [list(fixed) for _ in range(rows)]
    chunk = max(1, _BATCH_ITEMS // m)
    if chunk == 1:
        return _labelled_rows(plan, cells, fixed, rng, rows)
    nbytes = (m + 7) // 8
    # Item x that lands in class j in row i of a chunk is item
    # (i * n_classes + j) * width + x of one universe: every (row, class)
    # owns a block of whole bytes, so one set over that universe holds all
    # of the chunk's class masks, in that order.
    width = 8 * nbytes
    # The multi-class cells' items, side by side in one row: one unpack of
    # the cells' blocks of width bits, which the class offsets undo.
    raw = b"".join(cells[i].to_bytes(nbytes, "little") for i, _, _ in plan.multi)
    items = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little").view(bool).nonzero()[0]
    full, row_bytes = (1 << m) - 1, n_classes * nbytes
    if rows == 1:
        # One row: each cell's items shuffled in place, which draws what
        # permuted draws for a one-row block, and the classes cut off one set.
        for _, a, b in plan.multi:
            rng.np.shuffle(items[a:b])
        items += plan.class_offsets
        bits = ItemSet.from_numpy_indices(8 * row_bytes, items).bits
        return [[f | bits >> j * width & full for j, f in enumerate(fixed)]]
    # The one-class cells' items, in one row's class blocks.
    fixed_row = sum(f << j * width for j, f in enumerate(fixed))
    out: list[list[int]] = []
    for start in range(0, rows, chunk):
        r = min(chunk, rows - start)
        universe = 8 * r * row_bytes
        # Row i's items, moved into row i's blocks, where its shuffles keep
        # them.  They are intp, at most _BATCH_ITEMS of them (65536 x 8 B =
        # 512 KiB): numpy swaps pointer-size items in a fast loop of their
        # own and others in a generic one, and draws the same either way.
        flat = np.add(items, np.arange(0, universe, 8 * row_bytes, dtype=np.intp)[:, None])
        for _, a, b in plan.multi:
            perm = flat[:, a:b]
            rng.np.permuted(perm, axis=1, out=perm)
        flat += plan.class_offsets
        packed = ItemSet.from_numpy_indices(universe, flat.ravel()).bits.to_bytes(universe // 8, "little")
        # One int per row, then shifts of it per class; shifts of the whole
        # chunk's int would take time quadratic in the chunk.
        for k in range(0, len(packed), row_bytes):
            row = int.from_bytes(packed[k : k + row_bytes], "little") | fixed_row
            out.append([row >> j * width & full for j in range(n_classes)])
    return out


def _cell_ids(cell_words: Sequence[np.ndarray], m: int) -> np.ndarray:
    # Per item, the index of its multi-class cell, or len(cell_words) for an
    # item of a one-class cell.  Bit b of the ids is the union of the cells
    # whose id has that bit, unpacked a chunk at a time so that no
    # temporary spans the universe.
    last = len(cell_words)
    ids = [*cell_words, ~reduce(np.bitwise_or, cell_words)]
    planes = [
        reduce(np.bitwise_or, [w for k, w in enumerate(ids) if k >> b & 1]).view(np.uint8)
        for b in range(last.bit_length())
    ]
    cid = np.zeros(m, dtype=np.min_scalar_type(last))
    for a in range(0, m, _LABEL_CHUNK):
        e = min(a + _LABEL_CHUNK, m)
        part = cid[a:e]
        for b, plane in enumerate(planes):
            bit = np.unpackbits(plane[a // 8 : (e + 7) // 8], count=e - a, bitorder="little").astype(cid.dtype, copy=False)
            bit *= 1 << b
            part |= bit
    return cid


def _label_table(plan: _Plan) -> np.ndarray:
    # Entry (k << 16) + r is the label of draw r in the k-th multi-class
    # cell: how many of the thresholds (cum << 16) // size it clears.  The
    # last 1 << 16 entries, for items of one-class cells, hold n_classes,
    # which is no class.  A cell's class intervals cover its whole span.
    n_classes, span = plan.n_classes, 1 << _LABEL_BITS
    table = np.empty((len(plan.multi) + 1) * span, dtype=np.min_scalar_type(n_classes))
    table[-span:] = n_classes
    for k, (i, a, b) in enumerate(plan.multi):
        edges = [k * span + ((cum << _LABEL_BITS) // (b - a)) for cum in accumulate(plan.table[i], initial=0)]
        for j, (lo, hi) in enumerate(zip(edges, edges[1:])):
            table[lo:hi] = j
    return table


def _release(members: np.ndarray, left: int, d: int, m: int, rng: RngStream) -> list[int]:
    # d distinct items of the ``left`` items packed in the bytes
    # ``members``, in the order sequential rejection hits them: each batch
    # draws uniform items of the m, as many as the hits still wanted need on
    # average (at most _LABEL_CHUNK), and keeps the first hit of each member.
    taken: dict[int, None] = {}
    while len(taken) < d:
        x = rng.np.integers(0, m, size=min(-(-(d - len(taken)) * m // (left - len(taken))), _LABEL_CHUNK))
        hits = [i for i in dict.fromkeys(x[members[x >> 3] >> (x & 7) & 1 == 1].tolist()) if i not in taken]
        taken.update(dict.fromkeys(hits[: d - len(taken)]))
    return list(taken)


def _label_passes(bitgen: np.random.BitGenerator, n: int) -> Iterator[tuple[int, np.ndarray]]:
    # The labels of n items, in passes of _LABEL_CHUNK as (first item,
    # labels): a pass reads ceil(len / 4) raw 64-bit words as little-endian
    # 16-bit lanes, low lane first.  A 32-bit half that numpy holds for its
    # next 32-bit draw stays held.
    for a in range(0, n, _LABEL_CHUNK):
        size = min(_LABEL_CHUNK, n - a)
        yield a, bitgen.random_raw(-(-size // 4)).astype("<u8", copy=False).view("<u2")[:size]


def _labelled_rows(plan: _Plan, cells: Sequence[int], fixed: Sequence[int], rng: RngStream, rows: int) -> list[list[int]]:
    # One-row chunks (see refine_masks).  The multi-class cells, the classes
    # of the current row and one scratch row are packed into 64-bit words,
    # rows of one array made once per call, so a (cell, class) count is one
    # AND and one popcount.
    m, n_classes, n_multi = plan.m, plan.n_classes, len(plan.multi)
    nwords = (m + 63) // 64
    words = np.zeros((n_multi + n_classes + 1, nwords), dtype=np.uint64)
    cell_words, packed, word = words[:n_multi], words[n_multi:-1], words[-1]
    for k, (i, _, _) in enumerate(plan.multi):
        cell_words[k] = np.frombuffer(cells[i].to_bytes(8 * nwords, "little"), dtype=np.uint64)
    as_bytes = packed.view(np.uint8)
    cid = _cell_ids(cell_words, m)
    table = _label_table(plan)
    classes = np.arange(n_classes, dtype=table.dtype)[:, None]
    key = np.empty(_LABEL_CHUNK, dtype=np.min_scalar_type(((n_multi + 1) << _LABEL_BITS) - 1))
    labels = np.empty(_LABEL_CHUNK, dtype=table.dtype)
    out = []
    for _ in range(rows):
        for a, draws in _label_passes(rng.np.bit_generator, m):
            b = a + len(draws)
            part = key[: b - a]
            np.copyto(part, cid[a:b])
            part <<= _LABEL_BITS
            part |= draws
            # Every key is in range; "clip" only spares take a buffered copy.
            lab = np.take(table, part, out=labels[: b - a], mode="clip")
            as_bytes[:, a // 8 : (b + 7) // 8] = np.packbits(lab == classes, axis=1, bitorder="little")
        # Released items, their old classes and their new ones.  The cells
        # are disjoint, so the masks are fixed up after the last cell.
        moved: list[int] = []
        was: list[int] = []
        now: list[int] = []
        for k, (i, a, b) in enumerate(plan.multi):
            cell, row = cell_words[k], plan.table[i]
            # A class with no items has an empty label interval, and the
            # last class with items takes what the others leave.
            used = [j for j, cnt in enumerate(row) if cnt]
            got = [0] * n_classes
            for j in used[:-1]:
                got[j] = int(np.bitwise_count(np.bitwise_and(packed[j], cell, out=word), out=word).sum())
            got[used[-1]] = b - a - sum(got)
            excess = [g - cnt for g, cnt in zip(got, row)]
            if not any(excess):
                continue
            for j, d in enumerate(excess):
                if d > 0:
                    members = np.bitwise_and(packed[j], cell, out=word).view(np.uint8)
                    moved += _release(members, got[j], d, m, rng)
                    was += [j] * d
            fill = np.repeat(np.arange(n_classes), [max(-d, 0) for d in excess])
            rng.np.shuffle(fill)
            now += fill.tolist()
        if moved:
            # A released item's bit flips in its old class and its new one.
            items = np.array(moved * 2)
            at = np.array(was + now) * as_bytes.shape[1] + (items >> 3)
            np.bitwise_xor.at(as_bytes.reshape(-1), at, (1 << (items & 7)).astype(np.uint8))
        out.append([f | int.from_bytes(p.tobytes(), "little") for f, p in zip(fixed, packed)])
    return out


def refine_sample(
    base_cells: Sequence[ItemSet],
    class_counts: Sequence[Sequence[int]],
    rng: RngStream,
) -> list[ItemSet]:
    """One refinement of the cells: the class masks of
    ``refine_masks(..., 1)[0]``, with the same arguments, checks and draws,
    as class sets."""
    masks = refine_masks(base_cells, class_counts, rng, 1)[0]
    return [ItemSet._new(base_cells[0].m, x) for x in masks]


def expected_intersection(d: PartitionParameter, d2: PartitionParameter) -> Fraction:
    """Exact expected size of ``|U & U'|`` for independent draws U, U'.

    Sums ``p_i * p'_j * |P_i & P'_j| / (|P_i| * |P'_j|)`` over all pairs of
    non-empty cells, as exact rational arithmetic.
    """
    if d.m != d2.m:
        raise UniverseMismatch("parameters live over different universes")
    total = Fraction(0)
    for cell, size, count in zip(d.cells, d.sizes, d.counts):
        if size == 0 or count == 0:
            continue
        for cell2, size2, count2 in zip(d2.cells, d2.sizes, d2.counts):
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
    for cell, size, count in zip(param.cells, param.sizes, param.counts):
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
    for cell, size, count in zip(param.cells, param.sizes, param.counts):
        if size == 0:
            continue
        hit = (cell.bits & avoid.bits).bit_count()
        prob *= Fraction(size - count, size) ** hit
    return prob
