import tracemalloc
import types
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import hypergeom

from bxoslab import (
    InvalidParameter,
    ItemSet,
    PartitionParameter,
    RngStream,
    UniverseMismatch,
    expected_intersection,
    part_cells,
    pc_ally_avoidance_probability,
    pc_avoidance_probability,
    refine_masks,
    refine_sample,
)
from bxoslab import sampling
from bxoslab.construction import (
    _joint_cells,
    constant_vectors,
    sample_basis,
    sample_clause_pairs,
    sample_compatible,
    sample_instance,
    sample_special_pair,
)
from bxoslab.stats import chi2_sf, uniform_chi2
from test_acceptance import pc_masks


def split_param(m, cut, counts):
    cells = (ItemSet.from_indices(m, range(cut)), ItemSet.from_indices(m, range(cut, m)))
    return PartitionParameter(cells, counts)


class TestPartitionParameter:
    def test_rejects_overlapping_cells(self):
        a = ItemSet.from_indices(8, range(5))
        b = ItemSet.from_indices(8, range(4, 8))
        with pytest.raises(InvalidParameter):
            PartitionParameter((a, b), (1, 1))

    def test_rejects_non_cover(self):
        a = ItemSet.from_indices(8, range(4))
        b = ItemSet.from_indices(8, range(4, 7))
        with pytest.raises(InvalidParameter):
            PartitionParameter((a, b), (1, 1))

    def test_rejects_count_above_cell_size(self):
        with pytest.raises(InvalidParameter):
            PartitionParameter((ItemSet.full(8),), (9,))

    def test_rejects_negative_count(self):
        with pytest.raises(InvalidParameter, match="negative"):
            PartitionParameter((ItemSet.full(8),), (-1,))

    @pytest.mark.parametrize("m", [16, 40_000])
    def test_count_errors_name_the_given_count(self, m):
        half = m // 2
        for count, message in (
            (half + 1, f"cell 1: count {half + 1} is above the cell's {half} items"),
            (1.5, "cell 1: count 1.5 is non-integer"),
            (-1, "cell 1: count -1 is negative"),
        ):
            with pytest.raises(InvalidParameter) as err:
                split_param(m, half, (1, count))
            assert str(err.value) == message

    @pytest.mark.parametrize("m", [16, 40_000])
    def test_rejects_non_integer_count(self, m):
        # Integer-valued floats too: a count must be an integer.
        for counts in ((1.5, 2.5), (1.0, 2), (1, np.float64(2))):
            with pytest.raises(InvalidParameter, match="non-integer"):
                split_param(m, m // 2, counts)
        assert split_param(m, m // 2, (np.int64(1), 2)).counts == (1, 2)


class TestSamplePC:
    # Partition-constrained draws: class 0 of refine_masks rows (pc_masks).
    def test_full_counts_give_universe(self, rng):
        p = split_param(16, 6, (6, 10))
        assert list(pc_masks(p, rng, 1)) == [ItemSet.full(16).bits]

    def test_zero_counts_give_empty(self, rng):
        p = split_param(16, 6, (0, 0))
        assert list(pc_masks(p, rng, 1)) == [0]

    def test_profile_invariant_every_draw(self, rng):
        cells = tuple(part_cells(24, [ItemSet.from_indices(24, range(10))]))
        p = PartitionParameter(cells, (4, 7))
        for u in pc_masks(p, rng, 300):
            assert tuple((c.bits & u).bit_count() for c in p.cells) == p.counts

    def test_item_frequency_is_symmetric(self):
        # Single cell of 16, choose 8: item frequency 1/2 within 6 sigma,
        # over more draws than one refine_masks call of pc_masks takes.
        p = PartitionParameter((ItemSet.full(16),), (8,))
        draws = 100_000
        masks = np.fromiter(pc_masks(p, RngStream(5, 0), draws), dtype=np.int64, count=draws)
        hits = (masks[:, None] >> np.arange(16) & 1).sum(axis=0)
        for h in hits:
            assert abs(h / draws - 0.5) < 0.01


class TestRefineSample:
    def test_single_class_takes_whole_cell(self, rng):
        cell = ItemSet.full(12)
        (only,) = refine_sample([cell], [(12,)], rng)
        assert only == cell

    def test_classes_partition_universe(self, rng):
        # Cell order: complement (11 items) first, then the set (9 items).
        cells = part_cells(20, [ItemSet.from_indices(20, range(9))])
        counts = [(5, 0, 6), (3, 4, 2)]
        for _ in range(200):
            classes = refine_sample(cells, counts, rng)
            union = 0
            for cls in classes:
                assert union & cls.bits == 0
                union |= cls.bits
            assert union == (1 << 20) - 1
            for cell, row in zip(cells, counts):
                got = tuple((cell.bits & cls.bits).bit_count() for cls in classes)
                assert got == row

    def test_count_mismatch_raises(self, rng):
        with pytest.raises(InvalidParameter):
            refine_sample([ItemSet.full(8)], [(3, 3)], rng)

    # m = 16 draws in multi-row chunks and m = 40000 one row at a time; each
    # row sums to its cell's size, so only the sign check rejects it.
    @pytest.mark.parametrize("m", [16, 40_000])
    def test_negative_class_count_raises(self, m, rng):
        half = m // 2
        with pytest.raises(InvalidParameter, match="negative"):
            refine_sample([ItemSet.full(m)], [(half + 3, -3, half)], rng)
        with pytest.raises(InvalidParameter, match="negative"):
            refine_masks([ItemSet.full(m)], [(-1, m + 1)], rng, 2)

    # Rows that sum to the cell's size, so only the integer check rejects
    # them, also once the same table of ints has a cached plan.
    @pytest.mark.parametrize("m", [16, 40_000])
    def test_non_integer_class_count_raises(self, m, rng):
        half, cells = m // 2, [ItemSet.full(m)]
        refine_masks(cells, [(half, m - half)], rng, 2)
        floats = np.array([(half, m - half)], dtype=float)
        for table in ([(half + 0.5, m - half - 0.5)], [(float(half), m - half)], floats):
            with pytest.raises(InvalidParameter, match="non-integer"):
                refine_masks(cells, table, rng, 2)
        with pytest.raises(InvalidParameter, match="non-integer"):
            refine_sample(cells, [(half + 0.5, m - half - 0.5)], rng)

    # Each row sums to its cell's size, so only the partition check rejects
    # these cells, with PartitionParameter's texts, on both draw paths.
    @pytest.mark.parametrize("m", [16, 40_000])
    @pytest.mark.parametrize(
        "layout, message",
        [("overlapping", "cells are not pairwise disjoint"), ("missing-items", "cells do not cover the universe")],
        ids=["overlapping", "missing-items"],
    )
    def test_cells_that_are_not_a_partition_raise(self, m, layout, message, rng):
        unit = m // 16
        if layout == "overlapping":
            cells = [ItemSet.from_indices(m, range(10 * unit)), ItemSet.from_indices(m, range(6 * unit, m))]
        else:
            cells = [ItemSet.from_indices(m, range(8 * unit))]
        rows = [(len(c) // 2, len(c) - len(c) // 2) for c in cells]
        with pytest.raises(InvalidParameter, match=message):
            PartitionParameter(tuple(cells), tuple(row[0] for row in rows))
        with pytest.raises(InvalidParameter, match=message):
            refine_sample(cells, rows, rng)
        with pytest.raises(InvalidParameter, match=message):
            refine_masks(cells, rows, rng, 2)

    @pytest.mark.parametrize("m", [16, 40_000])
    def test_negative_rows_raise(self, m, rng):
        cells, table = [ItemSet.full(m)], [(m // 2, m - m // 2)]
        with pytest.raises(InvalidParameter, match="rows must be >= 0, got -1"):
            sampling.refine_masks(cells, table, rng, -1)
        with pytest.raises(InvalidParameter, match="rows must be >= 0"):
            refine_masks(cells, table, rng, -2)

    # A row or a table that is not iterable is a fault of the table, not a
    # TypeError from inside the check.
    @pytest.mark.parametrize("m", [16, 40_000])
    def test_non_iterable_counts_raise(self, m, rng):
        cells = [ItemSet.full(m)]
        with pytest.raises(InvalidParameter) as err:
            refine_masks(cells, [m], rng, 1)
        assert str(err.value) == f"class counts {[m]!r} are not rows of counts"
        for table in (m, None, [(m, 0), 3.5]):
            with pytest.raises(InvalidParameter, match="are not rows of counts"):
                refine_masks(cells, table, rng, 1)
        with pytest.raises(InvalidParameter, match="are not rows of counts"):
            refine_sample(cells, m, rng)

    @pytest.mark.parametrize("m", [16, 40_000])
    def test_non_integer_rows_raise(self, m, rng):
        cells, table = [ItemSet.full(m)], [(m // 2, m - m // 2)]
        for rows, shown in ((1.5, "1.5"), ("2", "'2'"), (2.0, "2.0"), (None, "None")):
            with pytest.raises(InvalidParameter) as err:
                refine_masks(cells, table, rng, rows)
            assert str(err.value) == f"rows must be an integer, got {shown}"
        want = refine_masks(cells, table, RngStream(8, 1), 2)
        for rows in (np.int64(2), np.uint8(2)):
            assert refine_masks(cells, table, RngStream(8, 1), rows) == want

    # m = 160 draws in multi-row chunks, m = 40000 one row at a time.
    @pytest.mark.parametrize("m", [160, 40_000])
    def test_zero_rows_draw_and_build_nothing(self, m, monkeypatch):
        # No draw, and no per-call array: the multi-row path unpacks the
        # cells first, the one-row path its label table and cell ids.
        cells, table = random_refinement(m, np.random.default_rng(3))
        base = sample_basis(m, RngStream(29, 1))

        def fail(*args, **kwargs):
            raise AssertionError("per-call arrays built for zero rows")

        monkeypatch.setattr(sampling, "_label_table", fail)
        monkeypatch.setattr(sampling.np, "unpackbits", fail)
        rng = RngStream(29, 0)
        assert sampling.refine_masks(cells, table, rng, 0) == []
        # An instance with n = 1 asks for zero regular clause pairs.
        assert sample_clause_pairs(base, rng, 0) == []
        assert rng.np.integers(1 << 62) == RngStream(29, 0).np.integers(1 << 62)

    def test_class_membership_frequency(self):
        # Cell of 5, classes (2, 2, 1): each item lands in class 0 with
        # frequency 2/5, by exchangeability.  Drawn as batched rows.
        m = 5
        draws = 100_000
        rows = refine_masks([ItemSet.full(m)], [(2, 2, 1)], RngStream(7, 0), draws)
        masks = np.fromiter((row[0] for row in rows), dtype=np.int64, count=draws)
        hits = (masks[:, None] >> np.arange(m) & 1).sum(axis=0)
        for h in hits:
            assert abs(h / draws - 0.4) < 0.01


def reference_refine_sample(base_cells, class_counts, rng):
    """Per-(cell, class) refinement the draw stream was pinned with: one
    ``permutation`` of each multi-class cell's ascending int64 items,
    consecutive blocks to the classes in class order, one set per block."""
    m = base_cells[0].m
    nbytes = (m + 7) // 8

    def bits_of(items):
        buf = np.zeros(m, dtype=bool)
        buf[items] = True
        return int.from_bytes(np.packbits(buf, bitorder="little").tobytes(), "little")

    acc = [0] * len(class_counts[0])
    for cell, row in zip(base_cells, class_counts):
        nonzero = [j for j, cnt in enumerate(row) if cnt]
        if len(nonzero) == 1:
            acc[nonzero[0]] |= cell.bits
            continue
        if not nonzero:
            continue
        raw = np.frombuffer(cell.bits.to_bytes(nbytes, "little"), dtype=np.uint8)
        items = np.flatnonzero(np.unpackbits(raw, bitorder="little")[:m]).astype(np.int64)
        perm = rng.np.permutation(items)
        pos = 0
        for j, cnt in enumerate(row):
            if cnt:
                acc[j] |= bits_of(perm[pos : pos + cnt])
                pos += cnt
    return [ItemSet(m, a) for a in acc]


def reference_one_row_refine_sample(base_cells, class_counts, rng):
    """One-row refinement of stream version 6: unless every cell is
    one-class, one 16-bit draw per item of the universe in ascending order,
    the little-endian lanes, low lane first, of raw Philox words, each item
    of a multi-class cell labelled by the thresholds ``(cum << 16) // size``
    of its cell that it clears; then, cell by cell
    and class by class, each surplus released by sequential rejection over
    uniform items (batches of the expected number of draws still needed, at
    most 32768), and the released items given one shuffled multiset of the
    cell's missing labels."""
    m = base_cells[0].m
    n_classes = len(class_counts[0])
    labels = np.full(m, -1)
    multi = []
    for cell, row in zip(base_cells, class_counts):
        nonzero = [j for j, cnt in enumerate(row) if cnt]
        raw = np.frombuffer(cell.bits.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
        items = np.flatnonzero(np.unpackbits(raw, bitorder="little")[:m])
        if len(nonzero) == 1:
            labels[items] = nonzero[0]
        elif nonzero:
            multi.append((items, row))
    if multi:
        draws = rng.np.bit_generator.random_raw(-(-m // 4)).astype("<u8").view("<u2")[:m].astype(np.int64)
    for items, row in multi:
        thresholds = (np.cumsum(row)[:-1] << 16) // items.size
        labels[items] = np.searchsorted(thresholds, draws[items], side="right")
    for items, row in multi:
        got = np.bincount(labels[items], minlength=n_classes)
        released = []
        for j in range(n_classes):
            members = set(items[labels[items] == j].tolist())
            want = got[j] - row[j]
            while want > 0:
                batch = rng.np.integers(0, m, size=min(-(-want * m // len(members)), 1 << 15))
                for x in batch.tolist():
                    if want and x in members:
                        members.remove(x)
                        released.append(x)
                        want -= 1
        if released:
            missing = np.repeat(np.arange(n_classes), np.maximum(np.array(row) - got, 0))
            rng.np.shuffle(missing)
            labels[released] = missing
    return [ItemSet.from_numpy_indices(m, np.flatnonzero(labels == j)) for j in range(n_classes)]


def random_refinement(m, gen):
    """Cells of two random sets and count rows with one, two or three
    non-empty classes out of four."""
    sets = [ItemSet.from_indices(m, np.flatnonzero(gen.integers(0, 2, size=m))) for _ in range(2)]
    cells = part_cells(m, sets)
    rows = []
    for cell in cells:
        size = len(cell)
        n_used = int(gen.integers(1, 4))
        cuts = np.sort(gen.integers(0, size + 1, size=n_used - 1))
        used = np.diff(np.concatenate(([0], cuts, [size]))).tolist()
        row = [0, 0, 0, 0]
        for j, cnt in zip(sorted(gen.choice(4, size=n_used, replace=False).tolist()), used):
            row[j] = cnt
        rows.append(tuple(row))
    return cells, rows


# 48 and 1040 items draw in multi-row chunks; above m = 32768 every chunk is
# one row, and 70001 items end on a pass that uses one lane of its last word.
@pytest.mark.parametrize("m", [48, 1040, 70_000, 70_001])
def test_refine_sample_matches_reference_draw_for_draw(m):
    reference = reference_refine_sample if m <= (1 << 16) // 2 else reference_one_row_refine_sample
    for seed in range(20):
        cells, rows = random_refinement(m, np.random.default_rng(seed))
        got_rng, want_rng = RngStream(seed, 3), RngStream(seed, 3)
        for _ in range(3):
            assert refine_sample(cells, rows, got_rng) == reference(cells, rows, want_rng)
        # Both consumed the same draws.
        assert got_rng.np.integers(1 << 62) == want_rng.np.integers(1 << 62)


@pytest.mark.parametrize("n", [1, 2, 3, 32767, 32768, 70001])
@pytest.mark.parametrize("how", ["uint32", "shuffle"])
@pytest.mark.parametrize("held", [0, 1], ids=["none-held", "half-held"])
def test_label_passes_read_raw_philox_lanes(n, how, held):
    # The one-row labels of n items are the little-endian 16-bit lanes, low
    # lane first, of ceil(n / 4) raw words of a twin stream, read in one
    # call.  A 32-bit half that numpy holds, left by uint32 draws or by
    # shuffles, stays held: it is the next uint32 draw on both streams.
    got, want = RngStream(61, 2).np, RngStream(61, 2).np
    for gen in (got, want):
        if how == "uint32":
            gen.integers(0, 1 << 32, size=2 + held, dtype=np.uint32)
        else:
            for k in range(2, 100):
                gen.shuffle(np.arange(k))
                if gen.bit_generator.state["has_uint32"] == held:
                    break
        assert gen.bit_generator.state["has_uint32"] == held
    half = got.bit_generator.state["uinteger"]
    labels = np.concatenate([draws for _, draws in sampling._label_passes(got.bit_generator, n)])
    np.testing.assert_array_equal(labels, want.bit_generator.random_raw(-(-n // 4)).astype("<u8").view("<u2")[:n])
    after = [gen.integers(0, 1 << 32, dtype=np.uint32) for gen in (got, want)]
    assert after[0] == after[1]
    if held:
        assert after[0] == half
    assert got.integers(1 << 62) == want.integers(1 << 62)


@pytest.mark.parametrize("shape", [(1, 1), (1, 160), (7, 50), (3, 2)])
def test_permuted_draws_depend_only_on_the_shape(shape):
    # Multi-row chunks shuffle intp index arrays, which numpy swaps with its
    # pointer-size loop; uint16 and uint32 arrays of the same shape take its
    # generic loop, and draw the same permutation from the same words.  A
    # one-row call shuffles its row with the 1-D shuffle instead, which
    # draws the same, row by row.
    streams = [RngStream(41, 6).np for _ in range(4)]
    blocks = [np.arange(np.prod(shape), dtype=t).reshape(shape) for t in (np.uint16, np.uint32, np.intp, np.intp)]
    for gen, block in zip(streams[:3], blocks):
        gen.permuted(block, axis=1, out=block)
    for row in blocks[3]:
        streams[3].shuffle(row)
    for block in blocks[1:]:
        np.testing.assert_array_equal(block, blocks[0])
    assert len({gen.integers(1 << 62) for gen in streams}) == 1
    assert len({gen.bit_generator.random_raw() for gen in streams}) == 1


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("held", [0, 1], ids=["none-held", "half-held"])
def test_one_copy_choice_draw_equals_three(n, held):
    # sample_instance draws theta, r_a and r_b as one integers(1, 3) array of
    # 2n + 1: bounded draws below 2**32 take one 32-bit word each, in order,
    # so it equals the three calls it replaced, with or without a 32-bit
    # half that numpy holds from an earlier draw.
    got, want = RngStream(43, 1).np, RngStream(43, 1).np
    for gen in (got, want):
        if held:
            gen.integers(5)
        assert gen.bit_generator.state["has_uint32"] == held
    one = got.integers(1, 3, size=2 * n + 1)
    three = [want.integers(1, 3), *want.integers(1, 3, size=n), *want.integers(1, 3, size=n)]
    assert one.tolist() == three
    assert got.integers(1 << 62) == want.integers(1 << 62)


class RecordingGenerator:
    """A numpy Generator that records the dtype of every block it permutes."""

    def __init__(self, gen):
        self.gen, self.dtypes = gen, []

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def permuted(self, x, axis, out):
        self.dtypes.append(x.dtype)
        return self.gen.permuted(x, axis=axis, out=out)


@pytest.mark.parametrize("m", [16, 160, (1 << 16) // 2])
def test_multi_row_chunks_shuffle_intp_blocks(m):
    # At every universe size with multi-row chunks, up to 32768 items.
    cells, table = random_refinement(m, np.random.default_rng(m))
    rng = RngStream(m)
    rng.np = RecordingGenerator(rng.np)
    refine_masks(cells, table, rng, 3)
    assert rng.np.dtypes and set(rng.np.dtypes) == {np.dtype(np.intp)}
    assert sampling._plan(tuple(map(tuple, table))).class_offsets.dtype == np.intp


def test_refine_rows_meets_the_counts_across_chunks():
    # 48 items give chunks of 1365 rows; the last five rows fall in a second chunk.
    m = 48
    cells, rows = random_refinement(m, np.random.default_rng(1))
    draws = refine_masks(cells, rows, RngStream(1, 3), (1 << 16) // m + 5)
    assert len(draws) == (1 << 16) // m + 5
    for classes in draws:
        assert [tuple((c & cell.bits).bit_count() for c in classes) for cell in cells] == rows
    assert len({tuple(classes) for classes in draws}) > 1000


def reference_refine_masks(base_cells, class_counts, rng, rows):
    """Multi-row refinement of stream version 4, as class masks: rows in
    chunks of ``(1 << 16) // m``; per chunk, per multi-class cell in order,
    per row of the chunk, one ``permutation`` of the cell's ascending items,
    whose consecutive blocks go to the classes in class order."""
    m = base_cells[0].m
    n_classes = len(class_counts[0])
    chunk = (1 << 16) // m
    assert chunk > 1
    out = []
    for start in range(0, rows, chunk):
        acc = [[0] * n_classes for _ in range(min(chunk, rows - start))]
        for cell, row in zip(base_cells, class_counts):
            nonzero = [j for j, cnt in enumerate(row) if cnt]
            if len(nonzero) == 1:
                for bits in acc:
                    bits[nonzero[0]] |= cell.bits
                continue
            if not nonzero:
                continue
            items = np.array([i for i in range(m) if cell.bits >> i & 1], dtype=np.int64)
            for bits in acc:
                perm = rng.np.permutation(items).tolist()
                pos = 0
                for j, cnt in enumerate(row):
                    for i in perm[pos : pos + cnt]:
                        bits[j] |= 1 << i
                    pos += cnt
        out.extend(acc)
    return out


def assert_same_draws(cells, table, rows, seed):
    got_rng, want_rng = RngStream(seed, 5), RngStream(seed, 5)
    assert refine_masks(cells, table, got_rng, rows) == reference_refine_masks(cells, table, want_rng, rows)
    # Both consumed the same draws.
    assert got_rng.np.integers(1 << 62) == want_rng.np.integers(1 << 62)


@pytest.mark.parametrize("m", [48, 160])
@pytest.mark.parametrize("rows", ["1", "2", "7", "chunk+1", "chunk+3"])
def test_refine_rows_matches_reference_draw_for_draw(m, rows):
    # One row takes the engine's one-row path; "chunk+1" ends on a chunk
    # whose one row is shuffled as part of a multi-row call.
    n_rows = (1 << 16) // m + int(rows[6:]) if rows.startswith("chunk") else int(rows)
    for seed in range(4 if n_rows < 10 else 2):
        cells, table = random_refinement(m, np.random.default_rng(seed))
        assert_same_draws(cells, table, n_rows, seed)


def relabelled(cells, seed):
    # The same cell sizes over a random relabelling of the universe.
    m = cells[0].m
    perm = np.random.default_rng(seed).permutation(m)
    return [ItemSet.from_numpy_indices(m, perm[c.indices()]) for c in cells]


def test_refine_rows_reuses_one_plan_per_table():
    # One table, two cell sets; as a list of lists and as a tuple of tuples
    # it is one plan, and every call still draws as the reference does.
    m = 160
    cells, table = random_refinement(m, np.random.default_rng(11))
    others = relabelled(cells, 12)
    assert cells != others
    as_lists, as_tuple = [list(row) for row in table], tuple(tuple(row) for row in table)
    assert_same_draws(cells, as_lists, 7, 1)
    misses = sampling._plan.cache_info().misses
    assert_same_draws(others, as_tuple, 7, 2)
    assert_same_draws(cells, as_tuple, 2, 3)
    assert_same_draws(others, as_lists, 2, 4)
    assert sampling._plan.cache_info().misses == misses


@pytest.mark.parametrize("m", [16, 40_000])
def test_a_rejected_table_is_not_cached(m):
    # Count tables that no cells fit raise before they have a plan, so the
    # plan cache holds only valid tables; a cached valid table still draws
    # as the reference does.  The cache starts empty, so that an entry for
    # a rejected table would show in its size.
    reference = reference_refine_sample if m <= (1 << 16) // 2 else reference_one_row_refine_sample
    cells, table = random_refinement(m, np.random.default_rng(13))
    first = table[0]
    rejected = [
        ([(first[0] + first[1] + 1, -1, *first[2:]), *table[1:]], "negative"),
        ([first[:3], *table[1:]], "count rows have inconsistent lengths"),
        ([], "one count row per cell is required"),
    ]
    sampling._plan.cache_clear()
    refine_masks(cells, table, RngStream(13, 0), 1)
    size = sampling._plan.cache_info().currsize
    for bad, message in rejected:
        with pytest.raises(InvalidParameter, match=message):
            refine_masks(cells, bad, RngStream(13, 1), 2)
        assert sampling._plan.cache_info().currsize == size
    misses = sampling._plan.cache_info().misses
    got_rng, want_rng = RngStream(13, 3), RngStream(13, 3)
    assert refine_sample(cells, table, got_rng) == reference(cells, table, want_rng)
    assert got_rng.np.integers(1 << 62) == want_rng.np.integers(1 << 62)
    assert sampling._plan.cache_info().misses == misses


# Count tables with two or more faults, over two cells of h items (that
# overlap where the case says so), and the one fault reported: the cells
# first, then a table or row that is not iterable, then non-integer counts,
# then each row's length and sign in row order, then the number of rows,
# then the first row whose sum is off.
STACKED_FAULTS = {
    "overlap-and-negative": lambda h: (True, [(h + 1, -1), (h, 0)], "cells are not pairwise disjoint"),
    "negative-before-non-integer": lambda h: (
        False,
        [(h + 1, -1), (1.5, h - 1.5)],
        f"class counts {(1.5, h - 1.5)} include a non-integer count",
    ),
    "length-before-non-integer": lambda h: (
        False,
        [(h,), (0.5, h - 0.5)],
        f"class counts {(0.5, h - 0.5)} include a non-integer count",
    ),
    "negative-before-length": lambda h: (
        False,
        [(h + 1, -1), (h,)],
        f"class counts {(h + 1, -1)} include a negative count",
    ),
    "length-before-negative": lambda h: (False, [(h, 0), (h,), (-1, h + 1)], "count rows have inconsistent lengths"),
    "negative-before-row-count": lambda h: (
        False,
        [(h, 0), (h + 1, -1), (h, 0)],
        f"class counts {(h + 1, -1)} include a negative count",
    ),
    "overlap-and-not-a-table": lambda h: (True, h, "cells are not pairwise disjoint"),
    "not-a-row-before-negative": lambda h: (
        False,
        [(h + 1, -1), h],
        f"class counts {[(h + 1, -1), h]!r} are not rows of counts",
    ),
    "not-a-row-before-non-integer": lambda h: (
        False,
        [(0.5, h - 0.5), None],
        f"class counts {[(0.5, h - 0.5), None]!r} are not rows of counts",
    ),
    "empty-table": lambda h: (False, [], "one count row per cell is required"),
    "three-rows-for-two-cells": lambda h: (False, [(h // 2, h - h // 2)] * 3, "one count row per cell is required"),
    "row-count-before-sum": lambda h: (False, [(h + 1, 0)], "one count row per cell is required"),
    "two-sums-off": lambda h: (
        False,
        [(h // 2, h // 2 - 1), (h // 2 + 1, h // 2)],
        f"class counts {(h // 2, h // 2 - 1)} do not sum to cell size {h}",
    ),
}


# m = 16 draws in multi-row chunks, m = 40000 one row at a time.
@pytest.mark.parametrize("m", [16, 40_000])
@pytest.mark.parametrize("case", list(STACKED_FAULTS))
def test_stacked_faults_are_reported_in_check_order(m, case, rng):
    h = m // 2
    overlap, table, message = STACKED_FAULTS[case](h)
    cells = [ItemSet.from_indices(m, range(h + overlap * (m // 16))), ItemSet.from_indices(m, range(h, m))]
    with pytest.raises(InvalidParameter) as err:
        refine_masks(cells, table, rng, 2)
    assert str(err.value) == message


@pytest.mark.parametrize("m", [160, 40_000])
def test_refine_rows_takes_a_numpy_count_table(m):
    # A table of numpy integers draws as the same table of ints does, into
    # int masks and sets with an int universe size.
    cells, table = random_refinement(m, np.random.default_rng(7))
    got = refine_masks(cells, np.array(table), RngStream(3, 5), 3)
    assert got == refine_masks(cells, table, RngStream(3, 5), 3)
    assert {type(x) for row in got for x in row} == {int}
    assert {type(s.m) for s in refine_sample(cells, np.array(table), RngStream(3, 5))} == {int}


@pytest.mark.parametrize("m", [48, 40_000])
@pytest.mark.parametrize(
    "change",
    ["item-moved", "same-sizes-overlapping", "item-missing", "item-shared"],
)
def test_a_cached_table_rejects_cells_that_do_not_fit(m, change, rng):
    # The table's plan is cached by a valid call first; cells that do not
    # fit it raise with the texts of the checks that PartitionParameter uses.
    cells, table = random_refinement(m, np.random.default_rng(5))
    refine_masks(cells, table, rng, 2)
    a, b = [i for i, c in enumerate(cells) if len(c) >= 2][:2]
    x, y = cells[a].indices()[0], cells[b].indices()[0]
    bad = list(cells)
    if change == "item-moved":
        bad[a], bad[b] = cells[a] - ItemSet.from_indices(m, [x]), cells[b] | ItemSet.from_indices(m, [x])
        message = f"class counts {table[a]} do not sum to cell size {len(cells[a]) - 1}"
    elif change == "same-sizes-overlapping":
        bad[a] = (cells[a] - ItemSet.from_indices(m, [x])) | ItemSet.from_indices(m, [y])
        message = "cells are not pairwise disjoint"
    elif change == "item-missing":
        bad[a] = cells[a] - ItemSet.from_indices(m, [x])
        message = "cells do not cover the universe"
    else:
        bad[a] = cells[a] | ItemSet.from_indices(m, [y])
        message = "cells are not pairwise disjoint"
    for rows in (1, 2):
        with pytest.raises(InvalidParameter) as info:
            refine_masks(bad, table, rng, rows)
        assert str(info.value) == message


@st.composite
def refinement_calls(draw):
    """Cells of a random partition of at most 48 items, a count table that
    fits them, and a row count; now and then with one fault: a count moved
    off its value, an item toggled in one cell, or one cell over another
    universe.  Returns those and whether a fault was put in."""
    m = draw(st.integers(1, 48))
    n_cells = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(0, n_cells - 1), min_size=m, max_size=m))
    cells = [ItemSet.from_indices(m, [i for i, k in enumerate(ids) if k == cell]) for cell in range(n_cells)]
    n_classes = draw(st.integers(1, 4))
    table = []
    for cell in cells:
        cuts = sorted(draw(st.lists(st.integers(0, len(cell)), min_size=n_classes - 1, max_size=n_classes - 1)))
        table.append([b - a for a, b in zip([0, *cuts], [*cuts, len(cell)])])
    fault = draw(st.sampled_from(["none"] * 6 + ["count", "item", "universe"]))
    k = draw(st.integers(0, n_cells - 1))
    if fault == "count":
        table[k][draw(st.integers(0, n_classes - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif fault == "item":
        cells[k] ^= ItemSet.from_indices(m, [draw(st.integers(0, m - 1))])
    elif fault == "universe":
        cells[k] = ItemSet.from_numpy_indices(m + 1, cells[k].indices())
    return cells, table, draw(st.integers(0, 3)), fault != "none"


@pytest.mark.parametrize("one_row", [False, True], ids=["multi-row", "one-row"])
@settings(max_examples=80, deadline=None)
@given(call=refinement_calls(), seed=st.integers(0, 1000))
def test_refine_masks_meets_its_counts_or_rejects_the_call(one_row, call, seed):
    # Every row meets the counts and partitions the universe; a faulty call
    # raises and leaves no plan in the cache, which starts empty so that a
    # new entry would show.  A batch size of one item gives one-row chunks
    # at every m.
    cells, table, rows, faulty = call
    with pytest.MonkeyPatch.context() as mp:
        if one_row:
            mp.setattr(sampling, "_BATCH_ITEMS", 1)
        sampling._plan.cache_clear()
        if faulty:
            with pytest.raises((InvalidParameter, UniverseMismatch)):
                refine_masks(cells, table, RngStream(seed, 0), rows)
            assert sampling._plan.cache_info().currsize == 0
            return
        got = refine_masks(cells, table, RngStream(seed, 0), rows)
    m = cells[0].m
    assert len(got) == rows
    for classes in got:
        assert [[(c & cell.bits).bit_count() for c in classes] for cell in cells] == table
        assert sum(c.bit_count() for c in classes) == m and reduce(or_, classes) == (1 << m) - 1


def refinement_support(cells, rows):
    """Every refinement meeting the counts, as its tuple of class bitmasks,
    mapped to an index; enumerated cell by cell over distinct label orders."""
    per_cell = []
    for cell, row in zip(cells, rows):
        labels = [j for j, cnt in enumerate(row) for _ in range(cnt)]
        per_cell.append(
            [
                [sum(1 << i for i, label in zip(cell, order) if label == j) for j in range(len(row))]
                for order in set(permutations(labels))
            ]
        )
    support = {}
    for combo in product(*per_cell):
        support[tuple(sum(masks) for masks in zip(*combo))] = len(support)
    return support


# A whole-universe cell, and interleaved cells beside a one-class cell; both
# have a class with no items and a tie for the largest class.
ONE_ROW_TOYS = {
    "universe": ([ItemSet.full(6)], [(2, 0, 2, 2)], 90),
    "interleaved": (
        [ItemSet.from_indices(9, c) for c in ((1, 2, 4, 7), (0, 3, 5, 6), (8,))],
        [(1, 1, 0, 2), (0, 2, 2, 0), (0, 0, 1, 0)],
        72,
    ),
}


@pytest.mark.parametrize("toy", sorted(ONE_ROW_TOYS))
def test_one_row_chunks_are_uniform(toy, monkeypatch):
    # One-row chunks normally start above m = 32768; a batch size of one
    # item gives them at every m, so the support can be enumerated.
    monkeypatch.setattr(sampling, "_BATCH_ITEMS", 1)
    cells, rows, size = ONE_ROW_TOYS[toy]
    support = refinement_support(cells, rows)
    assert len(support) == size
    counts = [0] * size
    for classes in refine_masks(cells, rows, RngStream(61, 0), 150 * size):
        key = tuple(classes)
        assert key in support, f"refinement outside the counts: {classes}"
        counts[support[key]] += 1
    _, _, p = uniform_chi2(counts)
    assert p >= 0.001, f"uniformity of one-row refinements rejected: p={p}"


def test_one_row_fix_up_alone_is_uniform():
    # Class 0's threshold is (1 << 16) // 70_000 = 0, so no draw labels an
    # item 0: on every draw the fix-up alone places class 0's one item.
    m, draws, buckets = 70_000, 1600, 16
    cells, rows = [ItemSet.full(m)], [(1, m - 1)]
    rng = RngStream(67, 0)
    counts = [0] * buckets
    for _ in range(draws):
        classes = refine_sample(cells, rows, rng)
        assert [len(c) for c in classes] == [1, m - 1]
        counts[(classes[0].bits.bit_length() - 1) * buckets // m] += 1
    _, _, p = uniform_chi2(counts)
    assert p >= 0.001, f"position of the fixed-up item is not uniform: p={p}"


class CountingGenerator:
    """A numpy Generator that counts the uniform item draws of the one-row
    fix-up; its bit generator, which the labels read, passes through."""

    def __init__(self, gen):
        self.gen, self.item_draws = gen, 0

    @property
    def bit_generator(self):
        return self.gen.bit_generator

    def integers(self, low, high, size, dtype=np.int64):
        self.item_draws += size
        return self.gen.integers(low, high, size=size, dtype=dtype)

    def shuffle(self, x):
        self.gen.shuffle(x)


def test_one_row_sparse_surplus_is_released_uniformly_by_rejection(monkeypatch):
    # One 8-item cell with counts (1, 7) inside m = 70000; the other items
    # are one-class.  An item of the small cell draws label 0 below the
    # threshold (1 << 16) // 8, so its labels miss the counts on about 61 %
    # of the rows, and the fix-up must find the surplus among 8 of 70000
    # items.  When no item draws label 0, the one item of class 0 is the
    # one released from class 1.
    m, rows, buckets = 70_000, 1600, 8
    small = [5, 9001, 17_500, 26_251, 35_002, 43_750, 52_499, 69_999]
    cells = [ItemSet.from_indices(m, small), ItemSet.full(m) - ItemSet.from_indices(m, small)]
    table = [(1, 7), (0, m - 8)]
    gen = CountingGenerator(RngStream(89, 0).np)
    label_draws = []
    label_passes = sampling._label_passes

    def kept_label_passes(bitgen, n):
        for a, draws in label_passes(bitgen, n):
            label_draws.append(draws.copy())
            yield a, draws

    monkeypatch.setattr(sampling, "_label_passes", kept_label_passes)
    draws = refine_masks(cells, table, types.SimpleNamespace(np=gen), rows)
    labels = np.concatenate(label_draws).reshape(rows, m)[:, small] < (1 << 16) // 8
    expected_draws = 0.0
    every, released = [0] * buckets, [0] * buckets
    for classes, low in zip(draws, labels):
        assert [c.bit_count() for c in classes] == [1, m - 1]
        where = small.index(classes[0].bit_length() - 1)
        every[where] += 1
        got = int(low.sum())
        if got == 0:
            released[where] += 1
            expected_draws += m / 8  # d = 1 of the 8 items labelled 1
        elif got > 1:
            expected_draws += m * (got - 1) / got  # d = got - 1 of got
    for name, counts in (("every row", every), ("released", released)):
        _, _, p = uniform_chi2(counts)
        assert p >= 0.001, f"{name}: position of class 0's item is not uniform: p={p}"
    assert sum(released) > 400
    # Sequential rejection needs about m * d / |S| uniform draws per release;
    # whole batches of that length cost at most twice as much on average.
    # An enumeration of the cell would draw none.
    assert 0.5 * expected_draws <= gen.item_draws <= 2 * expected_draws, (gen.item_draws, expected_draws)


def exact_law_p_value(values, pmf):
    """Chi-square p-value of observed values against an exact pmf over
    0, 1, .., with adjacent bins pooled until each expects at least 5."""
    observed = np.bincount(values, minlength=len(pmf))
    expected = len(values) * np.asarray(pmf)
    bins = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5:
            bins.append([acc_o, acc_e])
            acc_o = acc_e = 0.0
    bins[-1][0] += acc_o
    bins[-1][1] += acc_e
    stat = sum((o - e) ** 2 / e for o, e in bins)
    return chi2_sf(stat, len(bins) - 1)


def one_row_block_counts(law, draws):
    """Per fixed block, how many items of one class or cell fell in it on
    each of ``draws`` one-row draws at m = 40000, with the exact
    hypergeometric (population, successes, block size) of that count."""
    m = 40_000
    assert sampling._BATCH_ITEMS // m == 1  # every chunk is one row, without a monkeypatch
    rng = RngStream(83, 0)
    if law == "basis":
        # Cell 01 of a basis: 7500 of the universe's 40000 items.
        blocks = {"prefix": range(m // 8), "strided": range(0, m, 8)}
        sets = [sample_basis(m, rng).cells[1] for _ in range(draws)]
        hyper = (m, 7500, m // 8)
    else:
        base = sample_basis(m, rng)
        if law == "clause-pair":
            # Clause 1 of a pair holds classes (both, first only) of the
            # basis's cell 01: 2500 of its 7500 items.
            row = constant_vectors(m).clause_pair_counts[1]
            cell, successes = base.cells[1], row[0] + row[1]
            sets = [a1 for a1, _ in sample_clause_pairs(base, rng, draws)]
        elif law == "compatible":
            # Items of the basis's cell 01 that the second basis puts in its
            # own cell 01: class 01 of that cell's table row.
            row = constant_vectors(m).compatible_counts[1]
            cell, successes = base.cells[1], row[1]
            sets = [sample_compatible(base, rng).cells[1] for _ in range(draws)]
        else:
            # The first clause of a special pair holds classes (both, first
            # only) of joint cell 0000.
            t = sample_compatible(base, rng)
            row = constant_vectors(m).special_pair_counts[0]
            cell, successes = ItemSet(m, _joint_cells(base, t)[0]), row[0] + row[1]
            sets = [sample_special_pair(base, t, rng)[0] for _ in range(draws)]
        assert sum(1 for v in row if v) >= 2, row  # the cell is shuffled, not fixed
        items = cell.indices().tolist()
        size = len(items) // 8
        blocks = {"prefix": items[:size], "suffix": items[-size:], "strided": items[::8][:size]}
        hyper = (len(items), successes, size)
    masks = {name: ItemSet.from_indices(m, block).bits for name, block in blocks.items()}
    return {name: [(x.bits & mask).bit_count() for x in sets] for name, mask in masks.items()}, hyper


@pytest.mark.parametrize("law", ["basis", "clause-pair", "compatible", "special-pair"])
def test_one_row_draws_follow_the_exact_law_at_native_size(law):
    # In a uniform refinement, the count of a class inside any fixed block of
    # a cell is hypergeometric; prefix, suffix and strided blocks catch a
    # fix-up that favours early, late or periodic positions.
    counts, (population, successes, size) = one_row_block_counts(law, 2000)
    pmf = hypergeom(population, successes, size).pmf(np.arange(size + 1))
    for name, values in counts.items():
        p = exact_law_p_value(values, pmf)
        assert p >= 0.001 / len(counts), f"{law} {name} block: p={p}"


def test_one_row_basis_draw_memory():
    # One basis at m = 1.6M: a uint16 draw and a few item-sized arrays, not
    # an int64 index array per cell (22.3 MiB with Generator.choice).
    sample_basis(1_600_000, RngStream(3, 0))
    tracemalloc.start()
    try:
        sample_basis(1_600_000, RngStream(3, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("variant", ["nu", "nu_prime"])
def test_one_row_instance_memory(variant):
    # One instance at m = 1.6M: the one-row engine holds one cell id per
    # item, 64 Ki labels per multi-class cell and packed words per call, no
    # label or index array per row (14.7 MiB before stream version 5).
    sample_instance(1_600_000, 4, variant, RngStream(3, 0))
    tracemalloc.start()
    try:
        sample_instance(1_600_000, 4, variant, RngStream(3, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MiB"


def test_one_row_cells_past_255_take_wider_ids():
    # 300 multi-class cells of about 133 items at m = 40000: the cell ids
    # need 16 bits, and the rows still draw as the reference does.
    m, n_cells = 40_000, 300
    order = np.random.default_rng(17).permutation(m)
    cells = [ItemSet.from_numpy_indices(m, part) for part in np.array_split(order, n_cells)]
    table = [(len(c) // 4, len(c) // 2, len(c) - len(c) // 4 - len(c) // 2) for c in cells]
    words = [np.frombuffer(c.bits.to_bytes(8 * ((m + 63) // 64), "little"), dtype=np.uint64) for c in cells]
    assert sampling._cell_ids(words, m).dtype == np.uint16
    got_rng, want_rng = RngStream(23, 0), RngStream(23, 0)
    for classes in refine_masks(cells, table, got_rng, 2):
        assert [tuple((c & cell.bits).bit_count() for c in classes) for cell in cells] == table
        assert classes == [s.bits for s in reference_one_row_refine_sample(cells, table, want_rng)]
    assert got_rng.np.integers(1 << 62) == want_rng.np.integers(1 << 62)


class TestExpectedIntersection:
    def test_single_cell_half(self):
        p = PartitionParameter((ItemSet.full(16),), (8,))
        assert expected_intersection(p, p) == Fraction(4)

    def test_full_first_parameter_gives_total_of_second(self):
        full = split_param(16, 6, (6, 10))
        other = split_param(16, 9, (2, 3))
        assert expected_intersection(full, other) == 5

    def test_empty_cells_are_skipped(self):
        cells = (ItemSet.full(8), ItemSet.empty(8))
        p = PartitionParameter(cells, (4, 0))
        assert expected_intersection(p, p) == Fraction(2)

    def test_reference_basis_pair_value(self, reference):
        s, t, _ = reference
        reg = (2, 1, 2, 3)
        ps = PartitionParameter(tuple(part_cells(16, s.sets())), reg)
        pt = PartitionParameter(tuple(part_cells(16, t.sets())), reg)
        assert expected_intersection(ps, pt) == Fraction(51 * 16, 200)

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4), st.integers(0, 2))
    def test_symmetry(self, a1, a2, b1, b2):
        m = 6
        pa = split_param(m, 3, (a1, a2))
        pb = split_param(m, 4, (b1, b2))
        assert expected_intersection(pa, pb) == expected_intersection(pb, pa)


def enumerate_pc_support(param):
    """All feasible subsets, by direct enumeration (small universes)."""
    m = param.m
    out = []
    for mask in range(1 << m):
        if all(
            (cell.bits & mask).bit_count() == cnt
            for cell, cnt in zip(param.cells, param.counts)
        ):
            out.append(mask)
    return out


class TestAvoidanceProbabilities:
    def test_pc_closed_form_matches_enumeration(self):
        m = 8
        param = split_param(m, 5, (2, 1))
        support = enumerate_pc_support(param)
        for avoid_bits in range(1 << m):
            avoid = ItemSet(m, avoid_bits)
            exact = Fraction(
                sum(1 for u in support if u & avoid_bits == 0), len(support)
            )
            assert pc_avoidance_probability(param, avoid) == exact

    def test_ally_dominates_pc_for_every_avoid_set(self):
        # The independent relaxation leaves at least as much avoidance mass.
        m = 8
        for cut, counts in ((5, (2, 1)), (4, (1, 3)), (8, (3,))):
            cells = [ItemSet.from_indices(m, range(cut))]
            if cut < m:
                cells.append(ItemSet.from_indices(m, range(cut, m)))
            param = PartitionParameter(tuple(cells), counts)
            for avoid_bits in range(1 << m):
                avoid = ItemSet(m, avoid_bits)
                assert pc_avoidance_probability(param, avoid) <= pc_ally_avoidance_probability(
                    param, avoid
                )


class TestConcentration:
    def test_pairwise_intersection_mean_and_tail(self):
        # Independent constrained draws: the empirical mean of the overlap
        # matches the exact expectation within 5 sigma / sqrt(N), where the
        # per-draw variance is at most m/4; the low-overlap frequency stays
        # under exp(-eps^2 (m - delta) / 3).
        m = 160
        pa = split_param(m, 100, (40, 30))
        pb = split_param(m, 60, (25, 55))
        delta = expected_intersection(pa, pb)
        rng_a = RngStream(71, 0)
        rng_b = RngStream(71, 1)
        draws = 20_000
        eps = 0.05
        low_bar = float(delta) - eps * m
        total = 0
        low = 0
        for a, b in zip(pc_masks(pa, rng_a, draws), pc_masks(pb, rng_b, draws)):
            overlap = (a & b).bit_count()
            total += overlap
            if overlap < low_bar:
                low += 1
        sigma = (m / 4) ** 0.5
        assert abs(total / draws - float(delta)) <= 5 * sigma / draws**0.5
        bound = __import__("math").exp(-(eps**2) * (m - float(delta)) / 3)
        assert bound < 1  # non-vacuous at these parameters
        assert low / draws <= bound


class TestDeterminism:
    def test_same_stream_same_draws(self):
        p = split_param(32, 20, (9, 5))
        assert list(pc_masks(p, RngStream(11, 3), 1)) == list(pc_masks(p, RngStream(11, 3), 1))

    def test_distinct_streams_differ(self):
        p = split_param(64, 40, (17, 11))
        assert list(pc_masks(p, RngStream(11, 3), 1)) != list(pc_masks(p, RngStream(11, 4), 1))

    def test_child_streams_are_stable(self):
        r1 = RngStream(9, 0).child(5)
        r2 = RngStream(9, 0).child(5)
        assert r1.stream == r2.stream
        assert int(r1.np.integers(1 << 60)) == int(r2.np.integers(1 << 60))

    def test_child_zero_of_stream_zero_is_the_stream_itself(self):
        # _mix64(0, 0) == 0: the one child that replays its parent.
        root, child = RngStream(9), RngStream(9).child(0)
        assert child.stream == root.stream == 0
        assert child.np.integers(1 << 60, size=8).tolist() == root.np.integers(1 << 60, size=8).tolist()
        assert RngStream(9, 1).child(0).stream != 1

    def test_stream_coordinates_outside_64_bits_are_rejected(self):
        # Reduced mod 2**64, 2**64 would replay seed 0 and child -1 would
        # replay child 2**64 - 1 under another name.
        top = 2**64 - 1
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {bad}"):
                RngStream(bad)
            with pytest.raises(ValueError, match=f"stream id must lie in .*, got {bad}"):
                RngStream(0, bad)
            with pytest.raises(ValueError, match=f"child index must lie in .*, got {bad}"):
                RngStream(0).child(bad)
        edge = RngStream(top, top)
        assert (edge.seed, edge.stream) == (top, top)
        assert edge.child(top).seed == top
        for bad in (1.5, 2.0, "3", None):
            with pytest.raises(TypeError):
                RngStream(bad)
            with pytest.raises(TypeError):
                RngStream(0, bad)
            with pytest.raises(TypeError):
                RngStream(0).child(bad)

    def test_numpy_integer_coordinates_draw_as_ints_do(self):
        got = RngStream(np.uint64(9), np.int32(2)).child(np.int64(5))
        want = RngStream(9, 2).child(5)
        assert (type(got.seed), type(got.stream)) == (int, int)
        assert (got.seed, got.stream) == (want.seed, want.stream)
        assert int(got.np.integers(1 << 60)) == int(want.np.integers(1 << 60))
