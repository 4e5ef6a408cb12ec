import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import hypergeom

from bxoslab import (
    InvalidParameter,
    ItemSet,
    PartitionParameter,
    RngStream,
    expected_intersection,
    part_cells,
    pc_ally_avoidance_probability,
    pc_avoidance_probability,
    refine_rows,
    refine_sample,
    sample_pc,
)
from bxoslab import sampling
from bxoslab.construction import (
    _joint_cells,
    clause_pair_cell_counts,
    compatible_cell_counts,
    sample_basis,
    sample_clause_pairs,
    sample_compatible,
    sample_special_pair,
    special_pair_cell_counts,
)
from bxoslab.stats import chi2_sf, uniform_chi2


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


class TestSamplePC:
    def test_full_counts_give_universe(self, rng):
        p = split_param(16, 6, (6, 10))
        assert sample_pc(p, rng) == ItemSet.full(16)

    def test_zero_counts_give_empty(self, rng):
        p = split_param(16, 6, (0, 0))
        assert sample_pc(p, rng) == ItemSet.empty(16)

    def test_profile_invariant_every_draw(self, rng):
        cells = tuple(part_cells(24, [ItemSet.from_indices(24, range(10))]))
        p = PartitionParameter(cells, (4, 7))
        for _ in range(300):
            u = sample_pc(p, rng)
            assert tuple((c.bits & u.bits).bit_count() for c in p.cells) == p.counts

    def test_item_frequency_is_symmetric(self):
        # Single cell of 16, choose 8: item frequency 1/2 within 6 sigma.
        p = PartitionParameter((ItemSet.full(16),), (8,))
        rng = RngStream(5, 0)
        draws = 100_000
        hits = [0] * 16
        for _ in range(draws):
            u = sample_pc(p, rng)
            for i in u:
                hits[i] += 1
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
            refine_rows([ItemSet.full(m)], [(-1, m + 1)], rng, 2)

    def test_class_membership_frequency(self):
        # Cell of 5, classes (2, 2, 1): each item lands in class 0 with
        # frequency 2/5, by exchangeability.
        m = 5
        rng = RngStream(7, 0)
        draws = 100_000
        hits = [0] * m
        for _ in range(draws):
            classes = refine_sample([ItemSet.full(m)], [(2, 2, 1)], rng)
            for i in classes[0]:
                hits[i] += 1
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
    """One-row refinement of stream version 4: per multi-class cell, one
    uint16 draw per ascending item, labelled by the thresholds
    ``(cum << 16) // size`` it clears; then, class by class, a ``choice`` of
    each surplus among that label's ascending positions, and one shuffled
    multiset of the missing labels for the released items."""
    m = base_cells[0].m

    def bits_of(items):
        buf = np.zeros(m, dtype=bool)
        buf[items] = True
        return int.from_bytes(np.packbits(buf, bitorder="little").tobytes(), "little")

    n_classes = len(class_counts[0])
    acc = [0] * n_classes
    for cell, row in zip(base_cells, class_counts):
        nonzero = [j for j, cnt in enumerate(row) if cnt]
        if len(nonzero) == 1:
            acc[nonzero[0]] |= cell.bits
            continue
        if not nonzero:
            continue
        raw = np.frombuffer(cell.bits.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
        items = np.flatnonzero(np.unpackbits(raw, bitorder="little")[:m])
        size = items.size
        draws = rng.np.integers(0, 1 << 16, size=size, dtype=np.uint16).astype(np.int64)
        thresholds = (np.cumsum(row)[:-1] << 16) // size
        labels = np.searchsorted(thresholds, draws, side="right")
        got = np.bincount(labels, minlength=n_classes)
        released = []
        for j in range(n_classes):
            if got[j] > row[j]:
                released.extend(rng.np.choice(np.flatnonzero(labels == j), got[j] - row[j], replace=False))
        missing = [j for j in range(n_classes) for _ in range(max(row[j] - got[j], 0))]
        if released:
            missing = np.array(missing, dtype=np.uint8)
            rng.np.shuffle(missing)
            labels[released] = missing
        for j in range(n_classes):
            acc[j] |= bits_of(items[labels == j])
    return [ItemSet(m, a) for a in acc]


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
# one row.
@pytest.mark.parametrize("m", [48, 1040, 70_000])
def test_refine_sample_matches_reference_draw_for_draw(m):
    reference = reference_refine_sample if m <= (1 << 16) // 2 else reference_one_row_refine_sample
    for seed in range(20):
        cells, rows = random_refinement(m, np.random.default_rng(seed))
        got_rng, want_rng = RngStream(seed, 3), RngStream(seed, 3)
        for _ in range(3):
            assert refine_sample(cells, rows, got_rng) == reference(cells, rows, want_rng)
        # Both consumed the same draws.
        assert got_rng.np.integers(1 << 62) == want_rng.np.integers(1 << 62)


def test_refine_rows_meets_the_counts_across_chunks():
    # 48 items give chunks of 1365 rows; the last five rows fall in a second chunk.
    m = 48
    cells, rows = random_refinement(m, np.random.default_rng(1))
    draws = refine_rows(cells, rows, RngStream(1, 3), (1 << 16) // m + 5)
    assert len(draws) == (1 << 16) // m + 5
    for classes in draws:
        assert [tuple(len(c & cell) for c in classes) for cell in cells] == rows
    assert len({tuple(c.bits for c in classes) for classes in draws}) > 1000


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
    for classes in refine_rows(cells, rows, RngStream(61, 0), 150 * size):
        key = tuple(c.bits for c in classes)
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
            row = clause_pair_cell_counts(m)[1]
            cell, successes = base.cells[1], row[0] + row[1]
            sets = [a1 for a1, _ in sample_clause_pairs(base, rng, draws)]
        elif law == "compatible":
            # Items of the basis's cell 01 that the second basis puts in its
            # own cell 01: class 01 of that cell's table row.
            row = compatible_cell_counts(m)[1]
            cell, successes = base.cells[1], row[1]
            sets = [sample_compatible(base, rng).cells[1] for _ in range(draws)]
        else:
            # The first clause of a special pair holds classes (both, first
            # only) of joint cell 0000.
            t = sample_compatible(base, rng)
            row = special_pair_cell_counts(m)[0]
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
        for _ in range(draws):
            overlap = sample_pc(pa, rng_a).intersection_size(sample_pc(pb, rng_b))
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
        a = [sample_pc(p, RngStream(11, 3)) for _ in range(1)]
        b = [sample_pc(p, RngStream(11, 3)) for _ in range(1)]
        assert a == b

    def test_distinct_streams_differ(self):
        p = split_param(64, 40, (17, 11))
        assert sample_pc(p, RngStream(11, 3)) != sample_pc(p, RngStream(11, 4))

    def test_child_streams_are_stable(self):
        r1 = RngStream(9, 0).child(5)
        r2 = RngStream(9, 0).child(5)
        assert r1.stream == r2.stream
        assert int(r1.np.integers(1 << 60)) == int(r2.np.integers(1 << 60))
