import gc
import weakref
from dataclasses import replace
from fractions import Fraction
from math import factorial, isclose, sqrt

import numpy as np
import pytest

from bxoslab import (
    Basis,
    ConstructionError,
    Instance,
    InvalidParameter,
    ItemSet,
    RngStream,
    UniverseMismatch,
    constant_vectors,
    generalized_deltas,
    is_clause,
    is_clause_pair,
    is_compatible,
    is_special_pair,
    optimal_block_ratio,
    part_cells,
    part_profile,
    reference_instance,
    refine_masks,
    sample_basis,
    sample_clause_pair,
    sample_clause_pairs,
    sample_compatible,
    sample_instance,
    sample_special_pair,
)
from bxoslab import construction, sampling
from bxoslab.construction import (
    VARIANTS,
    _basis_from_pattern_classes,
    _joint_cells,
    _pair_from_joint_classes,
    _table,
    sample_second_basis,
)

from naive_reference import naive_part_profile


class TestConstantVectors:
    def test_m16_values(self):
        vec = constant_vectors(16)
        assert vec.basis == (5, 3, 3, 5)
        assert vec.cmp == (4, 1, 0, 0, 0, 1, 2, 0, 1, 0, 1, 1, 0, 1, 0, 4)
        assert vec.reg == (2, 1, 2, 3)
        assert vec.regpair == (0, 0, 1, 1)
        assert vec.spec1 == (2, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 2)
        assert vec.spec2 == (2, 0, 0, 0, 0, 0, 2, 0, 1, 0, 0, 0, 0, 1, 0, 2)
        specpair = [0] * 16
        specpair[8] = specpair[13] = 1
        assert vec.specpair == tuple(specpair)

    def test_scaling(self):
        vec = constant_vectors(32)
        assert vec.reg == (4, 2, 4, 6)
        assert vec.cmp[0] == 8 and vec.cmp[15] == 8
        assert sum(vec.cmp) == 32
        assert sum(vec.reg) == 16
        assert sum(vec.spec1) == 16 and sum(vec.spec2) == 16

    def test_rejects_bad_m(self):
        with pytest.raises(ConstructionError):
            constant_vectors(24)
        with pytest.raises(ConstructionError):
            constant_vectors(8)

    def test_pair_profile_computed_from_reference(self, reference):
        s, _, (a1, a2) = reference
        vec = constant_vectors(16)
        naive = naive_part_profile(16, [list(x) for x in (*s.sets(), a1, a2)])
        assert vec.pair_profile == naive
        assert sum(vec.pair_profile) == 16

    def test_opt_profile_computed_from_reference(self, reference):
        s, t, (a1, a2) = reference
        vec = constant_vectors(16)
        naive = naive_part_profile(16, [list(x) for x in (*s.sets(), *t.sets(), a1, a2)])
        assert vec.opt_profile == naive
        assert sum(vec.opt_profile) == 16

    def test_opt_profile_marginals_match_printed_vectors(self):
        # Summing out the second basis's bits must recover the clause-pair
        # profile; summing out the clause bits must recover the 16-cell
        # compatibility profile.
        vec = constant_vectors(16)
        pair = [0] * 16
        cmp_back = [0] * 16
        spec1_back = [0] * 16
        for idx, count in enumerate(vec.opt_profile):
            s1, s2 = (idx >> 5) & 1, (idx >> 4) & 1
            t1, t2 = (idx >> 3) & 1, (idx >> 2) & 1
            a1, a2 = (idx >> 1) & 1, idx & 1
            pair[8 * s1 + 4 * s2 + 2 * a1 + a2] += count
            cmp_back[8 * s1 + 4 * s2 + 2 * t1 + t2] += count
            if a1:
                spec1_back[8 * s1 + 4 * s2 + 2 * t1 + t2] += count
        assert tuple(pair) == vec.pair_profile
        assert tuple(cmp_back) == vec.cmp
        assert tuple(spec1_back) == vec.spec1


class TestDerivedCellCounts:
    def test_clause_pair_table(self):
        assert constant_vectors(16).clause_pair_counts == (
            (0, 2, 2, 1),
            (0, 1, 2, 0),
            (1, 1, 0, 1),
            (1, 2, 2, 0),
        )

    def test_compatibility_table(self):
        assert constant_vectors(16).compatible_counts == (
            (4, 1, 0, 0),
            (0, 1, 2, 0),
            (1, 0, 1, 1),
            (0, 1, 0, 4),
        )

    def test_rows_are_nonnegative_and_sum(self):
        for m in (16, 160):
            vec = constant_vectors(m)
            for table, sums in (
                (vec.clause_pair_counts, vec.basis),
                (vec.compatible_counts, vec.basis),
                (vec.special_pair_counts, vec.cmp),
                (vec.second_basis_counts, vec.pair_profile),
            ):
                for row, want in zip(table, sums):
                    assert all(v >= 0 for v in row)
                    assert sum(row) == want

    @pytest.mark.parametrize("m", [16, 160])
    def test_tables_match_the_stated_vectors(self, m):
        # The tables are read off the joint profiles; rebuild them from the
        # paper's marginal vectors instead.  Per cell, two sets with counts
        # ``f`` and ``s`` and ``b`` in common split its ``z`` items as
        # (both, first only, second only, neither).
        vec = constant_vectors(m)

        def joint_class_rows(both, first, second, size):
            return tuple((b, f - b, s - b, z - f - s + b) for b, f, s, z in zip(both, first, second, size))

        reg = vec.reg
        rev_reg = (reg[0], reg[2], reg[1], reg[3])  # the second clause is read against the reversed basis
        assert vec.clause_pair_counts == joint_class_rows(vec.regpair, reg, rev_reg, vec.basis)
        assert vec.special_pair_counts == joint_class_rows(vec.specpair, vec.spec1, vec.spec2, vec.cmp)
        assert vec.compatible_counts == tuple(tuple(vec.cmp[4 * s + t] for t in range(4)) for s in range(4))
        second = []
        for s1 in (0, 1):
            for s2 in (0, 1):
                for a1 in (0, 1):
                    for a2 in (0, 1):
                        second.append(tuple(
                            vec.opt_profile[32 * s1 + 16 * s2 + 8 * t1 + 4 * t2 + 2 * a1 + a2]
                            for t1 in (0, 1)
                            for t2 in (0, 1)
                        ))
        assert vec.second_basis_counts == tuple(second)


def support_size(table):
    """Number of joint configurations: product of per-cell multinomials."""
    total = 1
    for row in table:
        size = sum(row)
        ways = factorial(size)
        for v in row:
            ways //= factorial(v)
        total *= ways
    return total


class TestSupportCounting:
    def test_special_decomposition_matches_clause_pairs(self):
        # Each clause pair is special for exactly one second basis:
        # (#compatible bases) * (#special pairs) = (#clause pairs).
        n_compat = support_size(constant_vectors(16).compatible_counts)
        n_special = support_size(constant_vectors(16).special_pair_counts)
        n_pairs = support_size(constant_vectors(16).clause_pair_counts)
        assert n_compat == 450
        assert n_special == 36
        assert n_pairs == 16200
        assert n_compat * n_special == n_pairs

    def test_second_basis_is_deterministic_at_any_scale(self):
        # Every (basis, clause pair) cell maps to a single second-basis
        # pattern, so the conditioned second basis is unique.
        for m in (16, 160):
            for row in constant_vectors(m).second_basis_counts:
                assert sum(1 for v in row if v) <= 1


class TestReference:
    def test_reference_is_compatible(self, reference):
        s, t, _ = reference
        assert is_compatible(s, t)
        assert not is_compatible(s, s)

    def test_reference_special_pair(self, reference):
        s, t, (a1, a2) = reference
        assert is_special_pair(a1, a2, s, t)
        assert is_clause_pair(a1, a2, s)

    def test_complement_pair_special_for_reversed_bases(self, reference):
        s, t, (a1, a2) = reference
        assert is_compatible(t.rev, s.rev)
        assert is_special_pair(~a2, ~a1, t.rev, s.rev)

    @pytest.mark.parametrize("m", [16, 160])
    def test_joint_cells_match_part_cells(self, m):
        rng = RngStream(3, 0)
        s = sample_basis(m, rng)
        t = sample_compatible(s, rng)
        want = [c.bits for c in part_cells(m, (*s.sets(), *t.sets()))]
        assert _joint_cells(s, t) == want

    @pytest.mark.parametrize("m", [16, 160])
    def test_count_table_matches_naive_profiles(self, m):
        rng = RngStream(5, 0)
        s = sample_basis(m, rng)
        t = sample_compatible(s, rng)
        # Empty, full, random and clause masks; m // 8 bytes hold exactly m bits.
        masks = [0, (1 << m) - 1] + [int.from_bytes(rng.np.bytes(m // 8), "little") for _ in range(4)]
        masks += [sample_clause_pair(s, rng)[0].bits for _ in range(2)]
        for sets, cells in (
            (s.sets(), [c.bits for c in s.cells]),
            ((*s.sets(), *t.sets()), _joint_cells(s, t)),
        ):
            members = [list(x) for x in sets]
            want = [naive_part_profile(m, members, list(ItemSet(m, x))) for x in masks]
            assert _table(cells, masks) == want
            assert _table(cells, []) == []

    def test_predicates_reject_other_widths(self, reference):
        s, t, (a1, a2) = reference
        rng = RngStream(1, 0)
        s32 = sample_basis(32, rng)
        t32 = sample_compatible(s32, rng)
        w1, w2 = ItemSet.full(32), ItemSet.empty(32)
        calls = [
            lambda: is_compatible(s, t32),
            lambda: is_compatible(s32, t),
            lambda: is_clause(w1, s),
            lambda: is_clause_pair(w1, w2, s),
            lambda: is_clause_pair(a1, w2, s),
            lambda: is_special_pair(w1, w2, s, t),
            lambda: is_special_pair(a1, w2, s, t),
            lambda: is_special_pair(a1, a2, s, t32),
        ]
        for call in calls:
            with pytest.raises(UniverseMismatch):
                call()

    def test_reference_instance_validates(self):
        inst = reference_instance()
        inst.validate()
        assert inst.n == 1 and inst.i_star == 0


class TestSamplers:
    def test_basis_draw_invariants(self, rng):
        for trial in range(50):
            b = sample_basis(160, rng)
            assert part_profile(160, b.sets()) == constant_vectors(160).basis
            assert len(b.s1) == len(b.s2) == 80
            assert b.s1.intersection_size(b.s2) == 50  # 5m/16

    @pytest.mark.parametrize("m", [16, 160])
    def test_reversal_is_a_basis(self, m, rng):
        for _ in range(20):
            b = sample_basis(m, rng)
            assert b.rev.sets() == (b.s2, b.s1)
            assert part_profile(m, b.rev.sets()) == constant_vectors(m).basis
            assert b.rev.cells == tuple(part_cells(m, b.rev.sets()))
            assert b.rev.rev == b and b.rev.rev.cells == b.cells

    def test_a_basis_and_its_reversal_are_freed_by_reference_counting(self, rng):
        # At m = 1.6M each holds six m-bit masks; a reference cycle between
        # them would keep those until the cyclic collector runs.
        b = sample_basis(16, rng)
        rev = b.rev
        refs = (weakref.ref(b), weakref.ref(rev))
        gc.disable()
        try:
            del b, rev
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_basis_item_symmetry(self):
        rng = RngStream(31, 0)
        draws = 100_000
        masks = np.fromiter((sample_basis(16, rng).s1.bits for _ in range(draws)), dtype=np.int64, count=draws)
        hits = (masks[:, None] >> np.arange(16) & 1).sum(axis=0)
        for h in hits:
            assert abs(h / draws - 0.5) < 0.01  # >6 sigma slack at 1e5 draws

    def test_cross_pair_mean_matches_exact_expectation(self):
        # 1e4 independent clause-pair draws on a fixed compatible basis
        # pair: the mean first-copy cross overlap lands within 1% of
        # 51m/200 (CLT; the exact value is 40.8 at m=160).
        m = 160
        rng = RngStream(37, 0)
        s = sample_basis(m, rng)
        t = sample_compatible(s, rng)
        trev = t.rev
        draws = 10_000
        total = 0
        for _ in range(draws):
            a1, _ = sample_clause_pair(s, rng)
            _, b1 = sample_clause_pair(trev, rng)
            total += a1.intersection_size(b1)
        exact = 51 * m / 200
        assert abs(total / draws - exact) < 0.01 * exact

    def test_compatible_draw_invariants(self, rng):
        s = sample_basis(160, rng)
        vec = constant_vectors(160)
        for _ in range(30):
            t = sample_compatible(s, rng)
            assert part_profile(160, (*s.sets(), *t.sets())) == vec.cmp
            # The drawn second pair is itself a basis (column sums of the
            # 16-cell profile), asserted by the Basis constructor.
            assert isinstance(t, Basis)
            assert is_compatible(t.rev, s.rev)

    def test_clause_pair_draw_invariants(self, rng):
        s = sample_basis(160, rng)
        vec = constant_vectors(160)
        for _ in range(50):
            a1, a2 = sample_clause_pair(s, rng)
            assert part_profile(160, s.sets(), a1) == vec.reg
            assert part_profile(160, s.rev.sets(), a2) == vec.reg
            assert part_profile(160, s.sets(), a1 & a2) == vec.regpair
            assert len(a1) == len(a2) == 80

    def test_special_pair_draw_invariants(self, rng):
        s = sample_basis(160, rng)
        t = sample_compatible(s, rng)
        vec = constant_vectors(160)
        for _ in range(30):
            a1, a2 = sample_special_pair(s, t, rng)
            assert is_special_pair(a1, a2, s, t)
            # Also a clause pair for the first basis, so regular and special
            # indices are indistinguishable through that lens.
            assert is_clause_pair(a1, a2, s)
            assert part_profile(160, (*s.sets(), a1, a2)) == vec.pair_profile
            assert is_special_pair(~a2, ~a1, t.rev, s.rev)

    def test_special_pair_requires_compatibility(self, rng):
        s = sample_basis(160, rng)
        with pytest.raises(ConstructionError):
            sample_special_pair(s, s, rng)

    def test_second_basis_requires_a_clause_pair(self, rng):
        s = sample_basis(160, rng)
        (a1, a2), (_, b2) = sample_clause_pairs(s, rng, 2)
        # Each breaks one profile: the second set's, the first's, and, with
        # two clauses of the right sides, the overlap's.
        assert is_clause(a1, s) and is_clause(b2, s.rev)
        for x, y in [(a1, a1), (a2, a2), (a1, b2)]:
            with pytest.raises(ConstructionError, match="sets do not form a clause pair for this basis"):
                sample_second_basis(s, x, y, rng)

    def test_second_basis_requires_sets_over_the_basis_universe(self, rng):
        s = sample_basis(160, rng)
        a1, a2 = sample_clause_pair(s, rng)
        w = ItemSet.full(32)
        for x, y in [(w, a2), (a1, w)]:
            with pytest.raises(UniverseMismatch):
                sample_second_basis(s, x, y, rng)

    def test_copies_never_share_a_clause(self, rng):
        # A set cannot satisfy the clause profile for a basis and its
        # reversal at once, so the two copies' clause lists are disjoint.
        s = sample_basis(160, rng)
        vec = constant_vectors(160)
        for _ in range(25):
            a1, a2 = sample_clause_pair(s, rng)
            assert a1 != a2
            assert part_profile(160, s.sets(), a2) != vec.reg


def _assignments(cell_items, row):
    """All distinct ways to deal a cell's items into classes with the given
    counts, as tuples of per-class frozensets."""
    from itertools import permutations

    labels = []
    for cls, cnt in enumerate(row):
        labels.extend([cls] * cnt)
    seen = set()
    for perm in set(permutations(labels)):
        classes = tuple(
            frozenset(i for i, cls in zip(cell_items, perm) if cls == c)
            for c in range(len(row))
        )
        seen.add(classes)
    return sorted(seen, key=repr)


def _enumerate_by_cells(cells, rows):
    """Cartesian product of per-cell assignments, merged per class."""
    from itertools import product as iproduct

    per_cell = [_assignments(sorted(cell), row) for cell, row in zip(cells, rows)]
    for combo in iproduct(*per_cell):
        merged = [frozenset() for _ in rows[0]]
        for classes in combo:
            merged = [m | c for m, c in zip(merged, classes)]
        yield tuple(merged)


class TestSamplerUniformity:
    """Chi-square tests of the construction samplers against their full,
    exhaustively enumerated supports at the 16-item scale."""

    def test_compatible_bases_are_uniform(self, reference):
        from bxoslab.itemsets import part_cells
        from bxoslab.stats import uniform_chi2

        s, _, _ = reference
        cells = [set(c) for c in part_cells(16, s.sets())]
        support = {}
        for classes in _enumerate_by_cells(cells, constant_vectors(16).compatible_counts):
            t1 = ItemSet.from_indices(16, classes[2] | classes[3])
            t2 = ItemSet.from_indices(16, classes[1] | classes[3])
            support[(t1.bits, t2.bits)] = len(support)
        assert len(support) == 450
        rng = RngStream(51, 0)
        counts = [0] * len(support)
        for _ in range(90_000):
            t = sample_compatible(s, rng)
            counts[support[(t.s1.bits, t.s2.bits)]] += 1
        _, _, p = uniform_chi2(counts)
        assert p >= 0.001, f"uniformity over compatible bases rejected: p={p}"

    def test_special_pairs_are_uniform(self, reference):
        from bxoslab.itemsets import part_cells
        from bxoslab.stats import uniform_chi2

        s, t, _ = reference
        cells = [set(c) for c in part_cells(16, (*s.sets(), *t.sets()))]
        support = {}
        for classes in _enumerate_by_cells(cells, constant_vectors(16).special_pair_counts):
            a1 = ItemSet.from_indices(16, classes[0] | classes[1])
            a2 = ItemSet.from_indices(16, classes[0] | classes[2])
            support[(a1.bits, a2.bits)] = len(support)
        assert len(support) == 36
        rng = RngStream(52, 0)
        counts = [0] * len(support)
        for _ in range(20_000):
            a1, a2 = sample_special_pair(s, t, rng)
            counts[support[(a1.bits, a2.bits)]] += 1
        _, _, p = uniform_chi2(counts)
        assert p >= 0.001, f"uniformity over special pairs rejected: p={p}"


class TestBatchedClausePairs:
    """The per-bidder clause pairs of an instance are drawn as one batch."""

    def test_two_row_batches_are_uniform_and_independent(self, reference):
        from bxoslab.itemsets import part_cells
        from bxoslab.stats import independence_chi2, uniform_chi2

        s, _, _ = reference
        cells = [set(c) for c in part_cells(16, s.sets())]
        support = {}
        for classes in _enumerate_by_cells(cells, constant_vectors(16).clause_pair_counts):
            a1 = ItemSet.from_indices(16, classes[0] | classes[1])
            a2 = ItemSet.from_indices(16, classes[0] | classes[2])
            support[(a1, a2)] = len(support)
        # The enumeration is a product over the cells, so an index splits
        # into one assignment index per cell, the last cell varying fastest.
        per_cell = tuple(len(_assignments(sorted(c), row)) for c, row in zip(cells, constant_vectors(16).clause_pair_counts))
        assert per_cell == (30, 3, 6, 30) and len(support) == 16200
        rng = RngStream(53, 0)
        counts = [[0] * len(support) for _ in range(2)]
        tables = [[[0] * size for _ in range(size)] for size in per_cell]
        for _ in range(90_000):
            first, second = (support[pair] for pair in sample_clause_pairs(s, rng, 2))
            counts[0][first] += 1
            counts[1][second] += 1
            for table, size in zip(reversed(tables), reversed(per_cell)):
                table[first % size][second % size] += 1
                first //= size
                second //= size
        for row in (0, 1):
            _, _, p = uniform_chi2(counts[row])
            assert p >= 0.001, f"uniformity of batch row {row} over clause pairs rejected: p={p}"
        for cell, table in enumerate(tables):
            _, _, p = independence_chi2(table)
            assert p >= 0.001, f"independence of the two rows in cell {cell} rejected: p={p}"

    @pytest.mark.parametrize("variant", ["nu", "nu_prime"])
    def test_above_the_batch_size_draws_pair_by_pair(self, variant):
        # At every m > 32768 each batch is one row (65536 // m == 1), so an
        # instance draws exactly as one sample_clause_pair call per pair.
        m, n = 65_552, 3
        got = sample_instance(m, n, variant, RngStream(8, 1))
        assert got == sequential_instance(m, n, variant, RngStream(8, 1))


def sequential_instance(m, n, variant, rng):
    """sample_instance with one sample_clause_pair call per clause pair."""
    a1, a2, b1, b2 = ([None] * n for _ in range(4))
    s = sample_basis(m, rng)
    if variant == "nu":
        t = sample_compatible(s, rng)
        i_star = int(rng.np.integers(n))
        for i in range(n):
            if i != i_star:
                a1[i], a2[i] = sample_clause_pair(s, rng)
        a1[i_star], a2[i_star] = sample_special_pair(s, t, rng)
    else:
        for i in range(n):
            a1[i], a2[i] = sample_clause_pair(s, rng)
        i_star = int(rng.np.integers(n))
        t = sample_second_basis(s, a1[i_star], a2[i_star], rng)
    for i in range(n):
        if i != i_star:
            b2[i], b1[i] = sample_clause_pair(t.rev, rng)
    b1[i_star], b2[i_star] = ~a1[i_star], ~a2[i_star]
    theta = int(rng.np.integers(1, 3))
    r_a = [int(r) for r in rng.np.integers(1, 3, size=n)]
    r_b = [int(r) for r in rng.np.integers(1, 3, size=n)]
    r_a[i_star] = r_b[i_star] = theta
    return Instance(
        m=m, n=n, variant=variant, s=s, t=t, i_star=i_star, a1=tuple(a1), a2=tuple(a2),
        b1=tuple(b1), b2=tuple(b2), theta=theta, r_a=tuple(r_a), r_b=tuple(r_b), seed=rng.seed,
    )


def _break_first_bidder(inst, j):
    # A basis half is half-size but has the basis profile, not a clause's.
    return replace(inst, a1=_put(inst.a1, j, inst.s.s1))


def _break_second_bidder(inst, j):
    # Swapped sides: each clause has the profile of the other copy.
    return replace(inst, b1=_put(inst.b1, j, inst.b2[j]), b2=_put(inst.b2, j, inst.b1[j]))


class TestInstances:
    @pytest.mark.parametrize("variant", ["nu", "nu_prime"])
    def test_sampled_instances_validate(self, variant):
        rng = RngStream(99, 0)
        for trial in range(10):
            inst = sample_instance(160, 6, variant, rng.child(trial))
            inst.validate()
            assert _false_predicates(inst) == set()
            assert inst.variant == variant
            assert inst.r_a[inst.i_star] == inst.r_b[inst.i_star] == inst.theta

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_bad_universe_size_raises_before_any_draw(self, variant):
        # sample_basis reads constant_vectors(m), which checks m, before it draws.
        rng = RngStream(61, 0)
        state = repr(rng.np.bit_generator.state)
        for m in (24, 8):
            with pytest.raises(ConstructionError, match="positive multiple of 16"):
                sample_instance(m, 4, variant, rng)
            assert repr(rng.np.bit_generator.state) == state

    def test_single_index_is_forced_special(self, rng):
        inst = sample_instance(16, 1, "nu", rng)
        assert inst.i_star == 0
        assert is_special_pair(inst.a1[0], inst.a2[0], inst.s, inst.t)
        assert inst.b1[0] == ~inst.a1[0]

    def test_validate_rejects_corruption(self, rng):
        from dataclasses import replace

        inst = sample_instance(16, 3, "nu", rng)
        broken = replace(inst, theta=3 - inst.theta)
        with pytest.raises(ConstructionError):
            broken.validate()

    @pytest.mark.parametrize("variant", ["nu", "nu_prime"])
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_break_first_bidder, "not a clause pair for the first bidder"),
            (_break_second_bidder, "not a clause pair for the second bidder"),
            (lambda inst, j: replace(inst, t=inst.s), "first basis is not compatible with the second"),
            (lambda inst, j: _special_at(inst, j), "special index does not hold a special pair"),
            (
                lambda inst, j: replace(inst, b1=_put(inst.b1, inst.i_star, inst.a1[inst.i_star])),
                "second-bidder clauses must be complements",
            ),
        ],
        ids=["first-bidder-clause", "second-bidder-pair", "incompatible", "special-moved", "not-complement"],
    )
    def test_validate_names_each_broken_invariant(self, variant, corrupt, message):
        inst = sample_instance(160, 4, variant, RngStream(31, 0))
        regular = (inst.i_star + 1) % inst.n
        with pytest.raises(ConstructionError, match=message):
            corrupt(inst, regular).validate()

    @pytest.mark.parametrize("variant", ["nu", "nu_prime"])
    def test_validate_fails_at_the_lowest_index_first_bidder_first(self, variant):
        inst = sample_instance(160, 4, variant, RngStream(31, 0))
        lo, _, hi = [i for i in range(inst.n) if i != inst.i_star]
        # The second bidder breaks before the first: the earlier index is named.
        broken = _break_second_bidder(_break_first_bidder(inst, hi), lo)
        with pytest.raises(ConstructionError, match=f"^index {lo}: not a clause pair for the second bidder$"):
            broken.validate()
        # Both break at one index: the first bidder is named.
        broken = _break_second_bidder(_break_first_bidder(inst, lo), lo)
        with pytest.raises(ConstructionError, match=f"^index {lo}: not a clause pair for the first bidder$"):
            broken.validate()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "name, special, message",
        [
            ("a1", False, "index {j}: not a clause pair for the first bidder"),
            ("b2", False, "index {j}: not a clause pair for the second bidder"),
            ("a1", True, "special index does not hold a special pair"),
            ("b2", True, "special-index second-bidder clauses must be complements"),
        ],
        ids=["first-bidder", "second-bidder", "special", "special-second-bidder"],
    )
    def test_a_clause_of_the_wrong_size_fails_its_profile_check(self, variant, name, special, message):
        # validate checks no clause's size: a clause of the right width and
        # any other size fails the profile or complement check of its index.
        m = 160
        inst = sample_instance(m, 4, variant, RngStream(31, 0))
        j = inst.i_star if special else (inst.i_star + 1) % inst.n
        clause = getattr(inst, name)[j]
        one_more = clause | ItemSet.from_indices(m, [next(iter(~clause))])
        for wrong in (ItemSet.empty(m), one_more, ItemSet.full(m)):
            broken = replace(inst, **{name: _put(getattr(inst, name), j, wrong)})
            with pytest.raises(ConstructionError, match=f"^{message.format(j=j)}$"):
                broken.validate()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "corrupt, message, false",
        [
            (_break_first_bidder, "not a clause pair for the first bidder", {"first bidder"}),
            (_break_second_bidder, "not a clause pair for the second bidder", {"second bidder"}),
            # Over t = s the second bidder's pairs and the special pair fail
            # too; validate names compatibility, which it checks first.
            (
                lambda inst, j: replace(inst, t=inst.s),
                "first basis is not compatible with the second",
                {"compatible", "second bidder", "special"},
            ),
            (lambda inst, j: _special_at(inst, j), "special index does not hold a special pair", {"special"}),
            # No predicate covers the complements.
            (
                lambda inst, j: replace(inst, b1=_put(inst.b1, inst.i_star, inst.a1[inst.i_star])),
                "second-bidder clauses must be complements",
                set(),
            ),
        ],
        ids=["first-bidder-clause", "second-bidder-pair", "incompatible", "special-moved", "not-complement"],
    )
    def test_predicates_agree_with_validate(self, variant, corrupt, message, false):
        # The corruptions of test_validate_names_each_broken_invariant.
        inst = sample_instance(160, 4, variant, RngStream(31, 0))
        broken = corrupt(inst, (inst.i_star + 1) % inst.n)
        with pytest.raises(ConstructionError, match=message):
            broken.validate()
        assert _false_predicates(broken) == false

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_special_pair_with_the_wrong_overlap_is_rejected(self, variant):
        # In the first joint cell a1 and a2 split the items; trading one of
        # a2's there for one of a1's keeps both sides' profiles and breaks
        # only the overlap.
        inst = sample_instance(160, 4, variant, RngStream(31, 0))
        i = inst.i_star
        cell = ItemSet(160, _joint_cells(inst.s, inst.t)[0])
        x, y = next(iter(inst.a1[i] & cell)), next(iter(inst.a2[i] & cell))
        a2 = inst.a2[i] - ItemSet.from_indices(160, [y]) | ItemSet.from_indices(160, [x])
        broken = replace(inst, a2=_put(inst.a2, i, a2), b2=_put(inst.b2, i, ~a2))
        assert _false_predicates(broken) == {"special"}
        with pytest.raises(ConstructionError, match="special index does not hold a special pair"):
            broken.validate()

    def test_nu_prime_instances_satisfy_nu_invariants(self):
        rng = RngStream(123, 0)
        inst = sample_instance(160, 4, "nu_prime", rng)
        assert is_special_pair(inst.a1[inst.i_star], inst.a2[inst.i_star], inst.s, inst.t)


def _engine_cases(m):
    """Per sampler: a call, and the refine_masks cells, table and row count
    with the set builder that should give what it draws."""
    setup = RngStream(41, 0)
    s = sample_basis(m, setup)
    t = sample_compatible(s, setup)
    a1, a2 = sample_clause_pairs(s, setup, 1)[0]
    basis, pair = _basis_from_pattern_classes, _pair_from_joint_classes
    return {
        "basis": (lambda rng: [sample_basis(m, rng)], [ItemSet.full(m)], [constant_vectors(m).basis], 1, basis),
        "compatible": (lambda rng: [sample_compatible(s, rng)], s.cells, constant_vectors(m).compatible_counts, 1, basis),
        "clause-pairs": (lambda rng: sample_clause_pairs(s, rng, 3), s.cells, constant_vectors(m).clause_pair_counts, 3, pair),
        "special-pair": (
            lambda rng: [sample_special_pair(s, t, rng)],
            [ItemSet(m, c) for c in _joint_cells(s, t)],
            constant_vectors(m).special_pair_counts,
            1,
            pair,
        ),
        "second-basis": (
            lambda rng: [sample_second_basis(s, a1, a2, rng)],
            part_cells(m, (*s.sets(), a1, a2)),
            constant_vectors(m).second_basis_counts,
            1,
            basis,
        ),
    }


class TestSamplersSkipTheEntryCheck:
    """construction's samplers draw through sampling._draw, without
    refine_masks's entry check; Instance.validate is the guard."""

    # 160 items draw in multi-row chunks, 40000 in one-row chunks.
    @pytest.mark.parametrize("m", [160, 40_000])
    def test_each_sampler_draws_what_refine_masks_draws(self, m):
        for name, (sample, cells, table, rows, build) in _engine_cases(m).items():
            got_rng, want_rng = RngStream(43, 1), RngStream(43, 1)
            want = [build(m, classes) for classes in refine_masks(cells, table, want_rng, rows)]
            assert sample(got_rng) == want, name
            # Both consumed the same draws.
            assert got_rng.np.integers(1 << 62) == want_rng.np.integers(1 << 62), name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_instances_do_not_check_their_partitions_again(self, variant, monkeypatch):
        calls = []
        check = sampling._check_partition

        def counted(cells):
            calls.append(len(cells))
            check(cells)

        monkeypatch.setattr(sampling, "_check_partition", counted)
        inst = sample_instance(160, 4, variant, RngStream(47, 0))
        assert calls == []
        # The counter does see the public entry.
        refine_masks(inst.s.cells, constant_vectors(160).compatible_counts, RngStream(47, 1), 1)
        assert calls == [4]

    def test_overlapping_cells_from_a_sampler_fail_validation(self, monkeypatch):
        # Multi-row chunks only: on cells that are not a partition a one-row
        # chunk may never return (see sampling._draw).
        m = 160
        table = constant_vectors(m).special_pair_counts
        # A joint cell wholly in both clauses, and another non-empty cell.
        both = next(i for i, row in enumerate(table) if row[0] and not any(row[1:]))
        other = next(i for i, row in enumerate(table) if i != both and any(row))
        draw, handed = construction._draw, []

        def overlapping(given, cells, rng, rows):
            if given == table:
                # An item of the other cell replaces one of this cell's: the
                # sizes stay, but that item lies in two cells and the
                # replaced one in none, so it is in neither clause.
                cells = list(cells)
                cells[both] ^= (cells[both] & -cells[both]) | (cells[other] & -cells[other])
                handed.append(cells)
            return draw(given, cells, rng, rows)

        monkeypatch.setattr(construction, "_draw", overlapping)
        # The engine draws from such cells without a complaint ...
        s = sample_basis(m, RngStream(53, 0))
        sample_special_pair(s, sample_compatible(s, RngStream(53, 1)), RngStream(53, 2))
        assert len(handed) == 1
        # ... and each instance drawn from them fails its validation.
        for k in range(5):
            with pytest.raises(ConstructionError):
                sample_instance(m, 4, "nu", RngStream(53, 3).child(k))
        assert len(handed) == 6

    def test_instances_plan_each_constant_table_once(self):
        # The engine plans the tables it is handed: the basis profile and the
        # four count tables of constant_vectors(m), one cache miss each.
        sampling._plan.cache_clear()
        for k in range(10):
            for variant in VARIANTS:
                sample_instance(160, 4, variant, RngStream(59, k))
        assert sampling._plan.cache_info().misses == 5

    def test_a_negative_clause_pair_count_is_rejected(self, rng):
        with pytest.raises(InvalidParameter, match="count must be >= 0, got -1"):
            sample_clause_pairs(sample_basis(16, rng), rng, -1)

    def test_a_non_integer_clause_pair_count_is_rejected(self, rng):
        base = sample_basis(16, rng)
        for count, shown in ((1.5, "1.5"), ("2", "'2'")):
            with pytest.raises(InvalidParameter) as err:
                sample_clause_pairs(base, rng, count)
            assert str(err.value) == f"count must be an integer, got {shown}"
        want = sample_clause_pairs(base, RngStream(4, 2), 2)
        assert sample_clause_pairs(base, RngStream(4, 2), np.int64(2)) == want


def _put(seq, i, x):
    return seq[:i] + (x,) + seq[i + 1 :]


def _false_predicates(inst):
    # The pair invariants of an instance whose public predicate fails.
    regular = [i for i in range(inst.n) if i != inst.i_star]
    i = inst.i_star
    holds = {
        "compatible": is_compatible(inst.s, inst.t),
        "first bidder": all(is_clause_pair(inst.a1[k], inst.a2[k], inst.s) for k in regular),
        "second bidder": all(is_clause_pair(inst.b2[k], inst.b1[k], inst.t.rev) for k in regular),
        "special": is_special_pair(inst.a1[i], inst.a2[i], inst.s, inst.t),
    }
    return {name for name, ok in holds.items() if not ok}


def _special_at(inst, j):
    # Claims a regular index as the special one, copy choices made consistent.
    r_a, r_b = list(inst.r_a), list(inst.r_b)
    r_a[j] = r_b[j] = inst.theta
    return replace(inst, i_star=j, r_a=tuple(r_a), r_b=tuple(r_b))


class TestGeneralizedDeltas:
    def test_equal_blocks(self):
        single, _, _ = generalized_deltas(1, 1)
        assert single == Fraction(7, 27)
        assert 1 - single == Fraction(20, 27)  # union of two half-size sets

    def test_reference_block_sizes(self):
        _, cross, special = generalized_deltas(1, 2)
        assert cross == Fraction(51, 200)
        assert special == Fraction(61, 240)
        assert min(cross, special) == Fraction(61, 240)

    def test_scale_invariance(self):
        assert generalized_deltas(2, 4) == generalized_deltas(1, 2)
        assert generalized_deltas(Fraction(1, 3), Fraction(2, 3)) == generalized_deltas(1, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            generalized_deltas(0, 1)
        with pytest.raises(ValueError):
            generalized_deltas(1, -2)

    def test_optimal_ratio(self):
        assert isclose(optimal_block_ratio(), 1 + sqrt(1.5), abs_tol=1e-6)

    def test_cross_exceeds_quarter_iff_u_below_2v(self):
        for u, v in ((1, 1), (1, 2), (3, 2), (1, 5)):
            single, _, _ = generalized_deltas(u, v)
            if u < 2 * v:
                assert single > Fraction(1, 4)
        single, _, _ = generalized_deltas(2, 1)
        assert single == Fraction(1, 4)
