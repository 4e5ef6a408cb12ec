import numpy as np
import pytest
from hypothesis import given, strategies as st

from bxoslab import (
    Allocation,
    BXOSValuation,
    ItemSet,
    RECOVER_NONE,
    RngStream,
    build_valuations,
    opt_bruteforce,
    opt_clause_pair,
    oracle_allocation,
    recover_theta,
    sample_instance,
)
from bxoslab import valuations
from bxoslab.construction import VARIANTS
from bxoslab.lab import _count_both_good
from bxoslab.valuations import cross_floors, cross_intersections, split_masks

from naive_reference import naive_opt


def family(m, *clause_lists):
    return BXOSValuation(tuple(ItemSet.from_indices(m, c) for c in clause_lists))


class TestValue:
    def test_single_clause(self):
        v = family(8, [0, 1, 2])
        assert v.value(ItemSet.from_indices(8, [0, 1, 2])) == 3
        assert v.value(ItemSet.empty(8)) == 0
        assert v.value(ItemSet.full(8)) == 3

    def test_reference_special_clause(self, reference):
        # The second bidder's copy-1 clause is the complement of the first
        # bidder's, so the first bidder values that complement's complement
        # at the full clause size.
        _, _, (a1, _) = reference
        v = BXOSValuation((a1,))
        b1 = ~a1
        assert v.value(~b1) == 8

    def test_width_mismatch(self):
        v = family(8, [0])
        with pytest.raises(Exception):
            v.value(ItemSet.full(16))

    @given(st.integers(0, (1 << 12) - 1), st.integers(0, (1 << 12) - 1))
    def test_monotone(self, z_bits, extra_bits):
        m = 12
        v = family(m, [0, 3, 4, 7], [1, 2, 8], [5, 9, 10, 11])
        z = ItemSet(m, z_bits)
        bigger = ItemSet(m, z_bits | extra_bits)
        assert v.value(z) <= v.value(bigger)

    @given(st.integers(0, (1 << 12) - 1), st.integers(0, (1 << 12) - 1))
    def test_subadditive(self, x_bits, y_bits):
        m = 12
        v = family(m, [0, 3, 4, 7], [1, 2, 8], [5, 9, 10, 11])
        x, y = ItemSet(m, x_bits), ItemSet(m, y_bits)
        assert v.value(x | y) <= v.value(x) + v.value(y)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            BXOSValuation(())


class TestAllocation:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Allocation(ItemSet.from_indices(8, [1]), ItemSet.from_indices(8, [1, 2]))

    def test_leftovers_allowed(self):
        alloc = Allocation(ItemSet.from_indices(8, [1]), ItemSet.from_indices(8, [2]))
        assert alloc.m == 8


class TestOptOracles:
    def test_identical_single_clause(self):
        v = family(8, [0, 1, 2])
        i, j, value = opt_clause_pair(v, v)
        assert (i, j, value) == (0, 0, 3)

    def test_single_item_universe(self):
        v = family(1, [0])
        assert opt_bruteforce(v, v) == 1

    def test_tie_break_is_lexicographic(self):
        m = 8
        va = family(m, [0, 1], [2, 3])
        vb = family(m, [4, 5], [6, 7])
        i, j, value = opt_clause_pair(va, vb)
        assert (i, j, value) == (0, 0, 4)

    def test_bruteforce_guard(self):
        v = family(32, [0])
        with pytest.raises(ValueError):
            opt_bruteforce(v, v)

    def test_oracle_matches_naive_enumeration(self):
        rng = RngStream(17, 0)
        m = 10
        for trial in range(20):
            stream = rng.child(trial)
            def draw_family():
                count = int(stream.np.integers(1, 4))
                masks = [int(b) for b in stream.np.integers(0, 1 << m, size=count)]
                return BXOSValuation(tuple(ItemSet(m, b or 1) for b in masks))
            va, vb = draw_family(), draw_family()
            sets_a = [list(c) for c in va.clauses]
            sets_b = [list(c) for c in vb.clauses]
            expected = naive_opt(sets_a, sets_b, m)
            assert opt_clause_pair(va, vb)[2] == expected
            assert opt_bruteforce(va, vb) == expected

    def test_oracle_matches_bruteforce_on_instances(self):
        rng = RngStream(18, 0)
        for trial in range(10):
            inst = sample_instance(16, 4, "nu", rng.child(trial))
            va, vb, *_ = build_valuations(inst)
            assert opt_clause_pair(va, vb)[2] == opt_bruteforce(va, vb) == 16

    # Every other enumeration test fits in one chunk; 1 << 10 gives 64 whole
    # chunks at m = 16 and 1000 gives 65 whole ones and a short last one.
    @pytest.mark.parametrize("chunk", [1 << 10, 1000])
    def test_split_enumeration_across_chunks(self, chunk, monkeypatch):
        rng = RngStream(29, 0)
        instances = [sample_instance(16, 3, variant, rng.child(k)) for k, variant in enumerate(VARIANTS * 3)]
        one_chunk = [_count_both_good(inst, eps) for inst in instances for eps in (0.01, 0.1)]
        assert any(one_chunk)
        monkeypatch.setattr(valuations, "_BRUTEFORCE_CHUNK", chunk)
        chunks = list(split_masks(16))
        assert len(chunks) == -(-(1 << 16) // chunk)
        assert np.array_equal(np.concatenate(chunks), np.arange(1 << 16, dtype=np.uint32))
        for inst in instances:
            va, vb, *_ = build_valuations(inst)
            assert opt_bruteforce(va, vb) == opt_clause_pair(va, vb)[2] == 16
        assert [_count_both_good(inst, eps) for inst in instances for eps in (0.01, 0.1)] == one_chunk

    def test_oracle_allocation_achieves_opt(self, rng):
        inst = sample_instance(160, 4, "nu", rng)
        va, vb, *_ = build_valuations(inst)
        alloc = oracle_allocation(va, vb)
        achieved = va.value(alloc.to_alice) + vb.value(alloc.to_bob)
        assert achieved == opt_clause_pair(va, vb)[2] == 160


class TestBuildValuations:
    def test_family_sizes(self, rng):
        inst = sample_instance(160, 5, "nu", rng)
        va, vb, va1, va2, vb1, vb2 = build_valuations(inst)
        assert len(va.clauses) == len(vb.clauses) == 5
        for env in (va1, va2, vb1, vb2):
            assert len(env.clauses) == 9

    def test_envelope_contains_bidder_family(self, rng):
        inst = sample_instance(160, 5, "nu", rng)
        va, vb, va1, va2, vb1, vb2 = build_valuations(inst)
        env_a = (va1, va2)[inst.theta - 1]
        env_b = (vb1, vb2)[inst.theta - 1]
        assert set(c.bits for c in va.clauses) <= set(c.bits for c in env_a.clauses)
        assert set(c.bits for c in vb.clauses) <= set(c.bits for c in env_b.clauses)
        for _ in range(50):
            z = ItemSet(160, int(rng.np.integers(0, 1 << 63)) | (1 << 159))
            assert va.value(z) <= env_a.value(z)
            assert vb.value(z) <= env_b.value(z)

    def test_envelope_drops_other_special_clause(self, rng):
        inst = sample_instance(16, 3, "nu", rng)
        _, _, va1, va2, _, _ = build_valuations(inst)
        assert inst.a2[inst.i_star].bits not in {c.bits for c in va1.clauses}
        assert inst.a1[inst.i_star].bits not in {c.bits for c in va2.clauses}

    def test_single_index_families(self, rng):
        inst = sample_instance(16, 1, "nu", rng)
        va, vb, va1, va2, vb1, vb2 = build_valuations(inst)
        chosen = (inst.a1, inst.a2)[inst.theta - 1][0]
        assert va.clauses == (chosen,)
        assert len(va1.clauses) == len(va2.clauses) == 1


class TestRecoverTheta:
    def test_empty_allocation_recovers_nothing(self, rng):
        inst = sample_instance(160, 4, "nu", rng)
        assert recover_theta(inst, ItemSet.empty(160), 0.002) == RECOVER_NONE

    def test_optimal_allocation_recovers_theta(self):
        rng = RngStream(23, 0)
        for trial in range(10):
            inst = sample_instance(160, 4, "nu", rng.child(trial))
            va, vb, *_ = build_valuations(inst)
            z = oracle_allocation(va, vb).to_alice
            assert recover_theta(inst, z, 0.002) == inst.theta

    def test_special_clause_itself_recovers_theta(self):
        rng = RngStream(24, 0)
        inst = sample_instance(160, 6, "nu", rng)
        z = (inst.a1, inst.a2)[inst.theta - 1][inst.i_star]
        assert recover_theta(inst, z, 0.002) == inst.theta

    def test_eps_range_enforced(self, rng):
        inst = sample_instance(16, 1, "nu", rng)
        with pytest.raises(ValueError):
            recover_theta(inst, ItemSet.empty(16), 0.3)


class TestCrossIntersections:
    def test_counts(self, rng):
        inst = sample_instance(160, 4, "nu", rng)
        cross = cross_intersections(inst)
        assert len(cross.regular) == 4 * 3 * 3
        assert len(cross.special_a) == 2 * 3
        assert len(cross.special_b) == 2 * 3

    def test_bad_events_all_clear_at_large_margin(self, rng):
        inst = sample_instance(160, 4, "nu", rng)
        flags = cross_intersections(inst).low_events(*cross_floors(inst.m, 0.24))
        assert not any(flags.values())


class TestEventCaseAnalysis:
    def test_two_sided_recovery_needs_a_low_intersection(self):
        # Whenever some split clears the recovery bar under both copy
        # envelopes, one of the three low-intersection events must have
        # occurred; checked exhaustively over all splits at m=16.
        rng = RngStream(29, 0)
        checked_nontrivial = 0
        for trial in range(12):
            inst = sample_instance(16, 3, "nu", rng.child(trial))
            for eps in (0.01, 0.1, 0.2):
                both_good = _count_both_good(inst, eps)
                if both_good > 0:
                    assert any(cross_intersections(inst).low_events(*cross_floors(inst.m, eps)).values())
                    checked_nontrivial += 1
        # The premise should fire at least sometimes at this scale.
        assert checked_nontrivial > 0
