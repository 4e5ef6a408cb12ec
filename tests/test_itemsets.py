import numpy as np
import pytest
from hypothesis import given, strategies as st

from bxoslab import ItemSet, UniverseMismatch, part_cells, part_profile
_FEW_INDICES = 32  # the bound of a short-array path since removed; the cases keep their lengths

from naive_reference import naive_part_profile


def bitmask_sets(max_m=48):
    return st.integers(min_value=1, max_value=max_m).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(min_value=0, max_value=(1 << m) - 1))
    )


# Bits outside the universe, m <= 0 and negative masks, through every public
# way to build a set.
INVALID_CONSTRUCTIONS = {
    "outside-init": lambda: ItemSet(4, 1 << 4),
    "outside-from_indices": lambda: ItemSet.from_indices(4, [4]),
    "outside-from_numpy_indices": lambda: ItemSet.from_numpy_indices(4, np.array([4])),
    "outside-from_hex": lambda: ItemSet.from_hex(4, "10"),
    "m0-init": lambda: ItemSet(0, 0),
    "m-8-init": lambda: ItemSet(-8, 0),
    "m0-empty": lambda: ItemSet.empty(0),
    "m0-full": lambda: ItemSet.full(0),
    "m0-from_indices": lambda: ItemSet.from_indices(0, []),
    "m0-from_numpy_indices": lambda: ItemSet.from_numpy_indices(0, np.array([], dtype=np.int64)),
    "m0-from_hex": lambda: ItemSet.from_hex(0, ""),
    "m0-part_cells": lambda: part_cells(0, []),
    "negative-init": lambda: ItemSet(8, -1),
    "negative-wide-init": lambda: ItemSet(8, -(1 << 9)),
    "negative-from_indices": lambda: ItemSet.from_indices(8, [-1]),
    "negative-from_numpy_indices": lambda: ItemSet.from_numpy_indices(8, np.array([-1])),
    "negative-from_hex": lambda: ItemSet.from_hex(8, "-1"),
    # numpy casts uint64 indices to intp: from 2**63 up they would wrap round
    # to the end of the universe (to items 7, 0 and 6 here).
    "wrapped-uint64-last-from_numpy_indices": lambda: ItemSet.from_numpy_indices(8, np.array([2**64 - 1], dtype=np.uint64)),
    "wrapped-uint64-first-from_numpy_indices": lambda: ItemSet.from_numpy_indices(8, np.array([2**64 - 8], dtype=np.uint64)),
    "wrapped-uint64-pair-from_numpy_indices": lambda: ItemSet.from_numpy_indices(8, np.array([2**64 - 2, 3], dtype=np.uint64)),
    # Non-integer index arrays, short and long.
    "bool-few-from_numpy_indices": lambda: ItemSet.from_numpy_indices(64, np.array([True, False, True])),
    "bool-many-from_numpy_indices": lambda: ItemSet.from_numpy_indices(64, np.ones(_FEW_INDICES + 1, dtype=bool)),
    "float-few-from_numpy_indices": lambda: ItemSet.from_numpy_indices(64, np.array([1.0, 2.0])),
    "float-many-from_numpy_indices": lambda: ItemSet.from_numpy_indices(64, np.arange(_FEW_INDICES + 1, dtype=float)),
}


class TestItemSet:
    def test_rejects_out_of_universe_bits(self):
        with pytest.raises(ValueError):
            ItemSet(4, 1 << 4)
        with pytest.raises(ValueError):
            ItemSet(0, 0)

    # Each public constructor keeps its checks; only results of
    # same-universe operations skip them.
    @pytest.mark.parametrize("case", sorted(INVALID_CONSTRUCTIONS))
    def test_public_constructors_reject_invalid_sets(self, case):
        with pytest.raises(ValueError):
            INVALID_CONSTRUCTIONS[case]()

    @pytest.mark.parametrize("m", [1, 63, 64, 65])
    def test_iteration_matches_indices_around_one_word(self, m):
        gen = np.random.default_rng(m)
        full = (1 << m) - 1
        masks = [0, 1, 1 << (m - 1), full] + [int.from_bytes(gen.bytes(9), "little") & full for _ in range(50)]
        for bits in masks:
            s = ItemSet(m, bits)
            assert list(s) == s.indices().tolist()

    def test_basic_ops(self):
        a = ItemSet.from_indices(8, [0, 1, 5])
        b = ItemSet.from_indices(8, [1, 2])
        assert len(a) == 3
        assert list(a & b) == [1]
        assert list(a | b) == [0, 1, 2, 5]
        assert list(a - b) == [0, 5]
        assert list(~ItemSet.full(8)) == []
        assert 5 in a and 4 not in a
        assert a.intersection_size(b) == 1

    def test_width_mismatch_raises(self):
        with pytest.raises(UniverseMismatch):
            ItemSet.full(8) & ItemSet.full(16)

    @given(bitmask_sets())
    def test_complement_involution(self, mb):
        m, bits = mb
        s = ItemSet(m, bits)
        assert ~~s == s
        assert len(s) + len(~s) == m
        assert (s & ~s).bits == 0
        assert (s | ~s) == ItemSet.full(m)

    @given(bitmask_sets())
    def test_hex_roundtrip(self, mb):
        m, bits = mb
        s = ItemSet(m, bits)
        text = s.to_hex()
        assert text == text.lower()
        assert len(text) == 2 * ((m + 7) // 8)
        assert ItemSet.from_hex(m, text) == s

    def test_hex_is_little_endian_with_item0_low_bit(self):
        # Items 0 and 8: first byte 0x01, second byte 0x01.
        s = ItemSet.from_indices(16, [0, 8])
        assert s.to_hex() == "0101"
        assert ItemSet.from_indices(16, [15]).to_hex() == "0080"

    @given(bitmask_sets(max_m=20))
    def test_indices_roundtrip(self, mb):
        m, bits = mb
        s = ItemSet(m, bits)
        assert ItemSet.from_indices(m, s.indices().tolist()) == s
        assert ItemSet.from_numpy_indices(m, s.indices()) == s

    def test_from_numpy_large_universe(self):
        idx = np.array([0, 700, 999], dtype=np.int64)
        s = ItemSet.from_numpy_indices(1000, idx)
        assert list(s) == [0, 700, 999]

    def test_iteration_matches_indices_on_a_sparse_set_at_scale(self):
        # Iteration must be linear in m: a shift of the whole int per
        # position is quadratic, minutes for one set at this size.
        m = 1_600_000
        items = [0, 7, 65_535, 999_999, m - 1]
        s = ItemSet.from_indices(m, items)
        assert list(s) == s.indices().tolist() == items
        assert list(ItemSet.empty(m)) == []

    @pytest.mark.parametrize("m", [160, 1000])
    @pytest.mark.parametrize("n_valid", [1, 100])
    @pytest.mark.parametrize("bad", [-1, "m", "-m-1", 1 << 40])
    def test_from_numpy_rejects_out_of_universe_indices(self, m, n_valid, bad):
        # Few and many indices take the two build paths.
        index = {"m": m, "-m-1": -m - 1}.get(bad, bad)
        with pytest.raises(ValueError, match="outside universe"):
            ItemSet.from_numpy_indices(m, np.append(np.arange(n_valid), index))

    @pytest.mark.parametrize(
        "items, bad",
        [
            ([1.7, 2.2], "1.7"),
            ([2, 3.0], "3.0"),
            (np.array([0.9, 3.5]), "np.float64(0.9)"),
            (["3"], "'3'"),
            ([np.int64(1), None], "None"),
        ],
        ids=["floats", "integral-float", "float-array", "string", "none"],
    )
    def test_from_indices_rejects_non_integer_items(self, items, bad):
        # Each item must be an integer, as from_numpy_indices asks of its
        # dtype; truncation would build another set.
        with pytest.raises(ValueError) as err:
            ItemSet.from_indices(16, items)
        assert str(err.value) == f"item {bad} is not an integer"
        want = ItemSet(16, 0b1110)
        assert ItemSet.from_indices(16, range(1, 4)) == want
        assert ItemSet.from_indices(16, np.arange(1, 4, dtype=np.uint8)) == want
        assert ItemSet.from_indices(16, [np.int64(1), 2, np.int32(3)]) == want

    @pytest.mark.parametrize("m", [16, 200])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_from_numpy_matches_from_indices_on_short_arrays(self, m, dtype):
        # The empty array and 1-40 indices, repeats included.
        rng = np.random.default_rng(m)
        for n in range(41):
            idx = rng.integers(0, m, size=n).astype(dtype)
            assert ItemSet.from_numpy_indices(m, idx) == ItemSet.from_indices(m, idx.tolist())

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
    def test_from_numpy_takes_unsigned_indices(self, dtype):
        # Unsigned indices cannot be negative; past the end they still raise.
        idx = np.arange(0, 200, 3, dtype=dtype)
        assert ItemSet.from_numpy_indices(200, idx) == ItemSet.from_indices(200, range(0, 200, 3))
        with pytest.raises(ValueError, match="outside universe"):
            ItemSet.from_numpy_indices(150, idx)

    @pytest.mark.parametrize("text", ["00 FF", "00FF", "00ff\n", " 00ff", "0x00", "+0ff", "00f"])
    def test_from_hex_accepts_only_to_hex_output(self, text):
        assert ItemSet.from_hex(16, "00ff") == ItemSet.from_indices(16, range(8, 16))
        with pytest.raises(ValueError):
            ItemSet.from_hex(16, text)


class TestPart:
    def test_empty_sequence_yields_full_universe(self):
        cells = part_cells(16, [])
        assert cells == [ItemSet.full(16)]
        assert part_profile(16, []) == (16,)

    def test_single_set_order(self):
        s = ItemSet.from_indices(16, range(8))
        cells = part_cells(16, [s])
        assert cells[0] == ~s  # all-zeros pattern first
        assert cells[1] == s
        assert part_profile(16, [s]) == (8, 8)

    def test_reference_pair_profile(self, reference):
        s, t, _ = reference
        assert part_profile(16, (*s.sets(), *t.sets())) == (
            4, 1, 0, 0, 0, 1, 2, 0, 1, 0, 1, 1, 0, 1, 0, 4,
        )

    def test_mask_empty_is_all_zeros(self, reference):
        s, t, _ = reference
        prof = part_profile(16, (*s.sets(), *t.sets()), ItemSet.empty(16))
        assert prof == (0,) * 16

    @given(
        st.integers(2, 10).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(st.integers(0, (1 << m) - 1), min_size=0, max_size=4),
                st.integers(0, (1 << m) - 1),
            )
        )
    )
    def test_matches_naive_profile(self, args):
        m, bit_list, mask_bits = args
        sets = [ItemSet(m, b) for b in bit_list]
        mask = ItemSet(m, mask_bits)
        naive = naive_part_profile(m, [list(s) for s in sets], list(mask))
        assert part_profile(m, sets, mask) == naive
        assert part_profile(m, sets) == naive_part_profile(m, [list(s) for s in sets])

    @given(
        st.integers(2, 10).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=4),
            )
        )
    )
    def test_cells_partition_universe(self, args):
        m, bit_list = args
        cells = part_cells(m, [ItemSet(m, b) for b in bit_list])
        union = 0
        total = 0
        for c in cells:
            assert union & c.bits == 0
            union |= c.bits
            total += len(c)
        assert union == (1 << m) - 1
        assert total == m
