"""Property tests for the parsers of outside input.

Whatever the input, each parser either returns a value that survives a
round trip or raises its documented error type: ``ConstructionError`` for
instance payloads, ``ValueError`` for ``ItemSet.from_hex``,
``ProtocolError`` for protocol messages, ``InvalidParameter`` for the count
table and row count of ``refine_masks``, and ``ValueError`` or ``TypeError``
for the coordinates of an ``RngStream``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bxoslab import InvalidParameter, ItemSet, RngStream, refine_masks, sample_instance
from bxoslab.construction import ConstructionError
from bxoslab.lab import instance_from_json, instance_to_json
from bxoslab.protocols import ProtocolError, decode_basis, decode_set, decode_uint, encode_basis, encode_set

VALID = instance_to_json(sample_instance(16, 3, "nu", RngStream(5, 0)))

# JSON reads 1e400 as inf and NaN as nan, so both reach the parser.
specials = st.sampled_from((math.inf, -math.inf, math.nan))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | specials | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
hexish = st.text(alphabet="0123456789abcdefABCDEF _-xg", max_size=6)
# Near-binary text: the characters int(msg, 2) would also accept, plus noise.
noisy_bits = st.text(alphabet="01_ +-\t\n2", max_size=24) | st.text(max_size=12)


@st.composite
def mutated_payloads(draw):
    data = json.loads(json.dumps(VALID))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(VALID)))
        action = draw(st.sampled_from(("replace", "delete", "element")))
        if action == "delete":
            data.pop(key, None)
        elif action == "element" and isinstance(data.get(key), list) and data[key]:
            data[key][draw(st.integers(0, len(data[key]) - 1))] = draw(json_values | hexish)
        else:
            data[key] = draw(json_values)
    return data


@settings(max_examples=300, deadline=None)
@given(mutated_payloads() | json_values)
def test_instance_payload_raises_only_construction_error(data):
    try:
        inst = instance_from_json(data)
    except ConstructionError:
        return
    assert instance_from_json(instance_to_json(inst)) == inst


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), hexish | st.text(max_size=12))
def test_from_hex_raises_only_value_error(m, text):
    try:
        s = ItemSet.from_hex(m, text)
    except ValueError:
        return
    assert s.m == m and s.to_hex() == text


@settings(max_examples=300, deadline=None)
@given(noisy_bits)
def test_decode_uint_accepts_only_binary(msg):
    try:
        value = decode_uint(msg)
    except ProtocolError:
        assert set(msg) - {"0", "1"}
        return
    assert set(msg) <= {"0", "1"}
    assert value == (int(msg, 2) if msg else 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), noisy_bits)
def test_decode_set_and_basis_accept_only_binary(m, msg):
    for decode, encode, width in (
        (decode_set, encode_set, m),
        (decode_basis, lambda pair: encode_basis(*pair), 2 * m),
    ):
        try:
            value = decode(m, msg)
        except ProtocolError:
            assert len(msg) != width or set(msg) - {"0", "1"}
            continue
        assert encode(value) == msg


# int(s, 2) also takes Unicode decimal digits ("\uff10" is a fullwidth zero,
# "\u0661" an Arabic-Indic one); a lone surrogate cannot even be encoded.
@pytest.mark.parametrize("msg", ["0_1", " 01", "01 ", "+01", "0b1", "\uff101", "1\u00b2", "\u0661", "\ud800"])
def test_python_int_literal_syntax_is_rejected(msg):
    with pytest.raises(ProtocolError, match="non-binary"):
        decode_set(len(msg), msg)
    with pytest.raises(ProtocolError, match="non-binary"):
        decode_uint(msg)


# Values that are not a count: floats (integral ones too), strings, None.
not_counts = st.floats(allow_nan=True) | st.text(max_size=3) | st.none()


@st.composite
def count_table_calls(draw):
    """Valid cells over at most 24 items and a count table that fits them,
    then, unless the case is "none", one fault in the table or the row
    count.  Returns the cells, the table, the row count and the case."""
    m = draw(st.integers(1, 24))
    n_cells = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, n_cells - 1), min_size=m, max_size=m))
    cells = [ItemSet.from_indices(m, [i for i, k in enumerate(ids) if k == cell]) for cell in range(n_cells)]
    table = []
    for cell in cells:
        cut = draw(st.integers(0, len(cell)))
        table.append([cut, len(cell) - cut])
    rows = draw(st.integers(0, 3) | st.integers(0, 3).map(np.int64))
    case = draw(st.sampled_from(["none", "count", "row", "table", "negative", "ragged", "rows"]))
    k, j = draw(st.integers(0, n_cells - 1)), draw(st.integers(0, 1))
    if case == "count":
        table[k][j] = draw(not_counts)
    elif case == "row":
        table[k] = draw(not_counts | st.integers())
    elif case == "table":
        table = draw(not_counts | st.integers())
    elif case == "negative":
        table[k][j] = -draw(st.integers(1, 2**70))
    elif case == "ragged":
        # One more class in one row: the lengths differ, or a lone row's sum.
        table[k].append(1)
    elif case == "rows":
        rows = draw(not_counts | st.integers(max_value=-1))
    return cells, table, rows, case


@settings(max_examples=300, deadline=None)
@given(count_table_calls(), st.integers(0, 1000))
def test_refine_masks_counts_raise_only_invalid_parameter(call, seed):
    cells, table, rows, case = call
    if case == "none":
        assert len(refine_masks(cells, table, RngStream(seed), rows)) == rows
        return
    with pytest.raises(InvalidParameter):
        refine_masks(cells, table, RngStream(seed), rows)


coordinates = st.integers(-(2**70), 2**70) | st.integers(0, 2**64 - 1).map(np.uint64) | not_counts


@settings(max_examples=300, deadline=None)
@given(coordinates, coordinates, coordinates)
def test_rng_stream_takes_only_64_bit_integers(seed, stream, index):
    valid = all(isinstance(x, (int, np.integer)) and 0 <= int(x) < 2**64 for x in (seed, stream, index))
    try:
        child = RngStream(seed, stream).child(index)
    except (ValueError, TypeError):
        assert not valid
        return
    assert valid
    assert child.seed == seed
