"""Property tests for the parsers of outside input.

Whatever the input, each parser either returns a value that survives a
round trip or raises its documented error type: ``ConstructionError`` for
instance payloads, ``ValueError`` for ``ItemSet.from_hex``,
``ProtocolError`` for protocol messages, ``InvalidParameter`` for the count
table and row count of ``refine_masks``, ``ValueError`` or ``TypeError``
for the coordinates of an ``RngStream``, the fields of a ``Message`` and the
arguments of the ``ItemSet`` constructors, and ``InvalidParameter``
(``UniverseMismatch`` for cells of different widths) for the arguments of
``PartitionParameter``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bxoslab import InvalidParameter, ItemSet, PartitionParameter, RngStream, refine_masks, sample_instance
from bxoslab.construction import Basis, ConstructionError
from bxoslab.itemsets import UniverseMismatch
from bxoslab.lab import instance_from_json, instance_to_json
from bxoslab.protocols import (
    Message,
    ProtocolError,
    decode_basis,
    decode_set,
    decode_uint,
    encode_basis,
    encode_set,
    encode_uint,
)

VALID = instance_to_json(sample_instance(16, 3, "nu", RngStream(5, 0)))

# JSON reads 1e400 as inf and NaN as nan, so both reach the parser.
specials = st.sampled_from((math.inf, -math.inf, math.nan))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | specials | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
hexish = st.text(alphabet="0123456789abcdefABCDEF _-xg", max_size=6)


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


# Values for a universe size, a bitmask or an item: ints of either sign, and
# bools and numpy integers, which act as ints; then values that are not
# integers.  Universe sizes stay small, so ItemSet.full never builds a huge int.
int_like = st.booleans() | st.integers(0, 80).map(np.int64)
sizes = st.integers(-8, 80) | int_like | not_counts
masks = st.integers(-(2**90), 2**90) | int_like | not_counts


def _is_int(x):
    return isinstance(x, (int, np.integer))


@settings(max_examples=300, deadline=None)
@given(sizes, masks)
def test_itemset_takes_only_integers_and_stores_plain_ints(m, bits):
    try:
        s = ItemSet(m, bits)
    except TypeError:
        assert not (_is_int(m) and _is_int(bits))
        return
    except ValueError:
        assert _is_int(m) and _is_int(bits) and not (int(m) > 0 and 0 <= int(bits) < 1 << int(m))
        return
    assert type(s.m) is int and type(s.bits) is int and (s.m, s.bits) == (m, bits)
    assert ItemSet.from_hex(s.m, s.to_hex()) == s and repr(s)


@settings(max_examples=300, deadline=None)
@given(sizes, masks)
def test_message_takes_only_sized_ints(width, value):
    try:
        msg = Message(width, value)
    except TypeError:
        assert not (_is_int(width) and _is_int(value))
        return
    except ValueError:
        w, v = int(width), int(value)
        assert _is_int(width) and _is_int(value) and not (w >= 0 and 0 <= v < 1 << w)
        return
    assert type(msg.width) is int and type(msg.value) is int and (len(msg), msg.value) == (width, value)


# Bit strings, the message type before sized ints, are not messages; nor is
# text int(msg, 2) would read as binary, or any other type.
INT_LITERALS = ["0_1", " 01", "01 ", "+01", "0b1", "\uff101", "1\u00b2", "\u0661", "\ud800"]
not_messages = (
    st.text(alphabet="01_ +-\t\n2", max_size=24)
    | st.text(max_size=12)
    | st.sampled_from(INT_LITERALS)
    | st.integers()
    | st.none()
    | st.binary(max_size=4)
    | st.tuples(st.integers(0, 8), st.integers(0, 255))
)
messages = st.integers(0, 30).flatmap(lambda w: st.builds(Message, st.just(w), st.integers(0, (1 << w) - 1)))


@settings(max_examples=300, deadline=None)
@given(not_messages | messages)
def test_decode_uint_accepts_only_binary(msg):
    if not isinstance(msg, Message):
        with pytest.raises(ProtocolError, match="non-binary"):
            decode_uint(msg)
        return
    assert decode_uint(msg) == msg.value


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), not_messages | messages)
def test_decode_set_and_basis_accept_only_binary(m, msg):
    for decode, encode, width, kind in (
        (decode_set, encode_set, m, "set"),
        (decode_basis, lambda pair: encode_basis(*pair), 2 * m, "basis"),
    ):
        if not isinstance(msg, Message):
            with pytest.raises(ProtocolError, match="non-binary"):
                decode(m, msg)
        elif len(msg) != width:
            with pytest.raises(ProtocolError, match=f"{kind} message has {len(msg)} bits, expected {width}"):
                decode(m, msg)
        else:
            assert encode(decode(m, msg)) == msg


# int(s, 2) also takes Unicode decimal digits ("\uff10" is a fullwidth zero,
# "\u0661" an Arabic-Indic one); a lone surrogate cannot even be encoded.
# No such text is a message, whatever its width.
@pytest.mark.parametrize("msg", INT_LITERALS)
def test_python_int_literal_syntax_is_rejected(msg):
    for decode in (decode_uint, lambda x: decode_set(len(msg), x), lambda x: decode_basis(len(msg), x)):
        with pytest.raises(ProtocolError, match="non-binary"):
            decode(msg)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.data())
def test_decode_inverts_encode(m, data):
    msg = data.draw(st.builds(Message, st.just(m), st.integers(0, (1 << m) - 1)))
    pair = data.draw(st.builds(Message, st.just(2 * m), st.integers(0, (1 << 2 * m) - 1)))
    s = ItemSet(m, msg.value)
    assert decode_uint(encode_uint(msg.value, m)) == msg.value and encode_uint(decode_uint(msg), m) == msg
    assert decode_set(m, encode_set(s)) == s and encode_set(decode_set(m, msg)) == msg
    s1, s2 = decode_basis(m, pair)
    assert encode_basis(s1, s2) == pair and decode_basis(m, encode_basis(s, ~s)) == (s, ~s)


index_arrays = st.tuples(
    st.lists(st.integers(-100, 100), max_size=6),
    st.sampled_from(["int64", "int16", "uint32", "float64", "bool", "object", "list", "tuple"]),
)


@settings(max_examples=300, deadline=None)
@given(sizes, st.sampled_from(["empty", "full", "from_indices", "from_numpy_indices"]), index_arrays)
def test_itemset_constructors_raise_only_declared_errors(m, constructor, items):
    values, kind = items
    if kind == "uint32":
        values = [abs(v) for v in values]
    indices = {"list": list, "tuple": tuple}.get(kind, lambda v: np.array(v, dtype=kind))(values)
    args = () if constructor in ("empty", "full") else (indices,)
    # Every constructor checks the universe size before it uses it.
    if not _is_int(m):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            getattr(ItemSet, constructor)(m, *args)
        return
    if m <= 0:
        with pytest.raises(ValueError, match=f"universe size must be positive, got {int(m)}"):
            getattr(ItemSet, constructor)(m, *args)
        return
    try:
        s = getattr(ItemSet, constructor)(m, *args)
    except (ValueError, TypeError):
        return
    assert type(s.m) is int and type(s.bits) is int and s.m == m and repr(s)
    if constructor == "from_numpy_indices":
        assert kind in ("int64", "int16", "uint32")
    if args:
        assert set(s) == set(values)
    else:
        assert len(s) == (s.m if constructor == "full" else 0)


not_cells = not_counts | st.integers() | st.lists(st.integers(0, 7), max_size=3) | st.integers(0, 7).map(np.arange)


@st.composite
def partition_parameter_calls(draw):
    """Cells that partition at most 24 items and counts that fit them, then,
    unless the case is "none", one fault.  Returns the cells, the counts and
    the case."""
    m = draw(st.integers(1, 24))
    n_cells = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, n_cells - 1), min_size=m, max_size=m))
    cells = [ItemSet.from_indices(m, [i for i, k in enumerate(ids) if k == cell]) for cell in range(n_cells)]
    counts = [draw(st.integers(0, len(c)) | st.integers(0, len(c)).map(np.int64)) for c in cells]
    case = draw(st.sampled_from(["none", "cell", "width", "overlap", "gap", "count", "negative", "above", "length"]))
    k = draw(st.integers(0, n_cells - 1))
    if case == "cell":
        cells[k] = draw(not_cells)
    elif case == "width":
        cells[k] = ItemSet(m + 1, cells[k].bits)
    elif case == "overlap":
        # Some cell holds an item, and the full set overlaps it.
        cells.append(ItemSet.full(m))
        counts.append(0)
    elif case == "gap":
        # Dropping a non-empty cell leaves its items uncovered, or no cells.
        k = next(i for i, c in enumerate(cells) if c)
        del cells[k], counts[k]
    elif case == "count":
        counts[k] = draw(not_counts)
    elif case == "negative":
        counts[k] = -draw(st.integers(1, 2**70))
    elif case == "above":
        counts[k] = len(cells[k]) + draw(st.integers(1, 2**70))
    elif case == "length" and draw(st.booleans()):
        counts.append(0)
    elif case == "length":
        counts.pop()
    return tuple(cells), tuple(counts), case


@settings(max_examples=300, deadline=None)
@given(partition_parameter_calls())
def test_partition_parameter_raises_only_invalid_parameter(call):
    cells, counts, case = call
    if case == "none":
        assert PartitionParameter(cells, counts).sizes == tuple(map(len, cells))
        return
    # A cell of another width is reported as such when the others agree.
    expected = (InvalidParameter, UniverseMismatch) if case == "width" else InvalidParameter
    with pytest.raises(expected):
        PartitionParameter(cells, counts)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ItemSet(8, 1.0), TypeError),
        (lambda: ItemSet(8.0, 1), TypeError),
        (lambda: ItemSet("8", 1), TypeError),
        (lambda: ItemSet.from_numpy_indices(8, [1, 2]), TypeError),
        (lambda: Basis(1, 2), TypeError),
        (lambda: refine_masks([255], [[8]], RngStream(0), 1), InvalidParameter),
        (lambda: PartitionParameter((255,), (1,)), InvalidParameter),
    ],
    ids=["float-bits", "float-m", "str-m", "list-indices", "int-halves", "int-cell", "int-partition-cell"],
)
def test_bad_argument_types_raise_from_an_explicit_check(call, error):
    # Each raised TypeError or AttributeError from inside a set operation.
    with pytest.raises(error, match="cannot be interpreted as an integer|numpy array|ItemSet"):
        call()


def test_bool_universe_is_stored_as_an_int():
    s = ItemSet(True, 1)
    assert type(s.m) is int and repr(s) == "ItemSet(1, {0})"
