"""Property tests for the parsers of outside input.

Whatever the input, each parser either returns a value that survives a
round trip or raises its documented error type: ``ConstructionError`` for
instance payloads, ``ValueError`` for ``ItemSet.from_hex`` and
``ProtocolError`` for protocol messages.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from bxoslab import ItemSet, RngStream, sample_instance
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
