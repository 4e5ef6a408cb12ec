import sys
from fractions import Fraction

import pytest

from bxoslab import (
    Allocation,
    BXOSValuation,
    ItemSet,
    ProtocolError,
    RngStream,
    approx_ratio,
    check_truthful,
    execute,
    sample_instance,
)
from bxoslab.protocols import (
    MAX_ROUNDS,
    PROTOCOL_NAMES,
    Message,
    Protocol,
    build_protocol,
    bundle_vickrey_protocol,
    decode_basis,
    decode_set,
    decode_uint,
    encode_basis,
    encode_set,
    encode_uint,
    run_on_instance,
    trivial_bundle_protocol,
)


def test_uint_roundtrip():
    assert decode_uint(encode_uint(0, 0)) == 0
    assert decode_uint(encode_uint(9, 5)) == 9
    assert len(encode_uint(9, 5)) == 5
    with pytest.raises(ValueError):
        encode_uint(32, 5)


def test_set_encoding_is_item0_first():
    s = ItemSet.from_indices(4, [0, 2])
    assert encode_set(s) == Message(4, 0b0101)
    assert decode_set(4, Message(4, 0b0101)) == s
    assert encode_basis(s, ~s) == Message(8, 0b1010_0101)
    b1, b2 = decode_basis(4, encode_basis(s, ~s))
    assert (b1, b2) == (s, ~s)


def test_messages_stay_packed():
    # One int per message: bit strings would take 5m bytes, 8x the bound.
    m = 16_000
    outcome, _, ratio = run_on_instance("basis-exchange", sample_instance(m, 2, "nu", RngStream(79, 0)))
    transcript = outcome.from_a + outcome.from_b + outcome.to_a + outcome.to_b
    assert outcome.cc_bits == 5 * m and ratio == 1
    assert all(isinstance(msg, Message) for msg in transcript)
    assert sum(sys.getsizeof(msg.value) for msg in transcript) < 5 * m // 8 + 1024


@pytest.fixture(scope="module")
def nu_instance():
    return sample_instance(160, 6, "nu", RngStream(77, 0))


class TestTrivialProtocol:
    def test_one_round_half_welfare(self, nu_instance):
        outcome, value, ratio = run_on_instance("trivial", nu_instance)
        assert outcome.rounds == 1
        assert value == 80  # every clause has half size, all items to one side
        assert ratio == Fraction(1, 2)
        assert outcome.to_a == outcome.to_b == ()

    def test_higher_reporter_wins(self):
        m = 8
        low = BXOSValuation((ItemSet.from_indices(m, [0]),))
        high = BXOSValuation((ItemSet.full(m),))
        p = trivial_bundle_protocol(m)
        out = execute(p, low, high)
        assert len(out.allocation.to_bob) == m
        out = execute(p, high, low)
        assert len(out.allocation.to_alice) == m


class TestBasisExchange:
    def test_two_rounds_full_welfare(self, nu_instance):
        outcome, value, ratio = run_on_instance("basis-exchange", nu_instance)
        assert outcome.rounds == 2
        assert value == 160
        assert ratio == Fraction(1)
        assert outcome.cc_bits == 5 * 160
        assert outcome.cc_bits <= 6 * 160 + 64

    def test_single_index_instance(self):
        inst = sample_instance(16, 1, "nu", RngStream(78, 0))
        outcome, value, ratio = run_on_instance("basis-exchange", inst)
        assert ratio == Fraction(1)
        assert outcome.rounds == 2

    def test_allocates_special_clause_and_complement(self, nu_instance):
        inst = nu_instance
        outcome, _, _ = run_on_instance("basis-exchange", inst)
        special = (inst.a1, inst.a2)[inst.theta - 1][inst.i_star]
        assert outcome.allocation.to_alice == special
        assert outcome.allocation.to_bob == ~special


class TestRandomClause:
    def test_one_round_m_bits(self, nu_instance):
        outcome, value, ratio = run_on_instance("random-clause", nu_instance, seed=3)
        assert outcome.rounds == 1
        assert outcome.cc_bits == 160
        assert value >= 80  # the sent clause alone guarantees half

    def test_seed_indexes_the_family(self, nu_instance):
        chosen = set()
        for seed in range(40):
            outcome, _, _ = run_on_instance("random-clause", nu_instance, seed=seed)
            chosen.add(outcome.from_a[0])
        assert len(chosen) > 1  # different seeds pick different clauses


class TestExecuteAccounting:
    def test_cc_resums_transcript_lengths(self, nu_instance):
        outcome, _, _ = run_on_instance("basis-exchange", nu_instance)
        resummed = sum(
            len(msg)
            for part in (outcome.from_a, outcome.from_b, outcome.to_a, outcome.to_b)
            for msg in part
        )
        assert resummed == outcome.cc_bits

    def test_execution_is_deterministic(self, nu_instance):
        a = run_on_instance("basis-exchange", nu_instance)
        b = run_on_instance("basis-exchange", nu_instance)
        assert a == b

    def test_round_budget_surfaces_divergence(self):
        m = 4
        v = BXOSValuation((ItemSet.full(m),))
        chatty = Protocol(
            bidder_a=lambda val, seen: Message(1, 0),
            bidder_b=lambda val, seen: Message(1, 0),
            seller=lambda a, b: (Message(1, 0), Message(1, 0)),
            alloc=lambda a, b: Allocation(ItemSet.full(m), ItemSet.empty(m)),
            price=lambda a, b: (Fraction(0), Fraction(0)),
        )
        with pytest.raises(ProtocolError, match=f"round budget of {MAX_ROUNDS} exceeded"):
            execute(chatty, v, v)

    def test_bidders_see_the_seller_messages_sent_so_far(self):
        # Call k of a bidder receives exactly the seller's first k - 1
        # messages to that bidder, and rounds counts the bidder messages.
        m = 4
        v = BXOSValuation((ItemSet.full(m),))
        seen = {"a": [], "b": []}

        def bidder(side):
            def speak(val, transcript):
                seen[side].append(transcript)
                return Message(len(seen[side]), (1 << len(seen[side])) - 1)

            return speak

        def stop_after(rounds):
            # Distinct replies per round and per bidder; None ends the run.
            return lambda a, b: None if len(a) == rounds else (Message(len(a), 0), Message(len(a) + 1, 1))

        def protocol(seller):
            return Protocol(
                bidder_a=bidder("a"),
                bidder_b=bidder("b"),
                seller=seller,
                alloc=lambda a, b: Allocation(ItemSet.full(m), ItemSet.empty(m)),
                price=lambda a, b: (Fraction(0), Fraction(0)),
            )

        outcome = execute(protocol(stop_after(4)), v, v)
        assert outcome.rounds == len(outcome.from_a) == 4
        assert outcome.to_a == (Message(1, 0), Message(2, 0), Message(3, 0))
        assert outcome.to_b == (Message(2, 1), Message(3, 1), Message(4, 1))
        assert seen["a"] == [outcome.to_a[:k] for k in range(4)]
        assert seen["b"] == [outcome.to_b[:k] for k in range(4)]
        assert all(type(t) is tuple for t in seen["a"] + seen["b"])

        seen["a"].clear()
        seen["b"].clear()
        with pytest.raises(ProtocolError, match=f"round budget of {MAX_ROUNDS}"):
            execute(protocol(stop_after(None)), v, v)
        assert len(seen["a"]) == len(seen["b"]) == MAX_ROUNDS

    def test_overlapping_allocation_surfaces(self):
        # Disjointness lives in the Allocation constructor, so a buggy
        # protocol blows up during its alloc call instead of being repaired.
        m = 4
        v = BXOSValuation((ItemSet.full(m),))
        buggy = Protocol(
            bidder_a=lambda val, seen: Message(0, 0),
            bidder_b=lambda val, seen: Message(0, 0),
            seller=None,
            alloc=lambda a, b: Allocation(ItemSet.full(m), ItemSet.full(m)),
            price=lambda a, b: (Fraction(0), Fraction(0)),
        )
        with pytest.raises(ValueError, match="overlap"):
            execute(buggy, v, v)

    def test_non_allocation_return_surfaces(self):
        m = 4
        v = BXOSValuation((ItemSet.full(m),))
        wrong = Protocol(
            bidder_a=lambda val, seen: Message(0, 0),
            bidder_b=lambda val, seen: Message(0, 0),
            seller=None,
            alloc=lambda a, b: (ItemSet.full(m), ItemSet.empty(m)),
            price=lambda a, b: (Fraction(0), Fraction(0)),
        )
        with pytest.raises(ProtocolError, match="non-allocation"):
            execute(wrong, v, v)

    def test_non_binary_message_rejected(self):
        m = 4
        v = BXOSValuation((ItemSet.full(m),))
        noisy = Protocol(
            bidder_a=lambda val, seen: "2",
            bidder_b=lambda val, seen: Message(0, 0),
            seller=None,
            alloc=lambda a, b: Allocation(ItemSet.full(m), ItemSet.empty(m)),
            price=lambda a, b: (Fraction(0), Fraction(0)),
        )
        with pytest.raises(ProtocolError, match="non-binary"):
            execute(noisy, v, v)

    def test_empty_allocation_ratio_zero(self, nu_instance):
        from bxoslab import build_valuations

        va, vb, *_ = build_valuations(nu_instance)
        lazy = Protocol(
            bidder_a=lambda val, seen: Message(0, 0),
            bidder_b=lambda val, seen: Message(0, 0),
            seller=None,
            alloc=lambda a, b: Allocation(ItemSet.empty(160), ItemSet.empty(160)),
            price=lambda a, b: (Fraction(0), Fraction(0)),
        )
        out = execute(lazy, va, vb)
        assert approx_ratio(out, va, vb) == 0


class TestTruthfulness:
    @pytest.fixture()
    def two_valuations(self):
        m = 8
        return [
            BXOSValuation((ItemSet.from_indices(m, [0]),)),
            BXOSValuation((ItemSet.full(m),)),
        ]

    def test_bundle_vickrey_is_truthful(self, two_valuations):
        p = bundle_vickrey_protocol(8)
        assert check_truthful(p, two_valuations) == []

    def test_zero_price_variant_is_flagged(self, two_valuations):
        p = trivial_bundle_protocol(8)
        violations = check_truthful(p, two_valuations)
        assert violations
        # The low bidder gains its full bundle value by over-reporting.
        best = max(v.gap for v in violations)
        assert best == 1

    def test_single_valuation_never_violates(self, two_valuations):
        for p in (trivial_bundle_protocol(8), bundle_vickrey_protocol(8)):
            assert check_truthful(p, two_valuations[:1]) == []


def test_only_basis_exchange_has_a_seller(nu_instance):
    # A protocol without a seller is simultaneous: it runs one round.
    sellers = {name: build_protocol(name, nu_instance).seller for name in PROTOCOL_NAMES}
    assert [name for name, seller in sellers.items() if seller is not None] == ["basis-exchange"]
    for name in PROTOCOL_NAMES:
        assert run_on_instance(name, nu_instance)[0].rounds == (2 if sellers[name] else 1)


def test_unknown_protocol_name(nu_instance):
    with pytest.raises(KeyError):
        build_protocol("nope", nu_instance)
