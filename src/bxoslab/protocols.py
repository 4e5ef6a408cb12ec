"""Two-bidder auction protocols with exact round and bit accounting.

A protocol is five deterministic functions: each bidder maps (valuation,
transcript received so far) to a :class:`Message`; the seller maps the two
bidder-side transcripts either to a pair of reply messages or to termination;
allocation and prices are computed from the full bidder-side transcripts.
A message is a sized int: ``Message(width, value)`` is ``width`` bits, bit
``i`` of ``value`` being bit ``i`` of the message, so a set message carries
item ``i`` as bit ``i``, and a basis message its first set in the low ``m``
bits.  Communication cost, ``cc_bits``, sums the widths of every bidder
message plus every seller message actually sent (the seller sends nothing in
the final round).  A protocol without a seller is *simultaneous*: one round,
and the seller never speaks.

Randomized protocols are seed-indexed families of deterministic protocols and
are executed per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Callable, Optional, Sequence

from .construction import Basis, Instance, _joint_cells, _table, constant_vectors
from .itemsets import ItemSet
from .rng import _mix64
from .valuations import Allocation, BXOSValuation, build_valuations, opt_clause_pair


@dataclass(frozen=True)
class Message:
    """A ``width``-bit message: bit ``i`` of ``value`` is bit ``i`` of the
    message, so ``len(msg)`` is ``width`` and leading zero bits count."""

    width: int
    value: int

    def __post_init__(self) -> None:
        width, value = index(self.width), index(self.value)
        self.__dict__.update(width=width, value=value)
        if width < 0:
            raise ValueError(f"message width must be non-negative, got {width}")
        if value < 0 or value >> width:
            raise ValueError(f"message value is not a {width}-bit value")

    def __len__(self) -> int:
        return self.width

    def __repr__(self) -> str:
        # Hex, since a million-bit value exceeds int's decimal conversion limit.
        return f"Message({self.width}, {self.value:#x})"


Transcript = tuple[Message, ...]
_EMPTY = Message(0, 0)


class ProtocolError(RuntimeError):
    """A protocol misbehaved: a message that is not a Message, a field of the
    wrong width, a non-allocation or a blown round budget."""


# Rounds a protocol may run before execute gives up on it as non-terminating.
MAX_ROUNDS = 64


def encode_uint(value: int, width: int) -> Message:
    """``value`` as a ``width``-bit message; ``ValueError`` if it does not fit."""
    return Message(width, value)


def decode_uint(msg: Message) -> int:
    return _check_bits(msg, "integer field").value


def encode_set(s: ItemSet) -> Message:
    """Raw m-bit message, item i as bit i."""
    return Message(s.m, s.bits)


def decode_set(m: int, msg: Message) -> ItemSet:
    width = _check_bits(msg, "set field").width
    if width != m:
        raise ProtocolError(f"set message has {width} bits, expected {m}")
    return ItemSet._new(width, msg.value)


def encode_basis(s1: ItemSet, s2: ItemSet) -> Message:
    """The two set messages one after the other: ``s1`` in the low bits."""
    return Message(s1.m + s2.m, s1.bits | s2.bits << s1.m)


def decode_basis(m: int, msg: Message) -> tuple[ItemSet, ItemSet]:
    width = _check_bits(msg, "basis field").width
    if width != 2 * m:
        raise ProtocolError(f"basis message has {width} bits, expected {2 * m}")
    return ItemSet._new(m, msg.value & ((1 << m) - 1)), ItemSet._new(m, msg.value >> m)


@dataclass(frozen=True)
class Protocol:
    bidder_a: Callable[[BXOSValuation, Transcript], Message]
    bidder_b: Callable[[BXOSValuation, Transcript], Message]
    seller: Optional[Callable[[Transcript, Transcript], Optional[tuple[Message, Message]]]]
    alloc: Callable[[Transcript, Transcript], Allocation]
    price: Callable[[Transcript, Transcript], tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class ProtocolOutcome:
    allocation: Allocation
    prices: tuple[Fraction, Fraction]
    rounds: int
    cc_bits: int
    from_a: Transcript
    from_b: Transcript
    to_a: Transcript
    to_b: Transcript


def _check_bits(msg: Message, origin: str) -> Message:
    if not isinstance(msg, Message):
        raise ProtocolError(f"non-binary message ({origin})")
    return msg


def execute(protocol: Protocol, va: BXOSValuation, vb: BXOSValuation) -> ProtocolOutcome:
    """Run the round structure to termination and account for every bit.

    Raises :class:`ProtocolError` after :data:`MAX_ROUNDS` rounds (standing
    in for a non-terminating protocol) or on a non-allocation; a protocol
    bug is surfaced, never silently repaired.
    """
    from_a: list[Message] = []
    from_b: list[Message] = []
    to_a: list[Message] = []
    to_b: list[Message] = []
    while True:
        if len(from_a) == MAX_ROUNDS:
            raise ProtocolError(f"round budget of {MAX_ROUNDS} exceeded")
        from_a.append(_check_bits(protocol.bidder_a(va, tuple(to_a)), "first bidder"))
        from_b.append(_check_bits(protocol.bidder_b(vb, tuple(to_b)), "second bidder"))
        reply = None if protocol.seller is None else protocol.seller(tuple(from_a), tuple(from_b))
        if reply is None:
            break
        msg_a, msg_b = reply
        to_a.append(_check_bits(msg_a, "seller"))
        to_b.append(_check_bits(msg_b, "seller"))

    allocation = protocol.alloc(tuple(from_a), tuple(from_b))
    if not isinstance(allocation, Allocation):
        raise ProtocolError("allocation function returned a non-allocation")
    prices = protocol.price(tuple(from_a), tuple(from_b))
    cc = sum(len(x) for x in from_a + from_b + to_a + to_b)
    return ProtocolOutcome(
        allocation=allocation,
        prices=(Fraction(prices[0]), Fraction(prices[1])),
        rounds=len(from_a),
        cc_bits=cc,
        from_a=tuple(from_a),
        from_b=tuple(from_b),
        to_a=tuple(to_a),
        to_b=tuple(to_b),
    )


def welfare(outcome: ProtocolOutcome, va: BXOSValuation, vb: BXOSValuation) -> int:
    return va.value(outcome.allocation.to_alice) + vb.value(outcome.allocation.to_bob)


def approx_ratio(outcome: ProtocolOutcome, va: BXOSValuation, vb: BXOSValuation) -> Fraction:
    """Achieved welfare over the exact optimum, as an exact rational."""
    return Fraction(welfare(outcome, va, vb), opt_clause_pair(va, vb)[2])


@dataclass(frozen=True)
class TruthfulnessViolation:
    bidder: str  # "A" or "B"
    own_index: int
    other_index: int
    deviation_index: int
    gap: Fraction


def check_truthful(protocol: Protocol, valuations: Sequence[BXOSValuation]) -> list[TruthfulnessViolation]:
    """Enumerate all profitable unilateral deviations over a finite valuation set.

    For every pair of true inputs and every deviation report, compares the
    deviating bidder's utility (true value of the award minus price) against
    truthful play, in exact arithmetic.  An empty list means following the
    protocol is an ex-post equilibrium on this set.
    """
    vs = list(valuations)
    outcomes = {
        (i, j): execute(protocol, vs[i], vs[j])
        for i in range(len(vs))
        for j in range(len(vs))
    }
    violations = []
    for i, va in enumerate(vs):
        for j, vb in enumerate(vs):
            truth = outcomes[(i, j)]
            util_a = va.value(truth.allocation.to_alice) - truth.prices[0]
            util_b = vb.value(truth.allocation.to_bob) - truth.prices[1]
            for d in range(len(vs)):
                dev_a = outcomes[(d, j)]
                gain_a = va.value(dev_a.allocation.to_alice) - dev_a.prices[0] - util_a
                if gain_a > 0:
                    violations.append(TruthfulnessViolation("A", i, j, d, gain_a))
                dev_b = outcomes[(i, d)]
                gain_b = vb.value(dev_b.allocation.to_bob) - dev_b.prices[1] - util_b
                if gain_b > 0:
                    violations.append(TruthfulnessViolation("B", i, j, d, gain_b))
    return violations


# ---------------------------------------------------------------------------
# Baseline protocols.
# ---------------------------------------------------------------------------


def _zero_prices(_a: Transcript, _b: Transcript) -> tuple[Fraction, Fraction]:
    return (Fraction(0), Fraction(0))


def _grand_bundle_protocol(m: int, price: Callable[[Transcript, Transcript], tuple[Fraction, Fraction]]) -> Protocol:
    """One round: both bidders report their grand-bundle value and the whole
    universe goes to the higher reporter (ties to the first bidder)."""
    width = m.bit_length()

    def report(v: BXOSValuation, _seen: Transcript) -> Message:
        return encode_uint(v.value(ItemSet.full(v.m)), width)

    def alloc(from_a: Transcript, from_b: Transcript) -> Allocation:
        a_wins = decode_uint(from_a[0]) >= decode_uint(from_b[0])
        everything = ItemSet.full(m)
        nothing = ItemSet.empty(m)
        return Allocation(everything, nothing) if a_wins else Allocation(nothing, everything)

    return Protocol(bidder_a=report, bidder_b=report, seller=None, alloc=alloc, price=price)


def trivial_bundle_protocol(m: int) -> Protocol:
    """Grand bundle to the higher reporter, free."""
    return _grand_bundle_protocol(m, _zero_prices)


def bundle_vickrey_protocol(m: int) -> Protocol:
    """Grand-bundle second-price: winner takes all and pays the loser's
    report.  Truthful on any valuation set (a single-good Vickrey auction)."""

    def price(from_a: Transcript, from_b: Transcript) -> tuple[Fraction, Fraction]:
        bid_a = decode_uint(from_a[0])
        bid_b = decode_uint(from_b[0])
        if bid_a >= bid_b:
            return (Fraction(bid_b), Fraction(0))
        return (Fraction(0), Fraction(bid_a))

    return _grand_bundle_protocol(m, price)


def basis_exchange_protocol(inst: Instance) -> Protocol:
    """Two rounds, 5m bits: the second bidder reveals their basis, the seller
    forwards it, and the first bidder sends the clause whose joint profile
    with both bases marks it as special; that clause and its complement get
    allocated.

    The bidder functions close over each bidder's private basis, modeling
    knowledge that the bare clause list carries only implicitly.  Profile
    collisions that could misidentify the special clause die off
    exponentially in the universe size; candidates are taken in family order.
    """
    m = inst.m
    vec = constant_vectors(m)
    s = inst.s
    t = inst.t

    def bidder_a(v: BXOSValuation, seen: Transcript) -> Message:
        if not seen:
            return _EMPTY
        joint = _joint_cells(s, Basis(*decode_basis(m, seen[0])))
        for clause in v.clauses:
            if _table(joint, (clause.bits,))[0] in (vec.spec1, vec.spec2):
                return encode_set(clause)
        # Unreachable on well-formed instances; concede the first clause.
        return encode_set(v.clauses[0])

    def bidder_b(v: BXOSValuation, seen: Transcript) -> Message:
        return encode_basis(t.s1, t.s2) if not seen else _EMPTY

    def seller(from_a: Transcript, from_b: Transcript) -> Optional[tuple[Message, Message]]:
        if len(from_a) == 1:
            return (from_b[0], _EMPTY)
        return None

    def alloc(from_a: Transcript, from_b: Transcript) -> Allocation:
        chosen = decode_set(m, from_a[1])
        return Allocation(chosen, ~chosen)

    return Protocol(
        bidder_a=bidder_a,
        bidder_b=bidder_b,
        seller=seller,
        alloc=alloc,
        price=_zero_prices,
    )


def random_clause_protocol(m: int, seed: int) -> Protocol:
    """One round, m bits: the first bidder sends one clause of their family
    (position picked by the seed, uniform over seeds) and receives exactly
    those items; the complement goes to the second bidder."""

    def bidder_a(v: BXOSValuation, _seen: Transcript) -> Message:
        return encode_set(v.clauses[_mix64(seed, 0) % len(v.clauses)])

    def alloc(from_a: Transcript, _from_b: Transcript) -> Allocation:
        chosen = decode_set(m, from_a[0])
        return Allocation(chosen, ~chosen)

    return Protocol(
        bidder_a=bidder_a,
        bidder_b=lambda v, seen: _EMPTY,
        seller=None,
        alloc=alloc,
        price=_zero_prices,
    )


# Registered protocols: name -> builder(instance, seed).
_BUILDERS: dict[str, Callable[[Instance, int], Protocol]] = {
    "trivial": lambda inst, seed: trivial_bundle_protocol(inst.m),
    "basis-exchange": lambda inst, seed: basis_exchange_protocol(inst),
    "random-clause": lambda inst, seed: random_clause_protocol(inst.m, seed),
    "vickrey-bundle": lambda inst, seed: bundle_vickrey_protocol(inst.m),
}
PROTOCOL_NAMES = tuple(_BUILDERS)


def build_protocol(name: str, inst: Instance, seed: int = 0) -> Protocol:
    """Instantiate a registered protocol for one instance execution."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown protocol {name!r}; known: {', '.join(PROTOCOL_NAMES)}")
    return _BUILDERS[name](inst, seed)


def run_on_instance(name: str, inst: Instance, seed: int = 0) -> tuple[ProtocolOutcome, int, Fraction]:
    """Execute a registered protocol on an instance's bidder inputs.

    Returns (outcome, welfare, ratio to the exact optimum).
    """
    va, vb, *_ = build_valuations(inst)
    protocol = build_protocol(name, inst, seed)
    outcome = execute(protocol, va, vb)
    return outcome, welfare(outcome, va, vb), approx_ratio(outcome, va, vb)
