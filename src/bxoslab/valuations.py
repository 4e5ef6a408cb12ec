"""Binary-XOS valuations, exact welfare oracles, and special-copy recovery.

A binary-XOS valuation carries a clause family and values a set as the
largest intersection with any clause.  For two such bidders the optimal
welfare reduces to the largest clause-pair union: for fixed clauses F, G and
any split (Z, ~Z), ``|Z & F| + |~Z & G| <= |F | G|`` with equality when Z
covers F, so maximizing over splits and over clause choices commute.  A
direct enumeration oracle over all splits is kept alongside as a cross-check
for small universes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .construction import Instance
from .itemsets import ItemSet, UniverseMismatch

RECOVER_NONE = "none"
RECOVER_AMBIGUOUS = "ambiguous"
ThetaGuess = Union[int, str]

_BRUTEFORCE_MAX_M = 24
_BRUTEFORCE_CHUNK = 1 << 20


@dataclass(frozen=True)
class BXOSValuation:
    """Clause family; value of Z is the max intersection size with a clause.

    Families are kept as sequences: duplicate clause sets may occur in
    sampled instances at small universe sizes and do not change any value.
    """

    clauses: tuple[ItemSet, ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("a clause family must be non-empty")
        m = self.clauses[0].m
        for c in self.clauses:
            if c.m != m:
                raise UniverseMismatch("clauses live over different universes")

    @property
    def m(self) -> int:
        return self.clauses[0].m

    def value(self, z: ItemSet) -> int:
        if z.m != self.m:
            raise UniverseMismatch(f"argument width {z.m} != {self.m}")
        zb = z.bits
        return max((zb & c.bits).bit_count() for c in self.clauses)


@dataclass(frozen=True)
class Allocation:
    """Disjoint award of items to the two bidders; leftovers stay unsold."""

    to_alice: ItemSet
    to_bob: ItemSet

    def __post_init__(self) -> None:
        if self.to_alice.m != self.to_bob.m:
            raise UniverseMismatch("allocation sides live over different universes")
        if not self.to_alice.isdisjoint(self.to_bob):
            raise ValueError("allocation sides overlap")

    @property
    def m(self) -> int:
        return self.to_alice.m


def opt_clause_pair(va: BXOSValuation, vb: BXOSValuation) -> tuple[int, int, int]:
    """Optimal welfare via the clause-union reduction.

    Returns ``(i, j, value)`` where value = max over clause pairs of
    ``|F_i | G_j|``; ties break to the lexicographically smallest (i, j).
    """
    if va.m != vb.m:
        raise UniverseMismatch("valuations live over different universes")
    best_i = best_j = 0
    best = -1
    for i, f in enumerate(va.clauses):
        fb = f.bits
        for j, g in enumerate(vb.clauses):
            val = (fb | g.bits).bit_count()
            if val > best:
                best_i, best_j, best = i, j, val
    return best_i, best_j, best


def oracle_allocation(va: BXOSValuation, vb: BXOSValuation) -> Allocation:
    """A welfare-optimal split: the winning first-bidder clause (shared items
    included) to the first bidder, everything else to the second."""
    i, _, _ = opt_clause_pair(va, vb)
    z = va.clauses[i]
    return Allocation(z, ~z)


def _family_max(v: BXOSValuation, masks: np.ndarray) -> np.ndarray:
    vals = np.zeros(masks.shape, dtype=np.uint8)
    for c in v.clauses:
        np.maximum(vals, np.bitwise_count(masks & np.uint32(c.bits)), out=vals)
    return vals


def split_welfares(va: BXOSValuation, vb: BXOSValuation, zs: np.ndarray) -> np.ndarray:
    """Welfare ``va(Z) + vb(~Z)`` of every split Z given as a uint32 mask in ``zs``."""
    comp = zs ^ np.uint32((1 << va.m) - 1)
    return _family_max(va, zs).astype(np.int64) + _family_max(vb, comp)


def split_masks(m: int) -> Iterator[np.ndarray]:
    """Every split of an ``m``-item universe, as ascending uint32 masks in
    chunks of at most ``_BRUTEFORCE_CHUNK``.

    Guarded to small universes rather than silently truncating.
    """
    if m > _BRUTEFORCE_MAX_M:
        raise ValueError(f"universe of size {m} is too large for enumeration")
    for start in range(0, 1 << m, _BRUTEFORCE_CHUNK):
        yield np.arange(start, min(start + _BRUTEFORCE_CHUNK, 1 << m), dtype=np.uint32)


def opt_bruteforce(va: BXOSValuation, vb: BXOSValuation) -> int:
    """Exact optimum over every split of the universe, independent of the clause-union reduction."""
    if vb.m != va.m:
        raise UniverseMismatch("valuations live over different universes")
    return max(int(split_welfares(va, vb, zs).max()) for zs in split_masks(va.m))


def build_valuations(
    inst: Instance,
) -> tuple[BXOSValuation, BXOSValuation, BXOSValuation, BXOSValuation, BXOSValuation, BXOSValuation]:
    """The two bidder inputs plus the four copy-pinned envelopes.

    The bidder input takes, per index, the clause of the chosen copy.  The
    copy-``j`` envelope takes every clause of both copies except the special
    index's other-copy clause, so it upper-bounds the bidder input whenever
    ``j`` is the special copy; each envelope has ``2n - 1`` clauses.
    """
    n = inst.n
    va = BXOSValuation(tuple(inst.a1[i] if inst.r_a[i] == 1 else inst.a2[i] for i in range(n)))
    vb = BXOSValuation(tuple(inst.b1[i] if inst.r_b[i] == 1 else inst.b2[i] for i in range(n)))

    def envelope(copies: tuple[tuple[ItemSet, ...], tuple[ItemSet, ...]], j: int) -> BXOSValuation:
        clauses = [
            copies[jp - 1][i]
            for jp in (1, 2)
            for i in range(n)
            if not (i == inst.i_star and jp == 3 - j)
        ]
        return BXOSValuation(tuple(clauses))

    a_copies = (inst.a1, inst.a2)
    b_copies = (inst.b1, inst.b2)
    return va, vb, envelope(a_copies, 1), envelope(a_copies, 2), envelope(b_copies, 1), envelope(b_copies, 2)


def eps_fraction(eps: float) -> Fraction:
    """Slack fractions are read from the decimal rendering, so 0.002 means
    exactly 1/500 in every exact comparison and report."""
    return Fraction(str(eps))


def recovery_threshold(m: int, eps: float) -> Fraction:
    return Fraction(179 * m, 240) + eps_fraction(eps) * m


def cross_floors(m: int, eps: float = 0.0) -> tuple[Fraction, Fraction]:
    """Floors ``51 m / 200 - eps m`` and ``61 m / 240 - eps m`` for the
    regular and special cross intersections; at ``eps = 0`` they are the
    exact expectations."""
    slack = eps_fraction(eps) * m
    return Fraction(51 * m, 200) - slack, Fraction(61 * m, 240) - slack


def recover_theta(inst: Instance, z: ItemSet, eps: float) -> ThetaGuess:
    """Read the special copy off an allocation.

    Computes the two envelope welfares of the split (z, ~z) and compares each
    against ``179 m / 240 + eps m`` with strict inequality and exact
    arithmetic.  Returns the copy index if exactly one side clears the bar,
    :data:`RECOVER_NONE` if neither does, :data:`RECOVER_AMBIGUOUS` if both
    do (possible at small universe sizes, where concentration is weak).
    """
    if not 0 <= eps < 0.25:
        raise ValueError(f"eps must lie in [0, 1/4), got {eps}")
    bar = recovery_threshold(inst.m, eps)
    _, _, va1, va2, vb1, vb2 = build_valuations(inst)
    comp = ~z
    above1 = va1.value(z) + vb1.value(comp) > bar
    above2 = va2.value(z) + vb2.value(comp) > bar
    if above1 and above2:
        return RECOVER_AMBIGUOUS
    if above1:
        return 1
    if above2:
        return 2
    return RECOVER_NONE


@dataclass(frozen=True)
class CrossIntersections:
    """All pairwise clause intersections that the concentration bounds cover.

    ``regular`` collects |A^j_i & B^j'_i'| over non-special i, i' and both
    copies on each side; ``special_a`` collects the special first-bidder
    clause of copy j against regular second-bidder clauses of copy 3-j, and
    ``special_b`` symmetrically.
    """

    regular: tuple[int, ...]
    special_a: tuple[int, ...]
    special_b: tuple[int, ...]

    def low_events(self, reg_bar: Fraction, spec_bar: Fraction) -> dict[str, bool]:
        """Flags for the three events of an intersection below its floor."""
        return {
            "regular_low": any(x < reg_bar for x in self.regular),
            "special_a_low": any(x < spec_bar for x in self.special_a),
            "special_b_low": any(x < spec_bar for x in self.special_b),
        }


def cross_intersections(inst: Instance) -> CrossIntersections:
    star = inst.i_star
    others = [i for i in range(inst.n) if i != star]
    a = (inst.a1, inst.a2)
    b = (inst.b1, inst.b2)
    regular = tuple(
        (a[j][i].bits & b[jp][ip].bits).bit_count()
        for i in others
        for ip in others
        for j in (0, 1)
        for jp in (0, 1)
    )
    special_a = tuple(
        (a[j][star].bits & b[1 - j][i].bits).bit_count() for i in others for j in (0, 1)
    )
    special_b = tuple(
        (a[1 - j][i].bits & b[j][star].bits).bit_count() for i in others for j in (0, 1)
    )
    return CrossIntersections(regular, special_a, special_b)
