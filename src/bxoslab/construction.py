"""Correlated-basis hard instances for two-bidder binary-XOS auctions.

The construction lives on a universe whose size is a multiple of 16.  A
*basis* is a pair of half-size sets with a fixed 4-cell membership profile;
two bases are *compatible* when their joint 16-cell profile matches a fixed
vector.  Clause pairs are drawn per basis with fixed profiles, and exactly
one index hides a *special* clause pair whose two sides, across the two
bidders, cover the whole universe.  All profile vectors scale linearly with
the universe size.

Every profile vector that is not hard-coded below (the clause-pair joint
profile and the 64-cell full profile) is computed from an embedded 16-item
reference configuration rather than typed in, after the hard-coded vectors
are re-derived from it; a mismatch raises.  The samplers' per-cell count
tables are read off those two joint profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Iterable, Literal, Sequence

from .itemsets import ItemSet, UniverseMismatch, _cell_bits, part_cells, part_profile
from .rng import RngStream
from .sampling import _checked_count, _draw

Variant = Literal["nu", "nu_prime"]
VARIANTS = ("nu", "nu_prime")

# Base profile vectors at scale m=16 (one unit per entry equals m/16 items).
_BASIS_BASE = (5, 3, 3, 5)
_CMP_BASE = (4, 1, 0, 0, 0, 1, 2, 0, 1, 0, 1, 1, 0, 1, 0, 4)
_REG_BASE = (2, 1, 2, 3)
_REGPAIR_BASE = (0, 0, 1, 1)
_SPEC1_BASE = (2, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 2)
_SPEC2_BASE = (2, 0, 0, 0, 0, 0, 2, 0, 1, 0, 0, 0, 0, 1, 0, 2)
_SPECPAIR_BASE = (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0)

# 16-item reference configuration: a compatible basis pair plus a special
# clause pair, as 0-indexed item tuples.
REFERENCE_M = 16
_REF_S1 = (0, 1, 2, 6, 8, 9, 10, 11)
_REF_S2 = (3, 4, 5, 6, 8, 9, 10, 11)
_REF_T1 = (1, 2, 3, 4, 8, 9, 10, 11)
_REF_T2 = (1, 5, 6, 7, 8, 9, 10, 11)
_REF_A1 = (0, 2, 5, 6, 8, 9, 14, 15)
_REF_A2 = (0, 3, 4, 6, 10, 11, 12, 13)


class ConstructionError(ValueError):
    """Raised when a profile constraint is violated."""


@dataclass(frozen=True)
class Basis:
    """A pair of half-size sets with the fixed 4-cell membership profile."""

    s1: ItemSet
    s2: ItemSet
    # The four membership-pattern cells of (s1, s2), in pattern order: built
    # once, by the profile check.
    cells: tuple[ItemSet, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.s1, ItemSet) and isinstance(self.s2, ItemSet)):
            raise TypeError("basis halves must be ItemSets")
        if self.s1.m != self.s2.m:
            raise UniverseMismatch("basis halves live over different universes")
        expected = _scaled(_BASIS_BASE, self.m)
        cells = tuple(part_cells(self.m, self.sets()))
        got = tuple(len(c) for c in cells)
        if got != expected:
            raise ConstructionError(f"not a basis: profile {got} != {expected}")
        object.__setattr__(self, "cells", cells)

    @property
    def m(self) -> int:
        return self.s1.m

    @property
    def rev(self) -> "Basis":
        # Swapping the halves swaps the two equal middle entries of the
        # profile, so the reversal is a basis and is built without
        # ``__post_init__``'s check.  It shares this basis's cells instead of
        # holding a copy, and neither refers to the other.
        rev = object.__new__(Basis)
        rev.__dict__.update(s1=self.s2, s2=self.s1, cells=_rev_order(self.cells))
        return rev

    def sets(self) -> tuple[ItemSet, ItemSet]:
        return (self.s1, self.s2)


def _rev_order(x: Sequence) -> tuple:
    # Per-cell entries of a basis in its reversal's cell order: swapping the
    # halves swaps patterns 01 and 10.
    return (x[0], x[2], x[1], x[3])


@dataclass(frozen=True)
class ConstantVectors:
    """All profile vectors of the construction, scaled to a universe size,
    and the samplers' per-cell count tables read off the two joint ones."""

    m: int
    basis: tuple[int, ...]
    cmp: tuple[int, ...]
    reg: tuple[int, ...]
    regpair: tuple[int, ...]
    spec1: tuple[int, ...]
    spec2: tuple[int, ...]
    specpair: tuple[int, ...]
    pair_profile: tuple[int, ...]
    opt_profile: tuple[int, ...]
    # Per 4-cell of a basis: how its items split over the second basis's
    # four membership patterns (00, 01, 10, 11), read off ``cmp``.
    compatible_counts: tuple[tuple[int, ...], ...]
    # Per 4-cell of a basis: joint class counts (both, first only, second
    # only, neither) of a clause pair, read off the (s1, s2, a1, a2) profile.
    clause_pair_counts: tuple[tuple[int, ...], ...]
    # Per 16-cell of a compatible basis pair: joint class counts of a special
    # clause pair, in the same order, read off the 64-cell full profile.
    special_pair_counts: tuple[tuple[int, ...], ...]
    # Per 16-cell of (basis, clause pair): the second basis's membership
    # pattern counts, read off the 64-cell profile, whose indicators
    # (s1, s2, t1, t2, a1, a2), s1 most significant, regroup to (s1, s2, a1, a2, t1, t2).
    second_basis_counts: tuple[tuple[int, ...], ...]


def _scaled(base: Sequence[int], m: int) -> tuple[int, ...]:
    if m % 16 != 0 or m < 16:
        raise ConstructionError(f"universe size must be a positive multiple of 16, got {m}")
    scale = m // 16
    return tuple(v * scale for v in base)


def reference_configuration() -> tuple[Basis, Basis, tuple[ItemSet, ItemSet]]:
    """The embedded 16-item layout: (S, T, special clause pair)."""
    m = REFERENCE_M
    s = Basis(ItemSet.from_indices(m, _REF_S1), ItemSet.from_indices(m, _REF_S2))
    t = Basis(ItemSet.from_indices(m, _REF_T1), ItemSet.from_indices(m, _REF_T2))
    a1 = ItemSet.from_indices(m, _REF_A1)
    a2 = ItemSet.from_indices(m, _REF_A2)
    return s, t, (a1, a2)


@lru_cache(maxsize=None)
def _reference_profiles() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Compute (pair_profile, opt_profile) at m=16 from the reference layout,
    after re-deriving every hard-coded vector from it as a consistency check."""
    m = REFERENCE_M
    s, t, (a1, a2) = reference_configuration()
    st = (*s.sets(), *t.sets())
    checks = {
        "basis": (part_profile(m, s.sets()), _BASIS_BASE),
        "cmp": (part_profile(m, st), _CMP_BASE),
        "reg": (part_profile(m, s.sets(), a1), _REG_BASE),
        "reg_rev": (part_profile(m, s.rev.sets(), a2), _REG_BASE),
        "regpair": (part_profile(m, s.sets(), a1 & a2), _REGPAIR_BASE),
        "spec1": (part_profile(m, st, a1), _SPEC1_BASE),
        "spec2": (part_profile(m, st, a2), _SPEC2_BASE),
        "specpair": (part_profile(m, st, a1 & a2), _SPECPAIR_BASE),
    }
    for name, (got, want) in checks.items():
        if got != tuple(want):
            raise ConstructionError(f"reference configuration violates {name}: {got} != {want}")
    pair = part_profile(m, (*s.sets(), a1, a2))
    opt = part_profile(m, (*st, a1, a2))
    return pair, opt


@lru_cache(maxsize=None)
def constant_vectors(m: int) -> ConstantVectors:
    """All profile vectors scaled to universe size ``m``, an int that 16 divides."""
    m = index(m)
    pair16, opt16 = _reference_profiles()
    cmp, pair, opt = _scaled(_CMP_BASE, m), _scaled(pair16, m), _scaled(opt16, m)
    return ConstantVectors(
        m=m,
        basis=_scaled(_BASIS_BASE, m),
        cmp=cmp,
        reg=_scaled(_REG_BASE, m),
        regpair=_scaled(_REGPAIR_BASE, m),
        spec1=_scaled(_SPEC1_BASE, m),
        spec2=_scaled(_SPEC2_BASE, m),
        specpair=_scaled(_SPECPAIR_BASE, m),
        pair_profile=pair,
        opt_profile=opt,
        compatible_counts=_blocks(cmp),
        clause_pair_counts=_blocks(pair, reverse=True),
        special_pair_counts=_blocks(opt, reverse=True),
        second_basis_counts=_blocks([opt[16 * s + 4 * t + a] for s in range(4) for a in range(4) for t in range(4)]),
    )


def _blocks(profile: Sequence[int], reverse: bool = False) -> tuple[tuple[int, ...], ...]:
    # Rows of 4 counts, one per cell of the leading indicators, over the last
    # two indicators in pattern order (00, 01, 10, 11); ``reverse`` gives the
    # pair samplers' class order (both, first only, second only, neither).
    step = -1 if reverse else 1
    return tuple(tuple(profile[i : i + 4][::step]) for i in range(0, len(profile), 4))


# The samplers below skip refine_masks's entry check and draw with its engine,
# sampling._draw, from partitions built and size-checked here; sample_instance
# validates what they drew.  They build only the sets they keep, unions of the
# class masks, so ItemSet._new's condition holds; Basis checks its own profile.


def _basis_from_pattern_classes(m: int, classes: Sequence[int]) -> Basis:
    # Class masks arrive in pattern order (00, 01, 10, 11) for (first, second).
    return Basis(ItemSet._new(m, classes[2] | classes[3]), ItemSet._new(m, classes[1] | classes[3]))


def sample_basis(m: int, rng: RngStream) -> Basis:
    """Uniform draw over all bases."""
    classes = _draw((constant_vectors(m).basis,), [(1 << m) - 1], rng, 1)[0]
    return _basis_from_pattern_classes(m, classes)


def sample_compatible(base: Basis, rng: RngStream) -> Basis:
    """Uniform draw over bases the given basis is compatible with."""
    classes = _draw(constant_vectors(base.m).compatible_counts, [c.bits for c in base.cells], rng, 1)[0]
    return _basis_from_pattern_classes(base.m, classes)


def _pair_from_joint_classes(m: int, classes: Sequence[int]) -> tuple[ItemSet, ItemSet]:
    # Class masks arrive as (both, first only, second only, neither).
    return (ItemSet._new(m, classes[0] | classes[1]), ItemSet._new(m, classes[0] | classes[2]))


def sample_clause_pairs(base: Basis, rng: RngStream, count: int) -> list[tuple[ItemSet, ItemSet]]:
    """``count`` independent uniform clause pairs with respect to the basis,
    drawn as one batch of the mask engine behind ``refine_masks`` (whose
    docstring gives the order); each pair is built from its row's masks.

    The first component of each pair is a clause with respect to the basis,
    the second with respect to its reversal, and their overlap profile is
    fixed.
    """
    count = _checked_count(count, "count")
    m = base.m
    rows = _draw(constant_vectors(m).clause_pair_counts, [c.bits for c in base.cells], rng, count)
    return [_pair_from_joint_classes(m, classes) for classes in rows]


def sample_clause_pair(base: Basis, rng: RngStream) -> tuple[ItemSet, ItemSet]:
    """Uniform draw over clause pairs with respect to the basis."""
    return sample_clause_pairs(base, rng, 1)[0]


def sample_special_pair(s: Basis, t: Basis, rng: RngStream) -> tuple[ItemSet, ItemSet]:
    """Uniform draw over special clause pairs for a compatible basis pair."""
    m = s.m
    classes = _draw(constant_vectors(m).special_pair_counts, _compatible_cells(s, t), rng, 1)[0]
    return _pair_from_joint_classes(m, classes)


def sample_second_basis(s: Basis, a1: ItemSet, a2: ItemSet, rng: RngStream) -> Basis:
    """Uniform draw over bases whose joint 64-cell profile with (s, a1, a2)
    equals the full profile, i.e. those making the given clause pair special."""
    m = s.m
    if not _are_clause_pairs([c.bits for c in s.cells], [_bits(m, a1)], [_bits(m, a2)], constant_vectors(m))[0]:
        raise ConstructionError("sets do not form a clause pair for this basis")
    cells = [z for c in s.cells for z in _cell_bits(m, (a1, a2), c.bits)]
    classes = _draw(constant_vectors(m).second_basis_counts, cells, rng, 1)[0]
    return _basis_from_pattern_classes(m, classes)


def _table(cells: Sequence[int], masks: Iterable[int]) -> list[tuple[int, ...]]:
    # The one count kernel, behind the predicates below, Instance.validate and
    # the basis-exchange bidder: per mask, its items in each cell mask.  Masks
    # are read once, in order, so a generator keeps one m-bit temporary.
    count = int.bit_count
    return [tuple([count(c & x) for c in cells]) for x in masks]


def _bits(m: int, a: ItemSet) -> int:
    # The mask of a set that must live over the universe of size m.
    if a.m != m:
        raise UniverseMismatch(f"set width {a.m} does not match universe {m}")
    return a.bits


def _joint_cells(s: Basis, t: Basis) -> list[int]:
    # The one 16-cell partition of a basis pair: the cell masks of
    # (s1, s2, t1, t2), in part_cells order, cut from both bases' cells.
    if s.m != t.m:
        raise UniverseMismatch(f"basis widths differ: {s.m} != {t.m}")
    return [cs.bits & ct.bits for cs in s.cells for ct in t.cells]


# One test per pair invariant, shared by the predicates below and
# Instance.validate; ``joint`` holds the 16 joint cell masks of (s, t), and
# ``cells`` the 4 of the basis whose clause pairs are tested.
def _is_compatible(joint: Sequence[int], vec: ConstantVectors) -> bool:
    return _table(joint, (-1,))[0] == vec.cmp


def _are_clause_pairs(cells: Sequence[int], firsts: Sequence[int], seconds: Sequence[int], vec: ConstantVectors) -> list[bool]:
    both = (x & y for x, y in zip(firsts, seconds))
    profiles = zip(_table(cells, firsts), _table(_rev_order(cells), seconds), _table(cells, both))
    return [got == (vec.reg, vec.reg, vec.regpair) for got in profiles]


def _is_special(joint: Sequence[int], x: int, y: int, vec: ConstantVectors) -> bool:
    return _table(joint, (x, y, x & y)) == [vec.spec1, vec.spec2, vec.specpair]


def _compatible_cells(s: Basis, t: Basis) -> list[int]:
    # The 16 joint cell masks of a pair that must be compatible.
    cells = _joint_cells(s, t)
    if not _is_compatible(cells, constant_vectors(s.m)):
        raise ConstructionError("first basis is not compatible with the second")
    return cells


def is_compatible(s: Basis, t: Basis) -> bool:
    """True iff the joint 16-cell profile matches; not symmetric in (s, t)."""
    return _is_compatible(_joint_cells(s, t), constant_vectors(s.m))


def is_clause(a: ItemSet, base: Basis) -> bool:
    return _table([c.bits for c in base.cells], (_bits(base.m, a),))[0] == constant_vectors(base.m).reg


def is_clause_pair(a1: ItemSet, a2: ItemSet, base: Basis) -> bool:
    m, cells = base.m, [c.bits for c in base.cells]
    return _are_clause_pairs(cells, [_bits(m, a1)], [_bits(m, a2)], constant_vectors(m))[0]


def is_special_pair(a1: ItemSet, a2: ItemSet, s: Basis, t: Basis) -> bool:
    return _is_special(_joint_cells(s, t), _bits(s.m, a1), _bits(s.m, a2), constant_vectors(s.m))


@dataclass(frozen=True)
class Instance:
    """One sampled two-bidder input: bases, clause-pair sequences, the hidden
    special index, and the per-index copy choices."""

    m: int
    n: int
    variant: str
    s: Basis
    t: Basis
    i_star: int  # 0-based internally; serialized 1-based
    a1: tuple[ItemSet, ...]
    a2: tuple[ItemSet, ...]
    b1: tuple[ItemSet, ...]
    b2: tuple[ItemSet, ...]
    theta: int
    r_a: tuple[int, ...]
    r_b: tuple[int, ...]
    seed: int = 0

    def validate(self) -> None:
        """Re-check every structural invariant; raises on the first failure."""
        if self.variant not in VARIANTS:
            raise ConstructionError(f"unknown variant {self.variant!r}")
        if self.n < 1:
            raise ConstructionError("at least one clause index is required")
        if not 0 <= self.i_star < self.n:
            raise ConstructionError("special index out of range")
        if self.theta not in (1, 2):
            raise ConstructionError("theta must be 1 or 2")
        for name, seq in (("a1", self.a1), ("a2", self.a2), ("b1", self.b1), ("b2", self.b2)):
            if len(seq) != self.n:
                raise ConstructionError(f"{name} has {len(seq)} entries, expected {self.n}")
            for x in seq:
                if x.m != self.m:
                    raise UniverseMismatch(f"{name} entry width {x.m} != {self.m}")
        for name, seq in (("r_a", self.r_a), ("r_b", self.r_b)):
            if len(seq) != self.n or any(r not in (1, 2) for r in seq):
                raise ConstructionError(f"{name} must be {self.n} values in {{1, 2}}")
        if self.r_a[self.i_star] != self.theta or self.r_b[self.i_star] != self.theta:
            raise ConstructionError("copy choice at the special index must equal theta")
        joint = _compatible_cells(self.s, self.t)
        vec = constant_vectors(self.s.m)
        if self.s.m != self.m:
            raise UniverseMismatch(f"bases have width {self.s.m} != {self.m}")
        # Clause sizes need no check: reg, spec1 and spec2 each sum to 8 per 16
        # items, and the special b1 and b2 are complements of clauses so checked.
        # Every regular pair of both bidders is tested first; the checks
        # then fail at the lowest index, the first bidder first.
        regular = [i for i in range(self.n) if i != self.i_star]
        a1, a2, b1, b2 = ([seq[i].bits for i in regular] for seq in (self.a1, self.a2, self.b1, self.b2))
        first = _are_clause_pairs([c.bits for c in self.s.cells], a1, a2, vec)
        second = _are_clause_pairs(_rev_order([c.bits for c in self.t.cells]), b2, b1, vec)
        for i, ok_a, ok_b in zip(regular, first, second):
            if not ok_a:
                raise ConstructionError(f"index {i}: not a clause pair for the first bidder")
            if not ok_b:
                raise ConstructionError(f"index {i}: not a clause pair for the second bidder")
        i = self.i_star
        if not _is_special(joint, self.a1[i].bits, self.a2[i].bits, vec):
            raise ConstructionError("special index does not hold a special pair")
        if self.b1[i] != ~self.a1[i] or self.b2[i] != ~self.a2[i]:
            raise ConstructionError("special-index second-bidder clauses must be complements")


def sample_instance(m: int, n: int, variant: Variant, rng: RngStream) -> Instance:
    """Draw one full instance.

    ``variant="nu"`` samples the compatible basis pair first and plants the
    special pair at a uniform index.  ``variant="nu_prime"`` draws every
    clause pair first and then the second basis conditioned on the full
    profile at the special index; the two procedures generate identical
    distributions.  The copy choices come last, as one draw of ``2 * n + 1``
    values in {1, 2}: theta, then r_a, then r_b, whose entries at the
    special index then take theta's value.
    """
    if n < 1:
        raise ConstructionError("at least one clause index is required")
    if variant not in VARIANTS:
        raise ConstructionError(f"unknown variant {variant!r}")

    s = sample_basis(m, rng)
    if variant == "nu":
        t = sample_compatible(s, rng)
        i_star = int(rng.np.integers(n))
        a = sample_clause_pairs(s, rng, n - 1)
        a.insert(i_star, sample_special_pair(s, t, rng))
    else:
        a = sample_clause_pairs(s, rng, n)
        i_star = int(rng.np.integers(n))
        t = sample_second_basis(s, *a[i_star], rng)
    a1, a2 = zip(*a)
    # The second bidder's regular pairs are (b2, b1) clause pairs of t.rev.
    b = sample_clause_pairs(t.rev, rng, n - 1)
    b.insert(i_star, (~a2[i_star], ~a1[i_star]))
    b2, b1 = zip(*b)

    theta, *r = rng.np.integers(1, 3, size=2 * n + 1).tolist()
    r_a, r_b = r[:n], r[n:]
    r_a[i_star] = theta
    r_b[i_star] = theta

    inst = Instance(
        m=m,
        n=n,
        variant=variant,
        s=s,
        t=t,
        i_star=i_star,
        a1=a1,
        a2=a2,
        b1=b1,
        b2=b2,
        theta=theta,
        r_a=tuple(r_a),
        r_b=tuple(r_b),
        seed=rng.seed,
    )
    inst.validate()
    return inst


def reference_instance() -> Instance:
    """A single-index instance with special copy 1, from the embedded 16-item layout."""
    s, t, (a1, a2) = reference_configuration()
    return Instance(
        m=REFERENCE_M,
        n=1,
        variant="nu",
        s=s,
        t=t,
        i_star=0,
        a1=(a1,),
        a2=(a2,),
        b1=(~a1,),
        b2=(~a2,),
        theta=1,
        r_a=(1,),
        r_b=(1,),
    )


def generalized_deltas(u, v) -> tuple[Fraction, Fraction, Fraction]:
    """Exact intersection fractions for block sizes (u, v), per unit of m.

    Returns (single-copy regular/regular, two-copy regular cross,
    special/regular cross).  The first applies to the one-basis layout with
    two blocks of ``u`` items and four of ``v``; the other two apply to the
    correlated two-basis layout with eight ``u``-blocks and four ``v``-blocks.
    """
    u = Fraction(u)
    v = Fraction(v)
    if u <= 0 or v <= 0:
        raise ValueError("block sizes must be positive")
    single = (2 * v**3 + 2 * u**2 * v + 3 * u * v**2) / (u + 2 * v) ** 3
    cross = (5 * u**2 * v + u**3 + 6 * u * v**2 + 2 * v**3) / (
        2 * (u + 2 * v) ** 2 * (2 * u + v)
    )
    special = (16 * u * v + 5 * u**2 + 6 * v**2) / (12 * (u + 2 * v) * (2 * u + v))
    return single, cross, special


def optimal_block_ratio() -> float:
    """Numerically locate the ratio v/u maximizing min(cross, special) of
    :func:`generalized_deltas` (bounded Brent search over [0.2, 10])."""
    # scipy.optimize costs about 0.6 s to load; no verb calls this, so `import bxoslab` skips it.
    from scipy.optimize import minimize_scalar
    result = minimize_scalar(
        lambda r: -float(min(generalized_deltas(1, r)[1:])),
        bounds=(0.2, 10.0),
        method="bounded",
        options={"xatol": 1e-9},
    )
    return float(result.x)
