"""Exact information measures over finitely-supported joint distributions.

Everything is enumerated, nothing is estimated: entropies and mutual
informations come from full marginalization of an explicit probability
table, in bits.  A joint is a float64 ndarray with one axis per named
variable; each axis carries the tuple of value labels its positions stand
for.  Supports are kept tiny, so the dense table stays small and roundoff
stays far below the 1e-9 tolerances used by the identity suite.

Each joint caches its entropies by variable set, as an axis bitmask, and
computes one only when it is first asked for.  Names are checked on every
call, cached or not: a repeated name raises ``ValueError`` and an unknown
one ``KeyError``.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from itertools import product
from numbers import Real
from typing import Callable, Mapping, Sequence

import numpy as np

from .rng import RngStream

TOLERANCE = 1e-9  # largest residual of an identity that still counts as holding

_SUM_TOL = 1e-12


class JointDistribution:
    """A named-variable probability table: axis ``k`` of :attr:`table` is
    variable ``variables[k]`` and position ``j`` on it is value
    ``labels[k][j]``."""

    def __init__(self, variables: Sequence[str], probs: Mapping[tuple, float]) -> None:
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        if any(len(values) != len(variables) for values in probs):
            raise ValueError("support tuple arity does not match variables")
        labels = [tuple(dict.fromkeys(col)) for col in zip(*probs)] if probs else [()] * len(variables)
        codes = [{v: j for j, v in enumerate(axis)} for axis in labels]
        table = np.zeros([len(axis) for axis in labels])
        for values, p in probs.items():
            try:
                q = float(p) if isinstance(p, Real) else math.nan
            except OverflowError:
                raise ValueError("probability too large for a float") from None
            if math.isnan(q):
                raise ValueError(f"probability {p!r} is not a real number")
            if q < -_SUM_TOL:
                raise ValueError(f"negative probability {p}")
            table[tuple(code[v] for code, v in zip(codes, values))] = q
        total = float(table.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self._set(variables, labels, table)

    @classmethod
    def _from_table(
        cls, variables: Sequence[str], labels: Sequence[tuple], table: np.ndarray
    ) -> "JointDistribution":
        d = cls.__new__(cls)
        d._set(tuple(variables), labels, table)
        return d

    def _set(self, variables: tuple[str, ...], labels: Sequence[tuple], table: np.ndarray) -> None:
        self.variables = variables
        self.labels = tuple(labels)
        self.table = table
        self._bits = {v: 1 << a for a, v in enumerate(variables)}
        # The empty set's entropy is 0 exactly, not a sum's roundoff.
        self._entropies: dict[int, float] = {0: 0.0}

    @property
    def probs(self) -> dict[tuple, float]:
        """The positive cells as a ``{value tuple: probability}`` table."""
        positive = self.table > 0.0
        return {
            tuple(axis[j] for axis, j in zip(self.labels, idx)): p
            for idx, p in zip(np.argwhere(positive).tolist(), self.table[positive].tolist())
        }

    def _mask(self, names: Sequence[str]) -> int:
        """The axis bitmask of ``names``: bit ``a`` stands for axis ``a``.  A
        repeated name raises ``ValueError``; failing that, an unknown name
        raises ``KeyError``."""
        try:
            mask = sum(map(self._bits.__getitem__, names))
        except KeyError:
            mask = -1
        # Distinct axis bits sum to a mask with one set bit per name.
        if mask < 0 or mask.bit_count() != len(names):
            names = tuple(names)
            if len(set(names)) != len(names):
                raise ValueError(f"repeated variable in {names}")
            raise KeyError(f"unknown variable in {names}")
        return mask

    def _columns(self, names: Sequence[str]) -> list[int]:
        self._mask(names)
        return [self.variables.index(v) for v in names]

    def _summed(self, cols: list[int]) -> np.ndarray:
        """The marginal table on ``cols``, with its axes in ``cols`` order."""
        keep = sorted(cols)
        table = np.add.reduce(self.table, axis=_dropped_axes(self.table.ndim, sum(1 << c for c in cols)))
        return table.transpose([keep.index(c) for c in cols])

    def marginal(self, names: Sequence[str]) -> "JointDistribution":
        cols = self._columns(names)
        return JointDistribution._from_table(names, [self.labels[c] for c in cols], self._summed(cols))

    def entropy(self, names: Sequence[str] | None = None) -> float:
        """Shannon entropy of the marginal on ``names``, in bits."""
        return self._entropy((1 << self.table.ndim) - 1 if names is None else self._mask(names))

    def _entropy(self, mask: int) -> float:
        h = self._entropies.get(mask)
        if h is None:
            # Axis order does not change an entropy, so the marginal stays untransposed.
            table = np.add.reduce(self.table, axis=_dropped_axes(self.table.ndim, mask))
            p = table[table > 0.0]
            h = self._entropies[mask] = -float(np.dot(p, np.log2(p)))
        return h

    def mutual_information(
        self,
        xs: Sequence[str],
        ys: Sequence[str],
        given: Sequence[str] = (),
    ) -> float:
        """Conditional mutual information I(X; Y | Z) in bits.

        Computed as H(XZ) + H(YZ) - H(XYZ) - H(Z), which makes the symmetry
        in X and Y explicit.  The three groups must be disjoint.
        """
        # One check of all three groups makes them disjoint, so YZ is XYZ without X.
        xyz = self._mask((*xs, *ys, *given))
        x = sum(map(self._bits.__getitem__, xs))
        z = sum(map(self._bits.__getitem__, given))
        return self._entropy(x | z) + self._entropy(xyz ^ x) - self._entropy(xyz) - self._entropy(z)

    def with_derived(
        self, name: str, sources: Sequence[str], func: Callable[..., object]
    ) -> "JointDistribution":
        """Adjoin ``name = func(*values of sources)``, a deterministic function
        of existing variables.  ``func`` is called once per combination of
        source values, in row-major order."""
        if name in self.variables:
            raise ValueError(f"variable {name!r} already exists")
        cols = self._columns(sources)
        outs = [func(*combo) for combo in product(*(self.labels[c] for c in cols))]
        values = tuple(dict.fromkeys(outs))
        code = {v: j for j, v in enumerate(values)}
        codes = np.array([code[v] for v in outs], dtype=np.intp).reshape([len(self.labels[c]) for c in cols])
        shape = [size if a in cols else 1 for a, size in enumerate(self.table.shape)]
        codes = codes.transpose([cols.index(c) for c in sorted(cols)]).reshape(shape)
        table = self.table[..., None] * (codes[..., None] == np.arange(len(values)))
        return JointDistribution._from_table((*self.variables, name), (*self.labels, values), table)


@lru_cache(maxsize=4096)
def _dropped_axes(ndim: int, mask: int) -> tuple[int, ...]:
    """The axes of an ``ndim``-axis table whose bits are clear in ``mask``."""
    return tuple(a for a in range(ndim) if not mask >> a & 1)


def divergences(p: Mapping[object, float], q: Mapping[object, float]) -> tuple[float, float]:
    """(KL divergence in bits, total variation distance) between two plain
    probability tables.  Outcomes missing from one table carry zero mass.
    KL is ``math.inf`` when ``q`` misses mass that ``p`` has; total
    variation is half the L1 distance, which equals the largest advantage of
    ``p`` over ``q`` on any event.
    """
    support = set(p) | set(q)
    kl = 0.0
    l1 = 0.0
    for x in support:
        px = p.get(x, 0.0)
        qx = q.get(x, 0.0)
        l1 += abs(px - qx)
        if px > 0.0:
            if qx <= 0.0:
                kl = math.inf
            elif not math.isinf(kl):
                kl += px * math.log2(px / qx)
    return kl, l1 / 2.0


def random_joint(rng: RngStream, max_support: int = 4) -> JointDistribution:
    """A random joint of the variables w, x, y, z over small supports:
    per-variable support sizes are drawn in [2, max_support] and the cell
    probabilities are normalized uniform draws, laid out in row-major order."""
    names = ("w", "x", "y", "z")
    sizes = [int(s) for s in rng.np.integers(2, max_support + 1, size=len(names))]
    weights = rng.np.random(math.prod(sizes)) + 1e-9
    weights /= weights.sum()
    return JointDistribution._from_table(names, [tuple(range(s)) for s in sizes], weights.reshape(sizes))


def _product_of_marginals(d: JointDistribution, xs: Sequence[str], ys: Sequence[str]) -> JointDistribution:
    px = d.marginal(xs)
    py = d.marginal(ys)
    table = np.multiply.outer(px.table, py.table)
    return JointDistribution._from_table((*xs, *ys), (*px.labels, *py.labels), table)


def _expected_kl_form(d: JointDistribution, x: str, y: str, z: str) -> float:
    """I(X; Y | Z) as the expected divergence of X's conditional laws:
    the sum over (y, z) of p(y, z) KL(P(X | y, z) || P(X | z))."""
    p_xyz = d.marginal((x, y, z)).table
    p_yz = p_xyz.sum(axis=0)
    p_xz = p_xyz.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond_both = p_xyz / p_yz
        cond_z = (p_xz / p_xz.sum(axis=0))[:, None, :]
        terms = np.where(cond_both > 0.0, cond_both * np.log2(cond_both / cond_z), 0.0)
    return float((p_yz * terms.sum(axis=0)).sum())


def _selection_joint(rng: RngStream, n: int, p_one: float, y_size: int) -> JointDistribution:
    """One exact selection construction, the joint of x0..x{n-1}, y, i, f
    and xi.

    X_1..X_n are i.i.d. binary, Y is independent with a random law, I is an
    independent uniform index, F is a random deterministic function of
    (X, Y), and xi is X_I.
    """
    y_weights = rng.np.random(y_size) + 1e-9
    y_weights /= y_weights.sum()
    f_table = {}
    for flat in range(1 << n):
        for yv in range(y_size):
            f_table[(*((flat >> i) & 1 for i in range(n)), yv)] = int(rng.np.integers(0, 2))
    x_names = tuple(f"x{i}" for i in range(n))
    table = np.ones(())
    for law in [(1.0 - p_one, p_one)] * n + [y_weights, np.full(n, 1.0 / n)]:
        table = np.multiply.outer(table, law)
    labels = [(0, 1)] * n + [tuple(range(y_size)), tuple(range(n))]
    d = JointDistribution._from_table((*x_names, "y", "i"), labels, table)
    d = d.with_derived("f", (*x_names, "y"), lambda *key: f_table[key])
    return d.with_derived("xi", (*x_names, "i"), lambda *key: key[key[-1]])


def _index_selection_case(
    rng: RngStream, n: int, p_one: float, y_size: int
) -> tuple[float, float]:
    """Both sides of the averaging inequality on one selection construction:
    (I(X_I; F | Y, I), I(X; F | Y) / n)."""
    d = _selection_joint(rng, n, p_one, y_size)
    x_names = d.variables[:n]
    lhs = d.mutual_information(("xi",), ("f",), ("y", "i"))
    rhs = d.mutual_information(x_names, ("f",), ("y",)) / n
    return lhs, rhs


def verify_identities(trials: int, rng: RngStream) -> dict:
    """Exercise every stated identity and inequality on random joints.

    Returns a report mapping each check to its case count, worst residual or
    violation, the list of failures (empty on success), and the seconds spent
    computing its residuals.  Each residual is charged the time since the
    previous one of its trial, so drawing the random joints is charged to no
    check.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    names = (
        "entropy_bounds", "joint_entropy_subadditive", "mi_nonnegative", "independence_zero_mi", "chain_rule",
        "data_processing", "mi_expected_kl", "pinsker", "pairwise_vs_joint_bound", "index_selection",
    )
    checks: dict[str, dict] = {name: {"cases": 0, "worst": 0.0, "failures": [], "seconds": 0.0} for name in names}

    def record(name: str, residual: float, context: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        entry = checks[name]
        entry["seconds"] += now - mark
        mark = now
        entry["cases"] += 1
        entry["worst"] = max(entry["worst"], residual)
        if residual > TOLERANCE:
            entry["failures"].append({"context": context, "residual": residual})

    for trial in range(trials):
        stream = rng.child(trial)
        d = random_joint(stream)
        w, x, y, z = d.variables
        label = f"trial {trial}"
        mark = time.perf_counter()

        # Entropy range and subadditivity of the joint.
        supp_x = np.count_nonzero(d.marginal((x,)).table)
        hx = d.entropy((x,))
        record("entropy_bounds", max(-hx, hx - math.log2(supp_x)), label)
        record("joint_entropy_subadditive", d.entropy((x, y)) - hx - d.entropy((y,)), label)

        # Non-negativity and the independence characterization.
        record("mi_nonnegative", -d.mutual_information((x,), (y,), (z,)), label)
        indep = _product_of_marginals(d, (w, x), (y, z))
        record("independence_zero_mi", abs(indep.mutual_information((w, x), (y, z))), label)
        # Dependent direction: a perfect copy carries all of X's entropy.
        d_copy = d.with_derived("xcopy", (x,), lambda v: v)
        record("independence_zero_mi", abs(d_copy.mutual_information((x,), ("xcopy",)) - hx), label)

        # Chain rule: I(WX; Y | Z) = I(W; Y | Z) + I(X; Y | WZ).
        lhs = d.mutual_information((w, x), (y,), (z,))
        rhs = d.mutual_information((w,), (y,), (z,)) + d.mutual_information((x,), (y,), (w, z))
        record("chain_rule", abs(lhs - rhs), label)

        # Data processing: I(X; f(Y) | Z) <= I(X; Y | Z).
        fmap = {v: int(stream.np.integers(0, 2)) for (v,) in sorted(d.marginal((y,)).probs)}
        d_f = d.with_derived("fy", (y,), fmap.__getitem__)
        record(
            "data_processing",
            d_f.mutual_information((x,), ("fy",), (z,)) - d_f.mutual_information((x,), (y,), (z,)),
            label,
        )

        # Conditional MI as an expected divergence.
        mi_xy_z = d.mutual_information((x,), (y,), (z,))
        record("mi_expected_kl", abs(mi_xy_z - _expected_kl_form(d, x, y, z)), label)

        # Distance bound on two random laws over a shared support.
        size = int(stream.np.integers(2, 7))
        raw_p = stream.np.random(size) + 1e-9
        raw_q = stream.np.random(size) + 1e-9
        pt = {i: float(v) for i, v in enumerate(raw_p / raw_p.sum())}
        qt = {i: float(v) for i, v in enumerate(raw_q / raw_q.sum())}
        kl, tvd = divergences(pt, qt)
        record("pinsker", tvd - math.sqrt(kl / 2.0), label)
        record("pinsker", -kl, label)

        # max(I(W; X | YZ), I(Y; X | Z)) <= I(W; X | Z) + I(Y; X | WZ).
        bound = d.mutual_information((w,), (x,), (z,)) + d.mutual_information((y,), (x,), (w, z))
        worst = max(d.mutual_information((w,), (x,), (y, z)), d.mutual_information((y,), (x,), (z,)))
        record("pairwise_vs_joint_bound", worst - bound, label)

    # Exact selection constructions for the index-averaging inequality.
    case = 0
    for n in (2, 3):
        for _ in range(max(3, trials // 100)):
            stream = rng.child(10_000_019 + case)
            mark = time.perf_counter()
            p_one = 0.05 + 0.9 * float(stream.np.random())
            lhs, rhs = _index_selection_case(stream, n, p_one, y_size=2)
            record("index_selection", lhs - rhs, f"selection case {case} (n={n})")
            case += 1

    failures = sum(len(entry["failures"]) for entry in checks.values())
    return {"trials": trials, "tolerance": TOLERANCE, "checks": checks, "failures": failures, "passed": failures == 0}
