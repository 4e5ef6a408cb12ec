"""Exact information measures over finitely-supported joint distributions.

Everything is enumerated, nothing is estimated: entropies and mutual
informations come from full marginalization of an explicit probability
table, in bits.  Probabilities are 64-bit floats; supports are kept tiny so
roundoff stays far below the 1e-9 tolerances used by the identity suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .rng import RngStream

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class JointDistribution:
    """A named-variable probability table with full support enumeration."""

    variables: tuple[str, ...]
    probs: dict[tuple, float]

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        total = 0.0
        for values, p in self.probs.items():
            if len(values) != len(self.variables):
                raise ValueError("support tuple arity does not match variables")
            if p < -_SUM_TOL:
                raise ValueError(f"negative probability {p}")
            total += p
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def _columns(self, names: Sequence[str]) -> list[int]:
        try:
            return [self.variables.index(v) for v in names]
        except ValueError as exc:
            raise KeyError(f"unknown variable in {tuple(names)}") from exc

    def marginal(self, names: Sequence[str]) -> "JointDistribution":
        cols = self._columns(names)
        table: dict[tuple, float] = {}
        for values, p in self.probs.items():
            key = tuple(values[c] for c in cols)
            table[key] = table.get(key, 0.0) + p
        return JointDistribution(tuple(names), table)

    def entropy(self, names: Sequence[str] | None = None) -> float:
        """Shannon entropy of the marginal on ``names``, in bits."""
        probs = self.probs if names is None else self.marginal(names).probs
        return -sum(p * math.log2(p) for p in probs.values() if p > 0.0)

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
        groups = (*xs, *ys, *given)
        if len(set(groups)) != len(groups):
            raise ValueError("variable groups must be disjoint")
        self._columns(groups)
        h_xz = self.entropy((*xs, *given))
        h_yz = self.entropy((*ys, *given))
        h_xyz = self.entropy(groups)
        h_z = self.entropy(given) if given else 0.0
        return h_xz + h_yz - h_xyz - h_z

    def with_derived(self, name: str, func: Callable[[Mapping[str, object]], object]) -> "JointDistribution":
        """Adjoin a deterministic function of the existing variables."""
        if name in self.variables:
            raise ValueError(f"variable {name!r} already exists")
        table: dict[tuple, float] = {}
        for values, p in self.probs.items():
            env = dict(zip(self.variables, values))
            key = (*values, func(env))
            table[key] = table.get(key, 0.0) + p
        return JointDistribution((*self.variables, name), table)

    def conditional(self, names: Sequence[str], given: Mapping[str, object]) -> dict[tuple, float]:
        """Distribution of ``names`` given an assignment, as a plain table."""
        cols = self._columns(names)
        given_cols = [(self.variables.index(k), v) for k, v in given.items()]
        table: dict[tuple, float] = {}
        total = 0.0
        for values, p in self.probs.items():
            if all(values[c] == v for c, v in given_cols):
                key = tuple(values[c] for c in cols)
                table[key] = table.get(key, 0.0) + p
                total += p
        if total <= 0.0:
            raise ValueError("conditioning event has probability zero")
        return {k: v / total for k, v in table.items()}


def divergences(p, q) -> tuple[float, float]:
    """(KL divergence in bits, total variation distance) between two laws.

    Accepts plain probability tables or :class:`JointDistribution` operands;
    joints must range over the same variables.  Outcomes missing from one
    table carry zero mass.  KL is ``math.inf`` when ``q`` misses mass that
    ``p`` has; total variation is half the L1 distance, which equals the
    largest advantage of ``p`` over ``q`` on any event.
    """
    if isinstance(p, JointDistribution) or isinstance(q, JointDistribution):
        if not (isinstance(p, JointDistribution) and isinstance(q, JointDistribution)):
            raise ValueError("cannot compare a joint against a bare table")
        if p.variables != q.variables:
            raise ValueError(f"variable mismatch: {p.variables} vs {q.variables}")
        p, q = p.probs, q.probs
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


def random_joint(
    rng: RngStream, names: Sequence[str] = ("w", "x", "y", "z"), max_support: int = 4
) -> JointDistribution:
    """A random joint over small supports: per-variable support sizes are
    drawn in [2, max_support] and the cell probabilities are normalized
    uniform draws."""
    sizes = [int(s) for s in rng.np.integers(2, max_support + 1, size=len(names))]
    cells = 1
    for s in sizes:
        cells *= s
    weights = rng.np.random(cells) + 1e-9
    weights /= weights.sum()
    table: dict[tuple, float] = {}
    idx = [0] * len(sizes)
    for flat in range(cells):
        rem = flat
        for pos in range(len(sizes) - 1, -1, -1):
            idx[pos] = rem % sizes[pos]
            rem //= sizes[pos]
        table[tuple(idx)] = float(weights[flat])
    return JointDistribution(tuple(names), table)


def _product_of_marginals(d: JointDistribution, xs: Sequence[str], ys: Sequence[str]) -> JointDistribution:
    px = d.marginal(xs).probs
    py = d.marginal(ys).probs
    table = {(*kx, *ky): vx * vy for kx, vx in px.items() for ky, vy in py.items()}
    return JointDistribution((*xs, *ys), table)


def _expected_kl_form(d: JointDistribution, x: str, y: str, z: str) -> float:
    """I(X; Y | Z) as the expected divergence of X's conditional laws."""
    yz = d.marginal((y, z)).probs
    total = 0.0
    for (yv, zv), p in yz.items():
        if p <= 0.0:
            continue
        cond_both = d.conditional((x,), {y: yv, z: zv})
        cond_z = d.conditional((x,), {z: zv})
        kl, _ = divergences(cond_both, cond_z)
        total += p * kl
    return total


def _index_selection_case(
    rng: RngStream, n: int, p_one: float, y_size: int
) -> tuple[float, float]:
    """Build one exact selection construction and return both sides of the
    averaging inequality: (I(X_I; F | Y, I), I(X; F | Y) / n).

    X_1..X_n are i.i.d. binary, Y is independent with a random law, I is an
    independent uniform index, and F is a random deterministic function of
    (X, Y).
    """
    y_weights = rng.np.random(y_size) + 1e-9
    y_weights /= y_weights.sum()
    f_table = {}
    for flat in range(1 << n):
        for yv in range(y_size):
            f_table[(flat, yv)] = int(rng.np.integers(0, 2))
    x_names = tuple(f"x{i}" for i in range(n))
    table: dict[tuple, float] = {}
    for flat in range(1 << n):
        xs = tuple((flat >> i) & 1 for i in range(n))
        px = 1.0
        for xv in xs:
            px *= p_one if xv else 1.0 - p_one
        for yv in range(y_size):
            for iv in range(n):
                table[(*xs, yv, iv)] = px * float(y_weights[yv]) / n
    d = JointDistribution((*x_names, "y", "i"), table)
    flat_of = lambda env: sum(env[f"x{i}"] << i for i in range(n))
    d = d.with_derived("f", lambda env: f_table[(flat_of(env), env["y"])])
    d = d.with_derived("xi", lambda env: env[f"x{env['i']}"])
    lhs = d.mutual_information(("xi",), ("f",), ("y", "i"))
    rhs = d.mutual_information(x_names, ("f",), ("y",)) / n
    return lhs, rhs


def verify_identities(trials: int, rng: RngStream, tol: float = 1e-9) -> dict:
    """Exercise every stated identity and inequality on random joints.

    Returns a report mapping each check to its case count, worst residual or
    violation, and the list of failures (empty on success).
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    checks: dict[str, dict] = {
        name: {"cases": 0, "worst": 0.0, "failures": []}
        for name in (
            "entropy_bounds",
            "joint_entropy_subadditive",
            "mi_nonnegative",
            "independence_zero_mi",
            "chain_rule",
            "data_processing",
            "mi_expected_kl",
            "pinsker",
            "pairwise_vs_joint_bound",
            "index_selection",
        )
    }

    def record(name: str, residual: float, context: str) -> None:
        entry = checks[name]
        entry["cases"] += 1
        entry["worst"] = max(entry["worst"], residual)
        if residual > tol:
            entry["failures"].append({"context": context, "residual": residual})

    for trial in range(trials):
        stream = rng.child(trial)
        d = random_joint(stream)
        w, x, y, z = d.variables
        label = f"trial {trial}"

        # Entropy range and subadditivity of the joint.
        supp_x = len(d.marginal((x,)).probs)
        hx = d.entropy((x,))
        record("entropy_bounds", max(-hx, hx - math.log2(supp_x)), label)
        record(
            "joint_entropy_subadditive",
            d.entropy((x, y)) - d.entropy((x,)) - d.entropy((y,)),
            label,
        )

        # Non-negativity and the independence characterization.
        record("mi_nonnegative", -d.mutual_information((x,), (y,), (z,)), label)
        indep = _product_of_marginals(d, (w, x), (y, z))
        record(
            "independence_zero_mi",
            abs(indep.mutual_information((w, x), (y, z))),
            label,
        )
        # Dependent direction: a perfect copy carries all of X's entropy.
        d_copy = d.with_derived("xcopy", lambda env: env[x])
        record(
            "independence_zero_mi",
            abs(d_copy.mutual_information((x,), ("xcopy",)) - hx),
            label,
        )

        # Chain rule: I(WX; Y | Z) = I(W; Y | Z) + I(X; Y | WZ).
        lhs = d.mutual_information((w, x), (y,), (z,))
        rhs = d.mutual_information((w,), (y,), (z,)) + d.mutual_information((x,), (y,), (w, z))
        record("chain_rule", abs(lhs - rhs), label)

        # Data processing: I(X; f(Y) | Z) <= I(X; Y | Z).
        y_values = sorted({values[d.variables.index(y)] for values in d.probs})
        fmap = {v: int(stream.np.integers(0, 2)) for v in y_values}
        d_f = d.with_derived("fy", lambda env: fmap[env[y]])
        record(
            "data_processing",
            d_f.mutual_information((x,), ("fy",), (z,)) - d_f.mutual_information((x,), (y,), (z,)),
            label,
        )

        # Conditional MI as an expected divergence.
        record(
            "mi_expected_kl",
            abs(d.mutual_information((x,), (y,), (z,)) - _expected_kl_form(d, x, y, z)),
            label,
        )

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
        worst = max(
            d.mutual_information((w,), (x,), (y, z)),
            d.mutual_information((y,), (x,), (z,)),
        )
        record("pairwise_vs_joint_bound", worst - bound, label)

    # Exact selection constructions for the index-averaging inequality.
    case = 0
    for n in (2, 3):
        for _ in range(max(3, trials // 100)):
            stream = rng.child(10_000_019 + case)
            p_one = 0.05 + 0.9 * float(stream.np.random())
            lhs, rhs = _index_selection_case(stream, n, p_one, y_size=2)
            record("index_selection", lhs - rhs, f"selection case {case} (n={n})")
            case += 1

    failures = sum(len(entry["failures"]) for entry in checks.values())
    return {"trials": trials, "tolerance": tol, "checks": checks, "failures": failures, "passed": failures == 0}
