"""Experiment drivers, instance serialization, and machine-readable reports.

Each sampling driver runs one loop, :func:`_trials`: trial k draws its
instance from child k of one (seed, stream base) stream, so a rerun with the
same configuration reproduces the same report.  Reports embed the exact
rational constants they test against (as "p/q" strings) next to the measured
values; wall-clock runtimes are recorded per check but excluded from the
canonical byte form used to compare reruns.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path
from statistics import mean
from typing import Callable, Optional

import numpy as np

from .construction import (
    REFERENCE_M,
    Basis,
    ConstructionError,
    Instance,
    VARIANTS,
    constant_vectors,
    reference_configuration,
    sample_instance,
)
from .itemsets import ItemSet, part_cells
from .infotheory import verify_identities
from .protocols import PROTOCOL_NAMES, run_on_instance
from .rng import RngStream
from .sampling import PartitionParameter, expected_intersection
from .stats import independence_chi2, two_sample_chi2, uniform_chi2
from .valuations import (
    RECOVER_AMBIGUOUS,
    RECOVER_NONE,
    build_valuations,
    cross_floors,
    cross_intersections,
    opt_clause_pair,
    oracle_allocation,
    recover_theta,
    recovery_threshold,
    split_masks,
    split_welfares,
)

SIGNIFICANCE = 0.001

# Stream-id bases keep the draw sequences of different drivers disjoint.
_STREAM_CONCENTRATION = 1 << 20
_STREAM_THETA = 2 << 20
_STREAM_NU = 3 << 20
_STREAM_NU_PRIME = 4 << 20
_STREAM_PROTOCOL = 5 << 20
_STREAM_GEN = 6 << 20

# Upper bound on m * n.  One trial's tracemalloc peak measured at most about
# 8.1 bytes per item over `verify concentration`, `verify theta`, `run
# --protocol basis-exchange` and `gen` (m = 1.6M with n = 1, 4 and 8;
# m = 400000 with n = 16; m = 2**25 with n = 1, which peaked at 260.3 MiB).
# The largest size in use, m = 1.6M with n = 4, is 6.4M items.
MAX_ITEMS = 2**25


class ConfigError(ValueError):
    """Raised for configurations outside the supported parameter ranges."""


@dataclass(frozen=True)
class ExperimentConfig:
    m: int
    n: int = 4
    eps: float = 0.002
    trials: int = 1
    seed: int = 0
    variant: str = "nu"
    protocol: Optional[str] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in ("m", "n", "trials", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if not isinstance(self.eps, float):
            raise ConfigError(f"eps must be a float, got {self.eps!r}")
        if self.m < 16 or self.m % 16 != 0:
            raise ConfigError(f"m must be a positive multiple of 16, got {self.m}")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.m * self.n > MAX_ITEMS:
            raise ConfigError(f"m * n = {self.m * self.n} exceeds the budget of {MAX_ITEMS} items")
        if not 0 < self.eps < 0.25:
            raise ConfigError(f"eps must lie in (0, 1/4), got {self.eps}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.protocol is not None and self.protocol not in PROTOCOL_NAMES:
            raise ConfigError(f"unknown protocol {self.protocol!r}; known: {', '.join(PROTOCOL_NAMES)}")


def frac_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def new_report(kind: str, cfg: ExperimentConfig) -> dict:
    return {"kind": kind, "config": asdict(cfg), "checks": [], "passed": True}


def add_check(
    report: dict,
    name: str,
    passed: Optional[bool],
    measured: dict,
    thresholds: Optional[dict] = None,
    runtime_s: Optional[float] = None,
) -> None:
    """Append a check whose verdict is ``passed``, or ``None`` for a check
    that only reports; a failed check fails the report."""
    status = "info" if passed is None else "pass" if passed else "fail"
    report["checks"].append(
        {
            "name": name,
            "status": status,
            "measured": measured,
            "thresholds": thresholds or {},
            "runtime_s": runtime_s,
        }
    )
    if status == "fail":
        report["passed"] = False


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2)


def canonical_report_bytes(report: dict) -> bytes:
    """The report without per-check runtimes: identical across reruns with the same seed."""
    checks = [{k: v for k, v in check.items() if k != "runtime_s"} for check in report["checks"]]
    return report_to_json({**report, "checks": checks}).encode()


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(report_to_json(report) + "\n")


# ---------------------------------------------------------------------------
# Instance serialization.
# ---------------------------------------------------------------------------


def instance_to_json(inst: Instance) -> dict:
    """Schema: items are 0-indexed, hex is little-endian lowercase (item 0 is
    the least significant bit of the first byte), i_star is 1-based."""
    return {
        "m": inst.m,
        "n": inst.n,
        "variant": inst.variant,
        "theta": inst.theta,
        "i_star": inst.i_star + 1,
        "S": [inst.s.s1.to_hex(), inst.s.s2.to_hex()],
        "T": [inst.t.s1.to_hex(), inst.t.s2.to_hex()],
        "A1": [x.to_hex() for x in inst.a1],
        "A2": [x.to_hex() for x in inst.a2],
        "B1": [x.to_hex() for x in inst.b1],
        "B2": [x.to_hex() for x in inst.b2],
        "rA": list(inst.r_a),
        "rB": list(inst.r_b),
        "seed": inst.seed,
    }


def _int_field(value, name: str) -> int:
    # Exact type: a float would be truncated, and JSON true/false is a bool.
    if type(value) is not int:
        raise ConstructionError(f"{name} must be an integer, got {value!r}")
    return value


def _int_list_field(value, name: str) -> tuple[int, ...]:
    if type(value) is not list or any(type(v) is not int for v in value):
        raise ConstructionError(f"{name} must be a list of integers, got {value!r}")
    return tuple(value)


def instance_from_json(data: dict) -> Instance:
    """Parse and re-validate; rejects any invariant violation."""
    try:
        m = _int_field(data["m"], "m")
        n = _int_field(data["n"], "n")
        sets = {
            key: tuple(ItemSet.from_hex(m, h) for h in data[key]) for key in ("S", "T", "A1", "A2", "B1", "B2")
        }
        inst = Instance(
            m=m,
            n=n,
            variant=data["variant"],
            s=Basis(*sets["S"]),
            t=Basis(*sets["T"]),
            i_star=_int_field(data["i_star"], "i_star") - 1,
            a1=sets["A1"],
            a2=sets["A2"],
            b1=sets["B1"],
            b2=sets["B2"],
            theta=_int_field(data["theta"], "theta"),
            r_a=_int_list_field(data["rA"], "rA"),
            r_b=_int_list_field(data["rB"], "rB"),
            seed=_int_field(data.get("seed", 0), "seed"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConstructionError(f"malformed instance payload: {exc}") from exc
    inst.validate()
    return inst


def dump_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_json(inst), indent=2) + "\n")


def load_instance(path: str | Path) -> Instance:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ConstructionError("malformed instance payload: JSON nested too deeply") from exc
    return instance_from_json(data)


def generate_instance(cfg: ExperimentConfig) -> Instance:
    rng = RngStream(cfg.seed, _STREAM_GEN)
    return sample_instance(cfg.m, cfg.n, cfg.variant, rng)


# ---------------------------------------------------------------------------
# Verification drivers.
# ---------------------------------------------------------------------------


def _trials(cfg: ExperimentConfig, base: int, measure: Callable[[Instance, RngStream], object]) -> tuple[list, float]:
    """The one sampling loop: trial k draws its instance from
    ``RngStream(cfg.seed, base).child(k)``, then ``measure(inst, stream)``
    reads it with the stream positioned after the draw.

    Returns the measurements in trial order and the seconds the loop took.
    A measurement holds only the few values its report needs, so no instance
    outlives its trial.
    """
    rng = RngStream(cfg.seed, base)
    results = []
    t0 = time.perf_counter()
    for k in range(cfg.trials):
        stream = rng.child(k)
        results.append(measure(sample_instance(cfg.m, cfg.n, cfg.variant, stream), stream))
    return results, time.perf_counter() - t0


def _exact_delta_table(m: int) -> tuple[dict, bool]:
    """Exact expected cross intersections of a compatible pair at universe
    size ``m``, which draws nothing.

    All four regular combinations and both special combinations are computed
    by the double-sum formula on the embedded 16-item layout
    (:func:`reference_configuration`), scaled by ``m / 16``, and compared
    against the golden rationals 51m/200 and 61m/240.  Every cell size and
    count of a compatible pair at ``m`` is ``m / 16`` times the layout's, so
    each term ``p p' |P & P'| / (|P| |P'|)`` and the sums scale by ``m / 16``.
    """
    # An m that 16 does not divide raises here, as a draw at m would.
    constant_vectors(m)
    scale = Fraction(m, REFERENCE_M)
    vec = constant_vectors(REFERENCE_M)
    s, t, _ = reference_configuration()
    joint_cells = tuple(part_cells(REFERENCE_M, (*s.sets(), *t.sets())))

    def clause_param(basis: Basis) -> PartitionParameter:
        return PartitionParameter(basis.cells, vec.reg)

    def special_param(profile: tuple[int, ...]) -> PartitionParameter:
        return PartitionParameter(joint_cells, profile)

    a_side = {1: clause_param(s), 2: clause_param(s.rev)}
    b_side = {1: clause_param(t), 2: clause_param(t.rev)}
    golden_reg, golden_spec = cross_floors(m)
    regular = {
        f"regular_{i}{j}": scale * expected_intersection(a_side[i], b_side[j])
        for i in (1, 2)
        for j in (1, 2)
    }
    special = {
        "special_1": scale * expected_intersection(special_param(vec.spec1), b_side[2]),
        "special_2": scale * expected_intersection(special_param(vec.spec2), b_side[1]),
    }
    ok = all(v == golden_reg for v in regular.values()) and all(
        v == golden_spec for v in special.values()
    )
    measured = {k: frac_str(v) for k, v in {**regular, **special}.items()}
    measured["golden_regular"] = frac_str(golden_reg)
    measured["golden_special"] = frac_str(golden_spec)
    return measured, ok


def verify_concentration(cfg: ExperimentConfig) -> dict:
    """Sample instances and compare every cross intersection against the
    exact expectations minus the eps*m slack; also tallies how often any of
    the three low-intersection events occurs."""
    report = new_report("concentration", cfg)
    m = cfg.m

    t0 = time.perf_counter()
    delta_measured, delta_ok = _exact_delta_table(m)
    add_check(
        report,
        "exact_expected_intersections",
        delta_ok,
        delta_measured,
        {"regular": delta_measured["golden_regular"], "special": delta_measured["golden_special"]},
        time.perf_counter() - t0,
    )

    reg_bar, spec_bar = cross_floors(m, cfg.eps)
    crosses, runtime = _trials(cfg, _STREAM_CONCENTRATION, lambda inst, _stream: cross_intersections(inst))
    regular_all = [x for c in crosses for x in c.regular]
    special_all = [x for c in crosses for x in (*c.special_a, *c.special_b)]
    event_count = sum(any(c.low_events(reg_bar, spec_bar).values()) for c in crosses)

    measured = {
        "instances": cfg.trials,
        "regular_count": len(regular_all),
        "regular_min": min(regular_all, default=None),
        "regular_mean": mean(regular_all) if regular_all else None,
        "special_count": len(special_all),
        "special_min": min(special_all, default=None),
        "special_mean": mean(special_all) if special_all else None,
        "instances_with_low_event": event_count,
    }
    thresholds = {
        "regular_floor": frac_str(reg_bar),
        "special_floor": frac_str(spec_bar),
        "eps": cfg.eps,
    }
    # Every intersection clears its floor exactly when no instance has a low
    # event; a single index has no regular/special cross pairs to test.
    passed = event_count == 0 if cfg.n >= 2 else None
    add_check(report, "cross_intersection_floors", passed, measured, thresholds, runtime)
    return report


def verify_theta_recovery(cfg: ExperimentConfig) -> dict:
    """Check that the optimum is the full universe on every instance and that
    the special copy is read correctly off an optimal allocation."""
    report = new_report("theta_recovery", cfg)
    m = cfg.m

    def measure(inst: Instance, _stream: RngStream) -> tuple[bool, int | str, Optional[int]]:
        va, vb, *_ = build_valuations(inst)
        _, _, value = opt_clause_pair(va, vb)
        guess = recover_theta(inst, oracle_allocation(va, vb).to_alice, cfg.eps)
        outcome = "recovered" if guess == inst.theta else guess
        return value != m, outcome, _count_both_good(inst, cfg.eps) if m == 16 else None

    results, runtime = _trials(cfg, _STREAM_THETA, measure)
    opt_bad = sum(bad for bad, _, _ in results)
    tally = {"recovered": 0, "wrong": 0, RECOVER_NONE: 0, RECOVER_AMBIGUOUS: 0}
    for _, outcome, _ in results:
        tally[outcome if outcome in tally else "wrong"] += 1  # a wrong guess is the other copy's index
    both_good_counts = [count for _, _, count in results if count is not None]

    add_check(
        report,
        "optimum_is_full_universe",
        opt_bad == 0,
        {"instances": cfg.trials, "optimum_not_m": opt_bad},
        {"optimum": m},
        runtime,
    )
    add_check(
        report,
        "theta_recovered_from_optimal_allocation",
        tally["recovered"] == cfg.trials,
        dict(tally),
        {"bar": frac_str(recovery_threshold(m, cfg.eps)), "eps": cfg.eps},
        runtime,
    )
    if both_good_counts:
        add_check(
            report,
            "exhaustive_splits_clearing_both_bars",
            None,
            {
                "instances": len(both_good_counts),
                "splits_total": 1 << m,
                "counts": both_good_counts,
                "frequency": sum(both_good_counts) / (len(both_good_counts) * (1 << m)),
            },
            {"bar": frac_str(recovery_threshold(m, cfg.eps))},
        )
    return report


def _count_both_good(inst: Instance, eps: float) -> int:
    """Exhaustively count splits whose welfare clears the recovery bar under
    both copy envelopes at once (small universes only)."""
    _, _, va1, va2, vb1, vb2 = build_valuations(inst)
    bar = recovery_threshold(inst.m, eps)
    min_clearing = bar.__floor__() + 1  # welfares are integers; q > bar iff q >= this
    count = 0
    for zs in split_masks(inst.m):
        q1 = split_welfares(va1, vb1, zs)
        q2 = split_welfares(va2, vb2, zs)
        count += int(np.count_nonzero((q1 >= min_clearing) & (q2 >= min_clearing)))
    return count


def _instance_statistics(inst: Instance) -> dict:
    """Summary statistics whose law must agree across the two sampling
    procedures; all are plain functions of the instance tuple."""
    star = inst.i_star
    other = 1 if star != 1 else 0
    digest = hashlib.sha256()
    for x in (inst.s.s1, inst.s.s2, *inst.a1, *inst.a2):
        digest.update(x.to_hex().encode())
    return {
        "regular_cross_11": inst.a1[0].intersection_size(inst.b1[1]),
        "regular_cross_12": inst.a1[0].intersection_size(inst.b2[1]),
        "regular_a_overlap": inst.a1[0].intersection_size(inst.a2[1]),
        "special_cross": inst.a1[star].intersection_size(inst.b2[other]),
        "i_star": star,
        "a_side_bin": digest.digest()[0] % 16,
    }


def verify_nu_equivalence(cfg: ExperimentConfig) -> dict:
    """Two-sample tests between the two sampling procedures plus uniformity
    and independence tests on the special index within each procedure.

    The statistic set is a documented choice, not an exhaustive one; the
    Bonferroni correction spans all tests in this report.
    """
    if cfg.n < 2:
        raise ConfigError("the equivalence statistics need at least two clause indices")
    report = new_report("nu_equivalence", cfg)
    samples: dict[str, list[dict]] = {}
    runtime = 0.0
    for variant, base in (("nu", _STREAM_NU), ("nu_prime", _STREAM_NU_PRIME)):
        samples[variant], seconds = _trials(
            replace(cfg, variant=variant), base, lambda inst, _stream: _instance_statistics(inst)
        )
        runtime += seconds

    stat_names = ("regular_cross_11", "regular_cross_12", "regular_a_overlap", "special_cross", "i_star")
    tests: list[tuple[str, float]] = []
    for name in stat_names:
        _, _, p = two_sample_chi2(
            [s[name] for s in samples["nu"]], [s[name] for s in samples["nu_prime"]]
        )
        tests.append((f"two_sample:{name}", p))
    for variant in VARIANTS:
        counts = [0] * cfg.n
        for s in samples[variant]:
            counts[s["i_star"]] += 1
        _, _, p = uniform_chi2(counts)
        tests.append((f"i_star_uniform:{variant}", p))
        table = [[0] * 16 for _ in range(cfg.n)]
        for s in samples[variant]:
            table[s["i_star"]][s["a_side_bin"]] += 1
        _, _, p = independence_chi2(table)
        tests.append((f"i_star_independent:{variant}", p))

    alpha = SIGNIFICANCE / len(tests)
    rejected = [name for name, p in tests if p < alpha]
    add_check(
        report,
        "distribution_equivalence",
        not rejected,
        {
            "samples_per_variant": cfg.trials,
            "p_values": {name: p for name, p in tests},
            "rejected": rejected,
        },
        {"significance": SIGNIFICANCE, "bonferroni_alpha": alpha, "tests": len(tests)},
        runtime,
    )
    return report


def verify_info(cfg: ExperimentConfig) -> dict:
    """Run the information-measure identity suite as a report."""
    report = new_report("info", cfg)
    result = verify_identities(cfg.trials, RngStream(cfg.seed, 0))
    for name, entry in result["checks"].items():
        add_check(
            report,
            name,
            not entry["failures"],
            {"cases": entry["cases"], "worst": entry["worst"], "failures": entry["failures"]},
            {"tolerance": result["tolerance"]},
            entry["seconds"],
        )
    return report


def run_protocol_experiment(cfg: ExperimentConfig) -> dict:
    """Execute a registered protocol over sampled instances and record the
    welfare, approximation ratio, round, and communication distributions."""
    if cfg.protocol is None:
        raise ConfigError("a protocol name is required")
    report = new_report("protocol", cfg)
    exceed_bar = recovery_threshold(cfg.m, cfg.eps) / cfg.m

    def measure(inst: Instance, stream: RngStream) -> tuple[Fraction, int, int, int]:
        # The transcript (5m bits for basis-exchange) is dropped here.
        outcome, value, ratio = run_on_instance(cfg.protocol, inst, seed=int(stream.np.integers(1 << 62)))
        return ratio, value, outcome.rounds, outcome.cc_bits

    results, runtime = _trials(cfg, _STREAM_PROTOCOL, measure)
    ratios, welfares, rounds, ccs = zip(*results)
    exceed = sum(ratio > exceed_bar for ratio in ratios)
    add_check(
        report,
        "protocol_outcomes",
        None,
        {
            "protocol": cfg.protocol,
            "instances": cfg.trials,
            "ratio_min": frac_str(min(ratios)),
            "ratio_max": frac_str(max(ratios)),
            "ratio_mean": float(sum(ratios) / len(ratios)),
            "welfare_mean": mean(welfares),
            "rounds": sorted(set(rounds)),
            "cc_bits_max": max(ccs),
            "exceedance_probability": exceed / cfg.trials,
        },
        {"exceedance_bar": frac_str(exceed_bar)},
        runtime,
    )
    return report
