"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 4 and 5 share one batch of five large sampled instances.  Statistical
checks use significance 0.001 (Bonferroni-corrected inside the equivalence
driver); exact checks use rational arithmetic throughout.  One more test shows
that criterion 9's uniformity check rejects a sampler that keeps every count.
"""

import math
import time
from collections.abc import Iterable, Iterator
from fractions import Fraction

import pytest

from bxoslab import (
    ItemSet,
    PartitionParameter,
    RngStream,
    build_valuations,
    check_truthful,
    expected_intersection,
    generalized_deltas,
    opt_bruteforce,
    opt_clause_pair,
    optimal_block_ratio,
    oracle_allocation,
    part_cells,
    part_profile,
    recover_theta,
    reference_instance,
    refine_masks,
    refine_sample,
    sample_basis,
    sample_clause_pair,
    sample_compatible,
    sample_instance,
    sample_special_pair,
    verify_identities,
)
from bxoslab.construction import constant_vectors
from bxoslab.lab import ExperimentConfig, verify_nu_equivalence, verify_theta_recovery
from bxoslab.protocols import bundle_vickrey_protocol, run_on_instance, trivial_bundle_protocol
from bxoslab.sampling import pc_ally_avoidance_probability
from bxoslab.stats import uniform_chi2
from bxoslab.valuations import BXOSValuation, cross_floors, cross_intersections

LARGE_M = 1_600_000
EPS = 0.002


def announce(criterion: int, label: str) -> None:
    print(f"[criterion {criterion}] {label}: PASS")


@pytest.fixture(scope="module")
def large_instances():
    rng = RngStream(777, 0)
    return [sample_instance(LARGE_M, 4, "nu", rng.child(i)) for i in range(5)]


def clause_params(basis_pair, m):
    vec = constant_vectors(m)
    s, t = basis_pair
    a_side = {
        1: PartitionParameter(tuple(part_cells(m, s.sets())), vec.reg),
        2: PartitionParameter(tuple(part_cells(m, s.rev.sets())), vec.reg),
    }
    b_side = {
        1: PartitionParameter(tuple(part_cells(m, t.sets())), vec.reg),
        2: PartitionParameter(tuple(part_cells(m, t.rev.sets())), vec.reg),
    }
    st_cells = tuple(part_cells(m, (*s.sets(), *t.sets())))
    specials = {
        1: PartitionParameter(st_cells, vec.spec1),
        2: PartitionParameter(st_cells, vec.spec2),
    }
    return a_side, b_side, specials


def test_criterion_1_exact_expected_intersections():
    t0 = time.perf_counter()
    rng = RngStream(101, 0)
    for m in (16, 160):
        golden_reg = Fraction(51 * m, 200)
        golden_spec = Fraction(61 * m, 240)
        for trial in range(50):
            stream = rng.child(1000 * m + trial)
            s = sample_basis(m, stream)
            t = sample_compatible(s, stream)
            a_side, b_side, specials = clause_params((s, t), m)
            for i in (1, 2):
                for j in (1, 2):
                    delta = expected_intersection(a_side[i], b_side[j])
                    assert delta == golden_reg
                    assert delta >= golden_reg
            assert expected_intersection(specials[1], b_side[2]) == golden_spec
            assert expected_intersection(specials[2], b_side[1]) == golden_spec
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    announce(1, f"exact cross expectations on 100 compatible pairs ({elapsed:.2f}s)")


def test_criterion_2_generalized_formulas():
    t0 = time.perf_counter()
    single, _, _ = generalized_deltas(1, 1)
    assert single == Fraction(7, 27)
    assert 1 - single == Fraction(20, 27)
    _, cross, special = generalized_deltas(1, 2)
    assert cross == Fraction(51, 200)
    assert special == Fraction(61, 240)
    ratio = optimal_block_ratio()
    assert math.isclose(ratio, 1 + math.sqrt(1.5), abs_tol=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    announce(2, f"block-size formulas and optimal ratio ({elapsed:.2f}s)")


def test_criterion_3_optimum_is_always_m():
    t0 = time.perf_counter()
    rng = RngStream(103, 0)
    plan = [(16, 600), (160, 300), (1600, 100)]
    checked = 0
    bruteforced = 0
    for m, count in plan:
        for trial in range(count):
            n = (trial % 64) + 1 if m <= 160 else (trial % 8) + 1
            inst = sample_instance(m, n, "nu", rng.child(checked))
            va, vb, *_ = build_valuations(inst)
            value = opt_clause_pair(va, vb)[2]
            assert value == m, f"opt {value} != {m} at n={n}"
            if m == 16 and bruteforced < 100:
                assert opt_bruteforce(va, vb) == value
                bruteforced += 1
            checked += 1
    assert checked == 1000 and bruteforced == 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 2min"
    announce(3, f"optimum equals m on 1000 instances, oracle vs enumeration on 100 ({elapsed:.2f}s)")


def test_criterion_4_concentration_at_scale(large_instances):
    t0 = time.perf_counter()
    m = LARGE_M
    reg_floor, spec_floor = cross_floors(m, EPS)
    for inst in large_instances:
        cross = cross_intersections(inst)
        assert min(cross.regular) >= reg_floor
        assert min(cross.special_a + cross.special_b) >= spec_floor
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 1min"
    announce(4, f"all cross intersections above floors at m={m} ({elapsed:.2f}s)")


def test_criterion_5_theta_recovery(large_instances):
    t0 = time.perf_counter()
    for inst in large_instances:
        va, vb, *_ = build_valuations(inst)
        assert opt_clause_pair(va, vb)[2] == LARGE_M
        z = oracle_allocation(va, vb).to_alice
        guess = recover_theta(inst, z, EPS)
        assert guess == inst.theta, f"recovered {guess}, true {inst.theta}"
    # Small-universe exhaustive tally, reported without assertion: the
    # two-sided failure probability bound is vacuous at m=16.
    report = verify_theta_recovery(ExperimentConfig(m=16, n=4, eps=EPS, trials=3, seed=105))
    info = next(c for c in report["checks"] if c["name"] == "exhaustive_splits_clearing_both_bars")
    print(
        "[criterion 5] m=16 exhaustive two-sided tally (informational):",
        info["measured"]["counts"],
    )
    elapsed = time.perf_counter() - t0
    announce(5, f"special copy recovered on all large instances ({elapsed:.2f}s)")


def test_criterion_6_protocol_suite():
    t0 = time.perf_counter()
    rng = RngStream(106, 0)
    # Trivial simultaneous protocol: ratio exactly 1/2 on every instance.
    for trial in range(10):
        m = 16 if trial % 2 else 160
        inst = sample_instance(m, 4, "nu", rng.child(trial))
        outcome, _, ratio = run_on_instance("trivial", inst)
        assert ratio == Fraction(1, 2)
        assert outcome.rounds == 1
    # Interactive basis exchange: full welfare in two rounds within budget.
    for trial in range(10):
        inst = sample_instance(160, 8, "nu", rng.child(100 + trial))
        outcome, _, ratio = run_on_instance("basis-exchange", inst)
        assert ratio == Fraction(1)
        assert outcome.rounds == 2
        assert outcome.cc_bits <= 6 * 160 + 64
    outcome, _, ratio = run_on_instance("basis-exchange", reference_instance())
    assert ratio == Fraction(1) and outcome.cc_bits <= 6 * 16 + 64
    # Truthfulness checker on the two-valuation set.
    m = 8
    vset = [
        BXOSValuation((ItemSet.from_indices(m, [0]),)),
        BXOSValuation((ItemSet.full(m),)),
    ]
    assert check_truthful(bundle_vickrey_protocol(m), vset) == []
    assert check_truthful(trivial_bundle_protocol(m), vset) != []
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    announce(6, f"protocol ratios, budgets, and truthfulness checks ({elapsed:.2f}s)")


def test_criterion_7_sampling_equivalence():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(m=160, n=8, eps=EPS, trials=2000, seed=107)
    report = verify_nu_equivalence(cfg)
    check = report["checks"][0]
    assert check["status"] == "pass", check["measured"]["rejected"]
    assert report["passed"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 1min"
    announce(7, f"two-sample and independence tests accept at alpha=0.001 ({elapsed:.2f}s)")


def test_criterion_8_information_identities():
    t0 = time.perf_counter()
    report = verify_identities(1000, RngStream(108, 0))
    assert report["failures"] == 0, report
    assert report["passed"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    announce(8, f"all identities within 1e-9 over 1000 joints ({elapsed:.2f}s)")


# Rows per refine_masks call when drawing partition parameters, which bounds
# the rows held at once.
PC_ROWS_PER_CALL = 1 << 16


def pc_masks(param: PartitionParameter, rng: RngStream, draws: int) -> Iterator[int]:
    """``draws`` uniform draws of ``param``, as bitmasks: class 0 of
    ``refine_masks`` rows with count rows ``(p, |cell| - p)``."""
    table = [(p, len(c) - p) for c, p in zip(param.cells, param.counts)]
    for start in range(0, draws, PC_ROWS_PER_CALL):
        for row in refine_masks(param.cells, table, rng, min(PC_ROWS_PER_CALL, draws - start)):
            yield row[0]


def uniformity_p_value(param: PartitionParameter, masks: Iterable[int]) -> float:
    """Exhaustive-support chi-square p-value of drawn masks against the
    uniform law over every set that meets ``param``'s counts."""
    support = [
        mask
        for mask in range(1 << param.m)
        if all((c.bits & mask).bit_count() == cnt for c, cnt in zip(param.cells, param.counts))
    ]
    index = {mask: i for i, mask in enumerate(support)}
    counts = [0] * len(support)
    for mask in masks:
        counts[index[mask]] += 1
    return uniform_chi2(counts)[2]


def _split(m: int, cut: int, counts: tuple[int, ...]) -> PartitionParameter:
    # Cells of part_cells: the items from cut on, then those below it.
    return PartitionParameter(tuple(part_cells(m, [ItemSet.from_indices(m, range(cut))])), counts)


# Criterion 9's exhaustive uniformity checks: parameter, draws and seed.
UNIFORMITY_CHECKS = {"m8": (_split(8, 5, (1, 2)), 1_000_000, 42), "m6": (_split(6, 3, (2, 1)), 200_000, 43)}


def test_criterion_9_sampler_correctness():
    t0 = time.perf_counter()
    rng = RngStream(109, 0)
    vec16 = constant_vectors(16)

    # Profile invariants on every draw, 100k draws total across samplers.
    param = _split(16, 6, (4, 3))
    for mask in pc_masks(param, rng, 40_000):
        assert tuple((c.bits & mask).bit_count() for c in param.cells) == param.counts
    cells = part_cells(16, [ItemSet.from_indices(16, range(6))])
    rows = [(4, 3, 3), (2, 2, 2)]
    for _ in range(20_000):
        classes = refine_sample(cells, rows, rng)
        for cell, row in zip(cells, rows):
            assert tuple((cell.bits & k.bits).bit_count() for k in classes) == row
    for _ in range(10_000):
        b = sample_basis(16, rng)
        assert part_profile(16, b.sets()) == vec16.basis
    s = sample_basis(16, rng)
    t = sample_compatible(s, rng)
    for _ in range(10_000):
        t2 = sample_compatible(s, rng)
        assert part_profile(16, (*s.sets(), *t2.sets())) == vec16.cmp
    for _ in range(10_000):
        a1, a2 = sample_clause_pair(s, rng)
        assert part_profile(16, s.sets(), a1) == vec16.reg
        assert part_profile(16, s.rev.sets(), a2) == vec16.reg
        assert part_profile(16, s.sets(), a1 & a2) == vec16.regpair
    for _ in range(10_000):
        a1, a2 = sample_special_pair(s, t, rng)
        assert part_profile(16, (*s.sets(), *t.sets()), a1) == vec16.spec1
        assert part_profile(16, (*s.sets(), *t.sets()), a2) == vec16.spec2

    # Uniformity over the exhaustively enumerated feasible family.
    for name, (param_u, draws, seed) in UNIFORMITY_CHECKS.items():
        p = uniformity_p_value(param_u, pc_masks(param_u, RngStream(seed, 0), draws))
        assert p >= 0.001, f"uniformity rejected at {name}: p={p}"

    # Independent-inclusion relaxation dominates on avoidance events, with
    # the constrained side computed by exact enumeration.
    for m, cut, counts in ((6, 3, (2, 1)), (8, 5, (2, 1)), (8, 4, (1, 3))):
        param_d = _split(m, cut, counts)
        support = [
            mask
            for mask in range(1 << m)
            if all((c.bits & mask).bit_count() == cnt for c, cnt in zip(param_d.cells, param_d.counts))
        ]
        for avoid_bits in range(1 << m):
            exact = Fraction(sum(1 for u in support if u & avoid_bits == 0), len(support))
            ally = pc_ally_avoidance_probability(param_d, ItemSet(m, avoid_bits))
            assert exact <= ally
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 1min"
    announce(9, f"per-draw profiles, uniformity, and domination ({elapsed:.2f}s)")


def test_criterion_9_uniformity_check_rejects_a_count_keeping_mutant():
    # Criterion 9's m = 6 check, fed real refine_masks rows except that one
    # fixed item of a multi-item cell is always swapped out of the chosen
    # class for the lowest item the class leaves out of that cell: every
    # count still holds, but no draw holds that item.
    param, draws, seed = UNIFORMITY_CHECKS["m6"]
    cell = param.cells[0]
    item = min(cell)
    assert len(cell) > 1

    def mutant():
        for mask in pc_masks(param, RngStream(seed, 0), draws):
            if mask >> item & 1:
                free = cell.bits & ~mask
                mask ^= (1 << item) | (free & -free)
            yield mask

    p = uniformity_p_value(param, mutant())
    assert p < 0.001, f"uniformity check missed the mutant: p={p}"
