"""Every layer depends only on membership patterns, so relabelling the items
of an instance by a permutation, applied to every set, changes none of what
the lab computes from it.  Golden digests pin *that* a draw moved; this pins
that each layer treats every item position alike."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bxoslab import (
    Basis,
    ItemSet,
    RngStream,
    build_valuations,
    opt_clause_pair,
    part_cells,
    part_profile,
    recover_theta,
    sample_instance,
)
from bxoslab.lab import instance_from_json, instance_to_json
from bxoslab.protocols import PROTOCOL_NAMES, run_on_instance
from bxoslab.valuations import cross_intersections


def move(perm, x):
    # Item i of the set becomes item perm[i].
    return ItemSet.from_numpy_indices(x.m, perm[x.indices()])


def relabelled(inst, perm):
    def moved(seq):
        return tuple(move(perm, x) for x in seq)

    return replace(
        inst,
        s=Basis(*moved(inst.s.sets())),
        t=Basis(*moved(inst.t.sets())),
        a1=moved(inst.a1),
        a2=moved(inst.a2),
        b1=moved(inst.b1),
        b2=moved(inst.b2),
    )


def measures(inst):
    va, vb, *_ = build_valuations(inst)
    opt = opt_clause_pair(va, vb)
    runs = {}
    for name in PROTOCOL_NAMES:
        outcome, welfare, ratio = run_on_instance(name, inst, inst.seed)
        runs[name] = (welfare, ratio, outcome.rounds, outcome.cc_bits)
    # The special copy, read off the split at the optimal clause.
    return cross_intersections(inst), opt, recover_theta(inst, va.clauses[opt[0]], 0.002), runs


# m = 40000 draws its sets with the one-row engine; the sizes drawn above
# draw in multi-row chunks.
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    m=st.sampled_from([16, 160, 1024]),
    n=st.integers(1, 6),
    variant=st.sampled_from(["nu", "nu_prime"]),
    reflect=st.booleans(),
)
@example(seed=5, m=40_000, n=3, variant="nu_prime", reflect=False)
def test_relabelling_the_items_changes_nothing(seed, m, n, variant, reflect):
    inst = sample_instance(m, n, variant, RngStream(seed, 0))
    perm = np.arange(m - 1, -1, -1) if reflect else np.random.default_rng(seed).permutation(m)
    moved = relabelled(inst, perm)
    moved.validate()
    assert instance_from_json(instance_to_json(moved)) == moved
    assert measures(moved) == measures(inst)
    # The joint cells of both bases and the special clause move with the items.
    sets = (*inst.s.sets(), *inst.t.sets(), inst.a1[inst.i_star])
    moved_sets = (*moved.s.sets(), *moved.t.sets(), moved.a1[moved.i_star])
    assert part_cells(m, moved_sets) == [move(perm, c) for c in part_cells(m, sets)]
    assert part_profile(m, moved_sets, moved.a2[0]) == part_profile(m, sets, inst.a2[0])
