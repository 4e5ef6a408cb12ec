"""Naive reference implementations for the tests.

These recompute profiles and optima with plain Python sets and full
enumeration; they stay independent of the bitmask code paths they check.
They live in a module of their own, not in ``conftest``, so that a run that
also collects ``perfbench`` (whose ``conftest`` is another module of that
name) still imports them.
"""

from __future__ import annotations

from itertools import product


def naive_part_profile(m, sets, mask=None):
    """Profile via per-item pattern matching on plain Python sets."""
    members = [set(s) for s in sets]
    domain = set(range(m)) if mask is None else set(mask)
    k = len(sets)
    out = []
    for bits in product((0, 1), repeat=k):
        out.append(
            sum(
                1
                for z in domain
                if all((z in members[i]) == bool(bits[i]) for i in range(k))
            )
        )
    return tuple(out)


def naive_opt(clauses_a, clauses_b, m):
    """Optimum by enumerating every split of the universe, with sets."""
    universe = set(range(m))
    best = 0
    for mask in range(1 << m):
        z = {i for i in range(m) if (mask >> i) & 1}
        comp = universe - z
        va = max(len(z & set(c)) for c in clauses_a)
        vb = max(len(comp & set(c)) for c in clauses_b)
        best = max(best, va + vb)
    return best
