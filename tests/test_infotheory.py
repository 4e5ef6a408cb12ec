import math
from fractions import Fraction
from itertools import combinations

import pytest

from bxoslab import JointDistribution, RngStream, divergences
from bxoslab.infotheory import _index_selection_case, _selection_joint, random_joint, verify_identities


def dist1(name, table):
    return JointDistribution((name,), {(k,): v for k, v in table.items()})


# Dict-of-tuples reference: the loop form the array-backed class replaced.
def ref_marginal(variables, probs, names):
    cols = [variables.index(v) for v in names]
    out = {}
    for values, p in probs.items():
        key = tuple(values[c] for c in cols)
        out[key] = out.get(key, 0.0) + p
    return out


def ref_entropy(variables, probs, names):
    return -sum(p * math.log2(p) for p in ref_marginal(variables, probs, names).values() if p > 0.0)


def ref_mutual_information(variables, probs, xs, ys, given=()):
    def h(names):
        return ref_entropy(variables, probs, names)

    return h((*xs, *given)) + h((*ys, *given)) - h((*xs, *ys, *given)) - h(given)


def ref_with_derived(variables, probs, name, sources, func):
    cols = [variables.index(v) for v in sources]
    out = {}
    for values, p in probs.items():
        key = (*values, func(*(values[c] for c in cols)))
        out[key] = out.get(key, 0.0) + p
    return (*variables, name), out


class TestJointDistribution:
    def test_rejects_bad_totals(self):
        with pytest.raises(ValueError):
            dist1("x", {0: 0.5, 1: 0.4})
        with pytest.raises(ValueError):
            JointDistribution(("x", "x"), {(0, 0): 1.0})
        with pytest.raises(ValueError):
            dist1("x", {0: 1.5, 1: -0.5})
        # NaN compares False against every bound, so it needs its own check.
        for probs in ({0: math.nan}, {0: math.nan, 1: 1.0}, {0: 1j}, {0: "1"}, {0: None}):
            with pytest.raises(ValueError, match="is not a real number"):
                dist1("x", probs)
        # A float cannot hold these; the check says so instead of float()'s OverflowError.
        for p in (10**400, Fraction(10**400)):
            with pytest.raises(ValueError, match="too large for a float"):
                dist1("x", {0: p})

    def test_marginal_and_unknown_variables(self):
        d = JointDistribution(
            ("x", "y"), {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.5}
        )
        assert d.marginal(("x",)).probs == {(0,): 0.5, (1,): 0.5}
        with pytest.raises(KeyError):
            d.marginal(("zzz",))
        with pytest.raises(KeyError):
            d.entropy(("zzz",))

    def test_matches_dict_reference(self):
        rng = RngStream(12, 0)
        for trial in range(30):
            d = random_joint(rng.child(trial), max_support=3 + trial % 3)
            variables, probs = d.variables, d.probs
            # The derived variables read their sources out of axis order.
            derived = (("s", ("z", "x"), lambda z, x: (x + 2 * z) % 3), ("c", ("w",), lambda w: w % 2))
            for name, sources, func in derived:
                d = d.with_derived(name, sources, func)
                variables, probs = ref_with_derived(variables, probs, name, sources, func)
            assert d.variables == variables
            assert d.probs.keys() == {k for k, p in probs.items() if p > 0.0}
            rebuilt = JointDistribution(variables, probs)
            for names in (("z", "x"), ("s", "w", "y"), ("c", "s"), ("y",)):
                got = d.marginal(names).probs
                want = ref_marginal(variables, probs, names)
                assert got.keys() == want.keys()
                assert all(abs(got[k] - want[k]) < 1e-12 for k in want)
                for joint in (d, rebuilt):
                    assert abs(joint.entropy(names) - ref_entropy(variables, probs, names)) < 1e-12
            for xs, ys, given in ((("z",), ("x",), ("y", "w")), (("s",), ("c", "y"), ()), (("x", "w"), ("s",), ("z",))):
                want = ref_mutual_information(variables, probs, xs, ys, given)
                assert abs(d.mutual_information(xs, ys, given) - want) < 1e-12


# Calls with a repeated name, an unknown name or overlapping groups, and the
# error each raises: a repeat is reported before an unknown name.
BAD_NAME_CALLS = [
    ("entropy", (("x", "x"),), ValueError),
    ("entropy", (("y", "x", "y"),), ValueError),
    ("entropy", (("zzz",),), KeyError),
    ("entropy", (("x", "zzz"),), KeyError),
    ("entropy", (("zzz", "zzz"),), ValueError),
    ("marginal", (("x", "x"),), ValueError),
    ("marginal", (("zzz", "y"),), KeyError),
    ("mutual_information", (("x",), ("x",)), ValueError),
    ("mutual_information", (("x",), ("y",), ("x",)), ValueError),
    ("mutual_information", (("x", "x"), ("y",)), ValueError),
    ("mutual_information", (("zzz",), ("y",), ("y",)), ValueError),
    ("mutual_information", (("zzz",), ("y",)), KeyError),
    ("mutual_information", (("x",), ("y",), ("w", "zzz")), KeyError),
]


class TestNameChecks:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("method, args, error", BAD_NAME_CALLS)
    def test_bad_names_raise_whatever_is_cached(self, method, args, error, warm):
        d = random_joint(RngStream(14, 0))
        if warm:
            # Every entropy a bad call could read is already cached.
            for r in range(len(d.variables) + 1):
                for names in combinations(d.variables, r):
                    d.entropy(names)
        with pytest.raises(error):
            getattr(d, method)(*args)

    def test_entropy_ignores_name_order_bit_for_bit(self):
        for trial in range(20):
            joints = [random_joint(RngStream(15, trial)) for _ in range(2)]
            assert joints[0].entropy(("y", "x")) == joints[1].entropy(("x", "y"))
            assert joints[0].entropy(("z", "w", "y")) == joints[1].entropy(("w", "y", "z"))

    def test_nine_axis_selection_joint_matches_dict_reference(self):
        stream = RngStream(16, 0)
        d = _selection_joint(stream, 5, 0.3, y_size=2)
        variables, probs = d.variables, d.probs
        assert len(variables) == 9
        for r in range(1, len(variables) + 1):
            for names in combinations(variables, r):
                assert abs(d.entropy(names[::-1]) - ref_entropy(variables, probs, names)) < 1e-12
        x_names = variables[:5]
        for xs, ys, given in ((("xi",), ("f",), ("y", "i")), (x_names, ("f",), ("y",))):
            want = ref_mutual_information(variables, probs, xs, ys, given)
            assert abs(d.mutual_information(xs, ys, given) - want) < 1e-12


class TestEntropy:
    def test_point_mass(self):
        assert dist1("x", {7: 1.0}).entropy() == 0.0

    def test_uniform_four_values(self):
        d = dist1("x", {i: 0.25 for i in range(4)})
        assert math.isclose(d.entropy(), 2.0, abs_tol=1e-12)

    def test_binary_quarter(self):
        d = dist1("x", {0: 0.75, 1: 0.25})
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert math.isclose(d.entropy(), expected, abs_tol=1e-9)
        assert math.isclose(d.entropy(), 0.8112781244591328, abs_tol=1e-9)

    def test_the_empty_set_has_entropy_zero_exactly(self):
        # This joint's table sums to 1 - 1 ulp; a summed empty marginal
        # would give 1.6e-16.  Derived joints share the rule.
        d = random_joint(RngStream(1, 0))
        assert d.entropy(()) == 0.0
        assert d.marginal(("x",)).entropy(()) == 0.0
        assert d.with_derived("v", ("x",), lambda x: x).entropy(()) == 0.0


class TestMutualInformation:
    def test_independent_is_zero(self):
        d = JointDistribution(
            ("x", "y"), {(i, j): 0.25 for i in range(2) for j in range(2)}
        )
        assert abs(d.mutual_information(("x",), ("y",))) < 1e-12

    def test_copy_carries_entropy(self):
        k = 4
        d = JointDistribution(("x", "y"), {(i, i): 1 / k for i in range(k)})
        assert math.isclose(d.mutual_information(("x",), ("y",)), math.log2(k), abs_tol=1e-12)

    def test_symmetry(self):
        d = random_joint(RngStream(3, 0))
        w, x, y, z = d.variables
        assert math.isclose(
            d.mutual_information((x,), (y,), (z,)),
            d.mutual_information((y,), (x,), (z,)),
            abs_tol=1e-12,
        )

    def test_an_empty_group_gives_zero_exactly(self):
        d = random_joint(RngStream(1, 0))
        assert d.mutual_information(("x",), ()) == 0.0
        assert d.mutual_information((), ("x",)) == 0.0

    def test_overlapping_groups_rejected(self):
        d = random_joint(RngStream(4, 0))
        with pytest.raises(ValueError):
            d.mutual_information(("x",), ("x",))

    def test_entropy_form_equals_expected_divergence_form(self):
        from bxoslab.infotheory import _expected_kl_form

        rng = RngStream(9, 0)
        for trial in range(100):
            d = random_joint(rng.child(trial))
            _, x, y, z = d.variables
            via_entropies = d.mutual_information((x,), (y,), (z,))
            via_divergences = _expected_kl_form(d, x, y, z)
            assert abs(via_entropies - via_divergences) < 1e-12


class TestDivergences:
    def test_equal_distributions(self):
        p = {0: 0.3, 1: 0.7}
        assert divergences(p, p) == (0.0, 0.0)

    def test_half_half_vs_quarter(self):
        p = {0: 0.5, 1: 0.5}
        q = {0: 0.25, 1: 0.75}
        kl, tvd = divergences(p, q)
        assert math.isclose(tvd, 0.25, abs_tol=1e-12)
        assert math.isclose(kl, 0.2075187496394219, abs_tol=1e-9)
        assert tvd <= math.sqrt(kl / 2)

    def test_missing_mass_gives_infinite_kl(self):
        kl, tvd = divergences({0: 0.5, 1: 0.5}, {0: 1.0})
        assert math.isinf(kl)
        assert math.isclose(tvd, 0.5, abs_tol=1e-12)

    def test_tvd_equals_max_over_events(self):
        # Enumerated-events form of the distance, checked on random pairs.
        rng = RngStream(5, 0)
        for trial in range(20):
            stream = rng.child(trial)
            size = int(stream.np.integers(2, 9))
            raw_p = stream.np.random(size)
            raw_q = stream.np.random(size)
            p = {i: float(v) for i, v in enumerate(raw_p / raw_p.sum())}
            q = {i: float(v) for i, v in enumerate(raw_q / raw_q.sum())}
            _, tvd = divergences(p, q)
            outcomes = list(p)
            best = max(
                sum(p[x] - q[x] for x in event)
                for r in range(size + 1)
                for event in combinations(outcomes, r)
            )
            assert math.isclose(tvd, best, abs_tol=1e-12)


class TestIdentitySuite:
    def test_small_run_passes(self):
        report = verify_identities(40, RngStream(6, 0))
        assert report["passed"], report
        assert report["failures"] == 0
        for entry in report["checks"].values():
            assert entry["cases"] > 0

    @pytest.mark.parametrize("n", [4, 5])
    def test_index_selection_at_larger_n(self, n):
        rng = RngStream(13, 0)
        for case in range(3):
            stream = rng.child(case)
            p_one = 0.05 + 0.9 * float(stream.np.random())
            lhs, rhs = _index_selection_case(stream, n, p_one, y_size=2 + case % 2)
            assert lhs <= rhs + 1e-9

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            verify_identities(0, RngStream(6, 0))

    def test_root_stream_draws_nothing(self):
        # verify info roots at stream 0, whose child(0) is the root itself,
        # so a draw from the root would repeat the first trial's draws.
        rng = RngStream(6, 0)
        state = repr(rng.np.bit_generator.state)
        verify_identities(3, rng)
        assert repr(rng.np.bit_generator.state) == state
