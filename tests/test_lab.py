import json
import re
import runpy
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bxoslab import PartitionParameter, RngStream, expected_intersection, part_cells, sample_instance
from bxoslab import cli, construction, lab
from bxoslab.cli import main as cli_main
from bxoslab.construction import (
    ConstructionError,
    constant_vectors,
    reference_instance,
    sample_basis,
    sample_compatible,
)
from bxoslab.lab import (
    ConfigError,
    ExperimentConfig,
    canonical_report_bytes,
    dump_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    run_protocol_experiment,
    verify_concentration,
    verify_info,
    verify_nu_equivalence,
    verify_theta_recovery,
)
from bxoslab.protocols import PROTOCOL_NAMES
from bxoslab.stats import independence_chi2, two_sample_chi2, uniform_chi2


class TestConfig:
    def test_validates_fields(self):
        ExperimentConfig(m=160, n=4, eps=0.002, trials=2, seed=1).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(m=100).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(m=160, eps=0.3).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(m=160, trials=0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(m=160, variant="mu").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(m=160, protocol="nope").validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("m", 160.0),
            ("m", True),
            ("n", 4.0),
            ("n", True),
            ("trials", 2.0),
            ("trials", True),
            ("seed", 1.5),
            ("seed", np.int64(1)),
            ("seed", False),
            ("eps", 1),
            ("eps", Fraction(1, 500)),
            ("eps", "0.002"),
        ],
    )
    def test_rejects_values_of_the_wrong_type(self, field, value):
        # Each would pass the range checks and fail later, inside a driver.
        with pytest.raises(ConfigError, match=f"{field} must be an? (int|float)"):
            ExperimentConfig(**{"m": 160, field: value})

    def test_numpy_float_eps_is_a_float(self):
        assert ExperimentConfig(m=160, eps=np.float64(0.002)).eps == 0.002

    def test_invalid_config_cannot_be_built(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(m=100)

    def test_size_budget_bounds_m_times_n(self):
        ExperimentConfig(m=1_600_000, n=4)
        ExperimentConfig(m=lab.MAX_ITEMS // 16, n=16)
        with pytest.raises(ConfigError, match="budget"):
            ExperimentConfig(m=lab.MAX_ITEMS // 16, n=17)
        with pytest.raises(ConfigError, match="budget"):
            ExperimentConfig(m=16, n=lab.MAX_ITEMS)


class TestSerialization:
    def test_roundtrip_identity(self, rng):
        inst = sample_instance(160, 4, "nu", rng)
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_roundtrip_bytes_identical(self, tmp_path, rng):
        inst = sample_instance(32, 3, "nu_prime", rng)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        dump_instance(inst, p1)
        dump_instance(load_instance(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_i_star_is_one_based_on_disk(self, rng):
        inst = sample_instance(16, 4, "nu", rng)
        data = instance_to_json(inst)
        assert data["i_star"] == inst.i_star + 1
        assert set(data) == {
            "m", "n", "variant", "theta", "i_star", "S", "T",
            "A1", "A2", "B1", "B2", "rA", "rB", "seed",
        }

    def test_corrupted_theta_rejected(self, rng):
        inst = sample_instance(16, 4, "nu", rng)
        data = instance_to_json(inst)
        data["theta"] = 3 - data["theta"]
        with pytest.raises(ConstructionError):
            instance_from_json(data)

    def test_corrupted_clause_rejected(self, rng):
        inst = sample_instance(16, 4, "nu", rng)
        data = instance_to_json(inst)
        data["A1"][0] = "ffff"
        with pytest.raises(ConstructionError):
            instance_from_json(data)

    @pytest.mark.parametrize(
        "key, corrupt",
        [
            ("m", lambda v: v + 0.9),
            ("n", float),
            ("i_star", float),
            ("theta", lambda v: v + 0.5),
            ("seed", lambda v: v + 0.5),
            ("rA", lambda v: "".join(map(str, v))),
            ("rB", lambda v: [float(r) for r in v]),
        ],
    )
    def test_non_integer_fields_rejected(self, key, corrupt, tmp_path, capsys):
        # Each corruption would truncate or iterate back to the same values.
        data = instance_to_json(sample_instance(16, 3, "nu", RngStream(5, 0)))
        data[key] = corrupt(data[key])
        with pytest.raises(ConstructionError, match=key):
            instance_from_json(data)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        assert cli_main(["opt", "--instance", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConstructionError):
            instance_from_json({"m": 16})

    def test_reference_instance_roundtrip(self):
        inst = reference_instance()
        again = instance_from_json(instance_to_json(inst))
        assert again == inst


class TestChiSquareHelpers:
    def test_identical_samples_give_zero_statistic(self):
        values = [1, 2, 2, 3, 3, 3] * 20
        stat, df, p = two_sample_chi2(values, list(values))
        assert stat == 0.0
        assert p == 1.0

    def test_uniform_counts_give_zero_statistic(self):
        stat, _, p = uniform_chi2([25, 25, 25, 25])
        assert stat == 0.0 and p == 1.0

    def test_skewed_counts_reject(self):
        _, _, p = uniform_chi2([100, 0, 0, 0])
        assert p < 1e-6

    def test_independent_table_accepts(self):
        table = [[50, 50], [50, 50]]
        _, _, p = independence_chi2(table)
        assert p == 1.0

    def test_dependent_table_rejects(self):
        table = [[100, 0], [0, 100]]
        _, _, p = independence_chi2(table)
        assert p < 1e-6

    def test_degenerate_tables_are_neutral(self):
        assert two_sample_chi2([], []) == (0.0, 0, 1.0)
        assert two_sample_chi2([1] * 20, []) == (0.0, 0, 1.0)
        assert two_sample_chi2([1] * 20 + [2] * 20, []) == (0.0, 0, 1.0)
        assert uniform_chi2([5]) == (0.0, 0, 1.0)
        assert independence_chi2([[3, 0], [1, 0]])[2] == 1.0


class TestDrivers:
    def test_concentration_report_structure(self):
        cfg = ExperimentConfig(m=160, n=3, eps=0.05, trials=5, seed=7)
        report = verify_concentration(cfg)
        names = [c["name"] for c in report["checks"]]
        assert names == ["exact_expected_intersections", "cross_intersection_floors"]
        from fractions import Fraction

        exact = report["checks"][0]
        assert exact["status"] == "pass"
        golden = Fraction(51 * 160, 200)
        assert exact["measured"]["golden_regular"] == f"{golden.numerator}/{golden.denominator}"
        assert exact["measured"]["regular_11"] == exact["measured"]["golden_regular"]

    @pytest.mark.parametrize("m", [16, 160, 1024])
    def test_exact_delta_table_matches_sampled_pair_sums(self, m):
        # The table draws nothing; the double sums over sampled compatible
        # pairs at m give the same rationals.
        for seed in (981, 5):
            rng = RngStream(seed, 0)
            s = sample_basis(m, rng)
            t = sample_compatible(s, rng)
            vec = constant_vectors(m)
            joint_cells = tuple(part_cells(m, (*s.sets(), *t.sets())))
            a_side = {1: PartitionParameter(s.cells, vec.reg), 2: PartitionParameter(s.rev.cells, vec.reg)}
            b_side = {1: PartitionParameter(t.cells, vec.reg), 2: PartitionParameter(t.rev.cells, vec.reg)}
            want = {f"regular_{i}{j}": expected_intersection(a_side[i], b_side[j]) for i in (1, 2) for j in (1, 2)}
            want["special_1"] = expected_intersection(PartitionParameter(joint_cells, vec.spec1), b_side[2])
            want["special_2"] = expected_intersection(PartitionParameter(joint_cells, vec.spec2), b_side[1])
            measured, ok = lab._exact_delta_table(m)
            assert ok
            assert {name: Fraction(measured[name]) for name in want} == want

    def test_large_m_concentration_draws_one_basis_per_trial(self, monkeypatch):
        # The exact-expectation check draws no pair of its own.
        real = construction.sample_basis
        calls = []

        def counted(m, rng):
            calls.append(m)
            return real(m, rng)

        monkeypatch.setattr(construction, "sample_basis", counted)
        monkeypatch.setattr(lab, "sample_basis", counted, raising=False)
        report = verify_concentration(ExperimentConfig(m=1_600_000, n=4, trials=1, seed=5))
        assert report["checks"][0]["status"] == "pass"
        assert calls == [1_600_000]

    def test_concentration_single_index_is_informational(self):
        cfg = ExperimentConfig(m=160, n=1, eps=0.05, trials=2, seed=7)
        report = verify_concentration(cfg)
        assert report["checks"][1]["status"] == "info"

    def test_theta_recovery_small(self):
        cfg = ExperimentConfig(m=160, n=4, eps=0.002, trials=3, seed=8)
        report = verify_theta_recovery(cfg)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["optimum_is_full_universe"]["status"] == "pass"
        assert by_name["theta_recovered_from_optimal_allocation"]["measured"]["recovered"] == 3

    def test_theta_recovery_reports_exhaustive_counts_at_m16(self):
        cfg = ExperimentConfig(m=16, n=3, eps=0.002, trials=2, seed=9)
        report = verify_theta_recovery(cfg)
        by_name = {c["name"]: c for c in report["checks"]}
        info = by_name["exhaustive_splits_clearing_both_bars"]
        assert info["status"] == "info"
        assert info["measured"]["splits_total"] == 1 << 16
        assert len(info["measured"]["counts"]) == 2

    def test_nu_equivalence_needs_two_indices(self):
        with pytest.raises(ConfigError):
            verify_nu_equivalence(ExperimentConfig(m=160, n=1, trials=5, seed=3))

    def test_nu_equivalence_tests_without_degrees_of_freedom_give_no_verdict(self):
        # Three trials at m = 16 pool six of the nine tests into one bin
        # (df 0, 0, 0, 0, 0, 1, 2, 1, 0); they stay listed but leave the divisor.
        report = verify_nu_equivalence(ExperimentConfig(m=16, n=2, trials=3, seed=0))
        check = report["checks"][0]
        assert check["status"] == "pass"
        assert check["thresholds"]["tests"] == 3
        assert check["thresholds"]["bonferroni_alpha"] == 0.001 / 3
        p_values = check["measured"]["p_values"]
        assert len(p_values) == 9
        assert [name for name, p in p_values.items() if p == 1.0] == [
            "two_sample:regular_cross_11",
            "two_sample:regular_cross_12",
            "two_sample:regular_a_overlap",
            "two_sample:special_cross",
            "two_sample:i_star",
            "i_star_independent:nu_prime",
        ]

    def test_nu_equivalence_with_no_degrees_of_freedom_reports_info(self, monkeypatch):
        for name in ("two_sample_chi2", "uniform_chi2", "independence_chi2"):
            monkeypatch.setattr(lab, name, lambda *args: (0.0, 0, 1.0))
        report = verify_nu_equivalence(ExperimentConfig(m=16, n=2, trials=3, seed=0))
        check = report["checks"][0]
        assert check["status"] == "info"
        assert check["thresholds"]["tests"] == 0
        assert check["thresholds"]["bonferroni_alpha"] is None
        assert check["measured"]["rejected"] == []
        assert len(check["measured"]["p_values"]) == 9
        assert report["passed"]

    def test_info_driver_passes(self):
        report = verify_info(ExperimentConfig(m=16, trials=25, seed=4))
        assert report["passed"]

    def test_info_runtimes_are_per_check(self):
        t0 = time.perf_counter()
        report = verify_info(ExperimentConfig(m=16, trials=50, seed=4))
        wall = time.perf_counter() - t0
        runtimes = [check["runtime_s"] for check in report["checks"]]
        assert len(runtimes) == 10
        assert len(set(runtimes)) > 1
        assert sum(runtimes) <= wall

    def test_protocol_driver_requires_name(self):
        with pytest.raises(ConfigError):
            run_protocol_experiment(ExperimentConfig(m=160, trials=1, seed=1))

    def test_protocol_driver_trivial(self):
        cfg = ExperimentConfig(m=160, n=3, trials=4, seed=11, protocol="trivial")
        report = run_protocol_experiment(cfg)
        measured = report["checks"][0]["measured"]
        assert measured["ratio_min"] == measured["ratio_max"] == "1/2"
        assert measured["exceedance_probability"] == 0.0

    def test_reports_are_deterministic(self):
        cfg = ExperimentConfig(m=160, n=3, eps=0.05, trials=4, seed=21)
        a = canonical_report_bytes(verify_concentration(cfg))
        b = canonical_report_bytes(verify_concentration(cfg))
        assert a == b
        cfg2 = ExperimentConfig(m=160, n=3, eps=0.05, trials=4, seed=22)
        assert canonical_report_bytes(verify_concentration(cfg2)) != a


# Each sampling driver with the stream bases it draws from, in draw order;
# a None variant means the config's own.
REPLAY_CASES = {
    "concentration": (verify_concentration, None, [(None, lab._STREAM_CONCENTRATION)]),
    "theta": (verify_theta_recovery, None, [(None, lab._STREAM_THETA)]),
    "protocol": (run_protocol_experiment, "trivial", [(None, lab._STREAM_PROTOCOL)]),
    "nu-equivalence": (
        verify_nu_equivalence,
        None,
        [("nu", lab._STREAM_NU), ("nu_prime", lab._STREAM_NU_PRIME)],
    ),
}


class TestReplay:
    @pytest.mark.parametrize("case", list(REPLAY_CASES))
    def test_trial_k_draws_from_child_k_of_the_driver_stream(self, case, monkeypatch):
        driver, protocol, streams = REPLAY_CASES[case]
        real = lab.sample_instance
        calls = []

        def recorder(m, n, variant, rng):
            calls.append((m, n, variant, rng.seed, rng.stream))
            return real(m, n, variant, rng)

        monkeypatch.setattr(lab, "sample_instance", recorder)
        cfg = ExperimentConfig(m=32, n=3, eps=0.05, trials=3, seed=17, variant="nu_prime", protocol=protocol)
        driver(cfg)
        expected = []
        for variant, base in streams:
            for k in range(cfg.trials):
                child = RngStream(cfg.seed, base).child(k)
                expected.append((cfg.m, cfg.n, variant or cfg.variant, child.seed, child.stream))
        assert calls == expected

    def test_the_root_stream_draws_nothing(self, monkeypatch):
        # At stream base 0, child(0) is the root stream itself, so a draw from
        # the root would repeat trial 0's draws.
        roots = []

        class Recorded(RngStream):
            def __init__(self, seed, stream=0):
                super().__init__(seed, stream)
                roots.append((self, repr(self.np.bit_generator.state)))

        monkeypatch.setattr(lab, "RngStream", Recorded)
        cfg = ExperimentConfig(m=32, n=3, trials=3, seed=17)
        results, _ = lab._trials(cfg, 0, lambda inst, stream: int(stream.np.integers(1 << 60)))
        assert len(roots) == 1 and len(set(results)) == 3
        root, state = roots[0]
        assert repr(root.np.bit_generator.state) == state


# The options each verb offers, with a value each parses.
_DRIVER = ("--m", "--n", "--eps", "--trials", "--variant", "--seed", "--out")
OFFERED_OPTIONS = {
    ("gen",): ("--m", "--n", "--variant", "--seed", "--out"),
    ("verify", "concentration"): _DRIVER,
    ("verify", "theta"): _DRIVER,
    ("verify", "nu-equivalence"): ("--m", "--n", "--trials", "--seed", "--out"),
    ("verify", "info"): ("--trials", "--seed", "--out"),
    ("run",): ("--protocol", *_DRIVER),
    ("opt",): ("--instance", "--bruteforce"),
}
OPTION_VALUES = {
    "--m": ("160",), "--n": ("4",), "--eps": ("0.002",), "--trials": ("1",), "--variant": ("nu_prime",),
    "--seed": ("1",), "--out": ("r.json",), "--protocol": ("trivial",), "--instance": ("i.json",),
    "--bruteforce": (),
}
# Options that no longer parse because the verb's driver never read them.
UNREAD_OPTIONS = [
    (("gen",), "--eps"),
    (("gen",), "--trials"),
    (("verify", "nu-equivalence"), "--eps"),
    (("verify", "nu-equivalence"), "--variant"),
    (("verify", "info"), "--m"),
    (("verify", "info"), "--n"),
    (("verify", "info"), "--eps"),
    (("verify", "info"), "--variant"),
]


class TestCli:
    def test_gen_and_opt(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert cli_main(["gen", "--m", "160", "--n", "4", "--seed", "5", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["m"] == 160
        assert cli_main(["opt", "--instance", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["opt"] == 160

    def test_opt_bruteforce_flag(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        cli_main(["gen", "--m", "16", "--n", "3", "--seed", "6", "--out", str(out)])
        assert cli_main(["opt", "--instance", str(out), "--bruteforce"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["opt_bruteforce"] == printed["opt"] == 16

    def test_verify_info_exit_code(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main(["verify", "info", "--trials", "20", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["passed"]

    def test_run_protocol(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main(
            ["run", "--protocol", "basis-exchange", "--m", "160", "--n", "3",
             "--trials", "2", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        measured = json.loads(out.read_text())["checks"][0]["measured"]
        assert measured["ratio_min"] == "1"
        assert measured["rounds"] == [2]

    def test_bad_config_is_usage_error(self, capsys):
        assert cli_main(["verify", "concentration", "--m", "100"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_of_budget_size_fails_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code = cli_main(["verify", "concentration", "--m", str(2**40), "--n", "4"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith("error: m * n = 4398046511104 exceeds the budget")
        assert peak < 2**20, f"tracemalloc peak {peak / 2**20:.2f} MiB"

    def test_verify_nu_equivalence_smoke(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main(
            ["verify", "nu-equivalence", "--m", "160", "--n", "4",
             "--trials", "300", "--seed", "13", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["checks"][0]["thresholds"]["significance"] == 0.001

    def test_run_protocol_on_clause_first_variant(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main(
            ["run", "--protocol", "trivial", "--m", "160", "--n", "3",
             "--trials", "3", "--seed", "5", "--variant", "nu_prime", "--out", str(out)]
        )
        assert code == 0
        measured = json.loads(out.read_text())["checks"][0]["measured"]
        assert measured["ratio_min"] == "1/2"

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BXOSLAB_SEED", "99")
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        cli_main(["gen", "--m", "16", "--n", "2", "--out", str(out1)])
        cli_main(["gen", "--m", "16", "--n", "2", "--seed", "99", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        monkeypatch.setenv("BXOSLAB_SEED", "abc")
        assert cli_main(["gen", "--m", "16", "--n", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_usage_error(self, seed, tmp_path, monkeypatch, capsys):
        # RngStream keys on the seed's low 64 bits, so -1 and 2**64 would
        # replay the instances of 2**64 - 1 and 0 under another name.
        out = tmp_path / "inst.json"
        assert cli_main(["gen", "--m", "16", "--n", "2", "--seed", str(seed), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: seed must lie in [0, 2**64), got {seed}")
        monkeypatch.setenv("BXOSLAB_SEED", str(seed))
        assert cli_main(["gen", "--m", "16", "--n", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: seed must lie")
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path, monkeypatch):
        top = 2**64 - 1
        out = tmp_path / "inst.json"
        assert cli_main(["gen", "--m", "16", "--n", "2", "--seed", str(top), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == top
        monkeypatch.setenv("BXOSLAB_SEED", str(top))
        assert cli_main(["gen", "--m", "16", "--n", "2"]) == 0

    def test_out_path_does_not_change_canonical_bytes(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            argv = ["verify", "theta", "--m", "160", "--n", "4", "--trials", "2", "--seed", "7"]
            assert cli_main([*argv, "--out", str(path)]) == 0
        a, b = (canonical_report_bytes(json.loads(p.read_text())) for p in paths)
        assert a == b

    def test_missing_instance_file(self, capsys):
        assert cli_main(["opt", "--instance", "/nonexistent.json"]) == 2

    def test_instance_path_is_a_directory(self, tmp_path, capsys):
        assert cli_main(["opt", "--instance", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_instance_json(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text("[" * 200_000)
        with pytest.raises(ConstructionError):
            load_instance(path)
        assert cli_main(["opt", "--instance", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_instance_with_infinite_field(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text('{"m": 1e400}')
        assert cli_main(["opt", "--instance", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    def test_unusable_out_fails_before_the_driver(self, where, tmp_path, monkeypatch, capsys):
        def driver(cfg):
            raise AssertionError("the driver ran")

        monkeypatch.setitem(cli._VERIFIERS, "info", driver)
        out = tmp_path / "no" / "such" / "r.json" if where == "missing-parent" else tmp_path
        assert cli_main(["verify", "info", "--trials", "1000", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_memory_error_is_unusable(self, monkeypatch, capsys):
        def driver(cfg):
            raise MemoryError

        monkeypatch.setitem(cli._VERIFIERS, "info", driver)
        assert cli_main(["verify", "info", "--trials", "1"]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"

    @pytest.mark.parametrize("verb, option", UNREAD_OPTIONS, ids=[" ".join((*v, o)) for v, o in UNREAD_OPTIONS])
    def test_options_a_driver_does_not_read_are_not_accepted(self, verb, option, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([*verb, "--seed", "1", option, *OPTION_VALUES[option]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", list(OFFERED_OPTIONS), ids=" ".join)
    def test_each_verb_offers_exactly_the_options_its_driver_reads(self, verb, capsys):
        offered = OFFERED_OPTIONS[verb]
        with pytest.raises(SystemExit) as exc:
            cli_main([*verb, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--\w+", capsys.readouterr().out)) == {"--help", *offered}
        args = cli.build_parser().parse_args([*verb, *(a for o in offered for a in (o, *OPTION_VALUES[o]))])
        for option in offered:
            parsed = getattr(args, option[2:])
            # A flag parses to True, an option to its value.
            assert parsed is True if not OPTION_VALUES[option] else (str(parsed),) == OPTION_VALUES[option]

    @pytest.mark.parametrize("verb", [v for v in OFFERED_OPTIONS if v != ("opt",)], ids=" ".join)
    def test_driver_defaults_are_experiment_configs(self, verb):
        # cli._OPTIONS holds no default: every option not given is ExperimentConfig's.
        extra = ("--protocol", "trivial") if verb == ("run",) else ()
        args = cli.build_parser().parse_args([*verb, *extra, "--seed", "9"])
        protocol = "trivial" if extra else None
        assert cli._config(args, protocol=protocol) == ExperimentConfig(seed=9, protocol=protocol)
        assert all("default" not in spec for spec in cli._OPTIONS.values())

    def test_reports_keep_the_default_config_of_options_not_offered(self, tmp_path):
        # The config block of every report names all five driver options, so
        # `verify info` and `verify nu-equivalence` record the defaults of
        # those they do not offer; the report bytes depend on it.
        defaults = {"m": 160, "n": 4, "eps": 0.002, "trials": 1, "seed": 2, "variant": "nu", "protocol": None}
        out = tmp_path / "r.json"
        assert cli_main(["verify", "info", "--trials", "3", "--seed", "2", "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())["config"].items()) == list({**defaults, "trials": 3}.items())
        argv = ["verify", "nu-equivalence", "--m", "32", "--n", "2", "--trials", "20", "--seed", "2"]
        assert cli_main([*argv, "--out", str(out)]) in (0, 1)
        config = json.loads(out.read_text())["config"]
        assert list(config.items()) == list({**defaults, "m": 32, "n": 2, "trials": 20}.items())


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


class TestScripts:
    def test_concentration_sweep_prints_one_row_per_size(self, monkeypatch, capsys):
        lines = run_script("concentration_sweep.py", ["--sizes", "160", "1600", "--trials", "2"], monkeypatch, capsys)
        assert [line.split()[0] for line in lines[1:]] == ["160", "1600"]

    def test_protocol_bench_prints_one_row_per_protocol(self, monkeypatch, capsys):
        lines = run_script("protocol_bench.py", ["--m", "160", "--trials", "3"], monkeypatch, capsys)
        assert [line.split()[0] for line in lines[2:]] == list(PROTOCOL_NAMES)
