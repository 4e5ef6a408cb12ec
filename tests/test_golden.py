"""Golden digests of the canonical bytes of fast README CLI lines and of
the benchmark's large-m lines.

Any change to the draw stream, the drivers or the report layout changes one
of these digests; such a change must be deliberate and update them here.
The digests are keyed by the stream version they were taken at: a change to
the draws bumps ``bxoslab.STREAM_VERSION`` and ``GOLDEN_STREAM_VERSION`` in
the same diff.  Reports are hashed in their canonical form (per-check
runtimes stripped); ``gen`` output is hashed as written.
"""

import hashlib
import json

import numpy
import pytest

from bxoslab import STREAM_VERSION
from bxoslab.cli import main as cli_main
from bxoslab.lab import (
    ExperimentConfig,
    canonical_report_bytes,
    run_protocol_experiment,
    verify_concentration,
    verify_theta_recovery,
)

GOLDEN_STREAM_VERSION = 6

# Names the draw stream and the numpy release in each digest failure, so a
# numpy upgrade is told apart from a sampler change.
MISMATCH = f"digest moved at STREAM_VERSION={STREAM_VERSION}, numpy {numpy.__version__}"

COMMON = ["--m", "160", "--seed", "7"]

GOLDEN = {
    "verify-theta": (
        ["verify", "theta", *COMMON, "--n", "4", "--trials", "20"],
        "90fac027e7cf01f00c46d10f4a283e6cb30db23ff983c398c4dd99b1a088bb09",
    ),
    "verify-nu-equivalence": (
        ["verify", "nu-equivalence", *COMMON, "--n", "8", "--trials", "200"],
        "faa4f10adaba228135d9f7ff56b22140d61d3ebc7165f2fc1f1ba6372fa8c44c",
    ),
    "run-trivial": (
        ["run", "--protocol", "trivial", *COMMON, "--n", "8", "--trials", "20"],
        "3629bcc3692c88516b1fbde63a4cb131a5497964cfd98c1c968a41ca83167efa",
    ),
    "run-basis-exchange": (
        ["run", "--protocol", "basis-exchange", *COMMON, "--n", "8", "--trials", "20"],
        "05f698d75a0995b128fe5f3022129bf6a399be06cc633e6af14ca69de402ecc9",
    ),
    "run-random-clause": (
        ["run", "--protocol", "random-clause", *COMMON, "--n", "8", "--trials", "20"],
        "b12aa26096019434f8b53466d8dadb5ed65367def2b96d9e959be3f6a1772ad7",
    ),
    "run-vickrey-bundle": (
        ["run", "--protocol", "vickrey-bundle", *COMMON, "--n", "8", "--trials", "20"],
        "8ed546b0e37dd31c60b96372143893c6967daddeeebb0f91793f04a625741361",
    ),
}

GEN_DIGEST = "114300edaae53e6fafcda65968ee5316f121e2ff8015d6b67527bc26af836a10"


def test_digests_match_stream_version():
    assert GOLDEN_STREAM_VERSION == STREAM_VERSION, "re-pin the golden digests for the new stream version"


def test_gen_bytes(tmp_path):
    out = tmp_path / "instance.json"
    assert cli_main(["gen", *COMMON, "--n", "8", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_DIGEST, MISMATCH


# m = 1024: batched clause pairs (up to 64 rows per refine_masks chunk).
GEN_DIGESTS_M1024 = {
    "nu": "040c8de6d77fbc62f258fae2eef097704dd00da9ffdd585c271cd649133c7587",
    "nu_prime": "fa81d660b3171f8cdfeee45368cb60a721cfaea697463ce7ba51cf871d300a4b",
}


@pytest.mark.parametrize("variant", sorted(GEN_DIGESTS_M1024))
def test_gen_bytes_m1024(variant, tmp_path):
    out = tmp_path / "instance.json"
    argv = ["gen", "--m", "1024", "--n", "4", "--seed", "7", "--variant", variant, "--out", str(out)]
    assert cli_main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_DIGESTS_M1024[variant], MISMATCH


# m = 40000: one clause pair per refine_masks chunk, labelled by i.i.d.
# 16-bit raw Philox lanes over the whole universe in item order and fixed up
# by uniform rejection (stream version 6).
GEN_DIGESTS_M40000 = {
    "nu": "a29ca6ea83bebc32652402f31be918a2b80bd6f0131d1595b20055ca48707fd7",
    "nu_prime": "65180bf8e13a991d63452ab673702c0febe87ec5c7b91fc8e9db4a70043d08b8",
}


@pytest.mark.parametrize("variant", sorted(GEN_DIGESTS_M40000))
def test_gen_bytes_m40000(variant, tmp_path):
    out = tmp_path / "instance.json"
    argv = ["gen", "--m", "40000", "--n", "2", "--seed", "7", "--variant", variant, "--out", str(out)]
    assert cli_main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_DIGESTS_M40000[variant], MISMATCH


# ``opt`` stdout on the README instances: at m = 16 with the enumeration
# oracle, whose 2^16 splits no other digest covers; and at m = 160.
OPT_LINES = {
    "m16-bruteforce": (
        ["--m", "16", "--n", "4"],
        "8ac8bd7465fdb47a8e1cdf405f7c6304a43d8741897524c6bed0693fb3e013ee",
        ["--bruteforce"],
        "b8d0f5bddeb6d6cb31323d8fab391041e017c9caf340e37f8453ccf79787aa34",
    ),
    "m160": (
        ["--m", "160", "--n", "8"],
        GEN_DIGEST,
        [],
        "2c05d89223e2c5438d7ea8f4c8481b7f7f6eeb90b9f239fbcfe379802b45e728",
    ),
}


@pytest.mark.parametrize("name", sorted(OPT_LINES))
def test_opt_stdout_bytes(name, tmp_path, capsys):
    size, gen_digest, flags, opt_digest = OPT_LINES[name]
    out = tmp_path / "instance.json"
    assert cli_main(["gen", *size, "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == gen_digest, MISMATCH
    capsys.readouterr()
    assert cli_main(["opt", "--instance", str(out), *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == opt_digest, MISMATCH


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_canonical_bytes(name, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / "report.json"
    assert cli_main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert hashlib.sha256(canonical_report_bytes(report)).hexdigest() == digest, MISMATCH


# At m = 160 the cross intersections do not yet clear their floors, so this
# run fails (exit 1); its digest covers the exact delta table, the floors and
# the low-event tally.
CONCENTRATION_DIGEST = "3287071a02bfda42d17c2d7e2f5c8d397c822bdae2dcce1ad2e125d1b6be0e0d"


def test_concentration_report_bytes(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "concentration", *COMMON, "--n", "8", "--trials", "20", "--out", str(out)]
    assert cli_main(argv) == 1
    report = json.loads(out.read_text())
    assert hashlib.sha256(canonical_report_bytes(report)).hexdigest() == CONCENTRATION_DIGEST, MISMATCH


# At m = 16 the optimal allocation of one of five trials clears the bars of
# both copies (ambiguous, exit 1); the digest covers the exhaustive
# per-instance counts of splits clearing both bars.
THETA_M16_DIGEST = "97f42b6175634b257d8fcce627ede811310db12b487a08d315649f12ae87e4e9"


def test_theta_m16_report_bytes(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "theta", "--m", "16", "--n", "4", "--trials", "5", "--seed", "7", "--out", str(out)]
    assert cli_main(argv) == 1
    report = json.loads(out.read_text())
    assert hashlib.sha256(canonical_report_bytes(report)).hexdigest() == THETA_M16_DIGEST, MISMATCH


# The three large-m lines of the benchmark at m = 1.6M, n = 4, one trial,
# seed 5: one-row draws for every sampler, 8M-bit protocol messages.
LARGE = {"m": 1_600_000, "n": 4, "trials": 1, "seed": 5}
GOLDEN_LARGE_M = {
    "verify-concentration": (
        verify_concentration,
        {"eps": 0.002},
        "9dfe33e8351101362545960e4c20659bbff2c5c386b2c673915be1b5d6ae57f6",
    ),
    "verify-theta-nu-prime": (
        verify_theta_recovery,
        {"variant": "nu_prime"},
        "1ec602481ecac9bcf8fab29cdd3e33bb57d3ff6ad8e9ca07fc98918a1f4c9699",
    ),
    "run-basis-exchange": (
        run_protocol_experiment,
        {"protocol": "basis-exchange"},
        "60e0988e0ab3792148ebfb943cff1b857c25f8e745afef4d1d2cc726540425f0",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LARGE_M))
def test_large_m_report_bytes(name):
    driver, options, digest = GOLDEN_LARGE_M[name]
    report = driver(ExperimentConfig(**LARGE, **options))
    assert report["passed"]
    assert hashlib.sha256(canonical_report_bytes(report)).hexdigest() == digest, MISMATCH


# Case and failure counts of ``verify info --trials 100 --seed 7``.  Its
# ``worst`` residuals are roundoff whose last bits follow numpy's SIMD
# dispatch for log2, so they are pinned by rerun identity, not by digest.
INFO_COUNTS = {
    "entropy_bounds": 100,
    "joint_entropy_subadditive": 100,
    "mi_nonnegative": 100,
    "independence_zero_mi": 200,
    "chain_rule": 100,
    "data_processing": 100,
    "mi_expected_kl": 100,
    "pinsker": 200,
    "pairwise_vs_joint_bound": 100,
    "index_selection": 6,
}


def test_verify_info_structure(tmp_path):
    canonical = []
    for out in (tmp_path / "a.json", tmp_path / "b.json"):
        assert cli_main(["verify", "info", "--trials", "100", "--seed", "7", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        counts = {c["name"]: (c["measured"]["cases"], len(c["measured"]["failures"])) for c in report["checks"]}
        assert counts == {name: (cases, 0) for name, cases in INFO_COUNTS.items()}
        canonical.append(canonical_report_bytes(report))
    assert canonical[0] == canonical[1]
