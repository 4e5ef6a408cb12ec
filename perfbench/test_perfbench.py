"""Tests for the benchmark's own code.  Run: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import run
import worker
from tracing import Instrumentation, Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def advance(dt):
        clock.now += dt

    leaf = tracer.wrap("leaf", advance, hot=True)

    def inner_body():
        advance(1.0)
        leaf(2.0)
        advance(0.5)

    inner = tracer.wrap("inner", inner_body)

    def outer_body():
        advance(3.0)
        inner()
        leaf(4.0)
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()

    # outer: 3 + 2 * (1 + 2 + 0.5) + 4 = 14 s, of which children cover 11.
    assert tracer.stats["outer"].calls == 1
    assert tracer.stats["outer"].self_s == pytest.approx(3.0)
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["inner"].self_s == pytest.approx(3.0)
    assert tracer.stats["leaf"].calls == 3
    assert tracer.stats["leaf"].self_s == pytest.approx(8.0)
    # Hot leaves are aggregates only; recorded spans point at their parent.
    assert [(n, s, e, p) for n, s, e, p in tracer.spans] == [
        ("outer", 0.0, 14.0, -1),
        ("inner", 3.0, 6.5, 0),
        ("inner", 10.5, 14.0, 0),
    ]
    assert tracer.per_trial(2)["cli.main.calls"] == 0


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fail():
        clock.now += 1.0
        raise ValueError("boom")

    failing = tracer.wrap("fail", fail)

    def outer_body():
        clock.now += 2.0
        with pytest.raises(ValueError):
            failing()

    tracer.wrap("outer", outer_body)()
    assert tracer.stats["fail"].self_s == pytest.approx(1.0)
    assert tracer.stats["outer"].self_s == pytest.approx(2.0)


def test_instrumentation_reaches_names_bound_at_import_and_switches_off(tmp_path):
    cli = importlib.import_module("bxoslab.cli")
    construction = importlib.import_module("bxoslab.construction")
    itemsets = importlib.import_module("bxoslab.itemsets")

    def bindings():
        return (cli.main, cli._VERIFIERS["info"], construction.part_cells, itemsets.ItemSet.__dict__["from_numpy_indices"])

    originals = bindings()
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.enable()
    try:
        assert cli.main(["verify", "info", "--trials", "2", "--seed", "1", "--out", str(tmp_path / "r.json")]) == 0
        assert cli.main(["gen", "--m", "16", "--n", "2", "--seed", "1", "--out", str(tmp_path / "i.json")]) == 0
    finally:
        instrumentation.disable()
    assert all(now is before for now, before in zip(bindings(), originals))
    assert tracer.stats["cli.main"].calls == 2
    assert tracer.stats["lab.verify_info"].calls == 1
    assert tracer.stats["lab.dump_instance"].calls == 1
    assert tracer.stats["itemsets.part_cells"].calls > 0
    assert tracer.stats["itemsets.ItemSet.from_numpy_indices"].calls > 0


def _last_json_line(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True, timeout=170, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    result = _last_json_line(["--workload", "info", "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(m["name"], m["unit"]) for m in declared] == [
        (name, value["unit"]) for name, value in result["metrics"].items()
    ]


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == per_layer_metrics()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(worker.WORKLOADS)


def test_failing_invocations_raise_error_rate(tmp_path):
    cli = importlib.import_module("bxoslab.cli")
    instance = tmp_path / "instance.json"
    mix = [
        worker.Invocation(("gen", "--m", "16", "--n", "4", "--seed", "5", "--out", str(instance)), 0,
                          partial(worker.check_instance, m=16, n=4), instance),
        worker.Invocation(("opt", "--instance", str(instance), "--bruteforce"), 1, partial(worker.check_opt, m=16)),
        # Exit code 2: m is not a multiple of 16.
        worker.Invocation(("verify", "theta", "--m", "17", "--seed", "5"), 1, worker.check_report),
        # Exits 0, but the invariant expects a universe it was not given.
        worker.Invocation(("opt", "--instance", str(instance), "--bruteforce"), 1, partial(worker.check_opt, m=32)),
    ]
    result = worker.run_pass(cli, mix)
    assert (result.attempted, result.failed, result.trials) == (4, 2, 1)
    assert run.error_rate(result.attempted, result.failed) == 0.5

    clean = worker.run_pass(cli, mix[:2])
    assert run.error_rate(clean.attempted, clean.failed) == 0


def test_only_info_reseeds_each_pass(tmp_path):
    def argvs(workload, pass_index):
        return [inv.argv for inv in worker.build_mix(workload, 7, tmp_path, pass_index)]

    assert argvs("small-m", 0) == argvs("small-m", 5)
    assert argvs("large-m", 0) == argvs("large-m", 5)
    assert argvs("info", 0) != argvs("info", 5)


def test_readme_gen_opt_pair_at_m160_is_unusable(tmp_path):
    """README lists ``gen --m 160`` followed by ``opt --bruteforce``, but the
    enumeration oracle is limited to m <= 24, so the pair exits 2.  This is
    why the small-m workload runs the pair at m = 16."""
    cli = importlib.import_module("bxoslab.cli")
    instance = tmp_path / "instance.json"
    assert cli.main(["gen", "--m", "160", "--n", "8", "--seed", "7", "--out", str(instance)]) == 0
    assert cli.main(["opt", "--instance", str(instance), "--bruteforce"]) == 2
