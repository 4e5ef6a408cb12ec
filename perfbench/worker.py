"""One benchmark interpreter: set up, run a workload's mix in a closed loop,
check every output, and print one JSON line with what it measured.

``run.py`` starts this file one interpreter at a time, with ``src`` on the
import path.  Set-up is the import of ``bxoslab.cli`` plus one warm-up pass of
the mix.  The reported times of small-m and info are scaled to a reference
machine speed (see ``reference_kernel``); the measured ones are kept as
``raw_*``.  A measuring interpreter (``--measure``) then runs whole passes for
``--seconds`` with a single client: each invocation of ``bxoslab.cli.main``
starts when the previous one returns.  With ``--trace`` its passes alternate
with traced passes on the same inputs, every layer wrapped (see
``tracing.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
LARGE_M = 1_600_000
PROTOCOLS = ("trivial", "basis-exchange", "random-clause", "vickrey-bundle")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``trials`` driver trials it verifies, ``check`` lists the
    invariant misses in its parsed JSON output, which is read from ``out``
    or, when that is None, from standard output."""

    argv: tuple[str, ...]
    trials: int
    check: Callable[[dict], list[str]]
    out: Path | None = None


# ---------------------------------------------------------------------------
# Output checks.  Each returns the list of problems found (empty when fine).
# ---------------------------------------------------------------------------


def _measured(report: dict, check_name: str) -> dict:
    return next(c["measured"] for c in report["checks"] if c["name"] == check_name)


def check_report(report: dict) -> list[str]:
    problems = [f"check {c['name']} failed" for c in report["checks"] if c["status"] == "fail"]
    if report["passed"] is not True:
        problems.append("report not passed")
    return problems


def check_theta(report: dict, trials: int) -> list[str]:
    problems = check_report(report)
    if _measured(report, "theta_recovered_from_optimal_allocation")["recovered"] != trials:
        problems.append("theta not recovered on every trial")
    if _measured(report, "optimum_is_full_universe")["optimum_not_m"] != 0:
        problems.append("optimum differs from m")
    return problems


def check_basis_exchange(report: dict, m: int) -> list[str]:
    problems = check_report(report)
    outcome = _measured(report, "protocol_outcomes")
    if outcome["ratio_min"] != "1":
        problems.append(f"basis-exchange ratio_min {outcome['ratio_min']} != 1")
    if outcome["cc_bits_max"] != 5 * m:
        problems.append(f"basis-exchange cc_bits_max {outcome['cc_bits_max']} != 5m")
    return problems


def check_nu_equivalence(report: dict) -> list[str]:
    problems = check_report(report)
    rejected = _measured(report, "distribution_equivalence")["rejected"]
    if rejected:
        problems.append(f"nu-equivalence rejected {rejected}")
    return problems


def check_info(report: dict) -> list[str]:
    problems = check_report(report)
    problems += [f"info check {c['name']} has failures" for c in report["checks"] if c["measured"]["failures"]]
    return problems


def check_instance(instance: dict, m: int, n: int) -> list[str]:
    return [] if (instance["m"], instance["n"]) == (m, n) else [f"instance is not m={m}, n={n}"]


def check_opt(result: dict, m: int) -> list[str]:
    if result["opt"] == result.get("opt_bruteforce") == m:
        return []
    return [f"opt {result['opt']} / opt_bruteforce {result.get('opt_bruteforce')} != m = {m}"]


# ---------------------------------------------------------------------------
# Workload mixes.
# ---------------------------------------------------------------------------


def _report_call(workdir: Path, label: str, args: tuple, seed: int, trials: int, check) -> Invocation:
    out = workdir / f"{label}.json"
    argv = (*args, "--seed", str(seed), "--out", str(out))
    return Invocation(tuple(str(a) for a in argv), trials, check, out)


def build_mix(workload: str, seed: int, workdir: Path, pass_index: int) -> list[Invocation]:
    """The invocation mix of one pass; the seed reaches the program only as
    ``--seed``.

    The sampling workloads repeat one seed in every pass: their instances
    have a fixed size, and one seed keeps the chance of a chi-square false
    rejection at the report's 0.001 per run.  The cost of an info trial
    depends on the support sizes it draws (16 to 256 cells), so each info
    pass draws fresh joints from its own seed.
    """
    call = partial(_report_call, workdir, seed=seed)
    if workload == "small-m":
        small = ("--m", 160, "--n", 8)
        instance = workdir / "instance16.json"
        return [
            # A nu-equivalence trial counts once per variant.
            call("nu", ("verify", "nu-equivalence", *small, "--trials", 100), trials=200, check=check_nu_equivalence),
            call("theta", ("verify", "theta", "--m", 160, "--n", 4, "--trials", 20), trials=20,
                 check=partial(check_theta, trials=20)),
            *[
                call(f"run-{p}", ("run", "--protocol", p, *small, "--trials", 20), trials=20,
                     check=partial(check_basis_exchange, m=160) if p == "basis-exchange" else check_report)
                for p in PROTOCOLS
            ],
            # opt_bruteforce enumerates 2**m splits and is limited to m <= 24.
            Invocation(("gen", "--m", "16", "--n", "4", "--seed", str(seed), "--out", str(instance)), 0,
                       partial(check_instance, m=16, n=4), instance),
            Invocation(("opt", "--instance", str(instance), "--bruteforce"), 1, partial(check_opt, m=16)),
        ]
    if workload == "large-m":
        large = ("--m", LARGE_M, "--n", 4, "--trials", 1)
        return [
            call("concentration", ("verify", "concentration", *large, "--eps", 0.002), trials=1, check=check_report),
            call("theta", ("verify", "theta", *large, "--variant", "nu_prime"), trials=1,
                 check=partial(check_theta, trials=1)),
            call("run", ("run", "--protocol", "basis-exchange", *large), trials=1,
                 check=partial(check_basis_exchange, m=LARGE_M)),
        ]
    if workload == "info":
        return [call("info", ("verify", "info", "--trials", 300), seed=seed * 10_000 + pass_index, trials=300,
                     check=check_info)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("small-m", "large-m", "info")


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------


# The host's speed drifts by tens of percent over minutes: other tenants
# share its cores and caches.  A fixed dict-and-tuple kernel, timed before
# every pass, tracks that drift for the workloads made of Python objects (it
# is outside bxoslab, so no change to the program moves it), and their
# end-to-end times are scaled to the speed at which the kernel takes
# REFERENCE_KERNEL_S, about its time on a quiet 2-vCPU Xeon at 2.1 GHz.
# The bulk numpy work of large-m does not follow the kernel (scaling widened
# its run-to-run spread), so its times are reported as measured.
REFERENCE_KERNEL_S = 0.007
KERNEL_SCALED = ("small-m", "info")


def reference_kernel() -> float:
    """Seconds one run of the fixed kernel takes."""
    start = time.perf_counter()
    table = {}
    for i in range(20_000):
        table[(i, i % 7)] = float(i) * 0.5
    total = 0.0
    for key, value in table.items():
        total += value * key[1]
    sorted(table, key=lambda key: -key[0])
    return time.perf_counter() - start


def slowdown(kernel_seconds: list[float]) -> float:
    """How much slower than the reference speed the kernel ran."""
    return statistics.median(kernel_seconds) / REFERENCE_KERNEL_S


@dataclass
class PassResult:
    kernel_s: float = 0.0  # reference_kernel() just before the pass
    seconds: list[float] = field(default_factory=list)  # time inside bxoslab.cli.main, per invocation
    trials: int = 0  # trials of the invocations that succeeded
    attempted: int = 0
    failed: int = 0


def _invoke(cli, inv: Invocation) -> tuple[float, list[str]]:
    """Run one invocation; returns (seconds in main, problems found)."""
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(list(inv.argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception:  # the loop must keep running; report the crash
        traceback.print_exc()
        code = "exception"
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, [f"exit code {code}"]
    try:
        return seconds, inv.check(json.loads(inv.out.read_text() if inv.out else stdout.getvalue()))
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        return seconds, [f"unreadable output: {exc!r}"]


def run_pass(cli, mix: list[Invocation]) -> PassResult:
    """Run every invocation of the mix once.  An invocation fails on a
    non-zero exit, an unreadable output or a failed check."""
    result = PassResult(kernel_s=reference_kernel())
    for inv in mix:
        seconds, problems = _invoke(cli, inv)
        result.seconds.append(seconds)
        result.attempted += 1
        if problems:
            result.failed += 1
            print(f"FAILED {' '.join(inv.argv)}: {'; '.join(problems)}", file=sys.stderr)
        else:
            result.trials += inv.trials
    return result


def closed_loop(cli, mix_for: Callable[[int], list[Invocation]], seconds: float) -> list[PassResult]:
    """Whole passes 1, 2, ... one after another until ``seconds`` have
    elapsed; ``mix_for(i)`` gives pass ``i``'s invocations."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, mix_for(len(passes) + 1)))
    return passes


def trials_per_s(passes: list[PassResult]) -> float:
    """Trials verified per second inside ``main``: the median trials of a
    pass over a pass time built from each invocation's median time, so a
    stall in one invocation does not move the figure."""
    pass_seconds = sum(statistics.median(times) for times in zip(*(p.seconds for p in passes)))
    return statistics.median(p.trials for p in passes) / pass_seconds


def environment(seed: int, traced: bool) -> dict:
    import numpy
    import scipy

    import bxoslab

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bxoslab": bxoslab.__version__,
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "traced": traced,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--measure", action="store_true", help="run the timed loop after set-up")
    parser.add_argument("--trace", action="store_true", help="alternate timed passes with traced ones")
    args = parser.parse_args(argv)

    kernel_seconds = [reference_kernel() for _ in range(5)]
    start = time.perf_counter()
    cli = importlib.import_module("bxoslab.cli")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=WORK))
    try:
        mix_for = partial(build_mix, args.workload, args.seed, workdir)
        warm = run_pass(cli, mix_for(0))
        raw_setup_s = time.perf_counter() - start
        kernel_seconds += [reference_kernel() for _ in range(5)]
        scaled = args.workload in KERNEL_SCALED
        result = {
            "setup_s": raw_setup_s / slowdown(kernel_seconds) if scaled else raw_setup_s,
            "raw_setup_s": raw_setup_s,
            "attempted": warm.attempted,
            "failed": warm.failed,
            "environment": environment(args.seed, args.trace),
        }
        passes: list[PassResult] = []
        traced: list[PassResult] = []
        if args.trace:
            from tracing import Instrumentation, Tracer

            tracer = Tracer()
            instrumentation = Instrumentation(tracer)
            # Untraced and traced passes alternate on the same inputs, so a
            # drift in machine speed cancels out of the overhead.
            loop_start = time.perf_counter()
            while not traced or time.perf_counter() - loop_start < args.seconds:
                mix = mix_for(len(traced) + 1)
                passes.append(run_pass(cli, mix))
                instrumentation.enable()
                traced.append(run_pass(cli, mix))
                instrumentation.disable()
            untraced_rate, traced_rate = trials_per_s(passes), trials_per_s(traced)
            result["per_layer"] = {
                **tracer.per_trial(max(1, sum(p.trials for p in traced))),
                "trace.trials_per_s_untraced": untraced_rate,
                "trace.trials_per_s_traced": traced_rate,
                "trace.overhead_trials_per_s": untraced_rate - traced_rate,
            }
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")
        elif args.measure:
            passes = closed_loop(cli, mix_for, args.seconds)
        if passes:
            result["raw_trials_per_s"] = trials_per_s(passes)
            result["slowdown"] = slowdown([p.kernel_s for p in passes])
            result["trials_per_s"] = result["raw_trials_per_s"] * (result["slowdown"] if scaled else 1.0)
            result["passes"] = len(passes)
            result["invocation_seconds"] = [p.seconds for p in passes]
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["attempted"] += sum(p.attempted for p in passes + traced)
        result["failed"] += sum(p.failed for p in passes + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
