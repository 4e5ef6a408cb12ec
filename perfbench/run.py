"""bxoslab benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload small-m --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each interpreter is a fresh ``python3
perfbench/worker.py`` with ``src`` on the import path, started one at a time
and waited for.  With ``--trace 0``, ``SETUP_RUNS`` interpreters set up and
the middle one also runs the timed closed loop; the result reports
``trials_per_s`` (that loop), ``setup_s`` (median set-up over all
interpreters) and ``peak_rss_mb`` (the measuring interpreter's ru_maxrss);
on small-m and info both times are scaled to a reference machine speed, see
``worker.py``.
With ``--trace 1``, one interpreter alternates untraced and traced passes
for ``--seconds`` and the result reports the per-layer metrics of
``tracing.py`` and the tracing overhead.

The summary lines, an environment line and a result file under
``.perfbench/`` come first; the last line of standard output is the JSON
result.  Exit status is non-zero, with no result printed, when the sources
are missing or an interpreter crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import per_layer_metrics  # noqa: E402
from worker import ROOT, WORK, WORKLOADS  # noqa: E402

SETUP_RUNS = 3
DEADLINE_S = 170.0
END_TO_END = (
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def _interpreter(args: argparse.Namespace, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable,
        str(Path(__file__).resolve().parent / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]
    # subprocess.run kills and reaps the interpreter if it overruns.
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark interpreter exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bxoslab" / "cli.py").is_file():
        print(f"error: no bxoslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            runs = [_interpreter(args, ["--trace"], deadline)]
        else:
            # Set-up is timed in every interpreter; the setup-only ones run
            # before and after the measuring one, so the median spans the run.
            roles = [[]] * (SETUP_RUNS - 1)
            roles.insert(len(roles) // 2, ["--measure"])
            runs = [_interpreter(args, role, deadline) for role in roles]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = next(r for r in runs if "passes" in r)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        metrics = {name: {"value": measured["per_layer"][name], "unit": unit} for name, unit, _ in per_layer_metrics()}
    else:
        values = {
            "trials_per_s": measured["trials_per_s"],
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}, "
          f"{measured['passes']} timed passes")
    for name in ("trials_per_s", "setup_s", "peak_rss_mb", "trace.overhead_trials_per_s"):
        if name in metrics:
            print(f"  {name:<28} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    raw_setup_s = statistics.median(r["raw_setup_s"] for r in runs)
    print(f"  {'measured, before scaling':<28} {measured['raw_trials_per_s']:.6g} trials/s, setup {raw_setup_s:.6g} s, "
          f"reference kernel {measured['slowdown']:.3g}x slower than its reference time")
    print(f"  {'error_rate':<28} {error_rate(attempted, failed):.6g} ({failed} of {attempted} invocations failed)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    record = {**result, "environment": measured["environment"], "workload": args.workload,
              "seconds": args.seconds, "passes": measured["passes"], "raw_trials_per_s": measured["raw_trials_per_s"],
              "raw_setup_s": raw_setup_s, "slowdown": measured["slowdown"],
              "invocation_seconds": measured["invocation_seconds"]}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps({"environment": measured["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
