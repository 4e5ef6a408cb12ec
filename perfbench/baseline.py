"""Run the benchmark over several seeds and summarise it per workload.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload of BENCHMARK.json this runs ``run.py`` once per seed with
``--trace 0`` (one at a time) and once with ``--trace 1``, then records each
end-to-end metric's values, median and quartile spread (the distance between
the first and third quartile as a share of the median), the traced per-layer
figures, and the environment block.  Exits 1 if any run fails or is not
correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} invocations failed")
    return result, json.loads(lines[-2])["environment"]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    summary: dict = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    try:
        for workload in workloads:
            values: dict[str, list[float]] = {}
            for seed in args.seeds:
                result, env = _run(workload, seed, seconds, 0)
                summary["environment"] = {k: v for k, v in env.items() if k not in ("seed", "traced")}
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
            entry = {
                metric["name"]: {
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "median": statistics.median(values[metric["name"]]),
                    "spread": spread(values[metric["name"]]),
                    "values": values[metric["name"]],
                }
                for metric in bench["end_to_end"]
            }
            for name, stats in entry.items():
                print(f"  {workload} {name}: median {stats['median']:.6g} {stats['unit']}, "
                      f"spread {stats['spread']:.4f} (bound {stats['bound']})", flush=True)
            summary["workloads"][workload] = {"end_to_end": entry}
            traced, _ = _run(workload, args.seeds[0], seconds, 1)
            summary["workloads"][workload]["per_layer"] = {
                name: metric["value"] for name, metric in traced["metrics"].items()
            }
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
