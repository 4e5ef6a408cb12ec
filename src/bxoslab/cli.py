"""Command-line entry point.

Verbs: ``gen`` writes a sampled instance as JSON; ``verify`` runs one of the
verification drivers (concentration, theta, nu-equivalence, info); ``opt``
prints the exact optimum of a stored instance; ``run`` executes a registered
protocol over sampled instances.  Each verb offers only the options its
driver reads, plus ``--seed`` and ``--out`` (``opt`` has neither).  Exit 0
means every check passed, 1 that one failed, 2 an unusable invocation.  The
default seed is ``$BXOSLAB_SEED`` (or 0); ``--seed`` overrides it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .construction import VARIANTS
from .lab import (
    ConfigError,
    ExperimentConfig,
    dump_instance,
    generate_instance,
    instance_to_json,
    load_instance,
    report_to_json,
    run_protocol_experiment,
    verify_concentration,
    verify_info,
    verify_nu_equivalence,
    verify_theta_recovery,
    write_report,
)
from .protocols import PROTOCOL_NAMES
from .valuations import build_valuations, opt_bruteforce, opt_clause_pair

_VERIFIERS = {
    "concentration": verify_concentration,
    "theta": verify_theta_recovery,
    "nu-equivalence": verify_nu_equivalence,
    "info": verify_info,
}


def _default_seed() -> int:
    raw = os.environ.get("BXOSLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"BXOSLAB_SEED must be an integer, got {raw!r}") from None


def _check_out(path: str) -> None:
    """Reject an unusable ``--out`` before a driver spends time computing."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"--out {path!r} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"--out {path!r}: parent directory does not exist")


# Driver options; their defaults, and the values of options a verb does not
# offer, are ExperimentConfig's.
_OPTIONS = {
    "m": dict(type=int, help="universe size (multiple of 16)"),
    "n": dict(type=int, help="clause indices per bidder"),
    "eps": dict(type=float, help="slack fraction of m"),
    "trials": dict(type=int, help="instances or trials to run"),
    "variant": dict(choices=VARIANTS),
}


def _add_common(parser: argparse.ArgumentParser, reads: tuple[str, ...] = tuple(_OPTIONS)) -> None:
    for name in reads:
        parser.add_argument(f"--{name}", default=argparse.SUPPRESS, **_OPTIONS[name])
    parser.add_argument("--seed", type=int, default=None, help="master seed (default: $BXOSLAB_SEED or 0)")
    parser.add_argument("--out", type=str, default=None, help="write the JSON result here")


# Built once per process: parse_args keeps no state between calls.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bxoslab")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample one instance and write it as JSON")
    _add_common(gen, ("m", "n", "variant"))

    verify = sub.add_parser("verify", help="run a verification driver")
    what = verify.add_subparsers(dest="what", required=True)
    reads = {"nu-equivalence": ("m", "n", "trials"), "info": ("trials",)}
    for name in sorted(_VERIFIERS):
        _add_common(what.add_parser(name), reads.get(name, tuple(_OPTIONS)))

    opt = sub.add_parser("opt", help="exact optimum of a stored instance, printed to stdout")
    opt.add_argument("--instance", type=str, required=True, help="path to an instance JSON")
    opt.add_argument("--bruteforce", action="store_true", help="also run the enumeration oracle")

    run = sub.add_parser("run", help="execute a protocol over sampled instances")
    run.add_argument("--protocol", type=str, required=True, choices=PROTOCOL_NAMES)
    _add_common(run)
    return parser


def _config(args: argparse.Namespace, protocol: str | None = None) -> ExperimentConfig:
    seed = args.seed if args.seed is not None else _default_seed()
    options = {name: getattr(args, name) for name in _OPTIONS if hasattr(args, name)}
    return ExperimentConfig(**options, seed=seed, protocol=protocol)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        if args.command == "gen":
            inst = generate_instance(_config(args))
            if args.out:
                dump_instance(inst, args.out)
            else:
                print(json.dumps(instance_to_json(inst), indent=2))
            return 0

        if args.command == "opt":
            inst = load_instance(args.instance)
            va, vb, *_ = build_valuations(inst)
            i, j, value = opt_clause_pair(va, vb)
            result = {"opt": value, "alice_clause": i, "bob_clause": j}
            if args.bruteforce:
                result["opt_bruteforce"] = opt_bruteforce(va, vb)
            print(json.dumps(result, indent=2))
            return 0 if result.get("opt_bruteforce", value) == value else 1

        if args.command == "verify":
            report = _VERIFIERS[args.what](_config(args))
        else:  # run
            report = run_protocol_experiment(_config(args, protocol=args.protocol))

        if args.out:
            write_report(report, args.out)
        else:
            print(report_to_json(report))
        return 0 if report["passed"] else 1
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        # ConfigError and ConstructionError are ValueErrors; so are bad
        # payloads and out-of-range oracle requests.  OSError covers
        # unreadable or unwritable paths, MemoryError sizes too large for
        # this machine.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
