"""Per-layer tracing of bxoslab from outside the package.

A :class:`Tracer` wraps the public functions of each layer (the package
modules) and accumulates, per function, the call count, the self time (span
duration minus the time covered by directly nested wrapped calls) and a few
exact work counts.  Calls are strictly nested in one thread, so self time is
kept exactly with a stack of per-frame child totals.

Functions called many times per trial are *hot*: they are kept only as
aggregate counters.  Every other call is also kept as an individual span
(name, start, end, parent span) in memory and written out by
:meth:`Tracer.write` when the run ends.

:class:`Instrumentation` switches the wrappers on and off.  Where one
module reached another through a name bound at import (``construction``
calls ``part_cells`` and ``refine_sample``; ``cli`` keeps its drivers in a
dict), the name is rebound in the caller's module too, so every call site
goes through the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _items_shuffled(args, kwargs, result) -> tuple[int]:
    # refine_sample permutes a cell unless all of its items land in one class.
    cells = _arg(args, kwargs, 0, "base_cells")
    rows = _arg(args, kwargs, 1, "class_counts")
    return (sum(c.bits.bit_count() for c, row in zip(cells, rows) if sum(1 for x in row if x) > 1),)


def _clause_pairs(args, kwargs, result) -> tuple[int]:
    return (len(_arg(args, kwargs, 0, "va").clauses) * len(_arg(args, kwargs, 1, "vb").clauses),)


@dataclass(frozen=True)
class Probe:
    """One traced function: ``qualname`` is ``func`` or ``Class.method``
    inside ``bxoslab.<layer>``; ``counts`` names the exact work counts that
    ``count(args, kwargs, result)`` returns, in order."""

    layer: str
    qualname: str
    counts: tuple[str, ...] = ()
    count: Callable | None = None
    hot: bool = False

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.qualname}"


PROBES = (
    Probe("itemsets", "part_cells", hot=True),
    Probe("itemsets", "part_profile", hot=True),
    Probe("itemsets", "ItemSet.indices", ("items",), lambda a, k, r: (int(r.size),), hot=True),
    Probe("itemsets", "ItemSet.from_numpy_indices", hot=True),
    Probe("rng", "RngStream.child"),
    Probe("sampling", "refine_sample", ("items_shuffled",), _items_shuffled, hot=True),
    Probe("construction", "sample_instance"),
    Probe("construction", "sample_basis"),
    Probe("construction", "sample_compatible"),
    Probe("construction", "sample_clause_pair", hot=True),
    Probe("construction", "sample_special_pair"),
    Probe("construction", "sample_second_basis"),
    Probe("construction", "Instance.validate"),
    Probe("valuations", "build_valuations"),
    Probe("valuations", "opt_clause_pair", ("pairs",), _clause_pairs),
    Probe("valuations", "recover_theta"),
    Probe(
        "valuations",
        "cross_intersections",
        ("intersections",),
        lambda a, k, r: (len(r.regular) + len(r.special_a) + len(r.special_b),),
    ),
    Probe("valuations", "opt_bruteforce", ("splits",), lambda a, k, r: (1 << _arg(a, k, 0, "va").m,)),
    Probe("protocols", "run_on_instance"),
    Probe("protocols", "execute", ("cc_bits", "rounds"), lambda a, k, r: (r.cc_bits, r.rounds)),
    Probe("stats", "two_sample_chi2"),
    Probe("stats", "uniform_chi2"),
    Probe("stats", "independence_chi2"),
    Probe(
        "infotheory",
        "verify_identities",
        ("cases",),
        lambda a, k, r: (sum(entry["cases"] for entry in r["checks"].values()),),
    ),
    Probe("infotheory", "random_joint"),
    Probe("infotheory", "JointDistribution.marginal", hot=True),
    Probe("infotheory", "JointDistribution.mutual_information", hot=True),
    Probe("infotheory", "JointDistribution.with_derived"),
    Probe("infotheory", "divergences", hot=True),
    Probe("lab", "verify_concentration"),
    Probe("lab", "verify_theta_recovery"),
    Probe("lab", "verify_nu_equivalence"),
    Probe("lab", "verify_info"),
    Probe("lab", "run_protocol_experiment"),
    Probe("lab", "write_report", ("bytes",), lambda a, k, r: (os.path.getsize(_arg(a, k, 1, "path")),)),
    Probe("lab", "dump_instance"),
    Probe("lab", "instance_from_json"),
    Probe("cli", "main"),
)

# Per-layer metrics are reported per verified trial, so they do not depend
# on how many passes fit in the run.
PER_TRIAL_UNITS = {"calls": "count/trial", "self_s": "s/trial", "bytes": "B/trial"}
OVERHEAD_METRICS = (
    ("trace.trials_per_s_untraced", "1/s", "higher"),
    ("trace.trials_per_s_traced", "1/s", "higher"),
    ("trace.overhead_trials_per_s", "1/s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints, in order."""
    out = []
    for probe in PROBES:
        for key in ("calls", "self_s", *probe.counts):
            out.append((f"{probe.name}.{key}", PER_TRIAL_UNITS.get(key, "count/trial"), "lower"))
    return out + list(OVERHEAD_METRICS)


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0
    counts: list = field(default_factory=list)


class Tracer:
    """Accumulates self time and counts per wrapped function.

    ``spans`` holds ``(name, start, end, parent)`` for every call of a
    non-hot function; ``parent`` is the index of the nearest enclosing
    recorded span, or -1.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        # One frame per active call: [time covered by its children, recorded span index].
        self._stack: list[list] = [[0.0, -1]]

    def wrap(self, name: str, fn: Callable, counts: tuple[str, ...] = (), count=None, hot: bool = False):
        stat = self.stats.setdefault(name, _Stat(counts=[0] * len(counts)))
        clock, stack, spans = self.clock, self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if not hot:
                frame[1] = len(spans)
                spans.append((name, 0.0, 0.0, parent[1]))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if not hot:
                    spans[frame[1]] = (name, start, end, parent[1])
            if count is not None:
                for i, value in enumerate(count(args, kwargs, result)):
                    stat.counts[i] += value
            return result

        return traced

    def per_trial(self, trials: int) -> dict[str, float]:
        """Every probe's calls, self time and counts divided by ``trials``."""
        out = {}
        for probe in PROBES:
            stat = self.stats.get(probe.name, _Stat(counts=[0] * len(probe.counts)))
            out[f"{probe.name}.calls"] = stat.calls / trials
            out[f"{probe.name}.self_s"] = stat.self_s / trials
            for key, value in zip(probe.counts, stat.counts):
                out[f"{probe.name}.{key}"] = value / trials
        return out

    def write(self, path: str | os.PathLike) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[index[n], start, end, parent] for n, start, end, parent in self.spans],
            "aggregates": {
                name: {"calls": s.calls, "self_s": s.self_s, "counts": s.counts} for name, s in self.stats.items()
            },
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class Instrumentation:
    """Every binding of a probed function inside the loaded ``bxoslab``
    modules, paired with its traced wrapper; :meth:`enable` switches all of
    them to the wrappers and :meth:`disable` back to the originals."""

    def __init__(self, tracer: Tracer) -> None:
        # (namespace, key, original, wrapped); a namespace is a class, a module or a dict.
        self.bindings: list[tuple[object, str, object, object]] = []
        for probe in PROBES:
            module = importlib.import_module(f"bxoslab.{probe.layer}")
            owner_name, _, attr = probe.qualname.rpartition(".")
            wrap = functools.partial(tracer.wrap, probe.name, counts=probe.counts, count=probe.count, hot=probe.hot)
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                wrapped = classmethod(wrap(raw.__func__)) if isinstance(raw, classmethod) else wrap(raw)
                self.bindings.append((owner, attr, raw, wrapped))
                continue
            original = getattr(module, attr)
            wrapped = wrap(original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "bxoslab" and not mod_name.startswith("bxoslab."):
                    continue
                for key, value in vars(mod).items():
                    if value is original:
                        self.bindings.append((mod, key, original, wrapped))
                    elif isinstance(value, dict):
                        self.bindings += [(value, k, original, wrapped) for k, v in value.items() if v is original]

    def _set(self, traced: bool) -> None:
        for namespace, key, original, wrapped in self.bindings:
            value = wrapped if traced else original
            if isinstance(namespace, dict):
                namespace[key] = value
            else:
                setattr(namespace, key, value)

    def enable(self) -> None:
        self._set(True)

    def disable(self) -> None:
        self._set(False)
