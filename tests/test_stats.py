"""The chi-square tail of ``bxoslab.stats`` and where scipy gets loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.stats import chi2

import bxoslab
from bxoslab.stats import chi2_sf


def _grid():
    """(df, x) pairs: df 1-299, 511, 1023 and 4095; x from 0 through the
    extremes of float64 to inf, plus a dense band around each df's mean."""
    dfs = [*range(1, 300), 511, 1023, 4095]
    edges = np.array([0.0, 1e-300, 1e300, np.inf])
    logs = np.logspace(-300, 300, 601)
    for df in dfs:
        band = np.linspace(0.0, df + 10 * np.sqrt(2 * df) + 10, 1000)
        yield df, np.concatenate([edges, logs, band])


def test_chi2_sf_matches_scipy_stats_bit_for_bit():
    pairs = 0
    for df, xs in _grid():
        got = np.array([chi2_sf(x, df) for x in xs.tolist()])
        want = chi2.sf(xs, df)
        mismatch = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert mismatch.size == 0, f"df={df}: x={xs[mismatch[:5]]} gives {got[mismatch[:5]]} vs {want[mismatch[:5]]}"
        pairs += xs.size
    assert pairs == 484_710


def test_chi2_sf_without_degrees_of_freedom_is_one():
    for df in (0, -1, -7):
        for x in (0.0, 1.0, 1e300, np.inf):
            assert chi2_sf(x, df) == 1.0


_SCIPY_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
import bxoslab.cli as cli

def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

seen = {}
for name, argv in [
    ("info", ["verify", "info", "--trials", "2", "--seed", "1"]),
    ("concentration", ["verify", "concentration", "--m", "160", "--n", "4", "--trials", "1", "--seed", "1"]),
    ("nu-equivalence", ["verify", "nu-equivalence", "--m", "32", "--n", "2", "--trials", "20", "--seed", "1"]),
]:
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen[name] = {"code": code, "scipy": scipy_modules()}
print(json.dumps(seen))
"""


def test_scipy_loads_only_for_chi_square_tails():
    """numpy-only verbs leave scipy unloaded; nu-equivalence loads
    scipy.special for its p-values and never scipy.stats."""
    src = str(Path(bxoslab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seen = json.loads(proc.stdout)
    for name in ("info", "concentration"):
        assert seen[name]["code"] in (0, 1)
        assert seen[name]["scipy"] == [], f"verify {name} loaded {seen[name]['scipy'][:5]}"
    nu = seen["nu-equivalence"]
    assert nu["code"] in (0, 1)
    assert "scipy.special" in nu["scipy"]
    assert not [k for k in nu["scipy"] if k == "scipy.stats" or k.startswith("scipy.stats.")]
