"""Chi-square helpers for the verification drivers.

All tests return (statistic, degrees of freedom, p-value).  Histogram bins
with small expected counts are pooled before testing so the chi-square
approximation stays honest.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

MIN_EXPECTED = 5.0


def chi2_sf(stat: float, df: int) -> float:
    if df <= 0:
        return 1.0
    # scipy.special costs about 0.3 s and 20 MiB to load; only `verify nu-equivalence` needs it.
    from scipy.special import chdtrc
    return float(chdtrc(df, stat))


def _pool_pairs(counts_a: Sequence[int], counts_b: Sequence[int]) -> list[tuple[int, int]]:
    """Pool adjacent bins until each pooled bin's combined count is usable."""
    pooled: list[tuple[int, int]] = []
    acc_a = acc_b = 0
    for ca, cb in zip(counts_a, counts_b):
        acc_a += ca
        acc_b += cb
        if acc_a + acc_b >= 2 * MIN_EXPECTED:
            pooled.append((acc_a, acc_b))
            acc_a = acc_b = 0
    if acc_a or acc_b:
        if pooled:
            la, lb = pooled[-1]
            pooled[-1] = (la + acc_a, lb + acc_b)
        else:
            pooled.append((acc_a, acc_b))
    return pooled


def two_sample_chi2(
    values_a: Iterable[int], values_b: Iterable[int]
) -> tuple[float, int, float]:
    """Homogeneity test of two samples of discrete values: an independence
    test on the (pooled bins x samples) table."""
    ca = Counter(values_a)
    cb = Counter(values_b)
    keys = sorted(set(ca) | set(cb))
    return independence_chi2(_pool_pairs([ca.get(k, 0) for k in keys], [cb.get(k, 0) for k in keys]))


def uniform_chi2(counts: Sequence[int]) -> tuple[float, int, float]:
    """Goodness of fit against the uniform law over the given bins."""
    k = len(counts)
    total = sum(counts)
    if k < 2 or total == 0:
        return 0.0, 0, 1.0
    expected = total / k
    stat = sum((c - expected) ** 2 / expected for c in counts)
    df = k - 1
    return stat, df, chi2_sf(stat, df)


def independence_chi2(table: Sequence[Sequence[int]]) -> tuple[float, int, float]:
    """Independence test on a contingency table (rows x columns)."""
    rows = [list(r) for r in table]
    row_sums = [sum(r) for r in rows]
    col_sums = [sum(col) for col in zip(*rows)]
    total = sum(row_sums)
    live_rows = [i for i, s in enumerate(row_sums) if s > 0]
    live_cols = [j for j, s in enumerate(col_sums) if s > 0]
    if len(live_rows) < 2 or len(live_cols) < 2 or total == 0:
        return 0.0, 0, 1.0
    stat = 0.0
    for i in live_rows:
        for j in live_cols:
            expected = row_sums[i] * col_sums[j] / total
            stat += (rows[i][j] - expected) ** 2 / expected
    df = (len(live_rows) - 1) * (len(live_cols) - 1)
    return stat, df, chi2_sf(stat, df)
