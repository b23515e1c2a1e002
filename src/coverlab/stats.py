"""Small statistics helpers shared by the experiments.

Interval methods are fixed across the artifact: Wilson for proportions, standard
errors for means.  A statistic of an empty sample, or of one too short for
it, is NaN, so a cell whose every trial overran fails its checks instead of
raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at a 3-sigma-style z = 3."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    z = 3.0
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class MeanSummary:
    count: int
    mean: float
    var: float

    @property
    def se(self) -> float:
        return math.sqrt(self.var / self.count) if self.count > 1 else math.nan


def summarize_mean(values) -> MeanSummary:
    """Count, mean and sample variance; ``se`` is the standard error.  The
    mean is NaN for no values, the variance and ``se`` for fewer than two."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    mean = float(arr.mean()) if n else math.nan
    var = float(arr.var(ddof=1)) if n > 1 else math.nan
    return MeanSummary(count=n, mean=mean, var=var)


def proportion(successes: int, trials: int) -> tuple[float, float]:
    """(p, se) of a proportion; p(1 - p) is floored at 1e-12, so the standard
    error stays positive at p = 0 or 1.  NaN for no trials."""
    if trials <= 0:
        return math.nan, math.nan
    p = successes / trials
    return p, math.sqrt(max(p * (1 - p), 1e-12) / trials)


def quantile(values, q):
    """np.quantile, NaN for an empty sample."""
    arr = np.asarray(values, dtype=float)
    return np.quantile(arr, q) if arr.size else np.full(np.shape(q), math.nan)


def two_sample_chisquare(counts_a, counts_b) -> tuple[float, float]:
    """Pooled-bin two-sample chi-square; returns (statistic, p_value).

    Bins are merged greedily from the left until each pooled count reaches 5
    in both samples; a short tail joins the last pooled bin.
    """
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("count vectors must align")
    bins_a, bins_b = [], []
    acc_a = acc_b = 0.0
    for va, vb in zip(a, b):
        acc_a += va
        acc_b += vb
        if acc_a >= 5 and acc_b >= 5:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a or acc_b:
        if bins_a:
            bins_a[-1] += acc_a
            bins_b[-1] += acc_b
        else:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
    a = np.array(bins_a)
    b = np.array(bins_b)
    if a.size < 2:
        raise ValueError("too few populated bins for a chi-square test")
    na, nb = a.sum(), b.sum()
    k1 = math.sqrt(nb / na)
    k2 = math.sqrt(na / nb)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (k1 * a - k2 * b) ** 2 / (a + b)
    stat = float(np.nansum(terms))
    df = a.size - 1
    return stat, float(chdtrc(df, stat))


def linear_fit_r2(x, y) -> tuple[float, float, float]:
    """Least-squares slope, intercept, and R^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("need at least 3 points")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def variance_se(values) -> float:
    """Large-sample standard error of the sample variance, sqrt((m4 - s^4) / n);
    NaN for fewer than two values."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return math.nan
    dev = arr - arr.mean()
    var = float(dev.var(ddof=1))
    m4 = float(np.mean(dev**4))
    return math.sqrt(max(m4 - var * var, 0.0) / arr.size)
