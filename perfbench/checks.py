"""The benchmark's own correctness checks.

Each check is a pure function of an experiment's rows (the dicts that
``ExperimentResult.rows`` holds and the CSVs print) and returns a list of
``(name, passed, detail)`` tuples, so a test can feed it a wrong result.

Monte Carlo statistics are compared with exact values at ``Z_GATE`` standard
errors.  The benchmark runs on seeds it does not choose, and comparing two
commits takes about 150 runs with up to 12 such comparisons each; at 3
standard errors a correct program would fail roughly one run in thirty.  At
4.5 (two-sided tail 6.8e-6 per comparison) a correct program fails about one
such comparison of commits in a hundred, and an error of 5 or more standard
errors still fails.
"""

from __future__ import annotations

import math
import re

Z_GATE = 4.5
REL_EXACT = 1e-12

# Program checks that compare a Monte Carlo statistic with a bound at a fixed
# number of standard errors (or a quantile slack of a few sampling errors).
# A correct program fails each of them at a known small rate, so they are
# recorded but do not decide ``correct``; the benchmark's own checks below
# re-test the same agreements at Z_GATE.
_STATISTICAL_PROGRAM_CHECK = re.compile(
    r"_mc_vs_exact|_3sigma|_within_5pct|concentration_p95|tail_exponential|two_sample_chisq|cover_gap_"
)


def program_check_gates(name: str) -> bool:
    """True when a failed program check makes the run incorrect."""
    return not _STATISTICAL_PROGRAM_CHECK.search(name)


def _within(value: float, exact: float, se: float, z: float = Z_GATE) -> tuple[bool, float]:
    """(|value - exact| <= z se, the deviation in standard errors)."""
    if not se > 0:
        return value == exact, 0.0 if value == exact else math.inf
    dev = (value - exact) / se
    return abs(dev) <= z, dev


def same_bytes(reference: dict[str, bytes], other: dict[str, bytes]) -> list[tuple]:
    """Two calls at one seed must write byte-identical CSVs."""
    out = []
    for key in sorted(reference):
        a, b = reference[key], other.get(key)
        if a == b:
            out.append((f"csv_identical_{key}", True, f"{len(a)} bytes"))
            continue
        if b is None:
            detail = "second call wrote no CSV"
        else:
            pos = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            detail = f"first difference at byte {pos} ({len(a)} vs {len(b)} bytes)"
        out.append((f"csv_identical_{key}", False, detail))
    return out


def cover_checks(rows: list[dict]) -> list[tuple]:
    """A walk needs at least n^2 - 1 steps to visit all n^2 cells, so every
    quantile of the cover time, q10 included, is at least n^2 - 1."""
    out = []
    for row in rows:
        n = int(row["n"])
        q10 = float(row["q10_steps"])
        out.append(
            (f"cover_q10_at_least_cells_n{n}", q10 >= n * n - 1, f"q10={q10:.0f} >= {n * n - 1}")
        )
    return out


def excursion_checks(rows: list[dict], d1_var_mc: float, d1_var_se: float, d1_var_exact: float):
    """E[D_1] against (2/pi) n^2 log(R/r) and against the LU solve, and
    Var(D_1) against the second-moment solve.

    The closed form is a 5 % statement: the exact E[D_1] must lie within 5 %
    of it, and the Monte Carlo mean within 5 % plus Z_GATE standard errors.
    """
    by = {row["metric"]: row for row in rows}
    mc, se = float(by["d1_mc_mean"]["value"]), float(by["d1_mc_se"]["value"])
    exact = float(by["d1_exact"]["value"])
    formula = float(by["d1_mc_mean"]["anchor"])
    out = []
    rel_exact = exact / formula - 1.0
    out.append(
        ("excursion_d1_exact_within_5pct_of_closed_form", abs(rel_exact) <= 0.05,
         f"exact={exact:.2f} (2/pi)n^2log(R/r)={formula:.2f} rel={rel_exact:+.4f}")
    )
    ok = abs(mc - formula) <= 0.05 * formula + Z_GATE * se
    out.append(
        ("excursion_d1_mc_within_5pct_of_closed_form", ok,
         f"mc={mc:.2f} formula={formula:.2f} rel={mc / formula - 1:+.4f} "
         f"(allowance 5% + {Z_GATE} se, se={se:.2f})")
    )
    ok, dev = _within(mc, exact, se)
    out.append(("excursion_d1_mc_vs_lu", ok, f"mc={mc:.2f} exact={exact:.2f} z={dev:+.2f}"))
    ok, dev = _within(d1_var_mc, d1_var_exact, d1_var_se)
    out.append(
        ("excursion_d1_var_mc_vs_lu", ok,
         f"mc var={d1_var_mc:.5g} exact={d1_var_exact:.5g} z={dev:+.2f}")
    )
    return out


_VAR_DETAIL = re.compile(r"mc var=(\S+) exact=(\S+) se=(\S+)")


def parse_variance_detail(detail: str) -> tuple[float, float, float]:
    """(mc var, exact var, se) from the excursion variance check's detail."""
    match = _VAR_DETAIL.search(detail)
    if match is None:
        raise ValueError(f"cannot read the D_1 variance from {detail!r}")
    return tuple(float(v) for v in match.groups())


# P_1[T_1 = k, T_2 = 0] = 2^-(k+1) * 2^-k for the geometric(1/2) GW process
GW_CLOSED_FORM = {"T0_0": 0.5, "T1_0": 0.125, "T2_0": 1 / 32}


def transfer_checks(rows: list[dict]) -> list[tuple]:
    """GW probabilities against their closed form, the event probabilities of
    each schedule summing to at most 1, and every MC event probability
    against the exact circle chain."""
    out = []
    for row in rows:
        tag = f"{row['schedule']}_{row['event']}"
        want = GW_CLOSED_FORM.get(row["event"])
        got = float(row["gw_prob"])
        ok = want is not None and abs(got - want) <= REL_EXACT * want
        out.append((f"transfer_gw_closed_form_{tag}", ok, f"gw_prob={got!r} closed form={want!r}"))
        p, n = float(row["exact_walk_prob"]), int(row["trials"])
        se = math.sqrt(p * (1 - p) / n) if n > 0 else 0.0
        ok, dev = _within(float(row["mc_prob"]), p, se)
        out.append(
            (f"transfer_mc_vs_chain_{tag}", ok,
             f"mc={float(row['mc_prob']):.5f} chain={p:.5f} trials={n} z={dev:+.2f}")
        )
    for schedule in sorted({row["schedule"] for row in rows}):
        mine = [row for row in rows if row["schedule"] == schedule]
        for col in ("exact_walk_prob", "mc_prob"):
            total = math.fsum(float(row[col]) for row in mine)
            out.append(
                (f"transfer_{schedule}_{col}_sum_at_most_1", total <= 1 + REL_EXACT,
                 f"sum over {len(mine)} events = {total:.6f}")
            )
    return out


def barrier_checks(rows: list[dict]) -> list[tuple]:
    """Every Monte Carlo barrier cell against the convolution DP, with the
    binomial standard error of the exact probability."""
    out = []
    for row in rows:
        n = int(row["trials"])
        if n <= 0:
            continue
        p, p_hat = float(row["p_exact"]), float(row["p_hat"])
        se = math.sqrt(p * (1 - p) / n)
        ok, dev = _within(p_hat, p, se)
        tag = f"{row['mode']}_L{row['L']}_y{float(row['y']):g}"
        out.append(
            (f"barrier_mc_vs_dp_{tag}", ok, f"p_hat={p_hat:.5g} p_exact={p:.5g} z={dev:+.2f}")
        )
    return out
