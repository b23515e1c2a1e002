"""Experiment orchestration: cover-time trends, excursion-length concentration,
transfer-lemma ratio checks, GW equivalence, barrier sweeps, curve reports,
and the oracle cross-validation battery.

Every experiment is a pure function of (config, master seed): trial t of a
named section draws from the Philox key ``[stream_key(seed, experiment,
section), t]``, so no two sections or seeds share a stream; reduction is a fold
in trial-index order, and CSV output is formatted deterministically, so a
re-run reproduces the output byte for byte.  ``_map_trials`` runs every
trial, in bounded groups of walks that advance in lockstep where the trial
function takes groups, counts budget overruns and leaves those trials out of
the summaries; ``_result`` builds every result and writes every CSV.
"""

from __future__ import annotations

import itertools
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gw, oracle, schedule, stats
from .excursions import circle_machine, detect_late_event, validate_radii
from .lattice import (
    BudgetExceededError,
    TorusPoint,
    WalkState,
    advance_group_to_mask,
    ball_mask,
    cover_time,
    default_cover_budget,
    exterior_boundary_mask,
    outcome_or_raise,
    philox_stream,
    stream_key,
)

# -- configuration -------------------------------------------------------------


@dataclass
class ExperimentConfig:
    name: str
    n_values: tuple[int, ...] = ()
    trials: int = 0
    seed: int = 0
    out: str | Path | None = None
    schedule_spec: str = "toy:4,2"
    params: schedule.ParamSet | None = None
    kappa_plus: float = 2.0
    kappa_minus: float = 2.0
    workers: int | None = None

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trial count must be >= 1 (0 selects the default)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0 (got {self.seed})")
        self.worker_count()  # a non-positive count is a usage error before any run

    def worker_count(self) -> int:
        if self.workers is not None:
            workers, source = self.workers, "workers"
        else:
            workers, source = int(os.environ.get("COVERLAB_WORKERS") or 1), "COVERLAB_WORKERS"
        if workers < 1:
            raise ValueError(f"{source} must be >= 1 (got {workers})")
        return workers


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentResult:
    name: str
    schema: list[str]
    rows: list[dict]
    checks: list[Check]
    late_rows: list[dict] | None = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def load_tolerances() -> dict[str, float]:
    """Tolerance manifest: plain key = value lines, '#' comments."""
    path = Path(__file__).parent / "tolerances.txt"
    out: dict[str, float] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = float(value.strip())
    return out


def emit_csv(path: str | Path, rows: list[dict], schema: list[str]) -> Path:
    """Write rows in schema order with deterministic formatting (LF, UTF-8)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(schema)]
    for row in rows:
        cells = []
        for col in schema:
            v = row[col]
            if isinstance(v, (bool, np.bool_)):
                cells.append("1" if v else "0")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            elif isinstance(v, (float, np.floating)):
                cells.append(f"{float(v):.10g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return path


def _result(cfg, name, schema, rows, checks, late_rows=None) -> ExperimentResult:
    """The experiment's result; writes its CSV when ``cfg.out`` is set, and
    the late-event table beside it as ``.late.csv`` when there is one."""
    if cfg.out:
        emit_csv(cfg.out, rows, schema)
        if late_rows is not None:
            emit_csv(Path(cfg.out).with_suffix(".late.csv"), late_rows, LATE_SCHEMA)
    return ExperimentResult(name, schema, rows, checks, late_rows=late_rows)


# Trials a worker hands a grouped trial function at once: enough walks to
# fill a scan round of first blocks (32 x 1024 moves).  Larger groups ran no
# faster on transfer and raised peak RSS (+1 MiB at 64 on excursion).
_GROUP = 32


class _Grouped:
    """A trial function that runs trials in groups.

    ``fn.group(payload, trials)`` returns each trial's outcome, or the
    BudgetExceededError of its overrun; ``fn(payload, trial)`` runs one trial
    and raises on an overrun.
    """

    def __init__(self, group):
        self.group = group

    def __call__(self, payload, trial):
        return outcome_or_raise(self.group(payload, [trial])[0])


def _each(outcomes, fn):
    """fn of every outcome that is not an overrun; overruns pass through."""
    return [o if isinstance(o, BudgetExceededError) else fn(o) for o in outcomes]


def _map_trials(fn, payload, n_trials: int, cfg: ExperimentConfig):
    """Run fn(payload, trial_index) for every trial on ``cfg``'s workers,
    through ``fn.group`` in groups of at most ``_GROUP`` trials when fn has it.

    Returns (results of the trials that finished, in trial order, number of
    trials that raised BudgetExceededError)."""
    workers = cfg.worker_count()
    if workers <= 1:
        out = _run_chunk((fn, payload, range(n_trials)))
    else:
        chunks = workers * 4
        ranges = [range(i, n_trials, chunks) for i in range(chunks)]
        out = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_chunk, [(fn, payload, r) for r in ranges]):
                out.update(part)
    finished = [out[t] for t in range(n_trials) if out[t] is not None]
    return finished, n_trials - len(finished)


def _run_chunk(args):
    """Outcomes of the listed trials; None marks a budget overrun."""
    fn, payload, trials = args
    group = getattr(fn, "group", None) or (lambda p, ts: [_outcome(fn, p, t) for t in ts])
    trials = list(trials)
    out = {}
    for lo in range(0, len(trials), _GROUP):
        part = trials[lo : lo + _GROUP]
        for t, o in zip(part, group(payload, part)):
            out[t] = None if isinstance(o, BudgetExceededError) else o
    return out


def _outcome(fn, payload, trial):
    try:
        return fn(payload, trial)
    except BudgetExceededError as err:
        return err


def _parse_toy(spec: str) -> tuple[int, float]:
    body = spec.split(":", 1)[1]
    L_str, ell_str = body.split(",")
    return int(L_str), float(ell_str)


# -- cover experiment -----------------------------------------------------------


def _cover_trial(payload, trial):
    n, key = payload
    walk = WalkState(TorusPoint(0, 0, n), seed=key, stream=trial)
    return cover_time(walk, default_cover_budget(n))


COVER_SCHEMA = [
    "n", "trials", "failures", "mean_steps", "se_steps", "median_steps",
    "q10_steps", "q90_steps", "norm_mean", "tau_hat", "tau_hat_se",
    "anchor_leading", "anchor_second_order", "anchor_2logn", "anchor_2logn_minus_ll",
    "band_lo", "band_hi", "in_band", "gap", "gap_se", "loglog_n", "fitted_exponent",
]


def run_cover_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Cover-time trend run: normalized means against the exact finite-n
    bracket, with both theory anchors reported.

    The second-order window itself is an asymptotic statement; at desk scale
    the gap statistic 2 log n - tau_hat is reported and tested for monotone
    movement toward the -log log n correction.  The band [band_lo, band_hi]
    is Matthews' exact bracket on E[t_cov] (oracle.matthews_cover_bracket)
    in norm_mean units, which any correct engine's mean must sit inside.
    """
    tol = load_tolerances()
    n_values = cfg.n_values or (64, 128, 256)
    default_trials = {64: 3000, 128: 2000, 256: 1200}
    rows = []
    checks = []
    gaps = []
    for n in n_values:
        trials = cfg.trials or default_trials.get(n, 500)
        payload = (n, stream_key(cfg.seed, "cover", f"n{n}"))
        vals, failures = _map_trials(_cover_trial, payload, trials, cfg)
        if not vals:
            rows.append(
                dict.fromkeys(COVER_SCHEMA, float("nan"))
                | dict(n=n, trials=trials, failures=failures, in_band=False)
            )
            checks.append(
                Check(f"cover_band_n{n}", False, f"all {trials} trials exceeded the budget")
            )
            continue
        good = np.array(vals, dtype=float)
        summ = stats.summarize_mean(good)
        logn = math.log(n)
        loglog = math.log(logn)
        norm_mean = summ.mean / (n * n * logn**2)
        tau_hat = summ.mean / ((2 / math.pi) * n * n * logn)
        tau_hat_se = summ.se / ((2 / math.pi) * n * n * logn)
        anchor1 = 4 / math.pi
        anchor2 = (4 / math.pi) * (1 - loglog / (2 * logn))
        lower, upper = oracle.matthews_cover_bracket(n)
        band_lo = lower / (n * n * logn**2)
        band_hi = upper / (n * n * logn**2)
        gap = 2 * logn - tau_hat
        resid = tau_hat - (2 * logn - loglog)
        fitted_exponent = math.log(abs(resid)) / math.log(loglog) if resid != 0 else 0.0
        rows.append(
            dict(
                n=n, trials=trials, failures=failures, mean_steps=summ.mean,
                se_steps=summ.se, median_steps=float(np.median(good)),
                q10_steps=float(np.quantile(good, 0.10)),
                q90_steps=float(np.quantile(good, 0.90)),
                norm_mean=norm_mean, tau_hat=tau_hat, tau_hat_se=tau_hat_se,
                anchor_leading=anchor1, anchor_second_order=anchor2,
                anchor_2logn=2 * logn, anchor_2logn_minus_ll=2 * logn - loglog,
                band_lo=band_lo, band_hi=band_hi,
                in_band=band_lo <= norm_mean <= band_hi,
                gap=gap, gap_se=tau_hat_se, loglog_n=loglog,
                fitted_exponent=fitted_exponent,
            )
        )
        gaps.append((n, gap, tau_hat_se))
        checks.append(
            Check(
                f"cover_band_n{n}",
                band_lo <= norm_mean <= band_hi,
                f"norm_mean={norm_mean:.4f} Matthews bracket=[{band_lo:.4f}, "
                f"{band_hi:.4f}] (second-order anchor {anchor2:.4f})",
            )
        )
    slack_z = tol["cover.trend_slack_sigma"]
    trend_ok = True
    details = []
    if len(gaps) < 2:
        gaps = []  # trend undefined on a single surviving cell
    for (n0, g0, s0), (n1, g1, s1) in zip(gaps, gaps[1:]):
        slack = slack_z * math.hypot(s0, s1)
        ok = g1 > g0 - slack
        trend_ok &= ok
        details.append(f"g({n1})={g1:.3f} vs g({n0})={g0:.3f} (slack {slack:.3f})")
    if gaps:
        overall = gaps[-1][1] > gaps[0][1]
        checks.append(Check("cover_gap_monotone", trend_ok, "; ".join(details)))
        checks.append(
            Check(
                "cover_gap_moves_toward_correction",
                overall,
                f"g({gaps[-1][0]})={gaps[-1][1]:.3f} > g({gaps[0][0]})={gaps[0][1]:.3f}",
            )
        )
    return _result(cfg, "cover", COVER_SCHEMA, rows, checks)


# -- excursion length experiment --------------------------------------------------


def _excursion_clock_trials(payload, trials):
    """D_m of one clock per trial, started from cell ``starts[trial]``."""
    machine, m, key, starts, cap = payload
    n = machine.n
    walks = [
        WalkState(TorusPoint(int(starts[t]) // n, int(starts[t]) % n, n), seed=key, stream=t)
        for t in trials
    ]
    ran = machine.run_group(walks, m, [cap] * len(walks))
    return _each(ran, lambda out: out[1].departures[-1])


_excursion_clock_trial = _Grouped(_excursion_clock_trials)


def _quantile(vals, q):
    """np.quantile, NaN for a cell whose every trial overran."""
    return np.quantile(vals, q) if vals.size else np.full(np.shape(q), math.nan)


def _overruns(count):
    return f"; budget overruns: {count}" if count else ""


EXCURSION_SCHEMA = [
    "n", "r", "R", "m", "trials", "failures", "metric", "value", "anchor", "provenance",
]


def run_excursion_length_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Excursion-length laws: E[D_1] vs (2/pi) n^2 log(R/r), concentration of
    D_m, and the exponential tail of D_1.

    The concentration bound comes from the exact law of one cycle: with
    cycles close to independent, |D_m / (E[D_1](m-1)) - 1| has 95th
    percentile z_0.975 relSD(D_1) / sqrt(m-1), and the check allows the
    manifest's slack for the sampling error of that quantile."""
    tol = load_tolerances()
    n = cfg.n_values[0] if cfg.n_values else 128
    r, m = 4.0, 100
    R = 32.0 if n >= 128 else n / 4.0
    center = TorusPoint(n // 2, n // 2, n)
    ws = oracle.EquilibriumWorkspace(center, r, R, n)
    pair = ws.equilibrium_pair()
    d1_exact = ws.expected_d1()
    d1_mean_exact, d1_var_exact = ws.d1_moments()
    d1_relsd = math.sqrt(d1_var_exact) / d1_mean_exact
    formula = (2 / math.pi) * n * n * math.log(R / r)
    mu_cum = np.cumsum(pair.mu_outer)
    cap = int(200 * formula)
    machine = circle_machine(center, [R, r])

    def clocks(section, m_cell, starts):
        """D_m of one clock per start cell, and the cell's overruns."""
        key = stream_key(cfg.seed, "excursion", section)
        payload = (machine, m_cell, key, starts, cap * m_cell)
        vals, fail = _map_trials(_excursion_clock_trial, payload, len(starts), cfg)
        return np.array(vals, dtype=float), fail

    # D_1 starts from the equilibrium outer measure, the right law for the
    # E[D_1] comparison; the D_m cells start at the center, which makes the
    # pre-equilibrium segment negligible, matching the (m - 1) normalisation
    # of the concentration statement
    trials_d1 = cfg.trials or 10_000
    u = philox_stream(stream_key(cfg.seed, "excursion", "d1_start"), 0).random(trials_d1)
    d1_vals, d1_fail = clocks("d1", 1, pair.outer_codes[np.searchsorted(mu_cum, u)])
    # NaN statistics, and so failed checks, if every D_1 clock overran
    d1_summ = stats.summarize_mean(d1_vals if d1_vals.size else [math.nan])
    d1_var_se = stats.variance_se(d1_vals) if d1_vals.size > 1 else math.nan

    trials_dm = max(300, cfg.trials // 16) if cfg.trials else 2500
    dm_vals, dm_fail = clocks("dm", m, np.full(trials_dm, center.code))
    ratios = np.abs(dm_vals / (d1_exact * (m - 1)) - 1.0)
    p95 = float(_quantile(ratios, 0.95))
    z975 = statistics.NormalDist().inv_cdf(0.975)
    p95_bound = (1 + tol["excursion.conc_p95_slack"]) * z975 * d1_relsd / math.sqrt(m - 1)

    # deviation quantiles across an m-sweep: p90 * (m-1)/sqrt(m) should be
    # m-free if the relative spread shrinks like m^(-1/2)
    sweep_stats = {}
    sweep_fail = 0
    sweep_trials = max(200, trials_dm // 8)
    for m_small in (9, 25, m):
        vals, fail = clocks(f"sweep_m{m_small}", m_small, np.full(sweep_trials, center.code))
        sweep_fail += fail
        dev = np.abs(vals / (d1_exact * (m_small - 1)) - 1.0)
        sweep_stats[m_small] = float(_quantile(dev, 0.90)) * (m_small - 1) / math.sqrt(m_small)
    # NaN if a sweep cell overran in full
    spread_ratio = float(np.max(list(sweep_stats.values())) / np.min(list(sweep_stats.values())))

    # tail: empirical log-survival over the upper decade of D_1
    qs = np.linspace(0.90, 0.99, 10)
    lam = _quantile(d1_vals, qs)
    surv = 1.0 - qs
    slope, intercept, r2 = (
        stats.linear_fit_r2(lam, np.log(surv)) if d1_vals.size else (math.nan,) * 3
    )
    fitted_rate = -slope * n * n * math.log(n / r)

    rows = []

    def add(metric, value, anchor, provenance):
        rows.append(
            dict(
                n=n, r=r, R=R, m=m, trials=trials_d1, failures=d1_fail + dm_fail + sweep_fail,
                metric=metric, value=value, anchor=anchor, provenance=provenance,
            )
        )

    add("d1_mc_mean", d1_summ.mean, formula, "paper:lemma_a2")
    add("d1_mc_se", d1_summ.se, 0.0, "derived:mc")
    add("d1_exact", d1_exact, formula, "oracle:linear_solve")
    add("dm_ratio_p95", p95, p95_bound, "paper:prop_a10")
    add("dm_ratio_p50", float(_quantile(ratios, 0.50)), 0.0, "derived:mc")
    for m_small, s in sweep_stats.items():
        add(f"spread_shape_m{m_small}", s, 0.0, "derived:mc")
    add("spread_shape_ratio", spread_ratio, 3.0, "derived:mc")
    add("tail_fit_slope", slope, 0.0, "paper:lemma_a3")
    add("tail_fit_r2", r2, tol["excursion.tail_r2_min"], "derived:mc")
    add("tail_rate_scaled", fitted_rate, 0.0, "paper:lemma_a3")

    checks = [
        Check(
            "excursion_d1_within_5pct",
            abs(d1_summ.mean / formula - 1.0) <= tol["excursion.d1_rel_tol"],
            f"mc={d1_summ.mean:.1f} formula={formula:.1f} "
            f"rel={d1_summ.mean / formula - 1.0:+.4f}{_overruns(d1_fail)}",
        ),
        Check(
            "excursion_d1_mc_vs_exact_3sigma",
            abs(d1_summ.mean - d1_exact) <= 3 * d1_summ.se,
            f"mc={d1_summ.mean:.1f} exact={d1_exact:.1f} se={d1_summ.se:.1f}"
            f"{_overruns(d1_fail)}",
        ),
        Check(
            "excursion_concentration_d1_variance_mc_vs_exact",
            abs(d1_summ.var - d1_var_exact) <= tol["oracle.mc_sigma"] * d1_var_se,
            f"mc var={d1_summ.var:.4e} exact={d1_var_exact:.4e} se={d1_var_se:.2e} "
            f"(exact relSD(D_1)={d1_relsd:.4f}){_overruns(d1_fail)}",
        ),
        Check(
            "excursion_concentration_p95",
            p95 <= p95_bound,
            f"p95(|D_m/(E[D_1](m-1)) - 1|)={p95:.4f} over {dm_vals.size} trials "
            f"<= (1+s) z_0.975 relSD(D_1)/sqrt(m-1) = {p95_bound:.4f}{_overruns(dm_fail)}",
        ),
        Check(
            "excursion_spread_shrinks_like_sqrt_m",
            spread_ratio <= 3.0,
            f"p90 * (m-1)/sqrt(m) across m in (9, 25, {m}): "
            f"{ {k: round(v, 4) for k, v in sweep_stats.items()} } (max/min {spread_ratio:.3f})"
            f"{_overruns(sweep_fail)}",
        ),
        Check(
            "excursion_tail_exponential",
            r2 > tol["excursion.tail_r2_min"] and slope < 0,
            f"log-survival fit R^2={r2:.4f} slope={slope:.3e}{_overruns(d1_fail)}",
        ),
    ]
    return _result(cfg, "excursion", EXCURSION_SCHEMA, rows, checks)


# -- transfer-lemma ratio check ----------------------------------------------------


def _transfer_trials(payload, trials):
    machine, start, m, key, cap = payload
    walks = [WalkState(start, seed=key, stream=t) for t in trials]
    ran = machine.run_group(walks, m, [cap] * len(walks))
    return _each(ran, lambda out: tuple(out[0].counts[i] for i in range(1, len(machine.ladders))))


_transfer_trial = _Grouped(_transfer_trials)


TRANSFER_SCHEMA = [
    "schedule", "n", "L", "ell", "event", "m", "trials", "failures", "hits", "mc_prob", "mc_se",
    "exact_walk_prob", "gw_prob", "mc_ratio", "exact_ratio", "bracket_lo", "bracket_hi",
    "in_bracket_mc", "in_bracket_exact", "conclusive",
]


def _transfer_schedule_rows(tag, n, L, ell, events, trials, cfg, tol):
    radii = [float(ell) ** (L - k) for k in range(L + 1)]
    validate_radii(radii, n=n)
    center = TorusPoint(n // 2, n // 2, n)
    start = TorusPoint(center.x + int(radii[0]), center.y, n)
    table = schedule.prob_table(radii, c1=tol["lemma23.c1"], c2=tol["lemma23.c2"])
    chain = oracle.CircleChain(center, radii, n)
    cap = 4000 * n * n
    payload = (circle_machine(center, radii), start, 1, stream_key(cfg.seed, "transfer", tag), cap)
    good, failures = _map_trials(_transfer_trial, payload, trials, cfg)
    rows = []
    for event in events:
        targets = {i + 1: event[i] for i in range(len(event))}
        hits = sum(1 for o in good if o == event)
        # NaN, and a failed MC check, if every trial overran
        mc_p = hits / len(good) if good else math.nan
        mc_se = math.sqrt(max(mc_p * (1 - mc_p), 1e-12) / len(good)) if good else math.nan
        exact_p = chain.event_probability(start, 1, targets)
        gw_p = gw.gw_joint_prob(1, list(event))
        m_vec = {i + 1: event[i] for i in range(len(event))}
        lo, hi = schedule.transfer_bracket(table, 1, 1, 1, m_vec)
        mc_ratio = mc_p / gw_p
        exact_ratio = exact_p / gw_p
        rel3 = 3 * mc_se / gw_p
        conclusive = hits >= tol["transfer.min_expected_hits"]
        rows.append(
            dict(
                schedule=tag, n=n, L=L, ell=ell, event="T" + "_".join(map(str, event)),
                m=1, trials=len(good), failures=failures, hits=hits, mc_prob=mc_p, mc_se=mc_se,
                exact_walk_prob=exact_p, gw_prob=gw_p, mc_ratio=mc_ratio,
                exact_ratio=exact_ratio, bracket_lo=lo, bracket_hi=hi,
                in_bracket_mc=(lo - rel3) <= mc_ratio <= (hi + rel3),
                in_bracket_exact=lo <= exact_ratio <= hi,
                conclusive=conclusive,
            )
        )
    return rows


def run_transfer_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Walk-side event probabilities against the exact GW law with the
    Delta-error bracket, on a base schedule and an ell-doubled twin.

    The walk side is measured two ways: Monte Carlo, and exactly via the
    circle-hit chain (harmonic-measure kernel products), which makes the
    ell-doubling improvement check noise-free.
    """
    tol = load_tolerances()
    events = [(0, 0), (1, 0), (2, 0)]
    base_trials = cfg.trials or 50_000
    doubled_trials = max(2000, (cfg.trials or 20_000) // 3)
    rows = []
    rows += _transfer_schedule_rows("base", 64, 3, 2.0, events, base_trials, cfg, tol)
    rows += _transfer_schedule_rows("doubled", 130, 3, 4.0, events, doubled_trials, cfg, tol)
    checks = []
    for row in rows:
        if row["trials"] and not row["conclusive"]:
            checks.append(
                Check(
                    f"transfer_{row['schedule']}_{row['event']}_conclusive",
                    True,
                    f"inconclusive: only {row['hits']} hits (< "
                    f"{tol['transfer.min_expected_hits']:.0f} required); not asserted",
                )
            )
            continue
        checks.append(
            Check(
                f"transfer_{row['schedule']}_{row['event']}_bracket_mc",
                bool(row["in_bracket_mc"]),
                f"mc_ratio={row['mc_ratio']:.4f} bracket=[{row['bracket_lo']:.4f}, "
                f"{row['bracket_hi']:.4f}] (3-sigma inflated){_overruns(row['failures'])}",
            )
        )
        checks.append(
            Check(
                f"transfer_{row['schedule']}_{row['event']}_bracket_exact",
                bool(row["in_bracket_exact"]),
                f"exact_ratio={row['exact_ratio']:.5f}",
            )
        )
    base = {r["event"]: r for r in rows if r["schedule"] == "base"}
    doubled = {r["event"]: r for r in rows if r["schedule"] == "doubled"}
    for event in ("T0_0",):
        b, d = base[event], doubled[event]
        improved = abs(d["exact_ratio"] - 1.0) < abs(b["exact_ratio"] - 1.0)
        checks.append(
            Check(
                f"transfer_ratio_shrinks_{event}",
                improved,
                f"|ratio-1| base={abs(b['exact_ratio'] - 1):.5f} -> "
                f"doubled={abs(d['exact_ratio'] - 1):.5f} (exact chain)",
            )
        )
    return _result(cfg, "transfer", TRANSFER_SCHEMA, rows, checks)


# -- GW equivalence -----------------------------------------------------------------


GW_SCHEMA = ["case", "metric", "value", "threshold", "passed"]


def run_gw_equivalence(cfg: ExperimentConfig) -> ExperimentResult:
    """Exact equality of the 1-D traversal law with the GW law on small cases,
    negative-binomial marginals, and a large-sample two-sample test."""
    tol = load_tolerances()
    exact_tol = tol["gw.exact_tol"]
    pmin = tol["gw.chisq_pmin"]
    rows = []
    checks = []

    def row(case, metric, value, threshold, passed):
        rows.append(
            dict(case=case, metric=metric, value=value, threshold=threshold, passed=passed)
        )

    worst = 0.0
    for m in (1, 2):
        for L in (2, 3):
            law = gw.enumerate_traversal_law(L, m, count_cap=14)
            overflow = law.pop("overflow")
            for counts, p in law.items():
                gw_p = gw.gw_joint_prob(m, counts[1:])
                worst = max(worst, abs(p - gw_p))
            worst = max(worst, 0.0 if overflow < 1e-2 else overflow)
            row(f"enum_m{m}_L{L}", "max_abs_diff", worst, exact_tol, worst < exact_tol)
    checks.append(
        Check(
            "gw_enumeration_equality",
            worst < exact_tol,
            f"max |enumerated - convolution| = {worst:.3e}",
        )
    )

    # negative-binomial one-step marginal, exact
    nb_err = 0.0
    for m in range(1, 7):
        law = gw.one_step_pmf(m, 80)
        direct = np.array(
            [math.comb(m + j - 1, j) * 2.0 ** (-(m + j)) for j in range(81)]
        )
        nb_err = max(nb_err, float(np.abs(law - direct).max()))
    row("nb_marginal", "max_abs_diff", nb_err, exact_tol, nb_err < exact_tol)
    checks.append(Check("gw_nb_marginal_exact", nb_err < exact_tol, f"err={nb_err:.3e}"))

    # extinction formula vs convolution
    ext_err = 0.0
    for m in range(0, 7):
        for k in range(1, 6):
            law = gw.iterate_law(m, k, cap=260)
            ext_err = max(ext_err, abs(float(law[0]) - gw.extinct_by(m, k)))
    row("extinction", "max_abs_diff", ext_err, exact_tol, ext_err < exact_tol)
    checks.append(Check("gw_extinction_exact", ext_err < exact_tol, f"err={ext_err:.3e}"))

    # two-sample chi-square at scale
    samples = cfg.trials or 100_000
    rng1 = philox_stream(stream_key(cfg.seed, "gw-check", "srw"), 0)
    rng2 = philox_stream(stream_key(cfg.seed, "gw-check", "gw"), 0)
    srw = gw.srw_traversal_samples(10, 5, samples, rng1)
    pvals = []
    for level in (1, 3, 5):
        generations = gw.gw_generations(np.full(samples, 5), rng2)
        gw_samp = next(itertools.islice(generations, level - 1, None))
        hi = int(max(srw[:, level].max(), gw_samp.max())) + 1
        _, p = stats.two_sample_chisquare(
            np.bincount(srw[:, level], minlength=hi),
            np.bincount(gw_samp, minlength=hi),
        )
        pvals.append(p)
        row(f"two_sample_T{level}", "chisq_p", p, pmin, p > pmin)
    checks.append(
        Check(
            "gw_two_sample_chisq",
            all(p > pmin for p in pvals),
            f"p-values {['%.4f' % p for p in pvals]} (m=5, L=10, {samples} samples)",
        )
    )
    return _result(cfg, "gw-check", GW_SCHEMA, rows, checks)


# -- barrier sweep --------------------------------------------------------------------


BARRIER_SCHEMA = [
    "mode", "L", "r", "x", "y", "a", "b", "C", "epsilon", "trials",
    "p_hat", "ci_lo", "ci_hi", "p_exact", "shape", "normalized", "prefactor",
    "preconditions_ok",
]


def _barrier_row(mode, spec, trials, est, p_exact, shape, normalized, prefactor):
    return dict(
        mode=mode, L=spec.L, r=spec.r, x=spec.x, y=spec.y, a=spec.a, b=spec.b,
        C=spec.C, epsilon=spec.epsilon, trials=trials, p_hat=est.p_hat,
        ci_lo=est.ci_lo, ci_hi=est.ci_hi, p_exact=p_exact, shape=shape,
        normalized=normalized, prefactor=prefactor,
        preconditions_ok=not spec.violations(mode),
    )


def run_barrier_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Barrier-event sweep in both modes with the exact DP as cross-oracle."""
    tol = load_tolerances()
    trials = cfg.trials or 200_000
    rng = philox_stream(stream_key(cfg.seed, "barrier", "mc"), 0)
    rows = []
    checks = []

    # lower mode: fixed (x, a, C, epsilon, mu), L swept
    lower_norms = []
    for L in (16, 32, 64):
        spec = gw.BarrierSpec(
            L=L, a=4, b=0, x=4, y=0, C=0.5, C_tilde=3.0, epsilon=0.45,
            r=2, mu=0.05, eta=1.5,
        )
        est = gw.barrier_event_mc(spec, "lower", trials, rng)
        p_exact = gw.exact_barrier_probability(spec, "lower")
        shape = spec.r / (L - 2 * spec.r) * (1 - 1 / L) ** spec.start_population
        norm = est.p_hat / shape
        lower_norms.append(norm)
        rows.append(_barrier_row("lower", spec, trials, est, p_exact, shape, norm, 0.0))
        se = math.sqrt(max(est.p_hat * (1 - est.p_hat), 1e-12) / trials)
        checks.append(
            Check(
                f"barrier_lower_mc_vs_exact_L{L}",
                abs(est.p_hat - p_exact) <= 3 * se + 1e-9,
                f"mc={est.p_hat:.3e} exact={p_exact:.3e} (3sig={3 * se:.1e})",
            )
        )
    checks.append(
        Check(
            "barrier_lower_normalized_bounded_below",
            min(lower_norms) >= tol["barrier.lower_norm_min"],
            f"min normalized = {min(lower_norms):.4f} >= {tol['barrier.lower_norm_min']}",
        )
    )

    # minimal workable r (empirical report for the open r_0 question)
    min_r = None
    for r_try in (1, 2, 3, 4):
        s = gw.BarrierSpec(
            L=16, a=4, b=0, x=4, y=0, C=0.5, C_tilde=3.0, epsilon=0.45,
            r=r_try, mu=0.05, eta=1.5,
        )
        if s.L > 2 * r_try and gw.exact_barrier_probability(s, "lower") > 1e-6:
            min_r = r_try
            break
    rows.append(
        dict(
            mode="lower_min_r", L=16, r=min_r if min_r is not None else -1, x=4, y=0,
            a=4, b=0, C=0.5, epsilon=0.45, trials=0, p_hat=0.0, ci_lo=0.0, ci_hi=0.0,
            p_exact=0.0, shape=0.0, normalized=0.0, prefactor=0.0, preconditions_ok=True,
        )
    )

    # upper mode: (L, y) grid, all lemma preconditions satisfied
    ratios = []
    upper_rows = []
    for L in (16, 32, 64):
        for y in (3.0, 4.0, 6.0):
            spec = gw.BarrierSpec(
                L=L, a=3, b=3, x=4, y=y, C=1.0, C_tilde=2.0, epsilon=0.1,
                delta_window=0.5, r=2, mu=0.05, eta=1.5,
            )
            est = gw.barrier_event_mc(spec, "upper", trials, rng)
            p_exact = gw.exact_barrier_probability(spec, "upper")
            shape = (
                math.sqrt(spec.x / y) / math.sqrt(L)
                * math.exp(-((y - spec.x) ** 2) / (2 * L))
                * (spec.eta + spec.x - spec.a) * (spec.eta + y - spec.b) / L
            )
            ratios.append(est.p_hat / shape)
            upper_rows.append((spec, est, p_exact, shape))
            se = math.sqrt(max(est.p_hat * (1 - est.p_hat), 1e-12) / trials)
            checks.append(
                Check(
                    f"barrier_upper_mc_vs_exact_L{L}_y{y:g}",
                    abs(est.p_hat - p_exact) <= 3 * se + 1e-9,
                    f"mc={est.p_hat:.3e} exact={p_exact:.3e}",
                )
            )
    prefactor = max(ratios)
    for (spec, est, p_exact, shape), ratio in zip(upper_rows, ratios):
        rows.append(_barrier_row("upper", spec, trials, est, p_exact, shape, ratio, prefactor))
    checks.append(
        Check(
            "barrier_upper_below_fitted_envelope",
            all(r <= prefactor * (1 + 1e-12) for r in ratios),
            f"fitted prefactor {prefactor:.4f} dominates all {len(ratios)} cells",
        )
    )
    checks.append(
        Check(
            "barrier_upper_prefactor_order_one",
            tol["barrier.upper_prefactor_min"]
            <= prefactor
            <= tol["barrier.upper_prefactor_max"],
            f"fitted prefactor {prefactor:.4f} within "
            f"[{tol['barrier.upper_prefactor_min']}, {tol['barrier.upper_prefactor_max']}]",
        )
    )
    return _result(cfg, "barrier", BARRIER_SCHEMA, rows, checks)


# -- curve report -----------------------------------------------------------------


def _curve_trials(payload, trials):
    """tilde_traversal's counts, with its r_1 mask and machine prebuilt."""
    machine, shift_mask, start, m, key, cap = payload
    walks = [WalkState(start, seed=key, stream=t) for t in trials]
    out = advance_group_to_mask(walks, shift_mask, [cap] * len(walks), inclusive=True)
    hit = [i for i, used in enumerate(out) if not isinstance(used, BudgetExceededError)]
    ran = machine.run_group([walks[i] for i in hit], m, [cap - out[i] for i in hit])
    counts = _each(ran, lambda o: tuple(o[0].counts[lad.level] for lad in machine.ladders))
    for i, o in zip(hit, counts):
        out[i] = o
    return out


def _late_event_trials(payload, trials):
    machine, start, watch, m, key, cap = payload
    walks = [WalkState(start, seed=key, stream=t) for t in trials]
    return machine.run_group(walks, m, [cap] * len(walks), watch=watch)


_curve_trial = _Grouped(_curve_trials)
_late_event_trial = _Grouped(_late_event_trials)


CURVE_SCHEMA = [
    "source", "level", "m", "trials", "failures", "mean_count", "mean_sqrt", "centering",
    "frac_above_a_plus", "frac_above_a_plus_2k", "frac_below_a_minus", "a_plus", "a_minus",
]

LATE_SCHEMA = [
    "n", "L", "ell", "m", "level", "b_minus", "b_plus", "trials", "failures", "hits",
    "frequency", "gw_corridor_prob", "envelope", "positive", "below_envelope",
]


def run_curve_report(cfg: ExperimentConfig) -> ExperimentResult:
    """Traversal-profile envelope report at a toy schedule, with GW twins, plus
    the late-point corridor event frequency against the GW corridor
    probability; the Delta-inflated envelope is reported, not asserted."""
    tol = load_tolerances()
    n = cfg.n_values[0] if cfg.n_values else 64
    params = cfg.params or schedule.ParamSet(n=n)
    if cfg.schedule_spec == "strict":
        scales = schedule.derive_scales(params)
    else:
        L, ell = _parse_toy(cfg.schedule_spec)
        scales = schedule.toy_scales(n, L, ell, p=params)
    if scales.L < 2:
        raise ValueError(
            f"schedule depth L = {scales.L} is too shallow for a curve report; "
            "choose a larger n or a toy schedule"
        )
    L = scales.L
    m_plus = scales.m_plus
    a_plus = schedule.BarrierCurve("a_plus", scales, kappa=cfg.kappa_plus)
    a_plus_2k = schedule.BarrierCurve("a_plus", scales, kappa=2 * cfg.kappa_plus)
    a_minus = schedule.BarrierCurve("a_minus", scales, kappa=cfg.kappa_minus)

    trials = cfg.trials or 400
    cap = 1000 * n * n * m_plus
    center = TorusPoint(n // 2, n // 2, n)
    radii = validate_radii(scales.radii, n=n)
    shift_mask = exterior_boundary_mask(ball_mask(center, radii[1]))
    payload = (
        circle_machine(center, radii), shift_mask, center.shifted(int(radii[0]), 0),
        m_plus, stream_key(cfg.seed, "curves", "walk"), cap,
    )
    outcomes, walk_failures = _map_trials(_curve_trial, payload, trials, cfg)
    walk_profiles = np.array(outcomes, dtype=np.int64)

    rng = philox_stream(stream_key(cfg.seed, "curves", "gw"), 0)
    # bridge to extinction at the point level L, matching the (1 - i/L) centering
    gw_cond = gw.conditioned_extinction_samples(m_plus, L, trials, rng)
    gw_free = np.empty((trials, L), dtype=np.int64)
    gw_free[:, 0] = m_plus
    for i, pop in zip(range(1, L), gw.gw_generations(gw_free[:, 0], rng)):
        gw_free[:, i] = pop

    rows = []
    checks = []
    centering_ok = True
    for source, profiles, failures in (
        ("walk_tilde", walk_profiles, walk_failures),
        ("gw_conditioned", gw_cond[:, :L], 0),
        ("gw_free", gw_free, 0),
    ):
        for i in range(1, L):
            col = profiles[:, i]
            ap = a_plus(i)
            ap2 = a_plus_2k(i)
            am = a_minus(i)
            f_above = float((col >= ap).mean())
            f_above2 = float((col >= ap2).mean())
            f_below = float((col < am).mean())
            centering = math.sqrt(m_plus) * (1 - i / L)
            rows.append(
                dict(
                    source=source, level=i, m=m_plus, trials=profiles.shape[0], failures=failures,
                    mean_count=float(col.mean()), mean_sqrt=float(np.sqrt(col).mean()),
                    centering=centering, frac_above_a_plus=f_above,
                    frac_above_a_plus_2k=f_above2, frac_below_a_minus=f_below,
                    a_plus=ap, a_minus=am,
                )
            )
            if source == "gw_conditioned":
                se = float(np.sqrt(col).std(ddof=1) / math.sqrt(col.size))
                if abs(float(np.sqrt(col).mean()) - centering) > tol[
                    "curves.centering_abs_tol"
                ] + 3 * se:
                    centering_ok = False
    checks.append(
        Check(
            "curves_level0_equals_m",
            bool((walk_profiles[:, 0] == m_plus).all()) if walk_profiles.size else False,
            f"T_0 = m+ = {m_plus} on all {walk_profiles.shape[0]} profiles",
        )
    )
    checks.append(
        Check(
            "curves_gw_sqrt_centering",
            centering_ok,
            "conditioned GW sqrt(T_i) near sqrt(m+)(1 - i/L)",
        )
    )

    # late-point corridor event at a toy schedule
    late_n, late_L, late_ell, late_m = 128, 5, 2.0, 4
    late_params = schedule.ParamSet(n=late_n, delta=0.2)
    late_scales = schedule.toy_scales(late_n, late_L, late_ell, p=late_params, m_minus=late_m)
    window = schedule.late_window(late_scales)
    b_minus = schedule.BarrierCurve("b_minus", late_scales, delta=late_params.delta)
    b_plus = schedule.BarrierCurve("b_plus", late_scales, delta=late_params.delta)
    late_trials = max(1000, trials * 10)
    late_cap = int(2000 * late_n * late_n * late_m)
    late_center = TorusPoint(late_n // 2, late_n // 2, late_n)
    late_radii = list(late_scales.radii)
    target = np.zeros((late_n, late_n), dtype=bool)
    target[late_center.x, late_center.y] = True
    payload = (
        circle_machine(late_center, late_radii, watch=target),
        late_center.shifted(int(late_radii[0]), 0), len(late_radii),
        late_m, stream_key(cfg.seed, "curves", "late"), late_cap,
    )
    outcomes, late_failures = _map_trials(_late_event_trial, payload, late_trials, cfg)
    total = len(outcomes)
    hits = sum(
        1 for record, clock in outcomes
        if detect_late_event(record, record.watch_time, clock, b_minus, b_plus, window)
    )
    freq = hits / total if total else 0.0
    # GW corridor probability with the Delta envelope (terminal clause removed)
    table = schedule.prob_table(late_radii, c1=tol["lemma23.c1"], c2=tol["lemma23.c2"])
    corridor = 0.0
    envelope = 0.0
    for i in window:
        law = gw.iterate_law(late_m, i, cap=400)
        for t in range(int(b_minus(i)), int(b_plus(i)) + 1):
            p = float(law[t])
            corridor += p
            _, hi = schedule.transfer_bracket(
                table, i, late_L - 1 - i, late_m, {i: t}, include_star=False
            )
            envelope += hi * p
    se = math.sqrt(max(freq * (1 - freq), 1e-12) / max(total, 1))
    late_rows = [
        dict(
            n=late_n, L=late_L, ell=late_ell, m=late_m, level=i,
            b_minus=b_minus(i), b_plus=b_plus(i), trials=total, failures=late_failures, hits=hits,
            frequency=freq, gw_corridor_prob=corridor, envelope=envelope,
            positive=hits > 0, below_envelope=freq <= envelope + 3 * se,
        )
        for i in window
    ]
    checks.append(
        Check(
            "late_event_positive",
            hits >= tol["transfer.min_expected_hits"],
            f"{hits} late-point events over {total} trials (freq {freq:.5f})",
        )
    )
    checks.append(
        Check(
            "late_event_below_corridor",
            freq <= 1.5 * corridor + 3 * se,
            f"freq={freq:.5f} <= 1.5 * corridor={corridor:.5f} + 3se "
            "(unvisited clause only removes mass)",
        )
    )
    return _result(cfg, "curves", CURVE_SCHEMA, rows, checks, late_rows=late_rows)


# -- oracle cross-validation ---------------------------------------------------------


ORACLE_SCHEMA = [
    "case", "n", "metric", "exact", "mc", "mc_se", "z", "lo", "hi", "passed",
]


def _hit_prob_trials(payload, trials):
    start, A, either, key, cap = payload
    walks = [WalkState(start, seed=key, stream=t) for t in trials]
    out = advance_group_to_mask(walks, either, [cap] * len(walks), inclusive=True)
    return [
        o if isinstance(o, BudgetExceededError) else int(A.flat[w.code])
        for w, o in zip(walks, out)
    ]


def _expected_hit_trials(payload, trials):
    start, A, key, cap = payload
    walks = [WalkState(start, seed=key, stream=t) for t in trials]
    return advance_group_to_mask(walks, A, [cap] * len(walks), inclusive=True)


_hit_prob_trial = _Grouped(_hit_prob_trials)
_expected_hit_trial = _Grouped(_expected_hit_trials)


def run_oracle_check(cfg: ExperimentConfig, sections=None) -> ExperimentResult:
    """Exact-solver battery: MC-vs-exact agreement, circle-to-circle probability
    brackets, the equilibrium machinery, and the Kac moment inequality.

    ``sections`` selects from {'mc', 'bracket', 'equilibrium', 'kac'};
    default runs all four.
    """
    tol = load_tolerances()
    z_max = tol["oracle.mc_sigma"]
    trials = cfg.trials or 100_000
    sections = set(sections) if sections else {"mc", "bracket", "equilibrium", "kac"}
    rows = []
    checks = []

    def row(case, n, metric, exact, mc, passed, mc_se=0.0, z=0.0, lo=0.0, hi=0.0):
        rows.append(
            dict(
                case=case, n=n, metric=metric, exact=exact, mc=mc, mc_se=mc_se, z=z,
                lo=lo, hi=hi, passed=passed,
            )
        )

    def book(case, n, metric, exact, mc, se, lo=None, hi=None, overruns=0):
        """One Monte Carlo row and its check; any budget overrun fails it."""
        zval = (mc - exact) / se if se > 0 else 0.0
        passed = abs(zval) <= z_max and not overruns
        if lo is not None:
            passed = passed and lo <= exact <= hi
        row(case, n, metric, exact, mc, passed, se, zval, lo or 0.0, hi or 0.0)
        detail = f"exact={exact:.5g} mc={mc:.5g} z={zval:+.2f}"
        if overruns:
            detail += f"; budget overruns: {overruns}"
        checks.append(Check(f"oracle_{case}", passed, detail))

    def book_mean(case, n, metric, exact, vals, overruns):
        summ = stats.summarize_mean(vals or [math.nan])  # NaN if every trial overran
        book(case, n, metric, exact, summ.mean, summ.se, overruns=overruns)

    if "mc" in sections:
        # five mixed configurations of hit_prob / expected_hit at n = 32 and 64
        configs = [
            ("hit_prob_n32", 32, 3.0, 12.0, (6, 0)),
            ("hit_prob_n64_mid", 64, 4.0, 24.0, (10, 0)),
            ("hit_prob_n64_diag", 64, 3.0, 16.0, (5, 5)),
        ]
        for case, n, r, R, offset in configs:
            x = TorusPoint(n // 2, n // 2, n)
            y = TorusPoint(x.x + offset[0], x.y + offset[1], n)
            A = exterior_boundary_mask(ball_mask(x, r))
            B = exterior_boundary_mask(ball_mask(x, R))
            exact = oracle.hit_prob_exact(y, A, B, n)
            payload = (y, A, A | B, stream_key(cfg.seed, "oracle-check", case), 100 * n * n)
            vals, overruns = _map_trials(_hit_prob_trial, payload, trials, cfg)
            done = max(len(vals), 1)  # if every trial overran, the check fails anyway
            mc = sum(vals) / done
            se = math.sqrt(max(mc * (1 - mc), 1e-12) / done)
            book(case, n, "hit_prob", exact, mc, se, overruns=overruns)

        for case, n, R, start_off in (
            ("exit_time_n32", 32, 12.0, (0, 0)),
            ("exit_time_n64", 64, 20.0, (5, 0)),
        ):
            x = TorusPoint(n // 2, n // 2, n)
            v = TorusPoint(x.x + start_off[0], x.y + start_off[1], n)
            A = exterior_boundary_mask(ball_mask(x, R))
            exact = oracle.expected_hit_exact(v, A, n)
            et_trials = max(20_000, trials // 5)
            payload = (v, A, stream_key(cfg.seed, "oracle-check", case), 1000 * n * n)
            vals, overruns = _map_trials(_expected_hit_trial, payload, et_trials, cfg)
            book_mean(case, n, "expected_hit", exact, vals, overruns)

        # R^2 band for the center exit time (two-sided bound)
        n = 64
        x = TorusPoint(32, 32, n)
        R = 20.0
        exact = oracle.expected_hit_exact(x, exterior_boundary_mask(ball_mask(x, R)), n)
        book("exit_center_band", n, "expected_hit", exact, exact, 1.0, lo=R**2, hi=(R + 1) ** 2)

        # tiny-torus cover chain oracle vs MC
        exact2 = oracle.exact_cover_mean(2)
        payload = (2, stream_key(cfg.seed, "oracle-check", "cover_n2_chain"))
        vals, overruns = _map_trials(_cover_trial, payload, 20_000, cfg)
        book_mean("cover_n2_chain", 2, "cover_mean", exact2, vals, overruns)

    if "bracket" in sections:
        c1, c2 = tol["lemma23.c1"], tol["lemma23.c2"]
        bound = tol["lemma23.abs_bound"]
        n = 64
        x = TorusPoint(n // 2, n // 2, n)
        circle_grid = [
            (3, 8, 16), (3, 6, 24), (4, 8, 16), (4, 10, 24),
            (5, 10, 20), (6, 12, 24), (4, 16, 28), (8, 16, 28),
        ]
        ok_all = True
        abs_all = True
        for r, d, R in circle_grid:
            y = TorusPoint(x.x + d, x.y, n)
            A = exterior_boundary_mask(ball_mask(x, r))
            B = exterior_boundary_mask(ball_mask(x, R))
            p = oracle.hit_prob_exact(y, A, B, n)
            lo = (math.log(R / d) - c1 / r) / math.log(R / r)
            hi = (math.log(R / d) + c1 / r) / math.log(R / r)
            ideal = math.log(R / d) / math.log(R / r)
            scaled = abs(p - ideal) * r * math.log(R / r)
            inside = lo <= p <= hi
            ok_all &= inside
            abs_all &= scaled <= bound
            row(f"bracket_r{r}_d{d}_R{R}", n, "hit_prob", p, ideal, inside, z=scaled, lo=lo, hi=hi)
        point_grid = [(16.0, 4), (24.0, 6), (28.0, 10), (20.0, 1), (16.0, 2)]
        for R, d in point_grid:
            y = TorusPoint(x.x + d, x.y, n)
            A = np.zeros((n, n), dtype=bool)
            A[x.x, x.y] = True
            B = exterior_boundary_mask(ball_mask(x, R))
            p = oracle.hit_prob_exact(y, A, B, n)
            err = c2 * (1 / d + 1 / math.log(R))
            lo = (math.log(R / d) - err) / math.log(R)
            hi = (math.log(R / d) + err) / math.log(R)
            inside = lo <= p <= hi
            ok_all &= inside
            ideal = math.log(R / d) / math.log(R)
            row(f"bracket_point_d{d}_R{R:g}", n, "hit_point", p, ideal, inside, lo=lo, hi=hi)
        checks.append(
            Check(
                "lemma23_brackets_c1_c2_2",
                ok_all,
                f"{len(circle_grid)} circle + {len(point_grid)} point configs inside "
                "their brackets at c1 = c2 = 2",
            )
        )
        checks.append(
            Check(
                "lemma23_scaled_deviation",
                abs_all,
                f"|P - log(R/d)/log(R/r)| * r * log(R/r) <= {bound:g} on the grid",
            )
        )

    if "equilibrium" in sections:
        n = 64
        x = TorusPoint(n // 2, n // 2, n)
        worst_resid = 0.0
        worst_qshape = 0.0
        for r, R in ((3, 16), (4, 24), (4, 32)):
            ws = oracle.EquilibriumWorkspace(x, r, R, n)
            pair = ws.equilibrium_pair()
            worst_resid = max(worst_resid, pair.residual)
            worst_qshape = max(worst_qshape, (1 - pair.q) * R / r)
            d1 = ws.expected_d1()
            formula = (2 / math.pi) * n * n * math.log(R / r)
            passed = pair.residual < tol["equilibrium.residual_max"]
            z_rel = (d1 / formula - 1) * r
            row(f"equilibrium_r{r}_R{R}", n, "d1_exact", d1, formula, passed, z=z_rel)
        checks.append(
            Check(
                "equilibrium_fixed_point_residual",
                worst_resid < tol["equilibrium.residual_max"],
                f"max residual {worst_resid:.2e} < {tol['equilibrium.residual_max']:g}",
            )
        )
        checks.append(
            Check(
                "equilibrium_q_shape",
                worst_qshape <= tol["equilibrium.q_shape_max"],
                f"max (1-q)R/r = {worst_qshape:.3f}",
            )
        )
        sc = oracle.stationary_check(TorusPoint(16, 16, 32), 3, 12, 32)
        deviation = sc["max_rel_deviation"]
        uniformity_max = tol["equilibrium.uniformity_max"]
        checks.append(
            Check(
                "stationary_measure_uniform",
                deviation < uniformity_max,
                f"max relative deviation {deviation:.2e}",
            )
        )
        # rounded so that the CSV does not pin the solver's rounding noise
        row(
            "stationary_n32", 32, "uniformity", round(deviation, 12), sc["m_at_center"],
            deviation < uniformity_max, hi=uniformity_max,
        )
        # E[G_1] = E_mu[H_inner] / q against the simulated splitting chain
        ws = oracle.EquilibriumWorkspace(x, 4, 16, n)
        pair = ws.equilibrium_pair()
        expected_g1 = ws.expected_inward_leg() / pair.q
        key = stream_key(cfg.seed, "oracle-check", "coupled_chain_g1")
        run = oracle.coupled_chain_run(ws, x, length=700, seed=key)
        blocks = run.block_sums[1:]  # G_m, m >= 1 are identically distributed
        summ = stats.summarize_mean(blocks)
        book("coupled_chain_g1", n, "block_sum_mean", expected_g1, summ.mean, summ.se)

    if "kac" in sections:
        n = 32
        x = TorusPoint(16, 16, n)
        dom1 = exterior_boundary_mask(ball_mask(x, 8.0))
        dom2 = np.zeros((n, n), dtype=bool)
        dom2[4, 4] = dom2[20, 9] = True
        worst = 0.0
        for name, dom in (("ball8", dom1), ("two_points", dom2)):
            res = oracle.kac_moment_check(dom, n)
            ratio = max(res["ratio_m2"], res["ratio_m3"])
            worst = max(worst, ratio)
            passed = ratio <= 1 + 1e-8
            row(f"kac_{name}", n, "moment_ratio", res["ratio_m2"], res["ratio_m3"], passed, hi=1.0)
        checks.append(
            Check(
                "kac_moment_inequality",
                worst <= 1 + 1e-8,
                f"max E[T^m] / (m! E[T] (max E)^(m-1)) = {worst:.4f} for m in {{2, 3}}",
            )
        )

    return _result(cfg, "oracle-check", ORACLE_SCHEMA, rows, checks)


REGISTRY = {
    "cover": run_cover_experiment,
    "excursion": run_excursion_length_experiment,
    "transfer": run_transfer_check,
    "gw-check": run_gw_equivalence,
    "barrier": run_barrier_sweep,
    "curves": run_curve_report,
    "oracle-check": run_oracle_check,
}
