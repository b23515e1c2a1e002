import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coverlab
from coverlab import gw, harness, lattice, oracle
from coverlab.harness import (
    REGISTRY,
    Check,
    ExperimentConfig,
    _map_trials,
    emit_csv,
    load_tolerances,
    run_barrier_sweep,
    run_cover_experiment,
    run_curve_report,
    run_excursion_length_experiment,
    run_gw_equivalence,
    run_oracle_check,
    run_transfer_check,
)
from coverlab.excursions import circle_machine
from coverlab.lattice import BudgetExceededError, TorusPoint


def test_tolerance_manifest_loads_and_has_provenance_tags():
    tol = load_tolerances()
    assert tol["cover.trend_slack_sigma"] == 2.5
    assert tol["excursion.conc_p95_slack"] == 0.06
    # retired hand-set bounds: the cover band and the p95 cap come from exact solves
    for retired in ("cover.band_lo", "cover.band_hi", "excursion.conc_p95_max"):
        assert retired not in tol
    assert tol["gw.exact_tol"] == 1e-12
    # every key used by the runners is present
    for key in (
        "oracle.mc_sigma", "lemma23.c1", "equilibrium.residual_max",
        "barrier.lower_norm_min", "transfer.min_expected_hits", "curves.late_corridor_factor",
    ):
        assert key in tol
    text = (Path(coverlab.__file__).parent / "tolerances.txt").read_text()
    assert "[PAPER]" in text and "[DERIVED]" in text and "[HAND-SET]" in text


def test_registry_covers_cli_surface():
    assert set(REGISTRY) == {
        "cover", "excursion", "transfer", "gw-check", "barrier", "curves", "oracle-check"
    }


def test_emit_csv_deterministic_and_header_only(tmp_path):
    schema = ["a", "b", "c"]
    rows = [dict(a=1, b=0.1234567890123, c="x"), dict(a=2, b=float("inf"), c="y")]
    p1 = emit_csv(tmp_path / "one.csv", rows, schema)
    p2 = emit_csv(tmp_path / "two.csv", rows, schema)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "a,b,c"
    empty = emit_csv(tmp_path / "empty.csv", [], schema)
    assert empty.read_text() == "a,b,c\n"
    assert b"\r" not in p1.read_bytes()


def test_emit_csv_missing_column_errors(tmp_path):
    with pytest.raises(KeyError):
        emit_csv(tmp_path / "bad.csv", [dict(a=1)], ["a", "b"])


def test_experiment_reruns_are_byte_identical(tmp_path):
    cfg_a = ExperimentConfig(
        name="gw-check", trials=4000, seed=5, out=tmp_path / "a.csv"
    )
    cfg_b = ExperimentConfig(
        name="gw-check", trials=4000, seed=5, out=tmp_path / "b.csv"
    )
    run_gw_equivalence(cfg_a)
    run_gw_equivalence(cfg_b)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cover_experiment_small_run_and_failure_accounting(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        name="cover", n_values=(16, 24), trials=40, seed=3, out=tmp_path / "cover.csv"
    )
    res = run_cover_experiment(cfg)
    assert len(res.rows) == 2
    assert all(r["failures"] == 0 for r in res.rows)
    assert (tmp_path / "cover.csv").exists()
    # a starved budget records failures instead of raising; covering the
    # 16 x 16 torus takes at least 255 steps
    monkeypatch.setattr(lattice, "default_cover_budget", lambda n: 100)
    starved = run_cover_experiment(
        ExperimentConfig(name="cover", n_values=(16,), trials=10, seed=3, workers=1)
    )
    assert starved.rows[0]["failures"] == 10


def test_cover_anchors_recomputed_not_hardcoded():
    import math

    from lu_reference import LUSystem

    n = 16
    res = run_cover_experiment(
        ExperimentConfig(name="cover", n_values=(n,), trials=20, seed=1)
    )
    row = res.rows[0]
    logn = math.log(n)
    assert row["anchor_second_order"] == pytest.approx(
        (4 / math.pi) * (1 - math.log(logn) / (2 * logn))
    )
    # the band is Matthews' bracket, recomputed here from a sparse-LU table
    origin = np.zeros((n, n), dtype=bool)
    origin[0, 0] = True
    hit = LUSystem(n, origin).expected_hit().reshape(n, n)

    def harmonic(k):
        return sum(1 / j for j in range(1, k + 1))

    lower = max(
        hit[::k, ::k].flat[1:].min() * harmonic((n // k) ** 2 - 1) for k in (1, 2, 4, 8)
    )
    scale = n * n * logn**2
    assert row["band_lo"] == pytest.approx(lower / scale, rel=1e-9)
    assert row["band_hi"] == pytest.approx(hit.max() * harmonic(n * n - 1) / scale, rel=1e-9)


def _cover_n3():
    return run_cover_experiment(ExperimentConfig(name="cover", n_values=(3,), trials=30, seed=0))


def test_cover_band_allows_the_mean_its_sampling_error(monkeypatch):
    # the exact mean lies inside Matthews' bracket, and a run's mean may sit
    # beyond it by its sampling error: the band check allows mc_sigma SEs
    row = _cover_n3().rows[0]
    scale = 9 * np.log(3) ** 2
    assert row["band_lo"] <= oracle.exact_cover_mean(3) / scale <= row["band_hi"]
    upper = row["mean_steps"] - row["se_steps"]  # 1 SE below the run's mean
    monkeypatch.setattr(oracle, "matthews_cover_bracket", lambda n: (upper / 2, upper))
    res = _cover_n3()
    row = res.rows[0]
    assert row["norm_mean"] > row["band_hi"] and not row["in_band"]
    assert res.checks[0].name == "cover_band_n3" and res.checks[0].passed


def test_cover_band_fails_a_mean_beyond_its_sampling_error(monkeypatch):
    row = _cover_n3().rows[0]
    upper = row["mean_steps"] - 4 * row["se_steps"]  # 4 SEs below the run's mean
    monkeypatch.setattr(oracle, "matthews_cover_bracket", lambda n: (upper / 2, upper))
    res = _cover_n3()
    assert res.rows[0]["mean_steps"] == row["mean_steps"]
    assert res.checks[0].name == "cover_band_n3" and not res.checks[0].passed


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("cover", dict(n_values=(16,), trials=30)),
        ("transfer", dict(trials=300)),
        ("excursion", dict(n_values=(32,), trials=20)),
        ("curves", dict(trials=3)),
    ],
    ids=["cover", "transfer", "excursion", "curves"],
)
def test_worker_override_matches_serial(name, kwargs):
    # transfer's run is a partial over a prebuilt TraversalMachine, which
    # must pickle to the worker processes and give the serial rows there
    serial, pooled = (
        REGISTRY[name](ExperimentConfig(name=name, seed=9, workers=w, **kwargs)) for w in (1, 2)
    )
    assert pooled.rows == serial.rows
    assert pooled.late_rows == serial.late_rows


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_workers_is_a_usage_error(capsys, value):
    from coverlab.cli import main

    with pytest.raises(ValueError, match=f"workers must be >= 1 \\(got {value}\\)"):
        ExperimentConfig(name="transfer", workers=int(value))
    assert main(["transfer", "--workers", value]) == 2
    assert f"workers must be >= 1 (got {value})" in capsys.readouterr().err


def test_barrier_sweep_schema_and_csv(tmp_path):
    cfg = ExperimentConfig(name="barrier", trials=20_000, seed=2, out=tmp_path / "b.csv")
    res = run_barrier_sweep(cfg)
    header = (tmp_path / "b.csv").read_text().splitlines()[0].split(",")
    assert header == res.schema
    modes = {r["mode"] for r in res.rows}
    assert {"lower", "upper", "lower_min_r"} <= modes


def test_cli_exit_codes(tmp_path):
    from coverlab.cli import main

    rc = main(["gw-check", "--trials", "4000", "--out", str(tmp_path / "g.csv")])
    assert rc == 0
    assert (tmp_path / "g.csv").exists()
    # usage error
    assert main(["not-an-experiment"]) == 2


def test_negative_seed_is_a_usage_error(capsys):
    from coverlab.cli import main

    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(name="barrier", seed=-1)
    for name in sorted(REGISTRY):
        assert main([name, "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_cli_failing_assertion_exit_code(monkeypatch):
    from coverlab.cli import main

    assert main(["gw-check", "--trials", "2000"]) == 0
    # an impossible tolerance forces an assertion failure -> exit code 1
    real = harness.load_tolerances
    monkeypatch.setattr(harness, "load_tolerances", lambda: {**real(), "gw.chisq_pmin": 1.1})
    assert main(["gw-check", "--trials", "2000"]) == 1


# the flags each subcommand reads; every other (subcommand, flag) pair is a usage error
CLI_FLAGS = {
    "cover": {"--n", "--workers"},
    "excursion": {"--n", "--workers"},
    "transfer": {"--workers"},
    "gw-check": set(),
    "barrier": set(),
    "curves": {"--n", "--workers", "--schedule", "--params", "--kappa-plus", "--kappa-minus"},
    "oracle-check": {"--workers"},
}
FLAG_VALUES = {
    "--n": "64", "--trials": "10", "--seed": "1", "--out": "x.csv", "--schedule": "strict",
    "--params": "0.2,0.35,0.96,0.05,2", "--kappa-plus": "3", "--kappa-minus": "3",
    "--budget-mult": "2", "--workers": "2",
}


def test_cli_registers_only_the_flags_each_subcommand_reads():
    from coverlab.cli import build_parser, main

    parser = build_parser()
    accepted = 0
    for name in REGISTRY:
        for flag, value in FLAG_VALUES.items():
            if flag in CLI_FLAGS[name] | {"--trials", "--seed", "--out"}:
                parser.parse_args([name, flag, value])  # parsing only: nothing runs
                accepted += 1
            else:
                # one trial keeps the run short if the flag were accepted
                assert main([name, flag, value, "--trials", "1"]) == 2, (name, flag)
    assert accepted == 33


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "--schedule", "strict", "--n", "8", "--trials", "1"],
        ["gw-check", "--workers", "2", "--trials", "300"],
        ["transfer", "--n", "64", "--trials", "20"],
        ["excursion", "--n", "32", "64", "--trials", "20"],
        ["barrier", "--budget-mult", "2", "--trials", "300"],
    ],
    ids=["cover-schedule", "gw-check-workers", "transfer-n", "excursion-two-n", "barrier-budget"],
)
def test_cli_flag_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    from coverlab.cli import main

    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_strict_schedule_too_shallow_is_usage_error():
    from coverlab.cli import main

    assert main(["curves", "--n", "64", "--schedule", "strict", "--trials", "10"]) == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("foo", "schedule must be 'strict' or 'toy:L,ell' (got 'foo')"),
        ("toy:4", "schedule must be 'strict' or 'toy:L,ell' (got 'toy:4')"),
        ("toy:x,2", "schedule must be 'strict' or 'toy:L,ell' (got 'toy:x,2')"),
        ("bar:4,2", "schedule must be 'strict' or 'toy:L,ell' (got 'bar:4,2')"),
        ("toy:4,1", "a toy schedule needs ell > 1 (got ell = 1)"),
    ],
    ids=["no-colon", "one-number", "non-integer-L", "other-prefix", "ell-one"],
)
def test_cli_malformed_schedule_is_a_usage_error(capsys, spec, message):
    from coverlab.cli import main

    assert main(["curves", "--schedule", spec, "--trials", "1"]) == 2
    assert f"usage error: {message}" in capsys.readouterr().err


def test_cli_malformed_params_is_usage_error(capsys):
    from coverlab.cli import main

    assert main(["curves", "--params", "1,2"]) == 2
    assert main(["curves", "--params", "a,b,c,d,e"]) == 2
    assert "--params needs five" in capsys.readouterr().err


def _square_or_overrun(overrun_at, walks):
    """Trial t's walk starts at (t, 0): t squared, or an overrun for t in overrun_at."""
    out = []
    for walk in walks:
        t = walk.position.x
        out.append(
            BudgetExceededError(f"trial {t} overran", steps_taken=t) if t in overrun_at else t * t
        )
    return out


@pytest.mark.parametrize("workers", [1, 2])
def test_map_trials_drops_and_counts_overruns_in_trial_order(workers):
    cfg = ExperimentConfig(name="cover", workers=workers)
    starts = [TorusPoint(t, 0, 64) for t in range(45)]
    overrun_at = frozenset({0, 5, 6, 22, 40})
    run = functools.partial(_square_or_overrun, overrun_at)
    results, overruns = _map_trials(cfg, "cover", "squares", run, starts, 45)
    assert results == [t * t for t in range(45) if t not in overrun_at]
    assert overruns == 5
    run = functools.partial(_square_or_overrun, frozenset(range(3)))
    assert _map_trials(cfg, "cover", "squares", run, starts, 3) == ([], 3)


def _one_at_a_time(seed, experiment, section, run, start, n_trials):
    """Each trial's outcome with its walk run alone, as a group of one."""
    key = lattice.stream_key(seed, experiment, section)
    return [
        run([lattice.WalkState(start if isinstance(start, TorusPoint) else start[t], key, t)])[0]
        for t in range(n_trials)
    ]


def _runner_cases():
    """(run, start, trials) of five sections: at n = 32, mask hits, ladders
    and ladders from the first hit of the r_1 circle from a fixed start, and
    clocks from per-trial starts, each with a cap that overruns some walks;
    cover times at n = 6."""
    n = 32
    center = TorusPoint(16, 16, n)
    exit_ring = lattice.exterior_boundary_mask(lattice.ball_mask(center, 10.0))
    r1_ring = lattice.exterior_boundary_mask(lattice.ball_mask(center, 6.0))
    machine = circle_machine(center, [12.0, 6.0, 3.0])
    starts = [center.shifted(t % 9, t % 5) for t in range(70)]
    top = center.shifted(12, 0)
    return {
        "hits": (functools.partial(harness._hits, exit_ring, 90), center, 70),
        "ladders": (functools.partial(harness._ladders, machine, 1, 900), top, 70),
        "tilde": (functools.partial(harness._tilde_ladders, machine, r1_ring, 2, 500), top, 70),
        "clocks": (functools.partial(harness._clocks, machine, 2, 420), starts, 70),
        "covers": (harness._covers, TorusPoint(0, 0, 6), 40),
    }


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["hits", "ladders", "tilde", "clocks", "covers"])
def test_map_trials_matches_each_walk_run_alone(case, workers):
    run, start, n_trials = _runner_cases()[case]
    alone = _one_at_a_time(11, "oracle-check", case, run, start, n_trials)
    over = [isinstance(o, BudgetExceededError) for o in alone]
    if case != "covers":
        # some walks overrun in the middle of the first group, and some finish
        assert any(over[1:31]) and not all(over[1:31])
    if case == "tilde":
        # some overrun before their first hit of the r_1 circle, some in the ladder
        _, r1_ring, _, cap = run.args
        first = _one_at_a_time(
            11, "oracle-check", case, functools.partial(harness._hits, r1_ring, cap), start,
            n_trials,
        )
        early = [isinstance(o, BudgetExceededError) for o in first]
        assert any(early[1:31]) and any(o and not e for o, e in zip(over[1:31], early[1:31]))
    cfg = ExperimentConfig(name="oracle-check", seed=11, workers=workers)
    assert _map_trials(cfg, "oracle-check", case, run, start, n_trials) == (
        [o for o, bad in zip(alone, over) if not bad], sum(over)
    )


def _always_overrun(*args):
    """A section's run whose every walk overruns; its last argument is the walks."""
    return [BudgetExceededError("forced overrun", steps_taken=0) for _ in args[-1]]


def test_transfer_cell_whose_every_trial_overruns_fails_its_checks(monkeypatch):
    monkeypatch.setattr(harness, "_ladders", _always_overrun)
    res = run_transfer_check(ExperimentConfig(name="transfer", trials=30, workers=1))
    assert {(r["schedule"], r["trials"], r["failures"]) for r in res.rows} == {
        ("base", 0, 30), ("doubled", 0, 2000)
    }
    assert all(np.isnan(r["mc_prob"]) and not r["in_bracket_mc"] for r in res.rows)
    mc = [c for c in res.checks if c.name.endswith("_bracket_mc")]
    assert len(mc) == len(res.rows)
    assert not any(c.passed for c in mc)
    assert all("budget overruns:" in c.detail for c in mc)
    assert not res.all_passed


def test_excursion_cell_whose_every_trial_overruns_fails_its_checks(monkeypatch):
    monkeypatch.setattr(harness, "_clocks", _always_overrun)
    res = run_excursion_length_experiment(
        ExperimentConfig(name="excursion", n_values=(32,), trials=20, workers=1)
    )
    # 20 D_1 clocks, 300 D_100 clocks and 3 x 200 sweep clocks, all overrun
    assert {r["failures"] for r in res.rows} == {20 + 300 + 3 * 200}
    values = {r["metric"]: r["value"] for r in res.rows}
    assert np.isnan(values["d1_mc_mean"]) and np.isnan(values["dm_ratio_p95"])
    assert res.checks and not any(c.passed for c in res.checks)
    assert all("budget overruns:" in c.detail for c in res.checks)


def test_curves_whose_every_walk_overruns_fail_their_walk_checks(monkeypatch):
    monkeypatch.setattr(harness, "_tilde_ladders", _always_overrun)
    monkeypatch.setattr(harness, "_late_events", _always_overrun)
    res = run_curve_report(ExperimentConfig(name="curves", trials=3, workers=1))
    checks = {c.name: c for c in res.checks}
    assert not checks["curves_level0_equals_m"].passed
    assert checks["curves_level0_equals_m"].detail.endswith("; budget overruns: 3")
    # no late trial finished: the frequency is NaN, not 0, and both late checks fail
    for name in ("late_event_positive", "late_event_below_corridor"):
        assert not checks[name].passed
        assert checks[name].detail.endswith("; budget overruns: 1000")
    assert res.late_rows
    for row in res.late_rows:
        assert (row["trials"], row["failures"], row["hits"]) == (0, 1000, 0)
        assert np.isnan(row["frequency"]) and not row["below_envelope"]
    walk = [r for r in res.rows if r["source"] == "walk_tilde"]
    assert walk and all((r["trials"], r["failures"]) == (0, 3) for r in walk)


def _overrun_first_walk(run, m=None):
    """``run``, except that the first walk it is handed overruns; with ``m``
    set, the first walk of the first ``_clocks`` call for D_m clocks."""
    calls = []

    def first_overruns(*args):
        out = list(run(*args))
        if not calls and (m is None or args[1] == m):
            out[0] = BudgetExceededError("forced overrun", steps_taken=0)
            calls.append(len(out))
        return out

    return first_overruns


@pytest.mark.parametrize(
    "run_name, m, name, kwargs, cell_checks",
    [
        (
            "_covers", None, "cover", dict(n_values=(16, 24), trials=30),
            ["cover_band_n16", "cover_gap_monotone", "cover_gap_moves_toward_correction"],
        ),
        (
            "_clocks", 1, "excursion", dict(n_values=(32,), trials=200),
            [
                "excursion_d1_within_5pct", "excursion_d1_mc_vs_exact_3sigma",
                "excursion_concentration_d1_variance_mc_vs_exact", "excursion_tail_exponential",
            ],
        ),
        # the D_100 cell runs before the m-sweep's own m = 100 cell
        (
            "_clocks", 100, "excursion", dict(n_values=(32,), trials=200),
            ["excursion_concentration_p95"],
        ),
        (
            "_clocks", 9, "excursion", dict(n_values=(32,), trials=200),
            ["excursion_spread_shrinks_like_sqrt_m"],
        ),
        (
            "_ladders", None, "transfer", dict(trials=300),
            ["transfer_base_T0_0_bracket_mc", "transfer_base_T1_0_bracket_mc"],
        ),
        ("_tilde_ladders", None, "curves", dict(trials=3), ["curves_level0_equals_m"]),
        (
            "_late_events", None, "curves", dict(trials=3),
            ["late_event_positive", "late_event_below_corridor"],
        ),
    ],
    ids=["cover", "excursion", "excursion_dm", "excursion_sweep", "transfer", "tilde", "late"],
)
def test_one_overrun_fails_the_monte_carlo_checks_of_its_cell(
    monkeypatch, run_name, m, name, kwargs, cell_checks
):
    # the trials that finish beside an overrun are a censored sample: every
    # check that reads the cell fails, Monte Carlo rule or not, as
    # oracle-check's do; the checks of the other cells keep their verdicts.
    # At n = 32 the exact E[D_1] itself lies 6 % below the formula that
    # excursion_d1_within_5pct bands, so a 100 % band leaves the overrun to
    # decide that check
    real = harness.load_tolerances
    monkeypatch.setattr(harness, "load_tolerances", lambda: {**real(), "excursion.d1_rel_tol": 1.0})
    cfg = ExperimentConfig(name=name, seed=9, workers=1, **kwargs)
    clean = REGISTRY[name](cfg)
    monkeypatch.setattr(harness, run_name, _overrun_first_walk(getattr(harness, run_name), m))
    once = REGISTRY[name](cfg)
    before = {c.name: c for c in clean.checks}
    after = {c.name: c for c in once.checks}
    assert before.keys() == after.keys()
    for check in cell_checks:
        assert before[check].passed and "overruns" not in before[check].detail
        assert not after[check].passed
        assert after[check].detail.endswith("; budget overruns: 1")
    for check in before.keys() - set(cell_checks):
        assert after[check].passed == before[check].passed, check
    if name == "curves":
        # the late table's below_envelope column follows the Monte Carlo rule
        late_overran = run_name == "_late_events"
        assert all(r["below_envelope"] for r in clean.late_rows)
        assert all(r["below_envelope"] != late_overran for r in once.late_rows)


@pytest.mark.parametrize("factor", [0.0, 1.5])
def test_late_corridor_check_reads_its_factor(monkeypatch, factor):
    real = harness.load_tolerances
    monkeypatch.setattr(
        harness, "load_tolerances", lambda: {**real(), "curves.late_corridor_factor": factor}
    )
    result = run_curve_report(ExperimentConfig(name="curves", trials=3, seed=2, workers=1))
    check = next(c for c in result.checks if c.name == "late_event_below_corridor")
    # 34 late events in 1000 trials lie above 0 by far more than 3 se
    assert check.passed == (factor > 0)
    assert f"(exact: {factor:g} * GW corridor 0.11069;" in check.detail


@pytest.mark.parametrize("z", [0.0, 3.0])
def test_barrier_and_d1_mean_checks_read_mc_sigma(monkeypatch, z):
    real = harness.load_tolerances
    monkeypatch.setattr(harness, "load_tolerances", lambda: {**real(), "oracle.mc_sigma": z})
    barrier = run_barrier_sweep(ExperimentConfig(name="barrier", trials=10_000, seed=7))
    excursion = run_excursion_length_experiment(
        ExperimentConfig(name="excursion", n_values=(32,), trials=400, seed=7, workers=1)
    )
    checks = [c for c in barrier.checks if "_mc_vs_exact_" in c.name]
    checks += [c for c in excursion.checks if c.name == "excursion_d1_mc_vs_exact_3sigma"]
    assert len(checks) == 3 + 9 + 1
    # at z = 0 a Monte Carlo estimate must equal the exact value, and none does
    assert all(c.passed == (z > 0) for c in checks), [c for c in checks if c.passed != (z > 0)]
    assert all(c.detail.endswith(f"z={z:g}") for c in checks)


def test_summary_checks_report_a_failing_row(monkeypatch):
    # bounds that every row fails: each summary check names a row and its value
    real = harness.load_tolerances
    tight = {
        "lemma23.c1": 1e-3, "lemma23.c2": 1e-3, "lemma23.abs_bound": 1e-3,
        "curves.centering_abs_tol": 0.0, "oracle.mc_sigma": 0.0,
    }
    monkeypatch.setattr(harness, "load_tolerances", lambda: {**real(), **tight})
    res = run_oracle_check(ExperimentConfig(name="oracle-check", trials=200, seed=1, workers=1))
    checks = {c.name: c for c in res.checks}
    brackets = [r for r in res.rows if r["case"].startswith("bracket_")]
    assert not any(r["passed"] for r in brackets)
    detail = checks["lemma23_brackets_c1_c2_2"].detail
    assert not checks["lemma23_brackets_c1_c2_2"].passed and detail.startswith("0/13 configs")
    assert any(f"{r['case']}: P={r['exact']:.5g}," in detail for r in brackets)
    detail = checks["lemma23_scaled_deviation"].detail
    assert not checks["lemma23_scaled_deviation"].passed
    assert any(f"= {r['z']:.4g} at {r['case']}," in detail for r in brackets)
    res = run_curve_report(ExperimentConfig(name="curves", trials=3, seed=1, workers=1))
    check = next(c for c in res.checks if c.name == "curves_gw_sqrt_centering")
    levels = [r for r in res.rows if r["source"] == "gw_conditioned"]
    assert not check.passed
    assert any(
        check.detail.startswith(f"mc sqrt(T_{r['level']})={r['mean_sqrt']:.5g} ") for r in levels
    )


def test_gw_enumeration_rows_report_each_case_alone():
    res = run_gw_equivalence(ExperimentConfig(name="gw-check", trials=2000, seed=1))
    values = {r["case"]: r["value"] for r in res.rows if r["case"].startswith("enum_")}
    for m in (1, 2):
        for L in (2, 3):
            law = gw.enumerate_traversal_law(L, m)
            law.pop("overflow")
            diffs = [abs(p - gw.gw_joint_prob(m, counts[1:])) for counts, p in law.items()]
            assert values[f"enum_m{m}_L{L}"] == max(diffs)
    # the check still reports the largest difference of all four cases
    check = next(c for c in res.checks if c.name == "gw_enumeration_equality")
    assert check.detail.endswith(f"{max(values.values()):.3e}")


def test_oracle_check_books_an_overrun_as_a_failed_check(monkeypatch):
    original = harness._hits_first
    seen = []

    class Trial(lattice.WalkState):
        """A walk that knows its start and trial index."""

        def __init__(self, start, seed, stream):
            super().__init__(start, seed=seed, stream=stream)
            self.start, self.trial = start, stream

    def overrun_once(A, either, cap, walks):
        out = original(A, either, cap, walks)
        if A.shape[0] != 32:
            return out
        seen.append((A, either, cap, walks[0].start))
        return [
            BudgetExceededError("forced overrun", steps_taken=0) if w.trial == 7 else o
            for w, o in zip(walks, out)
        ]

    monkeypatch.setattr(harness, "WalkState", Trial)
    monkeypatch.setattr(harness, "_hits_first", overrun_once)
    res = run_oracle_check(ExperimentConfig(name="oracle-check", trials=400, seed=4, workers=1))
    checks = {c.name: c for c in res.checks}
    assert len(checks) == 14  # the battery ran to its end
    assert not checks["oracle_hit_prob_n32"].passed
    assert checks["oracle_hit_prob_n32"].detail.endswith("; budget overruns: 1")
    others = [c for name, c in checks.items() if name != "oracle_hit_prob_n32"]
    assert not any("overruns" in c.detail for c in others)
    # the estimate is over the 399 trials that finished, here each run alone
    row = next(r for r in res.rows if r["case"] == "hit_prob_n32")
    A, either, cap, start = seen[0]
    finished = [
        o for t, o in enumerate(_one_at_a_time(
            4, "oracle-check", "hit_prob_n32", functools.partial(original, A, either, cap),
            start, 400,
        ))
        if t != 7
    ]
    assert row["mc"] == sum(finished) / 399
    assert not row["passed"]


def test_exact_only_oracle_rows_carry_no_monte_carlo_error():
    res = run_oracle_check(ExperimentConfig(name="oracle-check", trials=400, workers=1))
    mc = {c.name.removeprefix("oracle_") for c in res.checks if c.detail.startswith("mc ")}
    assert len(mc) == 7  # hit_prob x 3, exit_time x 2, cover_n2_chain, coupled_chain_g1
    for row in res.rows:
        assert (row["mc_se"] > 0) == (row["case"] in mc), row


@pytest.mark.parametrize("n", [1, 2])
def test_cover_below_n3_is_a_usage_error_before_any_walk(monkeypatch, capsys, n):
    from coverlab.cli import main

    def no_walk(*args, **kwargs):
        raise AssertionError("a walk was built")

    monkeypatch.setattr(harness, "WalkState", no_walk)
    # n = 16 comes first: none of its trials runs either
    assert main(["cover", "--n", "16", str(n), "--trials", "5"]) == 2
    err = capsys.readouterr().err
    assert f"usage error: cover needs every n >= 3 (got n = {n})" in err


def test_excursion_whose_circles_share_cells_is_a_usage_error(capsys):
    from coverlab.cli import main

    # n = 17 puts the outer circle at R = n/4 = 4.25, beside r = 4
    assert main(["excursion", "--n", "17", "--trials", "5"]) == 2
    assert "circles share cells" in capsys.readouterr().err


def test_harness_import_leaves_scipy_stats_out():
    # scipy.stats costs about a second of import; gw and stats use scipy.special.
    # The oracle solves dense systems with scipy.linalg and needs no scipy.sparse
    src = str(Path(coverlab.__file__).resolve().parents[1])
    code = (
        "import sys, coverlab.harness; "
        "print([m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.sparse'))])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# one tiny config per experiment; the trial floors still apply
STREAM_CONFIGS = {
    "cover": dict(n_values=(8, 12), trials=3),
    "excursion": dict(n_values=(32,), trials=20),
    "transfer": dict(trials=20),
    "gw-check": dict(trials=300),
    "barrier": dict(trials=300),
    "curves": dict(trials=3),
    "oracle-check": dict(trials=50),
}


def _stream_log(seed):
    """Run every experiment once at ``seed``; per experiment, the
    (seed, experiment, section, key) of each stream_key call and the key
    word of each philox_stream call."""
    real_key, real_stream = lattice.stream_key, lattice.philox_stream
    log = {}

    def stream_key(s, experiment, section):
        key = real_key(s, experiment, section)
        current["derived"].append((s, experiment, section, key))
        return key

    def philox_stream(word, stream):
        current["words"].append(word)
        return real_stream(word, stream)

    with pytest.MonkeyPatch.context() as mp:
        for module in (lattice, harness, oracle):
            for name, fake in (("stream_key", stream_key), ("philox_stream", philox_stream)):
                if hasattr(module, name):
                    mp.setattr(module, name, fake)
        for name, kwargs in STREAM_CONFIGS.items():
            current = log[name] = {"derived": [], "words": []}
            REGISTRY[name](ExperimentConfig(name=name, seed=seed, workers=1, **kwargs))
    return log


@pytest.fixture(scope="module")
def stream_logs():
    assert set(STREAM_CONFIGS) == set(REGISTRY)
    return {seed: _stream_log(seed) for seed in (3, 4)}


def test_every_stream_comes_from_a_named_section(stream_logs):
    for seed, log in stream_logs.items():
        for name, got in log.items():
            assert got["words"], name
            sections = [(e, c) for _, e, c, _ in got["derived"]]
            # each section is derived once per run, under the run's seed and name
            assert len(sections) == len(set(sections)), (name, sections)
            assert {(s, e) for s, e, _, _ in got["derived"]} == {(seed, name)}
            keys = {key for *_, key in got["derived"]}
            assert set(got["words"]) <= keys, (name, set(got["words"]) - keys)


def test_runs_at_adjacent_seeds_share_no_stream(stream_logs):
    words = [
        {w for got in log.values() for w in got["words"]} for log in stream_logs.values()
    ]
    assert words[0] and words[1]
    assert not words[0] & words[1]
    # and no two experiments share one
    for log in stream_logs.values():
        per_experiment = [set(got["words"]) for got in log.values()]
        assert sum(map(len, per_experiment)) == len(set().union(*per_experiment))
