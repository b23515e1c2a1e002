import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coverlab
from coverlab import harness, lattice, oracle
from coverlab.harness import (
    REGISTRY,
    Check,
    ExperimentConfig,
    _map_trials,
    emit_csv,
    load_tolerances,
    run_barrier_sweep,
    run_cover_experiment,
    run_excursion_length_experiment,
    run_gw_equivalence,
    run_oracle_check,
    run_transfer_check,
)
from coverlab.lattice import BudgetExceededError


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
        "barrier.lower_norm_min", "transfer.min_expected_hits",
    ):
        assert key in tol
    text = (Path(coverlab.__file__).parent / "tolerances.txt").read_text()
    assert "[PAPER]" in text and "[DERIVED]" in text


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
    monkeypatch.setattr(harness, "default_cover_budget", lambda n: 100)
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
    # transfer's trial payload carries a prebuilt TraversalMachine, which
    # must pickle to the worker processes and give the serial rows there
    serial, pooled = (
        REGISTRY[name](ExperimentConfig(name=name, seed=9, workers=w, **kwargs)) for w in (1, 2)
    )
    assert pooled.rows == serial.rows
    assert pooled.late_rows == serial.late_rows


def test_workers_env_variable(monkeypatch):
    monkeypatch.setenv("COVERLAB_WORKERS", "2")
    assert ExperimentConfig(name="cover").worker_count() == 2
    monkeypatch.delenv("COVERLAB_WORKERS")
    assert ExperimentConfig(name="cover").worker_count() == 1


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_workers_is_a_usage_error(monkeypatch, capsys, value):
    from coverlab.cli import main

    with pytest.raises(ValueError, match=f"workers must be >= 1 \\(got {value}\\)"):
        ExperimentConfig(name="transfer", workers=int(value))
    assert main(["transfer", "--workers", value]) == 2
    assert f"workers must be >= 1 (got {value})" in capsys.readouterr().err
    monkeypatch.setenv("COVERLAB_WORKERS", value)
    with pytest.raises(ValueError, match=f"COVERLAB_WORKERS must be >= 1 \\(got {value}\\)"):
        ExperimentConfig(name="transfer")
    assert main(["transfer"]) == 2
    assert f"COVERLAB_WORKERS must be >= 1 (got {value})" in capsys.readouterr().err
    # the flag overrides the environment
    assert ExperimentConfig(name="transfer", workers=2).worker_count() == 2


def test_oracle_check_sections_isolated():
    res = run_oracle_check(
        ExperimentConfig(name="oracle-check", trials=500), sections=("kac",)
    )
    assert [c.name for c in res.checks] == ["kac_moment_inequality"]
    assert res.all_passed


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


def test_prob_table_csv_dump(tmp_path):
    from coverlab.schedule import prob_table

    table = prob_table([8.0, 4.0, 1.0], c1=1.0, c2=1.0)
    cols = ["i1", "i2", "i3", "p_minus", "p_plus", "delta_minus", "delta_plus"]
    out = emit_csv(tmp_path / "table.csv", table.rows(), cols)
    lines = out.read_text().splitlines()
    assert lines[0] == "i1,i2,i3,p_minus,p_plus,delta_minus,delta_plus"
    assert len(lines) == 1 + len(table.rows())
    emit_csv(tmp_path / "again.csv", table.rows(), cols)
    assert out.read_bytes() == (tmp_path / "again.csv").read_bytes()


def test_cli_strict_schedule_too_shallow_is_usage_error():
    from coverlab.cli import main

    assert main(["curves", "--n", "64", "--schedule", "strict", "--trials", "10"]) == 2


def test_cli_malformed_params_is_usage_error(capsys):
    from coverlab.cli import main

    assert main(["curves", "--params", "1,2"]) == 2
    assert main(["curves", "--params", "a,b,c,d,e"]) == 2
    assert "--params needs five" in capsys.readouterr().err


def _square_or_overrun(overrun_at, trial):
    if trial in overrun_at:
        raise BudgetExceededError(f"trial {trial} overran", steps_taken=trial)
    return trial * trial


@pytest.mark.parametrize("workers", [1, 2])
def test_map_trials_drops_and_counts_overruns_in_trial_order(workers):
    cfg = ExperimentConfig(name="cover", workers=workers)
    overrun_at = frozenset({0, 5, 6, 22})
    results, overruns = _map_trials(_square_or_overrun, overrun_at, 23, cfg)
    assert results == [t * t for t in range(23) if t not in overrun_at]
    assert overruns == 4
    assert _map_trials(_square_or_overrun, frozenset(range(3)), 3, cfg) == ([], 3)


def _always_overrun(payload, trial):
    raise BudgetExceededError(f"trial {trial} overran", steps_taken=0)


def test_transfer_cell_whose_every_trial_overruns_fails_its_checks(monkeypatch):
    monkeypatch.setattr(harness, "_transfer_trial", _always_overrun)
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
    monkeypatch.setattr(harness, "_excursion_clock_trial", _always_overrun)
    res = run_excursion_length_experiment(
        ExperimentConfig(name="excursion", n_values=(32,), trials=20, workers=1)
    )
    # 20 D_1 clocks, 300 D_100 clocks and 3 x 200 sweep clocks, all overrun
    assert {r["failures"] for r in res.rows} == {20 + 300 + 3 * 200}
    values = {r["metric"]: r["value"] for r in res.rows}
    assert np.isnan(values["d1_mc_mean"]) and np.isnan(values["dm_ratio_p95"])
    assert res.checks and not any(c.passed for c in res.checks)
    assert all("budget overruns:" in c.detail for c in res.checks)


def test_oracle_check_books_an_overrun_as_a_failed_check(monkeypatch):
    original = harness._hit_prob_trial
    overran = []

    def overrun_once(payload, trial):
        if payload[0].n == 32 and trial == 7:
            overran.append(payload)
            raise BudgetExceededError("forced overrun", steps_taken=0)
        return original(payload, trial)

    monkeypatch.setattr(harness, "_hit_prob_trial", overrun_once)
    res = run_oracle_check(
        ExperimentConfig(name="oracle-check", trials=400, seed=4, workers=1), sections=("mc",)
    )
    checks = {c.name: c for c in res.checks}
    assert len(checks) == 7  # the battery ran to its end
    assert not checks["oracle_hit_prob_n32"].passed
    assert checks["oracle_hit_prob_n32"].detail.endswith("; budget overruns: 1")
    others = [c for name, c in checks.items() if name != "oracle_hit_prob_n32"]
    assert not any("overruns" in c.detail for c in others)
    # the estimate is over the 399 trials that finished
    row = next(r for r in res.rows if r["case"] == "hit_prob_n32")
    finished = [original(overran[0], t) for t in range(400) if t != 7]
    assert row["mc"] == sum(finished) / 399
    assert not row["passed"]


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
