"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances come from the checked-in manifest (tolerances.txt) and are
asserted exactly as stated.  The paper's results are asymptotic; where a
clause needs a finite-n number, the bound comes from an exact solve, never
from a Monte Carlo output:

  * criterion 4's concentration clause uses the exact relSD(D_1) of one
    excursion cycle (~1.055 at n = 128, r = 4, R = 32),
  * criterion 7's normalized-mean band is Matthews' exact bracket on
    E[t_cov] (~[0.67, 1.58] at n = 64 down to ~[0.57, 1.50] at n = 256),
    which the Monte Carlo mean may miss by its sampling error alone.

Every criterion must be green.
"""

import math
import os

import numpy as np
import pytest

from coverlab.harness import (
    ExperimentConfig,
    run_barrier_sweep,
    run_cover_experiment,
    run_excursion_length_experiment,
    run_gw_equivalence,
    run_oracle_check,
    run_transfer_check,
    run_curve_report,
)

SEED = 0
# the longest runs use every core this process may run on; their output does
# not depend on the worker count (test_worker_override_matches_serial)
WORKERS = len(os.sched_getaffinity(0))


def _report(criterion, result, subset=None):
    checks = [c for c in result.checks if subset is None or any(s in c.name for s in subset)]
    ok = all(c.passed for c in checks)
    print(f"ACCEPTANCE {criterion}: {'pass' if ok else 'FAIL'}")
    for c in checks:
        print(f"  [{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    return ok, checks


@pytest.fixture(scope="module")
def cover_result():
    return run_cover_experiment(ExperimentConfig(name="cover", seed=SEED, workers=WORKERS))


@pytest.fixture(scope="module")
def excursion_result():
    return run_excursion_length_experiment(
        ExperimentConfig(name="excursion", trials=40_000, seed=SEED, workers=WORKERS)
    )


@pytest.fixture(scope="module")
def oracle_result():
    return run_oracle_check(
        ExperimentConfig(name="oracle-check", trials=100_000, seed=SEED, workers=WORKERS)
    )


def test_criterion_01_oracle_vs_mc(oracle_result):
    """Oracle-vs-MC equivalence at n = 32, 64: 1e5 trials within 3 sigma."""
    ok, checks = _report(
        "1 (oracle vs MC)", oracle_result,
        subset=("oracle_hit_prob", "oracle_exit", "oracle_cover"),
    )
    assert len(checks) == 7
    assert ok, [c.detail for c in checks if not c.passed]


def test_criterion_02_lemma23_brackets(oracle_result):
    """Exact hit probabilities inside the c1 = c2 = 2 brackets on the grid."""
    ok, checks = _report("2 (circle-to-circle brackets)", oracle_result, subset=("lemma23_",))
    assert len(checks) == 2
    assert ok, [c.detail for c in checks if not c.passed]


def test_criterion_03_gw_exactness():
    """GW laws: enumeration equality to 1e-12, NB marginals, chi-square."""
    res = run_gw_equivalence(ExperimentConfig(name="gw-check", trials=100_000, seed=SEED))
    ok, checks = _report("3 (GW exactness)", res)
    assert ok, [c.detail for c in checks if not c.passed]


def test_criterion_04a_excursion_length_and_tail(excursion_result):
    """E[D_1] within 5% of (2/pi) n^2 log(R/r); exponential tail fit."""
    ok, checks = _report(
        "4a (excursion mean and tail)",
        excursion_result,
        subset=("d1_within_5pct", "d1_mc_vs_exact", "tail_exponential"),
    )
    assert len(checks) == 3
    assert ok, [c.detail for c in checks if not c.passed]


def test_criterion_04b_concentration_faithful(excursion_result):
    """Concentration at m = 100 against the exact law of one cycle.

    p95(|D_m/(E[D_1](m-1)) - 1|) <= (1 + s) z_0.975 relSD(D_1)/sqrt(m-1),
    with relSD(D_1) ~ 1.055 from the exact second-moment solve (bound
    ~0.220 at s = 0.06), and the Monte Carlo variance of D_1 within
    oracle.mc_sigma standard errors of the exact Var(D_1).
    """
    ok, checks = _report(
        "4b (concentration)", excursion_result, subset=("concentration",)
    )
    assert len(checks) == 2
    assert ok, [c.detail for c in checks if not c.passed]


def test_criterion_05_equilibrium_machinery(oracle_result):
    """Fixed-point residuals, uniformity, q-shape, E[G_1] identity."""
    ok, checks = _report(
        "5 (equilibrium machinery)", oracle_result,
        subset=("equilibrium_", "stationary_measure_uniform", "oracle_coupled_chain_g1"),
    )
    assert len(checks) == 4
    assert ok, [c.detail for c in checks if not c.passed]


def test_criterion_06_kac_moments(oracle_result):
    """Kac inequality exact for m = 2, 3 on two domains."""
    ok, checks = _report("6 (Kac moments)", oracle_result, subset=("kac_moment_inequality",))
    assert len(checks) == 1
    assert ok, [c.detail for c in checks if not c.passed]


def test_criterion_07a_cover_gap_trend(cover_result):
    """Gap statistic 2 log n - tau_hat moves toward the -log log n correction."""
    ok, checks = _report(
        "7a (cover gap trend)", cover_result, subset=("gap_monotone", "moves_toward")
    )
    assert len(checks) == 2
    assert ok, [c.detail for c in checks if not c.passed]


def test_criterion_07b_cover_band_faithful(cover_result):
    """Normalized mean E[t_cov]/(n^2 log^2 n) inside Matthews' exact bracket,
    up to oracle.mc_sigma standard errors of the Monte Carlo mean.

    Upper edge max_x E_x H_0 * H_{n^2-1}; lower edge the best sublattice
    bound min E_a H_b * H_{(n/k)^2-1} over k | n.  The second-order anchor
    (4/pi)(1 - ll/2l) is asymptotic and is reported, not asserted; 7a tests
    the trend toward it.
    """
    ok, checks = _report("7b (cover band)", cover_result, subset=("band",))
    assert len(checks) == 3
    assert ok, [c.detail for c in checks if not c.passed]


def test_criterion_08_transfer_ratio():
    """Walk/GW ratio inside the Delta bracket; |ratio - 1| shrinks as ell doubles."""
    res = run_transfer_check(
        ExperimentConfig(name="transfer", trials=50_000, seed=SEED, workers=WORKERS)
    )
    ok, checks = _report("8 (transfer ratio)", res)
    assert ok, [c.detail for c in checks if not c.passed]


def test_criterion_09_barrier_shape():
    """Lower-mode normalized probabilities bounded below; the upper-mode fitted
    prefactor (the largest p_hat / shape ratio) is of order one."""
    res = run_barrier_sweep(ExperimentConfig(name="barrier", trials=200_000, seed=SEED))
    ok, checks = _report("9 (barrier shape)", res)
    assert ok, [c.detail for c in checks if not c.passed]


def test_criterion_10_determinism(tmp_path):
    """Every experiment re-run with the same seed emits byte-identical CSV."""
    runs = {
        "cover": ExperimentConfig(
            name="cover", n_values=(16, 24), trials=30, seed=7, workers=1
        ),
        "excursion": ExperimentConfig(name="excursion", n_values=(64,), trials=800, seed=7),
        "transfer": ExperimentConfig(name="transfer", trials=3000, seed=7),
        "gw-check": ExperimentConfig(name="gw-check", trials=5000, seed=7),
        "barrier": ExperimentConfig(name="barrier", trials=20_000, seed=7),
        "curves": ExperimentConfig(name="curves", trials=60, seed=7),
        "oracle-check": ExperimentConfig(name="oracle-check", trials=3000, seed=7),
    }
    from coverlab.harness import REGISTRY

    all_ok = True
    for name, cfg in runs.items():
        outputs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{name}.{tag}.csv"
            cfg_run = ExperimentConfig(**{**cfg.__dict__, "out": out})
            REGISTRY[name](cfg_run)
            blobs = [out.read_bytes()]
            late = out.with_suffix(".late.csv")
            if late.exists():
                blobs.append(late.read_bytes())
            outputs.append(b"".join(blobs))
        same = outputs[0] == outputs[1]
        all_ok &= same
        print(f"  [{'pass' if same else 'FAIL'}] determinism_{name}")
    print(f"ACCEPTANCE 10 (determinism): {'pass' if all_ok else 'FAIL'}")
    assert all_ok


def test_criterion_11_curve_report():
    """Curve report at defaults: T_0 = m+ on every walk profile, conditioned GW
    sqrt(T_i) near its centering, and the late-point event seen often enough
    and no more often than 1.5 times its GW corridor probability allows."""
    res = run_curve_report(ExperimentConfig(name="curves", seed=SEED))
    ok, checks = _report("11 (curve report)", res)
    assert [c.name for c in checks] == [
        "curves_level0_equals_m", "curves_gw_sqrt_centering",
        "late_event_positive", "late_event_below_corridor",
    ]
    assert ok, [c.detail for c in checks if not c.passed]
