"""Every check of the benchmark's own must be able to fail: each test feeds
a check a wrong result and expects a failure, next to the right result.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import math
import signal
import statistics
import time

import pytest

import bench
import checks
import machine
from spans import Patches, SetupRecorder, Tracer


def failed(results):
    return [name for name, passed, _detail in results if not passed]


# -- cover ----------------------------------------------------------------------


def test_cover_q10_below_cell_count_fails():
    assert not failed(checks.cover_checks([{"n": 128, "q10_steps": 128 * 128 - 1}]))
    assert failed(checks.cover_checks([{"n": 128, "q10_steps": 128 * 128 - 2}]))


def test_cover_mean_outside_matthews_bracket_fails_the_run():
    """The bracket check is the program's; a failed one makes the run incorrect."""
    good = _fake_call({"cover": _FakeResult([], [("cover_band_n128", True)])})
    bad = _fake_call({"cover": _FakeResult([], [("cover_band_n128", False)])})
    workload = bench.Workload((), (), None, lambda res: [])
    assert bench.evaluate(workload, good, [good])["correct"]
    assert not bench.evaluate(workload, good, [bad])["correct"]


# -- determinism ------------------------------------------------------------------


def test_csvs_differing_in_one_byte_fail():
    a = {"cover": b"n,trials\n128,60\n"}
    assert not failed(checks.same_bytes(a, dict(a)))
    assert failed(checks.same_bytes(a, {"cover": b"n,trials\n128,61\n"}))
    assert failed(checks.same_bytes(a, {}))


# -- excursion --------------------------------------------------------------------


def _excursion_rows(mc, se, exact, formula):
    return [
        {"metric": "d1_mc_mean", "value": mc, "anchor": formula},
        {"metric": "d1_mc_se", "value": se, "anchor": 0.0},
        {"metric": "d1_exact", "value": exact, "anchor": formula},
    ]


def test_excursion_right_result_passes():
    rows = _excursion_rows(3480.0, 50.0, 3477.7, 3614.9)
    assert not failed(checks.excursion_checks(rows, 1.44e7, 5e5, 1.4445e7))


def test_excursion_mc_mean_off_the_lu_solve_fails():
    rows = _excursion_rows(3477.7 + 5 * 50.0, 50.0, 3477.7, 3614.9)
    assert "excursion_d1_mc_vs_lu" in failed(checks.excursion_checks(rows, 1.44e7, 5e5, 1.4445e7))


def test_excursion_mean_off_the_closed_form_fails():
    # an exact solve 10 % off (2/pi) n^2 log(R/r), and an MC mean that follows it
    rows = _excursion_rows(3614.9 * 0.9, 20.0, 3614.9 * 0.9, 3614.9)
    names = failed(checks.excursion_checks(rows, 1.44e7, 5e5, 1.44e7))
    assert "excursion_d1_exact_within_5pct_of_closed_form" in names
    assert "excursion_d1_mc_within_5pct_of_closed_form" in names


def test_excursion_variance_off_the_second_moment_solve_fails():
    rows = _excursion_rows(3480.0, 50.0, 3477.7, 3614.9)
    names = failed(checks.excursion_checks(rows, 1.4445e7 + 5 * 5e5, 5e5, 1.4445e7))
    assert names == ["excursion_d1_var_mc_vs_lu"]


def test_variance_detail_is_read_and_an_unknown_format_raises():
    detail = "mc var=1.2420e+07 exact=1.4445e+07 se=5.14e+05 (exact relSD(D_1)=1.0929)"
    assert checks.parse_variance_detail(detail) == (1.242e7, 1.4445e7, 5.14e5)
    with pytest.raises(ValueError):
        checks.parse_variance_detail("variance 1.2e7")


# -- transfer ---------------------------------------------------------------------


def _transfer_rows():
    rows = []
    for event, gw_prob, exact in (("T0_0", 0.5, 0.40), ("T1_0", 0.125, 0.20), ("T2_0", 1 / 32, 0.10)):
        rows.append(
            {"schedule": "base", "event": event, "gw_prob": gw_prob, "exact_walk_prob": exact,
             "mc_prob": exact, "trials": 1000}
        )
    return rows


def test_transfer_right_result_passes():
    assert not failed(checks.transfer_checks(_transfer_rows()))


def test_transfer_gw_prob_off_its_closed_form_fails():
    rows = _transfer_rows()
    rows[1]["gw_prob"] = 0.125 * (1 + 1e-9)
    assert failed(checks.transfer_checks(rows)) == ["transfer_gw_closed_form_base_T1_0"]


def test_transfer_event_probabilities_summing_above_one_fail():
    rows = _transfer_rows()
    for row in rows:
        row["exact_walk_prob"] = row["mc_prob"] = 0.34
    assert "transfer_base_exact_walk_prob_sum_at_most_1" in failed(checks.transfer_checks(rows))
    assert "transfer_base_mc_prob_sum_at_most_1" in failed(checks.transfer_checks(rows))


def test_transfer_mc_probability_off_the_circle_chain_fails():
    rows = _transfer_rows()
    se = math.sqrt(0.2 * 0.8 / 1000)
    rows[1]["mc_prob"] = 0.2 + 5 * se
    assert failed(checks.transfer_checks(rows)) == ["transfer_mc_vs_chain_base_T1_0"]


# -- gw ---------------------------------------------------------------------------


def _barrier_row(p_hat, p_exact=0.05, trials=40_000):
    return {"mode": "upper", "L": 16, "y": 3.0, "trials": trials, "p_hat": p_hat, "p_exact": p_exact}


def test_barrier_mc_off_the_dp_fails():
    se = math.sqrt(0.05 * 0.95 / 40_000)
    assert not failed(checks.barrier_checks([_barrier_row(0.05 + 3 * se)]))
    assert failed(checks.barrier_checks([_barrier_row(0.05 + 5 * se)]))
    assert failed(checks.barrier_checks([_barrier_row(0.05 - 5 * se)]))
    # the exact-only row (no trials) is not a Monte Carlo cell
    assert checks.barrier_checks([_barrier_row(0.0, 0.3, trials=0)]) == []


# -- gating -----------------------------------------------------------------------


def test_statistical_program_checks_are_recorded_but_do_not_gate():
    for name in ("barrier_upper_mc_vs_exact_L16_y3", "excursion_d1_mc_vs_exact_3sigma",
                 "excursion_d1_within_5pct", "gw_two_sample_chisq",
                 "excursion_concentration_d1_variance_mc_vs_exact",
                 "excursion_concentration_p95", "excursion_tail_exponential"):
        assert not checks.program_check_gates(name)
    for name in ("cover_band_n128", "gw_enumeration_equality", "transfer_base_T0_0_bracket_exact",
                 "transfer_ratio_shrinks_T0_0", "barrier_upper_prefactor_order_one",
                 "excursion_spread_shrinks_like_sqrt_m", "transfer_base_T0_0_bracket_mc"):
        assert checks.program_check_gates(name)


def test_a_failed_own_check_makes_the_run_incorrect():
    call = _fake_call({"cover": _FakeResult([], [])})
    workload = bench.Workload((), (), None, lambda res: [("x", False, "wrong")])
    verdict = bench.evaluate(workload, call, [call])
    assert not verdict["correct"] and verdict["benchmark_checks"]["failed"] == 1


# -- wrappers ---------------------------------------------------------------------


def test_wrappers_are_removed_and_setup_replays_the_recorded_calls():
    from coverlab import gw, harness, lattice, oracle

    originals = (lattice.cover_time, harness.cover_time, lattice.WalkState.peek_block)
    recorder = SetupRecorder(["oracle:matthews_cover_bracket"])
    tracer = Tracer()
    with Patches() as patches:
        recorder.install(patches)
        assert harness.cover_time is lattice.cover_time  # untouched: not a set-up target
        oracle.matthews_cover_bracket(4)
        oracle.matthews_cover_bracket(6)
    with Patches() as patches:
        tracer.install(patches)
        assert harness.cover_time is not originals[1]
        walk = lattice.WalkState(lattice.TorusPoint(0, 0, 4), seed=1)
        tracer.root("harness", lambda: harness.cover_time(walk))
        gw.gw_joint_prob(1, [0])
    assert (lattice.cover_time, harness.cover_time, lattice.WalkState.peek_block) == originals
    assert [call[3] for call in recorder.calls] == [(4,), (6,)]
    recorder.replay()
    figures = tracer.layer_metrics(trials=1)
    assert figures["lattice.walk_init_us"] > 0 and figures["lattice.cover_scan_s"] > 0
    assert 0 < figures["lattice.moves_used_ratio"] <= 1
    assert figures["gw.joint_prob_s"] > 0 and figures["oracle.solves"] == 0


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [["harness", 0.0, 10.0, -1], ["lattice.movegen", 1.0, 4.0, 0],
                    ["lattice.cover_scan", 5.0, 9.0, 0], ["lattice.movegen", 6.0, 8.0, 2]]
    times = tracer.group_times()
    assert times["harness"]["self"] == 3.0
    assert times["lattice.cover_scan"]["self"] == 2.0
    assert times["lattice.movegen"]["self"] == 5.0


class _FakeCheck:
    def __init__(self, name, passed):
        self.name, self.passed, self.detail = name, passed, ""


class _FakeResult:
    def __init__(self, rows, program_checks):
        self.rows = rows
        self.checks = [_FakeCheck(n, p) for n, p in program_checks]


def _fake_call(results):
    return bench.Call(1.0, results, {key: b"x\n" for key in results})


# -- speed probe ----------------------------------------------------------------


def test_speed_probe_scales_by_its_median_sample_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with machine.SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(probe.samples) >= 2
    assert probe.factor() == machine.PROBE_NOMINAL_S / statistics.median(probe.samples)
    with pytest.raises(RuntimeError):
        machine.SpeedProbe().factor()
