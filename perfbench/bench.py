"""One workload in one fresh process.

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and one BLAS thread:

    python3 perfbench/run.py --workload cover --seed 1 --seconds 10 --trace 0

The process imports coverlab from ``src/``, makes one untimed warm-up call
at the run's seed (which also records the exact-preparation calls), then
either

* times the exact preparation alone (``setup_s``, median of replays) and
  repeats the experiment call, at least ``Workload.min_calls`` times, until
  ``--seconds`` have been measured (``wall_s``, median repetition), both
  under the speed probe and scaled to nominal machine speed, or, with
  ``--trace 1``,
* makes one call with timing wrappers installed and reports the per-layer
  figures, plus the median import time of ``coverlab.harness`` in fresh
  interpreters.

Every call's CSVs must equal the warm-up's byte for byte.  The last line
of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import machine
from spans import Patches, SetupRecorder, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPEATS = 500
IMPORT_REPEATS = 3
# Two calls at one seed are needed for the byte-identical CSV check, and the
# median of two or more is steadier than one call.  A workload may ask for
# more (Workload.min_calls).
MIN_TIMED_CALLS = 2

TRANSFER_TRIALS = 1000
GW_SAMPLES = 20_000


def _excursion_clocks(trials_d1: int) -> int:
    """Clocks one excursion call runs: the D_1 trials, the D_m trials and the
    three m-sweep cells (mirrors run_excursion_length_experiment)."""
    trials_dm = max(300, trials_d1 // 16)
    return trials_d1 + trials_dm + 3 * max(200, trials_dm // 8)


@dataclass(frozen=True)
class Workload:
    experiments: tuple  # (REGISTRY key, ExperimentConfig arguments)
    setup_targets: tuple  # exact preparation that setup_s replays
    trials: Callable  # results -> (attempted, overruns) per call
    own_checks: Callable  # results -> [(name, passed, detail)]
    min_calls: int = MIN_TIMED_CALLS


def _cover_trials(res):
    rows = res["cover"].rows
    return sum(int(r["trials"]) for r in rows), sum(int(r["failures"]) for r in rows)


def _excursion_trials(res):
    rows = res["excursion"].rows
    return _excursion_clocks(int(rows[0]["trials"])), int(rows[0]["failures"])


def _transfer_trials(res):
    """Base plus doubled-schedule walks (mirrors run_transfer_check); the
    rows count the walks that finished within the budget."""
    attempted = TRANSFER_TRIALS + max(2000, TRANSFER_TRIALS // 3)
    done = {r["schedule"]: int(r["trials"]) for r in res["transfer"].rows}
    return attempted, attempted - sum(done.values())


def _gw_trials(res):
    barrier = sum(int(r["trials"]) for r in res["barrier"].rows)
    # gw-check draws GW_SAMPLES 1-D walks and GW_SAMPLES GW paths at 3 levels
    return barrier + 4 * GW_SAMPLES, 0


def _excursion_own(res):
    result = res["excursion"]
    detail = next(
        c.detail for c in result.checks
        if c.name == "excursion_concentration_d1_variance_mc_vs_exact"
    )
    var_mc, var_exact, var_se = checks.parse_variance_detail(detail)
    return checks.excursion_checks(result.rows, var_mc, var_se, var_exact)


WORKLOADS = {
    "cover": Workload(
        experiments=(("cover", {"n_values": (128,), "trials": 60}),),
        setup_targets=("oracle:matthews_cover_bracket",),
        trials=_cover_trials,
        own_checks=lambda res: checks.cover_checks(res["cover"].rows),
    ),
    "excursion": Workload(
        experiments=(("excursion", {"n_values": (50,), "trials": 2000}),),
        setup_targets=(
            "oracle:EquilibriumWorkspace.__init__",
            "oracle:EquilibriumWorkspace.equilibrium_pair",
            "oracle:EquilibriumWorkspace.expected_d1",
            "oracle:EquilibriumWorkspace.d1_moments",
        ),
        trials=_excursion_trials,
        own_checks=_excursion_own,
    ),
    "transfer": Workload(
        experiments=(("transfer", {"trials": TRANSFER_TRIALS}),),
        setup_targets=(
            "oracle:CircleChain.__init__",
            "oracle:CircleChain.event_probability",
            "schedule:prob_table",
        ),
        trials=_transfer_trials,
        own_checks=lambda res: checks.transfer_checks(res["transfer"].rows),
        # two 6-7 s calls still spread about 8 % between runs after scaling
        min_calls=3,
    ),
    "gw": Workload(
        experiments=(("barrier", {"trials": 40_000}), ("gw-check", {"trials": GW_SAMPLES})),
        setup_targets=("gw:exact_barrier_probability", "gw:enumerate_traversal_law"),
        trials=_gw_trials,
        own_checks=lambda res: checks.barrier_checks(res["barrier"].rows),
    ),
}


@dataclass
class Call:
    wall: float
    results: dict = field(default_factory=dict)
    csv: dict = field(default_factory=dict)
    speed: float = 1.0  # SpeedProbe factor over the call; 1.0 when not probed


def call(
    workload: Workload, seed: int, outdir: Path, tracer: Tracer | None = None,
    probe: machine.SpeedProbe | None = None,
) -> Call:
    """Run the workload's experiments once at ``seed``; time only the calls,
    under ``probe`` when one is given."""
    from coverlab.harness import REGISTRY, ExperimentConfig

    out = Call(0.0)
    for key, kwargs in workload.experiments:
        path = outdir / f"{key}.csv"
        cfg = ExperimentConfig(name=key, seed=seed, workers=1, out=path, **kwargs)
        run = REGISTRY[key]
        with probe or contextlib.nullcontext():
            t = time.perf_counter()
            if tracer is None:
                result = run(cfg)
            else:
                result = tracer.root("harness", lambda: run(cfg))
            out.wall += time.perf_counter() - t
        out.results[key] = result
        out.csv[key] = path.read_bytes()
    if probe is not None:
        out.speed = probe.factor()
    return out


def import_seconds(repeats: int) -> float:
    """Median time of ``import coverlab.harness`` in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import coverlab.harness; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def evaluate(workload: Workload, reference: Call, calls: list[Call]) -> dict:
    """Program checks (gating and recorded-only) and the benchmark's own."""
    program = [c for res in calls[0].results.values() for c in res.checks]
    own = list(workload.own_checks(calls[0].results))
    for other in calls:
        own += checks.same_bytes(reference.csv, other.csv)
    gating_failed = [c.name for c in program if not c.passed and checks.program_check_gates(c.name)]
    recorded_failed = [
        c.name for c in program if not c.passed and not checks.program_check_gates(c.name)
    ]
    own_failed = [f"{name}: {detail}" for name, passed, detail in own if not passed]
    return {
        "correct": not gating_failed and not own_failed,
        "program_checks": {
            "evaluated": len(program),
            "failed": len(gating_failed) + len(recorded_failed),
            "failed_gating": gating_failed,
            "failed_recorded_only": recorded_failed,
        },
        "benchmark_checks": {"evaluated": len(own), "failed": len(own_failed), "failures": own_failed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    outdir = OUT / f"{args.workload}-seed{args.seed}"

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    record["machine_start"] = machine.load_and_steal()
    record["reference_start"] = machine.reference_times()

    t = time.perf_counter()
    import coverlab.harness

    record["import_in_process_s"] = time.perf_counter() - t
    src = (ROOT / "src").resolve()
    if src not in Path(coverlab.harness.__file__).resolve().parents:
        raise SystemExit(f"coverlab was imported from outside {src}")

    recorder = SetupRecorder(workload.setup_targets)
    with Patches() as patches:
        recorder.install(patches)
        warm = call(workload, args.seed, outdir / "warmup")
    if not recorder.calls:
        raise SystemExit("the warm-up call made none of the set-up calls")

    if args.trace:
        tracer = Tracer()
        with Patches() as patches:
            tracer.install(patches)
            timed = [call(workload, args.seed, outdir / "traced", tracer)]
        tracer.dump(outdir / "trace.json")
    else:
        setup = []
        with machine.SpeedProbe() as setup_probe:
            while len(setup) < SETUP_MAX_REPEATS and (
                len(setup) < SETUP_MIN_REPEATS or sum(setup) < SETUP_MIN_SECONDS
            ):
                t = time.perf_counter()
                recorder.replay()
                setup.append(time.perf_counter() - t)
        timed, probes = [], []
        while len(timed) < workload.min_calls or _another_call_fits(timed, args.seconds):
            probes.append(machine.SpeedProbe())
            timed.append(call(workload, args.seed, outdir / f"rep{len(timed)}", probe=probes[-1]))

    verdict = evaluate(workload, warm, timed)
    attempted = failed = 0
    for c in timed:
        a, f = workload.trials(c.results)
        attempted, failed = attempted + a, failed + f
    per_call, per_call_failed = workload.trials(timed[0].results)

    walls = [c.wall for c in timed]
    if args.trace:
        metrics = tracer.layer_metrics(per_call)
        metrics["harness.import_s"] = import_seconds(IMPORT_REPEATS)
        metrics["trace.wall_s"] = walls[0]
        metrics["trace.overhead_s"] = walls[0] - warm.wall
        units = {k: _layer_unit(k) for k in metrics}
    else:
        wall = statistics.median(c.wall * c.speed for c in timed)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup) * setup_probe.factor(),
            "trials_per_s": (per_call - per_call_failed) / wall,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"wall_s": "s", "setup_s": "s", "trials_per_s": "trials/s", "peak_rss_mib": "MiB"}
        record["setup_repeats_s"] = setup
        record["setup_speed_factor"] = setup_probe.factor()
        record["calls_speed_factor"] = [c.speed for c in timed]
        record["raw_wall_s"] = statistics.median(walls)
        record["raw_setup_s"] = statistics.median(setup)
        record["probe_median_s"] = statistics.median(
            statistics.median(p.samples) for p in [setup_probe, *probes]
        )

    record.update(verdict)
    record["configs"] = dict(workload.experiments)
    record["calls_s"] = walls
    record["warmup_s"] = warm.wall
    record["trials_per_call"] = per_call
    record["overruns_per_call"] = per_call_failed
    record["reference_end"] = machine.reference_times()
    record["machine_end"] = machine.load_and_steal()
    record["versions"] = machine.versions()
    record["blas"] = machine.blas_record()
    record["source"] = machine.source_record(ROOT)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(
            f"{args.workload}: unscaled wall_s = {record['raw_wall_s']:.6g} s, "
            f"setup_s = {record['raw_setup_s']:.6g} s"
        )
    print("record " + json.dumps(record, separators=(",", ":")))
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _another_call_fits(timed: list[Call], seconds: float) -> bool:
    """True while one more call would end nearer ``seconds`` of measured
    calls than stopping now, so a run measures about ``seconds``."""
    spent = sum(c.wall for c in timed)
    return spent + statistics.median(c.wall for c in timed) / 2 < seconds


def _layer_unit(name: str) -> str:
    if name.endswith("_us") or name.endswith("_us_per_trial"):
        return "us"
    if name.endswith("_steps_per_s"):
        return "steps/s"
    if name.endswith("_paths_per_s"):
        return "paths/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name in ("oracle.solves", "oracle.factorizations"):
        return "count"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
