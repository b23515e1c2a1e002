"""coverlab benchmark: one command, four workloads, each in its own process.

    python3 perfbench/run.py --workload {cover,excursion,transfer,gw,all} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in a fresh interpreter (``bench.py``) with one BLAS
thread and ``workers = 1``.  With ``--trace 0`` it prints wall_s, setup_s,
trials_per_s and peak_rss_mib; with ``--trace 1`` the per-layer figures.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; for ``all`` the metric names are
prefixed with the workload.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cover", "excursion", "transfer", "gw")
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload's process, relay its report, return its result."""
    cmd = [
        sys.executable, str(Path(__file__).with_name("bench.py")),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"workload {name} printed no result")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "coverlab" / "harness.py").is_file():
        print(f"no coverlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
