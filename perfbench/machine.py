"""What a run records about the machine it ran on.

Load and steal come from /proc at the start and end of each workload; the
reference computations use no coverlab code, so machine drift shows apart
from changes to the program.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import signal
import statistics
import subprocess
import time
from pathlib import Path

# The speed probe runs its pass every PROBE_INTERVAL_S of wall time (about
# 2 % of the time it samples).  PROBE_NOMINAL_S is about the pass's median
# time on the machine of the reference runs in README.md; a time measured
# under the probe is scaled to the machine speed at which the pass takes
# that long.
PROBE_INTERVAL_S = 0.1
PROBE_NOMINAL_S = 2.3e-3


def load_and_steal() -> dict:
    """1/5/15-minute load averages and the machine-wide CPU steal ticks."""
    with open("/proc/loadavg", encoding="ascii") as f:
        load = [float(v) for v in f.read().split()[:3]]
    with open("/proc/stat", encoding="ascii") as f:
        cpu = f.readline().split()
    return {"loadavg": load, "steal_ticks": int(cpu[8]), "unix_time": time.time()}


def _python_reference() -> float:
    t = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t


def _numpy_reference() -> float:
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=0))
    t = time.perf_counter()
    moves = rng.integers(0, 4, size=1 << 20)
    np.sort(np.cumsum(moves) % 1021)
    return time.perf_counter() - t


class SpeedProbe:
    """Samples the machine's speed while the program runs in this process.

    This machine's speed moves by 10-20 % over seconds to minutes, and a
    fixed pass timed during a call tracks it: a pure-Python loop and a numpy
    pass of about 1 ms each, since the Python loop tracks the Python-bound
    excursion ladder better and the numpy pass the array-bound experiments.
    Inside ``with probe:`` a SIGALRM handler times that pass every
    ``PROBE_INTERVAL_S``; ``factor()`` turns a time measured inside into the
    time at nominal speed.  The pass uses no coverlab code, so a change to
    the program moves it only through the state it leaves in the caches.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._data = np.arange(1 << 15, dtype=np.int64)
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame):
        t = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc = (acc * 31 + i) % 1_000_003
        for _ in range(2):
            self._np.sort(self._np.cumsum(self._data * 7) % 1021)
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """PROBE_NOMINAL_S over the median sample: multiply a time measured
        inside the probe by it to get the time at nominal speed."""
        if not self.samples:
            raise RuntimeError("the speed probe took no sample; the timed span is too short")
        return PROBE_NOMINAL_S / statistics.median(self.samples)


def reference_times(repeats: int = 5) -> dict:
    """Median seconds of a fixed pure-Python loop and a fixed numpy pass."""
    return {
        "python_s": statistics.median(_python_reference() for _ in range(repeats)),
        "numpy_s": statistics.median(_numpy_reference() for _ in range(repeats)),
    }


def _loaded_openblas() -> list[str]:
    libs = set()
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as f:
        for line in f:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    return sorted(libs)


def blas_record() -> dict:
    """BLAS build of numpy and the thread count each loaded OpenBLAS reports."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads_reported": threads,
    }


def source_record(root: Path) -> dict:
    """Git commit when the tree is a repository, and a digest of the sources."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "coverlab").glob("*")):
        if path.suffix in (".py", ".txt"):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
