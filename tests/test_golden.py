"""Golden digests: every experiment's CSV bytes, pinned across commits.

Each ``REGISTRY`` experiment runs once at a small config with seed 7, and
the sha256 of every CSV it writes (``curves`` also writes ``.late.csv``)
must equal the digest recorded below.  ``oracle-check`` runs twice: its
Monte Carlo sections into ``oracle-check.csv``, and its exact-only
``bracket`` and ``kac`` sections into ``oracle-check.exact.csv``.  A refactor leaves every digest
unchanged; a change that moves any output byte fails here and must
re-record the digests on purpose.

The digests depend on numpy's Philox and negative-binomial samplers and on
scipy's solvers, so the versions they were taken under are recorded too,
and a failure prints them next to the running ones: a mismatch under other
versions may be a library change rather than an engine change.
"""

import hashlib

import numpy as np
import scipy

from coverlab.harness import REGISTRY, ExperimentConfig

SEED = 7

RECORDED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

CONFIGS = {
    "cover": dict(n_values=(16, 24), trials=30),
    "excursion": dict(n_values=(32,), trials=400),
    "transfer": dict(trials=2000),
    "gw-check": dict(trials=5000),
    "barrier": dict(trials=10_000),
    "curves": dict(trials=60),
    "oracle-check": dict(trials=2000),
}

ORACLE_SECTIONS = ("mc", "equilibrium")
ORACLE_EXACT_SECTIONS = ("bracket", "kac")

GOLDEN = {
    "cover.csv": "d9cd645b5dce9177dd8852a59223dc2d04c4a370e8297f2577a130d5284657fa",
    "excursion.csv": "73b09099ed5f185068da5ed1f7796beef6da1d24c47718a613988b0416da4bb3",
    "transfer.csv": "26df9bb82b17961b839cb59c86b703776843cbe44d8ce024a9269a79f687d2f7",
    "gw-check.csv": "5a2b1df5f785892bb5cd47d85627696d67f50a779e01c4aeadc6c8e4273eee5d",
    "barrier.csv": "b5cca72711b565653977d213ebf8bd40cf8d78727c62e151d2a9c89261963566",
    "curves.csv": "a52f01593dd66e3609e1f48fd1aa95f3ff285090be096f9f56ba89dadc02daac",
    "curves.late.csv": "c167a8f0c2a87362a512cef224ff9634c825b52a49b2066a283dec54ab519a37",
    "oracle-check.csv": "9b22f2c72c258bbe9ff89f7ac08098286a44ad4c37c050b2de9eee55059625e2",
    "oracle-check.exact.csv": "957c9e2d3803af8f184f2174f915143771ee745827e0a31b13d179426f8dd3ff",
}


def _digests(outdir) -> dict[str, str]:
    for name, kwargs in CONFIGS.items():
        cfg = ExperimentConfig(
            name=name, seed=SEED, workers=1, out=outdir / f"{name}.csv", **kwargs
        )
        if name == "oracle-check":
            REGISTRY[name](cfg, sections=ORACLE_SECTIONS)
        else:
            REGISTRY[name](cfg)
    exact = ExperimentConfig(
        name="oracle-check",
        seed=SEED,
        workers=1,
        out=outdir / "oracle-check.exact.csv",
        **CONFIGS["oracle-check"],
    )
    REGISTRY["oracle-check"](exact, sections=ORACLE_EXACT_SECTIONS)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.glob("*.csv"))
    }


def test_golden_csv_digests(tmp_path):
    assert set(CONFIGS) == set(REGISTRY)
    got = _digests(tmp_path)
    changed = sorted(
        name for name in GOLDEN.keys() | got.keys() if GOLDEN.get(name) != got.get(name)
    )
    running = {"numpy": np.__version__, "scipy": scipy.__version__}
    assert not changed, (
        f"CSV digests changed for {changed}; digests recorded under {RECORDED_VERSIONS}, "
        f"running under {running}; got {got}"
    )
