"""Golden digests: every experiment's CSV bytes, pinned across commits.

Each ``REGISTRY`` experiment runs once at a small config with seed 7, and
the sha256 of every CSV it writes (``curves`` also writes ``.late.csv``)
must equal the digest recorded below.  A refactor leaves every digest
unchanged; a change that moves any output byte fails here and must
re-record the digests on purpose.  They were last re-recorded on purpose
for stream format 2: one named stream key per section (lattice.stream_key).
Since then ``gw-check.csv`` moved, when each enumeration row began to report
its own case's difference instead of a running maximum, and the oracle
digests were merged: ``oracle-check`` used to be pinned as two partial runs
(its Monte Carlo and equilibrium sections, and its exact-only bracket and
Kac sections in ``oracle-check.exact.csv``), and it now runs whole like
every other experiment, so one ``oracle-check.csv`` is pinned, recorded from
an all-sections run of the code before the merge.  It was re-recorded once
more when the exact-only ``exit_center_band`` row stopped writing a
placeholder 1 into its Monte Carlo standard-error cell.

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

GOLDEN = {
    "cover.csv": "03c3f9c92862d9bb3f24bd6f4829f968babfcd8513b2884e3b2944151bab795c",
    "excursion.csv": "071df65070e0d69fdf1892d375e62c89328eae89c7aff09c11003676b4c7a45e",
    "transfer.csv": "96aab0d417945251c5d4dbbddb78efc884dd7f37e85d20bed58c82a0765aeefb",
    "gw-check.csv": "40506e6e6737012cf89f2f500d1f1f8e530ef1ccba5cc1628f7625ce1f07804d",
    "barrier.csv": "edb72e95cd77ae2edcd35ca99531ff48cae26e8969f23db0f8ca44867a91008f",
    "curves.csv": "0585181483c2ae54df8a868168756517eb904b777fb633ad1d1bcc81fb170ddb",
    "curves.late.csv": "a3348ad5052d1211b5337593974ea2f4eaf57b85a436622ed1e2929071fd8b03",
    "oracle-check.csv": "1c3ab36b1ed3516af911c91b355647e5d2f0fcb856d1dba3f57b834bc87c25dd",
}


def _digests(outdir) -> dict[str, str]:
    for name, kwargs in CONFIGS.items():
        cfg = ExperimentConfig(
            name=name, seed=SEED, workers=1, out=outdir / f"{name}.csv", **kwargs
        )
        REGISTRY[name](cfg)
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
