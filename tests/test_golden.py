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
placeholder 1 into its Monte Carlo standard-error cell.  The six walk
digests (``cover``, ``excursion``, ``transfer``, ``curves``,
``curves.late`` and ``oracle-check``) were re-recorded on purpose once more
for stream format 3, which reads 32 moves from each raw Philox word;
``gw-check.csv`` and ``barrier.csv`` draw no walk and kept theirs.  The
three GW digests (``gw-check``, ``barrier`` and ``curves``, whose
``gw_free`` rows are GW paths) were re-recorded on purpose when
``gw.gw_generations`` began to draw NB(T, 1/2) by inverting a table of
scipy's ``nbdtr`` with one ``Generator.random`` uniform per draw, in place
of numpy's negative-binomial sampler; the five walk digests kept theirs.
``gw-check.csv`` alone was re-recorded on purpose once more when
``gw.srw_traversal_samples`` began to step its 1-D walks eight moves per
table read, one coin byte per running walk from ``random_raw``, in place
of one ``Generator.integers`` coin per walk and step: only its three
``two_sample_T*`` p-values moved.

The digests depend on numpy's Philox generator (its raw words and its
``random`` doubles) and on scipy's solvers and ``nbdtr``, so the versions
they were taken under are recorded too, and a failure prints them next to
the running ones: a mismatch under other versions may be a library change
rather than an engine change.
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
    "cover.csv": "aadde6324bde7c586b7eb637f642929b8b1d73b3b3f4fb9b678e97f77e080152",
    "excursion.csv": "75576d4841ca5669a42a13b26f30b2f608c0f65d2bbdf0d862e9fbd7105c4403",
    "transfer.csv": "da3aff100587594a2a6a4c64853dbf8f1b8c26af66af5afb663d25a1f7405d37",
    "gw-check.csv": "d86672bb9f135f917ba96bcabcca361032c2e625e24c22e934dd12950d620578",
    "barrier.csv": "7d3d74d8a1d6516cd93f444389d98d439a62cdf6d2664f2ae62ccbcc8e965ae7",
    "curves.csv": "f3448e0b41408312cf220e8e5ad4234d358ae4efc07f22c42ef6c3a1fe99398c",
    "curves.late.csv": "57c2aad34badfc906f0d2323d8287d8c7b8de2cc9bf2a0d72831e7cd75e7baac",
    "oracle-check.csv": "9787c7011b682a7443b5ca59a2ad6258537b7a0a85e915aef5d7d30cb7daf1e0",
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
