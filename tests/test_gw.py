import itertools
import math

import numpy as np
import pytest

from coverlab.gw import (
    BarrierSpec,
    barrier_bands,
    barrier_event_mc,
    conditioned_extinction_samples,
    enumerate_traversal_law,
    exact_barrier_probability,
    extinct_by,
    gw_generations,
    gw_joint_prob,
    iterate_law,
    one_step_pmf,
    srw_traversal_counts,
    srw_traversal_samples,
    sub_gaussian_envelope,
    transition_matrix,
)
from coverlab.stats import chdtrc, two_sample_chisquare


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _generation(m, i, size, rng):
    """T_i of ``size`` independent GW paths from T_0 = m."""
    return next(itertools.islice(gw_generations(np.full(size, m), rng), i - 1, None))


def test_gw_step_zero_is_absorbing():
    # an extinct population stays at zero and takes no draws from the stream
    rng = _rng()
    gens = gw_generations(np.zeros(4, dtype=np.int64), rng)
    assert all((next(gens) == 0).all() for _ in range(10))
    assert rng.random() == _rng().random()


def test_trajectory_rejects_resurrection():
    # a path that dies is never resurrected, and a dead path takes no draws:
    # the live paths of a mixed run equal a run of the live paths alone,
    # generation by generation
    pop = np.array([0, 3, 0, 7, 1, 0, 5, 2])
    live = pop > 0
    mixed = gw_generations(pop, _rng())
    alone = gw_generations(pop[live], _rng())
    dead = ~live
    for _ in range(8):
        gen, ref = next(mixed), next(alone)
        assert (gen[dead] == 0).all()
        assert np.array_equal(gen[live], ref)
        dead |= gen == 0
    assert dead[live].any()  # some live path died on the way and stayed dead


def test_one_step_law_geometric_and_convolution():
    # P(step(1) = j) = 2^-(j+1); P(step(2) = 1) = 2 * 2^-3
    law1 = one_step_pmf(1, 30)
    assert np.allclose(law1, [2.0 ** -(j + 1) for j in range(31)])
    law2 = one_step_pmf(2, 30)
    assert law2[1] == pytest.approx(0.25)
    conv = np.convolve(law1, law1)[:31]
    assert np.allclose(law2, conv, atol=1e-14)


def test_gw_step_empirical_frequencies():
    rng = _rng(1)
    n = 200_000
    draws = _generation(1, 1, n, rng)
    for j in range(6):
        p = 2.0 ** -(j + 1)
        freq = (draws == j).mean()
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_criticality_and_variance():
    rng = _rng(2)
    for m in (1, 10, 100):
        draws = _generation(m, 1, 40_000, rng)
        se_mean = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - m) <= 3 * se_mean
        # geometric(1/2) has variance 2, so one step from m has variance 2m
        var = draws.var(ddof=1)
        se_var = math.sqrt(2.0 / draws.size) * var  # normal-theory approximation
        assert abs(var - 2 * m) <= 4 * se_var


def test_extinct_by_examples_and_monotonicity():
    assert extinct_by(1, 1) == pytest.approx(0.5)
    assert extinct_by(2, 1) == pytest.approx(0.25)
    assert extinct_by(5, 3) == pytest.approx((3 / 4) ** 5)
    for k in (1, 2, 5):
        vals = [extinct_by(m, k) for m in range(6)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    for m in (1, 3):
        vals = [extinct_by(m, k) for k in (1, 2, 4, 8)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_extinct_by_mc():
    rng = _rng(3)
    n = 30_000
    hits = int((_generation(5, 3, n, rng) == 0).sum())
    p = extinct_by(5, 3)
    assert abs(hits / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_extinction_formula_matches_convolutions():
    for m in range(7):
        for k in range(1, 6):
            law = iterate_law(m, k, cap=250)
            assert law[0] == pytest.approx(extinct_by(m, k), abs=1e-12)


def test_envelope_dominates_exact_law_on_grid():
    # exhaustive check by convolution powers: m <= 8, i <= 4, m' <= 40
    assert sub_gaussian_envelope(7, 7, 3) == 1.0
    for m in range(1, 9):
        for i in range(5):
            law = iterate_law(m, i, cap=300)
            for mp in range(41):
                assert law[mp] <= sub_gaussian_envelope(m, mp, i) + 1e-12


def test_envelope_dominates_mc_frequencies():
    rng = _rng(4)
    m, i, n = 50, 3, 20_000
    draws = _generation(m, i, n, rng)
    for mp in (30, 50, 80):
        freq = (draws == mp).mean()
        se = math.sqrt(max(freq * (1 - freq), 1e-9) / n)
        assert freq <= sub_gaussian_envelope(m, mp, i) + 3 * se


def test_nb_marginal_formula():
    for m in range(1, 7):
        law = one_step_pmf(m, 60)
        for j in (0, 1, 5, 20):
            assert law[j] == pytest.approx(
                math.comb(m + j - 1, j) * 2.0 ** -(m + j), abs=1e-13
            )


def test_scipy_special_laws_equal_scipy_stats_bitwise():
    # gw and stats call the scipy.special ufuncs behind nbinom.pmf and chi2.sf,
    # so importing coverlab skips scipy.stats; every output bit must agree
    from scipy import stats as sps

    M = transition_matrix(400)  # iterate_law's largest cap
    nb = sps.nbinom.pmf(np.arange(401)[None, :], np.arange(1, 401)[:, None], 0.5)
    assert np.array_equal(M[1:].view(np.int64), nb.view(np.int64))
    for m in (1, 7, 300):
        assert np.array_equal(one_step_pmf(m, 400), sps.nbinom.pmf(np.arange(401), m, 0.5))
    p = gw_joint_prob(5, [3, 0])
    assert p == float(sps.nbinom.pmf(3, 5, 0.5)) * float(sps.nbinom.pmf(0, 3, 0.5))
    stat = np.concatenate([np.linspace(0.0, 400.0, 4001), [1e-300, 1e3, np.inf]])
    df = np.arange(1, 121)[:, None]
    sf = sps.chi2.sf(stat[None, :], df)
    assert np.array_equal(chdtrc(df, stat[None, :]).view(np.int64), sf.view(np.int64))
    a, b = np.array([40, 30, 20, 10]), np.array([35, 33, 22, 9])
    stat_ab, p_ab = two_sample_chisquare(a, b)  # every bin >= 5: no pooling, df = 3
    assert p_ab == float(sps.chi2.sf(stat_ab, 3))


def test_srw_traversal_t0_is_m():
    rng = _rng(5)
    for m in (1, 3, 7):
        counts = srw_traversal_counts(5, m, rng)
        assert counts[0] == m


def test_srw_enumeration_equals_gw_joint_law():
    for L in (2, 3):
        for m in (1, 2):
            law = enumerate_traversal_law(L, m)
            overflow = law.pop("overflow")
            assert overflow < 1e-2
            total = 0.0
            for counts, p in law.items():
                assert counts[0] == m
                assert p == pytest.approx(gw_joint_prob(m, counts[1:]), abs=1e-12)
                total += p
            assert total + overflow == pytest.approx(1.0, abs=1e-9)


def test_srw_sampler_matches_scalar_version_statistically():
    rng = _rng(6)
    batch = srw_traversal_samples(4, 2, 40_000, rng)
    scalar = np.array([srw_traversal_counts(4, 2, rng) for _ in range(20_000)])
    for level in (1, 2, 3):
        hi = int(max(batch[:, level].max(), scalar[:, level].max())) + 1
        _, p = two_sample_chisquare(
            np.bincount(batch[:, level], minlength=hi),
            np.bincount(scalar[:, level], minlength=hi),
        )
        assert p > 0.001


def test_barrier_bands_integer_restatement():
    spec = BarrierSpec(L=8, a=3, b=3, x=4, y=4.0, C=1.0, epsilon=0.1, delta_window=0.5, r=2)
    bands = barrier_bands(spec, "upper")
    assert len(bands) == 8
    lo, hi = bands[-1]
    assert lo == math.ceil(4.0**2 / 2 - 1e-12) and hi == math.floor(4.5**2 / 2 + 1e-12)
    lower = barrier_bands(spec, "lower")
    assert lower[-1] == (0, 0)
    with pytest.raises(ValueError):
        barrier_bands(spec, "sideways")


def test_start_population_must_be_integral():
    with pytest.raises(ValueError):
        BarrierSpec(L=8, a=1, b=0, x=3.0, y=0).start_population


def test_barrier_mc_matches_exact_dp():
    rng = _rng(7)
    spec = BarrierSpec(L=16, a=4, b=0, x=4, y=0, C=0.5, C_tilde=3.0, epsilon=0.45, r=2)
    p = exact_barrier_probability(spec, "lower")
    est = barrier_event_mc(spec, "lower", 150_000, rng)
    assert est.ci_lo <= p <= est.ci_hi
    spec_u = BarrierSpec(L=16, a=3, b=3, x=4, y=4.0, C=1.0, epsilon=0.1, delta_window=0.5, r=2)
    p_u = exact_barrier_probability(spec_u, "upper")
    est_u = barrier_event_mc(spec_u, "upper", 150_000, rng)
    assert est_u.ci_lo <= p_u <= est_u.ci_hi


def test_barrier_dp_stable_under_cap_doubling():
    spec = BarrierSpec(L=16, a=4, b=0, x=4, y=0, C=0.5, C_tilde=3.0, epsilon=0.45, r=2)
    p1 = exact_barrier_probability(spec, "lower", cap=256)
    p2 = exact_barrier_probability(spec, "lower", cap=512)
    assert p1 == pytest.approx(p2, abs=1e-12)


def test_vacuous_lower_curve_reduces_to_terminal_window():
    # C huge: the floor is everywhere 0 and only the terminal window remains
    rng = _rng(8)
    spec_vac = BarrierSpec(L=12, a=3, b=3, x=4, y=4.0, C=50.0, epsilon=0.1, delta_window=0.5)
    spec_vac2 = BarrierSpec(L=12, a=3, b=3, x=4, y=4.0, C=5000.0, epsilon=0.1, delta_window=0.5)
    assert exact_barrier_probability(spec_vac, "upper") == pytest.approx(
        exact_barrier_probability(spec_vac2, "upper"), abs=1e-14
    )
    est = barrier_event_mc(spec_vac, "upper", 100_000, rng)
    assert est.ci_lo <= exact_barrier_probability(spec_vac, "upper") <= est.ci_hi


def test_barrier_estimate_monotone_when_floor_raised():
    # raising the lower curve pointwise can only remove paths
    base = dict(L=12, b=3, x=4, y=4.0, C=1.0, epsilon=0.1, delta_window=0.5)
    p_low = exact_barrier_probability(BarrierSpec(a=2, **base), "upper")
    p_high = exact_barrier_probability(BarrierSpec(a=4, **base), "upper")
    assert p_high <= p_low + 1e-14


def test_preconditions_reporting():
    ok = BarrierSpec(L=16, a=3, b=3, x=4, y=4.0, C=1.0, epsilon=0.1, eta=1.5)
    assert ok.violations("upper") == []
    bad = BarrierSpec(L=16, a=4, b=0, x=4, y=0, C=0.5, epsilon=0.45, r=2, mu=0.05, eta=1.5)
    assert bad.violations("lower")  # desk-scale lower-mode configs violate the asymptotic preconditions


def test_conditioned_sampler_dies_and_tracks_bridge():
    rng = _rng(9)
    m, horizon = 58, 4
    paths = conditioned_extinction_samples(m, horizon, 4000, rng)
    assert (paths[:, -1] == 0).all()
    assert (paths[:, 0] == m).all()
    for i in range(1, horizon):
        mean_sqrt = np.sqrt(paths[:, i]).mean()
        centering = math.sqrt(m) * (1 - i / horizon)
        se = np.sqrt(paths[:, i]).std(ddof=1) / math.sqrt(paths.shape[0])
        assert abs(mean_sqrt - centering) <= 1.0 + 3 * se


def test_transition_matrix_keeps_the_last_one_read_only():
    M = transition_matrix(30)
    assert transition_matrix(30) is M and not M.flags.writeable
    with pytest.raises(ValueError):
        M[0, 0] = 0.5
    other = transition_matrix(31)
    assert other.shape == (32, 32) and transition_matrix(31) is other
    rebuilt = transition_matrix(30)  # only the last one is kept
    assert rebuilt is not M and np.array_equal(rebuilt.view(np.int64), M.view(np.int64))
