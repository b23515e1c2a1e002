import itertools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from coverlab import gw, oracle
from coverlab.excursions import circle_machine
from coverlab.lattice import (
    TorusPoint,
    WalkState,
    advance_to_mask,
    ball_mask,
    exterior_boundary_mask,
)
from coverlab.oracle import (
    CircleChain,
    EquilibriumWorkspace,
    GridSystem,
    coupled_chain_run,
    exact_cover_mean,
    expected_hit_exact,
    expected_hit_origin_table,
    green_exact,
    harmonic_measure_exact,
    hit_prob_exact,
    kac_moment_check,
    matthews_cover_bracket,
)
from coverlab.stats import summarize_mean, two_sample_chisquare, variance_se
from lu_reference import LUSystem, neighbor_codes


def test_hit_prob_boundary_conditions():
    n = 32
    x = TorusPoint(16, 16, n)
    A = exterior_boundary_mask(ball_mask(x, 3.0))
    B = exterior_boundary_mask(ball_mask(x, 10.0))
    vA = TorusPoint(19, 16, n)  # on the inner ring
    vB = TorusPoint(26, 16, n)  # on the outer ring
    assert hit_prob_exact(vA, A, B, n) == 1.0
    assert hit_prob_exact(vB, A, B, n) == 0.0


def test_hit_prob_symmetric_targets():
    n = 32
    v = TorusPoint(16, 16, n)
    A = np.zeros((n, n), dtype=bool)
    B = np.zeros((n, n), dtype=bool)
    A[21, 16] = True
    B[11, 16] = True
    p = hit_prob_exact(v, A, B, n)
    assert p == pytest.approx(0.5, abs=1e-10)


def test_hit_prob_rejects_overlapping_sets():
    n = 16
    A = ball_mask(TorusPoint(4, 4, n), 2.0)
    with pytest.raises(ValueError):
        hit_prob_exact(TorusPoint(0, 0, n), A, A, n)


def test_exact_engine_past_the_old_cap():
    # at n = 256, identities that need no second solver to check them
    n = 256
    y = TorusPoint(128, 128, n)
    ws = EquilibriumWorkspace(y, 4, 32, n)
    inner = ws.inner_mask
    h = GridSystem(n, inner).expected_hit().reshape(n, n)
    one_step = sum(np.roll(h, s, axis=a) for s in (1, -1) for a in (0, 1)) / 4
    assert np.abs(h - one_step - 1)[~inner].max() <= 1e-13 * h.max()
    assert not h[inner].any()
    for kernel in (ws.K_out2in, ws.K_in2out):
        assert np.abs(kernel.sum(axis=1) - 1).max() <= 1e-13
    assert ws.d1_moments()[0] == pytest.approx(ws.expected_d1(), rel=1e-13)
    A = np.zeros((n, n), dtype=bool)
    B = np.zeros((n, n), dtype=bool)
    A[y.x + 40, y.y] = True
    B[y.x, y.y - 40] = True
    assert hit_prob_exact(y, A, B, n) == pytest.approx(0.5, abs=1e-12)


def test_expected_hit_zero_inside_and_band():
    n = 64
    x = TorusPoint(32, 32, n)
    A = exterior_boundary_mask(ball_mask(x, 12.0))
    on_ring = TorusPoint(44, 32, n)
    assert expected_hit_exact(on_ring, A, n) == 0.0
    e = expected_hit_exact(x, A, n)
    assert 12.0**2 <= e <= 13.0**2


def test_expected_hit_matches_mc():
    n = 32
    x = TorusPoint(16, 16, n)
    A = exterior_boundary_mask(ball_mask(x, 9.0))
    exact = expected_hit_exact(x, A, n)
    vals = []
    for t in range(4000):
        w = WalkState(x, seed=3, stream=t)
        vals.append(advance_to_mask(w, A, 10**6))
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - exact) <= 3 * se


def test_harmonic_measure_rows_are_distributions():
    n = 32
    x = TorusPoint(16, 16, n)
    boundary = exterior_boundary_mask(ball_mask(x, 10.0))
    rows, bcodes = harmonic_measure_exact([x, TorusPoint(18, 16, n)], boundary, n)
    assert rows.shape == (2, bcodes.size)
    assert np.all(rows >= -1e-12)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-10)


def test_harmonic_measure_center_symmetry():
    n = 32
    x = TorusPoint(16, 16, n)
    boundary = exterior_boundary_mask(ball_mask(x, 8.0))
    rows, bcodes = harmonic_measure_exact([x], boundary, n)
    measure = {int(c): rows[0, j] for j, c in enumerate(bcodes)}
    # invariance under the lattice symmetries fixing the center
    for code, w in measure.items():
        cx, cy = divmod(code, n)
        dx, dy = cx - 16, cy - 16
        for sx, sy in ((-dx, dy), (dx, -dy), (dy, dx)):
            mirror = ((16 + sx) % n) * n + (16 + sy) % n
            assert w == pytest.approx(measure[mirror], abs=1e-10)


def test_harmonic_measure_harnack_trend():
    # sources closer together see more similar exit measures
    n = 64
    x = TorusPoint(32, 32, n)
    boundary = exterior_boundary_mask(ball_mask(x, 24.0))

    def max_ratio_dev(offset):
        rows, _ = harmonic_measure_exact([x, TorusPoint(32 + offset, 32, n)], boundary, n)
        return float(np.abs(rows[0] / rows[1] - 1.0).max())

    assert max_ratio_dev(3) < max_ratio_dev(6)


def test_harmonic_measure_source_on_boundary():
    n = 32
    x = TorusPoint(16, 16, n)
    boundary = exterior_boundary_mask(ball_mask(x, 8.0))
    src = TorusPoint(24, 16, n)
    rows, bcodes = harmonic_measure_exact([src], boundary, n)
    j = int(np.nonzero(bcodes == src.code)[0][0])
    assert rows[0, j] == 1.0


def _single_solves(sys, free_idx):
    """Green columns G(., v) of the LU reference, one unit right-hand side at a time."""
    cols = []
    for fi in free_idx:
        e = np.zeros(sys.nfree)
        e[fi] = 1.0
        cols.append(sys.solve(e))
    return np.array(cols).T


@pytest.mark.parametrize("radius, side", [(10.0, "sources"), (2.0, "boundary")])
def test_harmonic_measure_both_sides_match_single_solves(radius, side):
    n = 32
    x = TorusPoint(16, 16, n)
    boundary = exterior_boundary_mask(ball_mask(x, radius))
    sys = LUSystem(n, boundary)
    bcodes = np.nonzero(boundary.reshape(-1))[0]
    # 40 free cells on the lines y = 3 and y = 29, off both circles, then a
    # boundary cell: more sources than boundary cells, or fewer
    sources = [TorusPoint(i, 3, n) for i in range(n)] + [TorusPoint(i, 29, n) for i in range(8)]
    free_count = len(sources)
    sources.append(TorusPoint(*divmod(int(bcodes[0]), n), n))
    assert (free_count <= bcodes.size) == (side == "sources")
    rows, got_codes = harmonic_measure_exact(sources, boundary, n)
    assert np.array_equal(got_codes, bcodes)
    free_idx = sys.index[[p.code for p in sources[:-1]]]
    expected = (sys.one_step_to(bcodes).T @ _single_solves(sys, free_idx)).T
    assert np.abs(rows[:-1] - expected).max() <= 1e-13
    assert rows[-1, 0] == 1.0 and rows[-1].sum() == 1.0


def test_green_columns_match_single_solves():
    n = 32
    y = TorusPoint(16, 16, n)
    absorbing = exterior_boundary_mask(ball_mask(y, 10.0))
    probes = [y, TorusPoint(18, 16, n), TorusPoint(16, 20, n), TorusPoint(26, 16, n)]
    cols = green_exact(absorbing, probes, n)
    sys = LUSystem(n, absorbing)
    free_idx = sys.index[[p.code for p in probes[:3]]]
    expected = sys.full_vector(_single_solves(sys, free_idx))
    assert np.abs(cols[:, :3] - expected).max() <= 1e-13
    assert not cols[:, 3].any()  # the last probe lies on the absorbing circle
    weights = np.array([0.5, 0.3, 0.2])
    codes = np.array([p.code for p in probes[:3]])
    mixed = GridSystem(n, absorbing).weighted_green(codes, weights)
    assert np.abs(mixed - expected @ weights).max() <= 1e-13


def test_residual_check_raises_for_a_matrix_right_hand_side(monkeypatch):
    n = 16
    sys = GridSystem(n, exterior_boundary_mask(ball_mask(TorusPoint(8, 8, n), 5.0)))
    # GridSystem.solve imports lu_solve from scipy.linalg at each call
    lu_solve = scipy.linalg.lu_solve

    def one_column_off(lu, rhs):
        h = lu_solve(lu, rhs)
        h[:, 1] += 1e-6
        return h

    rhs = np.ones((sys.codes.size + 1, 3))
    assert np.allclose(sys.solve(rhs), sys.solve(np.ones(sys.codes.size + 1))[:, None])
    monkeypatch.setattr(scipy.linalg, "lu_solve", one_column_off)
    with pytest.raises(RuntimeError, match="residual"):
        sys.solve(rhs)


def test_hitting_moments_match_the_fundamental_matrix():
    # with N = (I - Q)^-1: E[H] = N 1, E[H^2] = (2N - I) E[H], E[H^3] = N (1 + 3 Q h1 + 3 Q h2);
    # with an exit cost F of moments f1, f2 on A and B the steps onto A:
    # E[H + F] = N (1 + B f1), E[(H + F)^2] = N (1 + 2 (Q m1 + B f1) + B f2)
    n = 8
    A = np.zeros((n, n), dtype=bool)
    A[1, 2] = A[5, 6] = True
    P = np.zeros((n * n, n * n))
    for nb in neighbor_codes(n).T:
        P[np.arange(n * n), nb] += 0.25
    free = ~A.reshape(-1)
    Q, B = P[free][:, free], P[free][:, ~free]
    N = np.linalg.inv(np.eye(free.sum()) - Q)
    sys = GridSystem(n, A)
    h1, h2, h3 = (h[free] for h in sys.hitting_moments(3))
    one = np.ones(free.sum())
    assert np.allclose(h1, N @ one, rtol=1e-12)
    assert np.allclose(h2, 2 * N @ h1 - h1, rtol=1e-12)
    assert np.allclose(h3, N @ (one + 3 * Q @ h1 + 3 * Q @ h2), rtol=1e-12)
    f1, f2 = np.array([3.0, 40.0]), np.array([10.0, 2000.0])
    m1, m2 = sys.hitting_moments(2, [f1, f2])
    assert np.array_equal(m1[~free], f1) and np.array_equal(m2[~free], f2)
    assert np.allclose(m1[free], N @ (one + B @ f1), rtol=1e-12)
    assert np.allclose(m2[free], N @ (one + 2 * (Q @ m1[free] + B @ f1) + B @ f2), rtol=1e-12)


def test_circle_chain_rejects_overlapping_or_single_circles():
    n = 48
    center = TorusPoint(24, 24, n)
    with pytest.raises(ValueError, match="share cells"):
        CircleChain(center, [8.0, 7.5, 1.0], n)
    with pytest.raises(ValueError, match="two circles"):
        CircleChain(center, [8.0], n)


def test_green_table_symmetry_and_diagonal():
    n = 32
    y = TorusPoint(16, 16, n)
    absorbing = exterior_boundary_mask(ball_mask(y, 10.0))
    probes = [y, TorusPoint(18, 16, n), TorusPoint(16, 20, n)]
    pcodes = np.array([p.code for p in probes])
    cols = green_exact(absorbing, probes, n)
    M = cols[pcodes]
    assert np.abs(M - M.T).max() < 1e-9
    assert np.all(np.diag(M) >= 1.0)
    ring_cell = int(np.nonzero(absorbing.reshape(-1))[0][0])
    assert cols[ring_cell].max() == 0.0  # zero on the absorbing set


def test_green_against_log_estimate():
    # sum_v mu_inner(v) G_{B(y,R)}(v, y) = (2/pi) log(R/r) + O(1/r):
    # the deviation scaled by r stays bounded as r grows along R = 8r
    n = 128
    y = TorusPoint(64, 64, n)
    worst = 0.0
    for r in (3, 4, 6):
        R = 8 * r
        ws = EquilibriumWorkspace(y, r, R, n)
        m_y = ws.stationary_measure()[y.code]
        dev = abs(m_y - (2 / math.pi) * math.log(R / r))
        worst = max(worst, dev * r)
    assert worst <= 1.0


def test_equilibrium_identities_and_q():
    n = 64
    y = TorusPoint(32, 32, n)
    pair = EquilibriumWorkspace(y, 4, 16, n).equilibrium_pair()
    assert pair.residual < 1e-10
    assert pair.mu_outer.sum() == pytest.approx(1.0, abs=1e-12)
    assert pair.mu_inner.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0 < pair.q <= 1.0
    assert (1 - pair.q) * 16 / 4 <= 10.0


def test_equilibrium_d1_expectation():
    n = 64
    y = TorusPoint(32, 32, n)
    worst = 0.0
    for r, R in ((3, 16), (4, 24), (4, 32)):
        ws = EquilibriumWorkspace(y, r, R, n)
        dev = abs(ws.expected_d1() / ((2 / math.pi) * n * n * math.log(R / r)) - 1.0)
        worst = max(worst, dev * r)
    # deviation * r bounded over the grid (the O(1/r) correction)
    assert worst <= 0.5


def test_d1_moments_mean_matches_expected_d1():
    ws = EquilibriumWorkspace(TorusPoint(32, 32, 64), 4, 16, 64)
    mean, var = ws.d1_moments()
    assert mean == pytest.approx(ws.expected_d1(), rel=1e-10)
    # D_1 is a sum of two hitting times: spread of order its mean
    assert 0.5 < math.sqrt(var) / mean < 2.0


def test_d1_variance_matches_brute_force_mc():
    # D_1 from mu_outer: hit the inner circle, then the outer circle again
    n = 48
    y = TorusPoint(24, 24, n)
    ws = EquilibriumWorkspace(y, 3, 10, n)
    pair = ws.equilibrium_pair()
    mean, var = ws.d1_moments()
    trials = 4000
    starts = np.random.default_rng(3).choice(pair.outer_codes, size=trials, p=pair.mu_outer)
    vals = []
    for t, code in enumerate(starts):
        walk = WalkState(TorusPoint(code // n, code % n, n), seed=5, stream=t)
        steps = advance_to_mask(walk, ws.inner_mask, 10**8, inclusive=False)
        steps += advance_to_mask(walk, ws.outer_mask, 10**8, inclusive=False)
        vals.append(steps)
    summ = summarize_mean(vals)
    assert abs(summ.mean - mean) <= 3 * summ.se
    assert abs(summ.var - var) <= 3 * variance_se(vals)


def test_stationary_measure_uniform_and_consistent():
    sc = EquilibriumWorkspace(TorusPoint(16, 16, 32), 3, 12, 32).stationary_check()
    assert sc["max_rel_deviation"] < 1e-8
    # m(y) carries the (2/pi) log(R/r) value up to O(1/r)
    assert abs(sc["m_at_center"] - (2 / math.pi) * sc["log_ratio"]) <= 1.0 / 3
    # total mass equals n^2 * m(y): the E[D_1] consistency
    assert sc["total_mass"] == pytest.approx(32 * 32 * sc["m_at_center"], rel=1e-10)


def test_nu_matrix_rows_are_measures():
    ws = EquilibriumWorkspace(TorusPoint(32, 32, 64), 4, 16, 64)
    nu = ws.nu_matrix()
    assert nu.min() >= 0.0
    assert np.allclose(nu.sum(axis=1), 1.0, atol=1e-9)


def test_coupled_chain_regeneration_structure():
    n = 48
    y = TorusPoint(24, 24, n)
    ws = EquilibriumWorkspace(y, 3, 10, n)
    run = coupled_chain_run(ws, y, length=300, seed=11)
    assert run.flags.sum() == run.regen_indices.size == run.block_sums.size
    assert run.durations.sum() >= run.block_sums.sum()
    # flags are Bernoulli(q): 3-sigma binomial band
    q = ws.equilibrium_pair().q
    se = math.sqrt(q * (1 - q) / 300)
    assert abs(run.flags.mean() - q) <= 3 * se + 0.05


def test_coupled_chain_g1_expectation():
    n = 48
    y = TorusPoint(24, 24, n)
    ws = EquilibriumWorkspace(y, 3, 10, n)
    pair = ws.equilibrium_pair()
    expected = ws.expected_inward_leg() / pair.q
    run = coupled_chain_run(ws, y, length=900, seed=4)
    blocks = run.block_sums[1:].astype(float)
    se = blocks.std(ddof=1) / math.sqrt(blocks.size)
    assert abs(blocks.mean() - expected) <= 3 * se


def test_coupled_chain_start_marginal_matches_direct_excursions():
    # the splitting construction reproduces the law of the true excursion chain
    n = 48
    y = TorusPoint(24, 24, n)
    ws = EquilibriumWorkspace(y, 3, 10, n)
    length = 1200
    run = coupled_chain_run(ws, y, length=length, seed=21)
    # direct chain: alternate hits of the inner and outer circles
    walk = WalkState(y, seed=77, stream=0)
    direct = []
    advance_to_mask(walk, ws.inner_mask, 10**8, inclusive=True)
    for _ in range(length):
        advance_to_mask(walk, ws.outer_mask, 10**8, inclusive=False)
        direct.append(walk.code)
        advance_to_mask(walk, ws.inner_mask, 10**8, inclusive=False)
    codes = {int(c): i for i, c in enumerate(ws.outer_codes)}
    a = np.bincount([codes[int(c)] for c in run.start_cells], minlength=len(codes))
    b = np.bincount([codes[int(c)] for c in direct], minlength=len(codes))
    _, p = two_sample_chisquare(a, b)
    assert p > 0.001


def test_blocks_exchangeable():
    # G_1 and G_2 block sums are identically distributed
    n = 48
    y = TorusPoint(24, 24, n)
    ws = EquilibriumWorkspace(y, 3, 10, n)
    g1, g2 = [], []
    for s in range(120):
        run = coupled_chain_run(ws, y, length=12, seed=100 + s)
        if run.block_sums.size >= 3:
            g1.append(run.block_sums[1])
            g2.append(run.block_sums[2])
    pooled = np.quantile(np.array(g1 + g2, dtype=float), np.linspace(0, 1, 7)[1:-1])
    a = np.bincount(np.digitize(g1, pooled), minlength=6)
    b = np.bincount(np.digitize(g2, pooled), minlength=6)
    _, p = two_sample_chisquare(a, b)
    assert p > 0.001


def test_kac_moment_inequality_exact():
    n = 32
    x = TorusPoint(16, 16, n)
    for dom in (
        exterior_boundary_mask(ball_mask(x, 8.0)),
        exterior_boundary_mask(ball_mask(x, 4.0)),
    ):
        res = kac_moment_check(dom, n)
        assert res["ratio_m2"] <= 1 + 1e-8
        assert res["ratio_m3"] <= 1 + 1e-8


def test_exact_cover_mean_small():
    assert exact_cover_mean(2) == pytest.approx(6.0, abs=1e-9)
    # the value of the (position, visited-set) enumeration the DP replaced
    assert exact_cover_mean(3) == pytest.approx(24.11084861084861, rel=1e-12)
    with pytest.raises(ValueError):
        exact_cover_mean(4)


def test_grid_systems_of_one_n_share_one_read_only_table():
    n = 24
    x = TorusPoint(12, 12, n)
    a = GridSystem(n, exterior_boundary_mask(ball_mask(x, 3.0)))
    b = GridSystem(n, exterior_boundary_mask(ball_mask(x, 8.0)))
    assert a._table is b._table and a._table_hat is b._table_hat
    assert not a._table.flags.writeable and not a._table_hat.flags.writeable
    table = expected_hit_origin_table(n)
    assert np.array_equal(a._table, table - table.mean())


@pytest.mark.parametrize("n", [8, 16])
def test_fourier_hit_table_matches_linear_solve(n):
    origin = np.zeros((n, n), dtype=bool)
    origin[0, 0] = True
    table = expected_hit_origin_table(n)
    assert table.shape == (n, n)
    ref = LUSystem(n, origin).expected_hit()
    assert np.allclose(table.reshape(-1), ref, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("n, upper", [(2, 22 / 3), (3, 27.178571428571)])
def test_matthews_bracket_contains_exact_cover_mean(n, upper):
    lo, hi = matthews_cover_bracket(n)
    assert hi == pytest.approx(upper, rel=1e-9)
    assert lo <= exact_cover_mean(n) <= hi


def test_matthews_bracket_beyond_exact_solve_cap():
    # straight from the spectral table at n = 256; edges in n^2 log^2 n units
    lo, hi = matthews_cover_bracket(256)
    scale = 256**2 * math.log(256) ** 2
    assert lo / scale == pytest.approx(0.5741, abs=1e-4)
    assert hi / scale == pytest.approx(1.4972, abs=1e-4)


def test_circle_chain_event_probability_vs_mc():
    n = 48
    center = TorusPoint(24, 24, n)
    radii = [8.0, 4.0, 2.0, 1.0]
    chain = CircleChain(center, radii, n)
    machine = circle_machine(center, radii)
    start = TorusPoint(24 + 8, 24, n)
    trials = 4000
    for m in (1, 2):
        walks = [WalkState(start, seed=13, stream=(m - 1) * trials + t) for t in range(trials)]
        ran = machine.run_group(walks, m, [10**8] * trials)
        tallies = Counter((record.counts[1], record.counts[2]) for record, _ in ran)
        for event in ((0, 0), (1, 0), (1, 1), (2, 1)):
            exact = chain.event_probability(start, m, {1: event[0], 2: event[1]})
            freq = tallies[event] / trials
            se = math.sqrt(max(freq * (1 - freq), 1e-9) / trials)
            assert abs(freq - exact) <= 3.5 * se, (m, event, freq, exact)


def _scalar_chain(L: int) -> CircleChain:
    """A CircleChain of one cell per circle: from levels 1..L-1 a step goes in
    or out with chance 1/2 each, the top always goes in and the bottom out."""
    chain = object.__new__(CircleChain)
    chain.L = L
    chain.circle_codes = [np.array([0])] * (L + 1)
    half, one = np.array([[0.5]]), np.array([[1.0]])
    chain.kern_down = {0: one, **{i: half for i in range(1, L)}}
    chain.kern_up = {L: one, **{i: half for i in range(1, L)}}
    return chain


def test_scalar_circle_chain_event_probability_is_the_gw_law():
    # one cell per circle makes the chain the reflecting walk on {0..L}, whose
    # inward counts over m top excursions are the critical GW generations
    # from m: an oracle that shares nothing with the chain's recursion
    origin = TorusPoint(0, 0, 4)
    for L in (2, 3, 4):
        chain = _scalar_chain(L)
        for m in (1, 2, 3):
            for event in itertools.product(range(5), repeat=L - 1):
                got = chain.event_probability(origin, m, dict(enumerate(event, 1)))
                assert got == pytest.approx(gw.gw_joint_prob(m, event), rel=1e-14, abs=0), (
                    L, m, event,
                )


def test_scalar_circle_chain_event_probability_reaches_long_counts():
    # T_1 = 300 inward moves: a recursion over the states nested about 600
    # deep and hit Python's recursion limit from T_1 = 248; the sweep has no
    # such depth.  scipy's NB pmf behind gw_joint_prob is off by up to 3e-14
    # relative at these counts, so the check allows 1e-12; for m = 1 the law
    # is geometric, and the sweep gives 2^-301 exactly
    origin = TorusPoint(0, 0, 4)
    chain = _scalar_chain(2)
    for m in (1, 3):
        got = chain.event_probability(origin, m, {1: 300})
        assert got == pytest.approx(gw.gw_joint_prob(m, (300,)), rel=1e-12, abs=0), m
    assert chain.event_probability(origin, 1, {1: 300}) == 0.5**301


# event_probability at both transfer schedules, as the path enumeration it
# replaced computed them: (n, m) -> {(T_1, T_2): probability}
_CHAIN_PINS = {
    (64, 2): {(0, 0): 0.2573373988276868, (2, 2): 0.03276297076034951,
              (4, 2): 0.01389909651625095},
    (64, 3): {(0, 0): 0.13088404030927203, (3, 2): 0.029959915807932003,
              (6, 3): 0.007437275053887515},
    (130, 2): {(0, 0): 0.24540480061180042, (2, 2): 0.03445204626429852,
               (4, 2): 0.013669541742696396},
    (130, 3): {(0, 0): 0.12157157184365554, (3, 2): 0.030257841340599265,
               (6, 3): 0.007134988806578272},
}


@pytest.mark.parametrize("n, radii", [(64, [8.0, 4.0, 2.0, 1.0]), (130, [64.0, 16.0, 4.0, 1.0])])
def test_circle_chain_event_probability_matches_pinned_values(n, radii):
    center = TorusPoint(n // 2, n // 2, n)
    chain = CircleChain(center, radii, n)
    start = TorusPoint(center.x + int(radii[0]), center.y, n)
    for m in (2, 3):
        for event, want in _CHAIN_PINS[n, m].items():
            got = chain.event_probability(start, m, {1: event[0], 2: event[1]})
            assert got == pytest.approx(want, rel=1e-13), (m, event)


def test_circle_chain_rows_are_substochastic():
    n = 48
    chain = CircleChain(TorusPoint(24, 24, n), [8.0, 4.0, 2.0, 1.0], n)
    assert np.allclose(chain.kern_down[0].sum(axis=1), 1.0, atol=1e-10)
    for i in (1, 2):
        totals = chain.kern_down[i].sum(axis=1) + chain.kern_up[i].sum(axis=1)
        assert np.allclose(totals, 1.0, atol=1e-10)


# -- the spectral engine against the sparse-LU reference -------------------------


def _assert_kernels_equal(got: dict, ref: dict):
    assert got.keys() == ref.keys()
    for i in ref:
        assert got[i].shape == ref[i].shape
        assert np.abs(got[i] - ref[i]).max() <= 1e-13


# both transfer schedules
@pytest.mark.parametrize("n, radii", [(64, [8.0, 4.0, 2.0, 1.0]), (130, [64.0, 16.0, 4.0, 1.0])])
def test_circle_chain_kernels_match_lu_reference(monkeypatch, n, radii):
    center = TorusPoint(n // 2, n // 2, n)
    chain = CircleChain(center, radii, n)
    monkeypatch.setattr(oracle, "GridSystem", LUSystem)
    ref = CircleChain(center, radii, n)
    _assert_kernels_equal(chain.kern_up, ref.kern_up)
    _assert_kernels_equal(chain.kern_down, ref.kern_down)


def test_equilibrium_workspace_rejects_circles_that_share_cells():
    # 1 < r < R <= n/2 holds, but the two circles overlap
    with pytest.raises(ValueError, match="share cells"):
        EquilibriumWorkspace(TorusPoint(16, 16, 32), 3, 3.5, 32)


def test_equilibrium_workspace_matches_lu_reference(monkeypatch):
    n = 32
    y = TorusPoint(16, 16, n)
    ws = EquilibriumWorkspace(y, 3, 12, n)
    monkeypatch.setattr(oracle, "GridSystem", LUSystem)
    ref = EquilibriumWorkspace(y, 3, 12, n)
    assert np.abs(ws.K_out2in - ref.K_out2in).max() <= 1e-13
    assert np.abs(ws.K_in2out - ref.K_in2out).max() <= 1e-13
    assert ws.expected_d1() == pytest.approx(ref.expected_d1(), rel=1e-13)
    for got, want in zip(ws.d1_moments(), ref.d1_moments()):
        assert got == pytest.approx(want, rel=1e-12)
    m, m_ref = ws.stationary_measure(), ref.stationary_measure()
    assert np.abs(m - m_ref).max() <= 1e-13 * np.abs(m_ref).max()


def test_kac_moments_match_lu_reference(monkeypatch):
    # the two sets of oracle-check's kac section
    n = 32
    ball = exterior_boundary_mask(ball_mask(TorusPoint(16, 16, n), 8.0))
    points = np.zeros((n, n), dtype=bool)
    points[4, 4] = points[20, 9] = True
    for dom in (ball, points):
        free = ~dom.reshape(-1)
        got = GridSystem(n, dom).hitting_moments(3)
        want = LUSystem(n, dom).hitting_moments(3)
        for h, ref in zip(got, want):
            assert (np.abs(h - ref) <= 1e-12 * ref)[free].all()
            assert not h[~free].any()
        res = kac_moment_check(dom, n)
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "GridSystem", LUSystem)
            ref_res = kac_moment_check(dom, n)
        assert res == pytest.approx(ref_res, rel=1e-12)


def test_disc_across_the_wrap_matches_lu_reference():
    # a disc centred on the corner cell spans all four corners of the array
    n = 16
    corner = TorusPoint(0, 0, n)
    circle = exterior_boundary_mask(ball_mask(corner, 5.0))
    inside = ball_mask(corner, 5.0).reshape(-1)
    sources = np.array([corner.code, TorusPoint(2, -3, n).code])
    sys, ref = GridSystem(n, circle), LUSystem(n, circle)
    rows, bcodes = sys.exit_distribution(sources)
    ref_rows, ref_bcodes = ref.exit_distribution(sources)
    assert np.array_equal(bcodes, ref_bcodes)
    assert np.abs(rows - ref_rows).max() <= 1e-13
    h, ref_h = sys.hitting_moments(2)[1], ref.hitting_moments(2)[1]
    assert np.abs(h - ref_h)[inside].max() <= 1e-12 * ref_h[inside].max()
    far = TorusPoint(8, 8, n)
    assert expected_hit_exact(far, circle, n) == pytest.approx(
        ref.expected_hit()[far.code], rel=1e-13
    )


def test_absorbed_sources_and_probes_match_lu_reference():
    n = 16
    absorbing = exterior_boundary_mask(ball_mask(TorusPoint(8, 8, n), 5.0))
    absorbing[2:5, 2:5] = True  # (3, 3) has every neighbour absorbed
    boxed = TorusPoint(3, 3, n)
    on_circle = TorusPoint(13, 8, n)
    assert absorbing[on_circle.x, on_circle.y]
    # each absorbed source exits where it stands, with an exact unit row
    rows, bcodes = harmonic_measure_exact([boxed, boxed], absorbing, n)
    assert np.array_equal(bcodes, np.nonzero(absorbing.reshape(-1))[0])
    assert np.array_equal(rows, np.eye(bcodes.size)[[np.searchsorted(bcodes, boxed.code)] * 2])
    # absorbed sources beside free ones, against the LU reference
    sources = [on_circle, boxed, TorusPoint(8, 8, n), TorusPoint(0, 0, n)]
    rows, bcodes = harmonic_measure_exact(sources, absorbing, n)
    ref = LUSystem(n, absorbing)
    ref_rows, _ = ref.exit_distribution(np.array([p.code for p in sources]))
    assert np.abs(rows - ref_rows).max() <= 1e-13
    assert rows[0, np.searchsorted(bcodes, on_circle.code)] == 1.0
    assert rows[1, np.searchsorted(bcodes, boxed.code)] == 1.0
    # an absorbed probe has an exact zero Green column
    probes = np.array([boxed.code, on_circle.code, TorusPoint(8, 8, n).code])
    cols = GridSystem(n, absorbing).green_columns(probes)
    assert not cols[:, :2].any()
    assert np.abs(cols - ref.green_columns(probes)).max() <= 1e-13
