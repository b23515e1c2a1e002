import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverlab.excursions import (
    AnnulusSpec,
    ExcursionClock,
    TraversalMachine,
    TraversalRecord,
    _Ladder,
    branching_level,
    circle_machine,
    detect_late_event,
    excursion_clock,
    hat_traversal,
    intermediate_traversals,
    tilde_traversal,
    traversal_counts,
    validate_radii,
)
from coverlab.lattice import (
    _FIRST_BLOCK,
    BudgetExceededError,
    TorusPoint,
    WalkState,
    advance_group_to_mask,
    advance_to_mask,
    ball_mask,
    exterior_boundary_mask,
    outcome_or_raise,
    scan_group,
    step,
)

N = 64
CENTER = TorusPoint(32, 32, N)
RADII = [16.0, 8.0, 4.0, 2.0, 1.0]
CAP = 10**8


def _walk(stream, start=None, seed=5):
    return WalkState(start or TorusPoint(32 + 16, 32, N), seed=seed, stream=stream)


def reference_ladder_counts(positions, center, radii, m):
    """Literal R/D stopping-time ladder over an explicit position list.

    Independent of the streaming machine: recomputes circle membership per
    step and applies the definitions R_1 = H(inner), D_k = next outer visit,
    R_{k+1} = next inner visit; T_i counts level-(i+1) R-arrivals before D_m.
    """
    n = center.n
    rings = [exterior_boundary_mask(ball_mask(center, r)).reshape(-1) for r in radii]
    L = len(radii) - 1
    phase = ["R"] * L
    counts = [0] * L
    d_top = 0
    for t, code in enumerate(positions):
        for lad in range(L):
            if phase[lad] == "R" and rings[lad + 1][code]:
                counts[lad] += 1
                phase[lad] = "D"
            elif phase[lad] == "D" and rings[lad][code]:
                phase[lad] = "R"
                if lad == 0:
                    d_top += 1
        if d_top == m:
            return counts, t
    raise AssertionError("trajectory too short for m departures")


def test_traversal_counts_match_reference_ladder():
    for stream in range(6):
        w = _walk(stream)
        record, clock = traversal_counts(w, CENTER, RADII, m=2, cap=CAP)
        # replay the identical stream and collect raw positions
        w2 = _walk(stream)
        positions = [w2.code]
        for _ in range(w.steps):
            step(w2)
            positions.append(w2.code)
        ref_counts, end = reference_ladder_counts(positions, CENTER, RADII, 2)
        assert [record.counts[i] for i in range(4)] == ref_counts
        assert end == clock.departures[-1]
        assert record.counts[0] == 2


def test_clock_interleaving_and_r1_zero_on_inner_start():
    ann = AnnulusSpec(CENTER, 4.0, 16.0)
    inner_start = TorusPoint(32 + 4, 32, N)  # on the inner circle
    clock = excursion_clock(_walk(0, start=inner_start), ann, m=3, cap=CAP)
    assert clock.returns[0] == 0
    assert clock.pairs == 3
    seq = [v for pair in zip(clock.returns, clock.departures) for v in pair]
    assert all(a < b for a, b in zip(seq, seq[1:]))


def test_excursion_clock_rejects_degenerate_annulus():
    with pytest.raises(ValueError):
        AnnulusSpec(CENTER, 8.0, 8.0)
    with pytest.raises(ValueError, match="outer radius must be < n/2"):
        AnnulusSpec(TorusPoint(0, 0, 8), 1.0, 4.0)
    with pytest.raises(ValueError):
        excursion_clock(_walk(0), AnnulusSpec(CENTER, 4.0, 16.0), m=0, cap=CAP)


def test_traversal_counts_m0_all_zero():
    record, clock = traversal_counts(_walk(1), CENTER, RADII, m=0, cap=CAP)
    assert all(v == 0 for v in record.counts.values())
    assert clock.pairs == 0


def test_traversal_counts_budget_error_keeps_departures_done():
    _, clock = traversal_counts(_walk(2), CENTER, RADII, m=5, cap=CAP)
    # the third departure lands on the last allowed step: no overrun
    _, at_cap = traversal_counts(_walk(2), CENTER, RADII, m=3, cap=clock.departures[2])
    assert at_cap.departures == clock.departures[:3]
    # one step short of it: two departures done, the budget spent exactly
    for cap, done in ((5, 0), (clock.departures[2] - 1, 2)):
        with pytest.raises(BudgetExceededError) as err:
            traversal_counts(_walk(2), CENTER, RADII, m=5, cap=cap)
        assert err.value.steps_taken == cap
        assert f"finished only {done}/5 departures within {cap} steps" in str(err.value)


def reference_run(machine, walk, m, cap, collect_intervals=False):
    """TraversalMachine.run as a per-hit Python ladder, the reference for the
    per-block one: every labelled hit visits its circles in index order, each
    circle feeding the ladders whose inner (R-event) or outer (D-event)
    circle it is.  Ladder 0 drives."""
    wait_r, wait_d = 0, 1
    inner_of, outer_of = {}, {}
    for li, lad in enumerate(machine.ladders):
        inner_of.setdefault(lad.inner, []).append(li)
        outer_of.setdefault(lad.outer, []).append(li)
    nlad = len(machine.ladders)
    phase = [wait_r] * nlad
    counts = [0] * nlad
    open_r = [0] * nlad
    intervals = [[] for _ in range(nlad)]
    clock = ExcursionClock()
    watch_time = None

    def on_circle(c, t):
        nonlocal watch_time
        finished = False
        if c == machine.watch and watch_time is None:
            watch_time = t
        for li in inner_of.get(c, ()):
            if phase[li] == wait_r:
                phase[li] = wait_d
                counts[li] += 1
                open_r[li] = t
                if li == 0:
                    clock.returns.append(t)
        for li in outer_of.get(c, ()):
            if phase[li] == wait_d:
                phase[li] = wait_r
                if collect_intervals:
                    intervals[li].append((open_r[li], t))
                if li == 0:
                    clock.departures.append(t)
                    if len(clock.departures) == m:
                        finished = True
        return finished

    def last_departure(codes, at, bounds, rows, taken):
        """scan_group's stop for the group of one walk, which sees every step:
        the index of the step of the m-th departure, or -1."""
        lab = machine._label[codes]
        hits = np.flatnonzero(lab)
        for j, v in zip(at[hits].tolist(), lab[hits].tolist()):
            t = int(taken[0]) + j + 1
            done = False
            while v:
                bit = v & -v
                done = on_circle(bit.bit_length() - 1, t) or done
                v ^= bit
            if done:
                return np.array([j])
        return np.array([-1])

    # the start cell is step 0: a one-cell block after -1 steps
    if m and last_departure(np.array([walk.code]), np.array([0]), None, None, [-1])[0] < 0:
        ran = scan_group(
            [walk], [cap], np.ones(machine.n**2, dtype=bool), last_departure,
            lambda i: f"driving ladder finished only {len(clock.departures)}/{m} departures",
        )
        outcome_or_raise(ran[0])
    record = TraversalRecord(
        counts={lad.level: counts[li] for li, lad in enumerate(machine.ladders)},
        driving_level=machine.ladders[0].level,
        m=m,
        intervals={lad.level: intervals[li] for li, lad in enumerate(machine.ladders)}
        if collect_intervals
        else None,
        watch_time=watch_time,
    )
    return record, clock


def _outcome(run, machine, start, seed, stream, m, cap, collect_intervals):
    """Everything one ladder run leaves behind: record and clock fields, or
    the overrun's message and steps, plus where the walk stopped."""
    walk = WalkState(start, seed=seed, stream=stream)
    try:
        record, clock = run(machine, walk, m, cap, collect_intervals)
    except BudgetExceededError as err:
        return ("overrun", str(err), err.steps_taken, walk.steps, walk.code)
    return (
        record.counts, record.driving_level, record.m, record.intervals, record.watch_time,
        clock.returns, clock.departures, walk.steps, walk.code,
    )


def _new_run(machine, walk, m, cap, collect_intervals):
    return machine.run(walk, m, cap, collect_intervals=collect_intervals)


@st.composite
def _concentric_machines(draw):
    """circle_machine on 2-4 decreasing radii at least one apart, so that no
    two circles share a cell, with an optional watch mask that may share
    cells with them.  A wide top annulus makes walks that span several
    blocks."""
    n = draw(st.sampled_from([48, 24, 12]))
    center = TorusPoint(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), n)
    top = draw(st.sampled_from([n / 2 - 1, n / 4]))
    radii = [top]
    for gap in draw(st.lists(st.integers(2, int(2 * top) - 2), min_size=1, max_size=3)):
        if radii[-1] - gap / 2 < 1:
            break
        radii.append(radii[-1] - gap / 2)
    watch = None
    if draw(st.booleans()):
        watch = ball_mask(TorusPoint(draw(st.integers(0, n - 1)), 0, n), 1.5)
    return circle_machine(center, radii, watch=watch)


@st.composite
def _cross_shared_cell_machines(draw):
    """Hand-built machines on random cell masks.  Each ladder's two masks are
    disjoint, but cells are shared across ladders and with the watch circle,
    so a single hit can be an event of several ladders and a watch hit."""
    n = draw(st.integers(6, 24))
    k = draw(st.integers(2, 5))
    density = draw(st.sampled_from([0.02, 0.1, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circles = []
    # each circle owns one cell of its own, so none ends up empty
    own = rng.permutation(n * n)[:k]
    for c in range(k):
        mask = rng.random(n * n) < density
        mask[own] = False
        mask[own[c]] = True
        circles.append(mask.reshape(n, n))
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
    for a, b in chosen:
        circles[b] &= ~circles[a]
    ladders = [_Ladder(level=i, inner=a, outer=b) for i, (a, b) in enumerate(chosen)]
    return TraversalMachine(
        n, circles, ladders, watch=draw(st.one_of(st.none(), st.integers(0, k - 1)))
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(
    machine=st.one_of(_concentric_machines(), _cross_shared_cell_machines()),
    start=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    seed=st.integers(0, 2**32),
    stream=st.integers(0, 2**32),
    m=st.sampled_from([5, 4, 3, 2, 1, 0]),
    cap=st.one_of(st.just(10**6), st.integers(1, 4000)),
    collect_intervals=st.booleans(),
)
def test_block_ladder_matches_per_hit_reference(
    machine, start, seed, stream, m, cap, collect_intervals
):
    n = machine.n
    point = TorusPoint(start[0] % n, start[1] % n, n)
    args = (machine, point, seed, stream, m, cap, collect_intervals)
    assert _outcome(_new_run, *args) == _outcome(reference_run, *args)


def test_block_ladder_overrun_mid_ladder_matches_reference():
    machine = circle_machine(CENTER, RADII)
    walk = _walk(3)
    _, clock = machine.run(walk, 4, CAP)
    assert walk.steps > 8 * _FIRST_BLOCK  # the walk spans several blocks
    # caps that stop the walk between the second and third departures, at a
    # block boundary and just before and after one
    third_block_end = _FIRST_BLOCK + 2 * _FIRST_BLOCK + 4 * _FIRST_BLOCK
    for cap in (
        (clock.departures[1] + clock.departures[2]) // 2,
        clock.departures[2] - 1,
        third_block_end,
        third_block_end + 1,
    ):
        for intervals in (False, True):
            args = (machine, TorusPoint(48, 32, N), 5, 3, 4, cap, intervals)
            got = _outcome(_new_run, *args)
            assert got == _outcome(reference_run, *args)
            if cap < clock.departures[-1]:
                assert got[0] == "overrun"


def _ran(out, walk):
    """A run's outcome as comparable values, and where its walk stopped."""
    if isinstance(out, BudgetExceededError):
        return ("overrun", str(out), out.steps_taken, walk.steps, walk.code)
    record, clock = out
    return (
        record.counts, record.driving_level, record.m, record.intervals, record.watch_time,
        clock.returns, clock.departures, walk.steps, walk.code,
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(
    machine=st.one_of(_concentric_machines(), _cross_shared_cell_machines()),
    data=st.data(),
    seed=st.integers(0, 2**32),
    m=st.sampled_from([3, 2, 1, 0]),
    collect_intervals=st.booleans(),
    chained=st.booleans(),
)
def test_group_ladder_matches_one_walk_at_a_time(
    machine, data, seed, m, collect_intervals, chained
):
    n = machine.n
    specs = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 2**40),
                st.one_of(st.just(10**6), st.integers(1, 4000)),
            ),
            min_size=1, max_size=40,
        )
    )

    def walks():
        return [WalkState(TorusPoint(x, y, n), seed=seed, stream=stream) for x, y, stream, _ in specs]

    caps = [cap for *_, cap in specs]
    first_circle = (machine._label & 1).astype(bool).reshape(n, n)
    group, alone = walks(), walks()
    run_caps = caps
    if chained:
        used = advance_group_to_mask(group, first_circle, caps)
        for walk, cap, u in zip(alone, caps, used):
            if isinstance(u, BudgetExceededError):
                with pytest.raises(BudgetExceededError):
                    advance_to_mask(walk, first_circle, cap)
            else:
                assert advance_to_mask(walk, first_circle, cap) == u
        ok = [i for i, u in enumerate(used) if not isinstance(u, BudgetExceededError)]
        group, alone = [group[i] for i in ok], [alone[i] for i in ok]
        run_caps = [caps[i] - used[i] for i in ok]
    got = machine.run_group(group, m, run_caps, collect_intervals)
    for out, g_walk, walk, cap in zip(got, group, alone, run_caps):
        try:
            want = machine.run(walk, m, cap, collect_intervals=collect_intervals)
        except BudgetExceededError as err:
            want = err
        assert _ran(out, g_walk) == _ran(want, walk)


def test_group_runs_take_empty_groups():
    # the curve trials run the ladder on the walks whose r_1 hit did not
    # overrun, which can be none of them
    machine = circle_machine(CENTER, RADII)
    assert machine.run_group([], 2, []) == []
    assert advance_group_to_mask([], ball_mask(CENTER, 2.0), []) == []


def test_machine_rejects_a_watch_circle_it_lacks():
    circles = [exterior_boundary_mask(ball_mask(CENTER, r)) for r in RADII]
    ladder = _Ladder(level=0, inner=1, outer=0)
    with pytest.raises(ValueError, match=f"watch circle {len(RADII)} out of range"):
        TraversalMachine(N, circles, [ladder], watch=len(RADII))


def test_machine_rejects_a_ladder_whose_circles_share_a_cell():
    # the cell (4, 0) from the centre lies outside the ball of radius 4 and
    # next to the ball of radius 3.5: it is on both circles
    shared = TorusPoint(CENTER.x + 4, CENTER.y, N).code
    assert exterior_boundary_mask(ball_mask(CENTER, 4.0)).reshape(-1)[shared]
    assert exterior_boundary_mask(ball_mask(CENTER, 3.5)).reshape(-1)[shared]
    with pytest.raises(ValueError, match="ladder 0's inner and outer circles share a cell"):
        circle_machine(CENTER, [4.0, 3.5, 1.0])
    circle_machine(CENTER, [4.0, 3.0, 1.0])  # one apart: disjoint


def test_radii_validation():
    with pytest.raises(ValueError):
        validate_radii([16, 4, 2])  # innermost != 1
    with pytest.raises(ValueError):
        validate_radii([16, 15.5, 1])  # gap < 1 crosses two circles in a step
    with pytest.raises(ValueError):
        validate_radii([16.0, 16.0, 1.0])
    with pytest.raises(ValueError, match="outermost radius must be < n/2"):
        validate_radii([4.0, 1.0], n=8)  # the ball would wrap into itself


def test_counts_nondecreasing_in_m_pathwise():
    for stream in range(4):
        rec2, _ = traversal_counts(_walk(stream), CENTER, RADII, m=2, cap=CAP)
        rec4, _ = traversal_counts(_walk(stream), CENTER, RADII, m=4, cap=CAP)
        for i in range(4):
            assert rec4.counts[i] >= rec2.counts[i]


def test_traversal_nesting_by_interval_containment():
    record, _ = traversal_counts(_walk(2), CENTER, RADII, m=3, cap=CAP, collect_intervals=True)
    iv = record.intervals
    for deep in range(1, 4):
        for (r_lo, r_hi) in iv[deep]:
            hosts = [
                (a, b) for (a, b) in iv[deep - 1] if a <= r_lo and r_hi <= b
            ]
            # each deeper traversal is nested inside exactly one shallower one
            assert len(hosts) == 1


def test_intermediate_reduces_to_traversal_counts_at_k0():
    for stream in range(3):
        rec_a, _ = traversal_counts(_walk(stream), CENTER, RADII, m=2, cap=CAP)
        rec_b, _ = intermediate_traversals(_walk(stream), CENTER, RADII, k=0, m=2, cap=CAP)
        assert rec_a.counts == rec_b.counts


def test_intermediate_levels_below_k_are_undefined():
    rec, _ = intermediate_traversals(_walk(0), CENTER, RADII, k=2, m=1, cap=CAP)
    with pytest.raises(ValueError):
        rec.count(1)
    assert rec.count(2) == 1


def test_tilde_equals_plain_from_outer_circle_start():
    for stream in range(4):
        rec_a, _ = traversal_counts(_walk(stream), CENTER, RADII, m=2, cap=CAP)
        rec_b, _ = tilde_traversal(_walk(stream), CENTER, RADII, m=2, cap=CAP)
        assert rec_a.counts == rec_b.counts


def test_tilde_differs_for_interior_start():
    # started at the center, the plain ladder counts the initial outward
    # crossings while the tilde clock waits for the first r_1 hit
    inner = TorusPoint(32, 32, N)
    rec_a, _ = traversal_counts(_walk(0, start=inner), CENTER, RADII, m=1, cap=CAP)
    rec_b, _ = tilde_traversal(_walk(0, start=inner), CENTER, RADII, m=1, cap=CAP)
    assert rec_a.counts[3] >= 1  # the start sits inside every ball
    assert rec_b.counts[0] == 1


def test_tilde_overrun_counts_both_phases():
    # the walk first hits the r_1 circle at step 158 and overruns in the
    # ladder: the overrun names the caller's cap and every step of the call
    start, radii = TorusPoint(48, 32, N), [16, 4, 1]
    r1 = exterior_boundary_mask(ball_mask(CENTER, radii[1]))
    assert advance_to_mask(WalkState(start, seed=3, stream=1), r1, CAP) == 158
    walk = WalkState(start, seed=3, stream=1)
    with pytest.raises(BudgetExceededError) as err:
        tilde_traversal(walk, CENTER, radii, 5, cap=208)
    assert str(err.value) == "driving ladder finished only 0/5 departures within 208 steps"
    assert err.value.steps_taken == walk.steps == 208


def test_hat_dominated_by_tilde_pathwise():
    # Shared trajectory at the same center: inflated outer / deflated inner
    # circles can only lose traversals.
    for stream in range(6):
        rec_hat, _ = hat_traversal(_walk(stream), CENTER, RADII, m=3, cap=CAP)
        rec_tilde, _ = tilde_traversal(_walk(stream), CENTER, RADII, m=3, cap=CAP)
        for i in range(1, 4):
            assert rec_hat.counts[i] <= rec_tilde.counts[i]


def test_hat_rejects_radii_the_inflation_pulls_onto_one_cell():
    # eps = 0.082 at n = 64: the circles of radius 0.918 * 2 and 1.082 * 1 meet
    with pytest.raises(ValueError, match=r"radii 2 and 1 are too close .* eps = 0\.08"):
        hat_traversal(_walk(0), CENTER, [2.0, 1.0], m=1, cap=CAP)
    hat_traversal(_walk(0), CENTER, [3.0, 1.0], m=1, cap=CAP)


def test_hat_single_excursion_counts_returns():
    rec, clock = hat_traversal(_walk(1), CENTER, RADII, m=1, cap=CAP)
    assert clock.pairs == 1
    assert all(v >= 0 for v in rec.counts.values())


def _record(counts, m=2):
    return TraversalRecord(counts=dict(counts), m=m)


def _clock(m=2):
    return ExcursionClock(returns=[0, 20], departures=[10, 30])


def test_detect_late_event_examples():
    window = range(1, 3)
    b_minus = lambda i: 3
    b_plus = lambda i: 5
    clock = _clock()
    # below the lower curve at a window level -> false
    assert not detect_late_event(_record({1: 2, 2: 4}), None, clock, b_minus, b_plus, window)
    # exactly on the curves (both sides) -> true, bounds inclusive
    assert detect_late_event(_record({1: 3, 2: 5}), None, clock, b_minus, b_plus, window)
    # unvisited clause: hit before D_m kills the event
    assert not detect_late_event(_record({1: 4, 2: 4}), 25, clock, b_minus, b_plus, window)
    assert detect_late_event(_record({1: 4, 2: 4}), 31, clock, b_minus, b_plus, window)


def test_detect_late_event_monotone_in_corridor():
    window = range(1, 3)
    clock = _clock()
    rec = _record({1: 4, 2: 4})
    assert detect_late_event(rec, None, clock, lambda i: 4, lambda i: 4, window)
    # enlarging [b-, b+] pointwise never flips true -> false
    assert detect_late_event(rec, None, clock, lambda i: 3, lambda i: 6, window)


def test_detect_late_event_incomplete_record():
    with pytest.raises(ValueError):
        detect_late_event(
            _record({1: 4}), None, _clock(), lambda i: 0, lambda i: 9, range(1, 3)
        )


def test_branching_level_examples():
    radii = [2.0 ** (10 - k) for k in range(11)]
    x = TorusPoint(0, 0, 2048)
    assert branching_level(x, TorusPoint(100, 0, 2048), radii) == 5
    assert branching_level(x, x, radii) is None
    # d >= 2 r_0 -> level 0
    far = TorusPoint(0, 1024, 2048)  # hmm: d = 1024 < 2*1024; use smaller radii
    small = [4.0, 2.0, 1.0]
    assert branching_level(x, TorusPoint(8, 0, 2048), small) == 0


def test_branching_level_monotone_in_distance():
    radii = [16.0, 8.0, 4.0, 2.0, 1.0]
    x = TorusPoint(0, 0, 256)
    prev = None
    for d in (40, 20, 10, 5, 3):
        lvl = branching_level(x, TorusPoint(d, 0, 256), radii)
        if prev is not None and lvl is not None:
            assert lvl >= prev
        prev = lvl if lvl is not None else prev


def test_excursion_length_split_accounting():
    # outward leg from the equilibrium inner measure plus inward leg from the
    # equilibrium outer measure reconstructs (2/pi) n^2 log(R/r) within 5%
    import numpy as np
    from coverlab.lattice import advance_to_mask
    from coverlab.oracle import EquilibriumWorkspace

    n, r, R = 64, 4.0, 16.0
    center = TorusPoint(32, 32, n)
    ws = EquilibriumWorkspace(center, r, R, n)
    pair = ws.equilibrium_pair()
    rng = np.random.default_rng(12)

    def leg(start_codes, probs, mask, trials, stream0):
        cum = np.cumsum(probs)
        total = 0
        for t in range(trials):
            code = int(start_codes[np.searchsorted(cum, rng.random())])
            w = WalkState(TorusPoint(code // n, code % n, n), seed=8, stream=stream0 + t)
            total += advance_to_mask(w, mask, 10**8, inclusive=False)
        return total / trials

    trials = 1500
    inward = leg(pair.outer_codes, pair.mu_outer, ws.inner_mask, trials, 0)
    outward = leg(pair.inner_codes, pair.mu_inner, ws.outer_mask, trials, 10**6)
    formula = (2 / math.pi) * n * n * math.log(R / r)
    assert abs((inward + outward) / formula - 1.0) <= 0.05


def test_intermediate_counts_track_gw_one_step_law():
    # T at the first level below the driving annulus follows the GW one-step
    # law from m up to the transfer error, which a chi-square at this sample
    # size does not resolve
    import numpy as np
    from coverlab.gw import one_step_pmf
    from coverlab.stats import two_sample_chisquare

    n = 64
    center = TorusPoint(32, 32, n)
    radii = [24.0, 12.0, 6.0, 3.0, 1.0]
    start = TorusPoint(32 + 12, 32, n)  # on the driving (k=1) outer circle
    m, trials = 3, 1500
    counts = []
    for t in range(trials):
        w = WalkState(start, seed=17, stream=t)
        rec, _ = intermediate_traversals(w, center, radii, k=1, m=m, cap=10**8)
        counts.append(rec.counts[2])
    hi = max(counts) + 1
    mc = np.bincount(counts, minlength=hi)
    pmf = one_step_pmf(m, hi - 1)
    rng = np.random.default_rng(4)
    gw_draws = rng.negative_binomial(m, 0.5, size=trials)
    gw_counts = np.bincount(np.minimum(gw_draws, hi - 1), minlength=hi)
    _, p = two_sample_chisquare(mc, gw_counts)
    assert p > 0.001
    # transfer error at these radii measured ~1%; 0.04 is a generous allowance
    for v in (0, 1, 2, 3):
        se = math.sqrt(max(pmf[v] * (1 - pmf[v]), 1e-9) / trials)
        assert abs(mc[v] / trials - pmf[v]) <= 0.04 + 3 * se
