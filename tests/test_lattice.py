import copy
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverlab
import philox_reference
from coverlab import lattice
from coverlab.excursions import circle_machine
from coverlab.lattice import (
    _FIRST_BLOCK,
    _MAX_BLOCK,
    _MAX_ROUND,
    BudgetExceededError,
    TorusPoint,
    WalkState,
    advance_group_to_mask,
    advance_to_mask,
    ball_mask,
    boundary,
    cover_time,
    exterior_boundary_mask,
    hitting_time,
    mask_to_points,
    near_table,
    philox_stream,
    scan_group,
    step,
    stream_key,
    torus_distance,
)


# stream_key(7, "cover", "n16"): BLAKE2b of "(7, 'cover', 'n16')", first 8 bytes little-endian
STREAM_KEY_7_COVER_N16 = 10725293465982372454


def test_torus_distance_examples():
    assert torus_distance(TorusPoint(0, 0, 8), TorusPoint(0, 1, 8)) == 1
    assert torus_distance(TorusPoint(0, 0, 8), TorusPoint(7, 0, 8)) == 1
    assert torus_distance(TorusPoint(0, 0, 100), TorusPoint(3, 4, 100)) == 5


def test_torus_distance_mismatched_sides():
    with pytest.raises(ValueError):
        torus_distance(TorusPoint(0, 0, 8), TorusPoint(0, 0, 16))


def test_torus_distance_is_a_metric():
    rng = np.random.default_rng(3)
    n = 17
    for _ in range(300):
        a, b, c = (TorusPoint(int(p[0]), int(p[1]), n) for p in rng.integers(0, n, (3, 2)))
        assert torus_distance(a, b) == torus_distance(b, a)
        assert torus_distance(a, c) <= torus_distance(a, b) + torus_distance(b, c) + 1e-12
        assert (torus_distance(a, b) == 0) == (a == b)


def test_point_reduction_and_equality():
    assert TorusPoint(9, -1, 8) == TorusPoint(1, 7, 8)


def test_boundary_singleton_is_itself():
    p = TorusPoint(3, 3, 9)
    assert boundary({p}) == frozenset({p})


def test_boundary_of_plus_shape_by_enumeration():
    # the 5-point plus B(x, 1.2): exterior neighbors are 4 diagonals + 4 at distance 2
    n = 9
    x = TorusPoint(4, 4, n)
    plus = mask_to_points(ball_mask(x, 1.2))
    assert len(plus) == 5
    got = boundary(plus)
    expected = set()
    for p in plus:
        for q in p.neighbors():
            if q not in plus:
                expected.add(q)
    assert got == frozenset(expected)
    assert len(got) == 8
    dists = sorted(round(torus_distance(x, q), 3) for q in got)
    assert dists == [1.414] * 4 + [2.0] * 4


def test_ball_membership_is_strict():
    # sqrt(2) < 1.5, so B(x, 1.5) is the full 3x3 block of 9 cells
    x = TorusPoint(4, 4, 9)
    assert ball_mask(x, 1.5).sum() == 9
    # strict inequality at integer radii, where the float compare is exact
    assert ball_mask(x, 1.0).sum() == 1  # d = 1 is excluded
    assert ball_mask(x, 2.0).sum() == 9  # d = 2 is excluded, diagonals stay


def test_boundary_of_whole_torus_is_an_error():
    pts = [TorusPoint(i, j, 2) for i in range(2) for j in range(2)]
    with pytest.raises(ValueError):
        boundary(pts)


def test_step_takes_the_next_move_of_the_stream():
    # the pinned key's first moves are -x, -x, -y, +x
    w = WalkState(TorusPoint(0, 0, 4), seed=STREAM_KEY_7_COVER_N16)
    for k, want in enumerate([(3, 0), (2, 0), (2, 3), (3, 3)], start=1):
        step(w)
        assert w.position == TorusPoint(*want, 4)
        assert w.steps == k


def test_step_direction_frequencies():
    w = WalkState(TorusPoint(0, 0, 5), seed=42)
    n_steps = 1_000_000
    prev = w.position
    counts = np.zeros(4, dtype=np.int64)
    deltas = {(1, 0): 0, (-1, 0): 1, (0, 1): 2, (0, -1): 3}
    for _ in range(n_steps):
        step(w)
        cur = w.position
        d = ((cur.x - prev.x + 2) % 5 - 2, (cur.y - prev.y + 2) % 5 - 2)
        counts[deltas[d]] += 1
        prev = cur
    freqs = counts / n_steps
    assert np.all(np.abs(freqs - 0.25) <= 0.002)


def _int64_codes(moves, n, x, y):
    """Flat codes of a walk from (x, y) with the int64 move formula."""
    dx = np.array([1, -1, 0, 0], dtype=np.int64)[moves]
    dy = np.array([0, 0, 1, -1], dtype=np.int64)[moves]
    return ((x + np.cumsum(dx)) % n) * n + (y + np.cumsum(dy)) % n


def _walk_codes(walk, total):
    """The next ``total`` codes of ``walk``, one ``step`` at a time."""
    return np.array([step(walk).code for _ in range(total)])


def _scanned_codes(walk, total, slice_len):
    """The next ``total`` codes of ``walk``, through ``scan_group`` calls of
    caps of ``slice_len`` with every cell on ``on``: each round expands
    every byte, and the stop callback records every code."""
    out = []

    def record(codes, at, bounds, rows, taken):
        assert np.array_equal(at, np.arange(codes.size))  # every step, in order
        out.append(codes.copy())
        return np.full(rows.size, -1)

    on = np.ones(walk.n * walk.n, dtype=bool)
    got = 0
    while got < total:
        cap = min(slice_len, total - got)
        (overrun,) = scan_group([walk], [cap], on, record, str)
        assert overrun.steps_taken == cap
        got += cap
    return np.concatenate(out)


def test_stream_key_is_pinned_and_independent_of_the_hash_seed():
    assert stream_key(7, "cover", "n16") == STREAM_KEY_7_COVER_N16
    assert stream_key(np.int64(7), "cover", "n16") == STREAM_KEY_7_COVER_N16
    # Python's str hash is salted per process; the key must not be
    src = str(Path(coverlab.__file__).resolve().parents[1])
    code = "from coverlab.lattice import stream_key; print(stream_key(7, 'cover', 'n16'))"
    for hash_seed in ("1", "4242"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True,
        )
        assert int(out.stdout) == STREAM_KEY_7_COVER_N16


def _format3_moves(seed, stream, total):
    """The first ``total`` moves of a key by the stream format 3 formula:
    move k is (raw[k // 32] >> 2 (k % 32)) & 3 of the key's raw Philox words."""
    raw = philox_stream(seed, stream).bit_generator.random_raw(-(-total // 32))
    k = np.arange(total)
    shift = (2 * (k % 32)).astype(np.uint64)
    return ((raw[k // 32] >> shift) & np.uint64(3)).astype(np.int64)


# the first 64 moves of the key [STREAM_KEY_7_COVER_N16, 0], the first cover
# trial of the n = 16 side at seed 7 (0 = +x, 1 = -x, 2 = +y, 3 = -y)
FIRST_MOVES_7_COVER_N16 = "1130131312222123111002301130232303202003312221220221220101110311"


def test_first_moves_of_a_fixed_key_are_pinned():
    n = 16
    moves = np.array([int(c) for c in FIRST_MOVES_7_COVER_N16])
    assert moves.size == 64
    walk = WalkState(TorusPoint(0, 0, n), seed=STREAM_KEY_7_COVER_N16, stream=0)
    assert np.array_equal(_walk_codes(walk, 64), _int64_codes(moves, n, 0, 0))


@pytest.mark.parametrize("n", [3, 50, 128])
def test_walk_stream_matches_the_format_3_formula(n):
    # 300 000 moves cross the doubling first blocks and nine full-size ones;
    # odd slice lengths make the scans' caps straddle every block boundary
    total = 300_000
    for seed, stream, slice_len in ((0, 0, 1 << 20), (7, 3, 9_999), (2**63 + 5, 2**40, 77_777)):
        x, y = seed % n, stream % n
        walk = WalkState(TorusPoint(x, y, n), seed=seed, stream=stream)
        got = _scanned_codes(walk, total, slice_len)
        moves = _format3_moves(seed, stream, total)
        assert np.array_equal(got, _int64_codes(moves, n, x, y))
        assert walk.steps == total
        assert walk.code == got[-1]


# every key a stream-formula test draws from: the walk formula tests above and
# below, and the GW samplers' layout tests in tests/test_gw.py
FORMULA_KEYS = (
    (0, 0), (7, 3), (2**63 + 5, 2**40), (STREAM_KEY_7_COVER_N16, 0),
    (11, 0), (11, 39), (31, 5), (12, 0), (23, 0), (24, 0),
)


def test_philox_raw_words_match_the_written_reference():
    # 1 001 words cross 250 block boundaries and end inside a block; the
    # advanced streams carry out of counter lane 0, and one is drawn from
    # the middle of a block, whose unread words advance drops
    for key in FORMULA_KEYS:
        got = philox_stream(*key).bit_generator.random_raw(1001)
        assert [int(w) for w in got] == philox_reference.raw_words(key, 1001)
    for delta in (2**64 - 3, 2**70 + 5, 2**200 + 2**64 - 1):
        bits = philox_stream(12, 0).bit_generator
        bits.advance(delta)
        got = bits.random_raw(23)
        assert [int(w) for w in got] == philox_reference.raw_words((12, 0), 23, delta)
        bits.random_raw(2)
        bits.advance(delta)
        got = bits.random_raw(9)
        assert [int(w) for w in got] == philox_reference.raw_words((12, 0), 9, 2 * delta + 7)


def test_format_3_moves_follow_from_the_written_philox():
    # move k is bit pair 2(k mod 32) of lane (k // 32) mod 4 of block k // 128 + 1
    key = (STREAM_KEY_7_COVER_N16, 0)
    blocks = {c: philox_reference.block(c, key) for c in (1, 2, 3)}
    moves = [blocks[k // 128 + 1][k // 32 % 4] >> 2 * (k % 32) & 3 for k in range(300)]
    assert "".join(map(str, moves[:64])) == FIRST_MOVES_7_COVER_N16
    assert np.array_equal(moves, _format3_moves(*key, 300))


def test_walk_rejects_a_side_beyond_int32_codes():
    WalkState(TorusPoint(0, 0, 46340))
    with pytest.raises(ValueError, match="int32"):
        WalkState(TorusPoint(0, 0, 46341))


def test_walk_steps_are_unit_moves_and_reduced():
    w = WalkState(TorusPoint(0, 0, 6), seed=9)
    prev = w.position
    for _ in range(500):
        step(w)
        cur = w.position
        assert torus_distance(prev, cur) == 1
        assert 0 <= cur.x < 6 and 0 <= cur.y < 6
        prev = cur


def test_equal_seeds_reproduce_trajectories():
    w1 = WalkState(TorusPoint(2, 2, 16), seed=7, stream=3)
    w2 = WalkState(TorusPoint(2, 2, 16), seed=7, stream=3)
    for _ in range(2000):
        step(w1)
        step(w2)
        assert w1.position == w2.position
    # different operation slicing, same stream: positions agree step-for-step
    w3 = WalkState(TorusPoint(2, 2, 16), seed=7, stream=3)
    mask = ball_mask(TorusPoint(9, 9, 16), 1.2)
    hitting_time(w3, mask, cap=10_000)
    w4 = WalkState(TorusPoint(2, 2, 16), seed=7, stream=3)
    for _ in range(w3.steps):
        step(w4)
    assert w4.position == w3.position


def test_hitting_time_zero_when_inside():
    w = WalkState(TorusPoint(5, 5, 16), seed=1)
    mask = ball_mask(TorusPoint(5, 5, 16), 2.0)
    assert hitting_time(w, mask, cap=10) == 0
    assert w.steps == 0


def test_hitting_time_of_neighbors_is_one():
    w = WalkState(TorusPoint(5, 5, 16), seed=1)
    target = frozenset(TorusPoint(5, 5, 16).neighbors())
    assert hitting_time(w, target, cap=10) == 1


def test_hitting_time_empty_target_and_bad_cap():
    w = WalkState(TorusPoint(0, 0, 8), seed=1)
    with pytest.raises(ValueError):
        hitting_time(w, np.zeros((8, 8), dtype=bool), cap=10)
    with pytest.raises(ValueError):
        hitting_time(w, ball_mask(TorusPoint(2, 2, 8), 1.2), cap=0)


def test_hitting_time_budget_error_carries_steps():
    w = WalkState(TorusPoint(0, 0, 64), seed=1)
    mask = np.zeros((64, 64), dtype=bool)
    mask[32, 32] = True
    with pytest.raises(BudgetExceededError) as err:
        hitting_time(w, mask, cap=50)
    assert err.value.steps_taken == 50


def test_exit_time_mc_mean_in_lawler_band():
    # E_center[H_boundary(B(0, R))] lies in [R^2, (R+1)^2]; MC within 3 sigma
    n, R = 128, 20.0
    center = TorusPoint(64, 64, n)
    mask = exterior_boundary_mask(ball_mask(center, R))
    vals = []
    for t in range(400):
        w = WalkState(center, seed=5, stream=t)
        vals.append(hitting_time(w, mask, cap=10**7))
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert R**2 - 3 * se <= mean <= (R + 1) ** 2 + 3 * se


def test_hitting_monotone_in_target_pathwise():
    n = 32
    big = ball_mask(TorusPoint(20, 20, n), 4.0)
    small = ball_mask(TorusPoint(20, 20, n), 2.0)
    for t in range(25):
        w_big = WalkState(TorusPoint(3, 3, n), seed=11, stream=t)
        w_small = WalkState(TorusPoint(3, 3, n), seed=11, stream=t)
        assert hitting_time(w_big, big, 10**6) <= hitting_time(w_small, small, 10**6)


def test_cover_time_trivial_and_bounds():
    assert cover_time(WalkState(TorusPoint(0, 0, 1), seed=0)) == 0
    # cover dominates the hitting time of any fixed vertex, pathwise
    n = 8
    far = np.zeros((n, n), dtype=bool)
    far[4, 4] = True
    for t in range(25):
        w_cov = WalkState(TorusPoint(0, 0, n), seed=13, stream=t)
        w_hit = WalkState(TorusPoint(0, 0, n), seed=13, stream=t)
        assert cover_time(w_cov) >= hitting_time(w_hit, far, 10**7)


def test_cover_time_counts_only_its_own_steps():
    # a walk that stepped before covers in the steps this call takes, as its
    # cap and its overrun count them
    def stepped(stream):
        walk = WalkState(TorusPoint(0, 0, 8), seed=19, stream=stream)
        for _ in range(10):
            step(walk)
        return walk

    for stream in range(10):
        ref = stepped(stream)
        cover = _cover_by_steps(ref, 10**7)[0] - 10
        walk = stepped(stream)
        assert cover_time(walk, cap=cover) == cover
        assert walk.steps == 10 + cover and walk.code == ref.code
        walk = stepped(stream)
        with pytest.raises(BudgetExceededError) as err:
            cover_time(walk, cap=cover - 1)
        assert err.value.steps_taken == cover - 1 and walk.steps == 9 + cover


def test_cover_time_budget_error():
    with pytest.raises(BudgetExceededError):
        cover_time(WalkState(TorusPoint(0, 0, 32), seed=2), cap=100)


def _assert_cover_mean_matches_exact_chain(n, exact):
    vals = [cover_time(WalkState(TorusPoint(0, 0, n), seed=7, stream=t)) for t in range(8000)]
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - exact) <= 3 * se


def test_cover_time_n2_matches_exact_chain():
    from coverlab.oracle import exact_cover_mean

    _assert_cover_mean_matches_exact_chain(2, exact_cover_mean(2))


def test_cover_time_n3_matches_exact_chain():
    from coverlab.oracle import exact_cover_mean

    exact = exact_cover_mean(3)
    assert exact == pytest.approx(24.1108, abs=1e-4)
    _assert_cover_mean_matches_exact_chain(3, exact)


def _cover_by_steps(walk: WalkState, cap: int) -> tuple[int, int]:
    """Step ``walk`` one move at a time until it covers the torus or makes ``cap``
    moves; returns (steps, cells left unvisited)."""
    visited = {walk.code}
    while len(visited) < walk.n * walk.n and walk.steps < cap:
        visited.add(step(walk).code)
    return walk.steps, walk.n * walk.n - len(visited)


# n up to 10 covers inside the first block; 16 and 24 cross block boundaries
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 24])
def test_cover_time_matches_a_per_step_reference(n):
    for stream in range(40 if n <= 10 else 8):
        start = TorusPoint(stream, 3 * stream, n)
        ref = WalkState(start, seed=17, stream=stream)
        cover, left = _cover_by_steps(ref, 10**7)
        assert left == 0
        walk = WalkState(start, seed=17, stream=stream)
        assert cover_time(walk) == cover
        assert walk.code == ref.code
        # a cap short of the cover overruns with the reference's count of cells left
        cap = max(1, cover // 2)
        ref = WalkState(start, seed=17, stream=stream)
        _, left = _cover_by_steps(ref, cap)
        walk = WalkState(start, seed=17, stream=stream)
        with pytest.raises(BudgetExceededError) as err:
            cover_time(walk, cap=cap)
        assert str(err.value) == f"torus not covered ({left} cells left) within {cap} steps"
        assert err.value.steps_taken == cap
        assert walk.code == ref.code


@st.composite
def _walk_specs(draw, n, big=10**6):
    """One walk of a group: start, stream and cap, ``big`` or 1-3000.  Small
    caps make some walks overrun while the others go on."""
    return (
        draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, 2**40)),
        draw(st.one_of(st.just(big), st.integers(1, 3000))),
    )


def _make_walks(specs, n, seed):
    """Fresh walks from specs."""
    return [WalkState(TorusPoint(x, y, n), seed=seed, stream=stream) for x, y, stream, _ in specs]


def _after(walk):
    """Where a walk stands, and its next 40 codes: they must continue its
    stream whatever the operation before them stopped on."""
    return walk.steps, walk.code, _walk_codes(walk, 40).tolist()


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    n=st.sampled_from([5, 16, 48]),
    data=st.data(),
    seed=st.integers(0, 2**32),
    radius=st.sampled_from([1.5, 3.0]),
    inclusive=st.booleans(),
)
def test_group_mask_hit_matches_one_walk_at_a_time(n, data, seed, radius, inclusive):
    specs = data.draw(st.lists(_walk_specs(n), min_size=1, max_size=40))
    mask = ball_mask(TorusPoint(data.draw(st.integers(0, n - 1)), 0, n), min(radius, n / 2 - 0.5))
    caps = [spec[3] for spec in specs]
    group = _make_walks(specs, n, seed)
    got = advance_group_to_mask(group, mask, caps, inclusive)
    for walk, alone, cap, out in zip(group, _make_walks(specs, n, seed), caps, got):
        try:
            want = advance_to_mask(alone, mask, cap, inclusive)
        except BudgetExceededError as err:
            assert isinstance(out, BudgetExceededError)
            assert (str(out), out.steps_taken) == (str(err), err.steps_taken)
        else:
            assert out == want
        assert _after(walk) == _after(alone)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    n=st.sampled_from([5, 16, 48]),
    data=st.data(),
    seed=st.integers(0, 2**32),
    radius=st.sampled_from([1.5, 3.0]),
    inclusive=st.booleans(),
)
def test_group_mask_hit_matches_the_format_3_positions(n, data, seed, radius, inclusive):
    # each walk's hit is the first of its formula positions on the mask
    # within its cap, or it overruns at the cap; either way it stands there
    specs = data.draw(st.lists(_walk_specs(n, big=20_000), min_size=1, max_size=40))
    mask = ball_mask(TorusPoint(data.draw(st.integers(0, n - 1)), 0, n), min(radius, n / 2 - 0.5))
    group = _make_walks(specs, n, seed)
    got = advance_group_to_mask(group, mask, [spec[3] for spec in specs], inclusive)
    for (x, y, stream, cap), walk, out in zip(specs, group, got):
        codes = _int64_codes(_format3_moves(seed, stream, cap), n, x, y)
        hits = np.flatnonzero(mask.reshape(-1).take(codes))
        if inclusive and mask[x, y]:
            assert out == 0 and walk.code == x * n + y
        elif hits.size:
            assert out == hits[0] + 1 and walk.code == codes[hits[0]]
        else:
            assert isinstance(out, BudgetExceededError) and out.steps_taken == cap
            assert walk.code == codes[-1]


def test_kept_moves_continue_the_stream():
    # a walk that stops inside a block keeps the rest; the codes after it are
    # the stream's own, however operations cut it
    n, seed = 24, 11
    mask = ball_mask(TorusPoint(0, 0, n), 3.0)
    walks = [WalkState(TorusPoint(12, 12, n), seed=seed, stream=t) for t in range(40)]
    used = advance_group_to_mask(walks, mask, [10**6] * len(walks))
    for t, walk in enumerate(walks):
        steps = walk.steps
        moves = _format3_moves(seed, t, steps + 500)
        want = _int64_codes(moves, n, 12, 12)
        assert used[t] == steps and mask.flat[want[steps - 1]]
        assert np.array_equal(_walk_codes(walk, 500), want[steps:])
    # caps of 1 to 127 steps stop walks at every offset 0-31 of a word; the
    # single cell at L1 distance 128 lies beyond every cap
    n = 128
    far = np.zeros((n, n), dtype=bool)
    far[64, 64] = True
    caps = range(1, 128)
    walks = [WalkState(TorusPoint(0, 0, n), seed=seed, stream=cap) for cap in caps]
    out = advance_group_to_mask(walks, far, caps)
    for cap, walk, o in zip(caps, walks, out):
        assert isinstance(o, BudgetExceededError) and walk.steps == o.steps_taken == cap
        want = _int64_codes(_format3_moves(seed, cap, cap + 500), n, 0, 0)
        assert walk.code == want[cap - 1]
        assert np.array_equal(_walk_codes(walk, 500), want[cap:])


def test_operations_leave_no_decoded_block():
    # after each public operation a walk holds only raw words, and the next
    # moves that step reads from them are the stream's own
    n, seed, start = 24, 31, (12, 12)

    def fresh(streams):
        return [WalkState(TorusPoint(*start, n), seed=seed, stream=t) for t in streams]

    hits = fresh(range(12))
    out = advance_group_to_mask(hits, ball_mask(TorusPoint(0, 0, n), 2.0), [10**6, 40] * 6)
    assert {isinstance(o, BudgetExceededError) for o in out} == {True, False}
    covered = fresh([12, 13])
    cover_time(covered[0])
    with pytest.raises(BudgetExceededError):
        cover_time(covered[1], cap=100)
    ladders = fresh(range(14, 20))
    machine = circle_machine(TorusPoint(*start, n), [8.0, 2.0])
    assert all(isinstance(o, tuple) for o in machine.run_group(ladders, 2, [10**6] * 6))
    assert all(w._words.size for w in ladders)  # each ended inside a block
    for t, walk in enumerate(hits + covered + ladders):
        assert walk._codes.size == walk._ends.size == 0
        steps = walk.steps
        want = _int64_codes(_format3_moves(seed, t, steps + 500), n, *start)
        assert steps > 0 and walk.code == want[steps - 1]
        assert np.array_equal(_walk_codes(walk, 500), want[steps:])


def test_scan_rounds_keep_to_the_block_and_round_limits(monkeypatch):
    rounds = []
    real = lattice._decode

    def counting(walks, near):
        ahead = [w._ahead() for w in walks]
        kept = sum(w._words.size > 0 for w in walks)
        codes, at, bounds = real(walks, near)
        # each walk's part, skipped head included, is what it had ahead
        assert [4 * w._ends.size for w in walks] == ahead
        assert bounds[-1] == codes.size == at.size
        rounds.append((ahead, kept))
        return codes, at, bounds

    monkeypatch.setattr(lattice, "_decode", counting)
    n = 128
    walks = [WalkState(TorusPoint(0, 0, n), seed=3, stream=t) for t in range(40)]
    far = ball_mask(TorusPoint(64, 64, n), 2.0)
    out = advance_group_to_mask(walks, far, [10**6] * len(walks))
    assert all(not isinstance(o, BudgetExceededError) for o in out)
    assert rounds[0] == ([_FIRST_BLOCK] * 40, 0)  # one round packs all first blocks
    assert any(parts == [_MAX_BLOCK] * 2 for parts, _ in rounds)  # full blocks go in pairs
    # half the walks take the rest of their block, so that the rounds of a
    # second operation mix the words the others kept with fresh blocks
    for walk in walks[::2]:
        for _ in range(32 * walk._words.size - walk._skip):
            step(walk)
    first = len(rounds)
    out = advance_group_to_mask(walks, ball_mask(TorusPoint(0, 0, n), 2.0), [10**6] * len(walks))
    assert all(not isinstance(o, BudgetExceededError) for o in out)
    assert any(0 < kept < len(parts) for parts, kept in rounds[first:])
    assert max(max(parts) for parts, _ in rounds) == _MAX_BLOCK
    assert max(sum(parts) for parts, _ in rounds) == _MAX_ROUND


def test_grouped_decodes_match_the_format_3_formula(monkeypatch):
    # walks that start within 4 cells of the torus edges stop at every offset
    # 0-31 of a word; a second operation's rounds mix the words they kept
    # with fresh blocks and fill _MAX_ROUND.  Every code a round hands the
    # stop callback is the formula's cell at its step, and every step onto
    # a watched cell (row 0 or column 0) is among them.
    rounds = []
    real = lattice._decode

    def counting(walks, near):
        kept = sum(w._words.size > 0 for w in walks)
        out = real(walks, near)
        rounds.append((sum(4 * w._ends.size for w in walks), kept, len(walks)))
        return out

    monkeypatch.setattr(lattice, "_decode", counting)
    n, seed = 50, 23
    edge = [0, 1, 2, 3, n - 4, n - 3, n - 2, n - 1]
    starts = [(edge[t % 8], edge[t // 8 % 8]) for t in range(128)]
    walks = [WalkState(TorusPoint(x, y, n), seed=seed, stream=t) for t, (x, y) in enumerate(starts)]
    watched = np.zeros((n, n), dtype=bool)
    watched[0, :] = watched[:, 0] = True
    on = watched.reshape(-1)
    done = [0] * len(walks)  # steps of the walk before this operation
    seen = [[] for _ in walks]

    def record(codes, at, bounds, rows, taken):
        for i, row in enumerate(rows.tolist()):
            steps = done[row] + taken[i] + at[bounds[i] : bounds[i + 1]]
            seen[row].append((steps, codes[bounds[i] : bounds[i + 1]]))
        return np.full(rows.size, -1)

    first = [1 + t % 127 for t in range(128)]
    out = scan_group(walks, first, on, record, str)
    assert [o.steps_taken for o in out] == first
    assert {walk._skip for walk in walks} == set(range(32))
    rounds.clear()
    done = first
    second = [3000] * 128
    out = scan_group(walks, second, on, record, str)
    assert [o.steps_taken for o in out] == second
    assert any(0 < kept < k for _, kept, k in rounds)
    assert max(size for size, _, _ in rounds) == _MAX_ROUND
    for t, (x, y) in enumerate(starts):
        want = _int64_codes(_format3_moves(seed, t, first[t] + second[t]), n, x, y)
        steps = np.concatenate([s for s, _ in seen[t]])
        assert np.array_equal(np.concatenate([c for _, c in seen[t]]), want[steps])
        assert (np.diff(steps) > 0).all() and steps[0] >= 0 and steps[-1] < want.size
        assert np.isin(np.flatnonzero(watched.reshape(-1).take(want)), steps).all()
        assert steps.size < want.size  # the rounds skipped the bytes far from the watch
        assert walks[t].code == want[-1]


def test_scan_expands_every_byte_that_can_reach_a_watched_cell():
    # One test byte of each of the 256 values, after a 32-move lead word that
    # stays off a one-cell mask, from every start within L1 distance 4 of it,
    # with 0 (as a fresh walk's) to 31 moves of the lead word taken: the
    # grouped hit step and end cell must be the format 3 formula's.  The lead
    # word moves to and fro across the start, on the axis that misses the cell.
    n, tx, ty = 16, 8, 8
    mask = np.zeros((n, n), dtype=bool)
    mask[tx, ty] = True
    dxy = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
    template = WalkState(TorusPoint(0, 0, n))
    cases = []
    for dx in range(-4, 5):
        for dy in range(abs(dx) - 4, 5 - abs(dx)):
            if dx or dy:
                lead = 0xEE if dy == 0 else 0x44  # +y -y +y -y, or +x -x +x -x
                for v in range(256):
                    cases.append((tx + dx, ty + dy, bytes([lead] * 8 + [v] + [lead] * 7)))
    assert len(cases) == 40 * 256
    words = np.frombuffer(b"".join(c[2] for c in cases), dtype="<u8").reshape(-1, 2)
    moves = (words[:, np.arange(64) // 32] >> (2 * (np.arange(64) % 32)).astype(np.uint64)) & 3
    starts = np.array([c[:2] for c in cases])
    in_test_byte = 0
    for skip in range(32):
        walks = []
        for (x, y, _), w in zip(cases, words):
            walk = copy.copy(template)
            walk._px, walk._py, walk._words, walk._skip = x, y, w, skip
            walks.append(walk)
        cap = 64 - skip
        out = advance_group_to_mask(walks, mask, [cap] * len(walks))
        xy = (starts[:, None, :] + dxy[moves[:, skip:]].cumsum(axis=1)) % n
        on = (xy[:, :, 0] == tx) & (xy[:, :, 1] == ty)
        hit = np.where(on.any(axis=1), on.argmax(axis=1), cap - 1)
        # a hit's step count, or minus the steps of an overrun
        want = np.where(on.any(axis=1), hit + 1, -cap)
        got = [-o.steps_taken if isinstance(o, BudgetExceededError) else o for o in out]
        assert np.array_equal(got, want)
        end = xy[np.arange(len(cases)), hit]
        assert np.array_equal([walk.code for walk in walks], end[:, 0] * n + end[:, 1])
        in_test_byte += np.count_nonzero((want > 32 - skip) & (want <= 36 - skip))
    assert in_test_byte > 32 * 256  # the test bytes hit often


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_near_table_is_all_true_while_fewer_cells_are_off_than_a_ball_holds(n):
    # scan_group skips building near_table(on) while fewer than
    # lattice._ball_cells(n) cells are off on: the table is then all true.
    # Every such mask at n <= 4; at n = 5 and 6, every ball with one cell
    # put back on (the off sets that come closest to a whole ball) and 3000
    # random off sets of one cell short of a ball.  One whole ball off leaves
    # its centre off the table, so the threshold cannot be raised.
    ball = lattice._ball_cells(n)
    assert ball == {2: 4, 3: 9, 4: 11}.get(n, 13)
    cells = n * n
    span = range(-2, 3)
    balls = [
        sorted({(c // n + dx) % n * n + (c % n + dy) % n
                for dx in span for dy in span if abs(dx) + abs(dy) <= 2})
        for c in range(cells)
    ]
    assert all(len(b) == ball for b in balls)

    def near_of_off(off):
        on = np.ones(cells, dtype=bool)
        on[list(off)] = False
        return near_table(on.reshape(n, n))

    if n <= 4:
        offs = itertools.chain.from_iterable(
            itertools.combinations(range(cells), k) for k in range(ball)
        )
    else:
        rng = np.random.default_rng(n)
        offs = itertools.chain(
            ([x for x in b if x != d] for b in balls for d in b),
            (rng.choice(cells, ball - 1, replace=False) for _ in range(3000)),
        )
    assert all(near_of_off(off).all() for off in offs)
    for c, b in enumerate(balls):
        assert not near_of_off(b)[c]
