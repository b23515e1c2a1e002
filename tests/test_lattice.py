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
from coverlab import lattice
from coverlab.lattice import (
    _FIRST_BLOCK,
    _MAX_BLOCK,
    BallSpec,
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
    philox_stream,
    step,
    stream_key,
    torus_distance,
)


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


def test_ballspec_rejects_wrapping_radius():
    with pytest.raises(ValueError):
        BallSpec(TorusPoint(0, 0, 8), 4.0)


def test_forced_step_up():
    w = WalkState(TorusPoint(0, 0, 4), forced_moves=[2])
    step(w)
    assert w.position == TorusPoint(0, 1, 4)
    assert w.steps == 1


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


def _walk_codes(walk, total, slice_len):
    """The next ``total`` codes of ``walk``, consumed ``slice_len`` at a time."""
    out = []
    got = 0
    while got < total:
        codes = walk.peek_block()[: min(slice_len, total - got)]
        out.append(codes.copy())
        walk.consume(codes.size)
        got += codes.size
    return np.concatenate(out)


# stream_key(7, "cover", "n16"): BLAKE2b of "(7, 'cover', 'n16')", first 8 bytes little-endian
STREAM_KEY_7_COVER_N16 = 10725293465982372454


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


@pytest.mark.parametrize("n", [3, 50, 128])
def test_walk_stream_matches_generator_integers(n):
    # 300 000 moves cross the doubling first blocks and nine full-size ones;
    # odd slice lengths make consumption straddle every block boundary
    total = 300_000
    for seed, stream, slice_len in ((0, 0, 1 << 20), (7, 3, 9_999), (2**63 + 5, 2**40, 77_777)):
        x, y = seed % n, stream % n
        walk = WalkState(TorusPoint(x, y, n), seed=seed, stream=stream)
        got = _walk_codes(walk, total, slice_len)
        moves = philox_stream(seed, stream).integers(0, 4, size=total, dtype=np.int64)
        assert np.array_equal(got, _int64_codes(moves, n, x, y))
        assert walk.steps == total
        assert walk.code == got[-1]


def test_forced_moves_match_int64_formula():
    moves = np.random.default_rng(11).integers(0, 4, size=5_000)
    for n in (3, 50, 128):
        walk = WalkState(TorusPoint(1, n - 1, n), forced_moves=moves)
        got = _walk_codes(walk, moves.size, 333)
        assert np.array_equal(got, _int64_codes(moves, n, 1, n - 1))
        with pytest.raises(RuntimeError, match="exhausted"):
            step(walk)


def test_walk_rejects_a_side_beyond_int32_codes():
    WalkState(TorusPoint(0, 0, 46340), forced_moves=[0])
    with pytest.raises(ValueError, match="int32"):
        WalkState(TorusPoint(0, 0, 46341), forced_moves=[0])


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
def _walk_specs(draw, n):
    """One walk of a group: start, stream, cap, and forced moves or a Philox
    stream.  Small caps make some walks overrun while the others go on."""
    forced = draw(st.booleans())
    cap = draw(st.integers(1, 3000) if forced else st.one_of(st.just(10**6), st.integers(1, 3000)))
    return (
        draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, 2**40)),
        cap, forced,
    )


def _make_walks(specs, n, seed):
    """Fresh walks from specs; a forced walk's moves outlast its cap."""
    walks = []
    for x, y, stream, _, forced in specs:
        moves = np.random.default_rng(stream).integers(0, 4, 6000) if forced else None
        walks.append(WalkState(TorusPoint(x, y, n), seed=seed, stream=stream, forced_moves=moves))
    return walks


def _after(walk, forced):
    """Where a walk stands, and its next 40 codes: they must continue its
    stream whatever the operation before them stopped on."""
    if forced:
        return walk.steps, walk.code
    return walk.steps, walk.code, _walk_codes(walk, 40, 7).tolist()


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
    for walk, alone, cap, spec, out in zip(group, _make_walks(specs, n, seed), caps, specs, got):
        try:
            want = advance_to_mask(alone, mask, cap, inclusive)
        except BudgetExceededError as err:
            assert isinstance(out, BudgetExceededError)
            assert (str(out), out.steps_taken) == (str(err), err.steps_taken)
        else:
            assert out == want
        assert _after(walk, spec[4]) == _after(alone, spec[4])


def test_kept_moves_continue_the_stream():
    # a walk that stops inside a block keeps the rest; the codes after it are
    # the stream's own, however operations cut it
    n, seed = 24, 11
    mask = ball_mask(TorusPoint(0, 0, n), 3.0)
    walks = [WalkState(TorusPoint(12, 12, n), seed=seed, stream=t) for t in range(40)]
    used = advance_group_to_mask(walks, mask, [10**6] * len(walks))
    for t, walk in enumerate(walks):
        steps = walk.steps
        moves = philox_stream(seed, t).integers(0, 4, size=steps + 500, dtype=np.int64)
        want = _int64_codes(moves, n, 12, 12)
        assert used[t] == steps and mask.flat[want[steps - 1]]
        assert np.array_equal(_walk_codes(walk, 500, 33), want[steps:])


def test_no_scan_round_decodes_more_than_the_largest_block(monkeypatch):
    decoded = []
    real = lattice._decode

    def counting(walks):
        codes = real(walks)
        decoded.append((len(walks), codes.size))
        return codes

    monkeypatch.setattr(lattice, "_decode", counting)
    n = 128
    walks = [WalkState(TorusPoint(0, 0, n), seed=3, stream=t) for t in range(40)]
    far = ball_mask(TorusPoint(64, 64, n), 2.0)
    out = advance_group_to_mask(walks, far, [10**6] * len(walks))
    assert max(size for _, size in decoded) <= _MAX_BLOCK
    # the first rounds fill a whole block's worth with 32 first blocks each
    assert decoded[0] == (_MAX_BLOCK // _FIRST_BLOCK, _MAX_BLOCK)
    assert any(k == 1 and size == _MAX_BLOCK for k, size in decoded)  # long walks go alone
    assert all(not isinstance(o, BudgetExceededError) for o in out)
