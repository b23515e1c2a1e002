"""Torus geometry and the simple-random-walk engine.

Positions live on the two-dimensional discrete torus of side ``n`` with the
wrapped Euclidean metric.  The walk engine generates moves in blocks from a
counter-based Philox stream so that trials keyed by ``(seed, stream)`` are
reproducible and order-independent, while per-step work stays vectorised.
Every operation that runs walks until an event (a mask hit, the cover of
the torus, the end of an R/D ladder) is a ``stop`` callback of the one block
loop, ``scan_group``, which advances a group of walks in lockstep: each
round decodes the new blocks of several walks in one set of numpy calls and
hands the callback all of them at once, so that short walks do not each pay
a block's worth of numpy calls.  A single walk is the group of one
(``scan``, ``advance_to_mask``, ``cover_time``).

Moves are read straight from the raw 64-bit Philox words, and the stream
format is unchanged: each move is the one ``Generator.integers(0, 4)``
would give.  Numpy draws a bounded integer with Lemire's multiply-shift
(Lemire, "Fast random integer generation in an interval", ACM TOMACS 2019)
on one 32-bit half of a word, the low half first.  For a range of 4 the
rejection threshold (2^32 - 4) mod 4 is 0, so nothing is ever rejected and
the move is ``u32 * 4 >> 32``, the top two bits of the half.  Every block
drawn from a stream has an even size, so no half-word is left buffered
between blocks.

The walk is not lazy: its period-2 parity is harmless for hitting and cover
times, which only ask when a set is first entered.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

# Both even, so every block uses whole raw words.
_FIRST_BLOCK = 1 << 10
_MAX_BLOCK = 1 << 15

# Block decoding packs a position into one int64, x << _Y_BITS | y, each
# coordinate offset by _MAX_BLOCK so that it stays in [0, 2^_Y_BITS) over a
# block, and one running sum of the packed steps moves both.
_Y_BITS = 20
_Y_MASK = (1 << _Y_BITS) - 1
# Move encoding: 0 = +x, 1 = -x, 2 = +y, 3 = -y.
_STEP = np.array([1 << _Y_BITS, -(1 << _Y_BITS), 1, -1], dtype=np.int64)


class BudgetExceededError(RuntimeError):
    """Raised when a walk operation exhausts its step budget."""

    def __init__(self, message: str, steps_taken: int):
        super().__init__(message)
        self.steps_taken = steps_taken


@dataclass(frozen=True)
class TorusPoint:
    """A point of the discrete torus; coordinates are reduced mod n."""

    x: int
    y: int
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("torus side must be positive")
        object.__setattr__(self, "x", int(self.x) % self.n)
        object.__setattr__(self, "y", int(self.y) % self.n)

    @property
    def code(self) -> int:
        """Flat cell index x * n + y."""
        return self.x * self.n + self.y

    def shifted(self, dx: int, dy: int) -> "TorusPoint":
        return TorusPoint(self.x + dx, self.y + dy, self.n)

    def neighbors(self) -> tuple["TorusPoint", ...]:
        return tuple(self.shifted(dx, dy) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)))


@dataclass(frozen=True)
class BallSpec:
    """Open ball B(center, radius) = {y : d(center, y) < radius}, radius real."""

    center: TorusPoint
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not self.radius < self.center.n / 2:
            raise ValueError("radius must be < n/2 so the ball does not wrap into itself")

    def mask(self) -> np.ndarray:
        return ball_mask(self.center, self.radius)


def torus_distance(a: TorusPoint, b: TorusPoint) -> float:
    """Euclidean length of the minimal wrapped displacement between a and b."""
    if a.n != b.n:
        raise ValueError(f"mismatched torus sides: {a.n} != {b.n}")
    dx = abs(a.x - b.x)
    dy = abs(a.y - b.y)
    dx = min(dx, a.n - dx)
    dy = min(dy, a.n - dy)
    return math.hypot(dx, dy)


def wrapped_dist2_grid(center: TorusPoint) -> np.ndarray:
    """Integer squared wrapped distance from ``center`` to every cell, shape (n, n)."""
    n = center.n
    i = np.arange(n, dtype=np.int64)
    dx = np.abs(i - center.x)
    dx = np.minimum(dx, n - dx)
    dy = np.abs(i - center.y)
    dy = np.minimum(dy, n - dy)
    return dx[:, None] ** 2 + dy[None, :] ** 2


def ball_mask(center: TorusPoint, radius: float) -> np.ndarray:
    """Boolean (n, n) membership mask of B(center, radius), strict inequality."""
    return wrapped_dist2_grid(center) < float(radius) ** 2


def exterior_boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Cells outside ``mask`` with a lattice neighbor inside it."""
    near = (
        np.roll(mask, 1, axis=0)
        | np.roll(mask, -1, axis=0)
        | np.roll(mask, 1, axis=1)
        | np.roll(mask, -1, axis=1)
    )
    return near & ~mask


def points_to_mask(points, n: int) -> np.ndarray:
    mask = np.zeros((n, n), dtype=bool)
    for p in points:
        if p.n != n:
            raise ValueError("point does not live on this torus")
        mask[p.x, p.y] = True
    return mask


def mask_to_points(mask: np.ndarray) -> frozenset:
    n = mask.shape[0]
    xs, ys = np.nonzero(mask)
    return frozenset(TorusPoint(int(x), int(y), n) for x, y in zip(xs, ys))


def boundary(points) -> frozenset:
    """Exterior lattice boundary of a point set; a singleton is its own boundary."""
    pts = frozenset(points)
    if not pts:
        raise ValueError("boundary of the empty set is undefined")
    if len(pts) == 1:
        return pts
    out = set()
    for p in pts:
        for q in p.neighbors():
            if q not in pts:
                out.add(q)
    if not out:
        raise ValueError("set has no exterior: it covers the whole torus")
    return frozenset(out)


def stream_key(seed: int, experiment: str, section: str) -> int:
    """Philox key word of one named section of an experiment: the first 8
    bytes, little-endian, of BLAKE2b over ``repr((seed, experiment, section))``.
    Python's ``hash`` is not used: it is salted per process for strings."""
    text = repr((int(seed), experiment, section)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little")


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """The counter-based generator keyed by ``(seed, stream)``, each taken mod 2^64."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_INT32_MAX = int(np.iinfo(np.int32).max)
_NO_CODES = np.empty(0, dtype=np.int32)
_NO_MOVES = np.empty(0, dtype=np.uint8)


class WalkState:
    """A simple random walk on the torus with a deterministic move stream.

    The stream of moves is a pure function of ``(seed, stream)`` (or of the
    ``forced_moves`` array), independent of how operations slice it, so any
    sequence of operations on equal-seed walks reproduces bit-for-bit.
    Experiments pass a ``stream_key`` as ``seed`` and the trial index as
    ``stream``.
    A WalkState is confined to one worker at a time and never shared.

    The k-th move equals the k-th draw of
    ``philox_stream(seed, stream).integers(0, 4, dtype=np.int64)``: it is
    read as the top two bits of a 32-bit half of a raw Philox word, low half
    first (see the module docstring), and every block drawn has an even size.
    Positions are int32 flat codes ``x * n + y``; index tables with them
    through ``take``, which numpy runs about twice as fast as ``table[codes]``
    for int32 indices.
    """

    def __init__(
        self,
        start: TorusPoint,
        seed: int = 0,
        stream: int = 0,
        forced_moves=None,
    ):
        if start.n * start.n > _INT32_MAX:
            raise ValueError(f"torus side {start.n} is too large for int32 cell codes")
        self.n = start.n
        self._px = start.x
        self._py = start.y
        self.steps = 0
        self._next_block = _FIRST_BLOCK
        if forced_moves is not None:
            self._forced = np.asarray(forced_moves, dtype=np.intp)
            self._forced_used = 0
        else:
            self._forced = None
            self._bits = philox_stream(seed, stream).bit_generator
        self._codes = _NO_CODES
        self._drawn = _NO_MOVES  # what _draw gave for _codes
        self._cursor = 0
        self._kept = _NO_MOVES  # moves to take before the next block

    @property
    def position(self) -> TorusPoint:
        return TorusPoint(self._px, self._py, self.n)

    @property
    def code(self) -> int:
        return self._px * self.n + self._py

    # -- block machinery ---------------------------------------------------

    def _ahead(self) -> int:
        """Moves the walk's next scan round holds: the rest of its current
        block, the moves it kept, or the size of the block it draws next."""
        rest = self._codes.size - self._cursor or self._kept.size
        if rest or self._forced is None:
            return rest or self._next_block
        return min(self._next_block, self._forced.size - self._forced_used)

    def _draw(self) -> np.ndarray:
        """The walk's next moves: those it kept, else its next block, as raw
        Philox words or a forced walk's moves."""
        if self._kept.size:
            moves, self._kept = self._kept, _NO_MOVES
            return moves
        size = self._next_block
        self._next_block = min(size * 2, _MAX_BLOCK)
        if self._forced is not None:
            moves = self._forced[self._forced_used : self._forced_used + size]
            if moves.size == 0:
                raise RuntimeError("forced move stream exhausted")
            self._forced_used += moves.size
            return moves
        return self._bits.random_raw(size // 2)

    def peek_block(self) -> np.ndarray:
        """Flat position codes for the not-yet-consumed part of the current block."""
        if self._cursor >= self._codes.size:
            _decode([self])
        return self._codes[self._cursor :]

    def consume(self, k: int):
        """Advance the walk through the next ``k`` moves of the current block."""
        if k <= 0:
            return
        j = self._cursor + k - 1
        code = int(self._codes[j])
        self._px, self._py = divmod(code, self.n)
        self.steps += k
        self._cursor = j + 1

    def _keep_rest(self):
        """Drop the current block, keeping the moves not yet consumed, one
        byte each, to decode before the next block.  A walk between scan
        rounds so holds no round's arrays alive."""
        if self._cursor < self._codes.size:
            self._kept = _moves_of(self._drawn)[self._cursor :].astype(np.uint8)
        self._codes = _NO_CODES
        self._drawn = _NO_MOVES
        self._cursor = 0


def _halves(raw: np.ndarray) -> np.ndarray:
    """The 32-bit halves of raw Philox words, low half first; a move is the
    top two bits of one."""
    return raw.astype("<u8", copy=False).view("<u4")


def _moves_of(drawn: np.ndarray) -> np.ndarray:
    """The moves of what ``WalkState._draw`` gave."""
    return (_halves(drawn) >> 30).astype(np.intp) if drawn.dtype == np.uint64 else drawn


# Scratch space of _decode, which a round of _MAX_BLOCK moves fills.  Fresh
# arrays of this size come from the operating system on every call, and their
# page faults cost more than the arithmetic.  No decode result points into
# them; decodes in one process must not run concurrently (trials run in
# worker processes, not threads).
_MOVES = np.empty(_MAX_BLOCK, dtype=np.intp)
_PACKED = np.empty(_MAX_BLOCK, dtype=np.int64)


def _decode(walks) -> np.ndarray:
    """Draw the next block of every walk in ``walks`` and decode them all in
    one set of numpy calls; returns their codes, concatenated in order, and
    hands each walk its own part.

    The moves become one array of packed steps.  The first step of each
    walk's part is offset by the walk's packed start minus where the part
    before it ends, so one running sum gives every walk's positions.
    """
    parts = [w._draw() for w in walks]
    if all(p.dtype == np.uint64 for p in parts):
        raw = parts[0] if len(parts) == 1 else np.concatenate(parts)
        moves = _MOVES[: 2 * raw.size]
        np.right_shift(_halves(raw), 30, out=moves, casting="unsafe")
        sizes = [2 * p.size for p in parts]
    else:
        each = [_moves_of(p) for p in parts]
        sizes = [m.size for m in each]
        moves = _MOVES[: sum(sizes)]
        np.concatenate(each, out=moves, casting="unsafe")
    n = walks[0].n
    wrap = _wrap_table(n)
    firsts = np.array([0, *itertools.accumulate(sizes[:-1])])
    start = np.array(
        [(w._px + _MAX_BLOCK) << _Y_BITS | (w._py + _MAX_BLOCK) for w in walks], dtype=np.int64
    )
    pos = _STEP.take(moves, out=_PACKED[: moves.size], mode="clip")
    if len(walks) > 1:
        ends = start + np.add.reduceat(pos, firsts)
        start[1:] -= ends[:-1]
    pos[firsts] += start
    np.cumsum(pos, out=pos)
    x = np.right_shift(pos, _Y_BITS, out=moves, casting="unsafe")
    codes = np.multiply(wrap.take(x, mode="clip"), n, dtype=np.int32)
    pos &= _Y_MASK
    codes += wrap.take(pos, mode="clip")
    for w, lo, size, part in zip(walks, firsts.tolist(), sizes, parts):
        w._codes = codes[lo : lo + size]
        w._drawn = part
        w._cursor = 0
    return codes


@functools.lru_cache(maxsize=4)
def _wrap_table(n: int) -> np.ndarray:
    """c mod n for a coordinate c offset by ``_MAX_BLOCK``.  A block moves a
    walk at most ``_MAX_BLOCK`` cells from where it started, so the table
    covers every coordinate a block reaches; a table read is far faster than
    numpy's remainder."""
    c = np.arange(n + 2 * _MAX_BLOCK, dtype=np.int32) - _MAX_BLOCK
    c %= n
    table = c.astype(np.uint16)
    table.flags.writeable = False
    return table


def step(walk: WalkState) -> WalkState:
    """Advance one uniform nearest-neighbor move; returns the same state."""
    walk.peek_block()
    walk.consume(1)
    return walk


def scan_group(walks, caps, stop, what) -> list:
    """Run a group of walks in lockstep until ``stop`` ends each of them.

    Returns, per walk, the steps this call took, or the BudgetExceededError
    of a walk that reached its cap, worded "<what(i)> within <cap> steps".

    Each round takes queued walks, in turn, while their next codes number at
    most ``_MAX_BLOCK`` together (32 walks on 1024-move blocks down to one on
    32 768), decodes the new blocks among them in one set of numpy calls, and
    calls ``stop(codes, bounds, rows, taken)`` once: walk ``rows[i]`` takes the
    steps ``codes[bounds[i]:bounds[i + 1]]`` next, at most its cap minus the
    ``taken[i]`` steps it has taken in this call.  ``stop`` returns, per row,
    the index in that row's codes of the step that ends the walk, or -1 to
    take them all.  A walk that ends inside a block keeps the rest of it for
    its next operation.
    """
    caps = [int(cap) for cap in caps]
    out: list = [None] * len(walks)
    taken = [0] * len(walks)
    queue = deque()
    for i, cap in enumerate(caps):
        if cap > 0:
            queue.append(i)
        else:
            out[i] = BudgetExceededError(f"{what(i)} within {cap} steps", steps_taken=0)
    while queue:
        rows, width = [], 0
        while queue:
            ahead = walks[queue[0]]._ahead()
            if rows and width + ahead > _MAX_BLOCK:
                break
            rows.append(queue.popleft())
            width += ahead
        fresh = [walks[i] for i in rows if walks[i]._cursor >= walks[i]._codes.size]
        decoded = _decode(fresh) if fresh else None
        segs = [walks[i].peek_block()[: caps[i] - taken[i]] for i in rows]
        sizes = [s.size for s in segs]
        bounds = np.array([0, *itertools.accumulate(sizes)])
        whole = len(fresh) == len(rows) and decoded.size == bounds[-1]
        codes = decoded if whole else np.concatenate(segs)
        ends = stop(codes, bounds, np.array(rows), np.array([taken[i] for i in rows]))
        for i, size, end in zip(rows, sizes, ends.tolist()):
            walk = walks[i]
            walk.consume(size if end < 0 else end + 1)
            walk._keep_rest()
            if end >= 0:
                out[i] = taken[i] + end + 1
                continue
            taken[i] += size
            if taken[i] < caps[i]:
                queue.append(i)
            else:
                out[i] = BudgetExceededError(
                    f"{what(i)} within {caps[i]} steps", steps_taken=taken[i]
                )
    return out


def outcome_or_raise(outcome):
    """One walk's outcome from a group run: its value, or its overrun raised."""
    if isinstance(outcome, BudgetExceededError):
        raise outcome
    return outcome


def scan(walk: WalkState, cap: int, stop, what) -> int:
    """Run ``walk`` alone until ``stop`` fires; returns steps taken.

    ``stop(codes, taken)`` sees the positions after each of the next steps,
    at most ``cap - taken`` of them, where ``taken`` counts the steps this
    call has already made.  It returns the index in ``codes`` of the step
    that ends the scan, or None to consume the whole block.  A scan that
    reaches ``cap`` steps raises BudgetExceededError, worded
    "<what()> within <cap> steps".  This is ``scan_group`` on a group of one.
    """

    def stop_one(codes, bounds, rows, taken):
        j = stop(codes, int(taken[0]))
        return np.array([-1 if j is None else j])

    return outcome_or_raise(scan_group([walk], [cap], stop_one, lambda i: what())[0])


def advance_group_to_mask(walks, mask: np.ndarray, caps, inclusive: bool = True) -> list:
    """Run every walk until it sits on ``mask``; returns, per walk, the steps
    it took or its BudgetExceededError.

    ``inclusive`` counts an initial position already on the mask as an
    immediate hit (the i >= 0 convention of the hitting time).
    """
    flat = mask.reshape(-1)

    def first_hit(codes, bounds, rows, taken):
        hits = flat.take(codes).nonzero()[0]
        row = bounds[1:].searchsorted(hits, side="right")
        first = np.ones(row.size, dtype=bool)
        np.not_equal(row[1:], row[:-1], out=first[1:])
        ends = np.full(rows.size, -1)
        ends[row[first]] = hits[first] - bounds[row[first]]
        return ends

    out = [0 if inclusive and flat[w.code] else None for w in walks]
    todo = [i for i, o in enumerate(out) if o is None]
    ran = scan_group(
        [walks[i] for i in todo], [caps[i] for i in todo], first_hit, lambda i: "no hit"
    )
    for i, o in zip(todo, ran):
        out[i] = o
    return out


def advance_to_mask(walk: WalkState, mask: np.ndarray, cap: int, inclusive: bool = True) -> int:
    """Run until the walk sits on ``mask``; returns steps taken by this call.
    ``advance_group_to_mask`` on a group of one."""
    return outcome_or_raise(advance_group_to_mask([walk], mask, [cap], inclusive)[0])


def hitting_time(walk: WalkState, target, cap: int) -> int:
    """Steps until first entry into ``target`` (0 if already inside)."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    if isinstance(target, np.ndarray):
        mask = target
    else:
        mask = points_to_mask(target, walk.n)
    if not mask.any():
        raise ValueError("target set is empty")
    return advance_to_mask(walk, mask, cap, inclusive=True)


def default_cover_budget(n: int) -> int:
    """50x the leading-order cover time scale (4/pi) n^2 (log n)^2."""
    if n <= 1:
        return 1
    return int(50 * (4 / math.pi) * n * n * math.log(n) ** 2)


def cover_time(walk: WalkState, cap: int | None = None) -> int:
    """First step index at which every torus vertex has been visited.

    Visited cells are tracked in a flat bitset and counted after each block
    that visits a new one; only the block that covers the torus is sorted,
    to find the step that reached its last new cell.
    """
    n = walk.n
    if cap is None:
        cap = default_cover_budget(n)
    if cap <= 0:
        raise ValueError("cap must be positive")
    visited = np.zeros(n * n, dtype=bool)
    visited[walk.code] = True
    remaining = n * n - 1
    if remaining == 0:
        return walk.steps

    def last_new_cell(codes, taken):
        nonlocal remaining
        idx = np.flatnonzero(~visited.take(codes))
        if idx.size == 0:
            return None
        new = codes[idx]
        visited[new] = True
        remaining = visited.size - np.count_nonzero(visited)
        if remaining:
            return None
        _, first = np.unique(new, return_index=True)
        return int(idx[first].max())

    scan(walk, cap, last_new_cell, lambda: f"torus not covered ({remaining} cells left)")
    return walk.steps
