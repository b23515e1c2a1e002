"""Torus geometry and the simple-random-walk engine.

Positions live on the two-dimensional discrete torus of side ``n`` with the
wrapped Euclidean metric.  The walk engine generates moves in blocks from a
counter-based Philox stream so that trials keyed by ``(seed, stream)`` are
reproducible and order-independent, while per-step work stays vectorised.
Every operation that runs a walk until an event (a mask hit, the cover of
the torus, the end of an R/D ladder) is a per-block ``stop`` callback of
the one block loop, ``scan``.

Moves are read straight from the raw 64-bit Philox words, and the stream
format is unchanged: each move is the one ``Generator.integers(0, 4)``
would give.  Numpy draws a bounded integer with Lemire's multiply-shift
(Lemire, "Fast random integer generation in an interval", ACM TOMACS 2019)
on one 32-bit half of a word, the low half first.  For a range of 4 the
rejection threshold (2^32 - 4) mod 4 is 0, so nothing is ever rejected and
the move is ``u32 * 4 >> 32``, the top two bits of the half.  Every block
has an even size, so no half-word is left buffered between blocks.

The walk is not lazy: its period-2 parity is harmless for hitting and cover
times, which only ask when a set is first entered.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

# Move encoding: 0 = +x, 1 = -x, 2 = +y, 3 = -y.
_DX = np.array([1, -1, 0, 0], dtype=np.int32)
_DY = np.array([0, 0, 1, -1], dtype=np.int32)

# Both even, so every block uses whole raw words.
_FIRST_BLOCK = 1 << 10
_MAX_BLOCK = 1 << 15


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
    first (see the module docstring), and blocks always have even sizes.
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
        if start.n * start.n > np.iinfo(np.int32).max:
            raise ValueError(f"torus side {start.n} is too large for int32 cell codes")
        self.n = start.n
        self._px = start.x
        self._py = start.y
        self.steps = 0
        self._next_block = _FIRST_BLOCK
        if forced_moves is not None:
            self._forced = np.asarray(forced_moves, dtype=np.int64)
            self._forced_used = 0
            self._rng = None
        else:
            self._forced = None
            self._rng = philox_stream(seed, stream)
        self._codes = np.empty(0, dtype=np.int32)
        self._cursor = 0

    @property
    def position(self) -> TorusPoint:
        return TorusPoint(self._px, self._py, self.n)

    @property
    def code(self) -> int:
        return self._px * self.n + self._py

    # -- block machinery ---------------------------------------------------

    def _refill(self):
        if self._forced is not None:
            moves = self._forced[self._forced_used :]
            if moves.size == 0:
                raise RuntimeError("forced move stream exhausted")
            self._forced_used += moves.size
        else:
            size = min(self._next_block, _MAX_BLOCK)
            self._next_block = min(self._next_block * 2, _MAX_BLOCK)
            raw = self._rng.bit_generator.random_raw(size // 2)
            moves = np.empty(size, dtype=np.intp)
            np.bitwise_and(raw >> 30, 3, out=moves[0::2], casting="unsafe")
            np.right_shift(raw, 62, out=moves[1::2], casting="unsafe")
        n = self.n
        cx = _DX[moves]
        cy = _DY[moves]
        tmp = np.empty_like(cx)
        for c, start in ((cx, self._px), (cy, self._py)):
            np.cumsum(c, out=c)
            c += start
            # c - (c // n) * n is c % n; numpy divides by a scalar far faster
            # than it takes a remainder
            np.floor_divide(c, n, out=tmp)
            tmp *= n
            c -= tmp
        cx *= n
        cx += cy
        self._codes = cx
        self._cursor = 0

    def peek_block(self) -> np.ndarray:
        """Flat position codes for the not-yet-consumed part of the current block."""
        if self._cursor >= self._codes.size:
            self._refill()
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


def step(walk: WalkState) -> WalkState:
    """Advance one uniform nearest-neighbor move; returns the same state."""
    walk.peek_block()
    walk.consume(1)
    return walk


def scan(walk: WalkState, cap: int, stop, what) -> int:
    """Run ``walk`` block by block until ``stop`` fires; returns steps taken.

    ``stop(codes, taken)`` sees the positions after each of the next steps,
    at most ``cap - taken`` of them, where ``taken`` counts the steps this
    call has already made.  It returns the index in ``codes`` of the step
    that ends the scan, or None to consume the whole block.  A scan that
    reaches ``cap`` steps raises BudgetExceededError, worded
    "<what()> within <cap> steps".
    """
    taken = 0
    while taken < cap:
        codes = walk.peek_block()[: int(cap - taken)]
        j = stop(codes, taken)
        if j is not None:
            walk.consume(j + 1)
            return taken + j + 1
        walk.consume(codes.size)
        taken += codes.size
    raise BudgetExceededError(f"{what()} within {cap} steps", steps_taken=taken)


def advance_to_mask(walk: WalkState, mask: np.ndarray, cap: int, inclusive: bool = True) -> int:
    """Run until the walk sits on ``mask``; returns steps taken by this call.

    ``inclusive`` counts an initial position already on the mask as an
    immediate hit (the i >= 0 convention of the hitting time).
    """
    flat = mask.reshape(-1)
    if inclusive and flat[walk.code]:
        return 0

    def first_hit(codes, taken):
        hits = np.flatnonzero(flat.take(codes))
        return int(hits[0]) if hits.size else None

    return scan(walk, cap, first_hit, lambda: "no hit")


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
