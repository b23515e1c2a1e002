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
(``advance_to_mask``, ``cover_time``), and every callback has the group
signature.  A walk's blocks double from ``_FIRST_BLOCK`` = 1 024 to
``_MAX_BLOCK`` = 32 768 moves, and a round packs walks, in turn, up to
``_MAX_ROUND`` = 65 536 moves.

A round is decoded in two passes.  The coarse pass is a running sum over
bytes, four moves each, and gives the cell at every byte's end.  The fine
pass expands to per-move cells only the bytes that start or end on the
scan's ``near`` table, plus each walk's first word.  A byte's four positions
lie within L1 distance ``_REACH`` = 2 of its start or its end, so ``near``,
every cell within 2 of a cell of the callback's ``on`` table
(``near_table``), makes the round see every step onto ``on``.  The scan
builds ``near`` itself, and no other code decodes moves.

Moves are read straight from the raw 64-bit Philox words, 32 to a word
(stream format 3): move k is the bit pair 2(k mod 32), 2(k mod 32) + 1 of
raw word k // 32, so byte j of a word, read little-endian, holds its moves
4j to 4j + 3, the low pair first.  Philox4x64-10 makes the words four to a
block, in lane order, and increments its counter before each block, so
format 3 is one formula: move k is bit pair 2(k mod 32) of lane
(k // 32) mod 4 of block (k // 128) + 1, the block at that counter under
the key ``(seed, stream)``.  ``tests/philox_reference.py`` writes the
generator out in pure Python.  Every block drawn from a stream is a
multiple of 32 moves, so no word is split between blocks.  Raw words are
the engine's only form of moves: a walk keeps the words it has not
finished and how many moves of the first it took, and its next round
decodes them again; no decoded block outlives its round.  ``step`` takes
one move from the kept words by the formula, as a per-step reference.

The walk is not lazy: its period-2 parity is harmless for hitting and cover
times, which only ask when a set is first entered.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import mmap
from collections import deque
from dataclasses import dataclass

import numpy as np

# Both multiples of 32, so every block uses whole raw words.
_FIRST_BLOCK = 1 << 10
_MAX_BLOCK = 1 << 15
# The most moves one scan round decodes, over all its walks.
_MAX_ROUND = 1 << 16

# Block decoding packs a position into one int64, x << _Y_BITS | y, each
# coordinate offset by _MAX_BLOCK so that it stays in [0, 2^_Y_BITS) over a
# walk's part of a round, and one running sum of packed displacements moves
# both.
_Y_BITS = 20
_Y_MASK = (1 << _Y_BITS) - 1
# Move encoding: 0 = +x, 1 = -x, 2 = +y, 3 = -y.
_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))
_STEP = np.array([1 << _Y_BITS, -(1 << _Y_BITS), 1, -1], dtype=np.int64)
# The packed steps of the four moves each byte value holds, read from its
# bit pairs, low pair first; _BYTE_SUM[v] is their packed displacement, and
# _BYTE_FROM_END[v, j] is where move j leaves the walk relative to where the
# byte's fourth move leaves it.
_BYTE_STEPS = _STEP[np.arange(256)[:, None] >> np.arange(0, 8, 2) & 3]
_BYTE_SUM = _BYTE_STEPS.sum(axis=1)
_BYTE_FROM_END = _BYTE_STEPS.cumsum(axis=1) - _BYTE_SUM[:, None]
# Moves 0 and 1 of a byte end within L1 distance 2 of where the byte starts,
# moves 2 and 3 within 1 of where it ends: every cell a byte visits is within
# _REACH of one of the two.
_REACH = 2
_PAD = 3  # the farthest a move of a byte lies from its end, in x or in y
# _BYTE_FROM_END in x and in y (each unpacked from [-_PAD, _PAD]), and as
# Python (dx, dy) pairs for one move at a time
_BYTE_FROM_END_X = ((_BYTE_FROM_END + (_PAD << _Y_BITS) + _PAD) >> _Y_BITS) - _PAD
_BYTE_FROM_END_Y = ((_BYTE_FROM_END + _PAD) & _Y_MASK) - _PAD
_FROM_END_XY = [
    list(zip(xs, ys)) for xs, ys in zip(_BYTE_FROM_END_X.tolist(), _BYTE_FROM_END_Y.tolist())
]
_QUADS = np.tile(np.arange(4, dtype=np.int8), _MAX_ROUND // 4)  # each move's place in its byte


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
        return tuple(self.shifted(dx, dy) for dx, dy in _MOVES)


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


def near_table(mask: np.ndarray) -> np.ndarray:
    """Flat boolean table of the cells within L1 distance ``_REACH`` of a
    cell of the (n, n) ``mask``, on the torus: the ``near`` table of a scan
    callback that reacts to the cells of ``mask``.

    The mask is padded by ``_REACH`` on every side, so that each shift is
    one slice of the flattened padding: ``band`` widens it by k along y, and
    the rows at x-distance ``_REACH - k`` take that band.
    """
    n = mask.shape[0]
    w = n + 2 * _REACH
    wrap = np.arange(-_REACH, n + _REACH) % n
    rows = mask.take(wrap, axis=0)
    pad = np.concatenate(
        (rows[:, wrap[:_REACH]], rows, rows[:, wrap[n + _REACH :]]), axis=1
    ).reshape(-1)
    lo, hi = _REACH * w, (_REACH + n) * w  # the padded rows of the torus
    band = pad.copy()
    out = pad[lo - _REACH * w : hi - _REACH * w] | pad[lo + _REACH * w : hi + _REACH * w]
    for k in range(1, _REACH + 1):
        band[k:-k] |= pad[: -2 * k]
        band[k:-k] |= pad[2 * k :]
        dx = (_REACH - k) * w
        out |= band[lo - dx : hi - dx]
        out |= band[lo + dx : hi + dx]
    return out.reshape(n, w)[:, _REACH : _REACH + n].reshape(-1)


@functools.lru_cache(maxsize=None)
def _ball_cells(n: int) -> int:
    """Cells of the L1 ball of radius ``_REACH`` on the n-torus: 4, 9, 11
    and 13 for n = 2, 3, 4 and >= 5.  While fewer cells than this are off
    ``on``, none of them is a whole ball, so ``near_table(on)`` is all true.
    """
    span = range(-_REACH, _REACH + 1)
    return len({(dx % n, dy % n) for dx in span for dy in span if abs(dx) + abs(dy) <= _REACH})


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
_NO_WORDS = np.empty(0, dtype=np.uint64)


class WalkState:
    """A simple random walk on the torus with a deterministic move stream.

    The stream of moves is a pure function of ``(seed, stream)``, independent
    of how operations slice it, so any sequence of operations on equal-seed
    walks reproduces bit-for-bit.
    Experiments pass a ``stream_key`` as ``seed`` and the trial index as
    ``stream``.
    A WalkState is confined to one worker at a time and never shared.

    The k-th move is the bit pair 2(k mod 32), 2(k mod 32) + 1 of raw word
    k // 32 of ``philox_stream(seed, stream).bit_generator.random_raw()``
    (stream format 3, see the module docstring); every block drawn is a
    multiple of 32 moves.
    Between operations a walk holds only the raw words it has not finished,
    a view of the block they came from, and ``_skip``, the number of moves
    of the first of them already taken (0 to 31).  Only inside a scan round
    does it hold a decoded block: the cell at each byte's end, ``_ends``,
    and the cells the round expanded for its steps, ``_codes``; ``consume``
    drops them.
    Positions are int32 flat codes ``x * n + y``; index tables with them
    through ``take``, which numpy runs about twice as fast as ``table[codes]``
    for int32 indices.
    """

    def __init__(self, start: TorusPoint, seed: int = 0, stream: int = 0):
        if start.n * start.n > _INT32_MAX:
            raise ValueError(f"torus side {start.n} is too large for int32 cell codes")
        self.n = start.n
        self._px = start.x
        self._py = start.y
        self.steps = 0
        self._next_block = _FIRST_BLOCK
        self._bits = philox_stream(seed, stream).bit_generator
        self._words = _NO_WORDS  # the raw words not yet finished
        self._skip = 0
        self._ends = self._codes = _NO_CODES  # the decoded block's, within a round

    @property
    def position(self) -> TorusPoint:
        return TorusPoint(self._px, self._py, self.n)

    @property
    def code(self) -> int:
        return self._px * self.n + self._py

    # -- block machinery ---------------------------------------------------

    def _ahead(self) -> int:
        """Moves the walk's next scan round decodes: its kept words, skipped
        head included, or the size of the block it draws next."""
        return 32 * self._words.size or self._next_block

    def _draw(self) -> np.ndarray:
        """The walk's next raw words: those it kept, else its next block."""
        if not self._words.size:
            size = self._next_block
            self._next_block = min(size * 2, _MAX_BLOCK)
            self._words = self._bits.random_raw(size // 32)
        return self._words

    def peek_block(self) -> np.ndarray:
        """Flat position codes of the walk's steps in the current scan round
        that the round expanded, within its cap; empty between rounds."""
        return self._codes

    def consume(self, k: int):
        """Take the next ``k`` moves of the round's block and drop the block,
        keeping the words not yet finished and the moves of the first one
        taken: the walk stands at the end of the byte of its last move, plus
        that move's ``_BYTE_FROM_END``."""
        if k > 0:
            j = self._skip + k - 1
            x, y = divmod(int(self._ends[j >> 2]), self.n)
            byte = int(self._words[j >> 5]) >> 2 * (j & 28) & 255  # the byte of move j
            dx, dy = _FROM_END_XY[byte][j & 3]
            self._px = (x + dx) % self.n
            self._py = (y + dy) % self.n
            self.steps += k
            word, self._skip = divmod(j + 1, 32)
            self._words = self._words[word:]
        self._ends = self._codes = _NO_CODES


def _bytes(raw: np.ndarray) -> np.ndarray:
    """The bytes of raw Philox words in little-endian order: byte j of word
    i holds moves 32 i + 4 j to 32 i + 4 j + 3."""
    return raw.astype("<u8", copy=False).view(np.uint8)


def _scratch(size: int, dtype) -> np.ndarray:
    """An array of its own anonymous memory map: its pages join the process
    only once written, and it takes no room in the heap, where a buffer of
    this size moved the peak resident memory of runs that never fill it.
    The map is private, so a forked worker writes its own copy; a shared
    one, ``mmap``'s default, would be one buffer for every worker."""
    buf = mmap.mmap(-1, size * np.dtype(dtype).itemsize, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=dtype)


# Scratch space of _decode, which a round of _MAX_ROUND moves fills.  Fresh
# arrays of this size come from the operating system on every call, and their
# page faults cost more than the arithmetic.  No decode result points into
# them; decodes in one process must not run concurrently (trials run in
# worker processes, not threads).
_COORDS = _scratch(_MAX_ROUND // 4, np.intp)
_PACKED = _scratch(_MAX_ROUND, np.int64)
_BYTE_ENDS = _scratch(_MAX_ROUND // 4, np.int64)


def _decode(walks, near: np.ndarray):
    """Draw the next words of every walk in ``walks`` and decode them all in
    one set of numpy calls, in two passes.  Returns ``(codes, at, bounds)``:
    ``codes[bounds[i]:bounds[i + 1]]`` are the cells walk i's part expanded,
    in order, and ``at`` holds each one's step index, counted from the
    walk's first step after ``_skip``.  Gives each walk the cells at its
    byte ends, ``_ends``.

    The coarse pass is a running sum over bytes, four moves each:
    ``_BYTE_SUM`` gives where each byte's fourth move leaves the walk.  The
    first byte of each part is offset by the walk's packed start, less the
    moves of its first ``_skip`` already taken, minus where the part before
    it ends, so one running sum gives every walk's byte ends, and two table
    reads their cells.  The fine pass places the moves of each part's first
    word and of every byte that starts or ends on ``near``: each byte's end,
    in the padded torus of ``_tables``, plus ``_BYTE_FROM_END``.  The
    skipped head lies in the first word, so its codes are the first
    ``_skip`` of the part's, at negative steps.
    """
    parts = [w._draw() for w in walks]
    raw = parts[0] if len(parts) == 1 else np.concatenate(parts)
    moves = _bytes(raw)
    ends = _BYTE_SUM.take(moves, out=_BYTE_ENDS[: moves.size], mode="clip")
    byte_bounds = np.array([0, *itertools.accumulate(8 * p.size for p in parts)])
    first_byte = byte_bounds[:-1]
    start = np.array(
        [(w._px + _MAX_BLOCK) << _Y_BITS | (w._py + _MAX_BLOCK) for w in walks], dtype=np.int64
    )
    skips = np.array([w._skip for w in walks])
    skipped = any(w._skip for w in walks)
    if skipped:
        start -= _head(moves.reshape(-1, 8).take(first_byte // 8, axis=0), skips)
    if len(walks) > 1:
        stops = start + np.add.reduceat(ends, first_byte)
        start[1:] -= stops[:-1]
        ends[first_byte] += start
    else:
        ends[:1] += start
    np.add.accumulate(ends, out=ends)
    row, wrap, padded, unpad, offset = _tables(walks[0].n)
    coord = _COORDS[: ends.size]
    np.right_shift(ends, _Y_BITS, out=coord, casting="unsafe")
    end_cells = row.take(coord, mode="clip")
    np.bitwise_and(ends, _Y_MASK, out=coord, casting="unsafe")
    end_cells += wrap.take(coord, mode="clip")
    # a byte starts where the one before it ends; a part's first byte is in
    # its first word, which is always expanded
    flag = near.take(end_cells)
    flag[1:] |= flag[:-1]  # numpy reads the overlapping operand as it was
    flag.reshape(-1, 8)[first_byte // 8] = True
    idx = flag.nonzero()[0]
    fine = _PACKED[: 4 * idx.size]
    offset.take(moves.take(idx), axis=0, out=fine.reshape(-1, 4), mode="clip")
    fine += padded.take(end_cells.take(idx)).repeat(4)
    codes = unpad.take(fine, mode="clip")
    # a step's index among its walk's: its move's in the round, less that of
    # the walk's first step, the move after its skipped head
    edges = idx.searchsorted(byte_bounds)
    own = 4 * first_byte + skips
    if len(walks) > 1:
        own = np.repeat(own, edges[1:] - edges[:-1])
    at = (4 * idx - own).astype(np.int32).repeat(4)
    at += _QUADS[: at.size]
    cut = byte_bounds.tolist()
    for w, lo, hi in zip(walks, cut, cut[1:]):
        w._ends = end_cells[lo:hi]
    return codes, at, 4 * edges


def _head(first, skips) -> np.ndarray:
    """Packed displacement of the first ``skips[i]`` moves (0 to 31) of the
    word whose eight bytes are row i of ``first``: the whole bytes from
    ``_BYTE_SUM``, the last one's part from ``_BYTE_FROM_END``."""
    last = skips - 1
    rows = np.arange(skips.size)
    byte, move = last >> 2, last & 3
    whole = _BYTE_SUM.take(first).cumsum(axis=1)[rows, byte]
    head = whole + _BYTE_FROM_END[first[rows, byte], move]
    head[skips == 0] = 0
    return head


@functools.lru_cache(maxsize=4)
def _tables(n: int) -> tuple[np.ndarray, ...]:
    """The decode's read-only tables for side n: ``(row, wrap, padded,
    unpad, offset)``.

    ``wrap`` is c mod n for a coordinate c offset by ``_MAX_BLOCK``, in
    uint16, and ``row`` is n (c mod n), the code of the first cell of row c,
    in int32, so that a cell is one read in each.  A walk's part of a round
    spans at most ``_MAX_BLOCK`` moves, skipped head included, so it stays
    within ``_MAX_BLOCK`` cells of where the walk stands and the tables cover
    every coordinate a round reaches; a table read is far faster than
    numpy's remainder.

    The fine pass works on the torus padded by ``_PAD`` cells on every side,
    as far as a byte's moves lie from its end in each coordinate, so that no
    move wraps: ``padded`` is the padded code of each cell, ``unpad`` the
    cell of each padded code, and ``offset`` is ``_BYTE_FROM_END`` as
    padded-code offsets.
    """
    c = np.arange(n + 2 * _MAX_BLOCK, dtype=np.int32) - _MAX_BLOCK
    c %= n
    row, wrap = c * n, c.astype(np.uint16)
    w = n + 2 * _PAD
    inner = np.arange(n) + _PAD
    padded = (inner[:, None] * w + inner).reshape(-1)
    c = (np.arange(w) - _PAD) % n
    unpad = (c[:, None] * n + c).reshape(-1).astype(np.int32)
    offset = _BYTE_FROM_END_X * w + _BYTE_FROM_END_Y
    tables = (row, wrap, padded, unpad, offset)
    for table in tables:
        table.flags.writeable = False
    return tables


def step(walk: WalkState) -> WalkState:
    """Advance one uniform nearest-neighbor move; returns the same state.

    The move is bit pair ``_skip`` of the walk's next raw word, read by the
    format 3 formula: a per-step reference that shares no code with the
    scan's decode.
    """
    words = walk._draw()
    j = walk._skip
    dx, dy = _MOVES[words.item(0) >> 2 * j & 3]
    walk._px = (walk._px + dx) % walk.n
    walk._py = (walk._py + dy) % walk.n
    walk.steps += 1
    if j == 31:
        walk._words, walk._skip = words[1:], 0
    else:
        walk._skip = j + 1
    return walk


def scan_group(walks, caps, on: np.ndarray, stop, what) -> list:
    """Run a group of walks in lockstep until ``stop`` ends each of them.

    Returns, per walk, the steps this call took, or the BudgetExceededError
    of a walk that reached its cap, worded "<what(i)> within <cap> steps".

    Each round takes queued walks, in turn, while their next moves number
    at most ``_MAX_ROUND`` together (64 walks on 1024-move blocks down to
    two on 32 768), decodes them in one set of numpy calls, and calls
    ``stop(codes, at, bounds, rows, taken)`` once.  Walk ``rows[i]`` takes
    its next steps, at most its cap minus the ``taken[i]`` steps it has
    taken in this call.  ``codes[bounds[i]:bounds[i + 1]]`` are the cells of
    those of its steps that the round expanded, in order, and ``at`` holds
    the index of each among the walk's steps of the round.  ``stop``
    returns, per row, the ``at`` of the step that ends the walk, or -1 to
    take them all.  Each walk then consumes its steps and drops the
    round's decode, keeping the rest of its words.

    ``on`` is the flat boolean table of the cells ``stop`` reacts to; it
    may clear cells of it, never set them.  The scan expands each byte
    that starts or ends on ``near_table(on)``, and each walk's first word,
    so every step onto ``on`` is among the codes; ``stop`` must ignore the
    other codes.  A table made before ``stop`` cleared cells still holds
    every cell it needs, so the scan makes it again only once ``on`` has
    lost more than half the cells it was made from.  While fewer cells are
    off ``on`` than an L1 ball of radius 2 holds, the table is all true
    and is not built.
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
    n = math.isqrt(on.size)
    near_of = math.inf  # the cells of on that near was made from
    while queue:
        left = np.count_nonzero(on)
        if 2 * left < near_of:
            if on.size - left < _ball_cells(n):
                near = np.ones(on.size, dtype=bool)
            else:
                near = near_table(on.reshape(n, n))
            near_of = left
        rows, width = [], 0
        while queue:
            ahead = walks[queue[0]]._ahead()
            if rows and width + ahead > _MAX_ROUND:
                break
            rows.append(queue.popleft())
            width += ahead
        group = [walks[i] for i in rows]
        codes, at, bounds = _decode(group, near)
        # one cut per walk: its skipped head leads its part (its first word
        # is expanded in full), and a walk that reaches its cap in this round
        # is shown only the steps within it
        parts = list(itertools.pairwise(bounds.tolist()))
        spans, sizes = [], []
        for i, w, (a, b) in zip(rows, group, parts):
            full = 32 * w._words.size - w._skip
            size = min(full, caps[i] - taken[i])
            a += w._skip
            if size < full:
                b = a + int(at[a:b].searchsorted(np.int32(size)))
            w._codes = codes[a:b]
            spans.append((a, b))
            sizes.append(size)
        segs = [w.peek_block() for w in group]  # every part is handed out through it
        if spans != parts:
            codes = np.concatenate(segs)
            at = np.concatenate([at[a:b] for a, b in spans])
            bounds = np.array([0, *itertools.accumulate(map(len, segs))])
        ends = stop(codes, at, bounds, np.array(rows), np.array([taken[i] for i in rows]))
        for i, size, end in zip(rows, sizes, ends.tolist()):
            walks[i].consume(size if end < 0 else end + 1)
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


def advance_group_to_mask(walks, mask: np.ndarray, caps, inclusive: bool = True) -> list:
    """Run every walk until it sits on ``mask``; returns, per walk, the steps
    it took or its BudgetExceededError.

    ``inclusive`` counts an initial position already on the mask as an
    immediate hit (the i >= 0 convention of the hitting time).
    """
    flat = mask.reshape(-1)

    def first_hit(codes, at, bounds, rows, taken):
        hits = flat.take(codes).nonzero()[0]
        row = bounds[1:].searchsorted(hits, side="right")
        first = np.ones(row.size, dtype=bool)
        np.not_equal(row[1:], row[:-1], out=first[1:])
        ends = np.full(rows.size, -1)
        ends[row[first]] = at.take(hits[first])
        return ends

    out = [0 if inclusive and flat[w.code] else None for w in walks]
    todo = [i for i, o in enumerate(out) if o is None]
    ran = scan_group(
        [walks[i] for i in todo], [caps[i] for i in todo], flat, first_hit, lambda i: "no hit"
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
    """Steps this call takes until every torus vertex has been visited.

    Unvisited cells are tracked in a flat boolean table, the scan's ``on``,
    and counted after each round that visits a new one; only the round that
    covers the torus is sorted, to find the step that reached its last new
    cell.
    """
    n = walk.n
    if cap is None:
        cap = default_cover_budget(n)
    if cap <= 0:
        raise ValueError("cap must be positive")
    unseen = np.ones(n * n, dtype=bool)
    unseen[walk.code] = False
    remaining = n * n - 1
    if remaining == 0:
        return 0

    def last_new_cell(codes, at, bounds, rows, taken):
        nonlocal remaining
        idx = np.flatnonzero(unseen.take(codes))
        if idx.size == 0:
            return np.array([-1])
        new = codes[idx]
        unseen[new] = False
        remaining = np.count_nonzero(unseen)
        if remaining:
            return np.array([-1])
        _, first = np.unique(new, return_index=True)
        return np.array([at[idx[first].max()]])

    ran = scan_group(
        [walk], [cap], unseen, last_new_cell,
        lambda i: f"torus not covered ({remaining} cells left)",
    )
    return outcome_or_raise(ran[0])
