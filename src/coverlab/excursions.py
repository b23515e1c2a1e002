"""Excursion clocks between concentric circles and traversal-count processes.

The stopping-time ladder alternates R-events (arrivals on an inner circle)
with D-events (returns to the outer circle).  All counting is a single
streaming pass over the walk: every circle is baked into a per-cell bitmask
label, and each block of the walk is read in numpy, one ladder at a time,
so no Python code runs per hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    TorusPoint,
    WalkState,
    advance_to_mask,
    ball_mask,
    exterior_boundary_mask,
    scan,
    torus_distance,
)

@dataclass(frozen=True)
class AnnulusSpec:
    """Concentric circle pair around ``center``: inner radius r, outer R."""

    center: TorusPoint
    r: float
    R: float

    def __post_init__(self):
        if not (0 < self.r < self.R):
            raise ValueError("need 0 < r < R for an annulus")
        if not self.R < self.center.n / 2:
            raise ValueError("outer radius must be < n/2")


@dataclass
class ExcursionClock:
    """Interleaved stopping times R_1 < D_1 < R_2 < D_2 < ... (relative steps)."""

    returns: list[int] = field(default_factory=list)
    departures: list[int] = field(default_factory=list)

    def validate(self):
        seq = []
        for r, d in zip(self.returns, self.departures):
            seq.extend((r, d))
        if len(self.returns) == len(self.departures) + 1:
            seq.append(self.returns[-1])
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise ValueError("clock times are not strictly interleaved")

    @property
    def pairs(self) -> int:
        return len(self.departures)


@dataclass
class TraversalRecord:
    """Traversal counts per level, produced by one streaming pass."""

    counts: dict[int, int]
    driving_level: int = 0
    m: int = 0
    intervals: dict[int, list[tuple[int, int]]] | None = None
    watch_time: int | None = None  # first hit of the watched set, if one was given

    def count(self, level: int) -> int:
        if level not in self.counts:
            raise ValueError(f"level {level} not covered by this record")
        return self.counts[level]


def validate_radii(radii, n: int | None = None, innermost_one: bool = True):
    """Schedule-build checks: strictly decreasing, unit gaps, innermost = 1."""
    radii = [float(r) for r in radii]
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    for a, b in zip(radii, radii[1:]):
        if not a > b:
            raise ValueError("radii must be strictly decreasing")
        if a - b < 1:
            raise ValueError(
                f"consecutive radii {a}, {b} differ by < 1: a unit step could cross both circles"
            )
    if innermost_one and radii[-1] != 1:
        raise ValueError("innermost radius must be 1")
    if n is not None and not radii[0] < n / 2:
        raise ValueError("outermost radius must be < n/2")
    return radii


@dataclass(frozen=True)
class _Ladder:
    level: int
    inner: int  # circle index: hits are R-events
    outer: int  # circle index: hits are D-events


class TraversalMachine:
    """Streams a walk through a family of circles, maintaining R/D ladders.

    ``circles`` are boolean cell masks; ladders reference them by index.  A
    cell may belong to several circles (inflated/deflated families), so the
    label is a bitmask.  State per ladder is one phase flag plus a counter.
    """

    def __init__(self, n: int, circles, ladders, driving: int):
        if len(circles) > 32:
            raise ValueError("at most 32 circles per machine")
        self.n = n
        self.ladders = list(ladders)
        self.driving = driving
        label = np.zeros(n * n, dtype=np.uint32)
        for idx, mask in enumerate(circles):
            if not mask.any():
                raise ValueError(f"circle {idx} is empty")
            label[mask.reshape(-1)] |= np.uint32(1 << idx)
        self._label = label
        for lad in self.ladders:
            if lad.inner == lad.outer:
                raise ValueError("ladder inner and outer circles must differ")
        self._bits = [
            (1 << lad.inner, 1 << lad.outer, lad.inner < lad.outer) for lad in self.ladders
        ]
        # the driving ladder first: its m-th departure cuts the others' block
        self._order = [driving] + [li for li in range(len(self.ladders)) if li != driving]

    def run(
        self,
        walk: WalkState,
        m: int,
        cap: int,
        collect_intervals: bool = False,
        watch: int | None = None,
    ):
        """Advance ``walk`` until the driving ladder completes m departures.

        ``watch`` names a circle index whose first hit time is recorded on the
        returned record (used for H_x bookkeeping in late-point detection).

        Each block is read in numpy, one ladder at a time.  A unit step
        cannot jump a circle, so a ladder only needs the hits on its own two
        circles, in order.  On each hit it is in the phase the previous hit
        left it in, and a hit's circles are handled in index order, each
        feeding the ladders it is the inner (R-event) and then the outer
        (D-event) circle of.  So where a cell lies on both of a ladder's
        circles, the one with the lower index acts first.  The driving ladder
        is read first; its m-th departure ends the block for every ladder.
        """
        nlad = len(self.ladders)
        waiting_d = [False] * nlad
        counts = [0] * nlad
        open_r = [0] * nlad
        intervals: list[list[tuple[int, int]]] = [[] for _ in range(nlad)]
        clock = ExcursionClock()
        watch_time: int | None = None

        def events(li, hv):
            """Ladder li's hits among the hit labels hv (as indices into hv),
            its phase after each, and which are R- and D-events."""
            inner, outer, inner_first = self._bits[li]
            sel = np.flatnonzero(hv & (inner | outer))
            v = hv[sel]
            on_in = (v & inner) != 0
            on_out = (v & outer) != 0
            # a hit leaves the ladder waiting for D iff its inner circle acted last
            after = on_in & ~on_out if inner_first else on_in
            before = np.empty_like(after)
            before[:1] = waiting_d[li]
            before[1:] = after[:-1]
            if inner_first:
                r_ev = on_in & ~before
                d_ev = on_out & (before | on_in)
            else:
                r_ev = on_in & (on_out | ~before)
                d_ev = on_out & before
            return sel, after, r_ev, d_ev

        def take(li, t, after, r_ev, d_ev):
            """Record ladder li's events at its hit times t."""
            if t.size == 0:
                return
            r_t = t[r_ev].tolist()
            d_t = t[d_ev].tolist()
            if li == self.driving:
                clock.returns.extend(r_t)
                clock.departures.extend(d_t)
            if collect_intervals:
                # R- and D-events alternate: each D closes the R before it
                starts = [open_r[li]] + r_t if waiting_d[li] else r_t
                intervals[li].extend(zip(starts, d_t))
            counts[li] += len(r_t)
            if r_t:
                open_r[li] = r_t[-1]
            waiting_d[li] = bool(after[-1])

        def last_departure(codes, taken):
            nonlocal watch_time
            lab = self._label.take(codes)
            hits = np.flatnonzero(lab)
            if hits.size == 0:
                return None
            hv = lab[hits]
            times = hits + (taken + 1)
            end = None
            for li in self._order:
                sel, after, r_ev, d_ev = events(li, hv)
                if li == self.driving:
                    d_at = np.flatnonzero(d_ev)
                    need = m - len(clock.departures)
                    if d_at.size >= need:
                        k = d_at[need - 1] + 1
                        end = int(sel[k - 1])
                        hv = hv[: end + 1]
                        sel, after, r_ev, d_ev = sel[:k], after[:k], r_ev[:k], d_ev[:k]
                take(li, times[sel], after, r_ev, d_ev)
            if watch is not None and watch_time is None:
                seen = np.flatnonzero(hv & (1 << watch))
                if seen.size:
                    watch_time = int(times[seen[0]])
            return None if end is None else int(hits[end])

        # the start cell is step 0: a one-cell block after taken = -1 steps
        if m and last_departure(np.array([walk.code]), -1) is None:
            scan(
                walk, cap, last_departure,
                lambda: f"driving ladder finished only {len(clock.departures)}/{m} departures",
            )

        result = {lad.level: counts[li] for li, lad in enumerate(self.ladders)}
        record = TraversalRecord(
            counts=result,
            driving_level=self.ladders[self.driving].level,
            m=m,
            intervals={lad.level: intervals[li] for li, lad in enumerate(self.ladders)}
            if collect_intervals
            else None,
            watch_time=watch_time,
        )
        return record, clock


def circle_machine(
    center: TorusPoint, radii, first_level: int = 0, watch: np.ndarray | None = None
) -> TraversalMachine:
    """Machine with one ladder per pair of consecutive circles around ``center``.

    Ladder i, at level first_level + i, has its D-events on the circle of
    radius radii[i] and its R-events on the circle of radius radii[i+1];
    ladder 0 drives.  ``watch`` is an extra cell mask appended as the last
    circle (index len(radii)), whose first hit ``run(watch=len(radii))``
    records.
    """
    circles = [exterior_boundary_mask(ball_mask(center, r)) for r in radii]
    if watch is not None:
        circles.append(watch)
    ladders = [
        _Ladder(level=first_level + i, inner=i + 1, outer=i) for i in range(len(radii) - 1)
    ]
    return TraversalMachine(center.n, circles, ladders, driving=0)


def excursion_clock(walk: WalkState, annulus: AnnulusSpec, m: int, cap: int) -> ExcursionClock:
    """First m (R_k, D_k) pairs of the annulus ladder; R_1 may be 0."""
    if m < 1:
        raise ValueError("need m >= 1")
    machine = circle_machine(annulus.center, [annulus.R, annulus.r])
    _, clock = machine.run(walk, m, cap)
    clock.validate()
    return clock


def traversal_counts(
    walk: WalkState,
    center: TorusPoint,
    radii,
    m: int,
    cap: int,
    collect_intervals: bool = False,
) -> tuple[TraversalRecord, ExcursionClock]:
    """Counts T_i of level-(i+1)-circle arrivals before the m-th top departure."""
    radii = validate_radii(radii, n=center.n)
    machine = circle_machine(center, radii)
    return machine.run(walk, m, cap, collect_intervals=collect_intervals)


def intermediate_traversals(
    walk: WalkState,
    center: TorusPoint,
    radii,
    k: int,
    m: int,
    cap: int,
) -> tuple[TraversalRecord, ExcursionClock]:
    """Counts driven by m excursions of the level-k annulus; levels i >= k only."""
    radii = validate_radii(radii, n=center.n)
    if not 0 <= k <= len(radii) - 2:
        raise ValueError("driving level k out of range")
    machine = circle_machine(center, radii[k:], first_level=k)
    return machine.run(walk, m, cap)


def tilde_traversal(
    walk: WalkState,
    center: TorusPoint,
    radii,
    m: int,
    cap: int,
) -> tuple[TraversalRecord, ExcursionClock]:
    """Traversal counts with the clock started at the first hit of the r_1 circle."""
    radii = validate_radii(radii, n=center.n)
    shift_mask = exterior_boundary_mask(ball_mask(center, radii[1]))
    used = advance_to_mask(walk, shift_mask, cap, inclusive=True)
    machine = circle_machine(center, radii)
    return machine.run(walk, m, cap - used)


def hat_inflation(n: int) -> float:
    """Relative circle inflation sqrt(2)/(log n)^2 used by the hat counts."""
    return float(np.sqrt(2.0)) / float(np.log(n)) ** 2


def hat_traversal(
    walk: WalkState,
    center: TorusPoint,
    radii,
    m: int,
    cap: int,
    inflation: float | None = None,
) -> tuple[TraversalRecord, ExcursionClock]:
    """Hat-variant counts on inflated outer / deflated inner circles.

    Ladder i (i >= 1) runs between the inflated level-i circle and the
    deflated level-(i+1) circle; the driving clock runs between the deflated
    top circle and the inflated r_1 circle, started at the first hit of the
    latter.  Sharing one trajectory with the tilde counts gives the pathwise
    domination hat <= tilde.
    """
    radii = validate_radii(radii, n=center.n)
    eps = hat_inflation(center.n) if inflation is None else float(inflation)
    L = len(radii) - 1
    circles = []
    index: dict[tuple[str, int], int] = {}

    def add(tag: str, i: int, r: float) -> int:
        key = (tag, i)
        if key not in index:
            index[key] = len(circles)
            circles.append(exterior_boundary_mask(ball_mask(center, r)))
        return index[key]

    top_outer = add("minus", 0, (1 - eps) * radii[0])
    top_inner = add("plus", 1, (1 + eps) * radii[1])
    ladders = [_Ladder(level=0, inner=top_inner, outer=top_outer)]
    for i in range(1, L):
        outer = add("plus", i, (1 + eps) * radii[i])
        inner = add("minus", i + 1, (1 - eps) * radii[i + 1])
        ladders.append(_Ladder(level=i, inner=inner, outer=outer))
    shift_mask = circles[top_inner]
    used = advance_to_mask(walk, shift_mask, cap, inclusive=True)
    machine = TraversalMachine(center.n, circles, ladders, driving=0)
    return machine.run(walk, m, cap - used)


def detect_late_event(
    record: TraversalRecord,
    hit_time_of_x: int | None,
    clock: ExcursionClock,
    b_minus,
    b_plus,
    window,
) -> bool:
    """Late-point event: counts inside [b-, b+] on the window, x still unvisited.

    ``hit_time_of_x`` is None when x was not visited within the horizon; the
    bounds are inclusive on both sides.
    """
    if clock.pairs < record.m:
        raise ValueError("clock does not cover the m-th departure")
    for i in window:
        t = record.count(i)
        if not (b_minus(i) <= t <= b_plus(i)):
            return False
    if hit_time_of_x is None:
        return True
    return hit_time_of_x > clock.departures[record.m - 1]


def branching_level(x: TorusPoint, y: TorusPoint, radii) -> int | None:
    """Smallest k whose level-k balls around x and y are disjoint (2 r_k <= d).

    Returns None when no level qualifies (in particular for x == y).
    """
    d = torus_distance(x, y)
    for k, r in enumerate(radii):
        if 2 * float(r) <= d:
            return k
    return None
