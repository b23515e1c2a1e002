"""Excursion clocks between concentric circles and traversal-count processes.

The stopping-time ladder alternates R-events (arrivals on an inner circle)
with D-events (returns to the outer circle).  All counting is a single
streaming pass over each walk: every circle is baked into a per-cell bitmask
label, and each scan round of a group of walks is read in numpy, every walk
and ladder at once, so no Python code runs per hit or per ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    BudgetExceededError,
    TorusPoint,
    WalkState,
    advance_group_to_mask,
    ball_mask,
    exterior_boundary_mask,
    outcome_or_raise,
    scan_group,
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


def validate_radii(radii, n: int | None = None):
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
    if radii[-1] != 1:
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
    """Streams walks through a family of circles, maintaining R/D ladders.

    ``circles`` are boolean cell masks; ladders reference them by index, and
    ladder 0 drives: its m-th departure ends a run.  A cell may belong to
    several circles (inflated/deflated families), so the label is a bitmask,
    but a ladder's own two circles share no cell.  State per ladder and walk
    is one phase flag plus counters.  ``watch``, if given, is the index of a
    circle whose first hit time each run records (H_x bookkeeping in
    late-point detection).  Its circle cells, watch circle included, are
    the ``on`` table of its scans.
    """

    def __init__(self, n: int, circles, ladders, watch: int | None = None):
        if len(circles) > 32:
            raise ValueError("at most 32 circles per machine")
        if watch is not None and not 0 <= watch < len(circles):
            raise ValueError(f"watch circle {watch} out of range")
        self.n = n
        self.ladders = list(ladders)
        self.watch = watch
        for lad in self.ladders:
            if (circles[lad.inner] & circles[lad.outer]).any():
                raise ValueError(f"ladder {lad.level}'s inner and outer circles share a cell")
        label = np.zeros(n * n, dtype=np.uint32)
        for idx, mask in enumerate(circles):
            if not mask.any():
                raise ValueError(f"circle {idx} is empty")
            label[mask.reshape(-1)] |= np.uint32(1 << idx)
        self._label = label
        self._on = label != 0
        self._inner = np.array([[1 << lad.inner] for lad in self.ladders], dtype=np.uint32)
        self._outer = np.array([[1 << lad.outer] for lad in self.ladders], dtype=np.uint32)

    def run(self, walk: WalkState, m: int, cap: int, collect_intervals: bool = False):
        """Advance ``walk`` until ladder 0 completes m departures;
        ``run_group`` on a group of one."""
        return outcome_or_raise(self.run_group([walk], m, [cap], collect_intervals)[0])

    def run_group(self, walks, m: int, caps, collect_intervals: bool = False):
        """Advance every walk until its ladder 0 completes m departures.

        Returns, per walk, its (TraversalRecord, ExcursionClock), or the
        BudgetExceededError of a walk that reached its cap.  A machine with a
        watch circle records its first hit time on the record.

        Each scan round is read in numpy, every walk and ladder at once.  A
        unit step cannot jump a circle, so a ladder only needs the hits on
        its own two circles, in order.  On each hit it is in the phase the
        previous hit of the same walk left it in: an inner hit is an R-event
        iff the ladder waits for R, an outer hit a D-event iff it waits for
        D, and the hit leaves it waiting for D iff it is an inner hit.  A
        walk's m-th ladder-0 departure ends it for every ladder.
        """
        G = len(walks)
        nlad = len(self.ladders)
        watch = self.watch
        # per (ladder, walk), flat at ladder * G + walk; ladder 0 comes first
        waiting_d = np.zeros(nlad * G, dtype=bool)
        r_count = np.zeros(nlad * G, dtype=np.int64)
        d_count = np.zeros(nlad * G, dtype=np.int64)
        watch_time = np.full(G, -1, dtype=np.int64)
        # per round: (ladder * G + walk, time, R-event, D-event) of the events
        # the records list
        events = []

        def read(codes, at, bounds, group, taken):
            """One round: walk group[i], having taken taken[i] steps, steps
            onto codes[bounds[i]:bounds[i+1]] at its steps at[...] of the
            round, and onto no other circle cell.  Returns the ``at`` of each
            walk's end, or -1."""
            ends = np.full(group.size, -1)
            hits = self._on.take(codes).nonzero()[0]
            if hits.size == 0:
                return ends
            hv = self._label.take(codes.take(hits))
            row = bounds[1:].searchsorted(hits, side="right")
            # a hit with the label of the walk's previous hit changes no ladder
            repeat = (hv[1:] == hv[:-1]) & (row[1:] == row[:-1])
            if repeat.any():
                keep = np.ones(hits.size, dtype=bool)
                np.logical_not(repeat, out=keep[1:])
                hits, hv, row = hits[keep], hv[keep], row[keep]
            steps = at.take(hits)

            def time(h):
                return steps.take(h) + 1 + taken.take(row.take(h))

            # every (ladder, hit) with the hit on one of the ladder's circles,
            # ladder by ladder, each in step order
            on_in = (self._inner & hv) != 0
            pair = (on_in | ((self._outer & hv) != 0)).ravel().nonzero()[0]
            lad, hit = np.divmod(pair, hits.size)
            # the ladder's circles are disjoint: a hit not on its inner circle
            # is on its outer one, and leaves it waiting for D iff inner
            after = on_in.take(pair)
            r = row.take(hit)
            key = lad * G + group.take(r)
            first = np.ones(key.size, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=first[1:])
            before = np.empty_like(after)
            before[1:] = after[:-1]
            before[first] = waiting_d.take(key[first])
            r_ev = after & ~before
            d_ev = before & ~after
            # the walk's m-th ladder-0 departure ends it: drop its later hits
            hi = lad.searchsorted(1)
            d_at = d_ev[:hi].nonzero()[0]
            d_row = r.take(d_at)
            rank = np.arange(d_row.size) - d_row.searchsorted(d_row)
            done = rank == (m - 1 - d_count.take(group)).take(d_row)
            limit = None
            if done.any():
                cut = hit.take(d_at[done])
                ends[d_row[done]] = steps.take(cut)
                limit = np.full(group.size, hits.size)
                limit[d_row[done]] = cut
                keep = hit <= limit.take(r)
                lad, hit, key, after, r_ev, d_ev = (
                    a[keep] for a in (lad, hit, key, after, r_ev, d_ev)
                )
                hi = lad.searchsorted(1)
            r_count[:] += np.bincount(key[r_ev], minlength=nlad * G)
            d_count[:] += np.bincount(key[d_ev], minlength=nlad * G)
            last = np.ones(key.size, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=last[:-1])
            waiting_d[key[last]] = after[last]
            listed = r_ev | d_ev
            if not collect_intervals:
                listed[hi:] = False
            at = listed.nonzero()[0]
            events.append((key.take(at), time(hit.take(at)), r_ev.take(at), d_ev.take(at)))
            if watch is not None:
                seen = (hv & (1 << watch)).nonzero()[0]
                if limit is not None:
                    seen = seen[seen <= limit.take(row.take(seen))]
                s_row = row.take(seen)
                first = np.ones(seen.size, dtype=bool)
                np.not_equal(s_row[1:], s_row[:-1], out=first[1:])
                g = group.take(s_row[first])
                new = watch_time.take(g) < 0
                watch_time[g[new]] = time(seen[first])[new]
            return ends

        outcome = [0] * G
        if m:
            # the start cell is step 0: a one-cell round after taken = -1 steps
            ends = read(
                np.array([w.code for w in walks], dtype=np.intp), np.zeros(G, dtype=np.intp),
                np.arange(G + 1), np.arange(G), np.full(G, -1),
            )
            live = np.flatnonzero(ends < 0)
            ran = scan_group(
                [walks[g] for g in live], [caps[g] for g in live], self._on,
                lambda codes, at, bounds, rows, taken: read(
                    codes, at, bounds, live.take(rows), taken
                ),
                lambda i: f"driving ladder finished only "
                f"{d_count[live[i]]}/{m} departures",
            )
            for g, o in zip(live.tolist(), ran):
                outcome[g] = o
        return self._records(outcome, m, events, r_count, watch_time, collect_intervals)

    def _records(self, outcome, m, events, r_count, watch_time, collect_intervals):
        """Per walk, its record and clock from the rounds' listed events (or
        its overrun, as it came)."""
        G = len(outcome)
        nlad = len(self.ladders)
        if events:
            key, time, is_r, is_d = (np.concatenate(a) for a in zip(*events))
        else:
            key = time = np.empty(0, dtype=np.int64)
            is_r = is_d = np.empty(0, dtype=bool)
        # a stable sort keeps each walk's events in step order, round by round
        order = np.argsort(key, kind="stable")
        time, is_r, is_d = time[order], is_r[order], is_d[order]
        starts = np.searchsorted(key[order], np.arange(nlad * G + 1)).tolist()

        def times(li, g):
            a, b = starts[li * G + g], starts[li * G + g + 1]
            t = time[a:b]
            return t[is_r[a:b]].tolist(), t[is_d[a:b]].tolist()

        out = []
        for g, o in enumerate(outcome):
            if isinstance(o, BudgetExceededError):
                out.append(o)
                continue
            record = TraversalRecord(
                counts={lad.level: int(r_count[li * G + g]) for li, lad in enumerate(self.ladders)},
                driving_level=self.ladders[0].level,
                m=m,
                intervals={
                    lad.level: list(zip(*times(li, g))) for li, lad in enumerate(self.ladders)
                }
                if collect_intervals
                else None,
                watch_time=None if watch_time[g] < 0 else int(watch_time[g]),
            )
            out.append((record, ExcursionClock(*times(0, g))))
        return out


def circle_machine(
    center: TorusPoint, radii, first_level: int = 0, watch: np.ndarray | None = None
) -> TraversalMachine:
    """Machine with one ladder per pair of consecutive circles around ``center``.

    Ladder i, at level first_level + i, has its D-events on the circle of
    radius radii[i] and its R-events on the circle of radius radii[i+1];
    ladder 0 drives.  ``watch`` is an extra cell mask appended as the last
    circle (index len(radii)), the machine's watch circle.
    """
    circles = [exterior_boundary_mask(ball_mask(center, r)) for r in radii]
    if watch is not None:
        circles.append(watch)
    ladders = [
        _Ladder(level=first_level + i, inner=i + 1, outer=i) for i in range(len(radii) - 1)
    ]
    return TraversalMachine(
        center.n, circles, ladders, watch=None if watch is None else len(radii)
    )


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


def run_from_first_hit(machine: TraversalMachine, shift_mask: np.ndarray, walks, m: int, caps):
    """``machine.run_group`` with each walk's ladders started at its first
    visit of ``shift_mask``, its cap covering both phases.  An overrun in
    either phase names the walk's cap and carries every step it took."""
    out = advance_group_to_mask(walks, shift_mask, caps, inclusive=True)
    hit = [i for i, used in enumerate(out) if not isinstance(used, BudgetExceededError)]
    ran = machine.run_group([walks[i] for i in hit], m, [caps[i] - out[i] for i in hit])
    for i, o in zip(hit, ran):
        if isinstance(o, BudgetExceededError):
            what = str(o).rpartition(" within ")[0]
            o = BudgetExceededError(f"{what} within {caps[i]} steps", out[i] + o.steps_taken)
        out[i] = o
    return out


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
    machine = circle_machine(center, radii)
    return outcome_or_raise(run_from_first_hit(machine, shift_mask, [walk], m, [cap])[0])


def hat_inflation(n: int) -> float:
    """Relative circle inflation sqrt(2)/(log n)^2 used by the hat counts."""
    return float(np.sqrt(2.0)) / float(np.log(n)) ** 2


def hat_traversal(
    walk: WalkState,
    center: TorusPoint,
    radii,
    m: int,
    cap: int,
) -> tuple[TraversalRecord, ExcursionClock]:
    """Hat-variant counts on inflated outer / deflated inner circles.

    Ladder i (i >= 1) runs between the inflated level-i circle and the
    deflated level-(i+1) circle; the driving clock runs between the deflated
    top circle and the inflated r_1 circle, started at the first hit of the
    latter.  Sharing one trajectory with the tilde counts gives the pathwise
    domination hat <= tilde.  Radii whose two top circles, pulled together
    by the inflation, share a cell are refused.
    """
    radii = validate_radii(radii, n=center.n)
    eps = hat_inflation(center.n)
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
    if (circles[top_outer] & circles[top_inner]).any():
        raise ValueError(
            f"radii {radii[0]:g} and {radii[1]:g} are too close for the hat inflation "
            f"eps = {eps:.4g}: the circles of radius (1 - eps) {radii[0]:g} and "
            f"(1 + eps) {radii[1]:g} share a cell"
        )
    ladders = [_Ladder(level=0, inner=top_inner, outer=top_outer)]
    for i in range(1, L):
        outer = add("plus", i, (1 + eps) * radii[i])
        inner = add("minus", i + 1, (1 - eps) * radii[i + 1])
        ladders.append(_Ladder(level=i, inner=inner, outer=outer))
    machine = TraversalMachine(center.n, circles, ladders)
    return outcome_or_raise(run_from_first_hit(machine, circles[top_inner], [walk], m, [cap])[0])


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
