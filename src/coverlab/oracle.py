"""Exact discrete potential theory on tori from the spectral hitting-time table.

Hitting probabilities, expected hitting times, harmonic measure, Green
functions, the equilibrium measure pair, the Bernoulli-splitting excursion
chain, and exact circle-chain event probabilities.  The walk is translation
invariant, so one fft2 gives every point-to-point hitting time
T(u, v) = E_u H_v; for an absorbing set A the strong Markov property at H_A
turns T into one dense (|A| + 1) system, solved with a residual check, and
every other quantity is a convolution with T.  Matthews' cover-time bracket
reads the table directly.  No quantity is capped in n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .lattice import (
    TorusPoint,
    WalkState,
    advance_to_mask,
    ball_mask,
    exterior_boundary_mask,
    philox_stream,
)

RESIDUAL_TOL = 1e-10
# power iteration of the equilibrium pair: stop when no entry moves by more
POWER_TOL = 1e-12
POWER_MAX_ITERS = 100_000
# coupled_chain_run: step budget per walk leg, in units of n^2
LEG_CAP_PER_CELL = 2000


def _codes(points) -> np.ndarray:
    return np.array(
        [p.code if isinstance(p, TorusPoint) else int(p) for p in points], dtype=np.int64
    )


class GridSystem:
    """The hitting law of one absorbing set A on the n x n torus.

    With T(u, v) = E_u H_v = ``expected_hit_origin_table(n)[v - u]``, the
    strong Markov property at H_A gives, for every cell x and every b in A,

        T(x, b) = E_x H_A + sum_a P_x(X_{H_A} = a) T(a, b),

    and sum_a P_x(a) = 1 closes a (k + 1) system for k = |A|, with one
    right-hand side (T(A, x), n^2) per x.  The unknown E_x H_A is carried as
    E_x H_A / n^2 and the normalisation row is scaled by n^2, so that T's
    entries of order n^2 log n do not dwarf the ones.  For the circle of
    radius n/4 that, with T's mean taken out, gives a condition number of 66
    at n = 128 and 5e2 at n = 1024, against 5e11 and 3e16 unscaled.  The
    matrix is symmetric and factored once; every solve goes through
    ``solve``, which checks the residual.
    """

    def __init__(self, n: int, absorbing: np.ndarray):
        flat = absorbing.reshape(-1)
        if flat.all():
            raise ValueError("no free cells")
        self.n = n
        self.absorbing = flat
        self.codes = np.nonzero(flat)[0]
        self._table, self._table_hat = _centered_table(n)
        k = self.codes.size
        matrix = np.full((k + 1, k + 1), float(n * n))
        matrix[:k, :k] = self._hit_times(self.codes)
        matrix[k, k] = 0.0
        self._matrix = matrix
        self._lu = lu_factor(matrix)

    def _hit_times(self, sources: np.ndarray) -> np.ndarray:
        """(k, len(sources)) table T(a, x) for a in A and each source x."""
        n = self.n
        ax, ay = divmod(self.codes, n)
        sx, sy = divmod(sources, n)
        return self._table[(sx[None, :] - ax[:, None]) % n, (sy[None, :] - ay[:, None]) % n]

    def _convolve(self, fields: np.ndarray) -> np.ndarray:
        """(T * g)(x) = sum_y T(x, y) g(y) for each length-N row g of ``fields``."""
        n = self.n
        grids = fields.reshape(fields.shape[:-1] + (n, n))
        return np.fft.irfft2(np.fft.rfft2(grids) * self._table_hat, s=(n, n)).reshape(fields.shape)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the (k + 1) system, residual-checked.

        ``rhs`` is one vector of length k + 1 or a (k + 1, m) matrix of m
        right-hand sides, solved together.
        """
        h = lu_solve(self._lu, rhs)
        resid = np.abs(self._matrix @ h - rhs).max()
        scale = max(1.0, np.abs(rhs).max())
        if resid > RESIDUAL_TOL * scale:
            raise RuntimeError(f"solver residual {resid:.3e} above tolerance")
        return h

    def exit_distribution(self, source_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P_v[S_H = u] for each source v and absorbing cell u; returns (rows, codes).

        One right-hand-side column per source.  Sources that are themselves
        absorbed exit where they stand.
        """
        n2 = float(self.n * self.n)
        rhs = np.vstack([self._hit_times(source_codes), np.full(source_codes.size, n2)])
        rows = self.solve(rhs)[:-1].T
        absorbed = np.nonzero(self.absorbing[source_codes])[0]
        rows[absorbed] = 0.0
        rows[absorbed, np.searchsorted(self.codes, source_codes[absorbed])] = 1.0
        return rows, self.codes

    def _green_sum(self, g: np.ndarray, f=0.0) -> np.ndarray:
        """sum_y G(x, y) g(y) + sum_a P_x(X_{H_A} = a) f(a) for every cell x.

        ``g`` holds one length-N field per row, ``f`` one value per cell of
        A per row (or 0).  The Green identity
        G(x, y) = (E_x H_A + sum_a P_x(a) T(a, y) - T(x, y)) / n^2
        makes n^2 times the sum equal w . (T(A, x), n^2) - (T * g)(x), where
        w solves the system against (c + n^2 f, n^2 sum g) with c = T * g on
        A: one transposed solve (the matrix is symmetric) and two
        convolutions.  G vanishes on A, so g is read off A only, and the sum
        is exactly f on A.
        """
        n2 = float(self.n * self.n)
        g = np.where(self.absorbing, 0.0, g)
        tg = self._convolve(g)
        rhs = np.concatenate([tg[..., self.codes] + n2 * f, n2 * g.sum(-1, keepdims=True)], -1)
        w = self.solve(rhs.T).T
        weights = -g
        weights[..., self.codes] += w[..., :-1]
        out = (self._convolve(weights) + n2 * w[..., -1:]) / n2
        out[..., self.codes] = f
        return out

    def green_columns(self, codes: np.ndarray) -> np.ndarray:
        """(N, len(codes)) Green columns G(., c); zero for absorbed c."""
        units = np.zeros((codes.size, self.n * self.n))
        units[np.arange(codes.size), codes] = 1.0
        return self._green_sum(units).T

    def weighted_green(self, codes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_j weights[j] G(codes[j], u) for all u (G is symmetric)."""
        if self.absorbing[codes].any():
            raise ValueError("weight placed on an absorbed cell")
        g = np.zeros(self.n * self.n)
        g[codes] = weights
        return self._green_sum(g)

    def expected_hit(self) -> np.ndarray:
        """E_v[H] for every cell v, H the hitting time of the absorbing set."""
        return self.hitting_moments(1)[0]

    def hitting_moments(self, k: int, exit_moments=()) -> list[np.ndarray]:
        """E_x[(H + F)^j] for every cell x and j = 1..k, one solve per moment.

        H is the hitting time of the absorbing set and F an independent
        cost paid at the exit cell, with E[F^j] = exit_moments[j - 1] on the
        absorbing cells (in code order); without them F = 0.  Off A,
        S = H + F is 1 + S o theta_1, so
        E_x S^j = sum_a P_x(a) f_j(a) + sum_y G(x, y) E_y[S^j - (S - 1)^j],
        and S^j - (S - 1)^j = sum_{i<j} C(j, i) (-1)^(j-i+1) S^i.
        """
        out = [np.ones(self.n * self.n)]
        for j in range(1, k + 1):
            g = sum(math.comb(j, i) * (-1) ** (j - i + 1) * out[i] for i in range(j))
            out.append(self._green_sum(g, exit_moments[j - 1] if exit_moments else 0.0))
        return out[1:]


@functools.lru_cache(maxsize=4)
def _centered_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mean T and its real rfft2, read-only, shared by the ``GridSystem``s
    of one n.  Every identity there survives T -> T - const (the exit law sums
    to 1), and a zero-mean T drops the constant part of each field it is
    convolved with, which would otherwise cancel in the Green sums."""
    table = expected_hit_origin_table(n)
    table -= table.mean()
    table_hat = np.fft.rfft2(table).real  # T is even: its transform is real
    table.flags.writeable = False
    table_hat.flags.writeable = False
    return table, table_hat


def hit_prob_exact(v: TorusPoint, A: np.ndarray, B: np.ndarray, n: int) -> float:
    """P_v[H_A < H_B] by the discrete Dirichlet problem (1 on A, 0 on B);
    A and B are (n, n) masks."""
    if not A.any() or not B.any():
        raise ValueError("A and B must be nonempty")
    if (A & B).any():
        raise ValueError("A and B must be disjoint")
    rows, bcodes = GridSystem(n, A | B).exit_distribution(np.array([v.code]))
    return float(rows[0, A.reshape(-1)[bcodes]].sum())


def expected_hit_exact(v: TorusPoint, A: np.ndarray, n: int) -> float:
    """E_v[H_A] by the Poisson equation (I - Q) h = 1, h = 0 on A."""
    if not A.any():
        raise ValueError("A must be nonempty")
    return float(GridSystem(n, A).expected_hit()[v.code])


def harmonic_measure_exact(sources, boundary, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exit distributions P_v[S_{H_boundary} = u] for each source v.

    Returns (rows, boundary_codes); rows has shape (len(sources), #boundary).
    """
    return GridSystem(n, boundary).exit_distribution(_codes(sources))


def green_exact(absorbing, probes, n: int) -> np.ndarray:
    """(N, #probes) Green columns G(., probe) of the domain killed on ``absorbing``."""
    return GridSystem(n, absorbing).green_columns(_codes(probes))


# -- equilibrium pair and the excursion chain ---------------------------------


@dataclass
class EquilibriumPair:
    """Fixed-point measures on the outer and inner circles, plus q."""

    mu_outer: np.ndarray
    mu_inner: np.ndarray
    outer_codes: np.ndarray
    inner_codes: np.ndarray
    q: float
    residual: float


class EquilibriumWorkspace:
    """All exact tables for one (y, r, R, n) annulus, built once and reused:
    the systems and kernels of the two-circle chain [R, r]."""

    def __init__(self, y: TorusPoint, r: float, R: float, n: int):
        if not 1 < r < R <= n / 2:
            raise ValueError("need 1 < r < R <= n/2")
        self.y = y
        self.r = float(r)
        self.R = float(R)
        self.n = n
        masks, codes, systems, down, up = _circle_systems(y, [R, r], n)
        self.outer_mask, self.inner_mask = masks
        self.outer_codes, self.inner_codes = codes
        # the outer circle's system absorbs at the inner circle, and back
        self._sys_inner, self._sys_outer = systems
        self.K_out2in, self.K_in2out = down[0], up[1]  # outer -> inner, inner -> outer
        self._pair: EquilibriumPair | None = None

    # equilibrium pair ----------------------------------------------------------

    def equilibrium_pair(self) -> EquilibriumPair:
        """Power-iterate the composed kernel to its stationary pair."""
        if self._pair is not None:
            return self._pair
        compose = self.K_out2in @ self.K_in2out  # outer -> outer
        mu = np.full(self.outer_codes.size, 1.0 / self.outer_codes.size)
        for _ in range(POWER_MAX_ITERS):
            nxt = mu @ compose
            nxt /= nxt.sum()
            delta = np.abs(nxt - mu).max()
            mu = nxt
            if delta < POWER_TOL:
                break
        else:
            raise RuntimeError("power iteration did not converge")
        mu_inner = mu @ self.K_out2in
        mu_inner /= mu_inner.sum()
        resid = max(
            np.abs(mu_inner @ self.K_in2out - mu).max(),
            np.abs(mu @ self.K_out2in - mu_inner).max(),
        )
        q = float((self.K_in2out / mu[None, :]).min())
        self._pair = EquilibriumPair(
            mu_outer=mu,
            mu_inner=mu_inner,
            outer_codes=self.outer_codes,
            inner_codes=self.inner_codes,
            q=q,
            residual=float(resid),
        )
        return self._pair

    def nu_matrix(self) -> np.ndarray:
        """Residual measures nu_z per inner cell; rows are probability vectors."""
        pair = self.equilibrium_pair()
        if pair.q >= 1.0:
            raise ValueError("q = 1: the residual measure is undefined")
        nu = (self.K_in2out - pair.q * pair.mu_outer[None, :]) / (1.0 - pair.q)
        if nu.min() < -1e-12:
            raise RuntimeError(
                f"nu has a negative entry {nu.min():.3e}: q computation bug"
            )
        nu = np.clip(nu, 0.0, None)
        nu /= nu.sum(axis=1, keepdims=True)
        return nu

    # exact expectations --------------------------------------------------------

    def expected_inward_leg(self) -> float:
        """E over mu_outer of the hitting time of the inner circle."""
        pair = self.equilibrium_pair()
        return float(pair.mu_outer @ self._sys_inner.expected_hit()[self.outer_codes])

    def expected_outward_leg(self) -> float:
        """E over mu_inner of the hitting time of the outer circle."""
        pair = self.equilibrium_pair()
        return float(pair.mu_inner @ self._sys_outer.expected_hit()[self.inner_codes])

    def expected_d1(self) -> float:
        """Exact E over the pair of the full excursion length D_1."""
        return self.expected_inward_leg() + self.expected_outward_leg()

    def d1_moments(self) -> tuple[float, float]:
        """Exact (mean, variance) of D_1 for a walk started from mu_outer.

        D_1 = H_in + H_out o theta_{H_in}.  Its first two moments from x off
        the inner circle are the hitting moments of the inner circle with the
        exit cost F = H_out, whose moments on the inner circle are the plain
        hitting moments of the outer circle's system.
        """
        pair = self.equilibrium_pair()
        f = [h[self.inner_codes] for h in self._sys_outer.hitting_moments(2)]
        phi, psi = self._sys_inner.hitting_moments(2, f)
        mean = float(pair.mu_outer @ phi[self.outer_codes])
        second = float(pair.mu_outer @ psi[self.outer_codes])
        return mean, second - mean * mean

    def stationary_measure(self) -> np.ndarray:
        """The invariant measure built from the two Green tables and the pair."""
        pair = self.equilibrium_pair()
        m1 = self._sys_outer.weighted_green(self.inner_codes, pair.mu_inner)
        m2 = self._sys_inner.weighted_green(self.outer_codes, pair.mu_outer)
        return m1 + m2

    def stationary_check(self) -> dict[str, float]:
        """Uniformity certificate for the stationary measure."""
        m = self.stationary_measure()
        mean = m.mean()
        deviation = float(np.abs(m / mean - 1.0).max())
        return {
            "max_rel_deviation": deviation,
            "m_at_center": float(m[self.y.code]),
            "total_mass": float(m.sum()),
            "log_ratio": math.log(self.R / self.r),
        }


@dataclass
class CoupledChainRun:
    """One realisation of the Bernoulli-splitting excursion chain."""

    start_cells: np.ndarray  # outer-circle start codes per excursion
    end_cells: np.ndarray  # inner-circle endpoint codes per excursion
    durations: np.ndarray  # inward-leg step counts I_{X_l}
    flags: np.ndarray  # Bernoulli regeneration flags I_l
    regen_indices: np.ndarray  # J_0, J_1, ...
    block_sums: np.ndarray  # G_0, G_1, ...


def coupled_chain_run(
    ws: EquilibriumWorkspace,
    x: TorusPoint,
    length: int,
    seed: int = 0,
) -> CoupledChainRun:
    """Simulate (X_l, I_l) with exact splitting measures from the oracle.

    Start points come from mu_outer (on regeneration) or nu_z (otherwise);
    each inward leg is an honest walk segment, so durations and endpoints
    carry the exact conditional law.  Under the key ``seed``, stream 0 draws
    the coins and start cells, stream 1 the walk to X_0, and stream 2 + l
    the l-th inward leg.
    """
    pair = ws.equilibrium_pair()
    nu = ws.nu_matrix()
    n = ws.n
    cap = LEG_CAP_PER_CELL * n * n
    rng = philox_stream(seed, 0)
    inner_pos = {int(c): i for i, c in enumerate(ws.inner_codes)}

    starts = np.empty(length, dtype=np.int64)
    ends = np.empty(length, dtype=np.int64)
    durations = np.empty(length, dtype=np.int64)
    flags = np.empty(length, dtype=np.int64)

    # X_0: from x, run to D_1 = first outer hit after the first inner hit.
    walk = WalkState(TorusPoint(x.x, x.y, n), seed=seed, stream=1)
    advance_to_mask(walk, ws.inner_mask, cap, inclusive=True)
    advance_to_mask(walk, ws.outer_mask, cap, inclusive=False)
    start = walk.code

    for ell in range(length):
        leg = WalkState(TorusPoint(start // n, start % n, n), seed=seed, stream=2 + ell)
        dur = advance_to_mask(leg, ws.inner_mask, cap, inclusive=False)
        starts[ell] = start
        ends[ell] = leg.code
        durations[ell] = dur
        flags[ell] = 1 if rng.random() < pair.q else 0
        if flags[ell]:
            start = int(rng.choice(ws.outer_codes, p=pair.mu_outer))
        else:
            start = int(rng.choice(ws.outer_codes, p=nu[inner_pos[int(ends[ell])]]))

    regen = np.nonzero(flags)[0]
    blocks = []
    prev = -1
    for j in regen:
        blocks.append(int(durations[prev + 1 : j + 1].sum()))
        prev = j
    return CoupledChainRun(
        start_cells=starts,
        end_cells=ends,
        durations=durations,
        flags=flags,
        regen_indices=regen,
        block_sums=np.array(blocks, dtype=np.int64),
    )


# -- Kac moment hierarchy ------------------------------------------------------


def kac_moment_check(A, n: int) -> dict[str, float]:
    """Exact E[T^m] for m <= 3 via the recursive Poisson hierarchy.

    Returns the worst ratios lhs/rhs of Kac's inequality
    E[T^m] <= m! E[T] (max E[T])^(m-1) over all start cells.
    """
    mask = A.reshape(-1)
    h1, h2, h3 = (h[~mask] for h in GridSystem(n, mask).hitting_moments(3))
    hmax = h1.max()
    ratio2 = float((h2 / (2 * h1 * hmax)).max())
    ratio3 = float((h3 / (6 * h1 * hmax**2)).max())
    return {"ratio_m2": ratio2, "ratio_m3": ratio3}


# -- cover-time oracles ---------------------------------------------------------


def expected_hit_origin_table(n: int) -> np.ndarray:
    """E_x[H_0] for every cell x as an (n, n) array, by the spectral formula.

    With eigenvalues lambda_k = (cos(2 pi k_1/n) + cos(2 pi k_2/n)) / 2,
    E_x[H_0] = sum_{k != 0} (1 - cos(2 pi k.x/n)) / (1 - lambda_k); one fft2
    evaluates every x at once, with no linear solve and no cap on n.  By
    translation invariance E_u H_v is the entry at v - u, so this table is
    all of the walk's potential theory that ``GridSystem`` needs.
    """
    c = np.cos(2 * np.pi * np.arange(n) / n)
    w = np.zeros((n, n))
    w.flat[1:] = 1.0 / (1.0 - (c[:, None] + c[None, :]).flat[1:] / 2)
    return w.sum() - np.fft.fft2(w).real


def _harmonic_number(k: int) -> float:
    return math.fsum(1.0 / np.arange(1, k + 1)) if k > 0 else 0.0


def matthews_cover_bracket(n: int) -> tuple[float, float]:
    """Matthews' bounds (Ann. Probab. 16, 1988) on E_0[t_cov], exact at any n.

    Upper: max_x E_x H_0 * H_{n^2 - 1}, with H_k the k-th harmonic number.
    Lower: for a set A holding the start, E[t_cov] >= min_{a != b in A} E_a H_b
    * H_{|A| - 1}; the best such bound over the sublattices A = (k Z / n Z)^2,
    k | n.  Both come from the spectral hitting-time table.
    """
    table = expected_hit_origin_table(n)
    upper = float(table.max()) * _harmonic_number(n * n - 1)
    lower = 0.0
    for k in range(1, n):
        if n % k:
            continue
        t_min = float(table[::k, ::k].flat[1:].min())  # flat[0] is the origin
        lower = max(lower, t_min * _harmonic_number((n // k) ** 2 - 1))
    return lower, upper


def exact_cover_mean(n: int) -> float:
    """Exact expected cover time by a DP over covered sets.

    Translate each state so that the walker sits at 0.  With S the covered
    set, V(S) = E_0[H_{S^c}] + sum_y P_0(X_{H_{S^c}} = y) V((S + {y}) - y),
    y over the exterior boundary of S: one ``GridSystem`` on S^c per set.
    """
    if n > 3:
        raise ValueError("the covered-set DP is enumerated only up to n = 3")

    @functools.cache
    def value(covered: bytes) -> float:
        S = np.frombuffer(covered, dtype=bool).reshape(n, n)
        if S.all():
            return 0.0
        system = GridSystem(n, ~S)
        rows, codes = system.exit_distribution(np.array([0]))
        exits = exterior_boundary_mask(S).reshape(-1)[codes]
        total = float(system.expected_hit()[0])
        for y, p in zip(codes[exits].tolist(), rows[0, exits].tolist()):
            nxt = S.copy()
            nxt.flat[y] = True
            total += p * value(np.roll(nxt, (-(y // n), -(y % n)), axis=(0, 1)).tobytes())
        return total

    start = np.zeros((n, n), dtype=bool)
    start[0, 0] = True
    mean = value(start.tobytes())
    value.cache_clear()  # value refers to itself: free its entries now, not at a gc
    return mean


# -- exact circle-chain event probabilities ------------------------------------


def _circle_systems(center: TorusPoint, radii, n: int):
    """(masks, codes, systems, down, up) of concentric circles, outermost first.

    From circle i a walk next hits circle i - 1 or i + 1 (the end circles have
    one neighbour): systems[i] absorbs at those circles, and its exit law
    gives the kernels down[i] (circle i -> i + 1) and up[i] (i -> i - 1)."""
    masks = [exterior_boundary_mask(ball_mask(center, r)) for r in radii]
    codes = [np.nonzero(m.reshape(-1))[0] for m in masks]
    if np.logical_or.reduce(masks).sum() != sum(c.size for c in codes):
        raise ValueError("circles share cells: the radii are too close")
    systems, down, up = [], {}, {}
    for i in range(len(radii)):
        nbrs = [j for j in (i - 1, i + 1) if 0 <= j < len(radii)]
        systems.append(GridSystem(n, np.logical_or.reduce([masks[j] for j in nbrs])))
        rows, bcodes = systems[i].exit_distribution(codes[i])
        for j in nbrs:
            (up if j < i else down)[i] = rows[:, np.searchsorted(bcodes, codes[j])]
    return masks, codes, systems, down, up


class CircleChain:
    """Exact Markov chain of successive circle hits for a radii schedule.

    State = a cell on one of the circles; transitions are harmonic-measure
    kernels onto the adjacent circles (unit steps cannot skip a circle).
    """

    def __init__(self, center: TorusPoint, radii, n: int):
        self.radii = [float(r) for r in radii]
        self.L = len(self.radii) - 1
        if self.L < 1:
            raise ValueError("a circle chain needs at least two circles")
        # kern_down[i]: circle i -> circle i+1; kern_up[i]: circle i -> circle i-1
        _, self.circle_codes, _, self.kern_down, self.kern_up = _circle_systems(
            center, self.radii, n
        )

    def event_probability(self, start: TorusPoint, m: int, targets: dict[int, int]) -> float:
        """P_start[T_i = targets[i] for all i, by the m-th top departure].

        ``targets`` must specify every level 1..L-1; T_i counts inward circle
        transitions i -> i+1, and the start must sit on the outermost circle.
        Paths that reach the same (level, counts, departures) state are merged:
        each state reachable from the start gets, once, its chance per cell of
        its circle of completing the event.  An inward move raises a count, a
        move out of level 1 the departures, and every other move goes one
        level out, so the states are swept by decreasing count sum plus
        departures and, at one sum, from level 1 inwards with level 0 last:
        each state finds the states it moves to already swept.
        """
        if sorted(targets) != list(range(1, self.L)):
            raise ValueError("targets must cover levels 1..L-1")
        pos0 = np.nonzero(self.circle_codes[0] == start.code)[0]
        if pos0.size != 1:
            raise ValueError("start must lie on the outermost circle")
        L = self.L
        goal = tuple(targets[i] for i in range(1, L))

        def moves(level: int, counts: tuple[int, ...], departures: int) -> list:
            """The states one circle hit on: out (or, from level 0, in), then in."""
            if level == 0:
                return [] if departures == m else [(1, counts, departures)]
            out = [(level - 1, counts, departures + (level == 1))]
            if level < L and counts[level - 1] < goal[level - 1]:
                inward = counts[: level - 1] + (counts[level - 1] + 1,) + counts[level:]
                out.append((level + 1, inward, departures))
            return out

        first = (0, (0,) * (L - 1), 0)
        reached, todo = {}, [first]  # each state reached, and its moves
        while todo:
            state = todo.pop()
            if state not in reached:
                reached[state] = moves(*state)
                todo += reached[state]

        def sweep_order(state):
            level, counts, departures = state
            return -(sum(counts) + departures), level or L + 1

        finish = {}  # per state, the chance per cell of its circle
        ended = [np.full(self.circle_codes[0].size, float(hit)) for hit in (False, True)]
        for state in sorted(reached, key=sweep_order):
            level, counts, departures = state
            nxt = reached[state]
            if not nxt:  # the m-th departure: the event holds or not
                finish[state] = ended[counts == goal]
            elif level == 0:
                finish[state] = self.kern_down[0] @ finish[nxt[0]]
            else:
                out = self.kern_up[level] @ finish[nxt[0]]
                if len(nxt) > 1:
                    out += self.kern_down[level] @ finish[nxt[1]]
                finish[state] = out
        return float(finish[first][pos0[0]])
