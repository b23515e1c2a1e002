"""Critical Galton-Watson process with geometric(1/2) offspring.

Exact laws come from negative-binomial convolutions (one generation from a
population of m is a single NB(m, 1/2) draw); small joint laws are enumerated
from the equivalent reflecting 1-D walk, which provides the independent oracle
for the traversal correspondence.  Barrier events are estimated by Monte Carlo
and checked against a band-restricted convolution DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# the ufunc behind scipy.stats.nbinom.pmf, bit for bit; importing it from
# scipy.special skips the import of scipy.stats
from scipy.special._ufuncs import _nbinom_pmf

from .stats import wilson_interval


@dataclass
class GWTrajectory:
    """Generation sizes T_0, T_1, ...; absorbed at zero."""

    generations: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.generations, dtype=np.int64)
        dead = np.nonzero(g == 0)[0]
        if dead.size and g[dead[0] :].any():
            raise ValueError("population resurrects after extinction")
        self.generations = g


def gw_generations(pop, rng: np.random.Generator):
    """Yield generations T_1, T_2, ... of independent GW paths from T_0 = ``pop``.

    Each generation draws NB(T, 1/2) for the living paths only, in path
    order; extinct paths stay at zero and draw nothing.  Only the current
    generation is kept; the caller must not modify the yielded arrays.
    ``gw_step`` is the scalar draw for one path and one generation.
    """
    pop = np.asarray(pop, dtype=np.int64)
    while True:
        alive = pop > 0
        nxt = np.zeros_like(pop)
        if alive.any():
            nxt[alive] = rng.negative_binomial(pop[alive], 0.5)
        pop = nxt
        yield pop


def gw_step(m: int, rng: np.random.Generator) -> int:
    """One generation from population m: sum of m geometric(1/2) offspring."""
    if m < 0:
        raise ValueError("population must be nonnegative")
    if m == 0:
        return 0
    return int(rng.negative_binomial(m, 0.5))


def gw_path(m: int, length: int, rng: np.random.Generator) -> GWTrajectory:
    out = np.empty(length + 1, dtype=np.int64)
    out[0] = m
    cur = m
    for i in range(1, length + 1):
        cur = gw_step(cur, rng)
        out[i] = cur
    return GWTrajectory(out)


def extinct_by(m: int, k: int) -> float:
    """P_m[T_k = 0] = (1 - 1/(k+1))^m, exact for geometric(1/2) offspring."""
    if m < 0 or k < 1:
        raise ValueError("need m >= 0 and k >= 1")
    return (1.0 - 1.0 / (k + 1)) ** m


def sub_gaussian_envelope(m: int, m_prime: int, i: int) -> float:
    """exp(-(sqrt(m') - sqrt(m))^2 / (i+1)); an envelope, never a density."""
    if i < 0:
        raise ValueError("need i >= 0")
    return math.exp(-((math.sqrt(m_prime) - math.sqrt(m)) ** 2) / (i + 1))


def one_step_pmf(m: int, jmax: int) -> np.ndarray:
    """Exact law of one generation from population m on 0..jmax."""
    if m == 0:
        out = np.zeros(jmax + 1)
        out[0] = 1.0
        return out
    return _nbinom_pmf(np.arange(jmax + 1), m, 0.5)


_last_matrix: np.ndarray | None = None


def transition_matrix(cap: int) -> np.ndarray:
    """Rows k = 0..cap: law of the next generation truncated to 0..cap.

    The last matrix built is kept and returned read-only: the iterated laws
    and barrier sweeps ask for one cap many times in a row.  Only one is
    kept, and it is dropped before another is built.
    """
    global _last_matrix
    if _last_matrix is not None and len(_last_matrix) == cap + 1:
        return _last_matrix
    _last_matrix = None
    M = np.zeros((cap + 1, cap + 1))
    M[0, 0] = 1.0
    ks = np.arange(1, cap + 1)
    M[1:, :] = _nbinom_pmf(np.arange(cap + 1)[None, :], ks[:, None], 0.5)
    M.flags.writeable = False
    _last_matrix = M
    return M


def iterate_law(m: int, k: int, cap: int) -> np.ndarray:
    """Law of T_k from T_0 = m by k exact convolution steps, truncated at cap."""
    law = np.zeros(cap + 1)
    if m > cap:
        raise ValueError("initial population beyond truncation cap")
    law[m] = 1.0
    M = transition_matrix(cap)
    for _ in range(k):
        law = law @ M
    return law


def gw_joint_prob(m: int, vec) -> float:
    """P_m[(T_1, ..., T_k) = vec] by the Markov chain of NB transitions."""
    prob = 1.0
    prev = m
    for v in vec:
        if prev == 0:
            prob *= 1.0 if v == 0 else 0.0
        else:
            prob *= float(_nbinom_pmf(v, prev, 0.5))
        prev = v
    return prob


# -- reflecting 1-D walk traversal counts ------------------------------------


def srw_traversal_counts(L: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Edge up-crossing counts (T_0, ..., T_{L-1}) of the walk on {0..L}.

    The walk starts at 1 and runs to its m-th visit of 0; T_i counts the
    steps i -> i+1, with the initial position counting into T_0.
    """
    if L < 2 or m < 1:
        raise ValueError("need L >= 2 and m >= 1")
    counts = np.zeros(L, dtype=np.int64)
    counts[0] = 1
    pos = 1
    visits = 0
    while True:
        if pos == 0:
            pos = 1
            counts[0] += 1
        elif pos == L:
            pos = L - 1
        elif rng.integers(0, 2):
            counts[pos] += 1
            pos += 1
        else:
            pos -= 1
        if pos == 0:
            visits += 1
            if visits == m:
                return counts


def srw_traversal_samples(
    L: int, m: int, size: int, rng: np.random.Generator, max_iters: int = 10_000_000
) -> np.ndarray:
    """Vectorised batch of srw_traversal_counts draws, shape (size, L)."""
    pos = np.ones(size, dtype=np.int64)
    visits = np.zeros(size, dtype=np.int64)
    counts = np.zeros((size, L), dtype=np.int64)
    counts[:, 0] = 1
    rows = np.arange(size)
    for _ in range(max_iters):
        active = visits < m
        if not active.any():
            return counts
        coin = rng.integers(0, 2, size=size)
        p = pos[active]
        up = np.where(p == 0, 1, np.where(p == L, 0, coin[active]))
        newp = np.where(up == 1, p + 1, p - 1)
        arow = rows[active]
        upmask = up == 1
        np.add.at(counts, (arow[upmask], p[upmask]), 1)
        visits[arow[newp == 0]] += 1
        pos[arow] = newp
    raise RuntimeError("batch sampler did not absorb within the iteration cap")


def enumerate_traversal_law(
    L: int, m: int, count_cap: int = 12, tol: float = 1e-16, max_iters: int = 20_000
) -> dict[tuple, float]:
    """Exact joint law of (T_0, ..., T_{L-1}) by absorbing-chain propagation.

    Independent of the NB convolution route: the state is the walk position,
    the number of 0-visits, and the capped count vector; mass reaching a
    count above ``count_cap`` is reported under the key ``"overflow"``.
    """
    start_counts = tuple([1] + [0] * (L - 1))
    live: dict[tuple, float] = {(1, 0, start_counts): 1.0}
    absorbed: dict[tuple, float] = {}
    overflow = 0.0

    for _ in range(max_iters):
        if sum(live.values()) < tol:
            break
        nxt: dict[tuple, float] = {}

        def push(state, mass):
            nonlocal overflow
            pos, visits, counts = state
            if counts is None:
                overflow += mass
                return
            if pos == 0:
                if visits == m:
                    absorbed[counts] = absorbed.get(counts, 0.0) + mass
                    return
            nxt[state] = nxt.get(state, 0.0) + mass

        def bump(counts, edge):
            c = counts[edge] + 1
            if c > count_cap:
                return None
            return counts[:edge] + (c,) + counts[edge + 1 :]

        for (pos, visits, counts), mass in live.items():
            if pos == 0:
                push((1, visits, bump(counts, 0)), mass)
            elif pos == L:
                push((L - 1, visits, counts), mass)
            else:
                push((pos + 1, visits, bump(counts, pos)), mass / 2)
                down = pos - 1
                push((down, visits + (1 if down == 0 else 0), counts), mass / 2)
        live = nxt

    leak = sum(live.values()) + overflow
    out = dict(absorbed)
    out["overflow"] = leak
    return out


# -- barrier events -----------------------------------------------------------


@dataclass(frozen=True)
class BarrierSpec:
    """Parameters of the linear-barrier events for the GW population path."""

    L: int
    a: float
    b: float
    x: float
    y: float = 0.0
    C: float = 2.0
    C_tilde: float = 2.0
    epsilon: float = 0.1
    delta_window: float = 0.5
    r: int = 2
    mu: float = 0.25
    eta: float = 1.5

    @property
    def start_population(self) -> int:
        half = self.x**2 / 2
        if abs(half - round(half)) > 1e-9:
            raise ValueError("x^2/2 must be an integer population")
        return int(round(half))

    def violations(self, mode: str) -> list[str]:
        """Preconditions of the barrier estimates; empty when all hold."""
        out = []
        if not 0 < self.epsilon < 0.5:
            out.append("epsilon outside (0, 1/2)")
        if mode == "upper":
            if not (math.sqrt(2) <= self.x <= self.eta * self.L):
                out.append("x outside [sqrt(2), eta*L]")
            if not (math.sqrt(2) <= self.y <= self.eta * self.L):
                out.append("y outside [sqrt(2), eta*L]")
            if not (0 <= self.b <= self.y and 0 <= self.a <= self.x and self.b <= self.a):
                out.append("need 0 <= a <= x, 0 <= b <= y, b <= a")
        else:
            if not 4 * self.r ** (0.5 + 2 * self.epsilon) <= self.mu * self.L:
                out.append("4 r^(1/2+2eps) > mu*L")
            if not self.mu * self.L <= self.a <= self.x <= self.eta * self.L:
                out.append("need mu*L <= a <= x <= eta*L")
            if not self.C * self.r ** (0.5 - self.epsilon) > self.eta:
                out.append("C r^(1/2-eps) <= eta")
            if not self.L > 2 * self.r:
                out.append("L <= 2r")
        return out


def _band_floor(value: float) -> int:
    """Population threshold for sqrt(2T) >= value."""
    if value <= 0:
        return 0
    return math.ceil(value**2 / 2 - 1e-12)


def _band_ceil(value: float) -> int:
    """Population threshold for sqrt(2T) <= value."""
    return math.floor(value**2 / 2 + 1e-12)


def barrier_bands(spec: BarrierSpec, mode: str) -> list[tuple[int, int | None]]:
    """Inclusive (lo, hi) population bands per level 1..horizon; hi None = free.

    Comparisons are restated on integer populations to keep the event
    evaluation bit-stable.
    """
    L = spec.L
    bands: list[tuple[int, int | None]] = []
    if mode == "upper":
        for i in range(1, L):
            iL = min(i, L - i)
            lo = spec.a + (spec.b - spec.a) * i / L - spec.C * iL ** (0.5 - spec.epsilon)
            bands.append((_band_floor(lo), None))
        bands.append((_band_floor(spec.y), _band_ceil(spec.y + spec.delta_window)))
    elif mode == "lower":
        for i in range(1, L - 1):
            if spec.r <= i <= L - 1 - spec.r:
                iL = min(i, L - i)
                lo = spec.a + (spec.b - spec.a) * i / L + spec.C * iL ** (0.5 - spec.epsilon)
                hi = spec.x * (1 - i / L) + spec.C_tilde * iL ** (0.5 + spec.epsilon)
                bands.append((_band_floor(lo), _band_ceil(hi)))
            else:
                bands.append((0, None))
        bands.append((0, 0))
    else:
        raise ValueError("mode must be 'upper' or 'lower'")
    return bands


@dataclass
class MCEstimate:
    successes: int
    trials: int
    p_hat: float = field(init=False)
    ci_lo: float = field(init=False)
    ci_hi: float = field(init=False)

    def __post_init__(self):
        if self.trials <= 0:
            raise ValueError("need at least one trial")
        self.p_hat = self.successes / self.trials
        self.ci_lo, self.ci_hi = wilson_interval(self.successes, self.trials)


def barrier_event_mc(
    spec: BarrierSpec, mode: str, trials: int, rng: np.random.Generator
) -> MCEstimate:
    """Monte Carlo estimate of the barrier event with a Wilson interval."""
    bands = barrier_bands(spec, mode)
    ok = np.ones(trials, dtype=bool)
    generations = gw_generations(np.full(trials, spec.start_population), rng)
    for (lo, hi), pop in zip(bands, generations):  # bands first: no extra draw
        ok &= pop >= lo
        if hi is not None:
            ok &= pop <= hi
    return MCEstimate(successes=int(ok.sum()), trials=trials)


def exact_barrier_probability(spec: BarrierSpec, mode: str, cap: int | None = None) -> float:
    """Band-restricted convolution DP; the exact oracle for barrier_event_mc.

    The truncation cap tracks the population scale, not the band ceilings:
    mass escaping above ~16x the start population is negligible while band
    ceilings (which can be huge under a fat upper envelope) stay applicable.
    """
    bands = barrier_bands(spec, mode)
    m0 = spec.start_population
    if cap is None:
        terminal_hi = bands[-1][1] if bands[-1][1] is not None else 0
        cap = max(256, 16 * m0, 4 * terminal_hi)
    law = np.zeros(cap + 1)
    law[m0] = 1.0
    M = transition_matrix(cap)
    for lo, hi in bands:
        law = law @ M
        if lo > 0:
            law[:lo] = 0.0
        if hi is not None and hi < cap:
            law[hi + 1 :] = 0.0
    return float(law.sum())


def conditioned_extinction_samples(
    m: int, horizon: int, size: int, rng: np.random.Generator, cap: int | None = None
) -> np.ndarray:
    """GW paths conditioned on T_horizon = 0, via the exact h-transform.

    Returns an array (size, horizon + 1) of populations with T_0 = m.
    """
    if cap is None:
        cap = max(64, 4 * m)
    out = np.zeros((size, horizon + 1), dtype=np.int64)
    out[:, 0] = m
    cur = np.full(size, m, dtype=np.int64)
    supp = np.arange(cap + 1)
    M = transition_matrix(cap)
    for step in range(1, horizon + 1):
        left = horizon - step
        if left == 0:
            cur = np.zeros_like(cur)
            out[:, step] = 0
            break
        weight = (1.0 - 1.0 / (left + 1)) ** supp
        prev = cur
        cur = np.zeros_like(prev)
        for k in np.unique(prev):
            sel = prev == k
            pmf = M[k] * weight
            total = pmf.sum()
            if total <= 0:
                raise RuntimeError("conditioned transition has no mass; raise cap")
            cdf = np.cumsum(pmf / total)
            cur[sel] = np.searchsorted(cdf, rng.random(int(sel.sum())))
        out[:, step] = cur
    return out
