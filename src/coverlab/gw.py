"""Critical Galton-Watson process with geometric(1/2) offspring.

Exact laws come from negative-binomial convolutions (one generation from a
population of m is a single NB(m, 1/2) draw); small joint laws are enumerated
from the equivalent reflecting 1-D walk, which provides the independent oracle
for the traversal correspondence.  Barrier events are estimated by Monte Carlo
and checked against a band-restricted convolution DP.

Monte Carlo paths come from one sampler, ``gw_generations``.  It draws each
NB(m, 1/2) by inversion of a tabulated CDF with a guide table (Chen and Asau
1974; Devroye, *Non-Uniform Random Variate Generation*, 1986, section III.2):
one ``rng.random()`` per draw for m <= 64, and a population above 64 adds
draws of at most 64 each, since NB(a) + NB(b) = NB(a + b).

The walk's traversal counts have one batch sampler, ``srw_traversal_samples``,
beside the scalar per-step reference ``srw_traversal_counts``.  It moves every
running walk eight steps with one read of a table keyed by position and a byte
of eight coins (``_srw_tables``), and it draws coin bytes for the running walks
only; its docstring gives the stream layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import _bytes
from .stats import wilson_interval

# NB(m, 1/2) inversion tables: rows m = 0.._NB_ROWS of the CDF on
# j = 0.._NB_COLS - 1, each with _NB_GUIDE guide cells.  Row 0 is the law of
# an extinct path, all mass at 0.
_NB_ROWS = 64
_NB_COLS = 256
_NB_GUIDE = 2048
# the most living paths one generation draws for at a time
_NB_CHUNK = 16_384


@functools.lru_cache(maxsize=1)
def _nb_tables() -> tuple[np.ndarray, np.ndarray]:
    """(cdf, guide): cdf[m, j] = P(NB(m, 1/2) <= j), and guide[m, k] the
    smallest j with cdf[m, j] >= k / _NB_GUIDE.

    The mass beyond the last column is below 2^-60 in every row, so the
    last column is set to 1.0 and every u < 1 finds its quantile.
    """
    from scipy.special import nbdtr, nbdtrc

    cdf = np.ones((_NB_ROWS + 1, _NB_COLS))
    guide = np.zeros((_NB_ROWS + 1, _NB_GUIDE), dtype=np.uint8)
    cols = np.arange(_NB_COLS)
    edges = np.arange(_NB_GUIDE) / _NB_GUIDE
    for m in range(1, _NB_ROWS + 1):
        if not nbdtrc(_NB_COLS - 1, m, 0.5) < 2.0**-60:
            raise RuntimeError(f"NB({m}, 1/2) has mass beyond the table's last column")
        row = cdf[m]
        row[:-1] = nbdtr(cols[:-1], m, 0.5)
        guide[m] = row.searchsorted(edges, side="left")
    cdf.flags.writeable = False
    guide.flags.writeable = False
    return cdf, guide


def _nb_quantile(m, u: np.ndarray) -> np.ndarray:
    """The smallest j with P(NB(m, 1/2) <= j) >= u, per entry of ``u``, for
    0 <= m <= 64 (one m, or one per entry).

    u * 2048 is exact in float64, so the guide cell of u never lies above
    its quantile, and the walk up the CDF row from it ends there.
    """
    cdf, guide = _nb_tables()
    u = np.asarray(u, dtype=float)
    m = np.broadcast_to(np.asarray(m, dtype=np.intp), u.shape)
    row = m * _NB_COLS
    j = guide.ravel()[m * _NB_GUIDE + (u * _NB_GUIDE).astype(np.intp)].astype(np.int64)
    flat = cdf.ravel()
    low = np.flatnonzero(flat[row + j] < u)
    while low.size:
        j[low] += 1
        low = low[flat[row[low] + j[low]] < u[low]]
    return j


def _nb_draws(pop: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One NB(T, 1/2) draw per entry T >= 1 of ``pop``: a first round of
    width min(T, 64) for every entry, then one more round of at most 64 for
    each entry whose population is not spent, each round one rng.random call.
    """
    out = _nb_quantile(np.minimum(pop, _NB_ROWS), rng.random(pop.size))
    rest = pop - _NB_ROWS
    more = np.flatnonzero(rest > 0)
    while more.size:
        out[more] += _nb_quantile(np.minimum(rest[more], _NB_ROWS), rng.random(more.size))
        rest[more] -= _NB_ROWS
        more = more[rest[more] > 0]
    return out


def gw_generations(pop, rng: np.random.Generator):
    """Yield generations T_1, T_2, ... of independent GW paths from T_0 = ``pop``.

    Each generation draws NB(T, 1/2) for the living paths only, in path
    order; extinct paths stay at zero and draw nothing.  Only the current
    generation is kept; the caller must not modify the yielded arrays.

    Stream layout, per generation: the living paths, in index order, go in
    chunks of at most 16 384.  Per chunk, split round r = 0, 1, ... makes one
    ``rng.random(k)`` call, k the number of the chunk's paths with
    T > 64 r, and each such path, in index order, adds the NB(min(T - 64 r,
    64), 1/2) quantile of its uniform (``_nb_quantile``).  The law is
    NB(T, 1/2) up to the float64 rounding of scipy's ``nbdtr`` and the 2^-53
    grid of ``rng.random``.
    """
    pop = np.asarray(pop, dtype=np.int64)
    while True:
        nxt = np.zeros_like(pop)
        alive = np.flatnonzero(pop > 0)
        for start in range(0, alive.size, _NB_CHUNK):
            rows = alive[start : start + _NB_CHUNK]
            nxt[rows] = _nb_draws(pop[rows], rng)
        pop = nxt
        yield pop


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
    # the ufunc behind scipy.stats.nbinom.pmf, bit for bit; importing it from
    # scipy.special skips scipy.stats.  Each function here imports from
    # scipy.special when called, so an experiment that calls none skips it.
    from scipy.special._ufuncs import _nbinom_pmf

    if m == 0:
        out = np.zeros(jmax + 1)
        out[0] = 1.0
        return out
    return _nbinom_pmf(np.arange(jmax + 1), m, 0.5)


@functools.lru_cache(maxsize=1)
def transition_matrix(cap: int) -> np.ndarray:
    """Rows k = 0..cap: law of the next generation truncated to 0..cap.

    The last matrix built is kept and returned read-only: the iterated laws
    and barrier sweeps ask for one cap many times in a row.
    """
    from scipy.special._ufuncs import _nbinom_pmf

    M = np.zeros((cap + 1, cap + 1))
    M[0, 0] = 1.0
    ks = np.arange(1, cap + 1)
    M[1:, :] = _nbinom_pmf(np.arange(cap + 1)[None, :], ks[:, None], 0.5)
    M.flags.writeable = False
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
    from scipy.special._ufuncs import _nbinom_pmf

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


SRW_MAX_ITERS = 10_000_000  # batch sampler steps before it gives up
# the most walks the batch sampler moves at a time
_SRW_CHUNK = 4096


@functools.lru_cache(maxsize=None)
def _srw_tables(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(end, hits, inc, upto): eight steps of the walk on {0..L} from each
    position p under each coin byte b, keyed p * 256 + b, coin k being bit k
    of b and each step the rule of ``srw_traversal_counts``.

    end[key] is the position after the eight steps and hits[key] the number
    of 0-visits among them; inc[key] holds the up-crossings per edge over
    the eight steps, and upto[key, v] those up to the step of the v-th
    0-visit, v = 1..4: eight steps hold at most four.
    """
    keys = np.arange((L + 1) * 256)
    pos, byte = keys >> 8, keys & 255
    hits = np.zeros(keys.size, dtype=np.intp)
    inc = np.zeros((keys.size, L), dtype=np.int8)
    upto = np.zeros((keys.size, 5, L), dtype=np.int8)
    for k in range(8):
        up = np.flatnonzero((pos == 0) | ((pos != L) & (byte >> k & 1 == 1)))
        inc[up, pos[up]] += 1
        pos = pos - 1
        pos[up] += 2
        zero = np.flatnonzero(pos == 0)
        hits[zero] += 1
        upto[zero, hits[zero]] = inc[zero]
    return pos, hits, inc, upto


def srw_traversal_samples(
    L: int, m: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Batch of ``size`` srw_traversal_counts draws, int64 of shape (size, L).

    Every round moves each running walk eight steps with one read of
    ``_srw_tables(L)`` and draws coins for the running walks only.

    Stream layout: the walks go in chunks of at most 4 096, in index order,
    each chunk run until all its walks finish.  Per chunk, each round makes
    one ``rng.bit_generator.random_raw(ceil(R / 8))`` call, R the number of
    the chunk's running walks, and running walk j, in index order, takes
    byte j of those words read little-endian (``lattice._bytes``); its k-th
    step of the round, k = 0..7, reads coin bit k of the byte, used only
    strictly between 0 and L.  A walk whose m-th 0-visit falls in the round
    stops there, and the rest of its byte goes unused.
    """
    if L < 2 or m < 1:
        raise ValueError("need L >= 2 and m >= 1")
    end, hits, inc, upto = _srw_tables(L)
    bits = rng.bit_generator
    out = np.empty((size, L), dtype=np.int64)
    for lo in range(0, size, _SRW_CHUNK):
        rows = np.arange(lo, min(lo + _SRW_CHUNK, size))  # the running walks
        acc = np.zeros((rows.size, L), dtype=np.int32)  # their counts so far
        acc[:, 0] = 1
        pos = np.ones(rows.size, dtype=np.intp)
        visits = np.zeros(rows.size, dtype=np.intp)
        for _ in range(SRW_MAX_ITERS // 8):
            key = pos * 256 + _bytes(bits.random_raw(-(-rows.size // 8)))[: rows.size]
            now = visits + hits[key]
            done = now >= m
            if done.any():
                d = np.flatnonzero(done)
                out[rows[d]] = acc[d] + upto[key[d], m - visits[d]]
                run = ~done
                rows, key, now, acc = rows[run], key[run], now[run], acc[run]
                if not rows.size:
                    break
            acc += inc[key]
            pos, visits = end[key], now
        else:
            raise RuntimeError("batch sampler did not absorb within the iteration cap")
    return out


# enumerate_traversal_law: counts above ENUM_COUNT_CAP overflow
ENUM_COUNT_CAP = 14


def enumerate_traversal_law(L: int, m: int) -> dict[tuple, float]:
    """Exact joint law of (T_0, ..., T_{L-1}) by absorbing-chain propagation.

    Independent of the NB convolution route: the state is the walk position,
    the number of 0-visits, and the capped count vector; mass reaching a
    count above ``ENUM_COUNT_CAP`` is reported under the key ``"overflow"``.
    A state fixes its step number, so stepping merges paths exactly, and the
    cap empties the live set within finitely many steps.
    """
    start_counts = tuple([1] + [0] * (L - 1))
    live: dict[tuple, float] = {(1, 0, start_counts): 1.0}
    absorbed: dict[tuple, float] = {}
    overflow = 0.0

    while live:
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
            if c > ENUM_COUNT_CAP:
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

    out = dict(absorbed)
    out["overflow"] = overflow
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
    m: int, horizon: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """GW paths conditioned on T_horizon = 0, via the exact h-transform.

    Returns an array (size, horizon + 1) of populations with T_0 = m.
    """
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
