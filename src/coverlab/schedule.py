"""Deterministic parameter arithmetic: scale families, control curves, and
circle-to-circle probability tables.

Everything here is pure double-precision arithmetic with integer rounding
exactly where the ceil/floor prescriptions sit.  The asymptotic parameter
constraints are reported by ``validate_params`` and never enforced: at desk
scale they are unreachable, so experiments may instead supply a directly
specified toy (L, ell) schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .excursions import validate_radii


@dataclass(frozen=True)
class ParamSet:
    """Free parameters of the scale family and its constraints; the unknown
    paper constant c_star defaults to a plotting value and is never asserted
    as ground truth."""

    n: int
    delta: float = 0.05
    gamma: float = 0.96
    alpha: float = 0.2
    beta: float = 0.35
    c_star: float = 2.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("torus side too small")
        if not 0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        for name in ("gamma", "alpha", "beta"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must lie in (0, 1)")


@dataclass(frozen=True)
class Inequality:
    name: str
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs > self.rhs


def validate_params(p: ParamSet) -> list[Inequality]:
    """Report, per constraint, its two sides and pass/fail (never raises)."""
    return [
        Inequality("2*gamma - 2*beta - alpha > 1", 2 * p.gamma - 2 * p.beta - p.alpha, 1.0),
        Inequality("(1 - 2*delta)*beta > alpha", (1 - 2 * p.delta) * p.beta, p.alpha),
        Inequality(
            "alpha + beta > 1/2 + delta - alpha*delta",
            p.alpha + p.beta,
            0.5 + p.delta - p.alpha * p.delta,
        ),
    ]


@dataclass(frozen=True)
class DerivedScales:
    """The scale family: ratio ell, window w, depth L, fluctuation s, crossing
    numbers m+-, and the geometric radii r_k = ell^(L-k)."""

    n: int
    ell: float
    w: float
    L: int
    s: float
    m_plus: int
    m_minus: int
    radii: tuple[float, ...]
    loglog: float = field(default=0.0)

    def d_n(self, s: float) -> int:
        if s <= 0:
            raise ValueError("s must be positive")
        return math.ceil(s * self.loglog / math.log(self.ell))


def derive_scales(p: ParamSet) -> DerivedScales:
    """All scales from the exact formulas: ell and L here, the rest as in
    ``toy_scales``.  The asymptotic parameter constraints are not enforced
    (they cannot hold at desk-scale n); ``validate_params`` reports them."""
    if p.n < 16:
        raise ValueError("need n >= 16 so that log log n > 0")
    logn = math.log(p.n)
    loglog = math.log(logn)
    ell = math.exp(loglog**p.alpha)
    w = loglog**p.beta
    L = math.floor(logn / math.log(ell) - p.c_star * w)
    if L < 1:
        raise ValueError("L < 1: n too small for the chosen (alpha, beta, c_star)")
    return toy_scales(p.n, L, ell, p)


def toy_scales(
    n: int,
    L: int,
    ell: float,
    p: ParamSet | None = None,
    m_minus: int | None = None,
) -> DerivedScales:
    """Directly specified geometric schedule r_k = ell^(L-k) with the window,
    fluctuation and crossing numbers recomputed from the toy ratio."""
    if not ell > 1:
        raise ValueError(f"a toy schedule needs ell > 1 (got ell = {ell:g})")
    if p is None:
        p = ParamSet(n=n)
    logn = math.log(n)
    loglog = math.log(logn)
    w = loglog**p.beta
    s = loglog**p.gamma
    base = 2 * logn**2 / math.log(ell)
    m_plus = math.floor((1 - loglog / (2 * logn) + s / logn) * base)
    if m_minus is None:
        m_minus = math.ceil((1 - loglog / (2 * logn) - s / logn) * base)
    radii = tuple(float(ell) ** (L - k) for k in range(L + 1))
    validate_radii(radii, n=n)
    return DerivedScales(
        n=n, ell=float(ell), w=w, L=L, s=s, m_plus=m_plus, m_minus=m_minus, radii=radii,
        loglog=loglog,
    )


# -- control curves ---------------------------------------------------------


def linear_barrier(a: float, b: float, L: int):
    """f_{a,b}(i; L) = a + (b - a) i / L."""

    def f(i: float) -> float:
        return a + (b - a) * i / L

    return f


def bump_lower(s: float, L: int, delta: float) -> float:
    """min(s, L-1-s)^(1/2-delta) on [0, L-1]."""
    if not 0 <= s <= L - 1:
        raise ValueError("argument outside [0, L-1]")
    return min(s ** (0.5 - delta), (L - 1 - s) ** (0.5 - delta))


def bump_upper(s: float, L: int, delta: float) -> float:
    """min(s, L-1-s)^(1/2+delta) on [0, L-1]."""
    if not 0 <= s <= L - 1:
        raise ValueError("argument outside [0, L-1]")
    return min(s ** (0.5 + delta), (L - 1 - s) ** (0.5 + delta))


@dataclass(frozen=True)
class BarrierCurve:
    """Evaluable control curve; kind selects the formula and rounding."""

    kind: str  # a_plus | a_minus | b_plus | b_minus
    scales: DerivedScales
    kappa: float = 2.0
    delta: float = 0.05

    def __call__(self, i):
        sc = self.scales
        L = sc.L
        if self.kind == "a_plus":
            if not 1 <= i <= L - 1:
                raise ValueError("a_plus is defined on 1..L-1")
            root = math.sqrt(sc.m_plus) * (1 - i / L) + self.kappa * math.sqrt(
                (i + 1) * (L - i) / (L + 1)
            ) * math.sqrt(sc.loglog)
            return math.ceil(root**2)
        if self.kind == "a_minus":
            if not 1 <= i <= L - 1:
                raise ValueError("a_minus is defined on 1..L-1")
            root = max(
                math.sqrt(sc.m_plus) * (1 - i / L)
                - self.kappa * sc.loglog / math.sqrt(math.log(sc.ell)),
                1.0,
            )
            return math.floor(root**2)
        if self.kind == "b_minus":
            root = (1 - i / L) * math.sqrt(sc.m_minus) + bump_lower(i, L, self.delta)
            return math.ceil(root**2)
        if self.kind == "b_plus":
            root = (1 - i / L) * math.sqrt(sc.m_minus) + bump_upper(i, L, self.delta)
            return math.floor(root**2)
        raise ValueError(f"unknown curve kind {self.kind!r}")


def b_tilde_curve(m: int, k: int, scales: DerivedScales, kappa: float = 2.5):
    """Auxiliary upper curve for intermediate-level traversal envelopes."""
    L = scales.L
    loglog = scales.loglog

    def curve(i: int) -> int:
        root = math.sqrt(m) * (1 - (i + 1 - k) / (L + 1 - k)) + kappa * math.sqrt(
            (i - k + 1) * (L - i) / (L + 1 - k)
        ) * math.sqrt(loglog)
        return math.ceil(root**2)

    return curve


def late_window(scales: DerivedScales) -> range:
    """Integer levels i with w_n <= i <= L_n - 1 - w_n."""
    lo = math.ceil(scales.w)
    hi = math.floor(scales.L - 1 - scales.w)
    return range(lo, hi + 1)


# -- circle-to-circle probability table --------------------------------------


class ProbTable:
    """Bracketing probabilities p and error ratios Delta for a radii schedule.

    For index triples i1 < i2 < i3: the "inward" entry brackets the chance of
    reaching circle i3 before circle i1 starting from circle i2; the "outward"
    entry is its complement (1 - p with the opposite sign).  Entries with
    i3 = L use the hit-a-point error form with constant c2.
    """

    def __init__(self, radii, c1: float = 1.0, c2: float = 1.0):
        self.radii = validate_radii(radii)
        self.L = len(self.radii) - 1
        self.c1 = float(c1)
        self.c2 = float(c2)

    def _check(self, i1: int, i2: int, i3: int):
        if not 0 <= i1 < i2 < i3 <= self.L:
            raise ValueError(f"need 0 <= i1 < i2 < i3 <= L, got {(i1, i2, i3)}")

    def p_in(self, i1: int, i2: int, i3: int, sign: int) -> float:
        self._check(i1, i2, i3)
        R = self.radii
        num = math.log(R[i1] / R[i2])
        if i3 == self.L:
            err = self.c2 * (1.0 / R[i2] + 1.0 / math.log(R[i1]))
            den = math.log(R[i1])
        else:
            err = self.c1 / R[i3]
            den = math.log(R[i1] / R[i3])
        return (num + sign * err) / den

    def p_out(self, i1: int, i2: int, i3: int, sign: int) -> float:
        return 1.0 - self.p_in(i1, i2, i3, -sign)

    def delta_in(self, i1: int, i2: int, i3: int, sign: int) -> float:
        return self.p_in(i1, i2, i3, sign) / ((i2 - i1) / (i3 - i1))

    def delta_out(self, i1: int, i2: int, i3: int, sign: int) -> float:
        return self.p_out(i1, i2, i3, sign) / ((i3 - i2) / (i3 - i1))


def prob_table(radii, c1: float = 1.0, c2: float = 1.0) -> ProbTable:
    return ProbTable(radii, c1=c1, c2=c2)


def transfer_bracket(
    table: ProbTable, k: int, ktilde: int, m: int, m_vec, include_star: bool = True
) -> tuple[float, float]:
    """Multiplicative error bracket [Delta1- * Dstar-, Delta1+ * Dstar+] for the
    traversal-vector event {T_i = m_i on k..L-ktilde-1, T_{L-1} = 0}.

    ``m_vec[i]`` holds m_i for k <= i <= L - ktilde - 1; requires k >= 1.
    With ``include_star=False`` the terminal factor is replaced by 1, which is
    the bracket variant for the event without its {T_{L-1} = 0} clause.
    """
    L = table.L
    if k < 1:
        raise ValueError("bracket computation requires k >= 1")
    hi_end = L - ktilde - 1
    if hi_end < k:
        raise ValueError("empty window")

    def one_side(sign: int) -> float:
        pick = max if sign > 0 else min
        val = pick(
            table.delta_out(0, 1, k + 1, sign), table.delta_in(0, 1, k + 1, sign)
        ) ** m
        val *= pick(
            table.delta_out(0, k, k + 1, sign), table.delta_in(0, k, k + 1, sign)
        ) ** m_vec[k]
        for i in range(k + 1, hi_end + 1):
            val *= pick(
                table.delta_out(i - 1, i, i + 1, sign), table.delta_in(i - 1, i, i + 1, sign)
            ) ** (m_vec[i - 1] + m_vec[i])
        if include_star:
            val *= table.delta_out(hi_end, hi_end + 1, L, sign) ** m_vec[hi_end]
        return val

    return one_side(-1), one_side(+1)
