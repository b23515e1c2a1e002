import math

import numpy as np
import pytest

from coverlab.schedule import (
    BarrierCurve,
    Inequality,
    ParamSet,
    ProbTable,
    b_tilde_curve,
    bump_lower,
    bump_upper,
    derive_scales,
    late_window,
    linear_barrier,
    prob_table,
    toy_scales,
    transfer_bracket,
    validate_params,
)


def test_validate_params_all_pass():
    report = validate_params(ParamSet(n=64, delta=0.05, alpha=0.2, beta=0.35, gamma=0.96))
    assert all(iq.passed for iq in report)
    # the documented slacks: 1.02 > 1, 0.315 > 0.2, 0.55 > 0.54
    assert report[0].lhs == pytest.approx(1.02)
    assert report[1].lhs == pytest.approx(0.315)
    assert report[2].lhs == pytest.approx(0.55)
    assert report[2].rhs == pytest.approx(0.54)


def test_validate_params_third_fails():
    report = validate_params(ParamSet(n=64, delta=0.1, alpha=0.05, beta=0.3, gamma=0.95))
    assert report[0].passed and report[1].passed and not report[2].passed


def test_validate_params_first_fails_for_large_beta():
    for gamma in (0.6, 0.9, 0.99):
        report = validate_params(ParamSet(n=64, delta=0.05, alpha=0.1, beta=0.5, gamma=gamma))
        assert not report[0].passed


def test_derive_scales_radii_identities():
    sc = derive_scales(ParamSet(n=10**6))
    assert sc.radii[-1] == 1.0
    for a, b in zip(sc.radii, sc.radii[1:]):
        assert a / b == pytest.approx(sc.ell, rel=1e-12)
    assert sc.m_minus <= sc.m_plus
    assert sc.L >= 1
    # m+ - m- is 4 s log n / log ell up to the floor/ceil rounding
    target = 4 * sc.s * math.log(sc.n) / math.log(sc.ell)
    assert abs((sc.m_plus - sc.m_minus) - target) <= 2


def test_derive_scales_small_n_guards():
    with pytest.raises(ValueError):
        derive_scales(ParamSet(n=8))
    with pytest.raises(ValueError):
        # huge c_star drives L below 1
        derive_scales(ParamSet(n=16, c_star=50.0))


def test_validate_params_reports_the_violated_constraint():
    p = ParamSet(n=10**6, delta=0.1, alpha=0.05, beta=0.3, gamma=0.95)
    bad = [iq.name for iq in validate_params(p) if not iq.passed]
    assert bad == ["alpha + beta > 1/2 + delta - alpha*delta"]


def test_d_n_properties():
    sc = toy_scales(64, 4, 2.0)
    # exact integer ratio: ceiling is idempotent there
    s_exact = 3 * math.log(sc.ell) / sc.loglog
    assert sc.d_n(s_exact) == 3
    values = [sc.d_n(s) for s in np.linspace(0.1, 8.0, 60)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    # spot value recomputed directly
    assert sc.d_n(2.0) == math.ceil(2.0 * sc.loglog / math.log(sc.ell))
    with pytest.raises(ValueError):
        sc.d_n(0.0)


def test_linear_barrier_endpoints_and_iL():
    f = linear_barrier(3.0, 7.0, 10)
    assert f(0) == 3.0
    assert f(10) == 7.0
    assert f(5) == 5.0


def test_bumps_vanish_at_endpoints_and_min_of_branches():
    L, delta = 9, 0.1
    assert bump_lower(0, L, delta) == 0
    assert bump_lower(L - 1, L, delta) == 0
    assert bump_upper(L - 1, L, delta) == 0
    mid = (L - 1) / 2
    for s in np.linspace(0, L - 1, 17):
        lo = bump_lower(s, L, delta)
        expected = min(s ** (0.5 - delta), (L - 1 - s) ** (0.5 - delta))
        assert lo == pytest.approx(expected)
    with pytest.raises(ValueError):
        bump_lower(-0.5, L, delta)


def test_a_minus_clamps_at_one():
    sc = toy_scales(64, 4, 2.0)
    curve = BarrierCurve("a_minus", sc, kappa=50.0)  # kappa large: linear part < 1
    assert curve(3) == 1


def test_a_plus_dominates_centering_square():
    sc = toy_scales(128, 5, 2.0)
    curve = BarrierCurve("a_plus", sc, kappa=2.0)
    for i in range(1, sc.L):
        assert curve(i) >= sc.m_plus * (1 - i / sc.L) ** 2


def test_b_curves_ordered_on_window():
    sc = toy_scales(128, 5, 2.0, m_minus=25)
    b_lo = BarrierCurve("b_minus", sc, delta=0.2)
    b_hi = BarrierCurve("b_plus", sc, delta=0.2)
    for i in late_window(sc):
        assert b_lo(i) <= b_hi(i)


def test_curve_domain_errors():
    sc = toy_scales(64, 4, 2.0)
    with pytest.raises(ValueError):
        BarrierCurve("a_plus", sc)(0)
    with pytest.raises(ValueError):
        BarrierCurve("b_minus", sc)(sc.L)


def test_prob_table_exact_for_zero_constants():
    table = prob_table([16.0, 8.0, 4.0, 2.0, 1.0], c1=0.0, c2=0.0)
    for i1 in range(4):
        for i2 in range(i1 + 1, 5):
            for i3 in range(i2 + 1, 5):
                frac = (i2 - i1) / (i3 - i1)
                assert table.p_in(i1, i2, i3, +1) == pytest.approx(frac, abs=1e-12)
                assert table.delta_in(i1, i2, i3, -1) == pytest.approx(1.0, abs=1e-12)
                assert table.delta_out(i1, i2, i3, +1) == pytest.approx(1.0, abs=1e-12)


def test_prob_table_log_ratio_example():
    # r=4, d=8, R=16 with c1=0: probability 1/2
    table = prob_table([16.0, 8.0, 4.0, 1.0], c1=0.0, c2=0.0)
    assert table.p_in(0, 1, 2, +1) == pytest.approx(0.5)


def test_prob_table_bracket_order_and_complement():
    table = prob_table([16.0, 8.0, 4.0, 2.0, 1.0], c1=1.0, c2=1.0)
    for i1, i2, i3 in ((0, 1, 2), (0, 2, 4), (1, 2, 3), (1, 3, 4)):
        assert table.p_in(i1, i2, i3, +1) >= table.p_in(i1, i2, i3, -1)
        assert table.p_out(i1, i2, i3, +1) == pytest.approx(
            1.0 - table.p_in(i1, i2, i3, -1)
        )


def test_prob_table_index_validation():
    table = prob_table([8.0, 4.0, 1.0])
    with pytest.raises(ValueError):
        table.p_in(1, 1, 2, +1)
    with pytest.raises(ValueError):
        table.p_in(2, 1, 0, +1)


def test_delta_approaches_one_as_ell_doubles():
    # same index structure, doubled ratio: |Delta - 1| strictly shrinks
    t2 = prob_table([8.0, 4.0, 2.0, 1.0], c1=1.0, c2=1.0)
    t4 = prob_table([64.0, 16.0, 4.0, 1.0], c1=1.0, c2=1.0)
    for i1, i2, i3 in ((0, 1, 2), (0, 1, 3), (1, 2, 3)):
        d2 = abs(t2.delta_in(i1, i2, i3, +1) - 1)
        d4 = abs(t4.delta_in(i1, i2, i3, +1) - 1)
        assert d4 < d2


def test_transfer_bracket_contains_one_for_small_constants():
    table = prob_table([16.0, 8.0, 4.0, 2.0, 1.0], c1=0.5, c2=0.5)
    lo, hi = transfer_bracket(table, k=1, ktilde=1, m=1, m_vec={1: 1, 2: 0, 3: 0})
    assert lo <= 1.0 <= hi
    lo0, hi0 = transfer_bracket(
        prob_table([16.0, 8.0, 4.0, 2.0, 1.0], c1=0.0, c2=0.0),
        k=1, ktilde=1, m=1, m_vec={1: 1, 2: 0, 3: 0},
    )
    assert lo0 == pytest.approx(1.0) and hi0 == pytest.approx(1.0)
    # the no-terminal-clause variant drops the star factor
    lo_ns, hi_ns = transfer_bracket(
        table, k=1, ktilde=1, m=1, m_vec={1: 1, 2: 0, 3: 0}, include_star=False
    )
    assert hi_ns <= hi


def test_b_tilde_curve_evaluates():
    sc = toy_scales(128, 5, 2.0)
    curve = b_tilde_curve(m=9, k=1, scales=sc, kappa=2.5)
    v = curve(2)
    assert isinstance(v, int) and v >= 1


def test_toy_scales_radii_and_window():
    sc = toy_scales(64, 4, 2.0)
    assert sc.radii == (16.0, 8.0, 4.0, 2.0, 1.0)
    w = late_window(toy_scales(128, 5, 2.0))
    assert list(w) == [2]
