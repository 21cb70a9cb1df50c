"""Dominance certificates: closed forms, bounds, and level reports."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerdom.dominance import (
    arithgeo_closed_form,
    dominance_report,
    finite_n_lower_bound,
    limit_diagnostics,
    limit_profile,
    lower_estimate_check,
    reference_constant,
    report_to_dict,
)
from folnerdom.schedules import Schedule


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64),
    st.integers(min_value=1, max_value=64),
)
def test_arithgeo_matches_brute_sum(r, N):
    brute = sum(j * (1 - r) ** (j - 1) for j in range(N))
    assert arithgeo_closed_form(r, N) == brute


def test_arithgeo_rejects_bad_inputs():
    with pytest.raises(ValueError):
        arithgeo_closed_form(Fraction(0), 4)
    with pytest.raises(ValueError):
        arithgeo_closed_form(Fraction(1, 2), 0)


def test_finite_n_lower_bound_examples():
    # lamF = lamE, r_n = 1/2, r_{n+1} = 1/4, N = 2:
    # (1/2)((1 - 1/4)/(1) - 1/2) = 1/8
    assert finite_n_lower_bound(5, 5, Fraction(1, 2), Fraction(1, 4), 2) == Fraction(1, 8)
    # N = 1 gives (lamF/lamE)(1 - r')( (1-q)/r - 1 ) = 0
    assert finite_n_lower_bound(3, 7, Fraction(1, 2), Fraction(1, 4), 1) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=32),
)
def test_bound_equals_tail_weighted_arithgeo(lamF, lamE, c, N):
    """Cross-formulation identity: the bound equals
    (lamF/lamE) (r_n - r_{n+1}) arithgeo(r_n, N) / N for any tail base."""
    s = Schedule(tail_base=c)
    n = 2
    rn, rp = s.r(n), s.r(n + 1)
    direct = finite_n_lower_bound(lamF, lamE, rn, rp, N)
    via_sum = Fraction(lamF, lamE) * (rn - rp) * arithgeo_closed_form(rn, N) / N
    assert direct == via_sum


def test_limit_profile_positive_and_reference():
    assert limit_profile(2.0) == pytest.approx((1 - 1 / 2.718281828**2) / 2 - 1 / 2.718281828**2, rel=1e-6)
    for x in (0.1, 1.0, 2.0, 10.0):
        assert limit_profile(x) > 0
    # at the standard schedule r_n N(n) = 2 and the prefactor is 1/2 * 1/2
    assert reference_constant() == pytest.approx(0.25 * limit_profile(2.0) * 2)
    assert reference_constant() == pytest.approx(0.1484985, abs=1e-6)


def test_limit_diagnostics_standard_schedule():
    rows = limit_diagnostics(Schedule(depth=2), range(2, 12))
    for row in rows:
        assert row["r_N"] == pytest.approx(2.0)  # r_n N(n) = 2^{1-n} 2^n
        assert row["gap"] >= 0
    assert rows[-1]["gap"] < rows[0]["gap"]  # (1-r)^N -> e^{-rN}


def test_z_reports_pass_exactly(z_reports):
    for n, rep in z_reports.items():
        assert rep.verdict == "pass"
        assert not rep.tainted
        assert rep.min_scaled >= rep.bound > 0
        assert rep.c_emp == 1 / rep.min_scaled
    r2, r3 = z_reports[2], z_reports[3]
    assert (r2.card_F, r2.card_E, r2.N) == (33, 49, 4)
    assert r2.bound == Fraction(363, 3136)
    assert (r3.card_F, r3.card_E, r3.N) == (1025, 1601, 8)
    assert r3.bound == Fraction(42515975, 419692544)


def test_depth2_chain_level2_exact_value(z_chain2):
    rep = dominance_report(z_chain2, 2)
    assert rep.min_scaled == Fraction(4070847, 30118144)
    assert rep.bound == Fraction(363, 3136)
    assert rep.verdict == "pass"


def test_scaled_by_envelope_near_limit(z_reports):
    ref = reference_constant()
    assert float(z_reports[2].scaled_by_envelope()) > ref
    assert float(z_reports[3].scaled_by_envelope()) > ref


def test_lamplighter_report(ll_report):
    assert ll_report.verdict == "pass"
    assert ll_report.min_scaled >= ll_report.bound
    # (56/1600)(1 - r_3/r_2)((1 - (1/2)^4)/(r_2 * 4) - (1/2)^3) = 77/12800
    assert ll_report.bound == Fraction(77, 12800)
    assert ll_report.bound == finite_n_lower_bound(
        56, 1600, Fraction(1, 2), Fraction(1, 4), 4
    )
    assert float(ll_report.c_emp) < 100


def test_lower_estimate_small_j(z_chain2):
    for j in (1, 2, 3):
        ok, slack = lower_estimate_check(z_chain2, 2, j)
        assert ok and slack >= 0
    ok1, _ = lower_estimate_check(z_chain2, 1, 1)
    assert ok1
    with pytest.raises(ValueError):
        lower_estimate_check(z_chain2, 2, 4)  # j must stay below N(2) = 4


def test_min_scaled_cap_is_sound(z_chain2):
    exact = dominance_report(z_chain2, 2)
    capped = dominance_report(z_chain2, 2, cap=40)
    assert not exact.tainted and capped.tainted
    # capping only ever lowers the certified value
    assert capped.min_scaled <= exact.min_scaled


def test_report_dict_shape(z_reports):
    rep = z_reports[2]
    d = report_to_dict(rep)
    assert d["min_scaled"] == {
        "num": str(rep.min_scaled.numerator),
        "den": str(rep.min_scaled.denominator),
    }
    assert d["c_emp"] == {
        "num": str(rep.min_scaled.denominator),
        "den": str(rep.min_scaled.numerator),
    }
    assert d["verdict"] == "pass" and d["tainted"] is False
    # infinity sentinel
    d_inf = report_to_dict(rep._replace(c_emp=None))
    assert d_inf["c_emp"] == "inf"


def test_report_requires_built_level(z_chain2):
    with pytest.raises(ValueError):
        dominance_report(z_chain2, 3)
