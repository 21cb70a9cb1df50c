"""Dominance certificates: closed forms, bounds, and level reports."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerdom import cli, dominance
from folnerdom.chains import Chain, build_chain
from folnerdom.dominance import (
    dominance_report,
    finite_n_lower_bound,
    level_densities,
    lower_estimate_slacks,
)
from folnerdom.groups import Heisenberg, word_ball
from folnerdom.measures import convolve_at
from folnerdom.schedules import Schedule
from folnerdom.sets import FiniteSubset

from conftest import z_interval
from lemmas import arithgeo_closed_form, limit_profile


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
    assert cli.REFERENCE_CONSTANT == pytest.approx(0.25 * limit_profile(2.0) * 2)
    assert cli.REFERENCE_CONSTANT == pytest.approx(0.1484985, abs=1e-6)


def test_limit_diagnostics_standard_schedule():
    # the quantities `sweep` prints: (1-r_n)^N(n) against e^(-r_n N(n))
    sched = Schedule(depth=2)
    gaps = []
    for n in range(2, 12):
        r, N = sched.r(n), sched.N(n)
        assert r * N == 2  # r_n N(n) = 2^{1-n} 2^n
        gaps.append(abs(float((1 - r) ** N) - math.exp(-float(r * N))))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))  # (1-r)^N -> e^{-rN}


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
    for rep in (z_reports[2], z_reports[3]):
        assert float(rep.min_scaled * Fraction(rep.card_E, rep.card_F)) > cli.REFERENCE_CONSTANT


def test_lamplighter_report(ll_report):
    assert ll_report.verdict == "pass"
    assert ll_report.min_scaled >= ll_report.bound
    # (56/1600)(1 - r_3/r_2)((1 - (1/2)^4)/(r_2 * 4) - (1/2)^3) = 77/12800
    assert ll_report.bound == Fraction(77, 12800)
    assert ll_report.bound == finite_n_lower_bound(
        56, 1600, Fraction(1, 2), Fraction(1, 4), 4
    )
    assert float(ll_report.c_emp) < 100


def _heisenberg_chain() -> Chain:
    """F_n = E_n = the Heisenberg balls of radii 1 and 2, by hand: small
    enough for the full omega^(3), which build_chain's E_2 would not be."""
    H = Heisenberg()
    balls = [FiniteSubset(H, word_ball(H, r)) for r in (1, 2)]
    sched = Schedule(depth=2)
    return Chain(balls, balls, sched)


def test_level_densities_match_full_powers(z_chain2):
    # on Z (Kronecker kernel) and on Heisenberg (pairwise loop): the walk
    # prefix and the pointwise top power against the full convolutions
    for chain in (z_chain2, _heisenberg_chain()):
        for n in (1, 2):
            F, N = chain.level(n)[0], chain.schedule.N(n)
            dens, tainted = level_densities(chain, n)
            full = chain.powers(N - 1)
            assert not tainted and len(dens) == N
            for j in range(N):
                assert dens[j] == {g: full[j].mass(g) for g in F}, (chain.group.token(), n, j)
        # the certificate (from level 2 on) is the Cesaro sum of the full powers
        direct = min(sum(p.mass(g) for p in full) for g in F) * len(F) / N
        assert dominance_report(chain, 2).min_scaled == direct


def test_lower_estimate_small_j(z_chain2):
    sched = z_chain2.schedule
    by_level = {
        1: lower_estimate_slacks(z_chain2, 1, level_densities(z_chain2, 1)[0]),
        2: dominance_report(z_chain2, 2).lower_slacks,
    }
    for n, slacks in by_level.items():
        F, E = z_chain2.level(n)
        assert len(slacks) == sched.N(n) - 1
        for j, slack in enumerate(slacks, 1):
            assert slack >= 0
            # the same slack as a fresh convolve_at on top of omega^(j-1)
            dens = convolve_at(z_chain2.powers(j - 1)[-1], z_chain2.omega, F.elements)
            bound = sched.head(n) ** (j - 1) * sched.t(n) * j / len(E)
            assert slack == min(dens[g] - bound for g in F)


def test_failed_lower_estimate_fails_the_level(z_chain2, monkeypatch):
    monkeypatch.setattr(dominance, "lower_estimate_slacks", lambda *args: [-1])
    rep = dominance_report(z_chain2, 2)
    assert rep.min_scaled >= rep.bound > 0
    assert rep.verdict == "fail"


def test_min_scaled_cap_is_sound(z_chain2):
    exact = dominance_report(z_chain2, 2)
    # the sets have at most 49 elements, omega^(2) has 97 atoms
    chain = build_chain([z_interval(2), z_interval(16)], Schedule(depth=2), cap=60)
    capped = dominance_report(chain, 2)
    assert not exact.tainted and capped.tainted
    # capping only ever lowers the certified value
    assert capped.min_scaled == Fraction(4065765, 30118144) <= exact.min_scaled
    assert exact.min_scaled == Fraction(4070847, 30118144)


def test_report_dict_shape(z_chain2, tmp_path):
    # the level that `dominate` writes for configs/z_depth3.json at depth 2, whose chain is z_chain2
    config = str(Path(__file__).resolve().parent.parent / "configs" / "z_depth3.json")
    assert cli.main(["dominate", "--config", config, "--depth", "2", "--out", str(tmp_path)]) == 0
    rep = dominance_report(z_chain2, 2)
    d = json.loads((tmp_path / "dominance.json").read_text())["levels"][0]
    assert set(d) == {
        "n", "card_F", "card_E", "N", "min_scaled", "bound", "c_emp", "verdict", "tainted", "truncation_depth"
    }
    assert d["min_scaled"] == {
        "num": str(rep.min_scaled.numerator),
        "den": str(rep.min_scaled.denominator),
    }
    assert d["c_emp"] == {
        "num": str(rep.min_scaled.denominator),
        "den": str(rep.min_scaled.numerator),
    }
    assert d["verdict"] == "pass" and d["tainted"] is False and d["truncation_depth"] == 2
    # infinity sentinel, as c_emp of a level with min_scaled = 0
    assert cli._rat(None) == "inf" and cli._cell(None) == "inf"


def test_report_requires_built_level(z_chain2):
    with pytest.raises(ValueError):
        dominance_report(z_chain2, 3)
