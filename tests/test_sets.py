"""Finite-subset algebra: products, interiors, ratios; subsequence extraction."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerdom.chains import build_chain, lamplighter_folner
from folnerdom.errors import SizeCapExceeded
from folnerdom.groups import Heisenberg, Lamplighter, Zd, word_ball
from folnerdom.schedules import Schedule
from folnerdom.sets import (
    FiniteSubset,
    interior_bilateral,
    inverse_set,
    power,
    product,
)
from conftest import GROUPS, element_strategy, z_interval, zset
from lemmas import folner_ratio, temperedness_constant

Z = Zd(1)


small_zsets = st.frozensets(
    st.integers(min_value=-8, max_value=8), min_size=1, max_size=6
).map(lambda s: FiniteSubset.of(Z, ((v,) for v in s)))


def test_product_intervals():
    assert product(z_interval(2), z_interval(3)).elements == z_interval(5).elements


def test_product_lamplighter_ftilde():
    ft1, f1 = lamplighter_folner(1)
    assert product(inverse_set(ft1), ft1).elements == f1.elements
    assert len(f1) == 14


def test_power_and_inverse():
    assert power(z_interval(1), 3).elements == z_interval(3).elements
    e_only = FiniteSubset.of(Z, [Z.identity])
    assert power(e_only, 7).elements == e_only.elements
    f1 = lamplighter_folner(1)[1]
    sq = product(f1, f1)
    assert power(f1, 2).elements == sq.elements
    assert len(sq) <= 196


def test_interior_examples():
    e = FiniteSubset.of(Z, [Z.identity])
    assert interior_bilateral(zset(1), e, z_interval_0_5()).elements == {
        (i,) for i in range(5)
    }
    assert interior_bilateral(z_interval(2), z_interval(2), z_interval(10)).elements == z_interval(6).elements


def z_interval_0_5() -> FiniteSubset:
    return FiniteSubset.of(Z, ((i,) for i in range(6)))


def brute_interior(H1, H2, K):
    mul = K.group.mul
    return frozenset(
        g
        for g in K
        if all(mul(mul(h1, g), h2) in K.elements for h1 in H1 for h2 in H2)
    )


# flanks may be empty: then H1 g H2 is empty and the interior is all of K
flank_zsets = st.frozensets(
    st.integers(min_value=-8, max_value=8), max_size=6
).map(lambda s: FiniteSubset.of(Z, ((v,) for v in s)))


@settings(max_examples=100, deadline=None)
@given(flank_zsets, flank_zsets, small_zsets)
def test_interior_matches_definition_scan(H1, H2, K):
    e = FiniteSubset.of(Z, [Z.identity])
    # {e} on either flank is the one-sided interior
    for A, B in ((H1, H2), (H1, e), (e, H2)):
        assert interior_bilateral(A, B, K).elements == brute_interior(A, B, K)


@pytest.mark.parametrize("group", [Zd(2), Heisenberg(), Lamplighter()], ids=lambda g: g.token())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_interior_matches_definition_scan_on_each_group(group, data):
    # K is a radius-3 ball with holes, so most interiors are neither empty nor all of K;
    # the flanks may be empty
    ball = sorted(word_ball(group, 3), key=group.encode)
    near = sorted(word_ball(group, 1), key=group.encode)
    K = FiniteSubset.of(group, set(ball) - data.draw(st.sets(st.sampled_from(ball), max_size=8)))
    H1, H2 = (FiniteSubset.of(group, data.draw(st.sets(st.sampled_from(near), max_size=4))) for _ in range(2))
    assert interior_bilateral(H1, H2, K).elements == brute_interior(H1, H2, K)


def test_interior_lamplighter_f5():
    f1 = lamplighter_folner(1)[1]
    f5 = lamplighter_folner(5)[1]
    fast = interior_bilateral(f1, f1, f5)
    assert fast.elements == brute_interior(f1, f1, f5)


@settings(max_examples=60, deadline=None)
@given(small_zsets, small_zsets, small_zsets)
def test_bilateral_inside_one_sided(H1, H2, K):
    # only valid when the opposite flank contains the identity (otherwise
    # H1 g H2 inside K says nothing about H1 g itself: H1={1}, H2={1},
    # K={0,2} has bilateral interior {0} but empty left interior)
    e = FiniteSubset.of(Z, [Z.identity])
    H1e = FiniteSubset.of(Z, H1.elements | e.elements)
    H2e = FiniteSubset.of(Z, H2.elements | e.elements)
    both = interior_bilateral(H1e, H2e, K).elements
    assert both <= interior_bilateral(H1e, e, K).elements
    assert both <= interior_bilateral(e, H2e, K).elements


@settings(max_examples=60, deadline=None)
@given(small_zsets, small_zsets, small_zsets)
def test_set_product_associative(A, B, C):
    assert product(product(A, B), C).elements == product(A, product(B, C)).elements


def test_folner_ratio_trivial():
    e = FiniteSubset.of(Z, [Z.identity])
    assert folner_ratio(e, z_interval(5), e) == 0


def test_folner_ratio_interval():
    # [-1,1] + [-5,5] + [-1,1] adds 4 points to an 11-point interval
    assert folner_ratio(z_interval(1), z_interval(5), z_interval(1)) == Fraction(4, 11)


def test_singleton_folner_bound_example():
    L = Lamplighter()
    n = 5
    fn = lamplighter_folner(n)[1]
    g1 = FiniteSubset.of(L, [(1, frozenset({-1, 0, 1}))])
    g2 = FiniteSubset.of(L, [(0, frozenset({0}))])
    ratio = folner_ratio(g1, fn, g2)
    assert ratio <= Fraction(4 * (1 + 0 + 1 + 0), n + 1)


def test_temperedness_constant_single():
    A = z_interval(2)
    assert temperedness_constant([A, A]) == Fraction(len(power(A, 2)), len(A))


def test_temperedness_z_poly_radii():
    sets = [z_interval(2 ** (n * n)) for n in (1, 2, 3)]
    c = temperedness_constant(sets)
    # max of |[-18,18]|/|[-16,16]| = 37/33 and |[-528,528]|/|[-512,512]|
    assert c == max(Fraction(37, 33), Fraction(1057, 1025)) == Fraction(37, 33)
    assert c <= 2


def test_product_cap():
    with pytest.raises(SizeCapExceeded):
        product(z_interval(10), z_interval(10), cap=15)


def test_serialization_roundtrip():
    f2 = lamplighter_folner(2)[1]
    text = f2.serialize()
    back = FiniteSubset.deserialize(text)
    assert back.group == f2.group and back.elements == f2.elements
    assert text == back.serialize()


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.token())
def test_every_listing_reads_back(group):
    @settings(max_examples=100)
    @given(st.frozensets(element_strategy(group), max_size=8))
    def inner(elements):
        S = FiniteSubset(group, elements)
        assert FiniteSubset.deserialize(S.serialize()) == S

    inner()


# {-6, 0, 6} is listed as "folnerdom-set zd:1 3\n0100\n010b\n010c\n"
ODD_LISTINGS = {
    "odd": "folnerdom-set  zd:1 +3\r\n010c\n01 00\n010b\n\n",
    "upper-case": "folnerdom-set zd:1 3\n0100\n010B\n010C\n",
    "plus-count": "folnerdom-set zd:1 +3\n0100\n010b\n010c\n",
    "wrong-count": "folnerdom-set zd:1 4\n0100\n010b\n010c\n",
    "duplicate": "folnerdom-set zd:1 3\n0100\n010b\n010b\n010c\n",
    "unsorted": "folnerdom-set zd:1 3\n010b\n0100\n010c\n",
    "crlf": "folnerdom-set zd:1 3\r\n0100\r\n010b\r\n010c\r\n",
    "no-final-newline": "folnerdom-set zd:1 3\n0100\n010b\n010c",
    "extra-final-newline": "folnerdom-set zd:1 3\n0100\n010b\n010c\n\n",
    "leading-blank-line": "\nfolnerdom-set zd:1 3\n0100\n010b\n010c\n",
    "spaced-hex": "folnerdom-set zd:1 3\n01 00\n010b\n010c\n",
    "zero-high-digit": "folnerdom-set zd:1 3\n010b\n010c\n018000\n",
}


@pytest.mark.parametrize("text", ODD_LISTINGS.values(), ids=ODD_LISTINGS)
def test_deserialize_reads_only_the_written_listing(text):
    # all but the wrong count used to read as {-6, 0, 6}
    assert FiniteSubset.deserialize("folnerdom-set zd:1 3\n0100\n010b\n010c\n") == zset(-6, 0, 6)
    with pytest.raises(ValueError):
        FiniteSubset.deserialize(text)


def test_extract_z():
    sched = Schedule(depth=2)
    chain = build_chain([z_interval(n) for n in range(1, 64)], sched, 2, budget=64)
    F2, E2 = chain.level(2)
    # E_2 = [-(n+4), n+4]; the first radius with 8/(2n+1) < eps(2) = 1/4 is 16
    assert F2 == z_interval(16) and E2 == z_interval(20)
    assert Fraction(len(E2.elements - F2.elements), len(F2)) == Fraction(8, 33)
    assert Fraction(len(F2), len(E2)) >= 1 / (1 + sched.eps(2))


def test_extract_budget():
    sets = [z_interval(n) for n in range(1, 10)]
    with pytest.raises(SizeCapExceeded) as exc:
        build_chain(sets, Schedule(depth=2), 2, budget=5)
    # candidates 2..6 tried, the best of them the last: |[-10, 10] \ [-6, 6]| / 13
    assert exc.value.what == "extraction step 2 (best ratio 8/13, budget 5)"
    assert (exc.value.needed, exc.value.cap, exc.value.unit) == (6, 5, "candidates")
    # the sets run out first: 8 candidates left, the budget allows 64
    with pytest.raises(SizeCapExceeded, match="budget 64\\): needs 9 candidates, cap is 8"):
        build_chain(sets, Schedule(depth=2), 2, budget=64)


def test_extract_refuses_ratio_equal_to_eps(monkeypatch):
    """The extraction condition is strict: a candidate whose ratio equals
    eps is refused, and the next one is tried.  On Z a symmetric set with 0
    has odd size, so no ratio is 1/2^n; eps is set to the ratio 8/33 of
    z_extract.json's F = [-16, 16] (|E_2| = 41) instead."""
    sets = [z_interval(r) for r in (1, 2, 3, 16, 17)]
    assert build_chain(sets, Schedule(depth=2), 2, budget=64).level(2)[0] == z_interval(16)
    monkeypatch.setattr(Schedule, "eps", lambda self, k: Fraction(8, 33))
    assert build_chain(sets, Schedule(depth=2), 2, budget=64).level(2)[0] == z_interval(17)
    with pytest.raises(SizeCapExceeded) as exc:
        build_chain(sets[:-1], Schedule(depth=2), 2, budget=64)
    assert str(exc.value) == "extraction step 2 (best ratio 8/33, budget 64): needs 4 candidates, cap is 3"


def test_extract_first_try_trivial():
    sets = [z_interval(1), z_interval(16)]
    assert build_chain(sets, Schedule(depth=2), budget=64) == build_chain(sets, Schedule(depth=2))


def test_extract_lamplighter_level2():
    # early lamplighter ratios are large (|E_2 \ F_2|/|F_2| = 193/7 at F_2),
    # so F_2 .. F_4 all miss eps(2) = 1/4
    fols = [lamplighter_folner(n)[1] for n in (1, 2, 3, 4)]
    with pytest.raises(SizeCapExceeded) as exc:
        build_chain(fols, Schedule(depth=2), 2, budget=64)
    assert str(exc.value) == (
        "extraction step 2 (best ratio 232/17, budget 64): needs 4 candidates, cap is 3"
    )
