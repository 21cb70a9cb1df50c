"""Schedules, exponent towers, and the lamplighter size counter."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerdom.chains import lamplighter_folner
from folnerdom.schedules import Schedule, fn_size, ftilde_size
from folnerdom.sets import inverse_set, product

from lemmas import (
    MATERIALIZE_BITS,
    SymbolicSize,
    count_inverse_product,
    lamplighter_schedules,
    poly_growth_overhead_bound,
    poly_growth_schedule,
    tempered_prefix_constant,
    temperedness_constant,
)


def test_schedule_invariants_standard():
    s = Schedule()
    assert s.t(1) == Fraction(1, 2) and s.t(3) == Fraction(1, 8)
    assert s.r(1) == 1 and s.r(3) == Fraction(1, 4)
    for n in range(1, 8):
        assert s.r(n) - s.r(n + 1) == s.t(n)
        assert s.r(n + 1) < s.r(n)
        assert s.N(n + 1) > s.N(n)
    assert s.N(2) > 2
    assert sum(s.t(n) for n in range(1, 11)) < 1
    assert s.head(3) == Fraction(3, 4)


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=12))
def test_schedule_tail_identity_general_base(c, n):
    s = Schedule(tail_base=c)
    assert s.r(n) == sum(s.t(j) for j in range(n, n + 60)) + s.r(n + 60)
    assert s.r(n) - s.r(n + 1) == s.t(n)


def test_schedule_rejects_degenerate():
    with pytest.raises(ValueError):
        Schedule(tail_base=1)
    with pytest.raises(ValueError):
        Schedule(length_base=1)


def test_poly_growth_values():
    l1, m1 = poly_growth_schedule(1)
    assert l1 == 2 and m1 == 2
    l2, m2 = poly_growth_schedule(2)
    assert l2 == 16 and m2 == 24
    l3, m3 = poly_growth_schedule(3)
    assert l3 == 512 and m3 == 512 + 2 * 6 * 24 == 800


def test_poly_growth_overhead_bound_holds():
    for n in range(2, 21):
        l_n = poly_growth_schedule(n)[0].to_int()
        m_prev = poly_growth_schedule(n - 1)[1].to_int()
        assert Fraction(2 * (2**n - 2) * m_prev, l_n) <= poly_growth_overhead_bound(n)
    # and the bound itself decays
    assert poly_growth_overhead_bound(20) < poly_growth_overhead_bound(10) < Fraction(1, 100)


def test_lamplighter_schedule_values():
    assert [lamplighter_schedules("tempered", k) for k in (1, 2, 3)] == [1, 3, 27]
    assert lamplighter_schedules("tempered", 4) == 3**27
    assert lamplighter_schedules("dominance", 2) == 17**4 == 83521
    with pytest.raises(ValueError):
        lamplighter_schedules("fast", 2)


def test_tower_comparisons_without_materialization():
    d2 = lamplighter_schedules("dominance", 2)
    d3 = lamplighter_schedules("dominance", 3)
    d4 = lamplighter_schedules("dominance", 4)
    assert not d3.is_int()  # 17^668168 stays symbolic
    assert d3.bits_lower_bound() > MATERIALIZE_BITS
    assert d3 > d2 and d4 > d3 and d3 > 1
    assert not d3 < d2 and not d3 == d2
    t5 = lamplighter_schedules("tempered", 5)  # 3^7625597484987
    assert d3 < t5 < d4
    assert lamplighter_schedules("tempered", 4) < d3


def test_tower_int_roundtrip_and_str():
    assert SymbolicSize.tower(2, 10) == 1024
    assert SymbolicSize.tower(2, 10).to_int() == 1024
    assert str(lamplighter_schedules("dominance", 3)) == "17^668168"
    assert str(lamplighter_schedules("dominance", 4)) == "17^(16*17^668168)"


def test_tower_total_order_sample():
    vals = [
        SymbolicSize.of(1),
        SymbolicSize.of(83521),
        lamplighter_schedules("tempered", 4),
        lamplighter_schedules("dominance", 3),
        lamplighter_schedules("tempered", 5),
        lamplighter_schedules("dominance", 4),
    ]
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            assert (a < b) == (i < j)
            assert (a == b) == (i == j)


def test_count_inverse_product_vs_enumeration():
    for m, n in [(1, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5)]:
        ft_m = lamplighter_folner(m)[0]
        ft_n = lamplighter_folner(n)[0]
        enumerated = len(product(inverse_set(ft_m), ft_n))
        assert count_inverse_product(m, n) == enumerated
    assert count_inverse_product(1, 1) == fn_size(1)


def test_tempered_prefix_constant_matches_set_arithmetic():
    sets = [lamplighter_folner(n)[0] for n in (1, 3)]
    direct = temperedness_constant(sets)
    assert tempered_prefix_constant([1, 3]) == direct == Fraction(13, 8)


def test_tempered_prefix_constant_up_to_27():
    c = tempered_prefix_constant([1, 3, 27])
    assert c <= 3  # the recorded constant for the 3^{l(n-1)} schedule
    assert c == max(Fraction(13, 8), Fraction(count_inverse_product(3, 27), ftilde_size(27)))


def test_size_formulas():
    for n in range(1, 8):
        assert ftilde_size(n) == (n + 1) * 2 ** (n + 1)
        assert fn_size(n) == 2**n * (n * n + 4 * n + 2)
