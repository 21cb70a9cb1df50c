"""Exact measures: convolution, powers, Cesaro densities, mixtures."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerdom.chains import Chain, lamplighter_folner
from folnerdom.dominance import level_densities
from folnerdom.groups import Group, Heisenberg, Lamplighter, Zd, word_ball
from folnerdom.measures import (
    FinSupMeasure,
    convolve,
    convolve_at,
    mix,
)
from folnerdom.schedules import Schedule
from folnerdom.sets import FiniteSubset
from conftest import GROUPS, element_strategy, z_interval

Z = Zd(1)


def brute_convolve(mu: FinSupMeasure, nu: FinSupMeasure) -> dict:
    mul = mu.group.mul
    out: dict = {}
    for a, va in mu.items():
        for b, vb in nu.items():
            k = mul(a, b)
            out[k] = out.get(k, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def test_uniform_masses():
    u = FinSupMeasure.uniform(z_interval(1))
    assert all(m == Fraction(1, 3) for _, m in u.items())
    assert u.total_mass == 1
    f1 = lamplighter_folner(1)[1]
    assert all(m == Fraction(1, 14) for _, m in FinSupMeasure.uniform(f1).items())


def test_delta_is_convolution_identity():
    mu = FinSupMeasure.uniform(z_interval(2))
    d = FinSupMeasure.delta(Z)
    assert convolve(d, mu).numerators == mu.numerators
    assert convolve(mu, d).numerators == mu.numerators


def test_convolve_oracle_interval():
    u = FinSupMeasure.uniform(z_interval(1))
    uu = convolve(u, u)
    assert uu.mass((0,)) == Fraction(1, 3)
    assert uu.mass((2,)) == Fraction(1, 9)
    assert uu.mass((-2,)) == Fraction(1, 9)
    assert dict(uu.items()) == brute_convolve(u, u)


def test_convolve_lamplighter_total_mass():
    u = FinSupMeasure.uniform(lamplighter_folner(1)[1])
    uu = convolve(u, u)
    assert uu.total_mass == 1
    assert dict(uu.items()) == brute_convolve(u, u)


small_measures = st.dictionaries(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=Fraction(1, 16), max_value=Fraction(1, 4), max_denominator=16),
    min_size=1,
    max_size=4,
)


def _normalize(d: dict) -> FinSupMeasure:
    total = sum(d.values())
    return FinSupMeasure.from_masses(Z, {(k,): v / total for k, v in d.items()})


@settings(max_examples=60, deadline=None)
@given(small_measures, small_measures, small_measures)
def test_convolution_associative_and_mass_multiplicative(da, db, dc):
    a, b, c = _normalize(da), _normalize(db), _normalize(dc)
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    assert dict(left.items()) == dict(right.items())
    assert convolve(a, b).total_mass == a.total_mass * b.total_mass == 1


@st.composite
def zd_measures(draw, d):
    """Random Z^d measures: empty, delta, dense or sparse/wide, possibly truncated."""
    group = Zd(d)
    shape = draw(st.sampled_from(["support"] * 6 + ["delta", "empty"]))
    if shape == "delta":
        return FinSupMeasure.delta(group)
    radius = draw(st.sampled_from([0, 1, 3, 10**6]))
    coords = st.tuples(*[st.integers(-radius, radius)] * d)
    # all-ones numerators fill their bytes, so a slot one term too narrow carries
    values = draw(st.sampled_from([st.integers(1, 2**100), st.just(2**8 - 1), st.just(2**64 - 1)]))
    num = {} if shape == "empty" else draw(
        st.dictionaries(coords, values, min_size=1, max_size=30)
    )
    return FinSupMeasure(group, num, draw(st.integers(1, 2**64)), draw(st.booleans()))


@st.composite
def zd_operands(draw):
    d = draw(st.integers(1, 3))
    return draw(zd_measures(d)), draw(zd_measures(d))


@settings(max_examples=300, deadline=None)
@given(zd_operands())
def test_zd_kernel_matches_pairwise_oracle(operands):
    mu, nu = operands
    group = mu.group
    fast = group.convolve(mu.numerators, nu.numerators)
    assert fast == Group.convolve(group, mu.numerators, nu.numerators)


def test_zd_kernel_at_its_slot_bound():
    """Numerators 2^k - 1 and 2^j - 1 on dense supports {0, ..., s-1}: the
    slot's bit count k + j + bits(s) takes every residue mod 8, so the grid
    holds coefficients that a slot one bit shorter would overflow."""
    for k in range(1, 18):
        for j in range(1, 18):
            for s in range(1, 10):
                a = {(i,): 2**k - 1 for i in range(s)}
                b = {(i,): 2**j - 1 for i in range(s)}
                assert Z.convolve(a, b) == Group.convolve(Z, a, b), (k, j, s)
    # a slot one bit short reads 31619 here
    three = range(3)
    assert Z.convolve({(i,): 255 for i in three}, {(i,): 127 for i in three})[(2,)] == 97155


def test_zd_dispatch_reaches_kernel(monkeypatch):
    dense = FinSupMeasure.uniform(z_interval(50))
    sparse = FinSupMeasure.uniform(FiniteSubset.of(Z, [(-(10**6),), (0,), (10**6,)]))
    calls = []
    law = Zd.mul

    def counted(self, a, b):
        calls.append(1)
        return law(self, a, b)

    monkeypatch.setattr(Zd, "mul", counted)
    convolve(dense, dense)
    assert not calls  # Kronecker substitution, no group-law products
    convolve(sparse, sparse)
    assert len(calls) == 9  # the wide output box takes the pairwise loop


def test_two_term_omega_power_expansion():
    # omega = t1 u_{E1} + t2 u_{E2}; omega^(2) = sum_{i,j} t_i t_j u_i * u_j
    E1, E2 = z_interval(1), z_interval(3)
    t1, t2 = Fraction(1, 2), Fraction(1, 4)
    u1, u2 = FinSupMeasure.uniform(E1), FinSupMeasure.uniform(E2)
    omega = mix([(t1, u1), (t2, u2)])
    direct = convolve(omega, omega)
    expanded = mix(
        [
            (t1 * t1, convolve(u1, u1)),
            (t1 * t2, convolve(u1, u2)),
            (t2 * t1, convolve(u2, u1)),
            (t2 * t2, convolve(u2, u2)),
        ]
    )
    assert dict(direct.items()) == dict(expanded.items())


def test_capped_convolution_is_lower_bound():
    a = FinSupMeasure.uniform(z_interval(3))
    b = FinSupMeasure.uniform(z_interval(4))
    exact = convolve(a, b)
    capped = convolve(a, b, cap=5)
    assert capped.truncated and not exact.truncated
    assert len(capped) == 5
    for g, m in capped.items():
        assert m <= exact.mass(g)
    # deterministic tie-breaking: same call, same support
    again = convolve(a, b, cap=5)
    assert again.numerators == capped.numerators


def test_capped_convolution_keeps_the_same_atoms_on_both_kernels(monkeypatch):
    """A tie at the cap boundary: the Zd kernel fills its output in the
    order 0, 1, 2, the pairwise loop in pair order 1, 2, 0, so only the
    tie-break by encoding makes both keep the same atoms."""
    mu = FinSupMeasure(Z, {(1,): 1, (0,): 1}, 2)
    nu = FinSupMeasure(Z, {(0,): 1, (1,): 1}, 2)
    assert list(Z.convolve(mu.numerators, nu.numerators)) == [(0,), (1,), (2,)]
    assert list(Group.convolve(Z, mu.numerators, nu.numerators)) == [(1,), (2,), (0,)]
    kernel = convolve(mu, nu, cap=2)
    monkeypatch.setattr(Zd, "convolve", Group.convolve)
    loop = convolve(mu, nu, cap=2)
    # 2 and 0 tie at mass 1/4; 2 has the larger encoding
    assert kernel == loop == FinSupMeasure(Z, {(1,): 2, (2,): 1}, 4, True)


def test_cap_monotone_support():
    a = FinSupMeasure.uniform(z_interval(3))
    b = FinSupMeasure.uniform(z_interval(4))
    m5 = convolve(a, b, cap=5)
    m9 = convolve(a, b, cap=9)
    for g, m in m5.items():
        assert m <= m9.mass(g)


def _walk(omega: FinSupMeasure, J: int) -> list[FinSupMeasure]:
    powers = [FinSupMeasure.delta(omega.group)]
    for _ in range(J):
        powers.append(convolve(powers[-1], omega))
    return powers


def _cesaro_density(chain: Chain) -> tuple[dict, bool]:
    """(1/N) sum_{j<N} d omega^(j)/d lambda on F_1, N = N(1), read through
    level_densities at level 1 of ``chain``."""
    F, N = chain.level(1)[0], chain.schedule.N(1)
    dens, tainted = level_densities(chain, 1)
    assert len(dens) == N
    return {g: sum(d[g] for d in dens) / N for g in F}, tainted


def test_cesaro_density_examples():
    # omega = (1/2) u_[-1,1], the tail-base-2 weight of a one-envelope chain
    E = [z_interval(1)]
    two, tainted = _cesaro_density(Chain([z_interval(1)], E, Schedule(2, 2, 1)))
    assert not tainted
    # (1 + 1/6) / 2 at 0 and (0 + 1/6) / 2 at 1
    assert two[(0,)] == Fraction(7, 12) and two[(1,)] == two[(-1,)] == Fraction(1, 12)
    three, _ = _cesaro_density(Chain([FiniteSubset.of(Z, [(0,)])], E, Schedule(2, 3, 1)))
    assert three[(0,)] == Fraction(5, 12)  # (1 + 1/6 + (1/4)(3/9)) / 3


def test_cesaro_density_matches_direct_power_sum():
    # on Z (Kronecker kernel) and on Heisenberg (pairwise loop); the last
    # power is taken pointwise, the sum here from the full convolution
    H = Heisenberg()
    h_ball = lambda r: FiniteSubset(H, word_ball(H, r))
    cases = [
        (Z, z_interval(1), z_interval(5), z_interval(4)),
        (H, h_ball(1), h_ball(2), h_ball(2)),
    ]
    N = 5
    for group, small, big, ev in cases:
        # the tail-base-2 weights t_1 = 1/2 and t_2 = 1/4 of a two-envelope chain
        chain = Chain([ev, ev], [small, big], Schedule(2, N, 2))
        u = mix([(Fraction(1, 2), FinSupMeasure.uniform(small)),
                 (Fraction(1, 4), FinSupMeasure.uniform(big))])
        assert chain.omega == u
        powers = _walk(u, N - 1)
        fast, tainted = _cesaro_density(chain)
        assert not tainted
        for g in ev:
            assert fast[g] == sum(p.mass(g) for p in powers) / N, group.token()


def test_convolve_at_matches_full():
    a = FinSupMeasure.uniform(z_interval(2))
    b = FinSupMeasure.uniform(z_interval(3))
    full = convolve(a, b)
    at = convolve_at(a, b, [(0,), (5,), (-5,), (99,)])
    assert at[(0,)] == full.mass((0,))
    assert at[(5,)] == full.mass((5,))
    assert at[(99,)] == 0


@pytest.mark.parametrize("group", [Zd(2), Heisenberg(), Lamplighter()], ids=lambda g: g.token())
def test_convolve_at_either_side_smaller(group):
    rng = random.Random(5)
    small, big = (
        FinSupMeasure(group, {g: rng.randint(1, 9) for g in word_ball(group, r)}, 1000)
        for r in (1, 2)
    )
    points = word_ball(group, 4)  # the products reach radius 3; the rest are zero
    for mu, nu in ((small, big), (big, small)):
        full = convolve(mu, nu)
        assert convolve_at(mu, nu, points) == {g: full.mass(g) for g in points}


def test_mixture_mass_and_flag():
    u = FinSupMeasure.uniform(z_interval(1))
    m = mix([(Fraction(1, 2), u), (Fraction(1, 4), u)])
    assert m.total_mass == Fraction(3, 4)
    with pytest.raises(ValueError):
        mix([(Fraction(2), u)])


def test_csv_roundtrip():
    u = mix([(Fraction(1, 2), FinSupMeasure.uniform(z_interval(2))),
             (Fraction(1, 4), FinSupMeasure.uniform(z_interval(7)))])
    text = u.serialize_csv()
    back = FinSupMeasure.deserialize_csv(text)
    assert dict(back.items()) == dict(u.items())
    assert back.truncated == u.truncated
    capped = convolve(u, u, cap=3)
    assert FinSupMeasure.deserialize_csv(capped.serialize_csv()).truncated


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.token())
def test_every_measure_listing_reads_back(group):
    @settings(max_examples=100)
    @given(
        st.dictionaries(element_strategy(group), st.integers(1, 2**70), max_size=8),
        st.integers(0, 2**70),
        st.booleans(),
    )
    def inner(num, spare, truncated):
        mu = FinSupMeasure(group, num, sum(num.values()) + spare or 1, truncated)
        back = FinSupMeasure.deserialize_csv(mu.serialize_csv())
        assert dict(back.items()) == dict(mu.items()) and back.truncated == truncated

    inner()


# 1/2 at 0 and 1/6 at -1 and 1, as serialize_csv writes it
HALF_AND_SIXTHS = (
    "# folnerdom-measure group=zd:1 total=5/6 flag=exact\n"
    "encoding_hex,numerator,denominator\n0100,1,2\n0101,1,6\n0102,1,6\n"
)
ODD_MEASURE_LISTINGS = {
    "unreduced": HALF_AND_SIXTHS.replace("0100,1,2", "0100,2,4"),
    "unknown-flag": HALF_AND_SIXTHS.replace("flag=exact", "flag=whatever"),
    "wrong-total": HALF_AND_SIXTHS.replace("total=5/6", "total=1/1"),
    "unreduced-total": HALF_AND_SIXTHS.replace("total=5/6", "total=10/12"),
    "unsorted": HALF_AND_SIXTHS.replace("0101,1,6\n0102,1,6", "0102,1,6\n0101,1,6"),
    "duplicate": HALF_AND_SIXTHS.replace("0101,1,6\n", "0101,1,6\n0101,1,6\n"),
    "zero-mass": HALF_AND_SIXTHS + "0104,0,1\n",
    "zero-denominator": HALF_AND_SIXTHS + "0104,1,0\n",
    "plus-sign": HALF_AND_SIXTHS.replace("0100,1,2", "0100,+1,2"),
    "spaced-hex": HALF_AND_SIXTHS.replace("0100,1,2", "01 00,1,2"),
    "zero-high-digit": HALF_AND_SIXTHS.replace("0100,1,2\n", "").replace("0102,1,6", "0102,1,6\n018000,1,2"),
    "crlf": HALF_AND_SIXTHS.replace("\n", "\r\n"),
    "no-final-newline": HALF_AND_SIXTHS[:-1],
    "column-names": HALF_AND_SIXTHS.replace("encoding_hex,", "hex,"),
    # the uniform measure on {-1, 0, 1} is written with 1/3 at each point
    "uniform": (
        "# folnerdom-measure group=zd:1 total=1/1 flag=whatever\n"
        "encoding_hex,numerator,denominator\n01 00,2,6\n0101,1,3\n0102,1,3\n"
    ),
}


@pytest.mark.parametrize("text", ODD_MEASURE_LISTINGS.values(), ids=ODD_MEASURE_LISTINGS)
def test_deserialize_csv_reads_only_the_written_listing(text):
    # each used to read as the measure it spells, the last as the uniform
    # one; the zero denominator raised ZeroDivisionError
    mu = FinSupMeasure.deserialize_csv(HALF_AND_SIXTHS)
    assert dict(mu.items()) == {(0,): Fraction(1, 2), (-1,): Fraction(1, 6), (1,): Fraction(1, 6)}
    with pytest.raises(ValueError):
        FinSupMeasure.deserialize_csv(text)
