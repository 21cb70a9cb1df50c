"""Finite-quotient actions, exact averages, and operator inequalities."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folnerdom.actions import (
    FiniteAction,
    Observable,
    cesaro_mean,
    check_dominance,
    convergence_diagnostics,
    ergodic_average,
    invariant_projection,
    kadison_check,
    psd_check,
    psd_order_holds,
    weak11_probe,
    zd_mod_action,
)
from folnerdom.chains import lamplighter_folner
from folnerdom.errors import SizeCapExceeded
from folnerdom.groups import Heisenberg, Lamplighter, Zd, word_ball
from folnerdom.measures import FinSupMeasure
from folnerdom.sets import FiniteSubset
from conftest import z_interval, zset

Z = Zd(1)
H = Heisenberg()
L = Lamplighter()


def test_observable_constructors_and_validation():
    f = Observable.function([1, "1/2", 0])
    assert f.data == (1, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        Observable.matrix([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        Observable.matrix([[1, 2, 3], [2, 1, 0]])  # not square
    ind = Observable.indicator(4, [0, 2])
    assert ind.data == (1, 0, 1, 0)


def test_ergodic_average_z4_example():
    act = zd_mod_action(1, 4)
    x = Observable.function([1, 0, 0, 0])
    # averaging over {3, 0, 1}: A(x)(s) = (1/3) #{g : s - g = 0}
    avg = ergodic_average(act, zset(3, 0, 1), x)
    assert avg.data == (
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(0),
        Fraction(1, 3),
    )


def test_invariant_projection_is_mean():
    act = zd_mod_action(1, 4)
    x = Observable.function([1, 0, 0, 0])
    proj = invariant_projection(act, x)
    assert proj.data == (Fraction(1, 4),) * 4
    # projection of a matrix commutes with symmetry
    m = Observable.matrix([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    pm = invariant_projection(act, m)
    assert pm.data == tuple(tuple(Fraction(1, 4) if i == j else 0 for j in range(4)) for i in range(4))


def test_markov_apply_examples():
    act = zd_mod_action(1, 4)
    x = Observable.function([1, 0, 0, 0])
    delta1 = FinSupMeasure.uniform(zset(1))
    # T(x) = sum_g omega(g) alpha_g(x)
    shifted = act.apply_push(act.push_measure(delta1), x)
    assert shifted.data == (0, 1, 0, 0)
    unif = FinSupMeasure.uniform(zset(0, 1, 2, 3))
    assert act.apply_push(act.push_measure(unif), x).data == (Fraction(1, 4),) * 4


def _random_zd2(rng):
    return (rng.randint(-5, 5), rng.randint(-5, 5))


def _random_heisenberg(rng):
    return tuple(rng.randint(-4, 4) for _ in range(3))


def _random_lamplighter(rng):
    return (rng.randint(-5, 5), frozenset(rng.sample(range(-4, 5), rng.randint(0, 3))))


@pytest.mark.parametrize(
    "make,element",
    [
        (lambda: zd_mod_action(2, 3), _random_zd2),
        (lambda: FiniteAction(H, *H.quotient(3)), _random_heisenberg),
        (lambda: FiniteAction(L, *L.quotient(2)), _random_lamplighter),
    ],
    ids=["zd:2-mod-3", "heisenberg-mod-3", "lamplighter-mod-2"],
)
def test_action_is_homomorphism(make, element):
    act = make()
    assert len(set(act.states)) == act.size
    assert all(act.qmap(s) == s for s in act.states)
    G = act.group
    x = Observable.function([Fraction(k, act.size) for k in range(act.size)])
    rng = random.Random(5)

    def alpha(g, y):
        return act.apply_push(Observable.indicator(act.size, [act.state_of(g)]), y)

    for _ in range(25):
        g, h = element(rng), element(rng)
        assert alpha(G.mul(g, h), x).data == alpha(g, alpha(h, x)).data
        assert alpha(G.inv(g), alpha(g, x)).data == x.data


QUOTIENTS = [FiniteAction(G, *G.quotient(m)) for G, m in ((Zd(2), 3), (H, 2), (L, 2))]
signed_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def observables(draw, n, kind=None):
    """A function or symmetric matrix observable on n states, with entries
    of mixed denominators and signs."""
    if (kind or draw(st.sampled_from(["function", "matrix"]))) == "function":
        return Observable.function(draw(st.lists(signed_rationals, min_size=n, max_size=n)))
    upper = draw(st.lists(signed_rationals, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    cells = iter(upper)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(cells)
    return Observable.matrix(rows)


@st.composite
def pushes_and_observables(draw):
    """A quotient action, a push and an observable.  The push is either
    weights of mixed denominators and signs on one or more states, 0
    elsewhere, or one common weight with a few states perturbed, so that
    the common part is summed as c* S(X)."""
    act = draw(st.sampled_from(QUOTIENTS))
    n = act.size
    states = st.integers(0, n - 1)
    if draw(st.booleans()):
        weights = dict.fromkeys(range(n), 0)
        weights.update(draw(st.dictionaries(states, signed_rationals, min_size=1, max_size=n)))
    else:
        weights = dict.fromkeys(range(n), draw(signed_rationals))
        weights.update(draw(st.dictionaries(states, signed_rationals, max_size=3)))
    return act, Observable.function(weights.values()), draw(observables(n))


def fraction_fold(act: FiniteAction, push: Observable, x: Observable) -> tuple:
    """sum_q w_q alpha_q(x) on the Fraction entries of x, one copy at a time,
    with alpha_q(x)(s) = x(q^-1 s) taken from the group law: the oracle of
    ``apply_push``."""
    G, n, data = act.group, act.size, x.data
    if x.kind == "function":
        total = [Fraction(0)] * n
    else:
        total = [[Fraction(0)] * n for _ in range(n)]
    for q, w in enumerate(push.data):
        qinv = G.inv(act.states[q])
        src = [act.state_of(G.mul(qinv, s)) for s in act.states]
        for i in range(n):
            if x.kind == "function":
                total[i] += w * data[src[i]]
            else:
                for j in range(n):
                    total[i][j] += w * data[src[i]][src[j]]
    return tuple(total) if x.kind == "function" else tuple(map(tuple, total))


@settings(max_examples=200, deadline=None)
@given(pushes_and_observables())
def test_apply_push_matches_the_fold(case):
    """The integer kernel against summing the scaled copies w_q alpha_q(x) in
    Fractions.  The Heisenberg and lamplighter quotients are not abelian, so
    summing the common part as T[j i^-1] instead of T[i^-1 j] fails here."""
    act, push, x = case
    assert act.apply_push(push, x).data == fraction_fold(act, push, x)


def _entries(x: Observable) -> list:
    return list(x.data) if x.kind == "function" else [v for row in x.data for v in row]


def _in_lowest_terms(x: Observable) -> bool:
    flat = x.nums if x.kind == "function" else [v for row in x.nums for v in row]
    return x.den > 0 and gcd(x.den, *flat) == 1 and all(type(v) is int for v in flat)


@st.composite
def observable_pairs(draw):
    n = draw(st.integers(1, 5))
    x = draw(observables(n))
    return x, draw(observables(n, x.kind)), draw(signed_rationals)


@settings(max_examples=200, deadline=None)
@given(observable_pairs())
def test_integer_algebra_matches_the_fraction_view(case):
    """add, sub, scale, square, sup_distance, psd_order_holds and one_norm on
    integers over one denominator against the same operations on the
    Fraction entries; every result is in lowest terms.  The matrix square
    is checked against the triple loop below."""
    x, y, c = case
    a, b = _entries(x), _entries(y)
    assert _entries(x.add(y)) == [u + v for u, v in zip(a, b)]
    assert _entries(x.sub(y)) == [u - v for u, v in zip(a, b)]
    assert _entries(x.scale(c)) == [c * u for u in a]
    assert all(_in_lowest_terms(z) for z in (x, y, x.add(y), x.sub(y), x.scale(c), x.square()))
    assert x.sup_distance(y) == max(abs(u - v) for u, v in zip(a, b))
    diff = [v - u for u, v in zip(a, b)]
    if x.kind == "function":
        assert _entries(x.square()) == [u * u for u in a]
        assert psd_order_holds(x, y) == (min(diff) >= 0, min(diff))
        assert zd_mod_action(1, x.size).one_norm(x) == sum(map(abs, a)) / x.size
    else:
        n = x.size
        assert psd_order_holds(x, y) == fraction_ldlt([diff[i * n : (i + 1) * n] for i in range(n)])


def test_observables_are_canonical():
    """Equal values compare == however they were written or computed."""
    x = Observable.function([Fraction(1, 2), "1/3", 2])
    assert (x.den, x.nums) == (6, (3, 2, 12))
    assert Observable.function(["3/6", "2/6", 2.0]) == x
    assert Observable("function", 12, (6, 4, 24)) == x
    assert x.add(x).scale(Fraction(1, 2)) == x
    assert x.sub(x) == Observable.function([0, 0, 0])
    assert x.sub(x).den == 1
    m = Observable.matrix([[Fraction(1, 4), "1/2"], [0.5, 1]])
    assert (m.den, m.nums) == (4, ((1, 2), (2, 4)))
    assert m.scale(4) == Observable.matrix([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="positive"):
        Observable("function", 0, (1,))


def test_cesaro_mean_reduces_to_average_of_iterates():
    act = zd_mod_action(1, 5)
    omega = FinSupMeasure.uniform(zset(-1, 0, 1))
    x = Observable.function([1, 0, 0, 0, 0])
    m3 = cesaro_mean(act, omega, 3, x)
    push = act.push_measure(omega)
    t1 = act.apply_push(push, x)
    t2 = act.apply_push(push, t1)
    expect = x.add(t1).add(t2).scale(Fraction(1, 3))
    assert m3.data == expect.data


def test_psd_check_cases():
    assert psd_check([[2, 1], [1, 2]]) == (True, Fraction(3, 2))
    ok, piv = psd_check([[1, 2], [2, 1]])
    assert not ok and piv < 0
    assert psd_check([[0, 0], [0, 0]]) == (True, 0)
    ok, _ = psd_check([[0, 1], [1, 0]])
    assert not ok
    ok, _ = psd_check([[1, 1], [1, 1]])  # singular PSD
    assert ok


def fraction_ldlt(mat) -> tuple[bool, Fraction]:
    """The pivoted LDL^T in Fractions that ``psd_check`` replaced; the oracle
    of its fraction-free elimination."""
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] for i in range(n)]
    live = list(range(n))
    min_pivot = None
    while live:
        p = max(live, key=lambda i: a[i][i])
        piv = a[p][p]
        if piv < 0:
            return False, piv
        if piv == 0:
            for i in live:
                if any(a[i][j] != 0 for j in live):
                    return False, Fraction(0)
            return True, Fraction(0)
        min_pivot = piv if min_pivot is None else min(min_pivot, piv)
        live.remove(p)
        for i in live:
            f = a[i][p] / piv
            for j in live:
                a[i][j] -= f * a[p][j]
    return True, min_pivot if min_pivot is not None else Fraction(0)


small_rationals = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


@st.composite
def symmetric_matrices(draw):
    """Gram matrices of rational vectors (PSD, often singular, with tied
    diagonals), symmetric matrices with random entries (mostly indefinite),
    and a zero diagonal under a nonzero row; entries ints or Fractions of
    mixed denominators, sizes 0-9."""
    n = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["gram", "symmetric", "zero-diagonal"]))
    if kind == "gram":
        rank = draw(st.integers(0, n))
        vecs = [draw(st.lists(small_rationals, min_size=rank, max_size=rank)) for _ in range(n)]
        return [[sum((x * y for x, y in zip(u, v)), Fraction(0)) for v in vecs] for u in vecs]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(small_rationals)
    if kind == "zero-diagonal" and n:
        k = draw(st.integers(0, n - 1))
        for i in range(n):
            rows[k][i] = rows[i][k] = 0
        if n > 1:
            rows[k][(k + 1) % n] = rows[(k + 1) % n][k] = draw(small_rationals.filter(bool))
    return rows


@settings(max_examples=400, deadline=None)
@given(symmetric_matrices())
@example([])
@example([[0] * 5 for _ in range(5)])
@example([[0, 0, 0], [0, 0, 2], [0, 2, 1]])  # zero diagonal under a nonzero row
@example([[4, 2, 2], [2, 4, 2], [2, 2, 4]])  # tied diagonals
@example([[Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 6), Fraction(1, 5)]])
@example([[-1]])
def test_psd_check_matches_the_fraction_ldlt(mat):
    """The fraction-free elimination on the numerators of the matrix against
    the Fraction LDL^T: the same verdict, and the same proxy once divided by
    the denominator.  With the Bareiss divisor frozen at 1 (``// prev`` as
    ``// 1``) the entries are no longer minors and the pivots come out wrong
    from the third step on; the Gram cases of rank 3 and more, and the
    tied-diagonal example, catch it."""
    m = Observable.matrix(mat)
    ok, proxy = psd_check(m.nums)
    assert (ok, proxy / m.den) == fraction_ldlt(mat)


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_matrix_square_matches_the_triple_loop(mat):
    x = Observable.matrix(mat)
    n = x.size
    loop = tuple(
        tuple(sum((x.data[i][k] * x.data[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )
    assert x.square().data == loop


def test_psd_order_functions():
    lo = Observable.function([0, 1])
    hi = Observable.function([1, 1])
    ok, slack = psd_order_holds(lo, hi)
    assert ok and slack == 0
    ok2, slack2 = psd_order_holds(hi, lo)
    assert not ok2 and slack2 == -1


def test_kadison_swap_example():
    """Averaging diag(1,0) over {e, swap} in Z acting on Z/2:
    A(x)^2 = (1/4) I while A(x^2) = (1/2) I, so the gap is (1/4) I >= 0."""
    act = zd_mod_action(1, 2)
    x = Observable.matrix([[1, 0], [0, 0]])
    F = zset(0, 1)
    ax = ergodic_average(act, F, x)
    assert ax.data == ((Fraction(1, 2), 0), (0, Fraction(1, 2)))
    ok, piv = kadison_check(act, act.push_set(F), x)
    assert ok
    gap = ergodic_average(act, F, x.square()).sub(ax.square())
    assert gap.data == ((Fraction(1, 4), 0), (0, Fraction(1, 4)))


def test_kadison_random_functions():
    act = zd_mod_action(1, 6)
    rng = random.Random(3)
    for _ in range(30):
        x = Observable.function([Fraction(rng.randint(-8, 8), 4) for _ in range(6)])
        F = zset(*{rng.randint(-10, 10) for _ in range(rng.randint(1, 5))})
        ok, _ = kadison_check(act, act.push_set(F), x)
        assert ok


@pytest.mark.parametrize(
    "act",
    [zd_mod_action(1, 5), zd_mod_action(2, 4), FiniteAction(H, *H.quotient(3))],
    ids=["zd:1", "zd:2", "heisenberg"],
)
def test_push_ball_matches_push_set(act):
    """The pushforward of a ball from its counts equals the one summed over
    the built ball, and a cap stops it with word_ball's message."""
    G = act.group
    for r in range(7):
        ball = word_ball(G, r)
        assert act.push_ball(r) == act.push_set(FiniteSubset(G, ball))
    with pytest.raises(SizeCapExceeded) as got:
        act.push_ball(6, len(ball) - 1)
    with pytest.raises(SizeCapExceeded) as want:
        word_ball(G, 6, len(ball) - 1)
    assert str(got.value) == str(want.value)


def test_convergence_table_z_mod8():
    act = zd_mod_action(1, 8)
    x = Observable.function([1, 0, 0, 0, 0, 0, 0, 0])
    pairs = [(r, ergodic_average(act, z_interval(r), x)) for r in (8, 64, 512)]
    rows = convergence_diagnostics(act, pairs, x)
    devs = [d for _, d in rows]
    assert devs[0] > devs[1] > devs[2]
    # interval of length 2r+1 over Z/8: deviation is O(1/r)
    assert devs[2] <= Fraction(1, 512)


def test_convergence_exact_zero_when_period_divides():
    act = zd_mod_action(1, 5)
    x = Observable.function([2, 0, 1, 0, 0])
    # [-7, 7] covers each residue class mod 5 exactly 3 times
    rows = convergence_diagnostics(act, [(7, ergodic_average(act, z_interval(7), x))], x)
    assert rows[0][1] == 0


def test_convergence_lamplighter_exact_zero():
    # F~_n pushes uniformly onto the quotient when m divides n + 1
    act = FiniteAction(L, *L.quotient(3))
    ft = lamplighter_folner(5)[0]
    push = act.push_set(ft)
    assert set(push.data) == {Fraction(1, act.size)}
    x = Observable.indicator(act.size, [0])
    rows = convergence_diagnostics(act, [(5, act.apply_push(push, x))], x)
    assert rows[0][1] == 0


def test_weak11_probe_scaling():
    act = zd_mod_action(1, 8)
    x = Observable.function([1, 0, 0, 0, 0, 0, 0, 0])
    pushes = [(r, act.push_set(z_interval(r))) for r in (1, 2, 4)]
    c = Fraction(9)

    def probe(y):
        return weak11_probe(act, [(r, act.apply_push(p, y)) for r, p in pushes], y, Fraction(1, 2), c)

    g1, m1, b1, ok1 = probe(x)
    assert ok1
    g2, m2, b2, ok2 = probe(x.scale(2))
    assert ok2 and b2 == 2 * b1  # bound scales with ||x||_1


def test_check_dominance_rejects_signed(z_chain2):
    act = zd_mod_action(1, 4)
    x = Observable.function([1, -1, 0, 0])
    with pytest.raises(ValueError):
        check_dominance(act, z_chain2, 2, x, Fraction(10))


def test_check_dominance_function_and_matrix(z_chain2):
    act = zd_mod_action(1, 8)
    # use the chain's own certified constant
    from folnerdom.dominance import dominance_report

    rep = dominance_report(z_chain2, 2)
    x = Observable.function([3, 0, 1, 0, 2, 0, 0, 1])
    ok, slack = check_dominance(act, z_chain2, 2, x, rep.c_emp)
    assert ok and slack >= 0
    m = Observable.matrix(
        [[2, 1, 0, 0, 0, 0, 0, 0],
         [1, 2, 0, 0, 0, 0, 0, 0],
         [0, 0, 1, 0, 0, 0, 0, 0],
         [0, 0, 0, 0, 0, 0, 0, 0],
         [0, 0, 0, 0, 1, 0, 0, 0],
         [0, 0, 0, 0, 0, 0, 0, 0],
         [0, 0, 0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 0, 0, 1]]
    )
    assert m.is_nonnegative()
    ok_m, _ = check_dominance(act, z_chain2, 2, m, rep.c_emp)
    assert ok_m


def test_lamplighter_states_in_bit_pattern_order():
    act = FiniteAction(L, *L.quotient(3))
    assert act.states[0] == act.group.identity
    assert act.states[1 * 8 + 0b101] == (1, frozenset({0, 2}))
    assert act.state_of((4, frozenset({-1, 2, 3, 5}))) == 1 * 8 + 0b101


def test_states_must_be_representatives():
    zd = zd_mod_action(1, 4)
    with pytest.raises(ValueError, match="representatives"):
        FiniteAction(zd.group, [(0,), (5,)], zd.qmap)
    with pytest.raises(ValueError, match="distinct"):
        FiniteAction(zd.group, [(0,), (0,)], zd.qmap)
    with pytest.raises(ValueError, match="nonempty"):
        zd_mod_action(2, 0)
    with pytest.raises(ValueError, match="nonempty"):
        FiniteAction(L, *L.quotient(-1))
