"""Measure-preserving actions through finite quotients.

The action is the left regular representation of a finite quotient group
Q: states are the elements of Q, a group element g acts by s -> q(g)s
through the quotient homomorphism q, and observables are rational-valued
functions on Q or symmetric rational matrices conjugated by the
permutation matrices.  Ergodic averages over a Folner set push the
uniform measure through q first, so the cost scales with |Q|, not |F_n|.
A word ball's pushforward never builds the ball: ``push_ball`` takes the
counts per quotient element from ``Group.ball_counts``, which ``Zd``
computes row by row from the ball's closed form (see ``groups.py``).

An ``Observable`` is integers over one denominator, in lowest terms, and
every operation on it works on those integers: no Fraction per entry.
It is also the one form of a pushforward: ``push_set``, ``push_ball``
and ``push_measure`` return the function q -> w_q as counts c_q over one
denominator D_w, and ``FiniteAction.apply_push`` sums the permuted
copies of x with those integer weights.  The part of the push that is
constant over the states is summed once: with c* the most common count
and S(X) the sum of alpha_q(X) over all of Q,

    sum_q c_q alpha_q(X) = c* S(X) + sum_{c_q != c*} (c_q - c*) alpha_q(X),

and S(X)[i][j] = T[i^-1 j] with T[h] = sum_k X[k][k h] is one O(|Q|^2)
pass over the permutation tables.  A ball or an interval over a cyclic
quotient covers nearly every state the same number of times, so few
terms are left.

The PSD order on matrix observables is exact and also runs in integers.
``psd_check`` takes the integer numerators of a matrix observable and
runs a fraction-free pivoted LDL^T on them (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968): every division is exact, the pivot order is that of the
elimination in Fractions, and the proxy it returns, divided by the
denominator, is the same Fraction.

A quotient is given by its states and q alone, and each group supplies
its own as ``Group.quotient(m)`` (see ``groups.py``), so the quotient law
is the group's law followed by q.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .chains import Chain
from .frozen import Frozen
from .groups import Group, Zd
from .measures import FinSupMeasure
from .sets import FiniteSubset


# -- observables ----------------------------------------------------------


def _rational(v):
    """v itself when it is an int or a Fraction (both have numerator and
    denominator), else Fraction(v); a bool is not a number here."""
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is not a rational")
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


class Observable(Frozen):
    """A rational function on the state space or a symmetric rational matrix,
    stored as integers ``nums`` (a tuple, or a tuple of row tuples) over one
    denominator ``den``, in lowest terms: den > 0 and gcd(den, *nums) == 1,
    so that == compares values.  ``kind`` is "function" or "matrix"."""

    __slots__ = _fields = ("kind", "den", "nums")

    def __init__(self, kind: str, den: int, nums: tuple):
        if den <= 0:
            raise ValueError("denominator must be positive")
        flat = nums if kind == "function" else itertools.chain.from_iterable(nums)
        g = gcd(den, *flat)
        self._init(kind, den, nums)
        if g != 1:
            self._init(kind, den // g, self._map(lambda v: v // g))

    @classmethod
    def function(cls, values: Iterable) -> "Observable":
        den, nums = _over_common_denominator(map(_rational, values))
        return cls("function", den, tuple(nums))

    @classmethod
    def matrix(cls, rows: Iterable[Iterable]) -> "Observable":
        mat = [[_rational(v) for v in row] for row in rows]
        n = len(mat)
        if any(len(row) != n for row in mat):
            raise ValueError("matrix must be square")
        den, flat = _over_common_denominator(v for row in mat for v in row)
        nums = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        if any(nums[i][j] != nums[j][i] for i in range(n) for j in range(i)):
            raise ValueError("matrix must be symmetric")
        return cls("matrix", den, nums)

    @classmethod
    def indicator(cls, size: int, where: Iterable[int]) -> "Observable":
        hot = set(where)
        return cls("function", 1, tuple(int(i in hot) for i in range(size)))

    @property
    def data(self) -> tuple:
        """The entries as Fractions: a tuple, or a tuple of row tuples."""
        return self._map(lambda v: Fraction(v, self.den))

    def _map(self, f: Callable) -> tuple:
        """f applied to every numerator, in the observable's shape."""
        if self.kind == "function":
            return tuple(map(f, self.nums))
        return tuple(tuple(map(f, row)) for row in self.nums)

    def _times(self, k: int) -> tuple:
        """The numerators times k."""
        return self.nums if k == 1 else self._map(k.__mul__)

    @property
    def size(self) -> int:
        return len(self.nums)

    def is_nonnegative(self) -> bool:
        if self.kind == "function":
            return all(v >= 0 for v in self.nums)
        ok, _ = psd_check(self.nums)
        return ok

    def add(self, other: "Observable") -> "Observable":
        return self._entrywise(operator.add, other)

    def sub(self, other: "Observable") -> "Observable":
        return self._entrywise(operator.sub, other)

    def _entrywise(self, op: Callable, other: "Observable") -> "Observable":
        """op(a, b) for each pair of entries, over the lcm of the denominators."""
        den, a, b = self._common(other)
        if self.kind == "function":
            return Observable("function", den, tuple(map(op, a, b)))
        return Observable("matrix", den, tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a, b)))

    def scale(self, c) -> "Observable":
        c = Fraction(c)
        return Observable(self.kind, self.den * c.denominator, self._times(c.numerator))

    def square(self) -> "Observable":
        """x*x: pointwise square, or the matrix product (x symmetric)."""
        den2 = self.den * self.den
        if self.kind == "function":
            return Observable("function", den2, tuple(v * v for v in self.nums))
        cols = list(zip(*self.nums))
        return Observable(
            "matrix",
            den2,
            tuple(tuple(sum(map(operator.mul, r, c)) for c in cols) for r in self.nums),
        )

    def sup_distance(self, other: "Observable") -> Fraction:
        den, a, b = self._common(other)
        if self.kind == "matrix":
            a, b = itertools.chain.from_iterable(a), itertools.chain.from_iterable(b)
        return Fraction(max(abs(u - v) for u, v in zip(a, b)), den)

    def _common(self, other: "Observable") -> tuple[int, tuple, tuple]:
        """(D, self's nums over D, other's nums over D), D the lcm of the
        two denominators; shapes must match."""
        if self.kind != other.kind or self.size != other.size:
            raise ValueError("observable shape mismatch")
        den = lcm(self.den, other.den)
        return den, self._times(den // self.den), other._times(den // other.den)


def _over_common_denominator(values: Iterable) -> tuple[int, list[int]]:
    """(D, [v * D for v in values]), D the least common denominator of the
    ints and Fractions ``values``."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def psd_check(mat: Sequence[Sequence[int]]) -> tuple[bool, Fraction]:
    """Exact PSD test by pivoted LDL^T on a symmetric integer matrix, such
    as the numerators ``nums`` of a matrix observable.

    Pivots on the largest remaining diagonal entry, the first in index
    order on a tie; a negative diagonal or a nonzero row under a zero
    diagonal disproves PSD.  Returns (verdict, proxy) where the proxy is
    the smallest pivot used (a crude stand-in for the least eigenvalue; 0
    for singular PSD matrices), or the negative pivot that disproved PSD.
    For the numerators M = D A of a rational matrix A over the
    denominator D, the proxy of A is the proxy of M divided by D.

    The elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): each
    step sets a_ij <- (piv a_ij - a_ip a_pj) / prev, prev the previous
    pivot (1 at the start), and the division is exact because every entry
    is then a minor of M.  The pivots B_1, B_2, ... are the leading
    principal minors of M in pivot order, and the k-th pivot of the
    LDL^T in Fractions is B_k / B_{k-1}.  The earlier pivots are positive,
    so each remaining diagonal is that of the elimination in Fractions
    times a positive number: both choose the same pivot, stop at the same
    step, and the proxy is the same Fraction.
    """
    a = [list(row) for row in mat]
    live = list(range(len(a)))
    prev = 1
    pivots = []
    while live:
        p = max(live, key=lambda i: a[i][i])
        piv = a[p][p]
        pivot = Fraction(piv, prev)
        if piv <= 0:
            return piv == 0 and not any(a[i][j] for i in live for j in live), pivot
        pivots.append(pivot)
        live.remove(p)
        row_p = a[p]
        for i in live:
            row_i = a[i]
            f = row_i[p]
            for j in live:
                row_i[j] = (piv * row_i[j] - f * row_p[j]) // prev
        prev = piv
    return True, min(pivots, default=Fraction(0))


def psd_order_holds(lo: Observable, hi: Observable) -> tuple[bool, Fraction]:
    """hi - lo >= 0: the pointwise slack for functions, ``psd_check`` on
    the numerators of hi - lo for matrices."""
    diff = hi.sub(lo)
    if diff.kind == "function":
        slack = Fraction(min(diff.nums), diff.den)
        return slack >= 0, slack
    ok, proxy = psd_check(diff.nums)
    return ok, proxy / diff.den


# -- actions --------------------------------------------------------------


class FiniteAction:
    """Left regular representation of a finite quotient group.

    ``states`` are representatives of the quotient elements, in a fixed
    canonical order, with ``qmap(s) == s``; ``qmap`` is the quotient
    homomorphism.  The quotient law is ``group.mul``/``group.inv``
    followed by ``qmap``.  The invariant probability on states is uniform.
    """

    def __init__(self, group: Group, states: Iterable, qmap: Callable):
        self.group = group
        self.states = tuple(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.qmap = qmap
        if not self.states or len(self.index) != len(self.states):
            raise ValueError("states must be nonempty and distinct")
        if any(qmap(s) != s for s in self.states):
            raise ValueError("states must be representatives with qmap(s) == s")
        self._perm_cache: dict[int, tuple[int, ...]] = {}
        self._inverse_cache: dict[int, tuple[int, ...]] = {}

    @property
    def size(self) -> int:
        return len(self.states)

    def state_of(self, g) -> int:
        return self.index[self.qmap(g)]

    def perm(self, qi: int) -> tuple[int, ...]:
        """Permutation s -> q*s of state indices, for quotient element qi."""
        cached = self._perm_cache.get(qi)
        if cached is None:
            q = self.states[qi]
            cached = tuple(self.state_of(self.group.mul(q, s)) for s in self.states)
            self._perm_cache[qi] = cached
        return cached

    def _inverse_perm(self, qi: int) -> tuple[int, ...]:
        """Permutation s -> q^{-1} s of state indices, for quotient element qi."""
        cached = self._inverse_cache.get(qi)
        if cached is None:
            cached = self.perm(self.state_of(self.group.inv(self.states[qi])))
            self._inverse_cache[qi] = cached
        return cached

    # -- pushforwards and averages -------------------------------------

    def push_set(self, F: FiniteSubset) -> Observable:
        """Pushforward of uniform(F) through the quotient map."""
        if len(F) == 0:
            raise ValueError("empty Folner set")
        return self._push(zip(F, itertools.repeat(1)), len(F))

    def push_ball(self, radius: int, cap: int | None = None) -> Observable:
        """Pushforward of uniform(word ball of radius r) through the quotient
        map, from the counts of ``Group.ball_counts``; a ball over ``cap``
        raises SizeCapExceeded("word_ball", ...) as ``word_ball`` does."""
        counts = self.group.ball_counts(radius, self.qmap, cap)
        return self._push(counts.items(), sum(counts.values()))

    def push_measure(self, mu: FinSupMeasure) -> Observable:
        return self._push(mu.numerators.items(), mu.denominator)

    def _push(self, numerators: Iterable, denominator: int) -> Observable:
        """The one pushforward loop: integer numerators summed per state,
        over ``denominator``.  Uniform(F) is streamed as (g, 1) pairs rather
        than built as a measure, whose dict would add |F| entries to the
        peak memory."""
        counts = [0] * self.size
        for g, num in numerators:
            counts[self.state_of(g)] += num
        return Observable("function", denominator, tuple(counts))

    def apply_push(self, push: Observable, x: Observable) -> Observable:
        """sum_q w_q alpha_q(x) for the pushforward ``push``, the function
        q -> w_q on the states.

        Computed in integers: with c_q the numerators of the push over its
        denominator D_w and X the numerators of x, each output numerator is
        an integer over D_w times the denominator of x.

        The part of the push that is constant over the states is summed
        once.  With c* the most common c_q (0, then the smallest, on a tie)
        and S(X) = sum_{q in Q} alpha_q(X),

            sum_q c_q alpha_q(X) = c* S(X) + sum_{c_q != c*} (c_q - c*) alpha_q(X),

        which is the sum split as c_q = c* + (c_q - c*).  S(X) costs one
        O(n^2) pass: alpha_q(X)[i][j] = X[q^-1 i][q^-1 j], and k = q^-1 i
        runs over Q with q, so S(X)[i][j] = sum_k X[k][k i^-1 j] = T[i^-1 j]
        with T[h] = sum_k X[k][k h]; for a function S(x)[i] = sum_k x[k].
        When c* = 0 only the states in the push are summed.
        """
        n = self.size
        if push.kind != "function" or push.size != n:
            raise ValueError("a pushforward is a function on the states")
        tally = Counter(push.nums)
        base = max(tally, key=lambda v: (tally[v], v == 0, -v))
        terms = [(w - base, self._inverse_perm(q)) for q, w in enumerate(push.nums) if w != base]
        X = x.nums
        den = push.den * x.den
        if x.kind == "function":
            total = base * sum(X)
            return Observable(
                "function", den, tuple(total + sum(w * X[s[i]] for w, s in terms) for i in range(n))
            )
        if base:
            cols = zip(*map(self.perm, range(n)))  # column h: the states k h
            bT = [base * sum(map(operator.getitem, X, col)) for col in cols]
            acc = [list(map(bT.__getitem__, self._inverse_perm(i))) for i in range(n)]
        else:
            acc = [[0] * n for _ in range(n)]
        for w, s in terms:
            for i, si in enumerate(s):
                xr = X[si]
                acc[i] = [a + w * xr[k] for a, k in zip(acc[i], s)]
        return Observable("matrix", den, tuple(map(tuple, acc)))

    def one_norm(self, x: Observable) -> Fraction:
        """tau(|x|) = (1/|Q|) sum_s |x(s)|, for function observables."""
        if x.kind != "function":
            raise ValueError("one_norm is defined for function observables")
        return Fraction(sum(map(abs, x.nums)), self.size * x.den)


def zd_mod_action(d: int, m: int) -> FiniteAction:
    """Z^d acting on (Z/m)^d by translation."""
    group = Zd(d)
    return FiniteAction(group, *group.quotient(m))


# -- the operators of the ergodic theorem -----------------------------------


def ergodic_average(act: FiniteAction, Fn: FiniteSubset, x: Observable) -> Observable:
    """A_n(x) = (1/|F_n|) sum_{g in F_n} alpha_g(x), exactly."""
    return act.apply_push(act.push_set(Fn), x)


def cesaro_mean(
    act: FiniteAction, omega: FinSupMeasure, N: int, x: Observable
) -> Observable:
    """M_N(x) = (1/N) sum_{j<N} T^j(x), by iterating on the quotient the
    operator T(x) = sum_g omega(g) alpha_g(x), contractive when mass <= 1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    push = act.push_measure(omega)
    total = x
    tj = x
    for _ in range(1, N):
        tj = act.apply_push(push, tj)
        total = total.add(tj)
    return total.scale(Fraction(1, N))


def invariant_projection(act: FiniteAction, x: Observable) -> Observable:
    """P(x): average of alpha_q(x) over the whole finite quotient group."""
    return act.apply_push(Observable("function", act.size, (1,) * act.size), x)


def check_dominance(
    act: FiniteAction,
    chain: Chain,
    n: int,
    x: Observable,
    c_emp: Fraction,
) -> tuple[bool, Fraction]:
    """A_n(x) <= c_emp * M_{N(n)}(x), pointwise or in PSD order.

    Returns (verdict, minimal slack): the least entry of the difference
    for functions, the smallest factorization pivot for matrices.
    """
    if not x.is_nonnegative():
        raise ValueError("dominance transfer needs a positive observable")
    Fn, _ = chain.level(n)
    left = ergodic_average(act, Fn, x)
    right = cesaro_mean(act, chain.omega, chain.schedule.N(n), x).scale(c_emp)
    return psd_order_holds(left, right)


def convergence_diagnostics(
    act: FiniteAction,
    averages: Sequence[tuple[int, Observable]],
    x: Observable,
) -> list[tuple[int, Fraction]]:
    """Per index n: the sup distance between A_n(x) and P(x), exact, from
    the averages [(n, A_n(x))]."""
    proj = invariant_projection(act, x)
    return [(n, avg.sup_distance(proj)) for n, avg in averages]


def weak11_probe(
    act: FiniteAction,
    averages: Sequence[tuple[int, Observable]],
    x: Observable,
    eps: Fraction,
    c_emp: Fraction,
) -> tuple[frozenset, Fraction, Fraction, bool]:
    """Finite-space weak (1,1) probe for the maximal function.

    e = {s : max_n A_n(x)(s) <= c_emp * eps}, from the averages
    [(n, A_n(x))] as in ``convergence_diagnostics``; returns (e, complement
    mass, the bound (4 c_emp / eps) ||x||_1, and whether mass <= bound).
    """
    if x.kind != "function":
        raise ValueError("weak (1,1) probe is for function observables")
    if any(v < 0 for v in x.nums):
        raise ValueError("x must be nonnegative")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    # max_n A_n(x)(s) <= t, the maximum starting at 0, on numerators:
    # A_n(x)(s) <= t is nums[s] * t.denominator <= t.numerator * den
    t = c_emp * eps
    good = set(range(act.size)) if t >= 0 else set()
    for _, avg in averages:
        top = t.numerator * avg.den
        good = {s for s in good if avg.nums[s] * t.denominator <= top}
    good = frozenset(good)
    comp_mass = Fraction(act.size - len(good), act.size)
    bound = 4 * c_emp / eps * act.one_norm(x)
    return good, comp_mass, bound, comp_mass <= bound


def kadison_check(act: FiniteAction, push: Observable, x: Observable) -> tuple[bool, Fraction]:
    """A_n(x)*A_n(x) <= A_n(x*x) in PSD order (A_n is unital positive),
    A_n from the pushforward ``push`` of uniform(F_n)."""
    return psd_order_holds(act.apply_push(push, x).square(), act.apply_push(push, x.square()))
