"""The paper's finite lemmas, checked by the test suite; the package never imports this module.

The package certifies the dominance inequality and its transfer to actions;
each function here evaluates a finite lemma of the argument for its test,
and takes its set products and convolutions from the package's kernels:

* ``folner_ratio``: two-sided Folner ratios of the lamplighter F_n (criterion 02);
* ``mixed_absorption_value``: absorption on dynamical interiors (criterion 04);
* ``arithgeo_closed_form``: the arithmetico-geometric closed form (criterion 05),
  and ``limit_profile``, its limit (``test_limit_profile_positive_and_reference``);
* ``lamplighter_schedules``, ``tempered_prefix_constant``, ``count_inverse_product``:
  the tower-sized lamplighter schedules and their temperedness (criterion 11),
  matched by ``temperedness_constant`` (``test_tempered_prefix_constant_matches_set_arithmetic``);
* ``poly_growth_schedule``, ``poly_growth_overhead_bound``: ball radii for polynomial
  growth (``test_poly_growth_values``, ``test_poly_growth_overhead_bound_holds``);
* ``support_generates``: supp(omega) generates the group (``test_support_generates``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from folnerdom.chains import Chain
from folnerdom.errors import SizeCapExceeded
from folnerdom.groups import require_same_group
from folnerdom.measures import FinSupMeasure, convolve
from folnerdom.schedules import ftilde_size
from folnerdom.sets import FiniteSubset, inverse_set, product

MATERIALIZE_BITS = 1 << 16  # larger values stay symbolic


def _log2_interval(n: int, p: int) -> tuple[Fraction, Fraction]:
    """[s - 4, s + 4] / 2^p, which holds log2(n), from the floor-ish fixed
    point s with |s/2^p - log2(n)| < 4/2^p."""
    if n < 1:
        raise ValueError("log2 of nonpositive")
    ip = n.bit_length() - 1
    Q = 2 * p + 8
    x = (n << Q) >> ip  # mantissa in [2^Q, 2^{Q+1})
    frac = 0
    for _ in range(p):
        x = (x * x) >> Q
        frac <<= 1
        if x >> (Q + 1):
            frac |= 1
            x >>= 1
    s = (ip << p) + frac
    err = Fraction(4, 2**p)
    return Fraction(s, 2**p) - err, Fraction(s, 2**p) + err


class SymbolicSize:
    """A positive integer coeff * base^exp, possibly too large to expand.

    ``exp`` is an int or another SymbolicSize.  Plain integers are the
    base = None case.  Ordering is exact: materializable values compare
    as ints, towers compare through logarithm intervals refined until
    they separate (structural equality is checked first).
    """

    __slots__ = ("coeff", "base", "exp")

    def __init__(self, coeff: int, base: int | None = None, exp=None):
        if coeff < 1:
            raise ValueError("coefficient must be >= 1")
        if base is not None and base < 2:
            raise ValueError("tower base must be >= 2")
        self.coeff = coeff
        self.base = base
        self.exp = exp if base is not None else None

    @classmethod
    def of(cls, n: int) -> "SymbolicSize":
        return cls(n)

    @classmethod
    def tower(cls, base: int, exp, coeff: int = 1) -> "SymbolicSize":
        """coeff * base^exp; collapses to a plain int when small enough."""
        if isinstance(exp, SymbolicSize):
            if not exp.is_int():
                return cls(coeff, base, exp)
            exp = exp.coeff
        bits = exp * base.bit_length() + coeff.bit_length()
        if bits <= MATERIALIZE_BITS:
            return cls(coeff * base**exp)
        return cls(coeff, base, exp)

    def is_int(self) -> bool:
        return self.base is None

    def to_int(self) -> int:
        if not self.is_int():
            raise SizeCapExceeded(
                "tower materialization", self.bits_lower_bound(), MATERIALIZE_BITS
            )
        return self.coeff

    def bits_lower_bound(self) -> int:
        if self.is_int():
            return self.coeff.bit_length()
        e = self.exp if isinstance(self.exp, int) else MATERIALIZE_BITS
        return min(e, MATERIALIZE_BITS) * (self.base.bit_length() - 1) + 1

    # -- ordering ---------------------------------------------------------

    def _structurally_equal(self, other: "SymbolicSize") -> bool:
        if self.is_int() or other.is_int():
            return self.is_int() and other.is_int() and self.coeff == other.coeff
        if self.coeff != other.coeff or self.base != other.base:
            return False
        a, b = self.exp, other.exp
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        if isinstance(a, SymbolicSize) and isinstance(b, SymbolicSize):
            return a._structurally_equal(b)
        return False

    def _log2_iv(self, p: int) -> tuple[Fraction, Fraction] | None:
        """Fraction interval around log2(self), or None if exp is symbolic."""
        if self.is_int():
            return _log2_interval(self.coeff, p)
        if not isinstance(self.exp, int):
            return None
        blo, bhi = _log2_interval(self.base, p)
        clo, chi = _log2_interval(self.coeff, p)
        return self.exp * blo + clo, self.exp * bhi + chi

    def _cmp(self, other: "SymbolicSize", depth: int = 0) -> int:
        if depth > 32:
            raise ValueError("tower comparison recursion limit")
        if self.is_int() and other.is_int():
            return (self.coeff > other.coeff) - (self.coeff < other.coeff)
        if self._structurally_equal(other):
            return 0
        # two towers (an int has base None) of the same base and coeff:
        # compare exponents directly
        if self.base == other.base and self.coeff == other.coeff:
            return self._exp_as_symbolic()._cmp(other._exp_as_symbolic(), depth + 1)
        for p in (32, 128, 512, 2048, 8192):
            ia, ib = self._log2_iv(p), other._log2_iv(p)
            if ia is not None and ib is not None:
                if ia[1] < ib[0]:
                    return -1
                if ib[1] < ia[0]:
                    return 1
                continue
            # a plain int against a tower whose exponent is itself symbolic:
            # bracket log2 of the int and turn the inequality into an exact
            # integer comparison against the tower's exponent.
            if self.is_int() or other.is_int():
                small, big, sign = (
                    (self, other, 1) if self.is_int() else (other, self, -1)
                )
                vlo, vhi = _log2_interval(small.coeff, p)
                lb = _log2_interval(big.base, p)
                cb = _log2_interval(2 * big.coeff, p)[1]
                e = big._exp_as_symbolic()
                # small < big when e * lb_lo > vhi
                thresh_low = (vhi / lb[0]).limit_denominator(1 << p)
                if e._cmp(SymbolicSize(int(thresh_low) + 1), depth + 1) >= 0:
                    return -sign
                # small > big when e * lb_hi + cb < vlo
                if vlo > cb:
                    thresh_high = ((vlo - cb) / lb[1]).limit_denominator(1 << p)
                    m = int(thresh_high)
                    if m >= 1 and e._cmp(SymbolicSize(m), depth + 1) <= 0:
                        return sign
                continue
            # at least one exponent is itself a tower: reduce by one log level.
            # log2(c * b^e) sits in [e*log2(b), e*log2(b) + log2(2c)], so it
            # suffices to compare e_a * log2(b_a) with e_b * log2(b_b); scale
            # both exponents by integers bracketing the log ratio.
            ea = self._exp_as_symbolic()
            eb = other._exp_as_symbolic()
            la = _log2_interval(self.base, p)
            lb = _log2_interval(other.base, p)
            ca = _log2_interval(2 * self.coeff, p)[1]
            cb = _log2_interval(2 * other.coeff, p)[1]
            # self < other if e_a*la_hi + ca < e_b*lb_lo, tested via integer
            # scaling: q*e_a < s*e_b with q/s >= (la_hi+slack)/lb_lo
            q, s = (la[1] + ca).limit_denominator(1 << p).as_integer_ratio()
            q2, s2 = lb[0].limit_denominator(1 << p).as_integer_ratio()
            left = ea._scale(q * s2)
            right = eb._scale(s * q2)
            c = left._cmp(right, depth + 1)
            if c:
                return c
        raise ValueError(
            f"cannot separate towers {self!r} and {other!r} exactly"
        )

    def _exp_as_symbolic(self) -> "SymbolicSize":
        e = self.exp
        return e if isinstance(e, SymbolicSize) else SymbolicSize(e)

    def _scale(self, k: int) -> "SymbolicSize":
        if k < 1:
            raise ValueError("scale must be positive")
        if self.is_int():
            return SymbolicSize(self.coeff * k)
        return SymbolicSize(self.coeff * k, self.base, self.exp)

    def _order(self, other) -> int:
        """``_cmp`` against a SymbolicSize or a plain int."""
        return self._cmp(SymbolicSize(other) if isinstance(other, int) else other)

    def __eq__(self, other):
        if not isinstance(other, (int, SymbolicSize)):
            return NotImplemented
        return self._order(other) == 0

    def __lt__(self, other):
        return self._order(other) < 0

    def __le__(self, other):
        return self._order(other) <= 0

    def __gt__(self, other):
        return self._order(other) > 0

    def __ge__(self, other):
        return self._order(other) >= 0

    def __hash__(self):
        if self.is_int():
            return hash(self.coeff)
        return hash((self.coeff, self.base, self.exp))

    def __repr__(self):
        if self.is_int():
            return f"SymbolicSize({self.coeff})"
        return f"SymbolicSize({self.coeff}, {self.base}, {self.exp!r})"

    def __str__(self):
        if self.is_int():
            return str(self.coeff)
        e = self.exp
        es = f"({e})" if isinstance(e, SymbolicSize) and not e.is_int() else str(e)
        head = "" if self.coeff == 1 else f"{self.coeff}*"
        return f"{head}{self.base}^{es}"


_POLY_BITS_BUDGET = 1 << 20


@lru_cache(maxsize=None)
def poly_growth_schedule(n: int) -> tuple[SymbolicSize, SymbolicSize]:
    """Ball radii for polynomial-growth groups: (l(n), m(n)).

    l(n) = 2^{n^2}; m(1) = l(1) = 2 and m(n) = l(n) + 2(2^n - 2) m(n-1),
    so that with B = [-1,1] in Z the envelopes E_n are exactly the
    intervals [-m(n), m(n)].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n * n + 1 > _POLY_BITS_BUDGET:
        raise SizeCapExceeded("poly-growth radius", n * n + 1, _POLY_BITS_BUDGET)
    l = 2 ** (n * n)
    if n == 1:
        return SymbolicSize.tower(2, 1), SymbolicSize.tower(2, 1)
    m = l + 2 * (2**n - 2) * poly_growth_schedule(n - 1)[1].to_int()
    return SymbolicSize.tower(2, n * n), SymbolicSize.of(m)


def poly_growth_overhead_bound(n: int) -> Fraction:
    """Upper bound 2(2^n-2)(2^{-2n+1} + (n-2)2^{-3n+4}) on the padding ratio.

    Dominates 2(2^n - 2) m(n-1) / l(n) for n >= 2 (the envelope E_n is only
    marginally larger than the ball of radius l(n)) and tends to 0.  Derived
    from unrolling the recursion: m(n) = l(n) + sum_j l(j) * prod_{k=j}^{n-1}
    2(2^{k+1}-2), where the product is 2^{(n^2-j^2+3n-3j)/2} prod (1-2^{-k}),
    and each j <= n-2 term of 2(2^n-2) m(n-1)/l(n) is at most 2^{-3n+4}.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return (
        2
        * (2**n - 2)
        * (Fraction(1, 2 ** (2 * n - 1)) + (n - 2) * Fraction(1, 2 ** (3 * n - 4)))
    )


def lamplighter_schedules(kind: str, n: int) -> SymbolicSize:
    """Index schedules for lamplighter Folner subsequences.

    kind "tempered":  l(1) = 1, l(n) = 3^{l(n-1)}     (1, 3, 27, ...)
    kind "dominance": l(1) = 1, l(n) = 17^{2^n l(n-1)} (1, 83521, ...)

    Values past MATERIALIZE_BITS come back as exponent towers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind not in ("tempered", "dominance"):
        raise ValueError(f"unknown schedule kind {kind!r}")
    val = SymbolicSize.of(1)
    for k in range(2, n + 1):
        if kind == "tempered":
            val = SymbolicSize.tower(3, val)
        elif val.is_int():
            val = SymbolicSize.tower(17, 2**k * val.to_int())
        else:
            val = SymbolicSize(1, 17, val._scale(2**k))
    return val


# -- temperedness and Folner ratios -----------------------------------------------


def count_inverse_product(m: int, n: int) -> int:
    """|F~_m^{-1} F~_n| by counting, never enumerating.

    An element of F~_m^{-1} F~_n is (u, L) with u = t' - t, t in [0,m],
    t' in [0,n], and L = (-t + K) ^ (u + K') for K in [0,m], K' in [0,n].
    For fixed u and lamp extremes a = min L, b = max L the reachable lamp
    patterns are exactly those fitting the window constraints below, each
    interior lamp free; summing 2^{b-a-1} over feasible (u, a, b) plus the
    empty-lamp translations gives the cardinality in O((n+m)^3) time.
    """
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    total = n + m + 1  # empty lamp set: u ranges over [-m, n]
    for u in range(-m, n + 1):
        for a in range(-m, n + 1):
            for b in range(a, n + 1):
                lo = max(0, -u, -a)
                hi = min(m, n - u, n - b)
                if lo <= hi:
                    total += 1 if a == b else 2 ** (b - a - 1)
    return total


def tempered_prefix_constant(lengths: list[int]) -> Fraction:
    """max over k of |U_{i<k} F~_{l(i)}^{-1} F~_{l(k)}| / |F~_{l(k)}|.

    Since the F~ sets are nested increasing, the union collapses to the
    largest term F~_{l(k-1)}^{-1} F~_{l(k)}, whose size the combinatorial
    counter gives without enumeration.
    """
    if len(lengths) < 2:
        raise ValueError("need at least two indices")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("indices must be strictly increasing")
    best = Fraction(0)
    for prev, cur in zip(lengths, lengths[1:]):
        best = max(best, Fraction(count_inverse_product(prev, cur), ftilde_size(cur)))
    return best


def folner_ratio(
    K1: FiniteSubset, F: FiniteSubset, K2: FiniteSubset, cap: int | None = None
) -> Fraction:
    """|K1 F K2 \\ F| / |F| as an exact rational; 0 means exact bi-invariance."""
    require_same_group(K1.group, F.group)
    require_same_group(K2.group, F.group)
    if len(F) == 0:
        raise ValueError("F must be nonempty")
    moved = product(product(K1, F, cap), K2, cap)
    return Fraction(len(moved.elements - F.elements), len(F))


def temperedness_constant(
    prefix: list[FiniteSubset], cap: int | None = None
) -> Fraction:
    """max_n |U_{i<n} F_i^{-1} F_n| / |F_n| over the given prefix."""
    if len(prefix) < 2:
        raise ValueError("need at least two sets")
    best = Fraction(0)
    for n in range(1, len(prefix)):
        Fn = prefix[n]
        if len(Fn) == 0:
            raise ValueError("empty Folner set in prefix")
        union: set = set()
        for Fi in prefix[:n]:
            union |= product(inverse_set(Fi), Fn, cap).elements
            if cap is not None and len(union) > cap:
                raise SizeCapExceeded("temperedness union", len(union), cap)
        best = max(best, Fraction(len(union), len(Fn)))
    return best



def mixed_absorption_value(
    sets: Sequence[FiniteSubset], j: int, g
) -> Fraction:
    """Value at g of u_{K_1} * ... * chi_{K_j} * ... * u_{K_n}.

    All factors are uniform probability measures except slot ``j`` (1-based)
    which is the plain indicator; computed as |K_j| times the all-uniform
    convolution, so it stays within total-mass-1 measures.
    """
    if not 1 <= j <= len(sets):
        raise ValueError("slot out of range")
    acc = FinSupMeasure.uniform(sets[0])
    for K in sets[1:]:
        acc = convolve(acc, FinSupMeasure.uniform(K))
    return acc.mass(g) * len(sets[j - 1])


def arithgeo_closed_form(r: Fraction, N: int) -> Fraction:
    """sum_{j=0}^{N-1} j (1-r)^{j-1} = (1 - r N (1-r)^{N-1} - (1-r)^N) / r^2."""
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("r must lie in (0,1)")
    if N < 1:
        raise ValueError("N must be >= 1")
    q = 1 - r
    return (1 - r * N * q ** (N - 1) - q**N) / r**2


def limit_profile(x: float) -> float:
    """f(x) = (1 - e^{-x})/x - e^{-x}; positive for x > 0 (diagnostic only)."""
    if x <= 0:
        raise ValueError("x must be positive")
    return (1 - math.exp(-x)) / x - math.exp(-x)


def support_generates(chain: Chain, target: FiniteSubset, max_size: int) -> bool:
    """True if the closure of supp(omega) U {e} under multiplication,
    grown round by round, reaches ``target``.

    Finite stand-in for nondegeneracy: the group generated by the support
    of omega must be everything, otherwise the averages could miss F_n
    entirely (EF_n disjoint from F_n for E outside the closure).  Each
    round squares the closure with ``group.product``; the closure holds e,
    so its square contains it.  The closure stops when it is stable, and
    the answer is False as soon as a round would take it past ``max_size``
    elements, even if that round would have reached ``target``.
    """
    group = chain.group
    closure = frozenset(chain.omega.numerators) | {group.identity}
    while not target.elements <= closure:
        try:
            grown = group.product(closure, closure, max_size)
        except SizeCapExceeded:
            return False
        if len(grown) == len(closure):
            return False
        closure = grown
    return True
