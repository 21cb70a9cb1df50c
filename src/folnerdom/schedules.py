"""Weight/length schedules and exponent-tower integers.

A Schedule fixes the geometric weights t_n = (c-1)/c^n with exact tails
r_n = c^{1-n}, the window lengths N(n) = b^n, and the extraction
tolerances eps_k = 2^{-k}.  Only geometric tails are implemented: the
comparison argument needs r_{n+1}/r_n bounded away from 1, and a tail
with r_{n+1}/r_n -> 0 would force superexponential N(n).

SymbolicSize holds integers of the form coeff * base^exp, where the
exponent may itself be such a tower; values above MATERIALIZE_BITS bits
are never expanded, yet comparisons stay exact via interval bounds on
logarithms that are refined until the two sides separate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import SizeCapExceeded

MATERIALIZE_BITS = 1 << 16  # larger values stay symbolic


@dataclass(frozen=True)
class Schedule:
    """t_n = (c-1)/c^n and N(n) = b^n with c = tail_base, b = length_base."""

    tail_base: int = 2
    length_base: int = 2
    depth: int = 2

    def __post_init__(self):
        if self.tail_base < 2:
            raise ValueError("tail base must be >= 2 (weights must sum below 1)")
        if self.length_base < 2:
            raise ValueError("length base must be >= 2 (N(2) must exceed 2)")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def t(self, n: int) -> Fraction:
        return Fraction(self.tail_base - 1, self.tail_base**n)

    def r(self, n: int) -> Fraction:
        """Tail sum_{j>=n} t_j of the full (untruncated) series."""
        return Fraction(1, self.tail_base ** (n - 1))

    def N(self, n: int) -> int:
        return self.length_base**n

    def eps(self, k: int) -> Fraction:
        return Fraction(1, 2**k)

    def head(self, n: int) -> Fraction:
        """sum_{i<n} t_i = r_1 - r_n = 1 - r_n."""
        return 1 - self.r(n)


def _log2_scaled(n: int, p: int) -> int:
    """floor-ish fixed point: returns s with |s/2^p - log2(n)| < 4/2^p."""
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
    return (ip << p) + frac


def _log2_interval(n: int, p: int) -> tuple[Fraction, Fraction]:
    s = _log2_scaled(n, p)
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
            if exp.is_int():
                exp = exp.to_int()
            else:
                return cls(coeff, base, exp)
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
        # same base, same coeff: compare exponents directly
        if (
            not self.is_int()
            and not other.is_int()
            and self.base == other.base
            and self.coeff == other.coeff
        ):
            a = self.exp if isinstance(self.exp, SymbolicSize) else SymbolicSize(self.exp)
            b = other.exp if isinstance(other.exp, SymbolicSize) else SymbolicSize(other.exp)
            return a._cmp(b, depth + 1)
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

    def __eq__(self, other):
        if isinstance(other, int):
            other = SymbolicSize(other)
        if not isinstance(other, SymbolicSize):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other):
        if isinstance(other, int):
            other = SymbolicSize(other)
        return self._cmp(other) < 0

    def __le__(self, other):
        if isinstance(other, int):
            other = SymbolicSize(other)
        return self._cmp(other) <= 0

    def __gt__(self, other):
        if isinstance(other, int):
            other = SymbolicSize(other)
        return self._cmp(other) > 0

    def __ge__(self, other):
        if isinstance(other, int):
            other = SymbolicSize(other)
        return self._cmp(other) >= 0

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
    m_prev = poly_growth_schedule(n - 1)[1]
    m = l + 2 * (2**n - 2) * m_prev.to_int() if m_prev.is_int() else None
    if m is None:
        raise SizeCapExceeded("poly-growth envelope", n * n, _POLY_BITS_BUDGET)
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


def ftilde_size(n: int) -> int:
    """|F~_n| = (n+1) 2^{n+1} for the one-sided lamplighter Folner set."""
    return (n + 1) * 2 ** (n + 1)


def fn_size(n: int) -> int:
    """|F_n| = |F~_n^{-1} F~_n| = 2^n (n^2 + 4n + 2)."""
    return 2**n * (n * n + 4 * n + 2)


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
