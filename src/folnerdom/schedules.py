"""Weight/length schedules and the lamplighter Folner set sizes.

A Schedule fixes the geometric weights t_n = (c-1)/c^n with exact tails
r_n = c^{1-n}, the window lengths N(n) = b^n, and the extraction
tolerances eps_k = 2^{-k}.  Only geometric tails are implemented: the
comparison argument needs r_{n+1}/r_n bounded away from 1, and a tail
with r_{n+1}/r_n -> 0 would force superexponential N(n).
"""

from __future__ import annotations

from fractions import Fraction

from .frozen import Frozen


class Schedule(Frozen):
    """t_n = (c-1)/c^n and N(n) = b^n with c = tail_base, b = length_base."""

    __slots__ = _fields = ("tail_base", "length_base", "depth")

    def __init__(self, tail_base: int = 2, length_base: int = 2, depth: int = 2):
        if tail_base < 2:
            raise ValueError("tail base must be >= 2 (weights must sum below 1)")
        if length_base < 2:
            raise ValueError("length base must be >= 2 (N(2) must exceed 2)")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self._init(tail_base, length_base, depth)

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


def ftilde_size(n: int) -> int:
    """|F~_n| = (n+1) 2^{n+1} for the one-sided lamplighter Folner set."""
    return (n + 1) * 2 ** (n + 1)


def fn_size(n: int) -> int:
    """|F_n| = |F~_n^{-1} F~_n| = 2^n (n^2 + 4n + 2)."""
    return 2**n * (n * n + 4 * n + 2)
