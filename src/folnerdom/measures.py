"""Finitely supported measures with exact rational masses.

Internally a measure keeps integer numerators over one shared denominator,
in lowest terms from its constructor, so that == compares values and
convolution loops stay in plain bigint arithmetic; masses are exposed as
Fractions.  Support capping drops the smallest atoms (ties broken by
canonical encoding) and permanently marks the result as a pointwise lower
bound -- dropped mass can only weaken a ">=" certificate, never fake one.

Both convolutions take raw numerators from the group's exact kernels (see
``groups``), so no group law runs here: ``convolve`` from
``group.convolve``, then applies the cap whichever kernel ran;
``convolve_at``, at chosen points only, from ``group.convolve_at``.  The
powers of omega are walked once per chain, by ``Chain.powers`` (see
``chains``), and read on F_n by ``dominance.level_densities``.

``serialize_csv`` defines the measure listing, and ``deserialize_csv``
reads back exactly the text that it writes: it parses the listing and
accepts it only if ``serialize_csv`` gives the same text back.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .frozen import Frozen
from .groups import Group, group_from_token, require_same_group
from .sets import FiniteSubset


class FinSupMeasure(Frozen):
    """``numerators`` maps element -> positive int over one ``denominator``,
    in lowest terms (the constructor divides out their gcd, so == compares
    values); ``truncated`` True: masses are a pointwise lower bound."""

    __slots__ = _fields = ("group", "numerators", "denominator", "truncated")

    def __init__(self, group: Group, numerators: dict, denominator: int, truncated: bool = False):
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        g = gcd(denominator, *numerators.values())
        if g != 1:
            numerators = {k: n // g for k, n in numerators.items()}
        self._init(group, numerators, denominator // g, truncated)

    # -- constructors ---------------------------------------------------

    @classmethod
    def delta(cls, group: Group) -> "FinSupMeasure":
        return cls(group, {group.identity: 1}, 1)

    @classmethod
    def uniform(cls, A: FiniteSubset) -> "FinSupMeasure":
        """Mass 1/|A| at each element of A."""
        if len(A) == 0:
            raise ValueError("uniform measure needs a nonempty set")
        return cls(A.group, {a: 1 for a in A.elements}, len(A))

    @classmethod
    def from_masses(cls, group: Group, masses: dict) -> "FinSupMeasure":
        """Build from element -> Fraction; zero masses dropped."""
        fr = {g: Fraction(m) for g, m in masses.items() if m}
        if any(m < 0 for m in fr.values()):
            raise ValueError("masses must be nonnegative")
        den = lcm(*(m.denominator for m in fr.values())) if fr else 1
        num = {g: m.numerator * (den // m.denominator) for g, m in fr.items()}
        mu = cls(group, num, den)
        if mu.total_mass > 1:
            raise ValueError("total mass exceeds 1")
        return mu

    # -- queries --------------------------------------------------------

    @property
    def total_mass(self) -> Fraction:
        return Fraction(sum(self.numerators.values()), self.denominator)

    def mass(self, g) -> Fraction:
        """dmu/dlambda at g (counting measure: mass equals density)."""
        return Fraction(self.numerators.get(g, 0), self.denominator)

    def __len__(self) -> int:
        return len(self.numerators)

    def items(self) -> Iterable[tuple[object, Fraction]]:
        den = self.denominator
        return ((g, Fraction(n, den)) for g, n in self.numerators.items())

    # -- serialization --------------------------------------------------

    def serialize_csv(self) -> str:
        tm = self.total_mass
        flag = "mass-dropped-lower-bound" if self.truncated else "exact"
        lines = [
            f"# folnerdom-measure group={self.group.token()} "
            f"total={tm.numerator}/{tm.denominator} flag={flag}",
            "encoding_hex,numerator,denominator",
        ]
        enc = self.group.encode
        rows = sorted(
            (enc(g).hex(), Fraction(n, self.denominator))
            for g, n in self.numerators.items()
        )
        lines.extend(f"{h},{m.numerator},{m.denominator}" for h, m in rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize_csv(cls, text: str) -> "FinSupMeasure":
        """The measure that ``serialize_csv`` writes as ``text``; a
        ValueError for any other text."""
        header, *lines = text.split("\n")
        group = group_from_token(header.partition(" group=")[2].partition(" ")[0])
        masses = {}
        for row in lines[1:-1]:
            h, num, den = row.split(",")
            try:
                masses[group.decode(bytes.fromhex(h))] = Fraction(int(num), int(den))
            except ZeroDivisionError:
                raise ValueError("zero denominator") from None
        mu = cls.from_masses(group, masses)
        if header.endswith(" flag=mass-dropped-lower-bound"):
            mu = FinSupMeasure(group, mu.numerators, mu.denominator, True)
        if mu.serialize_csv() != text:
            raise ValueError("non-canonical measure listing")
        return mu


def mix(parts: Sequence[tuple[Fraction, FinSupMeasure]]) -> FinSupMeasure:
    """Weighted sum sum_i w_i * mu_i with exact rational weights."""
    if not parts:
        raise ValueError("empty mixture")
    group = parts[0][1].group
    den = 1
    for w, mu in parts:
        require_same_group(group, mu.group)
        den = lcm(den, Fraction(w).denominator * mu.denominator)
    out: dict = {}
    truncated = False
    for w, mu in parts:
        w = Fraction(w)
        if w < 0:
            raise ValueError("mixture weights must be nonnegative")
        scale = den * w.numerator // (w.denominator * mu.denominator)
        for g, n in mu.numerators.items():
            out[g] = out.get(g, 0) + n * scale
        truncated = truncated or mu.truncated
    mu = FinSupMeasure(group, {g: n for g, n in out.items() if n}, den, truncated)
    if mu.total_mass > 1:
        raise ValueError("total mass exceeds 1")
    return mu


def _apply_cap(group: Group, num: dict, cap: int | None) -> tuple[dict, bool]:
    if cap is None or len(num) <= cap:
        return num, False
    # drop smallest masses first; break ties by canonical encoding order
    enc = group.encode
    order = sorted(num.items(), key=lambda kv: (kv[1], enc(kv[0])), reverse=True)
    return dict(order[:cap]), True


def convolve(
    mu: FinSupMeasure, nu: FinSupMeasure, cap: int | None = None
) -> FinSupMeasure:
    """(mu * nu)(g) = sum_h mu(h) nu(h^{-1} g), exact.

    With a ``cap``, the lowest-mass atoms of the result are dropped and
    the output is flagged as a pointwise lower bound.
    """
    require_same_group(mu.group, nu.group)
    out = mu.group.convolve(mu.numerators, nu.numerators)
    den = mu.denominator * nu.denominator
    out, dropped = _apply_cap(mu.group, out, cap)
    return FinSupMeasure(mu.group, out, den, mu.truncated or nu.truncated or dropped)


def convolve_at(mu: FinSupMeasure, nu: FinSupMeasure, points: Iterable) -> dict:
    """Densities of mu * nu at the given points only (element -> Fraction),
    from the group's kernel ``group.convolve_at``, which loops over nu."""
    require_same_group(mu.group, nu.group)
    den = mu.denominator * nu.denominator
    out = mu.group.convolve_at(mu.numerators, nu.numerators, points)
    return {g: Fraction(n, den) for g, n in out.items()}
