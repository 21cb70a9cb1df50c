"""Finitely supported measures with exact rational masses.

Internally a measure keeps integer numerators over a single shared
denominator, so convolution loops stay in plain bigint arithmetic; masses
are exposed as Fractions.  Support capping drops the smallest atoms
(ties broken by canonical encoding) and permanently marks the result as a
pointwise lower bound -- dropped mass can only weaken a ">=" certificate,
never fake one.

``convolve`` is the one place where measures are convolved.  It takes the
raw numerators from the group's exact kernel, ``group.convolve`` (see
``groups``), then applies the cap and reduces the fraction the same way
whichever kernel ran.  The powers of omega are walked once per chain, by
``Chain.powers`` (see ``chains``); ``cesaro_density`` reads a prefix of
that walk and adds the last power pointwise through ``convolve_at``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .frozen import Frozen
from .groups import Group, group_from_token, require_same_group
from .sets import FiniteSubset


class FinSupMeasure(Frozen):
    """``numerators`` maps element -> positive int over one ``denominator``;
    ``truncated`` True: masses are a pointwise lower bound."""

    __slots__ = _fields = ("group", "numerators", "denominator", "truncated")

    def __init__(self, group: Group, numerators: dict, denominator: int, truncated: bool = False):
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        self._init(group, numerators, denominator, truncated)

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

    def support(self) -> FiniteSubset:
        return FiniteSubset(self.group, frozenset(self.numerators))

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
        lines = text.strip().splitlines()
        header = dict(
            kv.split("=", 1) for kv in lines[0].lstrip("# ").split()[1:]
        )
        group = group_from_token(header["group"])
        masses = {}
        for row in lines[2:]:
            h, num, den = row.split(",")
            masses[group.decode(bytes.fromhex(h))] = Fraction(int(num), int(den))
        mu = cls.from_masses(group, masses)
        if header.get("flag") == "mass-dropped-lower-bound":
            mu = FinSupMeasure(group, mu.numerators, mu.denominator, True)
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


def _apply_cap(
    group: Group, num: dict, den: int, cap: int | None
) -> tuple[dict, bool]:
    if cap is None or len(num) <= cap:
        return num, False
    # drop smallest masses first; break ties by canonical encoding order
    enc = group.encode
    order = sorted(num.items(), key=lambda kv: (kv[1], enc(kv[0])), reverse=True)
    return dict(order[:cap]), True


def _reduce(num: dict, den: int) -> tuple[dict, int]:
    g = den
    for n in num.values():
        g = gcd(g, n)
        if g == 1:
            return num, den
    if g == 1:
        return num, den
    return {k: n // g for k, n in num.items()}, den // g


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
    out, dropped = _apply_cap(mu.group, out, den, cap)
    out, den = _reduce(out, den)
    return FinSupMeasure(
        mu.group, out, den, mu.truncated or nu.truncated or dropped
    )


def convolve_at(mu: FinSupMeasure, nu: FinSupMeasure, points: Iterable) -> dict:
    """Densities of mu * nu at the given points only (element -> Fraction).

    Loops over the smaller operand and inverts each of its elements once:
    (mu * nu)(g) = sum_h mu(h) nu(h^{-1} g) = sum_k mu(g k^{-1}) nu(k).
    """
    require_same_group(mu.group, nu.group)
    mulop, inv = mu.group.mul, mu.group.inv
    den = mu.denominator * nu.denominator
    out = {}
    if len(mu) <= len(nu):
        terms = [(inv(h), v) for h, v in mu.numerators.items()]
        get = nu.numerators.get
        for g in points:
            out[g] = Fraction(sum(v * get(mulop(hi, g), 0) for hi, v in terms), den)
    else:
        terms = [(inv(k), v) for k, v in nu.numerators.items()]
        get = mu.numerators.get
        for g in points:
            out[g] = Fraction(sum(v * get(mulop(g, ki), 0) for ki, v in terms), den)
    return out


def cesaro_density(
    powers: Sequence[FinSupMeasure], omega: FinSupMeasure, eval_set: FiniteSubset
) -> tuple[dict, bool]:
    """(1/N) sum_{j<N} d omega^(j)/d lambda on eval_set, with N = len(powers) + 1.

    ``powers`` is [omega^(0), ..., omega^(N-2)], a prefix of the chain's
    walk (``Chain.powers``); the last power omega^(N-1) is evaluated only at
    the requested points, by ``convolve_at``, which keeps the N-th
    convolution from dominating the cost.  Returns (element -> Fraction,
    tainted): exact values, or certified lower bounds when a power was capped.
    """
    require_same_group(omega.group, eval_set.group)
    if not powers or len(eval_set) == 0:
        raise ValueError("need omega^(0) and a nonempty evaluation set")
    N = len(powers) + 1
    totals = convolve_at(powers[-1], omega, eval_set.elements)
    for p in powers:
        for g in totals:
            totals[g] += p.mass(g)
    tainted = omega.truncated or any(p.truncated for p in powers)
    return {g: v / N for g, v in totals.items()}, tainted


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
