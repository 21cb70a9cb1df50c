"""Envelope chains: the E_n recursion, the measure omega and its walk.

A chain is given by the Folner subsequence F_n, the envelopes

    E_1 = F_1,   E_n = (E_{n-1}^{N(n)-2})^{-1} F_n (E_{n-1}^{N(n)-2})^{-1},

and the schedule, from which it derives omega = sum_{n<=K} t_n u_{E_n}
truncated at depth K (total mass 1 - r_{K+1}; renormalizing would silently
change the weights, and every finite-n certificate only uses indices <= n).
``build_chain`` is the one place where a chain is built; given an
extraction budget it also picks the subsequence F_n, and keeps the
envelope it built while choosing each one.

``Chain.powers`` is the walk omega^(0) = delta_e, omega^(1), ..., the one
place where powers of omega are convolved.  Every level report reads a
prefix of it (``dominance.level_densities``), so each power is built once
per chain.  The chain keeps the cap it was built with, and its walk
truncates under that cap.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import SizeCapExceeded
from .frozen import Frozen
from .groups import Lamplighter
from .measures import FinSupMeasure, convolve, mix
from .sets import (
    FiniteSubset,
    envelope_pad,
    interior_bilateral,
    is_symmetric_with_identity,
    product,
)
from .schedules import Schedule, fn_size, ftilde_size


def _lamp_subsets(n: int) -> list[frozenset]:
    rng = range(n + 1)
    out = [frozenset()]
    for r in rng:
        out.extend(frozenset(c) for c in combinations(rng, r + 1))
    return out


def lamplighter_ftilde(n: int, cap: int | None = None) -> FiniteSubset:
    """F~_n = {(t, K) : t in [0,n], K subset [0,n]}, right-Folner only."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if cap is not None and ftilde_size(n) > cap:
        raise SizeCapExceeded("lamplighter F~_n", ftilde_size(n), cap)
    subs = _lamp_subsets(n)
    return FiniteSubset.of(Lamplighter(), ((t, K) for t in range(n + 1) for K in subs))


def lamplighter_folner(n: int, cap: int | None = None) -> tuple[FiniteSubset, FiniteSubset]:
    """(F~_n, F_n) for the lamplighter group.

    F_n = F~_n^{-1} F~_n = {(t'-t, -t+K)} is two-sided, symmetric, and
    contains the identity.  Built by direct parametrization, never by the
    |F~_n|^2 pairwise product.
    """
    ftilde = lamplighter_ftilde(n, cap)
    if cap is not None and fn_size(n) > cap:
        raise SizeCapExceeded("lamplighter F_n", fn_size(n), cap)
    rng = range(n + 1)
    subs = _lamp_subsets(n)
    big = set()
    for t in rng:
        shifted = [frozenset(k - t for k in K) for K in subs]
        big.update((tp - t, L) for tp in rng for L in shifted)
    return ftilde, FiniteSubset(ftilde.group, frozenset(big))


class Chain(Frozen):
    """A built chain.  Compared: Folner sets F_1 .. F_K, envelopes E_1 .. E_K,
    schedule and size cap.  Derived: omega = ``build_omega(envelopes,
    schedule)`` and its group.  Not compared: ``_walk``, omega's powers so far."""

    __slots__ = ("folner", "envelopes", "schedule", "cap", "group", "omega", "_walk")
    _fields = __slots__[:4]

    def __init__(
        self,
        folner: list[FiniteSubset],
        envelopes: list[FiniteSubset],
        schedule: Schedule,
        cap: int | None = None,
    ):
        omega = build_omega(envelopes, schedule)
        self._init(folner, envelopes, schedule, cap, omega.group, omega, [FinSupMeasure.delta(omega.group)])

    @property
    def depth(self) -> int:
        return len(self.envelopes)

    def level(self, n: int) -> tuple[FiniteSubset, FiniteSubset]:
        if not 1 <= n <= self.depth:
            raise ValueError(f"level {n} outside chain depth {self.depth}")
        return self.folner[n - 1], self.envelopes[n - 1]

    def powers(self, J: int) -> list[FinSupMeasure]:
        """[omega^(0), ..., omega^(J)] with omega^(0) = delta_e.

        Each power is convolve(previous, omega, self.cap), so a cap
        truncates at every step and taints every later power.  The walk is
        kept per chain and extended on demand: a longer call reuses the
        shorter prefix.
        """
        if J < 0:
            raise ValueError("J must be >= 0")
        walk = self._walk
        while len(walk) <= J:
            walk.append(convolve(walk[-1], self.omega, self.cap))
        return walk[: J + 1]


def build_omega(E: list[FiniteSubset], sched: Schedule) -> FinSupMeasure:
    """omega = sum_{n<=K} t_n * uniform(E_n); total mass 1 - r_{K+1}."""
    if not E:
        raise ValueError("need at least one envelope")
    return mix([(sched.t(n), FinSupMeasure.uniform(En)) for n, En in enumerate(E, 1)])


def build_chain(
    Fsub: list[FiniteSubset],
    sched: Schedule,
    depth: int | None = None,
    cap: int | None = None,
    budget: int | None = None,
) -> Chain:
    """The chain on ``Fsub``: E_1 = F_1, then level by level the envelope
    E_n = P^{-1} F_n P^{-1} of the next set, with P = E_{n-1}^{N(n)-2}.

    Without a ``budget``, F_n is the next set of ``Fsub``.  With one, the
    sets after F_{n-1} are tried in order and F_n is the first whose
    envelope has |E_n \\ F_n| / |F_n| < eps(n), which guarantees
    |F_n| / |E_n| >= 1 / (1 + eps(n)); the envelope built while choosing is
    the one the chain keeps.  A level that tries ``budget`` sets, or runs
    out of them, without success is a cap hit: SizeCapExceeded names the
    level, its best ratio and the budget, and counts the sets it tried as
    the cap.
    """
    depth = len(Fsub) if depth is None else depth
    if not 1 <= depth <= len(Fsub):
        raise ValueError("depth must be between 1 and len(Fsub)")

    def checked():
        for i, F in enumerate(Fsub, 1):
            if not is_symmetric_with_identity(F):
                raise ValueError(f"F_{i} must be symmetric and contain the identity")
            yield F

    sets = checked()
    folner = [next(sets)]
    E = folner[:]
    for n in range(2, depth + 1):
        best, tried = None, 0
        try:
            pad = envelope_pad(E[-1], sched.N(n), cap)
            for Fn in sets:
                tried += 1
                En = product(product(pad, Fn, cap), pad, cap)
                if budget is None:
                    break
                ratio = Fraction(len(En.elements - Fn.elements), len(Fn))
                best = ratio if best is None else min(best, ratio)
                if ratio < sched.eps(n) or tried >= budget:
                    break
        except SizeCapExceeded as exc:
            raise SizeCapExceeded(f"E_{n} ({exc.what})", exc.needed, exc.cap, exc.unit) from exc
        if budget is not None and (best is None or best >= sched.eps(n)):
            what = f"extraction step {n} (best ratio {'none' if best is None else best}, budget {budget})"
            raise SizeCapExceeded(what, tried + 1, tried, "candidates")
        folner.append(Fn)
        E.append(En)
    return Chain(folner, E, sched, cap)


def check_chain_identities(chain: Chain) -> list[str]:
    """The structural chain identities that fail, one message each; [] when
    all of them hold.

    For every built level: e in E_n = E_n^{-1} subset E_{n+1}, F_n subset
    E_n, and F_n subset iota(P^{-1}, P^{-1}, E_n) with P = E_{n-1}^{N(n)-2}
    -- the containment that makes every g in F_n absorb the padded
    convolutions.  (Equality with the interior holds for interval chains
    on Z but not in general: the level-2 lamplighter interior is strictly
    larger than F_2.)  The pads are rebuilt under the chain's cap.
    """
    failures = []
    for n in range(1, chain.depth + 1):
        Fn, En = chain.level(n)
        if not is_symmetric_with_identity(En):
            failures.append(f"E_{n} not symmetric with e")
        if not Fn.issubset(En):
            failures.append(f"F_{n} not inside E_{n}")
        if n < chain.depth and not En.issubset(chain.envelopes[n]):
            failures.append(f"E_{n} not inside E_{n+1}")
        if n >= 2:
            pad = envelope_pad(chain.envelopes[n - 2], chain.schedule.N(n), chain.cap)
            if not Fn.issubset(interior_bilateral(pad, pad, En)):
                failures.append(f"interior containment fails at level {n}")
    return failures

