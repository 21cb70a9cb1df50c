"""Envelope chains: the E_n recursion, the measure omega, its walk, and manifests.

A chain bundles the Folner subsequence F_n, the envelopes

    E_1 = F_1,   E_n = (E_{n-1}^{N(n)-2})^{-1} F_n (E_{n-1}^{N(n)-2})^{-1},

and the sub-probability measure omega = sum_{n<=K} t_n u_{E_n} truncated at
depth K (total mass 1 - r_{K+1}; renormalizing would silently change the
weights, and every finite-n certificate only uses indices <= n).

``Chain.powers`` is the walk omega^(0) = delta_e, omega^(1), ..., the one
place where powers of omega are convolved.  Every level certificate and
every lower estimate reads a prefix of it, so each power is built once per
(chain, cap).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from .errors import SizeCapExceeded
from .frozen import Frozen
from .groups import Group, Lamplighter, generated_closure
from .measures import FinSupMeasure, convolve, mix
from .sets import (
    FiniteSubset,
    envelope_pad,
    interior_bilateral,
    is_symmetric_with_identity,
    padded_envelope,
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
    """A built chain: Folner sets F_1 .. F_K, envelopes E_1 .. E_K,
    schedule, and omega.  ``_walks`` (the powers of omega per cap) is not
    compared."""

    __slots__ = ("group", "folner", "envelopes", "schedule", "omega", "_walks")
    _fields = __slots__[:5]

    def __init__(
        self,
        group: Group,
        folner: list[FiniteSubset],
        envelopes: list[FiniteSubset],
        schedule: Schedule,
        omega: FinSupMeasure,
    ):
        self._init(group, folner, envelopes, schedule, omega, {})

    @property
    def depth(self) -> int:
        return len(self.envelopes)

    def level(self, n: int) -> tuple[FiniteSubset, FiniteSubset]:
        if not 1 <= n <= self.depth:
            raise ValueError(f"level {n} outside chain depth {self.depth}")
        return self.folner[n - 1], self.envelopes[n - 1]

    def powers(self, J: int, cap: int | None = None) -> list[FinSupMeasure]:
        """[omega^(0), ..., omega^(J)] with omega^(0) = delta_e.

        Each power is convolve(previous, omega, cap), so a cap truncates at
        every step and taints every later power.  The walk is kept per cap
        and extended on demand: a longer call reuses the shorter prefix.
        """
        if J < 0:
            raise ValueError("J must be >= 0")
        walk = self._walks.setdefault(cap, [FinSupMeasure.delta(self.group)])
        while len(walk) <= J:
            walk.append(convolve(walk[-1], self.omega, cap))
        return walk[: J + 1]


def build_E_sequence(
    Fsub: list[FiniteSubset],
    sched: Schedule,
    depth: int | None = None,
    cap: int | None = None,
) -> list[FiniteSubset]:
    """E_1 = F_1, then the padded-product recursion level by level."""
    depth = len(Fsub) if depth is None else depth
    if not 1 <= depth <= len(Fsub):
        raise ValueError("depth must be between 1 and len(Fsub)")
    for n, Fn in enumerate(Fsub[:depth], 1):
        if not is_symmetric_with_identity(Fn):
            raise ValueError(f"F_{n} must be symmetric and contain the identity")
    E = [Fsub[0]]
    for n in range(2, depth + 1):
        try:
            En = padded_envelope(envelope_pad(E[-1], sched.N(n), cap), Fsub[n - 1], cap)
        except SizeCapExceeded as exc:
            raise SizeCapExceeded(f"E_{n} ({exc.what})", exc.needed, exc.cap, exc.unit) from exc
        E.append(En)
    return E


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
) -> Chain:
    depth = len(Fsub) if depth is None else depth
    E = build_E_sequence(Fsub, sched, depth, cap)
    return Chain(Fsub[0].group, Fsub[:depth], E, sched, build_omega(E, sched))


def check_chain_identities(chain: Chain, cap: int | None = None) -> None:
    """Raise AssertionError unless the structural chain identities hold.

    For every built level: e in E_n = E_n^{-1} subset E_{n+1}, F_n subset
    E_n, and F_n subset iota(P^{-1}, P^{-1}, E_n) with P = E_{n-1}^{N(n)-2}
    -- the containment that makes every g in F_n absorb the padded
    convolutions.  (Equality with the interior holds for interval chains
    on Z but not in general: the level-2 lamplighter interior is strictly
    larger than F_2.)
    """
    for n in range(1, chain.depth + 1):
        Fn, En = chain.level(n)
        assert is_symmetric_with_identity(En), f"E_{n} not symmetric with e"
        assert Fn.issubset(En), f"F_{n} not inside E_{n}"
        if n < chain.depth:
            assert En.issubset(chain.envelopes[n]), f"E_{n} not inside E_{n+1}"
        if n >= 2:
            pad = envelope_pad(chain.envelopes[n - 2], chain.schedule.N(n), cap)
            inner = interior_bilateral(pad, pad, En)
            assert Fn.issubset(inner), f"interior containment fails at level {n}"


def support_generates(chain: Chain, target: FiniteSubset, max_size: int) -> bool:
    """True if the BFS closure of supp(omega) reaches ``target``.

    Finite stand-in for nondegeneracy: the group generated by the support
    of omega must be everything, otherwise the averages could miss F_n
    entirely (EF_n disjoint from F_n for E outside the closure).
    """
    supp = chain.omega.support()
    for closure in generated_closure(chain.group, supp.elements, max_size):
        if target.elements <= closure:
            return True
    return False


def _rat(q: Fraction) -> dict:
    """JSON form of a rational: numerator and denominator as strings."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


def chain_manifest(chain: Chain, set_files: dict[str, str] | None = None) -> str:
    """JSON manifest: per level |F_n|, |E_n|, N(n), t_n, r_n, plus file refs."""
    sched = chain.schedule
    levels = []
    for n in range(1, chain.depth + 1):
        Fn, En = chain.level(n)
        levels.append(
            {
                "n": n,
                "card_F": len(Fn),
                "card_E": len(En),
                "N": sched.N(n),
                "t": _rat(sched.t(n)),
                "r": _rat(sched.r(n)),
            }
        )
    doc = {
        "schema": 1,
        "group": chain.group.token(),
        "depth": chain.depth,
        "tail_base": sched.tail_base,
        "length_base": sched.length_base,
        "omega_total_mass": _rat(chain.omega.total_mass),
        "levels": levels,
        "set_files": set_files or {},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
