"""Exact certificates for the measure-comparison inequality.

The certified statement at level n of a chain: for every g in F_n,

    (|F_n| / N(n)) * sum_{j < N(n)} d omega^(j)/d lambda (g)
        >= (|F_n|/|E_n|) (1 - r_{n+1}/r_n)
           ((1 - (1-r_n)^N)/(r_n N) - (1-r_n)^{N-1})  > 0,

so the uniform average over F_n is dominated by C times the Cesaro mean
of the omega-walk with C = 1 / (that minimum).  The report of a level also
checks the pointwise lower estimate of every power j < N(n) on F_n.  Both
come from one reading of the walk on F_n, ``level_densities``; under a cap
every value is a certified lower bound and the report is tainted.
Everything on this page is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .chains import Chain
from .measures import convolve_at


def finite_n_lower_bound(
    lamF: int, lamE: int, r_n: Fraction, r_np1: Fraction, N: int
) -> Fraction:
    """The exact positive lower bound for the scaled Cesaro density on F_n."""
    r_n, r_np1 = Fraction(r_n), Fraction(r_np1)
    if not 0 < r_np1 < r_n < 1:
        raise ValueError("need 0 < r_{n+1} < r_n < 1")
    if N < 1 or lamF < 1 or lamE < 1:
        raise ValueError("N, lamF, lamE must be positive")
    q = 1 - r_n
    bracket = (1 - q**N) / (r_n * N) - q ** (N - 1)
    return Fraction(lamF, lamE) * (1 - r_np1 / r_n) * bracket


def level_densities(chain: Chain, n: int) -> tuple[list[dict], bool]:
    """([element -> d omega^(j)/d lambda on F_n, for j = 0 .. N(n)-1], tainted).

    The one reader of omega's powers on F_n: omega^(0) .. omega^(N-2) come
    from the chain's walk, and the top power from one ``convolve_at`` on
    F_n, so the N-th convolution is never built.  Tainted: a capped power
    made every value a certified lower bound.
    """
    Fn = chain.level(n)[0]
    walk = chain.powers(chain.schedule.N(n) - 2)
    dens = [{g: p.mass(g) for g in Fn} for p in walk]
    dens.append(convolve_at(walk[-1], chain.omega, Fn.elements))
    return dens, chain.omega.truncated or any(p.truncated for p in walk)


def lower_estimate_slacks(chain: Chain, n: int, dens: list[dict]) -> list[Fraction]:
    """Per j = 1 .. N(n)-1, min over F_n of d omega^(j)/d lambda minus
    (sum_{i<n} t_i)^{j-1} t_n j / |E_n|, with ``dens`` from level_densities.

    The bound counts walk paths that stay in E_1 .. E_{n-1} for j-1 steps
    and take the single E_n step in any of the j slots.
    """
    sched = chain.schedule
    card_E = len(chain.level(n)[1])
    head, t = sched.head(n), sched.t(n)
    return [min(dens[j].values()) - head ** (j - 1) * t * j / card_E for j in range(1, sched.N(n))]


class DominanceReport(NamedTuple):
    n: int
    card_F: int
    card_E: int
    N: int
    min_scaled: Fraction  # min of (|F_n|/N) sum_j density, over F_n
    bound: Fraction  # theoretical finite-n lower bound
    lower_slacks: tuple  # lower_estimate_slacks, index j - 1; not serialized
    c_emp: Fraction | None  # 1 / min_scaled; None encodes infinity
    verdict: str  # "pass" | "fail"
    tainted: bool


def dominance_report(chain: Chain, n: int) -> DominanceReport:
    """Assemble the level-n certificate; a failing level is a valid report.
    It passes when min_scaled >= bound > 0 and every lower slack is >= 0."""
    sched = chain.schedule
    if chain.depth < n:
        raise ValueError("chain shallower than requested level")
    Fn, En = chain.level(n)
    N = sched.N(n)
    dens, tainted = level_densities(chain, n)
    min_scaled = min(sum(d[g] for d in dens) for g in Fn) * len(Fn) / N
    bound = finite_n_lower_bound(len(Fn), len(En), sched.r(n), sched.r(n + 1), N)
    lower_slacks = tuple(lower_estimate_slacks(chain, n, dens))
    c_emp = None if min_scaled == 0 else 1 / min_scaled
    verdict = "pass" if min_scaled >= bound > 0 and min(lower_slacks) >= 0 else "fail"
    return DominanceReport(
        n=n,
        card_F=len(Fn),
        card_E=len(En),
        N=N,
        min_scaled=min_scaled,
        bound=bound,
        lower_slacks=lower_slacks,
        c_emp=c_emp,
        verdict=verdict,
        tainted=tainted,
    )

