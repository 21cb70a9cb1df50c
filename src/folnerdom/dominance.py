"""Exact certificates for the measure-comparison inequality.

The certified statement at level n of a chain: for every g in F_n,

    (|F_n| / N(n)) * sum_{j < N(n)} d omega^(j)/d lambda (g)
        >= (|F_n|/|E_n|) (1 - r_{n+1}/r_n)
           ((1 - (1-r_n)^N)/(r_n N) - (1-r_n)^{N-1})  > 0,

so the uniform average over F_n is dominated by C times the Cesaro mean
of the omega-walk with C = 1 / (that minimum).  The level certificates
and the lower estimates all read the chain's one walk, ``Chain.powers``,
with the top power taken pointwise on F_n through ``convolve_at``; under a
cap every value is a certified lower bound and the report is tainted.
Everything on this page is exact rational arithmetic; floats appear only
in the limit diagnostics, never in verdicts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .chains import Chain, _rat
from .measures import cesaro_density, convolve_at
from .schedules import Schedule


def arithgeo_closed_form(r: Fraction, N: int) -> Fraction:
    """sum_{j=0}^{N-1} j (1-r)^{j-1} = (1 - r N (1-r)^{N-1} - (1-r)^N) / r^2."""
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("r must lie in (0,1)")
    if N < 1:
        raise ValueError("N must be >= 1")
    q = 1 - r
    return (1 - r * N * q ** (N - 1) - q**N) / r**2


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


def lower_estimate_check(
    chain: Chain, n: int, j: int, cap: int | None = None
) -> tuple[bool, Fraction]:
    """Check d omega^(j)/d lambda >= (sum_{i<n} t_i)^{j-1} t_n j / |E_n| on F_n.

    Counts walk paths that stay in E_1 .. E_{n-1} for j-1 steps and take
    the single E_n step in any of the j slots.  Returns (ok, worst slack =
    min density minus bound), computed exactly.
    """
    sched = chain.schedule
    if not 1 <= n <= chain.depth:
        raise ValueError("level outside chain")
    if not 1 <= j < sched.N(n):
        raise ValueError("need 1 <= j < N(n)")
    Fn, En = chain.level(n)
    # the walk up to j-1, then the top power only on F_n
    dens = convolve_at(chain.powers(j - 1, cap)[-1], chain.omega, Fn.elements)
    bound = sched.head(n) ** (j - 1) * sched.t(n) * j / len(En)
    worst = min(dens[g] - bound for g in Fn)
    return worst >= 0, worst


def limit_profile(x: float) -> float:
    """f(x) = (1 - e^{-x})/x - e^{-x}; positive for x > 0 (diagnostic only)."""
    if x <= 0:
        raise ValueError("x must be positive")
    return (1 - math.exp(-x)) / x - math.exp(-x)


def reference_constant() -> float:
    """(1/4)(1 - 3/e^2), the standard-schedule limit of the scaled bound."""
    return 0.25 * (1 - 3 / math.e**2)


def limit_diagnostics(sched: Schedule, n_range: range) -> list[dict]:
    """Per n: (1-r_n)^{N(n)}, e^{-r_n N(n)}, and their gap (floats)."""
    rows = []
    for n in n_range:
        rn = sched.r(n)
        N = sched.N(n)
        exact_pow = float((1 - rn) ** N)
        limit = math.exp(-float(rn * N))
        rows.append(
            {
                "n": n,
                "r_N": float(rn * N),
                "pow": exact_pow,
                "limit": limit,
                "gap": abs(exact_pow - limit),
            }
        )
    return rows


class DominanceReport(NamedTuple):
    n: int
    card_F: int
    card_E: int
    N: int
    min_scaled: Fraction  # min of (|F_n|/N) sum_j density, over F_n
    bound: Fraction  # theoretical finite-n lower bound
    c_emp: Fraction | None  # 1 / min_scaled; None encodes infinity
    verdict: str  # "pass" | "fail"
    tainted: bool
    truncation_depth: int

    def scaled_by_envelope(self) -> Fraction:
        """min density times |E_n| instead of |F_n| (compared to the
        limiting constant (1/4)(1 - 3/e^2) in diagnostics)."""
        return self.min_scaled * Fraction(self.card_E, self.card_F)


def dominance_report(chain: Chain, n: int, cap: int | None = None) -> DominanceReport:
    """Assemble the level-n certificate; a failing level is a valid report."""
    sched = chain.schedule
    if chain.depth < n:
        raise ValueError("chain shallower than requested level")
    Fn, En = chain.level(n)
    N = sched.N(n)
    dens, tainted = cesaro_density(chain.powers(N - 2, cap), chain.omega, Fn)
    min_scaled = min(dens.values()) * len(Fn)
    bound = finite_n_lower_bound(len(Fn), len(En), sched.r(n), sched.r(n + 1), N)
    c_emp = None if min_scaled == 0 else 1 / min_scaled
    verdict = "pass" if (min_scaled >= bound and bound > 0) else "fail"
    return DominanceReport(
        n=n,
        card_F=len(Fn),
        card_E=len(En),
        N=N,
        min_scaled=min_scaled,
        bound=bound,
        c_emp=c_emp,
        verdict=verdict,
        tainted=tainted,
        truncation_depth=chain.depth,
    )


def report_to_dict(rep: DominanceReport) -> dict:
    """JSON-ready form; rationals as numerator/denominator string pairs."""
    return {
        "n": rep.n,
        "card_F": rep.card_F,
        "card_E": rep.card_E,
        "N": rep.N,
        "min_scaled": _rat(rep.min_scaled),
        "bound": _rat(rep.bound),
        "c_emp": "inf" if rep.c_emp is None else _rat(rep.c_emp),
        "verdict": rep.verdict,
        "tainted": rep.tainted,
        "truncation_depth": rep.truncation_depth,
    }
