"""Shared fixtures: groups, set helpers, and session-cached chains.

The chains are expensive (exact convolutions over supports of ~1600
elements), so they are built once per session and reused by the unit
tests and the acceptance suite alike.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import strategies as st

from folnerdom.chains import Chain, build_chain, lamplighter_folner
from folnerdom.dominance import DominanceReport, dominance_report
from folnerdom.groups import Heisenberg, Lamplighter, Zd
from folnerdom.schedules import Schedule
from folnerdom.sets import FiniteSubset


GROUPS = [Zd(1), Zd(2), Heisenberg(), Lamplighter()]


def element_strategy(group):
    ints = st.integers(min_value=-50, max_value=50)
    if group.kind == "zd":
        return st.tuples(*([ints] * group.d))
    if group.kind == "heisenberg":
        return st.tuples(ints, ints, ints)
    lamps = st.frozensets(st.integers(min_value=-12, max_value=12), max_size=6)
    return st.tuples(ints, lamps)


def z_interval(r: int) -> FiniteSubset:
    return FiniteSubset.of(Zd(1), ((i,) for i in range(-r, r + 1)))


def zset(*vals) -> FiniteSubset:
    return FiniteSubset.of(Zd(1), ((v,) for v in vals))


def random_zset(rng, span=10, maxsize=6) -> FiniteSubset:
    size = rng.randint(1, maxsize)
    return FiniteSubset.of(Zd(1), ((rng.randint(-span, span),) for _ in range(size)))


def random_llset(rng, maxsize=5) -> FiniteSubset:
    els = []
    for _ in range(rng.randint(1, maxsize)):
        lamps = frozenset(rng.sample(range(-4, 5), rng.randint(0, 2)))
        els.append((rng.randint(-4, 4), lamps))
    return FiniteSubset.of(Lamplighter(), els)


# one line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def z_group() -> Zd:
    return Zd(1)


@pytest.fixture(scope="session")
def z_chain2() -> Chain:
    """Z chain with B = [-1,1] radii l = (2, 16): E_2 = [-24, 24]."""
    return build_chain([z_interval(2), z_interval(16)], Schedule(depth=2))


@pytest.fixture(scope="session")
def z_chain3() -> Chain:
    """Depth-3 Z chain, radii l = (2, 16, 512): envelopes m = (2, 24, 800)."""
    return build_chain(
        [z_interval(2), z_interval(16), z_interval(512)], Schedule(depth=3)
    )


class TimedReports(dict):
    """Reports by level, plus ``build_s``: the wall time spent building them."""

    build_s: float


@pytest.fixture(scope="session")
def z_reports(z_chain3: Chain) -> TimedReports:
    start = time.monotonic()
    reports = TimedReports({n: dominance_report(z_chain3, n) for n in (2, 3)})
    reports.build_s = time.monotonic() - start
    return reports


@pytest.fixture(scope="session")
def ll_chain() -> Chain:
    """Lamplighter chain on F_1, F_2 (the two-sided sets F~_n^{-1} F~_n)."""
    F1 = lamplighter_folner(1)[1]
    F2 = lamplighter_folner(2)[1]
    return build_chain([F1, F2], Schedule(depth=2))


@pytest.fixture(scope="session")
def ll_report(ll_chain: Chain) -> DominanceReport:
    """The level-2 report, built on a copy of ``ll_chain`` so that the walk
    it convolves (omega^(2) holds 133 120 atoms) is freed with the copy
    instead of staying on the session chain."""
    c = ll_chain
    return dominance_report(Chain(c.folner, c.envelopes, c.schedule, c.cap), 2)
