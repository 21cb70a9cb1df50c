"""Acceptance suite: one test per recorded criterion, one PASS/FAIL line each.

Every check is exact rational arithmetic unless the criterion itself is a
float diagnostic (stated tolerances appear inline).  A failing criterion
fails honestly: the assert fires after the verdict line is printed.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import product as iproduct

from folnerdom.actions import (
    FiniteAction,
    Observable,
    check_dominance,
    convergence_diagnostics,
    kadison_check,
    weak11_probe,
    zd_mod_action,
)
from folnerdom.chains import lamplighter_folner
from folnerdom.cli import REFERENCE_CONSTANT, main
from folnerdom.dominance import level_densities, lower_estimate_slacks
from folnerdom.groups import Lamplighter, Zd
from folnerdom.schedules import fn_size, ftilde_size
from folnerdom.sets import (
    FiniteSubset,
    interior_bilateral,
    inverse_set,
    product,
)
import conftest
from conftest import random_llset, random_zset, z_interval
from lemmas import (
    arithgeo_closed_form,
    count_inverse_product,
    folner_ratio,
    lamplighter_schedules,
    mixed_absorption_value,
    tempered_prefix_constant,
)

Z = Zd(1)
L = Lamplighter()


def verdict(num: int, what: str, ok: bool) -> None:
    line = f"[criterion {num:02d}] {what}: {'PASS' if ok else 'FAIL'}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} failed: {what}"


def test_criterion_01_lamplighter_census():
    start = time.monotonic()
    ok = True
    for n in range(1, 11):
        ft, fn = lamplighter_folner(n)
        ok = ok and len(ft) == ftilde_size(n) == (n + 1) * 2 ** (n + 1)
        ok = ok and len(fn) == fn_size(n) == 2**n * (n * n + 4 * n + 2)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    verdict(1, f"lamplighter cardinalities exact for n <= 10 ({elapsed:.1f}s < 60s)", ok)


def test_criterion_02_singleton_folner_bound():
    violations = 0
    cases = 0
    folner = {n: lamplighter_folner(n)[1] for n in range(1, 9)}  # built once, shared by the cases
    for t1, n1, t2, n2 in iproduct(range(-2, 3), range(3), range(-2, 3), range(3)):
        g1 = FiniteSubset.of(L, [(t1, frozenset(range(-n1, n1 + 1)))])
        g2 = FiniteSubset.of(L, [(t2, frozenset(range(-n2, n2 + 1)))])
        for n in range(1, 9):
            if n <= 2 * max(abs(t1) + n1, abs(t2) + n2):
                continue
            cases += 1
            ratio = folner_ratio(g1, folner[n], g2)
            if ratio > Fraction(4 * (abs(t1) + abs(t2) + n1 + n2), n + 1):
                violations += 1
    verdict(
        2,
        f"two-sided singleton ratio bound, {cases} cases, {violations} violations",
        cases > 0 and violations == 0,
    )


def test_criterion_03_sandwich_difference_bound():
    m = 1
    fm = lamplighter_folner(m)[1]
    violations = 0
    for n in range(5, 10):
        fn = lamplighter_folner(n)[1]
        big = product(product(fm, fn), fm)
        ratio = Fraction(len(big.elements - fn.elements), len(fn))
        if ratio > Fraction(144 * m**5 * 4**m, n + 1):
            violations += 1
    verdict(3, f"|F_mF_nF_m \\ F_n|/|F_n| bound, m=1, n=5..9, {violations} violations", violations == 0)


def test_criterion_04_absorption():
    rng = random.Random(2024)
    bad = 0
    pairs = 0

    def check_pair(H, K):
        nonlocal bad, pairs
        pairs += 1
        e = FiniteSubset.of(K.group, [K.group.identity])
        left = {g for g in K if mixed_absorption_value([H, K], 2, g) == 1}
        right = {g for g in K if mixed_absorption_value([K, H], 1, g) == 1}
        if left != interior_bilateral(inverse_set(H), e, K).elements:
            bad += 1
        if right != interior_bilateral(e, inverse_set(H), K).elements:
            bad += 1

    for _ in range(60):
        check_pair(random_zset(rng, 12, 7), random_zset(rng, 15, 9))
    for _ in range(60):
        check_pair(random_llset(rng, 5), random_llset(rng, 8))

    # 4-factor corollary instances, 2 <= n <= 4 factors
    four_bad = 0
    e = FiniteSubset.of(Z, [Z.identity])
    for nfac in (2, 3, 4):
        for _ in range(8):
            sets = [random_zset(rng, 6, 4) for _ in range(nfac)]
            for j in range(1, nfac + 1):
                H1, H2 = e, e
                for S in sets[: j - 1]:
                    H1 = product(H1, S)
                for S in sets[j:]:
                    H2 = product(H2, S)
                inner = interior_bilateral(inverse_set(H1), inverse_set(H2), sets[j - 1])
                ones = {g for g in sets[j - 1] if mixed_absorption_value(sets, j, g) == 1}
                if ones != inner.elements:
                    four_bad += 1
    verdict(
        4,
        f"convolution absorption, {pairs} randomized pairs + 4-factor instances, "
        f"{bad + four_bad} violations",
        pairs >= 100 and bad == 0 and four_bad == 0,
    )


def test_criterion_05_arithgeo_closed_form():
    rng = random.Random(5)
    bad = 0
    for _ in range(1000):
        den = rng.randint(2, 64)
        num = rng.randint(1, den - 1)
        r = Fraction(num, den)
        N = rng.randint(1, 64)
        if arithgeo_closed_form(r, N) != sum(j * (1 - r) ** (j - 1) for j in range(N)):
            bad += 1
    verdict(5, f"arithmetico-geometric closed form, 1000 random (r, N), {bad} mismatches", bad == 0)


def test_criterion_06_measure_comparison(z_reports):
    # the gate times the fixture's exact convolutions, not this loop
    ok = True
    for n in (2, 3):
        rep = z_reports[n]
        ok = ok and rep.verdict == "pass" and not rep.tainted
        ok = ok and rep.min_scaled >= rep.bound
        scaled = float(rep.min_scaled * Fraction(rep.card_E, rep.card_F))
        ok = ok and scaled >= 0.148
        ok = ok and scaled >= REFERENCE_CONSTANT - 1e-3
    verdict(
        6,
        "exact min_scaled >= bound at Z levels 2-3 and scaled value >= 0.148 "
        f"(limit {REFERENCE_CONSTANT:.7f}, tol 1e-3), built in {z_reports.build_s:.0f} s",
        ok and z_reports.build_s < 300,
    )


def test_criterion_07_lower_estimate(z_chain2, ll_chain, ll_report):
    # the lamplighter's level 2 comes from its report, so that no test
    # keeps omega^(2) alive on the session chain
    slacks = [
        *lower_estimate_slacks(z_chain2, 1, level_densities(z_chain2, 1)[0]),
        *lower_estimate_slacks(z_chain2, 2, level_densities(z_chain2, 2)[0]),
        *lower_estimate_slacks(ll_chain, 1, level_densities(ll_chain, 1)[0]),
        *ll_report.lower_slacks,
    ]
    checks = len(slacks)
    bad = sum(1 for slack in slacks if slack < 0)
    verdict(
        7,
        f"pointwise walk-density lower estimate, {checks} (n, j) cases on Z and lamplighter, "
        f"{bad} violations",
        bad == 0,
    )


def _function_battery(rng, size, count):
    out = []
    for _ in range(count):
        out.append(
            Observable.function([Fraction(rng.randint(0, 16), 16) for _ in range(size)])
        )
    return out


def _psd_battery(rng, dim, count):
    out = []
    for _ in range(count):
        b = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
        mat = [
            [sum(b[k][i] * b[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
        out.append(Observable.matrix(mat))
    return out


def test_criterion_08_dominance_transfer(z_chain3, z_reports, ll_chain, ll_report):
    rng = random.Random(88)
    bad = 0
    cases = 0
    act_z = zd_mod_action(1, 8)
    for x in _function_battery(rng, act_z.size, 45):
        ok, _ = check_dominance(act_z, z_chain3, 2, x, z_reports[2].c_emp)
        cases += 1
        bad += 0 if ok else 1
    act_ll = FiniteAction(L, 3)
    for x in _function_battery(rng, act_ll.size, 45):
        ok, _ = check_dominance(act_ll, ll_chain, 2, x, ll_report.c_emp)
        cases += 1
        bad += 0 if ok else 1
    act_m = zd_mod_action(1, 4)
    for x in _psd_battery(rng, act_m.size, 10):
        ok, _ = check_dominance(act_m, z_chain3, 2, x, z_reports[2].c_emp)
        cases += 1
        bad += 0 if ok else 1
    verdict(
        8,
        f"A_n(x) <= C_emp M_N(x) battery, {cases} positive observables "
        "(functions on Z/8 and lamplighter quotient, matrices 4x4), "
        f"{bad} violations",
        cases >= 100 and bad == 0,
    )


def _averages(act, pushes, x):
    """[(n, A_n(x))] from the pushforwards [(n, push)]."""
    return [(n, act.apply_push(push, x)) for n, push in pushes]


def test_criterion_09_convergence_and_weak11(z_reports, ll_report):
    rng = random.Random(99)
    tol = Fraction(1, 1000)
    bad = 0
    act_z = zd_mod_action(1, 8)
    z_folner = [(r, act_z.push_set(z_interval(r))) for r in (8, 64, 512, 4096)]
    battery_z = _function_battery(rng, act_z.size, 20)
    for x in battery_z:
        rows = convergence_diagnostics(act_z, _averages(act_z, z_folner, x), x)
        if rows[-1][1] > tol:
            bad += 1
    act_ll = FiniteAction(L, 3)
    ll_folner = [(n, act_ll.push_set(lamplighter_folner(n)[0])) for n in (2, 5, 8)]
    battery_ll = _function_battery(rng, act_ll.size, 20)
    for x in battery_ll:
        rows = convergence_diagnostics(act_ll, _averages(act_ll, ll_folner, x), x)
        if rows[-1][1] > tol:  # m = 3 divides 8 + 1: exactly 0
            bad += 1
    weak_bad = 0
    for x in battery_z[:10]:
        averages = _averages(act_z, z_folner, x)
        for eps in (Fraction(1, 8), Fraction(1, 2)):
            _, mass, bound, wok = weak11_probe(act_z, averages, x, eps, z_reports[2].c_emp)
            if not wok or mass > bound:
                weak_bad += 1
    verdict(
        9,
        "sup-norm convergence <= 1e-3 at largest n for 40 observables and "
        f"weak (1,1) mass bound in all tested (x, eps), {bad + weak_bad} violations",
        bad == 0 and weak_bad == 0,
    )


def test_criterion_10_kadison_battery():
    rng = random.Random(1010)
    act = zd_mod_action(1, 3)
    push = act.push_set(FiniteSubset.of(Z, ((i,) for i in range(3))))
    bad = 0
    for _ in range(1000):
        raw = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)]
        sym = [[(raw[i][j] + raw[j][i]) / 2 for j in range(3)] for i in range(3)]
        ok, _ = kadison_check(act, push, Observable.matrix(sym))
        bad += 0 if ok else 1
    verdict(10, f"Kadison inequality, 1000 random symmetric 3x3, {bad} violations", bad == 0)


def test_criterion_11_schedules():
    ok = True
    # tempered l(n) = 3^{l(n-1)}: prefix constants for computable l <= 27
    recorded_C = 3
    for prefix in ([1, 3], [1, 3, 27]):
        ok = ok and tempered_prefix_constant(prefix) <= recorded_C
    # dominance schedule values and symbolic comparisons
    d2 = lamplighter_schedules("dominance", 2)
    d3 = lamplighter_schedules("dominance", 3)
    d4 = lamplighter_schedules("dominance", 4)
    t5 = lamplighter_schedules("tempered", 5)
    ok = ok and d2 == 17**4 == 83521
    ok = ok and str(d3) == "17^668168" and d3 > d2 and d4 > d3
    ok = ok and d3 < t5 < d4
    ok = ok and count_inverse_product(1, 3) == 104
    verdict(11, "tempered prefix constants <= recorded C and tower arithmetic", ok)


def test_criterion_12_determinism(tmp_path):
    cfg = {
        "schema": 1,
        "group": "zd:1",
        "schedule": {"tail_base": 2, "length_base": 2, "depth": 2},
        "folner": {"kind": "balls", "radii": [2, 16]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(["dominate", "--config", str(cfg_path), "--out", str(out1)])
    code2 = main(["dominate", "--config", str(cfg_path), "--out", str(out2)])
    same = (out1 / "dominance.json").read_bytes() == (out2 / "dominance.json").read_bytes()
    verdict(12, "byte-identical dominate output across identical runs", code1 == code2 == 0 and same)
