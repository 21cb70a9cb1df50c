"""Chain construction: envelopes, omega, structural identities, manifests."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from folnerdom import chains
from folnerdom.chains import (
    Chain,
    build_chain,
    build_omega,
    check_chain_identities,
    lamplighter_folner,
)
from folnerdom.cli import main
from folnerdom.dominance import dominance_report
from folnerdom.errors import SizeCapExceeded
from folnerdom.groups import Zd
from folnerdom.measures import convolve
from folnerdom.schedules import Schedule, fn_size, ftilde_size
from folnerdom.sets import (
    interior_bilateral,
    inverse_set,
    is_symmetric_with_identity,
    power,
    product,
)
from conftest import z_interval
from lemmas import support_generates

Z = Zd(1)


def test_lamplighter_folner_sizes_and_symmetry():
    for n in range(1, 6):
        ft, fn = lamplighter_folner(n)
        assert len(ft) == ftilde_size(n)
        assert len(fn) == fn_size(n)
        assert is_symmetric_with_identity(fn)
        assert not is_symmetric_with_identity(ft)  # one-sided only


def test_lamplighter_folner_matches_pairwise_product():
    for n in (1, 2, 3):
        ft, fn = lamplighter_folner(n)
        assert fn.elements == product(inverse_set(ft), ft).elements


def test_lamplighter_folner_cap():
    with pytest.raises(SizeCapExceeded):
        lamplighter_folner(6, cap=100)


def test_z_envelope_is_interval(z_chain2):
    # E_2 = (E_1^{N-2})^{-1} F_2 (E_1^{N-2})^{-1} with E_1 = [-2,2], N(2)=4,
    # F_2 = [-16,16]: two pads of radius 4 around radius 16 gives [-24,24]
    F2, E2 = z_chain2.level(2)
    assert E2.elements == z_interval(24).elements
    assert len(E2) == 49


def test_z_depth3_envelope_sizes(z_chain3):
    assert [len(E) for E in z_chain3.envelopes] == [5, 49, 1601]
    # radius 800 = 512 + 2 * (2^3 - 2) * 24
    assert z_chain3.envelopes[2].elements == z_interval(800).elements


def test_omega_density_and_mass(z_chain2):
    omega = z_chain2.omega
    # t_1/|E_1| + t_2/|E_2| = (1/2)/5 + (1/4)/49 = 103/980 at the identity
    assert omega.mass((0,)) == Fraction(103, 980)
    assert omega.total_mass == 1 - z_chain2.schedule.r(3) == Fraction(3, 4)
    # the depth cut makes omega sub-probability, but no masses were dropped
    # by a size cap, so the lossy-truncation flag stays off
    assert not omega.truncated


def test_omega_total_mass_depth3(z_chain3):
    assert z_chain3.omega.total_mass == 1 - Fraction(1, 8)


def test_build_omega_weights(z_chain2):
    again = build_omega(z_chain2.envelopes, z_chain2.schedule)
    assert dict(again.items()) == dict(z_chain2.omega.items())


def test_chain_is_rebuilt_from_its_definition(z_chain3, ll_chain):
    """A chain is its sets, schedule and cap: the same four give an equal
    chain, whose omega has the same numerators over the same denominator."""
    for c in (z_chain3, ll_chain):
        again = Chain(c.folner, c.envelopes, c.schedule, c.cap)
        assert again == c
        assert again.group == c.group
        assert (again.omega.numerators, again.omega.denominator) == (c.omega.numerators, c.omega.denominator)
    assert Chain(z_chain3.folner, z_chain3.envelopes, Schedule(3, 2, 3)) != z_chain3
    assert "omega" not in repr(Chain(z_chain3.folner[:1], z_chain3.envelopes[:1], Schedule(depth=1)))


def test_check_chain_identities(z_chain2, z_chain3, ll_chain):
    assert check_chain_identities(z_chain2) == []
    assert check_chain_identities(z_chain3) == []
    assert check_chain_identities(ll_chain) == []


def test_check_chain_identities_reports_failures(z_chain2):
    F1 = z_chain2.folner[0]
    wide = Chain([F1, z_interval(30)], z_chain2.envelopes, z_chain2.schedule)
    assert check_chain_identities(wide) == [
        "F_2 not inside E_2",
        "interior containment fails at level 2",
    ]
    # build_chain never makes E_1 outside E_2; a hand-built chain can, and
    # its wider E_1 also pads the interior at level 2 past F_2
    loose = Chain(z_chain2.folner, [z_interval(30), z_chain2.envelopes[1]], z_chain2.schedule)
    assert check_chain_identities(loose) == [
        "E_1 not inside E_2",
        "interior containment fails at level 2",
    ]


def test_interior_equality_on_z_but_not_lamplighter(z_chain2, ll_chain):
    """On Z intervals F_n equals the bilateral interior of E_n; on the
    lamplighter the interior is strictly larger, so only containment is a
    sound invariant."""
    for chain, strict in ((z_chain2, False), (ll_chain, True)):
        F2, E2 = chain.level(2)
        pad = inverse_set(power(chain.envelopes[0], chain.schedule.N(2) - 2))
        inner = interior_bilateral(pad, pad, E2)
        assert F2.issubset(inner)
        if strict:
            assert len(inner) == 80 and len(F2) == 56
        else:
            assert inner.elements == F2.elements


def test_build_E_requires_symmetric_base():
    from folnerdom.sets import FiniteSubset

    shifted = FiniteSubset.of(Z, ((i,) for i in range(0, 5)))
    with pytest.raises(ValueError, match="F_1 must be symmetric"):
        build_chain([shifted, z_interval(16)], Schedule(depth=2))
    # every level, not only the first: E_2 of this chain is not symmetric
    with pytest.raises(ValueError, match="F_2 must be symmetric"):
        build_chain([z_interval(2), shifted], Schedule(depth=2))


def test_build_E_cap_reports_level():
    with pytest.raises(SizeCapExceeded) as exc:
        build_chain([z_interval(2), z_interval(16)], Schedule(depth=2), cap=30)
    assert "E_2" in exc.value.what


def test_support_generates(z_chain2, ll_chain):
    assert support_generates(z_chain2, z_interval(100), max_size=10_000)
    f3 = lamplighter_folner(3)[1]
    assert support_generates(ll_chain, f3, max_size=100_000)
    # a tiny ceiling cannot reach the target
    assert not support_generates(z_chain2, z_interval(100_000), max_size=50)


def test_chain_manifest_schema(z_chain3, tmp_path):
    # the manifest that `chain` writes for configs/z_depth3.json, whose chain is z_chain3
    config = str(Path(__file__).resolve().parent.parent / "configs" / "z_depth3.json")
    assert main(["chain", "--config", config, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "chain.json").read_text())
    assert doc["schema"] == 1
    assert doc["group"] == "zd:1"
    assert doc["depth"] == 3
    assert doc["omega_total_mass"] == {"num": "7", "den": "8"}
    lvl2 = doc["levels"][1]
    assert lvl2 == {
        "n": 2,
        "card_F": 33,
        "card_E": 49,
        "N": 4,
        "t": {"num": "1", "den": "4"},
        "r": {"num": "1", "den": "2"},
    }
    assert [(lvl["card_F"], lvl["card_E"]) for lvl in doc["levels"]] == [
        (len(Fn), len(En)) for Fn, En in zip(z_chain3.folner, z_chain3.envelopes)
    ]
    assert doc["set_files"] == {f"{tag}_{n}": f"{tag}_{n}.set" for n in (1, 2, 3) for tag in "FE"}
    # no floats anywhere in the serialized document
    def no_floats(x):
        if isinstance(x, float):
            return False
        if isinstance(x, dict):
            return all(no_floats(v) for v in x.values())
        if isinstance(x, list):
            return all(no_floats(v) for v in x)
        return True

    assert no_floats(doc)


def test_level_bounds(z_chain2):
    with pytest.raises(ValueError):
        z_chain2.level(0)
    with pytest.raises(ValueError):
        z_chain2.level(3)


def test_powers_conventions():
    # omega^(0) = delta_e, omega^(1) = omega, omega^(2) = omega * omega
    chain = build_chain([z_interval(1), z_interval(4)], Schedule(depth=2))
    powers = chain.powers(2)
    assert powers[0].numerators == {Z.identity: 1}
    assert powers[1].numerators == chain.omega.numerators
    assert powers[2].numerators == convolve(chain.omega, chain.omega).numerators


def test_powers_walk_once_across_levels(monkeypatch):
    chain = build_chain([z_interval(1), z_interval(2), z_interval(4)], Schedule(depth=3))
    calls = []
    real = chains.convolve

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(chains, "convolve", counted)
    # level 2 reads omega^(0..2) and level 3 omega^(0..6) of one walk
    for n in (2, 3):
        dominance_report(chain, n)
    assert len(calls) == 6
    assert chain.powers(6)[2] is chain.powers(2)[2]
    assert len(calls) == 6


def test_capped_and_exact_walks_stay_apart():
    sets, sched = [z_interval(1), z_interval(2)], Schedule(depth=2)
    capped = build_chain(sets, sched, cap=20).powers(3)
    exact = build_chain(sets, sched).powers(3)
    assert [p.truncated for p in capped] == [False, False, True, True]
    assert [len(p) for p in capped] == [1, 13, 20, 20]
    assert not any(p.truncated for p in exact)
    assert [len(p) for p in exact] == [1, 13, 25, 37]
    for lo, hi in zip(capped, exact):
        assert all(m <= hi.mass(g) for g, m in lo.items())
