"""Group laws, canonical encodings, and word balls."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerdom.errors import GroupMismatchError, SizeCapExceeded
from folnerdom.groups import (
    Group,
    Heisenberg,
    Lamplighter,
    Zd,
    group_from_token,
    require_same_group,
    word_ball,
)
from conftest import GROUPS, element_strategy


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.token())
def test_group_axioms_sampled(group):
    @settings(max_examples=300)
    @given(element_strategy(group), element_strategy(group), element_strategy(group))
    def inner(a, b, c):
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(a, group.identity) == a
        assert group.mul(group.identity, a) == a
        assert group.mul(a, group.inv(a)) == group.identity
        assert group.mul(group.inv(a), a) == group.identity

    inner()


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.token())
def test_encoding_roundtrip_and_injectivity(group):
    @settings(max_examples=200)
    @given(element_strategy(group), element_strategy(group))
    def inner(a, b):
        assert group.decode(group.encode(a)) == a
        assert (group.encode(a) == group.encode(b)) == (a == b)

    inner()


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.token())
def test_decode_rejects_truncated_bytes(group):
    # used to raise IndexError
    a = group.generators[0]
    for data in (b"", group.encode(a)[:-1]):
        with pytest.raises(ValueError, match="truncated element encoding"):
            group.decode(data)


# the bytes every *.set file and omega.csv key is written in: the tag, then
# zigzag varints (0 -> 00, -1 -> 01, -64 -> 7f, 64 -> 8001)
GOLDEN_ENCODINGS = [
    (Zd(1), (123,), "01f601"),
    (Zd(1), (0,), "0100"),
    (Zd(1), (-1,), "0101"),
    (Zd(1), (-64,), "017f"),
    (Zd(1), (64,), "018001"),
    (Zd(1), (2**70,), "018080808080808080808002"),
    (Zd(2), (-8193, 8192), "01818001808001"),
    (Heisenberg(), (3, -4, 100), "020607c801"),
    (Heisenberg(), (0, 0, 0), "02000000"),
    (Heisenberg(), (-1, 1, -64), "0201027f"),
    (Heisenberg(), (-8193, 8192, 300), "02818001808001d804"),
    (Lamplighter(), (2, frozenset({-1, 0, 3})), "030406010006"),
    (Lamplighter(), (0, frozenset()), "030000"),
    (Lamplighter(), (-1, frozenset({-64, 64})), "0301047f8001"),
    (Lamplighter(), (8192, frozenset({0})), "038080010200"),
]


@pytest.mark.parametrize(
    "group,element,hexed", [pytest.param(*case, id=f"{case[0].token()}-{case[2]}") for case in GOLDEN_ENCODINGS]
)
def test_encoding_golden_bytes(group, element, hexed):
    assert group.encode(element).hex() == hexed
    assert group.decode(bytes.fromhex(hexed)) == element


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.token())
def test_decode_rejects_another_groups_tag_and_trailing_bytes(group):
    data = group.encode(group.generators[0])
    for other in (Zd, Heisenberg, Lamplighter):
        if other.tag != group.tag:
            with pytest.raises(ValueError, match="non-canonical element encoding"):
                group.decode(bytes([other.tag]) + data[1:])
    with pytest.raises(ValueError, match="non-canonical element encoding"):
        group.decode(data + b"\x00")


@pytest.mark.parametrize("hexed", ["0300040602", "0300040202"], ids=["unsorted", "repeated"])
def test_lamplighter_decode_rejects_unsorted_or_repeated_lamps(hexed):
    # two lamps after t = 0: 3 then 1, and 1 twice
    with pytest.raises(ValueError, match="non-canonical element encoding"):
        Lamplighter().decode(bytes.fromhex(hexed))


@pytest.mark.parametrize(
    "group,hexed",
    [(Zd(1), "018000"), (Heisenberg(), "0200008000"), (Lamplighter(), "030001")],
    ids=["zd-zero-high-digit", "heisenberg-zero-high-digit", "lamplighter-negative-count"],
)
def test_decode_rejects_a_second_spelling(group, hexed):
    # these used to read as (0,), (0, 0, 0) and the identity, which are
    # written 0100, 02000000 and 030000
    with pytest.raises(ValueError, match="non-canonical element encoding"):
        group.decode(bytes.fromhex(hexed))


def canonical_by_rules(group, data: bytes) -> bool:
    """Whether ``data`` is an encoding by the format's rules, checked apart
    from ``encode``: the group's tag, then whole varints and no more bytes,
    none with a zero high digit; as many ints as the identity has, or for
    the lamplighter t, a lamp count and that many lamps in strictly
    ascending order."""
    if not data or data[0] != group.tag:
        return False
    ints, pos = [], 1
    while pos < len(data):
        end = pos
        while end < len(data) and data[end] > 0x7F:
            end += 1
        if end == len(data) or (end > pos and data[end] == 0):
            return False
        z = sum((b & 0x7F) << 7 * i for i, b in enumerate(data[pos : end + 1]))
        ints.append(-(z + 1) // 2 if z & 1 else z // 2)
        pos = end + 1
    if group.kind == "lamplighter":
        lamps = ints[2:]
        return len(ints) >= 2 and ints[1] == len(lamps) and lamps == sorted(set(lamps))
    return len(ints) == len(group.identity)


def spellings(group):
    """Arbitrary bytes, the group's tag then arbitrary bytes, and the
    encodings of elements with one byte replaced (or none: index 0 and the
    tag itself)."""

    def mutate(args):
        element, i, value = args
        data = bytearray(group.encode(element))
        data[i % len(data)] = value if i else group.tag
        return bytes(data)

    return st.one_of(
        st.binary(max_size=12),
        st.binary(max_size=12).map(lambda b: bytes([group.tag]) + b),
        st.tuples(element_strategy(group), st.integers(0, 40), st.integers(0, 255)).map(mutate),
    )


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.token())
def test_decode_accepts_exactly_what_encode_writes(group):
    @settings(max_examples=500)
    @given(spellings(group))
    def inner(data):
        try:
            element = group.decode(data)
        except ValueError:
            assert not canonical_by_rules(group, data)
        else:
            assert group.encode(element) == data
            assert canonical_by_rules(group, data)

    inner()


def test_decode_refuses_a_varint_past_the_digit_limit():
    # the limit (4300 by default) is checked before the varint is read,
    # which takes time quadratic in its length
    for n in (4301, 200_000):
        with pytest.raises(ValueError, match="Exceeds the limit"):
            Zd(1).decode(b"\x01" + b"\x80" * (n - 1) + b"\x01")
    long = b"\x01" + b"\x80" * 4299 + b"\x01"
    assert Zd(1).decode(long) == (2 ** (7 * 4299 - 1),)


def test_lamplighter_law_examples():
    L = Lamplighter()
    assert L.mul((1, frozenset({0})), (1, frozenset({0}))) == (2, frozenset({0, 1}))
    assert L.inv((2, frozenset({0, 1}))) == (-2, frozenset({-2, -1}))
    assert L.inv(L.identity) == L.identity


def test_heisenberg_law_examples():
    H = Heisenberg()
    assert H.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    assert H.mul((0, 1, 0), (1, 0, 0)) == (1, 1, 0)  # noncommutative
    assert H.inv((1, 2, 3)) == (-1, -2, -1)


def test_z2_inverse():
    assert Zd(2).inv((3, -1)) == (-3, 1)


def test_word_ball_z():
    ball = word_ball(Zd(1), 2)
    assert ball == frozenset((i,) for i in range(-2, 3))


def test_word_ball_heisenberg_radius1():
    ball = word_ball(Heisenberg(), 1)
    assert len(ball) == 5  # e and the four generators


def test_word_ball_lamplighter_radius2():
    L = Lamplighter()
    ball = word_ball(L, 2)
    # BFS oracle: all products of at most two generators
    gens = list(L.generators)
    expect = {L.identity} | set(gens)
    for a in gens:
        for b in gens:
            expect.add(L.mul(a, b))
    assert ball == frozenset(expect)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.token())
def test_word_ball_monotone_and_symmetric(group):
    prev = 0
    for r in range(4):
        ball = word_ball(group, r)
        assert len(ball) >= prev
        assert frozenset(group.inv(a) for a in ball) == ball
        assert group.identity in ball
        prev = len(ball)


def test_word_ball_cap():
    with pytest.raises(SizeCapExceeded) as exc:
        word_ball(Zd(2), 10, cap=7)
    assert "cap is 7" in str(exc.value)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_zd_ball_matches_breadth_first_closure(d):
    """Z^d enumerates its ball directly; the base-class closure is the oracle,
    for the elements and for caps below, at and above the ball size: both
    raise SizeCapExceeded at the same caps, Z^d with the exact size and the
    closure, which stops early, with a lower bound; or both return the ball."""
    G = Zd(d)
    for r in range(7):
        bfs = Group.ball(G, r, None)
        assert word_ball(G, r) == bfs
        for cap in range(max(len(bfs) - 2, 0), len(bfs) + 2):
            try:
                expected = Group.ball(G, r, cap)
            except SizeCapExceeded as exc:
                assert cap < len(bfs)
                assert cap < exc.needed <= len(bfs)
                assert str(exc) == f"word_ball: needs {exc.needed} elements or more, cap is {cap}"
                with pytest.raises(SizeCapExceeded) as got:
                    word_ball(G, r, cap)
                assert str(got.value) == f"word_ball: needs {len(bfs)} elements, cap is {cap}"
                assert got.value.needed == len(bfs)
            else:
                assert word_ball(G, r, cap) == expected == bfs


@pytest.mark.parametrize("d", [1, 2, 3])
@settings(max_examples=150, deadline=None)
@given(
    radius=st.integers(0, 10),
    m=st.integers(1, 7),
    kind=st.sampled_from(["quotient", "sum", "twice-last"]),
    data=st.data(),
)
def test_zd_ball_counts_match_the_counted_ball(d, radius, m, kind, data):
    """Z^d counts the image of its ball row by row; the base class, which
    counts qmap over the built ball, is the oracle.  Besides the quotient
    map, two homomorphisms onto Z/m that are not coordinate reductions:
    the coordinate sum, and 2 g_d, whose period along the last axis is m/2
    for even m and longer than the short rows at the tips of the ball.
    Caps below, at and above the ball size raise as ``word_ball`` does."""
    G = Zd(d)
    qmap = {
        "quotient": G.quotient(m)[1],
        "sum": lambda g: (sum(g) % m,),
        "twice-last": lambda g: (2 * g[-1] % m,),
    }[kind]
    ball = word_ball(G, radius)
    expected = Group.ball_counts(G, radius, qmap, None)
    assert G.ball_counts(radius, qmap, None) == expected
    assert sum(expected.values()) == len(ball)
    cap = data.draw(st.integers(max(len(ball) - 2, 0), len(ball) + 1), label="cap")
    try:
        word_ball(G, radius, cap)
    except SizeCapExceeded as exc:
        for counts in (G.ball_counts, lambda *a: Group.ball_counts(G, *a)):
            with pytest.raises(SizeCapExceeded) as got:
                counts(radius, qmap, cap)
            assert (str(got.value), got.value.needed, got.value.unit) == (str(exc), exc.needed, exc.unit)
    else:
        assert G.ball_counts(radius, qmap, cap) == expected


@pytest.mark.parametrize("d", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zd_product_matches_pairwise_product(d, data):
    """Z^d takes its set product from the Kronecker kernel; the base-class
    loop is the oracle, for caps below, at and above |AB|: the same set, or
    SizeCapExceeded with the exact size as ``needed``."""
    G = Zd(d)
    radius = data.draw(st.sampled_from([1, 4, 10**6]))  # dense boxes, and wide sparse ones
    points = st.frozensets(st.tuples(*[st.integers(-radius, radius)] * d), max_size=12)
    A, B = data.draw(points), data.draw(points)
    ref = Group.product(G, A, B, None)
    assert G.product(A, B, None) == ref
    for cap in range(max(len(ref) - 2, 0), len(ref) + 2):
        if cap < len(ref):
            with pytest.raises(SizeCapExceeded):
                Group.product(G, A, B, cap)
            with pytest.raises(SizeCapExceeded) as got:
                G.product(A, B, cap)
            assert (got.value.what, got.value.needed) == ("set product", len(ref))
        else:
            assert G.product(A, B, cap) == Group.product(G, A, B, cap) == ref


@pytest.mark.parametrize(
    "group", [Zd(1), Zd(2), Zd(3), Heisenberg(), Lamplighter()], ids=lambda g: g.token()
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_convolve_at_matches_pairwise_convolve(group, data):
    """The base-class kernels, called explicitly so that no override hides
    them: ``convolve_at`` reads the pairwise ``convolve`` at the points,
    inside its support and outside it, with 0 there, repeated or none."""
    support = st.dictionaries(element_strategy(group), st.integers(1, 2**70), max_size=12)
    a, b = data.draw(support, label="a"), data.draw(support, label="b")
    full = Group.convolve(group, a, b)
    inside = [st.sampled_from(list(full))] if full else []
    points = data.draw(st.lists(st.one_of(element_strategy(group), *inside), max_size=12), label="points")
    points += points[: data.draw(st.integers(0, len(points)), label="repeats")]
    assert Group.convolve_at(group, a, b, points) == {g: full.get(g, 0) for g in points}


def test_cardinality_biinvariance():
    L = Lamplighter()
    A = [(0, frozenset()), (1, frozenset({0})), (-2, frozenset({1, 3}))]
    for g in [(2, frozenset({-1})), (0, frozenset({5}))]:
        assert len({L.mul(g, a) for a in A}) == len(A)
        assert len({L.mul(a, g) for a in A}) == len(A)


def test_group_tokens_roundtrip():
    """``group_from_token`` reads only what ``token()`` writes; the first six
    spellings below used to name zd:1, zd:1, zd:1, zd:1, zd:10 and zd:3."""
    for g in GROUPS:
        assert group_from_token(g.token()) == g
    for token in ("zd:+1", "zd:01", "zd: 1", "zd:1 ", "zd:1_0", "zd:\u0663", "Heisenberg"):
        with pytest.raises(ValueError):
            group_from_token(token)
    # a tail that is no decimal literal is an unknown token, not int()'s
    # message; "\u00b2".isdigit() holds, but int() refuses it
    for token in ("zd:", "zd:x", "zd:1.5", "zd:\u00b2"):
        with pytest.raises(ValueError) as exc:
            group_from_token(token)
        assert str(exc.value) == f"unknown group token {token!r}"


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.token())
def test_quotient_states_are_distinct_representatives(group):
    """``FiniteAction`` trusts this contract: the states of ``quotient(m)``
    are distinct, fixed by q, and as many as the quotient has elements."""
    for m in (1, 2, 3):
        order = {"zd": m ** len(group.identity), "heisenberg": m**3, "lamplighter": m * 2**m}[group.kind]
        states, qmap = group.quotient(m)
        states = list(states)
        assert len(set(states)) == len(states) == order
        assert all(qmap(s) == s for s in states)


def test_huge_zd_token_is_cheap_or_refused():
    # zd:100000 used to build 2d generators of length d with the group
    start = time.perf_counter()
    assert group_from_token("zd:100000").d == 100000
    assert time.perf_counter() - start < 0.05
    with pytest.raises(ValueError, match="dimension must be between 1 and"):
        group_from_token("zd:100000000000000000000")


def test_zd_generator_order():
    # the closure's capped "or more" count depends on this order
    assert Zd(3).generators == ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def test_group_mismatch():
    with pytest.raises(GroupMismatchError):
        require_same_group(Zd(1), Zd(2))
