"""Exact element algebra for three discrete amenable groups.

Elements are plain hashable Python values; the group object owns the law:

* ``Zd(d)``       -- tuples of ``d`` ints, componentwise addition;
* ``Heisenberg()``-- int triples ``(a, b, c)`` for upper-unitriangular
  matrices, ``(a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')``;
* ``Lamplighter()`` -- pairs ``(t, lamps)`` with ``lamps`` a frozenset of
  ints, ``(t1,K1)(t2,K2) = (t1+t2, K1 ^ (t1+K2))``.

Every element has a canonical byte encoding, the serialization key and
the deterministic tie-break order everywhere downstream.  ``_encode_ints``
writes it: the group's ``tag`` byte (0x01 Z^d, 0x02 Heisenberg, 0x03
lamplighter), then a list of ints, each zigzag-mapped (n >= 0 to 2n,
n < 0 to -2n - 1) and written in base 128, low digit first, with the high
bit set on every byte but the last.  Z^d and Heisenberg elements write
their coordinates; a lamplighter element writes t, the number of lamps,
and the lamps in ascending order.  ``_decode_ints`` reads the ints back.
``decode`` is the exact inverse of ``encode``: it reads the ints, builds
the element they spell and accepts the bytes only if ``encode`` gives them
back, so every element has one spelling and the writer alone defines it.
A varint longer than Python's limit on integer digits
(``sys.get_int_max_str_digits()``) is refused before it is read.

Each group owns the three exact kernels behind every product of measures
and of sets: ``convolve(a, b)``, the raw numerators of a * b for element ->
int dicts; ``convolve_at(a, b, points)``, the same at the given points
only; and ``product(A, B, cap)``, the set product, which raises
SizeCapExceeded("set product", ...) when it has more than ``cap`` elements.
``convolve_at`` loops over its second operand, where the walk passes
omega, which has no more atoms than its powers, capped or not.  The base
class runs the group law once per pair; Heisenberg and the lamplighter
use it, and it is the oracle faster kernels are tested against.  ``Zd``
overrides ``convolve`` and ``product`` with Kronecker substitution
(Schoenhage 1982; Harvey, J. Symb. Comput. 2009); its set product is the
support of 1_A * 1_B.

A group's token (``zd:d``, ``heisenberg``, ``lamplighter``) round-trips:
``group_from_token`` reads only what ``token()`` writes, so ``zd:01`` and
``zd:+1`` name no group.  ``Zd`` derives its generators +-e_i from d when read.

``word_ball(group, r, cap)`` is the entry point for word balls and calls
``group.ball``.  The base class builds the ball by breadth-first closure
under the generators; Heisenberg and the lamplighter use it, and it is the
test oracle.  ``Zd`` overrides it: the L1 ball is sized in closed form,
so a cap is checked before any element is built and a cap hit reports the
exact size, and then enumerated coordinate by coordinate.

``group.ball_counts(r, qmap, cap)`` is the image of the word ball under a
homomorphism q onto a finite group, as {q(g): count}.  The base class
counts q(g) over ``ball``; Heisenberg and the lamplighter use it, and it
is the test oracle.  ``Zd`` never builds
the ball: it walks the rows of the L1 ball, a head over the first d-1
coordinates and an interval [-l, l] of the last one.  Along a row the
images repeat with the period p of q(k e_d), the least k >= 1 with
q(k e_d) = q(0), because q is a homomorphism; so a row of length
L = 2l + 1 >= p adds L // p + (i < L % p) to the image of its i-th point,
for i < p.  Shorter rows, and every row when no period up to 2r + 1
exists, are counted point by point.  The cap is checked as in ``ball``.

Each group names its finite quotient mod m as ``quotient(m) -> (states,
qmap)``, which ``actions.FiniteAction`` reads.  ``qmap`` is the quotient
homomorphism q; the states are group elements, one representative per
element of the quotient with q(s) == s.  The quotient law is the group's
own law followed by q: q * s = q(mul(q, s)) and q^-1 = q(inv(q)).  Since q
is a homomorphism this is the law of the quotient, so no quotient writes
its law a second time.  Z^d -> (Z/m)^d and the Heisenberg group with all
three entries mod m share one definition (int tuples reduced coordinatewise
mod m: both laws are integer polynomials); the lamplighter maps onto
(Z/m) x| (Z/2)^m (position mod m, lamp parity per residue class).
"""

from __future__ import annotations

import sys
from itertools import product as iproduct
from itertools import repeat
from math import comb, prod
from operator import add, neg
from operator import mul as times
from typing import Callable, Iterable

from .errors import GroupMismatchError, SizeCapExceeded

def _encode_ints(tag: int, values: Iterable[int]) -> bytes:
    """``tag``, then each value as a zigzag varint (see the module docstring)."""
    out = bytearray((tag,))
    for n in values:
        z = n << 1 if n >= 0 else ~(n << 1)
        while z > 0x7F:
            out.append(z & 0x7F | 0x80)
            z >>= 7
        out.append(z)
    return bytes(out)


def _decode_ints(data: bytes, pos: int, count: int) -> tuple[list[int], int]:
    """``count`` zigzag varints from ``data[pos:]``, and the position after them.

    Each varint is measured before it is read, since reading one costs time
    quadratic in its length: one of more bytes than the interpreter's limit
    on integer digits is a ValueError, as an integer literal with more
    digits is; a limit of 0, or none (CPython before 3.10.7), bounds nothing.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    values = []
    for _ in range(count):
        end = pos
        while data[end] > 0x7F:
            end += 1
        if limit and end - pos >= limit:
            raise ValueError(f"Exceeds the limit ({limit}) for the bytes of a varint")
        z = 0
        for b in reversed(data[pos : end + 1]):
            z = z << 7 | b & 0x7F
        values.append((z >> 1) ^ -(z & 1))
        pos = end + 1
    return values, pos


def _pack(cols: list, values: Iterable, lo: list, strides: list, slot: int) -> int:
    """Numerators as one int: slot ``sum_i (x_i - lo_i) * strides_i`` holds num[x].

    ``cols`` are the coordinate columns of the support, in the order of ``values``.
    """
    idx = [0] * len(cols[0])
    for col, l, s in zip(cols, lo, strides):
        idx = [i + (c - l) * s for i, c in zip(idx, col)]
    buf = bytearray(slot * (max(idx) + 1))
    for i, v in zip(idx, values):
        buf[i * slot : (i + 1) * slot] = v.to_bytes(slot, "little")
    return int.from_bytes(buf, "little")


class Group:
    """Base class: element algebra plus a symmetric generating set."""

    kind: str
    tag: int
    identity: object
    generators: tuple

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def encode(self, a) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes):
        """The element that ``encode`` writes as ``data``; a ValueError for
        any other bytes."""
        try:
            el = self._decode(data)
        except IndexError:
            raise ValueError("truncated element encoding") from None
        if self.encode(el) != data:
            raise ValueError("non-canonical element encoding")
        return el

    def _decode(self, data: bytes):
        """The int tuple, as long as the identity, that follows the tag byte."""
        return tuple(_decode_ints(data, 1, len(self.identity))[0])

    def token(self) -> str:
        """Short text descriptor, invertible via group_from_token()."""
        return self.kind

    def quotient(self, m: int) -> tuple[Iterable, Callable]:
        """(states, qmap) of the quotient mod m: int tuples reduced
        coordinatewise, states in lexicographic order."""
        return iproduct(range(m), repeat=len(self.identity)), lambda g: tuple(v % m for v in g)

    def ball(self, radius: int, cap: int | None) -> frozenset:
        """The word ball of ``word_ball``, by breadth-first closure under
        the generators; raises before the ball outgrows ``cap``, so the
        size it reports is a lower bound ("elements or more")."""
        seen = {self.identity}
        frontier = [self.identity]
        mul, generators = self.mul, self.generators
        for _ in range(radius):
            nxt = []
            for a in frontier:
                for g in generators:
                    x = mul(a, g)
                    if x not in seen:
                        if cap is not None and len(seen) >= cap:
                            raise SizeCapExceeded("word_ball", len(seen) + 1, cap, "elements or more")
                        seen.add(x)
                        nxt.append(x)
            if not nxt:
                break
            frontier = nxt
        return frozenset(seen)

    def ball_counts(self, radius: int, qmap: Callable, cap: int | None) -> dict:
        """{qmap(g): count} over ``ball(radius, cap)``, one qmap per element."""
        counts: dict = {}
        get = counts.get
        for g in self.ball(radius, cap):
            key = qmap(g)
            counts[key] = get(key, 0) + 1
        return counts

    def convolve(self, a: dict, b: dict) -> dict:
        """Raw numerators of a * b by the group law, one product per pair."""
        mul = self.mul
        out: dict = {}
        get = out.get
        b_items = list(b.items())
        for x, va in a.items():
            for y, vb in b_items:
                k = mul(x, y)
                out[k] = get(k, 0) + va * vb
        return out

    def convolve_at(self, a: dict, b: dict, points: Iterable) -> dict:
        """Raw numerators of a * b at ``points`` only, 0 included, as
        (a * b)(g) = sum_k a(g k^-1) b(k).  Loops over ``b`` and inverts each
        of its elements once, so callers pass the smaller operand second."""
        mul, get = self.mul, a.get
        inverses = list(map(self.inv, b))
        weights = list(b.values())
        return {
            g: sum(map(times, weights, map(get, map(mul, repeat(g), inverses), repeat(0))))
            for g in points
        }

    def product(self, A: Iterable, B: Iterable, cap: int | None) -> frozenset:
        """{ab : a in A, b in B} by the group law; the cap is checked after
        each row, so a product past it stops early, and the size it reports
        is a lower bound ("elements or more")."""
        mul = self.mul
        out = set()
        b_elems = list(B)
        for a in A:
            for b in b_elems:
                out.add(mul(a, b))
            if cap is not None and len(out) > cap:
                raise SizeCapExceeded("set product", len(out), cap, "elements or more")
        return frozenset(out)

    def __eq__(self, other):
        return type(self) is type(other) and self.token() == other.token()

    def __hash__(self):
        return hash(self.token())

    def __repr__(self):
        return f"<group {self.token()}>"


class Zd(Group):
    kind = "zd"
    tag = 0x01

    def __init__(self, d: int = 1):
        if not 1 <= d <= sys.maxsize:
            raise ValueError(f"dimension must be between 1 and {sys.maxsize}")
        self.d = d
        self.identity = (0,) * d

    @property
    def generators(self) -> tuple:
        """e_1, -e_1, ..., e_d, -e_d; only the test oracle ``Group.ball`` reads them."""
        zero = self.identity
        return tuple(zero[:i] + (s,) + zero[i + 1 :] for i in range(self.d) for s in (1, -1))

    def mul(self, a, b):
        if len(a) != len(b):
            raise ValueError("elements of different dimensions")
        return tuple(map(add, a, b))

    def inv(self, a):
        return tuple(map(neg, a))

    def _rows(self, radius: int, cap: int | None) -> list[tuple[tuple, int]]:
        """The rows of the L1 ball of radius r: (head, l) for each point
        ``head`` of the first d-1 coordinates, whose row is head + (v,) for
        v in [-l, l].  The ball is sized first in closed form, the sum of
        2^k C(d, k) C(r, k) over k <= min(d, r); a cap hit reports it."""
        size = sum(2**k * comb(self.d, k) * comb(radius, k) for k in range(min(self.d, radius) + 1))
        # the closure holds the identity before it checks the cap
        if cap is not None and size > max(cap, 1):
            raise SizeCapExceeded("word_ball", size, cap)
        rows = [((), radius)]  # (first coordinates, radius left for the rest)
        for _ in range(self.d - 1):
            rows = [(h + (v,), left - abs(v)) for h, left in rows for v in range(-left, left + 1)]
        return rows

    def ball(self, radius: int, cap: int | None) -> frozenset:
        """The L1 ball of radius r, row by row."""
        return frozenset(h + (v,) for h, left in self._rows(radius, cap) for v in range(-left, left + 1))

    def ball_counts(self, radius: int, qmap: Callable, cap: int | None) -> dict:
        """{qmap(g): count} over the L1 ball, row by row with the period of
        qmap along the last axis (see the module docstring)."""
        rows = self._rows(radius, cap)
        axis = (0,) * (self.d - 1)
        zero = qmap(self.identity)
        period = next((k for k in range(1, 2 * radius + 2) if qmap(axis + (k,)) == zero), None)
        counts: dict = {}
        get = counts.get
        for h, left in rows:
            length = 2 * left + 1
            if period is None or length < period:
                for v in range(-left, left + 1):
                    key = qmap(h + (v,))
                    counts[key] = get(key, 0) + 1
            else:
                full, extra = divmod(length, period)
                for i in range(period):
                    key = qmap(h + (i - left,))
                    counts[key] = get(key, 0) + full + (i < extra)
        return counts

    def convolve(self, a: dict, b: dict) -> dict:
        """Raw numerators of a * b by Kronecker substitution.

        Each operand's numerators are packed densely over its bounding box
        into one Python int, in fixed-width byte slots indexed by one
        mixed-radix index whose stride on each axis is the span of the
        *output* box on that axis, so a sum of two indices never wraps into
        another axis.  One bigint multiply then does the whole convolution.
        An output coefficient sums at most ``min(|a|, |b|)`` products (each
        x in a meets at most one y in b with x + y = k), each below
        ``2^bits(max a) * 2^bits(max b)``, so a slot of
        ``bits(max a) + bits(max b) + bits(min(|a|, |b|))`` bits, rounded up
        to whole bytes, holds it and no carry crosses a slot.  When the
        output box has more slots than ``|a| * |b|`` (sparse, wide supports)
        the packing would cost more than the pairwise loop, so the loop runs
        instead.
        """
        if not a or not b:
            return {}
        cols_a, cols_b = list(zip(*a)), list(zip(*b))
        lo_a = [min(c) for c in cols_a]
        lo_b = [min(c) for c in cols_b]
        lo = [p + q for p, q in zip(lo_a, lo_b)]
        span = [max(p) + max(q) - l + 1 for p, q, l in zip(cols_a, cols_b, lo)]
        size = prod(span)
        if size > len(a) * len(b):
            return Group.convolve(self, a, b)
        strides = [prod(span[i + 1 :]) for i in range(len(span))]
        bits = (
            max(a.values()).bit_length()
            + max(b.values()).bit_length()
            + min(len(a), len(b)).bit_length()
        )
        slot = (bits + 7) // 8
        packed = _pack(cols_a, a.values(), lo_a, strides, slot) * _pack(
            cols_b, b.values(), lo_b, strides, slot
        )
        raw = packed.to_bytes(slot * size, "little")
        # row-major order of the output box is the slot order
        points = iproduct(*(range(l, l + s) for l, s in zip(lo, span)))
        out = {}
        for x, off in zip(points, range(0, slot * size, slot)):
            n = int.from_bytes(raw[off : off + slot], "little")
            if n:
                out[x] = n
        return out

    def product(self, A: Iterable, B: Iterable, cap: int | None) -> frozenset:
        """The support of 1_A * 1_B, checked against the cap once it is whole."""
        out = self.convolve(dict.fromkeys(A, 1), dict.fromkeys(B, 1))
        if cap is not None and len(out) > cap:
            raise SizeCapExceeded("set product", len(out), cap)
        return frozenset(out)

    def encode(self, a) -> bytes:
        return _encode_ints(self.tag, a)

    def token(self):
        return f"zd:{self.d}"


class Heisenberg(Group):
    kind = "heisenberg"
    tag = 0x02
    identity = (0, 0, 0)
    # x = (1,0,0), y = (0,1,0) and their inverses
    generators = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def inv(self, a):
        return (-a[0], -a[1], a[0] * a[1] - a[2])

    def encode(self, a) -> bytes:
        return _encode_ints(self.tag, a)


class Lamplighter(Group):
    kind = "lamplighter"
    tag = 0x03
    identity = (0, frozenset())
    generators = ((1, frozenset()), (-1, frozenset()), (0, frozenset((0,))))

    def mul(self, a, b):
        t1, k1 = a
        t2, k2 = b
        return (t1 + t2, k1 ^ frozenset(t1 + k for k in k2))

    def inv(self, a):
        t, k = a
        return (-t, frozenset(x - t for x in k))

    def encode(self, a) -> bytes:
        t, k = a
        return _encode_ints(self.tag, (t, len(k), *sorted(k)))

    def _decode(self, data):
        (t, n), pos = _decode_ints(data, 1, 2)
        return (t, frozenset(_decode_ints(data, pos, n)[0]))

    def quotient(self, m: int) -> tuple[Iterable, Callable]:
        """(Z/m) x| (Z/2)^m: states (t, lamps) with t and the lamps in
        [0, m), ordered by t, then by the bit pattern of the lamps."""

        def lamps_of(bits: int) -> frozenset:
            return frozenset(k for k in range(m) if bits >> k & 1)

        def qmap(g):
            t, lamps = g
            bits = 0
            for k in lamps:
                bits ^= 1 << (k % m)
            return (t % m, lamps_of(bits))

        return ((t, lamps_of(bits)) for t in range(m) for bits in range(2**m)), qmap


def group_from_token(token: str) -> Group:
    """The group whose ``token()`` is ``token``; any other text is a ValueError."""
    if token.startswith("zd:") and token[3:].isdecimal():
        group = Zd(int(token[3:]))
    else:
        group = {"heisenberg": Heisenberg(), "lamplighter": Lamplighter()}.get(token)
    if group is None or group.token() != token:
        raise ValueError(f"unknown group token {token!r}")
    return group


def require_same_group(a: Group, b: Group) -> None:
    if a != b:
        raise GroupMismatchError(f"group mismatch: {a.token()} vs {b.token()}")


def word_ball(group: Group, radius: int, cap: int | None = None) -> frozenset:
    """Elements expressible as products of at most ``radius`` generators.

    The generating set must be symmetric, so the ball is symmetric and
    contains the identity.  ``group.ball`` builds it, and raises
    SizeCapExceeded("word_ball", ...) when it has more than ``cap`` elements
    (for cap >= 1; the identity alone never exceeds the cap): with the exact
    size where the group sizes its ball in closed form (``Zd``), and with a
    lower bound, "elements or more", where the closure stops early.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return group.ball(radius, cap)
