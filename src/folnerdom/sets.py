"""Finite-subset algebra: products, powers, interiors.

All operations are pure; a FiniteSubset is an immutable wrapper around a
frozenset of group elements together with the group that owns the law.
Cardinality doubles as the counting Haar measure, which on a discrete
group is exact and bi-invariant.

Set products and interiors run through the group's exact kernels,
``group.product`` and ``group.convolve`` (see ``groups``).

``serialize`` defines the set listing, and ``deserialize`` reads back
exactly the text that it writes: it parses the listing and accepts it only
if ``serialize`` gives the same text back.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .frozen import Frozen
from .groups import Group, group_from_token, require_same_group


class FiniteSubset(Frozen):
    __slots__ = _fields = ("group", "elements")

    def __init__(self, group: Group, elements: frozenset = frozenset()):
        self._init(group, elements)

    @classmethod
    def of(cls, group: Group, elems: Iterable) -> "FiniteSubset":
        return cls(group, frozenset(elems))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __contains__(self, el) -> bool:
        return el in self.elements

    def issubset(self, other: "FiniteSubset") -> bool:
        require_same_group(self.group, other.group)
        return self.elements <= other.elements

    def sorted_encodings(self) -> list[bytes]:
        enc = self.group.encode
        return sorted(enc(a) for a in self.elements)

    def serialize(self) -> str:
        """Header with group token and cardinality, then sorted hex lines."""
        lines = [f"folnerdom-set {self.group.token()} {len(self)}"]
        lines.extend(e.hex() for e in self.sorted_encodings())
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "FiniteSubset":
        """The set that ``serialize`` writes as ``text``; a ValueError for
        any other text."""
        header, *lines = text.split("\n")
        magic, _, rest = header.partition(" ")
        if magic != "folnerdom-set":
            raise ValueError("not a folnerdom set listing")
        group = group_from_token(rest.partition(" ")[0])
        result = cls(group, frozenset(group.decode(bytes.fromhex(h)) for h in lines[:-1]))
        if result.serialize() != text:
            raise ValueError("non-canonical set listing")
        return result


def product(A: FiniteSubset, B: FiniteSubset, cap: int | None = None) -> FiniteSubset:
    """Pointwise set product {ab : a in A, b in B}, by ``group.product``;
    raises SizeCapExceeded when it has more than ``cap`` elements."""
    require_same_group(A.group, B.group)
    return FiniteSubset(A.group, A.group.product(A.elements, B.elements, cap))


def inverse_set(A: FiniteSubset) -> FiniteSubset:
    inv = A.group.inv
    return FiniteSubset(A.group, frozenset(inv(a) for a in A.elements))


def power(A: FiniteSubset, k: int, cap: int | None = None) -> FiniteSubset:
    """A^k by square-and-multiply on set products."""
    if k < 1:
        raise ValueError("exponent must be >= 1")
    result = None
    base = A
    while k:
        if k & 1:
            result = base if result is None else product(result, base, cap)
        k >>= 1
        if k:
            base = product(base, base, cap)
    return result


def envelope_pad(E_prev: FiniteSubset, N: int, cap: int | None = None) -> FiniteSubset:
    """P^{-1} with P = E_{k-1}^{N(k)-2}, the pad on both sides of E_k = P^{-1} F P^{-1}."""
    if N <= 2:
        raise ValueError("N(k) must exceed 2")
    return inverse_set(power(E_prev, N - 2, cap))


def is_symmetric_with_identity(A: FiniteSubset) -> bool:
    return A.group.identity in A.elements and inverse_set(A).elements == A.elements


def interior_bilateral(
    H1: FiniteSubset, H2: FiniteSubset, K: FiniteSubset
) -> FiniteSubset:
    """{g in K : H1 g H2 subset K}, by erosion through two convolution counts.

    (1_K * 1_{H2^-1})(y) counts the h2 in H2 with y h2 in K, so it equals
    |H2| exactly on R = {y : y H2 subset K}; then (1_{H1^-1} * 1_R)(g)
    counts the h1 in H1 with h1 g in R, and equals |H1| exactly on the
    interior.  An empty flank makes H1 g H2 empty, so the interior is K.
    """
    require_same_group(H1.group, K.group)
    require_same_group(H2.group, K.group)
    if not H1.elements or not H2.elements:
        return K
    convolve = K.group.convolve
    right = convolve(dict.fromkeys(K.elements, 1), dict.fromkeys(inverse_set(H2).elements, 1))
    R = [y for y, count in right.items() if count == len(H2)]
    left = convolve(dict.fromkeys(inverse_set(H1).elements, 1), dict.fromkeys(R, 1))
    return FiniteSubset(K.group, frozenset(g for g in K.elements if left.get(g) == len(H1)))
