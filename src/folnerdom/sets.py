"""Finite-subset algebra: products, interiors, Folner ratios, extraction.

All operations are pure; a FiniteSubset is an immutable wrapper around a
frozenset of group elements together with the group that owns the law.
Cardinality doubles as the counting Haar measure, which on a discrete
group is exact and bi-invariant.

Set products and interiors run through the group's exact kernels,
``group.product`` and ``group.convolve`` (see ``groups``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import SizeCapExceeded
from .frozen import Frozen
from .groups import Group, group_from_token, require_same_group


class FiniteSubset(Frozen):
    __slots__ = _fields = ("group", "elements")

    def __init__(self, group: Group, elements: frozenset = frozenset()):
        self._init(group, elements)

    @classmethod
    def of(cls, group: Group, elems: Iterable) -> "FiniteSubset":
        return cls(group, frozenset(elems))

    @classmethod
    def singleton(cls, group: Group, el) -> "FiniteSubset":
        return cls(group, frozenset((el,)))

    @classmethod
    def identity_set(cls, group: Group) -> "FiniteSubset":
        return cls(group, frozenset((group.identity,)))

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
        lines = text.strip().splitlines()
        magic, token, card = lines[0].split()
        if magic != "folnerdom-set":
            raise ValueError("not a folnerdom set listing")
        group = group_from_token(token)
        elems = frozenset(group.decode(bytes.fromhex(h)) for h in lines[1:])
        if len(elems) != int(card):
            raise ValueError("cardinality header mismatch")
        return cls(group, elems)


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


def padded_envelope(pad: FiniteSubset, F: FiniteSubset, cap: int | None = None) -> FiniteSubset:
    """E_k = P^{-1} F P^{-1}, given the pad P^{-1} from ``envelope_pad``."""
    return product(product(pad, F, cap), pad, cap)


def symmetrize(A: FiniteSubset) -> FiniteSubset:
    """A U A^{-1} U {e}."""
    return FiniteSubset(
        A.group,
        A.elements | inverse_set(A).elements | {A.group.identity},
    )


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


def folner_ratio(
    K1: FiniteSubset, F: FiniteSubset, K2: FiniteSubset, cap: int | None = None
) -> Fraction:
    """|K1 F K2 \\ F| / |F| as an exact rational; 0 means exact bi-invariance."""
    require_same_group(K1.group, F.group)
    require_same_group(K2.group, F.group)
    if len(F) == 0:
        raise ValueError("F must be nonempty")
    moved = product(product(K1, F, cap), K2, cap)
    return Fraction(len(moved.elements - F.elements), len(F))


def temperedness_constant(
    prefix: list[FiniteSubset], cap: int | None = None
) -> Fraction:
    """max_n |U_{i<n} F_i^{-1} F_n| / |F_n| over the given prefix."""
    if len(prefix) < 2:
        raise ValueError("need at least two sets")
    best = Fraction(0)
    for n in range(1, len(prefix)):
        Fn = prefix[n]
        if len(Fn) == 0:
            raise ValueError("empty Folner set in prefix")
        union: set = set()
        for Fi in prefix[:n]:
            union |= product(inverse_set(Fi), Fn, cap).elements
            if cap is not None and len(union) > cap:
                raise SizeCapExceeded("temperedness union", len(union), cap)
        best = max(best, Fraction(len(union), len(Fn)))
    return best


class ExtractionStep(NamedTuple):
    k: int
    index: int
    folner_set: FiniteSubset
    envelope: FiniteSubset  # E_k
    ratio: Fraction  # |E_k \ F_{n_k}| / |F_{n_k}|


def extract_subsequence(
    folner: Iterable[tuple[int, FiniteSubset]],
    N: Callable[[int], int],
    eps: Callable[[int], Fraction],
    depth: int,
    budget: int = 64,
    cap: int | None = None,
) -> list[ExtractionStep]:
    """Pick a subsequence F_{n_k} whose envelopes E_k stay eps_k-close.

    ``folner`` yields (index, set) pairs with strictly increasing indices.
    Step 1 takes the first set as E_1 = F_{n_1}; for k >= 2 candidates are
    consumed until

        |E_k \\ F_{n_k}| / |F_{n_k}| < eps(k),
        E_k = (E_{k-1}^{N(k)-2})^{-1} F_{n_k} (E_{k-1}^{N(k)-2})^{-1},

    and returns the steps.  A step that tries ``budget`` candidates, or
    runs out of them, without success is a cap hit: SizeCapExceeded names
    the step, its best ratio and the budget, and counts the candidates it
    tried as the cap.  A success at step k guarantees
    |F_{n_k}| / |E_k| >= 1 / (1 + eps(k)).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    it = iter(folner)
    try:
        idx, F1 = next(it)
    except StopIteration:
        raise ValueError("empty Folner stream") from None
    if not is_symmetric_with_identity(F1):
        raise ValueError("first Folner set must be symmetric and contain e")
    steps = [ExtractionStep(1, idx, F1, F1, Fraction(0))]
    last_index = idx
    E_prev = F1
    for k in range(2, depth + 1):
        pad = envelope_pad(E_prev, N(k), cap)
        eps_k = eps(k)
        best: Fraction | None = None
        found = None
        tried = 0
        for idx, Fc in it:
            if idx <= last_index:
                raise ValueError("Folner indices must be strictly increasing")
            last_index = idx
            tried += 1
            Ek = padded_envelope(pad, Fc, cap)
            ratio = Fraction(len(Ek.elements - Fc.elements), len(Fc))
            if best is None or ratio < best:
                best = ratio
            if ratio < eps_k:
                found = ExtractionStep(k, idx, Fc, Ek, ratio)
                break
            if tried >= budget:
                break
        if found is None:
            what = f"extraction step {k} (best ratio {'none' if best is None else best}, budget {budget})"
            raise SizeCapExceeded(what, tried + 1, tried, "candidates")
        steps.append(found)
        E_prev = found.envelope
    return steps
