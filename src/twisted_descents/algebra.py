"""Sparse integer linear combinations of set compositions and their products.

Implements the three fundamental operations on the span of set compositions:

* convolution  ``a * b``   — concatenation, zero when supports overlap;
* composition  ``a @ b``   — blockwise intersection refinement, zero when
  supports differ;
* coproduct    ``delta``   — sum over blockwise splits, valued in the tensor
  square.

Elements are immutable sparse maps with arbitrary-precision integer
coefficients; all functions are pure.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

from .limits import MAX_TERMS, SizeLimitError
from .permutations import check_permutation, inverse
from .setcomp import EMPTY, SetComposition, check_ground_set


def conv_basis(a: SetComposition, b: SetComposition) -> SetComposition | None:
    """Concatenate two basis indices; None when their supports overlap."""
    if a.support & b.support:
        return None
    return SetComposition._make(a.sets + b.sets, a.support | b.support)


def compose_basis(a: SetComposition, b: SetComposition) -> SetComposition | None:
    """Intersection refinement (S_i ∩ T_j over (i, j) in row-major order).

    None when the supports differ; empty intersections are dropped.
    """
    if a.support != b.support:
        return None
    sets = []
    for s in a.sets:
        for t in b.sets:
            cut = s & t
            if cut:
                sets.append(cut)
    return SetComposition._make(tuple(sets), a.support)


def _clean(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c}


class _Linear:
    """Shared arithmetic for sparse integer combinations over hashable keys."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        acc: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise ValueError(f"coefficient {coeff!r} is not an integer")
            key = self._check_key(key)
            acc[key] = acc.get(key, 0) + coeff
        self.terms = _clean(acc)

    @classmethod
    def _make(cls, terms: dict):
        self = cls.__new__(cls)
        self.terms = terms
        return self

    @staticmethod
    def _check_key(key):
        return key

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int) and other == 0:
            return not self.terms
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            acc[key] = acc.get(key, 0) + coeff
        return type(self)._make(_clean(acc))

    def __neg__(self):
        return type(self)._make({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        if not isinstance(scalar, int) or isinstance(scalar, bool):
            return NotImplemented
        if scalar == 0:
            return type(self)._make({})
        return type(self)._make({k: scalar * c for k, c in self.terms.items()})

    def coefficient(self, key) -> int:
        return self.terms.get(key, 0)

    def __len__(self) -> int:
        return len(self.terms)


class TDElement(_Linear):
    """An integer linear combination of set compositions."""

    __slots__ = ()

    @staticmethod
    def _check_key(key):
        if not isinstance(key, SetComposition):
            raise ValueError(f"term key {key!r} is not a SetComposition")
        return key

    def __iter__(self) -> Iterator[tuple[SetComposition, int]]:
        SetComposition._fill_blocks(self.terms)
        for sc in sorted(self.terms, key=lambda s: s.sort_key):
            yield sc, self.terms[sc]

    def __mul__(self, other):
        if isinstance(other, TDElement):
            return convolution(self, other)
        return NotImplemented

    def __matmul__(self, other):
        if isinstance(other, TDElement):
            return composition_product(self, other)
        return NotImplemented

    def __repr__(self) -> str:
        from .textio import render

        return f"<TDElement {render(self)}>"


class TensorElement(_Linear):
    """An integer combination of tensor pairs of set compositions."""

    __slots__ = ()

    @staticmethod
    def _check_key(key):
        if not isinstance(key, tuple) or len(key) != 2:
            raise ValueError(f"tensor key {key!r} is not a pair of SetCompositions")
        left, right = key
        TDElement._check_key(left)
        TDElement._check_key(right)
        return key

    def __iter__(self) -> Iterator[tuple[tuple[SetComposition, SetComposition], int]]:
        SetComposition._fill_blocks(itertools.chain.from_iterable(self.terms))
        for pair in sorted(self.terms, key=lambda p: (p[0].sort_key, p[1].sort_key)):
            yield pair, self.terms[pair]

    def swap(self) -> "TensorElement":
        """Exchange the tensor legs."""
        return TensorElement._make({(r, l): c for (l, r), c in self.terms.items()})

    def __repr__(self) -> str:
        from .textio import render_tensor

        return f"<TensorElement {render_tensor(self)}>"


ZERO = TDElement._make({})
UNIT = TDElement._make({EMPTY: 1})
TENSOR_ZERO = TensorElement._make({})


def basis(sc: SetComposition | Iterable[Iterable[int]]) -> TDElement:
    """The basis element attached to a set composition (or raw blocks)."""
    if not isinstance(sc, SetComposition):
        sc = SetComposition(sc)
    return TDElement._make({sc: 1})


def chamber(word: Iterable[int]) -> SetComposition:
    """The singleton-blocks set composition ({w1},...,{wn})."""
    word = tuple(word)
    sets = tuple(frozenset((x,)) for x in word)
    support = check_ground_set(word)
    if len(support) != len(word):
        raise ValueError(f"chamber word {word} has repeated letters")
    return SetComposition._make(sets, support)


def permutation_basis(p: Iterable[int]) -> SetComposition:
    """The chamber ({p(1)},...,{p(n)}) attached to a permutation."""
    return chamber(check_permutation(p))


def chamber_word(sc: SetComposition) -> tuple[int, ...]:
    """Read the letter sequence back off a singleton-blocks composition."""
    if any(len(b) != 1 for b in sc.sets):
        raise ValueError(f"{sc!r} is not a chamber")
    return tuple(next(iter(b)) for b in sc.sets)


def _bilinear(x: TDElement, y: TDElement, kernel) -> TDElement:
    acc: dict = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            key = kernel(a, b)
            if key is not None:
                acc[key] = acc.get(key, 0) + ca * cb
    return TDElement._make(_clean(acc))


def _check_pairs(what: str, x: _Linear, y: _Linear, max_terms: int) -> None:
    requested = len(x.terms) * len(y.terms)
    if requested > max_terms:
        raise SizeLimitError(
            f"{what} would pair {requested} terms (cap {max_terms})", max_terms, requested
        )


def convolution(x: TDElement, y: TDElement, max_terms: int = MAX_TERMS) -> TDElement:
    """Bilinear concatenation; overlapping supports annihilate.

    Raises SizeLimitError when |x|·|y| term pairs exceed ``max_terms``.
    """
    _check_pairs("convolution", x, y, max_terms)
    return _bilinear(x, y, conv_basis)


def composition_product(x: TDElement, y: TDElement, max_terms: int = MAX_TERMS) -> TDElement:
    """Bilinear intersection refinement; distinct supports annihilate.

    ∘ is graded by support, so each term of x meets only the terms of y on the
    same support; the result's terms come in the order of the all-pairs loop.
    Raises SizeLimitError when |x|·|y| term pairs exceed ``max_terms``.
    """
    _check_pairs("composition product", x, y, max_terms)
    by_support: dict = {}
    for b, cb in y.terms.items():
        by_support.setdefault(b.support, []).append((b, cb))
    acc: dict = {}
    for a, ca in x.terms.items():
        for b, cb in by_support.get(a.support, ()):
            key = compose_basis(a, b)
            acc[key] = acc.get(key, 0) + ca * cb
    return TDElement._make(_clean(acc))


def _block_splits(block: frozenset[int]) -> list[tuple[frozenset[int], frozenset[int]]]:
    elems = sorted(block)
    out = []
    for r in range(len(elems) + 1):
        for chosen in itertools.combinations(elems, r):
            left = frozenset(chosen)
            out.append((left, block - left))
    return out


def coproduct(x: TDElement, max_terms: int = MAX_TERMS) -> TensorElement:
    """Blockwise-split coproduct, valued in the tensor square.

    Each term 1_(S1,...,Sk) contributes one summand per family of splits
    Ti ⊔ Ui = Si; empty parts are dropped from either leg.
    """
    requested = sum(1 << len(sc.support) for sc in x.terms)
    if requested > max_terms:
        raise SizeLimitError(
            f"coproduct would make {requested} terms (cap {max_terms})",
            max_terms,
            requested,
        )
    acc: dict = {}
    for sc, coeff in x.terms.items():
        for split in itertools.product(*(_block_splits(b) for b in sc.sets)):
            lsets = tuple(t for t, _ in split if t)
            rsets = tuple(u for _, u in split if u)
            lsup = frozenset().union(*lsets) if lsets else frozenset()
            key = (
                SetComposition._make(lsets, lsup),
                SetComposition._make(rsets, sc.support - lsup),
            )
            acc[key] = acc.get(key, 0) + coeff
    return TensorElement._make(_clean(acc))


def _tensor_bilinear(x: TensorElement, y: TensorElement, kernel) -> TensorElement:
    acc: dict = {}
    for (al, ar), ca in x.terms.items():
        for (bl, br), cb in y.terms.items():
            left = kernel(al, bl)
            if left is None:
                continue
            right = kernel(ar, br)
            if right is None:
                continue
            key = (left, right)
            acc[key] = acc.get(key, 0) + ca * cb
    return TensorElement._make(_clean(acc))


def tensor_convolution(x: TensorElement, y: TensorElement) -> TensorElement:
    """Componentwise convolution on both tensor legs."""
    return _tensor_bilinear(x, y, conv_basis)


def tensor_composition(x: TensorElement, y: TensorElement) -> TensorElement:
    """Componentwise composition product on both tensor legs."""
    return _tensor_bilinear(x, y, compose_basis)


def multiply_tensor_legs(x: TensorElement) -> TDElement:
    """Collapse a ⊗ b to the convolution a ∗ b, linearly."""
    acc: dict = {}
    for (left, right), coeff in x.terms.items():
        key = conv_basis(left, right)
        if key is not None:
            acc[key] = acc.get(key, 0) + coeff
    return TDElement._make(_clean(acc))


def tensor(x: TDElement, y: TDElement) -> TensorElement:
    """The outer product x ⊗ y."""
    acc = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            acc[(a, b)] = ca * cb
    return TensorElement._make(acc)


def act(x: TDElement, p: Iterable[int]) -> TDElement:
    """The right action of a permutation: blocks are pulled back through p.

    1_(S1,...,Sk) · p = 1_(p⁻¹(S1),...,p⁻¹(Sk)); requires every support to
    lie inside {1..n} for n = degree of p.  Satisfies
    act(act(x, p), q) = act(x, compose(p, q)).
    """
    p = check_permutation(p)
    n = len(p)
    inv = inverse(p)
    acc: dict = {}
    for sc, coeff in x.terms.items():
        if any(v > n for v in sc.support):
            raise ValueError(
                f"support {sorted(sc.support)} not contained in 1..{n}"
            )
        sets = tuple(frozenset(inv[v - 1] for v in b) for b in sc.sets)
        support = frozenset(inv[v - 1] for v in sc.support)
        key = SetComposition._make(sets, support)
        acc[key] = acc.get(key, 0) + coeff
    return TDElement._make(_clean(acc))


def graded_component(x: TDElement, s: Iterable[int]) -> TDElement:
    """The sub-sum of terms whose support equals s."""
    s = check_ground_set(s)
    return TDElement._make({sc: c for sc, c in x.terms.items() if sc.support == s})


def coproduct_iterated(x: TDElement, legs: int) -> dict:
    """δ applied (legs-1) times, as a map from tuples of compositions to ints.

    Expands on the leftmost leg each time; coassociativity (tested) makes the
    choice immaterial.
    """
    if legs < 1:
        raise ValueError("need at least one tensor leg")
    acc: dict = {(sc,): c for sc, c in x.terms.items()}
    for _ in range(legs - 1):
        nxt: dict = {}
        for key, coeff in acc.items():
            head = TDElement._make({key[0]: 1})
            for (l, r), c in coproduct(head).terms.items():
                k2 = (l, r) + key[1:]
                nxt[k2] = nxt.get(k2, 0) + coeff * c
        acc = _clean(nxt)
    return acc
