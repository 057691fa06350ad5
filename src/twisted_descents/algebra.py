"""Sparse integer linear combinations of set compositions and their products.

Implements the three fundamental operations on the span of set compositions:

* convolution  ``a * b``   — concatenation, zero when supports overlap;
* composition  ``a @ b``   — blockwise intersection refinement, zero when
  supports differ;
* coproduct    ``delta``   — sum over blockwise splits, valued in the tensor
  square.

Elements are immutable sparse maps with arbitrary-precision integer
coefficients: ``terms`` is a read-only view, and the kernels here read the
private dict behind it.  All functions are pure.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter, lshift, or_
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .limits import MAX_TERMS, check_size
from .permutations import _checked_inverse, check_permutation
from .setcomp import EMPTY, SetComposition, canonical_key, check_ground_set


def conv_basis(a: SetComposition, b: SetComposition) -> SetComposition | None:
    """Concatenate two basis indices; None when their supports overlap.

    Beside the empty composition the result is the other operand itself, not a copy.
    """
    if a.support & b.support:
        return None
    if not a.sets:
        return b
    if not b.sets:
        return a
    return SetComposition._make(a.sets + b.sets, a.support | b.support)


def compose_basis(a: SetComposition, b: SetComposition) -> SetComposition | None:
    """Intersection refinement (S_i ∩ T_j over (i, j) in row-major order).

    None when the supports differ; empty intersections are dropped.  A cut
    equal to a block of ``a`` or ``b`` is that block's own frozenset, so
    only a partial overlap allocates a new one.  Once S_i lies in some T_j,
    no later block of ``b`` meets it.  A result equal to ``a`` (every S_i in
    one T_j) or to ``b`` is that operand itself, not a copy.
    """
    if a.support != b.support:
        return None
    sets = []
    for s in a.sets:
        for t in b.sets:
            if not s.isdisjoint(t):
                if s <= t:
                    sets.append(s)
                    break
                sets.append(t if t <= s else s & t)
    sets = tuple(sets)
    if sets == a.sets:
        return a
    if sets == b.sets:
        return b
    return SetComposition._make(sets, a.support)


def _clean(terms: dict) -> dict:
    """Drop the zero entries of a dict the caller owns, in place; returns it.

    Only the dropped keys are hashed again: rebuilding the dict would hash
    every surviving key through ``SetComposition.__hash__``.
    """
    for key in [k for k, c in terms.items() if not c]:
        del terms[key]
    return terms


class _Ascending(dict):
    """Block frozenset -> its labels as an ascending tuple, sorted on first lookup.

    The terms of a product share most of their block objects.
    """

    def __missing__(self, block: frozenset[int]) -> tuple[int, ...]:
        values = self[block] = tuple(sorted(block))
        return values


class _Linear:
    """Shared arithmetic for sparse integer combinations; subclasses define ``_check_key``.

    ``terms`` is a read-only view of a private dict that never changes once made.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        acc: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise ValueError(f"coefficient {coeff!r} is not an integer")
            key = self._check_key(key)
            acc[key] = acc.get(key, 0) + coeff
        self._terms = _clean(acc)

    @classmethod
    def _make(cls, terms: dict):
        self = cls.__new__(cls)
        self._terms = terms
        return self

    @property
    def terms(self) -> Mapping:
        """The nonzero coefficients by key, as a read-only mapping."""
        return MappingProxyType(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            acc[key] = acc.get(key, 0) + coeff
        return type(self)._make(_clean(acc))

    def __neg__(self):
        return type(self)._make({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        if not isinstance(scalar, int) or isinstance(scalar, bool):
            return NotImplemented
        if scalar == 0:
            return type(self)._make({})
        return type(self)._make({k: scalar * c for k, c in self._terms.items()})

    def coefficient(self, key) -> int:
        return self._terms.get(key, 0)

    def __iter__(self) -> Iterator:
        return ((key, c) for _, key, _, c in self._rows())

    def __len__(self) -> int:
        return len(self._terms)


class TDElement(_Linear):
    """An integer linear combination of set compositions."""

    __slots__ = ()

    @staticmethod
    def _check_key(key):
        if not isinstance(key, SetComposition):
            raise ValueError(f"term key {key!r} is not a SetComposition")
        return key

    def _rows(self) -> list:
        """``(sort key, composition, ascending blocks, coefficient)`` per term, sorted."""
        ascending = _Ascending().__getitem__
        rows = []
        for sc, c in self._terms.items():
            blocks = tuple(map(ascending, sc.sets))
            rows.append((canonical_key(len(sc.support), blocks), sc, blocks, c))
        rows.sort(key=itemgetter(0))
        return rows

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

    __slots__ = ("_by_supports",)  # set by tensor_composition on first use as its right operand

    @staticmethod
    def _check_key(key):
        if not isinstance(key, tuple) or len(key) != 2:
            raise ValueError(f"tensor key {key!r} is not a pair of SetCompositions")
        left, right = key
        TDElement._check_key(left)
        TDElement._check_key(right)
        return key

    def _rows(self) -> list:
        """``(sort key, pair, (left blocks, right blocks), coefficient)`` per term, sorted."""
        ascending = _Ascending().__getitem__
        rows = []
        for pair, c in self._terms.items():
            l, r = pair
            lb, rb = tuple(map(ascending, l.sets)), tuple(map(ascending, r.sets))
            key = (canonical_key(len(l.support), lb), canonical_key(len(r.support), rb))
            rows.append((key, pair, (lb, rb), c))
        rows.sort(key=itemgetter(0))
        return rows

    def swap(self) -> "TensorElement":
        """Exchange the tensor legs."""
        return TensorElement._make({(r, l): c for (l, r), c in self._terms.items()})

    def __repr__(self) -> str:
        from .textio import render_tensor

        return f"<TensorElement {render_tensor(self)}>"


ZERO = TDElement._make({})
UNIT = TDElement._make({EMPTY: 1})


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


def convolution(x: TDElement, y: TDElement, max_terms: int = MAX_TERMS) -> TDElement:
    """Bilinear concatenation; overlapping supports annihilate.

    Raises SizeLimitError when |x|·|y| term pairs exceed ``max_terms``.
    """
    check_size("convolution term pairs", len(x._terms) * len(y._terms), max_terms)
    acc: dict = {}
    for a, ca in x._terms.items():
        support = a.support
        for b, cb in y._terms.items():
            if support.isdisjoint(b.support):  # skips the call for pairs conv_basis drops
                key = conv_basis(a, b)
                acc[key] = acc.get(key, 0) + ca * cb
    return TDElement._make(_clean(acc))


# A support group of a composition product with fewer term pairs than this
# pairs its terms through compose_basis: below it, the bit index and the
# block rows cost more than they save.  Packed masks against compose_basis
# (timeit, random same-support groups, |S| = 3..6): 0.49-1.27x at 64 pairs,
# 0.70-1.96x at 36; orbit sums (1,4) o (1,2,2), 150 pairs: 1.10-1.16x.
_MASK_PAIRS = 64


class _BitIndex:
    """The labels of one product call as bits, and its blocks as int masks.

    Bits are handed out in first-seen order, so masks are as wide as the
    labels one call sees, never as wide as the labels themselves.  Each mask
    maps back to one shared frozenset; an operand's block is reused as is.
    """

    __slots__ = ("bits", "labels", "masks", "sets")

    def __init__(self):
        self.bits: dict = {}  # label -> its bit
        self.labels: list = []  # bit position -> label
        self.masks: dict = {}  # block frozenset -> mask
        self.sets: dict = {0: frozenset()}  # mask -> frozenset

    def mask(self, block: frozenset[int]) -> int:
        m = self.masks.get(block)
        if m is None:
            m = 0
            for v in block:
                bit = self.bits.get(v)
                if bit is None:
                    bit = self.bits[v] = 1 << len(self.labels)
                    self.labels.append(v)
                m |= bit
            self.masks[block] = m
            self.sets.setdefault(m, block)
        return m

    def set(self, m: int) -> frozenset[int]:
        s = self.sets.get(m)
        if s is None:
            labels, out, rest = self.labels, [], m
            while rest:
                low = rest & -rest
                out.append(labels[low.bit_length() - 1])
                rest ^= low
            s = self.sets[m] = frozenset(out)
        return s


class _MaskGroup:
    """The terms of y on one support, for ∘ by packed block masks.

    The blocks of a∘b are u & w over the blocks u of a and w of b, row by
    row, so a∘b joins one row per block u of a, made once per distinct u:
    per term of y, the nonzero cuts of u packed ``width`` bits each, first
    cut lowest, and their bit count.  ``width``, the label count of the
    index, is final once the heavy groups are built.
    """

    __slots__ = ("index", "masks", "coeffs", "rows")

    def __init__(self, index: _BitIndex, support: frozenset[int], terms: list):
        self.index = index
        self.masks = [tuple(map(index.mask, b.sets)) for b, _ in terms]
        self.coeffs = [cb for _, cb in terms]
        self.rows: dict = {}  # block of a -> ([packed cuts], [bit counts]), one each per term
        index.sets.setdefault(sum(self.masks[0]), support)

    def _row(self, block: frozenset[int]) -> tuple:
        """Make and keep the row of ``block``; each new cut mask gets its frozenset."""
        index = self.index
        u, width, sets = index.mask(block), len(index.labels), index.sets
        packed, counts = [], []
        for bm in self.masks:
            key = n = 0
            for w in bm:
                if c := u & w:
                    if c not in sets:
                        index.set(c)
                    key |= c << n
                    n += width
            packed.append(key)
            counts.append(n)
        row = self.rows[block] = (packed, counts)
        return row

    def multiply(self, a: SetComposition, ca: int, acc: dict) -> None:
        """Add ca·cb·(a ∘ b) to acc for each term cb·b of the group, keyed by one int.

        Rows join right to left: each shifts the later cuts up by its bit count.
        """
        rows, keys = self.rows, None
        for block in reversed(a.sets):
            packed, counts = rows.get(block) or self._row(block)
            keys = packed if keys is None else map(or_, map(lshift, keys, counts), packed)
        for key, cb in zip(keys, self.coeffs):
            acc[key] = acc.get(key, 0) + ca * cb


def composition_product(x: TDElement, y: TDElement, max_terms: int = MAX_TERMS) -> TDElement:
    """Bilinear intersection refinement; distinct supports annihilate.

    ∘ is graded by support, so each term of x meets only the terms of y on
    the same support.  A support group with at least ``_MASK_PAIRS`` term
    pairs keys each product by one int of cut masks over a bit index local to
    this call (see ``_MaskGroup``); smaller groups pair through
    ``compose_basis``.  Int keys never equal SetComposition keys, so both
    share one accumulator, in the order of the all-pairs loop.
    Raises SizeLimitError when |x|·|y| term pairs exceed ``max_terms``.
    """
    pairs = len(x._terms) * len(y._terms)
    check_size("composition product term pairs", pairs, max_terms)
    groups: dict = {}  # support -> [(b, cb), ...] in term order
    for b, cb in y._terms.items():
        groups.setdefault(b.support, []).append((b, cb))
    index = None
    if pairs >= _MASK_PAIRS:
        x_sizes = Counter(a.support for a in x._terms)
        for s, terms in groups.items():
            if x_sizes[s] * len(terms) >= _MASK_PAIRS:
                index = index or _BitIndex()
                groups[s] = _MaskGroup(index, s, terms)
    acc: dict = {}
    for a, ca in x._terms.items():
        group = groups.get(a.support)
        if group is None:
            continue
        if type(group) is _MaskGroup:
            group.multiply(a, ca, acc)
            continue
        for b, cb in group:
            key = compose_basis(a, b)
            acc[key] = acc.get(key, 0) + ca * cb
    if index is None:
        return TDElement._make(_clean(acc))
    make, get, width = SetComposition._make, index.sets.__getitem__, len(index.labels)
    full, terms = (1 << width) - 1, {}
    for k, c in _clean(acc).items():
        if type(k) is int:
            masks = []
            while k:
                masks.append(k & full)
                k >>= width
            k = make(tuple(map(get, masks)), get(sum(masks)))
        terms[k] = c
    return TDElement._make(terms)


def coproduct(x: TDElement, max_terms: int = MAX_TERMS) -> TensorElement:
    """Blockwise-split coproduct, valued in the tensor square.

    Each term 1_(S1,...,Sk) contributes one summand per family of splits
    Ti ⊔ Ui = Si; empty parts are dropped from either leg.  The splits of a
    block are the submasks t of its mask m, walked from m down to 0 as
    t = (t - 1) & m (Knuth, TAOCP 4A, §7.1.3), over a bit index local to
    this call.  t ↦ m ^ t reverses each walk, so the right leg of family i
    is the left leg of family N-1-i: only left legs are built.  Keys on
    distinct supports never meet, so a new support's keys go in at once.
    """
    check_size("coproduct terms", sum(1 << len(sc.support) for sc in x._terms), max_terms)
    index = _BitIndex()
    sets = index.sets
    make = SetComposition._make
    acc: dict = {}
    seen: set = set()  # supports of the terms so far
    repeated = False
    for sc, coeff in x._terms.items():
        legs = [((), 0)]  # (left blocks, left support mask)
        for block in sc.sets:
            m = index.mask(block)
            submasks = [m]
            while submasks[-1]:
                submasks.append((submasks[-1] - 1) & m)
            splits = [((index.set(t),) if t else (), t) for t in submasks]
            legs = [(l + lt, lm | t) for l, lm in legs for lt, t in splits]
        made = []
        for l, lm in legs:
            left = sets.get(lm)
            if left is None:
                left = sets[lm] = frozenset().union(*l)
            made.append(make(l, left))
        keys = zip(made, reversed(made))
        if sc.support not in seen:
            seen.add(sc.support)
            acc.update(dict.fromkeys(keys, coeff))
            continue
        repeated = True
        for key in keys:
            acc[key] = acc.get(key, 0) + coeff
    return TensorElement._make(_clean(acc) if repeated else acc)


def tensor_convolution(x: TensorElement, y: TensorElement) -> TensorElement:
    """Componentwise convolution on both tensor legs.

    Raises SizeLimitError when |x|·|y| term pairs exceed ``MAX_TERMS``.
    """
    check_size("tensor convolution term pairs", len(x._terms) * len(y._terms), MAX_TERMS)
    acc: dict = {}
    for (al, ar), ca in x._terms.items():
        for (bl, br), cb in y._terms.items():
            left = conv_basis(al, bl)
            if left is None:
                continue
            right = conv_basis(ar, br)
            if right is None:
                continue
            key = (left, right)
            acc[key] = acc.get(key, 0) + ca * cb
    return TensorElement._make(_clean(acc))


def _leg_support_groups(y: TensorElement) -> dict:
    """``(supp l, supp r) -> [(l, r, c), ...]`` over the terms c·(l ⊗ r) of y, in term order."""
    groups: dict = {}
    for (l, r), c in y._terms.items():
        groups.setdefault((l.support, r.support), []).append((l, r, c))
    return groups


def tensor_composition(x: TensorElement, y: TensorElement) -> TensorElement:
    """Componentwise composition product on both tensor legs.

    ∘ annihilates distinct supports, so each term of x meets only the terms
    of y with the same pair of leg supports.  y is indexed by those pairs the
    first time it is a right operand; the index lives on y, as long as y, and
    is only read from then on.  In the reciprocity law x is the one term
    f ⊗ g and y is δ(h), which a sweep reuses for many f ⊗ g, so one lookup
    finds the at most one matching term; when none matches, as in most
    triples of a small reciprocity sweep, the empty result returns at once.
    Results go in by term of x, then by term of y.
    Raises SizeLimitError when those matched pairs exceed ``MAX_TERMS``.
    """
    try:
        by_supports = y._by_supports
    except AttributeError:
        by_supports = y._by_supports = _leg_support_groups(y)
    matched = [
        (al, ar, ca, y_terms)
        for (al, ar), ca in x._terms.items()
        if (y_terms := by_supports.get((al.support, ar.support)))
    ]
    if not matched:
        return TensorElement._make({})
    check_size("tensor composition term pairs", sum(len(m[3]) for m in matched), MAX_TERMS)
    acc: dict = {}
    for al, ar, ca, y_terms in matched:
        for bl, br, cb in y_terms:
            key = (compose_basis(al, bl), compose_basis(ar, br))
            acc[key] = acc.get(key, 0) + ca * cb
    return TensorElement._make(_clean(acc))


def multiply_tensor_legs(x: TensorElement) -> TDElement:
    """Collapse a ⊗ b to the convolution a ∗ b, linearly.

    An empty x, such as most ∘₂ results of a small reciprocity sweep, gives
    an empty element at once.
    """
    if not x._terms:
        return TDElement._make({})
    acc: dict = {}
    for (left, right), coeff in x._terms.items():
        key = conv_basis(left, right)
        if key is not None:
            acc[key] = acc.get(key, 0) + coeff
    return TDElement._make(_clean(acc))


def tensor(x: TDElement, y: TDElement) -> TensorElement:
    """The outer product x ⊗ y."""
    acc = {}
    for a, ca in x._terms.items():
        for b, cb in y._terms.items():
            acc[(a, b)] = ca * cb
    return TensorElement._make(acc)


def act(x: TDElement, p: Iterable[int]) -> TDElement:
    """The right action of a permutation: blocks are pulled back through p.

    1_(S1,...,Sk) · p = 1_(p⁻¹(S1),...,p⁻¹(Sk)); requires every support to
    lie inside {1..n} for n = degree of p.  Satisfies
    act(act(x, p), q) = act(x, compose(p, q)).  p is checked and inverted in
    one pass over it; each distinct block is checked against n and pulled
    back once per call.
    """
    back = _checked_inverse(p)
    n = len(back) - 1
    pull = back.__getitem__
    pulled: dict[frozenset[int], frozenset[int]] = {}
    acc: dict = {}
    for sc, coeff in x._terms.items():
        sets = []
        for b in sc.sets:
            pb = pulled.get(b)
            if pb is None:
                if max(b) > n:
                    raise ValueError(f"support {sorted(sc.support)} not contained in 1..{n}")
                pb = pulled[b] = frozenset(map(pull, b))
            sets.append(pb)
        support = sets[0] if len(sets) == 1 else frozenset(map(pull, sc.support))
        key = SetComposition._make(tuple(sets), support)
        acc[key] = acc.get(key, 0) + coeff
    return TDElement._make(_clean(acc))
