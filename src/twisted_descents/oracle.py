"""Brute-force ground truth: graded endomorphisms of a free algebra on letters.

Words α_S1···α_Sk over pairwise-disjoint finite sets span a free twisted
algebra; its coproduct deshuffles letter positions (letters are primitive).
A set composition acts on this algebra as the convolution of the
characteristic projections of its blocks.  Tabulating those endomorphisms over
the words of a universe of at most ``ORACLE_SUPPORT_CAP`` labels gives an
independent model against which the symbolic products are checked.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .algebra import TDElement, basis, composition_product
from .limits import ORACLE_SUPPORT_CAP, check_size
from .setcomp import SetComposition, check_ground_set

# A word in the letters α_S has exactly the shape of a set composition:
# an ordered sequence of pairwise-disjoint nonempty sets.
BWord = SetComposition

# Sparse integer combination of words.
BElement = dict


def b_product(u: BWord, v: BWord) -> BWord:
    """Concatenate two words; defined only on disjoint supports."""
    if u.support & v.support:
        raise ValueError(
            f"word supports overlap on {sorted(u.support & v.support)}"
        )
    return SetComposition._make(u.sets + v.sets, u.support | v.support)


def b_coproduct(u: BWord) -> dict[tuple[BWord, BWord], int]:
    """Split letter positions into complementary subsequences, all 2^k ways."""
    return dict(_splits(u))


def _splits(u: BWord) -> tuple[tuple[tuple[BWord, BWord], int], ...]:
    k = len(u.sets)
    out: dict[tuple[BWord, BWord], int] = {}
    for r in range(k + 1):
        for chosen in itertools.combinations(range(k), r):
            taken = set(chosen)
            lsets = tuple(u.sets[i] for i in range(k) if i in taken)
            rsets = tuple(u.sets[i] for i in range(k) if i not in taken)
            lsup = frozenset().union(*lsets) if lsets else frozenset()
            key = (
                SetComposition._make(lsets, lsup),
                SetComposition._make(rsets, u.support - lsup),
            )
            out[key] = out.get(key, 0) + 1
    return tuple(out.items())


@lru_cache(maxsize=32)  # universes; ``verify all`` meets 16 at its default sizes
def _words_of(universe: tuple[int, ...]) -> tuple[BWord, ...]:
    # Each subset's words, subsets by size: the maps of its labels onto blocks 0..k-1.
    check_size("word-table universe size", len(universe), ORACLE_SUPPORT_CAP)
    out = []
    for r in range(len(universe) + 1):
        for sub in itertools.combinations(universe, r):
            words = []
            for hit in itertools.product(range(r), repeat=r):
                k = len(set(hit))
                if max(hit, default=-1) == k - 1:
                    sets = tuple(frozenset(x for x, j in zip(sub, hit) if j == i) for i in range(k))
                    words.append(SetComposition._make(sets, frozenset(sub)))
            out.extend(sorted(words, key=lambda w: w.sort_key))
    return tuple(out)


@lru_cache(maxsize=32)  # universes, as for _words_of
def _coproducts_of(universe: tuple[int, ...]) -> Mapping[BWord, tuple]:
    # Word -> its coproduct as immutable items; endo_convolution reads every
    # word's coproduct once per call, so the table is built once per universe.
    return MappingProxyType({w: _splits(w) for w in _words_of(universe)})


def all_words(universe: Iterable[int]) -> tuple[BWord, ...]:
    """Every word whose support is a subset of the universe."""
    return _words_of(tuple(sorted(check_ground_set(universe))))


class Endomorphism:
    """A grading-preserving linear map; ``table`` holds the nonzero image of each
    universe word it does not kill, whatever table ``__init__`` was given.  It is
    read-only, rows included, as ``represent`` shares it; ``e(w)`` is a fresh dict."""

    __slots__ = ("universe", "table")

    def __init__(self, universe: frozenset[int], table: dict):
        rows = {w: MappingProxyType(row) for w, img in table.items()
                if (row := {k: c for k, c in img.items() if c})}
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "table", MappingProxyType(rows))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Endomorphism is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __call__(self, w: BWord) -> BElement:
        if not w.support <= self.universe:
            raise KeyError(w)
        return dict(self.table.get(w, {}))

    def apply(self, x: BElement) -> BElement:
        out: BElement = {}
        for w, c in x.items():
            for w2, c2 in (self.table.get(w) or self(w)).items():
                out[w2] = out.get(w2, 0) + c * c2
        return {w: c for w, c in out.items() if c}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return self.universe == other.universe and self.table == other.table

    __hash__ = None

    def __repr__(self) -> str:
        size = len(self.table)
        return f"<Endomorphism on {size} words over {sorted(self.universe)}>"


def _require_same_universe(f: Endomorphism, g: Endomorphism):
    if f.universe != g.universe:
        raise ValueError(
            f"universe mismatch: {sorted(f.universe)} vs {sorted(g.universe)}"
        )


def characteristic_endo(s: Iterable[int], universe: Iterable[int]) -> Endomorphism:
    """Identity on words of degree exactly s, zero on every other word."""
    s = check_ground_set(s)
    ground = check_ground_set(universe)
    if not s <= ground:
        raise ValueError(f"degree {sorted(s)} not inside universe {sorted(ground)}")
    words = _words_of(tuple(sorted(ground)))
    return Endomorphism(ground, {w: {w: 1} for w in words if w.support == s})


def endo_convolution(f: Endomorphism, g: Endomorphism) -> Endomorphism:
    """m ∘ (f ⊗ g) ∘ δ, tabulated wordwise."""
    _require_same_universe(f, g)
    coproducts = _coproducts_of(tuple(sorted(f.universe)))
    table = {}
    for w, splits in coproducts.items():
        table[w] = img = {}
        for (u, v), c in splits:
            if u in f.table and v in g.table:
                for wu, cu in f.table[u].items():
                    for wv, cv in g.table[v].items():
                        word = b_product(wu, wv)
                        img[word] = img.get(word, 0) + c * cu * cv
    return Endomorphism(f.universe, table)


def endo_compose(f: Endomorphism, g: Endomorphism) -> Endomorphism:
    """Plain function composition f(g(w)), extended linearly."""
    _require_same_universe(f, g)
    return Endomorphism(f.universe, {w: f.apply(img) for w, img in g.table.items()})


def represent(sc: SetComposition, universe: Iterable[int]) -> Endomorphism:
    """The endomorphism of a set composition: convolution of its blocks' projections."""
    ground = check_ground_set(universe)
    if not sc.support <= ground:
        raise ValueError(
            f"support {sorted(sc.support)} not inside universe {sorted(ground)}"
        )
    return _represent(sc, ground)


@lru_cache(maxsize=512)  # (composition, universe) pairs; ``verify all`` meets 299
def _represent(sc: SetComposition, ground: frozenset[int]) -> Endomorphism:
    # Each pair is represented once per process; the endomorphism is read-only.
    endo = characteristic_endo((), ground)
    for block in sc.sets:
        endo = endo_convolution(endo, characteristic_endo(block, ground))
    return endo


def endo_of(x: TDElement, universe: Iterable[int]) -> Endomorphism:
    """Linear combination of represented basis elements."""
    ground = check_ground_set(universe)
    _words_of(tuple(sorted(ground)))  # the word-table cap, even for a zero x
    table: dict = {}
    for sc, coeff in x.terms.items():
        for w, img in represent(sc, ground).table.items():
            row = table.setdefault(w, {})
            for w2, c in img.items():
                row[w2] = row.get(w2, 0) + coeff * c
    return Endomorphism(ground, table)


def oracle_check_composition(
    a: SetComposition,
    b: SetComposition,
    universe: Iterable[int] | None = None,
) -> bool:
    """Compare symbolic a ∘ b with endomorphism composition, tablewise."""
    ground = check_ground_set(universe if universe is not None else a.support | b.support)
    lhs = endo_compose(represent(a, ground), represent(b, ground))
    rhs = endo_of(composition_product(basis(a), basis(b)), ground)
    return lhs == rhs
