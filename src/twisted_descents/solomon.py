"""The classical descent algebra and its two embeddings into set compositions.

A weight-n descent element is an integer combination of integer compositions
of n; the composition product is Solomon's matrix rule.  The same algebra
appears inside the span of set compositions twice: as sums over all set
compositions of a fixed type (orbit sums, the symmetric-group fixed space)
and as descent classes in the group algebra.  This module implements all
three pictures and the Young/shuffle factorization of permutations.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import sub
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .algebra import (
    TDElement,
    _Linear,
    _clean,
    act,
    chamber_word,
    compose_basis,
    composition_product,
)
from .limits import FIXED_SPACE_CAP, MAX_TERMS, SOLOMON_WORK_CAP, check_size
from .permutations import (
    check_permutation,
    compose,
    descent_class as _descent_class_perms,
    inverse,
    symmetric_group,
)
from .setcomp import (
    SetComposition,
    as_increasing_partition,
    check_composition,
    check_ground_set,
    compositions,
    multinomial,
)
from .textio import _join_terms, render_composition


class _Graded(_Linear):
    """A homogeneous integer combination of integer tuples.

    Subclasses set ``_check_key``, the grade of a key (``_grade``) and the
    plural noun (``_grades``) that names mixed grades in the error message.
    Every key prints as ``(a,b,...)``, compositions and permutations alike.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping | Iterable = ()):
        super().__init__(terms)
        grades = set(map(self._grade, self._terms))
        if len(grades) > 1:
            raise ValueError(f"mixed {self._grades} {sorted(grades)} in one element")

    def _grade_of(self) -> int | None:
        """The common grade of the terms; None for the zero element."""
        for key in self._terms:
            return self._grade(key)
        return None

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], int]]:
        for key in sorted(self._terms):
            yield key, self._terms[key]

    def __repr__(self) -> str:
        body = _join_terms([(c, render_composition(k)) for k, c in self])
        return f"<{type(self).__name__} {body}>"


class DescentElement(_Graded):
    """A homogeneous integer combination of integer compositions of n."""

    __slots__ = ()
    _check_key = staticmethod(check_composition)
    _grade = staticmethod(sum)
    _grades = "weights"
    weight = property(_Graded._grade_of)


class GroupAlgebraElement(_Graded):
    """An integer combination of permutations of a common degree."""

    __slots__ = ()
    _check_key = staticmethod(check_permutation)
    _grade = staticmethod(len)
    _grades = "degrees"
    degree = property(_Graded._grade_of)


@lru_cache(maxsize=1024)  # margin pairs; ``verify all`` meets 404 at its default sizes
def _flattened_matrices(rows: tuple[int, ...], cols: tuple[int, ...]) -> Mapping[tuple, int]:
    """Count the matrices with the given margins by their flattened nonzero entries.

    Fills one row at a time; partial matrices that leave the same column
    sums and the same flattened prefix are merged into one counted state.
    Each row joins a left half of entries up to min(row sum, column left)
    with the right halves whose sums complete it; the last row is forced to
    the remaining column sums.  Keys appear in the order of their first
    matrix in row-major lexicographic order.  The margins must have equal sums.
    Each margin pair is counted once per process; its entry is read-only.
    """
    states: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {(cols, ()): 1}
    for total in rows[:-1]:
        nxt: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (remaining, prefix), count in states.items():
            ranges = [range(min(total, r) + 1) for r in remaining]
            half = len(ranges) // 2
            rights: dict[int, list[tuple[int, ...]]] = {}
            for right in itertools.product(*ranges[half:]):
                rights.setdefault(sum(right), []).append(right)
            for left in itertools.product(*ranges[:half]):
                for right in rights.get(total - sum(left), ()):
                    row = left + right
                    key = (tuple(map(sub, remaining, row)), prefix + tuple(filter(None, row)))
                    nxt[key] = nxt.get(key, 0) + count
        states = nxt
    out: dict[tuple[int, ...], int] = {}
    for (remaining, prefix), count in states.items():
        key = prefix + tuple(filter(None, remaining))
        out[key] = out.get(key, 0) + count
    return MappingProxyType(out)


def solomon_compose(a: DescentElement, b: DescentElement) -> DescentElement:
    """Solomon's rule: sum over matrices with prescribed row and column sums.

    Each matrix is flattened row by row, dropping zero entries.  Operands of
    different weights, or a zero one, give zero.  Two weight-w operands are refused
    past ``SOLOMON_WORK_CAP`` on w + log2(term pairs), before any matrix.
    """
    w = a.weight
    if w is None or w != b.weight:
        return DescentElement._make({})
    work = w + (len(a) * len(b) - 1).bit_length()
    check_size("Solomon's rule weight + log2(term pairs)", work, SOLOMON_WORK_CAP)
    acc: dict[tuple[int, ...], int] = {}
    for c1, x1 in a._terms.items():
        for c2, x2 in b._terms.items():
            coeff = x1 * x2
            for key, count in _flattened_matrices(c1, c2).items():
                acc[key] = acc.get(key, 0) + coeff * count
    return DescentElement._make(_clean(acc))


def descent_basis_expand(c: Iterable[int], s: Iterable[int]) -> TDElement:
    """The sum of all set compositions of ``s`` with block sizes ``c``.

    Equal blocks of the terms are one frozenset object, shared within the call.
    """
    c = check_composition(c)
    ground = check_ground_set(s)
    if sum(c) != len(ground):
        raise ValueError(f"composition {c} has weight {sum(c)}, set has size {len(ground)}")
    check_size(f"type {c} expansion terms", multinomial(c), MAX_TERMS)
    terms: dict[SetComposition, int] = {}
    shared: dict[tuple[int, ...], frozenset[int]] = {}

    def rec(blocks: tuple[frozenset[int], ...], left: frozenset[int], i: int):
        if i == len(c):
            terms[SetComposition._make(blocks, ground)] = 1
            return
        for chosen in itertools.combinations(sorted(left), c[i]):
            fs = shared.get(chosen) or shared.setdefault(chosen, frozenset(chosen))
            rec(blocks + (fs,), left - fs, i + 1)

    rec((), ground, 0)
    return TDElement._make(terms)


def orbit_sum(c: Iterable[int]) -> TDElement:
    """O_C: the type-C orbit sum over the ground set {1..n}, n = weight."""
    return _orbit_sum(check_composition(c))


@lru_cache(maxsize=64)  # compositions; all 63 of weight <= 6, ``verify all`` meets 31
def _orbit_sum(c: tuple[int, ...]) -> TDElement:
    # Each composition's orbit sum is built once per process; the element is read-only.
    return descent_basis_expand(c, range(1, sum(c) + 1))


def descent_to_orbit(a: DescentElement) -> TDElement:
    """The truncation embedding: each composition goes to its orbit sum."""
    acc: dict[SetComposition, int] = {}
    for c, coeff in a._terms.items():
        for sc, x in orbit_sum(c)._terms.items():
            acc[sc] = acc.get(sc, 0) + coeff * x
    return TDElement._make(_clean(acc))


def truncation_check(a: DescentElement, b: DescentElement) -> bool:
    """Does Solomon's rule agree with composing the orbit-sum images?"""
    lhs = descent_to_orbit(solomon_compose(a, b))
    return lhs == composition_product(descent_to_orbit(a), descent_to_orbit(b))


def descent_class(c: Iterable[int]) -> GroupAlgebraElement:
    """D_C: the sum of permutations with descent set inside C's partial sums."""
    c = check_composition(c)
    check_size(f"type {c} descent class terms", multinomial(c), MAX_TERMS)
    return GroupAlgebraElement._make({p: 1 for p in _descent_class_perms(c)})


def star(x: GroupAlgebraElement) -> GroupAlgebraElement:
    """Replace every permutation by its inverse."""
    return GroupAlgebraElement._make({inverse(p): c for p, c in x._terms.items()})


def _partition_tests(parts):
    """``shuffle_test`` and ``young_decompose`` for one partition, checked
    once: the partition, its identity chamber's blocks ({1},...,{n}) and the
    cut composition 1_(S1,...,Sk) are built here, and each call checks only p."""
    blocks = as_increasing_partition(parts)
    n = sum(map(len, blocks))
    singles = tuple(map(frozenset, zip(range(1, n + 1))))
    ground = frozenset(range(1, n + 1))
    cut = SetComposition._make(blocks, ground)

    def chamber(p):  # 1_(S1,...,Sk) o 1_p and the checked p
        p = check_permutation(p)
        if len(p) != n:
            raise ValueError(f"permutation degree {len(p)} does not match partition of [{n}]")
        word = SetComposition._make(tuple([singles[v - 1] for v in p]), ground)
        return compose_basis(cut, word), p

    def is_shuffle(p) -> bool:
        return chamber(p)[0].sets == singles

    def decompose(p) -> tuple[tuple[int, ...], tuple[int, ...]]:
        cham, p = chamber(p)
        beta = chamber_word(cham)
        return beta, compose(inverse(beta), p)

    return is_shuffle, decompose


def shuffle_test(parts, p: Iterable[int]) -> bool:
    """Is p a shuffle of the given increasing partition?

    Decided by the composition product: p is a shuffle exactly when
    1_(S1,...,Sk) o 1_p is the identity chamber ({1},...,{n}).  The partition
    is checked before p; a caller testing many p against one partition
    checks it once through ``_partition_tests``.
    """
    return _partition_tests(parts)[0](p)


def young_decompose(parts, p: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Factor p = beta . tau with beta in the Young subgroup, tau a shuffle.

    beta is read off the chamber 1_(S1,...,Sk) o 1_p positionally; then
    tau = beta^{-1} . p.
    """
    return _partition_tests(parts)[1](p)


def fixed_space_check(n: int) -> bool:
    """Are the orbit sums an S_n-stable basis of a subalgebra isomorphic to Solomon's?

    Checks (i) every orbit sum is fixed by every permutation and (ii)
    ``truncation_check`` for every pair of compositions of n: the composition
    product of two orbit sums is the orbit image of Solomon's rule, so it
    expands over orbit sums, with the structure constants of the descent
    algebra.
    """
    check_size("fixed-space check weight", n, FIXED_SPACE_CAP)
    if n < 1:
        raise ValueError("weight must be positive")
    comps = list(compositions(n))
    perms = list(symmetric_group(n))
    if any(act(x, s) != x for x in map(orbit_sum, comps) for s in perms):
        return False
    units = [DescentElement({c: 1}) for c in comps]
    return all(truncation_check(a, b) for a in units for b in units)
