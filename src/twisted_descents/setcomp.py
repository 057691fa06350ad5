"""Set compositions (ordered set partitions) of finite sets of positive integers.

A set composition is an ordered sequence of pairwise-disjoint nonempty finite
sets, e.g. ({3,5},{1,4}).  The empty composition () is legal and acts as the
unit for concatenation.  Set compositions index the basis of the algebra in
:mod:`twisted_descents.algebra`; this module provides the index type itself,
integer compositions, and exact enumeration.

Ground sets are finite sets of positive integers, represented throughout as
``frozenset[int]``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

from .limits import ENUMERATION_CAP, MAX_LABEL, check_size


def check_ground_set(elements: Iterable[int]) -> frozenset[int]:
    """Validate and freeze a ground set of positive integer labels."""
    s = frozenset(elements)
    for x in s:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"ground-set label {x!r} is not an integer")
        if not 1 <= x <= MAX_LABEL:
            raise ValueError(f"ground-set label {x} out of range 1..{MAX_LABEL}")
    return s


def canonical_key(size: int, blocks: tuple[tuple[int, ...], ...]) -> tuple:
    """The sort key of a set composition with ``size`` labels and ascending ``blocks``.

    It orders by support size, then the flattened block sequence, then the
    block-boundary positions.  The three parts are laid out in one flat tuple:
    keys of equal size have flattened sequences of equal length, so they line
    up, and a flat tuple compares faster than a nested one.
    """
    return (size, *itertools.chain.from_iterable(blocks),
            *itertools.accumulate(map(len, blocks[:-1])))


class SetComposition:
    """An ordered sequence of pairwise-disjoint nonempty sets of positive integers.

    Instances are immutable and hashable.  ``sets`` holds the blocks as
    frozensets, ``support`` their (disjoint) union.  Terms are put in the
    order of ``canonical_key``.
    """

    __slots__ = ("sets", "support", "_hash")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        sets = []
        seen: frozenset[int] = frozenset()
        for block in blocks:
            fs = check_ground_set(block)
            if not fs:
                raise ValueError("set composition blocks must be nonempty")
            if seen & fs:
                raise ValueError(f"set composition blocks overlap on {sorted(seen & fs)}")
            seen |= fs
            sets.append(fs)
        self.sets = tuple(sets)
        self.support = seen
        self._hash = hash(self.sets)

    @classmethod
    def _make(cls, sets: tuple[frozenset[int], ...], support: frozenset[int]) -> "SetComposition":
        # Fast path for internally produced, already-valid block tuples.
        self = cls.__new__(cls)
        self.sets = sets
        self.support = support
        self._hash = hash(sets)
        return self

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as ascending tuples, in composition order."""
        return tuple([tuple(sorted(b)) for b in self.sets])

    @property
    def sort_key(self) -> tuple:
        return canonical_key(len(self.support), self.blocks)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.sets)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SetComposition):
            return NotImplemented
        return self.sets == other.sets

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "SetComposition") -> bool:
        if not isinstance(other, SetComposition):
            return NotImplemented
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:
        inner = "|".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"SetComposition[{inner}]"


EMPTY = SetComposition(())


def type_of(sc: SetComposition) -> tuple[int, ...]:
    """The integer composition of block sizes, e.g. ({3,5},{1,4}) -> (2,2)."""
    return tuple(len(b) for b in sc.sets)


def check_composition(parts: Iterable[int]) -> tuple[int, ...]:
    """Validate an integer composition: a tuple of positive parts (may be empty)."""
    c = tuple(parts)
    for p in c:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"composition part {p!r} is not a positive integer")
    return c


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All integer compositions of n, in lexicographic order; () for n = 0."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def multinomial(parts: Iterable[int]) -> int:
    """n! / (n1! ... nk!) for a composition (n1,...,nk) of n."""
    c = check_composition(parts)
    out = math.factorial(sum(c))
    for p in c:
        out //= math.factorial(p)
    return out


def enumerate_set_compositions(s: Iterable[int]) -> Iterator[SetComposition]:
    """Yield every set composition of ``s`` once, in the canonical order.

    The order matches ``SetComposition.sort_key``: flattened block sequence
    first (lexicographically), block boundaries second.  The number of results
    is the Fubini number of ``|s|``.  Equal blocks of the results are one
    frozenset object, shared within the call.
    """
    ground = check_ground_set(s)
    check_size("set-composition ground-set size", len(ground), ENUMERATION_CAP)
    n = len(ground)
    if n == 0:
        yield EMPTY
        return
    shared: dict[tuple[int, ...], frozenset[int]] = {}
    for word in itertools.permutations(sorted(ground)):
        # A boundary set cuts the word into blocks; every descent of the word
        # must be a boundary so that blocks stay ascending.
        descents = [i for i in range(1, n) if word[i - 1] > word[i]]
        free = [i for i in range(1, n) if word[i - 1] < word[i]]
        cuts_list = []
        for k in range(len(free) + 1):
            for extra in itertools.combinations(free, k):
                cuts_list.append(tuple(sorted(descents + list(extra))))
        cuts_list.sort()
        for cuts in cuts_list:
            edges = (0,) + cuts + (n,)
            sets = []
            for a, b in zip(edges, edges[1:]):
                labels = word[a:b]  # nonempty, so a stored block is truthy
                sets.append(shared.get(labels) or shared.setdefault(labels, frozenset(labels)))
            yield SetComposition._make(tuple(sets), ground)


def count_set_compositions(n: int) -> int:
    """Fubini number: ordered set partitions of an n-set, by the first-block
    recurrence F(m) = sum over k = 1..m of C(m, k) * F(m - k), F(0) = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    fubini = [1]
    for m in range(1, n + 1):
        fubini.append(sum(math.comb(m, k) * fubini[m - k] for k in range(1, m + 1)))
    return fubini[n]


def interval_partition(parts: Iterable[int]) -> tuple[frozenset[int], ...]:
    """The increasing partition of [n] with block sizes ``parts``.

    (2,2) -> ({1,2},{3,4}): consecutive intervals of 1..n.
    """
    c = check_composition(parts)
    out = []
    start = 1
    for p in c:
        out.append(frozenset(range(start, start + p)))
        start += p
    return tuple(out)


def as_increasing_partition(parts) -> tuple[frozenset[int], ...]:
    """Normalize ``parts``: a composition gives consecutive intervals of [n].

    Accepts either block sizes (ints) or an explicit sequence of sets, which
    must then form an increasing partition of {1..n}: the intervals of their sizes.
    """
    parts = tuple(parts)
    if all(isinstance(p, int) and not isinstance(p, bool) for p in parts):
        return interval_partition(parts)
    out = tuple(map(check_ground_set, parts))
    if not all(out) or out != interval_partition(map(len, out)):
        raise ValueError(f"{parts!r} is not an increasing partition of [{sum(map(len, out))}]")
    return out
