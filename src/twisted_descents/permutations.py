"""Permutations of {1..n} as one-line tuples.

A permutation ``p`` of degree n is a tuple of length n with ``p[i-1] = p(i)``.
Composition is right-to-left: ``compose(p, q)(i) = p(q(i))``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .setcomp import check_composition, interval_partition


def check_permutation(values: Iterable[int]) -> tuple[int, ...]:
    """Validate a one-line permutation of {1..n}."""
    p = tuple(values)
    n = len(p)
    for v in p:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"permutation entry {v!r} is not an integer")
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"{p} is not a permutation of 1..{n}")
    return p


def _checked_inverse(values: Iterable[int]) -> list[int]:
    """[0, p⁻¹(1), ..., p⁻¹(n)] for p = ``check_permutation(values)``, filled
    while the entries are checked, in one pass.  On any doubtful entry
    ``check_permutation`` decides, so a bad p raises its error."""
    p = tuple(values)
    n = len(p)
    back = [0] * (n + 1)
    for i, v in enumerate(p, 1):
        if type(v) is not int or not 0 < v <= n or back[v]:
            return [0, *inverse(check_permutation(p))]
        back[v] = i
    return back


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation i -> p(q(i)); p and q must have equal degree."""
    if len(p) != len(q):
        raise ValueError("cannot compose permutations of different degrees")
    return tuple(p[v - 1] for v in q)


def descent_set(p: tuple[int, ...]) -> frozenset[int]:
    """Positions i with p(i) > p(i+1)."""
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def symmetric_group(n: int) -> Iterator[tuple[int, ...]]:
    """All permutations of {1..n} in lexicographic order."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return itertools.permutations(range(1, n + 1))


def descent_class(parts: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Permutations whose descent set is contained in the partial sums of ``parts``.

    Built directly as the words sorted(S1) + ... + sorted(Sk) over the set compositions
    of [n] of that type, each block chosen from the labels left: lexicographic order.
    """
    c = check_composition(parts)
    yield from _words(c, (), identity(sum(c)), 0)


def _words(c: tuple[int, ...], word: tuple[int, ...], left: tuple[int, ...], i: int):
    # A module-level recursion: a nested one would leave a function <-> cell
    # reference cycle per call, which only the cyclic collector frees.
    if i >= len(c) - 1:  # the last block is the labels that remain
        yield word + left
        return
    for block in itertools.combinations(left, c[i]):
        yield from _words(c, word + block, tuple([x for x in left if x not in block]), i + 1)


def shuffles(parts: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Inverses of the descent class of ``parts``: the (n1,...,nk)-shuffles.

    A shuffle is a permutation lifting the deck cut into consecutive intervals
    of sizes n1, n2, ... and interleaving them.  Yields in the order induced by
    :func:`descent_class`.
    """
    for p in descent_class(parts):
        yield inverse(p)


def young_subgroup(parts: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Permutations preserving each consecutive interval of sizes n1, n2, ....

    Yields in lexicographic order; the subgroup has order n1! * n2! * ....
    """
    blocks = interval_partition(parts)
    for pieces in itertools.product(*(itertools.permutations(sorted(b)) for b in blocks)):
        yield tuple(x for piece in pieces for x in piece)

