"""Reference arithmetic that does not use the library under test.

Every check here works on plain Python data made by the benchmark itself:

* a set composition is a tuple of ascending int tuples, ``((3, 5), (1, 4))``;
* an element is a dict from such tuples to nonzero ints.

The identities used:

* Σcoeff(x ∘ y) = Σ over same-support term pairs of c_a·c_b;
* Σcoeff(x ∗ y) = Σ over disjoint-support term pairs of c_a·c_b;
* Σcoeff(δx) = Σ c·2^|supp|;
* Σcoeff(δx ∘₂ δy) = Σ over support splits (A, B) of X(A, B)·Y(A, B), where
  X(A, B) sums the coefficients of the terms of x with support A ⊔ B;
* Solomon's rule for a single pair of compositions yields one term per
  nonnegative integer matrix with those row and column sums; at small weight
  it must agree exactly with composing the two orbit sums.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from functools import lru_cache


def support(comp) -> frozenset:
    return frozenset(x for block in comp for x in block)


def _support_sums(elem: dict) -> dict:
    out: dict = {}
    for comp, c in elem.items():
        s = support(comp)
        out[s] = out.get(s, 0) + c
    return out


def compose_coeff_sum(x: dict, y: dict) -> int:
    """Σcoeff(x ∘ y): only pairs of equal support contribute, each exactly once."""
    sx, sy = _support_sums(x), _support_sums(y)
    return sum(c * sy.get(s, 0) for s, c in sx.items())


def conv_coeff_sum(x: dict, y: dict) -> int:
    """Σcoeff(x ∗ y): only pairs of disjoint support contribute, each exactly once."""
    sx, sy = _support_sums(x), _support_sums(y)
    return sum(a * b for s, a in sx.items() for t, b in sy.items() if not s & t)


def coproduct_coeff_sum(x: dict) -> int:
    """Σcoeff(δx): a term on support S splits into 2^|S| tensor terms."""
    return sum(c << len(support(comp)) for comp, c in x.items())


def _split_sums(x: dict) -> dict:
    out: dict = {}
    for s, c in _support_sums(x).items():
        elems = sorted(s)
        for r in range(len(elems) + 1):
            for left in itertools.combinations(elems, r):
                key = (frozenset(left), s - frozenset(left))
                out[key] = out.get(key, 0) + c
    return out


def tensor_compose_coeff_sum(x: dict, y: dict) -> int:
    """Σcoeff(δx ∘₂ δy): tensor pairs interact when both leg supports match."""
    dx, dy = _split_sums(x), _split_sums(y)
    return sum(c * dy.get(k, 0) for k, c in dx.items())


def multinomial(parts) -> int:
    out = math.factorial(sum(parts))
    for p in parts:
        out //= math.factorial(p)
    return out


@lru_cache(maxsize=None)
def matrix_count(rows: tuple, cols: tuple) -> int:
    """Number of nonnegative integer matrices with the given row and column sums."""
    if not rows:
        return int(not any(cols))
    total = 0
    for fill in _fills(rows[0], cols):
        rest = tuple(c - f for c, f in zip(cols, fill))
        total += matrix_count(rows[1:], rest)
    return total


def _fills(total: int, caps: tuple):
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _fills(total - first, caps[1:]):
            yield (first,) + rest


def orbit(parts) -> list:
    """All set compositions of {1..n} whose block sizes are ``parts``."""
    out = []

    def rec(blocks, left, i):
        if i == len(parts):
            out.append(tuple(blocks))
            return
        for chosen in itertools.combinations(left, parts[i]):
            rest = tuple(v for v in left if v not in chosen)
            rec(blocks + [chosen], rest, i + 1)

    rec([], tuple(range(1, sum(parts) + 1)), 0)
    return out


def refine(a, b):
    """Intersection refinement of two compositions of one set, row-major."""
    out = []
    for s in a:
        for t in b:
            cut = tuple(sorted(set(s) & set(t)))
            if cut:
                out.append(cut)
    return tuple(out)


def solomon_by_truncation(c1: tuple, c2: tuple) -> dict | None:
    """Solomon's rule for one pair, read off O_c1 ∘ O_c2 computed by hand.

    The product of two orbit sums is constant on each type class, and the
    coefficient of a type is that constant.  Returns None when the product is
    not a combination of orbit sums, which cannot happen for a correct rule.
    """
    product: dict = {}
    for a in orbit(c1):
        for b in orbit(c2):
            key = refine(a, b)
            product[key] = product.get(key, 0) + 1
    by_type: dict = {}
    for comp, c in product.items():
        by_type.setdefault(tuple(len(b) for b in comp), []).append(c)
    out = {}
    for t, coeffs in by_type.items():
        if len(set(coeffs)) != 1 or len(coeffs) != multinomial(t):
            return None
        out[t] = coeffs[0]
    return out


def is_young_factorization(parts: tuple, perm: tuple, beta: tuple, tau: tuple) -> bool:
    """perm = beta·tau, beta keeps each interval block, tau is a shuffle."""
    n = len(perm)
    if sorted(beta) != list(range(1, n + 1)) or sorted(tau) != list(range(1, n + 1)):
        return False
    if tuple(beta[v - 1] for v in tau) != perm:
        return False
    block_of = [i for i, p in enumerate(parts) for _ in range(p)]
    if any(block_of[v - 1] != block_of[i] for i, v in enumerate(beta)):
        return False
    inv = [0] * n
    for i, v in enumerate(tau):
        inv[v - 1] = i
    return all(
        inv[i] < inv[i + 1] for i in range(n - 1) if block_of[i] == block_of[i + 1]
    )


def text_coeff_sum(text: str) -> int:
    """Sum the coefficients of a rendered element, tensor or descent element.

    Rendered terms read ``c*body`` and are joined by `` + `` or `` - ``; the
    first term may carry a leading ``-``; the zero element reads ``0``.
    """
    text = text.strip()
    if text == "0":
        return 0
    total = 0
    for piece in text.replace(" - ", "\n-").replace(" + ", "\n+").split("\n"):
        head, star, _ = piece.partition("*")
        if not star:
            raise ValueError(f"term without a coefficient: {piece[:40]!r}")
        total += int(head)
    return total


def json_coeff_sum(text: str) -> int:
    return sum(t["coeff"] for t in json.loads(text)["terms"])


def digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]
