"""Exhaustive and randomized verification suites for every algebraic law.

Each suite returns a list of ``LawResult`` records; the CLI renders them and
sets the exit code.  Sweep sizes follow the documented desk-scale defaults and
scale with the configured caps.  All randomness flows through one seeded
generator, so reports are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from . import oracle as orc
from .algebra import (
    TDElement,
    UNIT,
    act,
    basis,
    chamber,
    compose_basis,
    composition_product,
    conv_basis,
    convolution,
    coproduct,
    coproduct_iterated,
    multiply_tensor_legs,
    permutation_basis,
    tensor,
    tensor_composition,
    tensor_convolution,
)
from .permutations import compose, symmetric_group, young_subgroup
from .setcomp import (
    SetComposition,
    compositions,
    count_set_compositions,
    enumerate_set_compositions,
    interval_partition,
    multinomial,
    type_of,
)
from .solomon import (
    DescentElement,
    descent_class,
    fixed_space_check,
    orbit_sum,
    shuffle_test,
    solomon_compose,
    star,
    truncation_check,
    young_decompose,
)
from .textio import render, render_tensor


@dataclass(frozen=True)
class LawResult:
    suite: str
    law: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} [{self.suite}] {self.law}: {self.detail}"


@dataclass
class Config:
    max_n: int | None = None
    max_support: int | None = None
    max_terms: int | None = None
    trials: int | None = None
    seed: int = 0

    def n(self, default: int) -> int:
        return default if self.max_n is None else self.max_n

    def support(self, default: int) -> int:
        return default if self.max_support is None else self.max_support

    def trial_count(self, default: int) -> int:
        return default if self.trials is None else self.trials


def _subsets(universe: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
    for r in range(len(universe) + 1):
        yield from itertools.combinations(universe, r)


def _comps_of(sub: Iterable[int]) -> list[SetComposition]:
    sub = tuple(sub)
    return list(enumerate_set_compositions(sub, cap=max(len(sub), 1)))


def random_set_composition(rng: random.Random, universe: tuple[int, ...]) -> SetComposition:
    size = rng.randint(0, len(universe))
    elems = rng.sample(universe, size)
    blocks: list[list[int]] = []
    for x in elems:
        if blocks and rng.random() < 0.5:
            blocks[-1].append(x)
        else:
            blocks.append([x])
    return SetComposition(blocks)


def random_element(rng: random.Random, universe: tuple[int, ...]) -> TDElement:
    out = TDElement({})
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        out = out + coeff * basis(random_set_composition(rng, universe))
    return out


def _fail(suite: str, law: str, detail: str) -> LawResult:
    return LawResult(suite, law, False, detail)


def _ok(suite: str, law: str, detail: str) -> LawResult:
    return LawResult(suite, law, True, detail)


# --------------------------------------------------------------------------
# associativity / unit suites


def suite_assoc_conv(cfg: Config) -> list[LawResult]:
    rng = random.Random(cfg.seed)
    n = cfg.n(5)
    universe = tuple(range(1, n + 1))
    trials = max(cfg.trial_count(200), 1)
    out = []
    for i in range(trials):
        a, b, c = (random_element(rng, universe) for _ in range(3))
        if convolution(convolution(a, b), c) != convolution(a, convolution(b, c)):
            out.append(
                _fail(
                    "assoc-conv",
                    "associativity",
                    f"trial {i}: a={render(a)} b={render(b)} c={render(c)}",
                )
            )
            break
    else:
        out.append(_ok("assoc-conv", "associativity", f"{trials} random triples, support <= {n}"))
    for i in range(trials):
        a = random_element(rng, universe)
        if convolution(UNIT, a) != a or convolution(a, UNIT) != a:
            out.append(_fail("assoc-conv", "unit", f"trial {i}: a={render(a)}"))
            break
    else:
        out.append(_ok("assoc-conv", "unit", f"[] is a two-sided unit ({trials} trials)"))
    overlap = convolution(basis([[1, 2]]), basis([[1, 2]]))
    if overlap == TDElement({}):
        out.append(_ok("assoc-conv", "overlap-annihilation", "[{1,2}] * [{1,2}] = 0"))
    else:
        out.append(_fail("assoc-conv", "overlap-annihilation", f"got {render(overlap)}"))
    return out


def suite_assoc_comp(cfg: Config) -> list[LawResult]:
    rng = random.Random(cfg.seed)
    n = cfg.n(5)
    universe = tuple(range(1, n + 1))
    trials = max(cfg.trial_count(200), 1)
    out = []
    for i in range(trials):
        a, b, c = (random_element(rng, universe) for _ in range(3))
        lhs = composition_product(composition_product(a, b), c)
        rhs = composition_product(a, composition_product(b, c))
        if lhs != rhs:
            out.append(
                _fail(
                    "assoc-comp",
                    "associativity",
                    f"trial {i}: a={render(a)} b={render(b)} c={render(c)}",
                )
            )
            break
    else:
        out.append(_ok("assoc-comp", "associativity", f"{trials} random triples, support <= {n}"))

    # one-block compositions are two-sided units degreewise
    unit_n = min(n, 4)
    bad = None
    for sub in _subsets(tuple(range(1, unit_n + 1))):
        if not sub:
            continue
        one = basis([sub])
        for sc in _comps_of(sub):
            x = basis(sc)
            if composition_product(one, x) != x or composition_product(x, one) != x:
                bad = f"support {sub}, x={render(x)}"
                break
        if bad:
            break
    if bad:
        out.append(_fail("assoc-comp", "degreewise-unit", bad))
    else:
        out.append(_ok("assoc-comp", "degreewise-unit", f"1_S two-sided unit, |S| <= {unit_n}"))

    cross = composition_product(basis([[1, 2]]), basis([[3]]))
    if cross == TDElement({}):
        out.append(_ok("assoc-comp", "grading-annihilation", "[{1,2}] o [{3}] = 0"))
    else:
        out.append(_fail("assoc-comp", "grading-annihilation", f"got {render(cross)}"))

    # chamber absorption: chamber o x = chamber whenever supports agree
    absorb_n = min(n, 4)
    bad = None
    for sub in _subsets(tuple(range(1, absorb_n + 1))):
        comps = _comps_of(sub)
        for word in itertools.permutations(sub):
            cham = chamber(word)
            for sc in comps:
                if compose_basis(cham, sc) != cham:
                    bad = f"chamber {render(basis(cham))}, x={render(basis(sc))}"
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("assoc-comp", "chamber-absorption", bad))
    else:
        out.append(_ok("assoc-comp", "chamber-absorption", f"exhaustive, |S| <= {absorb_n}"))

    # relative unshuffling: sc o (chamber of sigma) regroups sigma's word by blocks
    unshuf_n = min(n, 5)
    bad = None
    for m in range(unshuf_n + 1):
        ground = tuple(range(1, m + 1))
        perms = list(symmetric_group(m))
        for sc in _comps_of(ground):
            for p in perms:
                expected = chamber(
                    [v for block in sc.sets for v in p if v in block]
                )
                got = compose_basis(sc, permutation_basis(p))
                if got != expected:
                    bad = f"sc={render(basis(sc))}, sigma={p}, got {render(basis(got))}"
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("assoc-comp", "unshuffling", bad))
    else:
        out.append(_ok("assoc-comp", "unshuffling", f"exhaustive, n <= {unshuf_n}"))
    return out


# --------------------------------------------------------------------------
# bialgebra suite


def suite_bialgebra(cfg: Config) -> list[LawResult]:
    out = []
    n = cfg.n(4)

    # delta(a o b) = delta(a) o2 delta(b) on each graded piece
    bad = None
    checked = 0
    for m in range(n + 1):
        ground = tuple(range(1, m + 1))
        comps = _comps_of(ground)
        deltas = {sc: coproduct(basis(sc)) for sc in comps}
        for a in comps:
            for b in comps:
                lhs = coproduct(composition_product(basis(a), basis(b)))
                rhs = tensor_composition(deltas[a], deltas[b])
                checked += 1
                if lhs != rhs:
                    bad = f"a={render(basis(a))}, b={render(basis(b))}"
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("bialgebra", "compose-law", bad))
    else:
        out.append(_ok("bialgebra", "compose-law", f"{checked} pairs, support [m], m <= {n}"))

    # delta(a * b) = delta(a) *2 delta(b) for disjoint supports
    bad = None
    checked = 0
    ground = tuple(range(1, n + 1))
    for sub_a in _subsets(ground):
        rest = tuple(x for x in ground if x not in sub_a)
        for sub_b in _subsets(rest):
            for a in _comps_of(sub_a):
                da = coproduct(basis(a))
                for b in _comps_of(sub_b):
                    lhs = coproduct(convolution(basis(a), basis(b)))
                    rhs = tensor_convolution(da, coproduct(basis(b)))
                    checked += 1
                    if lhs != rhs:
                        bad = f"a={render(basis(a))}, b={render(basis(b))}"
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("bialgebra", "convolution-law", bad))
    else:
        out.append(
            _ok("bialgebra", "convolution-law", f"{checked} disjoint pairs, total support <= {n}")
        )

    # the witness that the ungraded convolution law fails
    x = basis([[1, 2]])
    lhs = coproduct(convolution(x, x))
    rhs = tensor_convolution(coproduct(x), coproduct(x))
    s12 = SetComposition([[1, 2]])
    c12 = SetComposition([[1], [2]])
    c21 = SetComposition([[2], [1]])
    from .algebra import TensorElement

    expected = TensorElement({(s12, s12): 2, (c12, c21): 1, (c21, c12): 1})
    if lhs == TensorElement({}) and rhs == expected:
        out.append(
            _ok(
                "bialgebra",
                "non-graded-witness",
                "delta(x*x)=0 but delta(x)*2 delta(x) has the known 3-term value"
                " (expected failure of the naive law)",
            )
        )
    else:
        out.append(
            _fail(
                "bialgebra",
                "non-graded-witness",
                f"lhs={render_tensor(lhs)} rhs={render_tensor(rhs)}",
            )
        )

    # coassociativity and cocommutativity
    co_n = n + 1
    bad = None
    checked = 0
    for m in range(co_n + 1):
        for sub in itertools.combinations(range(1, co_n + 1), m):
            for sc in _comps_of(sub):
                x = basis(sc)
                left = coproduct_iterated(x, 3)
                right = {}
                for (l, r), c in coproduct(x).terms.items():
                    for (r1, r2), c2 in coproduct(basis(r)).terms.items():
                        key = (l, r1, r2)
                        right[key] = right.get(key, 0) + c * c2
                right = {k: c for k, c in right.items() if c}
                checked += 1
                if left != right:
                    bad = f"coassociativity fails on {render(x)}"
                    break
                d = coproduct(x)
                if d.swap() != d:
                    bad = f"cocommutativity fails on {render(x)}"
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("bialgebra", "coassociative-cocommutative", bad))
    else:
        out.append(
            _ok(
                "bialgebra",
                "coassociative-cocommutative",
                f"{checked} basis elements, support size <= {co_n}",
            )
        )
    return out


# --------------------------------------------------------------------------
# reciprocity suite


def _by_left_support(dh) -> dict:
    """δ(h)'s terms grouped by left-leg support: {supp l: [(l, r, c), ...]}."""
    out: dict = {}
    for (l, r), c in dh.terms.items():
        out.setdefault(l.support, []).append((l, r, c))
    return out


def _matched_reciprocity(f, g, fg, h, piece) -> bool:
    """(f ∗ g) ∘ h = m((f ⊗ g) ∘₂ δ(h)) on basis keys, given fg = f ∗ g and the
    terms of δ(h) whose left leg has support supp f."""
    lhs = {}
    if fg is not None:
        key = compose_basis(fg, h)
        if key is not None:
            lhs[key] = 1
    rhs: dict = {}
    for l, r, c in piece:
        fl = compose_basis(f, l)
        gr = compose_basis(g, r)
        if fl is None or gr is None:
            continue
        key = conv_basis(fl, gr)
        if key is not None:
            rhs[key] = rhs.get(key, 0) + c
    return lhs == {k: c for k, c in rhs.items() if c}


def suite_reciprocity(cfg: Config) -> list[LawResult]:
    out = []
    n = cfg.n(5)
    ground = tuple(range(1, n + 1))

    def check(f: SetComposition, g: SetComposition, h: SetComposition, dh) -> bool:
        fg = conv_basis(f, g)
        lhs = (
            composition_product(basis(fg), basis(h)) if fg is not None else TDElement({})
        )
        rhs = multiply_tensor_legs(tensor_composition(tensor(basis(f), basis(g)), dh))
        return lhs == rhs

    # exhaustive over the regime where both sides can be nonzero:
    # supp f ⊔ supp g = supp h, everything inside [n].  A term l ⊗ r of δ(h)
    # survives (f ⊗ g) ∘₂ δ(h) only if supp l = supp f (∘ annihilates other
    # supports), so δ(h) is indexed by left-leg support and each triple sums
    # just the piece δ_{supp f, supp g}(h).  Every term of the real δ(h) still
    # meets a triple: the sweep covers every split of supp h.
    bad = None
    checked = 0
    for sub in _subsets(ground):
        comps_c = _comps_of(sub)
        pieces = {h: _by_left_support(coproduct(basis(h))) for h in comps_c}
        for sub_a in _subsets(sub):
            sub_b = tuple(x for x in sub if x not in sub_a)
            comps_a = _comps_of(sub_a)
            comps_b = _comps_of(sub_b)
            left = frozenset(sub_a)
            graded = [(h, pieces[h].get(left, ())) for h in comps_c]
            for f in comps_a:
                for g in comps_b:
                    fg = conv_basis(f, g)
                    for h, piece in graded:
                        checked += 1
                        if not _matched_reciprocity(f, g, fg, h, piece):
                            bad = (
                                f"f={render(basis(f))}, g={render(basis(g))},"
                                f" h={render(basis(h))}"
                            )
                            break
                    if bad:
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("reciprocity", "matched-support", bad))
    else:
        out.append(
            _ok("reciprocity", "matched-support", f"{checked} triples, supp f ⊔ supp g = supp h <= [{n}]")
        )

    # exhaustive over everything (including all zero regimes) in a small universe
    small = tuple(range(1, min(n, 3) + 1))
    words = [sc for sub in _subsets(small) for sc in _comps_of(sub)]
    deltas = {h: coproduct(basis(h)) for h in words}
    bad = None
    checked = 0
    for f in words:
        for g in words:
            for h in words:
                checked += 1
                if not check(f, g, h, deltas[h]):
                    bad = (
                        f"f={render(basis(f))}, g={render(basis(g))}, h={render(basis(h))}"
                    )
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("reciprocity", "all-triples-small", bad))
    else:
        out.append(
            _ok("reciprocity", "all-triples-small", f"{checked} triples over [{len(small)}]")
        )

    # seeded random triples over the full ground set, any supports
    rng = random.Random(cfg.seed)
    trials = cfg.trial_count(2000)
    bad = None
    for i in range(trials):
        f = random_set_composition(rng, ground)
        g = random_set_composition(rng, ground)
        h = random_set_composition(rng, ground)
        if not check(f, g, h, coproduct(basis(h))):
            bad = f"trial {i}: f={render(basis(f))}, g={render(basis(g))}, h={render(basis(h))}"
            break
    if bad:
        out.append(_fail("reciprocity", "random-triples", bad))
    else:
        out.append(_ok("reciprocity", "random-triples", f"{trials} seeded triples over [{n}]"))
    return out


# --------------------------------------------------------------------------
# remarkable-identity suite


def suite_remarkable(cfg: Config) -> list[LawResult]:
    out = []
    n = cfg.n(5)
    ground = tuple(range(1, n + 1))

    def check(f, g, h, k) -> tuple[bool, bool]:
        """(law holds, lhs was nonzero)"""
        fg = compose_basis(f, g)
        hk = compose_basis(h, k)
        lhs = conv_basis(fg, hk) if fg is not None and hk is not None else None
        if lhs is None:
            return True, False
        fh = conv_basis(f, h)
        gk = conv_basis(g, k)
        rhs = compose_basis(fh, gk) if fh is not None and gk is not None else None
        return (rhs == lhs), True

    bad = None
    checked = nonzero = 0
    for sub_a in _subsets(ground):
        rest = tuple(x for x in ground if x not in sub_a)
        comps_a = _comps_of(sub_a)
        for sub_b in _subsets(rest):
            comps_b = _comps_of(sub_b)
            for f in comps_a:
                for g in comps_a:
                    fg = compose_basis(f, g)
                    for h in comps_b:
                        for k in comps_b:
                            checked += 1
                            hk = compose_basis(h, k)
                            lhs = conv_basis(fg, hk)
                            if lhs is None:
                                continue
                            nonzero += 1
                            fh = conv_basis(f, h)
                            gk = conv_basis(g, k)
                            rhs = (
                                compose_basis(fh, gk)
                                if fh is not None and gk is not None
                                else None
                            )
                            if rhs != lhs:
                                bad = (
                                    f"f={render(basis(f))}, g={render(basis(g))},"
                                    f" h={render(basis(h))}, k={render(basis(k))}"
                                )
                                break
                        if bad:
                            break
                    if bad:
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("remarkable", "matched-support", bad))
    else:
        out.append(
            _ok(
                "remarkable",
                "matched-support",
                f"{checked} quadruples ({nonzero} nonzero), disjoint pairs inside [{n}]",
            )
        )

    # every quadruple in a tiny universe, including mismatched supports
    small = tuple(range(1, min(n, 2) + 1))
    words = [sc for sub in _subsets(small) for sc in _comps_of(sub)]
    bad = None
    checked = 0
    for f, g, h, k in itertools.product(words, repeat=4):
        checked += 1
        good, _ = check(f, g, h, k)
        if not good:
            bad = (
                f"f={render(basis(f))}, g={render(basis(g))},"
                f" h={render(basis(h))}, k={render(basis(k))}"
            )
            break
    if bad:
        out.append(_fail("remarkable", "all-quadruples-small", bad))
    else:
        out.append(_ok("remarkable", "all-quadruples-small", f"{checked} quadruples over [{len(small)}]"))

    rng = random.Random(cfg.seed)
    trials = cfg.trial_count(2000)
    bad = None
    for i in range(trials):
        f, g, h, k = (random_set_composition(rng, ground) for _ in range(4))
        good, _ = check(f, g, h, k)
        if not good:
            bad = f"trial {i}: f={render(basis(f))}, g={render(basis(g))}, h={render(basis(h))}, k={render(basis(k))}"
            break
    if bad:
        out.append(_fail("remarkable", "random-quadruples", bad))
    else:
        out.append(_ok("remarkable", "random-quadruples", f"{trials} seeded quadruples over [{n}]"))
    return out


# --------------------------------------------------------------------------
# oracle suite


def suite_oracle(cfg: Config) -> list[LawResult]:
    out = []
    n = cfg.support(4)
    ground = tuple(range(1, n + 1))

    # composition agreement, support by support, with table reuse
    bad = None
    checked = 0
    for sub in _subsets(ground):
        comps = _comps_of(sub)
        tables = {sc: orc.represent(sc, sub) for sc in comps}
        for a in comps:
            for b in comps:
                lhs = orc.endo_compose(tables[a], tables[b])
                product = composition_product(basis(a), basis(b))
                checked += 1
                if product.terms != {compose_basis(a, b): 1}:
                    bad = f"a={render(basis(a))}, b={render(basis(b))}: product {render(product)}"
                    break
                if lhs != tables[compose_basis(a, b)]:
                    bad = f"a={render(basis(a))}, b={render(basis(b))}"
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("oracle", "composition-agreement", bad))
    else:
        out.append(
            _ok("oracle", "composition-agreement", f"{checked} equal-support pairs, |S| <= {n}")
        )

    # convolution agreement on disjoint pairs
    bad = None
    checked = 0
    for sub_a in _subsets(ground):
        rest = tuple(x for x in ground if x not in sub_a)
        for sub_b in _subsets(rest):
            union = tuple(sorted(sub_a + sub_b))
            for a in _comps_of(sub_a):
                ra = orc.represent(a, union)
                for b in _comps_of(sub_b):
                    lhs = orc.endo_convolution(ra, orc.represent(b, union))
                    rhs = orc.endo_of(convolution(basis(a), basis(b)), union)
                    checked += 1
                    if lhs != rhs:
                        bad = f"a={render(basis(a))}, b={render(basis(b))}"
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("oracle", "convolution-agreement", bad))
    else:
        out.append(
            _ok("oracle", "convolution-agreement", f"{checked} disjoint pairs, total support <= {n}")
        )

    # freeness: distinct set compositions give distinct endomorphisms
    bad = None
    checked = 0
    for sub in _subsets(ground):
        comps = _comps_of(sub)
        dumps = {}
        for sc in comps:
            text = orc.dump(orc.represent(sc, sub))
            if text in dumps:
                bad = f"{render(basis(dumps[text]))} and {render(basis(sc))} coincide"
                break
            dumps[text] = sc
            checked += 1
        if bad:
            break
    if bad:
        out.append(_fail("oracle", "freeness-separation", bad))
    else:
        out.append(_ok("oracle", "freeness-separation", f"{checked} distinct tables, |S| <= {n}"))

    # coproduct/product compatibility on words
    bad = None
    checked = 0
    words = list(orc.all_words(ground, cap=n))
    by_support = {}
    for w in words:
        by_support.setdefault(w.support, []).append(w)
    for u in words:
        for v in words:
            if u.support & v.support:
                continue
            checked += 1
            lhs = orc.b_coproduct(orc.b_product(u, v))
            rhs: dict = {}
            for (p, q), c1 in orc.b_coproduct(u).items():
                for (r, s), c2 in orc.b_coproduct(v).items():
                    key = (orc.b_product(p, r), orc.b_product(q, s))
                    rhs[key] = rhs.get(key, 0) + c1 * c2
            if lhs != rhs:
                bad = f"u={render(basis(u))}, v={render(basis(v))}"
                break
        if bad:
            break
    if bad:
        out.append(_fail("oracle", "coproduct-product-compatibility", bad))
    else:
        out.append(
            _ok("oracle", "coproduct-product-compatibility", f"{checked} disjoint word pairs")
        )

    # delta o 1_T = sum over splits of T of (1_U (x) 1_V) o delta, wordwise
    bad = None
    checked = 0
    for t in _subsets(ground):
        t_set = frozenset(t)
        for w in words:
            dw = orc.b_coproduct(w)
            lhs = dw if w.support == t_set else {}
            rhs = {
                pair: c
                for pair, c in dw.items()
                if pair[0].support | pair[1].support == t_set
            }
            checked += 1
            if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                bad = f"T={set(t)}, w={render(basis(w))}"
                break
        if bad:
            break
    if bad:
        out.append(_fail("oracle", "split-projection-rule", bad))
    else:
        out.append(_ok("oracle", "split-projection-rule", f"{checked} word/degree pairs"))

    # cocommutativity of the word coproduct
    bad = None
    for w in words:
        dw = orc.b_coproduct(w)
        swapped = {(b, a): c for (a, b), c in dw.items()}
        if dw != swapped:
            bad = f"w={render(basis(w))}"
            break
    if bad:
        out.append(_fail("oracle", "word-coproduct-cocommutative", bad))
    else:
        out.append(_ok("oracle", "word-coproduct-cocommutative", f"{len(words)} words"))

    # the word count over the full universe, against the binomial/Fubini formula
    expected = sum(math.comb(n, r) * count_set_compositions(r) for r in range(n + 1))
    if len(words) == expected:
        out.append(_ok("oracle", "word-count", f"{len(words)} words over [{n}]"))
    else:
        out.append(_fail("oracle", "word-count", f"{len(words)} words, expected {expected}"))
    return out


# --------------------------------------------------------------------------
# solomon suite


def suite_solomon(cfg: Config) -> list[LawResult]:
    out = []
    n = cfg.n(5)

    # truncation: Solomon's rule matches the orbit-sum route
    bad = None
    checked = 0
    for m in range(1, n + 1):
        comps_m = list(compositions(m))
        for c1 in comps_m:
            a = DescentElement({c1: 1})
            for c2 in comps_m:
                b = DescentElement({c2: 1})
                checked += 1
                if not truncation_check(a, b):
                    bad = f"{c1} o {c2}"
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("solomon", "truncation", bad))
    else:
        out.append(_ok("solomon", "truncation", f"{checked} basis pairs, weight <= {n}"))

    # orbit-sum structure constants: constant and nonnegative on each type
    bad = None
    checked = 0
    cap = min(n, 5)
    for m in range(1, cap + 1):
        comps_m = list(compositions(m))
        orbits = {c: orbit_sum(c) for c in comps_m}
        full = frozenset(range(1, m + 1))
        for c1 in comps_m:
            for c2 in comps_m:
                product = composition_product(orbits[c1], orbits[c2])
                by_type: dict = {}
                for sc, coeff in product.terms.items():
                    by_type.setdefault(type_of(sc), set()).add(coeff)
                for typ, coeffs in by_type.items():
                    if len(coeffs) != 1 or min(coeffs) < 0:
                        bad = f"O_{c1} o O_{c2}: type {typ} coefficients {sorted(coeffs)}"
                        break
                    count = sum(1 for sc in product.terms if type_of(sc) == typ)
                    if count != multinomial(typ):
                        bad = f"O_{c1} o O_{c2}: type {typ} hit {count} of {multinomial(typ)} terms"
                        break
                checked += 1
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("solomon", "orbit-structure-constants", bad))
    else:
        out.append(
            _ok("solomon", "orbit-structure-constants", f"{checked} pairs, weight <= {cap}")
        )

    # 1_n is the two-sided unit
    bad = None
    unit_cap = max(n, 6) if cfg.max_n is None else n
    for m in range(1, unit_cap + 1):
        one = DescentElement({(m,): 1})
        for c in compositions(m):
            a = DescentElement({c: 1})
            if solomon_compose(one, a) != a or solomon_compose(a, one) != a:
                bad = f"weight {m}, composition {c}"
                break
        if bad:
            break
    if bad:
        out.append(_fail("solomon", "unit", bad))
    else:
        out.append(_ok("solomon", "unit", f"1_n two-sided unit, n <= {unit_cap}"))

    # associativity of the matrix rule
    bad = None
    checked = 0
    for m in range(1, min(n, 4) + 1):
        comps_m = list(compositions(m))
        for c1, c2, c3 in itertools.product(comps_m, repeat=3):
            a, b, c = (DescentElement({x: 1}) for x in (c1, c2, c3))
            checked += 1
            if solomon_compose(solomon_compose(a, b), c) != solomon_compose(
                a, solomon_compose(b, c)
            ):
                bad = f"{c1}, {c2}, {c3}"
                break
        if bad:
            break
    if bad:
        out.append(_fail("solomon", "associativity", bad))
    else:
        out.append(_ok("solomon", "associativity", f"{checked} triples, weight <= {min(n, 4)}"))

    # weight mismatch annihilates
    mism = solomon_compose(DescentElement({(2,): 1}), DescentElement({(3,): 1}))
    if not mism.terms:
        out.append(_ok("solomon", "weight-mismatch", "D_2 o D_3 = 0"))
    else:
        out.append(_fail("solomon", "weight-mismatch", f"got {mism.terms}"))
    return out


# --------------------------------------------------------------------------
# equivariance suite


def suite_equivariance(cfg: Config) -> list[LawResult]:
    out = []
    rng = random.Random(cfg.seed)
    n = cfg.n(5)

    # right-action axiom, exhaustively in a small universe
    bad = None
    checked = 0
    small = min(n, 3)
    ground = tuple(range(1, small + 1))
    elements = [basis(sc) for sub in _subsets(ground) for sc in _comps_of(sub)]
    perms = list(symmetric_group(small))
    for x in elements:
        for s in perms:
            for t in perms:
                checked += 1
                if act(act(x, s), t) != act(x, compose(s, t)):
                    bad = f"x={render(x)}, sigma={s}, tau={t}"
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("equivariance", "right-action", bad))
    else:
        out.append(_ok("equivariance", "right-action", f"{checked} checks, n <= {small}"))

    # random right-action checks at larger degrees
    trials = cfg.trial_count(500)
    bad = None
    for m in range(4, n + 1):
        ground_m = tuple(range(1, m + 1))
        perms_m = list(symmetric_group(m))
        for i in range(trials):
            x = basis(random_set_composition(rng, ground_m))
            s = rng.choice(perms_m)
            t = rng.choice(perms_m)
            if act(act(x, s), t) != act(x, compose(s, t)):
                bad = f"n={m} trial {i}: x={render(x)}, sigma={s}, tau={t}"
                break
        if bad:
            break
    if bad:
        out.append(_fail("equivariance", "right-action-random", bad))
    else:
        out.append(
            _ok("equivariance", "right-action-random", f"{trials} trials each at n = 4..{n}")
        )

    # compose-equivariance, exhaustive then random
    bad = None
    checked = 0
    for m in range(small + 1):
        ground_m = tuple(range(1, m + 1))
        comps = _comps_of(ground_m)
        for a in comps:
            for b in comps:
                ab = composition_product(basis(a), basis(b))
                for s in symmetric_group(m):
                    checked += 1
                    if act(ab, s) != composition_product(act(basis(a), s), act(basis(b), s)):
                        bad = f"a={render(basis(a))}, b={render(basis(b))}, sigma={s}"
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    if bad:
        out.append(_fail("equivariance", "compose-equivariance", bad))
    else:
        out.append(_ok("equivariance", "compose-equivariance", f"{checked} checks, n <= {small}"))

    bad = None
    for m in range(4, n + 1):
        ground_m = tuple(range(1, m + 1))
        perms_m = list(symmetric_group(m))
        words = list(itertools.permutations(ground_m))
        for i in range(trials):
            word_a = rng.choice(words)
            word_b = rng.choice(words)
            a = basis(_random_comp_of_word(rng, word_a))
            b = basis(_random_comp_of_word(rng, word_b))
            s = rng.choice(perms_m)
            lhs = act(composition_product(a, b), s)
            rhs = composition_product(act(a, s), act(b, s))
            if lhs != rhs:
                bad = f"n={m} trial {i}: a={render(a)}, b={render(b)}, sigma={s}"
                break
        if bad:
            break
    if bad:
        out.append(_fail("equivariance", "compose-equivariance-random", bad))
    else:
        out.append(
            _ok(
                "equivariance",
                "compose-equivariance-random",
                f"{trials} trials each at n = 4..{n}, full support",
            )
        )
    return out


def _random_comp_of_word(rng: random.Random, word: tuple[int, ...]) -> SetComposition:
    blocks: list[list[int]] = []
    for x in word:
        if blocks and rng.random() < 0.5:
            blocks[-1].append(x)
        else:
            blocks.append([x])
    return SetComposition(blocks)


# --------------------------------------------------------------------------
# shuffles suite (descent classes, shuffle duality, Young factorization)


def suite_shuffles(cfg: Config) -> list[LawResult]:
    out = []
    n = cfg.n(6)

    bad = None
    checked = 0
    for m in range(1, n + 1):
        perms = list(symmetric_group(m))
        for c in compositions(m):
            parts = interval_partition(c)
            via_compose = {p for p in perms if shuffle_test(parts, p)}
            via_descents = set(star(descent_class(c, cap=max(m, 8))).terms)
            checked += 1
            if via_compose != via_descents:
                bad = f"type {c}: compose route and descent route disagree"
                break
            if len(via_compose) != multinomial(c):
                bad = f"type {c}: {len(via_compose)} shuffles, expected {multinomial(c)}"
                break
        if bad:
            break
    if bad:
        out.append(_fail("shuffles", "descent-duality", bad))
    else:
        out.append(_ok("shuffles", "descent-duality", f"{checked} compositions, n <= {n}"))

    # Young factorization: beta in the Young subgroup, tau a shuffle, beta.tau = sigma
    bad = None
    checked = 0
    young_n = min(n, 4)
    for c in compositions(young_n):
        parts = interval_partition(c)
        young = set(young_subgroup(c))
        for sigma in symmetric_group(young_n):
            beta, tau = young_decompose(parts, sigma)
            checked += 1
            if beta not in young:
                bad = f"type {c}, sigma={sigma}: beta={beta} outside the Young subgroup"
                break
            if not shuffle_test(parts, tau):
                bad = f"type {c}, sigma={sigma}: tau={tau} is not a shuffle"
                break
            if compose(beta, tau) != sigma:
                bad = f"type {c}, sigma={sigma}: beta.tau = {compose(beta, tau)}"
                break
        if bad:
            break
        shuffle_count = sum(1 for p in symmetric_group(young_n) if shuffle_test(parts, p))
        if len(young) * shuffle_count != math.factorial(young_n):
            bad = f"type {c}: |Young| * |shuffles| = {len(young) * shuffle_count}"
            break
    if bad:
        out.append(_fail("shuffles", "young-factorization", bad))
    else:
        out.append(
            _ok("shuffles", "young-factorization", f"{checked} factorizations over S_{young_n}")
        )

    # stabilizer of the interval composition is exactly the Young subgroup
    bad = None
    checked = 0
    stab_n = min(n, 5)
    for m in range(1, stab_n + 1):
        for c in compositions(m):
            parts = interval_partition(c)
            x = basis(SetComposition(parts))
            stab = {s for s in symmetric_group(m) if act(x, s) == x}
            checked += 1
            if stab != set(young_subgroup(c)):
                bad = f"type {c}: stabilizer has {len(stab)} elements"
                break
        if bad:
            break
    if bad:
        out.append(_fail("shuffles", "stabilizer", bad))
    else:
        out.append(_ok("shuffles", "stabilizer", f"{checked} compositions, n <= {stab_n}"))
    return out


# --------------------------------------------------------------------------
# fixed-space and dimension suites


def suite_fixed_space(cfg: Config) -> list[LawResult]:
    out = []
    n = cfg.n(4)
    bad = None
    for m in range(1, n + 1):
        if not fixed_space_check(m, cap=n):
            bad = f"n={m}"
            break
    if bad:
        out.append(_fail("fixed-space", "invariant-subalgebra", bad))
    else:
        out.append(_ok("fixed-space", "invariant-subalgebra", f"orbit sums closed under o, n <= {n}"))
    return out


def suite_dims(cfg: Config) -> list[LawResult]:
    out = []
    n = cfg.n(5)
    counts = []
    bad = None
    for m in range(n + 1):
        ground = tuple(range(1, m + 1))
        enumerated = sum(1 for _ in enumerate_set_compositions(ground, cap=max(m, 1)))
        expected = count_set_compositions(m)
        counts.append(enumerated)
        if enumerated != expected:
            bad = f"n={m}: enumerated {enumerated}, recurrence gives {expected}"
            break
    if bad:
        out.append(_fail("dims", "fubini", bad))
    else:
        out.append(_ok("dims", "fubini", " ".join(map(str, counts))))
    return out


# --------------------------------------------------------------------------
# registry


SUITES: dict[str, Callable[[Config], list[LawResult]]] = {
    "assoc-conv": suite_assoc_conv,
    "assoc-comp": suite_assoc_comp,
    "bialgebra": suite_bialgebra,
    "reciprocity": suite_reciprocity,
    "remarkable": suite_remarkable,
    "oracle": suite_oracle,
    "solomon": suite_solomon,
    "equivariance": suite_equivariance,
    "shuffles": suite_shuffles,
    "fixed-space": suite_fixed_space,
    "dims": suite_dims,
}


def run_suite(name: str, cfg: Config) -> list[LawResult]:
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(SUITES[key](cfg))
        return results
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](cfg)
