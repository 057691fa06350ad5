"""Exhaustive and randomized verification suites for every algebraic law.

A suite only declares its laws, as ``(law, cases, check, summary)`` tuples,
and refuses an oversized plan as it does.  ``run_suite`` declares every suite
it will run before it sweeps any, so each size guard fires before the first
case; then it sweeps the laws in order through one engine, ``_sweep``:

- ``cases`` is a lazy iterable of argument tuples.  Seeded draws happen only
  as cases are pulled, so a law that stops early leaves the generator, and the
  laws after it, in the same random state as a hand-written loop would.
- ``check(*case)`` returns ``None`` when the law holds on the case, else the
  text of a counterexample.
- The first counterexample wins: the law is reported as ``FAIL`` with that
  text, and no further case is pulled.
- Otherwise the number of cases checked feeds ``summary`` for the ``PASS``
  line.  A law that checked no case at all is ``VACUOUS``: it does not hold.

A kernel result that many cases share may sit in a table built during the
sweep; no table outlives its suite's sweep, and a table feeds one side of a
case only.  A kernel whose result depends only on a hashable key memoizes
itself for the life of the process, in a bounded read-only ``lru_cache``:
``solomon._flattened_matrices`` (1,024 margin pairs), ``solomon.orbit_sum``
(64 compositions), ``oracle.represent`` (512 composition/universe pairs) and
the oracle's word tables (32 universes each).  Kernels are looked up by name
when they run, so a fault planted under a kernel's name reaches every table
and replaces its memo.

Sweep sizes follow the documented desk-scale defaults and scale with the
configured sizes, within the fixed caps of ``limits``.  All randomness flows
through one seeded generator per suite, so reports are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterable, NamedTuple

from . import oracle as orc, solomon as sol
from .algebra import (
    TDElement,
    TensorElement,
    UNIT,
    ZERO,
    _clean,
    act,
    basis,
    chamber,
    compose_basis,
    composition_product,
    conv_basis,
    convolution,
    coproduct,
    multiply_tensor_legs,
    permutation_basis,
    tensor,
    tensor_composition,
    tensor_convolution,
)
from .limits import FIXED_SPACE_CAP, VERIFY_CASE_CAP, SizeLimitError, check_size
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
    solomon_compose,
    star,
    truncation_check,
)
from .textio import render, render_tensor


class LawResult(NamedTuple):
    suite: str
    law: str
    ok: bool
    detail: str
    vacuous: bool = False

    def line(self) -> str:
        status = "PASS" if self.ok else "VACUOUS" if self.vacuous else "FAIL"
        return f"{status} [{self.suite}] {self.law}: {self.detail}"


class Config(NamedTuple):
    max_n: int | None = None
    max_support: int | None = None
    trials: int | None = None
    seed: int = 0

    def n(self, default: int) -> int:
        return default if self.max_n is None else self.max_n

    def support(self, default: int) -> int:
        return default if self.max_support is None else self.max_support

    def trial_count(self, default: int) -> int:
        return default if self.trials is None else self.trials


def _sweep(
    suite: str,
    law: str,
    cases: Iterable[tuple],
    check: Callable[..., str | None],
    summary: Callable[[int], str],
) -> LawResult:
    """The first counterexample ``check`` finds among ``cases``, else a PASS
    whose detail is ``summary`` of the number of cases checked, or a VACUOUS
    result when there was no case.  An exception out of drawing or checking
    case i fails the law on it; a ``SizeLimitError`` still ends the run."""
    checked = 0
    try:
        for case in cases:
            bad = check(*case)
            if bad is not None:
                return LawResult(suite, law, False, bad)
            checked += 1
    except SizeLimitError:
        raise
    except Exception as exc:
        return LawResult(suite, law, False, f"case {checked + 1}: {_raised(exc)}")
    if not checked:
        return LawResult(suite, law, False, f"no case checked ({summary(0)})", vacuous=True)
    return LawResult(suite, law, True, summary(checked))


# A law as a suite declares it: the arguments of ``_sweep`` after the suite.
Law = tuple[str, Iterable[tuple], Callable[..., str | None], Callable[[int], str]]


def _single(law: str, check: Callable[[], str | None], detail: str) -> Law:
    """A law with one fixed case."""
    return law, [()], check, lambda _: detail


def _raised(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _trial(check: Callable[..., str | None]) -> Callable[..., str | None]:
    """``check`` on cases led by a label such as ``trial 3``, which prefixes
    any counterexample, and any exception but a ``SizeLimitError`` that the
    check raises."""

    def labelled(label: str, *case) -> str | None:
        try:
            bad = check(*case)
        except SizeLimitError:
            raise
        except Exception as exc:
            bad = _raised(exc)
        return None if bad is None else f"{label}: {bad}"

    return labelled


def _show(**named: SetComposition) -> str:
    return ", ".join(f"{name}={render(basis(sc))}" for name, sc in named.items())


def _unless_zero(x: TDElement) -> str | None:
    return None if x == ZERO else f"got {render(x)}"


def _ground(m: int) -> tuple[int, ...]:
    return tuple(range(1, m + 1))


def _subsets(universe: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
    for r in range(len(universe) + 1):
        yield from itertools.combinations(universe, r)


def _disjoint_pairs(ground: tuple[int, ...]) -> Iterable[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (A, B) with A ⊆ ground and B ⊆ ground \\ A."""
    for sub_a in _subsets(ground):
        rest = tuple(x for x in ground if x not in sub_a)
        yield from ((sub_a, sub_b) for sub_b in _subsets(rest))


def _comps_of(sub: Iterable[int]) -> list[SetComposition]:
    return list(enumerate_set_compositions(sub))


def _words(universe: tuple[int, ...]) -> list[SetComposition]:
    """Every set composition of every subset of the universe."""
    return [sc for sub in _subsets(universe) for sc in _comps_of(sub)]


def _random_cases(trials: int, arity: int, draw: Callable, *args) -> Iterable[tuple]:
    """``trials`` cases of ``arity`` operands ``draw(*args)``, labelled ``trial i``."""
    for i in range(trials):
        yield (f"trial {i}", *(draw(*args) for _ in range(arity)))


def _below(rng: random.Random, n: int) -> int:
    """A random int in [0, n) for n > 0, drawn as CPython 3.10-3.13's
    ``Random._randbelow`` draws it but through the public ``getrandbits``.
    Every seeded draw goes through it, with the values and bits of the
    ``randint``, ``choice`` and ``sample`` calls it stands for."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _choice(rng: random.Random, seq):
    return seq[_below(rng, len(seq))]


def _random_comp_of_word(rng: random.Random, word: Iterable[int]) -> SetComposition:
    blocks: list[list[int]] = []
    for x in word:
        if blocks and rng.random() < 0.5:
            blocks[-1].append(x)
        else:
            blocks.append([x])
    # the labels come from the sweep's own ground sets, so they need no check
    return SetComposition._make(tuple([frozenset(b) for b in blocks]), frozenset(word))


def random_set_composition(rng: random.Random, universe: tuple[int, ...]) -> SetComposition:
    """``rng.sample(universe, rng.randint(0, n))`` cut into blocks.  Up to 21
    labels ``sample`` always takes its pool branch, written out here; over
    more it may take its set branch, so it is called."""
    n = len(universe)
    k = _below(rng, n + 1)
    if n > 21:
        return _random_comp_of_word(rng, rng.sample(universe, k))
    pool, word = list(universe), []
    for i in range(n, n - k, -1):
        j = _below(rng, i)
        word.append(pool[j])
        pool[j] = pool[i - 1]
    return _random_comp_of_word(rng, word)


def random_element(rng: random.Random, universe: tuple[int, ...]) -> TDElement:
    """The sum of ``randint(1, 3)`` terms c * basis(sc), each c a ``choice``."""
    terms: dict = {}
    for _ in range(_below(rng, 3) + 1):
        coeff = _choice(rng, (-3, -2, -1, 1, 2, 3))
        sc = random_set_composition(rng, universe)
        terms[sc] = terms.get(sc, 0) + coeff
    return TDElement._make(_clean(terms))


# --------------------------------------------------------------------------
# associativity / unit suites


def _associative(product: Callable) -> Callable[..., str | None]:
    def check(a, b, c):
        if product(product(a, b), c) != product(a, product(b, c)):
            return f"a={render(a)} b={render(b)} c={render(c)}"

    return check


def suite_assoc_conv(cfg: Config) -> list[Law]:
    rng = random.Random(cfg.seed)
    n = cfg.n(5)
    trials = cfg.trial_count(200)

    def unit(a):
        if convolution(UNIT, a) != a or convolution(a, UNIT) != a:
            return f"a={render(a)}"

    return [
        ("associativity", _random_cases(trials, 3, random_element, rng, _ground(n)),
         _trial(_associative(convolution)), lambda k: f"{k} random triples, support <= {n}"),
        ("unit", _random_cases(trials, 1, random_element, rng, _ground(n)), _trial(unit),
         lambda k: f"[] is a two-sided unit ({k} trials)"),
        _single("overlap-annihilation",
                lambda: _unless_zero(convolution(basis([[1, 2]]), basis([[1, 2]]))),
                "[{1,2}] * [{1,2}] = 0"),
    ]


def suite_assoc_comp(cfg: Config) -> list[Law]:
    rng = random.Random(cfg.seed)
    n = cfg.n(5)
    trials = cfg.trial_count(200)
    unit_n = absorb_n = min(n, 4)
    unshuf_n = min(n, 5)

    # one-block compositions are two-sided units degreewise
    def unit(sub, one, x):
        if composition_product(one, x) != x or composition_product(x, one) != x:
            return f"support {sub}, x={render(x)}"

    # chamber absorption: chamber o x = chamber whenever supports agree
    def absorbs(cham, sc):
        if compose_basis(cham, sc) != cham:
            return f"chamber {render(basis(cham))}, x={render(basis(sc))}"

    # relative unshuffling: sc o (chamber of sigma) regroups sigma's word by
    # blocks; each sigma's chamber is built once per degree
    def unshuffling_cases():
        for m in range(unshuf_n + 1):
            chambers = [(p, permutation_basis(p)) for p in symmetric_group(m)]
            yield from ((sc, p, cham) for sc in _comps_of(_ground(m)) for p, cham in chambers)

    def unshuffles(sc, p, cham):
        expected = chamber([v for block in sc.sets for v in p if v in block])
        got = compose_basis(sc, cham)
        if got != expected:
            shown = "0" if got is None else render(basis(got))
            return f"sc={render(basis(sc))}, sigma={p}, got {shown}"

    return [
        ("associativity", _random_cases(trials, 3, random_element, rng, _ground(n)),
         _trial(_associative(composition_product)),
         lambda k: f"{k} random triples, support <= {n}"),
        ("degreewise-unit",
         ((sub, basis([sub]), basis(sc))
          for sub in _subsets(_ground(unit_n)) if sub for sc in _comps_of(sub)),
         unit, lambda _: f"1_S two-sided unit, |S| <= {unit_n}"),
        _single("grading-annihilation",
                lambda: _unless_zero(composition_product(basis([[1, 2]]), basis([[3]]))),
                "[{1,2}] o [{3}] = 0"),
        ("chamber-absorption",
         (case for sub in _subsets(_ground(absorb_n)) for case in
          itertools.product(map(chamber, itertools.permutations(sub)), _comps_of(sub))),
         absorbs, lambda _: f"exhaustive, |S| <= {absorb_n}"),
        ("unshuffling", unshuffling_cases(), unshuffles,
         lambda _: f"exhaustive, n <= {unshuf_n}"),
    ]


# --------------------------------------------------------------------------
# bialgebra suite


def suite_bialgebra(cfg: Config) -> list[Law]:
    n = cfg.n(4)
    co_n = n + 1

    # delta(a o b) = delta(a) o2 delta(b) on each graded piece
    def graded_pairs():
        for m in range(n + 1):
            comps = _comps_of(_ground(m))
            deltas = {sc: coproduct(basis(sc)) for sc in comps}
            for a, b in itertools.product(comps, repeat=2):
                yield a, b, deltas[a], deltas[b]

    def compose_law(a, b, da, db):
        if coproduct(composition_product(basis(a), basis(b))) != tensor_composition(da, db):
            return _show(a=a, b=b)

    # delta(a * b) = delta(a) *2 delta(b) for disjoint supports
    def disjoint_pairs():
        for sub_a, sub_b in _disjoint_pairs(_ground(n)):
            comps_b = _comps_of(sub_b)
            for a in _comps_of(sub_a):
                da = coproduct(basis(a))
                yield from ((a, b, da) for b in comps_b)

    def convolution_law(a, b, da):
        lhs = coproduct(convolution(basis(a), basis(b)))
        if lhs != tensor_convolution(da, coproduct(basis(b))):
            return _show(a=a, b=b)

    # the witness that the ungraded convolution law fails
    def witness():
        x = basis([[1, 2]])
        lhs = coproduct(convolution(x, x))
        rhs = tensor_convolution(coproduct(x), coproduct(x))
        s12, c12, c21 = (SetComposition(b) for b in ([[1, 2]], [[1], [2]], [[2], [1]]))
        expected = TensorElement({(s12, s12): 2, (c12, c21): 1, (c21, c12): 1})
        if lhs != TensorElement({}) or rhs != expected:
            return f"lhs={render_tensor(lhs)} rhs={render_tensor(rhs)}"

    # coassociativity and cocommutativity; every leg of δ(x) is again a word
    # over [co_n], so each leg expands from one table of δ.  The table and the
    # difference are keyed by blocks, as SetComposition's equality and hash are
    def word_coproducts():
        words = _words(_ground(co_n))
        deltas = {sc.sets: coproduct(basis(sc)) for sc in words}
        for sc in words:
            yield sc, deltas[sc.sets], deltas

    def coassociative_cocommutative(sc, d, deltas):
        diff: dict = {}  # (δ ⊗ id)δ(x) − (id ⊗ δ)δ(x)
        for (l, r), c in d.terms.items():
            ls, rs = l.sets, r.sets
            dl, dr = deltas.get(ls), deltas.get(rs)
            if dl is None or dr is None:
                return f"coproduct leg outside [co_n] on {render(basis(sc))}"
            for (l1, l2), c2 in dl.terms.items():
                key = (l1.sets, l2.sets, rs)
                diff[key] = diff.get(key, 0) + c * c2
            for (r1, r2), c2 in dr.terms.items():
                key = (ls, r1.sets, r2.sets)
                diff[key] = diff.get(key, 0) - c * c2
        if any(diff.values()):
            return f"coassociativity fails on {render(basis(sc))}"
        if d.swap() != d:
            return f"cocommutativity fails on {render(basis(sc))}"

    return [
        ("compose-law", graded_pairs(), compose_law, lambda k: f"{k} pairs, support [m], m <= {n}"),
        ("convolution-law", disjoint_pairs(), convolution_law,
         lambda k: f"{k} disjoint pairs, total support <= {n}"),
        _single("non-graded-witness", witness,
                "delta(x*x)=0 but delta(x)*2 delta(x) has the known 3-term value"
                " (expected failure of the naive law)"),
        ("coassociative-cocommutative", word_coproducts(), coassociative_cocommutative,
         lambda k: f"{k} basis elements, support size <= {co_n}"),
    ]


# --------------------------------------------------------------------------
# reciprocity suite


def _by_left_support(dh) -> dict:
    """δ(h)'s terms grouped by left-leg support: {supp l: [(l, r, c), ...]}."""
    out: dict = {}
    for (l, r), c in dh.terms.items():
        out.setdefault(l.support, []).append((l, r, c))
    return out


def _matched_reciprocity(f, g, fg, h, piece, f_row, g_row) -> str | None:
    """(f ∗ g) ∘ h = m((f ⊗ g) ∘₂ δ(h)) on basis keys, given fg = f ∗ g and the
    terms of δ(h) whose left leg has support supp f.  A row, when given, maps
    the blocks of each y on the support of f (of g) to f ∘ y (g ∘ y); without
    one the kernel runs.  Any other piece than the one term of a sound δ is
    checked by ``_reciprocity`` on the whole δ(h)."""
    if len(piece) == 1:  # as for a basis h: the one term h|A ⊗ h|B
        [(l, r, c)] = piece
        lhs = compose_basis(fg, h) if fg is not None else None
        fl = compose_basis(f, l) if f_row is None else f_row.get(l.sets)
        gr = compose_basis(g, r) if g_row is None else g_row.get(r.sets)
        key = conv_basis(fl, gr) if fl is not None and gr is not None else None
        # the sides agree as one key with coefficient 1, or as zero
        if (lhs, 1) != (key, c) and (lhs is not None or key is not None and c):
            return _show(f=f, g=g, h=h)
        return None
    return _reciprocity(f, g, h, coproduct(basis(h)), *_pair(f, g))


def _pair(f, g) -> tuple:
    """The parts of the law free of h: f ∗ g as an element (None when it is
    zero) and f ⊗ g."""
    fg = conv_basis(f, g)
    return None if fg is None else basis(fg), tensor(basis(f), basis(g))


def _reciprocity(f, g, h, dh, fg, f_g) -> str | None:
    """The same law through the public elements, for any supports, given
    ``_pair(f, g)`` as fg and f_g."""
    lhs = composition_product(fg, basis(h)) if fg is not None else ZERO
    if lhs != multiply_tensor_legs(tensor_composition(f_g, dh)):
        return _show(f=f, g=g, h=h)


def suite_reciprocity(cfg: Config) -> list[Law]:
    rng = random.Random(cfg.seed)
    n = cfg.n(5)
    ground = _ground(n)
    small = _ground(min(n, 3))
    trials = cfg.trial_count(2000)

    # exhaustive over the regime where both sides can be nonzero:
    # supp f ⊔ supp g = supp h, everything inside [n].  A term l ⊗ r of δ(h)
    # survives (f ⊗ g) ∘₂ δ(h) only if supp l = supp f (∘ annihilates other
    # supports), so δ(h) is indexed by left-leg support and each triple sums
    # just the piece δ_{supp f, supp g}(h).  Every term of the real δ(h) still
    # meets a triple: the sweep covers every split of supp h.  A split with
    # both parts nonempty reads each f ∘ l from a row of f, keyed by the
    # blocks of l, and each g ∘ r likewise; no row outlives its split.
    def rows(comps):
        return [{y.sets: compose_basis(x, y) for y in comps} for x in comps]

    def matched_triples():
        for sub in _subsets(ground):
            comps_c = _comps_of(sub)
            pieces = {h: _by_left_support(coproduct(basis(h))) for h in comps_c}
            for sub_a in _subsets(sub):
                sub_b = tuple(x for x in sub if x not in sub_a)
                left = frozenset(sub_a)
                graded = [(h, pieces[h].get(left, ())) for h in comps_c]
                comps_a, comps_b = _comps_of(sub_a), _comps_of(sub_b)
                rows_a = rows_b = itertools.repeat(None)
                if sub_a and sub_b:
                    rows_a, rows_b = rows(comps_a), rows(comps_b)
                for (f, f_row), (g, g_row) in itertools.product(
                    zip(comps_a, rows_a), zip(comps_b, rows_b)
                ):
                    fg = conv_basis(f, g)
                    for h, piece in graded:
                        yield f, g, fg, h, piece, f_row, g_row

    # exhaustive over everything (including all zero regimes) in a small universe
    def all_triples():
        words = _words(small)
        deltas = {h: coproduct(basis(h)) for h in words}
        for f, g in itertools.product(words, repeat=2):
            pair = _pair(f, g)
            for h in words:
                yield f, g, h, deltas[h], *pair

    # seeded random triples over the full ground set, any supports, each
    # distinct h expanded by δ once
    def random_triples():
        deltas: dict = {}
        for label, f, g, h in _random_cases(trials, 3, random_set_composition, rng, ground):
            dh = deltas.get(h)
            if dh is None:
                dh = deltas[h] = coproduct(basis(h))
            yield label, f, g, h, dh

    return [
        ("matched-support", matched_triples(), _matched_reciprocity,
         lambda k: f"{k} triples, supp f ⊔ supp g = supp h <= [{n}]"),
        ("all-triples-small", all_triples(), _reciprocity,
         lambda k: f"{k} triples over [{len(small)}]"),
        # f ∗ g and f ⊗ g are made in the check, under its trial label
        ("random-triples", random_triples(),
         _trial(lambda f, g, h, dh: _reciprocity(f, g, h, dh, *_pair(f, g))),
         lambda _: f"{trials} seeded triples over [{n}]"),
    ]


# --------------------------------------------------------------------------
# remarkable-identity suite


def _matched_remarkable(f, g, fg, h, k, hk) -> str | None:
    """(f ∘ g) ∗ (h ∘ k) = (f ∗ h) ∘ (g ∗ k) for supp f = supp g disjoint from
    supp h = supp k, given fg = f ∘ g and hk = h ∘ k.  Both sides are then
    single nonzero basis keys, so a zero side is a counterexample too."""
    lhs = conv_basis(fg, hk) if fg is not None and hk is not None else None
    fh = conv_basis(f, h)
    gk = conv_basis(g, k)
    rhs = compose_basis(fh, gk) if fh is not None and gk is not None else None
    if lhs is None or rhs != lhs:
        return _show(f=f, g=g, h=h, k=k)


def _remarkable(f, g, h, k) -> str | None:
    """The identity for any supports: whenever the left side is nonzero, the
    supports match and the sides agree."""
    fg = compose_basis(f, g)
    hk = compose_basis(h, k)
    if fg is None or hk is None or conv_basis(fg, hk) is None:
        return None
    return _matched_remarkable(f, g, fg, h, k, hk)


def suite_remarkable(cfg: Config) -> list[Law]:
    rng = random.Random(cfg.seed)
    n = cfg.n(5)
    ground = _ground(n)
    small = _ground(min(n, 2))
    trials = cfg.trial_count(2000)

    # each h ∘ k is made once per split (A, B): a split with F(|A|) ≥ 2
    # reads it F(|A|)² times from a list, any other split once as it is made
    def matched_quadruples():
        for sub_a, sub_b in _disjoint_pairs(ground):
            comps_a, comps_b = _comps_of(sub_a), _comps_of(sub_b)
            hks = ((h, k, compose_basis(h, k)) for h, k in itertools.product(comps_b, repeat=2))
            if len(comps_a) > 1:
                hks = list(hks)
            for f, g in itertools.product(comps_a, repeat=2):
                fg = compose_basis(f, g)
                for h, k, hk in hks:
                    yield f, g, fg, h, k, hk

    return [
        ("matched-support", matched_quadruples(), _matched_remarkable,
         lambda k: f"{k} quadruples ({k} nonzero), disjoint pairs inside [{n}]"),
        # every quadruple in a tiny universe, including mismatched supports
        ("all-quadruples-small", itertools.product(_words(small), repeat=4),
         _remarkable, lambda k: f"{k} quadruples over [{len(small)}]"),
        ("random-quadruples", _random_cases(trials, 4, random_set_composition, rng, ground),
         _trial(_remarkable), lambda _: f"{trials} seeded quadruples over [{n}]"),
    ]


# --------------------------------------------------------------------------
# oracle suite


def suite_oracle(cfg: Config) -> list[Law]:
    n = cfg.support(4)
    ground = _ground(n)
    words = list(orc.all_words(ground))
    expected_words = sum(math.comb(n, r) * count_set_compositions(r) for r in range(n + 1))

    # composition agreement, support by support, with table reuse
    def equal_support_pairs():
        for sub in _subsets(ground):
            comps = _comps_of(sub)
            tables = {sc: orc.represent(sc, sub) for sc in comps}
            yield from ((a, b, tables) for a, b in itertools.product(comps, repeat=2))

    def composition_agrees(a, b, tables):
        lhs = orc.endo_compose(tables[a], tables[b])
        product = composition_product(basis(a), basis(b))
        ab = compose_basis(a, b)
        if product.terms != {ab: 1}:
            return f"{_show(a=a, b=b)}: product {render(product)}"
        # a faulty ∘ can return no set composition of the support: no table
        if lhs != tables.get(ab):
            return _show(a=a, b=b)

    # convolution agreement on disjoint pairs
    def disjoint_pairs():
        for sub_a, sub_b in _disjoint_pairs(ground):
            union = tuple(sorted(sub_a + sub_b))
            comps_b = _comps_of(sub_b)
            yield from ((a, b, union) for a in _comps_of(sub_a) for b in comps_b)

    def convolution_agrees(a, b, union):
        lhs = orc.endo_convolution(orc.represent(a, union), orc.represent(b, union))
        if lhs != orc.endo_of(convolution(basis(a), basis(b)), union):
            return _show(a=a, b=b)

    # freeness: distinct set compositions give distinct endomorphisms
    def tables_by_support():
        for sub in _subsets(ground):
            seen: dict = {}
            yield from ((sc, sub, seen) for sc in _comps_of(sub))

    def distinct(sc, sub, seen):
        table = orc.represent(sc, sub).table
        key = frozenset((w, frozenset(image.items())) for w, image in table.items())
        if key in seen:
            return f"{render(basis(seen[key]))} and {render(basis(sc))} coincide"
        seen[key] = sc

    # coproduct/product compatibility on words
    def compatible(u, v):
        lhs = orc.b_coproduct(orc.b_product(u, v))
        rhs: dict = {}
        for (p, q), c1 in orc.b_coproduct(u).items():
            for (r, s), c2 in orc.b_coproduct(v).items():
                key = (orc.b_product(p, r), orc.b_product(q, s))
                rhs[key] = rhs.get(key, 0) + c1 * c2
        if lhs != rhs:
            return _show(u=u, v=v)

    # delta o 1_T = sum over splits of T of (1_U (x) 1_V) o delta, wordwise
    def projects(t, w):
        t_set = frozenset(t)
        dw = orc.b_coproduct(w)
        lhs = dw if w.support == t_set else {}
        rhs = {pair: c for pair, c in dw.items() if pair[0].support | pair[1].support == t_set}
        if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
            return f"T={set(t)}, w={render(basis(w))}"

    # cocommutativity of the word coproduct
    def cocommutative(w):
        dw = orc.b_coproduct(w)
        if dw != {(b, a): c for (a, b), c in dw.items()}:
            return _show(w=w)

    return [
        ("composition-agreement", equal_support_pairs(), composition_agrees,
         lambda k: f"{k} equal-support pairs, |S| <= {n}"),
        ("convolution-agreement", disjoint_pairs(), convolution_agrees,
         lambda k: f"{k} disjoint pairs, total support <= {n}"),
        ("freeness-separation", tables_by_support(), distinct,
         lambda k: f"{k} distinct tables, |S| <= {n}"),
        ("coproduct-product-compatibility",
         ((u, v) for u, v in itertools.product(words, repeat=2) if not u.support & v.support),
         compatible, lambda k: f"{k} disjoint word pairs"),
        ("split-projection-rule", ((t, w) for t in _subsets(ground) for w in words),
         projects, lambda k: f"{k} word/degree pairs"),
        ("word-coproduct-cocommutative", zip(words), cocommutative, lambda k: f"{k} words"),
        # the word count over the full universe, against the binomial/Fubini formula
        _single("word-count",
                lambda: None if len(words) == expected_words
                else f"{len(words)} words, expected {expected_words}",
                f"{len(words)} words over [{n}]"),
    ]


# --------------------------------------------------------------------------
# solomon suite


def suite_solomon(cfg: Config) -> list[Law]:
    n = cfg.n(5)
    orbit_n = min(n, 5)
    unit_n = max(n, 6) if cfg.max_n is None else n
    assoc_n = min(n, 4)

    # the pairs of compositions of each weight up to ``top``
    def orbit_pairs(top):
        for m in range(1, top + 1):
            yield from itertools.product(compositions(m), repeat=2)

    # truncation: Solomon's rule matches the orbit-sum route
    def truncates(c1, c2):
        a, b = DescentElement({c1: 1}), DescentElement({c2: 1})
        if not truncation_check(a, b):
            return f"{c1} o {c2}"

    # orbit-sum structure constants: constant and nonnegative on each type
    def structure_constants(c1, c2):
        by_type: dict = {}
        for sc, coeff in composition_product(sol.orbit_sum(c1), sol.orbit_sum(c2)).terms.items():
            by_type.setdefault(type_of(sc), []).append(coeff)
        for typ, coeffs in by_type.items():
            if len(set(coeffs)) != 1 or min(coeffs) < 0:
                return f"O_{c1} o O_{c2}: type {typ} coefficients {sorted(set(coeffs))}"
            if len(coeffs) != multinomial(typ):
                return f"O_{c1} o O_{c2}: type {typ} hit {len(coeffs)} of {multinomial(typ)} terms"

    # 1_n is the two-sided unit
    def unit(m, c):
        one = DescentElement({(m,): 1})
        a = DescentElement({c: 1})
        if solomon_compose(one, a) != a or solomon_compose(a, one) != a:
            return f"weight {m}, composition {c}"

    # associativity of the matrix rule; the inner products of every triple
    # come from one table of basis products per weight
    def triples():
        for m in range(1, assoc_n + 1):
            comps = list(compositions(m))
            d = {c: DescentElement({c: 1}) for c in comps}
            pairs = itertools.product(comps, repeat=2)
            products = {(a, b): solomon_compose(d[a], d[b]) for a, b in pairs}
            for c1, c2, c3 in itertools.product(comps, repeat=3):
                yield c1, c2, c3, d, products

    def associative(c1, c2, c3, d, products):
        if solomon_compose(products[c1, c2], d[c3]) != solomon_compose(d[c1], products[c2, c3]):
            return f"{c1}, {c2}, {c3}"

    # weight mismatch annihilates
    def mismatch():
        mism = solomon_compose(DescentElement({(2,): 1}), DescentElement({(3,): 1}))
        if mism.terms:
            return f"got {dict(mism.terms)}"

    return [
        ("truncation", orbit_pairs(n), truncates, lambda k: f"{k} basis pairs, weight <= {n}"),
        ("orbit-structure-constants", orbit_pairs(orbit_n), structure_constants,
         lambda k: f"{k} pairs, weight <= {orbit_n}"),
        ("unit", ((m, c) for m in range(1, unit_n + 1) for c in compositions(m)),
         unit, lambda _: f"1_n two-sided unit, n <= {unit_n}"),
        ("associativity", triples(), associative, lambda k: f"{k} triples, weight <= {assoc_n}"),
        _single("weight-mismatch", mismatch, "D_2 o D_3 = 0"),
    ]


# --------------------------------------------------------------------------
# equivariance suite


def _right_action(x, s, t) -> str | None:
    if act(act(x, s), t) != act(x, compose(s, t)):
        return f"x={render(x)}, sigma={s}, tau={t}"


def _compose_equivariant(a, b, s) -> str | None:
    if act(composition_product(a, b), s) != composition_product(act(a, s), act(b, s)):
        return f"a={render(a)}, b={render(b)}, sigma={s}"


def suite_equivariance(cfg: Config) -> list[Law]:
    rng = random.Random(cfg.seed)
    n = cfg.n(5)
    small = min(n, 3)
    trials = cfg.trial_count(500)

    def random_by_degree(draw):
        """``trials`` drawn cases at each degree 4..n, labelled ``n=m trial i``."""
        for m in range(4, n + 1):
            ground_m = _ground(m)
            perms_m = list(symmetric_group(m))
            for i in range(trials):
                yield (f"n={m} trial {i}", *draw(ground_m, perms_m))

    def draw_action(ground_m, perms_m):
        x = basis(random_set_composition(rng, ground_m))
        return x, _choice(rng, perms_m), _choice(rng, perms_m)

    def draw_product(ground_m, perms_m):
        word_a, word_b = _choice(rng, perms_m), _choice(rng, perms_m)
        a = basis(_random_comp_of_word(rng, word_a))
        b = basis(_random_comp_of_word(rng, word_b))
        return a, b, _choice(rng, perms_m)

    def exhaustive_products():
        for m in range(small + 1):
            elements = [basis(sc) for sc in _comps_of(_ground(m))]
            yield from itertools.product(elements, elements, symmetric_group(m))

    perms = list(symmetric_group(small))
    return [
        # right-action axiom, exhaustively in a small universe
        ("right-action",
         itertools.product([basis(sc) for sc in _words(_ground(small))], perms, perms),
         _right_action, lambda k: f"{k} checks, n <= {small}"),
        # random right-action checks at larger degrees
        ("right-action-random", random_by_degree(draw_action),
         _trial(_right_action), lambda _: f"{trials} trials each at n = 4..{n}"),
        # compose-equivariance, exhaustive then random
        ("compose-equivariance", exhaustive_products(),
         _compose_equivariant, lambda k: f"{k} checks, n <= {small}"),
        ("compose-equivariance-random", random_by_degree(draw_product),
         _trial(_compose_equivariant),
         lambda _: f"{trials} trials each at n = 4..{n}, full support"),
    ]


# --------------------------------------------------------------------------
# shuffles suite (descent classes, shuffle duality, Young factorization)


def suite_shuffles(cfg: Config) -> list[Law]:
    n = cfg.n(6)
    young_n = min(n, 4)
    stab_n = min(n, 5)

    def by_type():
        for m in range(1, n + 1):
            perms = list(symmetric_group(m))
            yield from ((c, perms) for c in compositions(m))

    def dual(c, perms):
        is_shuffle, _ = sol._partition_tests(interval_partition(c))
        via_compose = {p for p in perms if is_shuffle(p)}
        if via_compose != set(star(descent_class(c)).terms):
            return f"type {c}: compose route and descent route disagree"
        if len(via_compose) != multinomial(c):
            return f"type {c}: {len(via_compose)} shuffles, expected {multinomial(c)}"

    # Young factorization: beta in the Young subgroup, tau a shuffle,
    # beta.tau = sigma, for every sigma in S_n; one case per type c
    def factorizes(c):
        is_shuffle, decompose = sol._partition_tests(interval_partition(c))
        young = set(young_subgroup(c))
        for sigma in symmetric_group(young_n):
            try:
                beta, tau = decompose(sigma)
            except ValueError as exc:  # a faulty ∘ cuts no chamber from a valid sigma
                return f"type {c}, sigma={sigma}: {exc}"
            if beta not in young:
                return f"type {c}, sigma={sigma}: beta={beta} outside the Young subgroup"
            if not is_shuffle(tau):
                return f"type {c}, sigma={sigma}: tau={tau} is not a shuffle"
            if compose(beta, tau) != sigma:
                return f"type {c}, sigma={sigma}: beta.tau = {compose(beta, tau)}"
        shuffle_count = sum(1 for p in symmetric_group(young_n) if is_shuffle(p))
        if len(young) * shuffle_count != math.factorial(young_n):
            return f"type {c}: |Young| * |shuffles| = {len(young) * shuffle_count}"

    # stabilizer of the interval composition is exactly the Young subgroup
    def stabilizer(m, c):
        x = basis(SetComposition(interval_partition(c)))
        stab = {s for s in symmetric_group(m) if act(x, s) == x}
        if stab != set(young_subgroup(c)):
            return f"type {c}: stabilizer has {len(stab)} elements"

    return [
        ("descent-duality", by_type(), dual, lambda k: f"{k} compositions, n <= {n}"),
        ("young-factorization", zip(compositions(young_n)), factorizes,
         lambda k: f"{k * math.factorial(young_n)} factorizations over S_{young_n}"),
        ("stabilizer", ((m, c) for m in range(1, stab_n + 1) for c in compositions(m)),
         stabilizer, lambda k: f"{k} compositions, n <= {stab_n}"),
    ]


# --------------------------------------------------------------------------
# fixed-space and dimension suites


def suite_fixed_space(cfg: Config) -> list[Law]:
    n = cfg.n(4)
    # fixed_space_check's own cap, met before the first weight is checked
    check_size("fixed-space check weight", n, FIXED_SPACE_CAP)
    return [
        ("invariant-subalgebra", zip(range(1, n + 1)),
         lambda m: None if fixed_space_check(m) else f"n={m}",
         lambda _: f"orbit sums closed under o, n <= {n}")
    ]


def suite_dims(cfg: Config) -> list[Law]:
    # the set compositions the sweep would enumerate, counted before the first
    n = cfg.n(5)
    planned = sum(count_set_compositions(m) for m in range(n + 1))
    check_size("verify dims set compositions", planned, VERIFY_CASE_CAP)

    def fubini(m):
        ground, seen = frozenset(_ground(m)), set()
        for sc in enumerate_set_compositions(ground):
            if sc in seen or sc.support != ground:
                return f"n={m}: {render(basis(sc))} repeated or not on [{m}]"
            seen.add(sc)
        expected = count_set_compositions(m)
        if len(seen) != expected:
            return f"n={m}: enumerated {len(seen)}, recurrence gives {expected}"

    # on a pass every count of distinct set compositions equals the recurrence's
    return [
        ("fubini", zip(range(n + 1)), fubini,
         lambda k: " ".join(str(count_set_compositions(m)) for m in range(k)))
    ]


# --------------------------------------------------------------------------
# registry


SUITES: dict[str, Callable[[Config], list[Law]]] = {
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
    """The results of suite ``name``, or of every suite for ``all``.  Every
    suite declares its laws before the first is swept; each suite's laws are
    dropped once swept, with the tables they hold."""
    plans = [(key, SUITES[key](cfg)) for key in (SUITES if name == "all" else [name])]
    results = []
    while plans:
        suite, laws = plans.pop(0)
        results.extend(_sweep(suite, *law) for law in laws)
    return results
