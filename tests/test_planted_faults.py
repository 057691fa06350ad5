"""Planted faults and brute-force models for the graded sweep kernels.

The reciprocity sweep reads only one support-graded piece of each δ(h), the
oracle memoises word coproducts, Solomon's rule counts matrices through a
merged-state DP, ∘ runs large support groups on block masks, the
coassociativity law expands the legs of δ(x) from one table of δ, and other
laws read repeated kernel results from tables built once per sweep.  The
matched sweeps build theirs only in the splits that read them again: rows of
f ∘ l and g ∘ r in a reciprocity split with both parts nonempty, and one
h ∘ k per remarkable split.  Orbit sums and ``represent`` memoize
themselves, once per process.  Each test here either breaks an input on
purpose and checks that the law notices, counts how often a law runs or
builds a kernel, or compares a kernel with a slow model written below.  The kill-matrix rows plant a faulty kernel and
pin the laws of ``verify all`` that report it.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from twisted_descents import algebra, cli, oracle, permutations, solomon, verify
from twisted_descents.algebra import TDElement, TensorElement, basis
from twisted_descents.oracle import (
    all_words,
    b_coproduct,
    characteristic_endo,
    endo_convolution,
)
from twisted_descents.setcomp import SetComposition, compositions
from twisted_descents.solomon import DescentElement, solomon_compose
from twisted_descents.textio import render

H = SetComposition([[1, 2], [3]])
LEFT_SUPPORTS = [
    frozenset(s) for r in range(4) for s in itertools.combinations((1, 2, 3), r)
]


def _faulty_coproduct(real, left, mode, word=H):
    """δ with one term of δ(word), the first whose left leg has support ``left``, broken."""

    def coproduct(x, *args, **kwargs):
        out = real(x, *args, **kwargs)
        if set(x.terms) != {word}:
            return out
        terms = dict(out.terms)
        victim = next(k for k in terms if k[0].support == left)
        if mode == "drop":
            del terms[victim]
        else:
            terms[victim] += 1
        return TensorElement(terms)

    return coproduct


@pytest.mark.parametrize("mode", ["drop", "coefficient"])
@pytest.mark.parametrize("left", LEFT_SUPPORTS, ids=lambda s: "A=" + "".join(map(str, sorted(s))))
def test_reciprocity_sweep_catches_a_broken_coproduct_term(monkeypatch, left, mode):
    monkeypatch.setattr(verify, "coproduct", _faulty_coproduct(verify.coproduct, left, mode))
    results = verify.run_suite("reciprocity", verify.Config(max_n=3, trials=0))
    result = next(r for r in results if r.law == "matched-support")
    assert not result.ok
    # every h before H in the sweep passed, so the fault is what failed
    assert f"h={render(basis(H))}" in result.detail


def _second_term_on_left_1(h, terms):
    """δ([{1}|{2}|{3}]) with a second term on the left support {1}."""
    if h == SetComposition([[1], [2], [3]]):
        return {**terms, (SetComposition([[1]]), SetComposition([[3], [2]])): 1}
    return terms


def _without_one_block_splits(h, terms):
    """δ of a one-block h with its splits into two nonempty legs dropped."""
    if len(h) == 1:
        return {(l, r): c for (l, r), c in terms.items() if not (l and r)}
    return terms


# Each fault gives some δ(h) a piece of two terms, or of none, on a left
# support, so the matched sweep checks that h through the whole δ(h).
@pytest.mark.parametrize("fault, shown", [
    (_second_term_on_left_1, "f=1*[{1}], g=1*[{2,3}], h=1*[{1}|{2}|{3}]"),
    (_without_one_block_splits, "f=1*[{1}], g=1*[{2}], h=1*[{1,2}]"),
], ids=["second-term", "no-one-block-splits"])
def test_matched_reciprocity_checks_a_piece_of_other_than_one_term(monkeypatch, fault, shown):
    real = verify.coproduct

    def coproduct(x, *args, **kwargs):
        [h] = x.terms
        return TensorElement(fault(h, real(x, *args, **kwargs).terms))

    monkeypatch.setattr(verify, "coproduct", coproduct)
    results = verify.run_suite("reciprocity", verify.Config(max_n=3, trials=0))
    result = next(r for r in results if r.law == "matched-support")
    assert result.line() == f"FAIL [reciprocity] matched-support: {shown}"


def test_matched_reciprocity_reads_a_broken_composition_from_a_row(monkeypatch):
    # [{1,2}] ∘ [{2}|{1}] made wrong.  The left side meets it only when
    # supp h = {1,2}, in a one-sided split, whose right side makes the same
    # wrong product, so only a row of a split of {1,2,3} shows the fault.
    real = verify.compose_basis
    one, swapped = SetComposition([[1, 2]]), SetComposition([[2], [1]])

    def compose_basis(a, b):
        return SetComposition([[1], [2]]) if (a, b) == (one, swapped) else real(a, b)

    monkeypatch.setattr(verify, "compose_basis", compose_basis)
    results = verify.run_suite("reciprocity", verify.Config(max_n=3, trials=0))
    result = next(r for r in results if r.law == "matched-support")
    assert result.line() == (
        "FAIL [reciprocity] matched-support: f=1*[{3}], g=1*[{1,2}], h=1*[{2}|{1,3}]"
    )


@pytest.mark.parametrize("mode", ["drop", "coefficient"])
@pytest.mark.parametrize("left", LEFT_SUPPORTS, ids=lambda s: "A=" + "".join(map(str, sorted(s))))
def test_coassociativity_catches_a_broken_coproduct_term(monkeypatch, left, mode):
    word = SetComposition([[2], [1], [3]])
    monkeypatch.setattr(verify, "coproduct", _faulty_coproduct(verify.coproduct, left, mode, word))
    results = verify.run_suite("bialgebra", verify.Config(max_n=2))
    result = next(r for r in results if r.law == "coassociative-cocommutative")
    # no word before this one has it as a leg of its δ, so the fault is what failed
    assert result.line() == (
        "FAIL [bialgebra] coassociative-cocommutative: coassociativity fails on 1*[{2}|{1}|{3}]"
    )


def test_coassociativity_reports_a_coproduct_leg_outside_the_table(monkeypatch):
    word = SetComposition([[2], [1], [3]])
    stray = SetComposition([[9]])
    real = verify.coproduct

    def coproduct(x, *args, **kwargs):
        out = real(x, *args, **kwargs)
        if set(x.terms) != {word}:
            return out
        return TensorElement({**out.terms, (stray, word): 1})

    monkeypatch.setattr(verify, "coproduct", coproduct)
    results = verify.run_suite("bialgebra", verify.Config(max_n=2))
    result = next(r for r in results if r.law == "coassociative-cocommutative")
    assert result.line() == (
        "FAIL [bialgebra] coassociative-cocommutative:"
        " coproduct leg outside [co_n] on 1*[{2}|{1}|{3}]"
    )


def _margin_matrices(rows, cols):
    """Every nonnegative integer matrix with the given margins, by brute force."""
    candidates = [
        [v for v in itertools.product(range(r + 1), repeat=len(cols)) if sum(v) == r]
        for r in rows
    ]
    for matrix in itertools.product(*candidates):
        if all(sum(col) == c for col, c in zip(zip(*matrix), cols)):
            yield matrix


def _solomon_by_brute_force(c1, c2):
    out = {}
    for matrix in _margin_matrices(c1, c2):
        key = tuple(v for row in matrix for v in row if v)
        out[key] = out.get(key, 0) + 1
    return out


def test_solomon_matches_brute_force_margin_matrices():
    # The brute force meets the matrices in row-major lexicographic order, so
    # its keys come in the order of their first matrix, as the kernel promises.
    for m in range(6):
        comps = list(compositions(m))
        for c1, c2 in itertools.product(comps, repeat=2):
            want = _solomon_by_brute_force(c1, c2)
            assert list(solomon._flattened_matrices(c1, c2).items()) == list(want.items())
            got = solomon_compose(DescentElement({c1: 1}), DescentElement({c2: 1}))
            assert got.terms == want, (c1, c2)


def test_mutating_a_word_coproduct_leaves_the_memo_intact():
    universe = (1, 2)
    w = SetComposition([[2], [1]])
    split = (SetComposition([[1]]), SetComposition([[2]]))
    f, g = characteristic_endo((1,), universe), characteristic_endo((2,), universe)
    before = endo_convolution(f, g)
    assert before(w) == {SetComposition([[1], [2]]): 1}
    for word in all_words(universe):
        d = b_coproduct(word)
        for key in d:
            d[key] = 99
    d = b_coproduct(w)
    assert d[split] == 1 and sum(d.values()) == 4
    assert endo_convolution(f, g) == before


def _remarkable_matched(monkeypatch, name, fault):
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda a, b: fault(a, b, real(a, b)))
    results = verify.run_suite("remarkable", verify.Config(max_n=3, trials=0))
    return next(r for r in results if r.law == "matched-support")


def test_remarkable_sweep_fails_on_a_zero_left_side(monkeypatch):
    # a ∗ that loses every three-block product zeroes (f ∘ g) ∗ (h ∘ k)
    result = _remarkable_matched(
        monkeypatch, "conv_basis", lambda a, b, out: None if out and len(out.sets) == 3 else out
    )
    assert not result.ok
    assert result.detail.startswith("f=") and ", k=" in result.detail


def test_remarkable_sweep_fails_on_a_zero_matched_composition(monkeypatch):
    # f ∘ g is never zero when supp f = supp g; here it is for f = g of two blocks
    result = _remarkable_matched(
        monkeypatch, "compose_basis", lambda a, b, out: None if a == b and len(a.sets) == 2 else out
    )
    assert not result.ok
    assert result.detail.startswith("f=") and ", k=" in result.detail


def test_remarkable_sweep_reads_a_broken_composition_from_its_list(monkeypatch):
    # [{3}] ∘ [{3}] is zero, but only in the splits (A, B) with |A| = 2, where
    # the F(|A|)² = 9 pairs (f, g) read every h ∘ k from one list
    real_pairs, real = verify._disjoint_pairs, verify.compose_basis
    three, split = SetComposition([[3]]), []

    def disjoint_pairs(ground):
        for pair in real_pairs(ground):
            split[:] = pair
            yield pair

    def compose_basis(a, b):
        return None if len(split[0]) == 2 and a == b == three else real(a, b)

    monkeypatch.setattr(verify, "_disjoint_pairs", disjoint_pairs)
    monkeypatch.setattr(verify, "compose_basis", compose_basis)
    result = next(r for r in verify.run_suite("remarkable", verify.Config(max_n=3, trials=0))
                  if r.law == "matched-support")
    assert result.line() == (
        "FAIL [remarkable] matched-support: f=1*[{1,2}], g=1*[{1,2}], h=1*[{3}], k=1*[{3}]"
    )


def test_unshuffling_reports_a_zero_composition(monkeypatch):
    # ∘ of equal supports is never zero; here it is whenever it would make three blocks
    real = verify.compose_basis

    def compose_basis(a, b):
        out = real(a, b)
        return None if out is not None and len(out.sets) == 3 else out

    monkeypatch.setattr(verify, "compose_basis", compose_basis)
    results = verify.run_suite("assoc-comp", verify.Config(max_n=3, trials=0))
    result = next(r for r in results if r.law == "unshuffling")
    assert not result.ok
    assert result.detail == "sc=1*[{1,2,3}], sigma=(1, 2, 3), got 0"


def _merge_last_cut_on_masks(monkeypatch):
    # every product made on the mask path of ∘ loses its last cut, that is,
    # its last two blocks merge; the fault commutes with the S_n action.  A
    # product is one int of width-bit cut masks, its last cut in the top field.
    real = algebra._MaskGroup.multiply

    def multiply(self, a, ca, acc):
        made: dict = {}
        real(self, a, ca, made)
        width = len(self.index.labels)
        for key, c in made.items():
            top = (key.bit_length() - 1) // width * width
            if top:
                low = top - width
                merged = (key >> top) | (key >> low) & ((1 << width) - 1)
                key = key & ((1 << low) - 1) | merged << low
                self.index.set(merged)
            acc[key] = acc.get(key, 0) + c

    monkeypatch.setattr(algebra._MaskGroup, "multiply", multiply)


def test_solomon_sweep_catches_a_broken_mask_composition(monkeypatch):
    # orbit sums of weight 4 have up to 24 terms, so their ∘ runs on block masks
    cfg = verify.Config(max_n=4, seed=0)
    assert all(r.ok for r in verify.run_suite("solomon", cfg))
    _merge_last_cut_on_masks(monkeypatch)
    result = next(r for r in verify.run_suite("solomon", cfg) if r.law == "truncation")
    assert not result.ok
    assert result.detail == "(1, 1, 1, 1) o (1, 1, 1, 1)"


def test_fixed_space_catches_an_equivariant_mask_composition_fault(monkeypatch):
    # merged orbit-sum products stay closed and S_n-invariant; only their
    # comparison with Solomon's rule shows the fault
    cfg = verify.Config(max_n=4)
    assert all(r.ok for r in verify.run_suite("fixed-space", cfg))
    _merge_last_cut_on_masks(monkeypatch)
    [result] = verify.run_suite("fixed-space", cfg)
    assert not result.ok
    assert result.detail == "n=4"


# Sweep tables: a law builds each repeated kernel result once per sweep and
# reads it from then on, so a fault planted in the kernel must still reach
# every case that reads the table, and each kernel runs once per table entry.


def _calls_during(monkeypatch, name, law, module=verify):
    """The argument tuples of every call of ``module.<name>`` made while ``law`` sweeps."""
    calls, current = [], []
    real, real_sweep = getattr(module, name), verify._sweep

    def counting(*args):
        if current == [law]:
            calls.append(args)
        return real(*args)

    def sweep(suite, this_law, *rest):
        current.append(this_law)
        try:
            return real_sweep(suite, this_law, *rest)
        finally:
            current.pop()

    monkeypatch.setattr(module, name, counting)
    monkeypatch.setattr(verify, "_sweep", sweep)
    return calls


def test_random_reciprocity_expands_each_h_once(monkeypatch):
    cfg = verify.Config(max_n=3, trials=300)
    calls = _calls_during(monkeypatch, "coproduct", "random-triples")
    results = verify.run_suite("reciprocity", cfg)
    assert all(r.ok for r in results)
    rng = random.Random(cfg.seed)
    draws = [verify.random_set_composition(rng, (1, 2, 3)) for _ in range(3 * 300)]
    drawn = set(draws[2::3])  # h is the third draw of each trial
    assert len(drawn) > 10
    assert Counter(calls) == Counter((basis(h),) for h in drawn)


@pytest.mark.parametrize("mode", ["drop", "coefficient"])
def test_random_reciprocity_reads_a_broken_coproduct_from_its_table(monkeypatch, mode):
    fault = _faulty_coproduct(verify.coproduct, frozenset({3}), mode)
    monkeypatch.setattr(verify, "coproduct", fault)
    results = verify.run_suite("reciprocity", verify.Config(max_n=3, trials=300))
    result = next(r for r in results if r.law == "random-triples")
    assert not result.ok
    assert result.detail.startswith("trial ") and result.detail.endswith(f"h={render(basis(H))}")


def test_solomon_associativity_builds_each_basis_product_once(monkeypatch):
    calls = _calls_during(monkeypatch, "solomon_compose", "associativity")
    result = next(r for r in verify.run_suite("solomon", verify.Config(max_n=4))
                  if r.law == "associativity")
    assert result.ok
    by_weight = Counter(a.weight for a, _ in calls)
    sizes = {m: len(list(compositions(m))) for m in range(1, 5)}
    assert by_weight == {m: c * c + 2 * c ** 3 for m, c in sizes.items()}


def test_solomon_associativity_reads_a_broken_basis_product_from_its_table(monkeypatch):
    real = verify.solomon_compose
    pair = ({(1, 1): 1}, {(2,): 1})

    def solomon_compose(a, b):
        out = real(a, b)
        return out + a if (a.terms, b.terms) == pair else out

    monkeypatch.setattr(verify, "solomon_compose", solomon_compose)
    result = next(r for r in verify.run_suite("solomon", verify.Config(max_n=3))
                  if r.law == "associativity")
    assert not result.ok
    assert "(1, 1), (2,)" in result.detail


def test_solomon_truncation_catches_a_broken_orbit_sum(monkeypatch):
    real = solomon.orbit_sum

    def orbit_sum(c, *args, **kwargs):
        out = real(c, *args, **kwargs)
        return out - basis(next(iter(out.terms))) if tuple(c) == (2, 1) else out

    monkeypatch.setattr(solomon, "orbit_sum", orbit_sum)
    result = next(r for r in verify.run_suite("solomon", verify.Config(max_n=3))
                  if r.law == "truncation")
    assert not result.ok
    assert "(2, 1)" in result.detail


def _compose_into_another_weight(monkeypatch):
    """Solomon's rule with a weight-4 term added to every product whose left factor is (2, 1)."""
    real = solomon.solomon_compose

    def solomon_compose(a, b):
        out = real(a, b)
        return out + DescentElement({(4,): 1}) if a.terms == {(2, 1): 1} else out

    monkeypatch.setattr(solomon, "solomon_compose", solomon_compose)


def test_solomon_truncation_reports_a_product_of_another_weight(monkeypatch):
    # the stray term lies outside the weight-3 orbit-sum table; the law must
    # still compare the two routes and name the pair
    _compose_into_another_weight(monkeypatch)
    result = next(r for r in verify.run_suite("solomon", verify.Config(max_n=3))
                  if r.law == "truncation")
    assert not result.ok
    assert result.detail == "(2, 1) o (1, 1, 1)"


def test_fixed_space_reports_a_product_of_another_weight(monkeypatch):
    _compose_into_another_weight(monkeypatch)
    [result] = verify.run_suite("fixed-space", verify.Config(max_n=3))
    assert not result.ok
    assert result.detail == "n=3"


def test_solomon_truncation_builds_each_orbit_sum_once():
    # one build per composition of weight m <= 4, read by every later pair
    memo = solomon._orbit_sum
    memo.cache_clear()
    result = next(r for r in verify.run_suite("solomon", verify.Config(max_n=4))
                  if r.law == "truncation")
    assert result.ok
    info = memo.cache_info()
    assert info.misses == info.currsize == sum(2 ** (m - 1) for m in range(1, 5)) == 15


def _fubini(m):
    """The number of set compositions of an m-set: F(m) = Σ_k C(m, k) F(m − k)."""
    return 1 if m == 0 else sum(math.comb(m, k) * _fubini(m - k) for k in range(1, m + 1))


def _splits(n):
    """(|A|, |B|) for every pair of disjoint subsets A, B of [n]."""
    for a in range(n + 1):
        for b in range(n - a + 1):
            yield from itertools.repeat((a, b), math.comb(n, a) * math.comb(n - a, b))


def test_matched_reciprocity_reads_two_sided_splits_from_rows(monkeypatch):
    # every case makes f ∗ g ∘ h; a one-sided split also makes f ∘ l and
    # g ∘ r per case, a two-sided split one row entry per pair on A and on B
    calls = _calls_during(monkeypatch, "compose_basis", "matched-support")
    results = verify.run_suite("reciprocity", verify.Config(max_n=4, trials=0))
    assert results[0].ok
    want = 0
    for a, b in _splits(4):  # A ⊔ B = supp h
        fa, fb = _fubini(a), _fubini(b)
        cases = fa * fb * _fubini(a + b)
        want += cases + fa * fa + fb * fb if a and b else 3 * cases
    assert len(calls) == want == 52711


def test_matched_remarkable_makes_each_hk_once_per_split(monkeypatch):
    # per split: f ∘ g per pair on A, h ∘ k per pair on B, and one right side per case
    calls = _calls_during(monkeypatch, "compose_basis", "matched-support")
    results = verify.run_suite("remarkable", verify.Config(max_n=4, trials=0))
    assert results[0].ok
    want = sum(
        _fubini(a) ** 2 + _fubini(b) ** 2 + (_fubini(a) * _fubini(b)) ** 2
        for a, b in _splits(4)
    )
    assert len(calls) == want == 29267


def test_unshuffling_builds_each_chamber_once_per_degree(monkeypatch):
    # one chamber per sigma in S_m, m <= 4, and one sc ∘ chamber per case
    chambers = _calls_during(monkeypatch, "permutation_basis", "unshuffling")
    products = _calls_during(monkeypatch, "compose_basis", "unshuffling")
    results = verify.run_suite("assoc-comp", verify.Config(max_n=4, trials=0))
    [result] = [r for r in results if r.law == "unshuffling"]
    assert result.line() == "PASS [assoc-comp] unshuffling: exhaustive, n <= 4"
    perms = [p for m in range(5) for p in permutations.symmetric_group(m)]
    assert Counter(chambers) == Counter((p,) for p in perms)
    assert len(chambers) == 34
    assert len(products) == sum(_fubini(m) * math.factorial(m) for m in range(5)) == 1886


def test_shuffle_laws_check_each_partition_once(monkeypatch):
    # one partition check per composition c of m, and one permutation check
    # per (c, p) with p in S_m, m <= 5; young-factorization checks 8 partitions
    partitions = _calls_during(monkeypatch, "as_increasing_partition", "descent-duality",
                               module=solomon)
    perms = _calls_during(monkeypatch, "check_permutation", "descent-duality", module=solomon)
    young = _calls_during(monkeypatch, "as_increasing_partition", "young-factorization",
                          module=solomon)
    results = verify.run_suite("shuffles", verify.Config(max_n=5))
    assert all(r.ok for r in results)
    assert len(partitions) == sum(2 ** (m - 1) for m in range(1, 6)) == 31
    assert len(perms) == sum(2 ** (m - 1) * math.factorial(m) for m in range(1, 6)) == 2141
    assert len(young) == 8


def test_oracle_suite_represents_each_composition_once_per_call():
    memo = oracle._represent
    memo.cache_clear()
    cfg = verify.Config(max_support=3)
    assert all(r.ok for r in verify.run_suite("oracle", cfg))
    # every composition of a subset of [3], in every universe inside [3] that holds it
    built = memo.cache_info().misses
    assert built == memo.cache_info().currsize == 51
    assert all(r.ok for r in verify.run_suite("oracle", cfg))
    assert memo.cache_info().misses == built  # the second call builds none


def test_convolution_agreement_reads_a_broken_represent_from_its_memo(monkeypatch):
    real = oracle.represent
    victim, other = SetComposition([[1], [2]]), SetComposition([[2], [1]])

    def represent(sc, universe):
        return real(other if sc == victim else sc, universe)

    monkeypatch.setattr(oracle, "represent", represent)
    result = next(r for r in verify.run_suite("oracle", verify.Config(max_support=3))
                  if r.law == "convolution-agreement")
    assert result.line() == "FAIL [oracle] convolution-agreement: a=1*[{1}], b=1*[{2}]"


def _killing_laws():
    """The laws of ``verify all`` at n, support <= 3 that fail on a case."""
    results = verify.run_suite("all", verify.Config(max_n=3, max_support=3, seed=0))
    return {f"{r.suite}/{r.law}" for r in results if not r.ok and not r.vacuous}


def _plant(monkeypatch, name, kernel):
    """Plant ``kernel`` under ``name`` in every module that calls it by that name."""
    for module in (algebra, solomon, verify):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, kernel)


# Kill matrix for compose_basis: each mutant breaks one branch of the cut,
# and the laws that must report it are listed by suite and law.
def _plant_compose_basis(monkeypatch, cut):
    def compose_basis(a, b):
        if a.support != b.support:
            return None
        sets = [cut(s, t) for s in a.sets for t in b.sets if not s.isdisjoint(t)]
        return SetComposition._make(tuple(sets), a.support)

    _plant(monkeypatch, "compose_basis", compose_basis)


def _larger_block_on_subset(s, t):
    return s if t <= s or s <= t else s & t


def _t_on_partial_overlap(s, t):
    return t if t <= s else s if s <= t else t


def _s_on_partial_overlap(s, t):
    return t if t <= s else s


PARTIAL_OVERLAP_KILLERS = {
    "assoc-comp/associativity", "bialgebra/compose-law", "reciprocity/matched-support",
    "reciprocity/all-triples-small", "reciprocity/random-triples",
    "oracle/composition-agreement", "solomon/truncation",
    "solomon/orbit-structure-constants", "fixed-space/invariant-subalgebra",
}


@pytest.mark.parametrize("cut, killers", [
    (_larger_block_on_subset, PARTIAL_OVERLAP_KILLERS | {
        "assoc-comp/degreewise-unit", "assoc-comp/unshuffling",
        "shuffles/descent-duality", "shuffles/young-factorization",
    }),
    (_t_on_partial_overlap, PARTIAL_OVERLAP_KILLERS),
    (_s_on_partial_overlap, PARTIAL_OVERLAP_KILLERS),
], ids=["larger-block-on-subset", "t-on-partial-overlap", "s-on-partial-overlap"])
def test_compose_basis_mutant_is_killed(monkeypatch, cut, killers):
    _plant_compose_basis(monkeypatch, cut)
    assert _killing_laws() == killers


# Kill-matrix rows for the shortcuts of compose_basis and tensor_composition:
# each mutant takes a shortcut where the kernel may not.  Returning a whenever
# the cut count equals len(a.sets) is no mutant: every block of a gives at
# least one cut, and exactly one only when it lies in a block of b.
def _break_after_any_overlap(a, b):
    if a.support != b.support:
        return None
    sets = []
    for s in a.sets:
        for t in b.sets:
            if not s.isdisjoint(t):
                sets.append(t if t <= s else s if s <= t else s & t)
                break
    return SetComposition._make(tuple(sets), a.support)


def _b_on_its_cut_count(a, b, real=algebra.compose_basis):
    out = real(a, b)
    return b if out is not None and len(out.sets) == len(b.sets) else out


def _empty_when_first_term_misses(x, y, real=algebra.tensor_composition):
    supports = {(l.support, r.support) for l, r in x.terms}
    first = next(iter(y.terms), None)
    if first is not None and (first[0].support, first[1].support) not in supports:
        return TensorElement({})
    return real(x, y)


@pytest.mark.parametrize("name, kernel, killers", [
    ("compose_basis", _break_after_any_overlap, {
        "assoc-comp/associativity", "assoc-comp/degreewise-unit", "assoc-comp/unshuffling",
        "bialgebra/compose-law", "oracle/composition-agreement", "solomon/truncation",
        "solomon/orbit-structure-constants", "shuffles/descent-duality",
        "shuffles/young-factorization", "fixed-space/invariant-subalgebra",
    }),
    ("compose_basis", _b_on_its_cut_count, {
        "assoc-comp/associativity", "assoc-comp/chamber-absorption", "assoc-comp/unshuffling",
        "bialgebra/compose-law", "reciprocity/matched-support",
        "reciprocity/all-triples-small", "reciprocity/random-triples",
        "oracle/composition-agreement", "solomon/truncation", "shuffles/descent-duality",
        "shuffles/young-factorization", "fixed-space/invariant-subalgebra",
    }),
    ("tensor_composition", _empty_when_first_term_misses, {
        "reciprocity/all-triples-small", "reciprocity/random-triples",
    }),
], ids=["break-after-any-overlap", "b-on-its-cut-count", "empty-when-first-term-misses"])
def test_kernel_shortcut_mutant_is_killed(monkeypatch, name, kernel, killers):
    _plant(monkeypatch, name, kernel)
    assert _killing_laws() == killers


# Kill-matrix rows for the shortcuts of ∗ beside an empty operand.
def _a_beside_one_block(a, b, real=algebra.conv_basis):
    out = real(a, b)
    return a if out is not None and len(b.sets) == 1 else out


def _empty_a_in_place_of_b(a, b, real=algebra.conv_basis):
    return a if not a.sets else real(a, b)


CONV_SHORTCUT_KILLERS = {
    "assoc-conv/associativity", "assoc-conv/unit", "bialgebra/convolution-law",
    "bialgebra/non-graded-witness", "oracle/convolution-agreement",
    "reciprocity/matched-support", "reciprocity/all-triples-small",
    "reciprocity/random-triples",
}


@pytest.mark.parametrize("kernel, killers", [
    (_a_beside_one_block, CONV_SHORTCUT_KILLERS | {
        "remarkable/matched-support", "remarkable/all-quadruples-small",
        "remarkable/random-quadruples",
    }),
    (_empty_a_in_place_of_b, CONV_SHORTCUT_KILLERS),
], ids=["a-beside-one-block", "empty-a-in-place-of-b"])
def test_conv_basis_shortcut_mutant_is_killed(monkeypatch, kernel, killers):
    _plant(monkeypatch, "conv_basis", kernel)
    assert _killing_laws() == killers


def _first_term_per_support_pair(y):
    groups: dict = {}
    for (l, r), c in y.terms.items():
        groups.setdefault((l.support, r.support), [(l, r, c)])
    return groups


def test_a_leg_support_index_that_drops_terms_survives_verify_all(monkeypatch):
    # The right operand of ∘₂ in every law is the δ(h) of a basis h, which
    # has one term per pair of leg supports, so no law sees the dropped
    # terms.  The all-pairs property test does: its first failing draw comes
    # at once, but shrinking it takes seconds, so its body runs here on one
    # element of the kind it draws, whose δ has two terms on ({1,2}, ∅).
    import test_properties

    monkeypatch.setattr(algebra, "_leg_support_groups", _first_term_per_support_pair)
    assert _killing_laws() == set()
    check = test_properties.test_tensor_composition_matches_all_pairs.hypothesis.inner_test
    cancelling = TDElement({SetComposition([[1], [2]]): 1, SetComposition([[1, 2]]): -1})
    with pytest.raises(AssertionError):
        check(cancelling, TDElement({}), TDElement({}), TDElement({}))


# Kill-matrix rows for Solomon's matrices and the right action.
def _matrices_below_top(rows, cols):
    """``_flattened_matrices`` with every column range one below its top value."""
    states = {(cols, ()): 1}
    for total in rows[:-1]:
        nxt = {}
        for (remaining, prefix), count in states.items():
            for row in itertools.product(*[range(min(total, r)) for r in remaining]):
                if sum(row) == total:
                    key = (tuple(r - v for r, v in zip(remaining, row)),
                           prefix + tuple(v for v in row if v))
                    nxt[key] = nxt.get(key, 0) + count
        states = nxt
    out = {}
    for (remaining, prefix), count in states.items():
        key = prefix + tuple(v for v in remaining if v)
        out[key] = out.get(key, 0) + count
    return out


def _margins_swapped(rows, cols, real=solomon._flattened_matrices):
    return real(cols, rows)


def _act_through_p(x, p, real=algebra.act):
    """The right action with blocks pulled back through p, not p⁻¹."""
    return real(x, permutations.inverse(permutations.check_permutation(p)))


MATRICES_MUTANTS = [
    (_matrices_below_top, {
        "solomon/truncation", "solomon/unit", "fixed-space/invariant-subalgebra",
    }),
    (_margins_swapped, {"solomon/truncation", "fixed-space/invariant-subalgebra"}),
]


@pytest.mark.parametrize("name, kernel, killers", [
    *(("_flattened_matrices", *row) for row in MATRICES_MUTANTS),
    ("act", _act_through_p, {"equivariance/right-action"}),
], ids=["ranges-below-top", "margins-swapped", "act-through-p"])
def test_solomon_and_action_mutant_is_killed(monkeypatch, name, kernel, killers):
    _plant(monkeypatch, name, kernel)
    assert _killing_laws() == killers


# The memo of margin pairs is the function planted over, so a mutant planted
# after a sweep has filled it still runs on every pair.  A fault planted
# beneath that name would be hidden by the pairs already held; the fixture
# in ``conftest.py`` clears every memo before each test, so only a warm-up
# inside the test itself, as here, fills one.
@pytest.mark.parametrize("kernel, killers", MATRICES_MUTANTS,
                         ids=["ranges-below-top", "margins-swapped"])
def test_a_matrices_mutant_planted_over_a_warm_memo_is_killed(monkeypatch, kernel, killers):
    assert all(r.ok for r in verify.run_suite("solomon", verify.Config(max_n=3, seed=0)))
    assert solomon._flattened_matrices.cache_info().currsize >= 21
    _plant(monkeypatch, "_flattened_matrices", kernel)
    assert _killing_laws() == killers


# Kill-matrix row for the chambers of permutations: unshuffling builds its
# table of chambers through the name it looks up as the sweep runs.
def _reversed_chamber(p, real=algebra.permutation_basis):
    return real(tuple(p)[::-1])


def test_permutation_basis_mutant_is_killed(monkeypatch):
    _plant(monkeypatch, "permutation_basis", _reversed_chamber)
    assert _killing_laws() == {"assoc-comp/unshuffling"}


# Kill-matrix rows for δ: each mutant breaks every coproduct the laws take.
def _last_term_dropped(x, *args, real=algebra.coproduct):
    return TensorElement(dict(list(real(x, *args).terms.items())[:-1]))


def _two_block_left_legs_reversed(x, *args, real=algebra.coproduct):
    out: dict = {}
    for (l, r), c in real(x, *args).terms.items():
        key = (SetComposition(l.sets[::-1]) if len(l.sets) == 2 else l, r)
        out[key] = out.get(key, 0) + c
    return TensorElement(out)


def _first_coefficient_doubled(x, *args, real=algebra.coproduct):
    terms = dict(real(x, *args).terms)
    for key in terms:
        terms[key] *= 2
        break
    return TensorElement(terms)


COPRODUCT_KILLERS = {
    "bialgebra/coassociative-cocommutative", "bialgebra/convolution-law",
    "reciprocity/all-triples-small", "reciprocity/matched-support",
    "reciprocity/random-triples",
}


@pytest.mark.parametrize("kernel, killers", [
    (_last_term_dropped, COPRODUCT_KILLERS | {"bialgebra/non-graded-witness"}),
    (_two_block_left_legs_reversed, COPRODUCT_KILLERS | {"bialgebra/compose-law"}),
    (_first_coefficient_doubled,
     COPRODUCT_KILLERS | {"bialgebra/non-graded-witness", "bialgebra/compose-law"}),
], ids=["drop-last-term", "reverse-two-block-left-legs", "double-first-coefficient"])
def test_coproduct_mutant_is_killed(monkeypatch, kernel, killers):
    _plant(monkeypatch, "coproduct", kernel)
    assert _killing_laws() == killers


def _last_word_split_dropped(u, real=oracle.b_coproduct):
    return dict(list(real(u).items())[:-1])


def test_an_oracle_coproduct_that_drops_its_last_term_is_killed(monkeypatch):
    # the last split of a word u is (u, ∅); verify reads δ of words as orc.b_coproduct
    monkeypatch.setattr(oracle, "b_coproduct", _last_word_split_dropped)
    assert _killing_laws() == {
        "oracle/coproduct-product-compatibility", "oracle/word-coproduct-cocommutative",
    }


# Kill-matrix rows for the oracle's ``represent``, planted over its memo by
# the name that verify and ``endo_of`` call.
def _last_block_dropped(sc, universe, real=oracle.represent):
    return real(SetComposition(sc.sets[:-1]) if len(sc.sets) >= 2 else sc, universe)


def _block_order_reversed(sc, universe, real=oracle.represent):
    return real(SetComposition(sc.sets[::-1]), universe)


@pytest.mark.parametrize("kernel, killers", [
    (_last_block_dropped, {"oracle/composition-agreement", "oracle/convolution-agreement"}),
    (_block_order_reversed, {"oracle/convolution-agreement"}),
], ids=["drop-last-block", "reverse-block-order"])
def test_represent_mutant_is_killed(monkeypatch, kernel, killers):
    monkeypatch.setattr(oracle, "represent", kernel)
    assert _killing_laws() == killers


def test_a_clean_that_keeps_zero_coefficients_survives_verify_all(monkeypatch):
    # No law of ``verify all`` compares an element in which terms cancel, so
    # none sees a zero coefficient kept.  The element arithmetic test does:
    # a − a keeps a zero term and is not the zero element.
    import test_algebra

    _plant(monkeypatch, "_clean", lambda terms: terms)
    assert _killing_laws() == set()
    with pytest.raises(AssertionError):
        test_algebra.test_element_arithmetic()


# Kill-matrix rows for the descent classes, planted through the name solomon calls.
def _drop_last_member(c):
    members = list(permutations.descent_class(c))
    return members[:-1] if len(members) >= 2 else members


def _blocks_last_first(c):
    cuts = [0, *itertools.accumulate(c)]
    spans = list(zip(cuts, cuts[1:]))[::-1]
    for p in permutations.descent_class(c):
        yield tuple(x for a, b in spans for x in p[a:b])


@pytest.mark.parametrize("build", [_drop_last_member, _blocks_last_first],
                         ids=["drop-last-member", "blocks-last-first"])
def test_descent_class_mutant_is_killed(monkeypatch, build):
    monkeypatch.setattr(solomon, "_descent_class_perms", build)
    assert _killing_laws() == {"shuffles/descent-duality"}


def test_composition_laws_report_a_result_that_is_no_composition(monkeypatch):
    # [{1,2}] ∘ [{1}|{2}] becomes [{1,2}|{1,2}]: no word table holds it, and
    # the Young chamber of (1, 2) at the identity repeats the block {2,3}
    _plant_compose_basis(monkeypatch, _larger_block_on_subset)
    cfg = verify.Config(max_n=3, max_support=3)
    agreement = next(
        r for r in verify.run_suite("oracle", cfg) if r.law == "composition-agreement"
    )
    assert agreement.line() == (
        "FAIL [oracle] composition-agreement: a=1*[{1,2}], b=1*[{1}|{2}]"
    )
    young = next(r for r in verify.run_suite("shuffles", cfg) if r.law == "young-factorization")
    assert young.line() == (
        "FAIL [shuffles] young-factorization: type (1, 2), sigma=(1, 2, 3):"
        " SetComposition[{1}|{2,3}|{2,3}] is not a chamber"
    )


# Kill-matrix rows for faults the count alone cannot see, and for a kernel
# that raises: each law that meets the raise reports it as a failed case.
def _first_again_for_last(s, real=verify.enumerate_set_compositions):
    """The enumeration with its last result replaced by its first, on 3 or more labels."""
    out = list(real(s))
    if len(frozenset(s)) >= 3:
        out[-1] = out[0]
    yield from out


def test_an_enumeration_that_repeats_a_result_is_killed(monkeypatch):
    monkeypatch.setattr(verify, "enumerate_set_compositions", _first_again_for_last)
    results = verify.run_suite("all", verify.Config(max_n=3, max_support=3, seed=0))
    assert len(results) == 39
    assert {f"{r.suite}/{r.law}" for r in results if not r.ok and not r.vacuous} == {
        "bialgebra/coassociative-cocommutative", "oracle/composition-agreement",
        "oracle/freeness-separation", "dims/fubini",
    }
    [fubini] = verify.run_suite("dims", verify.Config(max_n=3))
    assert fubini.line() == "FAIL [dims] fubini: n=3: 1*[{1,2,3}] repeated or not on [3]"


def _plant_raising_compose_basis(monkeypatch):
    """``compose_basis`` raising on [{1,2}] ∘ [{2}|{1}] alone."""
    real = algebra.compose_basis
    pair = (SetComposition([[1, 2]]), SetComposition([[2], [1]]))

    def compose_basis(a, b):
        if (a, b) == pair:
            raise ValueError("planted on one pair")
        return real(a, b)

    _plant(monkeypatch, "compose_basis", compose_basis)


RAISING_COMPOSE_BASIS_KILLERS = {
    "assoc-comp/associativity", "assoc-comp/degreewise-unit", "assoc-comp/unshuffling",
    "bialgebra/compose-law", "reciprocity/matched-support", "reciprocity/all-triples-small",
    "remarkable/matched-support", "remarkable/all-quadruples-small",
    "remarkable/random-quadruples", "oracle/composition-agreement", "solomon/truncation",
    "solomon/orbit-structure-constants", "equivariance/compose-equivariance",
    "shuffles/descent-duality", "fixed-space/invariant-subalgebra",
}


def test_a_compose_basis_that_raises_is_killed(monkeypatch):
    _plant_raising_compose_basis(monkeypatch)
    results = verify.run_suite("all", verify.Config(max_n=3, max_support=3, seed=0))
    assert len(results) == 39
    failed = [r for r in results if not r.ok and not r.vacuous]
    assert {f"{r.suite}/{r.law}" for r in failed} == RAISING_COMPOSE_BASIS_KILLERS
    assert all(r.detail.endswith(": ValueError: planted on one pair") for r in failed)
    [oracle_result] = [r for r in failed if r.suite == "oracle"]
    assert oracle_result.detail == "case 7: ValueError: planted on one pair"


def test_verify_all_reports_a_compose_basis_that_raises_as_failed_laws(monkeypatch, capsys):
    _plant_raising_compose_basis(monkeypatch)
    code = cli.main(["verify", "all", "--max-n", "3", "--max-support", "3"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_VERIFY
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 40
    fails = [line for line in lines if line.startswith("FAIL ")]
    assert len(fails) == len(RAISING_COMPOSE_BASIS_KILLERS)
    assert all("ValueError: planted on one pair" in line for line in fails)
    # the two random equivariance laws start at n = 4, so they are VACUOUS here
    assert sum(line.startswith("VACUOUS ") for line in lines) == 2
    assert lines[-1] == "22/39 laws hold"
