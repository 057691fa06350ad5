import itertools
import math

import pytest

from twisted_descents import solomon, verify
from twisted_descents.algebra import TDElement, basis, composition_product
from twisted_descents.limits import MAX_TERMS, SizeLimitError
from twisted_descents.permutations import (
    compose,
    descent_set,
    identity,
    inverse,
    shuffles,
    young_subgroup,
)
from twisted_descents.setcomp import (
    SetComposition,
    as_increasing_partition,
    compositions,
    interval_partition,
    multinomial,
)
from twisted_descents.solomon import (
    DescentElement,
    GroupAlgebraElement,
    descent_basis_expand,
    descent_class,
    descent_to_orbit,
    fixed_space_check,
    orbit_sum,
    shuffle_test,
    solomon_compose,
    star,
    truncation_check,
    young_decompose,
)
from twisted_descents.textio import parse


def one(c):
    return DescentElement({tuple(c): 1})


def test_descent_element_validation():
    with pytest.raises(ValueError):
        DescentElement({(1, 2): 1, (1,): 1})  # mixed weights
    with pytest.raises(ValueError):
        DescentElement({(0, 2): 1})
    assert DescentElement({}).weight is None
    assert one((2, 1)).weight == 3
    # list keys are normalised before they are looked up and stored
    assert DescentElement([([1, 1], 1), ((1, 1), 2)]) == DescentElement({(1, 1): 3})
    assert GroupAlgebraElement([([2, 1], 1), ((2, 1), -1)]) == GroupAlgebraElement({})


def test_group_algebra_validation():
    with pytest.raises(ValueError):
        GroupAlgebraElement({(1, 2): 1, (1,): 1})
    with pytest.raises(ValueError):
        GroupAlgebraElement({(1, 3): 1})
    with pytest.raises(ValueError, match=r"^permutation entry 1\.0 is not an integer$"):
        GroupAlgebraElement({(1.0,): 1})
    assert GroupAlgebraElement({}).degree is None


def test_graded_elements_name_their_mixed_grades():
    with pytest.raises(ValueError, match=r"^mixed weights \[1, 3\] in one element$"):
        DescentElement({(1, 2): 1, (1,): 1})
    with pytest.raises(ValueError, match=r"^mixed degrees \[1, 2\] in one element$"):
        GroupAlgebraElement({(2, 1): 1, (1,): 1})


def test_graded_elements_report_their_grade():
    assert DescentElement({}).weight is None
    assert DescentElement({(2, 1): 1, (1, 1, 1): -1}).weight == 3
    assert GroupAlgebraElement({}).degree is None
    assert GroupAlgebraElement({(2, 3, 1): 1, (1, 2, 3): 2}).degree == 3


def test_graded_elements_have_no_instance_dict():
    for x in (DescentElement({(2,): 1}), GroupAlgebraElement({(1, 2): 1})):
        assert not hasattr(x, "__dict__")
        with pytest.raises(AttributeError):
            x.extra = 1


def test_reprs_share_the_signed_term_renderer():
    assert repr(DescentElement({(1, 1): 1, (2,): -2})) == "<DescentElement 1*(1,1) - 2*(2)>"
    assert repr(DescentElement({(2,): -1})) == "<DescentElement -1*(2)>"
    assert repr(DescentElement({})) == "<DescentElement 0>"
    x = GroupAlgebraElement({(2, 1): -1, (1, 2): 3})
    assert repr(x) == "<GroupAlgebraElement 3*(1,2) - 1*(2,1)>"
    assert repr(GroupAlgebraElement({})) == "<GroupAlgebraElement 0>"


def test_solomon_product_worked_examples():
    assert solomon_compose(one((1, 1)), one((1, 1))) == DescentElement({(1, 1): 2})
    assert solomon_compose(one((2,)), one((1, 1))) == one((1, 1))
    assert solomon_compose(one((1, 1)), one((2,))) == one((1, 1))
    # rows (1,2), cols (2,1): matrices [[1,0],[1,1]] and [[0,1],[2,0]]
    assert solomon_compose(one((1, 2)), one((2, 1))) == DescentElement(
        {(1, 1, 1): 1, (1, 2): 1}
    )
    # weight mismatch contributes nothing
    assert solomon_compose(one((1,)), one((1, 1))) == DescentElement({})


def test_solomon_is_capped_before_its_first_matrix(monkeypatch):
    ones = one((1,) * 14)
    with pytest.raises(SizeLimitError) as err:
        solomon_compose(ones, ones)
    assert (err.value.cap, err.value.requested) == (13, 14)
    assert solomon_compose(one((13,)), one((13,))) == one((13,))

    def no_matrices(rows, cols):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(solomon, "_flattened_matrices", no_matrices)
    with pytest.raises(SizeLimitError) as err:
        solomon_compose(ones, ones)
    assert (err.value.cap, err.value.requested) == (13, 14)
    # the rule looks the kernel up by name, so a margin pair the memo holds
    # reaches the planted kernel too
    with pytest.raises(AssertionError, match="a matrix was built"):
        solomon_compose(one((13,)), one((13,)))


def test_the_matrix_memo_matches_the_dp_on_every_margin_pair_of_weight_up_to_6():
    memo = solomon._flattened_matrices
    memo.cache_clear()
    pairs = [pair for m in range(7) for pair in itertools.product(compositions(m), repeat=2)]
    for c1, c2 in pairs:
        want = list(memo.__wrapped__(c1, c2).items())
        cold = memo(c1, c2)
        warm = memo(c1, c2)
        assert warm is cold
        assert list(cold.items()) == want, (c1, c2)
    info = memo.cache_info()
    assert info.hits == info.misses == len(pairs) == 1 + sum(4 ** (m - 1) for m in range(1, 7))
    assert info.currsize == info.maxsize == 1024


def test_a_memo_entry_is_read_only():
    memo = solomon._flattened_matrices
    entry = memo((1, 2), (2, 1))
    with pytest.raises(TypeError):
        entry[(1, 2)] = 5
    with pytest.raises(TypeError):
        del entry[(1, 1, 1)]
    # rows (1,2), cols (2,1): matrices [[0,1],[2,0]] and [[1,0],[1,1]], in that order
    assert list(memo((1, 2), (2, 1)).items()) == [((1, 2), 1), ((1, 1, 1), 1)]
    assert solomon_compose(one((1, 2)), one((2, 1))) == DescentElement(
        {(1, 1, 1): 1, (1, 2): 1}
    )


def test_the_solomon_suite_counts_each_margin_pair_once():
    # one miss per margin pair (c1, c2) of weight m <= 4: (2^(m-1))^2 of each weight
    memo = solomon._flattened_matrices
    memo.cache_clear()
    results = verify.run_suite("solomon", verify.Config(max_n=4, max_support=3, seed=0))
    assert all(r.ok for r in results)
    info = memo.cache_info()
    assert info.misses == info.currsize == sum(4 ** (m - 1) for m in range(1, 5)) == 85


def test_solomon_unit_and_associativity():
    for n in range(1, 6):
        e = one((n,))
        for c in compositions(n):
            assert solomon_compose(e, one(c)) == one(c)
            assert solomon_compose(one(c), e) == one(c)
    for n in range(1, 5):
        comps = [one(c) for c in compositions(n)]
        for a, b, c in itertools.product(comps, repeat=3):
            assert solomon_compose(solomon_compose(a, b), c) == solomon_compose(
                a, solomon_compose(b, c)
            )


def test_solomon_structure_constants_are_nonnegative():
    for n in range(1, 5):
        for c1 in compositions(n):
            for c2 in compositions(n):
                product = solomon_compose(one(c1), one(c2))
                assert all(v > 0 for v in product.terms.values())
                # total mass: product of multinomials / ...? just check weight
                assert product.weight == n


def test_orbit_sum_shares_equal_blocks_within_a_call():
    terms = list(orbit_sum((2, 1, 1)).terms)
    assert len(terms) == multinomial((2, 1, 1)) == 12
    shared: dict = {}
    for sc in terms:
        for block in sc.sets:
            assert shared.setdefault(block, block) is block
    assert len(shared) == 10  # six pairs and four singletons of [4]
    again = next(iter(orbit_sum((2, 1, 1)).terms))
    assert again is terms[0]  # a repeat call reads the memo's element


def test_the_orbit_sum_memo_matches_its_build_on_every_composition_of_weight_up_to_6():
    memo = solomon._orbit_sum
    comps = [c for m in range(7) for c in compositions(m)]
    for c in comps:
        want = list(memo.__wrapped__(c).terms.items())
        cold = orbit_sum(c)
        assert orbit_sum(list(c)) is cold
        assert list(cold.terms.items()) == want, c
    info = memo.cache_info()
    assert info.hits == info.misses == len(comps) == 2 ** 6
    assert info.currsize == info.maxsize == 64


def test_orbit_sum_examples():
    assert orbit_sum((1, 1)) == parse("[{1}|{2}] + [{2}|{1}]")
    assert orbit_sum((2,)) == parse("[{1,2}]")
    assert len(orbit_sum((2, 1))) == 3
    assert len(orbit_sum((1, 1, 1))) == 6
    with pytest.raises(SizeLimitError) as err:
        orbit_sum((5, 5, 5, 5, 5))
    assert (err.value.cap, err.value.requested) == (2**24, multinomial((5, 5, 5, 5, 5)))


def test_descent_basis_expand():
    got = descent_basis_expand((1, 2), {2, 5, 7})
    assert got == parse("[{2}|{5,7}] + [{5}|{2,7}] + [{7}|{2,5}]")
    assert descent_basis_expand((), ()) == parse("1*[]")
    with pytest.raises(ValueError):
        descent_basis_expand((2,), {1, 2, 3})


def test_truncation_embedding_is_multiplicative():
    for n in range(1, 5):
        for c1 in compositions(n):
            for c2 in compositions(n):
                assert truncation_check(one(c1), one(c2)), (c1, c2)
    # and on a non-basis element
    a = one((1, 2)) - 2 * one((3,))
    b = one((2, 1))
    assert truncation_check(a, b)
    assert descent_to_orbit(a) == orbit_sum((1, 2)) - 2 * orbit_sum((3,))


def test_descent_class_members():
    d = descent_class((2, 1))
    assert d == GroupAlgebraElement({(1, 2, 3): 1, (1, 3, 2): 1, (2, 3, 1): 1})
    for p in d.terms:
        assert descent_set(p) <= {2}
    assert len(descent_class((1, 1, 1)).terms) == 6
    assert len(descent_class((5, 5)).terms) == multinomial((5, 5)) == 252


def _no_member_built(c):
    raise AssertionError(f"a member of D_{c} was built")


def test_descent_class_is_capped_by_its_size_like_an_orbit_sum(monkeypatch):
    assert descent_class((12,)) == GroupAlgebraElement({identity(12): 1})
    monkeypatch.setattr(solomon, "_descent_class_perms", _no_member_built)
    # one rule for both families of type c: at most MAX_TERMS members
    for c, requested in [((1,) * 11, 39916800), ((1,) * 9 + (2,), 19958400)]:
        for family in (descent_class, orbit_sum):
            with pytest.raises(SizeLimitError) as err:
                family(c)
            assert (err.value.cap, err.value.requested) == (MAX_TERMS, requested)


def test_descent_classes_span_solomon_algebra():
    """Multiplying descent classes lands back in the span of descent classes.

    With ``compose(p, q) = p o q``, the map C -> D_C reverses products: the
    group-algebra product D_C1 . D_C2 expands with the structure constants
    of the matrix rule applied in the opposite order.
    """
    n = 4
    span = {c: descent_class(c) for c in compositions(n)}

    for c1, d1 in span.items():
        for c2, d2 in span.items():
            product: dict = {}
            for p, cp in d1.terms.items():
                for q, cq in d2.terms.items():
                    r = compose(p, q)
                    product[r] = product.get(r, 0) + cp * cq
            expected: dict = {}
            for c, coeff in solomon_compose(one(c2), one(c1)).terms.items():
                for p, cp in span[c].terms.items():
                    expected[p] = expected.get(p, 0) + coeff * cp
            assert {k: v for k, v in product.items() if v} == expected, (c1, c2)


def test_star_is_an_involution():
    d = descent_class((2, 2))
    assert star(star(d)) == d
    assert star(GroupAlgebraElement({(2, 3, 1): 1})) == GroupAlgebraElement(
        {(3, 1, 2): 1}
    )


def test_shuffle_test_examples():
    assert shuffle_test((2, 1), (1, 3, 2))
    assert shuffle_test((2, 1), (3, 1, 2))
    assert not shuffle_test((2, 1), (2, 1, 3))
    assert shuffle_test(({1, 2}, {3}), (1, 3, 2))
    with pytest.raises(ValueError):
        shuffle_test((2, 1), (1, 2))
    with pytest.raises(ValueError):
        shuffle_test(({1, 3}, {2}), (1, 2, 3))  # not an increasing partition


def test_explicit_blocks_take_only_integer_labels():
    # each block is read as a ground set, as SetComposition reads it
    with pytest.raises(ValueError, match=r"^ground-set label True is not an integer$"):
        as_increasing_partition(({True, 2},))
    with pytest.raises(ValueError, match=r"^ground-set label 2\.0 is not an integer$"):
        as_increasing_partition(({1}, {2.0}))
    with pytest.raises(ValueError, match=r"^ground-set label '[ab]' is not an integer$"):
        shuffle_test(("ab",), (1, 2))


def test_shuffle_test_matches_enumeration():
    for parts in [(1, 1), (2, 1), (2, 2), (1, 3)]:
        n = sum(parts)
        members = set(shuffles(parts))
        assert len(members) == multinomial(parts)
        for p in itertools.permutations(range(1, n + 1)):
            assert shuffle_test(parts, p) == (p in members)


def test_a_partition_checked_once_tests_as_shuffle_test_and_young_decompose_do():
    for n in range(1, 6):
        perms = list(itertools.permutations(range(1, n + 1)))
        for c in compositions(n):
            parts = interval_partition(c)
            is_shuffle, decompose = solomon._partition_tests(parts)
            assert {p for p in perms if shuffle_test(parts, p)} == set(shuffles(c))
            assert [is_shuffle(p) for p in perms] == [shuffle_test(parts, p) for p in perms]
            assert [decompose(p) for p in perms] == [young_decompose(parts, p) for p in perms]


def _unread():
    """A permutation that fails the test if anything reads it."""
    raise AssertionError("the permutation was read")
    yield


@pytest.mark.parametrize("parts, text", [
    ((0, 2), r"^composition part 0 is not a positive integer$"),
    (({1, 3}, {2}), r"is not an increasing partition of \[3\]$"),
])
def test_a_bad_partition_is_refused_before_any_permutation(parts, text):
    with pytest.raises(ValueError, match=text):
        solomon._partition_tests(parts)
    for test in (shuffle_test, young_decompose):
        with pytest.raises(ValueError, match=text):
            test(parts, _unread())


def test_a_partition_checked_once_still_checks_every_permutation():
    is_shuffle, decompose = solomon._partition_tests((2, 1))
    assert is_shuffle((1, 3, 2)) and not is_shuffle((2, 1, 3))
    for test in (is_shuffle, decompose):
        with pytest.raises(ValueError, match=r"^\(1, 1, 2\) is not a permutation of 1\.\.3$"):
            test((1, 1, 2))
        with pytest.raises(ValueError, match=r"^permutation entry 2\.0 is not an integer$"):
            test((2.0, 1, 3))
        with pytest.raises(ValueError,
                           match=r"^permutation degree 2 does not match partition of \[3\]$"):
            test((2, 1))


def test_young_decompose_examples():
    # identity partition: everything is already a shuffle
    assert young_decompose((1, 1, 1), (3, 1, 2)) == ((1, 2, 3), (3, 1, 2))
    # single block: everything is in the Young subgroup
    assert young_decompose((3,), (3, 1, 2)) == ((3, 1, 2), (1, 2, 3))
    beta, tau = young_decompose((2, 2), (2, 4, 1, 3))
    assert beta == (2, 1, 4, 3) and tau == (1, 3, 2, 4)
    assert compose(beta, tau) == (2, 4, 1, 3)


def test_young_decompose_is_a_bijection():
    for parts in [(2, 2), (1, 3), (2, 1, 1)]:
        n = sum(parts)
        young = set(young_subgroup(parts))
        shuffle_set = set(shuffles(parts))
        assert len(young) * len(shuffle_set) == math.factorial(n)
        seen = set()
        for p in itertools.permutations(range(1, n + 1)):
            beta, tau = young_decompose(parts, p)
            assert beta in young and tau in shuffle_set
            assert compose(beta, tau) == p
            seen.add((beta, tau))
        assert len(seen) == math.factorial(n)


def test_stabilizer_is_young_subgroup():
    from twisted_descents.algebra import act
    from twisted_descents.permutations import symmetric_group
    from twisted_descents.setcomp import interval_partition

    parts = (2, 1)
    x = basis(SetComposition(interval_partition(parts)))
    young = set(young_subgroup(parts))
    for s in symmetric_group(3):
        assert (act(x, s) == x) == (s in young)


def test_fixed_space_check_builds_each_orbit_sum_once():
    memo = solomon._orbit_sum
    memo.cache_clear()
    assert fixed_space_check(4)
    info = memo.cache_info()
    assert info.misses == info.currsize == len(list(compositions(4))) == 8


def _fold_to_orbit(a):
    """The termwise fold ``descent_to_orbit`` replaced, kept as a reference."""
    out = TDElement({})
    for c, coeff in a.terms.items():
        out = out + coeff * orbit_sum(c)
    return out


def test_descent_to_orbit_matches_the_termwise_fold():
    for n in range(6):
        comps = list(compositions(n))
        elements = [DescentElement({c: (-1) ** i * (i + 2) for i, c in enumerate(comps)})]
        elements += [one(c) - one(c) for c in comps]  # cancels to zero
        elements += [DescentElement({c1: 2, c2: -3}) for c1 in comps for c2 in comps if c1 != c2]
        for a in elements:
            got = descent_to_orbit(a)
            assert got == _fold_to_orbit(a), a
            assert bool(got) == bool(a)


def test_fixed_space_check():
    for n in range(1, 5):
        assert fixed_space_check(n)
    with pytest.raises(SizeLimitError) as err:
        fixed_space_check(6)
    assert (err.value.cap, err.value.requested) == (5, 6)
    with pytest.raises(ValueError):
        fixed_space_check(0)


def test_orbit_composition_matches_solomon_coefficients():
    """Coefficient of each type in O_C1 o O_C2 equals Solomon's coefficient."""
    for n in range(1, 5):
        for c1 in compositions(n):
            for c2 in compositions(n):
                product = composition_product(orbit_sum(c1), orbit_sum(c2))
                rule = solomon_compose(one(c1), one(c2))
                got: dict = {}
                for sc, coeff in product.terms.items():
                    t = tuple(len(b) for b in sc.sets)
                    prev = got.setdefault(t, coeff)
                    assert prev == coeff
                assert got == dict(rule.terms)


def test_solomon_compose_of_unequal_weights_or_a_zero_operand_builds_no_matrix(monkeypatch):
    def no_matrices(rows, cols):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(solomon, "_flattened_matrices", no_matrices)
    zero = DescentElement({})
    two, three = DescentElement({(1, 1): 2, (2,): -1}), DescentElement({(1, 2): 5})
    for a, b in ((two, three), (three, two), (zero, two), (two, zero), (zero, zero)):
        assert solomon_compose(a, b) == zero
