import itertools

import pytest

from twisted_descents.algebra import (
    _MASK_PAIRS,
    TDElement,
    TensorElement,
    UNIT,
    ZERO,
    act,
    basis,
    chamber,
    chamber_word,
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
from twisted_descents.limits import MAX_TERMS, SizeLimitError
from twisted_descents.permutations import symmetric_group
from twisted_descents.setcomp import SetComposition, enumerate_set_compositions
from twisted_descents.textio import parse


def sc(*blocks):
    return SetComposition(blocks)


def test_element_arithmetic():
    a = basis(sc({1}))
    b = basis(sc({2}))
    assert a + b == b + a
    assert a - a == ZERO
    assert 2 * a + a == 3 * a
    assert 0 * a == ZERO
    assert bool(a) and not bool(ZERO)
    assert a.coefficient(sc({1})) == 1
    with pytest.raises(ValueError):
        TDElement({sc({1}): "x"})


def test_tensor_key_validation():
    pair = (sc({1}), sc({2}))
    assert TensorElement([(pair, 1), (pair, 2)]) == TensorElement({pair: 3})
    for key in (3, (sc({1}),), pair + (sc({3}),), list(pair), (sc({1}), 2)):
        with pytest.raises(ValueError):
            TensorElement([(key, 1)])


def test_convolution_examples():
    assert convolution(parse("[{3,5}]"), parse("[{1,4}]")) == parse("[{3,5}|{1,4}]")
    assert convolution(parse("[{1,2}]"), parse("[{1,2}]")) == ZERO
    x = parse("2*[{1}|{3}] - [{2}]")
    assert convolution(UNIT, x) == x
    assert convolution(x, UNIT) == x


def test_convolution_is_bilinear():
    a, b = parse("[{1}] + [{2}]"), parse("[{3}] - [{4}]")
    expected = (
        parse("[{1}|{3}] + [{2}|{3}]") - parse("[{1}|{4}]") - parse("[{2}|{4}]")
    )
    assert convolution(a, b) == expected


def test_composition_worked_examples():
    # ({3,5},{1,4}) o ({5},{1,3,4}) = ({5},{3},{1,4})
    got = composition_product(parse("[{3,5}|{1,4}]"), parse("[{5}|{1,3,4}]"))
    assert got == parse("[{5}|{3}|{1,4}]")
    # ({1,3,5},{2,4}) o the chamber (3,4,5,2,1) = the chamber (3,5,1,4,2)
    got = composition_product(parse("[{1,3,5}|{2,4}]"), parse("[{3}|{4}|{5}|{2}|{1}]"))
    assert got == parse("[{3}|{5}|{1}|{4}|{2}]")
    assert composition_product(parse("[{1,2}]"), parse("[{3}]")) == ZERO


def test_composition_unit_is_single_block():
    for sub in [(1,), (1, 2), (1, 2, 3)]:
        one = basis(sc(sub))
        for comp in enumerate_set_compositions(sub):
            x = basis(comp)
            assert composition_product(one, x) == x
            assert composition_product(x, one) == x


def test_coproduct_examples():
    d = coproduct(parse("[{1,2}]"))
    assert d == TensorElement(
        {
            (sc(), sc({1, 2})): 1,
            (sc({1}), sc({2})): 1,
            (sc({2}), sc({1})): 1,
            (sc({1, 2}), sc()): 1,
        }
    )
    assert coproduct(UNIT) == TensorElement({(sc(), sc()): 1})
    d2 = coproduct(parse("[{1}|{2}]"))
    assert d2 == TensorElement(
        {
            (sc(), sc({1}, {2})): 1,
            (sc({1}), sc({2})): 1,
            (sc({2}), sc({1})): 1,
            (sc({1}, {2}), sc()): 1,
        }
    )


def test_coproduct_term_count_is_two_to_the_support():
    for sub in [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)]:
        for comp in enumerate_set_compositions(sub):
            assert len(coproduct(basis(comp))) == 2 ** len(sub)


def test_coproduct_size_guard():
    x = basis(sc(set(range(1, 6))))
    with pytest.raises(SizeLimitError) as err:
        coproduct(x, max_terms=16)
    assert (err.value.cap, err.value.requested) == (16, 32)
    assert len(coproduct(x, max_terms=32)) == 32
    # the request counts every term of a multi-term element
    y = x + basis(sc({6}))
    with pytest.raises(SizeLimitError) as err:
        coproduct(y, max_terms=32)
    assert (err.value.cap, err.value.requested) == (32, 34)


@pytest.mark.parametrize("product", [convolution, composition_product])
def test_product_size_guard(product):
    # the cap counts term pairs, before any of them is tried
    x, y = parse("[{1}] + [{2}] + [{3}]"), parse("[{1}] + [{4}]")
    with pytest.raises(SizeLimitError) as err:
        product(x, y, max_terms=5)
    assert (err.value.cap, err.value.requested) == (5, 6)
    assert str(err.value).endswith(" term pairs: 6 requested, cap 5")
    assert product(x, y, max_terms=6) == product(x, y)


def test_tensor_product_size_guards():
    # the caps count term pairs before any is tried: 4,097² > MAX_TERMS = 2^24
    comps = list(itertools.islice(enumerate_set_compositions(range(1, 7)), 4097))
    x = TensorElement({(c, sc()): 1 for c in comps})
    for product in (tensor_convolution, tensor_composition):
        with pytest.raises(SizeLimitError) as err:
            product(x, x)
        assert (err.value.cap, err.value.requested) == (MAX_TERMS, 4097**2)
    # ∘₂ counts only the pairs whose leg supports match: here none
    y = TensorElement({(sc(), c): 1 for c in comps})
    assert tensor_composition(x, y) == TensorElement({})


def test_tensor_convolution_examples():
    t1 = tensor(parse("[{1}]"), parse("[{2}]"))
    t2 = tensor(parse("[{2}]"), parse("[{1}]"))
    assert tensor_convolution(t1, t2) == tensor(parse("[{1}|{2}]"), parse("[{2}|{1}]"))
    x = parse("[{1,2}]")
    got = tensor_convolution(coproduct(x), coproduct(x))
    assert got == TensorElement(
        {
            (sc({1, 2}), sc({1, 2})): 2,
            (sc({1}, {2}), sc({2}, {1})): 1,
            (sc({2}, {1}), sc({1}, {2})): 1,
        }
    )
    assert tensor_convolution(t1, TensorElement({})) == TensorElement({})


def test_tensor_composition_examples():
    t = tensor(parse("[{1}]"), parse("[{2}]"))
    assert tensor_composition(t, t) == t
    mismatched = tensor(parse("[{2}]"), parse("[{1}]"))
    assert tensor_composition(t, mismatched) == TensorElement({})
    a, b = parse("[{1}|{2}]"), parse("[{2}|{1}]")
    lhs = tensor_composition(coproduct(a), coproduct(b))
    assert lhs == coproduct(composition_product(a, b))
    assert composition_product(a, b) == a


def test_multiply_tensor_legs():
    assert multiply_tensor_legs(tensor(parse("[{1}]"), parse("[{2}]"))) == parse("[{1}|{2}]")
    overlap = tensor(parse("[{1,2}]"), parse("[{1,2}]"))
    assert multiply_tensor_legs(overlap) == ZERO
    assert multiply_tensor_legs(coproduct(parse("[{1,2}]"))) == parse(
        "2*[{1,2}] + [{1}|{2}] + [{2}|{1}]"
    )


def test_nonbialgebra_witness():
    """The graded hypothesis matters: the naive (∗, δ) law fails on overlap."""
    x = parse("[{1,2}]")
    assert coproduct(convolution(x, x)) == TensorElement({})
    assert tensor_convolution(coproduct(x), coproduct(x)) != TensorElement({})


def test_act_examples():
    assert act(parse("[{1}|{2}]"), (2, 1)) == parse("[{2}|{1}]")
    assert act(parse("[{1,2}]"), (2, 1)) == parse("[{1,2}]")
    # sigma = (3,1,2) one-line has inverse (2,3,1)
    assert act(parse("[{1,3}|{2}]"), (3, 1, 2)) == parse("[{1,2}|{3}]")
    with pytest.raises(ValueError):
        act(parse("[{1,3}]"), (2, 1))


def test_act_is_a_right_action():
    from twisted_descents.permutations import compose

    comps = [basis(c) for c in enumerate_set_compositions((1, 2, 3))]
    perms = list(symmetric_group(3))
    for x in comps:
        for s in perms:
            for t in perms:
                assert act(act(x, s), t) == act(x, compose(s, t))


def test_compose_equivariance_full_n4():
    """(a o b) . sigma = (a . sigma) o (b . sigma) over all of degree 4."""
    from twisted_descents.permutations import compose as _  # noqa: F401

    comps = list(enumerate_set_compositions((1, 2, 3, 4)))
    perms = list(symmetric_group(4))
    for a in comps:
        xa = basis(a)
        for b in comps:
            ab = composition_product(xa, basis(b))
            for s in perms:
                assert act(ab, s) == composition_product(
                    act(xa, s), act(basis(b), s)
                )


def test_chamber_helpers():
    ch = chamber((3, 1, 2))
    assert ch == sc({3}, {1}, {2})
    assert chamber_word(ch) == (3, 1, 2)
    assert permutation_basis((2, 1)) == sc({2}, {1})
    with pytest.raises(ValueError):
        chamber((1, 1))
    with pytest.raises(ValueError):
        chamber_word(sc({1, 2}))
    with pytest.raises(ValueError):
        permutation_basis((2, 3))


def test_kernels_match_public_ops():
    a, b = sc({3, 5}, {1, 4}), sc({5}, {1, 3, 4})
    assert conv_basis(a, b) is None
    assert compose_basis(a, b) == sc({5}, {3}, {1, 4})
    assert compose_basis(a, sc({1, 2})) is None



def test_mask_path_cancels_mixed_signs_like_the_all_pairs_loop():
    # E = Σ_F (-1)^(ℓ(F)-1)·(6/ℓ(F))·1_F over the set compositions F of
    # {1,2,3} is 6 times the first Eulerian idempotent, so E ∘ E = 6·E.  Both
    # signs meet on every key of E ∘ y, and two of its keys cancel to 0.
    e = TDElement(
        {F: (-1) ** (len(F) - 1) * (6 // len(F)) for F in enumerate_set_compositions((1, 2, 3))}
    )
    y = e - 6 * basis(chamber((1, 2, 3)))
    assert len(e.terms) * len(y.terms) >= _MASK_PAIRS
    acc: dict = {}
    for a, ca in e.terms.items():
        for b, cb in y.terms.items():
            key = compose_basis(a, b)
            acc[key] = acc.get(key, 0) + ca * cb
    assert 0 in acc.values()
    want = [(k, c) for k, c in acc.items() if c]
    assert list(composition_product(e, y).terms.items()) == want
    assert composition_product(e, e) == TDElement({F: 6 * c for F, c in e.terms.items()})


@pytest.mark.parametrize(
    "x, want",
    [
        # both terms on {1,2}: the two middle splits cancel
        (
            "[{1,2}] - [{1}|{2}]",
            [
                ((((1, 2),), ()), 1),
                (((), ((1, 2),)), 1),
                ((((1,), (2,)), ()), -1),
                (((), ((1,), (2,))), -1),
            ],
        ),
        # two terms on {1,2,3} around one on {4}; the third term adds into
        # two keys of the first
        (
            "[{1}|{2,3}] + 2*[{4}] - 3*[{2,3}|{1}]",
            [
                ((((1,), (2, 3)), ()), 1),
                ((((1,), (3,)), ((2,),)), 1),
                ((((1,), (2,)), ((3,),)), 1),
                ((((1,),), ((2, 3),)), -2),
                ((((2, 3),), ((1,),)), -2),
                ((((3,),), ((1,), (2,))), 1),
                ((((2,),), ((1,), (3,))), 1),
                (((), ((1,), (2, 3))), 1),
                ((((4,),), ()), 2),
                (((), ((4,),)), 2),
                ((((2, 3), (1,)), ()), -3),
                ((((3,), (1,)), ((2,),)), -3),
                ((((3,),), ((2,), (1,))), -3),
                ((((2,), (1,)), ((3,),)), -3),
                ((((2,),), ((3,), (1,))), -3),
                (((), ((2, 3), (1,))), -3),
            ],
        ),
        (UNIT, [(((), ()), 1)]),
        (
            "[{2}|{4}|{1}|{3}]",
            [
                ((((2,), (4,), (1,), (3,)), ()), 1),
                ((((2,), (4,), (1,)), ((3,),)), 1),
                ((((2,), (4,), (3,)), ((1,),)), 1),
                ((((2,), (4,)), ((1,), (3,))), 1),
                ((((2,), (1,), (3,)), ((4,),)), 1),
                ((((2,), (1,)), ((4,), (3,))), 1),
                ((((2,), (3,)), ((4,), (1,))), 1),
                ((((2,),), ((4,), (1,), (3,))), 1),
                ((((4,), (1,), (3,)), ((2,),)), 1),
                ((((4,), (1,)), ((2,), (3,))), 1),
                ((((4,), (3,)), ((2,), (1,))), 1),
                ((((4,),), ((2,), (1,), (3,))), 1),
                ((((1,), (3,)), ((2,), (4,))), 1),
                ((((1,),), ((2,), (4,), (3,))), 1),
                ((((3,),), ((2,), (4,), (1,))), 1),
                (((), ((2,), (4,), (1,), (3,))), 1),
            ],
        ),
    ],
)
def test_coproduct_term_order(x, want):
    # .terms order is part of the kernel's output: keys go in family by
    # family, each block's splits walked from "all left" down to "all right"
    x = x if isinstance(x, TDElement) else parse(x)
    want = [((SetComposition(l), SetComposition(r)), c) for (l, r), c in want]
    assert list(coproduct(x).terms.items()) == want


def test_coproduct_is_coassociative_on_small_words():
    # (δ ⊗ id)δ(x) = (id ⊗ δ)δ(x), each leg expanded through coproduct
    for sub in [(1, 2), (1, 2, 3)]:
        for comp in enumerate_set_compositions(sub):
            left, right = {}, {}
            for (l, r), c in coproduct(basis(comp)).terms.items():
                for (l1, l2), c2 in coproduct(basis(l)).terms.items():
                    left[(l1, l2, r)] = left.get((l1, l2, r), 0) + c * c2
                for (r1, r2), c2 in coproduct(basis(r)).terms.items():
                    right[(l, r1, r2)] = right.get((l, r1, r2), 0) + c * c2
            assert left == right


def test_associativity_exhaustive_small():
    comps = [
        basis(c)
        for sub in [(), (1,), (2,), (1, 2)]
        for c in enumerate_set_compositions(sub)
    ]
    for a, b, c in itertools.product(comps, repeat=3):
        assert convolution(convolution(a, b), c) == convolution(a, convolution(b, c))
        assert composition_product(
            composition_product(a, b), c
        ) == composition_product(a, composition_product(b, c))
