"""Randomized law checks; hypothesis shrinks any counterexample it finds."""

import itertools
import math

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from twisted_descents.algebra import (
    _MASK_PAIRS,
    TDElement,
    UNIT,
    act,
    basis,
    compose_basis,
    conv_basis,
    composition_product,
    convolution,
    coproduct,
    multiply_tensor_legs,
    tensor,
    tensor_composition,
    tensor_convolution,
)
from twisted_descents.limits import MAX_LABEL
from twisted_descents.oracle import endo_compose, endo_of, represent
from twisted_descents.permutations import compose, symmetric_group
from twisted_descents.setcomp import SetComposition, compositions
from twisted_descents.solomon import DescentElement, solomon_compose
from twisted_descents.textio import element_from_json, element_to_json, parse, render

common = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

UNIVERSE = (1, 2, 3, 4)


@st.composite
def comps_on(draw, support):
    """A set composition whose support is exactly ``support``."""
    order = draw(st.permutations(sorted(support)))
    blocks: list = []
    for x in order:
        if blocks and draw(st.booleans()):
            blocks[-1].append(x)
        else:
            blocks.append([x])
    return SetComposition(blocks)


@st.composite
def set_comps(draw, universe=UNIVERSE):
    return draw(comps_on(draw(st.sets(st.sampled_from(universe)))))


@st.composite
def elements(draw, universe=UNIVERSE):
    out = TDElement({})
    for _ in range(draw(st.integers(0, 3))):
        coeff = draw(st.integers(-3, 3))
        out = out + coeff * basis(draw(set_comps(universe)))
    return out


@common
@given(a=elements(), b=elements(), c=elements())
def test_convolution_associative(a, b, c):
    assert convolution(convolution(a, b), c) == convolution(a, convolution(b, c))


@common
@given(a=elements(), b=elements(), c=elements())
def test_composition_associative(a, b, c):
    lhs = composition_product(composition_product(a, b), c)
    rhs = composition_product(a, composition_product(b, c))
    assert lhs == rhs


@common
@given(a=elements())
def test_convolution_unit(a):
    assert convolution(UNIT, a) == a
    assert convolution(a, UNIT) == a


@common
@given(sc=set_comps())
def test_coproduct_coassociative_and_cocommutative(sc):
    d = coproduct(basis(sc))
    left: dict = {}
    right: dict = {}
    for (l, r), c in d.terms.items():
        for (l1, l2), c2 in coproduct(basis(l)).terms.items():
            left[(l1, l2, r)] = left.get((l1, l2, r), 0) + c * c2
        for (r1, r2), c2 in coproduct(basis(r)).terms.items():
            right[(l, r1, r2)] = right.get((l, r1, r2), 0) + c * c2
    assert left == right
    assert d.swap() == d


@common
@given(a=elements(), b=elements())
def test_coproduct_respects_composition(a, b):
    lhs = coproduct(composition_product(a, b))
    rhs = tensor_composition(coproduct(a), coproduct(b))
    assert lhs == rhs


@common
@given(a=elements((1, 2)), b=elements((3, 4)))
def test_coproduct_respects_convolution_on_disjoint_supports(a, b):
    lhs = coproduct(convolution(a, b))
    rhs = tensor_convolution(coproduct(a), coproduct(b))
    assert lhs == rhs


@common
@given(f=set_comps((1, 2, 3)), g=set_comps((1, 2, 3)), h=set_comps((1, 2, 3)))
def test_reciprocity(f, g, h):
    fg = conv_basis(f, g)
    lhs = (
        composition_product(basis(fg), basis(h)) if fg is not None else TDElement({})
    )
    rhs = multiply_tensor_legs(
        tensor_composition(tensor(basis(f), basis(g)), coproduct(basis(h)))
    )
    assert lhs == rhs


@common
@given(
    x=elements(),
    s=st.sampled_from(list(symmetric_group(4))),
    t=st.sampled_from(list(symmetric_group(4))),
)
def test_right_action_axiom(x, s, t):
    assert act(act(x, s), t) == act(x, compose(s, t))


@common
@given(
    a=elements(),
    b=elements(),
    s=st.sampled_from(list(symmetric_group(4))),
)
def test_composition_is_equivariant(a, b, s):
    lhs = act(composition_product(a, b), s)
    rhs = composition_product(act(a, s), act(b, s))
    assert lhs == rhs


@common
@given(x=elements())
def test_parse_render_round_trip(x):
    assert parse(render(x)) == x
    assert render(parse(render(x))) == render(x)


@common
@given(x=elements())
def test_json_round_trip(x):
    assert element_from_json(element_to_json(x)) == x


@st.composite
def descent_triples(draw):
    n = draw(st.integers(1, 4))
    comps = list(compositions(n))
    return tuple(
        DescentElement({draw(st.sampled_from(comps)): draw(st.integers(-2, 2)) or 1})
        for _ in range(3)
    )


@st.composite
def descent_elements(draw):
    comps = list(compositions(draw(st.integers(1, 3))))
    keys = draw(st.lists(st.sampled_from(comps), max_size=2))
    return DescentElement({c: draw(st.integers(-1, 1)) for c in keys})


def linear_elements():
    """TDElements, TensorElements and DescentElements, the zero of each among them."""
    small = elements((1, 2))
    return st.one_of(small, st.builds(tensor, small, small), descent_elements())


@common
@given(x=linear_elements(), y=st.one_of(linear_elements(), st.sampled_from([0, False, 5])))
def test_equal_elements_hash_alike(x, y):
    if x == y:
        assert hash(x) == hash(y)
    twin = type(x)(x.terms)
    assert x == twin and hash(x) == hash(twin)
    # an element equals only an element of its own type, never a number
    for number in (0, False, 5):
        assert x != number and number != x


@common
@given(abc=descent_triples())
def test_solomon_associative(abc):
    a, b, c = abc
    assert solomon_compose(solomon_compose(a, b), c) == solomon_compose(
        a, solomon_compose(b, c)
    )


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(a=set_comps((1, 2, 3)), b=set_comps((1, 2, 3)))
def test_oracle_composition_agreement(a, b):
    universe = (1, 2, 3)
    lhs = endo_compose(represent(a, universe), represent(b, universe))
    rhs = endo_of(composition_product(basis(a), basis(b)), universe)
    assert lhs == rhs


@st.composite
def mixed_support_elements(draw):
    """Up to 8 terms over a few overlapping universes, so supports often repeat."""
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        universe = draw(st.sampled_from([(1, 2), (2, 3), (1, 2, 3), (1, 2, 3, 4)]))
        terms[draw(set_comps(universe))] = draw(st.integers(-3, 3))
    return TDElement(terms)


@common
@given(x=mixed_support_elements(), y=mixed_support_elements())
def test_composition_product_matches_all_pairs(x, y):
    acc: dict = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            key = compose_basis(a, b)
            if key is not None:
                acc[key] = acc.get(key, 0) + ca * cb
    want = [(k, c) for k, c in acc.items() if c]
    assert list(composition_product(x, y).terms.items()) == want


# The products below are checked against all-pairs loops over the basis
# kernels and against a δ written from its definition.  Labels reach
# MAX_LABEL, and one support carries enough terms on both sides that its
# group of ∘ term pairs reaches _MASK_PAIRS.
WIDE = (1, 2, 3, MAX_LABEL - 2, MAX_LABEL - 1, MAX_LABEL)
HEAVY = math.isqrt(_MASK_PAIRS - 1) + 1  # terms per side on the shared support


@st.composite
def heavy_pairs(draw):
    """x, y with at least HEAVY distinct terms each on one support of 3 to 5
    labels, and a few terms on other supports.  x may hold a chamber, which
    absorbs ∘ from the right, and y's main coefficients may sum to zero: then
    that chamber's products cancel."""
    main = draw(st.sets(st.sampled_from(WIDE), min_size=3, max_size=5))
    sides = []
    for _ in range(2):
        comps = draw(st.lists(comps_on(main), min_size=HEAVY, max_size=HEAVY + 4, unique=True))
        coeffs = [draw(st.sampled_from([-2, -1, 1, 2])) for _ in comps]
        terms = dict(zip(comps, coeffs))
        for _ in range(draw(st.integers(0, 3))):
            terms[draw(set_comps(WIDE))] = draw(st.integers(-2, 2))
        sides.append(terms)
    x, y = sides
    if draw(st.booleans()):
        x[SetComposition([[v] for v in draw(st.permutations(sorted(main)))])] = 1
    if draw(st.booleans()):
        main_terms = [b for b in y if b.support == main]
        y[main_terms[-1]] -= sum(y[b] for b in main_terms)
    return TDElement(x), TDElement(y)


def all_pairs(x, y, kernel) -> dict:
    acc: dict = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            key = kernel(a, b)
            if key is not None:
                acc[key] = acc.get(key, 0) + ca * cb
    return {k: c for k, c in acc.items() if c}


@common
@given(xy=heavy_pairs())
def test_graded_products_match_all_pairs(xy):
    x, y = xy
    assert sum(a.support == b.support for a in x.terms for b in y.terms) >= _MASK_PAIRS
    got = composition_product(x, y)
    assert list(got.terms.items()) == list(all_pairs(x, y, compose_basis).items())
    assert convolution(x, y).terms == all_pairs(x, y, conv_basis)
    assert convolution(y, x).terms == all_pairs(y, x, conv_basis)



# Labels near both ends of 1..MAX_LABEL; three disjoint 6-label supports of
# them make a bit index of 18 labels, so a 6-block product packs past bit 90.
SPREAD = tuple(range(1, 10)) + tuple(range(MAX_LABEL - 8, MAX_LABEL + 1))


@st.composite
def three_heavy_pairs(draw):
    """x, y with HEAVY terms each on three disjoint supports of 6 labels,
    a chamber in x on each, and a few terms on a light support of at most 4
    labels, so that one call runs mask groups and compose_basis side by side."""
    labels = draw(st.permutations(SPREAD))
    heavy = [frozenset(labels[i : i + 6]) for i in (0, 6, 12)]
    light = draw(st.sets(st.sampled_from(SPREAD), min_size=1, max_size=4))
    sides = []
    for _ in range(2):
        terms = {}
        for support in heavy:
            comps = draw(st.lists(comps_on(support), min_size=HEAVY, max_size=HEAVY, unique=True))
            terms.update((c, draw(st.sampled_from([-2, -1, 1, 2]))) for c in comps)
        for c in draw(st.lists(comps_on(light), min_size=1, max_size=3)):
            terms[c] = draw(st.integers(-2, 2))
        sides.append(terms)
    x, y = sides
    for support in heavy:
        x[SetComposition([[v] for v in draw(st.permutations(sorted(support)))])] = 1
    return TDElement(x), TDElement(y)


@common
@given(xy=three_heavy_pairs())
def test_products_of_three_mask_groups_match_all_pairs(xy):
    x, y = xy
    got = composition_product(x, y)
    assert list(got.terms.items()) == list(all_pairs(x, y, compose_basis).items())
    # x's chambers absorb ∘ from the right: 6-block products before any cancelling
    assert sum(len(a) == 6 for a in x.terms) >= 3

def coproduct_by_subsets(x) -> dict:
    """δ from its definition: one term per subset L of the support."""
    acc: dict = {}
    for sc, c in x.terms.items():
        labels = sorted(sc.support)
        for r in range(len(labels) + 1):
            for chosen in itertools.combinations(labels, r):
                left = frozenset(chosen)
                key = (
                    SetComposition([b & left for b in sc.sets if b & left]),
                    SetComposition([b - left for b in sc.sets if b - left]),
                )
                acc[key] = acc.get(key, 0) + c
    return {k: c for k, c in acc.items() if c}


@st.composite
def cancelling_elements(draw):
    """sc - merged + a few terms: merged is sc with two adjacent blocks joined,
    and the δ terms the two share cancel."""
    sc = draw(set_comps(WIDE).filter(lambda c: len(c) >= 2))
    i = draw(st.integers(0, len(sc) - 2))
    blocks = list(sc.sets)
    merged = SetComposition(blocks[:i] + [blocks[i] | blocks[i + 1]] + blocks[i + 2 :])
    terms = {sc: 1, merged: -1}
    for _ in range(draw(st.integers(0, 3))):
        terms[draw(set_comps(WIDE))] = draw(st.integers(-2, 2))
    return TDElement(terms)


@common
@given(x=cancelling_elements(), sc=set_comps(WIDE))
def test_coproduct_matches_its_definition(x, sc):
    for elem in (x, TDElement({sc: -3})):
        assert coproduct(elem).terms == coproduct_by_subsets(elem)


def tensor_all_pairs(x, y) -> dict:
    acc: dict = {}
    for (al, ar), ca in x.terms.items():
        for (bl, br), cb in y.terms.items():
            left, right = compose_basis(al, bl), compose_basis(ar, br)
            if left is not None and right is not None:
                acc[(left, right)] = acc.get((left, right), 0) + ca * cb
    return {k: c for k, c in acc.items() if c}


@common
@given(x=cancelling_elements(), y=mixed_support_elements(), z=elements(), w=elements())
def test_tensor_composition_matches_all_pairs(x, y, z, w):
    dx, dy = coproduct(x), coproduct(y)
    assert tensor_composition(dx, dx).terms == tensor_all_pairs(dx, dx)
    assert tensor_composition(dy, dy).terms == tensor_all_pairs(dy, dy)
    t = tensor(z, w) + tensor(w, z)
    assert tensor_composition(t, dy).terms == tensor_all_pairs(t, dy)
    assert tensor_composition(t, t).terms == tensor_all_pairs(t, t)


@common
@given(f=set_comps(), g=set_comps(), y=mixed_support_elements(), c=st.integers(-3, 3))
def test_tensor_composition_with_a_one_term_operand_matches_all_pairs(f, g, y, c):
    # the reciprocity law's shape, c·(f ⊗ g) ∘₂ δ(y), and the reverse order
    one, dy = c * tensor(basis(f), basis(g)), coproduct(y)
    assert tensor_composition(one, dy).terms == tensor_all_pairs(one, dy)
    assert tensor_composition(dy, one).terms == tensor_all_pairs(dy, one)
    # with one left term, results keep the right operand's term order
    assert list(tensor_composition(one, dy).terms.items()) == list(
        tensor_all_pairs(one, dy).items()
    )


@common
@given(x=cancelling_elements(), y=mixed_support_elements(), z=elements(), fs=st.lists(
    st.tuples(set_comps(), set_comps(), st.integers(-3, 3)), min_size=1, max_size=4))
def test_tensor_composition_reads_a_reused_right_operand_like_a_fresh_one(x, y, z, fs):
    # one δ(y) is the right operand of ∘₂ for many left operands, as δ(h) is
    # in a reciprocity sweep: its index is built by the first and read after
    lefts = [c * tensor(basis(f), basis(g)) for f, g, c in fs]
    lefts += [coproduct(x), tensor(z, y) + tensor(y, z), coproduct(y)]
    for order in (lefts, lefts[::-1]):
        dy = coproduct(y)
        for left in order:
            assert tensor_composition(left, dy).terms == tensor_all_pairs(left, dy)
            assert tensor_composition(dy, left).terms == tensor_all_pairs(dy, left)
