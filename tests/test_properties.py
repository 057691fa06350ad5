"""Randomized law checks; hypothesis shrinks any counterexample it finds."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from twisted_descents.algebra import (
    TDElement,
    UNIT,
    act,
    basis,
    compose_basis,
    conv_basis,
    composition_product,
    convolution,
    coproduct,
    coproduct_iterated,
    multiply_tensor_legs,
    tensor,
    tensor_composition,
    tensor_convolution,
)
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
def set_comps(draw, universe=UNIVERSE):
    elems = sorted(draw(st.sets(st.sampled_from(universe))))
    order = draw(st.permutations(elems))
    blocks: list = []
    for x in order:
        if blocks and draw(st.booleans()):
            blocks[-1].append(x)
        else:
            blocks.append([x])
    return SetComposition(blocks)


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
    x = basis(sc)
    left = coproduct_iterated(x, 3)
    right: dict = {}
    for (l, r), c in coproduct(x).terms.items():
        for (r1, r2), c2 in coproduct(basis(r)).terms.items():
            key = (l, r1, r2)
            right[key] = right.get(key, 0) + c * c2
    assert left == {k: v for k, v in right.items() if v}
    d = coproduct(x)
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
