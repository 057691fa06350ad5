import itertools
import math

import pytest

from twisted_descents.algebra import basis, composition_product, convolution
from twisted_descents import oracle
from twisted_descents.limits import SizeLimitError
from twisted_descents.oracle import (
    Endomorphism,
    all_words,
    b_coproduct,
    b_product,
    characteristic_endo,
    endo_compose,
    endo_convolution,
    endo_of,
    oracle_check_composition,
    represent,
)
from twisted_descents.setcomp import (
    SetComposition,
    count_set_compositions,
    enumerate_set_compositions,
)


def word(*blocks):
    return SetComposition(blocks)


EMPTY = word()


def test_b_product():
    assert b_product(word({3, 5}), word({1, 4})) == word({3, 5}, {1, 4})
    assert b_product(EMPTY, word({1})) == word({1})
    with pytest.raises(ValueError):
        b_product(word({1, 2}), word({2, 3}))


def test_b_coproduct_splits_positions():
    d = b_coproduct(word({1}, {2}))
    assert d == {
        (EMPTY, word({1}, {2})): 1,
        (word({1},), word({2},)): 1,
        (word({2},), word({1},)): 1,
        (word({1}, {2}), EMPTY): 1,
    }
    # a single letter is primitive: no proper splits
    assert b_coproduct(word({1, 2})) == {
        (EMPTY, word({1, 2})): 1,
        (word({1, 2}), EMPTY): 1,
    }
    assert b_coproduct(EMPTY) == {(EMPTY, EMPTY): 1}
    assert sum(b_coproduct(word({1}, {2}, {3})).values()) == 8


def test_all_words_counts():
    import math

    for n in range(5):
        universe = tuple(range(1, n + 1))
        expected = sum(
            math.comb(n, r) * count_set_compositions(r) for r in range(n + 1)
        )
        assert len(all_words(universe)) == expected
    assert len(all_words((1, 2, 3, 4))) == 150
    with pytest.raises(SizeLimitError) as err:
        all_words(range(1, 12))
    assert (err.value.cap, err.value.requested) == (4, 11)


@pytest.mark.parametrize("universe", [(), (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (2, 5, 9)])
def test_all_words_match_the_enumeration_of_each_subset(universe):
    # the oracle builds its own words, in the order the enumeration promises
    expected = tuple(
        sc for r in range(len(universe) + 1) for sub in itertools.combinations(universe, r)
        for sc in enumerate_set_compositions(sub)
    )
    words = all_words(universe)
    assert words == expected
    assert [w.support for w in words] == [sc.support for sc in expected]


@pytest.mark.parametrize("build", [
    all_words,
    lambda universe: characteristic_endo((), universe),
    lambda universe: endo_of(basis(word({1})), universe),
    lambda universe: represent(word({1}), universe),
    lambda universe: oracle_check_composition(word({1}), word({1}), universe=universe),
], ids=["all_words", "characteristic_endo", "endo_of", "represent", "oracle_check_composition"])
def test_word_tables_are_refused_before_enumeration(build, monkeypatch):
    # every word table meets ORACLE_SUPPORT_CAP before its first word is built;
    # the oracle builds its words from itertools alone
    class NoWords:
        def __getattr__(self, name):
            raise AssertionError("word enumeration started")

    monkeypatch.setattr(oracle, "itertools", NoWords())
    with pytest.raises(AssertionError, match="word enumeration started"):
        oracle._words_of.__wrapped__((1,))
    for n in (5, 11):
        with pytest.raises(SizeLimitError) as err:
            build(range(1, n + 1))
        assert str(err.value) == f"word-table universe size: {n} requested, cap 4"
        assert (err.value.cap, err.value.requested) == (4, n)


def test_characteristic_endo_projects():
    f = characteristic_endo({1}, (1, 2))
    assert f(word({1})) == {word({1}): 1}
    assert f(word({2})) == {}
    assert f(word({1}, {2})) == {}
    assert f(EMPTY) == {}
    g = characteristic_endo((), (1, 2))
    assert g(EMPTY) == {EMPTY: 1}
    assert g(word({1})) == {}
    with pytest.raises(ValueError):
        characteristic_endo({3}, (1, 2))


def test_endo_convolution_unshuffles():
    f = characteristic_endo({1}, (1, 2))
    g = characteristic_endo({2}, (1, 2))
    conv = endo_convolution(f, g)
    # picks the alpha_1 letter first, then alpha_2, regardless of word order
    assert conv(word({2}, {1})) == {word({1}, {2}): 1}
    assert conv(word({1}, {2})) == {word({1}, {2}): 1}
    assert conv(word({1, 2})) == {}
    assert conv(word({1})) == {}


def test_represent_examples():
    # one block {1,2}: a word of two singleton letters has total degree {1,2},
    # and every positional split it admits keeps it in the image unchanged
    e = represent(word({1, 2}), (1, 2))
    assert e(word({1}, {2})) == {word({1}, {2}): 1}
    assert e(word({2}, {1})) == {word({2}, {1}): 1}
    assert e(word({1, 2})) == {word({1, 2}): 1}
    assert e(word({1})) == {}

    # two singleton blocks: standardizes the letter order
    e2 = represent(word({1}, {2}), (1, 2))
    assert e2(word({2}, {1})) == {word({1}, {2}): 1}
    assert e2(word({1, 2})) == {}

    e3 = represent(EMPTY, (1, 2))
    assert e3(EMPTY) == {EMPTY: 1}
    assert e3(word({1})) == {}

    with pytest.raises(ValueError):
        represent(word({5}), (1, 2))


def test_represent_respects_convolution():
    universe = (1, 2, 3)
    a, b = word({1}), word({2}, {3})
    lhs = endo_convolution(represent(a, universe), represent(b, universe))
    c = convolution(basis(a), basis(b))
    [(prod, coeff)] = c.terms.items()
    assert coeff == 1
    assert lhs == represent(prod, universe)


def test_endo_of_is_linear():
    universe = (1, 2)
    x = basis(word({1})) - 2 * basis(word({2}))
    e = endo_of(x, universe)
    assert e(word({1})) == {word({1}): 1}
    assert e(word({2})) == {word({2}): -2}
    assert e(word({1}, {2})) == {}


def test_oracle_agrees_on_worked_example():
    assert oracle_check_composition(word({3, 5}, {1, 4}), word({5}, {1, 3, 4}))


def test_oracle_agrees_exhaustively_on_three_points():
    comps = list(enumerate_set_compositions((1, 2, 3)))
    assert len(comps) == 13
    universe = (1, 2, 3)
    tables = {c: represent(c, universe) for c in comps}
    for a, b in itertools.product(comps, repeat=2):
        lhs = endo_compose(tables[a], tables[b])
        rhs = endo_of(composition_product(basis(a), basis(b)), universe)
        assert lhs == rhs, (a, b)


def test_oracle_check_rejects_oversized_universe():
    with pytest.raises(SizeLimitError) as err:
        oracle_check_composition(word({1}), word({1}), universe=range(1, 9))
    assert (err.value.cap, err.value.requested) == (4, 8)


def test_endomorphism_equality():
    u = frozenset({1})
    e1 = Endomorphism(u, {EMPTY: {EMPTY: 1}, word({1}): {}})
    e2 = Endomorphism(u, {EMPTY: {EMPTY: 1}})
    assert e1 == e2  # missing rows count as zero
    e3 = Endomorphism(frozenset({1, 2}), {EMPTY: {EMPTY: 1}})
    assert e1 != e3
    with pytest.raises(ValueError):
        endo_compose(e1, e3)


def test_endomorphism_tables():
    # a table holds only the rows of the words that the map does not kill
    e = characteristic_endo({1}, (1,))
    assert e.table == {word({1}): {word({1}): 1}}
    e12 = represent(word({1}, {2}), (1, 2))
    assert len(e12.table) == 2
    assert repr(e12) == "<Endomorphism on 2 words over [1, 2]>"
    table = e12.table
    assert table[word({2}, {1})] == {word({1}, {2}): 1}
    assert e12(word({1, 2})) == {}


def _is_clean(e):
    return all(row and all(row.values()) for row in e.table.values())


def test_oracle_tables_hold_no_empty_row_and_no_zero_coefficient():
    universe = (1, 2, 3)
    comps = list(enumerate_set_compositions(universe))
    tables = {c: represent(c, universe) for c in comps}
    assert all(map(_is_clean, tables.values()))
    for r in range(4):
        for s in itertools.combinations(universe, r):
            assert _is_clean(characteristic_endo(s, universe))
    for a, b in itertools.product(comps, repeat=2):
        assert _is_clean(endo_convolution(tables[a], tables[b]))
        assert _is_clean(endo_compose(tables[a], tables[b]))
    # [{1,2}] and [{1}|{2}] both fix the word [{1}|{2}], so its row cancels
    cancelling = basis(word({1, 2})) - basis(word({1}, {2}))
    e = endo_of(cancelling, universe)
    assert _is_clean(e)
    assert word({1}, {2}) not in e.table
    assert e(word({1}, {2})) == {}
    assert e(word({2}, {1})) == {word({2}, {1}): 1, word({1}, {2}): -1}


def test_a_table_passed_in_equals_its_cleaned_form():
    u = frozenset({1, 2})
    dirty = Endomorphism(u, {
        word({1}): {word({1}): 2, EMPTY: 0},
        word({2}): {word({2}): 0},
        word({1}, {2}): {},
    })
    clean = Endomorphism(u, {word({1}): {word({1}): 2}})
    assert dirty.table == clean.table == {word({1}): {word({1}): 2}}
    assert dirty == clean
    assert repr(dirty) == "<Endomorphism on 1 words over [1, 2]>"


def test_a_killed_universe_word_maps_to_zero_and_an_outside_word_raises():
    e = represent(word({1}), (1, 2))
    assert e(word({1})) == {word({1}): 1}
    assert e(word({2})) == {} and e(word({1}, {2})) == {} and e(EMPTY) == {}
    assert e.apply({word({2}): 3, word({1}): 2}) == {word({1}): 2}
    for outside in (word({3}), word({1}, {3})):
        with pytest.raises(KeyError):
            e(outside)
        with pytest.raises(KeyError):
            e.apply({outside: 1})


def test_distinct_compositions_have_distinct_endomorphisms():
    universe = (1, 2, 3)

    def key(c):  # a table, hashable as the freeness law compares it
        table = represent(c, universe).table
        return frozenset((w, frozenset(image.items())) for w, image in table.items())

    assert len({key(c) for c in enumerate_set_compositions(universe)}) == 13


def _subsets(universe):
    return [s for r in range(len(universe) + 1) for s in itertools.combinations(universe, r)]


def test_the_represent_memo_matches_the_uncached_build_over_every_universe_inside_3():
    memo = oracle._represent
    for sub in _subsets((1, 2, 3)):
        for sc in enumerate_set_compositions(sub):
            for universe in _subsets((1, 2, 3)):
                if not set(sub) <= set(universe):
                    continue
                want = memo.__wrapped__(sc, frozenset(universe))
                got = represent(sc, universe)
                assert got == want, (sc, universe)
                assert list(got.table) == list(want.table)
                assert represent(sc, universe) is got
    info = memo.cache_info()
    assert info.misses == info.currsize == info.hits
    # each k-subset has F(k) compositions, each in 2^(3-k) universes
    assert info.misses == sum(math.comb(3, k) * count_set_compositions(k) * 2 ** (3 - k)
                              for k in range(4)) == 51


def test_a_represented_table_is_read_only_and_a_returned_image_is_fresh():
    e = represent(word({1}, {2}), (1, 2))
    w, v = word({2}, {1}), word({1}, {2})
    with pytest.raises(TypeError):
        e.table[w] = {}
    with pytest.raises(TypeError):
        del e.table[w]
    with pytest.raises(TypeError):
        e.table[w][v] = 5
    with pytest.raises(AttributeError):
        e.table = {}
    with pytest.raises(AttributeError):
        del e.universe
    image = e(w)
    assert type(image) is dict and image == {v: 1}
    image[v] = 5
    image[w] = 1
    again = represent(word({1}, {2}), (1, 2))
    assert again(w) == {v: 1}
    assert again == oracle._represent.__wrapped__(word({1}, {2}), frozenset({1, 2}))


def test_the_word_tables_stay_within_their_bound_over_many_universes():
    words, coproducts = oracle._words_of, oracle._coproducts_of
    bound = words.cache_info().maxsize
    assert bound == coproducts.cache_info().maxsize == 32
    for label in range(1, 2 * bound + 2):
        universe = (label, label + 100)
        assert represent(word({label}), universe).table == {word({label}): {word({label}): 1}}
        assert all_words(universe) == (
            EMPTY, word({label}), word({label + 100}), word({label, label + 100}),
            word({label}, {label + 100}), word({label + 100}, {label}),
        )
        assert words.cache_info().currsize <= bound
        assert coproducts.cache_info().currsize <= bound
    assert words.cache_info().misses == coproducts.cache_info().misses == 2 * bound + 1
