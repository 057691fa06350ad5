import random
import re
import sys

import pytest

from twisted_descents.algebra import UNIT, ZERO, TDElement, basis, convolution, coproduct, tensor
from twisted_descents.limits import MAX_LABEL
from twisted_descents.setcomp import SetComposition, enumerate_set_compositions
from twisted_descents.textio import (
    ParseError,
    _join_terms,
    _read,
    _scan,
    element_from_json,
    element_to_json,
    parse,
    parse_composition,
    parse_ints,
    parse_permutation,
    render,
    render_composition,
    render_permutation,
    render_tensor,
    tensor_from_json,
    tensor_to_json,
)


def test_render_basics():
    assert render(ZERO) == "0"
    assert render(UNIT) == "1*[]"
    assert render(parse("[{3,5}|{1,4}]")) == "1*[{3,5}|{1,4}]"
    assert render(parse("2*[{1}] - 3*[{2}]")) == "2*[{1}] - 3*[{2}]"
    assert render(parse("-[{1}]")) == "-1*[{1}]"


def test_render_orders_by_canonical_key():
    x = parse("[{3,5}|{1,4}] + [{2}]")
    assert render(x) == "1*[{2}] + 1*[{3,5}|{1,4}]"
    # same support size: flattened block sequence decides
    y = parse("[{2}|{1}] + [{1}|{2}] + [{1,2}]")
    assert render(y) == "1*[{1,2}] + 1*[{1}|{2}] + 1*[{2}|{1}]"


def test_parse_round_trip_exhaustive_n3():
    for sub in [(), (1,), (1, 2), (1, 2, 3)]:
        for comp in enumerate_set_compositions(sub):
            x = basis(comp)
            assert parse(render(x)) == x


def test_parse_accepts_whitespace_and_signs():
    assert parse("  1*[{1,2}]  ") == parse("[{1,2}]")
    assert parse("[{1}]   +   [{2}]") == parse("[{1}] + [{2}]")
    with pytest.raises(ParseError):
        parse("[ {1} ]")  # no whitespace inside brackets
    assert parse("+2*[{1}]") == 2 * basis(SetComposition(({1},)))
    assert parse("[{1}] - [{1}]") == ZERO
    assert parse("0") == ZERO
    assert parse(" 0 ") == ZERO
    # whitespace is any str.isspace() character, at both ends, around signs and '*'
    assert parse("[{1}]\t+\n[{2}]") == parse("[{1}] + [{2}]")
    assert parse("\u3000[{1}] +\u3000[{2}]\x85") == parse("[{1}] + [{2}]")
    assert parse("2\x1c*\n[{1}]") == parse("2*[{1}]")


def test_parse_coefficients():
    x = parse("3*[{1}] + [{2}] - 2*[{3}]")
    assert x.coefficient(SetComposition(({1},))) == 3
    assert x.coefficient(SetComposition(({2},))) == 1
    assert x.coefficient(SetComposition(({3},))) == -2


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("[{1,1}]")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse("[{1}|{1}]")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse("[{0}]")
    assert err.value.position == 3
    with pytest.raises(ParseError, match=r"expected '\[', found '\+'") as err:
        parse("-+[{1}]")  # one sign at most
    assert err.value.position == 1
    with pytest.raises(ParseError):
        parse("[{2,1}]")  # blocks must be written increasing
    with pytest.raises(ParseError):
        parse("[{1}] junk")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("[{1}")
    # more than 4,300 digits is an error at the first digit, whatever the value
    for text, position in [
        ("[{" + "1" * 5000 + "}]", 2),
        ("1" * 5000 + "*[{1}]", 0),
        ("[{" + "0" * 4999 + "1}]", 2),
    ]:
        with pytest.raises(ParseError, match="integer of more than 4300 digits") as err:
            parse(text)
        assert err.value.position == position


def test_digit_cap_does_not_depend_on_the_int_limit():
    # Pythons without int()'s digit limit read the same text the same way
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int() digit limit")
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        with pytest.raises(ParseError) as err:
            parse("[{1}] + " + "7" * 4301 + "*[{2}]")
        assert err.value.position == 8
        assert parse("0" * 4299 + "3*[{1}]") == 3 * basis([[1]])
        with pytest.raises(ParseError, match=r"out of range 1\.\.4294967295"):
            parse("[{" + "1" * 4300 + "}]")
    finally:
        set_limit(old)


@pytest.mark.parametrize(
    "text, position",
    [("[{²}]", 2), ("[{٣}]", 2), ("[{1,2٣}]", 5), ("[{1,-²}]", 5), ("٣*[{1}]", 0)],
)
def test_parse_takes_only_ascii_digits(text, position):
    # str.isdigit() also holds for superscripts and other scripts' digits
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position


def test_render_tensor():
    t = tensor(UNIT, UNIT)
    assert render_tensor(t) == "1*[]⊗[]"
    assert render_tensor(t, ascii_only=True) == "1*[](x)[]"
    d = coproduct(parse("[{1,2}]"))
    assert (
        render_tensor(d)
        == "1*[]⊗[{1,2}] + 1*[{1}]⊗[{2}] + 1*[{2}]⊗[{1}] + 1*[{1,2}]⊗[]"
    )


def _sorting_bracket(sc):
    """A bracket that sorts each block of ``sc`` itself, as render once did."""
    return "[" + "|".join("{" + ",".join(map(str, sorted(b))) + "}" for b in sc.sets) + "]"


def _random_element(rng):
    labels = sorted({1, 2, 3, 10, MAX_LABEL - 1, MAX_LABEL, rng.randint(1, MAX_LABEL)})
    terms = {}
    for _ in range(rng.randint(0, 6)):
        word = rng.sample(labels, rng.randint(0, 4))
        cuts = sorted(rng.sample(range(1, len(word)), rng.randint(0, max(len(word) - 1, 0))))
        edges = [0, *cuts, len(word)] if word else [0]
        terms[SetComposition(word[a:b] for a, b in zip(edges, edges[1:]))] = rng.randint(-9, 9)
    return TDElement(terms)


def test_render_reads_the_sorted_blocks_of_each_row():
    rng = random.Random(26)
    for _ in range(300):
        x, y = _random_element(rng), _random_element(rng)
        for z in (x, convolution(x, y)):
            assert render(z) == _join_terms([(c, _sorting_bracket(sc)) for sc, c in z])
        for t in (tensor(x, y), coproduct(x)):
            for ascii_only, sep in ((False, "⊗"), (True, "(x)")):
                expected = _join_terms(
                    [(c, _sorting_bracket(l) + sep + _sorting_bracket(r)) for (l, r), c in t]
                )
                assert render_tensor(t, ascii_only) == expected


def test_json_round_trips():
    x = parse("2*[{3,5}|{1,4}] - [{2}]")
    doc = element_to_json(x)
    assert doc == {
        "terms": [
            {"coeff": -1, "blocks": [[2]]},
            {"coeff": 2, "blocks": [[3, 5], [1, 4]]},
        ]
    }
    assert element_from_json(doc) == x
    assert element_from_json(element_to_json(ZERO)) == ZERO

    t = coproduct(parse("[{1}|{2}]"))
    assert tensor_from_json(tensor_to_json(t)) == t
    left0 = tensor_to_json(t)["terms"][0]
    assert set(left0) == {"coeff", "left", "right"}


def test_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        element_from_json({"terms": [{"coeff": 1}]})
    with pytest.raises(ValueError):
        element_from_json({})
    with pytest.raises(ValueError):
        element_from_json({"terms": 5})
    for coeff in (1.9, 1.0, "7", True):
        with pytest.raises(ValueError, match="is not an integer"):
            element_from_json({"terms": [{"coeff": coeff, "blocks": [[1]]}]})
        with pytest.raises(ValueError, match="is not an integer"):
            tensor_from_json({"terms": [{"coeff": coeff, "left": [[1]], "right": []}]})
    with pytest.raises(ValueError, match="malformed term"):
        tensor_from_json({"terms": [{"coeff": 1, "left": [[1]]}]})


def test_small_parsers():
    assert parse_ints("3,1,2", "test") == (3, 1, 2)
    assert parse_ints(" 2, -1", "test") == (2, -1)
    for text in ("1,x", "٣,1", "1_0", "+2", "²", "1,", "--1", "1 2"):
        with pytest.raises(ParseError, match="malformed test"):
            parse_ints(text, "test")
    assert parse_permutation("3,1,2") == (3, 1, 2)
    with pytest.raises(ValueError):
        parse_permutation("1,3")
    assert parse_composition("2,1") == (2, 1)
    for text in ("2,0", "2,-1"):
        with pytest.raises(ParseError, match="composition parts must be positive"):
            parse_composition(text)
    assert render_permutation((3, 1, 2)) == "3,1,2"
    assert render_composition((1, 1)) == "(1,1)"


@pytest.mark.parametrize("text, position", [
    ("3,1,1", 4),  # the repeat, not the first 1
    ("1,4,2", 2),  # out of range
    ("0,1", 0),
    ("-1,1", 0),
    (" 2 , 2 ,1", 5),  # spaces around the commas
    ("2,1,\t3, 2", 8),  # 3 is in range for n = 4; the second 2 repeats
])
def test_a_bad_permutation_is_reported_at_its_first_bad_entry(text, position):
    values = tuple(int(piece) for piece in text.split(","))
    with pytest.raises(ParseError) as err:
        parse_permutation(text)
    assert err.value.position == position
    assert str(err.value) == (
        f"{values} is not a permutation of 1..{len(values)} (at position {position})"
    )


def test_render_blocks():
    assert render(basis(SetComposition(({3, 5}, {1, 4})))) == "1*[{3,5}|{1,4}]"
    assert render(basis(SetComposition(()))) == "1*[]"


def test_regex_space_is_str_isspace():
    # the term reader's \s must accept exactly what the scanner's isspace() skips
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


def _outcome(read, text):
    try:
        x = read(text)
    except Exception as exc:  # compared by type, message and position
        return type(exc), str(exc), getattr(exc, "position", None)
    return render(x), {sc: sc.support for sc in x.terms}


_SEEDS = [
    "0", " 0 ", "-0", "00", "[]", "1*[]", "-[] + []", "[{1}]", "+2*[{1}]",
    "2*[{3,5}|{1,4}] - [{2}]", "[{1}] - [{1}]",
    f"[{{{MAX_LABEL}}}]", f"[{{{MAX_LABEL + 1}}}]", f"3*[{{1,{MAX_LABEL}}}|{{2}}]",
    "[{4000000000,4000000001}|{17}] + 12*[{99999}] - [{17,99999}|{4000000000}]",
    "[{01,002}] + 007*[{3}] - 0*[{4}]",
    "[{1,2}|{2,3}]", "[{1}|{1}]", "[{1,1}]", "[{3,2}]", "[{2}|{1}] - [{5,4}]",
    "[{0}]", "[{-1}]", "[{1},{2}]", "[{1}|]", "[{}]",
]
_MUTANTS = "{}[]|,*+-019" + " \t\n\x1c\x85\u3000"


def _mutate(rng, text):
    chars = list(text)
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        i = rng.randint(0, len(chars))
        op = rng.randrange(3)
        if op == 0 or not chars:
            chars.insert(i, rng.choice(_MUTANTS))
        elif op == 1:
            del chars[min(i, len(chars) - 1)]
        else:
            chars[min(i, len(chars) - 1)] = rng.choice(_MUTANTS)
    return "".join(chars)


def test_term_reader_agrees_with_the_scanner():
    """parse (reader first, scanner on None) and the scanner alone agree on
    the element, or on the exception type, message and position."""
    rng = random.Random(9)
    read = errors = 0
    for k in range(24_000):
        text = _mutate(rng, _SEEDS[k % len(_SEEDS)])
        assert _outcome(parse, text) == _outcome(_scan, text), text
        if isinstance(_outcome(parse, text)[0], str):
            read += _read(text) is not None
        else:
            errors += 1
    assert read > 1_000 and errors > 10_000  # both outcomes are exercised
    for text in ("[{" + "1" * 5000 + "}]", "1" * 5000 + "*[{1}]"):
        assert _read(text) is None
        assert _outcome(parse, text) == _outcome(_scan, text)


@pytest.mark.parametrize("text, position", [
    ("2, 0,1", 3),  # the space after the comma is skipped
    ("2,-1", 2),
    ("0,1", 0),
    ("1,1, \t-3,0", 6),
])
def test_a_composition_is_refused_at_its_first_part_below_one(text, position):
    with pytest.raises(ParseError) as err:
        parse_composition(text)
    assert err.value.position == position
    assert str(err.value) == f"composition parts must be positive (at position {position})"
