"""Parsing and rendering for elements, tensors, and group-algebra sums.

The element grammar::

    element   = ws '0' ws | ws [sign ws] term ws (sign ws term ws)*
    term      = [coeff ws '*' ws] '[' blocklist ']'
    blocklist = block ('|' block)* | ''
    block     = '{' int (',' int)* '}'
    sign      = '+' | '-'
    coeff     = digit+
    int       = ['-'] digit+
    digit     = '0' | '1' | ... | '9'
    ws        = (any character c with c.isspace())*

Digits are ASCII only; any other Unicode digit is a ParseError.  A label or
coefficient may be written with at most 4,300 digits, leading zeros
included; a longer one is a ParseError at its first digit.  The comma lists
of ``parse_ints`` take the same ``int`` rule for each piece.

Blocks must list their elements in strictly increasing order, from 1 to
``MAX_LABEL``, and be pairwise disjoint within one bracket.  Renderings are
canonical: terms in the standard set-composition order, every coefficient
explicit (``1*[{2}]``).
"""

from __future__ import annotations

import re
from typing import Iterable

from .algebra import TDElement, TensorElement, _clean
from .limits import MAX_LABEL
from .setcomp import SetComposition


class ParseError(ValueError):
    """Malformed element text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_DIGITS = re.compile(r"[0-9]+")
_INT = re.compile(r"-?[0-9]+")

# CPython's default cap on int() of a digit string, fixed here so that every
# Python, including those without the cap, reads the same text the same way.
_MAX_DIGITS = 4300
_LONG_DIGITS = re.compile(rf"(?<![0-9])[0-9]{{{_MAX_DIGITS + 1}}}")  # from a run's first digit


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            found = self.peek() or "end of input"
            raise ParseError(f"expected {ch!r}, found {found!r}", self.pos)

    def integer(self) -> int:
        start = self.pos
        if self.text.startswith("-", start):
            self.pos += 1
        digits = _DIGITS.match(self.text, self.pos)
        if digits is None:
            raise ParseError("expected an integer", self.pos)
        if digits.end() - self.pos > _MAX_DIGITS:
            raise ParseError(f"integer of more than {_MAX_DIGITS} digits", self.pos)
        self.pos = digits.end()
        return int(self.text[start : self.pos])


def _parse_block(sc: _Scanner) -> frozenset[int]:
    sc.expect("{")
    values = [sc.integer()]
    while sc.take(","):
        nxt = sc.integer()
        if nxt <= values[-1]:
            raise ParseError(
                "block elements must be strictly increasing", sc.pos - 1
            )
        values.append(nxt)
    sc.expect("}")
    if values[0] < 1:
        raise ParseError("block elements must be positive", sc.pos - 1)
    return frozenset(values)


def _parse_bracket(sc: _Scanner) -> SetComposition:
    start = sc.pos
    sc.expect("[")
    blocks: list[frozenset[int]] = []
    if sc.peek() != "]":
        blocks.append(_parse_block(sc))
        while sc.take("|"):
            blocks.append(_parse_block(sc))
    sc.expect("]")
    try:
        return SetComposition(blocks)
    except ValueError as exc:
        raise ParseError(str(exc), start) from None


def _parse_term(sc: _Scanner) -> tuple[int, SetComposition]:
    coeff = 1
    if _DIGITS.match(sc.text, sc.pos):
        coeff = sc.integer()
        sc.skip_ws()
        sc.expect("*")
        sc.skip_ws()
    return coeff, _parse_bracket(sc)


def _scan(text: str) -> TDElement:
    """Parse element text character by character; the source of every ParseError."""
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.peek() == "0":
        mark = sc.pos
        sc.pos += 1
        sc.skip_ws()
        if sc.pos == len(text):
            return TDElement._make({})
        sc.pos = mark
    terms: list[tuple[SetComposition, int]] = []
    sign = -1 if sc.take("-") else 1
    if sign == 1:
        sc.take("+")  # one sign at most: "-+[{1}]" fails at the '+'
    sc.skip_ws()
    while True:
        coeff, key = _parse_term(sc)
        terms.append((key, sign * coeff))
        sc.skip_ws()
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            break
        sc.skip_ws()
    if sc.pos != len(text):
        raise ParseError(f"unexpected {sc.peek()!r}", sc.pos)
    return TDElement(terms)


# One term of well-formed text: sign, coefficient, bracket, and the space
# around them.  ``\s`` matches exactly the characters ``str.isspace`` accepts.
_BLOCK = r"\{[0-9]+(?:,[0-9]+)*\}"
_TERM = re.compile(
    rf"\s*([-+]?)\s*(?:([0-9]{{1,{_MAX_DIGITS}}})\s*\*\s*)?\[((?:{_BLOCK}(?:\|{_BLOCK})*)?)\]\s*"
)


def _read(text: str) -> TDElement | None:
    """Parse well-formed text one regex match per term; None on anything else.

    Applies the rules the scanner enforces (labels in 1..MAX_LABEL, each
    block strictly increasing, blocks pairwise disjoint) and leaves every
    error, and the ``0`` element, to ``_scan``.
    """
    make = SetComposition._make
    acc: dict = {}
    blocks: dict = {}  # block text -> its frozenset
    pos, end = 0, len(text)
    try:
        while pos < end:
            m = _TERM.match(text, pos)
            if m is None:
                return None
            sign, coeff, body = m.groups()
            if not sign and pos:
                return None
            pos = m.end()
            sets = []
            count = 0
            for piece in body[1:-1].split("}|{") if body else ():
                block = blocks.get(piece)
                if block is None:
                    values = [*map(int, piece.split(","))]
                    if values[0] < 1 or values[-1] > MAX_LABEL:
                        return None
                    block = blocks[piece] = frozenset(values)
                    if len(values) > 1 and sorted(block) != values:
                        return None
                count += len(block)
                sets.append(block)
            support = frozenset().union(*sets)
            if len(support) != count:
                return None
            key = make(tuple(sets), support)
            c = int(coeff) if coeff else 1
            acc[key] = acc.get(key, 0) + (-c if sign == "-" else c)
    except ValueError:  # a label of more than _MAX_DIGITS digits, where int() caps
        return None
    if not acc:
        return None
    return TDElement._make(_clean(acc))


def parse(text: str) -> TDElement:
    """Parse element text; raises ParseError with a position on bad input."""
    x = _read(text)
    return _scan(text) if x is None else x


def _join_terms(parts: list[tuple[int, str]]) -> str:
    if not parts:
        return "0"
    out = []
    for i, (coeff, body) in enumerate(parts):
        mag = f"{abs(coeff)}*{body}"
        if i == 0:
            out.append(("-" if coeff < 0 else "") + mag)
        else:
            out.append(("- " if coeff < 0 else "+ ") + mag)
    return " ".join(out)


class _BlockTexts(dict):
    """Ascending block tuple -> its ``{a,b,...}`` text, built on first lookup.

    The terms of one product share most of their blocks.
    """

    def __missing__(self, block: tuple[int, ...]) -> str:
        text = self[block] = "{" + ",".join(map(str, block)) + "}"
        return text


def _bracket_renderer():
    """A ``[{..}|{..}]`` renderer of ascending blocks that builds each block's text once."""
    text = _BlockTexts().__getitem__

    def bracket(blocks: tuple[tuple[int, ...], ...]) -> str:
        return "[" + "|".join(map(text, blocks)) + "]"

    return bracket


def render(x: TDElement) -> str:
    """Canonical text for an element; the zero element renders as ``0``."""
    bracket = _bracket_renderer()
    return _join_terms([(c, bracket(blocks)) for _, _, blocks, c in x._rows()])


def render_tensor(x: TensorElement, ascii_only: bool = False) -> str:
    sep = "(x)" if ascii_only else "⊗"
    bracket = _bracket_renderer()
    return _join_terms([(c, bracket(lb) + sep + bracket(rb)) for _, _, (lb, rb), c in x._rows()])


def element_to_json(x: TDElement) -> dict:
    return {"terms": [{"coeff": c, "blocks": list(map(list, blocks))}
                      for _, _, blocks, c in x._rows()]}


def _json_terms(obj, key):
    """(key(entry), coeff) for each entry of a ``{"terms": [...]}`` document."""
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise ValueError("expected an object with a 'terms' list")
    for entry in obj["terms"]:
        try:
            yield key(entry), entry["coeff"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed term {entry!r}") from exc


def element_from_json(obj) -> TDElement:
    return TDElement(_json_terms(obj, lambda e: SetComposition(e["blocks"])))


def tensor_to_json(x: TensorElement) -> dict:
    return {
        "terms": [
            {"coeff": c, "left": list(map(list, lb)), "right": list(map(list, rb))}
            for _, _, (lb, rb), c in x._rows()
        ]
    }


def tensor_from_json(obj) -> TensorElement:
    return TensorElement(
        _json_terms(obj, lambda e: (SetComposition(e["left"]), SetComposition(e["right"])))
    )


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers, each the grammar's ``int`` (ASCII digits)."""
    pieces = [piece.strip() for piece in text.split(",")]
    if not all(map(_INT.fullmatch, pieces)):
        raise ParseError(f"malformed {what}: {text!r}", 0)
    too_long = _LONG_DIGITS.search(text)
    if too_long:
        raise ParseError(f"integer of more than {_MAX_DIGITS} digits", too_long.start())
    return tuple(map(int, pieces))


def parse_permutation(text: str) -> tuple[int, ...]:
    """One-line notation, e.g. ``3,1,2``.  The error points at the first entry
    outside 1..n or repeating an earlier one."""
    values = parse_ints(text, "permutation")
    n, seen, start = len(values), set(), 0
    for v, piece in zip(values, text.split(",")):
        if not 0 < v <= n or v in seen:
            at = start + len(piece) - len(piece.lstrip())
            raise ParseError(f"{values} is not a permutation of 1..{n}", at)
        seen.add(v)
        start += len(piece) + 1
    return values


def parse_composition(text: str) -> tuple[int, ...]:
    """Comma-separated positive parts, e.g. ``2,1,1``."""
    values = parse_ints(text, "composition")
    if any(v < 1 for v in values):
        raise ParseError("composition parts must be positive", 0)
    return values


def render_permutation(p: Iterable[int]) -> str:
    return ",".join(map(str, p))


def render_composition(c: Iterable[int]) -> str:
    return "(" + ",".join(map(str, c)) + ")"
