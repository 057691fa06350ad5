"""The ``>>>`` examples of README.md run as doctests, so an API change
cannot leave a stale example behind; README's error contract is pinned here."""

import doctest
from pathlib import Path

import pytest

from twisted_descents.algebra import TDElement, basis
from twisted_descents.setcomp import SetComposition
from twisted_descents.solomon import DescentElement, orbit_sum
from twisted_descents.textio import parse

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_pass():
    result = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert result.attempted >= 13
    assert result.failed == 0


@pytest.mark.parametrize("probe", [
    lambda: SetComposition(5),
    lambda: TDElement(5),
    lambda: DescentElement({5: 1}),
    lambda: parse(5),
    lambda: basis(5),
    lambda: orbit_sum(5),
    lambda: SetComposition([[1]]) < 5,
], ids=["SetComposition", "TDElement", "DescentElement", "parse", "basis", "orbit_sum",
        "SetComposition-lt"])
def test_an_argument_of_the_wrong_type_raises_type_error(probe):
    with pytest.raises(TypeError):
        probe()
