"""The ``>>>`` examples of README.md run as doctests, so an API change
cannot leave a stale example behind."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_pass():
    result = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert result.attempted >= 13
    assert result.failed == 0
