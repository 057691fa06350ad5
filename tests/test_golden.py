"""Byte-identity of a reduced ``verify all`` run against recorded output.

``golden/verify_all_small.{txt,json}`` hold the stdout of
``twisted-descents verify all --max-n 3 --max-support 3 --seed 0`` (text and
``--format json``), recorded before the sweep kernels were rewritten.  Any
change to a law line, a case count or the JSON layout shows up here.
"""

from pathlib import Path

import pytest

from twisted_descents.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
ARGS = ["verify", "all", "--max-n", "3", "--max-support", "3", "--seed", "0"]


@pytest.mark.parametrize("fmt, name", [("text", "verify_all_small.txt"), ("json", "verify_all_small.json")])
def test_verify_all_small_matches_golden(capsys, fmt, name):
    assert main(ARGS + ["--format", fmt]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
