"""Byte-identity of ``verify all`` runs against recorded output.

``golden/verify_all_small.{txt,json}`` hold the stdout of
``twisted-descents verify all --max-n 3 --max-support 3 --seed 0`` (text and
``--format json``), recorded before the sweep kernels were rewritten.  Any
change to a law line, a case count or the JSON layout shows up here.  Its two
random equivariance lines were re-recorded when a law that checks no case
became ``VACUOUS`` instead of ``PASS``, in this file and in the faults file.

``golden/verify_all_faults.txt`` holds the 39 law lines of the same sweep with
three kernels broken on purpose, recorded before the suites moved onto one
sweep engine: it pins which case each failing law reports first, and the
counterexample text.  ``golden/verify_all_default.txt`` (the default run) is
compared by acceptance criterion 12, which runs that sweep anyway.

``golden/cli_ops.txt`` holds the stdout of the ``CLI_CALLS`` below, each
after a ``$`` line naming the call, recorded before the single-operation
CLI path was made lazy (one parser per process, only the requested format
built, ∘ paired by support).  Its ``--ascii`` calls of ``conv``, ``comp``,
``solomon`` and ``young`` were deleted when those commands lost the flag;
each had printed the same bytes as the call without it.
"""

import shlex
from pathlib import Path

import pytest

from twisted_descents import verify
from twisted_descents.cli import EXIT_OK, EXIT_VERIFY, main
from twisted_descents.setcomp import SetComposition
from twisted_descents.solomon import DescentElement

GOLDEN = Path(__file__).parent / "golden"
ARGS = ["verify", "all", "--max-n", "3", "--max-support", "3", "--seed", "0"]

# Mixed supports, signs and coefficients; the largest label is MAX_LABEL.
_X = "2*[{1,3}] - [{2}] + 3*[{4}|{5}] - 7*[]"
_Y = "[{2}] - 4*[{6}|{7,8}] + [{1}] + 2*[{4294967295}|{9}]"
_F = "3*[{1,2}|{3}] - [{3}|{1,2}] + 2*[{1}|{2}] + [{4}] - 5*[{2}|{1}|{3}]"
_G = "[{1}|{2,3}] + 5*[{2}|{1}] - 2*[{1,2,3}] + 3*[{4}] + [{3,4}]"
_OPS = [
    ["conv", _X, _Y],
    ["conv", _Y, _X],
    ["conv", "[{1,2}]", "[{2}]"],
    ["comp", _F, _G],
    ["comp", _G, _F],
    ["comp", "[{1}]", "[{2}]"],
    ["coprod", "2*[{1,2}|{3}] - [{4}] + 3*[]"],
    ["coprod", "--", "-[{5}|{1,4294967295}]"],
    ["solomon", "2,1", "1,2"],
    ["solomon", "2,2", "3,1"],
    ["solomon", "2", "3"],
    ["young", "2,1,2", "3,5,1,4,2"],
    ["young", "3", "2,3,1"],
]
# --ascii only where it changes something: coprod's ⊗.
CLI_CALLS = [
    [op[0], *style, *op[1:]]
    for op in _OPS
    for style in ([], ["--ascii"], ["--format", "json"])
    if style != ["--ascii"] or op[0] == "coprod"
]


def cli_transcript(capsys) -> str:
    out = []
    for argv in CLI_CALLS:
        assert main(argv) == EXIT_OK, argv
        out.append(f"$ twisted-descents {shlex.join(argv)}\n{capsys.readouterr().out}")
    return "".join(out)


@pytest.mark.parametrize("fmt, name", [("text", "verify_all_small.txt"), ("json", "verify_all_small.json")])
def test_verify_all_small_matches_golden(capsys, fmt, name):
    # the two random equivariance laws draw at n = 4..3, so they are VACUOUS
    assert main(ARGS + ["--format", fmt]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_cli_operations_match_golden(capsys):
    got = cli_transcript(capsys)
    assert got.encode("utf-8") == (GOLDEN / "cli_ops.txt").read_bytes()


def test_verify_all_failure_path_matches_golden(monkeypatch):
    real_act, real_solomon, real_conv = verify.act, verify.solomon_compose, verify.conv_basis

    def solomon_compose(a, b):
        # one extra copy of the least term once the weight reaches 3
        out = real_solomon(a, b)
        if any(sum(c) >= 3 for c in out.terms):
            return out + DescentElement({min(out.terms): 1})
        return out

    def conv_basis(a, b):
        # blocks reversed on products of three or more blocks; never zero
        out = real_conv(a, b)
        if out is not None and len(out.sets) >= 3:
            return SetComposition(out.sets[::-1])
        return out

    # acting twice acts by sigma^2: still a relabelling, no longer an action
    monkeypatch.setattr(verify, "act", lambda x, s: real_act(real_act(x, s), s))
    monkeypatch.setattr(verify, "solomon_compose", solomon_compose)
    monkeypatch.setattr(verify, "conv_basis", conv_basis)
    results = verify.run_suite("all", verify.Config(max_n=3, max_support=3, seed=0))
    got = "".join(r.line() + "\n" for r in results)
    assert got.encode("utf-8") == (GOLDEN / "verify_all_faults.txt").read_bytes()
