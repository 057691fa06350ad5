import gc
import json
import re
import subprocess
import sys

from types import SimpleNamespace

import pytest

from twisted_descents import cli
from twisted_descents.cli import EXIT_CAP, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_conv(capsys):
    code, out, _ = run(capsys, "conv", "[{3,5}]", "[{1,4}]")
    assert code == EXIT_OK
    assert out == "1*[{3,5}|{1,4}]\n"


def test_conv_overlap_is_zero(capsys):
    code, out, _ = run(capsys, "conv", "[{1,2}]", "[{1,2}]")
    assert code == EXIT_OK
    assert out == "0\n"


def test_conv_unit(capsys):
    code, out, _ = run(capsys, "conv", "[]", "[{2}]")
    assert code == EXIT_OK
    assert out == "1*[{2}]\n"


def test_comp_support_mismatch(capsys):
    code, out, _ = run(capsys, "comp", "[{1}]", "[{2}]")
    assert code == EXIT_OK
    assert out == "0\n"


def test_comp(capsys):
    code, out, _ = run(capsys, "comp", "[{3,5}|{1,4}]", "[{5}|{1,3,4}]")
    assert code == EXIT_OK
    assert out == "1*[{5}|{3}|{1,4}]\n"


def test_coprod(capsys):
    code, out, _ = run(capsys, "coprod", "[]")
    assert code == EXIT_OK
    assert out == "1*[]⊗[]\n"
    code, out, _ = run(capsys, "coprod", "[]", "--ascii")
    assert out == "1*[](x)[]\n"
    code, out, _ = run(capsys, "coprod", "[{1,2}]")
    assert out == "1*[]⊗[{1,2}] + 1*[{1}]⊗[{2}] + 1*[{2}]⊗[{1}] + 1*[{1,2}]⊗[]\n"


def test_solomon(capsys):
    code, out, _ = run(capsys, "solomon", "1,1", "1,1")
    assert code == EXIT_OK
    assert out == "2*(1,1)\n"
    code, out, _ = run(capsys, "solomon", "1,2", "2,1")
    assert out == "1*(1,1,1) + 1*(1,2)\n"
    code, out, _ = run(capsys, "solomon", "2", "1,1")
    assert out == "1*(1,1)\n"
    code, out, _ = run(capsys, "solomon", "2", "3")
    assert out == "0\n"


def test_young(capsys):
    code, out, _ = run(capsys, "young", "2,2", "2,4,1,3")
    assert code == EXIT_OK
    assert out == "beta = 2,1,4,3\nshuffle = 1,3,2,4\n"
    code, out, _ = run(capsys, "young", "1,1,1", "3,1,2")
    assert out == "beta = 1,2,3\nshuffle = 3,1,2\n"
    code, out, _ = run(capsys, "young", "3", "3,1,2")
    assert out == "beta = 3,1,2\nshuffle = 1,2,3\n"


def test_json_output(capsys):
    code, out, _ = run(capsys, "conv", "[{3,5}]", "[{1,4}]", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"terms": [{"coeff": 1, "blocks": [[3, 5], [1, 4]]}]}
    code, out, _ = run(capsys, "coprod", "[]", "--format", "json")
    assert json.loads(out) == {"terms": [{"coeff": 1, "left": [], "right": []}]}
    code, out, _ = run(capsys, "solomon", "1,1", "1,1", "--format", "json")
    assert json.loads(out) == {"terms": [{"coeff": 2, "parts": [1, 1]}]}
    code, out, _ = run(capsys, "young", "2,2", "2,4,1,3", "--format", "json")
    assert json.loads(out) == {"beta": [2, 1, 4, 3], "shuffle": [1, 3, 2, 4]}


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "conv", "[{1,1}]", "[{2}]")
    assert code == EXIT_USAGE
    assert "parse error" in err


def test_oversized_integers_are_parse_errors(capsys):
    for argv in (["[{" + "1" * 5000 + "}]", "[{1}]"], ["1" * 5000 + "*[{1}]", "[{2}]"]):
        code, out, err = run(capsys, "conv", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("parse error: integer of more than 4300 digits")


@pytest.mark.parametrize(
    "argv, position",
    [
        (["solomon", "1" * 5000, "1"], 0),
        (["young", "1" * 5000, "1"], 0),
        (["solomon", "2, " + "1" * 5000, "2"], 3),
        (["young", "2,1", "3,1,-" + "2" * 5000], 5),
    ],
    ids=lambda v: str(v) if isinstance(v, int) else v[0],
)
def test_oversized_comma_list_integers_are_parse_errors(capsys, argv, position):
    # the error points at the first digit of the long piece, as in the element grammar
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"parse error: integer of more than 4300 digits (at position {position})\n"


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "young", "2,1", "1,2")  # degree mismatch
    assert code == EXIT_USAGE


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, "coprod", "[{1,2,3,4,5}]", "--max-terms", "16")
    assert code == EXIT_CAP
    assert "size limit" in err


def test_solomon_refuses_past_its_work_cap(capsys):
    ones = ",".join(["1"] * 14)
    code, out, err = run(capsys, "solomon", ones, ones)
    assert (code, out) == (EXIT_CAP, "")
    assert err == "size limit: Solomon's rule weight + log2(term pairs): 14 requested, cap 13\n"


def test_env_cap_and_flag_precedence(capsys, monkeypatch):
    # only the flag caps coprod: the environment moves nothing
    monkeypatch.setenv("TDA_MAX_TERMS", "16")
    code, out, _ = run(capsys, "coprod", "[{1,2,3,4,5}]")
    assert code == EXIT_OK
    assert out.count("⊗") == 32
    code, _, _ = run(capsys, "coprod", "[{1,2,3,4,5}]", "--max-terms", "16")
    assert code == EXIT_CAP
    code, out, _ = run(capsys, "coprod", "[{1,2,3,4,5}]", "--max-terms", "32")
    assert code == EXIT_OK
    assert out.count("⊗") == 32
    for junk in ("not-a-number", "-1", "+4", "٣", "1_0"):
        monkeypatch.setenv("TDA_MAX_TERMS", junk)
        code, out, err = run(capsys, "coprod", "[{1,2}]")
        assert (code, out.count("⊗"), err) == (EXIT_OK, 4, "")


PRODUCT_ARGS = ["[{1}] + [{2}] + [{3}]", "[{1}] + [{4}]"]  # 6 term pairs


@pytest.mark.parametrize("command", ["conv", "comp"])
def test_product_cap_exit_code(capsys, command):
    code, _, err = run(capsys, command, *PRODUCT_ARGS, "--max-terms", "5")
    assert code == EXIT_CAP
    assert "size limit" in err and "term pairs: 6 requested, cap 5" in err
    code, _, _ = run(capsys, command, *PRODUCT_ARGS, "--max-terms", "6")
    assert code == EXIT_OK


@pytest.mark.parametrize("command", ["conv", "comp"])
def test_product_env_cap_and_flag_precedence(capsys, monkeypatch, command):
    # only the flag caps conv and comp: the environment moves nothing
    monkeypatch.setenv("TDA_MAX_TERMS", "5")
    code, _, _ = run(capsys, command, *PRODUCT_ARGS)
    assert code == EXIT_OK
    code, _, _ = run(capsys, command, *PRODUCT_ARGS, "--max-terms", "5")
    assert code == EXIT_CAP
    code, _, _ = run(capsys, command, *PRODUCT_ARGS, "--max-terms", "6")
    assert code == EXIT_OK
    monkeypatch.setenv("TDA_MAX_TERMS", "not-a-number")
    code, _, err = run(capsys, command, *PRODUCT_ARGS)
    assert (code, err) == (EXIT_OK, "")


VALID_ARGS = {
    "conv": ["[{1}]", "[{2}]"],
    "comp": ["[{1}]", "[{1}]"],
    "coprod": ["[{1}]"],
    "solomon": ["1,1", "2"],
    "young": ["2,1", "3,1,2"],
    "verify": ["dims"],
}
FLAGS = {
    "conv": {"--format", "--max-terms"},
    "comp": {"--format", "--max-terms"},
    "coprod": {"--format", "--ascii", "--max-terms"},
    "solomon": {"--format"},
    "young": {"--format"},
    "verify": {"--format", "--max-n", "--max-support", "--seed", "--trials"},
}
ALL_FLAGS = set().union(*FLAGS.values())
REMOVED = [(c, f) for c in FLAGS for f in sorted(ALL_FLAGS - FLAGS[c])]


def test_help_lists_only_the_flags_a_command_reads(capsys):
    for command, flags in FLAGS.items():
        code, out, _ = run(capsys, command, "--help")
        assert code == EXIT_OK
        assert set(re.findall(r"--[a-z-]+", out)) - {"--help"} == flags
    assert sum(map(len, FLAGS.values())) == 14 and len(REMOVED) == 28


@pytest.mark.parametrize("command, flag", REMOVED)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, command, flag):
    value = [] if flag == "--ascii" else ["3"]
    assert run(capsys, command, *VALID_ARGS[command])[0] == EXIT_OK
    code, _, err = run(capsys, command, *VALID_ARGS[command], flag, *value)
    assert code == EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["young", "2,1", "٣,1,2"],
        ["young", "2,1", "+3,1,2"],
        ["solomon", "1_0", "٢"],
        ["solomon", "1,1", "²"],
        ["conv", "[{1}]", "[{2}]", "--max-terms", "٣"],
        ["comp", "[{1}]", "[{1}]", "--max-terms", "+3"],
        ["coprod", "[{1}]", "--max-terms", "-1"],
        ["verify", "dims", "--max-n", "-1"],
        ["verify", "dims", "--max-support", "1_0"],
        ["verify", "dims", "--trials", "٣"],
        ["verify", "dims", "--seed", "+3"],
        ["verify", "dims", "--seed", "٣"],
    ],
    ids=" ".join,
)
def test_integers_take_ascii_digits_only(capsys, argv):
    # int() also takes other scripts' digits, '_' separators and a '+' sign
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")


def _refuse(*args, **kwargs):
    raise AssertionError("built an output format that was not asked for")


OUTPUT_CALLS = [
    ["conv", "[{1}] + 2*[{3}]", "[{2}]"],
    ["comp", "[{1}|{2}] - [{3}]", "[{2}|{1}]"],
    ["coprod", "[{1,2}]"],
    ["coprod", "[{1,2}]", "--ascii"],
    ["solomon", "2,1", "1,2"],
    ["young", "2,1", "3,1,2"],
]


@pytest.mark.parametrize("argv", OUTPUT_CALLS, ids=lambda argv: " ".join(argv))
def test_text_output_builds_no_json(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "element_to_json", _refuse)
    monkeypatch.setattr(cli, "tensor_to_json", _refuse)
    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=_refuse))
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out


@pytest.mark.parametrize("argv", OUTPUT_CALLS, ids=lambda argv: " ".join(argv))
def test_json_output_renders_no_text(capsys, monkeypatch, argv):
    for name in ("render", "render_tensor", "_join_terms", "render_composition",
                 "render_permutation"):
        monkeypatch.setattr(cli, name, _refuse)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    json.loads(out)


def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert cli._parser() is cli._parser()
    code, out, _ = run(
        capsys, "coprod", "[{1,2}]", "--format", "json", "--ascii", "--max-terms", "4"
    )
    assert code == EXIT_OK
    assert len(json.loads(out)["terms"]) == 4
    # no json, no ASCII tensor sign and no cap of 4 carried over
    code, out, _ = run(capsys, "coprod", "[{1,2}|{3}]")
    assert code == EXIT_OK
    assert out.count("⊗") == 8 and not out.startswith("{")
    code, out, _ = run(capsys, "conv", "[{3,5}]", "[{1,4}]")
    assert (code, out) == (EXIT_OK, "1*[{3,5}|{1,4}]\n")


@pytest.mark.parametrize(
    "command, name", [("conv", "convolution"), ("comp", "composition_product")]
)
def test_products_resolve_at_call_time(capsys, monkeypatch, command, name):
    # the parser is built once per process; a product rebound on the module
    # afterwards (as a call tracer does) must still be the one that runs
    cli._parser()
    real, seen = getattr(cli, name), []

    def wrapped(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapped)
    code, _, _ = run(capsys, command, "[{1}]", "[{1}]")
    assert code == EXIT_OK and len(seen) == 1


def test_verify_single_suite(capsys, monkeypatch):
    monkeypatch.setenv("TDA_MAX_TERMS", "junk")  # verify reads no term cap
    code, out, _ = run(capsys, "verify", "dims")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "PASS [dims] fubini: 1 1 3 13 75 541"
    assert lines[-1] == "1/1 laws hold"


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == EXIT_USAGE
    assert "unknown suite" in err


def test_cli_import_leaves_the_verifier_unloaded():
    # only the verify command loads it, and its output is the same
    script = (
        "import sys\n"
        "import twisted_descents.cli as cli\n"
        "print('twisted_descents.verify' in sys.modules)\n"
        "print(cli.main(['verify', 'dims']))\n"
        "print(cli.main(['verify', 'nosuch']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.splitlines() == [
        "False",
        "PASS [dims] fubini: 1 1 3 13 75 541",
        "1/1 laws hold",
        str(EXIT_OK),
        str(EXIT_USAGE),
    ]
    assert proc.stderr == (
        "unknown suite 'nosuch'; available: assoc-conv, assoc-comp, bialgebra, "
        "reciprocity, remarkable, oracle, solomon, equivariance, shuffles, "
        "fixed-space, dims, all\n"
    )


def test_verifier_import_loads_no_dataclasses_or_inspect():
    # its two records are plain named tuples
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import twisted_descents.verify\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.stdout, proc.stderr) == ("[]\n", "")


def test_verify_respects_caps(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "dims", "--max-n", "3")
    assert code == EXIT_OK
    assert "1 1 3 13" in out
    code, out, err = run(capsys, "verify", "dims", "--max-n", "10")
    assert (code, out) == (EXIT_CAP, "")
    assert err == "size limit: verify dims set compositions: 109933269 requested, cap 10000000\n"
    code, out, _ = run(capsys, "verify", "dims", "--max-n", "2", "--seed", "-3")
    assert (code, out.splitlines()[0]) == (EXIT_OK, "PASS [dims] fubini: 1 1 3")
    # only the flags size verify: the environment moves nothing
    for value in ("2", "-1"):
        monkeypatch.setenv("TDA_MAX_N", value)
        monkeypatch.setenv("TDA_MAX_SUPPORT", value)
        code, out, err = run(capsys, "verify", "dims")
        assert (code, out.splitlines()[0], err) == (
            EXIT_OK,
            "PASS [dims] fubini: 1 1 3 13 75 541",
            "",
        )


_FIXED_SPACE_6 = "size limit: fixed-space check weight: 6 requested, cap 5\n"
_WORDS_5 = "size limit: word-table universe size: 5 requested, cap 4\n"


@pytest.mark.parametrize("argv, err_line", [
    pytest.param(["fixed-space", "--max-n", "6"], _FIXED_SPACE_6, id="fixed-space-n6"),
    pytest.param(["all", "--max-n", "6"], _FIXED_SPACE_6, id="all-n6"),
    pytest.param(["oracle", "--max-support", "5"], _WORDS_5, id="oracle-support5"),
    pytest.param(["all", "--max-support", "5"], _WORDS_5, id="all-support5"),
    pytest.param(["all", "--max-n", "10"],
                 "size limit: fixed-space check weight: 10 requested, cap 5\n", id="all-n10"),
])
def test_verify_refuses_an_oversized_run_before_its_first_case(capsys, monkeypatch, argv, err_line):
    from twisted_descents import verify

    def never(*args):
        raise AssertionError("a law was swept before every size guard ran")

    monkeypatch.setattr(verify, "_sweep", never)
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (EXIT_CAP, "", err_line)


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "dims", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"][0]["suite"] == "dims"
    assert doc["results"][0]["ok"] is True


def test_verify_is_deterministic(capsys):
    args = ["verify", "assoc-conv", "--max-n", "3", "--trials", "20", "--seed", "7"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)
    assert code1 == EXIT_OK


@pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
def collector(request):
    """The collector as a caller left it before ``main``; its state is put
    back after the test."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def test_command_runs_with_the_collector_paused(capsys, monkeypatch, collector):
    from twisted_descents import verify

    seen = []

    def recording(real):
        def wrapped(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "convolution", recording(cli.convolution))
    monkeypatch.setattr(verify, "run_suite", recording(verify.run_suite))
    assert run(capsys, "conv", "[{1}]", "[{2}]")[0] == EXIT_OK
    assert run(capsys, "verify", "dims", "--max-n", "2")[0] == EXIT_OK
    assert seen == [False, False]
    assert gc.isenabled() is collector


@pytest.mark.parametrize("argv, want", [
    (["conv", "[{1}]", "[{2}]"], EXIT_OK),
    (["verify", "dims", "--max-n", "2"], EXIT_OK),
    (["conv", "[{1}", "[{2}]"], EXIT_USAGE),  # a parse error
    (["conv", "[{1}]"], EXIT_USAGE),  # an argparse usage error
    (["verify", "nope"], EXIT_USAGE),  # an unknown suite
    (["conv", "--max-terms", "5", "[{1}] + [{2}] + [{3}]", "[{4}] + [{5}]"], EXIT_CAP),
    (["conv", "--help"], EXIT_OK),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_main_restores_the_callers_collector(capsys, collector, argv, want):
    assert run(capsys, *argv)[0] == want
    assert gc.isenabled() is collector


def test_main_restores_the_collector_when_a_command_raises(capsys, monkeypatch, collector):
    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "convolution", broken)
    with pytest.raises(RuntimeError, match="planted"):
        main(["conv", "[{1}]", "[{2}]"])
    assert gc.isenabled() is collector


def _unreachable_after(fn) -> int:
    """The objects a cyclic collection frees after ``fn`` ran with the
    collector off: the reference cycles that ``fn`` left behind."""
    cli._parser()  # built once per process; its first build is not the command's
    gc.collect()
    before = gc.isenabled()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        (gc.enable if before else gc.disable)()


NO_CYCLE_CALLS = [
    *(argv + fmt for argv in OUTPUT_CALLS for fmt in ([], ["--format", "json"])),
    ["verify", "shuffles", "--max-n", "4"],
    ["verify", "solomon", "--max-n", "3"],
    ["verify", "fixed-space", "--max-n", "3"],
]


@pytest.mark.parametrize("argv", NO_CYCLE_CALLS, ids=lambda argv: " ".join(argv))
def test_command_leaves_no_reference_cycles(capsys, argv):
    # the premise of pausing the collector in main: reference counting alone
    # frees everything a command discards
    codes = []
    assert _unreachable_after(lambda: codes.append(main(argv))) == 0
    assert codes == [EXIT_OK]
    assert capsys.readouterr().out


def test_recursive_enumerations_leave_no_reference_cycles():
    from twisted_descents.permutations import descent_class
    from twisted_descents.solomon import descent_basis_expand

    assert _unreachable_after(lambda: list(descent_class((2, 1, 1)))) == 0
    assert _unreachable_after(lambda: descent_basis_expand((2, 1), [1, 2, 3])) == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "twisted_descents.cli", "conv", "[{3,5}]", "[{1,4}]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1*[{3,5}|{1,4}]\n"


def test_console_script_if_installed():
    import shutil

    exe = shutil.which("twisted-descents")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "solomon", "1,1", "1,1"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == "2*(1,1)\n"
