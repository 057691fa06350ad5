"""The sweep engine behind every ``verify`` law."""

from twisted_descents.verify import Config, _single, _sweep, _trial, run_suite


def _counting(pulled, n):
    for i in range(n):
        pulled.append(i)
        yield (i,)


def test_first_counterexample_wins_and_no_further_case_is_pulled():
    pulled = []
    result = _sweep(
        "s", "law", _counting(pulled, 10),
        lambda i: f"case {i}" if i >= 3 else None, lambda k: f"{k} cases",
    )
    assert (result.ok, result.detail) == (False, "case 3")
    assert pulled == [0, 1, 2, 3]
    assert result.line() == "FAIL [s] law: case 3"


def test_pass_detail_counts_the_cases_checked():
    pulled = []
    checked = []
    result = _sweep("s", "law", _counting(pulled, 5), lambda i: checked.append(i), lambda k: f"{k} cases")
    assert (result.ok, result.detail) == (True, "5 cases")
    assert checked == pulled == [0, 1, 2, 3, 4]


def test_a_sweep_with_no_case_is_vacuous_not_a_pass():
    result = _sweep("s", "law", _counting([], 0), lambda i: None, lambda k: f"{k} cases")
    assert not result.ok
    assert result.line() == "VACUOUS [s] law: no case checked (0 cases)"


def test_single_and_trial_helpers():
    assert _single("s", "law", lambda: None, "fixed").line() == "PASS [s] law: fixed"
    assert _single("s", "law", lambda: "got 1", "fixed").line() == "FAIL [s] law: got 1"
    check = _trial(lambda x: None if x else "x=0")
    assert check("trial 4", 1) is None
    assert check("trial 4", 0) == "trial 4: x=0"


def test_zero_trials_leave_the_random_associativity_laws_vacuous():
    cfg = Config(max_n=0, max_support=0, trials=0)
    results = run_suite("assoc-conv", cfg) + run_suite("assoc-comp", cfg)
    assert [r.line() for r in results if r.law in ("associativity", "unit")] == [
        "VACUOUS [assoc-conv] associativity: no case checked (0 random triples, support <= 0)",
        "VACUOUS [assoc-conv] unit: no case checked ([] is a two-sided unit (0 trials))",
        "VACUOUS [assoc-comp] associativity: no case checked (0 random triples, support <= 0)",
    ]
