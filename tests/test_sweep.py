"""The sweep engine behind every ``verify`` law."""

import random

import pytest

from twisted_descents import verify
from twisted_descents.algebra import TDElement, basis
from twisted_descents.limits import VERIFY_CASE_CAP, SizeLimitError
from twisted_descents.permutations import symmetric_group
from twisted_descents.setcomp import SetComposition
from twisted_descents.verify import Config, _single, _sweep, run_suite


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


def _raising_at(i, exc):
    def check(j):
        if j == i:
            raise exc

    return check


def test_a_check_that_raises_fails_on_its_case():
    pulled = []
    result = _sweep("s", "law", _counting(pulled, 10), _raising_at(3, KeyError("w")), str)
    assert result.line() == "FAIL [s] law: case 4: KeyError: 'w'"
    assert pulled == [0, 1, 2, 3]
    result = _sweep("s", "law", _counting([], 10), _raising_at(0, ValueError("bad")), str)
    assert result.line() == "FAIL [s] law: case 1: ValueError: bad"


def test_a_case_generator_that_raises_fails_on_the_case_it_draws():
    def cases():
        yield (0,)
        yield (1,)
        raise RuntimeError("no third case")

    result = _sweep("s", "law", cases(), lambda i: None, str)
    assert result.line() == "FAIL [s] law: case 3: RuntimeError: no third case"


def test_a_seeded_random_law_whose_check_raises_keeps_its_trial_label(monkeypatch):
    def conv_basis(a, b):
        raise ValueError("planted")

    monkeypatch.setattr(verify, "conv_basis", conv_basis)
    cfg = Config(max_n=3, trials=20)
    remarkable = {r.law: r.line() for r in run_suite("remarkable", cfg)}
    assert remarkable["random-quadruples"] == (
        "FAIL [remarkable] random-quadruples: trial 6: ValueError: planted"
    )
    # an unlabelled law keeps the case number
    assert remarkable["matched-support"] == (
        "FAIL [remarkable] matched-support: case 1: ValueError: planted"
    )
    # the random reciprocity triples make f * g as they are drawn, under its label
    [random_triples] = [r for r in run_suite("reciprocity", cfg) if r.law == "random-triples"]
    assert random_triples.line() == (
        "FAIL [reciprocity] random-triples: trial 0: ValueError: planted"
    )


def test_a_size_limit_still_ends_the_run():
    refusal = SizeLimitError("too big: 9 requested, cap 8", 8, 9)
    with pytest.raises(SizeLimitError) as err:
        _sweep("s", "law", _counting([], 10), _raising_at(2, refusal), str)
    assert err.value is refusal


def test_laws_after_one_that_raises_still_run(monkeypatch):
    def fixed_space_check(m, **kwargs):
        raise KeyError(f"weight {m}")

    monkeypatch.setattr(verify, "fixed_space_check", fixed_space_check)
    results = run_suite("all", Config(max_n=3, max_support=3, seed=0))
    assert len(results) == 39
    failed = [r.line() for r in results if not r.ok and not r.vacuous]
    assert failed == ["FAIL [fixed-space] invariant-subalgebra: case 1: KeyError: 'weight 1'"]
    assert results[-1].line() == "PASS [dims] fubini: 1 1 3 13"


def test_single_and_trial_helpers():
    def swept(check):
        return _sweep("s", *_single("law", check, "fixed")).line()

    assert swept(lambda: None) == "PASS [s] law: fixed"
    assert swept(lambda: "got 1") == "FAIL [s] law: got 1"

    def trials(check, cases=None):
        cases = _counting([], 10) if cases is None else cases
        return _sweep("s", "law", cases, check, str, "trial {}".format)

    assert trials(lambda i: None).line() == "PASS [s] law: 10"
    assert trials(lambda i: "x=0" if i == 4 else None).line() == "FAIL [s] law: trial 4: x=0"
    assert trials(_raising_at(2, KeyError("w"))).line() == "FAIL [s] law: trial 2: KeyError: 'w'"

    def cases():  # raises while it draws case 3, the trial labelled 2
        yield (0,)
        yield (1,)
        raise RuntimeError("no third case")

    result = trials(lambda i: None, cases())
    assert result.line() == "FAIL [s] law: trial 2: RuntimeError: no third case"
    refusal = SizeLimitError("too big: 9 requested, cap 8", 8, 9)
    with pytest.raises(SizeLimitError) as err:
        trials(_raising_at(2, refusal))
    assert err.value is refusal


def _raise_planted(*args, **kwargs):
    raise ValueError("planted")


@pytest.mark.parametrize("name, suite, cfg, want", [
    ("coproduct", "reciprocity", Config(max_n=3, trials=20), {
        "matched-support": "FAIL [reciprocity] matched-support: case 1: ValueError: planted",
        "all-triples-small": "FAIL [reciprocity] all-triples-small: case 1: ValueError: planted",
        "random-triples": "FAIL [reciprocity] random-triples: trial 0: ValueError: planted",
    }),
    ("random_set_composition", "equivariance", Config(max_n=4, trials=5), {
        "right-action-random":
            "FAIL [equivariance] right-action-random: n=4 trial 0: ValueError: planted",
    }),
])
def test_a_seeded_law_whose_draw_raises_names_the_trial(monkeypatch, name, suite, cfg, want):
    # the draw raises before the check runs; every other law still passes
    monkeypatch.setattr(verify, name, _raise_planted)
    failed = {r.law: r.line() for r in run_suite(suite, cfg) if not r.ok}
    assert failed == want


def test_zero_trials_leave_the_random_associativity_laws_vacuous():
    cfg = Config(max_n=0, max_support=0, trials=0)
    results = run_suite("assoc-conv", cfg) + run_suite("assoc-comp", cfg)
    assert [r.line() for r in results if r.law in ("associativity", "unit")] == [
        "VACUOUS [assoc-conv] associativity: no case checked (0 random triples, support <= 0)",
        "VACUOUS [assoc-conv] unit: no case checked ([] is a two-sided unit (0 trials))",
        "VACUOUS [assoc-comp] associativity: no case checked (0 random triples, support <= 0)",
    ]


def _reference_comp_of_word(rng, word):
    blocks = []
    for x in word:
        if blocks and rng.random() < 0.5:
            blocks[-1].append(x)
        else:
            blocks.append([x])
    return SetComposition(blocks)


def _reference_set_composition(rng, universe):
    return _reference_comp_of_word(rng, rng.sample(universe, rng.randint(0, len(universe))))


# 0 to 21 labels take sample's pool branch; over 22 and 30 labels a sample of
# at most 5 takes its set branch
UNIVERSE_SIZES = [0, 1, 4, 5, 21, 22, 30]


@pytest.mark.parametrize("n", UNIVERSE_SIZES)
def test_random_draws_match_validated_blocks_drawn_from_the_same_seed(n):
    universe = tuple(range(1, n + 1))
    rng = random.Random(5)
    want = [_reference_set_composition(rng, universe) for _ in range(900)]
    want_next = rng.random()
    rng = random.Random(5)
    got = [verify.random_set_composition(rng, universe) for _ in range(900)]
    assert got == want
    assert rng.random() == want_next
    for sc in got:
        again = SetComposition(sc.blocks)
        assert again == sc and again.support == sc.support


@pytest.mark.parametrize("n", UNIVERSE_SIZES)
def test_random_elements_match_randint_and_choice_from_the_same_seed(n):
    universe = tuple(range(1, n + 1))
    rng, want = random.Random(9), []
    for _ in range(300):
        x = TDElement({})
        for _ in range(rng.randint(1, 3)):
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            x = x + coeff * basis(_reference_set_composition(rng, universe))
        want.append(x)
    want_next = rng.random()
    rng = random.Random(9)
    got = [verify.random_element(rng, universe) for _ in range(300)]
    assert got == want
    assert rng.random() == want_next


@pytest.mark.parametrize("m", [1, 2, 4, 5])
def test_equivariance_permutation_draws_match_choice_from_the_same_seed(m):
    # the draws of compose-equivariance-random: two words, their blocks, then sigma
    perms = list(symmetric_group(m))
    rng, want = random.Random(11), []
    for _ in range(300):
        word_a, word_b = rng.choice(perms), rng.choice(perms)
        a, b = _reference_comp_of_word(rng, word_a), _reference_comp_of_word(rng, word_b)
        want.append((a, b, rng.choice(perms)))
    want_next = rng.random()
    rng, got = random.Random(11), []
    for _ in range(300):
        word_a, word_b = verify._choice(rng, perms), verify._choice(rng, perms)
        a = verify._random_comp_of_word(rng, word_a)
        b = verify._random_comp_of_word(rng, word_b)
        got.append((a, b, verify._choice(rng, perms)))
    assert got == want
    assert rng.random() == want_next


def test_dims_refuses_its_planned_set_compositions_before_enumerating(monkeypatch):
    def enumerate_set_compositions(s):
        raise AssertionError("enumerated")

    monkeypatch.setattr(verify, "enumerate_set_compositions", enumerate_set_compositions)
    with pytest.raises(SizeLimitError) as err:
        run_suite("dims", Config(max_n=10))
    assert (err.value.cap, err.value.requested) == (VERIFY_CASE_CAP, 109_933_269)
    assert str(err.value) == "verify dims set compositions: 109933269 requested, cap 10000000"
    # Σ_{m<=9} F(m) = 7,685,706 is under the cap, so --max-n 9 starts enumerating
    [result] = run_suite("dims", Config(max_n=9))
    assert result.line() == "FAIL [dims] fubini: case 1: AssertionError: enumerated"
