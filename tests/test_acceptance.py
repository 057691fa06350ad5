"""Acceptance gate: one test and one PASS/FAIL line per criterion.

Criteria are checked at their stated scales and tolerances.  Timed
criteria measure wall-clock time with ``time.perf_counter`` after a
warm-up call; sweeps are exhaustive at the stated sizes.
"""

import itertools
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import record

from twisted_descents.algebra import (
    TensorElement,
    act,
    basis,
    chamber,
    compose_basis,
    composition_product,
    convolution,
    coproduct,
    tensor_composition,
    tensor_convolution,
)
from twisted_descents.oracle import endo_compose, represent
from twisted_descents.permutations import compose, symmetric_group, young_subgroup
from twisted_descents.setcomp import (
    SetComposition,
    compositions,
    count_set_compositions,
    enumerate_set_compositions,
    interval_partition,
    multinomial,
)
from twisted_descents.solomon import (
    DescentElement,
    descent_class,
    fixed_space_check,
    shuffle_test,
    solomon_compose,
    star,
    truncation_check,
    young_decompose,
)
from twisted_descents.textio import parse, render
from twisted_descents.verify import Config, run_suite


def _subsets(universe):
    for r in range(len(universe) + 1):
        yield from itertools.combinations(universe, r)


def _comps(sub):
    return list(enumerate_set_compositions(sub))


def test_criterion_01_composition_worked_example():
    a, b = parse("[{3,5}|{1,4}]"), parse("[{5}|{1,3,4}]")
    out = render(composition_product(a, b))
    exact = out == "1*[{5}|{3}|{1,4}]"
    composition_product(a, b)  # warm
    t0 = time.perf_counter()
    reps = 200
    for _ in range(reps):
        composition_product(parse("[{3,5}|{1,4}]"), parse("[{5}|{1,3,4}]"))
    per_call = (time.perf_counter() - t0) / reps
    ok = exact and per_call < 1e-3
    record(1, ok, f"composition example -> {out!r}, {per_call * 1e6:.0f} us/call (< 1 ms)")
    assert ok


def test_criterion_02_unshuffling_worked_example():
    got = composition_product(
        parse("[{1,3,5}|{2,4}]"), basis(chamber((3, 4, 5, 2, 1)))
    )
    expected = basis(chamber((3, 5, 1, 4, 2)))
    ok = got == expected
    record(2, ok, f"unshuffling example -> {render(got)}")
    assert ok


def test_criterion_03_non_bialgebra_counterexample():
    x = parse("[{1,2}]")
    lhs = coproduct(convolution(x, x))
    rhs = tensor_convolution(coproduct(x), coproduct(x))
    s12 = SetComposition([[1, 2]])
    c12 = SetComposition([[1], [2]])
    c21 = SetComposition([[2], [1]])
    pinned = TensorElement({(s12, s12): 2, (c12, c21): 1, (c21, c12): 1})
    ok = lhs == TensorElement({}) and rhs == pinned
    record(3, ok, "delta(x*x) = 0 while delta(x) *2 delta(x) is the 3-term value")
    assert ok


def test_criterion_04_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for sub in _subsets((1, 2, 3, 4)):
        comps = _comps(sub)
        tables = {c: represent(c, sub) for c in comps}
        for a in comps:
            for b in comps:
                product = composition_product(basis(a), basis(b))
                target = compose_basis(a, b)
                if product.terms != {target: 1}:
                    ok = False
                    break
                if endo_compose(tables[a], tables[b]) != tables[target]:
                    ok = False
                    break
                checked += 1
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    record(4, ok, f"{checked} equal-support pairs match the endomorphism oracle in {elapsed:.1f} s (< 60 s)")
    assert ok


def test_criterion_05_bialgebra_laws():
    compose_checked = 0
    ok = True
    counts = {}
    for m in range(5):
        sub = tuple(range(1, m + 1))
        comps = _comps(sub)
        counts[m] = len(comps)
        deltas = {c: coproduct(basis(c)) for c in comps}
        for a in comps:
            for b in comps:
                lhs = coproduct(composition_product(basis(a), basis(b)))
                if lhs != tensor_composition(deltas[a], deltas[b]):
                    ok = False
                    break
                compose_checked += 1
            if not ok:
                break
        if not ok:
            break
    ok = ok and counts[3] == 13 and counts[4] == 75

    conv_checked = 0
    ground = (1, 2, 3, 4)
    for sub_a in _subsets(ground):
        rest = tuple(x for x in ground if x not in sub_a)
        for sub_b in _subsets(rest):
            for a in _comps(sub_a):
                da = coproduct(basis(a))
                for b in _comps(sub_b):
                    lhs = coproduct(convolution(basis(a), basis(b)))
                    if lhs != tensor_convolution(da, coproduct(basis(b))):
                        ok = False
                        break
                    conv_checked += 1
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    record(
        5,
        ok,
        f"compose law on {compose_checked} pairs (13^2, 75^2 included),"
        f" convolution law on {conv_checked} disjoint pairs — zero mismatches",
    )
    assert ok


@pytest.fixture(scope="module")
def verify_all_default():
    """One ``verify all --seed 0`` run, shared by criteria 6 and 12: (process, seconds)."""
    cmd = [sys.executable, "-m", "twisted_descents.cli", "verify", "all", "--seed", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    return proc, time.perf_counter() - t0


def test_criterion_06_reciprocity_and_remarkable_identity(verify_all_default):
    # the default sweep runs both suites at Config(); read their law lines from it
    proc, _ = verify_all_default
    laws = re.compile(r"(\w+) \[(reciprocity|remarkable)\] ([\w-]+): (.*)")
    results = [m.groups() for m in map(laws.fullmatch, proc.stdout.splitlines()) if m]
    ok = {suite for _, suite, _, _ in results} == {"reciprocity", "remarkable"}
    ok = ok and all(status == "PASS" for status, _, _, _ in results)
    detail = "; ".join(f"{law} ({text})" for _, _, law, text in results if "matched" in law)
    record(6, ok, f"exhaustive sweeps pass: {detail}")
    assert ok


def test_criterion_07_solomon_rule():
    ok = True
    checked = 0
    for n in range(1, 6):
        comps_n = list(compositions(n))
        if n == 5 and len(comps_n) != 16:
            ok = False
        one_n = DescentElement({(n,): 1})
        for c1 in comps_n:
            a = DescentElement({c1: 1})
            if solomon_compose(one_n, a) != a or solomon_compose(a, one_n) != a:
                ok = False
                break
            for c2 in comps_n:
                b = DescentElement({c2: 1})
                if not truncation_check(a, b):
                    ok = False
                    break
                product = solomon_compose(a, b)
                if not all(isinstance(v, int) and v > 0 for v in product.terms.values()):
                    ok = False
                    break
                checked += 1
            if not ok:
                break
        if not ok:
            break
    record(7, ok, f"{checked} weight-pairs: matrix rule = truncation route, constants positive, 1_n unital")
    assert ok


def test_criterion_08_shuffle_descent_duality():
    ok = True
    checked = 0
    for n in range(1, 7):
        perms = list(symmetric_group(n))
        for c in compositions(n):
            parts = interval_partition(c)
            via_compose = {p for p in perms if shuffle_test(parts, p)}
            via_descents = set(star(descent_class(c)).terms)
            if via_compose != via_descents or len(via_compose) != multinomial(c):
                ok = False
                break
            checked += 1
        if not ok:
            break
    record(8, ok, f"{checked} compositions of n <= 6: shuffle set = inverse descent class, size multinomial")
    assert ok


def test_criterion_09_young_factorization():
    ok = True
    checked = 0
    for c in compositions(4):
        parts = interval_partition(c)
        young = set(young_subgroup(c))
        shuffle_count = 0
        for sigma in symmetric_group(4):
            beta, tau = young_decompose(parts, sigma)
            if beta not in young or not shuffle_test(parts, tau) or compose(beta, tau) != sigma:
                ok = False
                break
            checked += 1
        if not ok:
            break
        shuffle_count = sum(1 for p in symmetric_group(4) if shuffle_test(parts, p))
        if len(young) * shuffle_count != 24:
            ok = False
            break
    record(9, ok, f"{checked} factorizations over S_4; |Young| x |shuffles| = 24 for every partition")
    assert ok


def test_criterion_10_equivariance_and_fixed_space():
    results = run_suite("equivariance", Config())
    ok = all(r.ok for r in results)
    for n in range(1, 5):
        if not fixed_space_check(n):
            ok = False
    record(10, ok, "right action + compose-equivariance suites pass; fixed_space_check holds for n <= 4")
    assert ok


def test_criterion_11_dimension_table():
    def stirling2(n, k):
        table = [[0] * (k + 1) for _ in range(n + 1)]
        table[0][0] = 1
        for i in range(1, n + 1):
            for j in range(1, k + 1):
                table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
        return table[n][k]

    dims = []
    ok = True
    for n in range(1, 6):
        sub = tuple(range(1, n + 1))
        enumerated = sum(1 for _ in enumerate_set_compositions(sub))
        oracle = sum(math.factorial(k) * stirling2(n, k) for k in range(n + 1))
        if enumerated != oracle or enumerated != count_set_compositions(n):
            ok = False
        dims.append(enumerated)
    ok = ok and dims == [1, 3, 13, 75, 541]
    record(11, ok, f"graded dimensions n=1..5: {' '.join(map(str, dims))}")
    assert ok


def test_criterion_12_verify_all_runtime_and_determinism(verify_all_default):
    proc, elapsed = verify_all_default
    ok = proc.returncode == 0 and elapsed < 300
    ok = ok and proc.stdout.splitlines()[-1].endswith("laws hold")
    golden = Path(__file__).parent / "golden" / "verify_all_default.txt"
    ok = ok and proc.stdout.encode("utf-8") == golden.read_bytes()

    reduced = [
        sys.executable, "-m", "twisted_descents.cli", "verify", "all",
        "--max-n", "3", "--max-support", "3", "--trials", "50", "--seed", "123",
    ]
    first = subprocess.run(reduced, capture_output=True, text=True, timeout=300)
    second = subprocess.run(reduced, capture_output=True, text=True, timeout=300)
    # at --max-n 3 the two random equivariance laws (n = 4..3) are VACUOUS: exit 1
    ok = ok and first.returncode == 1 and first.stdout.endswith("\n37/39 laws hold\n")
    ok = ok and first.stdout == second.stdout
    record(
        12,
        ok,
        f"verify all: exit {proc.returncode} in {elapsed:.1f} s (< 300 s),"
        " stdout equal to golden/verify_all_default.txt;"
        " repeated seeded runs byte-identical",
    )
    assert ok
