import itertools
import math

import pytest

from twisted_descents import permutations
from twisted_descents.permutations import (
    check_permutation,
    compose,
    descent_class,
    descent_set,
    identity,
    inverse,
    shuffles,
    symmetric_group,
    young_subgroup,
)
from twisted_descents.setcomp import compositions


def test_check_permutation():
    assert check_permutation([3, 1, 2]) == (3, 1, 2)
    with pytest.raises(ValueError):
        check_permutation([1, 1])
    with pytest.raises(ValueError):
        check_permutation([0, 1])
    # entries compare equal to 1..n but are not ints
    with pytest.raises(ValueError, match=r"^permutation entry True is not an integer$"):
        check_permutation((True,))
    with pytest.raises(ValueError, match=r"^permutation entry 2\.0 is not an integer$"):
        check_permutation((2.0, 1))


def test_descent_set():
    assert descent_set((1, 2, 3)) == frozenset()
    assert descent_set((3, 1, 2)) == frozenset({1})
    assert descent_set((2, 1, 4, 3)) == frozenset({1, 3})
    assert descent_set((4, 3, 2, 1)) == frozenset({1, 2, 3})


def test_inverse():
    assert inverse((1, 2, 3)) == (1, 2, 3)
    assert inverse((3, 1, 2)) == (2, 3, 1)
    assert inverse((2, 1, 4, 3)) == (2, 1, 4, 3)
    for n in range(7):
        for p in symmetric_group(n):
            assert inverse(inverse(p)) == p
            assert compose(p, inverse(p)) == identity(n)


def test_compose_convention():
    # compose(p, q)(i) = p(q(i))
    p, q = (2, 3, 1), (3, 2, 1)
    assert compose(p, q) == (1, 3, 2)
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_descent_class_members():
    d21 = list(descent_class((2, 1)))
    assert len(d21) == 3
    assert all(descent_set(p) <= {2} for p in d21)
    assert list(descent_class((3,))) == [(1, 2, 3)]
    assert list(descent_class((1, 1))) == [(1, 2), (2, 1)]


def test_shuffle_counts_are_multinomial():
    for n in range(1, 7):
        for c in compositions(n):
            count = sum(1 for _ in shuffles(c))
            expected = math.factorial(n)
            for part in c:
                expected //= math.factorial(part)
            assert count == expected


def test_shuffles_examples():
    assert list(shuffles((1, 1))) == [(1, 2), (2, 1)]
    assert len(list(shuffles((2, 1)))) == 3
    assert list(shuffles((3,))) == [(1, 2, 3)]


def test_shuffles_preserve_block_order():
    # the word of a shuffle lists each block's elements in increasing order
    for sigma in shuffles((2, 2)):
        assert sigma.index(1) < sigma.index(2)
        assert sigma.index(3) < sigma.index(4)


def test_young_subgroup():
    y = list(young_subgroup((2, 2)))
    assert len(y) == 4
    assert identity(4) in y
    assert (2, 1, 4, 3) in y
    assert all(set(p[:2]) == {1, 2} for p in y)
    assert list(young_subgroup((1, 1, 1))) == [(1, 2, 3)]


def _no_pass_over_the_group(n):
    raise AssertionError(f"a pass over S_{n}")


@pytest.mark.parametrize("n", range(7))
def test_young_subgroup_and_descent_class_filter_the_symmetric_group(monkeypatch, n):
    group = list(symmetric_group(n))
    # both are built without a pass over S_n
    monkeypatch.setattr(permutations, "symmetric_group", _no_pass_over_the_group)
    for c in compositions(n):
        cuts = set(itertools.accumulate(c[:-1]))
        # 0-based positions of each consecutive interval of sizes c
        blocks = [range(s - p, s) for s, p in zip(itertools.accumulate(c), c)]
        young = [p for p in group
                 if all({p[i] for i in b} == {i + 1 for i in b} for b in blocks)]
        descents = [p for p in group if descent_set(p) <= cuts]
        assert list(young_subgroup(c)) == young
        assert list(descent_class(c)) == descents


def test_descent_class_is_lazy():
    # all 12! permutations are members; the first three come without building the rest
    first = list(itertools.islice(descent_class((1,) * 12), 3))
    assert first == [identity(12), (*range(1, 11), 12, 11), (*range(1, 10), 11, 10, 12)]


@pytest.mark.parametrize("bad", [(0,), (2, -1), (True, 1)])
def test_young_subgroup_and_descent_class_reject_non_positive_parts(bad):
    with pytest.raises(ValueError):
        list(young_subgroup(bad))
    with pytest.raises(ValueError):
        list(descent_class(bad))
