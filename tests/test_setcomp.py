import pytest

from twisted_descents.limits import SizeLimitError
from twisted_descents.setcomp import (
    EMPTY,
    SetComposition,
    as_increasing_partition,
    compositions,
    count_set_compositions,
    enumerate_set_compositions,
    interval_partition,
    multinomial,
    type_of,
)


def test_construction_and_support():
    sc = SetComposition([[3, 5], [1, 4]])
    assert sc.support == frozenset({1, 3, 4, 5})
    assert sc.blocks == ((3, 5), (1, 4))
    assert EMPTY.support == frozenset()
    assert SetComposition([[2, 3, 5]]).support == frozenset({2, 3, 5})


def test_type_of():
    assert type_of(SetComposition([[3, 5], [1, 4]])) == (2, 2)
    assert type_of(SetComposition([[1, 3, 5], [2, 4]])) == (3, 2)
    assert type_of(EMPTY) == ()


def test_invalid_blocks_rejected():
    with pytest.raises(ValueError):
        SetComposition([[]])
    with pytest.raises(ValueError):
        SetComposition([[1], [1]])
    with pytest.raises(ValueError):
        SetComposition([[0]])
    with pytest.raises(ValueError):
        SetComposition([[-2]])
    with pytest.raises(ValueError):
        SetComposition([["a"]])


def test_equality_and_hash():
    a = SetComposition([[3, 5], [1, 4]])
    b = SetComposition([(5, 3), (4, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != SetComposition([[1, 4], [3, 5]])
    assert list(a) == [frozenset({3, 5}), frozenset({1, 4})]


def test_enumeration_counts_match_stirling_oracle():
    # Fubini numbers (OEIS A000670) by their recurrence on one side, direct listing on the other.
    assert [count_set_compositions(n) for n in range(11)] == [
        1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261, 102247563,
    ]
    for n in range(6):
        listed = list(enumerate_set_compositions(range(1, n + 1)))
        assert len(listed) == count_set_compositions(n)
        assert len(set(listed)) == len(listed)


def test_enumeration_small_cases():
    assert list(enumerate_set_compositions({7})) == [SetComposition([[7]])]
    assert list(enumerate_set_compositions(())) == [EMPTY]
    three = list(enumerate_set_compositions({1, 2, 3}))
    assert len(three) == 13
    assert all(sc.support == frozenset({1, 2, 3}) for sc in three)


def test_enumeration_is_in_canonical_order():
    for n in range(5):
        listed = list(enumerate_set_compositions(range(1, n + 1)))
        assert listed == sorted(listed, key=lambda sc: sc.sort_key)
        assert listed == sorted(reversed(listed))  # < compares sort keys


def test_enumeration_shares_equal_blocks_within_a_call():
    listed = list(enumerate_set_compositions(range(1, 5)))
    assert len(listed) == 75
    shared: dict = {}
    for sc in listed:
        for block in sc.sets:
            assert shared.setdefault(block, block) is block
    assert len(shared) == 15  # the nonempty subsets of [4]
    # no table outlives the call
    again = next(enumerate_set_compositions(range(1, 5)))
    assert again == listed[0] and again.sets[0] is not listed[0].sets[0]


def test_enumeration_cap():
    with pytest.raises(SizeLimitError) as err:
        list(enumerate_set_compositions(range(1, 12)))
    assert err.value.cap == 10
    assert err.value.requested == 11
    assert "10" in str(err.value)


def test_integer_compositions():
    assert list(compositions(0)) == [()]
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(list(compositions(6))) == 32
    with pytest.raises(ValueError):
        list(compositions(-1))


def test_multinomial():
    assert multinomial((2, 1)) == 3
    assert multinomial((1, 1, 1, 1)) == 24
    assert multinomial((5,)) == 1
    with pytest.raises(ValueError):
        multinomial((0, 2))


def test_interval_partition():
    assert interval_partition((2, 2)) == (frozenset({1, 2}), frozenset({3, 4}))
    assert interval_partition(()) == ()


def test_as_increasing_partition():
    assert as_increasing_partition((2, 1)) == (frozenset({1, 2}), frozenset({3}))
    assert as_increasing_partition(({1, 2}, {3})) == (frozenset({1, 2}), frozenset({3}))
    blocks = interval_partition((2, 2, 1))
    assert as_increasing_partition(blocks) == blocks


@pytest.mark.parametrize(
    "bad, message",
    [
        (({2, 3}, {1}), "({2, 3}, {1}) is not an increasing partition of [3]"),
        (({1, 3}, {2}), "({1, 3}, {2}) is not an increasing partition of [3]"),
        (({1, 2}, set()), "({1, 2}, set()) is not an increasing partition of [2]"),
        (({1}, {1, 2}), "({1}, {1, 2}) is not an increasing partition of [3]"),
        (({2},), "({2},) is not an increasing partition of [1]"),
    ],
)
def test_as_increasing_partition_refuses_other_blocks(bad, message):
    # blocks that are not the intervals of their own sizes, named as given
    with pytest.raises(ValueError) as err:
        as_increasing_partition(bad)
    assert str(err.value) == message
