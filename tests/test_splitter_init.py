import random
from collections import Counter

import pytest

from ptdfa import (
    AutomatonError, PresortViolationError, init_trp_grouping,
    init_trp_presorted,
)

from helpers import check_partition


def _families(rp):
    out = []
    for s in range(rp.sets):
        out.append(frozenset(rp.elems[i] for i in range(rp.first[s], rp.end[s])))
    return set(out)


def test_presorted_two_groups():
    rp = init_trp_presorted([0, 0, 1, 1])
    assert rp.sets == 2
    assert _families(rp) == {frozenset({0, 1}), frozenset({2, 3})}
    check_partition(rp)


def test_presorted_single_label():
    rp = init_trp_presorted([4])
    assert rp.sets == 1
    assert _families(rp) == {frozenset({0})}


def test_presorted_rejects_recurring_label():
    with pytest.raises(PresortViolationError):
        init_trp_presorted([1, 0, 1])


def test_presorted_rejects_empty():
    with pytest.raises(ValueError):
        init_trp_presorted([])


def test_grouping_interleaved_labels():
    rp = init_trp_grouping([1, 0, 1, 0], alpha=2)
    assert rp.sets == 2
    assert _families(rp) == {frozenset({0, 2}), frozenset({1, 3})}
    assert rp.no_marks(0) and rp.no_marks(1)
    check_partition(rp)


def test_grouping_rejects_out_of_range_label():
    with pytest.raises(AutomatonError):
        init_trp_grouping([0, 5], alpha=2)


def test_grouping_matches_presorted_partition():
    rng = random.Random(42)
    for trial in range(100):
        alpha = rng.randrange(1, 6)
        m = rng.randrange(1, 30)
        labels = sorted(rng.randrange(alpha) for _ in range(m))
        assert _families(init_trp_grouping(labels, alpha)) == \
            _families(init_trp_presorted(labels))


def test_grouping_set_sizes_match_histogram():
    rng = random.Random(43)
    for trial in range(100):
        alpha = rng.randrange(1, 10)
        m = rng.randrange(1, 60)
        labels = [rng.randrange(alpha) for _ in range(m)]
        rp = init_trp_grouping(labels, alpha)
        assert sorted(rp.size(s) for s in range(rp.sets)) == \
            sorted(Counter(labels).values())


def test_grouping_huge_alphabet_tiny_input():
    labels = [999_983, 3, 999_983, 500_000, 3]
    rp = init_trp_grouping(labels, alpha=10 ** 6)
    assert rp.sets == 3
    assert sorted(rp.size(s) for s in range(rp.sets)) == [1, 2, 2]
