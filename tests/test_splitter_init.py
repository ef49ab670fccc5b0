import random
from collections import Counter

import pytest

from ptdfa import AutomatonError, init_trp_grouping
from ptdfa.splitter_init import _CHUNK

from helpers import check_partition, reference_grouping


def _families(rp):
    out = []
    for s in range(rp.sets):
        out.append(frozenset(rp.elems[i] for i in range(rp.first[s], rp.end[s])))
    return set(out)


def test_grouping_interleaved_labels():
    rp = init_trp_grouping([1, 0, 1, 0], alpha=2)
    assert rp.sets == 2
    assert _families(rp) == {frozenset({0, 2}), frozenset({1, 3})}
    assert rp.no_marks(0) and rp.no_marks(1)
    check_partition(rp)


def test_grouping_of_no_labels_has_no_sets():
    rp = init_trp_grouping([], alpha=2)
    assert len(rp.sidx) == 0 and rp.sets == 0
    check_partition(rp)


def test_grouping_rejects_out_of_range_label():
    with pytest.raises(AutomatonError):
        init_trp_grouping([0, 5], alpha=2)


def _layout(rp):
    return (list(rp.elems), list(rp.loc), list(rp.sidx), list(rp.first),
            list(rp.mid), list(rp.end), rp.sets)


def test_grouping_matches_reference_fill():
    rng = random.Random(42)
    m = 3 * _CHUNK + 5  # crosses three chunk boundaries
    cases = [[7] * m, [rng.randrange(2) for _ in range(m)],
             [rng.randrange(300) for _ in range(m)],
             [rng.randrange(10**6) for _ in range(m)],
             sorted(rng.randrange(50) for _ in range(m))]
    for trial in range(100):
        alpha = rng.randrange(1, 6)
        cases.append([rng.randrange(alpha)
                      for _ in range(rng.randrange(1, 30))])
    for labels in cases:
        rp = init_trp_grouping(labels, 10**6)
        assert _layout(rp) == _layout(reference_grouping(labels))
        check_partition(rp)
        assert all(rp.no_marks(s) for s in range(rp.sets))


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
