import random
import tracemalloc
from array import array
from collections import Counter

import pytest

from ptdfa import AutomatonError, init_trp_grouping

from helpers import check_partition, reference_grouping


def _families(rp):
    out = []
    for s in range(rp.sets):
        out.append(frozenset(rp.elems[i] for i in range(rp.first[s], rp.end[s])))
    return set(out)


def test_grouping_interleaved_labels():
    rp = init_trp_grouping([1, 0, 1, 0], alpha=2, groups=[range(4)])
    assert rp.sets == 2
    assert _families(rp) == {frozenset({0, 2}), frozenset({1, 3})}
    assert rp.no_marks(0) and rp.no_marks(1)
    check_partition(rp)


def test_grouping_of_no_labels_has_no_sets():
    rp = init_trp_grouping([], alpha=2, groups=[])
    assert len(rp.sidx) == 0 and rp.sets == 0
    check_partition(rp)


def test_grouping_rejects_out_of_range_label():
    with pytest.raises(AutomatonError):
        init_trp_grouping([0, 5], alpha=2, groups=[range(2)])


def _layout(rp):
    return (list(rp.elems), list(rp.loc), list(rp.sidx), list(rp.first),
            list(rp.mid), list(rp.end), rp.sets)


def test_grouping_matches_reference_fill():
    rng = random.Random(42)
    m = 3 * 4096 + 5
    cases = [[7] * m, [rng.randrange(2) for _ in range(m)],
             [rng.randrange(300) for _ in range(m)],
             [rng.randrange(10**6) for _ in range(m)],
             sorted(rng.randrange(50) for _ in range(m))]
    for trial in range(100):
        alpha = rng.randrange(1, 6)
        cases.append([rng.randrange(alpha)
                      for _ in range(rng.randrange(1, 30))])
    for labels in cases:
        rp = init_trp_grouping(labels, 10**6, [range(len(labels))])
        assert _layout(rp) == _layout(reference_grouping(labels))
        check_partition(rp)
        assert all(rp.no_marks(s) for s in range(rp.sets))


def test_grouping_set_sizes_match_histogram():
    rng = random.Random(43)
    for trial in range(100):
        alpha = rng.randrange(1, 10)
        m = rng.randrange(1, 60)
        labels = [rng.randrange(alpha) for _ in range(m)]
        rp = init_trp_grouping(labels, alpha, [range(m)])
        assert sorted(rp.size(s) for s in range(rp.sets)) == \
            sorted(Counter(labels).values())


def test_grouping_huge_alphabet_tiny_input():
    labels = [999_983, 3, 999_983, 500_000, 3]
    rp = init_trp_grouping(labels, alpha=10 ** 6, groups=[range(5)])
    assert rp.sets == 3
    assert sorted(rp.size(s) for s in range(rp.sets)) == [1, 2, 2]


def test_grouping_by_label_and_group_matches_reference_fill():
    rng = random.Random(44)
    for trial in range(200):
        m = rng.randrange(0, 40)
        alpha = rng.randrange(1, 6)
        labels = [rng.randrange(alpha) for _ in range(m)]
        order = list(range(m))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(m + 1), rng.randrange(0, m + 1)))
        groups = [order[i:j] for i, j in zip([0] + cuts, cuts + [m])]
        rp = init_trp_grouping(labels, alpha, groups)
        assert _layout(rp) == _layout(reference_grouping(labels, groups))
        check_partition(rp)
        assert all(rp.no_marks(s) for s in range(rp.sets))
        assert rp.sets == len({(labels[t], g) for g, group in enumerate(groups)
                               for t in group})


def _largest_by_label(rp, labels):
    """Each label's largest set, the lowest index on a tie, by a pass
    over the sets, listed in order of first appearance in ``labels``."""
    best = {}
    for s in range(rp.sets):
        a = labels[rp.elems[rp.first[s]]]
        if a not in best or rp.size(s) > rp.size(best[a]):
            best[a] = s
    return [best[a] for a in dict.fromkeys(labels)]


def test_grouping_notes_each_labels_largest_set():
    # Few labels and small groups, so that sets of one label often tie.
    rng = random.Random(45)
    for trial in range(300):
        m = rng.randrange(0, 40)
        alpha = rng.randrange(1, 4)
        labels = [rng.randrange(alpha) for _ in range(m)]
        order = list(range(m))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(m + 1), rng.randrange(0, m + 1)))
        groups = [order[i:j] for i, j in zip([0] + cuts, cuts + [m])]
        rp = init_trp_grouping(labels, alpha, groups)
        assert rp.largest == _largest_by_label(rp, labels)
    # Label 0 has three sets of one transition each: the first is noted.
    rp = init_trp_grouping([0, 0, 0], 1, [[2], [0], [1]])
    assert rp.largest == [0]


def test_grouping_holds_nothing_per_pair():
    # Every transition is a group of its own, so there are m pairs.  The
    # partition's six int32 arrays take 24 bytes per transition, and the
    # traced peak stays under 32 with the growth of the array that the
    # labels are numbered into; a dict entry, int or tuple per pair
    # would take 100 bytes or more each.
    m = 50_000
    labels = array("i", [t % 3 for t in range(m)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rp = init_trp_grouping(labels, 3, ([t] for t in range(m)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rp.sets == m
    assert peak < 8 * 4 * m
