"""The initial groupings of the refinement's two partitions.

Refinement starts from one block per class of the states by finality
and out-label set, which :func:`init_block_grouping` builds, and from
one transition set per (label, head block) pair, which
:func:`init_trp_grouping` builds from the incoming transitions of each
block.  Each numbers the distinct labels or label sets in order of
first appearance, in one C-level pass through a dict whose missing keys
take the next number, and lays its sets out in one Python loop over the
elements.  O(n + m) time and memory in all, independent of the alphabet
size.  No list of a key per transition is ever held, and no dict holds
an entry per (label, head block) pair.
"""

from array import array
from collections import Counter, defaultdict
from itertools import accumulate, count, pairwise, repeat, starmap
from operator import getitem, mul

from .automaton import AutomatonError, PtDfa
from .refinable_partition import RefinablePartition

__all__ = ["init_block_grouping", "init_trp_grouping"]


def init_block_grouping(d: PtDfa) -> RefinablePartition:
    """One block per class of the states of ``d`` by finality and
    out-label set, numbered in order of first appearance, in a partition
    whose six buffers are lists.

    The label set of state q is the bytes of its slice of ``d.labels``,
    which the out-index lists by ascending label.  The slices are
    numbered through one dict per finality, the two drawing on one
    count, in one pass of C-level ``map`` calls over the byte offsets,
    which are made one pair at a time.  The blocks are laid out back to
    back, each in descending state order, with no marks.  O(n + m).
    """
    labels = d.labels.tobytes()
    offsets = map(mul, d.out_first, repeat(d.labels.itemsize))
    label_sets = map(labels.__getitem__, starmap(slice, pairwise(offsets)))
    finality = map(d.finals.__contains__, range(d.n))
    next_index = count().__next__
    by_finality = (defaultdict(next_index), defaultdict(next_index))
    rp = RefinablePartition(0)
    rp.sidx = sidx = list(map(getitem, map(by_finality.__getitem__,
                                           finality), label_sets))
    buffers = [[0] * d.n for _ in range(5)]
    rp.elems, rp.loc, rp.first, rp.mid, rp.end = buffers
    elems, loc, first, mid, end = buffers
    # Block i first appears before block i + 1, so the counts come in
    # order.  Each cursor counts down from its block's end as it fills.
    cursor = list(accumulate(Counter(sidx).values()))
    rp.sets = sets = len(cursor)
    end[:sets] = cursor
    first[1:sets] = cursor[:-1]
    mid[:sets] = first[:sets]
    for q, i in enumerate(sidx):
        pos = cursor[i] - 1
        cursor[i] = pos
        elems[pos] = q
        loc[q] = pos
    return rp


def init_trp_grouping(labels, alpha: int, groups) -> RefinablePartition:
    """One partition set per (label, group) pair that occurs.

    ``groups`` yields disjoint iterables of transitions that together
    list each of 0..len(labels)-1 once; the refinement passes the
    incoming transitions of each initial block, and one group of all
    transitions gives one set per label.  Set i holds the transitions of
    the i-th pair in order of first appearance, in the order that their
    group lists them, in a partition whose six buffers are int32 arrays.
    The sets of one label lie back to back in one range, and the ranges
    come in order of first appearance of their labels in ``labels``.
    ``rp.largest`` lists each label's largest set, the one with the most
    transitions (the lowest index on a tie), in that order of labels,
    noted as each set closes.
    O(m) time and memory: the labels are numbered through a dict of the
    labels that occur, in place in ``sidx`` until each transition's set
    replaces its label's number there, and each label has five list
    slots, so no storage grows with ``alpha`` or holds a key per pair.
    No labels give the empty partition, with no sets.
    """
    m = len(labels)
    if m and (min(labels) < 0 or max(labels) >= alpha):
        bad = next(a for a in labels if not 0 <= a < alpha)
        raise AutomatonError(f"label {bad} out of range 0..{alpha - 1}")
    index = defaultdict(count().__next__)
    rp = RefinablePartition(0)
    rp.sidx = sidx = array("i", map(index.__getitem__, labels))
    buffers = [array("i", [0]) * m for _ in range(5)]
    rp.elems, rp.loc, rp.first, rp.mid, rp.end = buffers
    elems, loc, first, mid, end = buffers
    # Each label's range is filled from its start up, by a cursor kept in
    # a list, whose reads create no int, as an array's do.  A label's
    # current set is the one of the last group that it was seen in; it
    # ends where the label's next set starts, or where its range ends.
    cursor = list(accumulate(Counter(sidx).values(), initial=0))
    group_of = [-1] * len(index)
    set_of = [0] * len(index)
    # Each label's largest set so far, and its size: a label's sets close
    # in index order, so a strictly larger one replaces it.
    rp.largest = largest = [0] * len(index)
    most = [0] * len(index)
    new = 0
    for g, group in enumerate(groups):
        for t in group:
            a = sidx[t]
            pos = cursor[a]
            cursor[a] = pos + 1
            if group_of[a] != g:
                if group_of[a] >= 0:
                    i = set_of[a]
                    end[i] = pos
                    if pos - first[i] > most[a]:
                        most[a] = pos - first[i]
                        largest[a] = i
                group_of[a] = g
                set_of[a] = new
                first[new] = pos
                new += 1
            elems[pos] = t
            loc[t] = pos
            sidx[t] = set_of[a]
    for a, i in enumerate(set_of):
        pos = end[i] = cursor[a]
        if pos - first[i] > most[a]:
            largest[a] = i
    rp.sets = new
    mid[:new] = first[:new]
    return rp
