"""Initial grouping of transitions by label into a refinable partition.

Refinement starts from one transition set per label.  Two builders:

* ``init_trp_presorted`` assumes equal labels arrive contiguously and
  uses only the partition's own mark/split machinery, touching no
  per-label storage.
* ``init_trp_grouping`` handles any input order in O(m) time and
  memory, independent of the alphabet size.
"""

from array import array
from collections import Counter

from .automaton import AutomatonError
from .refinable_partition import RefinablePartition

__all__ = ["PresortViolationError", "init_trp_presorted", "init_trp_grouping"]


class PresortViolationError(AutomatonError):
    """A label recurred non-contiguously in presorted input."""


def init_trp_presorted(labels, compact: bool = True) -> RefinablePartition:
    """One partition set per distinct label, for label-contiguous input.

    Runs of equal labels are marked and split off one by one; the final
    run stays behind as set 0.  Raises :class:`PresortViolationError` if
    some label shows up again after its run ended.
    """
    m = len(labels)
    if m == 0:
        raise ValueError("no transitions to partition")
    rp = RefinablePartition(m, compact=compact)
    seen = set()
    i = 0
    while i < m:
        a = labels[i]
        if a in seen:
            raise PresortViolationError(
                f"label {a} recurs non-contiguously at transition {i}")
        seen.add(a)
        j = i
        while j < m and labels[j] == a:
            rp.mark(j)
            j += 1
        rp.split(0)
        i = j
    return rp


def init_trp_grouping(labels, alpha: int,
                      compact: bool = True) -> RefinablePartition:
    """One partition set per distinct label, any input order.

    Set i holds the transitions of the i-th distinct label in order of
    first appearance, laid out back to back, each set in descending
    transition order.  O(m) time and memory: the set of each label is
    looked up in a dict of the labels that occur, so no storage grows
    with ``alpha``.
    """
    m = len(labels)
    if m == 0:
        raise ValueError("no transitions to partition")
    if min(labels) < 0 or max(labels) >= alpha:
        bad = next(a for a in labels if not 0 <= a < alpha)
        raise AutomatonError(f"label {bad} out of range 0..{alpha - 1}")
    counts = Counter(labels)  # keys in order of first appearance
    index = {}
    rp = RefinablePartition(m, compact=compact)
    first = rp.first
    mid = rp.mid
    end = rp.end
    total = 0
    for i, (a, c) in enumerate(counts.items()):
        index[a] = i
        first[i] = total
        total += c
        end[i] = total
        mid[i] = total
    elems = rp.elems
    loc = rp.loc
    sidx = rp.sidx
    sidx[:] = array("i", map(index.__getitem__, labels))
    # mid counts down from end while each set is filled.
    for t, i in enumerate(sidx):
        pos = mid[i] - 1
        mid[i] = pos
        elems[pos] = t
        loc[t] = pos
    rp.sets = len(counts)
    return rp
