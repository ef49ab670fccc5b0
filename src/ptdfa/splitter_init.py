"""Initial grouping of transitions by label into a refinable partition.

Refinement starts from one transition set per label, which
``init_trp_grouping`` builds for any input order in O(m) time and
memory, independent of the alphabet size.  The labels are mapped to
their set indices a chunk at a time, so the fill loop iterates a short
list of the index dict's own int objects, and it moves a cursor kept in
a Python list of the set ends, not in an array, whose every read would
create an int.  No m-entry list is ever held.
"""

from array import array
from collections import Counter

from .automaton import AutomatonError
from .refinable_partition import RefinablePartition

__all__ = ["init_trp_grouping"]

# Transitions mapped to their set indices per fill step.
_CHUNK = 4096


def init_trp_grouping(labels, alpha: int) -> RefinablePartition:
    """One partition set per distinct label, any input order.

    Set i holds the transitions of the i-th distinct label in order of
    first appearance, laid out back to back, each set in descending
    transition order, in a partition whose six buffers are int32
    arrays, each written once.  O(m) time and memory: the set of each
    label is looked up in a dict of the labels that occur, so no storage
    grows with ``alpha``.  No labels give the empty partition, with no
    sets.
    """
    m = len(labels)
    if m and (min(labels) < 0 or max(labels) >= alpha):
        bad = next(a for a in labels if not 0 <= a < alpha)
        raise AutomatonError(f"label {bad} out of range 0..{alpha - 1}")
    counts = Counter(labels)  # keys in order of first appearance
    index = {}
    # Six zeroed buffers in place of the one set 0..m-1 that the
    # constructor fills in: the loops below write each entry once.
    rp = RefinablePartition(0)
    rp.elems, rp.loc, rp.sidx, rp.first, rp.mid, rp.end = (
        array("i", [0]) * m for _ in range(6))
    first = rp.first
    end = rp.end
    cursor = []
    total = 0
    for i, (a, c) in enumerate(counts.items()):
        index[a] = i
        first[i] = total
        total += c
        end[i] = total
        cursor.append(total)
    elems = rp.elems
    loc = rp.loc
    sidx = rp.sidx
    set_of = index.__getitem__
    # Each cursor counts down from its set's end while the set is filled.
    for s in range(0, m, _CHUNK):
        chunk = list(map(set_of, labels[s:s + _CHUNK]))
        sidx[s:s + len(chunk)] = array("i", chunk)
        for t, i in enumerate(chunk, s):
            pos = cursor[i] - 1
            cursor[i] = pos
            elems[pos] = t
            loc[t] = pos
    rp.sets = sets = len(cursor)
    rp.mid[:sets] = first[:sets]
    return rp
