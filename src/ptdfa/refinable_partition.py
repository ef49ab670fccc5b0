"""A refinable partition of {0, ..., n-1} backed by six flat arrays.

The elements of every set are kept contiguous inside one permutation
array, so membership and size are O(1), a set is read as one slice of
that array, and a set can be carved in two along its marked prefix
without visiting the unmarked part.  Splitting costs O(marked
elements), which amortizes to O(1) against the mark calls that preceded
it.  Sets never merge and elements never enter or leave the universe;
the partition only gets finer.
"""

__all__ = ["RefinablePartition"]


class RefinablePartition:
    """Partition of 0..max_elems-1 into numbered, nonempty, disjoint sets.

    It starts as one set, or as none when the universe is empty.
    Neither partition of the minimizer starts there: the functions of
    :mod:`ptdfa.splitter_init` write their buffers once, with one block
    per class of the states by finality and out-label set, and one
    transition set per (label, head block) pair.

    Layout: ``elems`` is a permutation of the universe in which each set
    occupies the slice ``elems[first[s]:end[s]]`` (order unspecified),
    which is how its elements are read; ``loc`` is the inverse of
    ``elems`` and ``sidx[e]`` is the set index of element ``e``.  The
    marked elements of a set sit in the prefix ``[first[s], mid[s])``.

    Set indices are dense: each successful ``split`` assigns the next
    free index (post-increment of ``sets``).  ``first``, ``mid`` and
    ``end`` have a slot per element, so no operation ever reallocates.

    The constructor builds the six buffers as lists.  Every operation
    serves int32 ``array('i')`` buffers as well, which take half the
    memory and index slightly slower.  The minimizer keeps its blocks in
    lists, and its transition sets, one element per transition, in
    arrays.

    ``mark`` and ``split`` must not be called on an instance while one of
    its sets is being scanned (they reorder elements within slices).
    Scanning one instance while mutating a different instance is fine.

    ``mark_calls``, ``split_calls`` and ``split_steps`` count the work
    done, so the amortization claim is checkable: the total loop steps of
    all splits never exceed the number of marks.

    ``largest``, empty here, lists the largest set of each label in a
    partition that :func:`~ptdfa.splitter_init.init_trp_grouping` built.
    """

    __slots__ = ("sets", "elems", "loc", "sidx", "first", "end",
                 "mid", "mark_calls", "split_calls", "split_steps",
                 "largest")

    def __init__(self, max_elems: int):
        if max_elems < 0:
            raise ValueError(f"negative universe size {max_elems}")
        self.elems = list(range(max_elems))
        self.loc = list(range(max_elems))
        self.sidx = [0] * max_elems
        self.first = [0] * max_elems
        self.mid = [0] * max_elems
        self.end = [0] * max_elems
        self.sets = min(max_elems, 1)
        if max_elems:
            self.end[0] = max_elems
        self.mark_calls = 0
        self.split_calls = 0
        self.split_steps = 0
        self.largest = []

    def size(self, s: int) -> int:
        """Number of elements in set ``s``."""
        assert 0 <= s < self.sets
        return self.end[s] - self.first[s]

    def set_of(self, e: int) -> int:
        """Index of the set containing element ``e``."""
        assert 0 <= e < len(self.sidx)
        return self.sidx[e]

    def mark(self, e: int) -> None:
        """Mark ``e`` for the next split of its set; re-marking is a no-op."""
        assert 0 <= e < len(self.sidx)
        self.mark_calls += 1
        s = self.sidx[e]
        pos = self.loc[e]
        m = self.mid[s]
        if pos >= m:
            elems = self.elems
            other = elems[m]
            elems[pos] = other
            self.loc[other] = pos
            elems[m] = e
            self.loc[e] = m
            self.mid[s] = m + 1

    def no_marks(self, s: int) -> bool:
        """True iff no element of set ``s`` is currently marked."""
        assert 0 <= s < self.sets
        return self.mid[s] == self.first[s]

    def split(self, s: int):
        """Move the marked elements of ``s`` into a fresh set.

        Returns the new set's index, or None when nothing or everything
        in ``s`` was marked, in which case the partition is unchanged.
        Either way all marks of ``s`` are cleared.
        """
        assert 0 <= s < self.sets
        self.split_calls += 1
        first = self.first
        mid = self.mid
        end = self.end
        if mid[s] == end[s]:
            mid[s] = first[s]
        if mid[s] == first[s]:
            return None
        new = self.sets
        self.sets = new + 1
        first[new] = first[s]
        mid[new] = first[s]
        end[new] = mid[s]
        first[s] = mid[s]
        elems = self.elems
        sidx = self.sidx
        for i in range(first[new], end[new]):
            sidx[elems[i]] = new
        self.split_steps += end[new] - first[new]
        return new
