"""Baseline minimizer over the sink-completed automaton.

The partial transition function is completed by adding one absorbing
sink state that receives every missing transition and all of its own.
Classic (block, symbol) worklist refinement then runs over the
inverse of the total transition function.  The minimizer pipeline of
:mod:`ptdfa.minimizer` does the preprocessing, times the completion as
its own ``complete`` phase, and builds the canonical quotient from the
final blocks, the sink's block left out.

Time is O(alpha n log n) and memory Theta(alpha n) for the completed
automaton's reverse index, one entry per (state, label) cell, and the
pending (block, label) pairs: the deliberate contrast with the sparse
O(m) path.
"""

from array import array
from dataclasses import dataclass
from itertools import accumulate, compress

from .automaton import MinimizeStats, PtDfa
from .minimizer import _pipeline

__all__ = ["CompletedDfa", "sink_complete", "hopcroft_minimize"]


@dataclass
class CompletedDfa:
    """Sink-completed view of an automaton: the reverse index of its
    total transition function, which the refinement scans.

    The predecessors of state q under label a are
    ``inv_elems[inv_offsets[q*alpha+a] : inv_offsets[q*alpha+a+1]]``;
    every (state, label) cell is one entry, so the index is
    Theta(alpha n).  The sink is the last state, ``n - 1``.
    """

    n: int
    alpha: int
    inv_elems: array
    inv_offsets: array
    finals: frozenset


def sink_complete(d: PtDfa) -> CompletedDfa:
    """Complete the transition function with an absorbing sink state.

    The sink is state n.  The reverse index, each predecessor set in
    ascending order, holds one entry per (state, label) cell: it is
    Theta(alpha n) in memory, the baseline's regime.  Python walks the m
    defined transitions twice and the alpha labels once; each
    Theta(alpha n) pass runs in C, and nothing of size m is built.
    """
    n, alpha = d.n, d.alpha
    sink = n
    total = n + 1
    cells = total * alpha
    # missing[a * total + q] is 1 when state q has no a-transition.
    missing = bytearray(b"\x01") * cells
    # offsets[k] counts the predecessors under key k (state q, label a
    # for k = q * alpha + a), and the prefix sum makes it the key's end.
    offsets = array("i", [0]) * (cells + 1)
    for t, a, h in zip(d.tails, d.labels, d.heads):
        missing[a * total + t] = 0
        offsets[h * alpha + a] += 1
    base = sink * alpha
    for a in range(alpha):
        offsets[base + a] = missing.count(1, a * total, (a + 1) * total)
    memoryview(offsets).cast("B")[:] = memoryview(
        array("I", accumulate(offsets))).cast("B")
    # Each entry goes just below its key's end, which moves down to the
    # key's start; the last transition goes first, so each set ascends.
    elems = array("i", [0]) * cells
    for t, a, h in zip(reversed(d.tails), reversed(d.labels), reversed(d.heads)):
        k = h * alpha + a
        offsets[k] -= 1
        elems[offsets[k]] = t
    # No transition enters the sink: each of its keys starts where the
    # one before ends, the first after the m transitions.
    offsets[base + 1:cells] = offsets[base:cells - 1]
    offsets[base] = d.m
    # One int object per state for every label's compress, where a
    # range would make one per cell.
    states = list(range(total))
    with memoryview(elems).cast("B") as elem_bytes:
        for a in range(alpha):
            preds = array("I", compress(states,
                                        missing[a * total:(a + 1) * total]))
            lo = 4 * offsets[base + a]
            elem_bytes[lo:lo + 4 * len(preds)] = memoryview(preds).cast("B")
    return CompletedDfa(total, alpha, elems, offsets, d.finals)


def _refine_total(c: CompletedDfa):
    """Worklist refinement of the completed automaton.

    Returns (blocks, block_of, splits, touches), ``touches`` counting
    the reverse-index entries scanned.  A pending (block, symbol) pair
    is processed against the block's current contents; when a block
    splits, pairs pending on it stay pending for both halves, and
    otherwise only the smaller half is queued.

    ``flags[b][a]`` is 1 while the pair (b, a) is pending.  Every split
    pushes alpha pairs, one per label in order, as one byte each in
    ``work``, and ``chunks`` holds one ``(start, first, second)`` entry
    per split with pairs still pending: a pair's label is its offset
    from ``start``, and its byte is 1 for ``first``, 0 for ``second``.
    A split is Theta(alpha) work done as two alpha-byte copies.
    """
    alpha = c.alpha
    fin = set(c.finals)
    nonfin = set(range(c.n)) - fin
    blocks = [fin, nonfin]
    block_of = [1] * c.n
    for q in fin:
        block_of[q] = 0
    ones = b"\x01" * alpha
    flags = [bytearray(alpha), bytearray(alpha)]
    small = 0 if len(fin) <= len(nonfin) else 1
    flags[small][:] = ones
    work = bytearray(ones)
    # The top chunk, unpacked; ``chunks`` holds it too.
    start, first, second = 0, small, small
    chunks = [(start, first, second)]
    inv = c.inv_elems
    off = c.inv_offsets
    touches = 0
    while work:
        b = first if work.pop() else second
        a = len(work) - start
        if not a:
            chunks.pop()
            if chunks:
                start, first, second = chunks[-1]
        flags[b][a] = 0
        hits = None
        for s in blocks[b]:
            k = s * alpha + a
            lo = off[k]
            hi = off[k + 1]
            if lo == hi:
                continue
            if hits is None:
                hits = {}
            for q in inv[lo:hi]:
                yb = block_of[q]
                if yb in hits:
                    hits[yb].append(q)
                else:
                    hits[yb] = [q]
            touches += hi - lo
        if hits is None:
            continue
        for yb, qs in hits.items():
            y = blocks[yb]
            if len(qs) == len(y):
                continue
            part = set(qs)
            y -= part
            nz = len(blocks)
            blocks.append(part)
            for q in part:
                block_of[q] = nz
            start, first, second = len(work), nz, yb
            chunks.append((start, first, second))
            # The chunk is the new block's flags: 1 on every label when
            # it is the smaller half, else 1 where Y is pending and 0
            # (Y, now pending on every label) elsewhere.
            if len(part) <= len(y):
                fz = bytearray(ones)
            else:
                fy = flags[yb]
                fz = bytearray(fy)
                fy[:] = ones
            flags.append(fz)
            work += fz
            if len(blocks) == c.n:
                # Every block is a single state: none can split again.
                work.clear()
    # Two blocks at the start, and each split appends one.
    return blocks, block_of, len(blocks) - 2, touches


def _refine_completed(c: CompletedDfa, stats: MinimizeStats, in_index) -> list:
    """The completed-table refiner: the final block of each state of
    the preprocessed automaton that ``c`` completes, without the sink's
    block.  It scans the reverse index of ``c``; ``in_index`` is None,
    since the pipeline drops its index before it completes the automaton."""
    blocks, block_of, stats.splits, stats.splitter_touches = _refine_total(c)
    sink_block = block_of.pop()
    # Preprocessing left every state a nonempty language, so none shares
    # the sink's block.
    assert len(blocks[sink_block]) == 1
    return [b - (b > sink_block) for b in block_of]


def hopcroft_minimize(d: PtDfa):
    """Minimize via the completed-table baseline.

    Returns (out, stats); ``out`` is canonical and identical to what the
    sparse minimizer produces.  ``stats.phases`` times ``preprocess``,
    ``complete`` (:func:`sink_complete`), ``refine`` and
    ``canonicalize``.  It measures no ``small_half_touches``, which is
    None.
    """
    _, _, out, stats = _pipeline(d, _refine_completed, complete=sink_complete)
    stats.small_half_touches = None
    return out, stats
