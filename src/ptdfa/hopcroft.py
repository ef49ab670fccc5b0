"""Baseline minimizer over the sink-completed automaton.

The partial transition function is completed by adding one absorbing
sink state that receives every missing transition and all of its own.
Classic (block, symbol) worklist refinement then runs over the full
table.  This is only the completion and the refinement: the minimizer
pipeline of :mod:`ptdfa.minimizer` does the preprocessing, times the
completion as its own ``complete`` phase, and builds the canonical
quotient from the final blocks, the sink's block left out.

Time is O(alpha n log n) and memory Theta(alpha n) for the dense table,
its reverse index and the worklist of pending (block, label) pairs, the
deliberate contrast with the sparse O(m) path.  The Theta(alpha n)
memory stays on purpose, and so does the Theta(alpha) loop over the
labels at every split.  Only the constants are kept lean:
:func:`sink_complete` walks the m defined transitions and the alpha
labels in Python, and each of its Theta(alpha n) passes (filling the
rows, counting the sink's entries, the prefix sum of the counts, the
sink's reverse entries) runs in C; the refinement holds each pending
pair in one byte, plus one entry per split that names its two halves.
"""

from array import array
from dataclasses import dataclass
from itertools import accumulate, compress

from .automaton import MinimizeStats, PtDfa
from .minimizer import _pipeline

__all__ = ["CompletedDfa", "sink_complete", "hopcroft_minimize"]


@dataclass
class CompletedDfa:
    """Sink-completed view of an automaton: a dense total transition
    table plus the reverse index the refinement scans.

    ``table[q][a]`` is the successor state; the predecessors of state q
    under label a are ``inv_elems[inv_offsets[q*alpha+a] :
    inv_offsets[q*alpha+a+1]]``.  Both parts are Theta(alpha n).  The
    sink is the last state, ``n - 1``.
    """

    n: int
    alpha: int
    table: list
    inv_elems: array
    inv_offsets: array
    finals: frozenset


def sink_complete(d: PtDfa) -> CompletedDfa:
    """Complete the transition function with an absorbing sink state.

    The table (a list of lists) and its reverse index stay
    Theta(alpha n) in memory on purpose: that is the baseline's regime.
    Only the time to build them is kept low.  Python walks the m defined
    transitions (twice) and the alpha labels; each pass over the
    (n + 1) alpha cells runs in C:

    - the rows start as ``[sink] * alpha``;
    - a label-major mask of the missing transitions gives the sink's
      counts (``bytearray.count``) and its predecessors, ascending
      (``compress``);
    - the offsets are one ``accumulate`` of the counts.

    The accumulated offsets are built as the placement cursor, then
    copied into the counts' buffer.  The cursor places the defined
    transitions, which come in (tail, label) order, so each predecessor
    set fills in ascending order, as the sink's do.  The cursor and each
    label's sink predecessors are ``array("I")``, which C fills faster
    than ``"i"``, with the same bytes, since no entry reaches 2**31
    (the table would need 16 GiB first).  No full-size buffer is freed
    before the cursor is spent, and nothing of size m is built: either
    would raise the process's peak memory.
    """
    n, alpha = d.n, d.alpha
    sink = n
    total = n + 1
    cells = total * alpha
    table = [[sink] * alpha for _ in range(total)]
    # missing[a * total + q] is 1 when state q has no a-transition.
    missing = bytearray(b"\x01") * cells
    # offsets[k + 1] counts the predecessors under key k, then becomes
    # the start of key k + 1; key q * alpha + a is state q, label a.
    offsets = array("i", bytes(4 * (cells + 1)))
    for t, a, h in zip(d.tails, d.labels, d.heads):
        table[t][a] = h
        missing[a * total + t] = 0
        offsets[h * alpha + a + 1] += 1
    base = sink * alpha
    for a in range(alpha):
        offsets[base + a + 1] = missing.count(1, a * total, (a + 1) * total)
    cursor = array("I", accumulate(offsets))
    memoryview(offsets).cast("B")[:] = memoryview(cursor).cast("B")
    elems = array("i", bytes(4 * cells))
    for t, a, h in zip(d.tails, d.labels, d.heads):
        k = h * alpha + a
        elems[cursor[k]] = t
        cursor[k] += 1
    del cursor
    # One int object per state for every label's compress, where a
    # range would make one per cell; made once the cursor is freed.
    states = list(range(total))
    with memoryview(elems).cast("B") as elem_bytes:
        for a in range(alpha):
            preds = array("I", compress(states,
                                        missing[a * total:(a + 1) * total]))
            lo = 4 * offsets[base + a]
            elem_bytes[lo:lo + 4 * len(preds)] = memoryview(preds).cast("B")
    return CompletedDfa(total, alpha, table, elems, offsets, d.finals)


def _refine_total(c: CompletedDfa):
    """Worklist refinement of the completed automaton.

    Returns (blocks, block_of, splits, touches).  A pending (block,
    symbol) pair is processed against the block's current contents; when
    a block splits, pairs pending on it stay pending for both halves,
    and otherwise only the smaller half is queued.

    Every split pushes exactly alpha pairs, one per label 0..alpha-1 in
    order, each for one of the split's two halves.  So the pending pairs
    are one byte each in ``work``, and ``chunks`` holds one entry
    ``(start, first, second)`` per split that still has pairs pending: a
    pair's label is its offset from its chunk's ``start``, and its byte
    is 1 for the ``first`` block, 0 for the ``second``.  The initial fill
    is one chunk of alpha pairs for the smaller of the two blocks.  A
    split still runs the Theta(alpha) loop over the labels.  A popped
    pair whose states have no predecessors under its symbol builds
    nothing.  The pairs still pending when a split leaves every block a
    single state are dropped.
    """
    alpha = c.alpha
    fin = set(c.finals)
    nonfin = set(range(c.n)) - fin
    blocks = [fin, nonfin]
    block_of = [1] * c.n
    for q in fin:
        block_of[q] = 0
    flags = [bytearray(alpha), bytearray(alpha)]
    small = 0 if len(fin) <= len(nonfin) else 1
    flags[small][:] = b"\x01" * alpha
    work = bytearray(b"\x01") * alpha
    push = work.append
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
            fz = bytearray(alpha)
            flags.append(fz)
            fy = flags[yb]
            part_smaller = len(part) <= len(y)
            start, first, second = len(work), nz, yb
            chunks.append((start, first, second))
            for sym in range(alpha):
                if fy[sym]:
                    fz[sym] = 1
                    push(1)
                elif part_smaller:
                    fz[sym] = 1
                    push(1)
                else:
                    fy[sym] = 1
                    push(0)
            if len(blocks) == c.n:
                # Every block is a single state: none can split again.
                work.clear()
    # Two blocks at the start, and each split appends one.
    return blocks, block_of, len(blocks) - 2, touches


def _refine_completed(c: CompletedDfa, stats: MinimizeStats, in_index) -> list:
    """The completed-table refiner: the final block of each state of
    the preprocessed automaton that ``c`` completes, without the sink's
    block.  It scans the reverse index of ``c``; ``in_index`` is None,
    since the pipeline drops its index before it completes the table."""
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
