"""Baseline minimizer over the sink-completed automaton.

The partial transition function is completed by adding one absorbing
sink state that receives every missing transition and all of its own.
Classic (block, symbol) worklist refinement then runs over the full
table.  This is only the refinement step: the minimizer pipeline of
:mod:`ptdfa.minimizer` does the preprocessing and builds the canonical
quotient from the final blocks, the sink's block left out.  Time is
O(alpha n log n) and memory Theta(alpha n) for the dense table and its
reverse index, the deliberate contrast with the sparse O(m) path.
"""

from array import array
from dataclasses import dataclass

from .automaton import MinimizeStats, PtDfa
from .minimizer import _pipeline

__all__ = ["CompletedDfa", "sink_complete", "hopcroft_minimize"]


@dataclass
class CompletedDfa:
    """Sink-completed view of an automaton: a dense total transition
    table plus the reverse index the refinement scans.

    ``table[q][a]`` is the successor state; the predecessors of state q
    under label a are ``inv_elems[inv_offsets[q*alpha+a] :
    inv_offsets[q*alpha+a+1]]``.  Both parts are Theta(alpha n).
    """

    n: int
    alpha: int
    sink: int
    table: list
    inv_elems: array
    inv_offsets: array
    initial: int
    finals: frozenset


def sink_complete(d: PtDfa) -> CompletedDfa:
    """Complete the transition function with an absorbing sink state."""
    n, alpha = d.n, d.alpha
    sink = n
    total = n + 1
    table = [[sink] * alpha for _ in range(total)]
    for t, a, h in zip(d.tails, d.labels, d.heads):
        table[t][a] = h
    cells = total * alpha
    offsets = array("i", bytes(4 * (cells + 1)))
    for q in range(total):
        row = table[q]
        for a in range(alpha):
            offsets[row[a] * alpha + a + 1] += 1
    for k in range(cells):
        offsets[k + 1] += offsets[k]
    cursor = array("i", offsets[:cells])
    elems = array("i", bytes(4 * cells))
    for q in range(total):
        row = table[q]
        for a in range(alpha):
            key = row[a] * alpha + a
            elems[cursor[key]] = q
            cursor[key] += 1
    return CompletedDfa(total, alpha, sink, table, elems, offsets, d.initial,
                        d.finals)


def _refine_total(c: CompletedDfa):
    """Worklist refinement of the completed automaton.

    Returns (blocks, block_of, splits, touches).  A pending (block,
    symbol) pair is processed against the block's current contents; when
    a block splits, pairs pending on it stay pending for both halves,
    and otherwise only the smaller half is queued.
    """
    alpha = c.alpha
    fin = set(c.finals)
    nonfin = set(range(c.n)) - fin
    blocks = [fin, nonfin]
    block_of = [1] * c.n
    for q in fin:
        block_of[q] = 0
    flags = [bytearray(alpha), bytearray(alpha)]
    work = []
    small = 0 if len(fin) <= len(nonfin) else 1
    for a in range(alpha):
        work.append((small, a))
        flags[small][a] = 1
    inv = c.inv_elems
    off = c.inv_offsets
    touches = 0
    splits = 0
    while work:
        b, a = work.pop()
        flags[b][a] = 0
        hits = {}
        for s in list(blocks[b]):
            lo = off[s * alpha + a]
            hi = off[s * alpha + a + 1]
            for k in range(lo, hi):
                q = inv[k]
                yb = block_of[q]
                if yb in hits:
                    hits[yb].append(q)
                else:
                    hits[yb] = [q]
            touches += hi - lo
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
            for sym in range(alpha):
                if fy[sym]:
                    fz[sym] = 1
                    work.append((nz, sym))
                elif part_smaller:
                    fz[sym] = 1
                    work.append((nz, sym))
                else:
                    fy[sym] = 1
                    work.append((yb, sym))
            splits += 1
    return blocks, block_of, splits, touches


def _refine_completed(dp: PtDfa, stats: MinimizeStats, in_index) -> list:
    """The completed-table refiner: the final block of each state of
    ``dp``, without the sink's block.  It scans its own reverse index
    of the table; ``in_index`` is None, since ``hopcroft_minimize``
    asks the pipeline not to build one."""
    c = sink_complete(dp)
    blocks, block_of, stats.splits, stats.splitter_touches = _refine_total(c)
    sink_block = block_of.pop()
    # Preprocessing left every state a nonempty language, so none shares
    # the sink's block.
    assert len(blocks[sink_block]) == 1
    return [b - (b > sink_block) for b in block_of]


def hopcroft_minimize(d: PtDfa):
    """Minimize via the completed-table baseline.

    Returns (out, stats); ``out`` is canonical and identical to what the
    sparse minimizer produces.
    """
    _, _, out, stats = _pipeline(d, _refine_completed, share_in_index=False)
    return out, stats
