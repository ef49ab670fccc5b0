"""Worklist minimization of partial-transition DFAs.

Two partitions are refined in lockstep: one of the states (the blocks)
and one of the transitions, where a transition set holds the incoming
transitions of one (block, label) pair.  Each round pulls an unprocessed
transition set, marks the tail states of its transitions, and splits
every block that ended up only partially marked.  After a block splits,
the incoming transitions of its smaller half are carved out of their
transition sets and each freshly created set joins the worklist; a set
left whole keeps its index and its worklist status.  Rescanning only the
smaller half bounds the number of times any transition is revisited by
log n, for O(m log n) total work and O(m) memory.

Both partitions are :class:`RefinablePartition` arrays that the loops
read and write directly, and the worklist is a plain ``array('i')``
(or a ``deque`` for FIFO order).  The two inner loops avoid a call per
element, and a worklist round calls no Python function unless a block
splits (or a hook is given).
A state in a singleton block, or a transition in a singleton transition
set, is never marked: its split could only be trivial.  A round whose
splitter is one transition, with its tail alone in its block, is
skipped outright after counting its touch, since nothing can split; on
nearly minimal inputs that is most rounds.  When that tail shares its
block, the round always splits it: the tail is marked alone and
``split_block`` called, with no touched list.  A touched block or set
that ended up marked whole has its marks cleared in place; only a real
split calls ``split_block`` (blocks) or is carried out inline
(transition sets).  The counters still count every skipped or cleared
trivial split, the skipped round's included, as a split call of its
partition, so ``split_calls`` reads the same as if each touched set had
been passed to ``RefinablePartition.split``.

This refinement and the completed-table baseline of
:mod:`ptdfa.hopcroft` run in one pipeline and differ only in the
refiner, whose input the baseline first completes: dead-state removal,
the empty-language answer, the refiner's final block of each state,
then ``canonicalize``, which builds the canonical quotient straight
from those blocks, or only renumbers the automaton when no two states
merged.  The incoming transitions of each state are grouped once, in
the CSR form of the out-index (:func:`bucket_by`), for dead-state
removal, and handed on to this refiner when that removal kept every
state.
"""

from array import array
from collections import deque
from functools import partial
from time import perf_counter

from .automaton import MinimizeStats, PtDfa, bucket_by, canonicalize
# Dead-state removal passes a 0/1 keep mask between its two steps, which
# go by the names of their layers, the names the benchmark's spans wrap.
from .preprocess import (_relevant_mask as relevant_states,
                         _restricted as restrict, empty_dfa)
from .refinable_partition import RefinablePartition
from .splitter_init import init_trp_grouping

__all__ = ["Refinement", "minimize", "minimize_with_stats", "final_blocks"]


class Refinement:
    """Mutable state of one refinement run.

    ``dp`` must already be preprocessed: every state reachable and
    co-reachable, at least one final state.  ``in_index``, if given,
    must be ``bucket_by(dp.heads, dp.n)``, the incoming transitions of
    each state in CSR form; it is built when omitted.  ``run()`` drives
    the refinement to the fixpoint; the final block of state q is
    ``brp.set_of(q)``.

    ``unready``, the worklist of pending transition sets, is a plain
    container that new sets are appended to: an ``array('i')`` popped
    from the end for "lifo", a ``deque`` popped from the front for
    "fifo".  It is nonempty exactly when work is pending.  The deque
    holds int objects, not four-byte entries, so "fifo" peaks higher
    than "lifo"; it stays, as the reference order that criterion 8
    compares the default against.
    """

    def __init__(self, dp: PtDfa, worklist: str = "lifo", in_index=None):
        if worklist not in ("lifo", "fifo"):
            raise ValueError(f"unknown worklist discipline {worklist!r}")
        self.dp = dp
        self.brp = RefinablePartition(dp.n)
        # The worklist holds up to one entry per transition set.
        self.unready = deque() if worklist == "fifo" else array("i")
        self.block_splits = 0
        self.splitter_touches = 0
        self.small_half_touches = 0
        self.trp = init_trp_grouping(dp.labels, dp.alpha)
        if in_index is None:
            in_index = bucket_by(dp.heads, dp.n)
        self.in_order, self.in_first = in_index
        # Initial transition sets are exactly 0..sets-1, all pending.
        self.unready.extend(range(self.trp.sets))

    def unready_pairs(self) -> set:
        """Live worklist contents as (target block, label) pairs."""
        heads = self.dp.heads
        labels = self.dp.labels
        telems = self.trp.elems
        tfirst = self.trp.first
        pairs = set()
        for p in self.unready:
            t = telems[tfirst[p]]
            pairs.add((self.brp.set_of(heads[t]), labels[t]))
        return pairs

    def split_block(self, b: int) -> None:
        """Split block ``b`` along its marks and requeue affected
        transition sets.

        A trivial split (nothing or everything marked) only clears the
        marks.  Otherwise the half with fewer states is rescanned, ties
        going to the marked (new) half: its incoming transitions move
        into fresh transition sets, and every fresh set joins the
        worklist.  The transition sets are split here, not through
        ``trp.split``; a singleton set is never marked, and it and a
        set marked whole are counted as trivial ``trp`` split calls.
        """
        brp = self.brp
        b2 = brp.split(b)
        if b2 is None:
            return
        self.block_splits += 1
        bfirst = brp.first
        bend = brp.end
        if bend[b] - bfirst[b] < bend[b2] - bfirst[b2]:
            b2 = b
        trp = self.trp
        in_order = self.in_order
        in_first = self.in_first
        telems = trp.elems
        tloc = trp.loc
        tsidx = trp.sidx
        tfirst = trp.first
        tmid = trp.mid
        tend = trp.end
        touched = []
        touched_add = touched.append
        trivial = 0
        touches = 0
        for q in brp.elems[bfirst[b2]:bend[b2]]:
            f = in_first[q]
            e = in_first[q + 1]
            touches += e - f
            for t in in_order[f:e]:
                p = tsidx[t]
                mm = tmid[p]
                if mm == tfirst[p]:
                    if tend[p] == mm + 1:
                        trivial += 1
                        continue
                    touched_add(p)
                # Mark t inside its transition set; it is unmarked,
                # since a rescan reaches each transition once.
                lt = tloc[t]
                other = telems[mm]
                telems[lt] = other
                tloc[other] = lt
                telems[mm] = t
                tloc[t] = mm
                tmid[p] = mm + 1
        self.small_half_touches += touches
        # Split the touched sets in the reverse order of their first
        # touch: the marked prefix of a partially marked set becomes
        # the next fresh set and joins the worklist.
        unready_add = self.unready.append
        new = trp.sets
        steps = 0
        for p in reversed(touched):
            f = tfirst[p]
            mm = tmid[p]
            if mm == tend[p]:
                tmid[p] = f
                trivial += 1
                continue
            tfirst[new] = f
            tmid[new] = f
            tend[new] = mm
            tfirst[p] = mm
            if mm - f == 1:
                tsidx[telems[f]] = new
            else:
                for t in telems[f:mm]:
                    tsidx[t] = new
            steps += mm - f
            unready_add(new)
            new += 1
        trp.split_calls += trivial + new - trp.sets
        trp.split_steps += steps
        trp.sets = new

    def run(self, hook=None) -> None:
        """Split off the final states, then refine until the worklist
        drains.  ``hook(self)``, if given, fires at the top of every
        worklist round."""
        dp = self.dp
        brp = self.brp
        for q in sorted(dp.finals):
            brp.mark(q)
        self.split_block(0)
        trp = self.trp
        telems = trp.elems
        tfirst = trp.first
        tend = trp.end
        tails = dp.tails
        tail_of = tails.__getitem__
        belems = brp.elems
        bloc = brp.loc
        bsidx = brp.sidx
        bfirst = brp.first
        bmid = brp.mid
        bend = brp.end
        pending = self.unready
        take = (pending.popleft if isinstance(pending, deque)
                else pending.pop)
        split_block = self.split_block
        touched = []
        touched_add = touched.append
        trivial = 0
        touches = 0
        while pending:
            if hook is not None:
                hook(self)
            p = take()
            f = tfirst[p]
            e = tend[p]
            touches += e - f
            if e - f == 1:
                q = tails[telems[f]]
                b = bsidx[q]
                mm = bfirst[b]
                if bend[b] - mm == 1:
                    # One transition, its tail alone in its block.
                    trivial += 1
                    continue
                # One transition into a larger block: mark its tail
                # alone, which always splits the block.
                lq = bloc[q]
                other = belems[mm]
                belems[lq] = other
                bloc[other] = lq
                belems[mm] = q
                bloc[q] = mm
                bmid[b] = mm + 1
                split_block(b)
                continue
            for q in map(tail_of, telems[f:e]):
                b = bsidx[q]
                mm = bmid[b]
                if mm == bfirst[b]:
                    if bend[b] == mm + 1:
                        trivial += 1
                        continue
                    touched_add(b)
                # Mark q inside its block; it is unmarked, since the
                # tails of one transition set are distinct.
                lq = bloc[q]
                other = belems[mm]
                belems[lq] = other
                bloc[other] = lq
                belems[mm] = q
                bloc[q] = mm
                bmid[b] = mm + 1
            if touched:
                # Split in the reverse order of first touch.
                for b in reversed(touched):
                    if bmid[b] == bend[b]:
                        bmid[b] = bfirst[b]
                        trivial += 1
                    else:
                        split_block(b)
                touched.clear()
        self.splitter_touches += touches
        brp.split_calls += trivial


def _pipeline(d: PtDfa, refine, complete=None):
    """The minimization steps shared by every refiner.

    Removes dead states, answers an empty language with the one-state
    empty automaton, and otherwise calls ``refine(dp, stats, in_index)``
    on the preprocessed automaton ``dp``, or ``refine(complete(dp),
    stats, None)`` when a ``complete`` step is given.  The refiner fills
    its counters into ``stats`` and returns the final block of each
    state of ``dp``, numbered densely from 0; the result is the
    canonical quotient by those blocks, which ``canonicalize`` skips
    when every block is a single state.  Returns ``(dp, blocks, out,
    stats)``, with ``blocks`` None when no refinement ran;
    ``stats.phases`` holds the seconds of the preprocessing, of the
    ``complete`` step if there is one, of the refiner call and of the
    quotient.

    The incoming transitions of each state, ``bucket_by(d.heads,
    d.n)``, are grouped once: dead-state removal walks them, and when it
    keeps every state (``dp is d``) the refiner gets them as
    ``in_index``; otherwise ``in_index`` is None.  A refiner of a
    completed automaton (hopcroft) has no use for them, so with a
    ``complete`` step none are built here or held while it runs.
    """
    t0 = perf_counter()
    stats = MinimizeStats(n_in=d.n, m_in=d.m, alpha=d.alpha)
    in_index = bucket_by(d.heads, d.n) if complete is None else None
    dp = restrict(d, relevant_states(d, in_index))
    if dp is not d:
        in_index = None
    stats.n_core = dp.n
    stats.m_core = dp.m
    t1 = perf_counter()
    stats.phases["preprocess"] = t1 - t0
    if complete is None:
        source = dp
    else:
        source = complete(dp) if dp.finals else None
        t2 = perf_counter()
        stats.phases["complete"] = t2 - t1
        t1 = t2
    if dp.finals:
        blocks = refine(source, stats, in_index)
        # Neither is held while the quotient is built.
        source = in_index = None
        t2 = perf_counter()
        out = canonicalize(dp, blocks)
    else:
        blocks = None
        t2 = t1
        out = empty_dfa(d.alpha)
    t3 = perf_counter()
    stats.n_out = out.n
    stats.m_out = out.m
    stats.phases["refine"] = t2 - t1
    stats.phases["canonicalize"] = t3 - t2
    stats.seconds = t3 - t0
    return dp, blocks, out, stats


def _refine(dp: PtDfa, stats: MinimizeStats, in_index, worklist: str,
            hook) -> list:
    """The two-partition refiner: the final block of each state."""
    ref = Refinement(dp, worklist=worklist, in_index=in_index)
    ref.run(hook)
    stats.splits = ref.block_splits
    stats.splitter_touches = ref.splitter_touches
    stats.small_half_touches = ref.small_half_touches
    return ref.brp.sidx


def minimize_with_stats(d: PtDfa, *, worklist: str = "lifo", loop_hook=None):
    """Minimize ``d`` and report instrumentation.

    Returns ``(out, stats)`` where ``out`` is the canonical minimal
    automaton for the same language: dead states are removed first, an
    empty language yields the one-state empty automaton, and otherwise
    the refined blocks are collapsed to a quotient.  ``worklist`` selects
    the processing order ("lifo" or "fifo"); the result is identical
    either way.
    """
    _, _, out, stats = _pipeline(
        d, partial(_refine, worklist=worklist, hook=loop_hook))
    return out, stats


def minimize(d: PtDfa, *, worklist: str = "lifo") -> PtDfa:
    """The unique minimal PT-DFA accepting the same language as ``d``,
    in canonical form."""
    return minimize_with_stats(d, worklist=worklist)[0]


def final_blocks(d: PtDfa, *, worklist: str = "lifo", loop_hook=None):
    """Run the refinement and report its final partition.

    Returns ``(dp, blocks, stats)``: the preprocessed automaton, the
    final block index of each of its states (None when the language is
    empty and no refinement ran), and the instrumentation.
    """
    dp, blocks, _, stats = _pipeline(
        d, partial(_refine, worklist=worklist, hook=loop_hook))
    return dp, blocks, stats
