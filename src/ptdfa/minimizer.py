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

The paper starts from the blocks {F, Q - F}, and its first rounds work
out which labels each state has defined.  Here the blocks start as the
classes of the states by finality and by their set of defined labels,
read off the out-index in C-level passes
(:func:`~ptdfa.splitter_init.init_block_grouping`), and the transition
sets as the classes of the transitions by (label, head block), laid out
in one pass over the incoming transitions of each block
(:func:`~ptdfa.splitter_init.init_trp_grouping`).  Both take O(n + m).
This start never separates two states of one language: every state of
a trimmed automaton accepts some word, so if label a is defined at p
but not at q, then a followed by a word that p's a-successor accepts is
accepted from p and not from q.  The coarsest stable refinement of the
start is therefore still language equivalence, and the output is the
same as from {F, Q - F}.

Every initial transition set is pending except the largest of each
label, the one with the most transitions, the lowest index on a tie.
That is Hopcroft's rule (Hopcroft 1971; Knuutila, TCS 250, 2001): when
the partition is stable with respect to a splitter and the splitter
falls into k pieces, any k - 1 of them do the work of all k.  The start
gives all states of a block one label set, so every block is stable with
respect to all the a-transitions, and a label's initial sets are the
pieces of that splitter.  So the worklist invariant holds from the first
round, the run ends in the same blocks, and the scan bounds keep
holding: a transition is popped in an initial set at most once, and
after that only in a set carved out by the rescan of a smaller half.  A
label whose transitions all enter one block queues nothing.  When the
start already has n blocks, as it has on a random sparse automaton, no
transition set is built and the run makes no round.

Both partitions are :class:`RefinablePartition` arrays that the loops
read and write directly, and the worklist is a plain ``array('i')``
popped from the end.  The inner loops avoid a call per element, and a
worklist round calls no Python function unless a hook is given.  The
rounds may take the pending sets in any order with the same result; a
hook imposes another order by reordering the worklist in place.  A
state in a singleton block, or a transition in a singleton transition
set, is never marked: its split could only be trivial.  A round whose
splitter is one transition marks its tail alone, with no touched list;
its block splits unless the tail is alone in it.  Both kinds of round
end in one split site in ``run``: a touched block marked whole has its
marks cleared in place, and any other has its marked prefix made the
next block, as ``RefinablePartition.split`` would, before the smaller
half is rescanned and the transition sets it reaches are carved inline.
The counters still count every skipped or cleared trivial split as a
split call of its partition, so ``split_calls`` reads the same as if
each touched set had been passed to ``RefinablePartition.split``.

Two rules drop work that can split nothing.  A block of one state never
splits again, so when the start or a split leaves a block of one state,
the transitions out of it, one slice of the out-index, are retired: their
set index becomes -1, which reads an extra slot shaped like a
one-transition set, so the mark loop skips them as it skips a singleton
set and never carves them into a fresh set.  A retired transition stays
in its set, which keeps the (block, label) pair of its live members;
when that set is popped, the retired tail is alone in its block and
skipped.  And a split that leaves n blocks makes the partition final:
the split site empties the worklist before its rescan, which ends the
run.  Neither rule changes a block, so the output stays the same, and
both scan bounds keep holding: every split still rescans its smaller
half, and a retired transition is touched at most once more, when the
set it was left in had already been queued.

Before any of this, the pipeline refines the start by at most
``_ROUNDS`` (R) signature rounds (Moore 1956; Almeida, Moreira & Reis,
DCFS 2007, compare Moore's and Hopcroft's algorithms in practice), which
need neither the in-index nor the transition sets.  A round reads the
block of the head of each transition into an int32 array and numbers
each state by its block and the bytes of its slice of that array over
the out-index, through one dict, all in C-level passes.  The block fixes
the label set, so the slice is the whole signature.  A round separates
only states that every stable refinement of the start separates, so a
round that splits nothing has reached the coarsest stable refinement,
the blocks that the worklist would reach, and the refinement ends there
with no in-index, transition set or worklist built.  So it ends on an
unrolled automaton, whose start already holds nearly all of its final
blocks, and with no round at all when the start has n blocks.

A round is abandoned once it has found more than k/4 splits, k being its
block count at the start.  The splits are counted as the new signatures
beyond the old blocks seen so far, after each chunk of
``_STATES_PER_COUNT`` states but the last, and the head blocks are read
chunk by chunk, so an abandoned round costs only the states it
numbered.  After an abandoned round, or R rounds that still split, the
worklist runs from the label-set start exactly as above: the rounds
only read the start, which is built once.  They add at most R(n + m)
steps, so the run takes O(m lg n + R(n + m)) = O(m lg n) for a constant
R.

This refinement and the completed-table baseline of
:mod:`ptdfa.hopcroft` run in one pipeline and differ only in the
refiner, whose input the baseline first completes: dead-state removal,
the empty-language answer, the refiner's final block of each state,
then ``canonicalize``, which builds the canonical quotient straight
from those blocks, or only renumbers the automaton when no two states
merged.  The incoming transitions of each state, in the CSR form of the
out-index (:func:`bucket_by`), are grouped only where a step reads them:
by the backward search of dead-state removal, which hands them on to
this refiner when it kept every state, or else by this refiner when the
signature rounds do not settle.
"""

from array import array
from collections import defaultdict
from functools import partial
from itertools import chain, compress, count, pairwise, repeat, starmap
from operator import itemgetter, mul, sub
from time import perf_counter

from .automaton import _ROUNDS, MinimizeStats, PtDfa, bucket_by
# The quotient of the refiner's own blocks skips the public function's
# checks of them, and goes by the name of its layer, as the benchmark's
# span wraps it.
from .automaton import _canonical as canonicalize
# Dead-state removal passes a 0/1 keep mask between its two steps, which
# go by the names of their layers, the names the benchmark's spans wrap.
from .preprocess import (_relevant_mask as relevant_states,
                         _restricted as restrict, empty_dfa)
from .refinable_partition import RefinablePartition
from .splitter_init import init_block_grouping, init_trp_grouping

__all__ = ["Refinement", "minimize", "minimize_with_stats", "final_blocks"]

# States numbered by a signature round between two counts of its splits.
_STATES_PER_COUNT = 256


def _incoming_by_block(brp: RefinablePartition, in_index):
    """The incoming transitions of each block of ``brp``, one iterable
    per block, read in C from the in-index: by one ``itemgetter`` call
    when each state of the block has exactly one, as in a tree, else by
    chaining the in-index slices of its states."""
    in_order, in_first = in_index
    start = in_first.__getitem__
    stop = in_first[1:].__getitem__
    for b in range(brp.sets):
        states = brp.elems[brp.first[b]:brp.end[b]]
        firsts = list(map(start, states))
        if len(firsts) > 1 and set(map(sub, map(stop, states),
                                       firsts)) == {1}:
            yield itemgetter(*firsts)(in_order)
        else:
            yield chain.from_iterable(map(in_order.__getitem__, map(
                slice, firsts, map(stop, states))))


class Refinement:
    """Mutable state of one refinement run.

    ``dp`` must already be preprocessed: every state reachable and
    co-reachable, at least one final state.  ``in_index``, if given,
    must be ``bucket_by(dp.heads, dp.n)``, the incoming transitions of
    each state in CSR form; it is built when omitted, unless the
    initial blocks are single states, which never split.  ``brp``, if
    given, must be ``init_block_grouping(dp)`` as built, the one start
    of every run: the pipeline builds it once, reads it in its signature
    rounds and hands it on when they do not settle.  ``run()``
    drives the refinement to the fixpoint; the final block of state q is
    ``brp.set_of(q)``, and ``brp.sets`` before ``run()`` is the number
    of initial blocks.

    ``unready``, the worklist of pending transition sets, is an
    ``array('i')`` that new sets are appended to and that each round
    pops from the end.  It is nonempty exactly when work is pending.  It
    starts with every initial set in index order but the largest of each
    label, the one with the most transitions (the lowest index on a
    tie): each initial block is stable with respect to all of a label's
    transitions, so by Hopcroft's rule any one of the label's sets may
    be left off (see the module docstring).
    """

    def __init__(self, dp: PtDfa, in_index=None, *, brp=None):
        self.dp = dp
        if brp is None:
            brp = init_block_grouping(dp)
        self.brp = brp
        # The worklist holds up to one entry per transition set.
        self.unready = array("i")
        self.splitter_touches = 0
        self.small_half_touches = 0
        if brp.sets == dp.n:
            # Every block is a single state, so none can split: no
            # transition set is built, and the run makes no round.
            self.trp = trp = RefinablePartition(0)
            in_index = ((), ())
        else:
            if in_index is None:
                in_index = bucket_by(dp.heads, dp.n)
            self.trp = trp = init_trp_grouping(
                dp.labels, dp.alpha, _incoming_by_block(brp, in_index))
        self.in_order, self.in_first = in_index
        sets = trp.sets
        # Each label's largest initial set, the lowest index on a tie,
        # stays off the worklist; every other one is pending.
        pending = bytearray(b"\x01") * sets
        for p in trp.largest:
            pending[p] = 0
        self.unready.extend(compress(range(sets), pending))
        # Set index -1 reads one extra slot, shaped like a one-transition
        # set: a retired transition points there, so the singleton-set
        # test of the mark loop skips it.
        trp.first.append(0)
        trp.mid.append(0)
        trp.end.append(1)
        # Enough -1 entries to retire the transitions out of any state:
        # they have distinct labels, so each lies in a set of its own.
        self.retired = retired = array("i", [-1]) * sets
        if sets:
            # A block of one state never splits: the transitions out of
            # a state that starts alone in its block are retired at once.
            out_first = dp.out_first
            for f, e in zip(brp.first[:brp.sets], brp.end[:brp.sets]):
                if e - f == 1:
                    lo, hi = out_first[brp.elems[f]:brp.elems[f] + 2]
                    trp.sidx[lo:hi] = retired[:hi - lo]

    def unready_pairs(self) -> set:
        """Live worklist contents as (target block, label) pairs, read
        from a member that is not retired; a set whose members are all
        retired holds no pair."""
        heads = self.dp.heads
        labels = self.dp.labels
        trp = self.trp
        pairs = set()
        for p in self.unready:
            # A retired member keeps its place but not its pair.
            for t in trp.elems[trp.first[p]:trp.end[p]]:
                if trp.sidx[t] == p:
                    pairs.add((self.brp.set_of(heads[t]), labels[t]))
                    break
        return pairs

    def run(self, hook=None) -> None:
        """Refine the initial partition until the worklist drains.
        ``hook(self)``, if given, fires at the top of every worklist
        round, before the pop.  It may reorder ``self.unready`` in place
        to take the pending sets in another order; the final blocks are
        the same in any order."""
        dp = self.dp
        n = dp.n
        tails = dp.tails
        tail_of = tails.__getitem__
        out_first = dp.out_first
        in_order = self.in_order
        in_first = self.in_first
        retired = self.retired
        brp = self.brp
        belems = brp.elems
        bloc = brp.loc
        bsidx = brp.sidx
        bfirst = brp.first
        bmid = brp.mid
        bend = brp.end
        trp = self.trp
        telems = trp.elems
        tloc = trp.loc
        tsidx = trp.sidx
        tfirst = trp.first
        tmid = trp.mid
        tend = trp.end
        pending = self.unready
        take = pending.pop
        queue = pending.append
        blocks_before = brp.sets
        sets_before = trp.sets
        touched = []
        touched_add = touched.append
        carved = []
        carved_add = carved.append
        trivial = touches = steps = 0
        set_trivial = rescanned = set_steps = 0
        while pending:
            if hook is not None:
                hook(self)
            p = take()
            f = tfirst[p]
            e = tend[p]
            touches += e - f
            if e - f == 1:
                # One transition: mark its tail alone.
                q = tails[telems[f]]
                b = bsidx[q]
                mm = bfirst[b]
                lq = bloc[q]
                other = belems[mm]
                belems[lq] = other
                bloc[other] = lq
                belems[mm] = q
                bloc[q] = mm
                bmid[b] = mm + 1
                split = (b,)
            else:
                touched.clear()
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
                # Split in the reverse order of first touch.
                split = reversed(touched)
            for b in split:
                f = bfirst[b]
                mm = bmid[b]
                if mm == bend[b]:
                    bmid[b] = f
                    trivial += 1
                    continue
                # The marked prefix [f, mm) becomes the next block; b
                # keeps the unmarked rest [mm, e), with no marks.
                e = bend[b]
                b2 = brp.sets
                brp.sets = b2 + 1
                bfirst[b2] = bmid[b2] = f
                bend[b2] = bfirst[b] = mm
                for q in belems[f:mm]:
                    bsidx[q] = b2
                steps += mm - f
                if b2 + 1 == n:
                    # Every block is a single state, so none can split
                    # again: the run ends with nothing pending.
                    pending *= 0  # empties the array in place
                    break
                # A half of one state never splits again: retire the
                # transitions out of it, which are never marked from now on.
                if mm - f == 1:
                    lo, hi = out_first[belems[f]:belems[f] + 2]
                    tsidx[lo:hi] = retired[:hi - lo]
                if e - mm == 1:
                    lo, hi = out_first[belems[mm]:belems[mm] + 2]
                    tsidx[lo:hi] = retired[:hi - lo]
                if e - mm < mm - f:
                    f = mm
                    mm = e
                for q in belems[f:mm]:
                    lo = in_first[q]
                    hi = in_first[q + 1]
                    rescanned += hi - lo
                    for t in in_order[lo:hi]:
                        p = tsidx[t]
                        k = tmid[p]
                        if k == tfirst[p]:
                            if tend[p] == k + 1:
                                set_trivial += 1
                                continue
                            carved_add(p)
                        # Mark t inside its transition set; it is
                        # unmarked, since a rescan reaches it once.
                        lt = tloc[t]
                        other = telems[k]
                        telems[lt] = other
                        tloc[other] = lt
                        telems[k] = t
                        tloc[t] = k
                        tmid[p] = k + 1
                # Carve the sets in the reverse order of their first
                # touch: the marked prefix of a set marked in part
                # becomes the next fresh set and joins the worklist.
                new = trp.sets
                for p in reversed(carved):
                    f = tfirst[p]
                    k = tmid[p]
                    if k == tend[p]:
                        tmid[p] = f
                        set_trivial += 1
                        continue
                    tfirst[new] = tmid[new] = f
                    tend[new] = tfirst[p] = k
                    for t in telems[f:k]:
                        tsidx[t] = new
                    set_steps += k - f
                    queue(new)
                    new += 1
                trp.sets = new
                carved.clear()
        self.splitter_touches += touches
        self.small_half_touches += rescanned
        brp.split_calls += trivial + brp.sets - blocks_before
        brp.split_steps += steps
        trp.split_calls += set_trivial + trp.sets - sets_before
        trp.split_steps += set_steps


def _pipeline(d: PtDfa, refine, complete=None):
    """The minimization steps shared by every refiner.

    Removes dead states, answers an empty language with the one-state
    empty automaton, and otherwise calls ``refine(dp, stats, in_index)``
    on the preprocessed automaton ``dp``, or ``refine(complete(dp),
    stats, None)`` when a ``complete`` step is given.  The refiner fills
    its counters into ``stats`` and returns the final block of each
    state of ``dp``, numbered densely from 0; the result is the
    canonical quotient by those blocks, which are trusted, so the public
    ``canonicalize``'s checks of them are skipped, or only ``dp``
    renumbered when every block is a single state.  Returns ``(dp,
    blocks, out, stats)``, with ``blocks`` None when no refinement ran;
    ``stats.phases`` holds the seconds of the preprocessing, of the
    ``complete`` step if there is one, of the refiner call and of the
    quotient.

    The incoming transitions of each state, ``bucket_by(d.heads,
    d.n)``, are grouped only when dead-state removal needs its backward
    search, which is when some reachable state is neither final nor has
    a final successor.  The refiner gets them as ``in_index`` only if
    they were grouped, dead-state removal kept every state (``dp is
    d``) and no ``complete`` step follows; otherwise ``in_index`` is
    None, and a refiner of ``dp`` groups its own only if it reads them.
    A refiner of a completed automaton (hopcroft) never does.
    """
    t0 = perf_counter()
    stats = MinimizeStats(n_in=d.n, m_in=d.m, alpha=d.alpha)
    # bucket_by is looked up here, at call time, so that a wrapper put
    # in its place sees every in-index that is built.
    mask, in_index = relevant_states(d, bucket_by)
    dp = restrict(d, mask)
    if complete is not None or dp is not d:
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
        # Dense block numbers: k == n blocks are all single states.
        out = canonicalize(dp, None if max(blocks) + 1 == dp.n else blocks)
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


def _signature_rounds(dp: PtDfa, blocks: list, k: int,
                      stats: MinimizeStats):
    """Refine ``blocks``, the k blocks of the label-set start, by at most
    ``_ROUNDS`` signature rounds (see the module docstring), counted in
    ``stats.signature_rounds``.  Returns the coarsest stable refinement
    as ``(block of each state, block count)``, or None when a round was
    abandoned or the last one still split.  ``blocks`` is only read."""
    n = dp.n
    heads = dp.heads
    first = dp.out_first
    stats.signature_rounds = 0
    while k < n:
        if stats.signature_rounds == _ROUNDS:
            return None
        stats.signature_rounds += 1
        numbers = defaultdict(count().__next__)
        number = numbers.__getitem__
        block = blocks.__getitem__
        new = []
        seen = set()
        for lo in range(0, n, _STATES_PER_COUNT):
            hi = min(lo + _STATES_PER_COUNT, n)
            f = first[lo]
            # The head blocks of these states' transitions, as bytes: each
            # state's slice, with its own block, is its signature.
            row = array("i", map(block, heads[f:first[hi]])).tobytes()
            offsets = map(mul, map(sub, first[lo:hi + 1], repeat(f)),
                          repeat(heads.itemsize))
            new += map(number, zip(blocks[lo:hi], map(
                row.__getitem__, starmap(slice, pairwise(offsets)))))
            seen.update(blocks[lo:hi])
            if hi < n and 4 * (len(numbers) - len(seen)) > k:
                return None
        if len(numbers) == k:
            break
        blocks = new
        k = len(numbers)
    return blocks, k


def _refine(dp: PtDfa, stats: MinimizeStats, in_index, hook) -> list:
    """The two-partition refiner: the final block of each state, from
    the signature rounds if they settle, else from the worklist, which
    starts from the same label-set start."""
    brp = init_block_grouping(dp)
    stats.initial_blocks = brp.sets
    settled = _signature_rounds(dp, brp.sidx, brp.sets, stats)
    if settled is None:
        ref = Refinement(dp, in_index, brp=brp)
        ref.run(hook)
        settled = ref.brp.sidx, ref.brp.sets
        stats.splitter_touches = ref.splitter_touches
        stats.small_half_touches = ref.small_half_touches
    blocks, k = settled
    # The final block count less one: the separations of the initial
    # partition count as splits, as they did when the run made them.
    stats.splits = k - 1
    return blocks


def minimize_with_stats(d: PtDfa, *, loop_hook=None):
    """Minimize ``d`` and report instrumentation.

    Returns ``(out, stats)`` where ``out`` is the canonical minimal
    automaton for the same language: dead states are removed first, an
    empty language yields the one-state empty automaton, and otherwise
    the refined blocks are collapsed to a quotient.  ``loop_hook(ref)``,
    if given, is called with the :class:`Refinement` at the top of every
    worklist round (see :meth:`Refinement.run`); by reordering
    ``ref.unready`` in place it imposes another processing order, and
    the result is identical in any order.  It is never called when the
    signature rounds settle the partition, since no worklist is built.
    """
    _, _, out, stats = _pipeline(d, partial(_refine, hook=loop_hook))
    return out, stats


def minimize(d: PtDfa) -> PtDfa:
    """The unique minimal PT-DFA accepting the same language as ``d``,
    in canonical form."""
    return minimize_with_stats(d)[0]


def final_blocks(d: PtDfa, *, loop_hook=None):
    """Run the refinement and report its final partition.

    Returns ``(dp, blocks, stats)``: the preprocessed automaton, the
    final block index of each of its states (None when the language is
    empty and no refinement ran), and the instrumentation.  ``loop_hook``
    is as for :func:`minimize_with_stats`: it is not called when the
    signature rounds settle the partition.
    """
    dp, blocks, _, stats = _pipeline(d, partial(_refine, hook=loop_hook))
    return dp, blocks, stats
