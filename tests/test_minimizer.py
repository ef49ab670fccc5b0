import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from dataclasses import fields, replace
from itertools import chain

import pytest

from ptdfa import (
    MinimizeStats, PtDfa, Refinement, accepts, empty_dfa, final_blocks, generate,
    hopcroft_minimize, is_isomorphic, minimize, minimize_with_stats,
    oracle_minimize, parse, relevant_states, restrict, serialize,
    sink_complete,
)
from ptdfa import automaton, minimizer, preprocess
from ptdfa.automaton import _ROUNDS, bucket_by, canonicalize
from ptdfa.oracle import language_partition
from ptdfa.workload import ALGORITHMS

from helpers import (
    RETIRED, ROOT, ReferenceRefinement, all_words, benchmark_workloads,
    check_partition, fifo_order, final_partition_violations, iter_tiny_dfas,
    partition_sets, shuffled_order, with_final_chain, worklist_invariant_ok,
)


def _random_cases(count, max_n=8, max_alpha=4, seed_base=0):
    densities = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    for i in range(count):
        n = 1 + i % max_n
        alpha = 1 + i % max_alpha
        yield generate(n, alpha, densities[i % 10], i % (n + 1),
                       seed=seed_base + i)


# -- the split site of Refinement.run -----------------------------------------

def _from_one_set(dp, t):
    """A refinement of ``dp`` whose worklist holds only the transition
    set of transition ``t``, and the (block of each state, set of each
    transition, worklist, set count) that its hook sees at the top of
    every round, as ``run`` leaves it."""
    ref = Refinement(dp)
    del ref.unready[:]
    ref.unready.append(ref.trp.set_of(t))
    seen = []
    ref.run(lambda r: seen.append((list(r.brp.sidx), list(r.trp.sidx),
                                   list(r.unready), r.trp.sets)))
    return ref, seen


def test_splitter_that_marks_its_block_whole_changes_nothing():
    # The blocks start as {0, 1} and {2, 3}, and each label's
    # transitions form one set, which the start leaves off the worklist.
    # Popped, the label-0 set marks the block {0, 1} whole: the marks
    # are cleared, no block splits and no set is carved.
    d = PtDfa.from_triples(4, 2, [(0, 0, 2), (0, 1, 1), (1, 0, 3), (1, 1, 0)],
                           0, {2, 3})
    dp = restrict(d, relevant_states(d))
    start = Refinement(dp)
    assert list(start.unready) == []
    before = partition_sets(start.brp), partition_sets(start.trp)
    ref, seen = _from_one_set(dp, 0)
    assert len(seen) == 1 and list(ref.unready) == []
    assert (partition_sets(ref.brp), partition_sets(ref.trp)) == before
    assert ref.brp.split_calls == 1 and ref.brp.split_steps == 0
    assert ref.trp.split_calls == ref.trp.split_steps == 0


def test_split_into_equal_halves_rescans_the_marked_half():
    # States 0 to 3 are final with labels {0, 1}, so they start in one
    # block; state 4, final with label 0 alone, starts in another.  The
    # set {2 -1-> 4, 3 -1-> 4} marks {2, 3}, and the block splits into
    # equal halves.  The marked (new) half must be the one rescanned, so
    # 0 -0-> 2 and 3 -0-> 3 (transitions 0 and 6) and 1 -1-> 3
    # (transition 3) are carved into two fresh pending sets, while the
    # transitions into 0 and 1 stay put.
    d = PtDfa.from_triples(5, 2, [(0, 0, 2), (0, 1, 1), (1, 0, 0), (1, 1, 3),
                                  (2, 0, 1), (2, 1, 4), (3, 0, 3), (3, 1, 4),
                                  (4, 0, 4)], 0, {0, 1, 2, 3, 4})
    dp = restrict(d, relevant_states(d))
    assert dp.n == 5
    ref, seen = _from_one_set(dp, 5)
    assert ref.brp.sets == 5
    blocks, sets, pending, count = seen[1]
    assert blocks == [0, 0, 2, 2, 1]
    assert sets[0] == sets[6] != sets[2] == sets[4]
    assert sets[3] != sets[1]
    assert {sets[0], sets[3]} == {count - 2, count - 1} == set(pending)


def test_set_marked_whole_by_the_rescan_keeps_its_index_and_status():
    # States 0 to 3 are final with labels {a, b, c}, so they start in one
    # block; state 4 starts in another.  The set {2 -c-> 4, 3 -c-> 4}
    # splits the block into the equal halves {0, 1} and {2, 3}.  Every
    # a-transition of the block points into the rescanned half {2, 3},
    # so the a-set is marked whole: it keeps its index and stays off the
    # worklist, while the b-set, marked in part, spawns a fresh pending
    # set for 1 -b-> 2 (transition 4).
    d = PtDfa.from_triples(5, 3, [(0, 0, 2), (0, 1, 1), (0, 2, 0),
                                  (1, 0, 3), (1, 1, 2), (1, 2, 1),
                                  (2, 0, 2), (2, 1, 0), (2, 2, 4),
                                  (3, 0, 3), (3, 1, 1), (3, 2, 4),
                                  (4, 0, 4)], 0, {0, 1, 2, 3, 4})
    dp = restrict(d, relevant_states(d))
    start = Refinement(dp)
    a_set = start.trp.set_of(0)
    ref, seen = _from_one_set(dp, 8)
    blocks, sets, pending, count = seen[1]
    assert blocks == [0, 0, 2, 2, 1]
    assert sets[0] == sets[3] == sets[6] == sets[9] == a_set
    assert count == start.trp.sets + 1
    assert pending == [sets[4]] == [count - 1]


def test_no_round_runs_once_every_block_is_a_single_state():
    # On a minimal input the last split leaves n singleton blocks, and
    # the run ends there: no round starts on the final partition.  The
    # final chain leaves every input to the worklist, which the
    # signature rounds would otherwise settle.
    checked = rounds = 0
    for d in _random_cases(120, max_n=12, seed_base=13_000):
        seen = []
        dp, blocks, stats = final_blocks(
            with_final_chain(d),
            loop_hook=lambda r: seen.append(r.brp.sets == r.dp.n))
        if blocks is None or stats.n_out != dp.n:
            continue
        assert seen and not any(seen)
        assert stats.within_scan_bounds(), stats
        checked += 1
        rounds += len(seen)
    assert checked > 30 and rounds > 100


def test_no_set_is_carved_for_a_transition_out_of_a_one_state_block():
    # The non-final states 0, 1 and 2 share the labels {0, 1}, so they
    # start in one block.  Its first split, by the label-0 set into the
    # block of state 4, leaves state 0 alone, and the rescan of that
    # smaller half reaches 0 -1-> 0.  Its tail can never split again, so
    # it is retired, not carved out of the label-1 set into a fifth
    # transition set.
    d = PtDfa.from_triples(6, 2, [(0, 0, 3), (0, 1, 0), (1, 0, 4), (1, 1, 2),
                                  (2, 0, 4), (2, 1, 1), (4, 0, 3), (5, 0, 0),
                                  (5, 1, 1)], 5, {3, 4, 5})
    ref = Refinement(d)
    assert ref.brp.sets == 4 and ref.trp.sets == 4
    ref.run()
    assert ref.trp.sets == 4
    # The transitions out of states 3, 4 and 5, alone in their blocks
    # from the start, are retired before the run.
    assert list(ref.trp.sidx) == [RETIRED, RETIRED, 3, 0, 3, 0, RETIRED,
                                  RETIRED, RETIRED]
    assert list(ref.brp.sidx) == [0, 4, 4, 1, 2, 3]
    _, stats = minimize_with_stats(d)
    assert stats.n_out == 5
    assert stats.within_scan_bounds(), stats


def test_scan_bounds_name_the_counters_a_run_did_not_measure():
    d = generate(20, 3, 0.5, 10, seed=1)
    assert ALGORITHMS["valmari"](d)[1].within_scan_bounds()
    # Hopcroft's splitter_touches count reverse-index entries, which
    # the two-partition bound does not cover; its small half is unmeasured.
    with pytest.raises(ValueError, match="^scan bounds need "
                       "small_half_touches, which this run did not measure$"):
        ALGORITHMS["hopcroft"](d)[1].within_scan_bounds()
    with pytest.raises(ValueError, match="^scan bounds need n_core, m_core, "
                       "splitter_touches, small_half_touches, which"):
        ALGORITHMS["oracle"](d)[1].within_scan_bounds()


def _ring(small, copies):
    """``copies`` copies of ``small`` in a ring: state (i, q) goes on
    label a to ((i+1) mod copies, delta(q, a)), so the copies of each
    state merge."""
    s = small.n
    triples = [(i * s + t, a, (i + 1) % copies * s + h)
               for i in range(copies)
               for t, a, h in small.transitions()]
    finals = {i * s + q for i in range(copies) for q in small.finals}
    return PtDfa.from_triples(copies * s, small.alpha, triples,
                              small.initial, finals)


def _refinement_cases():
    yield generate(1, 1, 0.1, 1, seed=0)  # n = 1, m = 0
    rng = random.Random(12)
    for i in range(320):
        n = rng.randrange(1, 25)
        yield generate(n, rng.randrange(1, 5),
                       rng.choice([0.2, 0.5, 0.8, 1.0]),
                       rng.randrange(0, n + 1), seed=12_000 + i)
    for i in range(6):
        yield _ring(generate(6, 2, 0.8, 3, seed=12_500 + i), 3 + i)
    # Shaped like the random_sparse benchmark input: every state has a
    # label set of its own, so the run starts from n one-state blocks,
    # builds no transition set and makes no round.
    for i in range(8):
        yield generate(80, 80, 0.1, 40, seed=12_600 + i)
    # Complete: every state has every label, so the refinement starts
    # from the paper's {F, Q - F} and takes many rounds from there.
    for i in range(8):
        yield generate(40, 2, 1.0, 20, seed=12_700 + i)


def _refinement_result(ref):
    trp = ref.trp
    return (partition_sets(ref.brp), list(ref.brp.sidx), list(ref.unready),
            ref.brp.sets - 1, ref.splitter_touches, ref.small_half_touches,
            ref.brp.split_calls, ref.brp.split_steps,
            partition_sets(trp), trp.sets, trp.split_calls, trp.split_steps)


# The default worklist order, and first in, first out through a hook.
ORDERS = pytest.mark.parametrize("order", [None, fifo_order],
                                 ids=["lifo", "fifo"])


def _after(order, hook):
    """A round hook that calls ``order``, if given, and then ``hook``,
    which sees the worklist in the order that the round pops it."""
    if order is None:
        return hook

    def both(r):
        order(r)
        hook(r)

    return both


def _one_transition_skips(dp, order):
    """Rounds that pop a one-transition set whose tail is alone in its
    block: the rounds whose split in ``Refinement.run`` is trivial."""
    skips = 0

    def hook(r):
        nonlocal skips
        p = r.unready[-1]
        f = r.trp.first[p]
        if r.trp.end[p] - f == 1:
            b = r.brp.set_of(dp.tails[r.trp.elems[f]])
            skips += r.brp.size(b) == 1

    Refinement(dp).run(_after(order, hook))
    return skips


def _largest_of_each_label(ref) -> dict:
    """Label -> the initial transition set of that label with the most
    transitions, the lowest index on a tie, read before ``run``: the
    sets that the start leaves off the worklist."""
    trp = ref.trp
    sets_of_label = {}
    for p in range(trp.sets):
        a = ref.dp.labels[trp.elems[trp.first[p]]]
        sets_of_label.setdefault(a, []).append(p)
    return {a: max(sets, key=lambda p: (trp.end[p] - trp.first[p], -p))
            for a, sets in sets_of_label.items()}


def _label_set_key(dp, q):
    first = dp.out_first
    return q in dp.finals, tuple(dp.labels[first[q]:first[q + 1]])


def test_start_partition_is_finality_and_label_sets_within_languages():
    # Criterion 2's exhaustive tiny sweep, trimmed, and the refinement
    # cases: before the run, the blocks are exactly the classes of
    # (finality, out-label set), so they refine {F, Q - F} and the label
    # sets, and they never split a class of equal languages.  The
    # transition sets are exactly the (label, head block) classes,
    # unmarked, with the transitions out of a state alone in its block
    # retired, and every set is pending, in index order, but the largest
    # of each label.
    checked = 0
    for d in chain(iter_tiny_dfas(), _refinement_cases()):
        dp = restrict(d, relevant_states(d))
        if not dp.finals:
            continue
        ref = Refinement(dp)
        brp, trp = ref.brp, ref.trp
        check_partition(brp)
        assert all(brp.no_marks(b) for b in range(brp.sets))
        blocks_of_key = {}
        keys_of_block = {}
        for q, b in enumerate(brp.sidx):
            key = _label_set_key(dp, q)
            blocks_of_key.setdefault(key, set()).add(b)
            keys_of_block.setdefault(b, set()).add(key)
        assert all(len(v) == 1 for v in blocks_of_key.values())
        assert all(len(v) == 1 for v in keys_of_block.values())
        blocks_of_language = {}
        for q, c in enumerate(language_partition(dp)):
            blocks_of_language.setdefault(c, set()).add(brp.sidx[q])
        assert all(len(v) == 1 for v in blocks_of_language.values())
        if brp.sets == dp.n:
            assert trp.sets == 0 and len(ref.unready) == 0
            checked += 1
            continue
        alone = {q for q in range(dp.n) if brp.size(brp.sidx[q]) == 1}
        pairs = set()
        seen = 0
        for p in range(trp.sets):
            assert trp.mid[p] == trp.first[p]
            members = trp.elems[trp.first[p]:trp.end[p]]
            pair, = {(dp.labels[t], brp.sidx[dp.heads[t]]) for t in members}
            assert pair not in pairs
            pairs.add(pair)
            for t in members:
                assert trp.sidx[t] == (RETIRED if dp.tails[t] in alone else p)
            seen += len(members)
        assert seen == dp.m and sorted(trp.elems[:dp.m]) == list(range(dp.m))
        skipped = set(_largest_of_each_label(ref).values())
        assert list(ref.unready) == [p for p in range(trp.sets)
                                     if p not in skipped]
        checked += 1
    assert checked > 10_000


def test_no_transition_set_is_built_when_every_label_set_differs():
    for i in range(8):
        d = generate(80, 80, 0.1, 40, seed=12_600 + i)
        dp = restrict(d, relevant_states(d))
        # The premise: no two states have the same label set.
        assert len({_label_set_key(dp, q)[1] for q in range(dp.n)}) == dp.n
        ref = Refinement(dp)
        rounds = []
        ref.run(rounds.append)
        assert rounds == []
        assert ref.trp.sets == 0 and ref.brp.sets == dp.n
        assert ref.splitter_touches == ref.small_half_touches == 0
        _, stats = minimize_with_stats(dp)
        assert stats.initial_blocks == dp.n == stats.splits + 1


@ORDERS
def test_refinement_loop_matches_call_per_split_reference(order):
    covered = set()
    for d in _refinement_cases():
        dp = restrict(d, relevant_states(d))
        if not dp.finals:
            continue
        runs = []
        for cls in (Refinement, ReferenceRefinement):
            ref = cls(dp)
            initial_blocks = ref.brp.sets
            initial_sets = ref.trp.sets
            queued = initial_sets - len(_largest_of_each_label(ref))
            rounds = []
            ref.run(_after(order, lambda r: rounds.append(
                (list(r.unready), partition_sets(r.brp), r.brp.sets - 1))))
            runs.append((rounds, _refinement_result(ref)))
        assert runs[0] == runs[1]
        # The reference counts the real splits that it makes itself.
        assert ref.block_splits == ref.brp.sets - initial_blocks
        # Every transition set but the largest initial one of each label
        # is queued exactly once, and popped unless the run stopped at n
        # singleton blocks with sets still pending.
        queued += ref.trp.sets - initial_sets
        if ref.brp.sets == dp.n:
            assert len(rounds) <= queued
            if len(rounds) < queued:
                covered.add("stopped at all singletons")
        else:
            assert len(rounds) == queued
        if RETIRED in ref.trp.sidx:
            covered.add("retired a transition")
        if dp.n == 1 and dp.m == 0:
            covered.add("n=1, m=0")
        if _one_transition_skips(dp, order):
            covered.add("one-transition skips")
        if dp.alpha == 1:
            covered.add("alpha=1")
        if ref.brp.sets < dp.n:
            covered.add("merge")
    assert covered == {"n=1, m=0", "alpha=1", "merge",
                       "one-transition skips", "stopped at all singletons",
                       "retired a transition"}


@ORDERS
def test_refinement_with_shared_in_index_matches_own_index(order):
    for d in _refinement_cases():
        dp = restrict(d, relevant_states(d))
        if not dp.finals:
            continue
        shared = Refinement(dp, in_index=bucket_by(dp.heads, dp.n))
        own = Refinement(dp)
        shared.run(order)
        own.run(order)
        assert _refinement_result(shared) == _refinement_result(own)


def _blocks_as_sets(brp) -> set:
    return {frozenset(brp.elems[brp.first[b]:brp.end[b]])
            for b in range(brp.sets)}


def _blocks_of(block_of) -> set:
    """The blocks of a block-of-each-state list, as a set of sets."""
    members = {}
    for q, b in enumerate(block_of):
        members.setdefault(b, set()).add(q)
    return set(map(frozenset, members.values()))


@ORDERS
def test_largest_set_of_each_label_left_off_gives_the_same_blocks(order):
    # The start that queued every initial set is a second refinement
    # with the sets that the start leaves off appended to its worklist.
    # Both end in the same blocks and give the same output, on the
    # refinement cases and on criterion 2's tiny sweep, trimmed.  The
    # touches fall in total, not in every run.
    touches = {"left off": 0, "queued": 0}
    alone_labels = 0
    for d in chain(_refinement_cases(), iter_tiny_dfas()):
        dp = restrict(d, relevant_states(d))
        if not dp.finals:
            continue
        ref = Refinement(dp)
        trp = ref.trp
        if not trp.sets:
            continue  # no set was built, so none is left off
        old = Refinement(dp)
        largest = _largest_of_each_label(ref)
        skipped = set(range(trp.sets)) - set(ref.unready)
        assert skipped == set(largest.values())
        # A label whose transitions all enter one block queues nothing.
        for a, p in largest.items():
            if trp.end[p] - trp.first[p] == dp.labels.count(a):
                assert all(dp.labels[trp.elems[trp.first[q]]] != a
                           for q in ref.unready)
                alone_labels += 1
        old.unready.extend(sorted(skipped))
        ref.run(order)
        old.run(order)
        assert _blocks_as_sets(ref.brp) == _blocks_as_sets(old.brp)
        assert (canonicalize(dp, list(ref.brp.sidx))
                == canonicalize(dp, list(old.brp.sidx)))
        touches["left off"] += ref.splitter_touches
        touches["queued"] += old.splitter_touches
    assert alone_labels > 5000
    assert touches["left off"] < touches["queued"]


@ORDERS
def test_each_round_pops_the_end_of_the_worklist_its_order_names(order):
    # The hook sees the pending sets before each round's pop, and a
    # round pops the end of the worklist as the order left it and
    # appends the sets it creates, so the next round's list starts with
    # this one's less the popped set: the last by default, the first
    # under fifo_order.
    rounds_with_choice = 0
    for d in _refinement_cases():
        dp = restrict(d, relevant_states(d))
        if not dp.finals:
            continue
        seen = []

        def hook(r):
            before = list(r.unready)
            if order is not None:
                order(r)
            seen.append((before, r.unready[-1]))

        Refinement(dp).run(hook)
        for (before, popped), (after, _) in zip(seen, seen[1:]):
            if order is None:
                rest = before[:-1]
                assert popped == before[-1]
            else:
                rest = before[1:]
                assert popped == before[0]
            # A popped set leaves the worklist for good: a set that
            # splits later queues only its fresh part.
            assert after[:len(rest)] == rest and popped not in after
            rounds_with_choice += len(before) > 1
    assert rounds_with_choice > 1000


# -- signature rounds ---------------------------------------------------------

def _worklist_counters(dp):
    """(splits, splitter_touches, small_half_touches) of the worklist
    alone, run from the label-set start of ``dp``."""
    ref = Refinement(dp)
    ref.run()
    return ref.brp.sets - 1, ref.splitter_touches, ref.small_half_touches


def test_signature_rounds_settle_an_unrolled_ring(monkeypatch):
    # merge_heavy's shape, small: 12 copies of a 40-state DFA in a ring,
    # 480 states, whose label-set start has 39 of its 40 final blocks.
    # One round splits, the next splits nothing and ends the refinement:
    # no in-index, transition set or worklist is built.
    d = benchmark_workloads().unroll(generate(40, 10, 0.71, 20, seed=5), 12)
    calls = _count_traced_layer_calls(monkeypatch)
    popped = []
    dp, blocks, stats = final_blocks(d, loop_hook=popped.append)
    assert popped == [] and calls == {**dict.fromkeys(TRACED_LAYERS, 0),
                                      "relevant_states": 1, "restrict": 1,
                                      "canonicalize": 1}
    assert (stats.initial_blocks, stats.signature_rounds, stats.splits) == (
        39, 2, 39)
    assert stats.splitter_touches == stats.small_half_touches == 0
    assert stats.within_scan_bounds(), stats
    assert minimize(d) == oracle_minimize(d)
    ref = Refinement(dp)
    ref.run()
    assert _blocks_as_sets(ref.brp) == _blocks_of(blocks)


def test_signature_rounds_give_way_to_the_worklist_on_a_word_trie():
    # A word trie, relabeled onto its 26 letters: its first round passes
    # k/4 splits within the first counts of its 1,150 states, and is
    # abandoned; the worklist then runs from the label-set start and
    # does exactly its own work.
    bench = benchmark_workloads()
    d, _ = bench.compact(bench.prefix_tree(bench.lexicon_words(29, stems=100)))
    assert d.n > 4 * minimizer._STATES_PER_COUNT
    out, stats = minimize_with_stats(d)
    assert stats.signature_rounds == 1
    assert (stats.splits, stats.splitter_touches,
            stats.small_half_touches) == _worklist_counters(d)
    assert stats.splitter_touches > 0
    assert out == oracle_minimize(d)


@pytest.mark.parametrize("n", [20, 4 * minimizer._STATES_PER_COUNT + 50])
def test_signature_rounds_stop_at_their_cap_on_a_one_letter_chain(n):
    # A one-letter chain into its one final state: each round splits
    # off one state, so the rounds would need n of them.  The states
    # that split lie in the last count of a round, so no round is
    # abandoned, and after _ROUNDS the worklist runs from the label-set
    # start.
    d = PtDfa.from_triples(n, 1, [(q, 0, q + 1) for q in range(n - 1)], 0,
                           {n - 1})
    out, stats = minimize_with_stats(d)
    assert stats.signature_rounds == _ROUNDS
    assert (stats.splits, stats.splitter_touches,
            stats.small_half_touches) == _worklist_counters(d)
    assert stats.splits == n - 1 and stats.splitter_touches > 0
    assert stats.within_scan_bounds(), stats
    assert out == oracle_minimize(d)


def test_settled_rounds_end_in_the_worklists_blocks():
    # Over criterion 2's tiny sweep, trimmed, and the refinement cases,
    # every partition that the signature rounds settle equals the one
    # that Refinement reaches, as a set of sets.
    settled = fell_back = 0
    for d in chain(iter_tiny_dfas(), _refinement_cases()):
        dp = restrict(d, relevant_states(d))
        if not dp.finals:
            continue
        start = Refinement(dp)
        stats = MinimizeStats()
        got = minimizer._signature_rounds(dp, start.brp.sidx,
                                          start.brp.sets, stats)
        assert 0 <= stats.signature_rounds <= _ROUNDS
        start.run()
        if got is None:
            fell_back += 1
            continue
        blocks, k = got
        assert k == start.brp.sets
        assert _blocks_of(blocks) == _blocks_as_sets(start.brp)
        settled += 1
    assert settled > 10_000 and fell_back > 10


def test_pipeline_quotients_its_own_blocks_without_the_public_checks():
    # The refiners number their blocks densely themselves, so the
    # pipeline calls the quotient core; the public canonicalize types
    # and range-checks the blocks, then calls the same core.
    assert minimizer.canonicalize is automaton._canonical
    ring = _ring(generate(6, 2, 0.8, 3, seed=12_501), 4)
    for d in (ring, with_final_chain(ring)):
        dp, blocks, _ = final_blocks(d)
        assert max(blocks) + 1 < dp.n
        assert canonicalize(dp, blocks) == automaton._canonical(dp, blocks)
        assert minimize(d) == canonicalize(dp, blocks)


# -- minimize -----------------------------------------------------------------

def test_two_state_cycle_all_final_collapses():
    d = PtDfa.from_triples(2, 1, [(0, 0, 1), (1, 0, 0)], 0, {0, 1})
    out = minimize(d)
    assert out.n == 1
    assert out.transitions() == [(0, 0, 0)]
    assert out.finals == {0}


def test_empty_language_inputs_give_empty_dfa():
    for d in (PtDfa.from_triples(3, 2, [(0, 0, 1)], 0, set()),
              PtDfa.from_triples(1, 4, [], 0, set())):
        assert minimize(d) == empty_dfa(d.alpha)


def test_missing_transitions_distinguish_states():
    # L(2) = L(3) = {empty}, but state 1 also accepts via its c edge, so
    # 2 and 3 merge while 1 stays separate.
    d = PtDfa.from_triples(4, 3, [(0, 0, 1), (0, 1, 2), (1, 2, 3)], 0,
                           {1, 2, 3})
    out = minimize(d)
    assert (out.n, out.m) == (3, 3)
    assert out.transitions() == [(0, 0, 1), (0, 1, 2), (1, 2, 2)]
    assert out.finals == {1, 2}
    assert out == oracle_minimize(d)


def test_single_final_state_no_transitions():
    d = PtDfa.from_triples(1, 2, [], 0, {0})
    out = minimize(d)
    assert out.n == 1 and out.m == 0 and out.finals == {0}


def test_no_transitions_with_final_initial():
    d = PtDfa.from_triples(3, 1, [], 0, {0})
    out, stats = minimize_with_stats(d)
    assert out.n == 1 and out.finals == {0}
    assert stats.splitter_touches == 0 and stats.small_half_touches == 0


def test_minimize_is_idempotent():
    for d in _random_cases(150, seed_base=5000):
        once = minimize(d)
        assert minimize(once) == once


def test_minimize_agrees_with_oracle():
    for d in _random_cases(300, seed_base=6000):
        assert minimize(d) == oracle_minimize(d)


def test_minimize_output_sizes_are_minimal():
    for d in _random_cases(100, seed_base=6500):
        out = minimize(d)
        ref = oracle_minimize(d)
        assert (out.n, out.m) == (ref.n, ref.m)


def test_minimize_preserves_acceptance_short_words():
    rng = random.Random(9)
    for i in range(25):
        n = rng.randrange(1, 6)
        alpha = rng.randrange(1, 3)
        d = generate(n, alpha, rng.choice([0.3, 0.6, 1.0]),
                     rng.randrange(0, n + 1), seed=7000 + i)
        out = minimize(d)
        for w in all_words(alpha, 2 * n):
            assert accepts(d, w) == accepts(out, w)


def test_lifo_and_fifo_worklists_agree():
    # The final chain leaves every input to the worklist, past the
    # signature rounds.
    for d in map(with_final_chain, _random_cases(150, seed_base=8000)):
        pops = []

        def fifo(ref):
            pops.append(len(ref.unready))
            fifo_order(ref)

        assert serialize(minimize(d)) == \
            serialize(minimize_with_stats(d, loop_hook=fifo)[0])
        assert pops


def test_counter_bounds_on_random_instances():
    for d in _random_cases(200, seed_base=9000):
        _, stats = minimize_with_stats(d)
        assert stats.within_scan_bounds(), stats


def test_stats_reports_sizes():
    d = generate(6, 3, 0.5, 3, seed=123)
    out, stats = minimize_with_stats(d)
    assert (stats.n_in, stats.m_in, stats.alpha) == (6, 9, 3)
    assert (stats.n_out, stats.m_out) == (out.n, out.m)
    assert stats.seconds >= 0.0


def test_stats_time_each_pipeline_phase():
    empty = PtDfa.from_triples(3, 2, [(0, 0, 1)], 0, set())
    keys = [f.name for f in fields(MinimizeStats) if f.name != "phases"]
    for d in (generate(60, 3, 0.5, 30, seed=124), empty):
        # The empty language runs no refinement, so no initial blocks and
        # no signature rounds.
        unrefined = (["initial_blocks", "signature_rounds"] if d is empty
                     else [])
        for run, phases, unmeasured in (
                (minimize_with_stats, ["preprocess", "refine",
                                       "canonicalize"], unrefined),
                (hopcroft_minimize, ["preprocess", "complete", "refine",
                                     "canonicalize"],
                 ["initial_blocks", "signature_rounds",
                  "small_half_touches"])):
            _, stats = run(d)
            assert list(stats.phases) == phases
            assert min(stats.phases.values()) >= 0.0
            assert sum(stats.phases.values()) <= stats.seconds
            lines = stats.as_lines()
            assert lines[-len(phases):] == [
                f"phase.{name}={sec:.6f}"
                for name, sec in stats.phases.items()]
            assert [line.split("=")[0] for line in lines] == [
                name for name in keys if name not in unmeasured
            ] + [f"phase.{name}" for name in phases]
            assert all(getattr(stats, name) is None for name in unmeasured)


def test_stats_lines_leave_out_unmeasured_counters():
    stats = MinimizeStats(n_in=3, alpha=1, n_out=1, m_out=None, splits=None,
                          small_half_touches=None, seconds=0.5)
    assert stats.as_lines() == [
        "n_in=3", "m_in=0", "alpha=1", "n_out=1", "n_core=0", "m_core=0",
        "splitter_touches=0", "seconds=0.500000"]


def test_final_blocks_satisfy_both_partition_conditions():
    rng = random.Random(10)
    for i in range(120):
        n = rng.randrange(1, 11)
        d = generate(n, rng.randrange(1, 4), rng.choice([0.2, 0.5, 0.9]),
                     rng.randrange(0, n + 1), seed=10_000 + i)
        dp, blocks, _ = final_blocks(d)
        if blocks is None:
            assert minimize(d) == empty_dfa(d.alpha)
            continue
        assert final_partition_violations(dp, blocks, language_partition(dp)) == 0


def _worklist_run(d, hook):
    """``Refinement.run(hook)`` on ``d`` preprocessed, as the pipeline
    runs it when the signature rounds do not settle; nothing when the
    language is empty."""
    dp = restrict(d, relevant_states(d))
    if dp.finals:
        Refinement(dp).run(hook)


def test_worklist_invariant_holds_at_every_round():
    # From the first round on, where each label's largest initial set is
    # not queued, on random inputs and on criterion 2's tiny sweep, which
    # the signature rounds settle, so Refinement runs them itself.  The
    # random inputs with a final chain reach the worklist through the
    # pipeline.
    rng = random.Random(11)
    cases = [generate(n := rng.randrange(2, 7), rng.randrange(1, 3),
                      rng.choice([0.4, 0.8]), rng.randrange(0, n + 1),
                      seed=11_000 + i) for i in range(60)]
    rounds = first_rounds_skipping = 0
    for order in (None, fifo_order):
        runs = chain(((False, d) for d in chain(cases, iter_tiny_dfas())),
                     ((True, with_final_chain(d)) for d in cases))
        for through_pipeline, d in runs:
            checked = []

            def hook(ref):
                if not checked and len(ref.unready) < ref.trp.sets:
                    nonlocal first_rounds_skipping
                    first_rounds_skipping += 1
                checked.append(worklist_invariant_ok(ref))

            if through_pipeline:
                final_blocks(d, loop_hook=_after(order, hook))
                assert checked
            else:
                _worklist_run(d, _after(order, hook))
            assert all(checked)
            rounds += len(checked)
    assert rounds > 9000 and first_rounds_skipping > 8000


def test_worklist_invariant_reads_pairs_past_a_retired_first_member():
    # Every state is final; states 0 and 3 have the label set {0}, and
    # states 1 and 2 the set {0, 1}, so the refinement starts from the
    # blocks {0, 3} and {1, 2}.  Only [1 -0-> 2, 0 -0-> 1], into {1, 2},
    # and {2 -1-> 2} are queued: the other set of each label ties with
    # it and has the lower index.  The first LIFO round pops {2 -1-> 2}
    # and splits {1, 2} into two one-state blocks, which retires the
    # transitions out of 1 and 2.  In the second round, the pending set
    # starts with 1 -0-> 2, whose head 2 has just split off from state
    # 1, the head of the live member 0 -0-> 1.  The set's pair comes
    # from a live member, not from the first one.
    # The signature rounds settle this input, so Refinement runs it
    # itself; every state is relevant.
    d = PtDfa.from_triples(4, 2, [(0, 0, 1), (1, 0, 2), (1, 1, 3), (2, 0, 0),
                                  (2, 1, 2), (3, 0, 0)], 0, {0, 1, 2, 3})
    assert restrict(d, relevant_states(d)) is d
    rounds = []

    def hook(ref):
        trp = ref.trp
        first_pairs = set()
        for p in ref.unready:
            t = trp.elems[trp.first[p]]
            if trp.sidx[t] == RETIRED:
                first_pairs.add((ref.brp.set_of(d.heads[t]), d.labels[t]))
        rounds.append((first_pairs - ref.unready_pairs(),
                       worklist_invariant_ok(ref)))

    Refinement(d).run(hook)
    assert [ok for _, ok in rounds] == [True, True]
    assert [wrong for wrong, _ in rounds] == [set(), {(2, 0)}]


def test_random_worklist_orders_end_where_the_default_order_does():
    # The refinement may pop its pending sets in any order.  Shuffled
    # before every round, by three seeds each, small random inputs and
    # merge_heavy's seed-7 input 0 give the default run's output bytes
    # and splits, within the scan bounds; on the small inputs the
    # worklist invariant holds at every round.  Each input has a final
    # chain, so that the signature rounds leave it to the worklist.
    rng = random.Random(14)
    cases = [generate(n := rng.randrange(8, 21), rng.randrange(1, 4),
                      rng.choice([0.8, 1.0]), rng.randrange(0, n + 1),
                      seed=14_000 + i) for i in range(30)]
    heavy = parse(benchmark_workloads().make_pool("merge_heavy", 7)[0].text)
    cases, heavy = list(map(with_final_chain, cases)), with_final_chain(heavy)
    checked_rounds = 0
    touches = set()
    for i, d in enumerate(cases + [heavy]):
        out, stats = minimize_with_stats(d)
        for k in range(3):
            shuffle = shuffled_order(100 * i + k)
            checked = []
            shuffles = []

            def hook(ref):
                shuffle(ref)
                shuffles.append(len(ref.unready))
                if d is not heavy:
                    checked.append(worklist_invariant_ok(ref))

            got, got_stats = minimize_with_stats(d, loop_hook=hook)
            assert serialize(got) == serialize(out)
            assert got_stats.splits == stats.splits
            assert got_stats.within_scan_bounds(), got_stats
            assert shuffles and all(checked)
            checked_rounds += len(checked)
            if d is heavy:
                touches.add(got_stats.small_half_touches)
    assert checked_rounds > 300
    # The shuffles are not the default order: they rescan other halves.
    assert len(touches | {stats.small_half_touches}) > 1


def test_minimize_allocates_nothing_per_label():
    d = PtDfa.from_triples(2, 10**7, [(0, 10**7 - 1, 1)], 0, {1})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = minimize(d)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out == d
    assert peak < 2**20


ALPHA_MAX = 2**31 - 1


def _labels_from_257(d, alpha, step):
    """``d`` over the alphabet 0..alpha-1, its used labels mapped in
    order onto 257, 257 + step, 257 + 2 * step, ...: above the small
    ints that CPython caches, so neither alphabet gets shared label
    objects that the other lacks.  The map keeps the label order, and
    with it the (tail, label) order of the transitions and the
    canonical order of the output."""
    new = {a: 257 + i * step for i, a in enumerate(sorted(set(d.labels)))}
    return PtDfa(d.n, alpha, d.tails, array("i", map(new.__getitem__,
                                                      d.labels)),
                 d.heads, d.initial, d.finals)


def _alphabet_pairs():
    """A random sparse automaton, a small word trie and a small unrolled
    ring, each with its used labels back to back over alpha = 257 +
    (their number), and spread out over alpha = ALPHA_MAX."""
    bench = benchmark_workloads()
    for d in (generate(300, 300, 0.1, 150, seed=16),
              bench.prefix_tree(bench.lexicon_words(16, stems=60)),
              bench.unroll(generate(12, 4, 0.7, 6, seed=16), 30)):
        used = len(set(d.labels))
        yield (_labels_from_257(d, 257 + used, 1),
               _labels_from_257(d, ALPHA_MAX, (ALPHA_MAX - 258) // used))


def _line_events(d) -> Counter:
    """The Python line events of ``minimize_with_stats(d)``, per code
    object."""
    events = Counter()

    def call(frame, event, arg):
        code = frame.f_code

        def line(frame, event, arg):
            if event == "line":
                events[code] += 1
            return line

        return line

    outer = sys.gettrace()
    sys.settrace(call)
    try:
        minimize_with_stats(d)
    finally:
        sys.settrace(outer)
    return events


def _traced_peak(d) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        minimize_with_stats(d)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def alphabet_peaks(side: int) -> list:
    """The traced peak of ``minimize_with_stats`` on each input of
    ``_alphabet_pairs``, over the narrow (0) or the wide (1) alphabet,
    after one untraced run.  Each side runs in a process of its own:
    within one process the peak of the same run drifts by some bytes
    over its first few dozen calls, with the allocator's state."""
    peaks = []
    for pair in _alphabet_pairs():
        minimize_with_stats(pair[side])
        peaks.append(_traced_peak(pair[side]))
    return peaks


def test_minimize_does_the_same_work_at_any_alphabet_size():
    # The paper's claim: time does not depend on alpha.  Over the narrow
    # and the wide alphabet, minimize_with_stats gives the same output
    # up to the label map, the same counters, the same line events in
    # every function and the same traced peak.  The completed-table
    # baseline is the contrast: its reverse index grows by 8 bytes per
    # (state or sink, label) cell as alpha doubles.
    same = [f.name for f in fields(MinimizeStats)
            if f.name not in ("alpha", "seconds", "phases")]
    for narrow, wide in _alphabet_pairs():
        out_n, stats_n = minimize_with_stats(narrow)
        out_w, stats_w = minimize_with_stats(wide)
        step = (ALPHA_MAX - 258) // (narrow.alpha - 257)
        assert _labels_from_257(out_n, ALPHA_MAX, step) == out_w
        assert (stats_n.alpha, stats_w.alpha) == (narrow.alpha, ALPHA_MAX)
        assert ([getattr(stats_n, f) for f in same]
                == [getattr(stats_w, f) for f in same])
        assert _line_events(narrow) == _line_events(wide)
        # The two int32 arrays that sink_complete keeps (see
        # test_sink_complete_retains_only_the_reverse_index).
        index_bytes = [sum(map(sys.getsizeof, (c.inv_elems, c.inv_offsets)))
                       for c in (sink_complete(replace(narrow, alpha=alpha))
                                 for alpha in (narrow.alpha,
                                               2 * narrow.alpha))]
        assert (index_bytes[1] - index_bytes[0]
                == 8 * (narrow.n + 1) * narrow.alpha)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]))
    peaks = [subprocess.run(
        [sys.executable, "-c", "from test_minimizer import alphabet_peaks; "
         f"print(alphabet_peaks({side}))"],
        env=env, capture_output=True, text=True, check=True,
        timeout=120).stdout for side in (0, 1)]
    assert peaks[0] == peaks[1]


# The ``ptdfa.minimizer`` names that the benchmark's layer trace wraps
# (perfbench/spans.py); a layer that is renamed or fused away must not
# drop out of the trace unnoticed.
TRACED_LAYERS = ("relevant_states", "restrict", "bucket_by",
                 "init_trp_grouping", "canonicalize", "Refinement.__init__",
                 "Refinement.run")


def _count_traced_layer_calls(monkeypatch) -> dict:
    """Wrap each name of ``TRACED_LAYERS`` to count its calls."""
    calls = dict.fromkeys(TRACED_LAYERS, 0)
    for path in TRACED_LAYERS:
        *outer, name = path.split(".")
        owner = minimizer
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, name)

        def wrapper(*args, _original=original, _path=path, **kwargs):
            calls[_path] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


# Its three states have distinct (finality, out-label set) keys, so the
# refinement starts from three one-state blocks.
_DISTINCT_LABEL_SETS = PtDfa.from_triples(
    3, 2, [(0, 0, 1), (1, 0, 2), (2, 0, 0), (0, 1, 2)], 0, {2})


@pytest.mark.parametrize("keeps_all", [True, False])
def test_traced_layers_resolve_and_pipeline_calls_them(monkeypatch,
                                                       keeps_all):
    calls = _count_traced_layer_calls(monkeypatch)
    # Two copies of the automaton in a ring, so that two states share
    # each key, and a final chain, so that the signature rounds leave
    # the run to the worklist, which builds transition sets and makes
    # rounds.
    d = _ring(_DISTINCT_LABEL_SETS, 2)
    if not keeps_all:
        # State 6 reaches no final state.
        d = PtDfa.from_triples(7, 2, d.transitions() + [(1, 1, 6)], 0,
                               d.finals)
    d = with_final_chain(d)
    out, stats = minimize_with_stats(d)
    assert out == oracle_minimize(d)
    assert stats.signature_rounds == 3 and stats.splitter_touches > 0
    # Every state of the ring and of the chain is final or has a final
    # successor, so dead-state removal groups no in-index, and the
    # refiner groups its own.  State 6 fails that test: the in-index of d
    # is grouped for the backward search, and the refiner groups one over
    # the restricted automaton.
    assert calls == {**dict.fromkeys(TRACED_LAYERS, 1),
                     "bucket_by": 1 if keeps_all else 2}


def test_traced_layers_without_transition_sets(monkeypatch):
    # When every initial block is a single state, the partition is final
    # at the start: no signature round is made and no Refinement is
    # built, so no transition is grouped; each non-final state has a
    # final successor, so no in-index is grouped at all.
    calls = _count_traced_layer_calls(monkeypatch)
    d = _DISTINCT_LABEL_SETS
    _, stats = minimize_with_stats(d)
    assert stats.initial_blocks == d.n
    assert stats.signature_rounds == stats.splitter_touches == 0
    assert calls == {**dict.fromkeys(TRACED_LAYERS, 0),
                     "relevant_states": 1, "restrict": 1, "canonicalize": 1}


@pytest.mark.parametrize("case, sorts", [
    ("keeps_all", 1), ("drops_one", 2), ("shuffled", 1),
    ("drops_unreachable", 1)])
def test_parsed_input_is_counting_sorted_once(monkeypatch, case, sorts):
    # State 4 reaches no final state when the transition 1 -1-> 4 is
    # kept, and no state reaches it when 4 -0-> 0 is.  The other states
    # share their one label in pairs of equal finality, and a final chain
    # on label 2 leaves the run past the signature rounds to the
    # worklist, so the refiner needs an in-index.
    lines = ["0 0 1", "1 0 2", "2 0 3", "3 0 0"]
    if case == "drops_one":
        lines.insert(2, "1 1 4")
    if case == "drops_unreachable":
        lines.append("4 0 0")
    n = 5 if case.startswith("drops") else 4
    chain_states = range(n, n + 7)
    lines += [f"{q} 2 {q + 1}" for q in chain_states[:-1]]
    lines.insert(1, f"0 2 {n}")
    if case == "shuffled":
        lines.reverse()
    finals = ["1", "3", *map(str, chain_states)]
    text = "\n".join([f"dfa {n + 7} 3 {len(lines)} {len(finals)} 0"] + lines
                     + finals + [""])
    expected = serialize(oracle_minimize(parse(text)))
    d = parse(text)
    calls = {"bucket_by": 0, "order checks": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    sort = counted("bucket_by", bucket_by)
    for module in (automaton, preprocess, minimizer):
        monkeypatch.setattr(module, "bucket_by", sort)
    monkeypatch.setattr(automaton, "_in_key_order",
                        counted("order checks", automaton._in_key_order))
    out, stats = minimize_with_stats(d)
    assert serialize(out) == expected
    assert stats.signature_rounds == 3 and stats.splitter_touches > 0
    # The refiner's in-index by head.  Dead-state removal groups one
    # only for the dead state 4, whose backward search reads it, and so
    # a second one is grouped over the restricted automaton; an
    # unreachable state is dropped by the forward search alone.  parse
    # already sorted the shuffled input, so nothing sorts by tail.
    assert calls == {"bucket_by": sorts, "order checks": 0}


@pytest.mark.parametrize("run", [minimize_with_stats, hopcroft_minimize])
def test_random_sparse_input_groups_no_in_index(monkeypatch, run):
    # The shape of the random_sparse workload: every non-final state has
    # a final successor, and every state its own label set, so neither
    # dead-state removal nor the refiner reads an in-index.
    d = generate(300, 300, 0.1, 150, seed=5)
    calls = []

    def counted(*args):
        calls.append(args)
        return bucket_by(*args)

    for module in (automaton, preprocess, minimizer):
        monkeypatch.setattr(module, "bucket_by", counted)
    out, stats = run(d)
    assert stats.n_core == d.n
    assert out == oracle_minimize(d)
    assert calls == []


def test_isomorphism_wrapper_on_minimized_results():
    d = generate(7, 2, 0.7, 3, seed=321)
    assert is_isomorphic(minimize(d), oracle_minimize(d))
