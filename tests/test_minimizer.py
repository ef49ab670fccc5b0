import random
import tracemalloc
from dataclasses import fields

import pytest

from ptdfa import (
    MinimizeStats, PtDfa, Refinement, accepts, empty_dfa, final_blocks, generate,
    hopcroft_minimize, is_isomorphic, minimize, minimize_with_stats,
    oracle_minimize, parse, relevant_states, restrict, serialize,
)
from ptdfa import automaton, minimizer, preprocess
from ptdfa.automaton import bucket_by
from ptdfa.oracle import language_partition
from ptdfa.workload import ALGORITHMS

from helpers import (
    RETIRED, ReferenceRefinement, all_words, final_partition_violations,
    partition_sets, worklist_invariant_ok,
)


def _random_cases(count, max_n=8, max_alpha=4, seed_base=0):
    densities = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    for i in range(count):
        n = 1 + i % max_n
        alpha = 1 + i % max_alpha
        yield generate(n, alpha, densities[i % 10], i % (n + 1),
                       seed=seed_base + i)


# -- split_block behaviour ----------------------------------------------------

def test_split_block_without_marks_changes_nothing():
    d = PtDfa.from_triples(4, 1, [(0, 0, 2), (1, 0, 3)], 0, {2, 3})
    ref = Refinement(restrict(d, relevant_states(d)))
    before = (partition_sets(ref.brp), partition_sets(ref.trp),
              sorted(ref.unready))
    ref.split_block(0)
    assert (partition_sets(ref.brp), partition_sets(ref.trp),
            sorted(ref.unready)) == before


def test_split_block_equal_halves_scans_marked_half():
    # Marking {2, 3} splits the four states into equal halves; the
    # marked (new) half must be the one scanned, so the transitions
    # into 2 and 3 are carved out of their label sets while the ones
    # into 0 and 1 stay put.
    d = PtDfa.from_triples(4, 2, [(0, 0, 2), (1, 0, 0), (0, 1, 1), (1, 1, 3)],
                           0, {0, 1, 2, 3})
    dp = restrict(d, relevant_states(d))
    assert dp.n == 4
    ref = Refinement(dp)
    ref.brp.mark(2)
    ref.brp.mark(3)
    pending_before = len(ref.unready)
    sets_before = ref.trp.sets
    ref.split_block(0)
    assert ref.brp.set_of(2) == ref.brp.set_of(3) == 1
    assert ref.brp.set_of(0) == ref.brp.set_of(1) == 0
    # transition 0 (head 2) and transition 3 (head 3) got fresh sets
    assert ref.trp.set_of(0) != ref.trp.set_of(1)
    assert ref.trp.set_of(3) != ref.trp.set_of(2)
    assert ref.trp.set_of(0) >= sets_before
    assert ref.trp.set_of(3) >= sets_before
    assert len(ref.unready) == pending_before + 2


def test_split_block_whole_splitter_keeps_index_and_status():
    # Every a-transition points into the scanned half, so the a-set is
    # marked whole: it keeps its index and stays out of the worklist,
    # while the partially marked b-set spawns a fresh pending set.
    d = PtDfa.from_triples(3, 2, [(0, 0, 2), (0, 1, 1), (1, 1, 2)], 0, {2})
    dp = restrict(d, relevant_states(d))
    assert dp.n == 3
    ref = Refinement(dp)
    del ref.unready[:]
    a_set = ref.trp.set_of(0)
    ref.brp.mark(2)
    ref.split_block(0)
    assert ref.trp.set_of(0) == a_set
    assert ref.trp.no_marks(a_set)
    assert ref.trp.sets == 3
    assert list(ref.unready) == [ref.trp.set_of(2)]


def test_no_round_runs_once_every_block_is_a_single_state():
    # On a minimal input the last split leaves n singleton blocks, and
    # the run ends there: no round starts on the final partition.
    checked = rounds = 0
    for d in _random_cases(60, max_n=12, seed_base=13_000):
        seen = []
        dp, blocks, stats = final_blocks(
            d, loop_hook=lambda r: seen.append(r.brp.sets == r.dp.n))
        if blocks is None or stats.n_out != dp.n:
            continue
        assert not any(seen)
        assert stats.within_scan_bounds(), stats
        checked += 1
        rounds += len(seen)
    assert checked > 30 and rounds > 100


def test_no_set_is_carved_for_a_transition_out_of_a_one_state_block():
    # Splitting the finals {1, 2} off leaves state 0 alone, and the
    # rescan of that smaller half reaches 0 -1-> 0.  Its tail can never
    # split again, so it is retired, not carved out of the label-1 set
    # into a third transition set.
    d = PtDfa.from_triples(3, 2, [(0, 0, 1), (0, 1, 0), (1, 1, 2), (2, 1, 2)],
                           0, {1, 2})
    ref = Refinement(d)
    ref.run()
    assert ref.trp.sets == 2
    assert list(ref.trp.sidx) == [RETIRED, RETIRED, 1, 1]
    assert list(ref.brp.sidx) == [0, 1, 1]
    _, stats = minimize_with_stats(d)
    assert stats.n_out == 2
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
    # Shaped like the random_sparse benchmark input: nearly minimal, so
    # the run stops at n singleton blocks with most sets still pending.
    for i in range(8):
        yield generate(80, 80, 0.1, 40, seed=12_600 + i)


def _refinement_result(ref):
    trp = ref.trp
    return (partition_sets(ref.brp), list(ref.brp.sidx), list(ref.unready),
            ref.brp.sets - 1, ref.splitter_touches, ref.small_half_touches,
            ref.brp.split_calls, ref.brp.split_steps,
            partition_sets(trp), trp.sets, trp.split_calls, trp.split_steps)


def _one_transition_skips(dp, worklist):
    """Rounds that pop a one-transition set whose tail is alone in its
    block: the rounds whose ``split_block`` call in ``Refinement.run``
    gets the trivial split."""
    skips = 0

    def hook(r):
        nonlocal skips
        pending = list(r.unready)
        p = pending[-1] if worklist == "lifo" else pending[0]
        f = r.trp.first[p]
        if r.trp.end[p] - f == 1:
            b = r.brp.set_of(dp.tails[r.trp.elems[f]])
            skips += r.brp.size(b) == 1

    Refinement(dp, worklist=worklist).run(hook)
    return skips


@pytest.mark.parametrize("worklist", ["lifo", "fifo"])
def test_refinement_loop_matches_call_per_split_reference(worklist):
    covered = set()
    for d in _refinement_cases():
        dp = restrict(d, relevant_states(d))
        if not dp.finals:
            continue
        runs = []
        for cls in (Refinement, ReferenceRefinement):
            ref = cls(dp, worklist=worklist)
            rounds = []
            ref.run(lambda r: rounds.append(
                (list(r.unready), partition_sets(r.brp), r.brp.sets - 1)))
            runs.append((rounds, _refinement_result(ref)))
        assert runs[0] == runs[1]
        # The reference counts its real splits itself.
        assert ref.block_splits == ref.brp.sets - 1
        # Every transition set is queued exactly once, and popped unless
        # the run stopped at n singleton blocks with sets still pending.
        if ref.brp.sets == dp.n:
            assert len(rounds) <= ref.trp.sets
            if len(rounds) < ref.trp.sets:
                covered.add("stopped at all singletons")
        else:
            assert len(rounds) == ref.trp.sets
        if RETIRED in ref.trp.sidx:
            covered.add("retired a transition")
        if dp.n == 1 and dp.m == 0:
            covered.add("n=1, m=0")
        if _one_transition_skips(dp, worklist):
            covered.add("one-transition skips")
        if dp.alpha == 1:
            covered.add("alpha=1")
        if ref.brp.sets < dp.n:
            covered.add("merge")
    assert covered == {"n=1, m=0", "alpha=1", "merge",
                       "one-transition skips", "stopped at all singletons",
                       "retired a transition"}


@pytest.mark.parametrize("worklist", ["lifo", "fifo"])
def test_refinement_with_shared_in_index_matches_own_index(worklist):
    for d in _refinement_cases():
        dp = restrict(d, relevant_states(d))
        if not dp.finals:
            continue
        shared = Refinement(dp, worklist=worklist,
                            in_index=bucket_by(dp.heads, dp.n))
        own = Refinement(dp, worklist=worklist)
        shared.run()
        own.run()
        assert _refinement_result(shared) == _refinement_result(own)


@pytest.mark.parametrize("worklist", ["lifo", "fifo"])
def test_each_round_pops_the_end_of_the_worklist_its_order_names(worklist):
    # The hook sees the pending sets before each round's pop, and a
    # round appends the sets it creates, so the next round's list
    # starts with this one's less the popped set: the last under LIFO,
    # the first under FIFO.
    rounds_with_choice = 0
    for d in _refinement_cases():
        dp = restrict(d, relevant_states(d))
        if not dp.finals:
            continue
        seen = []
        Refinement(dp, worklist=worklist).run(
            lambda r: seen.append(list(r.unready)))
        for before, after in zip(seen, seen[1:]):
            rest = before[:-1] if worklist == "lifo" else before[1:]
            assert after[:len(rest)] == rest
            rounds_with_choice += len(before) > 1
    assert rounds_with_choice > 1000


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
    for d in _random_cases(150, seed_base=8000):
        assert serialize(minimize(d, worklist="lifo")) == \
            serialize(minimize(d, worklist="fifo"))


def test_unknown_worklist_rejected():
    with pytest.raises(ValueError):
        minimize(generate(3, 2, 0.5, 1, seed=0), worklist="sorted")


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
        for run, phases, unmeasured in (
                (minimize_with_stats, ["preprocess", "refine",
                                       "canonicalize"], []),
                (hopcroft_minimize, ["preprocess", "complete", "refine",
                                     "canonicalize"],
                 ["small_half_touches"])):
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


def test_worklist_invariant_holds_at_every_round():
    rng = random.Random(11)
    for i in range(60):
        n = rng.randrange(2, 7)
        d = generate(n, rng.randrange(1, 3), rng.choice([0.4, 0.8]),
                     rng.randrange(0, n + 1), seed=11_000 + i)
        checked = []

        def hook(ref):
            checked.append(worklist_invariant_ok(ref))

        final_blocks(d, loop_hook=hook)
        assert all(checked)


def test_worklist_invariant_reads_pairs_past_a_retired_first_member():
    # In the second round, the pending label-1 set starts with the
    # transition 3 -1-> 2, retired since state 3 is alone in its block;
    # state 2 has just split off from state 0, the head of the live
    # member 0 -1-> 0.  The set's pair comes from the live member, and
    # the invariant check fails with the pair of the first one instead.
    d = PtDfa.from_triples(4, 2, [(0, 0, 1), (0, 1, 0), (1, 0, 2), (2, 0, 3),
                                  (2, 1, 0), (3, 1, 2)], 0, {0, 1, 2})
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

    final_blocks(d, loop_hook=hook)
    assert [ok for _, ok in rounds] == [True, True]
    assert [wrong for wrong, _ in rounds] == [set(), {(2, 1)}]


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


# The ``ptdfa.minimizer`` names that the benchmark's layer trace wraps
# (perfbench/spans.py); a layer that is renamed or fused away must not
# drop out of the trace unnoticed.
TRACED_LAYERS = ("relevant_states", "restrict", "bucket_by",
                 "init_trp_grouping", "canonicalize", "Refinement.__init__",
                 "Refinement.run")


@pytest.mark.parametrize("keeps_all", [True, False])
def test_traced_layers_resolve_and_pipeline_calls_them(monkeypatch,
                                                       keeps_all):
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
    triples = [(0, 0, 1), (1, 0, 2), (2, 0, 0), (0, 1, 2)]
    if not keeps_all:
        triples.append((1, 1, 3))  # state 3 reaches no final state
    d = PtDfa.from_triples(4 - keeps_all, 2, triples, 0, {2})
    out = minimize(d)
    assert out == oracle_minimize(d)
    # The in-index of d is built once and shared; the refiner builds its
    # own only when dead-state removal dropped states.
    assert calls == {**dict.fromkeys(TRACED_LAYERS, 1),
                     "bucket_by": 1 if keeps_all else 2}


@pytest.mark.parametrize("case, sorts", [
    ("keeps_all", 1), ("drops_one", 2), ("shuffled", 1)])
def test_parsed_input_is_counting_sorted_once(monkeypatch, case, sorts):
    # State 3 reaches no final state when the transition 1 -1-> 3 is kept.
    lines = ["0 0 1", "0 1 2", "1 0 2", "2 0 0"]
    if case == "drops_one":
        lines.insert(3, "1 1 3")
    if case == "shuffled":
        lines.reverse()
    n = 4 if case == "drops_one" else 3
    text = "\n".join([f"dfa {n} 2 {len(lines)} 1 0"] + lines + ["2", ""])
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
    assert serialize(minimize(d)) == expected
    # The in-index by head, and a second one over the restricted
    # automaton when a state is dropped; parse already sorted the
    # shuffled input, so nothing sorts by tail.
    assert calls == {"bucket_by": sorts, "order checks": 0}


def test_isomorphism_wrapper_on_minimized_results():
    d = generate(7, 2, 0.7, 3, seed=321)
    assert is_isomorphic(minimize(d), oracle_minimize(d))
