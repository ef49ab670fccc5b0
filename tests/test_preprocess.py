import random

import pytest

from ptdfa import (
    AutomatonError, InitialNotRetainedError, PtDfa, accepts, empty_dfa,
    generate, relevant_states, restrict,
)
from ptdfa.automaton import bucket_by

from helpers import all_words, brute_relevant, reference_relevant_states


def test_bucket_by_groups_indices():
    order, first = bucket_by([2, 0, 2, 1, 0], 3)
    groups = {b: sorted(order[first[b]:first[b + 1]]) for b in range(3)}
    assert groups == {0: [1, 4], 1: [3], 2: [0, 2]}


def test_bucket_by_is_csr_and_matches_brute_force_grouping():
    rng = random.Random(32)
    for trial in range(200):
        nbins = rng.randrange(1, 12)
        keys = [rng.randrange(nbins) for _ in range(rng.randrange(0, 40))]
        order, first = bucket_by(keys, nbins)
        assert len(first) == nbins + 1
        assert first[0] == 0 and first[-1] == len(keys) == len(order)
        assert [list(order[first[b]:first[b + 1]]) for b in range(nbins)] \
            == [[i for i, k in enumerate(keys) if k == b]
                for b in range(nbins)]
    # A bin no key falls in is an empty group, at either end too.
    order, first = bucket_by([1, 1], 3)
    assert list(first) == [0, 0, 2, 2]


def test_relevant_all_states_on_live_path():
    d = PtDfa.from_triples(3, 1, [(0, 0, 1), (1, 0, 2)], 0, {2})
    assert relevant_states(d) == {0, 1, 2}


def test_relevant_no_finals_keeps_only_initial():
    d = PtDfa.from_triples(3, 1, [(0, 0, 1), (1, 0, 2)], 0, set())
    assert relevant_states(d) == {0}


def test_relevant_drops_dead_tail_of_chain():
    # 0 -> 1 -> 2 with only state 1 final: state 2 is reachable but dead.
    d = PtDfa.from_triples(3, 1, [(0, 0, 1), (1, 0, 2)], 0, {1})
    assert relevant_states(d) == {0, 1}
    assert relevant_states(d) == brute_relevant(d)


def test_relevant_matches_brute_force_on_random_inputs():
    rng = random.Random(31)
    for i in range(120):
        n = rng.randrange(1, 8)
        d = generate(n, rng.randrange(1, 4), rng.choice([0.2, 0.5, 0.9]),
                     rng.randrange(0, n + 1), seed=1000 + i)
        assert relevant_states(d) == brute_relevant(d)
        assert relevant_states(d, bucket_by(d.heads, d.n)) == \
            brute_relevant(d)


def test_relevant_matches_the_state_by_state_keep_set():
    # Sizes around and across byte and word boundaries of the big-int
    # AND that intersects the forward and backward marks.
    rng = random.Random(32)
    for i in range(300):
        n = rng.choice([1, 2, 7, 8, 9, 63, 64, 65, rng.randrange(1, 200)])
        d = generate(n, rng.randrange(1, 4), rng.choice([0.05, 0.2, 0.5]),
                     rng.randrange(0, min(n, 3) + 1), seed=2000 + i)
        assert relevant_states(d) == reference_relevant_states(d)


class _CountingReads(list):
    """A list that counts the reads of its items."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def _states_of_whole_levels(d, in_index):
    """How many states the backward search walks when it stops only at
    the end of a level: every state of each level it starts while some
    state is unmarked."""
    in_order, in_first = in_index
    marked = set(d.finals)
    level = list(d.finals)
    walked = 0
    while level and len(marked) < d.n:
        walked += len(level)
        reached = []
        for q in level:
            for k in range(in_first[q], in_first[q + 1]):
                t = d.tails[in_order[k]]
                if t not in marked:
                    marked.add(t)
                    reached.append(t)
        level = reached
    return walked


def test_relevant_stops_at_the_state_that_marks_the_last_one():
    # Dense automata with many final states: every state is marked early
    # in a level, and the backward search stops there, not at the end
    # of the level.
    rng = random.Random(33)
    stopped_early = 0
    for i in range(100):
        n = rng.randrange(8, 60)
        d = generate(n, rng.randrange(3, 6), rng.choice([0.8, 1.0]),
                     rng.randrange(n // 4, n // 2 + 1), seed=5000 + i)
        in_order, in_first = bucket_by(d.heads, d.n)
        counted = _CountingReads(in_first)
        assert relevant_states(d, (in_order, counted)) == \
            reference_relevant_states(d)
        whole = _states_of_whole_levels(d, (in_order, in_first))
        walked = counted.reads // 2  # in_first[q] and in_first[q + 1]
        assert walked <= whole
        stopped_early += walked < whole
    assert stopped_early >= 60  # 76 of these 100


def test_restrict_to_all_states_is_identity():
    d = generate(5, 2, 0.6, 2, seed=4)
    assert restrict(d, set(range(d.n))) == d


def test_restrict_chain_example():
    d = PtDfa.from_triples(3, 1, [(0, 0, 1), (1, 0, 2)], 0, {1})
    r = restrict(d, relevant_states(d))
    assert r.n == 2 and r.m == 1 and r.finals == {1}
    assert r.transitions() == [(0, 0, 1)]


def test_restrict_no_finals_keeps_one_bare_state():
    d = PtDfa.from_triples(3, 1, [(0, 0, 1), (1, 0, 2)], 0, set())
    r = restrict(d, relevant_states(d))
    assert r.n == 1 and r.m == 0 and not r.finals


def test_restrict_drops_initial_self_loop_targets_outside_keep():
    d = PtDfa.from_triples(2, 1, [(0, 0, 1)], 0, set())
    r = restrict(d, {0})
    assert r.m == 0


def test_restrict_requires_initial():
    d = PtDfa.from_triples(2, 1, [], 1, set())
    with pytest.raises(InitialNotRetainedError):
        restrict(d, {0})


def test_restrict_refuses_out_of_range_state():
    d = PtDfa.from_triples(3, 1, [(0, 0, 1), (1, 0, 2)], 0, {2})
    # As many kept states as d has, so a size check alone would return d.
    with pytest.raises(AutomatonError, match="kept state 99 out of range"):
        restrict(d, {0, 1, 99})
    with pytest.raises(AutomatonError, match="kept state 99 out of range"):
        restrict(d, {0, 99})
    with pytest.raises(AutomatonError, match="kept state -1 out of range"):
        restrict(d, {-1, 0})


def test_restrict_renumbers_in_ascending_order():
    d = PtDfa.from_triples(4, 1, [(0, 0, 3), (3, 0, 0)], 0, {3})
    r = restrict(d, {0, 3})
    assert r.n == 2
    assert r.transitions() == [(0, 0, 1), (1, 0, 0)]
    assert r.finals == {1}


def test_empty_dfa_shape():
    d = empty_dfa(3)
    assert d.n == 1 and d.m == 0 and not d.finals and d.initial == 0


def test_empty_dfa_accepts_nothing():
    d = empty_dfa(2)
    for w in all_words(2, 3):
        assert not accepts(d, w)


def test_preprocess_preserves_language():
    rng = random.Random(77)
    for i in range(30):
        n = rng.randrange(1, 6)
        alpha = rng.randrange(1, 3)
        d = generate(n, alpha, rng.choice([0.3, 0.7, 1.0]),
                     rng.randrange(0, n + 1), seed=2000 + i)
        r = restrict(d, relevant_states(d))
        for w in all_words(alpha, 2 * n):
            assert accepts(d, w) == accepts(r, w)


def test_preprocessed_states_are_all_relevant():
    rng = random.Random(78)
    for i in range(80):
        n = rng.randrange(1, 9)
        d = generate(n, rng.randrange(1, 4), rng.choice([0.2, 0.6, 1.0]),
                     rng.randrange(0, n + 1), seed=3000 + i)
        r = restrict(d, relevant_states(d))
        assert relevant_states(r) == set(range(r.n))
        if r.finals:
            assert r.n <= r.m + 1
