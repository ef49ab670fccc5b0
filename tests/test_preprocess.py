import random

import pytest

from ptdfa import (
    AutomatonError, InitialNotRetainedError, PtDfa, accepts, empty_dfa,
    generate, relevant_states, restrict,
)
from ptdfa.automaton import bucket_by
from ptdfa import preprocess
from ptdfa.preprocess import _relevant_mask

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


def _kept(mask):
    return {q for q, keep in enumerate(mask) if keep}


def _counting_bucket():
    """``bucket_by`` and the list of its calls, one entry per call."""
    calls = []

    def bucket(keys, nbins):
        calls.append(nbins)
        return bucket_by(keys, nbins)

    return bucket, calls


def _successors(d):
    succ = {q: set() for q in range(d.n)}
    for t, _, h in d.transitions():
        succ[t].add(h)
    return succ


def _reachable(d):
    succ = _successors(d)
    seen = {d.initial}
    stack = [d.initial]
    while stack:
        for h in succ[stack.pop()] - seen:
            seen.add(h)
            stack.append(h)
    return seen


def _step_holds(d):
    """Whether every reachable state is final or has a final successor,
    by a search over the triples."""
    succ = _successors(d)
    return all(q in d.finals or succ[q] & d.finals for q in _reachable(d))


def _relevant_mask_checked(d):
    """``_relevant_mask(d)``'s kept states, after checking that it builds
    the in-index, and hands it on, exactly when the step fails."""
    bucket, calls = _counting_bucket()
    mask, in_index = _relevant_mask(d, bucket)
    built = bool(d.finals) and not _step_holds(d)
    assert calls == ([d.n] if built else [])
    if built:
        order, first = bucket_by(d.heads, d.n)
        assert list(in_index[0]) == list(order)
        assert list(in_index[1]) == list(first)
    else:
        assert in_index is None
    return _kept(mask)


def test_relevant_matches_brute_force_on_random_inputs():
    rng = random.Random(31)
    for i in range(120):
        n = rng.randrange(1, 8)
        d = generate(n, rng.randrange(1, 4), rng.choice([0.2, 0.5, 0.9]),
                     rng.randrange(0, n + 1), seed=1000 + i)
        assert relevant_states(d) == brute_relevant(d)
        assert _relevant_mask_checked(d) == brute_relevant(d)


def test_relevant_matches_the_state_by_state_keep_set():
    # Sizes around and across byte and word boundaries of the big-int
    # AND that intersects the forward and backward marks.
    rng = random.Random(32)
    for i in range(300):
        n = rng.choice([1, 2, 7, 8, 9, 63, 64, 65, rng.randrange(1, 200)])
        d = generate(n, rng.randrange(1, 4), rng.choice([0.05, 0.2, 0.5]),
                     rng.randrange(0, min(n, 3) + 1), seed=2000 + i)
        assert relevant_states(d) == reference_relevant_states(d)


def test_relevant_builds_no_in_index_where_the_step_holds():
    # Dense automata with many final states: the bottom-up step holds on
    # some, and there the forward marks are the answer.
    rng = random.Random(33)
    held = 0
    for i in range(100):
        n = rng.randrange(8, 60)
        d = generate(n, rng.randrange(3, 6), rng.choice([0.8, 1.0]),
                     rng.randrange(n // 4, n // 2 + 1), seed=5000 + i)
        assert _relevant_mask_checked(d) == reference_relevant_states(d)
        held += _step_holds(d)
    assert held >= 10  # 11 of these 100


def _with_final_successors(d, rng):
    """``d`` with a transition into a final state added on a free label
    at each non-final state that has none; ``d`` needs a final state and
    a free label at every state."""
    triples = d.transitions()
    finals = sorted(d.finals)
    for q in range(d.n):
        mine = [(a, h) for t, a, h in triples if t == q]
        if q not in d.finals and not any(h in d.finals for _, h in mine):
            free = sorted(set(range(d.alpha)) - {a for a, _ in mine})
            triples.append((q, rng.choice(free), rng.choice(finals)))
    return PtDfa.from_triples(d.n, d.alpha, triples, d.initial, d.finals)


def _chain_with_extras(n, alpha, rng):
    """States 0..n-1 on a chain by label 0 into the final state n - 1,
    so every state reaches it, with random transitions on the other
    labels into states that are not final."""
    triples = [(q, 0, q + 1) for q in range(n - 1)]
    for q in range(n):
        for a in range(1, alpha):
            if rng.random() < 0.4:
                triples.append((q, a, rng.randrange(n - 1)))
    return PtDfa.from_triples(n, alpha, triples, 0, {n - 1})


def _with_unreachable(d, extra, rng):
    """``d`` with ``extra`` more states that no state reaches, each with
    a transition into ``d``, and every other one final."""
    n = d.n + extra
    triples = d.transitions() + [(q, 0, rng.randrange(n))
                                 for q in range(d.n, n)]
    finals = set(d.finals) | set(range(d.n, n, 2))
    return PtDfa.from_triples(n, d.alpha, triples, d.initial, finals)


def _nearest_final(d, q):
    """The fewest transitions from q to a final state."""
    level, seen, steps = {q}, {q}, 0
    while not level & d.finals:
        assert level, f"state {q} reaches no final state"
        level = {h for t, _, h in d.transitions() if t in level} - seen
        seen |= level
        steps += 1
    return steps


@pytest.mark.parametrize("case", ["step_holds", "deep", "dead"])
def test_relevant_mask_differential(case):
    # Three classes of random inputs: (1) every reachable state is final
    # or has a final successor, some with unreachable states; (2) the step
    # fails, yet every state reaches a final state, one of them from 2
    # or more transitions away; (3) dead and unreachable states both.
    rng = random.Random(f"relevant-{case}")
    for i in range(60):
        n = rng.randrange(2, 12)
        alpha = rng.randrange(2, 5)
        if case == "step_holds":
            d = generate(n, alpha, rng.choice([0.2, 0.5]),
                         rng.randrange(1, n + 1), seed=7000 + i)
            d = _with_final_successors(
                PtDfa.from_triples(n, alpha + 1, d.transitions(), d.initial,
                                   d.finals), rng)
            if i % 2:
                d = _with_unreachable(d, rng.randrange(1, 4), rng)
            assert _step_holds(d)
        elif case == "deep":
            d = _chain_with_extras(max(n, 3), alpha, rng)
            assert not _step_holds(d)
            assert brute_relevant(d) == set(range(d.n))
            assert max(_nearest_final(d, q) for q in range(d.n)) >= 2
        else:
            while True:
                d = generate(n, alpha, 0.3, rng.randrange(1, 3),
                             seed=rng.randrange(10**6))
                d = _with_unreachable(d, rng.randrange(1, 4), rng)
                reachable = _reachable(d)
                if len(reachable) < d.n and reachable - brute_relevant(d):
                    break
            assert not _step_holds(d)
        assert _relevant_mask_checked(d) == brute_relevant(d)
        assert relevant_states(d) == brute_relevant(d)


def test_public_relevant_states_groups_only_when_the_step_fails(monkeypatch):
    bucket, calls = _counting_bucket()
    monkeypatch.setattr(preprocess, "bucket_by", bucket)
    # States 0 and 1 have the final successor 2; state 3 is unreachable.
    holds = PtDfa.from_triples(4, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 2),
                                      (1, 1, 0), (3, 0, 0)], 0, {2})
    assert relevant_states(holds) == {0, 1, 2}
    assert calls == []
    # State 0 is two transitions from the final state 2.
    fails = PtDfa.from_triples(3, 1, [(0, 0, 1), (1, 0, 2)], 0, {2})
    assert relevant_states(fails) == {0, 1, 2}
    assert calls == [3]


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


def test_restrict_refuses_a_state_that_is_not_an_int():
    d = PtDfa.from_triples(3, 1, [(0, 0, 1), (1, 0, 2)], 0, {2})
    # True would keep state 1, 2.0 fail as an index, "a" fail to compare.
    for bad in (True, 2.0, "a"):
        with pytest.raises(AutomatonError,
                           match=f"kept state {bad!r} is not an int"):
            restrict(d, {0, bad})


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
