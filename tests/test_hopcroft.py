import random
import tracemalloc

from ptdfa import (
    PtDfa, empty_dfa, generate, hopcroft_minimize, minimize, oracle_minimize,
    relevant_states, restrict, sink_complete,
)
from ptdfa.hopcroft import _refine_total

from helpers import reference_refine_total, reference_sink_complete


def test_sink_complete_table_shape():
    d = PtDfa.from_triples(2, 2, [(0, 0, 1)], 0, {1})
    c = sink_complete(d)
    assert c.n == 3
    assert c.table[0] == [1, 2]
    assert c.table[1] == [2, 2]
    assert c.table[2] == [2, 2]


def test_sink_complete_reverse_index_matches_table():
    rng = random.Random(61)
    for i in range(40):
        n = rng.randrange(1, 7)
        d = generate(n, rng.randrange(1, 4), rng.choice([0.3, 0.7, 1.0]),
                     rng.randrange(0, n + 1), seed=5000 + i)
        c = sink_complete(d)
        for s in range(c.n):
            for a in range(c.alpha):
                k = s * c.alpha + a
                preds = sorted(c.inv_elems[c.inv_offsets[k]:c.inv_offsets[k + 1]])
                assert preds == sorted(q for q in range(c.n)
                                       if c.table[q][a] == s)


def _differential_cases():
    """Random automata of every density, the total one included, plus
    the edge cases: no transitions, and a one-letter alphabet."""
    rng = random.Random(63)
    for i in range(520):
        n = rng.randrange(1, 10)
        alpha = 1 if i % 5 == 0 else rng.randrange(1, 6)
        p = rng.choice([0.1, 0.3, 0.5, 0.8, 1.0])
        yield generate(n, alpha, p, rng.randrange(0, n + 1), seed=7000 + i)
    for n in (1, 2, 5):
        for alpha in (1, 3):
            yield PtDfa.from_triples(n, alpha, [], 0, {0})
            yield PtDfa.from_triples(n, alpha, [], 0, {n - 1})


def test_sink_complete_and_refinement_match_cell_by_cell_references():
    seen = {"m0": 0, "alpha1": 0, "total": 0, "restricted": 0,
            "all singletons": 0}
    for d in _differential_cases():
        dp = restrict(d, relevant_states(d))
        seen["m0"] += d.m == 0
        seen["alpha1"] += d.alpha == 1
        seen["total"] += d.m == d.n * d.alpha
        seen["restricted"] += dp is not d
        for e in (d, dp):
            c = sink_complete(e)
            assert c == reference_sink_complete(e)
            refined = _refine_total(c)
            assert refined == reference_refine_total(c)
            seen["all singletons"] += len(refined[0]) == c.n
    assert min(seen.values()) > 0, seen


def test_refinement_peak_stays_below_the_completed_table():
    # About 300 splits over a 300-letter alphabet, each queueing 300
    # pending pairs.  Held as one byte each, plus one chunk per split,
    # they stay far below the table that the refinement scans; two int32
    # stacks would take about half the table, and a list of (block,
    # symbol) tuples about 3.5 times it.
    d = generate(300, 300, 0.1, 150, seed=3)
    dp = restrict(d, relevant_states(d))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        c = sink_complete(dp)
        table_bytes = tracemalloc.get_traced_memory()[0] - before
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, _, splits, _ = _refine_total(c)
        refine_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert splits > 250
    assert refine_peak < table_bytes / 4, (refine_peak, table_bytes)


def test_agrees_with_minimize_on_random_instances():
    rng = random.Random(62)
    for i in range(200):
        n = rng.randrange(1, 9)
        d = generate(n, rng.randrange(1, 5),
                     rng.choice([0.1, 0.3, 0.5, 0.8, 1.0]),
                     rng.randrange(0, n + 1), seed=6000 + i)
        out, stats = hopcroft_minimize(d)
        assert out == minimize(d)
        assert (stats.n_out, stats.m_out) == (out.n, out.m)


def test_empty_language_gives_empty_dfa():
    d = PtDfa.from_triples(3, 2, [(0, 0, 1)], 0, set())
    out, _ = hopcroft_minimize(d)
    assert out == empty_dfa(2)


def test_total_input_keeps_sink_unreachable():
    d = generate(6, 2, 1.0, 3, seed=77)
    out, _ = hopcroft_minimize(d)
    assert out == oracle_minimize(d)
    # with a total function nothing can reach the sink, so the result
    # has no fewer transitions than states require
    assert out.m == out.n * d.alpha


def test_preprocessing_is_applied_first():
    # state 2 is reachable but dead; it must not influence the result
    d = PtDfa.from_triples(3, 1, [(0, 0, 1), (1, 0, 2)], 0, {1})
    out, stats = hopcroft_minimize(d)
    assert out == minimize(d)
    assert stats.n_core == 2
