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
    assert (c.n, c.alpha) == (3, 2)
    # Cell q * alpha + a lists the predecessors of q under a: the sink,
    # state 2, receives 1 and itself on label 0, and all three on label 1.
    preds = [c.inv_elems[c.inv_offsets[k]:c.inv_offsets[k + 1]].tolist()
             for k in range(c.n * c.alpha)]
    assert preds == [[], [], [0], [], [1, 2], [0, 1, 2]]
    assert c.inv_offsets.tolist() == [0, 0, 0, 1, 1, 3, 6]


def test_sink_complete_reverse_index_matches_table():
    rng = random.Random(61)
    for i in range(40):
        n = rng.randrange(1, 7)
        d = generate(n, rng.randrange(1, 4), rng.choice([0.3, 0.7, 1.0]),
                     rng.randrange(0, n + 1), seed=5000 + i)
        c = sink_complete(d)
        table = [[d.n] * d.alpha for _ in range(d.n + 1)]
        for t, a, h in zip(d.tails, d.labels, d.heads):
            table[t][a] = h
        for s in range(c.n):
            for a in range(c.alpha):
                k = s * c.alpha + a
                preds = sorted(c.inv_elems[c.inv_offsets[k]:c.inv_offsets[k + 1]])
                assert preds == sorted(q for q in range(c.n)
                                       if table[q][a] == s)


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


def _wide_refinement_input():
    # About 300 splits over a 300-letter alphabet, each queueing 300
    # pending (block, symbol) pairs.
    d = generate(300, 300, 0.1, 150, seed=3)
    return restrict(d, relevant_states(d))


def test_sink_complete_retains_only_the_reverse_index():
    # One int32 entry and one int32 offset per (state, label) cell, plus
    # the object headers: a forward table of pointers would add 8 bytes
    # a cell, and int32 buffers built from zeroed bytes 1/16 more.
    dp = _wide_refinement_input()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        c = sink_complete(dp)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    cells = (dp.n + 1) * dp.alpha
    assert c.n * c.alpha == cells
    assert retained <= 8 * cells + 4096, (retained, cells)


def test_sink_complete_peaks_near_what_it_retains():
    # The reverse index, 8 bytes a cell, and one byte a cell that marks
    # the missing transitions, beside which a prefix sum of the offsets
    # lives only until the entries are placed: the peak is 9.1 bytes a
    # cell.  A cursor copy of the offsets kept while they are placed
    # took it to 13.
    dp = _wide_refinement_input()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sink_complete(dp)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    cells = (dp.n + 1) * dp.alpha
    assert peak <= 10 * cells, (peak, cells)


def test_refinement_peak_stays_below_the_completed_table():
    # The pending pairs, held as one byte each plus one chunk per split,
    # stay far below the reverse index that the refinement scans; two
    # int32 stacks of blocks and labels peak above the whole index.
    dp = _wide_refinement_input()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        c = sink_complete(dp)
        reverse_bytes = tracemalloc.get_traced_memory()[0] - before
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, _, splits, _ = _refine_total(c)
        refine_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert splits > 250
    assert refine_peak < reverse_bytes / 2, (refine_peak, reverse_bytes)


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
