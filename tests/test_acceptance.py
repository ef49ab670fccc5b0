"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers (run with -s to see them as they happen)."""

import random
import statistics
import time
import tracemalloc
from functools import lru_cache

from ptdfa import (
    RefinablePartition, empty_dfa, final_blocks, generate, hopcroft_minimize,
    minimize, minimize_with_stats, oracle_minimize, serialize, sink_complete,
)
from ptdfa.oracle import language_partition
from ptdfa.preprocess import relevant_states, restrict

from helpers import (
    ModelPartition, as_int32, assert_agrees, check_partition, fifo_order,
    final_partition_violations, shuffled_order, tiny_sweep_report,
    with_final_chain,
)

DENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _report(name, detail):
    print(f"[PASS] {name}: {detail}", flush=True)


def _criterion1_cases():
    for i in range(5000):
        n = 1 + i % 8
        alpha = 1 + (i // 8) % 4
        k = (i // 8) % (n + 1)
        yield generate(n, alpha, DENSITIES[i % 10], k, seed=i)


@lru_cache(maxsize=1)
def _random_equivalence_report():
    mismatches = 0
    bound_violations = 0
    densities_seen = set()
    finals_seen = set()
    count = 0
    t0 = time.perf_counter()
    for d in _criterion1_cases():
        count += 1
        densities_seen.add(round(d.m / (d.n * d.alpha), 1) if d.m else 0.1)
        finals_seen.add((d.n, len(d.finals)))
        out, stats = minimize_with_stats(d)
        if not stats.within_scan_bounds():
            bound_violations += 1
        if out != oracle_minimize(d):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    return count, mismatches, bound_violations, finals_seen, elapsed


@lru_cache(maxsize=1)
def _lemma_sweep_report():
    rng = random.Random(2024)
    violations = 0
    bound_violations = 0
    checked = 0
    for i in range(1000):
        n = rng.randrange(1, 11)
        d = generate(n, rng.randrange(1, 5), DENSITIES[rng.randrange(10)],
                     rng.randrange(0, n + 1), seed=50_000 + i)
        dp, blocks, stats = final_blocks(d)
        if not stats.within_scan_bounds():
            bound_violations += 1
        if blocks is None:
            assert minimize(d) == empty_dfa(d.alpha)
            continue
        checked += 1
        violations += final_partition_violations(dp, blocks,
                                                 language_partition(dp))
    return checked, violations, bound_violations


def test_criterion_1_oracle_equivalence_on_random_instances():
    count, mismatches, _, finals_seen, elapsed = _random_equivalence_report()
    assert count >= 5000
    assert mismatches == 0
    # every final-set size occurred for every state count
    for n in range(1, 9):
        assert {k for nn, k in finals_seen if nn == n} == set(range(n + 1))
    assert elapsed < 60.0
    _report("criterion 1",
            f"{count} random instances, 0 mismatches, {elapsed:.1f}s")


def test_criterion_2_exhaustive_tiny_sweep():
    report = tiny_sweep_report()
    assert report.total == 33652
    assert report.iso_mismatches == 0, report.failures
    _report("criterion 2",
            f"{report.total} exhaustive instances, 0 pairwise mismatches")


def test_criterion_3_final_partition_lemma_conditions():
    checked, violations, _ = _lemma_sweep_report()
    assert violations == 0
    _report("criterion 3",
            f"{checked} refined instances, 0 lemma violations")


def test_criterion_4_scan_counter_bounds():
    _, _, rand_viol, _, _ = _random_equivalence_report()
    _, _, lemma_viol = _lemma_sweep_report()
    tiny = tiny_sweep_report()
    assert rand_viol == 0
    assert lemma_viol == 0
    assert tiny.bound_violations == 0

    big = generate(10_000, 100, 0.1, 5_000, seed=424242)
    t0 = time.perf_counter()
    out, stats = minimize_with_stats(big)
    elapsed = time.perf_counter() - t0
    assert stats.within_scan_bounds(), stats
    assert elapsed < 5.0
    lg = stats.n_core.bit_length() - 1
    _report("criterion 4",
            f"0 bound violations on {5000 + 1000 + tiny.total} instances; "
            f"large instance {elapsed:.2f}s, "
            f"touches {stats.splitter_touches}/{stats.m_core * (lg + 1)} "
            f"and {stats.small_half_touches}/{stats.m_core * lg + stats.m_core}")


def test_criterion_5_partition_model_check():
    rng = random.Random(31_337)
    sequences = 100_000
    ops_done = 0
    for i in range(sequences):
        max_elems = rng.randrange(1, 65)
        rp = RefinablePartition(max_elems)
        if i & 1:
            rp = as_int32(rp)
        model = ModelPartition(max_elems)
        for _ in range(rng.randrange(1, 17)):
            if rng.random() < 0.7:
                e = rng.randrange(max_elems)
                rp.mark(e)
                model.mark(e)
            else:
                s = rng.randrange(rp.sets)
                assert rp.split(s) == model.split(s)
            check_partition(rp)
            ops_done += 1
        assert_agrees(rp, model)
        assert rp.split_steps <= rp.mark_calls + rp.split_calls
    _report("criterion 5",
            f"{sequences} sequences, {ops_done} operations, 0 disagreements")


def test_criterion_6_density_and_baseline_timing_trends():
    def median5(fn, d):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn(d)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    sparse = generate(1000, 100, 0.1, 500, seed=8)
    dense = generate(1000, 100, 1.0, 500, seed=8)
    v_sparse = median5(minimize, sparse)
    v_dense = median5(minimize, dense)
    h_sparse = median5(hopcroft_minimize, sparse)
    assert v_sparse < 0.35 * v_dense, (v_sparse, v_dense)
    assert v_sparse < h_sparse, (v_sparse, h_sparse)
    # desk-scale sanity from the harness: sizes barely shrink and both
    # algorithms finish quickly at this size
    out, stats = minimize_with_stats(sparse)
    assert out.n >= 0.99 * sparse.n
    assert out.m >= 0.99 * sparse.m
    assert v_sparse < 2.5 and h_sparse < 2.5
    _report("criterion 6",
            f"sparse/dense ratio {v_sparse / v_dense:.3f} (< 0.35), "
            f"sparse {v_sparse * 1000:.0f}ms vs baseline "
            f"{h_sparse * 1000:.0f}ms")


def test_criterion_7_memory_regime_contrast():
    d = generate(2000, 2000, 0.1, 1000, seed=11)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = minimize(d)
    sparse_peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    assert out.m > 0
    assert sparse_peak < 512 * 2 ** 20

    dp = restrict(d, relevant_states(d))
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    completed = sink_complete(dp)
    reverse_bytes = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    assert completed.n == dp.n + 1
    # target ratio 8x with +/-50% tolerance, so at least 4x
    ratio = reverse_bytes / sparse_peak
    assert ratio >= 4.0, (reverse_bytes, sparse_peak)
    _report("criterion 7",
            f"sparse peak {sparse_peak / 2**20:.1f} MiB, completed "
            f"automaton's reverse index {reverse_bytes / 2**20:.1f} MiB, "
            f"ratio {ratio:.2f} (>= 4.0)")


def test_criterion_8_deterministic_outputs():
    # Each input has a final chain, which leaves it past the signature
    # rounds to the worklist, so that each order is really taken: every
    # run must pop at least one pending set.
    diffs = 0
    touches = set()
    for seed in range(6):
        def pipeline(order):
            d = with_final_chain(generate(120, 6, 0.3, 60 + seed % 3,
                                          seed=seed))
            popped = []

            def hook(ref):
                if order is not None:
                    order(ref)
                popped.append(ref.unready[-1])

            out, stats = minimize_with_stats(d, loop_hook=hook)
            assert popped, seed
            touches.add((seed, stats.splitter_touches))
            return serialize(out)

        # A rerun of the default order, then FIFO and three random orders.
        orders = [None, None, fifo_order] + [
            shuffled_order(100 * seed + i) for i in range(3)]
        if len(set(map(pipeline, orders))) != 1:
            diffs += 1
    assert diffs == 0
    # The orders are not the same run: they scan different splitters.
    assert len(touches) > 6
    _report("criterion 8",
            "byte-identical outputs across reruns, FIFO and 3 random "
            f"worklist orders ({len(touches)} distinct touch counts "
            "over 6 inputs)")
