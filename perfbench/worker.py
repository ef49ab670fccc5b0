"""One timed, single-threaded, closed-loop worker process.

Usage: ``python3 perfbench/worker.py SPEC.json`` with ``ptdfa`` on the
import path.  The spec names the algorithm, the input text files, the
first pool index, a time budget and a minimum operation count.  The
worker imports ``ptdfa``, reads its inputs, prints ``ready`` (the parent
stops its set-up clock there), then runs operations back to back: one
operation is ``parse`` -> minimizer -> ``serialize``, text in, text out,
exactly what ``ptdfa minimize`` does minus file I/O.  Input ``start``,
``start+1``, ... are taken cyclically from the pool.  Checksums, counter
reads, ``gc.collect()`` and the calibration kernel between operations
are not timed.  The results, and with tracing on every span, are
written once at the end to the spec's ``out`` path.
"""

import gc
import hashlib
import json
import random
import resource
import sys
from array import array
from time import perf_counter

import ptdfa

import spans as spans_mod
import workloads


def text_to_text(algo: str, text: str):
    """The timed operation.  Names are looked up on the package at call
    time so that tracing wrappers installed on it are used."""
    d = ptdfa.parse(text)
    if algo == "valmari":
        out, stats = ptdfa.minimize_with_stats(d)
    else:
        out, stats = ptdfa.hopcroft_minimize(d)
    return ptdfa.serialize(out), stats, out


def counters_of(algo: str, stats, in_bytes: int, out_bytes: int) -> dict:
    """The exact counters of one operation, from its MinimizeStats."""
    c = {"n_core": stats.n_core, "m_core": stats.m_core,
         "n_out": stats.n_out, "m_out": stats.m_out,
         "splits": stats.splits, "parse.bytes": in_bytes,
         "serialize.bytes": out_bytes}
    if algo == "valmari":
        c["splitter_touches"] = stats.splitter_touches
        c["small_half_touches"] = stats.small_half_touches
    else:
        # Hopcroft's field of this name counts reverse-index entries of
        # the completed table, a different quantity.
        c["reverse_touches"] = stats.splitter_touches
        c["alpha"] = stats.alpha
    return c


CALIBRATION_LINES = 80000


def calibration_kernel() -> float:
    """Seconds taken by a fixed pure-Python job shaped like an operation.

    It formats and re-parses 80,000 text lines into int tuples, counting-sorts
    them into an int32 array and indexes them in a dict: the same kinds
    of work as parse, refine and canonicalize, over a working set of tens
    of MiB.  It uses nothing from ``ptdfa``, so changes to the program do
    not move it; run beside an operation, it gauges how fast the machine
    is at that moment.
    """
    n = CALIBRATION_LINES
    rng = random.Random(5)
    t0 = perf_counter()
    heads = array("i", [rng.randrange(n) for _ in range(n)])
    text = "\n".join(f"{i} {heads[i]} {i % 97}" for i in range(n))
    rows = [tuple(int(x) for x in line.split())
            for line in text.splitlines()]
    counts = [0] * (n + 1)
    for h in heads:
        counts[h + 1] += 1
    for b in range(n):
        counts[b + 1] += counts[b]
    order = array("i", bytes(4 * n))
    for i, h in enumerate(heads):
        order[counts[h]] = i
        counts[h] += 1
    index = {}
    for t, h, a in rows:
        index[(h, a)] = t
    return perf_counter() - t0


def run_ops(spec: dict, texts: list, letters: list, tracer=None) -> list:
    """Run the closed loop described by ``spec`` over ``texts``.

    Each record holds the peak RSS so far, read right after the timed
    part; with ``spec["calibrate"]`` the calibration kernel then runs and
    its time is recorded too.
    """
    algo = spec["algo"]
    budget = spec["budget_s"]
    min_ops = spec["min_ops"]
    pool = len(texts)
    ops = []
    t_start = perf_counter()
    last = 0.0
    k = spec["start"]
    while len(ops) < min_ops or perf_counter() - t_start + last / 2 < budget:
        i = k % pool
        k += 1
        text = texts[i]
        gc.collect()
        record = {"input": i, "m_in": None, "latency_s": None,
                  "digest": None, "counters": None, "bounds_ok": None,
                  "error": None, "maxrss_kib": None, "calib_s": None}
        root = None
        try:
            if tracer is not None:
                tracer.counters = {}
                root = tracer.begin(spans_mod.ROOT)
            t0 = perf_counter()
            out_text, stats, out = text_to_text(algo, text)
            t1 = perf_counter()
            if tracer is not None:
                tracer.end(root)
            record["maxrss_kib"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        except Exception as exc:  # counted as a failed operation
            if tracer is not None and root is not None:
                tracer.end(root)
            record["error"] = f"{type(exc).__name__}: {exc}"
            ops.append(record)
            continue
        last = t1 - t0
        record["latency_s"] = last
        record["m_in"] = stats.m_in
        if letters[i] is not None:
            out_text = ptdfa.serialize(
                workloads.expand(out, letters[i], workloads.UNICODE_ALPHA))
        record["digest"] = hashlib.sha256(out_text.encode()).hexdigest()
        counters = counters_of(algo, stats, len(text.encode()),
                               len(out_text.encode()))
        if tracer is not None:
            counters.update(tracer.counters)
            record["self_s"] = spans_mod.self_times(tracer.spans, root)
        record["counters"] = counters
        record["bounds_ok"] = (stats.within_scan_bounds()
                               if algo == "valmari" else True)
        if spec.get("calibrate"):
            gc.collect()
            record["calib_s"] = calibration_kernel()
        ops.append(record)
    return ops


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    texts = []
    for path in spec["inputs"]:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    letters = spec.get("letters") or [None] * len(texts)
    tracer = None
    if spec["trace"]:
        tracer = spans_mod.Tracer()
        tracer.install(spans_mod.SPANS[spec["algo"]])
    print("ready", flush=True)
    ops = run_ops(spec, texts, letters, tracer)
    result = {
        "algo": spec["algo"],
        "trace": spec["trace"],
        "ops": ops,
        "maxrss_kib": max((op["maxrss_kib"] for op in ops
                           if op["maxrss_kib"] is not None), default=0),
        "absent_spans": tracer.absent if tracer else [],
        "spans": tracer.spans if tracer else [],
    }
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
