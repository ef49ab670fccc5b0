"""The repository benchmark: text-to-text minimization throughput.

Usage (from the repository root)::

    python3 perfbench/run.py --workload random_sparse --seed 1 \\
        --seconds 38 --trace 0

The harness generates the seeded input pool, writes it to a scratch
directory in ``.perfbench_out/``, and then starts worker processes one
after another (one client, closed loop, never two workers at once).
With ``--trace 0`` each worker runs one operation, valmari and hopcroft
taking turns, and the end-to-end metrics are reported; with
``--trace 1`` an untraced valmari worker, a traced valmari worker and a
traced hopcroft worker each loop over the pool, and the per-layer
metrics are reported.  Every operation's output is checked; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (every sample, counters, machine info) goes to
``.perfbench_out/results/`` and, when traced, every span to
``.perfbench_out/traces/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("random_sparse", "merge_heavy", "lexicon_unicode")

# Untraced timings are calibrated: each operation's time is multiplied
# by REF_CALIB_S over the mean time of the calibration kernel, which runs
# after every operation of the run, so they read as seconds on a machine
# where the kernel takes REF_CALIB_S (about what it took where the
# benchmark was defined, a 2-vCPU Xeon with Python 3.11.7).  One gauge
# per run, not per operation: a single kernel run is too short to be
# read alone.  Raw times go to the record as well.
REF_CALIB_S = 0.4

# Share of --seconds given to each worker of a traced run.
TRACE_SHARES = {"plain": 0.3, "valmari": 0.35, "hopcroft": 0.35}
WORKER_TIMEOUT_S = 150

# Per-layer metrics that are exact counts (or ratios of them), reported
# per input as the mean over the pool: read from a valmari trace, derived
# from those, and read from a hopcroft trace.
VALMARI_COUNTERS = ("splits", "splitter_touches", "small_half_touches",
                    "n_core", "m_core", "n_out", "m_out", "brp.split_steps",
                    "trp.split_calls", "trp.split_steps", "parse.bytes",
                    "serialize.bytes")


def _scan_bound(c):
    """m_core * (floor(lg n_core) + 1), the bound on both scan counts."""
    return c["m_core"] * c["n_core"].bit_length()


DERIVED_COUNTERS = {
    "merge_ratio": lambda c: c["n_out"] / c["n_core"],
    "splitter_touch_bound_ratio":
        lambda c: c["splitter_touches"] / _scan_bound(c),
    "small_half_bound_ratio":
        lambda c: c["small_half_touches"] / _scan_bound(c),
}
HOPCROFT_COUNTERS = {
    "hopcroft.splits": lambda c: c["splits"],
    "hopcroft.reverse_touches": lambda c: c["reverse_touches"],
    "hopcroft.table_cells": lambda c: (c["n_core"] + 1) * c["alpha"],
}
COUNTER_METRICS = frozenset(VALMARI_COUNTERS).union(DERIVED_COUNTERS,
                                                    HOPCROFT_COUNTERS)
VALMARI_LAYERS = ("parse", "relevant_states", "restrict", "init",
                  "init_trp_grouping", "in_index", "refine", "quotient",
                  "canonicalize", "serialize", "unattributed")
HOPCROFT_LAYERS = ("hopcroft.sink_complete", "hopcroft.refine",
                   "hopcroft.canonicalize")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "loadavg": list(os.getloadavg()),
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Harness:
    """Input pool, worker launches and the per-run scratch directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        import workloads  # needs ptdfa, which main() puts on the path

        self.work = work
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        pool = workloads.make_pool(workload, seed)
        self.valmari_inputs = []
        self.hopcroft_inputs = []
        for i, inp in enumerate(pool):
            self.valmari_inputs.append(self._write(f"in{i}.txt", inp.text))
            if inp.letters is None:
                self.hopcroft_inputs.append(self.valmari_inputs[-1])
            else:
                self.hopcroft_inputs.append(
                    self._write(f"in{i}.compact.txt", inp.hopcroft_text))
        self.letters = [inp.letters for inp in pool]
        self.references = [None if inp.reference is None
                           else digest(inp.reference) for inp in pool]
        self.generate_s = time.perf_counter() - t0
        self.pool = len(pool)
        self._launches = 0

    def _write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def launch(self, algo: str, trace: bool, start: int, budget: float,
               min_ops: int, calibrate: bool = False) -> dict:
        """Run one worker to completion; returns its result with
        ``setup_s`` added (spawn to ``ready``)."""
        self._launches += 1
        out = self.work / f"result{self._launches}.json"
        spec = {
            "algo": algo, "trace": trace, "calibrate": calibrate,
            "start": start,
            "budget_s": budget, "min_ops": min_ops, "out": str(out),
            "inputs": (self.valmari_inputs if algo == "valmari"
                       else self.hopcroft_inputs),
            "letters": self.letters if algo == "hopcroft" else None,
        }
        spec_path = self.work / f"spec{self._launches}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True)
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{algo} worker timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"{algo} worker failed (exit {proc.returncode})")
        result = json.loads(out.read_text(encoding="utf-8"))
        result["setup_s"] = setup_s
        return result


def run_untraced(h: Harness, seconds: float) -> list:
    """One operation per worker process, valmari and hopcroft taking
    turns so that each gets about half of ``seconds``; each algorithm
    covers the whole pool at least once.  No worker starts when less
    than half of its expected duration is left."""
    workers = []
    done = {"valmari": 0, "hopcroft": 0}
    spent = {"valmari": 0.0, "hopcroft": 0.0}
    last = {"valmari": 0.0, "hopcroft": 0.0}
    t0 = time.perf_counter()
    while True:
        algo = min(spent, key=spent.get)
        left = seconds - (time.perf_counter() - t0)
        if left < last[algo] / 2 and min(done.values()) >= h.pool:
            return workers
        t = time.perf_counter()
        workers.append(h.launch(algo, False, done[algo], 0.0, 1,
                                calibrate=True))
        last[algo] = time.perf_counter() - t
        spent[algo] += last[algo]
        done[algo] += 1


def run_traced(h: Harness, seconds: float) -> list:
    """One untraced valmari worker, then traced valmari and hopcroft
    workers, each over the whole pool at least once."""
    return [
        h.launch("valmari", False, 0, seconds * TRACE_SHARES["plain"],
                 h.pool),
        h.launch("valmari", True, 0, seconds * TRACE_SHARES["valmari"],
                 h.pool),
        h.launch("hopcroft", True, 0, seconds * TRACE_SHARES["hopcroft"],
                 h.pool),
    ]


def check_ops(workers: list, references: list) -> tuple:
    """Count failed operations.

    An operation fails when it raised; when a valmari run broke its
    scan bounds; when its output digest differs from the expected one:
    the independent reference where the workload has one, otherwise
    the first output of the other algorithm on the same input; or when
    its output or counters differ from the first run of the same
    algorithm on the same input (outputs and counters must repeat
    exactly, traced or not).  Returns (attempted, failed, problems).
    """
    first = {}
    for w in workers:
        for op in w["ops"]:
            if op["error"] is None:
                first.setdefault((w["algo"], op["input"]), op)
    attempted = failed = 0
    problems = []
    for w in workers:
        algo = w["algo"]
        other = "hopcroft" if algo == "valmari" else "valmari"
        for op in w["ops"]:
            attempted += 1
            i = op["input"]
            why = None
            if op["error"] is not None:
                why = op["error"]
            elif not op["bounds_ok"]:
                why = "scan bounds exceeded"
            else:
                expected = references[i]
                if expected is None and (other, i) in first:
                    expected = first[(other, i)]["digest"]
                if expected is None:
                    why = f"no {other} output to check against"
                elif op["digest"] != expected:
                    why = "output differs from the expected output"
                else:
                    base = first[(algo, i)]
                    if op["digest"] != base["digest"]:
                        why = "output differs between runs"
                    elif any(op["counters"].get(k) != v
                             for k, v in base["counters"].items()
                             if k in op["counters"]):
                        why = "counters differ between runs"
            if why is not None:
                failed += 1
                problems.append(f"{algo} input {i}: {why}")
    return attempted, failed, problems


def _ok_ops(workers, algo, trace=None):
    return [op for w in workers if w["algo"] == algo
            and (trace is None or w["trace"] == trace)
            for op in w["ops"] if op["error"] is None]


def end_to_end_metrics(workers: list) -> tuple:
    """Metrics of an untraced run, name -> (value, unit, sample count),
    and the same timings uncalibrated."""
    v_ops = _ok_ops(workers, "valmari")
    h_ops = _ok_ops(workers, "hopcroft")
    if not v_ops or not h_ops:
        raise BenchError("no successful operation to time")
    v_workers = [w for w in workers if w["algo"] == "valmari"]
    h_workers = [w for w in workers if w["algo"] == "hopcroft"]

    def med(values, unit):
        return statistics.median(values), unit, len(values)

    def timings(seconds):
        """The timing metrics, given each operation's seconds."""
        def throughput(ops):
            # Transitions per second of text-to-text work over the whole
            # run: steadier than a median when the machine's speed shifts.
            return (sum(op["m_in"] for op in ops)
                    / sum(seconds(op) for op in ops), "1/s", len(ops))

        return {
            "trans_per_s": throughput(v_ops),
            "latency_ms_p50": med([seconds(op) * 1000 for op in v_ops],
                                  "ms"),
            "hopcroft_trans_per_s": throughput(h_ops),
        }

    gauge = statistics.fmean(op["calib_s"] for op in v_ops + h_ops)
    values = timings(lambda op: op["latency_s"] * REF_CALIB_S / gauge)
    values.update({
        "peak_rss_mib": med([w["maxrss_kib"] / 1024 for w in v_workers],
                            "MiB"),
        "hopcroft_peak_rss_mib": med(
            [w["maxrss_kib"] / 1024 for w in h_workers], "MiB"),
        "setup_s": med([w["setup_s"] for w in v_workers], "s"),
    })
    raw = timings(lambda op: op["latency_s"])
    raw["calib_s"] = gauge, "s", len(v_ops) + len(h_ops)
    return values, raw


def _per_input_mean(ops, key_fn) -> float:
    """Mean over the pool inputs of a per-input value (the first run of
    each input); exact counters give a repeatable figure."""
    per_input = {}
    for op in ops:
        per_input.setdefault(op["input"], key_fn(op["counters"]))
    return sum(per_input.values()) / len(per_input)


def per_layer_metrics(workers: list) -> dict:
    """Metrics of a traced run: name -> (value, unit, sample count)."""
    plain = _ok_ops(workers, "valmari", trace=False)
    traced = _ok_ops(workers, "valmari", trace=True)
    hop = _ok_ops(workers, "hopcroft", trace=True)
    if not plain or not traced or not hop:
        raise BenchError("no successful operation to trace")
    values = {}

    def layer(name, ops):
        # A span that no longer exists has no self time.
        times = [op["self_s"].get(name, 0.0) for op in ops]
        shares = [t / op["latency_s"] for t, op in zip(times, ops)]
        values[f"{name}_ms"] = (statistics.median(times) * 1000, "ms",
                                len(ops))
        values[f"{name}_share"] = (statistics.median(shares), "ratio",
                                   len(ops))

    for name in VALMARI_LAYERS:
        layer(name, traced)
    for name in HOPCROFT_LAYERS:
        layer(name, hop)
    values["trace_overhead_ratio"] = (
        statistics.median([op["latency_s"] for op in traced])
        / statistics.median([op["latency_s"] for op in plain]), "ratio",
        len(traced) + len(plain))

    def count(name, fn, ops=traced, unit="count"):
        values[name] = (_per_input_mean(ops, fn), unit, len(ops))

    for name in VALMARI_COUNTERS:
        count(name, lambda c, k=name: c.get(k, 0),
              unit="bytes" if name.endswith(".bytes") else "count")

    for name, fn in DERIVED_COUNTERS.items():
        count(name, fn, unit="ratio")
    for name, fn in HOPCROFT_COUNTERS.items():
        count(name, fn, ops=hop)
    return values


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ptdfa" / "__init__.py").is_file():
        print(f"perfbench: no ptdfa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    info = machine_info()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = (f"{args.workload}.seed{args.seed}.trace{args.trace}."
            f"{stamp}.{os.getpid()}")
    work = OUT / "work" / name
    try:
        h = Harness(args.workload, args.seed, work)
        print(f"perfbench: {args.workload} seed={args.seed} pool={h.pool} "
              f"generated in {h.generate_s:.2f} s; machine {info}",
              file=sys.stderr)
        if args.trace:
            workers = run_traced(h, args.seconds)
        else:
            workers = run_untraced(h, args.seconds)
        attempted, failed, problems = check_ops(workers, h.references)
        raw = {}
        if args.trace:
            values = per_layer_metrics(workers)
        else:
            values, raw = end_to_end_metrics(workers)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for key, (value, unit, samples) in values.items():
        print(f"perfbench: {key} = {value:.6g} {unit} (n={samples})",
              file=sys.stderr)
    for key, (value, unit, samples) in raw.items():
        print(f"perfbench: raw {key} = {value:.6g} {unit} (n={samples})",
              file=sys.stderr)
    print(f"perfbench: failed_ratio = {failed / attempted:.6g} "
          f"({failed}/{attempted})", file=sys.stderr)
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": info,
        "generate_s": h.generate_s, "attempted": attempted,
        "failed": failed, "failed_ratio": failed / attempted,
        "problems": problems,
        "samples": {k: n for k, (_, _, n) in values.items()},
        "metrics": metrics,
        "uncalibrated": {k: {"value": v, "unit": u}
                         for k, (v, u, _) in raw.items()},
        "workers": [{k: w[k] for k in ("algo", "trace", "ops", "maxrss_kib",
                                        "setup_s", "absent_spans")}
                    for w in workers],
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{name}.json").write_text(json.dumps(record),
                                                  encoding="utf-8")
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        (OUT / "traces" / f"{name}.json").write_text(json.dumps(
            [{"algo": w["algo"], "trace": w["trace"], "spans": w["spans"]}
             for w in workers if w["trace"]]), encoding="utf-8")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
