"""Compare two sets of benchmark results.

Usage::

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are each a result file written by ``run.py`` (under
``.perfbench_out/results/``) or a directory of them.  For every
(metric, workload) the script prints each side's median and quartiles
over its runs and a verdict under the bounds in ``BENCHMARK.json``:

* ``worse``: HEAD's median is worse than BASE's by more than the bound;
* ``better``: HEAD's median is better by more than BASE's own
  quartile spread, and the spread is within the bound;
* ``unresolved``: BASE's spread is wider than the bound and the sides
  overlap;
* ``same``: anything else.

Per-layer timings have no bound and get only their change.  Counters
are compared exactly, run by run, wherever both sides ran the same
(workload, seed); any difference is a ``MISMATCH``.  The exit code is 1
when some metric is ``worse``, some counter mismatches or HEAD failed
more operations than BASE; otherwise 0.
"""

import json
import statistics
import sys
from pathlib import Path

from run import COUNTER_METRICS

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list:
    """The run records in a result file or under a directory; other
    files are skipped with a note on standard error."""
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        try:
            record = json.loads(f.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"compare: skipping {f}: {exc}", file=sys.stderr)
            continue
        if isinstance(record, dict) and "workload" in record:
            records.append(record)
    return records


def summary(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single run is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list, head: list, better: str, bound) -> tuple:
    """(relative change, verdict); the change is positive when HEAD is
    worse."""
    sign = 1 if better == "lower" else -1
    b1, bm, b3 = summary(base)
    hm = summary(head)[1]
    change = sign * (hm - bm) / bm
    if bound is None:
        return change, "-"
    spread = (b3 - b1) / bm
    if change > bound:
        return change, "worse"
    if spread > bound:
        all_better = max(sign * v for v in head) < min(sign * v for v in base)
        return change, "better" if all_better else "unresolved"
    if -change > spread:
        return change, "better"
    return change, "same"


def compare(base_runs: list, head_runs: list, spec: dict) -> tuple:
    """Report lines and whether HEAD is acceptable."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    ok = True
    workloads = sorted({r["workload"] for r in base_runs + head_runs})
    for workload in workloads:
        b_runs = [r for r in base_runs if r["workload"] == workload]
        h_runs = [r for r in head_runs if r["workload"] == workload]
        b_failed = sum(r["failed"] for r in b_runs)
        h_failed = sum(r["failed"] for r in h_runs)
        lines.append(f"== {workload}: base {len(b_runs)} runs "
                     f"({b_failed} failed ops), head {len(h_runs)} runs "
                     f"({h_failed} failed ops)")
        if h_failed > b_failed:
            ok = False
        for name, m in metrics.items():
            base = [r["metrics"][name]["value"] for r in b_runs
                    if name in r["metrics"]]
            head = [r["metrics"][name]["value"] for r in h_runs
                    if name in r["metrics"]]
            if not base or not head:
                continue
            if name in COUNTER_METRICS:
                b_seed = {r["seed"]: r["metrics"][name]["value"]
                          for r in b_runs if name in r["metrics"]}
                pairs = [(v, r["metrics"][name]["value"]) for r in h_runs
                         for s, v in b_seed.items()
                         if r["seed"] == s and name in r["metrics"]]
                same = all(a == b for a, b in pairs)
                ok = ok and same
                state = ("match" if same else "MISMATCH") if pairs \
                    else "no common seed"
                lines.append(f"  {name:30s} {m['unit']:6s} counter "
                             f"{len(pairs)} seed pairs: {state}")
                continue
            change, word = verdict(base, head, m["better"], m.get("bound"))
            ok = ok and word != "worse"
            b1, bm, b3 = summary(base)
            h1, hm, h3 = summary(head)
            lines.append(
                f"  {name:30s} {m['unit']:6s} base {bm:.6g} [{b1:.6g}, "
                f"{b3:.6g}]  head {hm:.6g} [{h1:.6g}, {h3:.6g}]  "
                f"worse by {change:+.1%}  {word}")
    return lines, ok


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, ok = compare(load(Path(argv[1])), load(Path(argv[2])), spec)
    print("\n".join(lines))
    print("verdict:", "ok" if ok else "REGRESSION")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
