"""Outputs and counters of ``minimize`` on the benchmark's input pools.

``tests/data/parity.json`` holds, for each input of the seed-7 pool of
every benchmark workload, the sha256 of the input text and, for the
LIFO and the FIFO worklist, the sha256 of the canonical output, the
run's counters and the final state of both partitions' counters.  None
of them depends on a clock, so a change meant to keep the output and
the work of a run must keep every value.  The inputs are built by the
benchmark's own constructors in ``perfbench/workloads.py``, loaded by
path and left as they are.

Regenerate the fixture, after a change that is meant to move it, with

    PYTHONPATH=src python tests/test_parity.py
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ptdfa import minimize_with_stats, parse, serialize

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "parity.json"
WORKLOADS = ("random_sparse", "merge_heavy", "lexicon_unicode")
SEED = 7


def _pool(workload: str) -> list:
    """The input texts of ``workload``'s pool for :data:`SEED`."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [entry.text for entry in module.make_pool(workload, SEED)]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(text: str, worklist: str) -> dict:
    refinements = []
    out, stats = minimize_with_stats(
        parse(text), worklist=worklist,
        loop_hook=lambda ref: refinements or refinements.append(ref))
    ref, = refinements
    return {
        "output_sha256": _sha256(serialize(out)),
        "splits": stats.splits,
        "splitter_touches": stats.splitter_touches,
        "small_half_touches": stats.small_half_touches,
        "n_core": stats.n_core,
        "m_core": stats.m_core,
        "brp.split_calls": ref.brp.split_calls,
        "brp.split_steps": ref.brp.split_steps,
        "trp.split_calls": ref.trp.split_calls,
        "trp.split_steps": ref.trp.split_steps,
        "trp.sets": ref.trp.sets,
    }


def _entries(workload: str) -> dict:
    return {f"{workload}/{i}": {"input_sha256": _sha256(text),
                                "lifo": _run(text, "lifo"),
                                "fifo": _run(text, "fifo")}
            for i, text in enumerate(_pool(workload))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_and_counters_match_the_fixture(workload):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = _entries(workload)
    assert got.keys() == {k for k in expected if k.startswith(workload + "/")}
    for key, entry in got.items():
        # A different input means the benchmark's pools changed, not
        # the minimizer.
        assert entry["input_sha256"] == expected[key]["input_sha256"], key
        assert entry == expected[key], key


if __name__ == "__main__":
    entries = {}
    for workload in WORKLOADS:
        entries.update(_entries(workload))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {FIXTURE}", file=sys.stderr)
