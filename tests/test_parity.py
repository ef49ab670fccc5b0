"""Outputs and counters of ``minimize`` on the benchmark's input pools.

``tests/data/parity.json`` holds, for each input of the seed-7 pool of
every benchmark workload, the sha256 of the input text and, for two
worklist orders, the sha256 of the canonical output, the run's counters
and the final state of both partitions' counters.  The ``lifo`` records
are the default order; the ``fifo`` records take the pending sets first
in, first out, through the ``fifo_order`` round hook of
``tests/helpers.py``.  Under ``hopcroft`` it holds the same for the
completed-table baseline, run on the input the benchmark gives it
(``Input.hopcroft_text``, the compact relabeling on
``lexicon_unicode``): the input's and the output's sha256, ``splits``,
the reverse-index touches (``splitter_touches``), ``n_core`` and
``m_core``.  None of them depends on a clock, so a change meant to
keep the output and the work of a run must keep every value.  When the
signature rounds settle the partition, no ``Refinement`` is made and
its partitions' counters read 0; the test checks which runs settle,
and after how many rounds, apart from the fixture.  The
inputs are built by the benchmark's own constructors in
``perfbench/workloads.py``, loaded by path and left as they are.

Regenerate the fixture, after a change that is meant to move it, with

    PYTHONPATH=src python tests/test_parity.py
"""

import hashlib
import json
import sys

import pytest

from ptdfa import (hopcroft_minimize, minimize_with_stats, minimizer, parse,
                   serialize)

from helpers import ROOT, benchmark_workloads, fifo_order

FIXTURE = ROOT / "tests" / "data" / "parity.json"
WORKLOADS = ("random_sparse", "merge_heavy", "lexicon_unicode")
SEED = 7


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Recorded(minimizer.Refinement):
    """A ``Refinement`` that records itself, so the partitions' counters
    are read from the pipeline's own run, which may make no round that a
    hook could see, or make no ``Refinement`` at all."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


# Per workload, the signature rounds of each seed-7 run and whether
# they leave it to the worklist: random_sparse starts with one block per
# state, merge_heavy settles in a round that splits and one that does
# not, and lexicon_unicode abandons its first round.
ROUNDS = {"random_sparse": (0, False), "merge_heavy": (2, False),
          "lexicon_unicode": (1, True)}
_rounds_seen = []
PARTITION_COUNTERS = ("brp.split_calls", "brp.split_steps", "trp.split_calls",
                      "trp.split_steps", "trp.sets")


def _run(text: str, order) -> dict:
    d = parse(text)
    _Recorded.made.clear()
    real = minimizer.Refinement
    minimizer.Refinement = _Recorded
    try:
        out, stats = minimize_with_stats(d, loop_hook=order)
    finally:
        minimizer.Refinement = real
    _rounds_seen.append((stats.signature_rounds, bool(_Recorded.made)))
    # A run that the signature rounds settled made no Refinement, and
    # its partitions did no work.
    partitions = dict.fromkeys(PARTITION_COUNTERS, 0)
    if _Recorded.made:
        ref, = _Recorded.made
        partitions = {key: getattr(getattr(ref, part), counter)
                      for key in PARTITION_COUNTERS
                      for part, counter in [key.split(".")]}
    return {
        "output_sha256": _sha256(serialize(out)),
        "initial_blocks": stats.initial_blocks,
        "splits": stats.splits,
        "splitter_touches": stats.splitter_touches,
        "small_half_touches": stats.small_half_touches,
        "n_core": stats.n_core,
        "m_core": stats.m_core,
        **partitions,
    }


def _run_hopcroft(text: str) -> dict:
    out, stats = hopcroft_minimize(parse(text))
    return {
        "input_sha256": _sha256(text),
        "output_sha256": _sha256(serialize(out)),
        "splits": stats.splits,
        "splitter_touches": stats.splitter_touches,
        "n_core": stats.n_core,
        "m_core": stats.m_core,
    }


def _entries(workload: str) -> dict:
    return {f"{workload}/{i}": {"input_sha256": _sha256(inp.text),
                                "lifo": _run(inp.text, None),
                                "fifo": _run(inp.text, fifo_order),
                                "hopcroft": _run_hopcroft(inp.hopcroft_text)}
            for i, inp in enumerate(
                benchmark_workloads().make_pool(workload, SEED))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_and_counters_match_the_fixture(workload):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    _rounds_seen.clear()
    got = _entries(workload)
    assert set(_rounds_seen) == {ROUNDS[workload]}
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
