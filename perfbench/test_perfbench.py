"""Tests of the benchmark itself (not collected by the main suite).

Run with ``python3 -m pytest -q perfbench/test_perfbench.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ptdfa  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def loop(algo, texts, rounds=1, letters=None, tracer=None,
         calibrate=False):
    """One worker's result over ``texts``, run in this process."""
    spec = {"algo": algo, "start": 0, "budget_s": 0.0,
            "min_ops": rounds * len(texts), "calibrate": calibrate}
    ops = worker.run_ops(spec, texts, letters or [None] * len(texts),
                         tracer)
    return {"algo": algo, "trace": tracer is not None, "ops": ops}


def random_texts():
    return [ptdfa.serialize(ptdfa.generate(60, 5, 0.5, 30, s))
            for s in range(3)]


def merge_pool():
    smalls = [ptdfa.generate(8, 3, 0.7, 4, s) for s in range(3)]
    texts = [ptdfa.serialize(workloads.unroll(d, 5)) for d in smalls]
    refs = [run.digest(ptdfa.serialize(ptdfa.oracle_minimize(d)))
            for d in smalls]
    return texts, refs


def test_clean_runs_pass_both_checks():
    texts = random_texts()
    workers = [loop("valmari", texts), loop("hopcroft", texts)]
    assert run.check_ops(workers, [None] * 3) == (6, 0, [])
    texts, refs = merge_pool()
    workers = [loop("valmari", texts), loop("hopcroft", texts)]
    assert run.check_ops(workers, refs) == (6, 0, [])


def test_corrupted_output_is_counted_as_failed(monkeypatch):
    texts, refs = merge_pool()
    good = loop("hopcroft", texts)
    real = ptdfa.serialize
    monkeypatch.setattr(ptdfa, "serialize", lambda d: real(d) + "0\n")
    bad = loop("valmari", texts)
    attempted, failed, problems = run.check_ops([bad, good], refs)
    assert (attempted, failed) == (6, 3)
    assert all(p.startswith("valmari") for p in problems)
    # Without a reference the other algorithm is the check.
    texts = random_texts()
    bad = loop("valmari", texts)
    monkeypatch.setattr(ptdfa, "serialize", real)
    good = loop("hopcroft", texts)
    attempted, failed, _ = run.check_ops([bad, good], [None] * 3)
    assert failed == attempted == 6


def test_scan_bound_violation_is_counted_as_failed(monkeypatch):
    texts = random_texts()
    good = loop("hopcroft", texts)
    monkeypatch.setattr(ptdfa.MinimizeStats, "within_scan_bounds",
                        lambda self: False)
    bad = loop("valmari", texts)
    _, failed, problems = run.check_ops([bad, good], [None] * 3)
    assert failed == 3
    assert all("scan bounds" in p for p in problems)


def test_counters_must_repeat_exactly():
    texts = random_texts()
    workers = [loop("valmari", texts, rounds=2), loop("hopcroft", texts)]
    workers[0]["ops"][4]["counters"]["splits"] += 1
    _, failed, problems = run.check_ops(workers, [None] * 3)
    assert failed == 1
    assert "counters differ" in problems[0]


def test_raising_operation_is_counted_as_failed():
    texts = random_texts()
    texts[1] = "dfa 2 1 1 0 0\n0 5 1\n"
    workers = [loop("valmari", texts), loop("hopcroft", texts)]
    _, failed, _ = run.check_ops(workers, [None] * 3)
    assert failed == 2


def test_traced_run_keeps_output_and_records_every_layer():
    texts = random_texts()
    plain = loop("valmari", texts)
    tracer = spans.Tracer()
    tracer.install(spans.VALMARI_SPANS + spans.HOPCROFT_SPANS)
    try:
        traced = loop("valmari", texts, tracer=tracer)
        hop = loop("hopcroft", texts, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert not hasattr(ptdfa.parse, "__wrapped__")
    assert not hasattr(ptdfa.minimizer.Refinement.run, "__wrapped__")
    assert [op["digest"] for op in traced["ops"]] == \
        [op["digest"] for op in plain["ops"]]
    assert run.check_ops([plain, traced, hop], [None] * 3)[1] == 0
    for op in traced["ops"]:
        assert set(op["self_s"]) == set(run.VALMARI_LAYERS)
        assert op["counters"]["trp.split_calls"] > 0
    for op in hop["ops"]:
        assert set(run.HOPCROFT_LAYERS) <= set(op["self_s"])
    metrics = run.per_layer_metrics([plain, traced, hop])
    names = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == names


def test_end_to_end_timings_are_calibrated():
    texts = random_texts()[:1]
    workers = [loop("valmari", texts, calibrate=True),
               loop("hopcroft", texts, calibrate=True)]
    for w in workers:
        w["maxrss_kib"], w["setup_s"] = 2048, 0.1
    v, h = workers[0]["ops"][0], workers[1]["ops"][0]
    assert v["calib_s"] > 0 and v["maxrss_kib"] > 0
    values, raw = run.end_to_end_metrics(workers)
    gauge = (v["calib_s"] + h["calib_s"]) / 2
    assert raw["calib_s"][0] == pytest.approx(gauge)
    scale = run.REF_CALIB_S / gauge
    assert values["latency_ms_p50"][0] == pytest.approx(
        v["latency_s"] * 1000 * scale)
    assert raw["latency_ms_p50"][0] == pytest.approx(v["latency_s"] * 1000)
    assert values["hopcroft_trans_per_s"][0] == pytest.approx(
        h["m_in"] / (h["latency_s"] * scale))
    names = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(values) == names


def test_absent_target_yields_no_span():
    tracer = spans.Tracer()
    tracer.install([("gone", "ptdfa.minimizer", "no_such_layer", None),
                    ("gone_too", "ptdfa.no_such_module", "f", None)])
    assert tracer.absent == ["gone", "gone_too"]
    assert tracer._installed == []


def test_self_times_subtract_children():
    rows = [["op", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 2.0, 3.0, 1],
            ["c", 6.0, 8.0, 0], ["op", 11.0, 12.0, -1]]
    assert spans.self_times(rows, 0) == {
        "a": 3.0, "b": 1.0, "c": 2.0, "unattributed": 4.0}


def test_lexicon_check_maps_hopcroft_back():
    d = workloads.prefix_tree(workloads.lexicon_words(5, stems=40))
    small, letters = workloads.compact(d)
    expected = ptdfa.serialize(ptdfa.minimize(d))
    back = workloads.expand(ptdfa.hopcroft_minimize(small)[0], letters,
                            workloads.UNICODE_ALPHA)
    assert ptdfa.serialize(back) == expected
    val = loop("valmari", [ptdfa.serialize(d)])
    hop = loop("hopcroft", [ptdfa.serialize(small)], letters=[letters])
    assert val["ops"][0]["digest"] == hop["ops"][0]["digest"]


def test_pools_are_seeded():
    make = workloads.MAKERS["merge_heavy"]
    first, again, other = make(700), make(700), make(800)
    assert first == again
    assert first.text != other.text
    d = ptdfa.parse(first.text)
    assert (d.n, d.alpha, d.m) == (20000, 10, 142000)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "merge_heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _record(seed, value, splits):
    return {"workload": "random_sparse", "seed": seed, "failed": 0,
            "metrics": {"trans_per_s": {"value": value, "unit": "1/s"},
                        "splits": {"value": splits, "unit": "count"}}}


def test_compare_flags_regressions_and_counter_drift():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = [_record(s, 100.0 + s, 999) for s in range(5)]
    lines, ok = compare.compare(base, [_record(s, 101.0, 999)
                                       for s in range(5)], spec)
    assert ok
    lines, ok = compare.compare(base, [_record(s, 60.0, 999)
                                       for s in range(5)], spec)
    assert not ok and any("worse" in line for line in lines)
    lines, ok = compare.compare(base, [_record(1, 101.0, 998)], spec)
    assert not ok and any("MISMATCH" in line for line in lines)
