import subprocess
import sys
from pathlib import Path

from ptdfa import (PtDfa, cli, generate, minimize, minimize_with_stats, parse,
                   serialize)

from helpers import (
    FAULT_CLASSES, fault_class, mutated_texts, parse_outcome, reference_parse,
)

HEADER_ONLY = "dfa 1 1 0 0 0\n"


def run_cli(*args, stdin=""):
    return subprocess.run([sys.executable, "-m", "ptdfa", *args],
                          input=stdin, capture_output=True, text=True)


def test_minimize_header_only_round_trip():
    r = run_cli("minimize", "--in", "-", "--out", "-", stdin=HEADER_ONLY)
    assert r.returncode == 0
    assert r.stdout == HEADER_ONLY


def test_minimize_via_files(tmp_path: Path):
    src = tmp_path / "in.dfa"
    dst = tmp_path / "out.dfa"
    d = generate(12, 3, 0.5, 6, seed=2)
    src.write_text(serialize(d))
    r = run_cli("minimize", "--in", str(src), "--out", str(dst))
    assert r.returncode == 0
    assert dst.read_text() == serialize(minimize(d))


def test_minimize_malformed_header_exits_1():
    r = run_cli("minimize", "--in", "-", stdin="dfa 1 1\n")
    assert r.returncode == 1
    assert "line 1" in r.stderr


def test_minimize_invalid_automaton_exits_1():
    bad = "dfa 2 1 2 0 0\n0 0 0\n0 0 1\n"
    r = run_cli("minimize", "--in", "-", stdin=bad)
    assert r.returncode == 1
    assert "duplicate transition key" in r.stderr


def test_minimize_number_above_int32_exits_1():
    r = run_cli("minimize", stdin="dfa 3000000000 1 1 0 0\n2999999999 0 1\n")
    assert r.returncode == 1
    assert r.stderr == "error: header field n=3000000000 is above the int32 range\n"


def test_minimize_number_longer_than_int_converts_exits_1(tmp_path: Path):
    src = tmp_path / "in.dfa"
    src.write_text(f"dfa 2 1 1 0 0\n0 0 {'7' * 5000}\n")
    r = run_cli("minimize", "--in", str(src))
    assert r.returncode == 1
    assert r.stderr.startswith("error: head 77777")
    assert "(5000 digits) out of range in transition #0" in r.stderr


def test_minimize_crlf_input_exits_1(tmp_path: Path):
    crlf = "dfa 2 1 1 1 0\r\n0 0 1\r\n1\r\n"
    src = tmp_path / "in.dfa"
    src.write_bytes(crlf.encode())
    for r in (run_cli("minimize", "--in", str(src)),
              run_cli("minimize", stdin=crlf)):
        assert r.returncode == 1
        assert r.stderr == "error: line 1: expected a decimal number, got '0\\r'\n"


def test_minimize_input_not_utf8_exits_1(tmp_path: Path):
    src = tmp_path / "in.dfa"
    src.write_bytes(b"# \xff\ndfa 1 1 0 0 0\n")
    r = run_cli("minimize", "--in", str(src))
    assert r.returncode == 1
    assert r.stderr.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_minimize_in_process_on_every_fault_class(tmp_path: Path, capsys):
    # The first text of each documented fault among the seeded edits
    # that parse is checked against, and the first small one accepted.
    sample = {}
    for text in mutated_texts(seed=31, count=3000):
        outcome = parse_outcome(reference_parse, text)
        if not isinstance(outcome, PtDfa) or outcome.n < 100:
            sample.setdefault(fault_class(text, outcome), (text, outcome))
    assert set(sample) == set(FAULT_CLASSES)
    src = tmp_path / "in.dfa"
    for text, outcome in sample.values():
        src.write_bytes(text.encode())
        code = cli.main(["minimize", "--in", str(src)])
        if isinstance(outcome, PtDfa):
            expected = (0, serialize(minimize(outcome)), "")
        else:
            expected = (1, "", f"error: {outcome[1]}\n")
        assert (code, *capsys.readouterr()) == expected, text


def test_minimize_unknown_flag_exits_2():
    r = run_cli("minimize", "--frobnicate")
    assert r.returncode == 2


def test_algorithms_produce_identical_bytes(tmp_path: Path):
    src = tmp_path / "in.dfa"
    src.write_text(serialize(generate(40, 4, 0.4, 17, seed=3)))
    outputs = []
    for algo in ("valmari", "hopcroft", "oracle"):
        r = run_cli("minimize", "--in", str(src), "--algo", algo)
        assert r.returncode == 0
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_minimize_stats_go_to_stderr():
    r = run_cli("minimize", "--in", "-", "--stats", stdin=HEADER_ONLY)
    assert r.returncode == 0
    assert r.stdout == HEADER_ONLY
    assert "splitter_touches=0" in r.stderr
    assert "n_out=1" in r.stderr
    phases = [line.split("=")[0] for line in r.stderr.splitlines()
              if line.startswith("phase.")]
    assert phases == ["phase.parse", "phase.preprocess", "phase.refine",
                      "phase.canonicalize", "phase.serialize"]
    # Hopcroft times building its completed table as a phase of its own.
    r = run_cli("minimize", "--algo", "hopcroft", "--stats",
                stdin=serialize(generate(12, 3, 0.5, 6, seed=2)))
    assert r.returncode == 0
    phases = [line.split("=")[0] for line in r.stderr.splitlines()
              if line.startswith("phase.")]
    assert phases == ["phase.parse", "phase.preprocess", "phase.complete",
                      "phase.refine", "phase.canonicalize", "phase.serialize"]
    # The oracle's stats have no phases and none of the counters of dead
    # state removal and refinement; the CLI still times its own calls.
    r = run_cli("minimize", "--algo", "oracle", "--stats",
                stdin=serialize(generate(12, 3, 0.5, 6, seed=2)))
    assert r.returncode == 0
    stats = dict(line.split("=") for line in r.stderr.splitlines())
    assert list(stats) == [
        "n_in", "m_in", "alpha", "n_out", "m_out", "seconds",
        "phase.parse", "phase.serialize"]
    assert min(float(stats["phase.parse"]), float(stats["phase.serialize"]),
               float(stats["seconds"])) >= 0.0


def test_minimize_stats_print_initial_blocks_for_valmari_only():
    text = serialize(generate(40, 3, 0.5, 20, seed=0))
    measured = minimize_with_stats(parse(text))[1]
    assert measured.initial_blocks > 1 and measured.signature_rounds > 0
    for algo in ("valmari", "hopcroft", "oracle"):
        r = run_cli("minimize", "--algo", algo, "--stats", stdin=text)
        assert r.returncode == 0
        stats = dict(line.split("=") for line in r.stderr.splitlines())
        for name in ("initial_blocks", "signature_rounds"):
            assert stats.get(name) == (
                str(getattr(measured, name)) if algo == "valmari" else None)


def test_generate_deterministic_bytes(tmp_path: Path):
    args = ("generate", "--states", "25", "--alphabet", "3",
            "--density", "0.4", "--seed", "7")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_generate_zero_density_exits_2():
    r = run_cli("generate", "--states", "5", "--alphabet", "2",
                "--density", "0")
    assert r.returncode == 2
    assert r.stderr == "usage error: density must be in (0, 1], got 0.0\n"
    r = run_cli("generate", "--states", "0", "--alphabet", "2",
                "--density", "0.5")
    assert r.returncode == 2
    assert r.stderr == "usage error: need at least one state, got n=0\n"


def test_generate_emits_requested_transition_count():
    r = run_cli("generate", "--states", "1000", "--alphabet", "100",
                "--density", "0.1")
    assert r.returncode == 0
    header = r.stdout.splitlines()[0].split()
    assert header == ["dfa", "1000", "100", "10000", "500", "0"]
    assert len(r.stdout.splitlines()) == 1 + 10000 + 500


def test_check_isomorphic_self(tmp_path: Path):
    f = tmp_path / "a.dfa"
    f.write_text(serialize(minimize(generate(10, 2, 0.6, 4, seed=5))))
    r = run_cli("check", "--isomorphic", str(f), str(f))
    assert r.returncode == 0


def test_check_equiv_with_minimized(tmp_path: Path):
    d = generate(14, 2, 0.5, 6, seed=6)
    a = tmp_path / "a.dfa"
    b = tmp_path / "b.dfa"
    a.write_text(serialize(d))
    b.write_text(serialize(minimize(d)))
    r = run_cli("check", "--equiv", str(a), str(b))
    assert r.returncode == 0


def test_check_equiv_false_exits_3(tmp_path: Path):
    a = tmp_path / "a.dfa"
    b = tmp_path / "b.dfa"
    a.write_text("dfa 1 1 0 0 0\n")
    b.write_text("dfa 1 1 0 1 0\n0\n")
    r = run_cli("check", "--equiv", str(a), str(b))
    assert r.returncode == 3


def test_check_isomorphic_false_exits_3(tmp_path: Path):
    a = tmp_path / "a.dfa"
    b = tmp_path / "b.dfa"
    a.write_text("dfa 1 1 0 0 0\n")
    b.write_text("dfa 1 1 0 1 0\n0\n")
    r = run_cli("check", "--isomorphic", str(a), str(b))
    assert r.returncode == 3


def test_check_bad_file_exits_1(tmp_path: Path):
    a = tmp_path / "a.dfa"
    a.write_text("not a dfa\n")
    r = run_cli("check", "--equiv", str(a), str(a))
    assert r.returncode == 1


def test_bench_one_cell_one_row(tmp_path: Path):
    out = tmp_path / "rows.csv"
    r = run_cli("bench", "--cell", "12,2,0.5", "--csv", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("algo,n,alpha,p,d,seed,m_in,")


def test_bench_grid_file_and_seeds(tmp_path: Path):
    grid = tmp_path / "cells.grid"
    grid.write_text("8,2,0.5\n10,2,0.5\n")
    r = run_cli("bench", "--grid", str(grid), "--seeds", "2",
                "--algo", "valmari,hopcroft")
    assert r.returncode == 0
    assert len(r.stdout.splitlines()) == 1 + 2 * 2 * 2


def test_bench_invalid_cell_exits_2(tmp_path: Path):
    grid = tmp_path / "cells.grid"
    for cell, message in (
            ("12,2", "expected 'n,alpha,p'"),
            # Refused by the check that generate itself makes.
            ("0,2,0.5", "need at least one state, got n=0"),
            ("10,0,0.5", "need at least one symbol, got alpha=0"),
            ("10,2,1.5", "density must be in (0, 1], got 1.5")):
        grid.write_text(f"8,2,0.5\n{cell}\n")
        for args in (("--cell", cell), ("--cell", "8,2,0.5", "--cell", cell),
                     ("--grid", str(grid))):
            r = run_cli("bench", *args)
            assert r.returncode == 2
            assert r.stdout == ""
            assert r.stderr == f"usage error: cell {cell!r}: {message}\n"


def test_bench_without_cells_exits_2():
    r = run_cli("bench")
    assert r.returncode == 2


def test_out_of_memory_exits_1_without_traceback(tmp_path: Path,
                                                 monkeypatch, capsys):
    src = tmp_path / "in.dfa"
    src.write_text(HEADER_ONLY)

    def no_memory(a, b):
        raise MemoryError

    monkeypatch.setattr(cli, "language_equal", no_memory)
    assert cli.main(["check", "--equiv", str(src), str(src)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
