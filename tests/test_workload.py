from pathlib import Path

import pytest

from ptdfa import (
    bench, generate, hopcroft_minimize, minimize_with_stats, parse_grid,
    rows_to_csv, serialize, validate,
)
from ptdfa.workload import ALGORITHMS, CSV_COLUMNS

GRID_FILE = Path(__file__).resolve().parent.parent / "table1.grid"


def test_generate_exact_transition_count():
    d = generate(4, 2, 0.5, 2, seed=1)
    assert d.m == 4
    assert len({(t, a) for t, a, _ in d.transitions()}) == 4


def test_generate_is_deterministic():
    a = serialize(generate(30, 5, 0.4, 11, seed=99))
    b = serialize(generate(30, 5, 0.4, 11, seed=99))
    assert a == b
    c = serialize(generate(30, 5, 0.4, 11, seed=100))
    assert c != a


def test_generate_full_density_is_total():
    d = generate(5, 3, 1.0, 2, seed=0)
    assert d.m == 5 * 3
    assert {(t, a) for t, a, _ in d.transitions()} == \
        {(q, a) for q in range(5) for a in range(3)}


def test_generate_validates_output():
    # revalidating the emitted description must succeed byte for byte
    d = generate(12, 3, 0.4, 6, seed=5)
    again = validate(d.n, d.alpha, d.transitions(), d.initial, d.finals)
    assert again == d


def test_generate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate(0, 1, 0.5, 0, seed=0)
    with pytest.raises(ValueError):
        generate(1, 0, 0.5, 0, seed=0)
    with pytest.raises(ValueError):
        generate(1, 1, 0.0, 0, seed=0)
    with pytest.raises(ValueError):
        generate(1, 1, 1.5, 0, seed=0)
    with pytest.raises(ValueError):
        generate(2, 1, 0.5, 3, seed=0)


def test_generate_without_transitions_pins_bytes():
    # m = round(p*n*alpha) = 0: the sparse sampler (p <= 0.125), the
    # dense one, and an all-final automaton; neither sampler draws.
    assert serialize(generate(3, 1, 0.1, 1, seed=5)) == "dfa 3 1 0 1 0\n2\n"
    assert serialize(generate(1, 1, 0.2, 1, seed=5)) == "dfa 1 1 0 1 0\n0\n"
    assert serialize(generate(3, 1, 0.1, 3, seed=5)) == \
        "dfa 3 1 0 3 0\n0\n1\n2\n"


def test_generate_sparse_and_dense_paths():
    sparse = generate(10, 10, 0.05, 5, seed=8)
    assert sparse.m == 5
    dense = generate(10, 10, 0.9, 5, seed=8)
    assert dense.m == 90


def test_bench_single_cell_single_row():
    rows = bench([(20, 3, 0.5)], algos=("valmari",), seeds=(0,))
    assert len(rows) == 1
    row = rows[0]
    assert row["algo"] == "valmari" and row["outcome"] == "ok"
    assert row["m_in"] == 30
    assert row["millis_min"] <= row["millis_max"]
    assert row["d"] == 0


def test_bench_grid_order_and_row_count():
    rows = bench([(10, 2, 0.5), (12, 2, 0.5)],
                 algos=("valmari", "hopcroft"), seeds=(0, 1))
    assert len(rows) == 8
    assert [r["n"] for r in rows] == [10, 10, 10, 10, 12, 12, 12, 12]
    assert [r["algo"] for r in rows[:4]] == ["valmari"] * 2 + ["hopcroft"] * 2


def test_bench_all_algorithms_run():
    rows = bench([(8, 2, 0.5)], algos=("valmari", "hopcroft", "oracle"))
    assert [r["algo"] for r in rows] == ["valmari", "hopcroft", "oracle"]
    assert all(r["outcome"] == "ok" for r in rows)


def test_bench_reports_running_out_of_memory_as_the_row_outcome(
        monkeypatch):
    def out_of_memory(d):
        raise MemoryError

    monkeypatch.setitem(ALGORITHMS, "valmari", out_of_memory)
    [row] = bench([(5, 2, 0.5)])
    assert row["outcome"] == "oom"
    for col in ("m_in", "states_out", "trans_out", "splits",
                "splitter_touches", "reverse_touches", "millis_min",
                "millis_max"):
        assert row[col] == "", col


def test_bench_touch_columns_name_one_quantity_each():
    rows = bench([(40, 1, 0.9)], algos=("valmari", "hopcroft", "oracle"))
    d = generate(40, 1, 0.9, 20, 0)
    valmari, hopcroft, oracle = rows
    stats = minimize_with_stats(d)[1]
    # Some states share a (finality, out-label set) key, and over one
    # letter their languages part only deep in the words, so the
    # signature rounds leave the run to the worklist, which pops
    # transition sets and touches splitters.
    assert stats.initial_blocks < stats.n_core
    assert stats.signature_rounds == 3
    splitter = stats.splitter_touches
    reverse = hopcroft_minimize(d)[1].splitter_touches
    assert valmari["splitter_touches"] == splitter > 0
    assert hopcroft["reverse_touches"] == reverse > 0
    assert valmari["reverse_touches"] == hopcroft["splitter_touches"] == ""
    assert oracle["splitter_touches"] == oracle["reverse_touches"] == ""


def test_bench_splits_column_is_empty_for_the_oracle():
    rows = bench([(20, 3, 0.5)], algos=("valmari", "hopcroft", "oracle"))
    d = generate(20, 3, 0.5, 10, 0)
    valmari, hopcroft, oracle = rows
    assert valmari["splits"] == minimize_with_stats(d)[1].splits > 0
    assert hopcroft["splits"] == hopcroft_minimize(d)[1].splits > 0
    assert oracle["splits"] == ""
    assert oracle["states_out"] == valmari["states_out"]
    assert rows_to_csv([oracle]).splitlines()[1].split(",")[
        CSV_COLUMNS.index("splits")] == ""


def test_csv_header_and_shape():
    rows = bench([(6, 2, 0.5)])
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(CSV_COLUMNS)


def test_csv_header_present_without_rows():
    assert rows_to_csv([]).splitlines() == [",".join(CSV_COLUMNS)]


def test_parse_grid():
    cells = parse_grid("# comment\n10,2,0.5\n\n20,4,1.0\n")
    assert cells == [(10, 2, 0.5), (20, 4, 1.0)]


def test_parse_grid_rejects_garbage():
    with pytest.raises(ValueError):
        parse_grid("10,2\n")
    with pytest.raises(ValueError):
        parse_grid("a,b,c\n")
    # Cells that generate refuses.
    for cell in ("0,2,0.5", "10,0,0.5", "10,2,0", "10,2,1.5"):
        with pytest.raises(ValueError) as exc:
            parse_grid(f"10,2,0.5\n{cell}\n")
        assert str(exc.value).startswith(f"cell '{cell}': ")


def test_shipped_grid_matches_published_sweep_shape():
    cells = parse_grid(GRID_FILE.read_text())
    assert len(cells) == 24
    sizes = sorted({(n, alpha) for n, alpha, _ in cells})
    assert sizes == [(1000, 100), (1000, 1000), (10000, 100), (10000, 1000)]
    for size in sizes:
        ps = sorted(p for n, alpha, p in cells if (n, alpha) == size)
        assert ps == [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    # two algorithms over the grid give the full comparison table
    assert len(cells) * 2 == 48
