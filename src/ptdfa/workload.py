"""Seeded random PT-DFA generation and the timing harness.

Randomness comes from ``random.Random`` (the Mersenne Twister) driven
only through ``randrange``, so outputs are byte-reproducible across
platforms and Python versions for a given seed.  Exactly
round(p * n * alpha) distinct (tail, label) pairs are sampled: rejection
sampling when sparse (p <= 1/8), Floyd's subset sampling otherwise, both
O(m) expected.
"""

import random
from time import perf_counter

from .automaton import MinimizeStats, PtDfa, validate
from .hopcroft import hopcroft_minimize
from .minimizer import minimize_with_stats
from .oracle import oracle_minimize

__all__ = ["generate", "bench", "rows_to_csv", "parse_grid", "CSV_COLUMNS",
           "ALGORITHMS"]

CSV_COLUMNS = ["algo", "n", "alpha", "p", "d", "seed", "m_in", "states_out",
               "trans_out", "splits", "splitter_touches", "reverse_touches",
               "millis_min", "millis_max", "outcome"]

# The column that takes an algorithm's ``MinimizeStats.splitter_touches``:
# hopcroft counts reverse-index entries of the completed table there.
# Only these algorithms count splits; the oracle's counter columns stay
# empty.
_TOUCH_COLUMN = {"valmari": "splitter_touches", "hopcroft": "reverse_touches"}


def _check_cell(n: int, alpha: int, p: float) -> None:
    """Raise ValueError unless :func:`generate` can build automata with
    n states, alpha labels and density p."""
    if n < 1:
        raise ValueError(f"need at least one state, got n={n}")
    if alpha < 1:
        raise ValueError(f"need at least one symbol, got alpha={alpha}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {p}")


def generate(n: int, alpha: int, p: float, k: int, seed: int) -> PtDfa:
    """Random PT-DFA: m = round(p*n*alpha) distinct (tail, label) pairs
    sampled uniformly, heads uniform, a uniform k-subset of final
    states, initial state 0.  Deterministic for a given seed."""
    _check_cell(n, alpha, p)
    if not 0 <= k <= n:
        raise ValueError(f"final count {k} out of range 0..{n}")
    m = int(round(p * n * alpha))
    pairs = n * alpha
    rng = random.Random(seed)
    if p <= 0.125:
        chosen = set()
        while len(chosen) < m:
            chosen.add(rng.randrange(pairs))
        codes = sorted(chosen)
    else:
        chosen = set()
        for j in range(pairs - m, pairs):
            t = rng.randrange(j + 1)
            chosen.add(j if t in chosen else t)
        codes = sorted(chosen)
    triples = [(code // alpha, code % alpha, rng.randrange(n)) for code in codes]
    pool = list(range(n))
    for i in range(k):
        j = rng.randrange(i, n)
        pool[i], pool[j] = pool[j], pool[i]
    return validate(n, alpha, triples, 0, pool[:k])


def _run_oracle(d):
    t0 = perf_counter()
    out = oracle_minimize(d)
    # The oracle neither trims the automaton nor splits blocks.
    stats = MinimizeStats(n_in=d.n, m_in=d.m, alpha=d.alpha, n_out=out.n,
                          m_out=out.m, n_core=None, m_core=None, splits=None,
                          splitter_touches=None, small_half_touches=None,
                          seconds=perf_counter() - t0)
    return out, stats


ALGORITHMS = {
    "valmari": minimize_with_stats,
    "hopcroft": hopcroft_minimize,
    "oracle": _run_oracle,
}


def bench(cells, algos=("valmari",), seeds=(0,)):
    """Run the timing grid and return one result dict per
    (cell, algo, seed), in grid order.

    Each row times one minimization per offset d in -1, 0, 1 (|F| =
    n//2 + d, clamped to 0..n) and reports the fastest and slowest;
    generation and I/O are excluded from the timings.  Sizes and
    counters come from the d = 0 run.  Running out of memory is reported
    as the row outcome, not raised.
    """
    rows = []
    for n, alpha, p in cells:
        for algo in algos:
            runner = ALGORITHMS[algo]
            for seed in seeds:
                row = dict.fromkeys(CSV_COLUMNS, "")
                row.update(algo=algo, n=n, alpha=alpha, p=p, d=0, seed=seed,
                           outcome="ok")
                millis = []
                try:
                    for d in (-1, 0, 1):
                        k = min(n, max(0, n // 2 + d))
                        inp = generate(n, alpha, p, k, seed)
                        t0 = perf_counter()
                        _, stats = runner(inp)
                        millis.append((perf_counter() - t0) * 1000.0)
                        if d == 0:
                            row["m_in"] = inp.m
                            row["states_out"] = stats.n_out
                            row["trans_out"] = stats.m_out
                            if algo in _TOUCH_COLUMN:
                                row["splits"] = stats.splits
                                row[_TOUCH_COLUMN[algo]] = \
                                    stats.splitter_touches
                    row["millis_min"] = round(min(millis), 3)
                    row["millis_max"] = round(max(millis), 3)
                except MemoryError:
                    row["outcome"] = "oom"
                rows.append(row)
    return rows


def rows_to_csv(rows) -> str:
    """Render bench rows as CSV with the fixed column set; the header is
    always present."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def parse_grid(text: str):
    """Parse a grid file: one ``n,alpha,p`` cell per line, ``#`` comments
    and blank lines ignored.  A cell that :func:`generate` would refuse
    raises ValueError, quoting the cell."""
    cells = []
    for line in text.splitlines():
        cell = line.strip()
        if not cell or cell.startswith("#"):
            continue
        parts = cell.split(",")
        if len(parts) != 3:
            raise ValueError(f"cell {cell!r}: expected 'n,alpha,p'")
        try:
            n, alpha, p = int(parts[0]), int(parts[1]), float(parts[2])
            _check_cell(n, alpha, p)
        except ValueError as exc:
            raise ValueError(f"cell {cell!r}: {exc}") from None
        cells.append((n, alpha, p))
    return cells
