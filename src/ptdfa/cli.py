"""Command-line front end.

Subcommands: ``minimize`` an automaton file, ``generate`` random inputs,
``check`` two automata for language equality or isomorphism, and
``bench`` a timing grid to CSV.  ``-`` means stdin/stdout.  Exit codes:
0 ok, 1 bad input data or out of memory, 2 usage error, 3 checked
relation false.
"""

import argparse
import sys
from time import perf_counter

from .automaton import AutomatonError, is_isomorphic, parse, serialize
from .oracle import language_equal
from .workload import ALGORITHMS, bench, generate, parse_grid, rows_to_csv

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_FALSE = 3


def _read(path: str) -> str:
    """The text as stored: no newline translation, so a CR reaches parse."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _usage(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_minimize(args) -> int:
    text = _read(args.inp)
    t0 = perf_counter()
    d = parse(text)
    t1 = perf_counter()
    out, stats = ALGORITHMS[args.algo](d)
    t2 = perf_counter()
    text = serialize(out)
    t3 = perf_counter()
    _write(args.out, text)
    if args.stats:
        # The parse and serialize calls are timed here, around the
        # minimizer's own phases, in pipeline order.
        stats.phases = {"parse": t1 - t0, **stats.phases,
                        "serialize": t3 - t2}
        print("\n".join(stats.as_lines()), file=sys.stderr)
    return EXIT_OK


def _cmd_generate(args) -> int:
    finals = args.states // 2 if args.finals is None else args.finals
    try:
        d = generate(args.states, args.alphabet, args.density, finals,
                     args.seed)
    except ValueError as exc:
        return _usage(str(exc))
    _write(args.out, serialize(d))
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.equiv:
        a, b = (parse(_read(path)) for path in args.equiv)
        return EXIT_OK if language_equal(a, b) else EXIT_FALSE
    a, b = (parse(_read(path)) for path in args.isomorphic)
    return EXIT_OK if is_isomorphic(a, b) else EXIT_FALSE


def _cmd_bench(args) -> int:
    try:
        grid = _read(args.grid) if args.grid else ""
        cells = parse_grid("\n".join([grid, *(args.cell or ())]))
    except ValueError as exc:
        return _usage(str(exc))
    if not cells:
        return _usage("no cells given (use --cell or --grid)")
    algos = args.algo.split(",")
    for algo in algos:
        if algo not in ALGORITHMS:
            return _usage(f"unknown algorithm {algo!r}")
    if args.seeds < 1:
        return _usage("--seeds must be at least 1")
    rows = bench(cells, algos=algos, seeds=range(args.seeds))
    _write(args.csv, rows_to_csv(rows))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptdfa",
        description="Minimize DFAs with partial transition functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minimize", help="minimize an automaton file")
    p.add_argument("--in", dest="inp", default="-", metavar="PATH")
    p.add_argument("--out", default="-", metavar="PATH")
    p.add_argument("--algo", choices=sorted(ALGORITHMS), default="valmari")
    p.add_argument("--stats", action="store_true",
                   help="print run statistics to stderr")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("generate", help="emit a seeded random automaton")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--finals", type=int, default=None,
                   help="final-state count (default: states // 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", metavar="PATH")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("check", help="compare two automata")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--equiv", nargs=2, metavar=("A", "B"),
                       help="language equality")
    group.add_argument("--isomorphic", nargs=2, metavar=("A", "B"),
                       help="equality up to state renaming")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bench", help="run a timing grid, emit CSV")
    p.add_argument("--cell", action="append", metavar="N,ALPHA,P",
                   help="one grid cell; may repeat")
    p.add_argument("--grid", metavar="PATH", help="grid file of n,alpha,p lines")
    p.add_argument("--seeds", type=int, default=1,
                   help="seeds 0..K-1 per cell (default 1)")
    p.add_argument("--algo", default="valmari",
                   help="comma-separated algorithms (default valmari)")
    p.add_argument("--csv", default="-", metavar="PATH")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AutomatonError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
