"""Shared test utilities: a partition's buffers as int32 arrays, its
sets as lists, a naive reference partition, the strict line-by-line
reference parser and the seeded edits of canonical texts that it is
compared with ``parse`` on, the sort-every-time reference serializer, a
plain breadth-first reference renumbering, the one-step-per-transition
reference label grouping, the call-per-split reference refinement loop,
worklist orders other than the default, inputs on which the signature
rounds leave the run to the worklist, the cell-by-cell reference
completion and completed-table refinement, the state-by-state reference
keep set, brute-force language tools, the exhaustive tiny-automaton
sweep, and the benchmark's input constructors."""

import importlib.util
import random
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from ptdfa import (
    ParseError, PtDfa, RefinablePartition, Refinement, UnreachableStateError,
    ValidationError, generate, hopcroft_minimize, minimize_with_stats, serialize,
)
from ptdfa.automaton import _ROUNDS, bucket_by
from ptdfa.hopcroft import CompletedDfa
from ptdfa.oracle import oracle_minimize

ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=1)
def benchmark_workloads():
    """The benchmark's input constructors, ``perfbench/workloads.py``,
    loaded by path and left as they are."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def as_int32(rp):
    """``rp`` with its six buffers turned into int32 ``array('i')``,
    the storage of the minimizer's transition partition."""
    for name in ("elems", "loc", "sidx", "first", "mid", "end"):
        setattr(rp, name, array("i", getattr(rp, name)))
    return rp


def check_partition(rp):
    """Assert every structural invariant of a refinable partition."""
    size = len(rp.sidx)
    seen = bytearray(size)
    covered = 0
    for s in range(rp.sets):
        f, m, e = rp.first[s], rp.mid[s], rp.end[s]
        assert 0 <= f <= m <= e <= size
        assert f < e, "sets are nonempty"
        for i in range(f, e):
            el = rp.elems[i]
            assert 0 <= el < size
            assert not seen[el], "set slices overlap"
            seen[el] = 1
            assert rp.loc[el] == i, "loc must invert elems"
            assert rp.sidx[el] == s
        covered += e - f
    assert covered == size, "set slices cover the universe"


def partition_sets(rp):
    """Each set of ``rp`` as its (marked, unmarked) element lists."""
    return [(list(rp.elems[rp.first[s]:rp.mid[s]]),
             list(rp.elems[rp.mid[s]:rp.end[s]])) for s in range(rp.sets)]


class ModelPartition:
    """Naive reference model: explicit element sets plus marked subsets."""

    def __init__(self, max_elems):
        self.max = max_elems
        self.members = [set(range(max_elems))]
        self.marked = [set()]
        self.owner = [0] * max_elems

    def size(self, s):
        return len(self.members[s])

    def set_of(self, e):
        return self.owner[e]

    def no_marks(self, s):
        return not self.marked[s]

    def mark(self, e):
        self.marked[self.owner[e]].add(e)

    def split(self, s):
        mk = self.marked[s]
        self.marked[s] = set()
        if not mk or len(mk) == len(self.members[s]):
            return None
        new = len(self.members)
        self.members[s] -= mk
        self.members.append(mk)
        self.marked.append(set())
        for e in mk:
            self.owner[e] = new
        return new


def assert_agrees(rp, model):
    """The partition and the model describe identical set families."""
    assert rp.sets == len(model.members)
    for s in range(rp.sets):
        f, m, e = rp.first[s], rp.mid[s], rp.end[s]
        assert {rp.elems[i] for i in range(f, e)} == model.members[s]
        assert {rp.elems[i] for i in range(f, m)} == model.marked[s]


def reference_validate(n, alpha, transitions, initial, finals):
    """Per-triple reference for ``validate`` on int-valued input: one
    diagnostic per problem, in the order ``validate`` reports them."""
    diags = []
    if n < 1:
        diags.append(f"empty state set (n={n})")
    if alpha < 0:
        diags.append(f"negative alphabet size ({alpha})")
    if n >= 1 and not 0 <= initial < n:
        diags.append(f"initial state {initial} out of range 0..{n - 1}")
    finals = frozenset(finals)
    for q in sorted(finals):
        if not 0 <= q < n:
            diags.append(f"final state {q} out of range 0..{n - 1}")
    triples = [(int(t), int(a), int(h)) for t, a, h in transitions]
    seen = set()
    for i, (t, a, h) in enumerate(triples):
        if not 0 <= t < n:
            diags.append(f"tail {t} out of range in transition #{i}")
        if not 0 <= a < alpha:
            diags.append(f"label {a} out of range in transition #{i}")
        if not 0 <= h < n:
            diags.append(f"head {h} out of range in transition #{i}")
        key = (t, a)
        if key in seen:
            diags.append(
                f"duplicate transition key (tail={t}, label={a}) at transition #{i}")
        seen.add(key)
    if diags:
        raise ValidationError(diags)
    return PtDfa.from_triples(n, alpha, triples, initial, finals)


_INT32_MAX = 2**31 - 1
_NUMERAL = "(?:0|[1-9][0-9]*)"
# One pattern per line kind.  A header is matched by its shape alone,
# so that a fault in one of its numerals is named as such.
_SKIPPED = re.compile("(?:#.*)?")  # a comment or an empty line
_HEADER = re.compile("dfa( [^ ]*){5}")
_TRANSITION = re.compile(f"{_NUMERAL} {_NUMERAL} {_NUMERAL}")
_FINAL = re.compile(_NUMERAL)


def _check_numerals(lineno: int, tokens: list) -> None:
    """Raise the ParseError of the first token that is not a numeral."""
    for token in tokens:
        if not token:
            raise ParseError(lineno, "fields must be separated by single spaces")
        if not re.fullmatch("[0-9]+", token):
            raise ParseError(lineno, f"expected a decimal number, got {token!r}")
        if not _FINAL.fullmatch(token):
            raise ParseError(lineno, f"leading zero in {token!r}")


def _magnitude(numeral: str) -> tuple:
    """Numerals without a leading zero compare as their numbers do: by
    length, then digit by digit.  No numeral is converted, however long."""
    return len(numeral), numeral


def _below(numeral: str, limit: int) -> bool:
    return _magnitude(numeral) < _magnitude(str(limit))


def _shown(numeral: str) -> str:
    if len(numeral) <= 20:
        return numeral
    return f"{numeral[:20]}...({len(numeral)} digits)"


def reference_parse(text: str):
    """Strict line-by-line reference for ``parse`` of the documented
    grammar.  Each line is a comment or empty, or matched by the pattern
    of its kind, and the faults are reported in the documented order:
    a missing header, the header's shape, its numerals, a header number
    above the int32 range (named alone), then line by line a data line's
    first numeral fault and, only when the line count is right, its
    width; then a wrong count, at the last data line; and last the
    diagnostics of ``validate``, each number shown from its numeral."""
    lines = [(lineno, line) for lineno, line in enumerate(text.split("\n"), 1)
             if not _SKIPPED.fullmatch(line)]
    if not lines:
        raise ParseError(1, "missing header line")
    (lineno, header), data = lines[0], lines[1:]
    if not _HEADER.fullmatch(header):
        raise ParseError(lineno, "header must be 'dfa <n> <alpha> <m> <k> <initial>'")
    numerals = header.split(" ")[1:]
    _check_numerals(lineno, numerals)
    big = [f"header field {name}={_shown(numeral)} is above the int32 range"
           for name, numeral in zip(("n", "alpha", "m", "k", "initial"), numerals)
           if not _below(numeral, _INT32_MAX + 1)]
    if big:
        raise ValidationError(big)
    n, alpha, m, k, initial = map(int, numerals)
    counted = len(data) == m + k
    for i, (lineno, line) in enumerate(data):
        _check_numerals(lineno, line.split(" "))
        if counted and i < m and not _TRANSITION.fullmatch(line):
            raise ParseError(lineno, "transition line must be '<tail> <label> <head>'")
        if counted and i >= m and not _FINAL.fullmatch(line):
            raise ParseError(lineno, "final-state line must be a single state")
    if not counted:
        raise ParseError(lines[-1][0], f"expected {m} transition and {k} final-state "
                         f"lines, found {len(data)} data lines")
    rows = [line.split(" ") for _, line in data]
    triples, finals = rows[:m], [row[0] for row in rows[m:]]
    diags = []
    if n < 1:
        diags.append(f"empty state set (n={n})")
    elif not initial < n:
        diags.append(f"initial state {initial} out of range 0..{n - 1}")
    for q in sorted(set(finals), key=_magnitude):
        if not _below(q, n):
            diags.append(f"final state {_shown(q)} out of range 0..{n - 1}")
    seen = set()
    for i, (t, a, h) in enumerate(triples):
        for name, numeral, limit in (("tail", t, n), ("label", a, alpha),
                                     ("head", h, n)):
            if not _below(numeral, limit):
                diags.append(f"{name} {_shown(numeral)} out of range in "
                             f"transition #{i}")
        if (t, a) in seen:
            diags.append(f"duplicate transition key (tail={_shown(t)}, "
                         f"label={_shown(a)}) at transition #{i}")
        seen.add((t, a))
    if diags:
        raise ValidationError(diags)
    return PtDfa.from_triples(n, alpha, [tuple(map(int, row)) for row in triples],
                              initial, map(int, finals))


# Numerals at and around the int32 edge, one too long for int().
_EDGES = ["0", "2147483646", "2147483647", "2147483648", "4294967296",
          "99999999999", "1" + "0" * 25, "7" * 5000]


def _edited(lines: list, rng) -> None:
    """One seeded edit of a text's lines, in place."""
    i = rng.randrange(len(lines))
    line = lines[i]
    fields = line.split(" ")
    j = rng.randrange(len(fields))
    edit = rng.randrange(8)
    if edit == 0:  # a stray character
        p = rng.randrange(len(line) + 1)
        lines[i] = line[:p] + rng.choice(" \t\r#_+-\u0660\u00b2") + line[p:]
    elif edit == 1:  # a run of LF, or a comment line
        lines[i:i] = rng.choice([[""] * rng.randint(1, 3), ["#"], ["# 0 0 1"]])
    elif edit == 2:  # the line commented out, or its CR
        lines[i] = rng.choice(["#", ""]) + line + rng.choice(["", "\r"])
    elif edit == 3:  # a leading zero or a sign
        fields[j] = rng.choice(["0", "00", "+", "-"]) + fields[j]
    elif edit == 4:
        fields[j] = rng.choice(_EDGES)
    elif edit == 5:  # a small number: out of range, or a repeated key
        fields[j] = str(rng.randrange(6))
    elif edit == 6:
        del lines[i]
    else:
        lines.insert(i, line)
    if 3 <= edit <= 5:
        lines[i] = " ".join(fields)


def mutated_texts(seed: int, count: int):
    """``count`` seeded texts, each the canonical text of a small random
    automaton with one to three edits: spaces, tabs, CRs, ``#``, runs of
    LF, leading zeros, signs, ``_``, non-ASCII digits, numbers at the
    int32 edges, and dropped or doubled lines."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randrange(1, 6)
        d = generate(n, rng.randrange(1, 4), rng.choice([0.05, 0.3, 0.7]),
                     rng.randrange(0, n + 1), seed=seed * count + i)
        lines = serialize(d).split("\n")
        for _ in range(rng.randint(1, 3)):
            if not lines:
                lines.append("")
            _edited(lines, rng)
        yield "\n".join(lines)


def parse_outcome(parser, text: str):
    """What ``parser`` makes of ``text``: the PtDfa, or the error's class
    and message with its line or its diagnostics."""
    try:
        return parser(text)
    except ParseError as exc:
        return ParseError, str(exc), exc.line
    except ValidationError as exc:
        return ValidationError, str(exc), exc.diagnostics


FAULT_CLASSES = ("missing header", "header shape", "header numeral",
                 "header above int32", "data numeral", "width", "count",
                 "diagnostics", "accepted")


def fault_class(text: str, outcome) -> str:
    """Which of :data:`FAULT_CLASSES` the outcome of ``text`` is."""
    if isinstance(outcome, PtDfa):
        return "accepted"
    message = outcome[1]
    for cls, marker in (("missing header", "missing header"),
                        ("header shape", "header must be"),
                        ("header above int32", "header field"),
                        ("width", " line must be"), ("count", "final-state lines")):
        if marker in message:
            return cls
    if outcome[0] is ValidationError:
        return "diagnostics"
    header = next(lineno for lineno, line in enumerate(text.split("\n"), 1)
                  if not _SKIPPED.fullmatch(line))
    return "header numeral" if outcome[2] == header else "data numeral"


def reference_serialize(d: PtDfa) -> str:
    """Emit the bit-exact canonical text: transitions sorted by
    (tail, label, head), final states ascending, LF line endings."""
    tails, labels, heads = d.tails, d.labels, d.heads
    order = sorted(range(d.m), key=lambda i: (tails[i], labels[i], heads[i]))
    lines = [f"dfa {d.n} {d.alpha} {d.m} {len(d.finals)} {d.initial}"]
    for i in order:
        lines.append(f"{tails[i]} {labels[i]} {heads[i]}")
    for q in sorted(d.finals):
        lines.append(str(q))
    return "\n".join(lines) + "\n"


def reference_canonicalize(d):
    """Plain breadth-first reference for ``canonicalize(d)``: each
    state's outgoing transitions are sorted by label with ``sorted``."""
    out = {}
    for t, a, h in zip(d.tails, d.labels, d.heads):
        out.setdefault(t, []).append((a, h))
    new_of = {d.initial: 0}
    queue = [d.initial]
    for q in queue:
        for _, h in sorted(out.get(q, [])):
            if h not in new_of:
                new_of[h] = len(queue)
                queue.append(h)
    if len(queue) != d.n:
        raise UnreachableStateError(f"{d.n - len(queue)} unreachable state(s)")
    triples = sorted((new_of[t], a, new_of[h])
                     for t, a, h in zip(d.tails, d.labels, d.heads))
    return PtDfa.from_triples(d.n, d.alpha, triples, 0,
                              {new_of[q] for q in d.finals})


def reference_grouping(labels, groups=None):
    """Reference for ``init_trp_grouping``, one fill step per
    transition: one set per (label, group) pair in order of first
    appearance, each listing its transitions in group order, and the
    sets of each label back to back in order of first label appearance.
    ``groups`` defaults to one group of all transitions, ascending."""
    if groups is None:
        groups = [range(len(labels))]
    pairs = {}
    for g, group in enumerate(groups):
        for t in group:
            pairs.setdefault((labels[t], g), []).append(t)
    sets_of_label = {}
    for i, ((a, _), members) in enumerate(pairs.items()):
        sets_of_label.setdefault(a, []).append((i, members))
    rp = as_int32(RefinablePartition(len(labels)))
    pos = 0
    for a in Counter(labels):  # keys in order of first appearance
        for i, members in sets_of_label[a]:
            rp.first[i] = rp.mid[i] = pos
            for t in members:
                rp.elems[pos] = t
                rp.loc[t] = pos
                rp.sidx[t] = i
                pos += 1
            rp.end[i] = pos
    rp.sets = len(pairs)
    return rp


# The set index of a retired transition.
RETIRED = -1


class ReferenceRefinement(Refinement):
    """Reference for ``Refinement.run``: every splitter touch marks its
    state and every touched block and transition set goes through
    ``split_block``/``trp.split``, trivial splits included.  The real
    splits, the worklist order and every counter must come out the same
    as the refinement loop's, which splits blocks inline.

    It starts from the refiner's initial partitions and worklist, the
    blocks by finality and out-label set and the transition sets by
    (label, head block), all pending but the largest of each label, and
    counts in ``block_splits`` only the splits that it makes itself.  It
    keeps the refiner's two rules in its own way: a split that leaves
    every block a single state empties the worklist, and a block of one
    state that a split leaves has its outgoing transitions retired one
    by one; a retired transition is never marked again, and each touch
    of one counts as a trivial split call of the transition partition."""

    def __init__(self, dp):
        super().__init__(dp)
        self.block_splits = 0
        self.touched_blocks = []
        self.touched_spls = []

    def split_block(self, b: int) -> None:
        """Split block ``b`` along its marks and requeue affected
        transition sets.

        A trivial split (nothing or everything marked) only clears the
        marks.  Otherwise the half with fewer states is rescanned, ties
        going to the marked (new) half: its incoming transitions move
        into fresh transition sets, and every fresh set joins the
        worklist.
        """
        brp = self.brp
        trp = self.trp
        b2 = brp.split(b)
        if b2 is not None:
            self.block_splits += 1
        if brp.sets == self.dp.n:
            del self.unready[:]
            return
        if b2 is None:
            return
        for half in (b, b2):
            if brp.size(half) == 1:
                self._retire_out(brp.elems[brp.first[half]])
        if brp.size(b) < brp.size(b2):
            b2 = b
        touched = self.touched_spls
        assert not touched
        in_order = self.in_order
        in_first = self.in_first
        telems = trp.elems
        tloc = trp.loc
        tsidx = trp.sidx
        tfirst = trp.first
        tmid = trp.mid
        belems = brp.elems
        touched_add = touched.append
        touches = 0
        for posq in range(brp.first[b2], brp.end[b2]):
            q = belems[posq]
            for k in range(in_first[q], in_first[q + 1]):
                t = in_order[k]
                touches += 1
                p = tsidx[t]
                if p == RETIRED:
                    trp.split_calls += 1
                    continue
                if tmid[p] == tfirst[p]:
                    touched_add(p)
                # Mark t inside its transition set (inlined for speed).
                lt = tloc[t]
                mm = tmid[p]
                if lt >= mm:
                    other = telems[mm]
                    telems[lt] = other
                    tloc[other] = lt
                    telems[mm] = t
                    tloc[t] = mm
                    tmid[p] = mm + 1
        self.small_half_touches += touches
        unready_add = self.unready.append
        trp_split = trp.split
        touched_remove = touched.pop
        while touched:
            p2 = trp_split(touched_remove())
            if p2 is not None:
                unready_add(p2)

    def _retire_out(self, q: int) -> None:
        out_first = self.dp.out_first
        for t in range(out_first[q], out_first[q + 1]):
            self.trp.sidx[t] = RETIRED

    def run(self, hook=None) -> None:
        """Refine the initial partition, which it inherits, until the
        worklist drains.  ``hook(self)``, if given, fires at the top of
        every worklist round."""
        dp = self.dp
        brp = self.brp
        trp = self.trp
        telems = trp.elems
        tfirst = trp.first
        tend = trp.end
        tails = dp.tails
        belems = brp.elems
        bloc = brp.loc
        bsidx = brp.sidx
        bfirst = brp.first
        bmid = brp.mid
        unready = self.unready
        ur_remove = unready.pop
        touched = self.touched_blocks
        touched_add = touched.append
        touched_remove = touched.pop
        split_block = self.split_block
        touches = 0
        while unready:
            assert not touched
            if hook is not None:
                hook(self)
            p = ur_remove()
            for pos in range(tfirst[p], tend[p]):
                q = tails[telems[pos]]
                b = bsidx[q]
                if bmid[b] == bfirst[b]:
                    touched_add(b)
                # Mark q inside its block (inlined for speed).
                lq = bloc[q]
                mm = bmid[b]
                if lq >= mm:
                    other = belems[mm]
                    belems[lq] = other
                    bloc[other] = lq
                    belems[mm] = q
                    bloc[q] = mm
                    bmid[b] = mm + 1
                touches += 1
            while touched:
                split_block(touched_remove())
        self.splitter_touches += touches


def reference_sink_complete(d: PtDfa) -> CompletedDfa:
    """Reference for ``sink_complete``: a forward table filled row by
    row, and its reverse index counted, summed and placed one cell at a
    time.  Only the reverse index is returned, as ``sink_complete``
    keeps only that."""
    n, alpha = d.n, d.alpha
    sink = n
    total = n + 1
    table = [[sink] * alpha for _ in range(total)]
    for t, a, h in zip(d.tails, d.labels, d.heads):
        table[t][a] = h
    cells = total * alpha
    offsets = array("i", bytes(4 * (cells + 1)))
    for q in range(total):
        row = table[q]
        for a in range(alpha):
            offsets[row[a] * alpha + a + 1] += 1
    for k in range(cells):
        offsets[k + 1] += offsets[k]
    cursor = array("i", offsets[:cells])
    elems = array("i", bytes(4 * cells))
    for q in range(total):
        row = table[q]
        for a in range(alpha):
            key = row[a] * alpha + a
            elems[cursor[key]] = q
            cursor[key] += 1
    return CompletedDfa(total, alpha, elems, offsets, d.finals)


def reference_refine_total(c: CompletedDfa):
    """Reference for ``hopcroft._refine_total``: the popped block is
    copied before its scan and the reverse index read entry by entry,
    and the pending pairs are dropped once a split leaves every block a
    single state.  Returns (blocks, block_of, splits, touches)."""
    alpha = c.alpha
    fin = set(c.finals)
    nonfin = set(range(c.n)) - fin
    blocks = [fin, nonfin]
    block_of = [1] * c.n
    for q in fin:
        block_of[q] = 0
    flags = [bytearray(alpha), bytearray(alpha)]
    work = []
    small = 0 if len(fin) <= len(nonfin) else 1
    for a in range(alpha):
        work.append((small, a))
        flags[small][a] = 1
    inv = c.inv_elems
    off = c.inv_offsets
    touches = 0
    splits = 0
    while work:
        b, a = work.pop()
        flags[b][a] = 0
        hits = {}
        for s in list(blocks[b]):
            lo = off[s * alpha + a]
            hi = off[s * alpha + a + 1]
            for k in range(lo, hi):
                q = inv[k]
                yb = block_of[q]
                if yb in hits:
                    hits[yb].append(q)
                else:
                    hits[yb] = [q]
            touches += hi - lo
        for yb, qs in hits.items():
            y = blocks[yb]
            if len(qs) == len(y):
                continue
            part = set(qs)
            y -= part
            nz = len(blocks)
            blocks.append(part)
            for q in part:
                block_of[q] = nz
            fz = bytearray(alpha)
            flags.append(fz)
            fy = flags[yb]
            part_smaller = len(part) <= len(y)
            for sym in range(alpha):
                if fy[sym]:
                    fz[sym] = 1
                    work.append((nz, sym))
                elif part_smaller:
                    fz[sym] = 1
                    work.append((nz, sym))
                else:
                    fy[sym] = 1
                    work.append((yb, sym))
            splits += 1
            if len(blocks) == c.n:
                work.clear()
    return blocks, block_of, splits, touches


def reference_relevant_states(d: PtDfa) -> set:
    """Reference for ``relevant_states``: forward and backward marks,
    intersected state by state in a set comprehension."""
    n = d.n
    fwd = bytearray(n)
    fwd[d.initial] = 1
    stack = [d.initial]
    while stack:
        q = stack.pop()
        for h in d.heads[d.out_first[q]:d.out_first[q + 1]]:
            if not fwd[h]:
                fwd[h] = 1
                stack.append(h)
    in_order, in_first = bucket_by(d.heads, n)
    bwd = bytearray(n)
    stack = list(d.finals)
    for q in stack:
        bwd[q] = 1
    while stack:
        q = stack.pop()
        for k in range(in_first[q], in_first[q + 1]):
            t = d.tails[in_order[k]]
            if not bwd[t]:
                bwd[t] = 1
                stack.append(t)
    keep = {q for q in range(n) if fwd[q] and bwd[q]}
    keep.add(d.initial)
    return keep


def all_words(alpha, max_len):
    """Every word over 0..alpha-1 up to the given length, shortest first."""
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in range(alpha)]
        words.extend(frontier)
    return words


def step_map(d):
    """Dict view {(tail, label): head} of the partial function."""
    return {(t, a): h for t, a, h in d.transitions()}


def word_run(step, q, word, finals):
    for a in word:
        q = step.get((q, a))
        if q is None:
            return False
    return q in finals


def language_fingerprint(d, q0, max_len):
    """The set of words of bounded length accepted from state q0."""
    step = step_map(d)
    return frozenset(w for w in all_words(d.alpha, max_len)
                     if word_run(step, q0, w, d.finals))


def brute_relevant(d):
    """Independent relevant-state computation: dict-based forward
    reachability plus a plain backward fixpoint over the triples."""
    step = step_map(d)
    seen = {d.initial}
    stack = [d.initial]
    while stack:
        q = stack.pop()
        for a in range(d.alpha):
            h = step.get((q, a))
            if h is not None and h not in seen:
                seen.add(h)
                stack.append(h)
    alive = set(d.finals)
    for _ in range(d.n):
        alive |= {t for t, _, h in d.transitions() if h in alive}
    rel = {q for q in seen if q in alive}
    rel.add(d.initial)
    return rel


def minimal_sizes_by_enumeration(d):
    """(states, transitions) of the minimal automaton, computed by
    bucketing relevant states on their bounded-word languages.

    Words up to length 2n are enough to separate any two states with
    different languages at this size.
    """
    rel = brute_relevant(d)
    if not (rel & d.finals):
        return 1, 0
    fps = {q: language_fingerprint(d, q, 2 * d.n) for q in rel}
    classes = {}
    for q in sorted(rel):
        classes.setdefault(fps[q], []).append(q)
    step = step_map(d)
    m_min = 0
    for members in classes.values():
        rep = members[0]
        for a in range(d.alpha):
            h = step.get((rep, a))
            if h is not None and h in rel:
                m_min += 1
    return len(classes), m_min


def with_final_chain(d: PtDfa, length: int = _ROUNDS + 3) -> PtDfa:
    """``d`` with a one-letter chain of ``length`` + 1 final states.

    A new initial state has the transitions and the finality of the
    initial state of ``d``, and one more on the fresh label ``d.alpha``
    into the chain, so every state of ``d`` keeps its language, and the
    states that ``d`` merges still merge.  The chain's states share one
    block of the label-set start but the last, and each signature round
    separates only the next one from the end, so after ``_ROUNDS``
    rounds the chain still splits and the run falls back to the
    worklist.  Every state of the chain is final, so the chain adds no
    dead state and no state without a final successor."""
    s = d.n
    c = s + 1
    entry = [(s, a, h) for t, a, h in d.transitions() if t == d.initial]
    chain = [(s, d.alpha, c)] + [(c + i, d.alpha, c + i + 1)
                                  for i in range(length)]
    finals = set(d.finals) | set(range(c, c + length + 1))
    if d.initial in d.finals:
        finals.add(s)
    return PtDfa.from_triples(c + length + 1, d.alpha + 1,
                              d.transitions() + entry + chain, s, finals)


def fifo_order(ref):
    """A ``loop_hook`` that makes the refinement take its pending sets
    first in, first out: it moves the oldest to the end of
    ``ref.unready``, where the round pops it."""
    u = ref.unready
    u.append(u.pop(0))


def shuffled_order(seed):
    """A ``loop_hook`` that shuffles ``ref.unready`` in place before
    each round, from its own ``random.Random(seed)``."""
    rng = random.Random(seed)
    return lambda ref: rng.shuffle(ref.unready)


def worklist_invariant_ok(ref):
    """Brute-force check of the refinement loop invariant: same-block
    states either agree on the block of their a-successor, or that
    successor block is still paired with a in the worklist."""
    dp = ref.dp
    step = step_map(dp)
    pending = ref.unready_pairs()
    block = [ref.brp.set_of(q) for q in range(dp.n)]
    for q1 in range(dp.n):
        for q2 in range(q1 + 1, dp.n):
            if block[q1] != block[q2]:
                continue
            for a in range(dp.alpha):
                h1 = step.get((q1, a))
                h2 = step.get((q2, a))
                b1 = None if h1 is None else block[h1]
                b2 = None if h2 is None else block[h2]
                if b1 == b2:
                    continue
                if b1 is not None and (b1, a) in pending:
                    continue
                if b2 is not None and (b2, a) in pending:
                    continue
                return False
    return True


def final_partition_violations(dp, blocks, lang_cls):
    """Count violations of the two final-partition conditions.

    (a) states with equal languages must share a block; (b) states in
    one block must send every symbol to one block (missing transitions
    matching missing transitions).
    """
    violations = 0
    blocks_of_class = {}
    for q, c in enumerate(lang_cls):
        blocks_of_class.setdefault(c, set()).add(blocks[q])
    violations += sum(1 for s in blocks_of_class.values() if len(s) > 1)
    step = step_map(dp)
    members_of = {}
    for q, b in enumerate(blocks):
        members_of.setdefault(b, []).append(q)
    for members in members_of.values():
        for a in range(dp.alpha):
            succ = set()
            for q in members:
                h = step.get((q, a))
                succ.add(None if h is None else blocks[h])
            if len(succ) > 1:
                violations += 1
    return violations


def iter_tiny_dfas():
    """Every PT-DFA with n <= 3, alpha <= 2 and initial state 0: all
    partial transition functions, all final-state sets."""
    for n in (1, 2, 3):
        for alpha in (1, 2):
            cells = n * alpha
            for code in range((n + 1) ** cells):
                triples = []
                c = code
                for cell in range(cells):
                    h = c % (n + 1)
                    c //= n + 1
                    if h:
                        triples.append((cell // alpha, cell % alpha, h - 1))
                for fmask in range(2 ** n):
                    finals = frozenset(q for q in range(n) if fmask >> q & 1)
                    yield PtDfa.from_triples(n, alpha, triples, 0, finals)


@dataclass
class TinyReport:
    total: int = 0
    iso_mismatches: int = 0
    bound_violations: int = 0
    enum_mismatches: int = 0
    failures: list = field(default_factory=list)


@lru_cache(maxsize=1)
def tiny_sweep_report() -> TinyReport:
    """Run all three minimizers plus the enumeration count over the
    exhaustive tiny sweep once per test session."""
    report = TinyReport()
    for d in iter_tiny_dfas():
        report.total += 1
        out_v, stats = minimize_with_stats(d)
        out_o = oracle_minimize(d)
        out_h, _ = hopcroft_minimize(d)
        if not (out_v == out_o == out_h):
            report.iso_mismatches += 1
            if len(report.failures) < 5:
                report.failures.append(("iso", d))
        if not stats.within_scan_bounds():
            report.bound_violations += 1
            if len(report.failures) < 5:
                report.failures.append(("bounds", d))
        if (out_o.n, out_o.m) != minimal_sizes_by_enumeration(d):
            report.enum_mismatches += 1
            if len(report.failures) < 5:
                report.failures.append(("enum", d))
    return report
