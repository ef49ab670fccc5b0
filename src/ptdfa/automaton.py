"""PT-DFA values, validation, the text format, and canonical forms.

A PT-DFA is a deterministic finite automaton whose transition function
may be partial: a missing (state, label) entry simply kills the run.
States are 0..n-1, labels are 0..alpha-1.  Transitions are held as three
parallel int32 arrays (tail, label, head); the triple view is the API
boundary.  Values are immutable once built and safe to share.

Every automaton keeps its transitions in strictly increasing (tail,
label) order, as it keeps them deterministic and in range.  This is not
the "suitable order" of the paper: there an alpha-sized array groups the
transitions by label for the initial transition partition, and it "is
not needed, if transitions are in a suitable order in the input", that
is, grouped by label.  Here the label grouping needs no alpha-sized
array whatever the order (:func:`ptdfa.splitter_init.init_trp_grouping`
keys a dict by the labels that occur), and the (tail, label) order
serves the out-index instead.  Every canonical text is in that order:
:func:`parse` and :func:`validate` find it in one C-level pass, and sort
other input into it once.  The labels and heads are then the out-index
of each state in CSR (compressed sparse row) form, and only its n + 1
offsets (:attr:`PtDfa.out_first`) are counted, at most once.
"""

import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from operator import add, itemgetter, lt, mul

__all__ = [
    "AutomatonError", "ValidationError", "ParseError", "UnreachableStateError",
    "PtDfa", "MinimizeStats",
    "validate", "parse", "serialize", "canonicalize", "is_isomorphic", "accepts",
]


_INT32_MAX = 2**31 - 1  # indices and counts live in array("i")
_CHUNK = 4096  # transitions per format call of serialize


class AutomatonError(ValueError):
    """Base class for bad automata and bad automaton text."""


class ValidationError(AutomatonError):
    """One or more structural problems in a raw automaton description."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class ParseError(AutomatonError):
    """Malformed automaton text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnreachableStateError(AutomatonError):
    """Canonical renumbering needs every state reachable from the start."""


@dataclass(frozen=True)
class PtDfa:
    """A validated partial-transition DFA.

    Instances built through :func:`validate` or :func:`parse` are known
    deterministic and in range, with their transitions in strictly
    increasing (tail, label) order.  Code constructing PtDfa directly is
    responsible for those invariants.  ``out_first`` is a view derived
    from the fields, computed at most once.
    """

    n: int
    alpha: int
    tails: array
    labels: array
    heads: array
    initial: int
    finals: frozenset

    @property
    def m(self) -> int:
        """Number of defined transitions."""
        return len(self.tails)

    def transitions(self) -> list:
        """The transitions as (tail, label, head) triples."""
        return list(zip(self.tails, self.labels, self.heads))

    @cached_property
    def out_first(self) -> array:
        """The n + 1 offsets of the out-index: the transitions of state q
        are ``first[q]:first[q + 1]`` of ``labels`` and ``heads``, which
        the key order lists by ascending label.  O(m + n)."""
        counts = [0] * self.n
        for t in self.tails:
            counts[t] += 1
        return array("i", accumulate(counts, initial=0))

    @classmethod
    def from_triples(cls, n, alpha, triples, initial, finals) -> "PtDfa":
        """Build without validation from an iterable of triples, which
        are sorted first."""
        flat = array("i", chain.from_iterable(
            (t, a, h) for t, a, h in sorted(triples)))
        return cls(n, alpha, flat[0::3], flat[1::3], flat[2::3], initial,
                   frozenset(finals))

    def __repr__(self):
        return (f"PtDfa(n={self.n}, alpha={self.alpha}, m={self.m}, "
                f"k={len(self.finals)}, initial={self.initial})")


def validate(n, alpha, transitions, initial, finals) -> PtDfa:
    """Check a raw description and return the PtDfa.

    ``transitions`` is an iterable of (tail, label, head) triples in any
    order; the PtDfa holds them in (tail, label) order.  Every value
    must be a plain ``int``: a float or a bool is refused, never
    coerced.  Raises :class:`ValidationError` carrying one diagnostic per
    problem: a value that is not an int, a record that is not a triple, a
    duplicate (tail, label) key (nondeterminism), an index out of range,
    an empty state set, or n or alpha above the int32 range the arrays
    store.  Each diagnostic names the offending record.
    """
    records = list(transitions)
    finals = list(finals)
    try:
        plain = (set(map(len, records)) <= {3} and set(map(type, chain(
            (n, alpha, initial), finals, chain.from_iterable(records)))) <= {int})
    except TypeError:  # a record with no length
        plain = False
    if plain:
        try:
            tails, labels, heads = (array("i", map(itemgetter(i), records))
                                    for i in range(3))
        except OverflowError:  # a value beyond the int32 range
            heads = None
        if heads is not None and _within(heads, n):
            d = _checked(n, alpha, initial, tails, labels, heads, finals)
            if d is not None:
                return d
    raise ValidationError(_diagnostics(n, alpha, records, initial, finals))


def _within(values, limit: int) -> bool:
    return not values or (min(values) >= 0 and max(values) < limit)


def _in_key_order(tails, labels) -> bool:
    """One C-level pass: are the (tail, label) keys strictly increasing?"""
    return all(map(lt, zip(tails, labels),
                   zip(islice(tails, 1, None), islice(labels, 1, None))))


def _checked(n, alpha, initial, tails, labels, heads, finals):
    """The PtDfa of columns that pass the structural check shared by
    :func:`parse` and :func:`validate`, or None: n and alpha in the
    int32 range, every index in range, no repeated (tail, label) key.
    The heads are an int32 array whose range the caller checked; the
    tails and labels are lists of ints (from :func:`parse`, read without
    creating an int) or int32 arrays, converted once every check has
    passed.  In key order the tails ascend, so the first and the last
    bound them.  Transitions out of key order are sorted into it; a
    repeated key then sits next to its twin, so one pass over the keys
    finds it either way."""
    if not (1 <= n <= _INT32_MAX and 0 <= alpha <= _INT32_MAX
            and 0 <= initial < n and _within(labels, alpha)
            and _within(finals, n)):
        return None
    if _in_key_order(tails, labels):
        if tails and not (tails[0] >= 0 and tails[-1] < n):
            return None
        tails, labels = array("i", tails), array("i", labels)
    elif _within(tails, n):
        tails, labels, heads = _key_sorted(alpha, tails, labels, heads)
        if not _in_key_order(tails, labels):
            return None
    else:
        return None
    return PtDfa(n, alpha, tails, labels, heads, initial, frozenset(finals))


def _key_sorted(alpha, tails, labels, heads) -> tuple:
    """The columns as int32 arrays sorted stably by (tail, label), with
    labels below ``alpha``, so that ``tail * alpha + label`` is a
    one-to-one key.  One C-level sort, whose cost does not depend on n:
    a counting sort by tail would allocate n bins, for two transitions
    as well.  Each column is gathered into a list, the fastest gather,
    and converted at once, so that later passes read it in memory order,
    not through pointers to ints in their scanned order."""
    keys = list(map(add, map(mul, tails, repeat(alpha)), labels))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys
    return tuple(array("i", list(map(column.__getitem__, order)))
                 for column in (tails, labels, heads))


def _diagnostics(n, alpha, records, initial, finals, shown=None) -> list:
    """Every fault of a raw description, one diagnostic per bad record.

    The error path of :func:`parse` and :func:`validate`, run only after
    their fast checks have failed.  ``shown`` writes a number in a
    diagnostic; it defaults to :func:`_decimal`.
    """
    shown = shown or _decimal
    diags = [f"{name} {value!r} is not an int"
             for name, value in (("n", n), ("alpha", alpha),
                                 ("initial state", initial))
             if type(value) is not int]
    if diags:
        return diags
    if n < 1:
        diags.append(f"empty state set (n={shown(n)})")
    elif n > _INT32_MAX:
        diags.append(f"state count n={shown(n)} is above the int32 range")
    if alpha < 0:
        diags.append(f"negative alphabet size ({shown(alpha)})")
    elif alpha > _INT32_MAX:
        diags.append(f"alphabet size {shown(alpha)} is above the int32 range")
    states = f"0..{shown(n - 1)}"
    if n >= 1 and not 0 <= initial < n:
        diags.append(f"initial state {shown(initial)} out of range {states}")
    diags += [f"final state {q!r} is not an int"
              for q in finals if type(q) is not int]
    for q in sorted({q for q in finals if type(q) is int}):
        if not 0 <= q < n:
            diags.append(f"final state {shown(q)} out of range {states}")
    seen = set()
    for i, record in enumerate(records):
        try:
            t, a, h = record
        except (TypeError, ValueError):
            diags.append(f"transition #{i} is not a (tail, label, head) triple")
            continue
        for name, value, limit in (("tail", t, n), ("label", a, alpha),
                                   ("head", h, n)):
            if type(value) is not int:
                diags.append(f"{name} {value!r} is not an int in transition #{i}")
            elif not 0 <= value < limit:
                diags.append(f"{name} {shown(value)} out of range in "
                             f"transition #{i}")
        if type(t) is int and type(a) is int:
            if (t, a) in seen:
                diags.append(f"duplicate transition key (tail={shown(t)}, "
                             f"label={shown(a)}) at transition #{i}")
            seen.add((t, a))
    return diags


_NO_DIGITS = str.maketrans("", "", "0123456789")
_TO_COMMAS = str.maketrans(" \n", ",,")


def parse(text: str) -> PtDfa:
    """Parse the automaton text format.

    The text is split into lines at LF; the LF after the last line is
    optional.  The lines other than comments and empty ones are, in
    order, the header ``dfa <n> <alpha> <m> <k> <initial>``, m transition
    lines ``<tail> <label> <head>`` and k final-state lines ``<state>``.

    * A line with ``#`` in column 0 is a comment; a ``#`` anywhere else
      is an error.
    * Empty lines are skipped; a line of spaces is not empty.
    * Fields are separated by single spaces, with none at the start or
      the end of a line; a tab or a CR is an error.
    * A number is ASCII decimal digits without a leading zero (``0``
      itself is fine).  States are 0-based.
    * n and alpha are at most 2**31 - 1, states lie in 0..n-1, labels in
      0..alpha-1, and no (tail, label) pair appears twice.

    Raises :class:`ParseError`, carrying the 1-based number of the first
    offending line, for text that breaks the grammar: a wrong character,
    field count or line count.  Raises :class:`ValidationError` for a
    number above 2**31 - 1 and for an automaton that breaks the last
    rule: a header field above 2**31 - 1 is named alone, and otherwise
    the diagnostics, one per offending record, are those that
    :func:`validate` gives for the same values.
    """
    if "#" in text or "\n\n" in text or text.startswith("\n"):
        # A comment or an empty line: the data lines are picked out and
        # joined back, so the steps below see one kind of body.
        data = [line for line in text.split("\n") if line and line[0] != "#"]
        first = data[0] if data else ""
        body = "\n".join(data[1:])
        del data  # the line strings would double the peak memory from here on
    else:
        # Every line holds data, but for an empty one after a last LF:
        # the header and the body are sliced off the text as they are.
        first, _, body = text.partition("\n")
        body = body.removesuffix("\n")
    header = first.split(" ")
    if not (len(header) == 6 and header[0] == "dfa"
            and all(_numeral_fault(t) is None and not _above_int32(t)
                    for t in header[1:])):
        raise _text_error(text)
    n, alpha, m, k, initial = map(int, header[1:])
    if (body.count("\n") + 1 if body else 0) != m + k:  # the data lines
        raise _text_error(text)
    # Without its digits a transition line is two spaces and a
    # final-state line is empty.
    if body.translate(_NO_DIGITS) != ("  \n" * m + "\n" * k)[:-1]:
        raise _text_error(text)
    source = f"[{body.translate(_TO_COMMAS)}]"
    del body
    try:
        # The JSON scanner converts the numbers in C.  It refuses the
        # empty field that a run of spaces leaves and a leading zero.
        flat = json.loads(source)
    except ValueError:  # also a numeral too long for int()
        raise _text_error(text) from None
    del source
    end = 3 * m
    # The heads need no check but their range, so they are converted
    # before the other columns are sliced: one list fewer of pointers
    # sits beside the scanned list.
    heads = flat[2:end:3]
    if not _within(heads, n):
        raise _text_error(text)
    heads = array("i", heads)
    tails, labels, finals = flat[0:end:3], flat[1:end:3], flat[end:]
    del flat  # the ints stay, held by the columns
    d = _checked(n, alpha, initial, tails, labels, heads, finals)
    if d is None:
        raise _text_error(text)
    return d


def _numeral_fault(token: str):
    """Why ``token`` is not a number of the text format, or None."""
    if not token:
        return "fields must be separated by single spaces"
    if not (token.isascii() and token.isdigit()):
        return f"expected a decimal number, got {token!r}"
    if token[0] == "0" and len(token) > 1:
        return f"leading zero in {token!r}"
    return None


def _above_int32(numeral: str) -> bool:
    # The length test comes first: int() refuses very long digit strings.
    return len(numeral) > 10 or int(numeral) > _INT32_MAX


def _value(numeral: str, long: dict) -> int:
    """``int(numeral)``, or, for a numeral too long for ``int()``, a
    stand-in built in linear time, entered in ``long`` with the text
    that :func:`_decimal` shows for the number.  The stand-in is the
    numeral's ASCII bytes read as one big-endian number: one value per
    numeral, ordered as the numbers are (a numeral has no leading zero,
    so a longer one has more bytes), and above every number ``int()``
    converts (a d-digit numeral's stand-in is at least 256**(d-1), and
    every numeral that ``int()`` converts is shorter)."""
    try:
        return int(numeral)
    except ValueError:
        digits = len(numeral)
        stand_in = int.from_bytes(numeral.encode(), "big")
        long[stand_in] = f"{numeral[:20]}...({digits} digits)"
        return stand_in


def _decimal(value: int) -> str:
    """``value`` in decimal; above 20 digits, its leading 20 digits and
    its digit count.  Unlike ``str`` it also works past Python's digit
    limit for converting an int to a string."""
    magnitude = abs(value)
    if magnitude < 10**20:
        return str(value)
    # The bit length gives the digit count or one less; one power of
    # ten, the costly part for a huge value, settles which.
    digits = int((magnitude.bit_length() - 1) * 0.30102999566398120) + 1
    lead = magnitude // 10**(digits - 20)
    if lead >= 10**20:
        lead //= 10
        digits += 1
    sign = "-" if value < 0 else ""
    return f"{sign}{lead}...({digits} digits)"


def _text_error(text: str) -> AutomatonError:
    """The error for a text that :func:`parse` refused, found by walking
    its lines again, once and in order: a :class:`ParseError` at the
    first line that breaks the grammar (a wrong line count at the last
    data line), else a :class:`ValidationError`, naming each header field
    above the int32 range or else giving the diagnostics of
    :func:`validate` for the numbers of the text."""
    numbered = [(lineno, line) for lineno, line in enumerate(text.split("\n"), 1)
                if line and line[0] != "#"]
    if not numbered:
        return ParseError(1, "missing header line")
    lineno, header = numbered[0]
    fields = header.split(" ")
    if len(fields) != 6 or fields[0] != "dfa":
        return ParseError(lineno, "header must be 'dfa <n> <alpha> <m> <k> <initial>'")
    for token in fields[1:]:
        if fault := _numeral_fault(token):
            return ParseError(lineno, fault)
    long = {}

    def shown(value):
        return long.get(value) or _decimal(value)

    n, alpha, m, k, initial = values = [_value(t, long) for t in fields[1:]]
    big = [f"header field {name}={shown(value)} is above the int32 range"
           for name, value in zip(("n", "alpha", "m", "k", "initial"), values)
           if value > _INT32_MAX]
    if big:
        return ValidationError(big)
    counted = len(numbered) == 1 + m + k
    numbers = []
    for i, (lineno, line) in enumerate(numbered[1:]):
        tokens = line.split(" ")
        for token in tokens:
            if fault := _numeral_fault(token):
                return ParseError(lineno, fault)
        if not counted:
            continue
        if i < m and len(tokens) != 3:
            return ParseError(
                lineno, "transition line must be '<tail> <label> <head>'")
        if i >= m and len(tokens) != 1:
            return ParseError(lineno, "final-state line must be a single state")
        numbers += (_value(token, long) for token in tokens)
    if not counted:
        return ParseError(numbered[-1][0],
                          f"expected {m} transition and {k} final-state lines, "
                          f"found {len(numbered) - 1} data lines")
    end = 3 * m
    diags = _diagnostics(n, alpha, zip(numbers[0:end:3], numbers[1:end:3],
                                       numbers[2:end:3]), initial, numbers[end:],
                         shown)
    assert diags, "parse refused a text in which no fault is found"
    return ValidationError(diags)


def serialize(d: PtDfa) -> str:
    """Emit the bit-exact canonical text: transitions sorted by
    (tail, label, head), final states ascending, LF line endings.

    The transitions are written as the automaton holds them, which is
    that order.  They are formatted one chunk of up to ``_CHUNK``
    transitions at a time: three strided slice assignments interleave
    the chunk's slices of the three columns in one reused int32 buffer,
    and one ``%`` call formats it.  O(m) in C-level passes; besides the
    formatted parts and their join, one chunk is held at a time.
    """
    tails, labels, heads = d.tails, d.labels, d.heads
    m = d.m
    parts = [f"dfa {d.n} {d.alpha} {m} {len(d.finals)} {d.initial}\n"]
    size = min(m, _CHUNK)
    buf = array("i", [0]) * (3 * size)
    form = "%d %d %d\n" * size
    for i in range(0, m, _CHUNK):
        j = min(i + _CHUNK, m)
        if j - i < size:  # the last chunk, shorter than the others
            del buf[3 * (j - i):]
            form = "%d %d %d\n" * (j - i)
        buf[0::3] = tails[i:j]
        buf[1::3] = labels[i:j]
        buf[2::3] = heads[i:j]
        parts.append(form % tuple(buf))
    parts.append("%d\n" * len(d.finals) % tuple(sorted(d.finals)))
    return "".join(parts)


def bucket_by(keys, nbins: int):
    """Group indices 0..len(keys)-1 by key with one counting-sort pass.

    Returns (order, first) in CSR form, like the out-index with its
    offsets :attr:`PtDfa.out_first`: the indices whose key is b occupy
    order[first[b]:first[b + 1]], ascending, and ``first`` holds
    nbins + 1 offsets.  O(len(keys) + nbins).
    """
    counts = [0] * nbins
    for k in keys:
        counts[k] += 1
    first = list(accumulate(counts, initial=0))
    cursor = first[:-1]
    order = array("i", bytes(4 * len(keys)))
    for i, k in enumerate(keys):
        order[cursor[k]] = i
        cursor[k] += 1
    return order, first


def canonicalize(d: PtDfa, blocks=None) -> PtDfa:
    """Renumber states breadth-first from the initial state, exploring
    labels in ascending order.

    The result is the unique representative of the automaton's
    isomorphism class, so two automata are isomorphic exactly when their
    canonical forms are equal.  With ``blocks``, the block of each state
    numbered densely 0..k-1, the result is the canonical form of the
    quotient of ``d`` by those blocks: one state per block, carrying the
    transitions of one member.  The blocks must be compatible with the
    transitions (members of one block have the same labels defined, with
    heads in the same block), as the blocks of a minimizer's final
    partition are.  Omitting ``blocks`` gives every state a block of its
    own, and so do ``blocks`` of ``d.n`` singletons: that quotient is
    isomorphic to ``d``, so it has the same canonical form, and the
    quotient is not built.  Requires every state (block) to be
    reachable; raises :class:`UnreachableStateError` otherwise.

    Each block is read through its last member's slice of the
    out-index (:attr:`PtDfa.out_first`), which lists the labels in
    ascending order, and so the result's transitions come out in
    (tail, label) order.  When no two states share a block, a state's
    slice of the heads is read as it stands; otherwise each head is
    mapped to its block.  O(n + m): one Python step per transition looks
    for heads not yet numbered, and each block adds its tails as one
    int32 repetition, its labels as one slice and its new heads as one
    C-level map.
    """
    labels, heads, first = d.labels, d.heads, d.out_first
    k = d.n if blocks is None else max(blocks) + 1
    if k == d.n:
        block_of = rep = range(k)
        block = None
    else:
        block_of = blocks
        rep = dict(zip(blocks, range(d.n)))  # the last member of each block
        block = blocks.__getitem__

    initial = block_of[d.initial]
    new_of = [-1] * k
    new_of[initial] = 0
    bfs = [initial]
    ct = array("i")
    cl = array("i")
    ch = array("i")
    tail = array("i", [0])
    # Visiting blocks in their new order with labels ascending emits the
    # transitions already sorted by (tail, label, head).
    for q, b in enumerate(bfs):
        s = rep[b]
        f = first[s]
        e = first[s + 1]
        out = heads[f:e]
        if block is not None:
            out = list(map(block, out))
        for h in out:
            if new_of[h] < 0:
                new_of[h] = len(bfs)
                bfs.append(h)
        tail[0] = q
        ct += tail * (e - f)
        cl += labels[f:e]
        ch.extend(map(new_of.__getitem__, out))
    if len(bfs) != k:
        raise UnreachableStateError(
            f"{k - len(bfs)} state(s) unreachable from the initial state")
    finals = frozenset(new_of[block_of[q]] for q in d.finals)
    return PtDfa(k, d.alpha, ct, cl, ch, 0, finals)


def is_isomorphic(d1: PtDfa, d2: PtDfa) -> bool:
    """True iff the automata differ only by a renaming of states.

    Alphabet sizes are compared literally.  Both inputs must have all
    states reachable (see :func:`canonicalize`).
    """
    if d1.alpha != d2.alpha or d1.n != d2.n or d1.m != d2.m:
        return False
    return canonicalize(d1) == canonicalize(d2)


def accepts(d: PtDfa, word) -> bool:
    """Run the word; True iff the run survives and ends in a final state."""
    word = list(word)
    for a in word:
        if not 0 <= a < d.alpha:
            raise AutomatonError(f"symbol {a} out of range 0..{d.alpha - 1}")
    labels, heads, first = d.labels, d.heads, d.out_first
    q = d.initial
    for a in word:
        e = first[q + 1]
        i = bisect_left(labels, a, first[q], e)
        if i == e or labels[i] != a:
            return False
        q = heads[i]
    return q in d.finals


@dataclass
class MinimizeStats:
    """Instrumentation from one minimization run.

    ``n_core``/``m_core`` are the sizes after dead-state removal; the
    scan counters are bounded by them: splitter scan touches stay within
    m*(floor(lg n) + 1) and smaller-half rescan touches within
    m*floor(lg n) + m.  ``phases`` maps each step of the minimization
    pipeline (``preprocess``, ``refine``, ``canonicalize``, and for the
    completed-table baseline ``complete`` before ``refine``) to its
    seconds; the phases add up to ``seconds``.  A counter that an
    algorithm does not measure is None, never a 0 that reads as measured.
    """

    n_in: int = 0
    m_in: int = 0
    alpha: int = 0
    n_out: int = 0
    m_out: int = 0
    n_core: int = 0
    m_core: int = 0
    splits: int = 0
    splitter_touches: int = 0
    small_half_touches: int = 0
    seconds: float = 0.0
    phases: dict = field(default_factory=dict)

    def within_scan_bounds(self) -> bool:
        """Check the guaranteed worst-case scan counts."""
        if self.n_core < 1:
            return self.splitter_touches == 0 and self.small_half_touches == 0
        lg = self.n_core.bit_length() - 1
        return (self.splitter_touches <= self.m_core * (lg + 1)
                and self.small_half_touches <= self.m_core * lg + self.m_core)

    def as_lines(self) -> list:
        """key=value lines for diagnostic output: the measured counters
        in declaration order, ``seconds``, then one ``phase.<name>`` line
        per phase."""
        counters = [f"{f.name}={value}" for f in fields(self) if f.type is int
                    and (value := getattr(self, f.name)) is not None]
        return counters + [f"seconds={self.seconds:.6f}"] + [
            f"phase.{name}={sec:.6f}" for name, sec in self.phases.items()]
