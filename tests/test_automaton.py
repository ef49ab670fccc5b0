import random
import tracemalloc

import pytest

from ptdfa import (
    AutomatonError, ParseError, PtDfa, UnreachableStateError, ValidationError,
    accepts, canonicalize, empty_dfa, final_blocks, generate,
    hopcroft_minimize, is_isomorphic, minimize, oracle_minimize, parse,
    relevant_states, restrict, serialize, validate,
)

from helpers import (
    FAULT_CLASSES, fault_class, mutated_texts, parse_outcome,
    reference_canonicalize, reference_parse, reference_serialize,
    reference_validate, step_map, word_run,
)


def _reachable_part(d):
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
    return restrict(d, seen)


def test_validate_minimal_automaton():
    d = validate(1, 1, [], 0, set())
    assert d.n == 1 and d.alpha == 1 and d.m == 0 and d.finals == frozenset()


def test_validate_rejects_nondeterminism():
    with pytest.raises(ValidationError) as exc:
        validate(2, 1, [(0, 0, 0), (0, 0, 1)], 0, set())
    assert "duplicate transition key (tail=0, label=0)" in str(exc.value)


def test_validate_rejects_out_of_range_initial():
    with pytest.raises(ValidationError) as exc:
        validate(2, 1, [], 5, set())
    assert "initial state 5" in str(exc.value)


def test_validate_rejects_empty_state_set():
    with pytest.raises(ValidationError) as exc:
        validate(0, 1, [], 0, set())
    assert "empty state set" in str(exc.value)


def test_validate_collects_multiple_diagnostics():
    with pytest.raises(ValidationError) as exc:
        validate(2, 2, [(0, 5, 1), (9, 0, 0)], 0, {7})
    assert len(exc.value.diagnostics) == 3


def test_validate_names_a_tail_out_of_range_in_unsorted_input():
    # Out of (tail, label) order: the tails are range-checked before any
    # sort, which a tail of 5 stops.
    with pytest.raises(ValidationError) as exc:
        validate(3, 2, [(1, 0, 0), (0, 0, 1), (5, 1, 0)], 0, [])
    assert exc.value.diagnostics == ["tail 5 out of range in transition #2"]


def test_parse_header_only():
    d = parse("dfa 1 1 0 0 0\n")
    assert d.n == 1 and d.m == 0 and d.finals == frozenset()


def test_parse_comments_and_blanks():
    text = "# a comment\n\ndfa 2 1 1 1 0\n0 0 1\n# another\n1\n"
    d = parse(text)
    assert d.m == 1 and d.finals == {1}


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse("dfa 2 1 1 0 0\n0 zero 1\n")
    assert exc.value.line == 2


def test_parse_bad_header():
    with pytest.raises(ParseError) as exc:
        parse("dfa 1 1\n")
    assert exc.value.line == 1


def test_parse_wrong_line_count():
    with pytest.raises(ParseError):
        parse("dfa 2 1 2 0 0\n0 0 1\n")


_OUTSIDE_THE_GRAMMAR = [
    ("dfa 2 1 1 0 0\n+0 0 1\n", 2),
    ("dfa 2 1 1 0 0\n1_0 0 1\n", 2),
    ("dfa 2 1 1 0 0\n0 \u0660 1\n", 2),            # ARABIC-INDIC DIGIT ZERO
    ("dfa 2 1 1 0 0\n0\t0 1\n", 2),
    ("dfa 2 1 1 0 0\n0  0 1\n", 2),
    ("dfa 2 1 1 0 0\n 0 0 1\n", 2),
    ("dfa 2 1 1 0 0\n0 0 1 \n", 2),
    ("dfa 2 1 1 1 0\r\n0 0 1\r\n1\r\n", 1),
    ("# comment\r\ndfa 2 1 1 1 0\n0 0 1\r\n1\n", 3),
    ("dfa 2 1 1 0 0\n0 -1 1\n", 2),
    ("dfa 2 1 1 0 0 0\n0 0 1\n", 1),
    ("\n#\ndfa 2 1 1 0\n0 0 1\n", 3),
    ("dfa 2 1 1 1 0\n0 0 1\n01\n", 3),
    ("dfa 2 1 1 1 0\n0 0 1\n  \n1\n", 3),
    ("dfa 2 1 1 1 0\n0 0 1 # note\n1\n", 2),
    ("dfa 2 1 1 1 0\n0 0\n1 1\n", 2),
    ("dfa 3 2 2 0 0\n0 0\n1 x 2\n", 2),
    ("", 1),
]


@pytest.mark.parametrize("text, line", _OUTSIDE_THE_GRAMMAR)
def test_parse_rejects_text_outside_the_grammar(text, line):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == line


@pytest.mark.parametrize("text, line", _OUTSIDE_THE_GRAMMAR)
def test_parse_rejects_text_after_a_comment_one_line_down(text, line):
    # A comment line sends the text through the branch that filters out
    # comment and empty lines; the error is the same, one line down.  A
    # text without a header line is refused at line 1 either way.
    with pytest.raises(ParseError) as plain:
        parse(text)
    with pytest.raises(ParseError) as commented:
        parse("# c\n" + text)
    shifted = line + 1 if text else 1
    message = str(plain.value).removeprefix(f"line {line}: ")
    assert commented.value.line == shifted
    assert str(commented.value) == f"line {shifted}: {message}"


def test_parse_line_count_edges():
    d = parse("dfa 1 1 0 0 0")
    assert d == parse("dfa 1 1 0 0 0\n") == validate(1, 1, [], 0, [])
    assert parse("dfa 2 1 1 1 0\n0 0 1\n1") == parse("dfa 2 1 1 1 0\n0 0 1\n1\n")
    with pytest.raises(ParseError) as exc:
        parse("dfa 1 1 0 1 0\n")  # the final-state line is missing
    assert exc.value.line == 1
    assert "expected 0 transition and 1 final-state lines, found 0" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse("dfa 2 1 0 1 0\n1 1\n")
    assert exc.value.line == 2
    assert "final-state line must be a single state" in str(exc.value)


def test_parse_refuses_numbers_above_int32():
    with pytest.raises(ValidationError) as exc:
        parse("dfa 3000000000 1 1 0 0\n2999999999 0 1\n")
    assert exc.value.diagnostics == [
        "header field n=3000000000 is above the int32 range"]
    with pytest.raises(ValidationError) as exc:
        parse("dfa 2 1 1 1 0\n0 0 3000000000\n2147483648\n")
    assert exc.value.diagnostics == [
        "final state 2147483648 out of range 0..1",
        "head 3000000000 out of range in transition #0"]
    with pytest.raises(ValidationError) as exc:
        parse("dfa 2 1 1 0 0\n0 0 2147483647\n")
    assert exc.value.diagnostics == ["head 2147483647 out of range in transition #0"]


@pytest.mark.parametrize("text, args", [
    ("dfa 2 1 2 0 0\n0 0 1\n0 0 3000000000\n",
     (2, 1, [(0, 0, 1), (0, 0, 3000000000)], 0, [])),
    ("dfa 2 1 1 2 0\n0 0 1\n5\n2147483648\n",
     (2, 1, [(0, 0, 1)], 0, [5, 2147483648])),
    # too long for int(): shortened, with the same leading digits
    (f"dfa 2 1 2 0 0\n0 0 1\n0 0 12345678901234567890{'0' * 4979}5\n",
     (2, 1, [(0, 0, 1), (0, 0, 12345678901234567890 * 10**4980 + 5)], 0, [])),
    # listed by value, the longer one last
    (f"dfa 2 1 0 2 0\n1{'0' * 4399}\n1{'0' * 4301}\n",
     (2, 1, [], 0, [10**4399, 10**4301])),
    # equal length and leading digits, yet two numbers
    (f"dfa 2 1 2 0 0\n1{'0' * 4999} 0 1\n1{'0' * 4998}1 0 1\n",
     (2, 1, [(10**4999, 0, 1), (10**4999 + 1, 0, 1)], 0, [])),
    (f"dfa 2 1 0 2 0\n1{'0' * 4999}\n1{'0' * 4998}1\n",
     (2, 1, [], 0, [10**4999, 10**4999 + 1])),
], ids=["duplicate-key", "final-states", "too-long-for-int", "too-long-finals",
        "too-long-tails-differ-late", "too-long-finals-differ-late"])
def test_parse_above_int32_gives_the_diagnostics_of_validate(text, args):
    with pytest.raises(ValidationError) as parsed:
        parse(text)
    with pytest.raises(ValidationError) as validated:
        validate(*args)
    assert parsed.value.diagnostics == validated.value.diagnostics
    assert len(parsed.value.diagnostics) == 2


def test_parse_refuses_numbers_longer_than_int_converts():
    huge = "9" * 5000
    for text in (f"dfa {huge} 1 0 0 0\n", f"dfa 2 1 1 0 0\n0 {huge} 1\n",
                 f"dfa 2 1 0 1 0\n{huge}\n"):
        with pytest.raises(ValidationError) as exc:
            parse(text)
        assert "(5000 digits)" in str(exc.value)


def test_parse_shows_a_million_digit_numeral_from_its_text():
    huge = "12345678901234567890" + "7" * (10**6 - 20)
    shown = "12345678901234567890...(1000000 digits)"
    for text, diagnostics in (
            (f"dfa {huge} 1 0 0 0\n",
             [f"header field n={shown} is above the int32 range"]),
            (f"dfa 2 1 1 1 0\n0 0 {huge}\n{huge}\n",
             [f"final state {shown} out of range 0..1",
              f"head {shown} out of range in transition #0"])):
        with pytest.raises(ValidationError) as exc:
            parse(text)
        assert exc.value.diagnostics == diagnostics


def _noisy(d, rng) -> str:
    """The text of ``d`` with its transitions shuffled and comment and
    empty lines put between the data lines."""
    lines = serialize(d).split("\n")[:-1]
    transitions = lines[1:1 + d.m]
    rng.shuffle(transitions)
    out = []
    for line in [lines[0]] + transitions + lines[1 + d.m:] + [None]:
        while rng.random() < 0.2:
            out.append(rng.choice(["", "#", "# 0 0 1", "#\t+1 \u0660\r"]))
        if line is not None:
            out.append(line)
    return "\n".join(out) + rng.choice(["", "\n"])


def test_parse_agrees_with_reference_parser():
    rng = random.Random(23)
    cases = [generate(1, 1, 0.2, 0, seed=0), generate(3, 1, 0.1, 2, seed=1),
             generate(4, 2, 1.0, 0, seed=2)]
    assert [cases[0].m, cases[1].m, len(cases[2].finals)] == [0, 0, 0]
    for i in range(200):
        n = rng.randrange(1, 40)
        cases.append(generate(n, rng.randrange(1, 6), rng.choice([0.05, 0.3, 1.0]),
                              rng.randrange(0, n + 1), seed=i))
    for d in cases:
        text = _noisy(d, rng)
        assert parse(text) == reference_parse(text)
        assert parse(serialize(d)) == d
        # The canonical text is sliced; with a comment and an empty line
        # it is filtered first, and reads as the same automaton.
        assert parse("# c\n" + serialize(d) + "\n") == d


def test_parse_agrees_with_reference_on_seeded_edits():
    # Canonical texts with one to three edits each: parse must give the
    # strict reference's PtDfa, or its error class, line, message and
    # diagnostics, and the edits must reach every documented fault.
    seen = set()
    for text in mutated_texts(seed=31, count=3000):
        expected = parse_outcome(reference_parse, text)
        assert parse_outcome(parse, text) == expected, text
        seen.add(fault_class(text, expected))
    assert seen == set(FAULT_CLASSES)


def test_validate_diagnostics_match_reference():
    rng = random.Random(29)
    for _ in range(400):
        args = (rng.randrange(-1, 5), rng.randrange(-1, 4),
                [(rng.randrange(-1, 5), rng.randrange(-1, 4), rng.randrange(-1, 5))
                 for _ in range(rng.randrange(0, 6))],
                rng.randrange(-1, 5),
                [rng.randrange(-1, 5) for _ in range(rng.randrange(0, 3))])
        outcomes = []
        for check in (validate, reference_validate):
            try:
                outcomes.append(check(*args))
            except ValidationError as exc:
                outcomes.append(exc.diagnostics)
        assert outcomes[0] == outcomes[1]


def test_validate_refuses_values_that_are_not_ints():
    with pytest.raises(ValidationError) as exc:
        validate(2, 1, [(0.9, 0, 1)], 0, [1.0])
    assert exc.value.diagnostics == ["final state 1.0 is not an int",
                                     "tail 0.9 is not an int in transition #0"]
    with pytest.raises(ValidationError) as exc:
        validate(2, 1, [(0, False, 1), (1, 0)], 0, [True])
    assert exc.value.diagnostics == [
        "final state True is not an int",
        "label False is not an int in transition #0",
        "transition #1 is not a (tail, label, head) triple"]
    # A record with no length at all.
    with pytest.raises(ValidationError) as exc:
        validate(2, 1, [5], 0, [])
    assert exc.value.diagnostics == [
        "transition #0 is not a (tail, label, head) triple"]
    with pytest.raises(ValidationError) as exc:
        validate(2.0, 1, [], 0, [])
    assert exc.value.diagnostics == ["n 2.0 is not an int"]


def test_validate_refuses_values_beyond_int32():
    big = 2**31
    with pytest.raises(ValidationError) as exc:
        validate(big, big, [], 0, [])
    assert exc.value.diagnostics == [
        "state count n=2147483648 is above the int32 range",
        "alphabet size 2147483648 is above the int32 range"]
    with pytest.raises(ValidationError) as exc:
        validate(2, 1, [(0, 0, big), (-big - 1, 0, 1)], 0, [])
    assert exc.value.diagnostics == [
        "head 2147483648 out of range in transition #0",
        "tail -2147483649 out of range in transition #1"]
    assert validate(big - 1, 1, [(big - 2, 0, 0)], 0, [big - 2]).n == big - 1
    # more digits than str() converts; shortened as parse shortens them
    with pytest.raises(ValidationError) as exc:
        validate(2, 1, [(0, 0, 10**5000)], 0, [])
    assert exc.value.diagnostics == [
        "head 10000000000000000000...(5001 digits) out of range in transition #0"]


def test_unsorted_input_reserializes_sorted():
    text = "dfa 3 2 3 2 0\n2 1 0\n0 0 1\n0 1 2\n2\n1\n"
    d = parse(text)
    assert serialize(d) == "dfa 3 2 3 2 0\n0 0 1\n0 1 2\n2 1 0\n1\n2\n"


def test_round_trip_is_identity_on_canonical_text():
    rng = random.Random(7)
    for i in range(60):
        n = rng.randrange(1, 9)
        d = generate(n, rng.randrange(1, 5), rng.choice([0.2, 0.5, 0.9]),
                     rng.randrange(0, n + 1), seed=i)
        text = serialize(d)
        assert serialize(parse(text)) == text


def _trie(words, alpha):
    """The prefix tree of ``words``, states numbered in the order the
    words first reach them, so not breadth-first."""
    children = [{}]
    finals = set()
    for word in words:
        q = 0
        for a in word:
            if a not in children[q]:
                children[q][a] = len(children)
                children.append({})
            q = children[q][a]
        finals.add(q)
    triples = [(t, a, h) for t, kids in enumerate(children)
               for a, h in kids.items()]
    return PtDfa.from_triples(len(children), alpha, triples, 0, finals)


def test_serialize_agrees_with_reference():
    rng = random.Random(41)
    cases = [generate(1, 1, 0.2, 0, seed=0), generate(3, 1, 0.1, 2, seed=1),
             generate(4, 1, 1.0, 0, seed=2)]
    assert [cases[0].m, cases[1].m, len(cases[2].finals)] == [0, 0, 0]
    for i in range(200):
        n = rng.randrange(1, 40)
        cases.append(generate(n, rng.choice([1, 2, 5, 9]),
                              rng.choice([0.05, 0.3, 1.0]),
                              rng.randrange(0, n + 1), seed=4100 + i))
    for d in cases:
        triples = d.transitions()
        rng.shuffle(triples)
        shuffled = PtDfa.from_triples(d.n, d.alpha, triples, d.initial,
                                      d.finals)
        for e in (d, shuffled, canonicalize(_reachable_part(d))):
            assert serialize(e) == reference_serialize(e)
    words = [[rng.randrange(6) for _ in range(rng.randrange(1, 5))]
             for _ in range(40)]
    trie = _trie(words, 6)
    assert serialize(trie) == reference_serialize(trie)
    # from_triples sorts its triples whole, so even a repeated
    # (tail, label) key, which it does not check, comes out sorted by
    # (tail, label, head).
    twice = PtDfa.from_triples(3, 2, [(0, 0, 2), (1, 0, 2), (1, 0, 0),
                                      (1, 1, 1)], 0, {2, 0})
    assert serialize(twice) == reference_serialize(twice) == \
        "dfa 3 2 4 2 0\n0 0 2\n1 0 0\n1 0 2\n1 1 1\n0\n2\n"


def test_serialize_agrees_with_reference_at_chunk_boundaries():
    # serialize formats up to 4096 transitions per chunk: no chunk, a
    # short one, one chunk less one, exactly one, one past it, and two
    # chunks plus one.
    for m in (0, 1, 4095, 4096, 4097, 8193):
        n = max(1, (m + 2) // 3)
        d = PtDfa.from_triples(n, 3, [(i // 3, i % 3, (7 * i + 1) % n)
                                      for i in range(m)], 0, {0, n - 1})
        assert d.m == m
        assert serialize(d) == reference_serialize(d)
    # The largest state and label that n and alpha allow.
    top = 2**31 - 2
    d = PtDfa.from_triples(top + 1, top + 1, [(0, top, top), (top, 0, top)],
                           top, {0, top})
    text = serialize(d)
    assert text == reference_serialize(d)
    assert text.split("\n")[1:3] == [f"0 {top} {top}", f"{top} 0 {top}"]
    assert parse(text) == d


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def test_parse_peak_stays_within_a_multiple_of_the_text():
    # Both forms peak at 8.3 to 8.5 times the text, the one split into
    # lines included; the bound leaves room for other Python versions.
    text = serialize(generate(1000, 100, 0.3, 500, seed=3))
    assert text.count("\n") > 30_000
    for form in (text, "# c\n" + text):
        d, peak = _traced_peak(parse, form)
        assert d.m == 30_000
        assert peak < 10 * len(form)


def test_serialize_peaks_no_higher_than_reference():
    d = canonicalize(_reachable_part(generate(1000, 1000, 0.1, 500, seed=7)))
    assert d.m > 99_000
    text, peak = _traced_peak(serialize, d)
    ref_text, ref_peak = _traced_peak(reference_serialize, d)
    assert text == ref_text
    assert peak <= ref_peak


def test_canonicalize_fixed_point():
    d = canonicalize(_reachable_part(generate(8, 3, 0.9, 4, seed=1)))
    assert canonicalize(d) == d


def _permuted(d, perm):
    triples = [(perm[t], a, perm[h]) for t, a, h in d.transitions()]
    return PtDfa.from_triples(d.n, d.alpha, triples, perm[d.initial],
                              {perm[q] for q in d.finals})


def test_canonicalize_is_permutation_invariant():
    rng = random.Random(13)
    for i in range(40):
        d = _reachable_part(generate(rng.randrange(2, 9), rng.randrange(1, 4),
                                      0.9, rng.randrange(0, 3), seed=100 + i))
        base = canonicalize(d)
        perm = list(range(d.n))
        rng.shuffle(perm)
        assert canonicalize(_permuted(d, perm)) == base


def test_canonicalize_puts_initial_first():
    d = PtDfa.from_triples(2, 1, [(0, 0, 1), (1, 0, 0)], 1, {0})
    c = canonicalize(d)
    assert c.initial == 0
    assert c.finals == {1}


def test_canonicalize_requires_reachability():
    d = PtDfa.from_triples(2, 1, [], 0, {1})
    with pytest.raises(UnreachableStateError):
        canonicalize(d)


def test_canonicalize_allocates_nothing_per_label():
    d = PtDfa.from_triples(2, 10**7, [(0, 10**7 - 1, 1)], 0, {1})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        c = canonicalize(d)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert c == d
    assert peak < 2**20


def _shuffled(d, rng):
    """``d`` with its states renamed at random, the initial state
    included."""
    perm = list(range(d.n))
    rng.shuffle(perm)
    triples = [(perm[t], a, perm[h]) for t, a, h in d.transitions()]
    return PtDfa.from_triples(d.n, d.alpha, triples, perm[d.initial],
                              {perm[q] for q in d.finals})


def test_canonicalize_agrees_with_reference():
    rng = random.Random(37)
    cases = [generate(1, 1, 0.5, 0, seed=0), generate(1, 3, 0.1, 1, seed=1)]
    assert [d.m for d in cases] == [0, 0]
    for i in range(200):
        n = rng.randrange(1, 30)
        cases.append(_reachable_part(generate(
            n, rng.choice([1, 1, 2, 3, 7]), rng.choice([0.1, 0.4, 1.0]),
            rng.randrange(0, min(n, 3) + 1), seed=400 + i)))
    for d in cases:
        d = _shuffled(d, rng)
        assert canonicalize(d) == reference_canonicalize(d)


def test_canonicalize_by_singleton_blocks_is_canonicalize():
    # With no two states in one block, the quotient that canonicalize
    # builds from a permutation has the canonical form of the
    # automaton, which it gives when ``blocks`` is omitted.
    rng = random.Random(43)
    for i in range(100):
        n = rng.randrange(1, 30)
        d = _shuffled(_reachable_part(generate(
            n, rng.choice([1, 2, 3, 7]), rng.choice([0.1, 0.4, 1.0]),
            rng.randrange(0, min(n, 3) + 1), seed=900 + i)), rng)
        perm = list(range(d.n))
        rng.shuffle(perm)
        assert canonicalize(d, perm) == canonicalize(d) == \
            reference_canonicalize(d)


def _naive_quotient(dp, blocks):
    """Quotient by ``blocks`` with the smallest member of each block as
    its representative."""
    rep = {}
    for q, b in enumerate(blocks):
        rep.setdefault(b, q)
    triples = [(blocks[t], a, blocks[h]) for t, a, h in dp.transitions()
               if rep[blocks[t]] == t]
    return PtDfa.from_triples(len(rep), dp.alpha, triples, blocks[dp.initial],
                              {blocks[q] for q in dp.finals})


def test_canonicalize_of_blocks_is_the_canonical_quotient():
    rng = random.Random(41)
    checked = 0
    for i in range(200):
        n = rng.randrange(1, 25)
        d = generate(n, rng.choice([1, 2, 3, 5]), rng.choice([0.2, 0.5, 1.0]),
                     rng.randrange(0, n + 1), seed=700 + i)
        dp, blocks, _ = final_blocks(_shuffled(d, rng))
        if blocks is None:
            continue
        checked += len(set(blocks)) < dp.n
        assert canonicalize(dp, blocks) == reference_canonicalize(
            _naive_quotient(dp, blocks))
    assert checked >= 10  # instances where some states merged


def test_canonicalize_refuses_blocks_outside_its_contract():
    d = PtDfa.from_triples(3, 2, [(0, 0, 1), (0, 1, 2)], 0, {1, 2})
    assert canonicalize(d, [0, 1, 1]).n == 2
    # Too few blocks, a gap in the indices, and a negative index: each
    # used to give an IndexError or a quotient of the wrong size.
    for blocks in ([0, 1], [0, 2, 2], [-1, 1, 1]):
        with pytest.raises(AutomatonError):
            canonicalize(d, blocks)


def test_canonicalize_refuses_block_indices_that_are_not_ints():
    d = PtDfa.from_triples(3, 2, [(0, 0, 1), (0, 1, 2)], 0, {1, 2})
    # A float index used to raise a bare TypeError, and a bool was read
    # as the int it equals.
    for blocks, bad in (([0.0, 1.0, 1.0], "0.0"), ([False, True, True],
                                                   "False"),
                        ([0, 1.0, 1], "1.0"), (["a", "b", "b"], "'a'"),
                        # Equal to an index listed before it.
                        ([0, 1, True], "True"), ([0, 1, 1.0], "1.0")):
        with pytest.raises(AutomatonError,
                           match=f"^block index {bad} is not an int$"):
            canonicalize(d, blocks)


def test_isomorphism_reflexive():
    d = _reachable_part(generate(6, 2, 0.8, 3, seed=2))
    assert is_isomorphic(d, d)


def test_isomorphism_under_permutation():
    rng = random.Random(3)
    for i in range(30):
        d = _reachable_part(generate(rng.randrange(2, 8), 2, 1.0,
                                      rng.randrange(0, 3), seed=200 + i))
        perm = list(range(d.n))
        rng.shuffle(perm)
        assert is_isomorphic(d, _permuted(d, perm))


def test_isomorphism_distinguishes_finality():
    final_one = PtDfa.from_triples(1, 1, [], 0, {0})
    final_none = PtDfa.from_triples(1, 1, [], 0, set())
    assert not is_isomorphic(final_one, final_none)


def test_isomorphism_needs_equal_alphabets():
    a = PtDfa.from_triples(1, 1, [], 0, set())
    b = PtDfa.from_triples(1, 2, [], 0, set())
    assert not is_isomorphic(a, b)


def test_isomorphism_is_equivalence_on_random_triples():
    rng = random.Random(17)
    for i in range(15):
        d = _reachable_part(generate(rng.randrange(2, 7), 2, 1.0,
                                      rng.randrange(0, 3), seed=300 + i))
        p1 = list(range(d.n))
        p2 = list(range(d.n))
        rng.shuffle(p1)
        rng.shuffle(p2)
        a, b, c = d, _permuted(d, p1), _permuted(d, p2)
        assert is_isomorphic(a, b) and is_isomorphic(b, c)
        assert is_isomorphic(b, a)
        assert is_isomorphic(a, c)


def test_accepts_empty_word():
    assert accepts(PtDfa.from_triples(1, 1, [], 0, {0}), [])
    assert not accepts(PtDfa.from_triples(1, 1, [], 0, set()), [])


def test_accepts_dies_on_missing_transition():
    d = PtDfa.from_triples(2, 2, [(0, 0, 1)], 0, {1})
    assert accepts(d, [0])
    assert not accepts(d, [1])
    assert not accepts(d, [0, 0])


def test_accepts_rejects_out_of_range_symbol():
    d = PtDfa.from_triples(1, 1, [], 0, {0})
    with pytest.raises(AutomatonError):
        accepts(d, [3])


def test_accepts_refuses_symbols_that_are_not_ints():
    d = PtDfa.from_triples(2, 2, [(0, 1, 1)], 0, {1})
    assert accepts(d, [1])
    for symbol in (True, 1.0, "a"):
        with pytest.raises(AutomatonError) as exc:
            accepts(d, [symbol])
        assert str(exc.value) == f"symbol {symbol!r} is not an int"


def test_transitions_view_matches_arrays():
    d = validate(3, 2, [(0, 0, 1), (1, 1, 2)], 0, {2})
    assert d.transitions() == [(0, 0, 1), (1, 1, 2)]


def _in_strict_key_order(d):
    keys = list(zip(d.tails, d.labels))
    return all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


def _shuffled_text(text, rng):
    """``text`` with its transition lines in random order."""
    header, *lines = text.split("\n")
    m = int(header.split(" ")[3])
    body = lines[:m]
    rng.shuffle(body)
    return "\n".join([header] + body + lines[m:])


def test_every_builder_returns_strictly_increasing_keys():
    rng = random.Random(47)
    for i in range(60):
        n = rng.randrange(1, 30)
        d = generate(n, rng.choice([1, 2, 5]), rng.choice([0.2, 0.6, 1.0]),
                     rng.randrange(0, n + 1), seed=1300 + i)
        text = serialize(d)
        shuffled = parse(_shuffled_text(text, rng))
        assert shuffled == parse(text) == d
        assert serialize(shuffled) == text
        triples = d.transitions()
        rng.shuffle(triples)
        args = (d.n, d.alpha, triples, d.initial, d.finals)
        keep = {d.initial, *rng.sample(range(n), rng.randrange(n + 1))}
        built = [d, shuffled, validate(*args), PtDfa.from_triples(*args),
                 restrict(d, keep), canonicalize(_reachable_part(d)),
                 empty_dfa(d.alpha), minimize(d), hopcroft_minimize(d)[0],
                 oracle_minimize(d)]
        assert built[2] == built[3] == d
        assert all(map(_in_strict_key_order, built))


def test_sorting_into_key_order_allocates_nothing_per_state():
    d, peak = _traced_peak(validate, 10**7, 2, [(5, 1, 0), (5, 0, 0)], 0, [])
    assert peak < 2**20
    assert d.transitions() == [(5, 0, 0), (5, 1, 0)]


def _twin(text, *diagnostics, name=None):
    return pytest.param(text, list(diagnostics), id=name or text)


# Each text holds a repeated (tail, label) key; the diagnostics name
# every repeat after the first, in the order of the text.
@pytest.mark.parametrize("text, diagnostics", [
    # adjacent, in order otherwise
    _twin("dfa 2 1 2 0 0\n0 0 1\n0 0 0\n",
          "duplicate transition key (tail=0, label=0) at transition #1"),
    # apart, out of order
    _twin("dfa 3 2 3 0 0\n1 0 1\n0 1 2\n1 0 2\n",
          "duplicate transition key (tail=1, label=0) at transition #2"),
    _twin("dfa 3 2 4 0 0\n1 1 0\n0 0 1\n0 1 2\n1 1 2\n",
          "duplicate transition key (tail=1, label=1) at transition #3",
          name="first-and-last-line"),
    _twin("dfa 2 9 10 0 0\n0 3 1\n0 5 0\n0 0 1\n0 8 1\n0 1 0\n0 5 1\n"
          "0 7 0\n0 2 1\n0 6 0\n0 4 1\n",
          "duplicate transition key (tail=0, label=5) at transition #5",
          name="many-labels-shuffled"),
    _twin("dfa 2 9 10 0 0\n0 0 1\n0 1 0\n0 2 1\n0 3 1\n0 4 1\n0 5 0\n"
          "0 5 1\n0 6 0\n0 7 0\n0 8 1\n",
          "duplicate transition key (tail=0, label=5) at transition #6",
          name="many-labels-in-order"),
    _twin("dfa 3 2 6 1 0\n2 0 1\n0 1 2\n2 0 0\n1 1 1\n0 1 0\n2 0 2\n2\n",
          "duplicate transition key (tail=2, label=0) at transition #2",
          "duplicate transition key (tail=0, label=1) at transition #4",
          "duplicate transition key (tail=2, label=0) at transition #5",
          name="three-times-and-twice"),
])
def test_repeated_key_is_refused_in_or_out_of_order(text, diagnostics):
    with pytest.raises(ValidationError) as parsed:
        parse(text)
    # validate gets the same triples, in the order of the text
    header, *lines = text.split("\n")
    n, alpha, m = map(int, header.split(" ")[1:4])
    triples = [tuple(map(int, line.split(" "))) for line in lines[:m]]
    with pytest.raises(ValidationError) as validated:
        validate(n, alpha, triples, 0, [])
    assert parsed.value.diagnostics == validated.value.diagnostics == diagnostics


def _brute_out_index(d):
    rows = [sorted((a, h) for t, a, h in d.transitions() if t == q)
            for q in range(d.n)]
    first = [0]
    for row in rows:
        first.append(first[-1] + len(row))
    return ([a for row in rows for a, _ in row],
            [h for row in rows for _, h in row], first)


def test_out_index_matches_brute_force_grouping():
    rng = random.Random(53)
    cases = [generate(1, 1, 0.5, 0, seed=0), generate(5, 3, 0.01, 2, seed=1),
             PtDfa.from_triples(4, 1, [(2, 0, 0), (0, 0, 3)], 0, {3})]
    assert cases[0].m == cases[1].m == 0
    for i in range(150):
        n = rng.randrange(1, 25)
        cases.append(generate(n, rng.choice([1, 1, 2, 4, 9]),
                              rng.choice([0.1, 0.3, 1.0]),
                              rng.randrange(0, n + 1), seed=1500 + i))
    empty_rows = 0
    for d in cases:
        expected = _brute_out_index(d)
        empty_rows += sum(f == e for f, e in zip(expected[2], expected[2][1:]))
        step = step_map(d)
        assert list(d.out_first) == expected[2]
        assert (list(d.labels), list(d.heads)) == expected[:2]
        assert d.out_first is d.out_first  # computed once
        for _ in range(5):
            word = [rng.randrange(d.alpha) for _ in range(rng.randrange(6))]
            assert accepts(d, word) == word_run(step, d.initial, word, d.finals)
    assert empty_rows > 100  # states with no out-transitions
