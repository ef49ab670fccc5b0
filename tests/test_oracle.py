import random

import pytest

from ptdfa import (
    AlphabetMismatchError, PtDfa, empty_dfa, generate, language_equal,
    minimize, oracle_minimize, relevant_states, restrict,
)
from ptdfa.oracle import language_partition

from helpers import tiny_sweep_report


def test_empty_language_gives_empty_dfa():
    d = PtDfa.from_triples(4, 2, [(0, 0, 1), (1, 1, 2)], 0, set())
    assert oracle_minimize(d) == empty_dfa(2)


def test_already_minimal_is_fixed_point():
    minimal = PtDfa.from_triples(3, 3, [(0, 0, 1), (0, 1, 2), (1, 2, 2)],
                                 0, {1, 2})
    assert oracle_minimize(minimal) == minimal


def test_missing_transition_example_matches_frozen_result():
    d = PtDfa.from_triples(4, 3, [(0, 0, 1), (0, 1, 2), (1, 2, 3)], 0,
                           {1, 2, 3})
    out = oracle_minimize(d)
    assert out.transitions() == [(0, 0, 1), (0, 1, 2), (1, 2, 2)]
    assert out.finals == {1, 2}


def test_oracle_is_idempotent():
    rng = random.Random(55)
    for i in range(100):
        n = rng.randrange(1, 8)
        d = generate(n, rng.randrange(1, 4), rng.choice([0.2, 0.6, 1.0]),
                     rng.randrange(0, n + 1), seed=4000 + i)
        once = oracle_minimize(d)
        assert oracle_minimize(once) == once


def test_output_states_have_distinct_languages():
    rng = random.Random(56)
    for i in range(100):
        n = rng.randrange(1, 9)
        d = generate(n, rng.randrange(1, 4), rng.choice([0.3, 0.8]),
                     rng.randrange(0, n + 1), seed=4500 + i)
        out = oracle_minimize(d)
        cls = language_partition(out)
        assert len(set(cls)) == out.n


def test_language_partition_groups_by_language():
    # 1 and 2 both accept exactly the empty word; 0 accepts {a, b}.
    d = PtDfa.from_triples(3, 2, [(0, 0, 1), (0, 1, 2)], 0, {1, 2})
    cls = language_partition(d)
    assert cls[1] == cls[2] != cls[0]


def test_language_partition_numbers_classes_in_order_of_first_state():
    # oracle_minimize takes the ids of a trimmed automaton as its
    # quotient's states, with no renumbering: they must be 0..k-1, each
    # class numbered when its first state comes.  Untrimmed, the sink's
    # class may hold states too, and the order still holds.
    rng = random.Random(57)
    for i in range(300):
        n = rng.randrange(1, 30)
        d = generate(n, rng.randrange(1, 4), rng.choice([0.1, 0.3, 0.6, 1.0]),
                     rng.randrange(0, n + 1), seed=4700 + i)
        for e in (d, restrict(d, relevant_states(d))):
            cls = language_partition(e)
            assert list(dict.fromkeys(cls)) == list(range(len(set(cls))))


def test_oracle_sizes_match_word_enumeration_exhaustively():
    report = tiny_sweep_report()
    assert report.total == 33652
    assert report.enum_mismatches == 0, report.failures


def test_language_equal_trivial_cases():
    d = generate(5, 2, 0.6, 2, seed=9)
    assert language_equal(d, d)
    assert language_equal(d, minimize(d))
    one_final = PtDfa.from_triples(1, 2, [], 0, {0})
    assert not language_equal(empty_dfa(2), one_final)


def test_language_equal_detects_short_word_difference():
    a = PtDfa.from_triples(2, 1, [(0, 0, 1)], 0, {1})
    b = PtDfa.from_triples(2, 1, [(0, 0, 1)], 0, {0})
    assert not language_equal(a, b)


def test_language_equal_ignores_irrelevant_states():
    a = PtDfa.from_triples(3, 1, [(0, 0, 1)], 0, {1})
    b = restrict(a, relevant_states(a))
    assert language_equal(a, b)


def test_language_equal_requires_matching_alphabets():
    with pytest.raises(AlphabetMismatchError):
        language_equal(empty_dfa(1), empty_dfa(2))
