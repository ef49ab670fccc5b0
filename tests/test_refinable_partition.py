import random

import pytest

from ptdfa import RefinablePartition

from helpers import ModelPartition, as_int32, assert_agrees, check_partition

# Whether the partition's buffers are turned into int32 arrays.
STORAGE = [False, True]


def _fresh(max_elems, int32):
    rp = RefinablePartition(max_elems)
    return as_int32(rp) if int32 else rp


@pytest.mark.parametrize("int32", STORAGE)
def test_create_single_set(int32):
    rp = _fresh(4, int32)
    assert rp.sets == 1
    assert rp.size(0) == 4
    assert all(rp.set_of(e) == 0 for e in range(4))
    check_partition(rp)


def test_create_singleton_universe():
    rp = RefinablePartition(1)
    assert rp.sets == 1
    assert rp.size(0) == 1


def test_create_empty_universe_has_no_sets():
    for int32 in STORAGE:
        rp = _fresh(0, int32)
        assert len(rp.sidx) == 0 and rp.sets == 0
        check_partition(rp)


def test_create_rejects_negative_size():
    with pytest.raises(ValueError):
        RefinablePartition(-1)


def _elements(rp, s):
    return list(rp.elems[rp.first[s]:rp.end[s]])


@pytest.mark.parametrize("int32", STORAGE)
def test_scan_yields_each_element_once(int32):
    rp = _fresh(6, int32)
    seen = _elements(rp, 0)
    assert sorted(seen) == list(range(6))
    assert len(seen) == 6


def test_singleton_set_scan_ends_immediately():
    rp = RefinablePartition(2)
    rp.mark(1)
    s = rp.split(0)
    assert rp.size(s) == 1
    assert _elements(rp, s) == [1]


def test_split_even_halves():
    rp = RefinablePartition(4)
    rp.mark(1)
    rp.mark(3)
    new = rp.split(0)
    assert new == 1
    assert rp.size(0) == 2 and rp.size(new) == 2
    assert set(_elements(rp, new)) == {1, 3}
    assert set(_elements(rp, 0)) == {0, 2}
    assert rp.set_of(1) == rp.set_of(3) != rp.set_of(0) == rp.set_of(2)
    check_partition(rp)


def test_split_single_mark():
    rp = RefinablePartition(4)
    rp.mark(1)
    new = rp.split(0)
    assert sorted([rp.size(0), rp.size(new)]) == [1, 3]


def test_set_of_constant_across_mark_without_split():
    rp = RefinablePartition(4)
    before = [rp.set_of(e) for e in range(4)]
    rp.mark(2)
    assert [rp.set_of(e) for e in range(4)] == before


def test_mark_is_idempotent():
    rp = RefinablePartition(4)
    rp.mark(2)
    rp.mark(2)
    new = rp.split(0)
    assert rp.size(new) == 1 and rp.size(0) == 3
    check_partition(rp)


def test_mark_keeps_permutation_invariants():
    rng = random.Random(5)
    rp = RefinablePartition(12)
    for _ in range(40):
        rp.mark(rng.randrange(12))
        check_partition(rp)


def test_no_marks_reporting():
    rp = RefinablePartition(2)
    assert rp.no_marks(0)
    rp.mark(0)
    assert not rp.no_marks(0)


def test_split_nothing_marked_returns_none():
    rp = RefinablePartition(4)
    assert rp.split(0) is None
    assert rp.sets == 1


def test_split_everything_marked_returns_none_and_unmarks():
    rp = RefinablePartition(4)
    for e in range(4):
        rp.mark(e)
    assert rp.split(0) is None
    assert rp.sets == 1
    assert rp.no_marks(0)
    check_partition(rp)


def test_split_unmarks_both_sides():
    rp = RefinablePartition(5)
    rp.mark(0)
    rp.mark(4)
    new = rp.split(0)
    assert rp.no_marks(0) and rp.no_marks(new)


def test_fresh_indices_are_dense():
    rp = RefinablePartition(8)
    splits = 0
    for e in (0, 1, 2):
        rp.mark(e)
        got = rp.split(rp.set_of(e))
        assert got is not None
        splits += 1
        assert rp.sets == 1 + splits


@pytest.mark.parametrize("int32", STORAGE)
def test_model_equivalence_randomized(int32):
    """Random mark/split sequences agree with the naive model and keep
    every structural invariant, after every operation."""
    rng = random.Random(20_000 + int32)
    for _ in range(400):
        max_elems = rng.randrange(1, 65)
        rp = _fresh(max_elems, int32)
        model = ModelPartition(max_elems)
        for _ in range(rng.randrange(1, 30)):
            if rng.random() < 0.7:
                e = rng.randrange(max_elems)
                rp.mark(e)
                model.mark(e)
            else:
                s = rng.randrange(rp.sets)
                assert rp.split(s) == model.split(s)
            check_partition(rp)
            assert_agrees(rp, model)
            assert rp.sets == len(model.members)
            for s in range(rp.sets):
                assert rp.size(s) == model.size(s)
                assert rp.no_marks(s) == model.no_marks(s)


def test_amortized_split_work_bounded_by_marks():
    rng = random.Random(99)
    rp = RefinablePartition(64)
    for _ in range(5000):
        if rng.random() < 0.6:
            rp.mark(rng.randrange(64))
        else:
            rp.split(rng.randrange(rp.sets))
    assert rp.split_steps <= rp.mark_calls + rp.split_calls
