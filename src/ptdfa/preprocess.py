"""Dead-state removal and the empty-language special case.

A state is worth keeping when it is the initial state, or when it lies
on some path from the initial state to a final state.  Dropping the rest
never changes the language, and afterwards every surviving state has a
nonempty language, which the minimizer's splitting logic relies on.

The forward search walks each state's slice of the heads, delimited by
the automaton's cached out-index offsets (:attr:`PtDfa.out_first`),
breadth first, one level of newly marked states at a time, and stops
after the state whose walk marks the last unmarked state; on a dense
automaton that is long before its last transition.  One bottom-up step
then reads the same slices in C-level passes: if every reachable state
is final or has a final successor, every reachable state reaches a
final state.  Only if that fails is the in-index, the incoming
transitions grouped by head (:func:`~ptdfa.automaton.bucket_by`), built
for a backward search from the final states.  The minimizer passes the
kept states from one step to the next as a mask of one 0/1 byte per
state, which the public functions wrap in a set.  ``restrict`` keeps the
relative order of the surviving transitions and renumbers states in
ascending order, so its result keeps the (tail, label) order that every
PtDfa is in.
"""

from array import array
from itertools import compress, pairwise, repeat, starmap
from operator import gt

from .automaton import AutomatonError, PtDfa, bucket_by

__all__ = ["InitialNotRetainedError", "relevant_states", "restrict",
           "empty_dfa"]


class InitialNotRetainedError(AutomatonError):
    """restrict() requires the kept set to contain the initial state."""


def relevant_states(d: PtDfa) -> set:
    """The initial state plus every state that is both reachable from it
    and able to reach a final state."""
    mask, _ = _relevant_mask(d, bucket_by)
    return set(compress(range(d.n), mask))


def _relevant_mask(d: PtDfa, bucket):
    """The states of :func:`relevant_states` as a 0/1 byte per state,
    and the in-index if the backward search built it, else None.

    ``bucket`` is :func:`~ptdfa.automaton.bucket_by` as the caller looks
    it up; ``bucket(d.heads, d.n)``, the incoming transitions of each
    state, is called only when the bottom-up step fails.  O(n + m)."""
    n = d.n
    fwd = bytearray(n)
    fwd[d.initial] = 1
    if not d.finals:  # no state reaches one: keep the initial state alone
        return fwd, None
    heads, out_first = d.heads, d.out_first
    unmarked = n - 1
    level = [d.initial]
    while level and unmarked:
        reached = []
        for q in level:
            for h in heads[out_first[q]:out_first[q + 1]]:
                if not fwd[h]:
                    fwd[h] = 1
                    reached.append(h)
            if len(reached) == unmarked:  # q's walk marked the last state
                break
        unmarked -= len(reached)
        level = reached

    final = bytearray(n)
    for q in d.finals:
        final[q] = 1
    # The bottom-up step: the heads of each reachable non-final state in
    # turn, until one has no final state among them.  Each slice is read
    # once, so O(n + m) with no alphabet term.
    out_heads = map(heads.__getitem__, starmap(slice, compress(
        pairwise(out_first), map(gt, fwd, final))))
    if all(map(any, map(map, repeat(final.__getitem__), out_heads))):
        return fwd, None

    in_index = in_order, in_first = bucket(heads, n)
    tails = d.tails
    bwd = final  # the final states start marked
    queue = list(d.finals)
    for q in queue:  # breadth first: the queue grows as it is read
        for k in range(in_first[q], in_first[q + 1]):
            t = tails[in_order[k]]
            if not bwd[t]:
                bwd[t] = 1
                queue.append(t)

    # The marks are 0/1 bytes, so one big-int AND intersects them in C.
    both = int.from_bytes(fwd, "little") & int.from_bytes(bwd, "little")
    mask = bytearray(both.to_bytes(n, "little"))
    mask[d.initial] = 1
    return mask, in_index


def restrict(d: PtDfa, keep) -> PtDfa:
    """Drop the states outside ``keep`` and every transition touching
    them; survivors are renumbered densely in ascending order and the
    kept transitions stay in their relative order.  A kept state must be
    an int (not a bool)."""
    keep = set(keep)
    for q in keep:
        if type(q) is not int:
            raise AutomatonError(f"kept state {q!r} is not an int")
    if keep and (min(keep) < 0 or max(keep) >= d.n):
        bad = next(q for q in sorted(keep) if not 0 <= q < d.n)
        raise AutomatonError(f"kept state {bad} out of range 0..{d.n - 1}")
    if d.initial not in keep:
        raise InitialNotRetainedError(
            f"initial state {d.initial} not in the retained set")
    mask = bytearray(d.n)
    for q in keep:
        mask[q] = 1
    return _restricted(d, mask)


def _restricted(d: PtDfa, mask) -> PtDfa:
    """:func:`restrict` to the states whose byte in ``mask`` is 1, the
    initial state among them; ``d`` itself when that is every state."""
    kept = mask.count(1)
    if kept == d.n:
        return d
    new_of = [-1] * d.n
    for new, q in enumerate(compress(range(d.n), mask)):
        new_of[q] = new
    tails = array("i")
    labels = array("i")
    heads = array("i")
    for t, a, h in zip(d.tails, d.labels, d.heads):
        if new_of[t] >= 0 and new_of[h] >= 0:
            tails.append(new_of[t])
            labels.append(a)
            heads.append(new_of[h])
    finals = frozenset(new_of[q] for q in d.finals if new_of[q] >= 0)
    return PtDfa(kept, d.alpha, tails, labels, heads, new_of[d.initial],
                 finals)


def empty_dfa(alpha: int) -> PtDfa:
    """The smallest automaton over the given alphabet accepting nothing:
    one non-final initial state and no transitions."""
    return PtDfa(1, alpha, array("i"), array("i"), array("i"), 0, frozenset())
