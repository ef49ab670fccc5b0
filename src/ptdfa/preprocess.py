"""Dead-state removal and the empty-language special case.

A state is worth keeping when it is the initial state, or when it lies
on some path from the initial state to a final state.  Dropping the rest
never changes the language, and afterwards every surviving state has a
nonempty language, which the minimizer's splitting logic relies on.

The forward search walks each state's slice of the heads, delimited by
the automaton's cached out-index offsets (:attr:`PtDfa.out_first`), the
backward search the incoming transitions grouped by head.  Each search
goes breadth first, one level of newly marked states at a time, and
stops after the state whose walk marks the last unmarked state; on a
dense automaton that is long before its last transition.  The minimizer
passes the kept states from one step to the next as a mask of one 0/1
byte per state, which the public functions wrap in a set.  ``restrict``
keeps the relative order of the surviving transitions and renumbers
states in ascending order, so its result keeps the (tail, label) order
that every PtDfa is in.
"""

from array import array
from itertools import compress

from .automaton import AutomatonError, PtDfa, bucket_by

__all__ = ["InitialNotRetainedError", "relevant_states", "restrict",
           "empty_dfa"]


class InitialNotRetainedError(AutomatonError):
    """restrict() requires the kept set to contain the initial state."""


def relevant_states(d: PtDfa, in_index=None) -> set:
    """The initial state plus every state that is both reachable from it
    and able to reach a final state.

    ``in_index``, if given, must be ``bucket_by(d.heads, d.n)``, the
    incoming transitions of each state; it is built when omitted.
    """
    return set(compress(range(d.n), _relevant_mask(d, in_index)))


def _relevant_mask(d: PtDfa, in_index) -> bytearray:
    """The states of :func:`relevant_states` as a 0/1 byte per state."""
    n = d.n
    tails = d.tails

    out_heads, out_first = d.heads, d.out_first
    fwd = bytearray(n)
    fwd[d.initial] = 1
    unmarked = n - 1
    level = [d.initial]
    while level and unmarked:
        reached = []
        for q in level:
            for h in out_heads[out_first[q]:out_first[q + 1]]:
                if not fwd[h]:
                    fwd[h] = 1
                    reached.append(h)
            if len(reached) == unmarked:  # q's walk marked the last state
                break
        unmarked -= len(reached)
        level = reached

    if in_index is None:
        in_index = bucket_by(d.heads, n)
    in_order, in_first = in_index
    bwd = bytearray(n)
    level = list(d.finals)
    for q in level:
        bwd[q] = 1
    unmarked = n - len(level)
    while level and unmarked:
        reached = []
        for q in level:
            # Measured faster here than mapping tails over a slice of
            # in_order, as the forward search maps nothing.
            for k in range(in_first[q], in_first[q + 1]):
                t = tails[in_order[k]]
                if not bwd[t]:
                    bwd[t] = 1
                    reached.append(t)
            if len(reached) == unmarked:
                break
        unmarked -= len(reached)
        level = reached

    # The marks are 0/1 bytes, so one big-int AND intersects them in C.
    both = int.from_bytes(fwd, "little") & int.from_bytes(bwd, "little")
    mask = bytearray(both.to_bytes(n, "little"))
    mask[d.initial] = 1
    return mask


def restrict(d: PtDfa, keep) -> PtDfa:
    """Drop the states outside ``keep`` and every transition touching
    them; survivors are renumbered densely in ascending order and the
    kept transitions stay in their relative order."""
    keep = set(keep)
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
