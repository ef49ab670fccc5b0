"""Reference minimizer and language-equivalence checks.

Deliberately built on different machinery than the main minimizer: the
transition function is completed with an absorbing sink and state
languages are separated by a quadratic signature-refinement fixpoint
(two states split as soon as their finality or their successor classes
differ).  Slow but simple; intended as ground truth in tests and for
debugging through the CLI, at up to a few hundred states.
"""

from .automaton import AutomatonError, PtDfa, canonicalize
from .preprocess import empty_dfa, relevant_states, restrict

__all__ = ["AlphabetMismatchError", "language_partition", "oracle_minimize",
           "language_equal"]


class AlphabetMismatchError(AutomatonError):
    """Language comparison needs equal alphabet sizes."""


def _completed(d: PtDfa):
    """Flat total transition table over d's states plus a sink at index
    d.n; every missing entry and every sink entry points at the sink."""
    n, alpha = d.n, d.alpha
    sink = n
    nxt = [sink] * ((n + 1) * alpha)
    for t, a, h in zip(d.tails, d.labels, d.heads):
        nxt[t * alpha + a] = h
    return nxt


def language_partition(d: PtDfa) -> list:
    """Class ids per state such that two states share an id exactly when
    they accept the same language.

    The ids are numbered from 0 in order of each class's first state,
    the sink counted as state n, after every state.  So when every state
    accepts some word, the sink's class is the last and holds it alone,
    and the states' ids are exactly 0..k-1 for k classes of states."""
    n, alpha = d.n, d.alpha
    nxt = _completed(d)
    cls = [0] * (n + 1)
    for q in d.finals:
        cls[q] = 1
    count = 2 if d.finals else 1
    while True:
        sigs = {}
        new = [0] * (n + 1)
        for q in range(n + 1):
            base = q * alpha
            key = (cls[q],) + tuple(cls[nxt[base + a]] for a in range(alpha))
            tag = sigs.get(key)
            if tag is None:
                tag = len(sigs)
                sigs[key] = tag
            new[q] = tag
        if len(sigs) == count:
            return new[:n]
        cls = new
        count = len(sigs)


def oracle_minimize(d: PtDfa) -> PtDfa:
    """Brute-force minimal automaton for d's language, canonical form."""
    dp = restrict(d, relevant_states(d))
    if not dp.finals:
        return empty_dfa(d.alpha)
    cls = language_partition(dp)
    # After preprocessing every state accepts something, so no state
    # shares the sink's class: the ids are 0..k-1, in order of first
    # state, and the first state of each class stands for it.
    rep = {}
    for q, c in enumerate(cls):
        rep.setdefault(c, q)
    triples = [(cls[t], a, cls[h]) for t, a, h in zip(dp.tails, dp.labels, dp.heads)
               if rep[cls[t]] == t]
    out = PtDfa.from_triples(len(rep), dp.alpha, triples, cls[dp.initial],
                             {cls[q] for q in dp.finals})
    return canonicalize(out)


def language_equal(d1: PtDfa, d2: PtDfa) -> bool:
    """True iff the two automata accept exactly the same words.

    Explores the product of the sink-completed automata; any reachable
    pair disagreeing on finality witnesses a difference.  Completing
    each automaton costs Theta(alpha * n) time and memory whatever its
    m, where ``minimize`` needs O(m + n + alpha).  ROADMAP item 7 plans
    a check that needs no completed table.
    """
    if d1.alpha != d2.alpha:
        raise AlphabetMismatchError(
            f"alphabet sizes differ ({d1.alpha} vs {d2.alpha})")
    alpha = d1.alpha
    nxt1 = _completed(d1)
    nxt2 = _completed(d2)
    fin1 = d1.finals
    fin2 = d2.finals
    start = (d1.initial, d2.initial)
    seen = {start}
    stack = [start]
    while stack:
        p, q = stack.pop()
        if (p in fin1) != (q in fin2):
            return False
        for a in range(alpha):
            nxt = (nxt1[p * alpha + a], nxt2[q * alpha + a])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True
