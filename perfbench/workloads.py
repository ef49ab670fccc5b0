"""Seeded input pools for the three benchmark workloads.

Every workload turns a seed into a pool of POOL_SIZE automata, already
serialized to canonical text, plus what the correctness check needs.
Input ``i`` of a pool is generated from the derived seed ``seed * 100 +
i``, so the same seed always yields the same bytes.

Why these three (one sentence each, also in BENCHMARK.json):

* random_sparse: the README/table1.grid cell; inputs are nearly minimal
  (n-1 splits), so every layer does full work, and Hopcroft pays for
  alpha*n = 10*m.
* merge_heavy: unrolled copies of a small DFA collapse 20,000 states to
  at most 40, so parse and refinement carry the run while quotient,
  canonicalize and serialize do almost nothing (the bypass case for
  output-side changes).
* lexicon_unicode: a suffix-sharing word trie over all Unicode code
  points is very sparse with a huge alphabet, where the O(alpha) passes
  show and the sink-completed table is infeasible.
"""

import random
from array import array
from dataclasses import dataclass

from ptdfa import PtDfa, generate, oracle_minimize, serialize, validate

POOL_SIZE = 3
UNICODE_ALPHA = 0x110000

# A fixed list of common English suffixes for the lexicon workload.
SUFFIXES = ("s", "es", "ed", "ing", "er", "ers", "est", "ly", "ness",
            "ment", "ments", "able", "ful", "less", "ion", "ions", "ity",
            "ize", "ive", "al")


@dataclass
class Input:
    """One pool entry.

    ``text`` is what the valmari loop minimizes.  ``hopcroft_text`` is
    what the hopcroft loop minimizes: the same text, or for the lexicon
    its relabeling onto the used letters, whose labels ``letters`` maps
    back.  ``reference`` is an independently computed expected output
    text, or None when the two algorithms are checked against each
    other.
    """

    text: str
    hopcroft_text: str
    letters: list = None
    reference: str = None


def unroll(small: PtDfa, copies: int) -> PtDfa:
    """``copies`` copies of ``small`` chained in a ring: state (i, q) goes
    on label a to ((i+1) mod copies, delta(q, a)).  Every copy of q
    accepts q's language, so the result minimizes to minimize(small)."""
    s = small.n
    triples = []
    for i in range(copies):
        base = i * s
        nxt = ((i + 1) % copies) * s
        for t, a, h in zip(small.tails, small.labels, small.heads):
            triples.append((base + t, a, nxt + h))
    finals = [i * s + q for i in range(copies) for q in small.finals]
    return validate(copies * s, small.alpha, triples, small.initial, finals)


def lexicon_words(seed: int, stems: int = 5000) -> list:
    """Sorted distinct words: each stem of 3-8 of the 26 lowercase
    letters followed by each of 1-4 distinct suffixes."""
    rng = random.Random(seed)
    words = set()
    for _ in range(stems):
        stem = "".join(chr(97 + rng.randrange(26))
                       for _ in range(3 + rng.randrange(6)))
        for j in rng.sample(range(len(SUFFIXES)), 1 + rng.randrange(4)):
            words.add(stem + SUFFIXES[j])
    return sorted(words)


def prefix_tree(words) -> PtDfa:
    """The trie of ``words`` over code points; word ends are final."""
    children = [{}]
    finals = []
    for w in words:
        q = 0
        for ch in w:
            row = children[q]
            h = row.get(ord(ch))
            if h is None:
                h = len(children)
                children.append({})
                row[ord(ch)] = h
            q = h
        finals.append(q)
    triples = [(q, a, h) for q, row in enumerate(children)
               for a, h in row.items()]
    return validate(len(children), UNICODE_ALPHA, triples, 0, finals)


def compact(d: PtDfa):
    """Relabel ``d`` onto its used labels in ascending order.

    Returns (compact automaton, letters) where ``letters[i]`` is the
    original label of compact label i.  The map is monotone, so the
    canonical breadth-first order, and hence the canonical text, is
    unchanged up to the relabeling.
    """
    letters = sorted(set(d.labels))
    rank = {a: i for i, a in enumerate(letters)}
    labels = array("i", [rank[a] for a in d.labels])
    return (PtDfa(d.n, len(letters), d.tails, labels, d.heads, d.initial,
                  d.finals), letters)


def expand(d: PtDfa, letters, alpha: int) -> PtDfa:
    """Inverse of :func:`compact`: map labels back onto ``alpha``."""
    labels = array("i", [letters[a] for a in d.labels])
    return PtDfa(d.n, alpha, d.tails, labels, d.heads, d.initial, d.finals)


def _random_sparse_input(seed: int) -> Input:
    text = serialize(generate(1000, 1000, 0.1, 500, seed))
    return Input(text, text)


def _merge_heavy_input(seed: int) -> Input:
    small = generate(40, 10, 0.71, 20, seed)
    text = serialize(unroll(small, 500))
    return Input(text, text, reference=serialize(oracle_minimize(small)))


def _lexicon_input(seed: int) -> Input:
    d = prefix_tree(lexicon_words(seed))
    small, letters = compact(d)
    return Input(serialize(d), serialize(small), letters=letters)


MAKERS = {
    "random_sparse": _random_sparse_input,
    "merge_heavy": _merge_heavy_input,
    "lexicon_unicode": _lexicon_input,
}


def make_pool(workload: str, seed: int) -> list:
    """The seeded input pool of ``workload``."""
    maker = MAKERS[workload]
    return [maker(seed * 100 + i) for i in range(POOL_SIZE)]
