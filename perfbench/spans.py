"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces module attributes of ``ptdfa`` with timing
wrappers (for example ``ptdfa.minimizer.canonicalize``), so the program
itself is not edited.  Each call records a span (name, start, end,
parent) in memory; nothing is written until the caller asks for the
spans at the end of the run.  A target that no longer exists is listed
in ``absent`` and yields no span instead of an error, so the benchmark
keeps running after a later change fuses or renames layers.
"""

import importlib
from time import perf_counter


def _refine_counters(args, _result) -> dict:
    """Exact counters of one valmari refinement, read from the
    ``Refinement`` after ``run`` returns."""
    ref = args[0]
    trp = getattr(ref, "trp", None)
    return {
        "brp.split_steps": ref.brp.split_steps,
        "trp.split_calls": trp.split_calls if trp is not None else 0,
        "trp.split_steps": trp.split_steps if trp is not None else 0,
    }


# (span name, module, attribute path, counter probe or None).  The
# parse and serialize spans wrap the public names the timed loop calls.
VALMARI_SPANS = (
    ("parse", "ptdfa", "parse", None),
    ("relevant_states", "ptdfa.minimizer", "relevant_states", None),
    ("restrict", "ptdfa.minimizer", "restrict", None),
    ("init", "ptdfa.minimizer", "Refinement.__init__", None),
    ("init_trp_grouping", "ptdfa.minimizer", "init_trp_grouping", None),
    ("in_index", "ptdfa.minimizer", "bucket_by", None),
    ("refine", "ptdfa.minimizer", "Refinement.run", _refine_counters),
    ("quotient", "ptdfa.minimizer", "_quotient", None),
    ("canonicalize", "ptdfa.minimizer", "canonicalize", None),
    ("serialize", "ptdfa", "serialize", None),
)

HOPCROFT_SPANS = (
    ("hopcroft.sink_complete", "ptdfa.hopcroft", "sink_complete", None),
    ("hopcroft.refine", "ptdfa.hopcroft", "_refine_total", None),
    ("hopcroft.canonicalize", "ptdfa.hopcroft", "canonicalize", None),
)

SPANS = {"valmari": VALMARI_SPANS, "hopcroft": HOPCROFT_SPANS}

ROOT = "op"


def _resolve(module: str, path: str):
    """(owner, attribute name, current value) or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    if value is None:
        return None
    return owner, name, value


class Tracer:
    """Span recorder for one worker process.

    ``spans`` holds ``[name, start, end, parent]`` lists, where parent
    is the index of the enclosing span or -1.  ``counters`` collects the
    probes' readings for the current operation.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.absent = []
        self._stack = []
        self._installed = []

    def install(self, table) -> None:
        for name, module, path, probe in table:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            setattr(owner, attr, self._wrap(name, original, probe))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, original, probe):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if probe is not None:
                tracer.counters.update(probe(args, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper


def self_times(spans, root: int) -> dict:
    """Self time in seconds per span name inside the operation whose
    root span is ``spans[root]``, plus ``unattributed``: the root's
    duration not covered by its direct children.  A span's self time is
    its duration minus that of its direct children."""
    out = {}
    child_time = {}
    for index in range(root + 1, len(spans)):
        name, start, end, parent = spans[index]
        if parent < root:
            break
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for index in range(root + 1, len(spans)):
        name, start, end, parent = spans[index]
        if parent < root:
            break
        own = (end - start) - child_time.get(index, 0.0)
        out[name] = out.get(name, 0.0) + own
    name, start, end, _ = spans[root]
    out["unattributed"] = (end - start) - child_time.get(root, 0.0)
    return out
