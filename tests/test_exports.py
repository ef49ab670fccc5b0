import importlib
import inspect
import pkgutil

import pytest

import ptdfa

# Every module of the package that declares a public API; the command
# line modules declare none.
MODULES = ["ptdfa"] + [f"ptdfa.{info.name}"
                       for info in pkgutil.iter_modules(ptdfa.__path__)
                       if info.name not in ("__main__", "cli")]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _parameters(f) -> str:
    """``f``'s parameters as written, without annotations."""
    sig = inspect.signature(f)
    return str(sig.replace(
        parameters=[p.replace(annotation=p.empty)
                    for p in sig.parameters.values()],
        return_annotation=sig.empty))


def test_minimizer_signatures_take_no_order_option():
    # The refinement has one worklist order; another is imposed through
    # loop_hook, never through a parameter.  Refinement has one start,
    # the label-set blocks, which the pipeline builds once and may hand
    # in as built.
    assert [_parameters(f) for f in (
        ptdfa.minimize, ptdfa.minimize_with_stats, ptdfa.final_blocks,
        ptdfa.Refinement)] == [
        "(d)", "(d, *, loop_hook=None)", "(d, *, loop_hook=None)",
        "(dp, in_index=None, *, brp=None)"]
