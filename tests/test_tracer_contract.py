"""The names the benchmark tracer wraps must exist in the package.

``perfbench/tracer.py`` wraps each traced module's ``__all__`` and, for
``cli``, which has none, the functions in its ``CLI_FUNCTIONS``. A name
missing here would make every traced benchmark run raise, so tier-1 checks
them. The tracer is read as source, not imported or edited.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_constant(name):
    """The literal value of a module-level assignment in the tracer."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no {name}")


@pytest.mark.parametrize("short", tracer_constant("MODULES"))
def test_traced_names_exist(short):
    module = importlib.import_module(f"cacheplace.{short}")
    if short == "cli":
        names = tracer_constant("CLI_FUNCTIONS")
    else:
        assert hasattr(module, "__all__"), f"cacheplace.{short} has no __all__"
        names = module.__all__
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"cacheplace.{short} lacks traced names {missing}"
    if short == "cli":
        assert all(callable(getattr(module, name)) for name in names)
