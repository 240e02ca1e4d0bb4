"""The names the benchmark tracer wraps must exist in the package.

``perfbench/tracer.py`` wraps each traced module's ``__all__`` and, for
``cli``, which has none, the functions in its ``CLI_FUNCTIONS``. A name
missing here would make every traced benchmark run raise, so tier-1 checks
them. ``perfbench/child.py`` also rebinds ``cli.parse_spec`` to timestamp
the end of set-up, so ``main`` must look that name up through the module.
The tracer is read as source, not imported or edited.
"""

import ast
import json
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


def test_main_calls_parse_spec_through_the_module(tmp_path, monkeypatch, capsys):
    # perfbench/child.py timestamps the end of set-up by rebinding
    # cli.parse_spec; if main called its own reference instead, every
    # benchmark repetition would lose that timestamp.
    from cacheplace import cli

    calls = []
    parse_spec = cli.parse_spec

    def recording(*args, **kwargs):
        calls.append(args)
        return parse_spec(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_spec", recording)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"catalog": {"F": 4, "C": 2}}))
    assert cli.main(["solve", "--config", str(config)]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["p_star"]
