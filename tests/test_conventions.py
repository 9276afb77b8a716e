"""Conventions of the test suite itself, checked on its source."""

import ast
from pathlib import Path


def _approx_calls(tree):
    """The ``pytest.approx(...)`` and bare ``approx(...)`` calls of a
    module, as ``(line, keywords)``."""
    return [(node.lineno, {k.arg for k in node.keywords})
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute)
                 and node.func.attr == "approx"
                 or isinstance(node.func, ast.Name)
                 and node.func.id == "approx")]


def test_every_approx_names_its_absolute_tolerance():
    # approx(x, rel=...) alone also accepts anything within 1e-12 of x, so
    # a relative bound on values below 1e-12 would prove nothing: every
    # call states abs=, 0.0 where the bound is meant to be relative only
    calls, missing = 0, []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for line, keywords in _approx_calls(ast.parse(path.read_text())):
            calls += 1
            if "abs" not in keywords:
                missing.append(f"{path.name}:{line}")
    assert calls > 100  # the scan sees the suite's approx calls
    assert missing == []
