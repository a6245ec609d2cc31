"""Invariants in the package, and the answer-or-refuse oracle, raise typed errors: `python -O` strips `assert`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hornvol"
MODULES = sorted(SRC.glob("*.py"))


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize("call,refused,passes", [
    pytest.param("lambda: 1", True, False, id="missed-refusal"),
    pytest.param("lambda: int('x')", False, False, id="unexpected-refusal"),
    pytest.param("lambda: int('x')", True, False, id="refusal-outside-hornvol"),
    pytest.param("lambda: 1", False, True, id="answer"),
    pytest.param("lambda: _check_bins(0)", True, True, id="refusal"),
])
def test_answer_or_refuse_checks_under_python_O(call, refused, passes):
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(tests), str(SRC.parent),
                                                                     os.environ.get("PYTHONPATH")]))}
    script = ("from hornvol.sampler import _check_bins\nfrom refusal import answer_or_refuse\n"
              f"answer_or_refuse({call}, {refused})\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode == 0) == passes, proc.stderr
    assert ("AssertionError" in proc.stderr) != passes, proc.stderr
