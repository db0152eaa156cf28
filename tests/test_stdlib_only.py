"""The runtime stays stdlib-only: every absolute import in the package names
a standard-library module (tests may use hypothesis, numpy and the like).
Starting the CLI also stays cheap: importing it loads neither dataclasses nor
inspect, which nothing the package computes needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "collatzgraphs"
MODULES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_has_modules():
    assert {"__init__.py", "arith.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_imports_are_stdlib(path):
    outside = [
        name for name in absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_cli_start_up_skips_dataclasses_and_inspect():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = (
        "import collatzgraphs.cli, sys;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
