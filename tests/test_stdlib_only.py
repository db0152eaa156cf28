"""The runtime stays stdlib-only: every absolute import in the package names
a standard-library module (tests may use hypothesis, numpy and the like).
Starting the CLI also stays cheap: importing it loads neither dataclasses nor
inspect, which nothing the package computes needs. The package's own modules
import each other only at module level, and never in a cycle."""

import ast
import graphlib
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


def package_imports(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """(import statement, module stem) for every import in tree of a package
    module; a name imported from the package itself counts as __init__."""
    stems = {path.stem for path in MODULES}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, [PACKAGE.name if node.level else None, node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in dotted):
            if parts[0] == PACKAGE.name:
                found.append((node, parts[1] if parts[1:] and parts[1] in stems else "__init__"))
    return found


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


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


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_package_imports_are_at_module_level(path):
    tree = parsed(path)
    nested = [node.lineno for node, _ in package_imports(tree) if node not in tree.body]
    assert nested == []


def test_module_import_graph_is_acyclic():
    graph = {path.stem: {stem for _, stem in package_imports(parsed(path))} for path in MODULES}
    # static_order raises graphlib.CycleError, naming the cycle, if there is one
    assert set(graphlib.TopologicalSorter(graph).static_order()) == set(graph)
