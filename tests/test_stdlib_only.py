"""The runtime is pure standard library: no third-party import, no declared dependency."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ca_engine"


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module name) of every absolute import in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in modules
        for line, name in absolute_imports(path)
        if name != "ca_engine" and name not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_pyproject_declares_no_runtime_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    start = lines.index("[project]") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
    assert "dependencies = []" in [line.strip() for line in lines[start:end]]
