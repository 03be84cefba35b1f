"""Every error class the engine declares is raised by some module of it."""

from __future__ import annotations

import ast
from pathlib import Path

import ca_engine

SRC = Path(ca_engine.__file__).parent


def _raised_names() -> set[str]:
    """Names of the classes a ``raise`` in the package names, called or not: ``X(...)``, ``errors.X``."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised_somewhere():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert declared, "errors.py declares no class"
    assert sorted(declared - _raised_names()) == []
