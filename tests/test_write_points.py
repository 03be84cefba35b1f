"""Every file write in the engine goes through ``ca_engine.util``.

A crash-injection sweep can then hook every write point in one module. Each
module under ``src/ca_engine`` other than ``util.py`` is parsed with ``ast``,
and a call that writes a file is an error unless its function is on the
allowlist. Writing calls are ``os.fsync``, ``os.replace``, ``os.rename``,
``os.truncate``, ``os.ftruncate``, ``os.pwrite``, ``os.sendfile``,
``os.utime`` (a stat stamp is a write too), ``tempfile.mkstemp``,
``shutil`` copies and moves,
``Path.write_bytes``/``write_text``, ``os.open`` with a write flag, and
``open``/``Path.open``/``os.fdopen`` with a mode that writes, appends,
creates or updates.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import ca_engine

PACKAGE = Path(ca_engine.__file__).parent

# (module, function) -> why it writes a file itself.
ALLOWED = {
    ("cli.py", "cmd_artifact_get"): "`ca artifact get -o` writes the user's output file",
    ("store.py", "ArtifactStore.copy_to"): (
        "leaves untouched a kept copy whose stamp matches; otherwise copies an object's bytes into a new input file"
    ),
    ("flow/runner.py", "_take_workdir"): "renames a pool thread's kept workdir for its next task",
}

WRITING_FUNCTIONS = {
    "os": {"fsync", "replace", "rename", "truncate", "ftruncate", "pwrite", "sendfile", "utime"},
    "tempfile": {"mkstemp"},
    "shutil": {"copyfile", "copy", "copy2", "copytree", "move"},
}
WRITING_METHODS = {"write_bytes", "write_text"}
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_TRUNC"}


def _mode(call: ast.Call, position: int) -> ast.expr | None:
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return call.args[position] if len(call.args) > position else None


def _writes(call: ast.Call) -> str | None:
    """What the call writes with, or None when it cannot write a file."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id != "open":
            return None
        mode = _mode(call, 1)
    elif isinstance(func, ast.Attribute):
        owner = func.value.id if isinstance(func.value, ast.Name) else None
        if func.attr in WRITING_FUNCTIONS.get(owner, ()):
            return f"{owner}.{func.attr}"
        if func.attr in WRITING_METHODS:
            return func.attr
        if owner == "os" and func.attr == "open":
            flags = {node.attr for node in ast.walk(call.args[1]) if isinstance(node, ast.Attribute)}
            return "os.open" if flags & WRITE_FLAGS else None
        if func.attr == "fdopen":
            mode = _mode(call, 1)
        elif func.attr == "open":  # Path.open(mode)
            mode = _mode(call, 0)
        else:
            return None
    else:
        return None
    if mode is None:
        return None
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return "open with a computed mode"
    return f"open({mode.value!r})" if set(mode.value) & set("wax+") else None


def write_points(source: str) -> list[tuple[str, int, str]]:
    """(enclosing function, line, call) for every write, plus imports that would hide one."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.scope: list[str] = []

        def _nested(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _nested

        def visit_Call(self, node):
            what = _writes(node)
            if what is not None:
                found.append((".".join(self.scope), node.lineno, what))
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            for alias in node.names:
                if alias.name in WRITING_FUNCTIONS.get(node.module, ()):
                    found.append((".".join(self.scope), node.lineno, f"from {node.module} import {alias.name}"))

    Visitor().visit(ast.parse(source))
    return found


def engine_modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "util.py" or path.parent != PACKAGE:
            yield path.relative_to(PACKAGE).as_posix(), path.read_text(encoding="utf-8")


def test_engine_writes_files_only_through_util():
    outside = [
        f"{module}:{line}: {what} in {scope or '<module>'}"
        for module, source in engine_modules()
        for scope, line, what in write_points(source)
        if (module, scope) not in ALLOWED
    ]
    assert outside == []


def test_every_allowlisted_function_still_writes():
    writers = {(module, scope) for module, source in engine_modules() for scope, _, _ in write_points(source)}
    assert set(ALLOWED) <= writers


def test_the_guard_sees_each_way_of_writing():
    source = textwrap.dedent(
        """
        from os import replace
        from os import utime
        def writes(path, fd, mode):
            os.fsync(fd)
            os.replace(path, path)
            os.truncate(path, 0)
            os.ftruncate(fd, 0)
            os.pwrite(fd, b"", 0)
            os.sendfile(fd, fd, 0, 1)
            os.utime(fd, ns=(0, 0))
            tempfile.mkstemp()
            shutil.copyfile(path, path)
            open(path, "a")
            open(path, mode=mode)
            path.open("r+b")
            path.write_text("")
            os.fdopen(fd, "wb")
            os.open(path, os.O_WRONLY | os.O_CREAT)
        class Reader:
            def reads(self, path, fd):
                open(path)
                open(path, "rb")
                path.open()
                path.read_bytes()
                os.fdopen(fd)
                os.open(path, os.O_RDONLY | os.O_CREAT)
                os.stat(path)
                os.pread(fd, 1, 0)
                os.fstat(fd)
        """
    )
    found = write_points(source)
    assert [line for _, line, _ in found] == [2, 3, *range(5, 20)]
    assert {scope for scope, _, _ in found} == {"", "writes"}
