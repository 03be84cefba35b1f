"""The README's layout table names every path a repository keeps."""

from __future__ import annotations

import inspect
from pathlib import Path

from ca_engine.repo import Repository

README = Path(__file__).resolve().parent.parent / "README.md"


def layout_paths() -> list[str]:
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| Path | Contents |") + 2
    paths = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        paths.append(line.split("|")[1].strip().strip("`"))
    return paths


def test_every_repository_path_has_a_layout_row():
    root = Path("/repo")
    repo = Repository(root)
    names = [
        name
        for name, member in inspect.getmembers(Repository)
        if isinstance(member, property) and name.endswith(("_path", "_dir"))
    ]
    assert len(names) >= 12
    rows = layout_paths()
    missing = []
    for name in names:
        relative = getattr(repo, name).relative_to(root).as_posix()
        if not any(row == relative or row.startswith(relative + "/") for row in rows):
            missing.append(f"{name} ({relative})")
    assert missing == []
