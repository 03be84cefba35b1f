"""The README's layout table and the paths a repository keeps name each other."""

from __future__ import annotations

import inspect
from pathlib import Path

from ca_engine.repo import Repository

README = Path(__file__).resolve().parent.parent / "README.md"
ROOT = Path("/repo")
DERIVED_ROWS = {"<journal>.idx"}  # key files are named after their journal, not by a property


def layout_paths() -> list[str]:
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| Path | Contents |") + 2
    paths = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        paths.append(line.split("|")[1].strip().strip("`"))
    return paths


def repository_paths() -> dict[str, str]:
    """Each ``*_path`` and ``*_dir`` property of :class:`Repository`, by its path relative to the root."""
    repo = Repository(ROOT)
    return {
        getattr(repo, name).relative_to(ROOT).as_posix(): name
        for name, member in inspect.getmembers(Repository)
        if isinstance(member, property) and name.endswith(("_path", "_dir"))
    }


def covers(relative: str, row: str) -> bool:
    return row == relative or row.startswith(relative + "/")


def test_every_repository_path_has_a_layout_row():
    paths = repository_paths()
    assert len(paths) >= 12
    rows = layout_paths()
    missing = [f"{name} ({relative})" for relative, name in paths.items() if not any(covers(relative, row) for row in rows)]
    assert missing == []


def test_every_layout_row_names_a_repository_path():
    paths = repository_paths()
    stale = [
        row for row in layout_paths() if row not in DERIVED_ROWS and not any(covers(relative, row) for relative in paths)
    ]
    assert stale == []


def test_init_makes_no_path_that_a_repository_property_does_not_name(tmp_path):
    repo = Repository(tmp_path / ".ca")
    repo.init()
    assert {path.name for path in repo.root.iterdir()} <= set(repository_paths())
