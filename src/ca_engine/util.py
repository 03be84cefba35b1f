"""Shared helpers: UTC timestamps, canonical JSON, atomic file writes, JSONL, engine state."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar

from .errors import IntegrityViolationError, InvalidTupleError, StorageError

T = TypeVar("T")


def utc_now_iso() -> str:
    """Current UTC time as an RFC 3339 string with microsecond precision."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no insignificant whitespace, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)


@contextmanager
def _write_errors(path: Path) -> Iterator[None]:
    """Map an ``OSError`` while writing ``path`` to :class:`StorageError` naming it."""
    try:
        yield
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def atomic_write_bytes(path: Path, data: bytes, *, durable: bool = True) -> None:
    """Write via a temp file in the same directory plus rename; never partial.

    ``durable=False`` skips the fsync: the caller must :func:`fsync_file` the
    path before anything durable refers to it. The parent directory is
    created only when it is missing, and never its own parent, so a write
    into a removed repository fails rather than recreating part of it.
    """
    with _write_errors(path):
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        except FileNotFoundError:
            path.parent.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                if durable:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def fsync_file(path: Path) -> None:
    """Flush a file written with ``durable=False`` to stable storage."""
    with _write_errors(path):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: Path, obj: Any) -> None:
    atomic_write_text(path, canonical_json(obj) + "\n")


def append_line(path: Path, line: str, truncate_to: int | None = None) -> None:
    """Durable append of ``line`` plus a newline: one write, one fsync.

    ``line`` may hold several newline-joined rows, which then share the fsync.
    With ``truncate_to``, the file is first cut to that many bytes. When the
    write or the fsync fails, the file is cut back to its length before the
    append, so a failed append leaves no row behind.
    """
    data = memoryview((line + "\n").encode("utf-8"))
    # Unbuffered, so closing the file writes nothing after a failed append is cut back.
    with _write_errors(path), open(path, "ab", buffering=0) as fh:
        if truncate_to is not None:
            fh.truncate(truncate_to)
        end = fh.seek(0, os.SEEK_END)
        try:
            while data:
                data = data[fh.write(data) :]
            os.fsync(fh.fileno())
        except BaseException:
            fh.truncate(end)
            raise


def read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if raw:
                rows.append(json.loads(raw))
    return rows


def load_state(path: Path, build: Callable[[Any], T], default: T) -> T:
    """``build`` applied to an engine-written JSON file, or ``default`` when it is absent.

    The engine wrote the file, so one that does not parse, or that ``build``
    rejects, is damaged state: :class:`IntegrityViolationError` naming it.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return default
    return decode_state(path, data, build)


def decode_state(path: Path, data: bytes, build: Callable[[Any], T]) -> T:
    """``build`` applied to bytes already read from ``path``, failing as :func:`load_state` does."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise IntegrityViolationError(f"{path}: not JSON: {exc}") from None
    try:
        return build(doc)
    except (KeyError, TypeError, AttributeError, ValueError, InvalidTupleError) as exc:
        raise IntegrityViolationError(f"{path}: malformed: {type(exc).__name__}: {exc}") from None
