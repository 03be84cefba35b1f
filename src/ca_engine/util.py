"""Shared helpers: UTC timestamps, canonical JSON, atomic file writes, stat stamps, JSONL, engine state."""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar

from .errors import IntegrityViolationError, InvalidTupleError, StorageError

T = TypeVar("T")

_STAMP_LAG_NS = 1_000_000_000  # how far before the stamp a stamped file's modification time is set
_stamps = itertools.count()  # taken from each stamped time, so no two stamps of this process share one

# What a stat stamp knows a file by: its device, inode, size, and modification and change times in nanoseconds.
FileStamp = tuple[int, int, int, int, int]


def utc_now_iso() -> str:
    """Current UTC time as an RFC 3339 string with microsecond precision."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no insignificant whitespace, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)


@contextmanager
def storage_errors(path: Path, doing: str = "write") -> Iterator[None]:
    """Map an ``OSError`` while ``doing`` (``"read"`` or ``"write"``) ``path`` to :class:`StorageError` naming it."""
    try:
        yield
    except OSError as exc:
        raise StorageError(f"cannot {doing} {path}: {exc.strerror or exc}") from exc


def atomic_write_bytes(path: Path, data: bytes, *, durable: bool = True) -> None:
    """Write via a temp file in the same directory plus rename; never partial.

    ``durable=False`` skips the fsync: the caller must :func:`fsync_file` the
    path before anything durable refers to it. The parent directory is
    created only when it is missing, and never its own parent, so a write
    into a removed repository fails rather than recreating part of it.
    """
    with storage_errors(path):
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


def make_dir(path: Path) -> bool:
    """Make the directory ``path``, and its parent as :func:`atomic_write_bytes` does; False when it exists."""
    with storage_errors(path):
        if not path.parent.is_dir():
            path.parent.mkdir(exist_ok=True)
        try:
            os.mkdir(path)
        except FileExistsError:
            return False
    return True


def overwrite_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` over the file at ``path`` in place, with no temp file, rename or fsync.

    Only for a derived file that carries its own digest: a reader racing the
    write, or a crash in the middle of it, leaves bytes that fail the digest.
    A temp file and a rename cost several times the write itself on a file
    system busy with fsyncs.
    """
    with storage_errors(path):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.pwrite(fd, view, len(data) - len(view)) :]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)


def file_stamp(st: os.stat_result) -> FileStamp:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def set_times_back(fd: int) -> os.stat_result | None:
    """Stamp the open file: set its access and modification times back, and return its stat after.

    The time set is about one second before now, less a count of this
    process's stamps in nanoseconds: a time no later write can give the file,
    and one no two stamps of this process share. So a stat still equal to
    the one returned shows the file unchanged since: every write, truncate
    and store through a shared mapping sets the modification time to the
    present; ``chmod``, ``chown``, ``link`` and a rename over the file move
    the change time or the inode; and setting the modification time back
    again moves the change time, which no call can set. The limit is the
    change time's clock: a kernel that records it at a clock tick may keep it
    for a change made within the tick of the stamp, so that a write followed
    at once by restoring the modification time goes unseen.

    Returns None, leaving nothing to trust, when the times cannot be set or
    the file system did not keep the time exactly.
    """
    stamped = time.time_ns() - _STAMP_LAG_NS - next(_stamps)
    try:
        os.utime(fd, ns=(stamped, stamped))
        st = os.fstat(fd)
    except OSError:
        return None
    return st if st.st_mtime_ns == stamped else None


def stamp_path(path: Path) -> FileStamp | None:
    """:func:`set_times_back` on the file at ``path``, as a :data:`FileStamp`; None when it could not be stamped."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW)
    except OSError:
        return None
    try:
        st = set_times_back(fd)
    finally:
        os.close(fd)
    return file_stamp(st) if st is not None else None


def fsync_file(path: Path) -> None:
    """Flush a file written with ``durable=False`` to stable storage."""
    with storage_errors(path):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: Path, obj: Any) -> None:
    atomic_write_text(path, canonical_json(obj) + "\n")


def append_line(path: Path, line: str, truncate_to: int | None = None) -> os.stat_result:
    """Durable append of ``line`` plus a newline: one write, one fsync; the file's stat after.

    ``line`` may hold several newline-joined rows, which then share the fsync.
    With ``truncate_to``, the file is first cut to that many bytes. When the
    write or the fsync fails, the file is cut back to its length before the
    append, so a failed append leaves no row behind.
    """
    data = memoryview((line + "\n").encode("utf-8"))
    # Unbuffered, so closing the file writes nothing after a failed append is cut back.
    with storage_errors(path), open(path, "ab", buffering=0) as fh:
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
        return os.fstat(fh.fileno())


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
    One that cannot be read is :class:`StorageError` naming it.
    """
    with storage_errors(path, "read"):
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
