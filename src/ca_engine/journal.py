"""Append-only JSONL journals: lazy incremental reads and batched durable appends.

Every line of a journal is ``canonical_json(row) + "\\n"``. A :class:`Journal`
reads nothing until it is first queried. It then parses the file in one pass
and remembers the byte offset it parsed up to, so later queries parse only
the bytes appended since; a file that shrank is read again from the start.
Rows are kept by a caller-supplied key, the first row per key winning.

Bytes after the last newline are a torn append, left by a writer that died
mid-line. Readers ignore them, and the next append cuts them off before it
writes, so a new row is never glued onto the fragment. A complete line that
does not parse, or whose key function rejects it, raises
:class:`IntegrityViolationError` naming the file and line.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator

from .errors import IntegrityViolationError, InvalidTupleError
from .util import append_line, canonical_json

_TAIL_BLOCK = 1 << 16  # bytes read per step when an append looks back for the last newline


class Journal:
    """One append-only JSONL file indexed by ``key(row)``.

    The artifact index, the event and promotion logs, lineage edges and run
    summaries are each one journal. ``key`` is also the row's shape check:
    raising ``KeyError``, ``TypeError`` or ``ValueError`` marks the line as
    damaged. ``group`` optionally maps each key to a secondary key, so that
    :meth:`group` returns every key sharing it without a scan. Writers must
    hold the repository write lock around :meth:`append` and around any read
    whose answer decides what they append. A subclass may skip a prefix that
    a file derived from the journal already indexes, as
    :class:`~ca_engine.store.ArtifactIndex` does.
    """

    def __init__(
        self,
        path: Path,
        key: Callable[[dict], Hashable],
        group: Callable[[Hashable], Hashable] | None = None,
    ):
        self.path = path
        self._key = key
        self._group = group
        self._lock = threading.Lock()  # guards the parse state against pool threads
        self._reset()

    def _reset(self) -> None:
        self._offset = 0  # end of the last complete line parsed
        self._seen = 0  # bytes read, including a torn tail
        self._lines = 0  # complete lines parsed
        self._rows: dict[Hashable, dict] = {}
        self._groups: dict[Hashable, list[Hashable]] = {}

    # -- reading -------------------------------------------------------------

    def get(self, key: Hashable) -> dict | None:
        """The first row with this key. Rows never change, so a hit skips the file."""
        row = self._rows.get(key)
        if row is None:
            with self._lock:
                self._catch_up()
                row = self._rows.get(key)
        return row

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key) is not None

    def rows(self) -> dict[Hashable, dict]:
        """A snapshot of every row, first per key, in file order."""
        with self._lock:
            self._catch_up()
            return dict(self._rows)

    def group(self, value: Hashable) -> list[Hashable]:
        """Keys whose ``group`` is ``value``, in file order."""
        with self._lock:
            self._catch_up()
            return list(self._groups.get(value, ()))

    def _size(self) -> int:
        """The file's size, 0 when it is missing; a file that shrank resets the parse state."""
        try:
            size = os.stat(self.path).st_size
        except FileNotFoundError:
            size = 0
        if size < self._offset:
            self._reset()
        return size

    def _catch_up(self) -> None:
        size = self._size()
        if size == self._seen:
            return
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
        start = self._skippable(chunk) if self._offset == 0 else 0
        end = chunk.rfind(b"\n") + 1
        if end > start:
            try:
                self._parse(chunk[start:end])
            except IntegrityViolationError:
                self._reset()  # drop the rows indexed before the bad line, so every later read raises too
                raise
        self._offset += end
        self._seen = self._offset + len(chunk) - end

    def _skippable(self, data: bytes) -> int:
        """How many leading bytes of the whole file ``data`` need no parse; a subclass may set ``_lines``."""
        return 0

    def _parse(self, chunk: bytes) -> None:
        """Index complete lines; ``chunk`` ends with a newline.

        The lines are decoded with one ``json.loads`` as the items of an
        array. When that fails, or yields a row count other than the line
        count, a per-line loop decodes them instead: it skips blank lines,
        allows surrounding blanks, and names the line that does not parse.
        """
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self._corrupt(self._lines + chunk.count(b"\n", 0, exc.start) + 1, "not UTF-8") from None
        lines = text.split("\n")
        lines.pop()  # the empty string after the final newline
        first = self._lines + 1
        try:
            rows = json.loads("[" + ",".join(lines) + "]")
        except ValueError:
            rows = None
        if rows is not None and len(rows) == len(lines):
            numbered = enumerate(rows, first)
        else:
            numbered = self._decode_lines(lines, first)
        for line, row in numbered:
            try:
                self._insert(self._key(row), row)
            except (KeyError, TypeError, AttributeError, ValueError, InvalidTupleError) as exc:
                raise self._corrupt(line, f"bad row ({exc!r})") from None
        self._lines += len(lines)

    def _decode_lines(self, lines: list[str], first: int) -> Iterator[tuple[int, object]]:
        """Numbered rows, decoded lazily so a bad row is reported before a later bad line."""
        for line, raw in enumerate(lines, first):
            if raw.strip():
                try:
                    yield line, json.loads(raw)
                except ValueError as exc:
                    raise self._corrupt(line, str(exc)) from None

    def _insert(self, key: Hashable, row: dict) -> None:
        if key not in self._rows:
            self._rows[key] = row
            if self._group is not None:
                self._groups.setdefault(self._group(key), []).append(key)

    def _corrupt(self, line: int, reason: str) -> IntegrityViolationError:
        return IntegrityViolationError(f"{self.path}: line {line}: {reason}")

    # -- writing -------------------------------------------------------------

    def append(self, rows: Iterable[dict]) -> None:
        """Durably append rows with one write and one fsync; the caller holds the write lock.

        A journal that has read the whole file indexes the rows without
        reading them back. Any other parses nothing: it finds the end of the
        file's last complete line by reading back from the end, and its next
        read parses the new rows with the rest.
        """
        keyed = [(self._key(row), row) for row in rows]
        if keyed:
            with self._lock:
                self._write(keyed, self._size())

    def _write(self, keyed: list[tuple[Hashable, dict]], size: int) -> None:
        """Append keyed rows to the file, now ``size`` bytes long; the caller holds both locks."""
        if not keyed:
            return
        text = "\n".join(canonical_json(row) for _, row in keyed)
        current = size == self._seen
        end = self._offset if current else self._line_end(size)
        append_line(self.path, text, truncate_to=end if size > end else None)
        if not current:
            self._seen = self._offset  # forget a torn tail it saw: the file past the offset changed
            return
        # Under the write lock the file now ends with exactly these rows.
        for key, row in keyed:
            self._insert(key, row)
        self._lines += len(keyed)
        self._offset = self._seen = end + len(text.encode("utf-8")) + 1

    def _line_end(self, size: int) -> int:
        """The offset after the last newline in the first ``size`` bytes, read back from there to the parsed offset."""
        end = size
        if end <= self._offset:
            return self._offset
        with open(self.path, "rb") as fh:
            while end > self._offset:
                start = max(self._offset, end - _TAIL_BLOCK)
                fh.seek(start)
                newline = fh.read(end - start).rfind(b"\n")
                if newline >= 0:
                    return start + newline + 1
                end = start
        return self._offset
