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
from typing import Callable, Hashable, Iterable

from .errors import IntegrityViolationError
from .util import append_line, canonical_json

_DECODER = json.JSONDecoder()


class Journal:
    """One append-only JSONL file indexed by ``key(row)``.

    ``group`` optionally maps each key to a secondary key, so that
    :meth:`group` returns every key sharing it without a scan. Writers must
    hold the repository write lock around :meth:`append` and around any read
    whose answer decides what they append.
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

    def _catch_up(self) -> None:
        try:
            size = os.stat(self.path).st_size
        except FileNotFoundError:
            size = 0
        if size < self._offset:
            self._reset()
        if size == self._seen:
            return
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
        end = chunk.rfind(b"\n") + 1
        if end:
            self._parse(chunk[:end])
            self._offset += end
        self._seen = self._offset + len(chunk) - end

    def _parse(self, chunk: bytes) -> None:
        """Index complete lines; ``chunk`` ends with a newline."""
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self._corrupt(self._lines + chunk.count(b"\n", 0, exc.start) + 1, "not UTF-8") from None
        line = self._lines
        pos = 0
        while pos < len(text):
            line += 1
            newline = text.index("\n", pos)
            try:
                row, end = _DECODER.raw_decode(text, pos)
            except ValueError:
                end = -1
            if end != newline:
                # Off the canonical fast path: skip a blank line, allow
                # surrounding blanks, or report why the line does not parse.
                raw = text[pos:newline]
                if not raw.strip():
                    pos = newline + 1
                    continue
                try:
                    row = json.loads(raw)
                except ValueError as exc:
                    raise self._corrupt(line, str(exc)) from None
            pos = newline + 1
            try:
                self._insert(self._key(row), row)
            except (KeyError, TypeError, ValueError) as exc:  # TypeError: an unhashable key
                raise self._corrupt(line, f"bad row ({exc!r})") from None
        self._lines = line

    def _insert(self, key: Hashable, row: dict) -> None:
        if key not in self._rows:
            self._rows[key] = row
            if self._group is not None:
                self._groups.setdefault(self._group(key), []).append(key)

    def _corrupt(self, line: int, reason: str) -> IntegrityViolationError:
        return IntegrityViolationError(f"{self.path}: line {line}: {reason}")

    # -- writing -------------------------------------------------------------

    def append(self, rows: Iterable[dict]) -> None:
        """Durably append rows with one write and one fsync; the caller holds the write lock."""
        keyed = [(self._key(row), row) for row in rows]
        if not keyed:
            return
        text = "\n".join(canonical_json(row) for _, row in keyed)
        with self._lock:
            self._catch_up()
            if self._seen > self._offset:
                os.truncate(self.path, self._offset)
            append_line(self.path, text)
            # Under the write lock the file now ends with exactly these rows,
            # so index them without reading them back.
            for key, row in keyed:
                self._insert(key, row)
            self._lines += len(keyed)
            self._offset = self._seen = self._offset + len(text.encode("utf-8")) + 1
