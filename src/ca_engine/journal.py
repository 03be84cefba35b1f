"""Append-only JSONL journals: lazy incremental reads, batched durable appends and key files.

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

Beside each journal ``<name>.jsonl`` may lie a key file ``<name>.idx``, like
Git's pack ``.idx``. For a prefix of the journal it holds one fixed-width
record per row: a digest of the row's group value (of its key when the
journal has no ``group``), the row's line number and its byte offset, sorted
by digest and line. It also holds the prefix's length, line count and
SHA-256, and a SHA-256 of its own bytes. A reader trusts it only when both
digests hold and the prefix ends with a newline. Point and group lookups
then bisect the records, decode only the candidate lines, in line order and
keeping the first row per key, and parse only the lines after the prefix.
Otherwise the whole journal is parsed, so damage anywhere in it is reported
as without a key file. :meth:`Journal.rows` always parses every line.

Readers never write a key file. A writer that has read the whole journal
and whose append leaves at least ``KEY_FILE_SLACK`` bytes uncovered
rewrites it under the write lock it holds, reusing the old records while
the old prefix still hashes to their digest. It is never fsynced and errors
writing it are ignored: the file is derived, so losing or damaging it costs
only speed. A writer that has not read its journal never rewrites it.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator

from .errors import IntegrityViolationError, InvalidTupleError, StorageError
from .util import append_line, atomic_write_bytes, canonical_json

_TAIL_BLOCK = 1 << 16  # bytes read per step when an append looks back for the last newline

# Uncovered journal bytes at which a writer rewrites the key file.
KEY_FILE_SLACK = 32 * 1024

# <name>.idx: header, records sorted by (digest, line), then the SHA-256 of both.
_KEYS_HEADER = struct.Struct(">8sQQ32s")  # magic, covered bytes, covered lines, SHA-256 of the covered bytes
_KEYS_MAGIC = b"caidx\x00\x00\x03"  # the last byte is the format version
_DIGEST = 16  # bytes of a record's BLAKE2b digest
_KEYS_RECORD = struct.Struct(f">{_DIGEST}sIQ")  # digest of the group value or key, line number, offset of the line
_ROW_ERRORS = (KeyError, TypeError, AttributeError, ValueError, InvalidTupleError)


def _digest(value: Hashable) -> bytes:
    return hashlib.blake2b(canonical_json(value).encode("utf-8"), digest_size=_DIGEST).digest()


class _KeyFile:
    """A key file whose digests hold: a record per row of ``data[:size]``."""

    def __init__(self, records: bytes, data: bytes, size: int, lines: int, digest: bytes):
        self.records = records
        self.data = data
        self.size = size
        self.lines = lines
        self.digest = digest

    @classmethod
    def load(cls, path: Path, data: bytes) -> "_KeyFile | None":
        """The key file at ``path`` if it is intact and covers a prefix of ``data`` ending in a newline."""
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        body = memoryview(raw)[:-32]
        if (
            len(raw) < _KEYS_HEADER.size + 32
            or (len(body) - _KEYS_HEADER.size) % _KEYS_RECORD.size
            or hashlib.sha256(body).digest() != raw[-32:]
        ):
            return None
        magic, size, lines, digest = _KEYS_HEADER.unpack_from(raw)
        if (
            magic != _KEYS_MAGIC
            or not 0 < size <= len(data)
            or data[size - 1] != ord("\n")
            or hashlib.sha256(memoryview(data)[:size]).digest() != digest
        ):
            return None
        return cls(raw[_KEYS_HEADER.size : -32], data, size, lines, digest)

    def lines_of(self, digest: bytes) -> list[tuple[int, bytes]]:
        """(line number, line) of each row recorded under ``digest``, in line order, found by bisection."""
        records, width = self.records, _KEYS_RECORD.size
        lo, hi = 0, len(records) // width
        while lo < hi:
            mid = (lo + hi) // 2
            if records[mid * width : mid * width + _DIGEST] < digest:
                lo = mid + 1
            else:
                hi = mid
        found = []
        for at in range(lo * width, len(records), width):
            value, line, offset = _KEYS_RECORD.unpack_from(records, at)
            if value != digest:
                break
            found.append((line, self.data[offset : self.data.index(b"\n", offset)]))
        return found


class Journal:
    """One append-only JSONL file indexed by ``key(row)``, with a key file beside it.

    The artifact index, the event and promotion logs, lineage edges and run
    summaries are each one journal. ``key`` is also the row's shape check:
    raising ``KeyError``, ``TypeError`` or ``ValueError`` marks the line as
    damaged. ``group`` optionally maps each key to a secondary key, so that
    :meth:`group` returns every key sharing it without a scan. Writers must
    hold the repository write lock around :meth:`append` and
    :meth:`append_new`, and around any read whose answer decides what they
    append.
    """

    def __init__(
        self,
        path: Path,
        key: Callable[[dict], Hashable],
        group: Callable[[Hashable], Hashable] | None = None,
    ):
        self.path = path
        self.keys_path = path.with_suffix(".idx")
        self._key = key
        self._group = group
        self._use_keys = True  # cleared by rows(), which parses every line
        self._lock = threading.Lock()  # guards the parse state against pool threads
        self._reset()

    def _reset(self) -> None:
        self._offset = 0  # end of the last complete line parsed
        self._seen = 0  # bytes read, including a torn tail
        self._lines = 0  # complete lines parsed
        self._rows: dict[Hashable, dict] = {}
        self._groups: dict[Hashable, list[Hashable]] = {}
        self._keys: _KeyFile | None = None  # the key file covering the bytes before the parsed ones
        self._found: dict[Hashable, list[tuple[Hashable, dict]]] = {}  # covered rows by recorded value
        self._indexed = 0  # bytes covered by the newest key file this journal read or wrote

    # -- reading -------------------------------------------------------------

    def get(self, key: Hashable) -> dict | None:
        """The first row with this key. Rows never change, so a hit skips the file."""
        with self._lock:
            row = self._find(key)
            if row is None:
                self._catch_up()
                row = self._find(key)
            return row

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key) is not None

    def rows(self) -> dict[Hashable, dict]:
        """A snapshot of every row, first per key, in file order; never read from the key file."""
        with self._lock:
            self._use_keys = False
            if self._keys is not None:
                self._reset()
            self._catch_up()
            return dict(self._rows)

    def group(self, value: Hashable) -> list[Hashable]:
        """Keys whose ``group`` is ``value``, in file order."""
        with self._lock:
            self._catch_up()
            first = [key for key, _ in self._covered(value) if self._group(key) == value]
            return first + [key for key in self._groups.get(value, ()) if key not in first]

    @property
    def covered(self) -> int:
        """Bytes of the journal answered from the key file; 0 when it is not used."""
        with self._lock:
            self._catch_up()
            return self._keys.size if self._keys is not None else 0

    def _find(self, key: Hashable) -> dict | None:
        """The first row with this key among the rows covered or parsed; the caller holds the lock."""
        if self._keys is not None:
            for covered_key, row in self._covered(self._recorded(key)):
                if covered_key == key:
                    return row
        return self._rows.get(key)

    def _recorded(self, key: Hashable) -> Hashable:
        """The value whose digest the key file records for a row with this key."""
        return key if self._group is None else self._group(key)

    def _covered(self, value: Hashable) -> list[tuple[Hashable, dict]]:
        """(key, first row) of the covered keys recorded under ``value``'s digest; the caller holds the lock."""
        if self._keys is None:
            return []
        found = self._found.get(value)
        if found is None:
            rows: dict[Hashable, dict] = {}
            for line, raw in self._keys.lines_of(_digest(value)):
                try:
                    row = json.loads(raw.decode("utf-8"))
                    rows.setdefault(self._key(row), row)
                except _ROW_ERRORS:
                    raise self._corrupt(line, f"is not the row {self.keys_path.name} points at") from None
            found = self._found[value] = list(rows.items())
        return found

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
        start = 0
        if self._offset == 0 and self._use_keys:
            self._keys = _KeyFile.load(self.keys_path, chunk)
            if self._keys is not None:
                start = self._indexed = self._keys.size
                self._lines = self._keys.lines
        end = chunk.rfind(b"\n") + 1
        if end > start:
            try:
                self._parse(chunk[start:end])
            except IntegrityViolationError:
                self._reset()  # drop the rows indexed before the bad line, so every later read raises too
                raise
        self._offset += end
        self._seen = self._offset + len(chunk) - end

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
            except _ROW_ERRORS as exc:
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

    def append_new(self, rows: Iterable[dict]) -> int:
        """Append the rows whose key has no row yet, first per key; returns how many.

        The caller holds the write lock. Under it the journal cannot grow, so
        after one catch-up the keys are tested without another ``stat`` and
        the append writes at the size the catch-up saw.
        """
        keyed: dict[Hashable, dict] = {}
        for row in rows:
            keyed.setdefault(self._key(row), row)
        with self._lock:
            self._catch_up()
            missing = [(key, row) for key, row in keyed.items() if self._find(key) is None]
            self._write(missing, self._seen)
        return len(missing)

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
        if self._offset - self._indexed >= KEY_FILE_SLACK:
            self._write_keys()

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

    def write_keys(self) -> None:
        """Rewrite the key file to cover every complete line; the caller holds the write lock."""
        with self._lock:
            self._write_keys()

    def _write_keys(self) -> None:
        """:meth:`write_keys` with the journal's lock held. Errors are ignored: readers then parse more."""
        try:
            data = self.path.read_bytes()
            atomic_write_bytes(self.keys_path, self._build_keys(data), durable=False)
        except (OSError, StorageError, *_ROW_ERRORS):
            return
        self._indexed = data.rfind(b"\n") + 1

    def _build_keys(self, data: bytes) -> bytes:
        """Key file bytes covering every complete line of ``data``.

        The records of the key file this journal read are reused while its
        covered bytes still hash to its digest; every other line is decoded
        here. Raises as the key function does on a line that is not a row.
        """
        end = data.rfind(b"\n") + 1
        view = memoryview(data)
        old = self._keys
        if old is not None and (old.size > end or hashlib.sha256(view[: old.size]).digest() != old.digest):
            old = None
        start = line = 0
        records: list[bytes] = []
        if old is not None:
            start, line, width = old.size, old.lines, _KEYS_RECORD.size
            records = [old.records[at : at + width] for at in range(0, len(old.records), width)]
        offset = start
        for raw in data[start:end].split(b"\n")[:-1]:
            line += 1
            if raw.strip():
                key = self._key(json.loads(raw.decode("utf-8")))
                records.append(_KEYS_RECORD.pack(_digest(self._recorded(key)), line, offset))
            offset += len(raw) + 1
        records.sort()
        body = _KEYS_HEADER.pack(_KEYS_MAGIC, end, line, hashlib.sha256(view[:end]).digest()) + b"".join(records)
        return body + hashlib.sha256(body).digest()
