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
Git's pack ``.idx``. For a prefix of the journal it holds fixed-width
records sorted by digest and line: for each row and each of its lookup
values (the values ``group`` returns, or the row's key when the journal has
no ``group``), a digest of the value, the row's line number and its byte
offset. It also holds the prefix's length and line count, the journal's
stat stamp (:func:`util.set_times_back`) when the key file was written, and
a SHA-256 of its own bytes. A reader trusts it only when its own digest
holds, the prefix ends with a newline, and the journal's stat, taken after
reading it, still equals the stamp. A point lookup then bisects the records
of the key's first value and a group lookup those of its value, decodes
only the candidate lines, in line order and keeping the first row per key,
and parses only the lines after the prefix. Otherwise the whole journal is
parsed, so damage anywhere in it is reported as without a key file.
:meth:`Journal.rows` always parses every line.

The stamp is trusted as Git trusts its index's stat data, with no check of
the content behind it. A writer stamps the journal just before it writes
the key file, setting the journal's modification time back about a second,
so that any later write to the journal, or a later restore of that time,
moves the modification or change time. The limit is the change time's
clock: on a kernel that records it at a clock tick, a write and a restored
modification time within the tick of the stamp go unseen. The one cost of
a stamp that does not match is speed: the reader parses the whole journal
until the next writer rewrites the key file. On a file system that does not
keep the modification time to the nanosecond no stamp is taken, no key file
is written, and every read parses the whole journal.

Every append reads the journal first: it parses what its handle has not
yet read, through the key file as any read does, so a damaged line fails
the writer as it fails a reader, and a row whose key already has one is
dropped, as every read would ignore it. Readers never write a key file.
Once a journal holds ``KEY_FILE_SLACK`` bytes, each append rewrites the key
file to cover the journal again, under the write lock it holds. While
the journal's stat still equals the one the handle took when it last read
or wrote it, the writer extends the newest key file it read or wrote: it
reads and decodes only the bytes past that key file's prefix and merges
their records into its sorted ones. A journal changed since in any other
way is indexed afresh from its first line. The file is written in place and
never fsynced, and errors writing it are ignored: it is derived and its own
digest fails when a write was cut short, so losing or damaging it costs
only speed.
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
from .util import FileStamp, append_line, canonical_json, file_stamp, overwrite_bytes, set_times_back, storage_errors

# Journal bytes from which each append rewrites the journal's key file.
KEY_FILE_SLACK = 32 * 1024

# <name>.idx: header, records sorted by (digest, line), then the SHA-256 of both.
# The header holds the magic, covered bytes, covered lines, and the journal's
# stamp: device, inode, size, modification and change times.
_KEYS_HEADER = struct.Struct(">8sQQQQQqq")
_KEYS_MAGIC = b"caidx\x00\x00\x06"  # the last byte is the format version
_DIGEST = 16  # bytes of a record's BLAKE2b digest
_KEYS_RECORD = struct.Struct(f">{_DIGEST}sIQ")  # digest of a lookup value, line number, offset of the line
_ROW_ERRORS = (KeyError, TypeError, AttributeError, ValueError, InvalidTupleError)


def _digest(value: Hashable) -> bytes:
    return hashlib.blake2b(canonical_json(value).encode("utf-8"), digest_size=_DIGEST).digest()


def _bisect(records: bytes, probe: bytes) -> int:
    """Index of the first of the sorted ``records`` whose leading ``len(probe)`` bytes are not below ``probe``."""
    width, span = _KEYS_RECORD.size, len(probe)
    lo, hi = 0, len(records) // width
    while lo < hi:
        mid = (lo + hi) // 2
        if records[mid * width : mid * width + span] < probe:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _KeyFile:
    """A key file's sorted records and the journal prefix they cover: its bytes and lines."""

    def __init__(self, records: bytes = b"", size: int = 0, lines: int = 0):
        self.records = records
        self.size = size
        self.lines = lines

    @classmethod
    def load(cls, path: Path, data: bytes, stamp: FileStamp) -> "_KeyFile | None":
        """The key file at ``path`` if it is intact, stamped ``stamp`` and covers a prefix of ``data`` ending in a newline.

        ``stamp`` is the journal's, taken after ``data`` was read from it. A
        key file stamped otherwise is not hashed.
        """
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        if len(raw) < _KEYS_HEADER.size + 32 or (len(raw) - 32 - _KEYS_HEADER.size) % _KEYS_RECORD.size:
            return None
        magic, size, lines, *stamped = _KEYS_HEADER.unpack_from(raw)
        if (
            magic != _KEYS_MAGIC
            or tuple(stamped) != stamp
            or hashlib.sha256(memoryview(raw)[:-32]).digest() != raw[-32:]
            or not 0 < size <= len(data)
            or data[size - 1] != ord("\n")
        ):
            return None
        return cls(raw[_KEYS_HEADER.size : -32], size, lines)

    def offsets(self, digest: bytes) -> list[tuple[int, int]]:
        """(line number, byte offset) of each row recorded under ``digest``, in line order, found by bisection."""
        found = []
        for at in range(_bisect(self.records, digest) * _KEYS_RECORD.size, len(self.records), _KEYS_RECORD.size):
            value, line, offset = _KEYS_RECORD.unpack_from(self.records, at)
            if value != digest:
                break
            found.append((line, offset))
        return found

    def extended(self, data: bytes, records: list[bytes]) -> "_KeyFile":
        """A key file covering also ``data``, the complete lines after the prefix, whose records are ``records``."""
        parts: list[bytes | memoryview] = []
        view, at = memoryview(self.records), 0
        for record in sorted(records):  # each goes after every old record of its digest: its line is later
            cut = _bisect(self.records, record) * _KEYS_RECORD.size
            parts += (view[at:cut], record)
            at = cut
        parts.append(view[at:])
        return _KeyFile(b"".join(parts), self.size + len(data), self.lines + data.count(b"\n"))

    def encode(self, stamp: FileStamp) -> bytes:
        body = _KEYS_HEADER.pack(_KEYS_MAGIC, self.size, self.lines, *stamp) + self.records
        return body + hashlib.sha256(body).digest()


class Journal:
    """One append-only JSONL file indexed by ``key(row)``, with a key file beside it.

    The artifact index, the event and promotion logs, lineage edges and run
    summaries are each one journal. ``key`` is also the row's shape check:
    raising ``KeyError``, ``TypeError`` or ``ValueError``, or returning a
    key that cannot be hashed, marks the line as damaged. ``group``
    optionally maps each key to a tuple of lookup values, so that
    :meth:`group` returns every key with a given value without a scan; a
    point lookup reads the rows of its key's first value. Writers must hold
    the repository write lock around :meth:`append`, and around any read
    whose answer decides what they append.
    """

    def __init__(
        self,
        path: Path,
        key: Callable[[dict], Hashable],
        group: Callable[[Hashable], tuple[Hashable, ...]] | None = None,
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
        self._data = b""  # the journal bytes read with it
        self._found: dict[Hashable, list[tuple[Hashable, dict]]] = {}  # covered rows by recorded value
        self._newest: _KeyFile | None = None  # the newest key file this journal read or wrote
        # The file's stamp when this handle last knew it to hold what it read or wrote; None once it
        # saw the file change otherwise, so its next key file rewrite indexes the whole file.
        self._stat: FileStamp | None = None
        self._now: FileStamp | None = None  # the stamp of the latest stat

    def _values(self, key: Hashable) -> tuple[Hashable, ...]:
        """The lookup values the key file records a row with this key under, the point lookup's first."""
        if self._group is None:
            return (key,)
        values = self._group(key)
        if isinstance(values, str):  # iterating it would record each character
            raise TypeError(f"{self.path.name}: group must return a tuple of values, not the string {values!r}")
        return values

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
        """Keys with ``value`` among their ``group`` values, in file order."""
        with self._lock:
            self._catch_up()
            covered = [key for key, _ in self._covered(value) if value in self._values(key)]
            return list(dict.fromkeys([*covered, *self._groups.get(value, ())]))

    def holds(self, value: Hashable) -> bool:
        """Whether some key has ``value`` among its ``group`` values; a value already held skips the file."""
        with self._lock:
            if self._holds(value):
                return True
            self._catch_up()
            return self._holds(value)

    def _holds(self, value: Hashable) -> bool:
        """Whether a key covered or parsed has ``value`` among its values; the caller holds the lock."""
        return value in self._groups or any(value in self._values(key) for key, _ in self._covered(value))

    @property
    def covered(self) -> int:
        """Bytes of the journal answered from the key file; 0 when it is not used."""
        with self._lock:
            self._catch_up()
            return self._keys.size if self._keys is not None else 0

    def _find(self, key: Hashable) -> dict | None:
        """The first row with this key among the rows covered or parsed; the caller holds the lock."""
        if self._keys is not None:
            for covered_key, row in self._covered(self._values(key)[0]):
                if covered_key == key:
                    return row
        return self._rows.get(key)

    def _covered(self, value: Hashable) -> list[tuple[Hashable, dict]]:
        """(key, first row) of the covered keys recorded under ``value``'s digest; the caller holds the lock."""
        if self._keys is None:
            return []
        found = self._found.get(value)
        if found is None:
            rows: dict[Hashable, dict] = {}
            data = self._data
            for line, offset in self._keys.offsets(_digest(value)):
                try:
                    row = json.loads(data[offset : data.index(b"\n", offset)].decode("utf-8"))
                    rows.setdefault(self._key(row), row)
                except _ROW_ERRORS:
                    raise self._corrupt(line, f"is not the row {self.keys_path.name} points at") from None
            found = self._found[value] = list(rows.items())
        return found

    def _size(self) -> int:
        """The file's size, 0 when it is missing; a file that shrank resets the parse state."""
        try:
            st = os.stat(self.path)
            size, self._now = st.st_size, file_stamp(st)
        except FileNotFoundError:
            size, self._now = 0, None
        if size < self._offset:
            self._reset()
        return size

    def _catch_up(self) -> None:
        size = self._size()
        # A torn tail is read again: another writer may have cut it and written as many bytes.
        if size == self._seen == self._offset:
            return
        with storage_errors(self.path, "read"), open(self.path, "rb") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
            stamp = file_stamp(os.fstat(fh.fileno()))
        start = 0
        # Bytes another writer appended, or a change during the read, may come with a changed prefix.
        self._stat = stamp if self._offset == 0 and stamp == self._now else None
        if self._offset == 0 and self._use_keys:
            self._keys = self._newest = _KeyFile.load(self.keys_path, chunk, stamp)
            if self._keys is not None:
                self._data = chunk
                start = self._keys.size
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
                key = self._key(row)
                hash(key)
            except _ROW_ERRORS as exc:
                raise self._corrupt(line, f"bad row ({exc!r})") from None
            self._insert(key, row)
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
                for value in self._values(key):
                    self._groups.setdefault(value, []).append(key)

    def _corrupt(self, line: int, reason: str) -> IntegrityViolationError:
        return IntegrityViolationError(f"{self.path}: line {line}: {reason}")

    # -- writing -------------------------------------------------------------

    def append(self, rows: Iterable[dict]) -> int:
        """Durably append the rows whose key has no row yet, first per key, with one write and one fsync.

        Returns how many it appended. The caller holds the write lock. The
        journal first catches up, through its key file once the file holds
        ``KEY_FILE_SLACK`` bytes, so a damaged line raises as it does for a
        reader. Under the lock the file cannot grow, so the rows are written
        at the end of its last complete line, cutting off a torn tail, and
        are indexed without being read back.
        """
        keyed: dict[Hashable, dict] = {}
        for row in rows:
            keyed.setdefault(self._key(row), row)
        with self._lock:
            self._catch_up()
            missing = [(key, row) for key, row in keyed.items() if self._find(key) is None]
            if not missing:
                return 0
            text = "\n".join(canonical_json(row) for _, row in missing)
            st = append_line(self.path, text, truncate_to=self._offset if self._seen > self._offset else None)
            self._stat = file_stamp(st) if self._stat is not None and self._stat == self._now else None
            for key, row in missing:
                self._insert(key, row)
            self._lines += len(missing)
            self._offset = self._seen = self._offset + len(text.encode("utf-8")) + 1
            if self._offset >= KEY_FILE_SLACK:
                try:
                    self._write_keys()
                except (OSError, StorageError, *_ROW_ERRORS):
                    pass  # the key file is derived: without it readers parse more
        return len(missing)

    def write_keys(self) -> None:
        """Rewrite the key file to cover every complete line; the caller holds the write lock.

        Raises as the key function does on a line that is not a row, and as
        writing the file does.
        """
        with self._lock:
            self._write_keys()

    def _write_keys(self) -> None:
        """:meth:`write_keys` with the journal's lock held.

        It stamps the journal. While the journal still holds what this
        handle last read or wrote, it extends the newest key file the handle
        read or wrote, so only the bytes after that one's prefix are read and
        decoded; otherwise it indexes the whole journal afresh. A journal
        that cannot be stamped gets no key file.
        """
        with open(self.path, "rb") as fh:
            newest = (self._newest if self._stat == file_stamp(os.fstat(fh.fileno())) else None) or _KeyFile()
            st = set_times_back(fh.fileno())
            self._stat = file_stamp(st) if st is not None else None
            if st is None:
                return
            fh.seek(newest.size)
            tail = fh.read()
        tail = tail[: tail.rfind(b"\n") + 1]
        records: list[bytes] = []
        line, offset = newest.lines, newest.size
        for raw in tail.split(b"\n")[:-1]:
            line += 1
            if raw.strip():
                key = self._key(json.loads(raw.decode("utf-8")))
                records += [_KEYS_RECORD.pack(_digest(value), line, offset) for value in self._values(key)]
            offset += len(raw) + 1
        keys = newest.extended(tail, records)
        overwrite_bytes(self.keys_path, keys.encode(self._stat))
        self._newest = keys
