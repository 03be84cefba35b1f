"""Content-addressed, append-only artifact storage with integrity checking.

Blobs live at ``objects/<hh>/<remaining-62-hex>`` named by the SHA-256 of
their bytes; ``index.jsonl`` holds one record per (kind, hash). An artifact's
identity is the pair of its kind and content hash, so identical bytes stored
under two kinds are two artifacts sharing one blob. Records are never
mutated: labels are fixed at put time and re-puts are no-ops.

An index row is the commit point of an artifact. Object files are written
through a temp file and a rename and made durable before their rows are
appended, so an object file whose hash has no index row is not part of the
store: writes replace it rather than trust it.

``index.idx`` is a key file derived from the index (see :class:`ArtifactIndex`):
never fsynced, trusted only while its digests match, and rebuilt by writers.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from .errors import IntegrityViolationError, NotFoundError, StorageError
from .journal import Journal
from .repo import Repository
from .util import append_line  # noqa: F401  (bench/tests/test_bench.py reads this binding)
from .util import atomic_write_bytes, fsync_file, utc_now_iso

HEX64_RE = re.compile(r"[0-9a-f]{64}")
_CHUNK = 1 << 20


def sha256_hex(data: bytes) -> str:
    """Lowercase 64-hex SHA-256 digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def is_content_hash(value: str) -> bool:
    return bool(HEX64_RE.fullmatch(value))


class ArtifactKind(str, Enum):
    """The six tracked artifact kinds. Serialized names are lowercase and stable."""

    DATA = "data"
    CODE = "code"
    DEPENDENCY = "dependency"
    TEST = "test"
    DEPLOYMENT = "deployment"
    RESULT = "result"


@dataclass(frozen=True)
class ArtifactId:
    """Kind-scoped content address: two equal-byte blobs of one kind share an id."""

    kind: ArtifactKind
    hash: str

    def __post_init__(self) -> None:
        if not is_content_hash(self.hash):
            raise ValueError(f"not a content hash: {self.hash!r}")

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.hash}"

    @classmethod
    def parse(cls, text: str) -> "ArtifactId":
        kind, sep, digest = text.partition(":")
        if not sep:
            raise ValueError(f"artifact id must look like <kind>:<hash>, got {text!r}")
        try:
            return cls(ArtifactKind(kind), digest)
        except ValueError as exc:
            raise ValueError(f"bad artifact id {text!r}: {exc}") from None


@dataclass(frozen=True)
class ArtifactRecord:
    id: ArtifactId
    size: int
    media_type: str
    created_at: str
    labels: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.id.kind.value,
            "hash": self.id.hash,
            "size": self.size,
            "media_type": self.media_type,
            "created_at": self.created_at,
            "labels": dict(self.labels),
        }

    @classmethod
    def from_dict(cls, row: Mapping) -> "ArtifactRecord":
        return cls(
            id=ArtifactId(ArtifactKind(row["kind"]), row["hash"]),
            size=int(row["size"]),
            media_type=row["media_type"],
            created_at=row["created_at"],
            labels=dict(row.get("labels") or {}),
        )


_KIND_NAMES = tuple(kind.value for kind in ArtifactKind)
_KIND_CODES = {name: code for code, name in enumerate(_KIND_NAMES)}  # a kind's byte in the key file


def _index_key(row: dict) -> tuple[str, str]:
    """Validate an index row's kind and hash; its record is built only on demand."""
    kind, digest = row["kind"], row["hash"]
    if kind not in _KIND_CODES or not (isinstance(digest, str) and HEX64_RE.fullmatch(digest)):
        raise ValueError(f"bad artifact id {kind!r}:{digest!r}")
    return kind, digest


# Uncovered index bytes at which a writer rewrites the key file.
KEY_FILE_SLACK = 32 * 1024

# index.idx: header, records sorted by (hash, line), then the SHA-256 of both.
_KEYS_HEADER = struct.Struct(">8sQQ32s")  # magic, covered bytes, covered lines, SHA-256 of the covered bytes
_KEYS_MAGIC = b"caidx\x00\x00\x01"  # the last byte is the format version
_KEYS_RECORD = struct.Struct(">32sIBQ")  # hash, line number, kind code, offset of the line


class _KeyFile:
    """A key file whose digests hold: the first record of each key in ``data[:size]``."""

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

    def first(self, digest: str) -> list[tuple[str, int, int]]:
        """(kind, line, offset) of each key with this hash, in line order, found by bisection."""
        if not HEX64_RE.fullmatch(digest):
            return []
        target = bytes.fromhex(digest)
        records, width = self.records, _KEYS_RECORD.size
        lo, hi = 0, len(records) // width
        while lo < hi:
            mid = (lo + hi) // 2
            if records[mid * width : mid * width + 32] < target:
                lo = mid + 1
            else:
                hi = mid
        found = []
        for at in range(lo * width, len(records), width):
            value, line, code, offset = _KEYS_RECORD.unpack_from(records, at)
            if value != target:
                break
            found.append((_KIND_NAMES[code], line, offset))
        return found

    @staticmethod
    def build(data: bytes, old: "_KeyFile | None") -> bytes:
        """Key file bytes covering every complete line of ``data``.

        The records of ``old`` are reused while its covered bytes still hash
        to its digest; every other line is decoded here. Raises
        ``ValueError``, ``KeyError`` or ``TypeError`` on a line that does not
        decode to an index row.
        """
        end = data.rfind(b"\n") + 1
        view = memoryview(data)
        if old is not None and (old.size > end or hashlib.sha256(view[: old.size]).digest() != old.digest):
            old = None
        start = line = 0
        records: list[bytes] = []
        seen: set[tuple[bytes, int]] = set()
        if old is not None:
            start, line, width = old.size, old.lines, _KEYS_RECORD.size
            records = [old.records[at : at + width] for at in range(0, len(old.records), width)]
            seen = {(value, code) for value, _, code, _ in _KEYS_RECORD.iter_unpack(old.records)}
        offset = start
        for raw in data[start:end].split(b"\n")[:-1]:
            line += 1
            if raw.strip():
                kind, digest = _index_key(json.loads(raw.decode("utf-8")))
                key = (bytes.fromhex(digest), _KIND_CODES[kind])
                if key not in seen:
                    seen.add(key)
                    records.append(_KEYS_RECORD.pack(key[0], line, key[1], offset))
            offset += len(raw) + 1
        records.sort()
        body = _KEYS_HEADER.pack(_KEYS_MAGIC, end, line, hashlib.sha256(view[:end]).digest()) + b"".join(records)
        return body + hashlib.sha256(body).digest()


class ArtifactIndex(Journal):
    """``index.jsonl`` keyed by (kind value, hash) and grouped by hash, with a key file.

    The key file (``index.idx``) holds, for a prefix of the index, the first
    row of each key as a fixed-width record pointing at its line, sorted by
    (hash, line), with the prefix's length, line count and SHA-256 and a
    digest of the key file itself. A reader uses it only when both digests
    hold and the prefix ends with a newline: point lookups then bisect the
    records and decode only the lines they return, plus the lines after the
    prefix. Otherwise the whole index is parsed, so damage anywhere in it is
    reported as in any journal. :meth:`rows` always parses every line.

    Readers never write the key file. A writer whose append leaves at least
    ``KEY_FILE_SLACK`` bytes uncovered rewrites it under the write lock it
    holds, without fsync and ignoring errors: the file is derived, so losing
    or damaging it costs only speed.
    """

    def __init__(self, path: Path, keys_path: Path):
        self.keys_path = keys_path
        self._use_keys = True
        super().__init__(path, _index_key, group=lambda key: key[1])

    def _reset(self) -> None:
        super()._reset()
        self._keys: _KeyFile | None = None
        self._found: dict[str, list[tuple[str, int, int]]] = {}  # bisection results by hash
        self._indexed = 0  # bytes covered by the newest key file this journal read or wrote

    def _skippable(self, data: bytes) -> int:
        keys = _KeyFile.load(self.keys_path, data) if self._use_keys else None
        if keys is None:
            return 0
        self._keys, self._lines, self._indexed = keys, keys.lines, keys.size
        return keys.size

    @property
    def covered(self) -> int:
        """Bytes of the index answered from the key file; 0 when it is not used."""
        with self._lock:
            self._catch_up()
            return self._keys.size if self._keys is not None else 0

    def _first(self, digest: str) -> list[tuple[str, int, int]]:
        """(kind, line, offset) of the covered keys with this hash; the caller holds the lock."""
        if self._keys is None:
            return []
        found = self._found.get(digest)
        if found is None:
            found = self._found[digest] = self._keys.first(digest)
        return found

    def _covered_line(self, key: tuple[str, str]) -> tuple[int, int] | None:
        """(line, offset) of the key's first row when the key file covers it; the caller holds the lock."""
        for kind, line, offset in self._first(key[1]):
            if kind == key[0]:
                return line, offset
        return None

    def _locate(self, key: tuple[str, str]) -> tuple[int, int] | None:
        """:meth:`_covered_line`, catching up first unless the key is covered or parsed.

        Covered and parsed rows never change, so a hit costs no ``stat``.
        """
        found = self._covered_line(key)
        if found is None and key not in self._rows:
            self._catch_up()
            found = self._covered_line(key)
        return found

    def get(self, key: tuple[str, str]) -> dict | None:
        with self._lock:
            found = self._locate(key)
            if found is None:
                return self._rows.get(key)
            line, offset = found
            data = self._keys.data
            try:
                row = json.loads(data[offset : data.index(b"\n", offset)])
                if self._key(row) == key:
                    return row
            except (KeyError, TypeError, ValueError):
                pass
            raise self._corrupt(line, f"is not the row {self.keys_path.name} points at")

    def __contains__(self, key: tuple[str, str]) -> bool:
        with self._lock:
            return self._locate(key) is not None or key in self._rows

    def group(self, value: str) -> list[tuple[str, str]]:
        with self._lock:
            self._catch_up()
            first = [(kind, value) for kind, _, _ in self._first(value)]
            return first + [key for key in self._groups.get(value, ()) if key not in first]

    def rows(self) -> dict[tuple[str, str], dict]:
        with self._lock:
            self._use_keys = False
            if self._keys is not None:
                self._reset()
        return super().rows()

    def append(self, rows: Iterable[dict]) -> None:
        """Append the rows whose key has none yet, after one catch-up; the caller holds the write lock.

        Under that lock the index cannot grow, so the keys are tested without
        another ``stat`` and the append writes at the size the catch-up saw.
        """
        keyed = [(self._key(row), row) for row in rows]
        with self._lock:
            self._catch_up()
            missing = [(key, row) for key, row in keyed if self._covered_line(key) is None and key not in self._rows]
            self._write(missing, self._seen)
        if self._offset - self._indexed >= KEY_FILE_SLACK:
            self.write_keys()

    def write_keys(self) -> None:
        """Rewrite the key file to cover every complete line; the caller holds the write lock.

        Errors are ignored: readers then keep parsing what is left uncovered.
        """
        with self._lock:
            try:
                data = self.path.read_bytes()
                atomic_write_bytes(self.keys_path, _KeyFile.build(data, self._keys), durable=False)
            except (OSError, StorageError, KeyError, TypeError, ValueError):
                return
            self._indexed = data.rfind(b"\n") + 1


class ArtifactStore:
    """Append-only artifact store over a repository directory.

    Reads are lock-free; writes serialize through the repository write lock.
    ``index.jsonl`` is an :class:`ArtifactIndex`; nothing is read until the
    first query.
    """

    def __init__(self, repo: Repository):
        repo.require()
        self._repo = repo
        self._index = ArtifactIndex(repo.index_path, repo.index_keys_path)

    # -- internals ---------------------------------------------------------

    def object_path(self, digest: str) -> Path:
        return self._repo.objects_dir / digest[:2] / digest[2:]

    def _lookup(self, artifact_id: ArtifactId) -> None:
        if (artifact_id.kind.value, artifact_id.hash) not in self._index:
            raise NotFoundError(f"artifact {artifact_id} not in index")

    # -- operations ----------------------------------------------------------

    def put(
        self,
        kind: ArtifactKind,
        data: bytes,
        media_type: str = "application/octet-stream",
        labels: Mapping[str, str] | None = None,
    ) -> ArtifactId:
        """Store a blob under its content hash. Idempotent per (kind, bytes)."""
        batch = WriteBatch(self)
        artifact_id = batch.put(kind, data, media_type, labels)
        batch.commit()
        return artifact_id

    def get(self, artifact_id: ArtifactId) -> bytes:
        """Return the blob; raises on unknown ids and on digest mismatch."""
        self._lookup(artifact_id)
        data = self._read_object(artifact_id.hash)
        if sha256_hex(data) != artifact_id.hash:
            raise IntegrityViolationError(f"stored bytes of {artifact_id} no longer match digest")
        return data

    def copy_to(self, artifact_id: ArtifactId, dest: Path) -> None:
        """Copy the stored bytes to a new file ``dest``, inside the kernel.

        The bytes are not hashed: callers check the id with
        :meth:`WriteBatch.check` first. ``dest`` is a file of its own, so
        writing to it never reaches the store.
        """
        with self._object_errors(artifact_id.hash):
            shutil.copyfile(self.object_path(artifact_id.hash), dest)

    @contextmanager
    def _object_errors(self, digest: str):
        """Map I/O errors on an object file: missing is an integrity fault."""
        try:
            yield
        except FileNotFoundError:
            raise IntegrityViolationError(f"object file for {digest} is missing") from None
        except OSError as exc:
            raise StorageError(f"I/O error on object {digest}: {exc}") from exc

    def _read_object(self, digest: str) -> bytes:
        with self._object_errors(digest):
            return self.object_path(digest).read_bytes()

    def _object_digest(self, digest: str, kept: list[bytes] | None = None, lead: bytes | None = None) -> str:
        """SHA-256 of an object file, read in fixed-size chunks.

        Chunks are appended to ``kept`` when one is given. With ``lead``, they
        are kept only while no byte but whitespace has been read or the first
        other byte is ``lead``, so bytes that cannot match are not held.
        """
        hasher = hashlib.sha256()
        with self._object_errors(digest), open(self.object_path(digest), "rb") as fh:
            while chunk := fh.read(_CHUNK):
                hasher.update(chunk)
                if kept is not None:
                    kept.append(chunk)
                    if lead is not None and chunk.strip():
                        if chunk.lstrip()[:1] != lead:
                            kept.clear()
                            kept = None
                        lead = None
        return hasher.hexdigest()

    def verify(self, artifact_id: ArtifactId) -> bool:
        """True iff the stored bytes still hash to the id. Never mutates state."""
        self._lookup(artifact_id)
        try:
            return self._object_digest(artifact_id.hash) == artifact_id.hash
        except StorageError:
            return False

    def has(self, artifact_id: ArtifactId) -> bool:
        try:
            self._lookup(artifact_id)
            return True
        except NotFoundError:
            return False

    def list(
        self,
        kind: ArtifactKind | None = None,
        labels: Mapping[str, str] | None = None,
    ) -> list[ArtifactRecord]:
        """Records matching kind and containing all filter label pairs.

        Ordered by created_at, then id, so repeated calls with no writes in
        between return identical output.
        """
        wanted = dict(labels or {})
        out = []
        for (row_kind, _), row in self._index.rows().items():
            if kind is not None and row_kind != kind.value:
                continue
            row_labels = row.get("labels") or {}
            if any(row_labels.get(k) != v for k, v in wanted.items()):
                continue
            out.append(ArtifactRecord.from_dict(row))
        out.sort(key=lambda r: (r.created_at, r.id.kind.value, r.id.hash))
        return out

    # -- hash-keyed access (artifact version pins carry bare content hashes) --

    def find_by_hash(self, digest: str) -> list[ArtifactRecord]:
        """Records of every kind stored with these bytes, by kind name."""
        return [ArtifactRecord.from_dict(self._index.get(key)) for key in sorted(self._index.group(digest))]

    def has_hash(self, digest: str) -> bool:
        return bool(self._index.group(digest))

    def get_by_hash(self, digest: str, lead: bytes | None = None) -> bytes | None:
        """The blob with this hash, verified in one streamed pass.

        With ``lead``, a blob whose first byte other than whitespace is not
        ``lead`` is verified but not kept, and None is returned.
        """
        if not self.has_hash(digest):
            raise NotFoundError(f"no artifact with hash {digest}")
        kept: list[bytes] = []
        if self._object_digest(digest, kept, lead) != digest:
            raise IntegrityViolationError(f"stored bytes of {digest} no longer match digest")
        if lead is not None and not kept:
            return None
        return b"".join(kept)

    def object_count(self) -> int:
        return sum(1 for _ in self._repo.objects_dir.glob("*/*"))


class WriteBatch:
    """Artifacts staged into a store and indexed together by one :meth:`commit`.

    :meth:`put` hashes the bytes in memory and returns their id at once.
    Unless some kind already indexes that hash, it writes the object file
    through a temp file and a rename, with no fsync and no repository lock;
    a file already there without an index row is replaced, never trusted.
    :meth:`commit` takes the write lock once, fsyncs each object file the
    batch wrote, and appends every index row still missing with one
    :meth:`Journal.append`. Until then no staged id is in the store. Safe to
    share between threads.

    A batch is run-scoped and trusts only hashes seeded as ``verified``, ones
    :meth:`check` passed, and ones whose object file :meth:`put` wrote from
    bytes it hashed: a file that ``put`` found indexed predates the batch.
    """

    def __init__(self, store: ArtifactStore, verified: Iterable[str] = ()):
        self._store = store
        self._lock = threading.Lock()
        self._records: dict[tuple[str, str], ArtifactRecord] = {}
        self._file_locks: dict[str, threading.Lock] = {}
        # Digests whose object file this batch wrote from bytes it hashed.
        self._written: set[str] = set()
        self._trusted: set[str] = set(verified)

    def _file_lock(self, digest: str) -> threading.Lock:
        with self._lock:
            return self._file_locks.setdefault(digest, threading.Lock())

    def put(
        self,
        kind: ArtifactKind,
        data: bytes,
        media_type: str = "application/octet-stream",
        labels: Mapping[str, str] | None = None,
    ) -> ArtifactId:
        """Stage a blob under its content hash; idempotent per (kind, bytes)."""
        labels = dict(labels or {})
        if not all(labels):
            raise ValueError("label keys must be nonempty")
        store = self._store
        digest = sha256_hex(data)
        artifact_id = ArtifactId(kind, digest)
        key = (kind.value, digest)
        if key in store._index:
            return artifact_id
        with self._lock:
            self._records.setdefault(key, ArtifactRecord(artifact_id, len(data), media_type, utc_now_iso(), labels))
        # Held while writing, so a second put of these bytes returns only once the file is in place.
        with self._file_lock(digest):
            if digest not in self._written and not store.has_hash(digest):
                atomic_write_bytes(store.object_path(digest), data, durable=False)
                self._written.add(digest)
                self._trusted.add(digest)
        return artifact_id

    def check(self, artifact_id: ArtifactId) -> None:
        """Raise as :meth:`ArtifactStore.get` would, unless the hash is trusted.

        The first caller hashes the object file under the digest's lock and
        later ones wait for it; a hash that passes is trusted. Every kind
        shares the object file, so any kind indexing the hash will do.
        """
        digest = artifact_id.hash
        if digest in self._trusted:
            return
        with self._file_lock(digest):
            if digest in self._trusted:
                return
            if not self._store.has_hash(digest):
                raise NotFoundError(f"artifact {artifact_id} not in index")
            if self._store._object_digest(digest) != digest:
                raise IntegrityViolationError(f"stored bytes of {artifact_id} no longer match digest")
            self._trusted.add(digest)

    def commit(self) -> None:
        """Make the staged objects durable, then index them; a no-op when nothing is staged."""
        if not self._records:
            return
        store = self._store
        with store._repo.write_lock():
            for digest in sorted(self._written):
                fsync_file(store.object_path(digest))
            # Another writer may have indexed some of them since they were staged.
            store._index.append([record.to_dict() for record in self._records.values()])
        self._records.clear()
