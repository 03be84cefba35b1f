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

Like every journal, the index may have a key file beside it, ``index.idx``:
see :mod:`ca_engine.journal` for when it is trusted and who rewrites it.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import re
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
from .util import FileStamp, atomic_write_bytes, file_stamp, fsync_file, set_times_back, utc_now_iso

HEX64_RE = re.compile(r"[0-9a-f]{64}")
_CHUNK = 1 << 20  # objects larger than this are read through a mapping

# What ArtifactStore.copy_to knows a copy by: the digest of its bytes, then the
# copy's stat stamp, mode, owner, group and link count.
CopyStamp = tuple[str, FileStamp, int, int, int, int]


def _copy_stamp(digest: str, st: os.stat_result) -> CopyStamp:
    return (digest, file_stamp(st), st.st_mode, st.st_uid, st.st_gid, st.st_nlink)


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


_KIND_NAMES = frozenset(kind.value for kind in ArtifactKind)


def _index_key(row: dict) -> tuple[str, str]:
    """Validate an index row's kind and hash; its record is built only on demand."""
    kind, digest = row["kind"], row["hash"]
    if kind not in _KIND_NAMES or not (isinstance(digest, str) and HEX64_RE.fullmatch(digest)):
        raise ValueError(f"bad artifact id {kind!r}:{digest!r}")
    return kind, digest


class ArtifactStore:
    """Append-only artifact store over a repository directory.

    Reads are lock-free; writes serialize through the repository write lock.
    ``index.jsonl`` is a :class:`Journal` keyed by (kind value, hash) and
    grouped by hash; nothing is read until the first query.

    Every read that hashes an object goes through :meth:`_object_bytes`,
    which maps one larger than ``_CHUNK`` bytes read-only. A process that
    cuts a mapped file short in place kills the reader with SIGBUS; the
    engine never does, as it replaces object files by rename.
    """

    def __init__(self, repo: Repository):
        repo.require()
        self._repo = repo
        self._index = Journal(repo.index_path, _index_key, group=lambda key: (key[1],))

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
        return self.get_by_hash(artifact_id.hash)

    def copy_to(
        self, artifact_id: ArtifactId, dest: Path, stamp: CopyStamp | None = None, data: bytes | None = None
    ) -> CopyStamp | None:
        """Make ``dest`` hold the stored bytes, copied inside the kernel, and return its stamp.

        After a copy, ``dest`` is stamped with :func:`util.set_times_back`.
        Its stamp is then the digest with ``dest``'s stat stamp, mode, owner,
        group and link count; None when it could not be stamped. A ``dest``
        whose ``lstat`` still equals ``stamp`` holds these bytes and is left
        untouched, with the limit that function states for a change made
        within a clock tick of the stamp. Any other ``dest`` is unlinked, and
        the bytes go into a new file, so writing to it never reaches the
        store or another link. The bytes are not hashed: callers copy
        through :meth:`WriteBatch.copy_to`, which checks the id first and
        passes as ``data`` the staged bytes of an object whose file is not
        written yet, to be written in place of the object file's.
        """
        digest = artifact_id.hash
        with self._object_errors(digest):
            try:
                st = os.lstat(dest)
            except FileNotFoundError:
                pass
            else:
                if stamp is not None and _copy_stamp(digest, st) == stamp:
                    return stamp
                os.unlink(dest)
            fd = os.open(dest, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, 0o666)
            try:
                if data is not None:
                    view = memoryview(data)
                    while view:
                        view = view[os.write(fd, view) :]
                else:
                    src = os.open(self.object_path(digest), os.O_RDONLY)
                    try:
                        size = os.fstat(src).st_size
                        copied = 0
                        while copied < size and (sent := os.sendfile(fd, src, copied, size - copied)):
                            copied += sent
                    finally:
                        os.close(src)
                st = set_times_back(fd)
                return _copy_stamp(digest, st) if st is not None else None
            finally:
                os.close(fd)

    @contextmanager
    def _object_errors(self, digest: str):
        """Map I/O errors on an object file: missing is an integrity fault."""
        try:
            yield
        except FileNotFoundError:
            raise IntegrityViolationError(f"object file for {digest} is missing") from None
        except OSError as exc:
            raise StorageError(f"I/O error on object {digest}: {exc}") from exc

    @contextmanager
    def _object_bytes(self, digest: str):
        """Yield an object file's bytes: read whole up to ``_CHUNK`` bytes, else mapped read-only.

        A mapping hands the bytes to the hash without a copy out of the page
        cache; below ``_CHUNK`` one read costs less than setting one up.
        """
        with self._object_errors(digest), open(self.object_path(digest), "rb") as fh:
            if os.fstat(fh.fileno()).st_size <= _CHUNK:
                yield fh.read()
            else:
                with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
                    yield data

    def _object_digest(self, digest: str) -> str:
        with self._object_bytes(digest) as data:
            return sha256_hex(data)

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
        return self._index.holds(digest)

    def get_by_hash(self, digest: str, lead: bytes | None = None) -> bytes | None:
        """The blob with this hash, verified as it is read through :meth:`_object_bytes`.

        With ``lead``, a blob whose first byte other than whitespace is not
        ``lead`` is verified but not copied out, and None is returned.
        """
        if not self.has_hash(digest):
            raise NotFoundError(f"no artifact with hash {digest}")
        with self._object_bytes(digest) as data:
            if sha256_hex(data) != digest:
                raise IntegrityViolationError(f"stored bytes of {digest} no longer match digest")
            if lead is not None and (first := re.search(rb"\S", data)) is not None and first.group() != lead:
                return None
            return bytes(data)


class WriteBatch:
    """Artifacts staged into a store and indexed together by one :meth:`commit`.

    :meth:`put` hashes the bytes in memory and returns their id at once,
    writing nothing. Unless some kind already indexes that hash, the bytes
    stay staged in the batch until :meth:`write` writes their object file
    through a temp file and a rename, with no fsync and no repository lock,
    and drops them; a file already there without an index row is replaced,
    never trusted. Concurrent writes of one blob write it once. Until its
    file is written, :meth:`copy_to` copies a blob from the staged bytes.
    :meth:`commit` writes whatever is still staged, then takes the write lock
    once, fsyncs each object file the batch wrote, and only then appends
    every index row still missing with one :meth:`Journal.append`. Until
    then no staged id is in the store. Safe to share between threads.

    A batch is run-scoped and trusts only hashes seeded as ``verified``, ones
    :meth:`check` passed, and ones whose bytes :meth:`put` hashed and staged:
    a file that ``put`` found indexed predates the batch.
    """

    def __init__(self, store: ArtifactStore, verified: Iterable[str] = ()):
        self._store = store
        self._lock = threading.Lock()
        self._records: dict[tuple[str, str], ArtifactRecord] = {}
        self._file_locks: dict[str, threading.Lock] = {}
        # Bytes put hashed whose object file is not written yet, by digest.
        self._staged: dict[str, bytes] = {}
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
        digest = sha256_hex(data)
        artifact_id = ArtifactId(kind, digest)
        key = (kind.value, digest)
        indexed = self._store._index.group(digest)  # the one lookup, and the one stat of the index
        if key in indexed:
            return artifact_id
        with self._lock:
            self._records.setdefault(key, ArtifactRecord(artifact_id, len(data), media_type, utc_now_iso(), labels))
            if not indexed and digest not in self._written:
                self._staged.setdefault(digest, data)
                self._trusted.add(digest)
        return artifact_id

    def write(self, ids: Iterable[ArtifactId]) -> None:
        """Write the object file of each of ``ids`` still staged, and drop its bytes.

        A second write of one blob waits for the first, so each of ``ids``
        has its file in place when this returns.
        """
        for artifact_id in ids:
            digest = artifact_id.hash
            with self._file_lock(digest):
                data = self._staged.get(digest)
                if data is None:
                    continue
                atomic_write_bytes(self._store.object_path(digest), data, durable=False)
                with self._lock:
                    self._written.add(digest)
                    del self._staged[digest]

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

    def copy_to(self, artifact_id: ArtifactId, dest: Path, stamp: CopyStamp | None = None) -> CopyStamp | None:
        """:meth:`check` the id, then :meth:`ArtifactStore.copy_to`, from the staged bytes while they are unwritten."""
        self.check(artifact_id)
        return self._store.copy_to(artifact_id, dest, stamp, self._staged.get(artifact_id.hash))

    def commit(self) -> None:
        """Write what is still staged, make every object file the batch wrote durable, then index them.

        A no-op when nothing is staged.
        """
        if not self._records:
            return
        self.write([record.id for record in self._records.values()])
        store = self._store
        with store._repo.write_lock():
            for digest in sorted(self._written):
                fsync_file(store.object_path(digest))
            # Another writer may have indexed some of them since they were staged.
            store._index.append(record.to_dict() for record in self._records.values())
        self._records.clear()
