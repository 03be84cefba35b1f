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
import re
import shutil
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
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
    """

    def __init__(self, repo: Repository):
        repo.require()
        self._repo = repo
        self._index = Journal(repo.index_path, _index_key, group=itemgetter(1))

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


class WriteBatch:
    """Artifacts staged into a store and indexed together by one :meth:`commit`.

    :meth:`put` hashes the bytes in memory and returns their id at once.
    Unless some kind already indexes that hash, it writes the object file
    through a temp file and a rename, with no fsync and no repository lock;
    a file already there without an index row is replaced, never trusted.
    :meth:`commit` takes the write lock once, fsyncs each object file the
    batch wrote, and appends every index row still missing with one
    :meth:`Journal.append_new`. Until then no staged id is in the store. Safe to
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
            store._index.append_new(record.to_dict() for record in self._records.values())
        self._records.clear()
