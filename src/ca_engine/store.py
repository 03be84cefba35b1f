"""Content-addressed, append-only artifact storage with integrity checking.

Blobs live at ``objects/<hh>/<remaining-62-hex>`` named by the SHA-256 of
their bytes; ``index.jsonl`` holds one record per (kind, hash). An artifact's
identity is the pair of its kind and content hash, so identical bytes stored
under two kinds are two artifacts sharing one blob. Records are never
mutated: labels are fixed at put time and re-puts are no-ops.
"""

from __future__ import annotations

import hashlib
import re
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

from .errors import IntegrityViolationError, NotFoundError, StorageError
from .journal import Journal
from .repo import Repository
from .util import append_line  # noqa: F401  (the benchmark's tracer patches this binding)
from .util import atomic_write_bytes, utc_now_iso

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


_KINDS = frozenset(kind.value for kind in ArtifactKind)


def _index_key(row: dict) -> tuple[str, str]:
    """Validate an index row's kind and hash; its record is built only on demand."""
    kind, digest = row["kind"], row["hash"]
    if kind not in _KINDS or not (isinstance(digest, str) and HEX64_RE.fullmatch(digest)):
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
        self._index = Journal(repo.index_path, _index_key, group=lambda key: key[1])

    # -- internals ---------------------------------------------------------

    def object_path(self, digest: str) -> Path:
        return self._repo.objects_dir / digest[:2] / digest[2:]

    def _lookup(self, artifact_id: ArtifactId) -> None:
        if self._index.get((artifact_id.kind.value, artifact_id.hash)) is None:
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
        labels = dict(labels or {})
        for key in labels:
            if not key:
                raise ValueError("label keys must be nonempty")
        digest = sha256_hex(data)
        artifact_id = ArtifactId(kind, digest)
        with self._repo.write_lock():
            if self._index.get((kind.value, digest)) is not None:
                return artifact_id
            try:
                obj = self.object_path(digest)
                if not obj.exists():
                    atomic_write_bytes(obj, data)
                record = ArtifactRecord(artifact_id, len(data), media_type, utc_now_iso(), labels)
                self._index.append([record.to_dict()])
            except OSError as exc:
                raise StorageError(f"failed to store {artifact_id}: {exc}") from exc
        return artifact_id

    def get(self, artifact_id: ArtifactId) -> bytes:
        """Return the blob; raises on unknown ids and on digest mismatch."""
        self._lookup(artifact_id)
        data = self._read_object(artifact_id.hash)
        if sha256_hex(data) != artifact_id.hash:
            raise IntegrityViolationError(f"stored bytes of {artifact_id} no longer match digest")
        return data

    def check(self, artifact_id: ArtifactId) -> None:
        """Raise as :meth:`get` would, without holding the blob in memory."""
        self._lookup(artifact_id)
        if self._object_digest(artifact_id.hash) != artifact_id.hash:
            raise IntegrityViolationError(f"stored bytes of {artifact_id} no longer match digest")

    def copy_to(self, artifact_id: ArtifactId, dest: Path) -> None:
        """Copy the stored bytes to a new file ``dest``, inside the kernel.

        The bytes are not hashed: callers :meth:`check` the id first. ``dest``
        is a file of its own, so writing to it never reaches the store.
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

    def _object_digest(self, digest: str) -> str:
        """SHA-256 of an object file, read in fixed-size chunks."""
        hasher = hashlib.sha256()
        with self._object_errors(digest), open(self.object_path(digest), "rb") as fh:
            while chunk := fh.read(_CHUNK):
                hasher.update(chunk)
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

    def get_by_hash(self, digest: str) -> bytes:
        if not self.has_hash(digest):
            raise NotFoundError(f"no artifact with hash {digest}")
        data = self._read_object(digest)
        if sha256_hex(data) != digest:
            raise IntegrityViolationError(f"stored bytes of {digest} no longer match digest")
        return data

    def object_count(self) -> int:
        return sum(1 for _ in self._repo.objects_dir.glob("*/*"))
