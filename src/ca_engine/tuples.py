"""Artifact version tuples and the run records bound to them.

A tuple maps component names to version pins and uniquely characterizes a
run's inputs. Its canonical encoding lists components in lexicographic
order, each as ``component\\nversion\\ncontent-or-empty\\n``, which makes the
tuple hash independent of construction order. Run ids join the first twelve
hex chars of the tuple hash with the first sequence number still free.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import (
    DanglingReferenceError,
    InvalidTupleError,
    RunConflictError,
    RunNotFoundError,
)
from .journal import Journal
from .repo import Repository
from .store import ArtifactId, ArtifactKind, ArtifactStore, is_content_hash, sha256_hex
from .util import atomic_write_text, canonical_json, decode_state, file_stamp, load_state, make_dir, stamp_path

COMPONENT_RE = re.compile(r"[a-z0-9_-]+")
BASELINE_COMPONENTS = ("code", "data", "dependencies", "deployment")

RUN_KINDS = ("validation", "release")
RUN_STATUSES = ("running", "succeeded", "failed")

RUN_ID_RE = re.compile(r"[0-9a-f]{12}-\d{6}")


@dataclass(frozen=True)
class VersionPin:
    """One component's pinned version, optionally backed by a content hash."""

    component: str
    version: str
    content: str | None = None

    def __post_init__(self) -> None:
        if not COMPONENT_RE.fullmatch(self.component):
            raise InvalidTupleError(f"bad component name: {self.component!r}")
        if not self.version or "\n" in self.version:
            raise InvalidTupleError(f"bad version for {self.component}: {self.version!r}")
        if self.content is not None and not is_content_hash(self.content):
            raise InvalidTupleError(f"bad content hash for {self.component}: {self.content!r}")

    def to_dict(self) -> dict:
        return {"version": self.version, "content": self.content}


@dataclass(frozen=True)
class ArtifactVersionTuple:
    """Immutable component→pin map; iteration order is lexicographic."""

    pins: tuple[VersionPin, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.pins, key=lambda p: p.component))
        names = [p.component for p in ordered]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise InvalidTupleError(f"duplicate components: {', '.join(dupes)}")
        object.__setattr__(self, "pins", ordered)

    @classmethod
    def of(cls, *pins: VersionPin) -> "ArtifactVersionTuple":
        return cls(tuple(pins))

    @classmethod
    def from_dict(cls, pins: Mapping[str, Mapping]) -> "ArtifactVersionTuple":
        return cls(
            tuple(
                VersionPin(component, spec["version"], spec.get("content"))
                for component, spec in pins.items()
            )
        )

    def to_dict(self) -> dict:
        return {pin.component: pin.to_dict() for pin in self.pins}

    def components(self) -> tuple[str, ...]:
        return tuple(pin.component for pin in self.pins)

    def pin(self, component: str) -> VersionPin:
        for p in self.pins:
            if p.component == component:
                return p
        raise KeyError(component)

    def find(self, component: str) -> VersionPin | None:
        return next((p for p in self.pins if p.component == component), None)

    def with_pin(self, pin: VersionPin) -> "ArtifactVersionTuple":
        kept = tuple(p for p in self.pins if p.component != pin.component)
        return ArtifactVersionTuple(kept + (pin,))

    def __iter__(self) -> Iterator[VersionPin]:
        return iter(self.pins)


def _require_baseline(avt: ArtifactVersionTuple) -> None:
    missing = [c for c in BASELINE_COMPONENTS if avt.find(c) is None]
    if missing:
        raise InvalidTupleError(f"tuple missing baseline components: {', '.join(missing)}")


def canonical_encode(avt: ArtifactVersionTuple) -> bytes:
    """Deterministic byte encoding; identical tuples encode identically."""
    _require_baseline(avt)
    parts = [f"{p.component}\n{p.version}\n{p.content or ''}\n" for p in avt.pins]
    return "".join(parts).encode("utf-8")


def tuple_hash(avt: ArtifactVersionTuple) -> str:
    """SHA-256 of the canonical encoding."""
    return sha256_hex(canonical_encode(avt))


@dataclass(frozen=True)
class TupleDiffEntry:
    component: str
    a: VersionPin | None
    b: VersionPin | None

    def to_dict(self) -> dict:
        return {
            "component": self.component,
            "a": self.a.to_dict() if self.a else None,
            "b": self.b.to_dict() if self.b else None,
        }


def diff_tuples(a: ArtifactVersionTuple, b: ArtifactVersionTuple) -> list[TupleDiffEntry]:
    """Entries only for components whose pins differ or exist on one side."""
    out = []
    for component in sorted(set(a.components()) | set(b.components())):
        pin_a, pin_b = a.find(component), b.find(component)
        if pin_a != pin_b:
            out.append(TupleDiffEntry(component, pin_a, pin_b))
    return out


def aligned(a: ArtifactVersionTuple, b: ArtifactVersionTuple) -> bool:
    """True iff the component key sets match (versions may differ)."""
    return set(a.components()) == set(b.components())


@dataclass(frozen=True)
class StepOutcome:
    """Record of one executed step task (a partition task counts separately)."""

    step: str
    partition_index: int | None
    exit_code: int
    output_ids: dict[str, ArtifactId]
    log_id: ArtifactId
    command_rendered: str
    wall_time_ms: int
    env_snapshot_id: ArtifactId
    input_sources: dict[str, str] = field(default_factory=dict)

    @property
    def success(self) -> bool:
        return self.exit_code == 0

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "partition_index": self.partition_index,
            "exit_code": self.exit_code,
            "output_ids": {slot: str(a) for slot, a in sorted(self.output_ids.items())},
            "log_id": str(self.log_id),
            "command_rendered": self.command_rendered,
            "wall_time_ms": self.wall_time_ms,
            "env_snapshot_id": str(self.env_snapshot_id),
            "input_sources": dict(sorted(self.input_sources.items())),
        }

    @classmethod
    def from_dict(cls, row: Mapping) -> "StepOutcome":
        return cls(
            step=row["step"],
            partition_index=row["partition_index"],
            exit_code=int(row["exit_code"]),
            output_ids={slot: ArtifactId.parse(a) for slot, a in row["output_ids"].items()},
            log_id=ArtifactId.parse(row["log_id"]),
            command_rendered=row["command_rendered"],
            wall_time_ms=int(row["wall_time_ms"]),
            env_snapshot_id=ArtifactId.parse(row["env_snapshot_id"]),
            input_sources=dict(row.get("input_sources") or {}),
        )


@dataclass
class RunRecord:
    """One executed experiment run bound to its artifact version tuple."""

    run_id: str
    tuple: ArtifactVersionTuple
    kind: str
    branch: str
    started_at: str
    finished_at: str | None
    status: str
    step_outcomes: list[StepOutcome] = field(default_factory=list)
    result_ids: list[ArtifactId] = field(default_factory=list)
    feedback_id: ArtifactId | None = None
    labels: dict[str, str] = field(default_factory=dict)
    data_scope: dict = field(default_factory=lambda: {"kind": "full", "manifest": None})

    def validate(self) -> None:
        if not RUN_ID_RE.fullmatch(self.run_id):
            raise ValueError(f"bad run id: {self.run_id!r}")
        if self.kind not in RUN_KINDS:
            raise ValueError(f"bad run kind: {self.kind!r}")
        if self.status not in RUN_STATUSES:
            raise ValueError(f"bad run status: {self.status!r}")
        if (self.status == "running") != (self.finished_at is None):
            raise ValueError("status must be 'running' exactly when finished_at is absent")
        if self.finished_at is not None and self.finished_at < self.started_at:
            raise ValueError("finished_at precedes started_at")
        for rid in self.result_ids:
            if rid.kind is not ArtifactKind.RESULT:
                raise ValueError(f"result id {rid} is not a result artifact")

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "tuple": self.tuple.to_dict(),
            "kind": self.kind,
            "branch": self.branch,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "status": self.status,
            "step_outcomes": [o.to_dict() for o in self.step_outcomes],
            "result_ids": [str(r) for r in self.result_ids],
            "feedback_id": str(self.feedback_id) if self.feedback_id else None,
            "labels": dict(sorted(self.labels.items())),
            "data_scope": dict(self.data_scope),
        }

    def summary(self) -> dict:
        """The fields ``ca run ls`` lists, as JSON types."""
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "branch": self.branch,
            "status": self.status,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result_ids": [str(r) for r in self.result_ids],
            "labels": dict(self.labels),
            "data_scope": dict(self.data_scope),
        }

    @classmethod
    def from_dict(cls, row: Mapping) -> "RunRecord":
        return cls(
            run_id=row["run_id"],
            tuple=ArtifactVersionTuple.from_dict(row["tuple"]),
            kind=row["kind"],
            branch=row["branch"],
            started_at=row["started_at"],
            finished_at=row.get("finished_at"),
            status=row["status"],
            step_outcomes=[StepOutcome.from_dict(o) for o in row.get("step_outcomes", [])],
            result_ids=[ArtifactId.parse(r) for r in row.get("result_ids", [])],
            feedback_id=ArtifactId.parse(row["feedback_id"]) if row.get("feedback_id") else None,
            labels=dict(row.get("labels") or {}),
            data_scope=dict(row.get("data_scope") or {"kind": "full", "manifest": None}),
        )


_SUMMARY_TYPES = {
    "run_id": str,
    "kind": str,
    "branch": str,
    "status": str,
    "started_at": str,
    "finished_at": (str, type(None)),
    "result_ids": list,
    "labels": dict,
    "data_scope": dict,
}


def _summary_key(row: dict) -> str:
    """Check a ``runs.jsonl`` row's shape; its key is the run id."""
    summary = row["summary"]
    stamp = row.get("stamp")
    if stamp is not None and not (
        isinstance(stamp, list) and len(stamp) == 5 and all(type(value) is int for value in stamp)
    ):
        raise ValueError(f"bad record stamp {stamp!r}")
    if set(summary) != set(_SUMMARY_TYPES):
        raise ValueError(f"summary fields {sorted(summary)}")
    for name, types in _SUMMARY_TYPES.items():
        if not isinstance(summary[name], types):
            raise TypeError(f"summary field {name}: {summary[name]!r}")
    return summary["run_id"]


def _read_record(path: str) -> bytes:
    """A record file's bytes, with one unbuffered read of its whole size.

    Records are replaced by a rename, never changed in place, so the size
    taken from the open file holds for the read.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


class RunStore:
    """Mints run ids and persists run records under ``runs/``.

    Each record is one ``runs/<run-id>.json`` file, the source of truth for
    its run. ``runs.jsonl`` is a :class:`Journal` caching each record's
    :meth:`RunRecord.summary`, keyed by run id. :meth:`record` writes the
    file, stamps it with :func:`util.set_times_back` and appends a row
    carrying the stamp. :meth:`summaries` uses a row without opening the
    record only while the record's stat still equals the stamp, as Git
    trusts its index's stat data, and otherwise decodes the record itself. A
    record is replaced by a rename and never changed in place by the engine,
    and any other change moves its modification or change time or its inode,
    with the limit that function states for a change made within a clock
    tick of the stamp. So a record changed since, or one on a file system
    that took no stamp, costs only a read. :meth:`started_at` reads only the
    row.
    """

    def __init__(self, repo: Repository, store: ArtifactStore):
        repo.require()
        self.repo = repo
        self._store = store
        self._summaries = Journal(repo.runs_journal_path, _summary_key)

    def run_path(self, run_id: str):
        return self.repo.runs_dir / f"{run_id}.json"

    def mint_run_id(self, avt: ArtifactVersionTuple) -> str:
        """A new run id for the tuple: the first sequence number, from a start past its records, that can be reserved.

        An id is reserved by making ``tmp/<run-id>/`` and then finding no record
        of it. The caller removes the directory only after writing the record,
        so every id in use is held by one or the other, and no lock is needed.
        The start is an unrecorded number whose predecessor is recorded (or 1),
        found by galloping over the records with Fibonacci steps (1, 2, 3, 5,
        8, ...) and then bisecting, so the n-th mint of a tuple checks about
        2.4·log2(n) records and its first three check what a scan from 1 would.
        Records are never removed, so an unrecorded gap below the start, left
        by a run that aborted, may be passed over.
        """
        prefix = tuple_hash(avt)[:12]

        def recorded(seq: int) -> bool:
            return self.run_path(f"{prefix}-{seq:06d}").exists()

        low, high = 0, 1  # ``low`` is 0 or recorded, ``high`` is not
        while recorded(high):
            low, high = high, high + max(low, 1)
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (middle, high) if recorded(middle) else (low, middle)
        for seq in itertools.count(high):
            run_id = f"{prefix}-{seq:06d}"
            if make_dir(self.repo.tmp_dir / run_id):
                if not recorded(seq):
                    return run_id
                os.rmdir(self.repo.tmp_dir / run_id)

    def _check_references(self, record: RunRecord) -> None:
        for rid in record.result_ids:
            if not self._store.has(rid):
                raise DanglingReferenceError(f"result {rid} not in store")
        for pin in record.tuple:
            if pin.content is not None and not self._store.has_hash(pin.content):
                raise DanglingReferenceError(
                    f"pin {pin.component} references missing content {pin.content}"
                )
        if record.feedback_id is not None and not self._store.has(record.feedback_id):
            raise DanglingReferenceError(f"feedback bundle {record.feedback_id} not in store")
        for outcome in record.step_outcomes:
            for artifact_id in (outcome.log_id, outcome.env_snapshot_id, *outcome.output_ids.values()):
                if not self._store.has(artifact_id):
                    raise DanglingReferenceError(f"step artifact {artifact_id} not in store")

    def record(self, record: RunRecord) -> None:
        """Persist a run record. Identical re-records are no-ops; divergent ones conflict."""
        record.validate()
        self._check_references(record)
        payload = canonical_json(record.to_dict()) + "\n"
        with self.repo.write_lock():
            path = self.run_path(record.run_id)
            if path.exists():
                if path.read_text(encoding="utf-8") == payload:
                    return
                raise RunConflictError(f"run {record.run_id} already recorded with different content")
            atomic_write_text(path, payload)
            row = {"summary": record.summary()}
            stamp = stamp_path(path)
            if stamp is not None:
                row["stamp"] = list(stamp)
            self._summaries.append([row])

    def attach_feedback(self, run_id: str, feedback_id: ArtifactId) -> None:
        """Set a recorded run's feedback bundle reference (write-once).

        Runs that ``flow.runner.execute`` finishes are written once with their
        feedback reference and never pass through here; the benchmark's tracer
        still wraps this name.
        """
        with self.repo.write_lock():
            record = self.load(run_id)
            if record.feedback_id == feedback_id:
                return
            if record.feedback_id is not None:
                raise RunConflictError(f"run {run_id} already has a feedback bundle")
            if not self._store.has(feedback_id):
                raise DanglingReferenceError(f"feedback bundle {feedback_id} not in store")
            record.feedback_id = feedback_id
            atomic_write_text(self.run_path(run_id), canonical_json(record.to_dict()) + "\n")

    def load(self, run_id: str) -> RunRecord:
        record = load_state(self.run_path(run_id), RunRecord.from_dict, None)
        if record is None:
            raise RunNotFoundError(f"no run {run_id}")
        return record

    def started_at(self, run_id: str) -> str | None:
        """The run's start time from its ``runs.jsonl`` row, without reading its record; None without a row."""
        row = self._summaries.get(run_id)
        return row["summary"]["started_at"] if row else None

    def summaries(self) -> list[dict]:
        """Every run's :meth:`RunRecord.summary`, in :meth:`list` order.

        A record whose stat equals its ``runs.jsonl`` row's stamp is
        summarized from that row without being opened. Any other is read and
        decoded, so a damaged one raises as :meth:`load` would.
        """
        rows = self._summaries.rows()
        summaries = []
        with os.scandir(self.repo.runs_dir) as entries:
            for entry in entries:
                if entry.name.startswith(".") or not entry.name.endswith(".json"):
                    continue
                row = rows.get(entry.name[: -len(".json")])
                try:
                    if row is not None and row.get("stamp") == list(file_stamp(entry.stat(follow_symlinks=False))):
                        summaries.append(row["summary"])
                        continue
                    payload = _read_record(entry.path)
                except FileNotFoundError:
                    continue
                summaries.append(decode_state(self.repo.runs_dir / entry.name, payload, RunRecord.from_dict).summary())
        summaries.sort(key=lambda s: (s["started_at"], s["run_id"]))
        return summaries

    def list(self) -> list[RunRecord]:
        loaded = (load_state(p, RunRecord.from_dict, None) for p in self.repo.runs_dir.glob("*.json"))
        records = [record for record in loaded if record is not None]
        records.sort(key=lambda r: (r.started_at, r.run_id))
        return records
