"""Change-event ingestion, validation runs, approval gating, and releases.

A change event on any component repository plans a validation run on its
working branch: the branch's current pins with the changed component's pin
swapped in. After the run succeeds and its metrics pass the gate policy, a
human decision promotes it; the release then re-runs the identical tuple on
the main branch over the full data scope and, only on success, rewrites the
main branch pins and result references.

Events are ingested at-least-once from ``events.jsonl`` and deduplicated by
event id: re-ingesting a seen event returns the originally planned run
without side effects.
"""

from __future__ import annotations

import hashlib
import json
import uuid
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

from .errors import (
    AlreadyDecidedError,
    AlreadyReleasedError,
    EmptyManifestError,
    GateFailedError,
    IncompletePinsError,
    MalformedEventError,
    NotApprovedError,
    RunNotSucceededError,
    UnknownBranchError,
)
from .feedback import bundle_metrics, evaluate_gate, load_gate_policy
from .flow.graph import FlowGraph
from .flow.runner import DataScope, execute
from .journal import Journal
from .lineage import LineageLog
from .repo import Repository
from .store import ArtifactId, ArtifactStore
from .tuples import (
    ArtifactVersionTuple,
    BASELINE_COMPONENTS,
    RunRecord,
    RunStore,
    VersionPin,
)
from .util import atomic_write_json, load_state, utc_now_iso

EVENT_SOURCES = ("code", "data", "dependencies", "deployment")
MAIN_BRANCH = "main"


@dataclass(frozen=True)
class ChangeEvent:
    event_id: str
    source: str
    ref: str
    new_pin: VersionPin
    at: str

    def validate(self) -> None:
        if not self.event_id:
            raise MalformedEventError("event_id must be nonempty")
        if self.source not in EVENT_SOURCES:
            raise MalformedEventError(f"unknown event source {self.source!r}")
        if not self.ref:
            raise MalformedEventError("event ref must be nonempty")
        if self.new_pin.component != self.source:
            raise MalformedEventError(
                f"pin component {self.new_pin.component!r} does not match source {self.source!r}"
            )

    def to_dict(self) -> dict:
        return {
            "event_id": self.event_id,
            "source": self.source,
            "ref": self.ref,
            "new_pin": {"component": self.new_pin.component, **self.new_pin.to_dict()},
            "at": self.at,
        }


@dataclass
class BranchPins:
    branch: str
    pins: dict[str, VersionPin] = field(default_factory=dict)
    last_release_run: str | None = None
    result_refs: list[ArtifactId] = field(default_factory=list)

    def complete(self) -> bool:
        return all(c in self.pins for c in BASELINE_COMPONENTS)

    def to_tuple(self) -> ArtifactVersionTuple:
        return ArtifactVersionTuple(tuple(self.pins.values()))

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "pins": {c: p.to_dict() for c, p in sorted(self.pins.items())},
            "last_release_run": self.last_release_run,
            "result_refs": [str(r) for r in self.result_refs],
        }

    @classmethod
    def from_dict(cls, row: Mapping) -> "BranchPins":
        return cls(
            branch=row["branch"],
            pins={c: VersionPin(c, spec["version"], spec.get("content")) for c, spec in row["pins"].items()},
            last_release_run=row.get("last_release_run"),
            result_refs=[ArtifactId.parse(r) for r in row.get("result_refs", [])],
        )


@dataclass(frozen=True)
class PromotionRequest:
    run_id: str
    approver: str
    decision: str
    reason: str
    at: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ValidationPlan:
    event_id: str
    branch: str
    tuple: ArtifactVersionTuple
    kind: str = "validation"

    def to_dict(self) -> dict:
        return {
            "event_id": self.event_id,
            "branch": self.branch,
            "tuple": self.tuple.to_dict(),
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, row: Mapping) -> "ValidationPlan":
        return cls(
            event_id=row["event_id"],
            branch=row["branch"],
            tuple=ArtifactVersionTuple.from_dict(row["tuple"]),
            kind=row.get("kind", "validation"),
        )


def _event_key(row: dict) -> str:
    """An ``events.jsonl`` row's event id; the row must carry a plan that parses."""
    ValidationPlan.from_dict(row["plan"])
    return row["event_id"]


_PROMOTION_FIELDS = {
    "decision": ("run_id", "approver", "decision", "reason", "at"),
    "release": ("run_id", "release_run_id"),
}


def _promotion_key(row: dict) -> tuple[str, str]:
    """A ``promotions.jsonl`` row's (type, run id); its type's fields must be strings."""
    for name in _PROMOTION_FIELDS[row["type"]]:
        if not isinstance(row[name], str):
            raise TypeError(f"{name} must be a string")
    return row["type"], row["run_id"]


def resolve_tuple(event: ChangeEvent, current: BranchPins) -> ArtifactVersionTuple:
    """Current pins with only the event's component replaced by its new pin."""
    if not current.complete():
        missing = [c for c in BASELINE_COMPONENTS if c not in current.pins]
        raise IncompletePinsError(f"branch {current.branch!r} pins missing: {', '.join(missing)}")
    pins = dict(current.pins)
    pins[event.new_pin.component] = event.new_pin
    return ArtifactVersionTuple(tuple(pins.values()))


def subset_select(dataset_manifest: Sequence[str], fraction: float, seed: int) -> list[str]:
    """Deterministic subset: keep an item iff hash(seed, item) mod 1e6 clears the fraction.

    At least one item is always kept (the smallest-hash item when the rule
    selects none); input order is preserved.
    """
    if not dataset_manifest:
        raise EmptyManifestError("dataset manifest is empty")
    if not (0 < fraction <= 1):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    threshold = round(fraction * 10**6)
    prefix = f"{seed}:".encode("utf-8")
    sha256, from_bytes = hashlib.sha256, int.from_bytes
    buckets = [from_bytes(sha256(prefix + item.encode("utf-8")).digest()[:8], "big") % 10**6 for item in dataset_manifest]
    # ``index`` returns the first of equal buckets, the smallest index.
    return [item for item, bucket in zip(dataset_manifest, buckets) if bucket < threshold] or [
        dataset_manifest[buckets.index(min(buckets))]
    ]


class Pipeline:
    """Binds the event log, branch pins, gate policy, and flow execution together."""

    def __init__(
        self,
        repo: Repository,
        store: ArtifactStore,
        run_store: RunStore,
        lineage: LineageLog | None = None,
        *,
        subset_fraction: float = 0.1,
        subset_seed: int = 0,
        parallelism: int = 4,
    ):
        repo.require()
        self.repo = repo
        self.store = store
        self.run_store = run_store
        self.lineage = lineage if lineage is not None else LineageLog(repo)
        self.subset_fraction = subset_fraction
        self.subset_seed = subset_seed
        self.parallelism = parallelism
        # events.jsonl: one ChangeEvent per line, with the plan resolved at first ingest.
        self._events = Journal(repo.events_path, key=_event_key)
        self._promotions = Journal(repo.promotions_path, key=_promotion_key)

    # -- branch pins -----------------------------------------------------------

    def _load_pins(self) -> dict[str, BranchPins]:
        return load_state(
            self.repo.pins_path, lambda doc: {branch: BranchPins.from_dict(row) for branch, row in doc.items()}, {}
        )

    def _save_pins(self, pins: dict[str, BranchPins]) -> None:
        atomic_write_json(self.repo.pins_path, {branch: bp.to_dict() for branch, bp in sorted(pins.items())})

    def branch_pins(self, branch: str) -> BranchPins:
        """The branch's pins; an unknown branch inherits main's current pins."""
        table = self._load_pins()
        if branch in table:
            return table[branch]
        if MAIN_BRANCH in table:
            main = table[MAIN_BRANCH]
            return BranchPins(branch, dict(main.pins))
        raise UnknownBranchError(f"branch {branch!r} has no pins and main is not initialized")

    def set_branch_pins(self, branch: str, pins) -> BranchPins:
        """Seed or update a branch's pins (bootstrap path; releases do this for main)."""
        values = pins.values() if isinstance(pins, Mapping) else pins
        with self.repo.write_lock():
            table = self._load_pins()
            entry = table.get(branch) or BranchPins(branch)
            for pin in values:
                entry.pins[pin.component] = pin
            table[branch] = entry
            self._save_pins(table)
        return entry

    # -- events -------------------------------------------------------------

    def ingest_event(self, event: ChangeEvent) -> ValidationPlan:
        """Plan the validation run for a change event; idempotent per event id."""
        event.validate()
        existing = self.find_plan(event.event_id)
        if existing is not None:
            return existing
        current = self.branch_pins(event.ref)
        plan = ValidationPlan(event.event_id, event.ref, resolve_tuple(event, current))
        with self.repo.write_lock():
            # Re-check under the lock so concurrent ingests stay idempotent.
            rechecked = self.find_plan(event.event_id)
            if rechecked is not None:
                return rechecked
            self._events.append([{**event.to_dict(), "plan": plan.to_dict()}])
        return plan

    def planned_runs(self) -> list[ValidationPlan]:
        return [ValidationPlan.from_dict(row["plan"]) for row in self._events.rows().values()]

    def find_plan(self, event_id: str) -> ValidationPlan | None:
        row = self._events.get(event_id)
        return ValidationPlan.from_dict(row["plan"]) if row is not None else None

    # -- promotions -----------------------------------------------------------

    def _decision(self, run_id: str) -> PromotionRequest | None:
        row = self._promotions.get(("decision", run_id))
        if row is None:
            return None
        return PromotionRequest(row["run_id"], row["approver"], row["decision"], row["reason"], row["at"])

    def _release_of(self, run_id: str) -> str | None:
        row = self._promotions.get(("release", run_id))
        return row["release_run_id"] if row is not None else None

    # -- data scope ---------------------------------------------------------

    def _dataset_manifest(self, digest: str) -> list[str] | None:
        """Item ids from the data pin's content, when it is a JSON array of strings.

        The content is verified in one streamed pass and kept in memory only
        when it starts like an array.
        """
        raw = self.store.get_by_hash(digest, lead=b"[")
        if raw is None:
            return None
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if isinstance(doc, list) and all(isinstance(item, str) for item in doc):
            return doc
        return None

    def _data_scope(self, avt: ArtifactVersionTuple, *, subset: bool) -> tuple[DataScope, tuple[str, ...]]:
        """All items of the data pin's manifest, or their deterministic subset.

        Also returns the content hashes verified on the way, so the run does
        not hash them again.
        """
        pin = avt.find("data")
        if pin is None or pin.content is None or not self.store.has_hash(pin.content):
            return DataScope.full(), ()
        verified = (pin.content,)
        manifest = self._dataset_manifest(pin.content)
        if manifest is None:
            return DataScope.full(), verified
        if subset:
            return DataScope.subset(tuple(subset_select(manifest, self.subset_fraction, self.subset_seed))), verified
        return DataScope.full(tuple(manifest)), verified

    def _run(self, plan_tuple, graph, executor, *, kind, subset, branch, labels) -> RunRecord:
        data_scope, verified = self._data_scope(plan_tuple, subset=subset)
        return execute(
            graph,
            plan_tuple,
            executor,
            kind=kind,
            store=self.store,
            run_store=self.run_store,
            lineage=self.lineage,
            data_scope=data_scope,
            branch=branch,
            labels=labels,
            parallelism=self.parallelism,
            verified=verified,
        )

    def run_direct(self, graph: FlowGraph, executor, *, branch: str = MAIN_BRANCH) -> RunRecord:
        """Execute a flow against a branch's current pins, outside any event plan.

        Direct runs are validation runs; release records exist only behind an
        approved promotion (gatekeeping invariant).
        """
        avt = self.branch_pins(branch).to_tuple()
        return self._run(avt, graph, executor, kind="validation", subset=False, branch=branch, labels={"branch": branch})

    def run_validation(self, plan: ValidationPlan, graph: FlowGraph, executor) -> RunRecord:
        """Execute the planned run on a data subset and store its feedback."""
        return self._run(
            plan.tuple,
            graph,
            executor,
            kind="validation",
            subset=True,
            branch=plan.branch,
            labels={"branch": plan.branch, "event": plan.event_id},
        )

    # -- gatekeeping ------------------------------------------------------------

    def gate_report(self, run_id: str):
        return self._gate_report_of(self.run_store.load(run_id))

    def _gate_report_of(self, record: RunRecord):
        """The gate policy evaluated on the record's feedback metrics; a run with no feedback has none."""
        policy = load_gate_policy(self.repo.gates_path)
        metrics = bundle_metrics(record, store=self.store) if record.feedback_id is not None else {}
        return evaluate_gate(metrics, policy)

    def _check_approvable(self, run_id: str) -> RunRecord:
        record = self.run_store.load(run_id)
        if self._decision(run_id) is not None:
            raise AlreadyDecidedError(f"run {run_id} already has a promotion decision")
        if record.kind != "validation":
            raise RunNotSucceededError(f"run {run_id} is a {record.kind} run, not an approvable validation run")
        if record.status != "succeeded":
            raise RunNotSucceededError(f"run {run_id} has status {record.status}")
        report = self._gate_report_of(record)
        if not report.passed:
            failing = [r.metric for r in report.results if not r.satisfied]
            raise GateFailedError(f"run {run_id} fails gate constraint(s): {', '.join(failing)}")
        return record

    def _decide(self, run_id: str, approver: str, decision: str, reason: str) -> PromotionRequest:
        with self.repo.write_lock():
            self._check_approvable(run_id)
            request = PromotionRequest(run_id, approver, decision, reason, utc_now_iso())
            self._promotions.append([{"type": "decision", **request.to_dict()}])
        return request

    def approve(self, run_id: str, approver: str) -> PromotionRequest:
        """Record the approval that enables exactly one release of this run."""
        return self._decide(run_id, approver, "approved", "")

    def reject(self, run_id: str, approver: str, reason: str) -> PromotionRequest:
        return self._decide(run_id, approver, "rejected", reason)

    # -- release ---------------------------------------------------------------

    def run_release(self, approved_run: str, graph: FlowGraph, executor) -> RunRecord:
        """Run the approved tuple full-scope on main; update main pins on success.

        The release row in ``promotions.jsonl`` is the commit point; main's
        pins are written after it. A retry that finds the latest release row
        but main's pins not naming it finishes the pins write and returns
        that release.
        """
        decision = self._decision(approved_run)
        if decision is None or decision.decision != "approved":
            raise NotApprovedError(f"run {approved_run} has no approved promotion request")
        validation = self.run_store.load(approved_run)
        if self._release_of(approved_run) is not None:
            with self.repo.write_lock():
                return self._finish_release(approved_run, validation)
        release = self._run(
            validation.tuple,
            graph,
            executor,
            kind="release",
            subset=False,
            branch=MAIN_BRANCH,
            labels={"branch": MAIN_BRANCH, "promoted-from": approved_run},
        )
        if release.status != "succeeded":
            return release

        with self.repo.write_lock():
            if self._release_of(approved_run) is not None:
                raise AlreadyReleasedError(f"run {approved_run} was released concurrently")
            self._promotions.append(
                [{"type": "release", "run_id": approved_run, "release_run_id": release.run_id, "at": utc_now_iso()}]
            )
            self._point_main_at(validation, release)
        return release

    def _finish_release(self, approved_run: str, validation: RunRecord) -> RunRecord:
        """The recorded release of ``approved_run``, once main's pins name it; the caller holds the write lock.

        Only the latest release may still be missing from main's pins: an
        earlier one was superseded, so it counts as released.
        """
        released = self._release_of(approved_run)
        latest = next(row for (kind, _), row in reversed(self._promotions.rows().items()) if kind == "release")
        main = self._load_pins().get(MAIN_BRANCH)
        if latest["run_id"] != approved_run or (main is not None and main.last_release_run == released):
            raise AlreadyReleasedError(f"run {approved_run} was already released as {released}")
        release = self.run_store.load(released)
        self._point_main_at(validation, release)
        return release

    def _point_main_at(self, validation: RunRecord, release: RunRecord) -> None:
        """Set main's pins to the released tuple and its results; the caller holds the write lock."""
        table = self._load_pins()
        entry = table.get(MAIN_BRANCH) or BranchPins(MAIN_BRANCH)
        entry.pins = {pin.component: pin for pin in validation.tuple}
        entry.last_release_run = release.run_id
        entry.result_refs = list(release.result_ids)
        table[MAIN_BRANCH] = entry
        self._save_pins(table)


def make_event(
    source: str,
    ref: str,
    version: str,
    content: str | None = None,
    event_id: str | None = None,
) -> ChangeEvent:
    """Convenience constructor; generates an event id when none is supplied."""
    return ChangeEvent(
        event_id=event_id or uuid.uuid4().hex,
        source=source,
        ref=ref,
        new_pin=VersionPin(source, version, content),
        at=utc_now_iso(),
    )
