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
from dataclasses import dataclass, field
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
from .feedback import evaluate_gate, load_bundle, load_gate_policy
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
from .util import atomic_write_json, load_json, utc_now_iso

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
        return {
            "run_id": self.run_id,
            "approver": self.approver,
            "decision": self.decision,
            "reason": self.reason,
            "at": self.at,
        }


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
    scored = []
    for index, item in enumerate(dataset_manifest):
        digest = hashlib.sha256(f"{seed}:{item}".encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "big") % 10**6
        scored.append((index, item, bucket))
    kept = [(i, item) for i, item, bucket in scored if bucket < threshold]
    if not kept:
        i, item, _ = min(scored, key=lambda row: (row[2], row[0]))
        kept = [(i, item)]
    return [item for _, item in sorted(kept)]


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
        self._events = Journal(repo.events_path, key=lambda row: row["event_id"])
        self._promotions = Journal(repo.promotions_path, key=lambda row: (row["type"], row["run_id"]))

    # -- branch pins -----------------------------------------------------------

    def _load_pins(self) -> dict[str, BranchPins]:
        doc = load_json(self.repo.pins_path, {}) or {}
        return {branch: BranchPins.from_dict(row) for branch, row in doc.items()}

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

    def _append_decision(self, request: PromotionRequest) -> None:
        self._promotions.append([{"type": "decision", **request.to_dict()}])

    # -- data scope ---------------------------------------------------------

    def _dataset_manifest(self, avt: ArtifactVersionTuple) -> list[str] | None:
        """Item ids from the data pin's content artifact, when it is a JSON array."""
        pin = avt.find("data")
        if pin is None or pin.content is None or not self.store.has_hash(pin.content):
            return None
        try:
            doc = json.loads(self.store.get_by_hash(pin.content).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if isinstance(doc, list) and all(isinstance(item, str) for item in doc):
            return doc
        return None

    def _run(self, plan_tuple, graph, executor, *, kind, scope, branch, labels) -> RunRecord:
        return execute(
            graph,
            plan_tuple,
            executor,
            kind=kind,
            store=self.store,
            run_store=self.run_store,
            lineage=self.lineage,
            data_scope=scope,
            branch=branch,
            labels=labels,
            parallelism=self.parallelism,
        )

    def run_direct(self, graph: FlowGraph, executor, *, branch: str = MAIN_BRANCH) -> RunRecord:
        """Execute a flow against a branch's current pins, outside any event plan.

        Direct runs are validation runs; release records exist only behind an
        approved promotion (gatekeeping invariant).
        """
        avt = self.branch_pins(branch).to_tuple()
        manifest = self._dataset_manifest(avt)
        scope = DataScope.full(tuple(manifest) if manifest is not None else None)
        return self._run(avt, graph, executor, kind="validation", scope=scope, branch=branch, labels={"branch": branch})

    def run_validation(self, plan: ValidationPlan, graph: FlowGraph, executor) -> RunRecord:
        """Execute the planned run on a data subset and store its feedback."""
        manifest = self._dataset_manifest(plan.tuple)
        if manifest is not None:
            scope = DataScope.subset(tuple(subset_select(manifest, self.subset_fraction, self.subset_seed)))
        else:
            scope = DataScope.full()
        return self._run(
            plan.tuple,
            graph,
            executor,
            kind="validation",
            scope=scope,
            branch=plan.branch,
            labels={"branch": plan.branch, "event": plan.event_id},
        )

    # -- gatekeeping ------------------------------------------------------------

    def gate_report(self, run_id: str):
        record = self.run_store.load(run_id)
        policy = load_gate_policy(self.repo.gates_path)
        metrics: dict[str, float] = {}
        if record.feedback_id is not None:
            metrics = load_bundle(record, store=self.store).metrics
        return evaluate_gate(metrics, policy)

    def _check_approvable(self, run_id: str) -> RunRecord:
        record = self.run_store.load(run_id)
        if self._decision(run_id) is not None:
            raise AlreadyDecidedError(f"run {run_id} already has a promotion decision")
        if record.kind != "validation":
            raise RunNotSucceededError(f"run {run_id} is a {record.kind} run, not an approvable validation run")
        if record.status != "succeeded":
            raise RunNotSucceededError(f"run {run_id} has status {record.status}")
        report = self.gate_report(run_id)
        if not report.passed:
            failing = [r.metric for r in report.results if not r.satisfied]
            raise GateFailedError(f"run {run_id} fails gate constraint(s): {', '.join(failing)}")
        return record

    def approve(self, run_id: str, approver: str) -> PromotionRequest:
        """Record the approval that enables exactly one release of this run."""
        with self.repo.write_lock():
            self._check_approvable(run_id)
            request = PromotionRequest(run_id, approver, "approved", "", utc_now_iso())
            self._append_decision(request)
        return request

    def reject(self, run_id: str, approver: str, reason: str) -> PromotionRequest:
        with self.repo.write_lock():
            self._check_approvable(run_id)
            request = PromotionRequest(run_id, approver, "rejected", reason, utc_now_iso())
            self._append_decision(request)
        return request

    # -- release ---------------------------------------------------------------

    def run_release(self, approved_run: str, graph: FlowGraph, executor) -> RunRecord:
        """Run the approved tuple full-scope on main; update main pins on success."""
        decision = self._decision(approved_run)
        if decision is None or decision.decision != "approved":
            raise NotApprovedError(f"run {approved_run} has no approved promotion request")
        released = self._release_of(approved_run)
        if released is not None:
            raise AlreadyReleasedError(f"run {approved_run} was already released as {released}")
        validation = self.run_store.load(approved_run)

        manifest = self._dataset_manifest(validation.tuple)
        scope = DataScope.full(tuple(manifest) if manifest is not None else None)
        release = self._run(
            validation.tuple,
            graph,
            executor,
            kind="release",
            scope=scope,
            branch=MAIN_BRANCH,
            labels={"branch": MAIN_BRANCH, "promoted-from": approved_run},
        )
        if release.status != "succeeded":
            return release

        with self.repo.write_lock():
            if self._release_of(approved_run) is not None:
                raise AlreadyReleasedError(f"run {approved_run} was released concurrently")
            table = self._load_pins()
            entry = table.get(MAIN_BRANCH) or BranchPins(MAIN_BRANCH)
            entry.pins = {pin.component: pin for pin in validation.tuple}
            entry.last_release_run = release.run_id
            entry.result_refs = list(release.result_ids)
            table[MAIN_BRANCH] = entry
            self._save_pins(table)
            self._promotions.append(
                [{"type": "release", "run_id": approved_run, "release_run_id": release.run_id, "at": utc_now_iso()}]
            )
        return release


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
