"""Per-run feedback bundles, metric extraction, gate policies, run comparison.

A feedback bundle gathers, for every executed step task, the log, the
rendered command, the input parameters, the output references, telemetry
(wall time and exit code), and the captured environment snapshot, plus a
run-level metrics map. Bundles are stored as result artifacts and referenced
from the run record, so two runs with aligned tuples can be compared
metric-by-metric alongside their tuple diff.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__ as ENGINE_VERSION
from .errors import (
    GatePolicyError,
    MalformedMetricsError,
    MissingFeedbackError,
    NotAlignedError,
)
from .store import ArtifactId, ArtifactKind, ArtifactStore
from .tuples import (
    RunRecord,
    RunStore,
    StepOutcome,
    TupleDiffEntry,
    aligned,
    diff_tuples,
)
from .util import canonical_json

_COMPARATORS = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "=": operator.eq,
}


def _entry_to_dict(outcome: StepOutcome) -> dict:
    """A step outcome in the bundle's entry layout: nested telemetry, inputs as parameters."""
    row = outcome.to_dict()
    row["input_parameters"] = row.pop("input_sources")
    row["telemetry"] = {"wall_time_ms": row.pop("wall_time_ms"), "exit_code": row.pop("exit_code")}
    return row


def _entry_from_dict(row: Mapping) -> StepOutcome:
    return StepOutcome.from_dict({**row, **row["telemetry"], "input_sources": row["input_parameters"]})


@dataclass
class FeedbackBundle:
    run_id: str
    engine_version: str
    entries: list[StepOutcome]
    metrics: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "engine_version": self.engine_version,
            "entries": [_entry_to_dict(e) for e in self.entries],
            "metrics": dict(sorted(self.metrics.items())),
        }

    def to_bytes(self) -> bytes:
        return (canonical_json(self.to_dict()) + "\n").encode("utf-8")


def build_bundle(run: RunRecord, outcomes: Sequence[StepOutcome]) -> FeedbackBundle:
    """Assemble a bundle from step outcomes; a pure function of its inputs."""
    return FeedbackBundle(run.run_id, ENGINE_VERSION, list(outcomes))


def extract_metrics(bundle: FeedbackBundle, metrics_artifact: ArtifactId, *, store: ArtifactStore) -> dict[str, float]:
    """Parse a flat string→number document and merge it into bundle.metrics."""
    raw = store.get(metrics_artifact)
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedMetricsError(f"metrics artifact {metrics_artifact} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedMetricsError(f"metrics artifact {metrics_artifact} must be a JSON object")
    parsed: dict[str, float] = {}
    for key, value in doc.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MalformedMetricsError(f"metric {key!r} has non-numeric value {value!r}")
        parsed[key] = float(value)
    bundle.metrics.update(parsed)
    return parsed


def collect(
    run: RunRecord,
    *,
    store: ArtifactStore,
    metrics_artifact: ArtifactId | None = None,
) -> tuple[FeedbackBundle, ArtifactId]:
    """Build and store the run's feedback bundle and set ``run.feedback_id``.

    Content addressing makes this idempotent: collecting the same outcomes
    twice yields the same bundle artifact.
    """
    bundle = build_bundle(run, run.step_outcomes)
    if metrics_artifact is not None:
        extract_metrics(bundle, metrics_artifact, store=store)
    bundle_id = store.put(
        ArtifactKind.RESULT,
        bundle.to_bytes(),
        "application/json",
        labels={"run": run.run_id, "role": "feedback"},
    )
    run.feedback_id = bundle_id
    return bundle, bundle_id


def load_bundle(run: RunRecord, *, store: ArtifactStore) -> FeedbackBundle:
    if run.feedback_id is None:
        raise MissingFeedbackError(f"run {run.run_id} has no feedback bundle")
    doc = json.loads(store.get(run.feedback_id).decode("utf-8"))
    entries = [_entry_from_dict(e) for e in doc["entries"]]
    return FeedbackBundle(doc["run_id"], doc["engine_version"], entries, dict(doc["metrics"]))


@dataclass(frozen=True)
class GateConstraint:
    metric: str
    op: str
    threshold: float

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise GatePolicyError(f"unknown comparator {self.op!r}")


@dataclass(frozen=True)
class GatePolicy:
    constraints: tuple[GateConstraint, ...] = ()

    def __post_init__(self) -> None:
        names = [c.metric for c in self.constraints]
        if len(set(names)) != len(names):
            raise GatePolicyError("metric names must be unique per policy")


@dataclass(frozen=True)
class GateCheck:
    metric: str
    op: str
    threshold: float
    observed: float | None
    satisfied: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GateReport:
    passed: bool
    results: tuple[GateCheck, ...]

    def to_dict(self) -> dict:
        return {"pass": self.passed, "results": [r.to_dict() for r in self.results]}


def load_gate_policy(path: Path) -> GatePolicy:
    """Load ``gates.json``; a missing file means an empty (vacuously passing) policy."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return GatePolicy()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise GatePolicyError(f"{path}: not JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("constraints"), list):
        raise GatePolicyError(f"{path}: expected {{\"constraints\": [...]}}")
    constraints = []
    for i, row in enumerate(doc["constraints"]):
        if not isinstance(row, dict) or set(row) != {"metric", "op", "threshold"}:
            raise GatePolicyError(f"{path}: constraints[{i}] must have metric, op, threshold")
        op = "=" if row["op"] == "==" else row["op"]
        value = row["threshold"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise GatePolicyError(f"{path}: constraints[{i}] threshold must be a number")
        constraints.append(GateConstraint(str(row["metric"]), op, float(value)))
    return GatePolicy(tuple(constraints))


def evaluate_gate(metrics: Mapping[str, float], policy: GatePolicy) -> GateReport:
    """Check each constraint exactly (no tolerance); missing metrics fail theirs."""
    results = []
    for constraint in policy.constraints:
        observed = metrics.get(constraint.metric)
        if observed is None:
            satisfied = False
        else:
            satisfied = bool(_COMPARATORS[constraint.op](observed, constraint.threshold))
        results.append(GateCheck(constraint.metric, constraint.op, constraint.threshold, observed, satisfied))
    return GateReport(all(r.satisfied for r in results), tuple(results))


@dataclass(frozen=True)
class MetricDelta:
    metric: str
    value_a: float
    value_b: float
    delta: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunComparison:
    run_a: str
    run_b: str
    metrics: tuple[MetricDelta, ...]
    only_a: dict[str, float]
    only_b: dict[str, float]
    tuple_diff: tuple[TupleDiffEntry, ...]

    def to_dict(self) -> dict:
        return {
            "run_a": self.run_a,
            "run_b": self.run_b,
            "metrics": [m.to_dict() for m in self.metrics],
            "only_a": dict(sorted(self.only_a.items())),
            "only_b": dict(sorted(self.only_b.items())),
            "tuple_diff": [d.to_dict() for d in self.tuple_diff],
        }


def compare_runs(run_a: str, run_b: str, *, run_store: RunStore, store: ArtifactStore) -> RunComparison:
    """Per-metric deltas (b − a) between two aligned runs, plus their tuple diff."""
    rec_a = run_store.load(run_a)
    rec_b = run_store.load(run_b)
    if not aligned(rec_a.tuple, rec_b.tuple):
        raise NotAlignedError(
            f"runs {run_a} and {run_b} have different tuple component sets and are not comparable"
        )
    bundle_a = load_bundle(rec_a, store=store)
    bundle_b = load_bundle(rec_b, store=store)
    common = sorted(set(bundle_a.metrics) & set(bundle_b.metrics))
    deltas = tuple(
        MetricDelta(name, bundle_a.metrics[name], bundle_b.metrics[name], bundle_b.metrics[name] - bundle_a.metrics[name])
        for name in common
    )
    only_a = {k: v for k, v in bundle_a.metrics.items() if k not in bundle_b.metrics}
    only_b = {k: v for k, v in bundle_b.metrics.items() if k not in bundle_a.metrics}
    return RunComparison(run_a, run_b, deltas, only_a, only_b, tuple(diff_tuples(rec_a.tuple, rec_b.tuple)))
