from __future__ import annotations

import hashlib
import json
import random

import pytest

from ca_engine import __version__
from ca_engine.errors import (
    GatePolicyError,
    MalformedMetricsError,
    MissingFeedbackError,
    NotAlignedError,
)
from ca_engine.feedback import (
    GateConstraint,
    GatePolicy,
    build_bundle,
    collect,
    compare_runs,
    evaluate_gate,
    extract_metrics,
    load_bundle,
    load_gate_policy,
)
from ca_engine.store import ArtifactId, ArtifactKind
from ca_engine.tuples import RunRecord, StepOutcome
from helpers import baseline_tuple, make_run


# JSON numbers Python parses that are not finite floats: the last one is an int beyond the float range.
NOT_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", pytest.param("1" + "0" * 400, id="10**400")]


def put_metrics(store, doc) -> object:
    return store.put(ArtifactKind.RESULT, json.dumps(doc).encode(), "application/json")


def test_collect_one_entry_per_outcome(store, run_store):
    record = make_run(store, run_store, steps=2)
    bundle, bundle_id = collect(record, store=store)
    assert record.feedback_id == bundle_id
    run_store.attach_feedback(record.run_id, bundle_id)
    assert len(bundle.entries) == 2
    assert store.verify(bundle_id)
    assert run_store.load(record.run_id).feedback_id == bundle_id


def test_collect_includes_failed_steps(store, run_store):
    record = make_run(store, run_store, steps=3, failed_steps=("s1",))
    bundle, _ = collect(record, store=store)
    assert len(bundle.entries) == 3
    failed = [e for e in bundle.entries if e.exit_code != 0]
    assert len(failed) == 1 and failed[0].step == "s1"
    assert failed[0].log_id  # log present even on failure


def test_bundle_hash_stable_across_collects(store, run_store):
    record = make_run(store, run_store)
    _, first = collect(record, store=store)
    _, second = collect(record, store=store)
    assert first == second


def test_bundle_is_pure_function_of_outcomes(store, run_store):
    record = make_run(store, run_store)
    assert build_bundle(record, record.step_outcomes).to_bytes() == build_bundle(
        record, record.step_outcomes
    ).to_bytes()


def test_bundle_layout_is_pinned():
    """Bundles are content-addressed: a change to this layout changes every bundle id.

    The digest also covers ``engine_version``, so a version bump updates it too.
    """
    outcome = StepOutcome(
        step="score",
        partition_index=2,
        exit_code=0,
        output_ids={"chunk": ArtifactId(ArtifactKind.DATA, "3" * 64)},
        log_id=ArtifactId(ArtifactKind.RESULT, "1" * 64),
        command_rendered="score in out 2",
        wall_time_ms=17,
        env_snapshot_id=ArtifactId(ArtifactKind.RESULT, "2" * 64),
        input_sources={"src": "artifact:data:" + "4" * 64, "cfg": "pin:code"},
    )
    at = "2024-01-01T00:00:00.000000Z"
    run = RunRecord("0123456789ab-000001", baseline_tuple(), "validation", "main", at, at, "succeeded", [outcome])
    bundle = build_bundle(run, run.step_outcomes)
    bundle.metrics["acc"] = 0.5
    assert bundle.to_dict() == {
        "run_id": "0123456789ab-000001",
        "engine_version": __version__,
        "entries": [
            {
                "step": "score",
                "partition_index": 2,
                "log_id": "result:" + "1" * 64,
                "command_rendered": "score in out 2",
                "input_parameters": {"cfg": "pin:code", "src": "artifact:data:" + "4" * 64},
                "output_ids": {"chunk": "data:" + "3" * 64},
                "telemetry": {"wall_time_ms": 17, "exit_code": 0},
                "env_snapshot_id": "result:" + "2" * 64,
            }
        ],
        "metrics": {"acc": 0.5},
    }
    assert hashlib.sha256(bundle.to_bytes()).hexdigest() == "47ec88659c15e8ba4e34f042a6d3f697da0c593b02b1d27e229b0c6dd8d899bb"


def test_extract_metrics_parses_flat_document(store, run_store):
    record = make_run(store, run_store)
    bundle = build_bundle(record, record.step_outcomes)
    artifact = put_metrics(store, {"accuracy": 0.91, "recall": 0.80})
    parsed = extract_metrics(bundle, artifact, store=store)
    assert parsed == {"accuracy": 0.91, "recall": 0.80}
    assert bundle.metrics == parsed


def test_extract_metrics_empty_document(store, run_store):
    record = make_run(store, run_store)
    bundle = build_bundle(record, record.step_outcomes)
    assert extract_metrics(bundle, put_metrics(store, {}), store=store) == {}


@pytest.mark.parametrize(
    "doc", [{"accuracy": "high"}, {"flag": True}, ["accuracy", 0.9], "not a dict"]
)
def test_extract_metrics_rejects_non_numeric(store, run_store, doc):
    record = make_run(store, run_store)
    bundle = build_bundle(record, record.step_outcomes)
    with pytest.raises(MalformedMetricsError):
        extract_metrics(bundle, put_metrics(store, doc), store=store)


@pytest.mark.parametrize("value", NOT_FINITE)
def test_extract_metrics_rejects_non_finite_numbers(store, run_store, value):
    record = make_run(store, run_store)
    bundle = build_bundle(record, record.step_outcomes)
    blob = store.put(ArtifactKind.RESULT, b'{"accuracy": 0.9, "loss": %s}' % value.encode())
    with pytest.raises(MalformedMetricsError, match="'loss'"):
        extract_metrics(bundle, blob, store=store)
    assert bundle.metrics == {}


def test_extract_metrics_rejects_non_json(store, run_store):
    record = make_run(store, run_store)
    bundle = build_bundle(record, record.step_outcomes)
    blob = store.put(ArtifactKind.RESULT, b"\xff\xfe not json")
    with pytest.raises(MalformedMetricsError):
        extract_metrics(bundle, blob, store=store)


def test_gate_pass_and_exactness():
    policy = GatePolicy((GateConstraint("accuracy", ">=", 0.9),))
    assert evaluate_gate({"accuracy": 0.91}, policy).passed
    assert evaluate_gate({"accuracy": 0.9}, policy).passed  # exact comparison, no tolerance
    assert not evaluate_gate({"accuracy": 0.8999999}, policy).passed


def test_gate_missing_metric_fails_its_constraint():
    policy = GatePolicy(
        (GateConstraint("accuracy", ">=", 0.9), GateConstraint("recall", ">=", 0.8))
    )
    report = evaluate_gate({"accuracy": 0.91}, policy)
    assert not report.passed
    by_metric = {r.metric: r for r in report.results}
    assert by_metric["accuracy"].satisfied
    assert not by_metric["recall"].satisfied
    assert by_metric["recall"].observed is None


def test_empty_policy_passes_vacuously():
    assert evaluate_gate({}, GatePolicy()).passed


def test_gate_is_pure():
    policy = GatePolicy((GateConstraint("a", "<", 1.0),))
    assert evaluate_gate({"a": 0.5}, policy) == evaluate_gate({"a": 0.5}, policy)


def test_gate_monotonicity_adding_constraints_never_rescues_a_failure():
    rng = random.Random(5)
    ops = ["<=", "<", ">=", ">", "="]
    for _ in range(300):
        metrics = {f"m{i}": rng.uniform(0, 1) for i in range(rng.randrange(0, 4))}
        constraints = [
            GateConstraint(f"m{rng.randrange(5)}", rng.choice(ops), round(rng.uniform(0, 1), 3))
            for _ in range(rng.randrange(0, 4))
        ]
        seen = set()
        constraints = [c for c in constraints if not (c.metric in seen or seen.add(c.metric))]
        base = evaluate_gate(metrics, GatePolicy(tuple(constraints)))
        extra_metric = f"m{rng.randrange(5)}"
        if any(c.metric == extra_metric for c in constraints):
            continue
        extended = evaluate_gate(
            metrics,
            GatePolicy(tuple(constraints) + (GateConstraint(extra_metric, ">=", 0.0),)),
        )
        if not base.passed:
            assert not extended.passed


def test_policy_rejects_duplicate_metrics_and_bad_ops():
    with pytest.raises(GatePolicyError):
        GatePolicy((GateConstraint("a", ">=", 1), GateConstraint("a", "<", 2)))
    with pytest.raises(GatePolicyError):
        GateConstraint("a", "~", 1)


def test_load_gate_policy_file(tmp_path):
    path = tmp_path / "gates.json"
    path.write_text(json.dumps({"constraints": [{"metric": "accuracy", "op": ">=", "threshold": 0.9}]}))
    policy = load_gate_policy(path)
    assert policy.constraints == (GateConstraint("accuracy", ">=", 0.9),)
    assert load_gate_policy(tmp_path / "missing.json") == GatePolicy()
    path.write_text(json.dumps({"constraints": [{"metric": "a", "op": "==", "threshold": 1}]}))
    assert load_gate_policy(path).constraints[0].op == "="
    path.write_text(json.dumps({"constraints": {"metric": "a"}}))
    with pytest.raises(GatePolicyError):
        load_gate_policy(path)


@pytest.mark.parametrize("value", NOT_FINITE)
def test_a_non_finite_gate_threshold_is_a_policy_error_naming_its_constraint(tmp_path, value):
    path = tmp_path / "gates.json"
    path.write_text(
        '{"constraints": [{"metric": "a", "op": ">=", "threshold": 1},'
        ' {"metric": "b", "op": "<", "threshold": %s}]}' % value
    )
    with pytest.raises(GatePolicyError, match=r"constraints\[1\] threshold must be a finite number"):
        load_gate_policy(path)


@pytest.mark.parametrize("raw", [b'{"constraints": [', b"\xff\xfe{}"])
def test_a_gate_policy_that_is_not_json_names_its_file(tmp_path, raw):
    path = tmp_path / "gates.json"
    path.write_bytes(raw)
    with pytest.raises(GatePolicyError, match=rf"{path}: not JSON"):
        load_gate_policy(path)


def attach_metrics(store, run_store, record, doc):
    artifact = put_metrics(store, doc)
    bundle, bundle_id = collect(record, store=store, metrics_artifact=artifact)
    run_store.attach_feedback(record.run_id, bundle_id)
    return bundle, bundle_id


def test_compare_identical_run_with_itself(store, run_store):
    record = make_run(store, run_store)
    attach_metrics(store, run_store, record, {"acc": 0.9, "loss": 0.1})
    comparison = compare_runs(record.run_id, record.run_id, run_store=run_store, store=store)
    assert all(m.delta == 0 for m in comparison.metrics)
    assert comparison.tuple_diff == ()
    assert comparison.only_a == {} and comparison.only_b == {}


def test_compare_requires_alignment(store, run_store):
    from ca_engine.tuples import VersionPin

    a = make_run(store, run_store)
    b = make_run(store, run_store, avt=baseline_tuple(extra=[VersionPin("gpu", "g1")]))
    attach_metrics(store, run_store, a, {"acc": 0.9})
    attach_metrics(store, run_store, b, {"acc": 0.92})
    with pytest.raises(NotAlignedError):
        compare_runs(a.run_id, b.run_id, run_store=run_store, store=store)


def test_compare_requires_feedback(store, run_store):
    a = make_run(store, run_store)
    b = make_run(store, run_store)
    with pytest.raises(MissingFeedbackError):
        compare_runs(a.run_id, b.run_id, run_store=run_store, store=store)


def test_compare_deltas_and_one_sided_metrics(store, run_store):
    a = make_run(store, run_store, avt=baseline_tuple(data="x1"))
    b = make_run(store, run_store, avt=baseline_tuple(data="x2"))
    attach_metrics(store, run_store, a, {"acc": 0.9, "only_in_a": 1.0})
    attach_metrics(store, run_store, b, {"acc": 0.92, "only_in_b": 2.0})
    comparison = compare_runs(a.run_id, b.run_id, run_store=run_store, store=store)
    assert len(comparison.metrics) == 1
    delta = comparison.metrics[0]
    assert delta.metric == "acc"
    assert abs(delta.delta - 0.02) < 1e-12
    assert comparison.only_a == {"only_in_a": 1.0}
    assert comparison.only_b == {"only_in_b": 2.0}
    assert [d.component for d in comparison.tuple_diff] == ["data"]


def test_load_bundle_roundtrip(store, run_store):
    record = make_run(store, run_store)
    bundle, _ = attach_metrics(store, run_store, record, {"acc": 0.5})
    loaded = load_bundle(run_store.load(record.run_id), store=store)
    assert loaded.to_dict() == bundle.to_dict()
