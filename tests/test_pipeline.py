from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ca_engine.errors import (
    AlreadyDecidedError,
    AlreadyReleasedError,
    EmptyManifestError,
    GateFailedError,
    IncompletePinsError,
    MalformedEventError,
    MalformedMetricsError,
    NotApprovedError,
    StorageError,
    RunNotSucceededError,
    UnknownBranchError,
)
from ca_engine.flow import RecordingExecutor, parse_manifest, scripted
from ca_engine.pipeline import ChangeEvent, Pipeline, make_event, resolve_tuple, subset_select
from ca_engine.tuples import VersionPin, aligned, diff_tuples
from ca_engine.util import utc_now_iso
from helpers import e2e_manifest, e2e_scripts, journal_rows, seed_main, subset_select_reference, tear


@pytest.fixture
def e2e(pipeline, store):
    item_ids, manifest_id = seed_main(pipeline, store)
    graph = parse_manifest(json.dumps(e2e_manifest()))
    return graph, item_ids, manifest_id


def write_gates(repo, constraints):
    repo.gates_path.write_text(json.dumps({"constraints": constraints}))


def plan_data_bump(pipeline, store, version="x2", ref="working/x", event_id=None):
    new_items = [f"item-{i:04d}" for i in range(900)]
    blob = json.dumps(new_items).encode()
    from ca_engine.store import ArtifactKind

    manifest_id = store.put(ArtifactKind.DATA, blob, "application/json")
    event = make_event("data", ref, version, manifest_id.hash, event_id)
    return pipeline.ingest_event(event), event


# -- resolve_tuple -----------------------------------------------------------


def test_resolve_tuple_single_substitution(pipeline, store, e2e):
    plan, event = plan_data_bump(pipeline, store)
    current = pipeline.branch_pins("working/x").to_tuple()
    entries = diff_tuples(current, plan.tuple)
    assert [e.component for e in entries] == ["data"]
    assert plan.tuple.pin("data").version == "x2"
    assert plan.tuple.pin("code") == current.pin("code")


def test_resolve_tuple_code_bump(pipeline, e2e):
    event = make_event("code", "working/y", "c2")
    plan = pipeline.ingest_event(event)
    current = pipeline.branch_pins("working/y").to_tuple()
    assert len(diff_tuples(current, plan.tuple)) == 1


def test_resolve_tuple_noop_change(pipeline, e2e):
    current = pipeline.branch_pins("main")
    event = make_event("code", "main", current.pins["code"].version)
    plan = pipeline.ingest_event(event)
    assert diff_tuples(current.to_tuple(), plan.tuple) == []


def test_resolve_tuple_requires_complete_pins(pipeline):
    from ca_engine.pipeline import BranchPins

    event = make_event("data", "main", "x2")
    with pytest.raises(IncompletePinsError):
        resolve_tuple(event, BranchPins("main", {"code": VersionPin("code", "c1")}))


# -- ingest ----------------------------------------------------------------


def test_ingest_is_idempotent_per_event_id(pipeline, store, e2e, repo):
    plan1, event = plan_data_bump(pipeline, store, event_id="evt-1")
    log_len = len(repo.events_path.read_text().splitlines())
    duplicate = ChangeEvent("evt-1", event.source, event.ref, event.new_pin, utc_now_iso())
    plan2 = pipeline.ingest_event(duplicate)
    assert plan1 == plan2
    assert len(repo.events_path.read_text().splitlines()) == log_len


def test_ingest_rejects_source_pin_mismatch(pipeline, e2e):
    event = ChangeEvent("evt-x", "code", "main", VersionPin("data", "x9"), utc_now_iso())
    with pytest.raises(MalformedEventError):
        pipeline.ingest_event(event)


def test_ingest_rejects_empty_event_id(pipeline, e2e):
    event = ChangeEvent("", "data", "main", VersionPin("data", "x9"), utc_now_iso())
    with pytest.raises(MalformedEventError):
        pipeline.ingest_event(event)


def test_ingest_unknown_branch_without_main(pipeline):
    event = make_event("data", "working/x", "x2")
    with pytest.raises(UnknownBranchError):
        pipeline.ingest_event(event)


def test_branch_inherits_main_pins(pipeline, e2e):
    pins = pipeline.branch_pins("working/fresh")
    assert pins.complete()
    assert pins.pins["code"].version == "c1"


# -- subset_select -----------------------------------------------------------


def test_subset_identity_at_fraction_one():
    manifest = [f"i{i}" for i in range(50)]
    assert subset_select(manifest, 1.0, 7) == manifest


def test_subset_bounds_determinism_and_seed_sensitivity():
    manifest = [f"item-{i:04d}" for i in range(1000)]
    picks = subset_select(manifest, 0.1, 0)
    assert 60 <= len(picks) <= 140
    for _ in range(3):
        assert subset_select(manifest, 0.1, 0) == picks
    assert subset_select(manifest, 0.1, 1) != picks
    assert [item for item in manifest if item in set(picks)] == picks  # order preserved


def test_subset_matches_independent_recomputation():
    manifest = [f"row-{i}" for i in range(500)]
    fraction, seed = 0.25, 42

    def oracle(item):
        digest = hashlib.sha256(f"{seed}:{item}".encode()).digest()
        return int.from_bytes(digest[:8], "big") % 10**6 < round(fraction * 10**6)

    assert subset_select(manifest, fraction, seed) == [i for i in manifest if oracle(i)]


def test_subset_keeps_at_least_one_item():
    # The second manifest's duplicates tie on their bucket; the first of them is kept.
    for manifest, seed in ((["a", "b", "c"], 3), ([f"row-{i}" for i in range(40)] * 2, 11)):
        picks = subset_select(manifest, 1e-6, seed)
        assert len(picks) >= 1

        def bucket(item):
            digest = hashlib.sha256(f"{seed}:{item}".encode()).digest()
            return int.from_bytes(digest[:8], "big") % 10**6

        if all(bucket(i) >= 1 for i in manifest):  # rule selected none; smallest hash survives
            assert picks == [min(manifest, key=bucket)]


@settings(max_examples=300, deadline=None)
@given(
    manifest=st.lists(st.sampled_from(["a", "b", "item-0001", "é", ""]) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6), min_size=1, max_size=40),
    fraction=st.sampled_from([1e-6, 2e-6, 1e-4, 0.01, 0.1, 0.5, 1.0]) | st.floats(1e-6, 1.0),
    seed=st.integers(0, 5) | st.integers(-3, 10**9),
)
def test_subset_matches_the_tuple_and_sort_reference(manifest, fraction, seed):
    """Duplicates, tiny fractions (where the keep-one fallback picks the item) and several seeds."""
    assert subset_select(manifest, fraction, seed) == subset_select_reference(manifest, fraction, seed)


def test_subset_rejects_empty_manifest_and_bad_fraction():
    with pytest.raises(EmptyManifestError):
        subset_select([], 0.5, 0)
    with pytest.raises(ValueError):
        subset_select(["a"], 0.0, 0)
    with pytest.raises(ValueError):
        subset_select(["a"], 1.5, 0)


# -- validation + gating + release -------------------------------------------


def run_validation(pipeline, store, graph, metrics=None, event_id=None):
    plan, _ = plan_data_bump(pipeline, store, event_id=event_id)
    executor = RecordingExecutor(e2e_scripts(metrics))
    return pipeline.run_validation(plan, graph, executor), plan


def test_run_validation_subsets_data_and_labels_run(pipeline, store, e2e):
    graph, _, _ = e2e
    record, plan = run_validation(pipeline, store, graph)
    assert record.kind == "validation"
    assert record.branch == "working/x"
    assert record.labels["event"] == plan.event_id
    assert record.labels["branch"] == "working/x"
    assert record.status == "succeeded"
    assert record.data_scope["kind"] == "subset"
    manifest_ids = json.loads(store.get_by_hash(record.data_scope["manifest"]).decode())
    assert 0 < len(manifest_ids) < 900
    assert record.feedback_id is not None


def test_malformed_metrics_keep_the_run_and_its_lineage(pipeline, run_store, lineage_log, e2e):
    graph, _, _ = e2e
    scripts = e2e_scripts()
    scripts["evaluate"] = scripted({"metrics": "not json"})
    with pytest.raises(MalformedMetricsError):
        pipeline.run_direct(graph, RecordingExecutor(scripts))
    (record,) = run_store.list()
    assert record.feedback_id is None
    model = record.step_outcomes[0].output_ids["model"]
    assert f"run:{record.run_id}" in lineage_log.provenance_of(model)


def test_failed_record_write_appends_no_lineage(pipeline, run_store, lineage_log, e2e, monkeypatch):
    graph, _, _ = e2e

    def disk_full(record):
        raise StorageError("cannot write run record")

    monkeypatch.setattr(run_store, "record", disk_full)
    with pytest.raises(StorageError):
        pipeline.run_direct(graph, RecordingExecutor(e2e_scripts()))
    assert lineage_log.edges() == []


def test_validation_and_release_tuples_align(pipeline, store, e2e, repo):
    graph, _, _ = e2e
    write_gates(repo, [{"metric": "accuracy", "op": ">=", "threshold": 0.9}])
    record, _ = run_validation(pipeline, store, graph)
    pipeline.approve(record.run_id, "alice")
    release = pipeline.run_release(record.run_id, graph, RecordingExecutor(e2e_scripts()))
    assert release.status == "succeeded"
    assert aligned(record.tuple, release.tuple)
    assert release.tuple == record.tuple
    assert release.data_scope["kind"] == "full"


def test_gate_report_and_approve_flow(pipeline, store, e2e, repo, run_store, monkeypatch):
    graph, _, _ = e2e
    write_gates(repo, [{"metric": "accuracy", "op": ">=", "threshold": 0.9}])
    record, _ = run_validation(pipeline, store, graph, metrics={"accuracy": 0.91})
    report = pipeline.gate_report(record.run_id)
    assert report.passed
    loads = []
    load = run_store.load
    monkeypatch.setattr(run_store, "load", lambda run_id: loads.append(run_id) or load(run_id))
    request = pipeline.approve(record.run_id, "alice")
    assert request.decision == "approved"
    assert loads == [record.run_id]  # the gate is evaluated on the record the check loaded
    with pytest.raises(AlreadyDecidedError):
        pipeline.approve(record.run_id, "bob")


def test_approve_failed_run_rejected(pipeline, store, e2e):
    graph, _, _ = e2e
    plan, _ = plan_data_bump(pipeline, store)
    scripts = e2e_scripts()
    from ca_engine.flow import scripted

    scripts["experiment"] = scripted({}, exit_code=1, log=b"train crashed\n")
    record = pipeline.run_validation(plan, graph, RecordingExecutor(scripts))
    assert record.status == "failed"
    with pytest.raises(RunNotSucceededError):
        pipeline.approve(record.run_id, "alice")


def test_approve_gate_failing_run_rejected(pipeline, store, e2e, repo):
    graph, _, _ = e2e
    write_gates(repo, [{"metric": "accuracy", "op": ">=", "threshold": 0.9}])
    record, _ = run_validation(pipeline, store, graph, metrics={"accuracy": 0.85})
    with pytest.raises(GateFailedError):
        pipeline.approve(record.run_id, "alice")


def test_release_without_approval_rejected(pipeline, store, e2e):
    graph, _, _ = e2e
    record, _ = run_validation(pipeline, store, graph)
    with pytest.raises(NotApprovedError):
        pipeline.run_release(record.run_id, graph, RecordingExecutor(e2e_scripts()))


def test_release_updates_main_pins_and_result_refs(pipeline, store, e2e, repo):
    graph, _, _ = e2e
    record, _ = run_validation(pipeline, store, graph)
    pipeline.approve(record.run_id, "alice")
    release = pipeline.run_release(record.run_id, graph, RecordingExecutor(e2e_scripts()))
    main = pipeline.branch_pins("main")
    assert main.pins["data"].version == "x2"
    assert main.last_release_run == release.run_id
    assert main.result_refs == release.result_ids
    with pytest.raises(AlreadyReleasedError):
        pipeline.run_release(record.run_id, graph, RecordingExecutor(e2e_scripts()))


def test_failed_release_leaves_main_pins_untouched(pipeline, store, e2e, repo):
    graph, _, _ = e2e
    record, _ = run_validation(pipeline, store, graph)
    pipeline.approve(record.run_id, "alice")
    before = repo.pins_path.read_bytes()
    scripts = e2e_scripts()
    from ca_engine.flow import scripted

    scripts["evaluate"] = scripted({}, exit_code=1, log=b"eval crashed\n")
    release = pipeline.run_release(record.run_id, graph, RecordingExecutor(scripts))
    assert release.status == "failed"
    assert repo.pins_path.read_bytes() == before
    # The approval is not consumed by a failed release; a retry can succeed.
    retry = pipeline.run_release(record.run_id, graph, RecordingExecutor(e2e_scripts()))
    assert retry.status == "succeeded"


def test_reject_requires_succeeded_gate_passing_run(pipeline, store, e2e, repo):
    graph, _, _ = e2e
    write_gates(repo, [{"metric": "accuracy", "op": ">=", "threshold": 0.9}])
    record, _ = run_validation(pipeline, store, graph, metrics={"accuracy": 0.5})
    with pytest.raises(GateFailedError):
        pipeline.reject(record.run_id, "carol", "should not even reach a decision")


def test_reject_records_reason(pipeline, store, e2e):
    graph, _, _ = e2e
    record, _ = run_validation(pipeline, store, graph)
    request = pipeline.reject(record.run_id, "carol", "numbers look implausible")
    assert request.decision == "rejected"
    with pytest.raises(AlreadyDecidedError):
        pipeline.approve(record.run_id, "alice")
    with pytest.raises(NotApprovedError):
        pipeline.run_release(record.run_id, parse_manifest(json.dumps(e2e_manifest())), RecordingExecutor(e2e_scripts()))


def test_no_release_without_approved_gate_passing_validation(pipeline, store, e2e, repo, run_store):
    """Scan the run and promotion logs: every release run traces back to an
    approved, succeeded, gate-passing validation run."""
    from ca_engine.util import read_jsonl

    graph, _, _ = e2e
    write_gates(repo, [{"metric": "accuracy", "op": ">=", "threshold": 0.9}])
    record, _ = run_validation(pipeline, store, graph, metrics={"accuracy": 0.93})
    pipeline.approve(record.run_id, "alice")
    pipeline.run_release(record.run_id, graph, RecordingExecutor(e2e_scripts({"accuracy": 0.93})))

    decisions = {
        row["run_id"]: row for row in read_jsonl(repo.promotions_path) if row.get("type") == "decision"
    }
    releases = [r for r in run_store.list() if r.kind == "release"]
    assert releases
    for release in releases:
        source = release.labels["promoted-from"]
        assert decisions[source]["decision"] == "approved"
        validation = run_store.load(source)
        assert validation.kind == "validation"
        assert validation.status == "succeeded"
        assert pipeline.gate_report(source).passed


def test_event_stream_with_duplicates_plans_once(pipeline, store, e2e):
    plans = set()
    for index in range(10):
        plan, _ = plan_data_bump(pipeline, store, version=f"x{index}", event_id=f"evt-{index % 5}")
        plans.add((plan.event_id, plan.tuple.pin("data").version))
    assert len(plans) == 5
    assert len(pipeline.planned_runs()) == 5


def test_torn_event_tail_is_ignored_then_cut(pipeline, store, run_store, e2e, repo):
    first, _ = plan_data_bump(pipeline, store, event_id="evt-1")
    tear(repo.events_path)
    fresh = Pipeline(repo, store, run_store)
    assert fresh.find_plan("evt-1") == first
    second, _ = plan_data_bump(fresh, store, version="x3", event_id="evt-2")
    assert Pipeline(repo, store, run_store).planned_runs() == [first, second]
    assert [row["event_id"] for row in journal_rows(repo.events_path)] == ["evt-1", "evt-2"]


def test_torn_promotion_tail_is_ignored_then_cut(pipeline, store, e2e, repo):
    graph, _, _ = e2e
    write_gates(repo, [{"metric": "accuracy", "op": ">=", "threshold": 0.9}])
    record, _ = run_validation(pipeline, store, graph)
    tear(repo.promotions_path)
    pipeline.approve(record.run_id, "alice")
    release = pipeline.run_release(record.run_id, graph, RecordingExecutor(e2e_scripts()))
    assert release.status == "succeeded"
    assert [row["type"] for row in journal_rows(repo.promotions_path)] == ["decision", "release"]

