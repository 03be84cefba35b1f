from __future__ import annotations

import json
import os

import pytest

from ca_engine.errors import IntegrityViolationError
from ca_engine.flow import RecordingExecutor, execute, parse_manifest
from ca_engine.lineage import LineageEdge, LineageLog, artifact_ref, replay_check, run_ref
from ca_engine.store import ArtifactId, ArtifactKind
from helpers import baseline_tuple, figure2_manifest, figure2_scripts, journal_rows, make_run, tear


@pytest.fixture
def figure2(store):
    src = store.put(ArtifactKind.DATA, b"raw dataset\n")
    aux = store.put(ArtifactKind.CODE, b"prep config\n")
    graph = parse_manifest(
        json.dumps(figure2_manifest({"artifact": str(src)}, {"artifact": str(aux)}))
    )
    return graph, src, aux


def run_figure2(graph, store, run_store, scripts=None):
    executor = RecordingExecutor(scripts or figure2_scripts())
    return execute(
        graph, baseline_tuple(), executor, kind="validation", store=store, run_store=run_store
    )


def test_record_edges_cover_inputs_outputs_and_pins(store, run_store, lineage_log):
    external = store.put(ArtifactKind.DATA, b"external input")
    record = make_run(store, run_store, steps=1)
    outcome = record.step_outcomes[0]
    outcome.input_sources["x"] = f"artifact:{external}"
    count = lineage_log.record_edges(record, store=store)
    # 1 consumed + 1 produced output.
    assert count == 2

    pinned_blob = store.put(ArtifactKind.DATA, b"pinned dataset")
    pinned = make_run(store, run_store, avt=baseline_tuple(data_content=pinned_blob.hash), steps=1)
    pinned.step_outcomes[0].input_sources["x"] = f"artifact:{external}"
    assert lineage_log.record_edges(pinned, store=store) == 3


def test_record_edges_idempotent(store, run_store, lineage_log):
    record = make_run(store, run_store)
    first = lineage_log.record_edges(record, store=store)
    assert first > 0
    before = len(lineage_log.edges())
    assert lineage_log.record_edges(record, store=store) == 0
    assert len(lineage_log.edges()) == before


def test_figure2_edge_chain(figure2, store, run_store, lineage_log):
    graph, src, _ = figure2
    record = run_figure2(graph, store, run_store)
    lineage_log.record_edges(record, store=store)
    edges = set(lineage_log.edges())
    node = run_ref(record.run_id)
    assert LineageEdge(artifact_ref(src), node, "consumed") in edges
    step1_out = next(o for o in record.step_outcomes if o.step == "step1").output_ids["out"]
    assert LineageEdge(node, artifact_ref(step1_out), "produced") in edges
    merge_out = record.result_ids[0]
    assert LineageEdge(node, artifact_ref(merge_out), "produced") in edges


def test_runs_using(store, run_store, lineage_log):
    artifact = store.put(ArtifactKind.DATA, b"shared input")
    untouched = store.put(ArtifactKind.DATA, b"untouched")
    assert lineage_log.runs_using(untouched, run_store=run_store) == []
    r1 = make_run(store, run_store, started_at="2026-01-01T00:00:00.000000Z", finished_at="2026-01-01T00:00:01.000000Z")
    r2 = make_run(store, run_store, started_at="2026-01-02T00:00:00.000000Z", finished_at="2026-01-02T00:00:01.000000Z")
    for record in (r2, r1):  # record in reverse to prove ordering comes from start time
        record.step_outcomes[0].input_sources["x"] = f"artifact:{artifact}"
        lineage_log.record_edges(record, store=store)
    assert lineage_log.runs_using(artifact, run_store=run_store) == [r1.run_id, r2.run_id]


def test_provenance_source_artifact_is_itself(store, lineage_log):
    artifact = store.put(ArtifactKind.DATA, b"no producer")
    assert lineage_log.provenance_of(artifact) == {artifact_ref(artifact)}


def test_provenance_two_step_chain(store, run_store, lineage_log):
    source = store.put(ArtifactKind.DATA, b"chain source")
    r1 = make_run(store, run_store, steps=1)
    r1.step_outcomes[0].input_sources["x"] = f"artifact:{source}"
    lineage_log.record_edges(r1, store=store)
    intermediate = r1.step_outcomes[0].output_ids["out"]

    r2 = make_run(store, run_store, steps=1)
    r2.step_outcomes[0].input_sources["x"] = f"artifact:{intermediate}"
    lineage_log.record_edges(r2, store=store)
    final = r2.step_outcomes[0].output_ids["out"]

    closure = lineage_log.provenance_of(final)
    assert closure == {
        artifact_ref(final),
        run_ref(r2.run_id),
        artifact_ref(intermediate),
        run_ref(r1.run_id),
        artifact_ref(source),
    }


def test_two_outputs_share_their_run_in_closures(store, run_store, lineage_log):
    record = make_run(store, run_store, steps=2)
    lineage_log.record_edges(record, store=store)
    out_a = record.step_outcomes[0].output_ids["out"]
    out_b = record.step_outcomes[1].output_ids["out"]
    assert run_ref(record.run_id) in lineage_log.provenance_of(out_a)
    assert run_ref(record.run_id) in lineage_log.provenance_of(out_b)


def test_closure_monotonic_under_new_edges(store, run_store, lineage_log):
    record = make_run(store, run_store, steps=1)
    lineage_log.record_edges(record, store=store)
    out = record.step_outcomes[0].output_ids["out"]
    before = lineage_log.provenance_of(out)
    other = make_run(store, run_store, steps=1)
    other.step_outcomes[0].input_sources["x"] = f"artifact:{out}"
    lineage_log.record_edges(other, store=store)
    assert before <= lineage_log.provenance_of(out)


def test_lineage_graph_stays_acyclic(figure2, store, run_store, lineage_log):
    graph, _, _ = figure2
    first = run_figure2(graph, store, run_store)
    lineage_log.record_edges(first, store=store)
    second = run_figure2(graph, store, run_store)
    lineage_log.record_edges(second, store=store)

    adjacency = {}
    for edge in lineage_log.edges():
        adjacency.setdefault(edge.src, set()).add(edge.dst)

    visiting, done = set(), set()

    def dfs(node):
        if node in done:
            return
        assert node not in visiting, f"cycle through {node}"
        visiting.add(node)
        for nxt in adjacency.get(node, ()):
            dfs(nxt)
        visiting.discard(node)
        done.add(node)

    for node in list(adjacency):
        dfs(node)


def test_replay_identical(figure2, store, run_store, lineage_log):
    graph, _, _ = figure2
    record = run_figure2(graph, store, run_store)
    result = replay_check(
        record.run_id,
        graph,
        RecordingExecutor(figure2_scripts()),
        store=store,
        run_store=run_store,
        lineage_log=lineage_log,
    )
    assert result.identical
    assert result.divergences == ()
    replay_record = run_store.load(result.replay_run_id)
    assert replay_record.kind == "validation"
    assert replay_record.labels["replay-of"] == record.run_id
    assert replay_record.feedback_id is not None


def test_replay_detects_single_byte_divergence_in_merge(figure2, store, run_store):
    graph, _, _ = figure2
    record = run_figure2(graph, store, run_store)

    def flip_last_byte(blob: bytes) -> bytes:
        return blob[:-1] + bytes([blob[-1] ^ 0x01])

    result = replay_check(
        record.run_id,
        graph,
        RecordingExecutor(figure2_scripts(perturb_merge=flip_last_byte)),
        store=store,
        run_store=run_store,
    )
    assert not result.identical
    assert len(result.divergences) == 1
    divergence = result.divergences[0]
    assert divergence.step == "step4"
    assert divergence.slot == "merged"
    assert divergence.partition_index is None
    assert divergence.old_hash != divergence.new_hash


def test_replay_missing_pinned_input(store, run_store, figure2):
    graph, _, _ = figure2
    pinned_blob = store.put(ArtifactKind.DATA, b"pinned for replay")
    avt = baseline_tuple(data_content=pinned_blob.hash)
    executor = RecordingExecutor(figure2_scripts())
    record = execute(graph, avt, executor, kind="validation", store=store, run_store=run_store)
    # Remove the pinned object from disk: provenance is broken.
    store.object_path(pinned_blob.hash).unlink()
    with pytest.raises(IntegrityViolationError):
        replay_check(record.run_id, graph, executor, store=store, run_store=run_store)


def test_replay_uses_recorded_data_scope(store, run_store):
    from ca_engine.flow import DataScope
    from ca_engine.flow.executors import ScriptedResult

    manifest = {
        "steps": [
            {"name": "s", "command": "go {input:__data_manifest} {output:out}", "inputs": {}, "outputs": ["out"]}
        ],
        "outcomes": [{"step": "s", "slot": "out"}],
    }
    graph = parse_manifest(json.dumps(manifest))

    def script(*, command, inputs, outputs, env, workdir):
        return ScriptedResult({"out": inputs["__data_manifest"].read_bytes()}, 0, b"")

    executor = RecordingExecutor({"s": script})
    record = execute(
        graph, baseline_tuple(), executor, kind="validation",
        store=store, run_store=run_store, data_scope=DataScope.subset(("a", "b", "c")),
    )
    result = replay_check(record.run_id, graph, executor, store=store, run_store=run_store)
    assert result.identical
    assert run_store.load(result.replay_run_id).data_scope == record.data_scope


def test_torn_lineage_tail_is_ignored_then_cut(repo, lineage_log):
    first = LineageEdge(f"artifact:data:{'a' * 64}", "run:r1", "consumed")
    second = LineageEdge("run:r1", f"artifact:data:{'b' * 64}", "produced")
    lineage_log.append_edges([first])
    tear(repo.lineage_path)
    fresh = LineageLog(repo)
    assert fresh.edges() == [first]
    assert fresh.append_edges([first, second]) == 1
    assert LineageLog(repo).provenance_of(ArtifactId(ArtifactKind.DATA, "b" * 64)) == {
        second.dst, "run:r1", first.src
    }
    assert len(journal_rows(repo.lineage_path)) == 2


def test_record_edges_appends_one_batch_with_one_fsync(store, run_store, lineage_log, monkeypatch):
    record = make_run(store, run_store, steps=3)
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
    assert lineage_log.record_edges(record, store=store) == 3
    assert len(fsyncs) == 1
    fsyncs.clear()
    assert lineage_log.record_edges(record, store=store) == 0
    assert fsyncs == []


def test_malformed_lineage_line_is_an_integrity_error(repo, lineage_log):
    with open(repo.lineage_path, "a") as fh:
        fh.write('{"from": ["not", "hashable"], "role": "consumed", "to": "run:r1"}\n')
    with pytest.raises(IntegrityViolationError, match=r"lineage\.jsonl: line 1"):
        lineage_log.edges()

