from __future__ import annotations

import itertools
import json
import random

import pytest

from ca_engine.errors import (
    FlowValidationError,
    MissingOutputError,
    UnresolvedInputError,
)
from ca_engine.flow import DataScope, RecordingExecutor, execute, parse_manifest, scripted
from ca_engine.flow.executors import ScriptedResult
from ca_engine.store import ArtifactKind
from helpers import GatedCompletion, baseline_tuple, figure2_manifest, figure2_scripts

@pytest.fixture
def figure2(store):
    src = store.put(ArtifactKind.DATA, b"raw dataset\n")
    aux = store.put(ArtifactKind.CODE, b"prep config\n")
    graph = parse_manifest(
        json.dumps(figure2_manifest({"artifact": str(src)}, {"artifact": str(aux)}))
    )
    return graph, src, aux


def run_figure2(graph, store, run_store, scripts=None, **kwargs):
    executor = RecordingExecutor(scripts or figure2_scripts())
    record = execute(
        graph,
        baseline_tuple(),
        executor,
        kind="validation",
        store=store,
        run_store=run_store,
        **kwargs,
    )
    return record, executor


def outcomes_of(record, step):
    return [o for o in record.step_outcomes if o.step == step]


def test_figure2_success_produces_partition_and_merge_outcomes(figure2, store, run_store):
    graph, _, _ = figure2
    record, _ = run_figure2(graph, store, run_store)
    assert record.status == "succeeded"
    step4 = outcomes_of(record, "step4")
    partitions = [o for o in step4 if o.partition_index is not None]
    merges = [o for o in step4 if o.partition_index is None]
    assert len(partitions) == 3 and len(merges) == 1
    assert sorted(o.partition_index for o in partitions) == [0, 1, 2]
    merged = store.get(merges[0].output_ids["merged"])
    assert merged == b"p0|alpha\np1|alpha\np2|alpha\n"
    assert record.result_ids == [merges[0].output_ids["merged"]]
    assert record.result_ids[0].kind is ArtifactKind.RESULT


def test_failure_skips_dependents_but_keeps_log(figure2, store, run_store):
    graph, _, _ = figure2
    record, _ = run_figure2(
        graph, store, run_store, scripts=figure2_scripts(fail_step="step1", fail_exit=2)
    )
    assert record.status == "failed"
    step1 = outcomes_of(record, "step1")
    assert len(step1) == 1 and step1[0].exit_code == 2
    assert store.get(step1[0].log_id) == b"boom\n"
    assert step1[0].output_ids == {}
    assert outcomes_of(record, "step4") == []  # skipped, no outcomes
    # Independent branch still ran for maximal feedback.
    assert len(outcomes_of(record, "step2")) == 1
    assert len(outcomes_of(record, "step3")) == 1
    assert record.result_ids == []


def test_partition_failure_skips_merge(figure2, store, run_store):
    graph, _, _ = figure2
    record, _ = run_figure2(
        graph, store, run_store, scripts=figure2_scripts(fail_step="step4.p1", fail_exit=3)
    )
    assert record.status == "failed"
    step4 = outcomes_of(record, "step4")
    assert all(o.partition_index is not None for o in step4)  # merge never ran
    assert {o.partition_index for o in step4} == {0, 1, 2}


def test_every_outcome_has_a_stored_log(figure2, store, run_store):
    graph, _, _ = figure2
    for scripts in (figure2_scripts(), figure2_scripts(fail_step="step3")):
        record, _ = run_figure2(graph, store, run_store, scripts=scripts)
        for outcome in record.step_outcomes:
            assert store.verify(outcome.log_id)
            assert store.verify(outcome.env_snapshot_id)


def test_deterministic_execution_produces_identical_output_ids(figure2, store, run_store):
    graph, _, _ = figure2
    first, _ = run_figure2(graph, store, run_store)
    second, _ = run_figure2(graph, store, run_store)
    assert first.run_id != second.run_id
    key = lambda o: (o.step, o.partition_index if o.partition_index is not None else -1)
    for a, b in zip(sorted(first.step_outcomes, key=key), sorted(second.step_outcomes, key=key)):
        assert a.output_ids == b.output_ids


def test_merge_hash_invariant_under_completion_order(figure2, store, run_store):
    graph, _, _ = figure2
    hashes = set()
    for order in itertools.permutations(["step4.p0", "step4.p1", "step4.p2"]):
        executor = GatedCompletion(RecordingExecutor(figure2_scripts()), list(order))
        record = execute(
            graph,
            baseline_tuple(),
            executor,
            kind="validation",
            store=store,
            run_store=run_store,
            parallelism=4,
        )
        assert record.status == "succeeded"
        hashes.add(record.result_ids[0].hash)
    assert len(hashes) == 1


def test_partitioned_step_with_two_output_slots(store, run_store):
    from ca_engine.flow import concat_merge

    manifest = {
        "steps": [
            {
                "name": "split",
                "command": "emit {output:left} {output:right} {partition}",
                "inputs": {},
                "outputs": ["left", "right"],
                "partition": {
                    "count": 2,
                    "merge_command": "join {partitions:left} {partitions:right} {output:both}",
                },
            }
        ],
        "outcomes": [{"step": "split", "slot": "both"}],
    }
    graph = parse_manifest(json.dumps(manifest))

    def partition(index):
        def run(*, command, inputs, outputs, env, workdir):
            return ScriptedResult({"left": b"L%d," % index, "right": b"R%d," % index}, 0, b"")

        return run

    executor = RecordingExecutor(
        {"split.p0": partition(0), "split.p1": partition(1), "split.merge": concat_merge()}
    )
    record = execute(
        graph, baseline_tuple(), executor, kind="validation", store=store, run_store=run_store
    )
    assert record.status == "succeeded"
    # concat_merge reads inputs sorted by key: left.000, left.001, right.000, right.001.
    assert store.get(record.result_ids[0]) == b"L0,L1,R0,R1,"


def test_scheduling_soundness_on_figure2(figure2, store, run_store):
    graph, _, _ = figure2
    record, executor = run_figure2(graph, store, run_store)
    spans = {inv.key: (inv.start_seq, inv.end_seq) for inv in executor.invocations}
    # step1 must fully precede every step4 partition; partitions precede merge.
    for i in range(3):
        assert spans["step1"][1] < spans[f"step4.p{i}"][0]
        assert spans[f"step4.p{i}"][1] < spans["step4.merge"][0]
    assert spans["step2"][1] < spans["step3"][0]


def test_unresolved_artifact_input(store, run_store):
    manifest = {
        "steps": [
            {
                "name": "s",
                "command": "go {input:x} {output:out}",
                "inputs": {"x": {"artifact": f"data:{'9' * 64}"}},
                "outputs": ["out"],
            }
        ],
        "outcomes": [{"step": "s", "slot": "out"}],
    }
    graph = parse_manifest(json.dumps(manifest))
    with pytest.raises(UnresolvedInputError):
        execute(graph, baseline_tuple(), RecordingExecutor({}), kind="validation", store=store, run_store=run_store)


def test_unresolved_pin_input(store, run_store):
    manifest = {
        "steps": [
            {"name": "s", "command": "go {input:x} {output:out}", "inputs": {"x": {"pin": "data"}}, "outputs": ["out"]}
        ],
        "outcomes": [{"step": "s", "slot": "out"}],
    }
    graph = parse_manifest(json.dumps(manifest))
    # Pin has no content hash.
    with pytest.raises(UnresolvedInputError):
        execute(graph, baseline_tuple(), RecordingExecutor({}), kind="validation", store=store, run_store=run_store)
    # Pin content not in store.
    avt = baseline_tuple(data_content="a" * 64)
    with pytest.raises(UnresolvedInputError):
        execute(graph, avt, RecordingExecutor({}), kind="validation", store=store, run_store=run_store)


def test_pin_input_resolves_through_store(store, run_store):
    blob = store.put(ArtifactKind.DATA, b"pinned dataset\n")
    manifest = {
        "steps": [
            {"name": "s", "command": "go {input:x} {output:out}", "inputs": {"x": {"pin": "data"}}, "outputs": ["out"]}
        ],
        "outcomes": [{"step": "s", "slot": "out"}],
    }
    graph = parse_manifest(json.dumps(manifest))

    def script(*, command, inputs, outputs, env, workdir):
        return ScriptedResult({"out": inputs["x"].read_bytes().upper()}, 0, b"")

    record = execute(
        graph,
        baseline_tuple(data_content=blob.hash),
        RecordingExecutor({"s": script}),
        kind="validation",
        store=store,
        run_store=run_store,
    )
    assert store.get(record.result_ids[0]) == b"PINNED DATASET\n"
    assert record.step_outcomes[0].input_sources == {"x": "pin:data"}


def test_data_manifest_slot_requires_scope_manifest(store, run_store):
    manifest = {
        "steps": [
            {
                "name": "s",
                "command": "go {input:__data_manifest} {output:out}",
                "inputs": {},
                "outputs": ["out"],
            }
        ],
        "outcomes": [{"step": "s", "slot": "out"}],
    }
    graph = parse_manifest(json.dumps(manifest))
    with pytest.raises(UnresolvedInputError):
        execute(graph, baseline_tuple(), RecordingExecutor({}), kind="validation", store=store, run_store=run_store)

    def script(*, command, inputs, outputs, env, workdir):
        return ScriptedResult({"out": inputs["__data_manifest"].read_bytes()}, 0, b"")

    record = execute(
        graph,
        baseline_tuple(),
        RecordingExecutor({"s": script}),
        kind="validation",
        store=store,
        run_store=run_store,
        data_scope=DataScope.subset(("i1", "i2")),
    )
    assert json.loads(store.get(record.result_ids[0])) == ["i1", "i2"]
    assert record.data_scope["kind"] == "subset"
    assert record.data_scope["manifest"] is not None


def test_executor_infrastructure_failure_aborts(figure2, store, run_store):
    graph, _, _ = figure2
    scripts = figure2_scripts()
    scripts["step1"] = scripted({})  # omits declared output -> missing-output
    with pytest.raises(MissingOutputError):
        run_figure2(graph, store, run_store, scripts=scripts)


def test_executor_error_leaves_no_workdir(figure2, repo, store, run_store):
    graph, _, _ = figure2
    scripts = figure2_scripts()
    scripts["step1"] = scripted({})
    with pytest.raises(MissingOutputError):
        run_figure2(graph, store, run_store, scripts=scripts)
    assert list(repo.tmp_dir.iterdir()) == []


def test_execute_rejects_invalid_graph(store, run_store):
    manifest = {
        "steps": [
            {"name": "a", "command": "x {input:in} {output:out}", "inputs": {"in": {"step": "b", "slot": "out"}}, "outputs": ["out"]},
            {"name": "b", "command": "x {input:in} {output:out}", "inputs": {"in": {"step": "a", "slot": "out"}}, "outputs": ["out"]},
        ],
        "outcomes": [{"step": "a", "slot": "out"}],
    }
    graph = parse_manifest(json.dumps(manifest))
    with pytest.raises(FlowValidationError):
        execute(graph, baseline_tuple(), RecordingExecutor({}), kind="validation", store=store, run_store=run_store)


def test_random_dag_scheduling_soundness(store, run_store):
    rng = random.Random(31337)
    for _ in range(10):
        count = rng.randrange(3, 9)
        names = [f"s{i:02d}" for i in range(count)]
        steps = []
        edges = []
        for index, name in enumerate(names):
            inputs = {}
            for slot_index, u in enumerate(u for u in range(index) if rng.random() < 0.4):
                inputs[f"in{slot_index}"] = {"step": names[u], "slot": "out"}
                edges.append((names[u], name))
            steps.append({"name": name, "command": "go {output:out}", "inputs": inputs, "outputs": ["out"]})
        manifest = {"steps": steps, "outcomes": [{"step": names[-1], "slot": "out"}]}
        graph = parse_manifest(json.dumps(manifest))

        def default(*, command, inputs, outputs, env, workdir):
            return ScriptedResult({slot: workdir.name.encode() for slot in outputs}, 0, b"")

        executor = RecordingExecutor({}, default=default)
        record = execute(
            graph, baseline_tuple(), executor, kind="validation",
            store=store, run_store=run_store, parallelism=3,
        )
        assert record.status == "succeeded"
        spans = {inv.key: (inv.start_seq, inv.end_seq) for inv in executor.invocations}
        for src, dst in edges:
            assert spans[src][1] < spans[dst][0]
