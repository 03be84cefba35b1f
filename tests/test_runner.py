from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

import ca_engine.store as store_mod
from ca_engine.cli import main
from ca_engine.errors import (
    ExecutorFailureError,
    FlowValidationError,
    IntegrityViolationError,
    MissingOutputError,
    StorageError,
    UnresolvedInputError,
)
from ca_engine.feedback import load_bundle
from ca_engine.flow import DataScope, RecordingExecutor, execute, parse_manifest, scripted
from ca_engine.flow.executors import ScriptedResult, StepExecutor
from ca_engine.lineage import replay_check
from ca_engine.repo import Repository
from ca_engine.store import ArtifactKind, sha256_hex
from helpers import GatedCompletion, baseline_tuple, figure2_manifest, figure2_scripts, journal_rows

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


def test_a_run_root_holds_its_id_until_the_record_is_written(figure2, repo, store, run_store, monkeypatch):
    graph, _, _ = figure2
    held = []
    record = run_store.record

    def checked_record(run):
        held.append((repo.tmp_dir / run.run_id).is_dir())
        record(run)

    monkeypatch.setattr(run_store, "record", checked_record)
    run_figure2(graph, store, run_store)
    assert held == [True]
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


def random_failing_dag(rng, count):
    """A random flow of ``count`` steps, some partitioned, and task keys that fail.

    Returns the manifest, each task key's upstream task keys, the partitioned
    step names and the failing task keys.
    """
    steps, deps, partitioned = [], {}, set()
    final = {}
    for index in range(count):
        name = f"s{index:02d}"
        upstream = [f"s{u:02d}" for u in range(index) if rng.random() < 0.5]
        inputs = {f"in{i}": {"step": u, "slot": "out"} for i, u in enumerate(upstream)}
        upstream_keys = {final[u] for u in upstream}
        if rng.random() < 0.3:
            parts = rng.randrange(1, 4)
            steps.append({
                "name": name, "command": "go {output:part} {partition}", "inputs": inputs, "outputs": ["part"],
                "partition": {"count": parts, "merge_command": "join {partitions:part} {output:out}"},
            })
            for i in range(parts):
                deps[f"{name}.p{i}"] = upstream_keys
            deps[f"{name}.merge"] = {f"{name}.p{i}" for i in range(parts)}
            partitioned.add(name)
            final[name] = f"{name}.merge"
        else:
            steps.append({"name": name, "command": "go {output:out}", "inputs": inputs, "outputs": ["out"]})
            deps[name] = upstream_keys
            final[name] = name
    fails = {key for key in deps if rng.random() < 0.15}
    manifest = {"steps": steps, "outcomes": [{"step": steps[-1]["name"], "slot": "out"}]}
    return manifest, deps, partitioned, fails


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_failed_tasks_never_release_their_dependents(parallelism, store, run_store):
    rng = random.Random(4242)
    joins_with_one_failed_parent = failed_partitions = 0
    for _ in range(15):
        manifest, deps, partitioned, fails = random_failing_dag(rng, rng.randrange(3, 9))
        graph = parse_manifest(json.dumps(manifest))

        def default(*, command, inputs, outputs, env, workdir):
            return ScriptedResult({slot: workdir.name.encode() for slot in outputs}, 0, b"")

        executor = RecordingExecutor({key: scripted({}, exit_code=1) for key in fails}, default=default)
        record = execute(
            graph, baseline_tuple(), executor, kind="validation",
            store=store, run_store=run_store, parallelism=parallelism,
        )

        def upstream_of(key):
            seen, stack = set(), list(deps[key])
            while stack:
                dep = stack.pop()
                if dep not in seen:
                    seen.add(dep)
                    stack.extend(deps[dep])
            return seen

        expected = {key for key in deps if not upstream_of(key) & fails}
        ran = [inv.key for inv in executor.invocations]
        assert sorted(ran) == sorted(expected)

        def task_key(outcome):
            if outcome.partition_index is not None:
                return f"{outcome.step}.p{outcome.partition_index}"
            return f"{outcome.step}.merge" if outcome.step in partitioned else outcome.step

        # One outcome per task that ran; no skipped task has an outcome.
        assert sorted(task_key(o) for o in record.step_outcomes) == sorted(expected)
        assert (record.status == "succeeded") == (not fails)
        assert (record.status == "succeeded") == all(o.exit_code == 0 for o in record.step_outcomes)

        spans = {inv.key: (inv.start_seq, inv.end_seq) for inv in executor.invocations}
        for key in expected:
            for dep in deps[key]:
                assert spans[dep][1] < spans[key][0]
        joins_with_one_failed_parent += sum(
            1
            for key in deps
            if not key.endswith(".merge") and len(deps[key]) >= 2
            and deps[key] <= expected and len(deps[key] & fails) == 1
        )
        failed_partitions += len({key for key in fails & expected if ".p" in key})
    # The seeded DAGs include a step whose upstreams all ran and exactly one
    # failed, and a failed partition task.
    assert joins_with_one_failed_parent and failed_partitions


def fan_manifest(src_ref, count):
    """One partitioned step whose every partition reads the same input."""
    return {
        "steps": [
            {
                "name": "fan",
                "command": "use {input:src} {output:part} {partition}",
                "inputs": {"src": src_ref},
                "outputs": ["part"],
                "partition": {"count": count, "merge_command": "cat {partitions:part} {output:merged}"},
            }
        ],
        "outcomes": [{"step": "fan", "slot": "merged"}],
    }


def fan_line(index, data):
    return b"%d %s\n" % (index, hashlib.sha256(data).hexdigest().encode())


def fan_executor(clobber=None):
    """Partitions output ``fan_line`` of the input they read; ``clobber`` then overwrites its own."""

    def partition(*, command, inputs, outputs, env, workdir):
        index = int(command.split()[-1])
        line = fan_line(index, inputs["src"].read_bytes())
        if index == clobber:
            inputs["src"].write_bytes(b"clobbered")
        return ScriptedResult({"part": line}, 0, b"")

    def merge(*, command, inputs, outputs, env, workdir):
        return ScriptedResult({"merged": b"".join(inputs[key].read_bytes() for key in sorted(inputs))}, 0, b"")

    return RecordingExecutor({"fan.merge": merge}, default=partition)


def counting_sha256(tally):
    """A ``hashlib.sha256`` stand-in that adds the bytes hashed into each digest to ``tally``."""

    class Counting:
        def __init__(self, data=b""):
            self._hasher = hashlib.sha256(data)
            self._size = len(data)

        def update(self, data):
            self._hasher.update(data)
            self._size += len(data)

        def hexdigest(self):
            digest = self._hasher.hexdigest()
            tally[digest] = tally.get(digest, 0) + self._size
            return digest

    return Counting


def test_shared_input_is_hashed_once_per_run(store, run_store, monkeypatch):
    data = random.Random(5).randbytes(3 * 2**20 + 7)
    blob = store.put(ArtifactKind.DATA, data)
    graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, 8)))
    tally = {}
    monkeypatch.setattr(store_mod, "hashlib", SimpleNamespace(sha256=counting_sha256(tally)))
    # One worker per partition, so all eight ask for the input at once, and
    # frequent thread switches to expose a check-then-act race.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        record = execute(
            graph, baseline_tuple(data_content=blob.hash), fan_executor(),
            kind="validation", store=store, run_store=run_store, parallelism=8,
        )
    finally:
        sys.setswitchinterval(interval)
    assert record.status == "succeeded"
    assert tally[blob.hash] == len(data)


@pytest.mark.parametrize(
    "damage, error",
    [
        ("flip", IntegrityViolationError),
        ("delete", IntegrityViolationError),
        ("unreadable", StorageError),
    ],
)
def test_corrupt_or_missing_input_is_caught(damage, error, tmp_path, repo, store, run_store, pipeline):
    blob = store.put(ArtifactKind.DATA, b"pinned input\n" * 100)
    # An artifact input, not a pin: ``ca flow run`` reads a data pin's content
    # before executing, and this must reach the copy into each task.
    doc = fan_manifest({"artifact": str(blob)}, 4)
    graph = parse_manifest(json.dumps(doc))
    # A clean run first, so verification cached beyond its run would show.
    assert execute(graph, baseline_tuple(), fan_executor(), kind="validation", store=store, run_store=run_store).status == "succeeded"

    obj = store.object_path(blob.hash)
    if damage == "flip":
        raw = bytearray(obj.read_bytes())
        raw[5] ^= 0x01
        obj.write_bytes(bytes(raw))
    else:
        obj.unlink()
        if damage == "unreadable":
            obj.mkdir()
    executor = fan_executor()
    with pytest.raises(error):
        execute(graph, baseline_tuple(), executor, kind="validation", store=store, run_store=run_store)
    assert executor.invocations == []
    assert list(repo.tmp_dir.iterdir()) == []

    pipeline.set_branch_pins("main", baseline_tuple().pins)
    manifest = tmp_path / "flow.json"
    manifest.write_text(json.dumps(doc))
    assert main(["flow", "run", str(manifest), "--repo", str(repo.root)]) == 3


def test_tasks_are_isolated_from_each_other_and_the_store(store, run_store):
    data = b"shared input\n" * 1000
    blob = store.put(ArtifactKind.DATA, data)
    graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, 4)))
    # One worker runs the partitions in index order, so partition 0 clobbers
    # its input before any sibling reads.
    record = execute(
        graph, baseline_tuple(data_content=blob.hash), fan_executor(clobber=0),
        kind="validation", store=store, run_store=run_store, parallelism=1,
    )
    assert record.status == "succeeded"
    assert store.verify(blob)
    assert store.get(record.result_ids[0]) == b"".join(fan_line(i, data) for i in range(4))


def test_task_plan_is_pinned(repo, store, run_store):
    pinned = store.put(ArtifactKind.DATA, b"pinned rows\n")
    aux = store.put(ArtifactKind.CODE, b"prep config\n")
    manifest = {
        "steps": [
            {
                "name": "prep",
                "command": "prep {input:raw} {input:aux} {input:__data_manifest} {output:out}",
                "inputs": {"raw": {"pin": "data"}, "aux": {"artifact": str(aux)}},
                "outputs": ["out"],
            },
            {
                "name": "split",
                "command": "split {input:feed} {output:left} {output:right} {partition}",
                "inputs": {"feed": {"step": "prep", "slot": "out"}},
                "outputs": ["left", "right"],
                "partition": {"count": 2, "merge_command": "join {partitions:left} {partitions:right} {output:both}"},
            },
            {
                "name": "report",
                "command": "report {input:both} {output:metrics}",
                "inputs": {"both": {"step": "split", "slot": "both"}},
                "outputs": ["metrics"],
            },
        ],
        "outcomes": [{"step": "split", "slot": "both"}, {"step": "report", "slot": "metrics"}],
        "metrics_output": {"step": "report", "slot": "metrics"},
    }
    graph = parse_manifest(json.dumps(manifest))

    def default(*, command, inputs, outputs, env, workdir):
        return ScriptedResult({slot: f"{workdir.name}:{slot}".encode() for slot in outputs}, 0, b"")

    executor = RecordingExecutor({"report": scripted({"metrics": '{"score": 1}'})}, default=default)
    record = execute(
        graph, baseline_tuple(data_content=pinned.hash), executor, kind="validation",
        store=store, run_store=run_store, data_scope=DataScope.subset(("i1", "i2")),
    )
    assert record.status == "succeeded"
    root = str((repo.tmp_dir / record.run_id).resolve())
    manifest_source = "artifact:data:f72e6cd0df492730e76d13461e49023518852d5b8a66f390e4664c5a1462b4af"
    assert [
        (
            o.step,
            o.partition_index,
            o.command_rendered.replace(root, "<root>"),
            o.input_sources,
            {slot: artifact_id.kind.value for slot, artifact_id in o.output_ids.items()},
        )
        for o in record.step_outcomes
    ] == [
        (
            "prep",
            None,
            "prep {run}/prep/in.raw {run}/prep/in.aux {run}/prep/in.data_manifest.json "
            "{run}/prep/out.out",
            {
                "aux": "artifact:code:3febfb1a201bf3a27e566bf5bb6153b77cea27dfd0ea0db2b2f11845c5b4f6e3",
                "raw": "pin:data",
                "__data_manifest": manifest_source,
            },
            {"out": "data"},
        ),
        (
            "split",
            0,
            "split {run}/split.p0/in.feed {run}/split.p0/out.left {run}/split.p0/out.right 0",
            {"feed": "step:prep:out", "__data_manifest": manifest_source},
            {"left": "data", "right": "data"},
        ),
        (
            "split",
            1,
            "split {run}/split.p1/in.feed {run}/split.p1/out.left {run}/split.p1/out.right 1",
            {"feed": "step:prep:out", "__data_manifest": manifest_source},
            {"left": "data", "right": "data"},
        ),
        (
            "split",
            None,
            "join {run}/split.merge/in.left.000 {run}/split.merge/in.left.001 "
            "{run}/split.merge/in.right.000 {run}/split.merge/in.right.001 "
            "{run}/split.merge/out.both",
            {
                "left.000": "step:split:left[0]",
                "left.001": "step:split:left[1]",
                "right.000": "step:split:right[0]",
                "right.001": "step:split:right[1]",
            },
            {"both": "result"},
        ),
        (
            "report",
            None,
            "report {run}/report/in.both {run}/report/out.metrics",
            {"both": "step:split:both", "__data_manifest": manifest_source},
            {"metrics": "result"},
        ),
    ]
    merge, report = record.step_outcomes[3], record.step_outcomes[4]
    assert record.result_ids == [merge.output_ids["both"], report.output_ids["metrics"]]
    assert load_bundle(record, store=store).metrics == {"score": 1.0}


class Watched(StepExecutor):
    """Wraps an executor, tracking how many of its calls are in progress."""

    def __init__(self, inner, on_run=None):
        self.inner = inner
        self.on_run = on_run
        self.busy = 0
        self._lock = threading.Lock()

    def run(self, command, *, inputs, outputs, env, workdir):
        with self._lock:
            self.busy += 1
        try:
            if self.on_run is not None:
                self.on_run(workdir)
            return self.inner.run(command, inputs=inputs, outputs=outputs, env=env, workdir=workdir)
        finally:
            with self._lock:
                self.busy -= 1


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_run_takes_the_write_lock_a_fixed_number_of_times_and_never_while_tasks_run(
    parallelism, store, run_store, lineage_log, monkeypatch
):
    blob = store.put(ArtifactKind.DATA, b"shared input\n" * 64)
    executor = Watched(fan_executor())
    entries = []
    during_tasks = []
    original_lock, original_fsync = Repository.write_lock, os.fsync

    @contextmanager
    def write_lock(self, *args, **kwargs):
        entries.append(1)
        if executor.busy:
            during_tasks.append("write_lock")
        with original_lock(self, *args, **kwargs):
            yield

    def fsync(fd):
        if executor.busy:
            during_tasks.append("fsync")
        return original_fsync(fd)

    monkeypatch.setattr(Repository, "write_lock", write_lock)
    monkeypatch.setattr(os, "fsync", fsync)
    per_run = []
    for count in (4, 16, 64):
        graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, count)))
        entries.clear()
        record = execute(
            graph, baseline_tuple(data_content=blob.hash), executor, kind="validation",
            store=store, run_store=run_store, lineage=lineage_log, parallelism=parallelism,
        )
        assert record.status == "succeeded"
        per_run.append(len(entries))
    # commit, bundle put, record and lineage
    assert per_run == [4] * 3
    assert during_tasks == []


@pytest.mark.parametrize("content", ["binary", "item-manifest"])
def test_a_direct_run_hashes_the_data_pin_once(content, store, pipeline, monkeypatch):
    if content == "binary":
        data = random.Random(11).randbytes(4 * 2**20)
    else:
        data = b"\n " + json.dumps([f"item-{i:06d}" for i in range(50_000)]).encode()
    blob = store.put(ArtifactKind.DATA, data)
    pipeline.set_branch_pins("main", baseline_tuple(data_content=blob.hash).pins)
    graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, 4)))
    tally = {}
    monkeypatch.setattr(store_mod, "hashlib", SimpleNamespace(sha256=counting_sha256(tally)))
    record = pipeline.run_direct(graph, fan_executor())
    assert record.status == "succeeded"
    assert (record.data_scope["manifest"] is not None) == (content == "item-manifest")
    assert tally[blob.hash] == len(data)


def test_replay_hashes_each_pin_once(store, run_store, monkeypatch):
    data = random.Random(13).randbytes(3 * 2**20)
    blob = store.put(ArtifactKind.DATA, data)
    graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, 4)))
    original = execute(
        graph, baseline_tuple(data_content=blob.hash), fan_executor(),
        kind="validation", store=store, run_store=run_store,
    )
    tally = {}
    monkeypatch.setattr(store_mod, "hashlib", SimpleNamespace(sha256=counting_sha256(tally)))
    replay = replay_check(original.run_id, graph, fan_executor(), store=store, run_store=run_store)
    assert replay.identical
    assert tally[blob.hash] == len(data)


def test_each_task_removes_its_workdir_when_it_finishes(store, run_store):
    blob = store.put(ArtifactKind.DATA, b"shared input\n")
    listings = []
    executor = Watched(fan_executor(), on_run=lambda workdir: listings.append(
        (workdir.name, sorted(path.name for path in workdir.parent.iterdir()))
    ))
    graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, 4)))
    record = execute(
        graph, baseline_tuple(data_content=blob.hash), executor,
        kind="validation", store=store, run_store=run_store, parallelism=1,
    )
    assert record.status == "succeeded"
    assert [name for name, _ in listings] == ["fan.p0", "fan.p1", "fan.p2", "fan.p3", "fan.merge"]
    assert all(listing == [name] for name, listing in listings)


def test_an_aborted_run_indexes_nothing_and_the_next_run_rewrites_what_it_staged(repo, store, run_store):
    data = b"shared input\n" * 100
    blob = store.put(ArtifactKind.DATA, data)
    graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, 4)))
    avt = baseline_tuple(data_content=blob.hash)
    rows = journal_rows(repo.index_path)

    def lose_backend(**kwargs):
        raise ExecutorFailureError("executor lost its backend")

    failing = fan_executor()
    failing.scripts["fan.p2"] = lose_backend
    with pytest.raises(ExecutorFailureError):
        execute(graph, avt, failing, kind="validation", store=store, run_store=run_store, parallelism=1)
    assert {"fan.p0", "fan.p1"} <= {i.key for i in failing.invocations}
    assert journal_rows(repo.index_path) == rows
    assert list(repo.tmp_dir.iterdir()) == []
    # What the two finished partitions staged is on disk but not in the store;
    # garble it, as a crash before it reached the disk could.
    staged = [store.object_path(sha256_hex(fan_line(i, data))) for i in (0, 1)]
    for path in staged:
        path.write_bytes(b"garbled")

    record = execute(graph, avt, fan_executor(), kind="validation", store=store, run_store=run_store)
    assert record.status == "succeeded"
    assert list(repo.tmp_dir.iterdir()) == []
    ids = [record.feedback_id, *record.result_ids]
    for outcome in record.step_outcomes:
        ids += [outcome.log_id, outcome.env_snapshot_id, *outcome.output_ids.values()]
    assert all(store.verify(artifact_id) for artifact_id in ids)
    assert store.get(record.result_ids[0]) == b"".join(fan_line(i, data) for i in range(4))


@pytest.mark.parametrize("parallelism", [1, 2])
def test_an_aborted_run_starts_no_further_task(repo, store, run_store, parallelism):
    data = b"shared input\n" * 100
    blob = store.put(ArtifactKind.DATA, data)
    graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, 4)))
    raised = threading.Event()

    def lose_backend(**kwargs):
        raised.set()
        raise ExecutorFailureError("executor lost its backend")

    def outlast_the_failure(**kwargs):
        # Hold the second worker until fan.p2 has raised, so fan.p3 is still queued then.
        assert raised.wait(timeout=30)
        time.sleep(0.1)
        return ScriptedResult({"part": fan_line(1, data)}, 0, b"")

    failing = fan_executor()
    failing.scripts["fan.p2"] = lose_backend
    if parallelism > 1:
        failing.scripts["fan.p1"] = outlast_the_failure
    with pytest.raises(ExecutorFailureError):
        execute(
            graph, baseline_tuple(data_content=blob.hash), failing, kind="validation", store=store,
            run_store=run_store, parallelism=parallelism,
        )
    assert "fan.p3" not in {i.key for i in failing.invocations}
    assert not store.object_path(sha256_hex(fan_line(3, data))).exists()


def test_an_indexed_upstream_output_is_checked_before_a_downstream_task_gets_it(repo, store, run_store):
    manifest = {
        "steps": [
            {"name": "a", "command": "make {output:out}", "inputs": {}, "outputs": ["out"]},
            {"name": "b", "command": "use {input:src} {output:out}", "inputs": {"src": {"step": "a", "slot": "out"}}, "outputs": ["out"]},
        ],
        "outcomes": [{"step": "b", "slot": "out"}],
    }
    graph = parse_manifest(json.dumps(manifest))

    def flow_executor():
        return RecordingExecutor({"a": scripted({"out": b"upstream bytes\n" * 50}), "b": scripted({"out": "done\n"})})

    first = execute(graph, baseline_tuple(), flow_executor(), kind="validation", store=store, run_store=run_store)
    assert first.status == "succeeded"
    upstream = next(o for o in first.step_outcomes if o.step == "a").output_ids["out"]
    obj = store.object_path(upstream.hash)
    raw = bytearray(obj.read_bytes())
    raw[3] ^= 0x01
    obj.write_bytes(bytes(raw))

    # `a` reproduces the same bytes, so staging them finds them indexed and
    # leaves the damaged object file as it is; `b` must not get a copy of it.
    executor = flow_executor()
    with pytest.raises(IntegrityViolationError):
        execute(graph, baseline_tuple(), executor, kind="validation", store=store, run_store=run_store)
    assert [i.key for i in executor.invocations] == ["a"]


@pytest.mark.parametrize("count", [4, 16])
def test_a_run_makes_one_directory_per_pool_thread_and_walks_no_tree(count, repo, store, run_store, monkeypatch):
    blob = store.put(ArtifactKind.DATA, b"shared input\n" * 64)
    graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, count)))
    tmp = repo.tmp_dir.resolve()
    made, walked = [], []
    original_mkdir, original_rmtree = os.mkdir, shutil.rmtree

    def mkdir(path, *args, **kwargs):
        if Path(path).is_relative_to(tmp):
            made.append(path)
        return original_mkdir(path, *args, **kwargs)

    def rmtree(path, *args, **kwargs):
        walked.append(path)
        return original_rmtree(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", mkdir)
    monkeypatch.setattr(shutil, "rmtree", rmtree)
    record = execute(
        graph, baseline_tuple(data_content=blob.hash), fan_executor(),
        kind="validation", store=store, run_store=run_store, parallelism=2,
    )
    assert record.status == "succeeded"
    assert len(made) <= 2 + 1  # one workdir per pool thread, and the run root
    assert walked == []
    assert list(repo.tmp_dir.iterdir()) == []


class Littering(StepExecutor):
    """Runs ``inner``, then lets ``litter(workdir, inputs)`` leave files of its own in the workdir."""

    def __init__(self, inner, litter):
        self.inner = inner
        self.litter = litter

    def run(self, command, *, inputs, outputs, env, workdir):
        result = self.inner.run(command, inputs=inputs, outputs=outputs, env=env, workdir=workdir)
        self.litter(workdir, inputs)
        return result


def leave_subdirectory(workdir, inputs):
    nested = workdir / "scratch" / "deeper"
    nested.mkdir(parents=True)
    (nested / "notes.txt").write_bytes(b"left behind\n")


def replace_input_by_directory(workdir, inputs):
    for path in inputs.values():
        path.unlink()
        path.mkdir()
        (path / "inside").write_bytes(b"left behind\n")


@pytest.mark.parametrize("litter", [leave_subdirectory, replace_input_by_directory])
def test_a_workdir_the_step_left_files_in_is_still_removed(litter, repo, store, run_store):
    blob = store.put(ArtifactKind.DATA, b"shared input\n")
    graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, 4)))
    listings = []

    def litter_then_list(workdir, inputs):
        litter(workdir, inputs)
        listings.append(sorted(path.name for path in workdir.parent.iterdir()))

    record = execute(
        graph, baseline_tuple(data_content=blob.hash), Littering(fan_executor(), litter_then_list),
        kind="validation", store=store, run_store=run_store, parallelism=1,
    )
    assert record.status == "succeeded"
    assert store.get(record.result_ids[0]) == b"".join(fan_line(i, b"shared input\n") for i in range(4))
    # Each task found only its own workdir: the littered ones before it were gone.
    assert [len(listing) for listing in listings] == [1] * 5
    assert list(repo.tmp_dir.iterdir()) == []


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_never_more_than_parallelism_tasks_run_at_once(parallelism, store, run_store):
    blob = store.put(ArtifactKind.DATA, b"shared input\n")
    graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, 12)))
    busy = []

    def hold(workdir):
        busy.append(executor.busy)
        time.sleep(0.01)

    executor = Watched(fan_executor(), on_run=hold)
    record = execute(
        graph, baseline_tuple(data_content=blob.hash), executor,
        kind="validation", store=store, run_store=run_store, parallelism=parallelism,
    )
    assert record.status == "succeeded"
    assert len(busy) == 13
    assert max(busy) <= parallelism
    assert parallelism == 1 or max(busy) > 1


def test_tasks_that_become_ready_together_start_in_key_order(store, run_store):
    def step(name, *upstream):
        inputs = {f"in{i}": {"step": u, "slot": "out"} for i, u in enumerate(upstream)}
        return {"name": name, "command": "go {output:out}", "inputs": inputs, "outputs": ["out"]}

    fan = {
        "name": "fan", "command": "go {input:in0} {output:out} {partition}",
        "inputs": {"in0": {"step": "root", "slot": "out"}}, "outputs": ["out"],
        "partition": {"count": 11, "merge_command": "join {partitions:out} {output:merged}"},
    }
    manifest = {
        "steps": [step("root"), step("zeta", "root"), fan, step("alpha", "root"), step("c_two"), step("b_one"),
                  step("mid", "root", "c_two")],
        "outcomes": [{"step": "zeta", "slot": "out"}],
    }
    graph = parse_manifest(json.dumps(manifest))

    def default(*, command, inputs, outputs, env, workdir):
        return ScriptedResult({slot: workdir.name.encode() for slot in outputs}, 0, b"")

    executor = RecordingExecutor({}, default=default)
    record = execute(
        graph, baseline_tuple(), executor, kind="validation", store=store, run_store=run_store, parallelism=1,
    )
    assert record.status == "succeeded"
    started = [inv.key for inv in sorted(executor.invocations, key=lambda inv: inv.start_seq)]
    partitions = sorted(f"fan.p{i}" for i in range(11))  # fan.p0, fan.p1, fan.p10, fan.p2, ...
    # b_one, c_two and root are ready at once, and root's finish makes all the rest but the merge ready together.
    assert started == ["b_one", "c_two", "root", "alpha", *partitions, "mid", "zeta", "fan.merge"]


def test_no_worker_thread_outlives_a_run(store, run_store):
    blob = store.put(ArtifactKind.DATA, b"shared input\n")
    graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, 8)))
    avt = baseline_tuple(data_content=blob.hash)
    before = threading.active_count()
    record = execute(graph, avt, fan_executor(), kind="validation", store=store, run_store=run_store, parallelism=4)
    assert record.status == "succeeded"
    assert threading.active_count() == before

    def lose_backend(**kwargs):
        raise ExecutorFailureError("executor lost its backend")

    failing = fan_executor()
    failing.scripts["fan.p1"] = lose_backend
    with pytest.raises(ExecutorFailureError):
        execute(graph, avt, failing, kind="validation", store=store, run_store=run_store, parallelism=4)
    assert threading.active_count() == before


def test_a_dependent_starts_before_its_producers_object_file_is_written(repo, store, run_store, monkeypatch):
    produced = b"upstream bytes\n" * 50
    manifest = {
        "steps": [
            {"name": "a", "command": "make {output:out}", "inputs": {}, "outputs": ["out"]},
            {"name": "b", "command": "use {input:src} {output:out}", "inputs": {"src": {"step": "a", "slot": "out"}}, "outputs": ["out"]},
        ],
        "outcomes": [{"step": "b", "slot": "out"}],
    }
    graph = parse_manifest(json.dumps(manifest))
    path = store.object_path(sha256_hex(produced))
    started, waited, seen = threading.Event(), [], []
    write = store_mod.atomic_write_bytes

    def held_write(target, data, **kwargs):
        if target == path:
            waited.append(started.wait(timeout=5))
        write(target, data, **kwargs)

    def dependent(*, command, inputs, outputs, env, workdir):
        started.set()
        seen.append(inputs["src"].read_bytes())
        return ScriptedResult({"out": b"done\n"}, 0, b"")

    monkeypatch.setattr(store_mod, "atomic_write_bytes", held_write)
    executor = RecordingExecutor({"a": scripted({"out": produced}), "b": dependent})
    record = execute(
        graph, baseline_tuple(), executor, kind="validation", store=store, run_store=run_store, parallelism=2
    )
    assert waited == [True]
    assert seen == [produced]
    assert record.status == "succeeded"
    upstream = next(o for o in record.step_outcomes if o.step == "a").output_ids["out"]
    assert store.verify(upstream) and store.get(upstream) == produced


def test_more_workers_than_cores_under_frequent_thread_switches_run_every_task_once(store, run_store):
    data = b"shared input\n"
    blob = store.put(ArtifactKind.DATA, data)
    graph = parse_manifest(json.dumps(fan_manifest({"pin": "data"}, 64)))
    records, executors = [], []

    def runs():
        for _ in range(3):
            executors.append(fan_executor())
            records.append(execute(
                graph, baseline_tuple(data_content=blob.hash), executors[-1],
                kind="validation", store=store, run_store=run_store, parallelism=8,
            ))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(target=runs)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(records) == 3
    for record, executor in zip(records, executors):
        assert record.status == "succeeded"
        assert sorted(i.key for i in executor.invocations) == sorted([*(f"fan.p{i}" for i in range(64)), "fan.merge"])
        assert store.get(record.result_ids[0]) == b"".join(fan_line(i, data) for i in range(64))
