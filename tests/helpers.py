"""Shared builders for tests: tuples, flow fixtures, scripted executors, runs."""

from __future__ import annotations

import hashlib
import json
import threading

from ca_engine.flow.executors import ScriptedResult, StepExecutor, scripted
from ca_engine.store import ArtifactKind, sha256_hex
from ca_engine.tuples import ArtifactVersionTuple, RunRecord, StepOutcome, VersionPin
from ca_engine.util import append_line, canonical_json, utc_now_iso


def baseline_tuple(code="c1", data="x1", dependencies="d1", deployment="y1", data_content=None, extra=None):
    pins = [
        VersionPin("code", code),
        VersionPin("data", data, data_content),
        VersionPin("dependencies", dependencies),
        VersionPin("deployment", deployment),
    ]
    pins.extend(extra or [])
    return ArtifactVersionTuple(tuple(pins))


def figure2_manifest(src_ref, aux_ref, count=3):
    """Four steps; step1's output feeds step4's input; step4 is partitioned with merge.

    Steps 2 and 3 form an independent intermediate branch that reaches no
    designated outcome.
    """
    return {
        "steps": [
            {
                "name": "step1",
                "command": "ingest {input:src} {output:out}",
                "inputs": {"src": src_ref},
                "outputs": ["out"],
            },
            {
                "name": "step2",
                "command": "prep {input:aux} {output:out}",
                "inputs": {"aux": aux_ref},
                "outputs": ["out"],
            },
            {
                "name": "step3",
                "command": "train {input:cfg} {output:out}",
                "inputs": {"cfg": {"step": "step2", "slot": "out"}},
                "outputs": ["out"],
            },
            {
                "name": "step4",
                "command": "score {input:feed} {output:chunk} {partition}",
                "inputs": {"feed": {"step": "step1", "slot": "out"}},
                "outputs": ["chunk"],
                "partition": {"count": count, "merge_command": "combine {partitions:chunk} {output:merged}"},
            },
        ],
        "outcomes": [{"step": "step4", "slot": "merged"}],
        "env_whitelist": [],
    }


def figure2_scripts(count=3, fail_step=None, fail_exit=2, perturb_merge=None):
    """Recording-executor scripts for the figure-2 fixture.

    Partition tasks derive their chunk from the step1 output they consume;
    the merge concatenates chunks in partition-index order. ``perturb_merge``
    optionally post-processes the merged bytes (replay divergence tests).
    """

    def partition_script(index):
        def run(*, command, inputs, outputs, env, workdir):
            feed = inputs["feed"].read_bytes()
            return ScriptedResult({"chunk": b"p%d|" % index + feed}, 0, b"scored partition %d\n" % index)

        return run

    def merge_script(*, command, inputs, outputs, env, workdir):
        blob = b"".join(inputs[key].read_bytes() for key in sorted(inputs))
        if perturb_merge is not None:
            blob = perturb_merge(blob)
        return ScriptedResult({slot: blob for slot in outputs}, 0, b"merged\n")

    scripts = {
        "step1": scripted({"out": "alpha\n"}, log=b"ingested\n"),
        "step2": scripted({"out": "beta\n"}),
        "step3": scripted({"out": "gamma\n"}),
        "step4.merge": merge_script,
    }
    for i in range(count):
        scripts[f"step4.p{i}"] = partition_script(i)
    if fail_step is not None:
        scripts[fail_step] = scripted({}, exit_code=fail_exit, log=b"boom\n")
    return scripts


def e2e_manifest():
    """Two-step experiment flow with a designated metrics output."""
    return {
        "steps": [
            {
                "name": "experiment",
                "command": "run {input:dataset} {input:__data_manifest} {output:model}",
                "inputs": {"dataset": {"pin": "data"}},
                "outputs": ["model"],
            },
            {
                "name": "evaluate",
                "command": "eval {input:model} {output:metrics}",
                "inputs": {"model": {"step": "experiment", "slot": "model"}},
                "outputs": ["metrics"],
            },
        ],
        "outcomes": [{"step": "experiment", "slot": "model"}, {"step": "evaluate", "slot": "metrics"}],
        "env_whitelist": [],
        "metrics_output": {"step": "evaluate", "slot": "metrics"},
    }


def e2e_scripts(metrics=None):
    metrics = metrics if metrics is not None else {"accuracy": 0.91}

    def experiment(*, command, inputs, outputs, env, workdir):
        dataset = inputs["dataset"].read_bytes()
        manifest = inputs["__data_manifest"].read_bytes()
        model = b"model:" + sha256_hex(dataset + manifest).encode()
        return ScriptedResult({"model": model}, 0, b"trained\n")

    def evaluate(*, command, inputs, outputs, env, workdir):
        return ScriptedResult({"metrics": json.dumps(metrics).encode()}, 0, b"evaluated\n")

    return {"experiment": experiment, "evaluate": evaluate}


def seed_main(pipeline, store, item_ids=None, versions=None):
    """Store a dataset manifest artifact and seed main pins referencing it."""
    item_ids = item_ids if item_ids is not None else [f"item-{i:04d}" for i in range(1000)]
    blob = json.dumps(item_ids).encode()
    manifest_id = store.put(ArtifactKind.DATA, blob, "application/json")
    versions = versions or {}
    pins = [
        VersionPin("code", versions.get("code", "c1")),
        VersionPin("data", versions.get("data", "x1"), manifest_id.hash),
        VersionPin("dependencies", versions.get("dependencies", "d1")),
        VersionPin("deployment", versions.get("deployment", "y1")),
    ]
    pipeline.set_branch_pins("main", pins)
    return item_ids, manifest_id


class GatedCompletion(StepExecutor):
    """Wraps an executor and forces the given tasks to *complete* in a fixed order.

    The wrapped executor computes each result first; the return (completion)
    is then serialized according to ``order``. Requires enough parallelism for
    all ordered tasks to be in flight together.
    """

    def __init__(self, inner: StepExecutor, order: list[str]):
        self.inner = inner
        self.order = list(order)
        self._events = {key: threading.Event() for key in order}

    def run(self, command, *, inputs, outputs, env, workdir):
        key = workdir.name
        result = self.inner.run(command, inputs=inputs, outputs=outputs, env=env, workdir=workdir)
        if key in self._events:
            index = self.order.index(key)
            if index > 0:
                assert self._events[self.order[index - 1]].wait(timeout=30), "completion gate stalled"
            self._events[key].set()
        return result


def make_run(
    store,
    run_store,
    *,
    avt=None,
    kind="validation",
    branch="main",
    steps=2,
    failed_steps=(),
    run_id=None,
    started_at=None,
    finished_at=None,
):
    """Fabricate and persist a run with real stored artifacts for each outcome."""
    avt = avt or baseline_tuple()
    run_id = run_id or run_store.mint_run_id(avt)
    outcomes = []
    for index in range(steps):
        name = f"s{index}"
        log_id = store.put(ArtifactKind.RESULT, f"{run_id}:{name}:log\n".encode(), "text/plain")
        env_id = store.put(ArtifactKind.RESULT, b"", "text/plain")
        failed = name in failed_steps
        output_ids = {}
        if not failed:
            out_id = store.put(ArtifactKind.DATA, f"{run_id}:{name}:out\n".encode())
            output_ids["out"] = out_id
        outcomes.append(
            StepOutcome(
                step=name,
                partition_index=None,
                exit_code=1 if failed else 0,
                output_ids=output_ids,
                log_id=log_id,
                command_rendered=f"do {name}",
                wall_time_ms=3,
                env_snapshot_id=env_id,
                input_sources={},
            )
        )
    status = "failed" if failed_steps else "succeeded"
    record = RunRecord(
        run_id=run_id,
        tuple=avt,
        kind=kind,
        branch=branch,
        started_at=started_at or utc_now_iso(),
        finished_at=finished_at or utc_now_iso(),
        status=status,
        step_outcomes=outcomes,
        result_ids=[],
    )
    record.finished_at = max(record.finished_at, record.started_at)
    run_store.record(record)
    return record


def tear(path):
    """Leave a partial last line on a journal, as a writer killed mid-append would."""
    with open(path, "ab") as fh:
        fh.write(b'{"kind":"data","ha')


def object_count(store):
    """How many object files the store holds."""
    return sum(1 for _ in store._repo.objects_dir.glob("*/*"))


def journal_rows(path):
    """Every line of a journal, each of which must be complete JSON."""
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    return [json.loads(line) for line in raw.splitlines()]



def subset_select_reference(dataset_manifest, fraction, seed):
    """``pipeline.subset_select`` as first written: (index, item, bucket) tuples, then a sort."""
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


def catch_up_append(journal, rows) -> None:
    """``Journal.append`` as first written: parse the whole file, then append and index the rows."""
    keyed = [(journal._key(row), row) for row in rows]
    if not keyed:
        return
    text = "\n".join(canonical_json(row) for _, row in keyed)
    with journal._lock:
        journal._catch_up()
        torn = journal._seen > journal._offset
        append_line(journal.path, text, truncate_to=journal._offset if torn else None)
        for key, row in keyed:
            journal._insert(key, row)
        journal._lines += len(keyed)
        journal._offset = journal._seen = journal._offset + len(text.encode("utf-8")) + 1
