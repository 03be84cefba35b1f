"""Flow execution: dependency-counted scheduling, partition fan-out, artifact capture.

Execution decomposes the graph into tasks: one per plain step, plus one task
per partition and a merge task for partitioned steps. Each task counts the
upstream tasks it still waits for, and it starts when its last upstream task
succeeds; tasks that become ready together are submitted in key order, and
up to the parallelism limit run at once. A failed task never releases its
dependents, so they never start, while independent tasks keep running and a
failed run still yields maximal feedback. Every executed task stores its
log, environment snapshot, and outputs as artifacts and contributes a step
outcome to the run record, which is written once, after the run's feedback
bundle is stored.
"""

from __future__ import annotations

import os
import queue
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from ..errors import FlowValidationError, MalformedMetricsError, UnresolvedInputError
from ..feedback import collect, find_metrics_artifact
from ..store import ArtifactId, ArtifactKind, ArtifactStore
from ..tuples import ArtifactVersionTuple, RunRecord, RunStore, StepOutcome
from ..util import canonical_json, utc_now_iso
from .executors import StepExecutor
from .graph import (
    DATA_MANIFEST_SLOT,
    TOKEN_RE,
    ArtifactInput,
    FlowGraph,
    InputRef,
    PinInput,
    StepInput,
    StepSpec,
    command_tokens,
    topo_order,
    validate,
)

if TYPE_CHECKING:
    from ..lineage import LineageLog


@dataclass(frozen=True)
class DataScope:
    """Which slice of the experiment data a run sees.

    ``manifest_ids`` is the item-id manifest injected into every step via the
    reserved ``__data_manifest`` input slot; ``None`` means the flow runs
    without an injected manifest.
    """

    kind: str  # "full" | "subset"
    manifest_ids: tuple[str, ...] | None = None

    @classmethod
    def full(cls, manifest_ids: tuple[str, ...] | None = None) -> "DataScope":
        return cls("full", manifest_ids)

    @classmethod
    def subset(cls, manifest_ids: tuple[str, ...]) -> "DataScope":
        return cls("subset", tuple(manifest_ids))


FULL_SCOPE = DataScope.full()


@dataclass
class _Task:
    key: str
    step: StepSpec
    partition_index: int | None
    is_merge: bool
    deps: frozenset[str]


def _final_task_key(step: StepSpec) -> str:
    return f"{step.name}.merge" if step.partition is not None else step.name


def _build_tasks(graph: FlowGraph, order: list[str]) -> dict[str, _Task]:
    tasks: dict[str, _Task] = {}
    for name in order:
        step = graph.step(name)
        upstream = {
            _final_task_key(graph.step(ref.step))
            for ref in step.inputs.values()
            if isinstance(ref, StepInput)
        }
        if step.partition is None:
            tasks[name] = _Task(name, step, None, False, frozenset(upstream))
        else:
            part_keys = []
            for i in range(step.partition.count):
                key = f"{name}.p{i}"
                tasks[key] = _Task(key, step, i, False, frozenset(upstream))
                part_keys.append(key)
            merge_key = f"{name}.merge"
            tasks[merge_key] = _Task(merge_key, step, None, True, frozenset(part_keys))
    return tasks


def _render(template: str, mapping: Mapping[str, str]) -> str:
    def repl(match):
        return mapping[match.group(0)]

    return TOKEN_RE.sub(repl, template)


class _RunContext:
    def __init__(self, graph: FlowGraph, executor, store, workdir_root, manifest_id, env, externals):
        self.executor = executor
        self.store = store
        self.workdir_root = workdir_root
        self.manifest_id = manifest_id
        self.env = env
        self.externals: dict[InputRef, ArtifactId] = externals
        self.lock = threading.Lock()
        # (step name, slot) for plain and merge tasks, (partition task key, slot)
        # for partition tasks. A task starts only after its producers finished,
        # so it reads its inputs here without the lock.
        self.outputs: dict[tuple[str, str], ArtifactId] = {}
        self.outcomes: list[StepOutcome] = []
        self.outcome_slots = {(o.step, o.slot) for o in graph.outcomes}
        # Per run, never per store: the next run must verify again.
        self.verify_locks: dict[ArtifactId, threading.Lock] = {}
        self.verified: set[ArtifactId] = set()


def _resolve_externals(graph: FlowGraph, avt: ArtifactVersionTuple, store: ArtifactStore) -> dict[InputRef, ArtifactId]:
    resolved: dict[InputRef, ArtifactId] = {}
    for ref in graph.external_inputs():
        if isinstance(ref, ArtifactInput):
            if not store.has(ref.id):
                raise UnresolvedInputError(f"input artifact {ref.id} not in store")
            resolved[ref] = ref.id
        elif isinstance(ref, PinInput):
            pin = avt.find(ref.component)
            if pin is None:
                raise UnresolvedInputError(f"tuple has no pin for component {ref.component!r}")
            if pin.content is None:
                raise UnresolvedInputError(f"pin {ref.component!r} carries no content hash")
            records = store.find_by_hash(pin.content)
            if not records:
                raise UnresolvedInputError(f"pin {ref.component!r} content {pin.content} not in store")
            resolved[ref] = records[0].id
    return resolved


def _materialize(ctx: _RunContext, artifact_id: ArtifactId, path: Path) -> None:
    """Give a task its own copy of an artifact, hash-verified once per run.

    The first task that needs an id verifies it under that id's lock; later
    ones wait for that check instead of hashing again, and no task gets a
    copy of an id that has not passed it. Each copy is a file of its own, so
    a step that writes to its inputs reaches neither the store nor a sibling.
    """
    with ctx.lock:
        id_lock = ctx.verify_locks.setdefault(artifact_id, threading.Lock())
    with id_lock:
        if artifact_id not in ctx.verified:
            ctx.store.check(artifact_id)
            ctx.verified.add(artifact_id)
    ctx.store.copy_to(artifact_id, path)


def _run_task(ctx: _RunContext, task: _Task) -> bool:
    step = task.step
    workdir = ctx.workdir_root / task.key
    inputs_dir = workdir / "inputs"
    outputs_dir = workdir / "outputs"
    inputs_dir.mkdir(parents=True)
    outputs_dir.mkdir(parents=True)

    input_paths: dict[str, Path] = {}
    input_sources: dict[str, str] = {}
    substitution: dict[str, str] = {}

    if task.is_merge:
        partition = step.partition
        command = partition.merge_command
        merge_slot = partition.merge_slot()
        for slot in step.outputs:
            paths = []
            for i in range(partition.count):
                key = f"{slot}.{i:03d}"
                path = inputs_dir / key
                _materialize(ctx, ctx.outputs[(f"{step.name}.p{i}", slot)], path)
                input_paths[key] = path
                input_sources[key] = f"step:{step.name}:{slot}[{i}]"
                paths.append(str(path))
            substitution[f"{{partitions:{slot}}}"] = " ".join(paths)
        declared_outputs = {merge_slot: outputs_dir / merge_slot}
        substitution[f"{{output:{merge_slot}}}"] = str(declared_outputs[merge_slot])
    else:
        command = step.command
        for slot, ref in sorted(step.inputs.items()):
            path = inputs_dir / slot
            if isinstance(ref, StepInput):
                artifact_id = ctx.outputs[(ref.step, ref.slot)]
            else:
                artifact_id = ctx.externals[ref]
            _materialize(ctx, artifact_id, path)
            input_paths[slot] = path
            input_sources[slot] = ref.describe()
            substitution[f"{{input:{slot}}}"] = str(path)
        if ctx.manifest_id is not None:
            path = inputs_dir / "data_manifest.json"
            _materialize(ctx, ctx.manifest_id, path)
            input_paths[DATA_MANIFEST_SLOT] = path
            input_sources[DATA_MANIFEST_SLOT] = f"artifact:{ctx.manifest_id}"
            substitution[f"{{input:{DATA_MANIFEST_SLOT}}}"] = str(path)
        declared_outputs = {slot: outputs_dir / slot for slot in step.outputs}
        for slot, path in declared_outputs.items():
            substitution[f"{{output:{slot}}}"] = str(path)
        if task.partition_index is not None:
            substitution["{partition}"] = str(task.partition_index)

    rendered = _render(command, substitution)
    started = time.monotonic()
    result = ctx.executor.run(
        rendered, inputs=input_paths, outputs=declared_outputs, env=ctx.env, workdir=workdir
    )
    wall_time_ms = int((time.monotonic() - started) * 1000)

    log_id = ctx.store.put(ArtifactKind.RESULT, result.log, "text/plain")
    env_id = ctx.store.put(ArtifactKind.RESULT, result.env_snapshot, "text/plain")

    output_ids: dict[str, ArtifactId] = {}
    if result.exit_code == 0:
        for slot in declared_outputs:
            is_outcome = task.partition_index is None and (step.name, slot) in ctx.outcome_slots
            kind = ArtifactKind.RESULT if is_outcome else ArtifactKind.DATA
            output_ids[slot] = ctx.store.put(kind, result.outputs[slot])

    outcome = StepOutcome(
        step=step.name,
        partition_index=task.partition_index,
        exit_code=result.exit_code,
        output_ids=output_ids,
        log_id=log_id,
        command_rendered=rendered,
        wall_time_ms=wall_time_ms,
        env_snapshot_id=env_id,
        input_sources=input_sources,
    )
    owner = step.name if task.partition_index is None else task.key
    with ctx.lock:
        ctx.outcomes.append(outcome)
        for slot, artifact_id in output_ids.items():
            ctx.outputs[(owner, slot)] = artifact_id
    return result.exit_code == 0


def execute(
    graph: FlowGraph,
    avt: ArtifactVersionTuple,
    executor: StepExecutor,
    *,
    kind: str,
    store: ArtifactStore,
    run_store: RunStore,
    lineage: LineageLog | None = None,
    data_scope: DataScope = FULL_SCOPE,
    branch: str = "main",
    labels: Mapping[str, str] | None = None,
    parallelism: int = 4,
) -> RunRecord:
    """Execute a validated flow against a version tuple and finish the run.

    Finishing stores the feedback bundle, with the metrics parsed from
    ``graph.metrics_output``, writes the run record once with its feedback
    reference, and then appends the run's lineage edges to ``lineage`` when
    one is given. The record goes first because the repository lock is not
    re-entrant, so the two writes cannot share a critical section: a crash
    between them leaves a run without edges, never an edge to a missing run.
    A malformed metrics artifact still records the run, without feedback,
    and its lineage before :class:`MalformedMetricsError` is raised.
    """
    if kind not in ("validation", "release"):
        raise ValueError(f"bad run kind: {kind!r}")
    violations = validate(graph)
    if violations:
        raise FlowValidationError("; ".join(str(v) for v in violations))
    order = topo_order(graph)

    externals = _resolve_externals(graph, avt, store)

    manifest_id = None
    if data_scope.manifest_ids is not None:
        manifest_blob = (canonical_json(list(data_scope.manifest_ids)) + "\n").encode("utf-8")
        manifest_id = store.put(ArtifactKind.DATA, manifest_blob, "application/json")
    else:
        needs_manifest = [
            step.name
            for step in graph.steps
            if ("input", DATA_MANIFEST_SLOT) in command_tokens(step.command)
        ]
        if needs_manifest:
            raise UnresolvedInputError(
                f"steps {', '.join(needs_manifest)} reference {DATA_MANIFEST_SLOT} "
                f"but the data scope carries no manifest"
            )

    run_id = run_store.mint_run_id(avt)
    started_at = utc_now_iso()

    # Commands run with cwd=workdir, so rendered paths must be absolute.
    workdir_root = (run_store.repo.tmp_dir / run_id).resolve()
    workdir_root.mkdir(parents=True, exist_ok=True)

    env = {name: os.environ[name] for name in graph.env_whitelist if name in os.environ}
    ctx = _RunContext(graph, executor, store, workdir_root, manifest_id, env, externals)

    tasks = _build_tasks(graph, order)
    waiting = {key: len(task.deps) for key, task in tasks.items()}
    dependents: dict[str, list[str]] = {key: [] for key in tasks}
    for key, task in tasks.items():
        for dep in task.deps:
            dependents[dep].append(key)

    completed: queue.SimpleQueue = queue.SimpleQueue()
    pool = ThreadPoolExecutor(max_workers=max(1, parallelism))

    def submit(keys) -> int:
        for key in sorted(keys):
            future = pool.submit(_run_task, ctx, tasks[key])
            future.add_done_callback(lambda future, key=key: completed.put((key, future)))
        return len(keys)

    try:
        running = submit([key for key, count in waiting.items() if count == 0])
        while running:
            key, future = completed.get()
            running -= 1
            # A task exception propagates and aborts the run; a failed task
            # releases nothing, so its dependents never start.
            if future.result():
                for nxt in dependents[key]:
                    waiting[nxt] -= 1
                running += submit([nxt for nxt in dependents[key] if waiting[nxt] == 0])
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        shutil.rmtree(workdir_root, ignore_errors=True)

    succeeded = len(ctx.outcomes) == len(tasks) and all(o.exit_code == 0 for o in ctx.outcomes)

    # Deterministic record order: topological position, partitions before merge.
    position = {name: i for i, name in enumerate(order)}
    ctx.outcomes.sort(
        key=lambda o: (position[o.step], o.partition_index if o.partition_index is not None else 1 << 30)
    )

    result_ids = []
    seen = set()
    for outcome_spec in graph.outcomes:
        artifact_id = ctx.outputs.get((outcome_spec.step, outcome_spec.slot))
        if artifact_id is not None and artifact_id not in seen:
            result_ids.append(artifact_id)
            seen.add(artifact_id)

    record = RunRecord(
        run_id=run_id,
        tuple=avt,
        kind=kind,
        branch=branch,
        started_at=started_at,
        finished_at=utc_now_iso(),
        status="succeeded" if succeeded else "failed",
        step_outcomes=ctx.outcomes,
        result_ids=result_ids,
        labels=dict(labels or {}),
        data_scope={
            "kind": data_scope.kind,
            "manifest": manifest_id.hash if manifest_id is not None else None,
        },
    )
    metrics_error = None
    try:
        collect(record, store=store, metrics_artifact=find_metrics_artifact(record, graph.metrics_output))
    except MalformedMetricsError as exc:
        metrics_error = exc
    run_store.record(record)
    if lineage is not None:
        lineage.record_edges(record, store=store)
    if metrics_error is not None:
        raise metrics_error
    return record
