"""Flow execution: topological scheduling, partition fan-out, artifact capture.

Execution decomposes the graph into tasks: one per plain step, plus one task
per partition and a merge task for partitioned steps. Independent tasks run
concurrently up to the parallelism limit; a task starts only after all of its
upstream producers succeeded. On the first failure, transitively dependent
tasks are skipped while independent ones keep running, so a failed run still
yields maximal feedback. Every executed task stores its log, environment
snapshot, and outputs as artifacts and contributes a step outcome to the
run record, which is written once, after the run's feedback bundle is stored.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
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
    def __init__(self, graph: FlowGraph, executor, store, workdir_root, manifest_id, env):
        self.executor = executor
        self.store = store
        self.workdir_root = workdir_root
        self.manifest_id = manifest_id
        self.env = env
        self.lock = threading.Lock()
        self.produced: dict[tuple[str, str], ArtifactId] = {}
        self.partition_outputs: dict[tuple[str, int, str], ArtifactId] = {}
        self.outcomes: list[StepOutcome] = []
        self.outcome_slots = {(o.step, o.slot) for o in graph.outcomes}
        self.external: dict[InputRef, ArtifactId] = {}


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
                with ctx.lock:
                    artifact_id = ctx.partition_outputs[(step.name, i, slot)]
                path.write_bytes(ctx.store.get(artifact_id))
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
                with ctx.lock:
                    artifact_id = ctx.produced[(ref.step, ref.slot)]
                source = ref.describe()
            else:
                artifact_id = ctx.external[ref]
                source = ref.describe()
            path.write_bytes(ctx.store.get(artifact_id))
            input_paths[slot] = path
            input_sources[slot] = source
            substitution[f"{{input:{slot}}}"] = str(path)
        if ctx.manifest_id is not None:
            path = inputs_dir / "data_manifest.json"
            path.write_bytes(ctx.store.get(ctx.manifest_id))
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
            blob = result.outputs[slot]
            if task.is_merge:
                is_outcome = (step.name, slot) in ctx.outcome_slots
            elif task.partition_index is not None:
                is_outcome = False
            else:
                is_outcome = (step.name, slot) in ctx.outcome_slots
            kind = ArtifactKind.RESULT if is_outcome else ArtifactKind.DATA
            output_ids[slot] = ctx.store.put(kind, blob)

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
    with ctx.lock:
        ctx.outcomes.append(outcome)
        if result.exit_code == 0:
            if task.is_merge:
                ctx.produced[(step.name, step.partition.merge_slot())] = output_ids[step.partition.merge_slot()]
            elif task.partition_index is not None:
                for slot, artifact_id in output_ids.items():
                    ctx.partition_outputs[(step.name, task.partition_index, slot)] = artifact_id
            else:
                for slot, artifact_id in output_ids.items():
                    ctx.produced[(step.name, slot)] = artifact_id
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
    ctx = _RunContext(graph, executor, store, workdir_root, manifest_id, env)
    ctx.external = externals

    tasks = _build_tasks(graph, order)
    states = {key: "pending" for key in tasks}
    dependents: dict[str, set[str]] = {key: set() for key in tasks}
    for key, task in tasks.items():
        for dep in task.deps:
            dependents[dep].add(key)

    def skip_downstream(key: str) -> None:
        stack = list(dependents[key])
        while stack:
            nxt = stack.pop()
            if states[nxt] == "pending":
                states[nxt] = "skipped"
                stack.extend(dependents[nxt])

    pool = ThreadPoolExecutor(max_workers=max(1, parallelism))
    running: dict = {}
    failure = None
    try:
        while True:
            ready = sorted(
                key
                for key, state in states.items()
                if state == "pending" and all(states[d] == "succeeded" for d in tasks[key].deps)
            )
            for key in ready:
                states[key] = "running"
                running[pool.submit(_run_task, ctx, tasks[key])] = key
            if not running:
                break
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                key = running.pop(future)
                try:
                    ok = future.result()
                except Exception as exc:
                    failure = exc
                    states[key] = "failed"
                    break
                states[key] = "succeeded" if ok else "failed"
                if not ok:
                    skip_downstream(key)
            if failure is not None:
                break
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        shutil.rmtree(workdir_root, ignore_errors=True)
    if failure is not None:
        raise failure

    succeeded = all(state == "succeeded" for state in states.values())

    # Deterministic record order: topological position, partitions before merge.
    position = {name: i for i, name in enumerate(order)}
    ctx.outcomes.sort(
        key=lambda o: (position[o.step], o.partition_index if o.partition_index is not None else 1 << 30)
    )

    result_ids = []
    seen = set()
    for outcome_spec in graph.outcomes:
        artifact_id = ctx.produced.get((outcome_spec.step, outcome_spec.slot))
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
