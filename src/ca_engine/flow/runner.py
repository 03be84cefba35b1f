"""Flow execution: a run is planned into tasks, then scheduled by dependency counts.

Before anything executes, the graph is planned into tasks: one per plain
step, plus one per partition and a merge task for partitioned steps. Each
task is a command with its input files and output slots: every input is a
resolved artifact or an upstream task's output slot, and the plan also fixes
which outputs are results and which tasks a task waits for. Each task counts
the upstream tasks it still waits for, and it starts when its last upstream
task succeeds. ``parallelism`` workers, the calling thread among them, take
ready tasks from one queue, so at most that many run at once. A worker that
finishes a task counts down its dependents, queues those that became ready
in key order, and takes the next task itself: no other thread hands tasks
out. A failed task never releases its dependents, so they never start,
while independent tasks keep running and a failed run still yields maximal
feedback. Every executed task tears down its workdir as soon as its
executor returns, stages its log, environment snapshot, and outputs in the
run's write batch, whose ids its dependents can use at once, and
contributes a step outcome to the run record, in plan order. Its worker
writes their object files only after it has released its dependents, so a
dependent that starts first copies its input from the staged bytes. Once
every task has finished, one commit writes whatever is still staged, makes
the staged objects durable and indexes them under a single write lock; then
the run's feedback bundle is stored, the record is written once, and
lineage is appended. A task that exits nonzero, times out, cannot start
or lacks a declared output is a failed outcome. What an executor or object
write raises aborts the run before the commit: no worker takes a task
after it, the running ones finish, and nothing the run staged is indexed.

Each input is hashed once per run by the run's write batch, unless the
caller or the batch already hashed those bytes in this run. Before the run
takes an id, the batch checks every content hash the tuple pins, consumed
or not, and every artifact input; an upstream output the store held before
the run is checked before the first task that needs it gets a copy. Every
task gets a copy of its own, so a step that writes to its inputs reaches
neither the store nor a sibling.

A task's workdir ``tmp/<run-id>/<task>/`` is one flat directory holding its
input copies as ``in.<file>`` and its declared outputs as ``out.<slot>``.
Each worker keeps one workdir for the whole run, as Bazel's
``--reuse_sandbox_directories`` does. Teardown unlinks the outputs and keeps
the input copies. The worker's next task renames the directory to its own
name and unlinks each kept copy it has no use for.
:meth:`ArtifactStore.copy_to` leaves untouched a kept copy of the same bytes
whose stat still equals the stamp it returned for that copy, and replaces
any other with a new file. Each copy's modification time is set by the
engine, about one second before the copy, to a time no write can give it; a
write, truncate, store through a shared mapping, ``chmod``, ``link`` or
replacement of the file changes its modification time, change time, mode,
link count or inode, so the stamp no longer matches. A step that writes and
then restores the modification time still moves the change time, except on
a kernel that records it at a clock tick, where a change within the tick of
the copy can keep it. So a worker makes one directory per run, and creates
and copies an input file only when it kept no unchanged copy of the same
bytes under that name. A workdir holding anything but regular files with
the engine's input names is removed with a tree walk, and the worker's next
task makes a new one. At the end of a run, aborted or not, the kept
workdirs are removed, then the run root, which reserves the run's id
(:meth:`RunStore.mint_run_id`) until its record exists.

A task's command is rendered twice from one substitution map. The executed
form names each input and output by its absolute path, which an in-process
executor opens without a chdir. The recorded form, the outcome's
``command_rendered``, names the run root ``tmp/<run-id>`` with the token
:data:`RUN_ROOT` (``{run}``), so a record and its feedback bundle do not
depend on where the repository lives. The token stands in for the paths
only; the command's own text is kept as written.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Iterable, Mapping

from ..errors import FlowValidationError, MalformedMetricsError, UnresolvedInputError
from ..feedback import collect
from ..store import ArtifactId, ArtifactKind, ArtifactStore, CopyStamp, WriteBatch
from ..tuples import ArtifactVersionTuple, RunRecord, RunStore, StepOutcome
from ..util import canonical_json, utc_now_iso
from .executors import MISSING_OUTPUT, StepExecutor, with_note
from .graph import (
    DATA_MANIFEST_SLOT,
    TOKEN_RE,
    ArtifactInput,
    FlowGraph,
    InputRef,
    PinInput,
    StepInput,
    command_tokens,
    topo_order,
    validate,
)

if TYPE_CHECKING:
    from ..lineage import LineageLog

# What a recorded command names the run root ``tmp/<run-id>`` with.
RUN_ROOT = "{run}"


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


@dataclass(frozen=True)
class _Input:
    """An input file: a resolved artifact id, or the ``(owner, slot)`` a task publishes."""

    key: str
    file: str
    source: ArtifactId | tuple[str, str]
    placeholder: str  # inputs that share one render as their paths joined by spaces
    description: str


@dataclass(frozen=True)
class _Task:
    key: str
    step: str
    partition_index: int | None
    command: str
    inputs: tuple[_Input, ...]
    outputs: tuple[str, ...]
    results: frozenset[str]
    owner: str
    deps: frozenset[str]


def _plan(
    graph: FlowGraph, order: list[str], externals: Mapping[InputRef, ArtifactId], manifest_id: ArtifactId | None
) -> dict[str, _Task]:
    """The run's tasks in plan order: topological, each step's partitions before its merge.

    A plain or merge task publishes its outputs under its step name, a
    partition task under its own key, so downstream steps and outcomes see
    only a step's final task.
    """
    results = {(o.step, o.slot) for o in graph.outcomes}
    final: dict[str, str] = {}
    tasks: dict[str, _Task] = {}

    def add(key, name, index, command, inputs, outputs, owner, deps) -> None:
        published = frozenset(slot for slot in outputs if (owner, slot) in results)
        tasks[key] = _Task(key, name, index, command, tuple(inputs), outputs, published, owner, frozenset(deps))

    for name in order:
        step = graph.step(name)
        inputs = []
        for slot, ref in sorted(step.inputs.items()):
            source = (ref.step, ref.slot) if isinstance(ref, StepInput) else externals[ref]
            inputs.append(_Input(slot, slot, source, f"{{input:{slot}}}", ref.describe()))
        if manifest_id is not None:
            token = f"{{input:{DATA_MANIFEST_SLOT}}}"
            inputs.append(_Input(DATA_MANIFEST_SLOT, "data_manifest.json", manifest_id, token, f"artifact:{manifest_id}"))
        deps = [final[ref.step] for ref in step.inputs.values() if isinstance(ref, StepInput)]
        if step.partition is None:
            add(name, name, None, step.command, inputs, step.outputs, name, deps)
            final[name] = name
            continue
        parts = [f"{name}.p{i}" for i in range(step.partition.count)]
        for i, key in enumerate(parts):
            add(key, name, i, step.command, inputs, step.outputs, key, deps)
        merge_inputs = [
            _Input(f"{slot}.{i:03d}", f"{slot}.{i:03d}", (key, slot), f"{{partitions:{slot}}}", f"step:{name}:{slot}[{i}]")
            for slot in step.outputs
            for i, key in enumerate(parts)
        ]
        final[name] = f"{name}.merge"
        merge_outputs = (step.partition.merge_slot(),)
        add(final[name], name, None, step.partition.merge_command, merge_inputs, merge_outputs, name, parts)
    return tasks


class _RunContext:
    def __init__(self, executor, batch, workdir_root, env):
        self.executor = executor
        self.batch = batch
        self.workdir_root = workdir_root
        self.env = env
        self.lock = threading.Lock()
        # Keyed by the producing task's (owner, slot). A task starts only after
        # its producers finished, so it reads its inputs here without the lock.
        self.outputs: dict[tuple[str, str], ArtifactId] = {}
        self.outcomes: dict[str, StepOutcome] = {}
        # Each worker's kept workdir and the input files left in it, with
        # the stamp copy_to returned for each, by thread id.
        self.kept: dict[int, tuple[Path, dict[str, CopyStamp | None]]] = {}


def _resolve_externals(
    graph: FlowGraph, avt: ArtifactVersionTuple, store: ArtifactStore, batch: WriteBatch
) -> dict[InputRef, ArtifactId]:
    """The flow's artifact and pin inputs, once ``batch`` checked them and every other content the tuple pins."""
    pinned: dict[str, ArtifactId] = {}
    for pin in avt:
        if pin.content is not None:
            records = store.find_by_hash(pin.content)
            if not records:
                raise UnresolvedInputError(f"pin {pin.component!r} content {pin.content} not in store")
            pinned[pin.component] = records[0].id
    resolved: dict[InputRef, ArtifactId] = {}
    for ref in graph.external_inputs():
        if isinstance(ref, ArtifactInput):
            if not store.has(ref.id):
                raise UnresolvedInputError(f"input artifact {ref.id} not in store")
            resolved[ref] = ref.id
        elif isinstance(ref, PinInput):
            if ref.component not in pinned:
                raise UnresolvedInputError(f"tuple pins no content for component {ref.component!r}")
            resolved[ref] = pinned[ref.component]
    for artifact_id in [*pinned.values(), *resolved.values()]:
        batch.check(artifact_id)
    return resolved


def _remove_dir(path: Path, files: Iterable[Path] = ()) -> None:
    """Unlink ``files``, then remove ``path``; walk the tree only when something else is left in it."""
    try:
        for file in files:
            try:
                os.unlink(file)
            except FileNotFoundError:
                pass
        os.rmdir(path)
    except OSError:
        shutil.rmtree(path, ignore_errors=True)


def _take_workdir(ctx: _RunContext, workdir: Path, names: Collection[str]) -> dict[str, CopyStamp | None]:
    """Make ``workdir`` from this thread's kept workdir, or a new one, with no file but kept copies among ``names``.

    A kept file the task has no use for is unlinked. Returns the kept copies' stamps by name.
    """
    kept = ctx.kept.pop(threading.get_ident(), None)
    if kept is None:
        os.mkdir(workdir)
        return {}
    path, files = kept
    os.rename(path, workdir)
    for name in files.keys() - names:
        os.unlink(workdir / name)
    return files


def _keep_workdir(
    ctx: _RunContext, workdir: Path, stamps: Mapping[str, CopyStamp | None], outputs: Iterable[Path]
) -> None:
    """Unlink the outputs and keep ``workdir`` and its copies' stamps for this thread's next task, or remove it.

    It is kept only when it is still a directory holding nothing but regular
    files named as the engine named its input copies, the keys of ``stamps``.
    """
    try:
        for path in outputs:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        fd = os.open(workdir, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW)
        try:
            with os.scandir(fd) as entries:
                left = {entry.name: entry.is_file(follow_symlinks=False) for entry in entries}
        finally:
            os.close(fd)
    except OSError:
        left = None
    if left is not None and all(left.values()) and left.keys() <= stamps.keys():
        ctx.kept[threading.get_ident()] = (workdir, {name: stamps[name] for name in left})
    else:
        shutil.rmtree(workdir, ignore_errors=True)


def _execute_task(ctx: _RunContext, task: _Task) -> StepOutcome:
    # Slot names hold no dot, so in.<file> and out.<slot> cannot collide.
    workdir = ctx.workdir_root / task.key
    input_paths = {item.key: workdir / f"in.{item.file}" for item in task.inputs}
    declared_outputs = {slot: workdir / f"out.{slot}" for slot in task.outputs}
    stamps: dict[str, CopyStamp | None] = dict.fromkeys(path.name for path in input_paths.values())
    # The executor returns the outputs' bytes, so the workdir is torn down as soon as it returns.
    try:
        kept = _take_workdir(ctx, workdir, stamps)
        # Each placeholder's paths, relative to the run root.
        substitution: dict[str, list[str]] = {}
        for item in task.inputs:
            path = input_paths[item.key]
            source = item.source if isinstance(item.source, ArtifactId) else ctx.outputs[item.source]
            stamps[path.name] = ctx.batch.copy_to(source, path, kept.get(path.name))
            substitution.setdefault(item.placeholder, []).append(f"{task.key}/{path.name}")
        for slot, path in declared_outputs.items():
            substitution[f"{{output:{slot}}}"] = [f"{task.key}/{path.name}"]

        def render(root: str) -> str:
            values = {token: " ".join(f"{root}/{path}" for path in paths) for token, paths in substitution.items()}
            if task.partition_index is not None:
                values["{partition}"] = str(task.partition_index)
            return TOKEN_RE.sub(lambda match: values[match.group(0)], task.command)

        rendered = render(str(ctx.workdir_root))
        started = time.monotonic()
        result = ctx.executor.run(
            rendered, inputs=input_paths, outputs=declared_outputs, env=ctx.env, workdir=workdir
        )
    finally:
        _keep_workdir(ctx, workdir, stamps, declared_outputs.values())
    wall_time_ms = int((time.monotonic() - started) * 1000)

    exit_code, log = result.exit_code, result.log
    missing = [slot for slot in task.outputs if slot not in result.outputs]
    if exit_code == 0 and missing:
        exit_code = MISSING_OUTPUT
        log = with_note(log, f"declared output(s) not produced: {', '.join(missing)}")
    log_id = ctx.batch.put(ArtifactKind.RESULT, log, "text/plain")
    env_id = ctx.batch.put(ArtifactKind.RESULT, result.env_snapshot, "text/plain")

    output_ids: dict[str, ArtifactId] = {}
    if exit_code == 0:
        for slot in task.outputs:
            kind = ArtifactKind.RESULT if slot in task.results else ArtifactKind.DATA
            output_ids[slot] = ctx.batch.put(kind, result.outputs[slot])

    outcome = StepOutcome(
        step=task.step,
        partition_index=task.partition_index,
        exit_code=exit_code,
        output_ids=output_ids,
        log_id=log_id,
        command_rendered=render(RUN_ROOT),
        wall_time_ms=wall_time_ms,
        env_snapshot_id=env_id,
        input_sources={item.key: item.description for item in task.inputs},
    )
    with ctx.lock:
        ctx.outcomes[task.key] = outcome
        for slot, artifact_id in output_ids.items():
            ctx.outputs[(task.owner, slot)] = artifact_id
    return outcome


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
    verified: Iterable[str] = (),
) -> RunRecord:
    """Execute a validated flow against a version tuple and finish the run.

    Before the run takes an id, content the tuple pins or the flow names
    raises :class:`UnresolvedInputError` when the index lacks it and
    :class:`IntegrityViolationError` when its bytes are missing or changed.
    ``verified`` holds content hashes whose stored bytes the caller hashed in
    this run; they are trusted without hashing them again.
    Once the tasks finish, the artifacts they staged are committed. Finishing
    then stores the feedback bundle, with the metrics parsed from
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

    # Trust is per run and never per store: the next run's batch checks again.
    batch = WriteBatch(store, verified)
    externals = _resolve_externals(graph, avt, store, batch)

    manifest_id = None
    if data_scope.manifest_ids is not None:
        manifest_blob = (canonical_json(list(data_scope.manifest_ids)) + "\n").encode("utf-8")
        manifest_id = batch.put(ArtifactKind.DATA, manifest_blob, "application/json")
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

    tasks = _plan(graph, order, externals, manifest_id)

    run_id = run_store.mint_run_id(avt)
    started_at = utc_now_iso()

    # Executed commands name absolute paths, which in-process executors open
    # without a chdir; only the recorded form names the run root as RUN_ROOT.
    workdir_root = (run_store.repo.tmp_dir / run_id).resolve()

    env = {name: os.environ[name] for name in graph.env_whitelist if name in os.environ}
    ctx = _RunContext(executor, batch, workdir_root, env)

    waiting = {key: len(task.deps) for key, task in tasks.items()}
    dependents: dict[str, list[str]] = {key: [] for key in tasks}
    for key in sorted(tasks):
        for dep in tasks[key].deps:
            dependents[dep].append(key)
    ready = deque(key for key in sorted(tasks) if not waiting[key])
    turn = threading.Condition()
    running = 0
    # What tasks and object writes raised; after the first, no worker takes a task.
    failures: list[BaseException] = []

    def work() -> None:
        nonlocal running
        try:
            while True:
                with turn:
                    while not (ready or failures) and running:
                        turn.wait()
                    if failures or not ready:
                        return
                    key = ready.popleft()
                    running += 1
                outcome = _execute_task(ctx, tasks[key])
                with turn:
                    running -= 1
                    # A failed task releases nothing, so its dependents never start.
                    if outcome.exit_code == 0:
                        for nxt in dependents[key]:
                            waiting[nxt] -= 1
                            if not waiting[nxt]:
                                ready.append(nxt)
                    if ready or not running:
                        turn.notify_all()
                # Off the critical path: a dependent that starts first copies the staged bytes.
                batch.write([outcome.log_id, outcome.env_snapshot_id, *outcome.output_ids.values()])
        except BaseException as exc:
            with turn:
                failures.append(exc)
                turn.notify_all()

    # The calling thread is one of the ``parallelism`` workers.
    workers = [threading.Thread(target=work) for _ in range(parallelism - 1)]
    try:
        for worker in workers:
            worker.start()
        work()
        for worker in workers:
            worker.join()
        if failures:
            raise failures[0]
        batch.commit()

        outcomes = [ctx.outcomes[key] for key in tasks if key in ctx.outcomes]
        succeeded = len(outcomes) == len(tasks) and all(o.exit_code == 0 for o in outcomes)

        produced = [ctx.outputs.get((o.step, o.slot)) for o in graph.outcomes]
        result_ids = list(dict.fromkeys(artifact_id for artifact_id in produced if artifact_id is not None))
        metrics = graph.metrics_output
        metrics_id = ctx.outputs.get((metrics.step, metrics.slot)) if metrics is not None else None

        record = RunRecord(
            run_id=run_id,
            tuple=avt,
            kind=kind,
            branch=branch,
            started_at=started_at,
            finished_at=utc_now_iso(),
            status="succeeded" if succeeded else "failed",
            step_outcomes=outcomes,
            result_ids=result_ids,
            labels=dict(labels or {}),
            data_scope={
                "kind": data_scope.kind,
                "manifest": manifest_id.hash if manifest_id is not None else None,
            },
        )
        metrics_error = None
        try:
            collect(record, store=store, metrics_artifact=metrics_id)
        except MalformedMetricsError as exc:
            metrics_error = exc
        run_store.record(record)
        if lineage is not None:
            lineage.record_edges(record, store=store)
        if metrics_error is not None:
            raise metrics_error
        return record
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.join()
        for path, files in ctx.kept.values():
            _remove_dir(path, [path / name for name in files])
        _remove_dir(workdir_root)
