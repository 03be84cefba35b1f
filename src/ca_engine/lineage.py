"""Provenance graph over artifacts and runs, plus reproducibility replay.

Edges live in an append-only ``lineage.jsonl``: consumed edges point from an
input artifact to the run that used it, pinned edges from a tuple component's
content artifact to the run, and produced edges from the run to each artifact
it emitted. The graph is acyclic by construction (a run consumes only
artifacts created before it started), so upstream closures terminate.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable

from .errors import MissingInputError, RunNotFoundError
from .flow.graph import ArtifactInput, FlowGraph
from .flow.runner import DataScope, execute
from .journal import Journal
from .repo import Repository
from .store import ArtifactId, ArtifactStore
from .tuples import RunRecord, RunStore

ROLE_CONSUMED = "consumed"
ROLE_PRODUCED = "produced"
ROLE_PINNED = "pinned"


def artifact_ref(artifact_id: ArtifactId) -> str:
    return f"artifact:{artifact_id}"


def run_ref(run_id: str) -> str:
    return f"run:{run_id}"


@dataclass(frozen=True)
class LineageEdge:
    src: str
    dst: str
    role: str

    def to_dict(self) -> dict:
        return {"from": self.src, "to": self.dst, "role": self.role}


def _edge_key(row: dict) -> tuple[str, str, str]:
    return row["from"], row["to"], row["role"]


def _edge_ends(key: tuple[str, str, str]) -> tuple[tuple[str, str], tuple[str, str]]:
    """The edge's ends tagged by direction, its run's end first: a point lookup reads only that run's edges."""
    src, dst, role = key
    if role == ROLE_PRODUCED:
        return ("from", src), ("to", dst)
    return ("to", dst), ("from", src)


class LineageLog:
    """Append-only edge log: a :class:`Journal` keyed by (src, dst, role), read on first query.

    Each edge is looked up by both of its ends (:func:`_edge_ends`), so a
    query reads only the edges of the nodes it visits.
    """

    def __init__(self, repo: Repository):
        repo.require()
        self._repo = repo
        self._journal = Journal(repo.lineage_path, _edge_key, group=_edge_ends)

    def edges(self) -> list[LineageEdge]:
        return [LineageEdge(*key) for key in self._journal.rows()]

    def append_edges(self, edges: Iterable[LineageEdge]) -> int:
        """Append edges not already present in one batch; returns how many were added."""
        with self._repo.write_lock():
            return self._journal.append(edge.to_dict() for edge in edges)

    # -- recording -----------------------------------------------------------

    def record_edges(self, run: RunRecord, *, store: ArtifactStore) -> int:
        """Append the run's consumed/pinned/produced edges; idempotent per run."""
        node = run_ref(run.run_id)
        desired: list[LineageEdge] = []
        add = desired.append  # append_edges drops repeats
        for outcome in run.step_outcomes:
            for source in outcome.input_sources.values():
                if source.startswith("artifact:"):
                    add(LineageEdge(source, node, ROLE_CONSUMED))
        for pin in run.tuple:
            if pin.content is None:
                continue
            records = store.find_by_hash(pin.content)
            if records:
                add(LineageEdge(artifact_ref(records[0].id), node, ROLE_PINNED))
        for outcome in run.step_outcomes:
            for artifact_id in outcome.output_ids.values():
                add(LineageEdge(node, artifact_ref(artifact_id), ROLE_PRODUCED))
        for artifact_id in run.result_ids:
            add(LineageEdge(node, artifact_ref(artifact_id), ROLE_PRODUCED))
        return self.append_edges(desired)

    # -- queries ---------------------------------------------------------------

    def runs_using(self, artifact_id: ArtifactId, *, run_store: RunStore) -> list[str]:
        """Runs with a consumed or pinned edge from the artifact, by start time.

        A run's start time comes from its ``runs.jsonl`` row; only a run
        without one has its record read, and a run without a record sorts first.
        """
        node = artifact_ref(artifact_id)
        tokens = {
            dst.removeprefix("run:")
            for _, dst, role in self._journal.group(("from", node))
            if role in (ROLE_CONSUMED, ROLE_PINNED)
        }

        def sort_key(token: str):
            started = run_store.started_at(token)
            if started is None:
                try:
                    started = run_store.load(token).started_at
                except RunNotFoundError:
                    started = ""
            return (started, token)

        return sorted(tokens, key=sort_key)

    def provenance_of(self, artifact_id: ArtifactId) -> set[str]:
        """Upstream closure: the artifact, its producing runs, their inputs, and so on.

        An artifact is reached back through the edges that produced it, a run
        through its consumed and pinned edges; each node's edges into it are
        one lookup.
        """
        closure: set[str] = set()
        frontier = [artifact_ref(artifact_id)]
        while frontier:
            node = frontier.pop()
            if node in closure:
                continue
            closure.add(node)
            artifact = node.startswith("artifact:")
            frontier.extend(
                src for src, _, role in self._journal.group(("to", node)) if (role == ROLE_PRODUCED) == artifact
            )
        return closure


@dataclass(frozen=True)
class Divergence:
    step: str
    partition_index: int | None
    slot: str
    old_hash: str | None
    new_hash: str | None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ReplayResult:
    identical: bool
    divergences: tuple[Divergence, ...]
    replay_run_id: str

    def to_dict(self) -> dict:
        return {
            "identical": self.identical,
            "divergences": [d.to_dict() for d in self.divergences],
            "replay_run_id": self.replay_run_id,
        }


def _output_map(record: RunRecord) -> dict[tuple[str, int | None, str], str]:
    out = {}
    for outcome in record.step_outcomes:
        for slot, artifact_id in outcome.output_ids.items():
            out[(outcome.step, outcome.partition_index, slot)] = artifact_id.hash
    return out


def replay_check(
    run_id: str,
    graph: FlowGraph,
    executor,
    *,
    store: ArtifactStore,
    run_store: RunStore,
    lineage_log: LineageLog | None = None,
    parallelism: int = 4,
) -> ReplayResult:
    """Re-execute a recorded run and compare every output hash slot by slot.

    The replay is itself recorded as a validation run labeled with the run it
    reproduces.
    """
    original = run_store.load(run_id)

    # The run reuses these checks rather than hashing each input again.
    verified: set[str] = set()
    for pin in original.tuple:
        if pin.content is None:
            continue
        records = store.find_by_hash(pin.content)
        if not records:
            raise MissingInputError(f"pinned input {pin.component} ({pin.content}) is gone from the store")
        if not store.verify(records[0].id):
            raise MissingInputError(f"pinned input {pin.component} ({pin.content}) fails verification")
        verified.add(pin.content)
    for step in graph.steps:
        for ref in step.inputs.values():
            if isinstance(ref, ArtifactInput):
                if not store.has(ref.id) or not store.verify(ref.id):
                    raise MissingInputError(f"input artifact {ref.id} is missing or corrupt")
                verified.add(ref.id.hash)

    scope_info = original.data_scope or {"kind": "full", "manifest": None}
    manifest_ids = None
    if scope_info.get("manifest"):
        manifest_ids = tuple(json.loads(store.get_by_hash(scope_info["manifest"]).decode("utf-8")))
    scope = DataScope(scope_info.get("kind", "full"), manifest_ids)

    replay = execute(
        graph,
        original.tuple,
        executor,
        kind="validation",
        store=store,
        run_store=run_store,
        lineage=lineage_log,
        data_scope=scope,
        branch=original.branch,
        labels={"replay-of": run_id},
        parallelism=parallelism,
        verified=verified,
    )

    old_outputs = _output_map(original)
    new_outputs = _output_map(replay)
    divergences = []
    for key in sorted(set(old_outputs) | set(new_outputs), key=lambda k: (k[0], k[1] is not None, k[1] or 0, k[2])):
        old_hash = old_outputs.get(key)
        new_hash = new_outputs.get(key)
        if old_hash != new_hash:
            divergences.append(Divergence(key[0], key[1], key[2], old_hash, new_hash))
    return ReplayResult(not divergences, tuple(divergences), replay.run_id)
