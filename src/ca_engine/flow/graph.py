"""Flow graph model: steps, input wiring, partition specs, and graph analysis.

A manifest is a JSON document::

    {"steps": [{"name": ..., "command": ...,
                "inputs": {slot: {"artifact": id} | {"step": s, "slot": o} | {"pin": component}},
                "outputs": [...],
                "partition": {"count": n, "merge_command": ...}?}],
     "outcomes": [{"step": ..., "slot": ...}],
     "env_whitelist": [...],
     "metrics_output": {"step": ..., "slot": ...}?}

Commands are templates over ``{input:<slot>}``, ``{output:<slot>}`` and, for
partitioned steps, ``{partition}``; merge commands consume the per-partition
outputs through ``{partitions:<slot>}`` (expanded in ascending partition-index
order) and declare exactly one ``{output:<slot>}``. Downstream steps and
outcomes can reference a partitioned step only through its merge output slot.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass
from typing import Mapping, Union

from ..errors import FlowCycleError, ManifestParseError, ManifestSchemaError
from ..store import ArtifactId

NAME_RE = re.compile(r"[a-z0-9_-]+")
DATA_MANIFEST_SLOT = "__data_manifest"

TOKEN_RE = re.compile(r"\{(input|output|partitions):([A-Za-z0-9_.|-]+)\}|\{partition\}")


@dataclass(frozen=True)
class ArtifactInput:
    """External input pinned to a concrete stored artifact."""

    id: ArtifactId

    def describe(self) -> str:
        return f"artifact:{self.id}"


@dataclass(frozen=True)
class PinInput:
    """External input resolved through the run tuple's pin for a component."""

    component: str

    def describe(self) -> str:
        return f"pin:{self.component}"


@dataclass(frozen=True)
class StepInput:
    """Upstream input: a producing step's output slot."""

    step: str
    slot: str

    def describe(self) -> str:
        return f"step:{self.step}:{self.slot}"


InputRef = Union[ArtifactInput, PinInput, StepInput]


@dataclass(frozen=True)
class PartitionSpec:
    count: int
    merge_command: str

    def merge_slot(self) -> str:
        for kind, slot in command_tokens(self.merge_command):
            if kind == "output":
                return slot
        raise ManifestSchemaError("merge command declares no output slot")


@dataclass(frozen=True)
class StepSpec:
    name: str
    command: str
    inputs: Mapping[str, InputRef]
    outputs: tuple[str, ...]
    partition: PartitionSpec | None = None

    def produced_slots(self) -> tuple[str, ...]:
        """Slots downstream steps and outcomes may reference."""
        if self.partition is not None:
            return (self.partition.merge_slot(),)
        return self.outputs


@dataclass(frozen=True)
class Outcome:
    step: str
    slot: str


@dataclass(frozen=True)
class FlowGraph:
    steps: tuple[StepSpec, ...]
    outcomes: tuple[Outcome, ...]
    env_whitelist: tuple[str, ...] = ()
    metrics_output: Outcome | None = None

    def step(self, name: str) -> StepSpec:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)

    def step_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.steps)

    def edges(self) -> set[tuple[str, str, str, str]]:
        """(producer step, producer slot, consumer step, consumer slot) wiring."""
        out = set()
        for step in self.steps:
            for slot, ref in step.inputs.items():
                if isinstance(ref, StepInput):
                    out.add((ref.step, ref.slot, step.name, slot))
        return out

    def external_inputs(self) -> set[InputRef]:
        return {
            ref
            for step in self.steps
            for ref in step.inputs.values()
            if not isinstance(ref, StepInput)
        }


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


def command_tokens(command: str) -> list[tuple[str, str]]:
    """Placeholder tokens of a command as (kind, slot); bare partition -> ("partition", "")."""
    out = []
    for match in TOKEN_RE.finditer(command):
        if match.group(0) == "{partition}":
            out.append(("partition", ""))
        else:
            out.append((match.group(1), match.group(2)))
    return out


def _require_keys(obj: Mapping, allowed: set[str], required: set[str], context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ManifestSchemaError(f"{context}: unknown field(s) {', '.join(sorted(unknown))}")
    missing = required - set(obj)
    if missing:
        raise ManifestSchemaError(f"{context}: missing field(s) {', '.join(sorted(missing))}")


def _parse_input_ref(slot: str, spec: object, context: str) -> InputRef:
    if not isinstance(spec, dict):
        raise ManifestSchemaError(f"{context}: input {slot!r} must be an object")
    keys = set(spec)
    if keys == {"artifact"}:
        try:
            return ArtifactInput(ArtifactId.parse(spec["artifact"]))
        except ValueError as exc:
            raise ManifestSchemaError(f"{context}: {exc}") from None
    if keys == {"pin"}:
        component = spec["pin"]
        if not isinstance(component, str) or not NAME_RE.fullmatch(component):
            raise ManifestSchemaError(f"{context}: bad pin component {component!r}")
        return PinInput(component)
    if keys == {"step", "slot"}:
        if not isinstance(spec["step"], str) or not isinstance(spec["slot"], str):
            raise ManifestSchemaError(f"{context}: step/slot must be strings")
        return StepInput(spec["step"], spec["slot"])
    raise ManifestSchemaError(
        f"{context}: input {slot!r} must be one of {{artifact}}, {{pin}}, {{step, slot}}"
    )


def _parse_outcome(spec: object, context: str) -> Outcome:
    if not isinstance(spec, dict):
        raise ManifestSchemaError(f"{context} must be an object")
    _require_keys(spec, {"step", "slot"}, {"step", "slot"}, context)
    if not isinstance(spec["step"], str) or not isinstance(spec["slot"], str):
        raise ManifestSchemaError(f"{context}: step/slot must be strings")
    return Outcome(spec["step"], spec["slot"])


def _check_command(step: StepSpec) -> None:
    ctx = f"step {step.name!r}"
    for kind, slot in command_tokens(step.command):
        if kind == "input":
            if slot != DATA_MANIFEST_SLOT and slot not in step.inputs:
                raise ManifestSchemaError(f"{ctx}: command references undeclared input slot {slot!r}")
        elif kind == "output":
            if slot not in step.outputs:
                raise ManifestSchemaError(f"{ctx}: command references undeclared output slot {slot!r}")
        elif kind == "partitions":
            raise ManifestSchemaError(f"{ctx}: {{partitions:...}} is only valid in merge commands")
        elif kind == "partition" and step.partition is None:
            raise ManifestSchemaError(f"{ctx}: {{partition}} requires a partition spec")
    if step.partition is None:
        return
    merge_ctx = f"step {step.name!r} merge command"
    merge_outputs = []
    for kind, slot in command_tokens(step.partition.merge_command):
        if kind == "partitions":
            if slot not in step.outputs:
                raise ManifestSchemaError(f"{merge_ctx}: unknown partition slot {slot!r}")
        elif kind == "output":
            merge_outputs.append(slot)
        else:
            raise ManifestSchemaError(
                f"{merge_ctx}: only {{partitions:<slot>}} and {{output:<slot>}} are allowed"
            )
    if len(merge_outputs) != 1 or len(set(merge_outputs)) != 1:
        raise ManifestSchemaError(f"{merge_ctx}: must declare exactly one output slot")
    merge_slot = merge_outputs[0]
    if not NAME_RE.fullmatch(merge_slot):
        raise ManifestSchemaError(f"{merge_ctx}: bad output slot name {merge_slot!r}")
    if merge_slot in step.outputs:
        raise ManifestSchemaError(f"{merge_ctx}: output slot {merge_slot!r} collides with step outputs")


def _parse_step(spec: object, index: int) -> StepSpec:
    context = f"steps[{index}]"
    if not isinstance(spec, dict):
        raise ManifestSchemaError(f"{context} must be an object")
    _require_keys(spec, {"name", "command", "inputs", "outputs", "partition"}, {"name", "command"}, context)
    name = spec["name"]
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ManifestSchemaError(f"{context}: bad step name {name!r}")
    command = spec["command"]
    if not isinstance(command, str) or not command.strip():
        raise ManifestSchemaError(f"step {name!r}: command must be a nonempty string")

    raw_inputs = spec.get("inputs", {})
    if not isinstance(raw_inputs, dict):
        raise ManifestSchemaError(f"step {name!r}: inputs must be an object")
    inputs = {}
    for slot, ref in raw_inputs.items():
        if slot == DATA_MANIFEST_SLOT:
            raise ManifestSchemaError(
                f"step {name!r}: {DATA_MANIFEST_SLOT!r} is reserved for the injected data manifest"
            )
        if not NAME_RE.fullmatch(slot):
            raise ManifestSchemaError(f"step {name!r}: bad input slot name {slot!r}")
        inputs[slot] = _parse_input_ref(slot, ref, f"step {name!r}")

    raw_outputs = spec.get("outputs", [])
    if not isinstance(raw_outputs, list) or any(not isinstance(o, str) for o in raw_outputs):
        raise ManifestSchemaError(f"step {name!r}: outputs must be an array of slot names")
    for slot in raw_outputs:
        if not NAME_RE.fullmatch(slot):
            raise ManifestSchemaError(f"step {name!r}: bad output slot name {slot!r}")
    if len(set(raw_outputs)) != len(raw_outputs):
        raise ManifestSchemaError(f"step {name!r}: duplicate output slots")

    partition = None
    if spec.get("partition") is not None:
        pspec = spec["partition"]
        if not isinstance(pspec, dict):
            raise ManifestSchemaError(f"step {name!r}: partition must be an object")
        _require_keys(pspec, {"count", "merge_command"}, {"count", "merge_command"}, f"step {name!r} partition")
        count = pspec["count"]
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ManifestSchemaError(f"step {name!r}: partition count must be an integer >= 1")
        if not isinstance(pspec["merge_command"], str) or not pspec["merge_command"].strip():
            raise ManifestSchemaError(f"step {name!r}: merge_command must be a nonempty string")
        partition = PartitionSpec(count, pspec["merge_command"])

    step = StepSpec(name, command, inputs, tuple(raw_outputs), partition)
    _check_command(step)
    return step


def parse_manifest(text: str) -> FlowGraph:
    """Parse a manifest document into a flow graph, checking structural invariants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestParseError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ManifestSchemaError("manifest must be a JSON object")
    _require_keys(
        doc,
        {"steps", "outcomes", "env_whitelist", "metrics_output"},
        {"steps", "outcomes"},
        "manifest",
    )
    if not isinstance(doc["steps"], list) or not doc["steps"]:
        raise ManifestSchemaError("steps must be a non-empty array")
    steps = tuple(_parse_step(s, i) for i, s in enumerate(doc["steps"]))

    if not isinstance(doc["outcomes"], list) or not doc["outcomes"]:
        raise ManifestSchemaError("outcomes must be a non-empty array")
    outcomes = tuple(_parse_outcome(o, f"outcomes[{i}]") for i, o in enumerate(doc["outcomes"]))

    env_whitelist = doc.get("env_whitelist", [])
    if not isinstance(env_whitelist, list) or any(not isinstance(v, str) for v in env_whitelist):
        raise ManifestSchemaError("env_whitelist must be an array of variable names")

    metrics_output = None
    if doc.get("metrics_output") is not None:
        metrics_output = _parse_outcome(doc["metrics_output"], "metrics_output")

    return FlowGraph(steps, outcomes, tuple(env_whitelist), metrics_output)


def validate(graph: FlowGraph) -> list[Violation]:
    """Graph-level checks: duplicates, dangling wiring, cycles, unknown outcomes."""
    violations = []
    by_name: dict[str, StepSpec] = {}
    for step in graph.steps:
        if step.name in by_name:
            violations.append(Violation("duplicate-step", f"step name {step.name!r} used more than once"))
        else:
            by_name[step.name] = step

    for step in graph.steps:
        for slot, ref in step.inputs.items():
            if not isinstance(ref, StepInput):
                continue
            producer = by_name.get(ref.step)
            if producer is None:
                violations.append(
                    Violation("dangling-input", f"step {step.name!r} input {slot!r} references unknown step {ref.step!r}")
                )
            elif ref.slot not in producer.produced_slots():
                violations.append(
                    Violation(
                        "dangling-input",
                        f"step {step.name!r} input {slot!r} references {ref.step!r} slot {ref.slot!r} "
                        f"which it does not produce",
                    )
                )

    cycle_members = _cycle_members(graph)
    if cycle_members:
        violations.append(Violation("cycle", f"dependency cycle involving [{', '.join(sorted(cycle_members))}]"))

    for outcome in graph.outcomes:
        producer = by_name.get(outcome.step)
        if producer is None or outcome.slot not in producer.produced_slots():
            violations.append(
                Violation("unknown-outcome", f"outcome {outcome.step}.{outcome.slot} is not produced by any step")
            )
    if graph.metrics_output is not None:
        mo = graph.metrics_output
        producer = by_name.get(mo.step)
        if producer is None or mo.slot not in producer.produced_slots():
            violations.append(
                Violation("unknown-metrics-output", f"metrics output {mo.step}.{mo.slot} is not produced by any step")
            )
    return violations


def _adjacency(graph: FlowGraph) -> dict[str, set[str]]:
    """Step-level edges producer -> consumer (dangling refs ignored)."""
    names = set(s.name for s in graph.steps)
    adj: dict[str, set[str]] = {name: set() for name in names}
    for step in graph.steps:
        for ref in step.inputs.values():
            if isinstance(ref, StepInput) and ref.step in names:
                adj[ref.step].add(step.name)
    return adj


def _reverse(adj: Mapping[str, set[str]]) -> dict[str, set[str]]:
    """The same edges, consumer -> producer."""
    reverse: dict[str, set[str]] = {name: set() for name in adj}
    for src, dsts in adj.items():
        for dst in dsts:
            reverse[dst].add(src)
    return reverse


def _strip(adj: Mapping[str, set[str]]) -> list[str]:
    """Kahn's algorithm with lexicographic tie-breaking: the nodes no cycle reaches, in order."""
    indeg = {name: 0 for name in adj}
    for dsts in adj.values():
        for dst in dsts:
            indeg[dst] += 1
    ready = [name for name, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        name = heapq.heappop(ready)
        order.append(name)
        for dst in adj[name]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                heapq.heappush(ready, dst)
    return order


def _cycle_members(graph: FlowGraph) -> set[str]:
    """Nodes that a dependency cycle reaches and that reach one.

    That is every node on a cycle, and also any node on a path between two
    cycles. The forward strip places every node no cycle reaches, the strip
    of the reversed graph every node that reaches no cycle; the rest remain.
    """
    adj = _adjacency(graph)
    return set(adj).difference(_strip(adj), _strip(_reverse(adj)))


def topo_order(graph: FlowGraph) -> list[str]:
    """Topological order with lexicographic tie-breaking; raises on cycles."""
    adj = _adjacency(graph)
    order = _strip(adj)
    if len(order) != len(adj):
        raise FlowCycleError("flow graph contains a dependency cycle")
    return order


def critical_artifacts(graph: FlowGraph) -> set[InputRef]:
    """External inputs with a directed path to a designated outcome."""
    adj = _adjacency(graph)
    # Steps from which some outcome-producing step is reachable.
    reverse = _reverse(adj)
    reaching: set[str] = set()
    frontier = [o.step for o in graph.outcomes if o.step in adj]
    while frontier:
        node = frontier.pop()
        if node in reaching:
            continue
        reaching.add(node)
        frontier.extend(reverse[node])
    return {
        ref
        for step in graph.steps
        if step.name in reaching
        for ref in step.inputs.values()
        if not isinstance(ref, StepInput)
    }


def to_dot(graph: FlowGraph) -> str:
    """Render the flow as a DOT digraph (steps as boxes, external inputs as ellipses)."""
    lines = ["digraph flow {", "  rankdir=LR;"]
    outcome_keys = {(o.step, o.slot) for o in graph.outcomes}
    for step in graph.steps:
        shape = "box3d" if step.partition is not None else "box"
        lines.append(f'  "{step.name}" [shape={shape}];')
    externals = sorted(graph.external_inputs(), key=lambda r: r.describe())
    for ref in externals:
        label = ref.describe()
        lines.append(f'  "{label}" [shape=ellipse];')
    for step in graph.steps:
        for slot, ref in sorted(step.inputs.items()):
            if isinstance(ref, StepInput):
                lines.append(f'  "{ref.step}" -> "{step.name}" [label="{ref.slot}→{slot}"];')
            else:
                lines.append(f'  "{ref.describe()}" -> "{step.name}" [label="{slot}"];')
    for step, slot in sorted(outcome_keys):
        lines.append(f'  "outcome:{step}.{slot}" [shape=doubleoctagon];')
        lines.append(f'  "{step}" -> "outcome:{step}.{slot}" [label="{slot}"];')
    lines.append("}")
    return "\n".join(lines)
