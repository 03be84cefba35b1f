from __future__ import annotations

import json
import random

import pytest

from ca_engine.errors import FlowCycleError, ManifestParseError, ManifestSchemaError
from ca_engine.flow import (
    ArtifactInput,
    PinInput,
    critical_artifacts,
    parse_manifest,
    to_dot,
    topo_order,
    validate,
)
from ca_engine.store import ArtifactId, ArtifactKind
from helpers import figure2_manifest

SRC = {"artifact": f"data:{'1' * 64}"}
AUX = {"artifact": f"data:{'2' * 64}"}


def parse(doc) -> object:
    return parse_manifest(json.dumps(doc))


def minimal_manifest():
    return {
        "steps": [
            {"name": "only", "command": "make {output:out}", "inputs": {}, "outputs": ["out"]}
        ],
        "outcomes": [{"step": "only", "slot": "out"}],
    }


def chain_manifest(names):
    steps = []
    for index, name in enumerate(names):
        inputs = {} if index == 0 else {"in": {"step": names[index - 1], "slot": "out"}}
        command = "go {output:out}" if index == 0 else "go {input:in} {output:out}"
        steps.append({"name": name, "command": command, "inputs": inputs, "outputs": ["out"]})
    return {"steps": steps, "outcomes": [{"step": names[-1], "slot": "out"}]}


def test_parse_minimal_manifest():
    graph = parse(minimal_manifest())
    assert graph.step_names() == ("only",)
    assert validate(graph) == []


def test_parse_figure2_shape():
    graph = parse(figure2_manifest(SRC, AUX))
    assert ("step1", "out", "step4", "feed") in graph.edges()
    assert graph.step("step4").partition.count == 3
    assert graph.step("step4").produced_slots() == ("merged",)
    assert validate(graph) == []


def test_undeclared_slot_in_command_is_schema_error():
    doc = minimal_manifest()
    doc["steps"][0]["command"] = "make {input:in2} {output:out}"
    with pytest.raises(ManifestSchemaError):
        parse(doc)


def test_malformed_json_is_parse_error():
    with pytest.raises(ManifestParseError):
        parse_manifest("{not json")


def test_unknown_fields_are_schema_errors():
    doc = minimal_manifest()
    doc["wat"] = 1
    with pytest.raises(ManifestSchemaError):
        parse(doc)
    doc = minimal_manifest()
    doc["steps"][0]["retries"] = 3
    with pytest.raises(ManifestSchemaError):
        parse(doc)


def test_missing_name_is_schema_error():
    doc = minimal_manifest()
    del doc["steps"][0]["name"]
    with pytest.raises(ManifestSchemaError):
        parse(doc)


def _rename_step(doc, name):
    doc["steps"][0]["name"] = name
    doc["outcomes"][0]["step"] = name


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: _rename_step(doc, "only\n"), id="step-name"),
        pytest.param(lambda doc: doc["steps"][0]["inputs"].update({"src\n": SRC}), id="input-slot"),
        pytest.param(lambda doc: doc["steps"][0]["outputs"].append("extra\n"), id="output-slot"),
        pytest.param(
            lambda doc: doc["steps"][0].update(
                command="make {output:out} {partition}",
                partition={"count": 2, "merge_command": "cat {partitions:out} {output:merged\n}"},
            ),
            id="merge-slot",
        ),
        pytest.param(lambda doc: doc["steps"][0]["inputs"].update({"src": {"pin": "data\n"}}), id="pin-component"),
    ],
)
def test_names_reject_a_trailing_newline(edit):
    doc = minimal_manifest()
    edit(doc)
    with pytest.raises(ManifestSchemaError):
        parse(doc)


def test_reserved_slot_cannot_be_declared():
    doc = minimal_manifest()
    doc["steps"][0]["inputs"] = {"__data_manifest": SRC}
    with pytest.raises(ManifestSchemaError):
        parse(doc)


def test_partition_invariants():
    doc = figure2_manifest(SRC, AUX)
    doc["steps"][3]["partition"]["count"] = 0
    with pytest.raises(ManifestSchemaError):
        parse(doc)
    doc = figure2_manifest(SRC, AUX)
    doc["steps"][3]["partition"]["merge_command"] = "combine {partitions:chunk}"
    with pytest.raises(ManifestSchemaError):
        parse(doc)
    doc = figure2_manifest(SRC, AUX)
    doc["steps"][3]["partition"]["merge_command"] = "combine {partitions:chunk} {output:chunk}"
    with pytest.raises(ManifestSchemaError):
        parse(doc)
    doc = figure2_manifest(SRC, AUX)
    doc["steps"][3]["partition"]["merge_command"] = "combine {partitions:nope} {output:merged}"
    with pytest.raises(ManifestSchemaError):
        parse(doc)


def test_duplicate_output_slots_rejected():
    doc = minimal_manifest()
    doc["steps"][0]["outputs"] = ["out", "out"]
    with pytest.raises(ManifestSchemaError):
        parse(doc)


def test_validate_reports_cycle_members():
    doc = {
        "steps": [
            {"name": "a", "command": "x {input:in} {output:out}", "inputs": {"in": {"step": "b", "slot": "out"}}, "outputs": ["out"]},
            {"name": "b", "command": "x {input:in} {output:out}", "inputs": {"in": {"step": "a", "slot": "out"}}, "outputs": ["out"]},
        ],
        "outcomes": [{"step": "a", "slot": "out"}],
    }
    graph = parse(doc)
    violations = validate(graph)
    cycles = [v for v in violations if v.code == "cycle"]
    assert len(cycles) == 1
    assert "a" in cycles[0].detail and "b" in cycles[0].detail
    with pytest.raises(FlowCycleError):
        topo_order(graph)


def test_validate_unknown_outcome():
    doc = minimal_manifest()
    doc["outcomes"] = [{"step": "only", "slot": "nope"}]
    violations = validate(parse(doc))
    assert [v.code for v in violations] == ["unknown-outcome"]


def test_validate_dangling_upstream():
    doc = minimal_manifest()
    doc["steps"][0]["inputs"] = {"in": {"step": "ghost", "slot": "out"}}
    doc["steps"][0]["command"] = "make {input:in} {output:out}"
    violations = validate(parse(doc))
    assert any(v.code == "dangling-input" for v in violations)


def test_validate_duplicate_step_names():
    doc = minimal_manifest()
    doc["steps"].append(dict(doc["steps"][0]))
    violations = validate(parse(doc))
    assert any(v.code == "duplicate-step" for v in violations)


def test_partitioned_outputs_not_directly_consumable():
    doc = figure2_manifest(SRC, AUX)
    doc["steps"][2]["inputs"] = {"cfg": {"step": "step4", "slot": "chunk"}}
    violations = validate(parse(doc))
    assert any(v.code == "dangling-input" for v in violations)


def test_topo_chain():
    graph = parse(chain_manifest(["a", "b", "c"]))
    assert topo_order(graph) == ["a", "b", "c"]


def test_topo_diamond_breaks_ties_lexicographically():
    doc = {
        "steps": [
            {"name": "a", "command": "go {output:out}", "inputs": {}, "outputs": ["out"]},
            {"name": "c", "command": "go {input:in} {output:out}", "inputs": {"in": {"step": "a", "slot": "out"}}, "outputs": ["out"]},
            {"name": "b", "command": "go {input:in} {output:out}", "inputs": {"in": {"step": "a", "slot": "out"}}, "outputs": ["out"]},
            {
                "name": "d",
                "command": "go {input:l} {input:r} {output:out}",
                "inputs": {"l": {"step": "b", "slot": "out"}, "r": {"step": "c", "slot": "out"}},
                "outputs": ["out"],
            },
        ],
        "outcomes": [{"step": "d", "slot": "out"}],
    }
    assert topo_order(parse(doc)) == ["a", "b", "c", "d"]


def random_dag_manifest(rng, max_nodes=12):
    count = rng.randrange(2, max_nodes + 1)
    names = [f"s{i:02d}" for i in range(count)]
    steps = []
    edges = []
    for index, name in enumerate(names):
        inputs = {}
        upstream = [u for u in range(index) if rng.random() < 0.35]
        for slot_index, u in enumerate(upstream):
            inputs[f"in{slot_index}"] = {"step": names[u], "slot": "out"}
            edges.append((names[u], name))
        steps.append({"name": name, "command": "go {output:out}", "inputs": inputs, "outputs": ["out"]})
    outcome_step = names[rng.randrange(count)]
    return {"steps": steps, "outcomes": [{"step": outcome_step, "slot": "out"}]}, edges


def test_topo_respects_all_edges_on_random_dags():
    rng = random.Random(2024)
    for _ in range(80):
        doc, edges = random_dag_manifest(rng)
        graph = parse(doc)
        assert validate(graph) == []
        order = topo_order(graph)
        position = {name: i for i, name in enumerate(order)}
        for src, dst in edges:
            assert position[src] < position[dst]


def test_critical_single_step():
    doc = minimal_manifest()
    doc["steps"][0]["inputs"] = {"raw": SRC}
    doc["steps"][0]["command"] = "make {input:raw} {output:out}"
    graph = parse(doc)
    assert critical_artifacts(graph) == {ArtifactInput(ArtifactId.parse(SRC["artifact"]))}


def test_critical_excludes_branch_feeding_no_outcome():
    graph = parse(figure2_manifest(SRC, AUX))
    critical = critical_artifacts(graph)
    assert ArtifactInput(ArtifactId.parse(SRC["artifact"])) in critical
    assert ArtifactInput(ArtifactId.parse(AUX["artifact"])) not in critical


def test_critical_pin_inputs_and_empty_case():
    doc = minimal_manifest()
    graph = parse(doc)
    assert critical_artifacts(graph) == set()
    doc["steps"][0]["inputs"] = {"dataset": {"pin": "data"}}
    doc["steps"][0]["command"] = "make {input:dataset} {output:out}"
    assert critical_artifacts(parse(doc)) == {PinInput("data")}


def test_critical_matches_brute_force_reachability():
    rng = random.Random(4242)
    for _ in range(60):
        doc, edges = random_dag_manifest(rng)
        # Attach one external artifact input to a few random steps.
        externals = {}
        for step in doc["steps"]:
            if rng.random() < 0.5:
                digest = f"{rng.getrandbits(128):032x}" * 2
                step["inputs"] = dict(step["inputs"], ext=({"artifact": f"data:{digest}"}))
                externals[step["name"]] = ArtifactInput(ArtifactId(ArtifactKind.DATA, digest))
        graph = parse(doc)

        adjacency = {}
        for src, dst in edges:
            adjacency.setdefault(src, set()).add(dst)
        outcome_steps = {o.step for o in graph.outcomes}

        def reaches_outcome(start):
            seen, frontier = set(), [start]
            while frontier:
                node = frontier.pop()
                if node in outcome_steps:
                    return True
                if node in seen:
                    continue
                seen.add(node)
                frontier.extend(adjacency.get(node, ()))
            return False

        expected = {ref for step, ref in externals.items() if reaches_outcome(step)}
        assert critical_artifacts(graph) == expected


def test_to_dot_mentions_steps_and_outcomes():
    dot = to_dot(parse(figure2_manifest(SRC, AUX)))
    assert dot.startswith("digraph flow {")
    for name in ("step1", "step2", "step3", "step4"):
        assert f'"{name}"' in dot
    assert "outcome:step4.merged" in dot


def edges_manifest(names, edges):
    """One step per name, fed by an input from ``src`` for each ``(src, dst)`` edge."""
    inputs = {name: {} for name in names}
    for index, (src, dst) in enumerate(edges):
        inputs[dst][f"in{index}"] = {"step": src, "slot": "out"}
    steps = [{"name": name, "command": "go {output:out}", "inputs": inputs[name], "outputs": ["out"]} for name in names]
    return {"steps": steps, "outcomes": [{"step": names[0], "slot": "out"}]}


def reported_cycle_members(graph):
    details = [v.detail for v in validate(graph) if v.code == "cycle"]
    if not details:
        return set()
    (detail,) = details
    return set(detail[detail.index("[") + 1 : detail.rindex("]")].split(", "))


def brute_force_cycle_members(names, edges):
    """Nodes reachable from a node on a cycle that also reach a node on a cycle."""
    successors = {name: set() for name in names}
    for src, dst in edges:
        successors[src].add(dst)

    def reachable(start):
        seen, frontier = set(), [start]
        while frontier:
            for nxt in successors[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    reach = {name: reachable(name) for name in names}
    on_cycle = {name for name in names if name in reach[name]}
    return {
        name
        for name in names
        if any(name == c or name in reach[c] for c in on_cycle) and any(c == name or c in reach[name] for c in on_cycle)
    }


@pytest.mark.parametrize(
    "edges, members",
    [
        # A tail into a cycle and a tail out of it are not members.
        ([("in", "a"), ("a", "b"), ("b", "a"), ("b", "out")], {"a", "b"}),
        ([("a", "a"), ("a", "out")], {"a"}),
        # The node joining two cycles lies on neither, but both reach it.
        ([("a", "b"), ("b", "a"), ("b", "join"), ("join", "c"), ("c", "d"), ("d", "c")], {"a", "b", "join", "c", "d"}),
        ([("a", "b"), ("b", "c")], set()),
    ],
    ids=["tails", "self-loop", "two-cycles-joined", "acyclic"],
)
def test_cycle_members_on_named_shapes(edges, members):
    names = sorted({node for edge in edges for node in edge})
    assert brute_force_cycle_members(names, edges) == members
    assert reported_cycle_members(parse(edges_manifest(names, edges))) == members


def test_cycle_members_match_brute_force_on_random_graphs():
    rng = random.Random(777)
    for _ in range(300):
        names = [f"s{i:02d}" for i in range(rng.randrange(1, 10))]
        edges = sorted({(rng.choice(names), rng.choice(names)) for _ in range(rng.randrange(0, 2 * len(names) + 1))})
        graph = parse(edges_manifest(names, edges))
        members = brute_force_cycle_members(names, edges)
        assert reported_cycle_members(graph) == members
        if members:
            with pytest.raises(FlowCycleError):
                topo_order(graph)
        else:
            position = {name: i for i, name in enumerate(topo_order(graph))}
            assert all(position[src] < position[dst] for src, dst in edges)
