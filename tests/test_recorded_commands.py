"""A recorded command names the run root as ``{run}``; records written with absolute paths still load."""

from __future__ import annotations

import dataclasses
import json

from ca_engine.cli import main
from ca_engine.flow import runner
from ca_engine.repo import Repository
from ca_engine.store import ArtifactId, ArtifactStore
from ca_engine.tuples import RunStore

FLOW = {
    "steps": [
        {
            "name": "fan",
            "command": "{ cat {input:rows}; echo part {partition}; } > {output:part}",
            "inputs": {"rows": {"pin": "data"}},
            "outputs": ["part"],
            "partition": {"count": 3, "merge_command": "cat {partitions:part} > {output:merged}"},
        },
        {
            "name": "score",
            "command": "wc -l < {input:merged} > {output:lines}; printf '{\"accuracy\": 0.91}' > {output:metrics}",
            "inputs": {"merged": {"step": "fan", "slot": "merged"}},
            "outputs": ["lines", "metrics"],
        },
    ],
    "outcomes": [{"step": "fan", "slot": "merged"}, {"step": "score", "slot": "metrics"}],
    "env_whitelist": [],
    "metrics_output": {"step": "score", "slot": "metrics"},
}

TIME_FIELDS = ("started_at", "finished_at", "wall_time_ms", "created_at")


def set_up(root, capsys):
    """A repository under ``root`` with the data pinned and a passing gate; returns (repo args, flow path)."""
    repo_args = ["--repo", str(root / ".ca")]
    assert main(["init", *repo_args]) == 0
    capsys.readouterr()
    rows = root / "rows.txt"
    rows.write_text("alpha\nbeta\n")
    assert main(["artifact", "put", str(rows), "--kind", "data", "--json", *repo_args]) == 0
    content = json.loads(capsys.readouterr().out)["hash"]
    pins = ["--pin", "code=c1", "--pin", "dependencies=d1", "--pin", "deployment=y1", "--pin", f"data=x1@{content}"]
    assert main(["init", *pins, *repo_args]) == 0
    (root / ".ca" / "gates.json").write_text(
        json.dumps({"constraints": [{"metric": "accuracy", "op": ">=", "threshold": 0.9}]})
    )
    flow = root / "flow.json"
    flow.write_text(json.dumps(FLOW))
    capsys.readouterr()
    return repo_args, flow


def run_flow(repo_args, flow, capsys) -> str:
    assert main(["flow", "run", str(flow), "--json", *repo_args]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "succeeded"
    return doc["run_id"]


def masked(value):
    """``value`` with every time field and ``feedback_id`` replaced by a constant, at any depth."""
    if isinstance(value, dict):
        return {
            key: "<masked>" if key in (*TIME_FIELDS, "feedback_id") else masked(item) for key, item in value.items()
        }
    if isinstance(value, list):
        return [masked(item) for item in value]
    return value


def record_and_bundle(root, run_id):
    repo = Repository(root / ".ca")
    record = json.loads((repo.runs_dir / f"{run_id}.json").read_text())
    bundle = json.loads(ArtifactStore(repo).get(ArtifactId.parse(record["feedback_id"])))
    return record, bundle


def test_one_flow_in_two_repositories_records_the_same_commands(tmp_path, capsys):
    roots = [tmp_path / "a", tmp_path / "a-checkout-whose-path-is-much-longer" / "nested"]
    seen = []
    for root in roots:
        root.mkdir(parents=True)
        repo_args, flow = set_up(root, capsys)
        record, bundle = record_and_bundle(root, run_flow(repo_args, flow, capsys))
        commands = [o["command_rendered"] for o in record["step_outcomes"] + bundle["entries"]]
        assert len(commands) == 10
        assert not [command for command in commands if str(tmp_path) in command]
        seen.append((record, bundle))
    (record_a, bundle_a), (record_b, bundle_b) = seen
    assert masked(record_a) == masked(record_b)
    assert masked(bundle_a) == masked(bundle_b)
    merge = record_a["step_outcomes"][3]
    assert merge["command_rendered"] == (
        "cat {run}/fan.merge/in.part.000 {run}/fan.merge/in.part.001 {run}/fan.merge/in.part.002 "
        "> {run}/fan.merge/out.merged"
    )


def test_a_record_with_absolute_commands_still_shows_diffs_gates_and_replays(tmp_path, capsys, monkeypatch):
    repo_args, flow = set_up(tmp_path, capsys)
    repo = Repository(tmp_path / ".ca")
    collect = runner.collect

    def collect_as_before(record, **kwargs):
        """Record the executed form of each command, as the engine did before ``{run}``."""
        root = str((repo.tmp_dir / record.run_id).resolve())
        record.step_outcomes = [
            dataclasses.replace(o, command_rendered=o.command_rendered.replace(runner.RUN_ROOT, root))
            for o in record.step_outcomes
        ]
        return collect(record, **kwargs)

    monkeypatch.setattr(runner, "collect", collect_as_before)
    old_id = run_flow(repo_args, flow, capsys)
    monkeypatch.undo()
    new_id = run_flow(repo_args, flow, capsys)

    old_record, old_bundle = record_and_bundle(tmp_path, old_id)
    root = str((repo.tmp_dir / old_id).resolve())
    for outcome in old_record["step_outcomes"] + old_bundle["entries"]:
        assert outcome["command_rendered"].count(root) >= 2
        assert runner.RUN_ROOT not in outcome["command_rendered"]

    assert main(["run", "show", old_id, "--json", *repo_args]) == 0
    assert json.loads(capsys.readouterr().out) == old_record
    assert RunStore(repo, ArtifactStore(repo)).load(old_id).to_dict() == old_record

    assert main(["run", "diff", old_id, new_id, "--json", *repo_args]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["tuple_diff"] == []
    assert [(m["metric"], m["delta"]) for m in diff["metrics"]] == [("accuracy", 0.0)]

    assert main(["gate", "eval", old_id, "--json", *repo_args]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True

    assert main(["replay", old_id, "--flow", str(flow), "--json", *repo_args]) == 0
    assert json.loads(capsys.readouterr().out)["identical"] is True
