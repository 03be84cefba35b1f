from __future__ import annotations

import argparse
import json

import pytest

from ca_engine.cli import COMMANDS, _Context, build_parser, leaf_parser, main, parse_args
from ca_engine.lineage import LineageLog
from ca_engine.repo import Repository
from ca_engine.store import ArtifactStore
from ca_engine.tuples import RunStore
from helpers import baseline_tuple, make_run

CYCLIC = {
    "steps": [
        {"name": "a", "command": "x {input:in} {output:out}", "inputs": {"in": {"step": "b", "slot": "out"}}, "outputs": ["out"]},
        {"name": "b", "command": "x {input:in} {output:out}", "inputs": {"in": {"step": "a", "slot": "out"}}, "outputs": ["out"]},
    ],
    "outcomes": [{"step": "a", "slot": "out"}],
}


@pytest.fixture
def ws(tmp_path):
    """Workspace with an initialized repository; returns (root, repo_args)."""
    repo = tmp_path / ".ca"
    assert main(["init", "--repo", str(repo)]) == 0
    return tmp_path, ["--repo", str(repo)]


def read_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_init_is_idempotent(tmp_path, capsys):
    repo = tmp_path / ".ca"
    assert main(["init", "--repo", str(repo)]) == 0
    assert (repo / "index.jsonl").exists()
    assert main(["init", "--repo", str(repo)]) == 0
    assert "already initialized" in capsys.readouterr().out


def test_artifact_put_get_verify_ls(ws, capsys):
    root, repo_args = ws
    blob = root / "blob.bin"
    blob.write_bytes(b"cli bytes")
    assert main(["artifact", "put", str(blob), "--kind", "data", "--label", "run=r1", "--json", *repo_args]) == 0
    doc = read_json(capsys)
    artifact_id = doc["id"]

    out_file = root / "back.bin"
    assert main(["artifact", "get", artifact_id, "-o", str(out_file), *repo_args]) == 0
    assert out_file.read_bytes() == b"cli bytes"

    assert main(["artifact", "verify", artifact_id, *repo_args]) == 0
    capsys.readouterr()

    assert main(["artifact", "ls", "--kind", "data", "--label", "run=r1", "--json", *repo_args]) == 0
    listing = read_json(capsys)
    assert len(listing["artifacts"]) == 1
    assert listing["artifacts"][0]["hash"] == doc["hash"]


def test_artifact_get_json_is_single_document(ws, capsys):
    import base64

    root, repo_args = ws
    blob = root / "j.bin"
    blob.write_bytes(b"json mode")
    assert main(["artifact", "put", str(blob), "--kind", "code", "--json", *repo_args]) == 0
    doc = read_json(capsys)
    assert main(["artifact", "get", doc["id"], "--json", *repo_args]) == 0
    got = read_json(capsys)
    assert base64.b64decode(got["base64"]) == b"json mode"


def test_flow_graph_json_is_single_document(ws, capsys):
    root, repo_args = ws
    manifest = root / "g.json"
    manifest.write_text(
        json.dumps(
            {
                "steps": [{"name": "only", "command": "make {output:out}", "inputs": {}, "outputs": ["out"]}],
                "outcomes": [{"step": "only", "slot": "out"}],
            }
        )
    )
    assert main(["flow", "graph", str(manifest), "--json", *repo_args]) == 0
    assert read_json(capsys)["dot"].startswith("digraph flow {")


def test_artifact_verify_corrupt_exits_3(ws, capsys):
    root, repo_args = ws
    blob = root / "x.bin"
    blob.write_bytes(b"will corrupt")
    assert main(["artifact", "put", str(blob), "--kind", "data", "--json", *repo_args]) == 0
    doc = read_json(capsys)
    obj = root / ".ca" / "objects" / doc["hash"][:2] / doc["hash"][2:]
    raw = bytearray(obj.read_bytes())
    raw[0] ^= 1
    obj.write_bytes(bytes(raw))
    assert main(["artifact", "verify", doc["id"], *repo_args]) == 3
    assert main(["artifact", "get", doc["id"], *repo_args]) == 3


def test_artifact_get_unknown_exits_1(ws, capsys):
    _, repo_args = ws
    assert main(["artifact", "get", f"data:{'0' * 64}", *repo_args]) == 1
    assert "not-found" in capsys.readouterr().err


def test_uninitialized_repo_exits_3(tmp_path, capsys):
    assert main(["artifact", "ls", "--repo", str(tmp_path / "nope")]) == 3
    assert "repo-not-initialized" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert main(["artifact", "put"]) == 2  # missing required args


def test_malformed_artifact_id_exits_2(ws, capsys):
    _, repo_args = ws
    assert main(["artifact", "get", "garbage", *repo_args]) == 2
    assert main(["artifact", "verify", "data:nothex", *repo_args]) == 2


def test_flow_validate_cyclic_exits_1_with_violations_on_stderr(ws, capsys):
    root, repo_args = ws
    manifest = root / "cyclic.json"
    manifest.write_text(json.dumps(CYCLIC))
    assert main(["flow", "validate", str(manifest), *repo_args]) == 1
    err = capsys.readouterr().err
    assert "cycle" in err


def test_flow_graph_emits_dot(ws, capsys):
    root, repo_args = ws
    manifest = root / "flow.json"
    manifest.write_text(
        json.dumps(
            {
                "steps": [{"name": "only", "command": "make {output:out}", "inputs": {}, "outputs": ["out"]}],
                "outcomes": [{"step": "only", "slot": "out"}],
            }
        )
    )
    assert main(["flow", "validate", str(manifest), *repo_args]) == 0
    assert main(["flow", "graph", str(manifest), *repo_args]) == 0
    assert capsys.readouterr().out.count("digraph flow {") == 1


def e2e_process_manifest(dataset_ref):
    """Process-executor flow: copy the dataset, then emit fixed metrics."""
    return {
        "steps": [
            {
                "name": "experiment",
                "command": "cat {input:dataset} {input:__data_manifest} > {output:model}",
                "inputs": {"dataset": dataset_ref},
                "outputs": ["model"],
            },
            {
                "name": "evaluate",
                "command": "printf '{\"accuracy\": 0.91}' > {output:metrics}",
                "inputs": {"model": {"step": "experiment", "slot": "model"}},
                "outputs": ["metrics"],
            },
        ],
        "outcomes": [{"step": "experiment", "slot": "model"}, {"step": "evaluate", "slot": "metrics"}],
        "env_whitelist": [],
        "metrics_output": {"step": "evaluate", "slot": "metrics"},
    }


def test_full_cli_workflow(ws, capsys):
    root, repo_args = ws
    dataset = root / "dataset.json"
    dataset.write_text(json.dumps([f"item-{i}" for i in range(40)]))
    assert main(["artifact", "put", str(dataset), "--kind", "data", "--json", *repo_args]) == 0
    dataset_doc = read_json(capsys)

    # Seed main pins; the data pin carries the dataset manifest's content hash.
    assert (
        main(
            [
                "init",
                "--pin", "code=c1",
                "--pin", "dependencies=d1",
                "--pin", "deployment=y1",
                "--pin", f"data=x1@{dataset_doc['hash']}",
                *repo_args,
            ]
        )
        == 0
    )
    capsys.readouterr()

    manifest = root / "flow.json"
    manifest.write_text(json.dumps(e2e_process_manifest({"pin": "data"})))
    (root / ".ca" / "gates.json").write_text(
        json.dumps({"constraints": [{"metric": "accuracy", "op": ">=", "threshold": 0.9}]})
    )

    # New dataset version arrives on a working branch.
    new_dataset = root / "dataset2.json"
    new_dataset.write_text(json.dumps([f"item-{i}" for i in range(50)]))
    assert main(["artifact", "put", str(new_dataset), "--kind", "data", "--json", *repo_args]) == 0
    new_doc = read_json(capsys)

    assert (
        main(
            [
                "event", "emit",
                "--source", "data",
                "--ref", "working/x",
                "--version", "x2",
                "--content", new_doc["hash"],
                "--id", "evt-cli-1",
                "--json",
                *repo_args,
            ]
        )
        == 0
    )
    plan_doc = read_json(capsys)
    assert plan_doc["kind"] == "validation"
    assert plan_doc["tuple"]["data"]["version"] == "x2"

    assert main(["flow", "run", str(manifest), "--event", "evt-cli-1", "--json", *repo_args]) == 0
    run_doc = read_json(capsys)
    assert run_doc["status"] == "succeeded"
    run_id = run_doc["run_id"]

    assert main(["gate", "eval", run_id, "--json", *repo_args]) == 0
    gate_doc = read_json(capsys)
    assert gate_doc["pass"] is True

    assert main(["approve", run_id, "--by", "alice", *repo_args]) == 0
    capsys.readouterr()

    assert main(["release", run_id, "--flow", str(manifest), "--json", *repo_args]) == 0
    release_doc = read_json(capsys)
    assert release_doc["status"] == "succeeded"
    assert release_doc["branch"] == "main"

    pins = json.loads((root / ".ca" / "pins.json").read_text())
    assert pins["main"]["pins"]["data"]["version"] == "x2"
    assert pins["main"]["result_refs"] == release_doc["result_ids"]

    # Aligned runs diff cleanly as one JSON document.
    assert main(["run", "diff", run_id, release_doc["run_id"], "--json", *repo_args]) == 0
    diff_doc = read_json(capsys)
    assert diff_doc["tuple_diff"] == []
    assert {m["metric"] for m in diff_doc["metrics"]} == {"accuracy"}

    assert main(["run", "ls", "--json", *repo_args]) == 0
    assert len(read_json(capsys)["runs"]) == 2

    assert main(["run", "show", run_id, "--json", *repo_args]) == 0
    shown = read_json(capsys)
    assert shown["run_id"] == run_id

    # Lineage: the new dataset artifact was pinned and consumed by both runs.
    assert main(["lineage", "who-uses", f"data:{new_doc['hash']}", "--json", *repo_args]) == 0
    who = read_json(capsys)
    assert run_id in who["runs"] and release_doc["run_id"] in who["runs"]

    model_id = next(r for r in release_doc["result_ids"] if r.startswith("result:"))
    assert main(["lineage", "provenance", model_id, "--json", *repo_args]) == 0
    closure = read_json(capsys)["closure"]
    assert f"run:{release_doc['run_id']}" in closure

    # Deterministic commands replay identically.
    assert main(["replay", run_id, "--flow", str(manifest), "--json", *repo_args]) == 0
    replay_doc = read_json(capsys)
    assert replay_doc["identical"] is True

    # Decisions only apply to validation runs; a release run cannot be rejected.
    assert main(["reject", release_doc["run_id"], "--by", "bob", "--reason", "not needed", *repo_args]) == 1


def test_approve_auto_release(ws, capsys):
    root, repo_args = ws
    dataset = root / "auto-dataset.json"
    dataset.write_text(json.dumps([f"row-{i}" for i in range(30)]))
    assert main(["artifact", "put", str(dataset), "--kind", "data", "--json", *repo_args]) == 0
    doc = read_json(capsys)
    assert (
        main(
            [
                "init",
                "--pin", "code=c1", "--pin", "dependencies=d1",
                "--pin", "deployment=y1", "--pin", f"data=x1@{doc['hash']}",
                *repo_args,
            ]
        )
        == 0
    )
    manifest = root / "auto-flow.json"
    manifest.write_text(json.dumps(e2e_process_manifest({"pin": "data"})))
    assert main(["event", "emit", "--source", "code", "--ref", "working/a", "--version", "c2", "--id", "evt-auto", *repo_args]) == 0
    capsys.readouterr()
    assert main(["flow", "run", str(manifest), "--event", "evt-auto", "--json", *repo_args]) == 0
    run_doc = read_json(capsys)
    # Gate is gate-less (vacuous pass): approval with immediate release.
    assert main(["approve", run_doc["run_id"], "--by", "alice", "--auto-release", "--flow", str(manifest), "--json", *repo_args]) == 0
    combined = read_json(capsys)
    assert combined["approval"]["decision"] == "approved"
    assert combined["release"]["status"] == "succeeded"
    pins = json.loads((root / ".ca" / "pins.json").read_text())
    assert pins["main"]["pins"]["code"]["version"] == "c2"


def test_gate_eval_failure_exits_1(ws, capsys):
    from ca_engine.repo import Repository
    from ca_engine.store import ArtifactStore
    from ca_engine.tuples import RunStore
    from ca_engine.feedback import collect
    from helpers import make_run

    root, repo_args = ws
    (root / ".ca" / "gates.json").write_text(
        json.dumps({"constraints": [{"metric": "accuracy", "op": ">=", "threshold": 0.9}]})
    )
    repo = Repository(root / ".ca")
    store = ArtifactStore(repo)
    run_store = RunStore(repo, store)
    record = make_run(store, run_store)
    _, bundle_id = collect(record, store=store)  # no metrics -> constraint unmet
    run_store.attach_feedback(record.run_id, bundle_id)
    assert main(["gate", "eval", record.run_id, "--json", *repo_args]) == 1
    assert read_json(capsys)["pass"] is False


def test_repo_resolution_via_environment(tmp_path, capsys, monkeypatch):
    repo = tmp_path / "envrepo" / ".ca"
    assert main(["init", "--repo", str(repo)]) == 0
    monkeypatch.setenv("CA_REPO", str(repo))
    assert main(["artifact", "ls", "--json"]) == 0
    capsys.readouterr()


def test_parallelism_precedence_flag_env_config_default(ws, monkeypatch):
    root, repo_args = ws
    monkeypatch.delenv("CA_PARALLELISM", raising=False)

    def parallelism(*flags):
        return _Context(parse_args(["run", "ls", *repo_args, *flags])).pipeline.parallelism

    (root / ".ca" / "config.json").unlink()
    assert parallelism() == 4
    (root / ".ca" / "config.json").write_text(json.dumps({"parallelism": 3}))
    assert parallelism() == 3
    monkeypatch.setenv("CA_PARALLELISM", "2")
    assert parallelism() == 2
    assert parallelism("--parallelism", "7") == 7


def test_parallelism_zero_is_a_usage_error(ws, capsys):
    _, repo_args = ws
    assert main(["run", "ls", "--parallelism", "0", *repo_args]) == 2
    assert "parallelism must be >= 1" in capsys.readouterr().err


def test_artifact_id_with_trailing_newline_is_a_usage_error(ws, capsys):
    _, repo_args = ws
    assert main(["artifact", "get", "data:" + "a" * 64 + "\n", *repo_args]) == 2
    assert "usage error" in capsys.readouterr().err


def test_run_diff_unaligned_exits_1(ws, capsys):
    from ca_engine.repo import Repository
    from ca_engine.store import ArtifactStore
    from ca_engine.tuples import RunStore, VersionPin
    from ca_engine.feedback import collect
    from helpers import make_run

    root, repo_args = ws
    repo = Repository(root / ".ca")
    store = ArtifactStore(repo)
    run_store = RunStore(repo, store)
    a = make_run(store, run_store)
    b = make_run(store, run_store, avt=baseline_tuple(extra=[VersionPin("gpu", "g1")]))
    for run in (a, b):
        run_store.attach_feedback(run.run_id, collect(run, store=store)[1])
    assert main(["run", "diff", a.run_id, b.run_id, *repo_args]) == 1
    assert "not-aligned" in capsys.readouterr().err


def test_garbled_index_line_exits_3_only_for_commands_that_read_the_index(ws, capsys):
    root, repo_args = ws
    repo = Repository(root / ".ca")
    store = ArtifactStore(repo)
    record = make_run(store, RunStore(repo, store), steps=2)
    LineageLog(repo).record_edges(record, store=store)
    output = str(record.step_outcomes[0].output_ids["out"])
    lines = repo.index_path.read_text().splitlines(keepends=True)
    middle = len(lines) // 2
    lines.insert(middle, '{"kind": "data", "hash": \n')
    repo.index_path.write_text("".join(lines))
    capsys.readouterr()

    assert main(["artifact", "ls", *repo_args]) == 3
    err = capsys.readouterr().err
    assert "integrity-violation" in err and f"index.jsonl: line {middle + 1}:" in err
    assert main(["run", "ls", *repo_args]) == 0
    assert main(["run", "show", record.run_id, *repo_args]) == 0
    assert main(["lineage", "provenance", output, *repo_args]) == 0


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_leaf_parser_help_equals_full_parser_subcommand_help():
    full = build_parser()
    for command in COMMANDS:
        parser = full
        for word in command.path:
            parser = _subcommands(parser)[word]
        assert leaf_parser(command).format_help() == parser.format_help(), command.path


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["--version"],
        ["artifact", "--help"],
        ["artifact", "put", "--help"],
        ["bogus"],
        ["event", "emit", "--source", "data"],
        ["artifact", "put", "blob", "--kind", "nope"],
        ["run", "show", "r1", "--bogus"],
    ],
)
def test_main_parses_like_the_full_parser(argv, capsys):
    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert (code, got.out, got.err) == (exc.value.code, want.out, want.err)

