from __future__ import annotations

import argparse
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ca_engine import cli
from ca_engine.cli import COMMANDS, _Context, build_parser, main, parse_args
from ca_engine.flow.executors import MISSING_OUTPUT
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
        ["run", "show", "--par", "2"],
        ["release", "--flow=f.json"],
        ["artifact", "get", "-ofile"],
        ["run", "ls", "--"],
        ["run", "show", "r1", "-h"],
        ["run", "show", "--parallelism", "-1"],
        ["approve", "r1", "--by"],
    ],
)
def test_main_parses_like_the_full_parser(argv, capsys):
    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert (code, got.out, got.err) == (exc.value.code, want.out, want.err)


VALUE = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6).filter(lambda v: not v.startswith("-"))


@st.composite
def well_formed_argv(draw):
    """A command and argv it accepts: options in any order, repeated appends, ``--name=value``, ``-`` as a value."""
    command = draw(st.sampled_from(COMMANDS))
    options, positionals = [], []
    for names, kwargs in (*cli.COMMON_OPTIONS, *command.args):
        if not names[0].startswith("-"):
            if kwargs.get("nargs") != "?" or draw(st.booleans()):
                positionals.append(draw(st.just("-") | VALUE))
            continue
        uses = draw(st.integers(1 if kwargs.get("required") else 0, 3 if kwargs.get("action") == "append" else 1))
        for _ in range(uses):
            name = draw(st.sampled_from(names))
            if kwargs.get("action") == "store_true":
                options.append([name])
                continue
            if "choices" in kwargs:
                value = draw(st.sampled_from(kwargs["choices"]))
            elif kwargs.get("type") is int:
                value = str(draw(st.integers(0, 99)))
            else:
                value = draw(VALUE)
            options.append([f"{name}={value}"] if name.startswith("--") and draw(st.booleans()) else [name, value])
    options = draw(st.permutations(options))
    # Positionals keep their order; each goes before the option group its cut names.
    cuts = sorted(draw(st.lists(st.integers(0, len(options)), min_size=len(positionals), max_size=len(positionals))))
    argv = list(command.path)
    for i in range(len(options) + 1):
        argv += [value for value, cut in zip(positionals, cuts) if cut == i]
        argv += options[i] if i < len(options) else []
    return command, argv


@settings(max_examples=300, deadline=None)
@given(well_formed_argv())
def test_well_formed_argv_is_read_from_the_table_as_the_full_parser_reads_it(command_argv):
    command, argv = command_argv
    want = vars(build_parser().parse_args(argv))
    got = cli._read_argv(command, argv[len(command.path) :])
    assert got is not None, argv
    # ``command`` and ``<group>_command`` are the subparsers' dests; no handler reads them.
    assert vars(got) == {k: v for k, v in want.items() if k != "command" and not k.endswith("_command")}
    assert parse_args(argv) == got


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "ls", "--repo", "r", "--json"],
        ["flow", "run", "--event", "e1", "--repo", "r", "--json"],
        ["approve", "r1", "--by", "me", "--auto-release", "--repo", "r", "--json"],
    ],
)
def test_well_formed_argv_builds_no_argparse_parser(argv, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert parse_args(argv).func is not None
    assert built == []
    parse_args([*argv, "--par", "2"])  # an abbreviation goes to argparse, which the counter sees
    assert built


ONE_STEP = {
    "steps": [{"name": "s", "command": "printf done > {output:out}", "inputs": {}, "outputs": ["out"]}],
    "outcomes": [{"step": "s", "slot": "out"}],
}


@pytest.fixture
def one_step(ws, capsys):
    """``ws`` with main pins seeded and a one-step flow; returns (repo root, flow run argv)."""
    root, repo_args = ws
    pins = ["--pin", "code=c1", "--pin", "data=x1", "--pin", "dependencies=d1", "--pin", "deployment=y1"]
    assert main(["init", *pins, *repo_args]) == 0
    manifest = root / "flow.json"
    manifest.write_text(json.dumps(ONE_STEP))
    capsys.readouterr()
    return root / ".ca", ["flow", "run", str(manifest), "--json", *repo_args]


def test_a_recorded_run_id_is_never_handed_out_again(one_step, capsys):
    repo, flow_run = one_step
    assert main(flow_run) == 0
    first = read_json(capsys)["run_id"]
    assert list((repo / "tmp").iterdir()) == []
    assert main(flow_run) == 0
    second = read_json(capsys)["run_id"]
    assert second == first[:-6] + "000002"
    assert (repo / "runs" / f"{first}.json").exists() and (repo / "runs" / f"{second}.json").exists()


def test_a_run_whose_step_omits_its_output_is_recorded_failed(one_step, capsys):
    repo, flow_run = one_step
    broken = repo.parent / "broken.json"
    broken.write_text(json.dumps({**ONE_STEP, "steps": [{**ONE_STEP["steps"][0], "command": "true"}]}))
    assert main(["flow", "run", str(broken), *flow_run[3:]]) == 1
    failed = read_json(capsys)
    assert failed["status"] == "failed" and failed["run_id"].endswith("-000001")
    (outcome,) = RunStore(Repository(repo), ArtifactStore(Repository(repo))).load(failed["run_id"]).step_outcomes
    assert outcome.exit_code == MISSING_OUTPUT and outcome.output_ids == {}
    assert main(["artifact", "get", str(outcome.log_id), "--repo", str(repo)]) == 0
    assert capsys.readouterr().out == "declared output(s) not produced: out\n"
    assert list((repo / "tmp").iterdir()) == []
    assert main(flow_run) == 0
    assert read_json(capsys)["run_id"].endswith("-000002")


# One step of two partitions: partition 1 exits 0 without its output.
HALF_BROKEN = {
    "steps": [
        {
            "name": "s",
            "command": "[ {partition} = 1 ] || printf done > {output:out}",
            "inputs": {},
            "outputs": ["out"],
            "partition": {"count": 2, "merge_command": "cat {partitions:out} > {output:merged}"},
        }
    ],
    "outcomes": [{"step": "s", "slot": "merged"}],
}


@pytest.mark.parametrize("command", ["flow run", "release", "approve --auto-release"])
def test_each_failed_task_is_named_on_stderr_and_the_json_document_is_the_runs(command, one_step, capsys):
    repo, flow_run = one_step
    repo_args = ["--repo", str(repo)]
    broken = repo.parent / "half-broken.json"
    broken.write_text(json.dumps(HALF_BROKEN))
    if command == "flow run":
        argv = ["flow", "run", str(broken), "--json", *repo_args]
    else:
        assert main(["event", "emit", "--source", "code", "--ref", "main", "--version", "c2", "--id", "e1", *repo_args]) == 0
        capsys.readouterr()
        assert main([*flow_run, "--event", "e1"]) == 0
        run_id = read_json(capsys)["run_id"]
        if command == "release":
            assert main(["approve", run_id, "--by", "alice", *repo_args]) == 0
            argv = ["release", run_id, "--flow", str(broken), "--json", *repo_args]
        else:
            argv = ["approve", run_id, "--by", "alice", "--auto-release", "--flow", str(broken), "--json", *repo_args]
        capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    summary = doc["release"] if command.startswith("approve") else doc
    record = RunStore(Repository(repo), ArtifactStore(Repository(repo))).load(summary["run_id"])
    assert summary == record.summary() and record.status == "failed"
    (failed,) = [o for o in record.step_outcomes if o.exit_code]
    assert captured.err == f"failed task: s[p1] exit {MISSING_OUTPUT}, log {failed.log_id}\n"


@pytest.mark.parametrize(
    "argv",
    [["run", "show", "{bad}"], ["gate", "eval", "{bad}"], ["run", "diff", "{bad}", "{run}"],
     ["run", "diff", "{run}", "{bad}"], ["approve", "{bad}", "--by", "alice"]],
    ids=["run-show", "gate-eval", "run-diff-a", "run-diff-b", "approve"],
)
def test_an_id_that_is_not_a_run_id_names_no_run(argv, one_step, capsys):
    repo, flow_run = one_step
    assert main(flow_run) == 0
    run_id = read_json(capsys)["run_id"]
    # Neither a file outside runs/ nor a record under a name that is no run id is read as a record.
    assert (repo / "config.json").is_file()
    shutil.copy(repo / "runs" / f"{run_id}.json", repo / "runs" / "latest.json")
    for bad in ("../config", "latest"):
        assert main([*(word.format(bad=bad, run=run_id) for word in argv), "--repo", str(repo)]) == 1
        assert capsys.readouterr().err == f"error[run-not-found]: no run {bad}\n"


@pytest.fixture
def code_pinned(ws, capsys):
    """``ws`` with main pins whose code pin carries content that ONE_STEP does not consume.

    Returns (repo root, the code pin's object file, flow run argv).
    """
    root, repo_args = ws
    blob = root / "code.tar"
    blob.write_bytes(b"pinned code")
    assert main(["artifact", "put", str(blob), "--kind", "code", "--json", *repo_args]) == 0
    digest = read_json(capsys)["hash"]
    pins = ["--pin", f"code=c1@{digest}", "--pin", "data=x1", "--pin", "dependencies=d1", "--pin", "deployment=y1"]
    assert main(["init", *pins, *repo_args]) == 0
    manifest = root / "flow.json"
    manifest.write_text(json.dumps(ONE_STEP))
    capsys.readouterr()
    repo = root / ".ca"
    return repo, repo / "objects" / digest[:2] / digest[2:], ["flow", "run", str(manifest), "--json", *repo_args]


def test_a_run_whose_unused_pin_was_rewritten_exits_3_and_records_nothing(code_pinned, capsys):
    repo, obj, flow_run = code_pinned
    obj.write_bytes(b"rewritten code")
    assert main(flow_run) == 3
    assert "integrity-violation" in capsys.readouterr().err
    assert list((repo / "runs").iterdir()) == [] and list((repo / "tmp").iterdir()) == []


def test_replay_of_a_run_whose_pinned_object_was_deleted_exits_3(code_pinned, capsys):
    repo, obj, flow_run = code_pinned
    assert main(flow_run) == 0
    run_id = read_json(capsys)["run_id"]
    obj.unlink()
    assert main(["replay", run_id, "--flow", flow_run[2], *flow_run[4:]]) == 3
    assert "integrity-violation" in capsys.readouterr().err
    assert [path.stem for path in (repo / "runs").iterdir()] == [run_id]


def _drop_tuple(text):
    doc = json.loads(text)
    del doc["tuple"]
    return json.dumps(doc)


DAMAGED_STATE = [
    ("pins", "garbled", lambda text: text[: len(text) // 2]),
    ("pins", "missing-field", lambda text: '{"main": {"branch": "main"}}'),
    ("pins", "wrong-type", lambda text: "[]"),
    ("run-show", "garbled", lambda text: text[: len(text) // 2]),
    ("run-show", "missing-field", _drop_tuple),
    ("run-show", "wrong-type", lambda text: "[]"),
    ("run-ls", "garbled", lambda text: text[: len(text) // 2]),
    ("run-ls", "missing-field", _drop_tuple),
    ("run-ls", "wrong-type", lambda text: "[]"),
    ("config", "garbled", lambda text: text[: len(text) // 2]),
    ("config", "wrong-type", lambda text: "[]"),
]


@pytest.mark.parametrize(
    "target, damage", [(t, d) for t, _, d in DAMAGED_STATE], ids=[f"{t}-{name}" for t, name, _ in DAMAGED_STATE]
)
def test_damaged_engine_state_exits_3_naming_the_file(target, damage, one_step, capsys):
    repo, flow_run = one_step
    assert main(flow_run) == 0
    run_id = read_json(capsys)["run_id"]
    repo_args = ["--repo", str(repo)]
    path, argv = {
        "pins": (repo / "pins.json", flow_run),
        "config": (repo / "config.json", ["run", "ls", *repo_args]),
        "run-show": (repo / "runs" / f"{run_id}.json", ["run", "show", run_id, *repo_args]),
        "run-ls": (repo / "runs" / f"{run_id}.json", ["run", "ls", *repo_args]),
    }[target]
    path.write_text(damage(path.read_text()))
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "integrity-violation" in err and str(path) in err


@pytest.mark.parametrize(
    "argv",
    [["flow", "validate", "{dir}"], ["artifact", "put", "{dir}", "--kind", "data"], ["artifact", "get", "{id}", "-o", "{dir}"]],
    ids=["flow-validate", "artifact-put", "artifact-get"],
)
def test_a_directory_where_the_user_names_a_file_exits_1(argv, ws, capsys):
    root, repo_args = ws
    blob = root / "blob.bin"
    blob.write_bytes(b"bytes")
    assert main(["artifact", "put", str(blob), "--kind", "data", "--json", *repo_args]) == 0
    artifact_id = read_json(capsys)["id"]
    directory = root / "a-directory"
    directory.mkdir()
    assert main([a.format(dir=directory, id=artifact_id) for a in argv] + repo_args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(directory) in err


@pytest.mark.parametrize("name", ["config.json", "pins.json", "index.jsonl", "runs.jsonl"])
def test_engine_state_replaced_by_a_directory_exits_3_naming_the_file(name, one_step, capsys):
    repo, flow_run = one_step
    path = repo / name
    path.unlink()
    path.mkdir()
    assert main(flow_run) == 3
    err = capsys.readouterr().err
    assert "storage-io" in err and str(path) in err


def _drop_field(path, row_type, field):
    """Remove ``field`` from the journal rows whose ``type`` (or, with None, any row) matches."""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        if row_type is None or row.get("type") == row_type:
            row.pop(field, None)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


@pytest.mark.parametrize("journal, row_type, field, line", [
    ("events.jsonl", None, "plan", 1),
    ("promotions.jsonl", "decision", "approver", 1),
    ("promotions.jsonl", "release", "release_run_id", 2),
])
def test_journal_row_missing_a_field_exits_3_naming_the_file(journal, row_type, field, line, one_step, capsys):
    repo, flow_run = one_step
    repo_args = ["--repo", str(repo)]
    emit = ["event", "emit", "--source", "code", "--ref", "main", "--version", "c2", "--id", "e1", *repo_args]
    assert main(emit) == 0
    capsys.readouterr()
    assert main([*flow_run, "--event", "e1"]) == 0
    run_id = read_json(capsys)["run_id"]
    flow = flow_run[2]
    argv = [*flow_run, "--event", "e1"]
    if journal == "promotions.jsonl":
        assert main(["approve", run_id, "--by", "alice", *repo_args]) == 0
        argv = ["approve", run_id, "--by", "alice", *repo_args]
    if row_type == "release":
        assert main(["release", run_id, "--flow", flow, *repo_args]) == 0
        argv = ["release", run_id, "--flow", flow, *repo_args]
    capsys.readouterr()
    path = repo / journal
    _drop_field(path, row_type, field)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "integrity-violation" in err and f"{path}: line {line}:" in err


@pytest.mark.parametrize("journal", ["index.jsonl", "runs.jsonl", "lineage.jsonl", "events.jsonl", "promotions.jsonl"])
def test_a_damaged_line_fails_the_command_that_writes_its_journal_with_exit_3(journal, one_step, capsys):
    repo, flow_run = one_step
    repo_args = ["--repo", str(repo)]
    assert main(["event", "emit", "--source", "code", "--ref", "main", "--version", "c2", "--id", "e1", *repo_args]) == 0
    capsys.readouterr()
    assert main([*flow_run, "--event", "e1"]) == 0
    run_id = read_json(capsys)["run_id"]
    blob = repo.parent / "blob.bin"
    blob.write_bytes(b"new bytes")
    writers = {
        "index.jsonl": ["artifact", "put", str(blob), "--kind", "data", *repo_args],
        "runs.jsonl": flow_run,
        "lineage.jsonl": flow_run,
        "events.jsonl": ["event", "emit", "--source", "code", "--ref", "main", "--version", "c3", "--id", "e2", *repo_args],
        "promotions.jsonl": ["approve", run_id, "--by", "alice", *repo_args],
    }
    path = repo / journal
    line = len(path.read_bytes().splitlines()) + 1
    with open(path, "a") as fh:
        fh.write('{"damaged": \n')
    damaged = path.read_bytes()
    assert main(writers[journal]) == 3
    err = capsys.readouterr().err
    assert "integrity-violation" in err and f"{path}: line {line}:" in err
    assert path.read_bytes() == damaged


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400"])
def test_a_non_finite_metric_records_the_run_without_feedback_and_exits_1(value, one_step, capsys):
    repo, flow_run = one_step
    manifest = repo.parent / "metrics.json"
    manifest.write_text(json.dumps({
        "steps": [{"name": "s", "command": "printf '{\"loss\": %s}' > {output:metrics}" % value, "inputs": {}, "outputs": ["metrics"]}],
        "outcomes": [{"step": "s", "slot": "metrics"}],
        "metrics_output": {"step": "s", "slot": "metrics"},
    }))
    assert main(["flow", "run", str(manifest), *flow_run[3:]]) == 1
    err = capsys.readouterr().err
    assert "malformed-metrics-document" in err and "'loss'" in err
    (record,) = RunStore(Repository(repo), ArtifactStore(Repository(repo))).list()
    assert record.status == "succeeded" and record.feedback_id is None
    assert f"run:{record.run_id}" in {edge.src for edge in LineageLog(Repository(repo)).edges()}


def test_an_auto_release_whose_flow_cannot_be_loaded_records_no_approval(one_step, capsys):
    repo, flow_run = one_step
    repo_args = ["--repo", str(repo)]
    assert main(["event", "emit", "--source", "code", "--ref", "main", "--version", "c2", "--id", "e1", *repo_args]) == 0
    capsys.readouterr()
    assert main([*flow_run, "--event", "e1"]) == 0
    run_id = read_json(capsys)["run_id"]
    approve = ["approve", run_id, "--by", "alice", "--auto-release", "--json", *repo_args]
    assert main([*approve, "--flow", str(repo.parent / "missing.json")]) == 1
    assert "missing.json" in capsys.readouterr().err
    promotions = repo / "promotions.jsonl"
    assert not promotions.exists() or promotions.read_text() == ""
    assert main([*approve, "--flow", flow_run[2]]) == 0
    combined = read_json(capsys)
    assert combined["approval"]["decision"] == "approved" and combined["release"]["status"] == "succeeded"


def test_json_output_builds_no_human_table(one_step, capsys, monkeypatch):
    repo, flow_run = one_step
    assert main(flow_run) == 0
    run_id = read_json(capsys)["run_id"]
    repo_args = ["--repo", str(repo)]
    monkeypatch.setattr(cli, "_table", lambda *a: pytest.fail("a table was built for --json"))
    for argv in (["run", "ls"], ["artifact", "ls"], ["gate", "eval", run_id]):
        assert main([*argv, "--json", *repo_args]) == 0, argv
        read_json(capsys)
