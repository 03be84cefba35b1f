"""A timeout or a command that cannot start is a failed outcome: the run is recorded, collected and traced."""

from __future__ import annotations

import json
import os

from ca_engine.cli import main
from ca_engine.feedback import load_bundle
from ca_engine.flow import execute, parse_manifest
from ca_engine.flow.executors import NOT_STARTED, TIMED_OUT, ProcessExecutor
from ca_engine.repo import Repository
from ca_engine.store import ArtifactKind, ArtifactStore
from ca_engine.tuples import RunStore
from helpers import baseline_tuple, journal_rows

# Four partitions of one step; partition 2 prints a line, then outlasts any short timeout.
FAN = {
    "steps": [
        {
            "name": "fan",
            "command": "if [ {partition} = 2 ]; then echo started; sleep 5; fi; "
            "{ cat {input:rows}; echo part {partition}; } > {output:part}",
            "inputs": {"rows": {"pin": "data"}},
            "outputs": ["part"],
            "partition": {"count": 4, "merge_command": "cat {partitions:part} > {output:merged}"},
        }
    ],
    "outcomes": [{"step": "fan", "slot": "merged"}],
}


def test_a_step_that_times_out_fails_the_run_and_its_siblings_outputs_are_kept(repo, store, run_store, lineage_log):
    rows = store.put(ArtifactKind.DATA, b"alpha\nbeta\n")
    record = execute(
        parse_manifest(json.dumps(FAN)), baseline_tuple(data_content=rows.hash), ProcessExecutor(timeout=0.5),
        kind="validation", store=store, run_store=run_store, lineage=lineage_log, parallelism=2,
    )
    assert record.status == "failed"
    assert run_store.load(record.run_id) == record
    outcomes = {o.partition_index: o for o in record.step_outcomes}
    assert set(outcomes) == {0, 1, 2, 3}  # the merge, partition None, has no outcome

    timed_out = outcomes[2]
    assert timed_out.exit_code == TIMED_OUT and timed_out.output_ids == {}
    log = store.get(timed_out.log_id)
    assert log.startswith(b"started\n")
    assert log.endswith(b" timed out after 0.5s\n") and log.count(b"\n") == 2

    produced = set()
    for index in (0, 1, 3):
        sibling = outcomes[index]
        assert sibling.exit_code == 0
        assert store.get(sibling.output_ids["part"]) == b"alpha\nbeta\npart %d\n" % index
        produced.add(f"artifact:{sibling.output_ids['part']}")

    assert load_bundle(record, store=store).run_id == record.run_id
    edges = lineage_log.edges()
    assert {e.dst for e in edges if e.src == f"run:{record.run_id}"} == produced
    assert lineage_log.runs_using(rows, run_store=run_store) == [record.run_id]

    assert list(repo.tmp_dir.iterdir()) == []
    indexed = {row["hash"] for row in journal_rows(repo.index_path)}
    on_disk = {path.parent.name + path.name for path in repo.objects_dir.glob("*/*")}
    assert on_disk and on_disk <= indexed


def test_a_command_of_32_pages_is_a_failed_run_through_the_cli(tmp_path, capsys):
    repo_args = ["--repo", str(tmp_path / ".ca")]
    pins = ["--pin", "code=c1", "--pin", "data=x1", "--pin", "dependencies=d1", "--pin", "deployment=y1"]
    assert main(["init", *pins, *repo_args]) == 0
    command = ": " + "x" * 32 * os.sysconf("SC_PAGE_SIZE") + "; printf done > {output:out}"
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps({
        "steps": [{"name": "s", "command": command, "inputs": {}, "outputs": ["out"]}],
        "outcomes": [{"step": "s", "slot": "out"}],
    }))
    capsys.readouterr()
    assert main(["flow", "run", str(flow), "--json", *repo_args]) == 1
    run_id = json.loads(capsys.readouterr().out)["run_id"]
    repo = Repository(tmp_path / ".ca")
    store = ArtifactStore(repo)
    record = RunStore(repo, store).load(run_id)
    assert record.status == "failed"
    (outcome,) = record.step_outcomes
    assert outcome.exit_code == NOT_STARTED
    log = store.get(outcome.log_id).decode()
    assert "Argument list too long" in log and len(log) < 200
    assert list(repo.tmp_dir.iterdir()) == []
