"""``ca run ls`` reads the run-summary journal, trusting a row only while its record's stamp matches."""

from __future__ import annotations

import json
import os
import re

import pytest

from ca_engine import tuples
from ca_engine.cli import main
from ca_engine.errors import IntegrityViolationError
from ca_engine.flow import RecordingExecutor, parse_manifest
from ca_engine.journal import KEY_FILE_SLACK
from ca_engine.lineage import replay_check
from ca_engine.pipeline import make_event
from ca_engine.store import ArtifactKind
from ca_engine.tuples import RunRecord, RunStore
from ca_engine.util import canonical_json
from helpers import baseline_tuple, e2e_manifest, e2e_scripts, journal_rows, make_run, seed_main, tear


@pytest.fixture
def history(pipeline, store, run_store, lineage_log):
    """A repository holding a validation run, its release and a replay of the validation."""
    seed_main(pipeline, store)
    graph = parse_manifest(json.dumps(e2e_manifest()))
    data = store.put(ArtifactKind.DATA, json.dumps([f"item-{i:04d}" for i in range(900)]).encode())
    plan = pipeline.ingest_event(make_event("data", "working/x", "x2", data.hash))
    validation = pipeline.run_validation(plan, graph, RecordingExecutor(e2e_scripts()))
    pipeline.approve(validation.run_id, "alice")
    pipeline.run_release(validation.run_id, graph, RecordingExecutor(e2e_scripts()))
    replay_check(
        validation.run_id, graph, RecordingExecutor(e2e_scripts()), store=store, run_store=run_store,
        lineage_log=lineage_log,
    )
    return run_store


def run_ls(repo, capsys, *flags):
    code = main(["run", "ls", *flags, "--repo", str(repo.root)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def expected(run_store):
    return [record.summary() for record in run_store.list()]


def test_run_ls_lists_every_records_summary_with_and_without_the_journal(repo, history, capsys):
    records = history.list()
    assert {r.kind for r in records} == {"validation", "release"}
    assert any("replay-of" in r.labels for r in records)
    assert len(journal_rows(repo.runs_journal_path)) == len(records) == 3
    code, out, _ = run_ls(repo, capsys, "--json")
    assert code == 0
    assert json.loads(out) == {"runs": expected(history)}
    _, text, _ = run_ls(repo, capsys)

    repo.runs_journal_path.unlink()
    assert run_ls(repo, capsys, "--json") == (0, out, "")
    assert run_ls(repo, capsys) == (0, text, "")


@pytest.fixture
def from_dict_calls(monkeypatch):
    calls = []
    original = RunRecord.from_dict.__func__

    def counting(cls, row):
        calls.append(row["run_id"])
        return original(cls, row)

    monkeypatch.setattr(RunRecord, "from_dict", classmethod(counting))
    return calls


def test_run_ls_decodes_no_record_whose_row_matches(repo, history, capsys, from_dict_calls):
    assert run_ls(repo, capsys, "--json")[0] == 0
    assert from_dict_calls == []
    repo.runs_journal_path.unlink()
    assert run_ls(repo, capsys, "--json")[0] == 0
    assert sorted(from_dict_calls) == sorted(path.stem for path in repo.runs_dir.glob("*.json"))


def test_a_rewritten_record_is_listed_as_it_now_reads(repo, history, capsys):
    target = history.list()[0]
    assert target.status == "succeeded"
    path = history.run_path(target.run_id)
    doc = json.loads(path.read_text())
    doc["status"] = "failed"
    path.write_text(canonical_json(doc) + "\n")
    code, out, _ = run_ls(repo, capsys, "--json")
    assert code == 0
    listed = {summary["run_id"]: summary for summary in json.loads(out)["runs"]}
    assert listed[target.run_id]["status"] == "failed"
    assert json.loads(out) == {"runs": expected(history)}


def test_a_run_whose_row_was_never_appended_is_still_listed(repo, history, capsys):
    path = repo.runs_journal_path
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    code, out, _ = run_ls(repo, capsys, "--json")
    assert code == 0
    assert json.loads(out) == {"runs": expected(history)}


def test_a_torn_summary_tail_is_ignored_then_cut(repo, store, run_store, capsys):
    first = make_run(store, run_store)
    tear(repo.runs_journal_path)
    code, out, _ = run_ls(repo, capsys, "--json")
    assert code == 0 and json.loads(out) == {"runs": [first.summary()]}
    second = make_run(store, RunStore(repo, store))
    rows = journal_rows(repo.runs_journal_path)
    assert [row["summary"]["run_id"] for row in rows] == [first.run_id, second.run_id]


def _row(**changes):
    summary = {
        "run_id": "0123456789ab-000001", "kind": "validation", "branch": "main", "status": "succeeded",
        "started_at": "2026-01-01T00:00:00.000000Z", "finished_at": None, "result_ids": [], "labels": {},
        "data_scope": {"kind": "full", "manifest": None},
    }
    row = {"summary": summary}
    for name, value in changes.items():
        if value is None:
            del summary[name]
        else:
            summary[name] = value
    return json.dumps(row)


@pytest.mark.parametrize(
    "line",
    [
        '{"sha256": "' + "a" * 64,
        "[1, 2]",
        _row(status=None),
        _row(status=1),
        _row(finished_at=["2026"]),
        _row(labels="x=y"),
    ],
    ids=["garbled", "array", "missing-field", "int-status", "list-finished-at", "string-labels"],
)
def test_a_bad_summary_line_exits_3_naming_the_journal(repo, store, run_store, capsys, line):
    make_run(store, run_store)
    make_run(store, run_store)
    first, second = repo.runs_journal_path.read_text().splitlines(keepends=True)
    repo.runs_journal_path.write_text(first + line + "\n" + second)
    code, _, err = run_ls(repo, capsys, "--json")
    assert code == 3
    assert "integrity-violation" in err and f"{repo.runs_journal_path}: line 2:" in err


def test_a_row_that_still_carries_a_record_digest_is_read(repo, store, history, capsys, from_dict_calls):
    # Rows written before the stamp was the only check held the record's SHA-256; it is no longer read.
    rows = journal_rows(repo.runs_journal_path)
    repo.runs_journal_path.write_text("".join(canonical_json({"sha256": "a" * 64, **row}) + "\n" for row in rows))
    code, out, _ = run_ls(repo, capsys, "--json")
    assert code == 0 and from_dict_calls == []
    assert json.loads(out) == {"runs": expected(history)}
    fresh = RunStore(repo, store)
    assert [fresh.started_at(row["summary"]["run_id"]) for row in rows] == [row["summary"]["started_at"] for row in rows]


def test_recording_a_run_takes_the_lock_once_and_fsyncs_twice(repo, store, run_store, monkeypatch):
    record = make_run(store, run_store)
    record.run_id = run_store.mint_run_id(record.tuple)
    fsyncs, locks = [], []
    real_fsync, real_lock = os.fsync, repo.write_lock
    monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
    monkeypatch.setattr(repo, "write_lock", lambda *a, **k: (locks.append(1), real_lock(*a, **k))[1])
    run_store.record(record)
    assert (len(fsyncs), len(locks)) == (2, 1)


def fill_past_the_slack(repo, store, run_store) -> list[RunRecord]:
    records = []
    while not repo.runs_journal_path.exists() or repo.runs_journal_path.stat().st_size < KEY_FILE_SLACK:
        records.append(make_run(store, run_store, steps=1))
    return records


def test_recording_a_run_on_a_fresh_store_keys_only_its_own_row(repo, store, run_store, monkeypatch):
    # Past the slack a fresh writer reads the history through its key file, so it parses no row of it.
    fill_past_the_slack(repo, store, run_store)
    keyed = []
    key = tuples._summary_key

    def counting_key(row):
        keyed.append(row["summary"]["run_id"])
        return key(row)

    monkeypatch.setattr(tuples, "_summary_key", counting_key)
    fresh = RunStore(repo, store)
    record = make_run(store, fresh, steps=1)
    # Once as given, and once as the key file's rewrite indexes the new line.
    assert keyed == [record.run_id, record.run_id]
    monkeypatch.undo()
    assert fresh.summaries() == expected(run_store)


def test_a_writer_that_has_not_read_the_journal_keeps_its_key_file_current_past_the_slack(repo, store, run_store, capsys):
    records = fill_past_the_slack(repo, store, run_store)
    assert repo.runs_journal_path.with_suffix(".idx").exists()
    records += [make_run(store, RunStore(repo, store), steps=1) for _ in range(2)]
    fresh = RunStore(repo, store)
    assert fresh._summaries.covered == repo.runs_journal_path.stat().st_size
    assert [fresh.started_at(record.run_id) for record in records] == [record.started_at for record in records]
    assert fresh.started_at("0123456789ab-000001") is None
    code, out, _ = run_ls(repo, capsys, "--json")
    assert code == 0 and json.loads(out) == {"runs": expected(run_store)}


def test_a_writer_that_meets_a_damaged_line_exits_3_and_appends_no_row(repo, store, run_store, capsys):
    fill_past_the_slack(repo, store, run_store)
    first, *rest = repo.runs_journal_path.read_text().splitlines(keepends=True)
    damaged = first + '{"sha256": "' + "\n" + "".join(rest)
    repo.runs_journal_path.write_text(damaged)
    fresh = RunStore(repo, store)
    run_id = fresh.mint_run_id(baseline_tuple())
    with pytest.raises(IntegrityViolationError, match=re.escape(f"{repo.runs_journal_path}: line 2:")):  # exit 3
        make_run(store, fresh, run_id=run_id, steps=1)
    assert repo.runs_journal_path.read_text() == damaged
    # The record is written, as a crash between the record and its row leaves it.
    assert fresh.run_path(run_id).exists()
    assert main(["run", "show", run_id, "--json", "--repo", str(repo.root)]) == 0
    assert json.loads(capsys.readouterr().out)["run_id"] == run_id
    code, _, err = run_ls(repo, capsys, "--json")
    assert code == 3
    assert "integrity-violation" in err and f"{repo.runs_journal_path}: line 2:" in err
