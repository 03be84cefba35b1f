"""Cold reads trust the stat stamp their writer recorded, and answer as a fresh read does after any change."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ca_engine import journal, tuples, util
from ca_engine.cli import main
from ca_engine.errors import IntegrityViolationError
from ca_engine.journal import KEY_FILE_SLACK, Journal
from ca_engine.lineage import LineageEdge, LineageLog, artifact_ref
from ca_engine.pipeline import make_event
from ca_engine.repo import Repository
from ca_engine.store import ArtifactKind, ArtifactStore, _index_key
from ca_engine.tuples import RunStore
from ca_engine.util import canonical_json, file_stamp
from helpers import baseline_tuple, make_run, seed_main


def cli(repo, *argv):
    return main([*argv, "--json", "--repo", str(repo.root)])


@pytest.fixture
def hashed(monkeypatch):
    """Every buffer given to SHA-256 while the fixture is active, through a stand-in for ``hashlib.sha256``."""
    seen: list[bytes] = []
    sha256 = hashlib.sha256

    class Recording:
        def __init__(self, data=b"", state=None):
            self._state = state or sha256()
            self.update(data)

        def update(self, data):
            seen.append(bytes(data))
            self._state.update(data)

        def copy(self):
            return Recording(state=self._state.copy())

        def digest(self):
            return self._state.digest()

        def hexdigest(self):
            return self._state.hexdigest()

    monkeypatch.setattr(journal.hashlib, "sha256", Recording)
    return seen


@pytest.fixture
def history(repo, store, run_store):
    """Runs pinning one artifact until the index, the lineage log and the run journal are past the slack."""
    hot = store.put(ArtifactKind.DATA, b"hot")
    log = LineageLog(repo)
    avt = baseline_tuple(data_content=hot.hash)
    while min(path.stat().st_size for path in (repo.index_path, repo.lineage_path, repo.runs_journal_path)) < KEY_FILE_SLACK:
        log.record_edges(make_run(store, run_store, avt=avt, steps=3), store=store)
    log.record_edges(make_run(store, run_store, avt=avt, steps=3), store=store)
    for path in (repo.index_path, repo.lineage_path, repo.runs_journal_path):
        assert Journal(path, lambda row: 0).keys_path.exists()
    return hot


def journal_bytes(hashed: list[bytes]) -> list[bytes]:
    """What was hashed, less the key files' own bodies."""
    return [data for data in hashed if data and not data.startswith(journal._KEYS_MAGIC)]


def test_cold_lookups_hash_no_journal_prefix_while_the_stamps_match(repo, store, history, hashed, capsys):
    output = make_run(store, RunStore(repo, store), steps=1).step_outcomes[0].output_ids["out"]
    LineageLog(repo).append_edges([LineageEdge("run:source", artifact_ref(output), "produced")])
    capsys.readouterr()
    hashed.clear()
    assert cli(repo, "lineage", "who-uses", str(history)) == 0
    assert len(json.loads(capsys.readouterr().out)["runs"]) > 10
    assert journal_bytes(hashed) == []
    assert cli(repo, "lineage", "provenance", str(output)) == 0
    assert json.loads(capsys.readouterr().out)["closure"]
    assert journal_bytes(hashed) == []
    assert cli(repo, "artifact", "verify", str(history)) == 0
    assert journal_bytes(hashed) == [b"hot"]  # the object itself, and no byte of the index

    # A journal changed since its stamp is parsed, and neither it nor its key file is hashed.
    os.utime(repo.index_path)
    hashed.clear()
    assert cli(repo, "artifact", "verify", str(history)) == 0
    assert hashed == [b"hot"]
    assert ArtifactStore(repo)._index.covered == 0


def test_one_shot_writers_hash_no_journal_byte(repo, store, pipeline, history, hashed, tmp_path, capsys):
    seed_main(pipeline, store)
    while repo.events_path.stat().st_size < KEY_FILE_SLACK:
        pipeline.ingest_event(make_event("code", "main", "c1"))
    manifest = tmp_path / "flow.json"
    manifest.write_text(json.dumps({
        "steps": [{"name": "s", "command": "printf done > {output:out}", "inputs": {}, "outputs": ["out"]}],
        "outcomes": [{"step": "s", "slot": "out"}],
    }))
    journals = [repo.events_path, repo.index_path, repo.lineage_path, repo.runs_journal_path]
    for argv in (
        ["event", "emit", "--source", "code", "--ref", "main", "--version", "c2", "--id", "late"],
        ["flow", "run", str(manifest), "--event", "late"],
    ):
        hashed.clear()
        assert cli(repo, *argv) == 0
        assert json.loads(capsys.readouterr().out)
        contents = [path.read_bytes() for path in journals]
        assert [data for data in journal_bytes(hashed) if any(data in content for content in contents)] == []
    # Each journal's key file was kept current.
    for path in journals:
        assert Journal(path, lambda row: 0).covered == path.stat().st_size


def test_run_ls_opens_no_record_whose_stamp_matches_its_row(repo, store, run_store, history, capsys, monkeypatch):
    expected = [record.summary() for record in run_store.list()]
    touched = next(iter(sorted(repo.runs_dir.glob("*.json"))))
    os.utime(touched)  # same bytes, but its stamp no longer matches its row
    runs_dir = repo.runs_dir.resolve()
    opened, digests = [], []
    real_open, real_digest = os.open, tuples.sha256_hex

    def watch(path, *args, **kwargs):
        if Path(os.fspath(path)).resolve().parent == runs_dir:
            opened.append(Path(path).name)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", watch)
    monkeypatch.setattr(tuples, "sha256_hex", lambda data: (digests.append(data), real_digest(data))[1])
    assert cli(repo, "run", "ls") == 0
    assert json.loads(capsys.readouterr().out) == {"runs": expected}
    assert opened == [touched.name]
    assert digests == []  # the record is decoded, not hashed


def test_rows_without_a_stamp_cost_only_speed(repo, store, run_store, history, capsys, monkeypatch):
    expected = [record.summary() for record in run_store.list()]
    rows = [json.loads(line) for line in repo.runs_journal_path.read_text().splitlines()]
    repo.runs_journal_path.write_text("".join(canonical_json({k: v for k, v in row.items() if k != "stamp"}) + "\n" for row in rows))
    opened = []
    real_open = os.open
    monkeypatch.setattr(os, "open", lambda path, *a, **k: (opened.append(path), real_open(path, *a, **k))[1])
    assert cli(repo, "run", "ls") == 0
    assert json.loads(capsys.readouterr().out) == {"runs": expected}
    assert len([path for path in opened if Path(path).parent == repo.runs_dir]) == len(expected)


@pytest.mark.parametrize("version", [4, 5])
def test_a_key_file_of_an_older_version_costs_only_speed(repo, history, version):
    # Both held the covered prefix's SHA-256 after its length and line count; version 4 had no stamp.
    keys_path = repo.lineage_path.with_suffix(".idx")
    raw = keys_path.read_bytes()
    digest = hashlib.sha256(repo.lineage_path.read_bytes()[: int.from_bytes(raw[8:16], "big")]).digest()
    stamp = raw[24 : journal._KEYS_HEADER.size] if version == 5 else b""
    old = b"caidx\x00\x00" + bytes([version]) + raw[8:24] + digest + stamp + raw[journal._KEYS_HEADER.size : -32]
    keys_path.write_bytes(old + hashlib.sha256(old).digest())
    expected = LineageLog(repo).runs_using(history, run_store=RunStore(repo, ArtifactStore(repo)))
    assert LineageLog(repo)._journal.covered == 0
    LineageLog(repo).append_edges([LineageEdge(artifact_ref(history), "run:late", "pinned")])
    log = LineageLog(repo)
    assert log._journal.covered == repo.lineage_path.stat().st_size
    assert log.runs_using(history, run_store=RunStore(repo, ArtifactStore(repo))) == ["late", *expected]  # no start time: first


def test_where_no_stamp_can_be_set_no_key_file_is_trusted_and_answers_are_a_fresh_parse(repo, store, run_store, monkeypatch):
    for module in (util, journal):
        monkeypatch.setattr(module, "set_times_back", lambda fd: None)
    hot = store.put(ArtifactKind.DATA, b"hot")
    log = LineageLog(repo)
    journals = [repo.index_path, repo.lineage_path, repo.runs_journal_path]
    records = []
    while min(path.stat().st_size for path in journals) < KEY_FILE_SLACK:
        records.append(make_run(store, run_store, avt=baseline_tuple(data_content=hot.hash), steps=1))
        log.record_edges(records[-1], store=store)
    assert all(Journal(path, lambda row: 0).covered == 0 for path in journals)
    assert all("stamp" not in json.loads(line) for line in repo.runs_journal_path.read_text().splitlines())
    fresh = ArtifactStore(repo)
    assert all(fresh.has(output) for record in records for output in record.step_outcomes[0].output_ids.values())
    assert [r.id for r in fresh.find_by_hash(hot.hash)] == [hot]
    fresh_runs = RunStore(repo, fresh)
    assert LineageLog(repo).runs_using(hot, run_store=fresh_runs) == [record.run_id for record in records]
    assert [fresh_runs.started_at(record.run_id) for record in records] == [record.started_at for record in records]
    assert run_ls(repo) == without_the_run_journal(repo)
    assert json.loads(run_ls(repo)[1]) == {"runs": [record.summary() for record in run_store.list()]}


@pytest.mark.parametrize("stamp", ["1 2 3 4 5", [1, 2, 3, 4], [1, 2, 3, 4, "5"], [1, 2, 3, 4, 5.0], [1, 2, 3, 4, True]])
def test_a_row_whose_stamp_is_not_five_integers_exits_3_naming_the_journal(repo, store, run_store, capsys, stamp):
    make_run(store, run_store)
    make_run(store, run_store)
    first, second = repo.runs_journal_path.read_text().splitlines(keepends=True)
    repo.runs_journal_path.write_text(canonical_json({**json.loads(first), "stamp": stamp}) + "\n" + second)
    assert cli(repo, "run", "ls") == 3
    assert f"{repo.runs_journal_path}: line 1:" in capsys.readouterr().err


def test_a_held_hash_answers_without_a_stat_of_the_index(repo, history, monkeypatch):
    covered = [record.id.hash for record in ArtifactStore(repo).list()]
    fresh = ArtifactStore(repo)
    assert fresh.has_hash(covered[0]) and fresh._index.covered == repo.index_path.stat().st_size
    parsed = ArtifactStore(repo).put(ArtifactKind.CODE, b"late")
    assert fresh.has_hash(parsed.hash)  # read from the bytes appended after the key file it read
    stats = []
    real_stat = os.stat

    def counting_stat(path, *args, **kwargs):
        if os.fspath(path) == os.fspath(repo.index_path):
            stats.append(path)
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counting_stat)
    assert all(fresh.has_hash(digest) for digest in [*covered, parsed.hash])
    assert stats == []
    # A hash the handle does not hold still looks at the file.
    assert not fresh.has_hash("0" * 64)
    assert len(stats) == 1


# -- changes to a stamped journal ------------------------------------------------------


HASHES = [hashlib.sha256(bytes([n])).hexdigest() for n in range(3)]
# The hashes of the rows writers append: no other row has their keys, so each append writes its row.
ADDED = [hashlib.sha256(b"added %d" % n).hexdigest() for n in range(3)]
KEYS = [(kind, digest) for kind in ("data", "code") for digest in HASHES + ADDED]
ROWS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["data", "code"]), "hash": st.sampled_from(HASHES), "n": st.integers(0, 99)}
)
# Rows of about 100 bytes, so together past the slack.
FILLER = [canonical_json({"kind": "result", "hash": hashlib.sha256(b"%d" % n).hexdigest(), "n": n}) for n in range(KEY_FILE_SLACK // 100)]


def index_journal(path: Path) -> Journal:
    return Journal(path, _index_key, group=lambda key: (key[1],))


def fresh_parse(path: Path) -> Journal:
    """The journal as a parse of every line reads it: its key file is looked for where there is none."""
    parsed = index_journal(path)
    parsed.keys_path = path.parent / "no-key-file" / parsed.keys_path.name
    return parsed


def answers(journal: Journal) -> list:
    def outcome(query):
        try:
            return query()
        except IntegrityViolationError as exc:
            return ("raised", str(exc))

    out = [outcome(lambda: journal.get(key)) for key in KEYS]
    out += [outcome(lambda: journal.holds(digest)) for digest in HASHES + ADDED]
    out += [outcome(lambda: journal.group(digest)) for digest in HASHES + ADDED]
    return out


def changed(data: bytes, at: int, byte: int) -> bytes:
    out = bytearray(data)
    out[at] = byte if out[at] != byte else byte ^ 1
    return bytes(out)


def write_in_place(path, data, other):
    fd = os.open(path, os.O_WRONLY)
    try:
        os.pwrite(fd, other, 0)
    finally:
        os.close(fd)


def overwrite(path, data, other):
    path.write_bytes(other)


def truncate_and_rewrite(path, data, other):
    with open(path, "r+b") as fh:
        fh.truncate(0)
        fh.write(other[: len(other) // 2])


def append(path, data, other):
    """Append the first line of ``other``, or all of it when the change took its only newline."""
    with open(path, "ab") as fh:
        fh.write(other[: other.find(b"\n") + 1] or other)


def chmod(path, data, other):
    os.chmod(path, 0o600)


def hard_link(path, data, other):
    os.link(path, path.with_name("elsewhere"))


def rename_over(path, data, other):
    path.with_name("replacement").write_bytes(other)
    os.replace(path.with_name("replacement"), path)


def copy_keeping_times(path, data, other):
    source = path.with_name("source")
    source.write_bytes(other)
    shutil.copystat(path, source)
    shutil.copy2(source, path)


def restore_the_time_after_a_write(path, data, other):
    before = os.stat(path)
    path.write_bytes(other)
    time.sleep(0.02)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_mtime_ns == before.st_mtime_ns


CHANGES = [
    write_in_place, overwrite, truncate_and_rewrite, append, chmod, hard_link, rename_over, copy_keeping_times,
    restore_the_time_after_a_write,
]


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(ROWS, min_size=1, max_size=8),
    change=st.sampled_from(CHANGES),
    where=st.floats(0, 1, exclude_max=True),
    byte=st.integers(0, 255),
    added=st.lists(ROWS, min_size=3, max_size=3),
)
def test_after_any_change_to_a_stamped_journal_lookups_answer_as_a_fresh_parse(rows, change, where, byte, added):
    added = [{**row, "hash": digest} for row, digest in zip(added, ADDED)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.jsonl"
        path.write_text("".join(line + "\n" for line in FILLER), encoding="utf-8")
        index_journal(path).write_keys()
        # A writer that read the journal through its key file, and then the rows another writer
        # appended, indexes it afresh on its own append, stamping it.
        stamping = index_journal(path)
        covered = stamping.covered
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join(canonical_json(row) + "\n" for row in rows))
        assert stamping.covered == covered > 0
        stamping.append([added[0]])
        trusting = index_journal(path)
        data = path.read_bytes()
        assert trusting.covered == len(data)  # trusted by its stamp

        change(path, data, changed(data, int(where * len(data)), byte))
        assert answers(index_journal(path)) == answers(fresh_parse(path))
        # Writers that read the journal before the change append past the slack and rewrite the key file:
        # the one that stamped it, then one that trusted the stamp.
        for writer, row in ((stamping, added[1]), (trusting, added[2])):
            try:
                writer.append([row])
            except IntegrityViolationError as exc:  # its catch-up met the damage, as a fresh parse does
                assert answers(fresh_parse(path))[0] == ("raised", str(exc))
            assert answers(index_journal(path)) == answers(fresh_parse(path))


# -- changes to a stamped run record ----------------------------------------------------


def run_ls(repo) -> tuple:
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli(repo, "run", "ls")
        out.seek(0)
        err.seek(0)
        return code, out.read(), err.read()


def without_the_run_journal(repo) -> tuple:
    """``run ls`` with ``runs.jsonl`` and its key file moved away, then put back."""
    moved = [path for path in (repo.runs_journal_path, repo.runs_journal_path.with_suffix(".idx")) if path.exists()]
    for path in moved:
        os.rename(path, path.with_name(path.name + ".away"))
    try:
        return run_ls(repo)
    finally:
        for path in moved:
            os.rename(path.with_name(path.name + ".away"), path)


@settings(max_examples=40, deadline=None)
@given(change=st.sampled_from(CHANGES), which=st.integers(0, 2), where=st.floats(0, 1, exclude_max=True), byte=st.integers(0, 255))
def test_after_any_change_to_a_stamped_record_run_ls_prints_what_it_prints_without_the_journal(change, which, where, byte):
    with tempfile.TemporaryDirectory() as tmp:
        repo = Repository(Path(tmp) / ".ca")
        repo.init()
        store = ArtifactStore(repo)
        run_store = RunStore(repo, store)
        records = [make_run(store, run_store, steps=1) for _ in range(3)]
        rows = [json.loads(line) for line in repo.runs_journal_path.read_text().splitlines()]
        for record, row in zip(records, rows):
            assert row["stamp"] == list(file_stamp(run_store.run_path(record.run_id).stat()))
        path = run_store.run_path(records[which].run_id)
        data = path.read_bytes()
        # A byte of the status value changed, so that the record still decodes but reads differently, or any byte.
        status = data.index(b'"status":"') + len('"status":"')
        other = changed(data, status if byte % 2 else int(where * len(data)), byte)

        change(path, data, other)
        assert run_ls(repo) == without_the_run_journal(repo)
