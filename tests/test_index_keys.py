"""A journal's key file changes how fast lookups are, never what they answer."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ca_engine import lineage
from ca_engine.cli import main
from ca_engine.errors import IntegrityViolationError
from ca_engine.journal import KEY_FILE_SLACK, Journal
from ca_engine.lineage import LineageEdge, LineageLog, _edge_key
from ca_engine.store import ArtifactKind, ArtifactStore, _index_key
from ca_engine.util import canonical_json
from helpers import make_run, resign

HASHES = [hashlib.sha256(bytes([n])).hexdigest() for n in range(3)]
KINDS = ["data", "code", "result"]
KEYS = [(kind, digest) for kind in KINDS for digest in HASHES]

ROWS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(KINDS),
        "hash": st.sampled_from(HASHES),
        "size": st.integers(0, 99),
        "labels": st.dictionaries(st.sampled_from("ab"), st.text(max_size=3), max_size=2),
    }
)
LINES = st.one_of(ROWS.map(canonical_json), ROWS.map(lambda row: " " + canonical_json(row) + "\t"), st.just(""))


def plain(path: Path) -> Journal:
    """The index as a fresh parse reads it: its key file is looked for in a directory that has none.

    It reads the index itself rather than a copy, so its errors name the same file.
    """
    journal = Journal(path, _index_key, group=lambda key: (key[1],))
    journal.keys_path = path.parent / "no-key-file" / journal.keys_path.name
    return journal


def outcome(query):
    try:
        return query()
    except IntegrityViolationError as exc:
        return ("raised", str(exc))


def answers(journal, keys=KEYS) -> list:
    """Every point lookup, then every row; a query that raises answers with its message."""
    hashes = sorted({digest for _, digest in keys})
    out = [outcome(lambda: journal.get(key)) for key in keys]
    out += [outcome(lambda: key in journal) for key in keys]
    out += [outcome(lambda: journal.group(digest)) for digest in [*hashes, hashes[0].upper(), "not-a-hash"]]
    out.append(outcome(lambda: list(journal.rows().items())))
    return out


def write_index(index_path: Path, lines: list[str], cut: int) -> tuple[Journal, int]:
    """Index ``lines`` with a key file covering the first ``cut``; a handle and the covered byte count.

    The handle reads the index through the key file before another writer
    appends the rest, which a handle opened after the append would not trust.
    """
    index_path.write_text("".join(line + "\n" for line in lines[:cut]), encoding="utf-8")
    Journal(index_path, _index_key, group=lambda key: (key[1],)).write_keys()
    covered = index_path.stat().st_size
    keyed = Journal(index_path, _index_key, group=lambda key: (key[1],))
    assert keyed.covered == covered
    with open(index_path, "a", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines[cut:]))
    return keyed, covered


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(LINES, min_size=1, max_size=12),
    cut=st.integers(1, 12),
    where=st.floats(0, 1, exclude_max=True),
    byte=st.integers(0, 255),
)
def test_a_key_file_cut_at_any_line_answers_as_a_fresh_parse(lines, cut, where, byte):
    cut = min(cut, len(lines))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.jsonl"
        keyed, covered = write_index(path, lines, cut)
        assert keyed.covered == covered
        assert answers(keyed) == answers(plain(path))

        # A changed byte anywhere in the covered prefix answers as a fresh parse of the changed index does ...
        data = bytearray(path.read_bytes())
        at = int(where * covered)
        if data[at] != byte:
            data[at] = byte
            path.write_bytes(data)
            assert answers(Journal(path, _index_key, group=lambda key: (key[1],))) == answers(plain(path))
        # ... and one that cannot be UTF-8 raises, naming the line it is on, unless it
        # replaced the last newline and so left a torn tail that every read ignores.
        data[at] = 0xFF
        path.write_bytes(data)
        keyed = Journal(path, _index_key, group=lambda key: (key[1],))
        if b"\n" in data[at:]:
            line = data.count(b"\n", 0, at) + 1
            with pytest.raises(IntegrityViolationError, match=rf"index\.jsonl: line {line}: not UTF-8"):
                KEYS[0] in keyed
        assert answers(keyed) == answers(plain(path))


def test_a_group_that_returns_a_string_raises_type_error(tmp_path):
    path = tmp_path / "index.jsonl"
    lines = index_lines(5)
    write_index(path, lines, 3)
    digest = json.loads(lines[0])["hash"]
    for query in (lambda journal: journal.group(digest), Journal.rows, Journal.write_keys):
        with pytest.raises(TypeError, match="tuple of values"):
            query(Journal(path, _index_key, group=lambda key: key[1]))


def index_lines(count: int) -> list[str]:
    kinds = [kind.value for kind in ArtifactKind]
    return [
        canonical_json({"kind": kinds[n % len(kinds)], "hash": hashlib.sha256(b"%d" % (n % 7)).hexdigest(), "n": n})
        for n in range(count)
    ]


DAMAGE = {
    "stale": None,
    "truncated": lambda raw: raw[:-45],
    "foreign_version": lambda raw: resign(raw[:7] + b"\x02" + raw[8:]),
    "payload_corrupt": lambda raw: raw[:80] + bytes([raw[80] ^ 1]) + raw[81:],
    "empty": lambda raw: b"",
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_a_damaged_or_stale_key_file_is_ignored_with_identical_answers(tmp_path, damage):
    path, keys_path = tmp_path / "index.jsonl", tmp_path / "index.idx"
    lines = index_lines(40)
    # A key file covering the whole index, so that a fresh handle trusts it until it is damaged.
    write_index(path, lines, len(lines))
    assert Journal(path, _index_key, group=lambda key: (key[1],)).covered > 0
    if damage == "stale":
        # Another index of the same length, whose bytes the key file does not describe.
        path.write_text("".join(line + "\n" for line in reversed(lines)), encoding="utf-8")
    else:
        keys_path.write_bytes(DAMAGE[damage](keys_path.read_bytes()))
    keyed = Journal(path, _index_key, group=lambda key: (key[1],))
    assert keyed.covered == 0
    keys = [_index_key(json.loads(line)) for line in lines]
    assert answers(keyed, keys) == answers(plain(path), keys)


def put_until(store, index_bytes: int) -> list:
    """Put distinct blobs until the index holds at least ``index_bytes`` bytes."""
    ids = []
    while store._repo.index_path.stat().st_size < index_bytes:
        ids.append(store.put(ArtifactKind.DATA, b"blob %d" % len(ids), labels={"n": str(len(ids))}))
    return ids


def count_fsyncs(monkeypatch, action) -> int:
    calls = []
    fsync = os.fsync
    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", lambda fd: (calls.append(fd), fsync(fd))[1])
        action()
    return len(calls)


def test_an_index_below_the_slack_gets_no_key_file_and_the_put_crossing_it_writes_one_without_fsync(
    repo, store, monkeypatch
):
    ids = put_until(store, KEY_FILE_SLACK - 400)
    assert not store._index.keys_path.exists()
    baseline = count_fsyncs(monkeypatch, lambda: ids.append(store.put(ArtifactKind.CODE, b"below")))
    while not store._index.keys_path.exists():
        fsyncs = count_fsyncs(monkeypatch, lambda: ids.append(store.put(ArtifactKind.CODE, b"%d" % len(ids))))
        assert fsyncs == baseline
    assert repo.index_path.stat().st_size >= KEY_FILE_SLACK
    fresh = ArtifactStore(repo)
    assert fresh._index.covered == repo.index_path.stat().st_size
    assert all(fresh.has(artifact_id) for artifact_id in ids)
    assert [r.id for r in fresh.find_by_hash(ids[3].hash)] == [ids[3]]


def test_readers_never_write_the_key_file(repo, store):
    ids = put_until(store, KEY_FILE_SLACK + 100)
    store._index.keys_path.unlink()
    fresh = ArtifactStore(repo)
    assert fresh.get(ids[0]) == b"blob 0" and fresh.find_by_hash(ids[-1].hash) and fresh.list()
    assert not store._index.keys_path.exists()


def test_a_key_file_that_cannot_be_written_costs_only_speed(repo, store):
    store._index.keys_path.mkdir()
    ids = put_until(store, KEY_FILE_SLACK + 100)
    ids.append(store.put(ArtifactKind.RESULT, b"after"))
    fresh = ArtifactStore(repo)
    assert fresh._index.covered == 0
    assert all(fresh.has(artifact_id) for artifact_id in ids)


def test_a_key_file_rewritten_shorter_than_the_old_one_is_cut_to_its_length(repo, store):
    ids = put_until(store, 3 * KEY_FILE_SLACK)
    old_keys = store._index.keys_path.stat().st_size
    # A journal cut back to fewer rows than the key file describes: the next writer indexes it afresh.
    lines = repo.index_path.read_bytes().splitlines(keepends=True)
    repo.index_path.write_bytes(b"".join(lines[: len(lines) // 2]))
    ids = ids[: len(lines) // 2]
    ids.append(ArtifactStore(repo).put(ArtifactKind.CODE, b"after the cut"))
    assert store._index.keys_path.stat().st_size < old_keys
    fresh = ArtifactStore(repo)
    assert fresh._index.covered == repo.index_path.stat().st_size
    assert all(fresh.has(artifact_id) for artifact_id in ids)


def test_a_garbled_covered_line_exits_3_naming_it_for_a_lookup_of_another_artifact(repo, store, capsys):
    ids = put_until(store, KEY_FILE_SLACK + 100)
    assert ArtifactStore(repo)._index.covered > 0
    lines = repo.index_path.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5].replace(b'"kind":', b'"kind" ', 1)
    repo.index_path.write_bytes(b"".join(lines))
    assert main(["artifact", "verify", str(ids[-1]), "--repo", str(repo.root)]) == 3
    assert "index.jsonl: line 6:" in capsys.readouterr().err


# Lineage edges: a journal without ``group``, keyed by the whole edge.
NODES = ["artifact:a", "artifact:b", "run:r"]
ROLES = ["consumed", "produced"]
EDGE_KEYS = [(src, dst, role) for src in NODES for dst in NODES for role in ROLES]
EDGE_ROWS = st.fixed_dictionaries(
    {"from": st.sampled_from(NODES), "to": st.sampled_from(NODES), "role": st.sampled_from(ROLES), "n": st.integers(0, 9)}
)


def plain_edges(path: Path) -> Journal:
    """The edge log as a fresh parse reads it, like :func:`plain`."""
    journal = Journal(path, _edge_key)
    journal.keys_path = path.parent / "no-key-file" / journal.keys_path.name
    return journal


def edge_answers(journal, keys=EDGE_KEYS) -> list:
    out = [outcome(lambda: journal.get(key)) for key in keys]
    out += [outcome(lambda: key in journal) for key in keys]
    out.append(outcome(lambda: list(journal.rows().items())))
    return out


def write_edges(path: Path, lines: list[str], cut: int) -> tuple[Journal, int]:
    """:func:`write_index` for an edge log."""
    path.write_text("".join(line + "\n" for line in lines[:cut]), encoding="utf-8")
    Journal(path, _edge_key).write_keys()
    covered = path.stat().st_size
    keyed = Journal(path, _edge_key)
    assert keyed.covered == covered
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines[cut:]))
    return keyed, covered


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(EDGE_ROWS, min_size=1, max_size=12),
    cut=st.integers(1, 12),
    repeat=st.integers(0, 11),
    where=st.floats(0, 1, exclude_max=True),
    byte=st.integers(0, 255),
)
def test_an_edge_key_file_cut_at_any_line_answers_as_a_fresh_parse(rows, cut, repeat, where, byte):
    cut = min(cut, len(rows))
    # A covered key repeated after the cut, by a row no earlier one equals.
    rows = [*rows, {**rows[repeat % cut], "n": 10}]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lineage.jsonl"
        keyed, covered = write_edges(path, [canonical_json(row) for row in rows], cut)
        assert keyed.covered == covered
        assert keyed.get(_edge_key(rows[-1]))["n"] != 10
        assert edge_answers(keyed) == edge_answers(plain_edges(path))

        data = bytearray(path.read_bytes())
        at = int(where * covered)
        if data[at] != byte:
            data[at] = byte
            path.write_bytes(data)
            assert edge_answers(Journal(path, _edge_key)) == edge_answers(plain_edges(path))


@pytest.mark.parametrize("damage", ["stale", "truncated", "foreign_version"])
def test_a_damaged_or_stale_lineage_key_file_is_ignored_with_identical_answers(tmp_path, damage):
    path = tmp_path / "lineage.jsonl"
    rows = [{"from": f"artifact:{n % 7}", "to": f"run:{n % 5}", "role": "consumed", "n": n} for n in range(40)]
    lines = [canonical_json(row) for row in rows]
    write_edges(path, lines, len(lines))  # covering the whole log, as for the index above
    keyed = Journal(path, _edge_key)
    assert keyed.covered > 0
    if damage == "stale":
        path.write_text("".join(line + "\n" for line in reversed(lines)), encoding="utf-8")
    else:
        keyed.keys_path.write_bytes(DAMAGE[damage](keyed.keys_path.read_bytes()))
    keyed = Journal(path, _edge_key)
    assert keyed.covered == 0
    keys = [_edge_key(row) for row in rows]
    assert edge_answers(keyed, keys) == edge_answers(plain_edges(path), keys)


def test_recording_edges_keys_only_the_tail_the_candidates_and_the_runs_own_edges(
    repo, store, run_store, monkeypatch
):
    record = make_run(store, run_store, steps=3)
    log = LineageLog(repo)
    own = log.record_edges(record, store=store)
    batch = 0
    while not log._journal.keys_path.exists():
        log.append_edges(LineageEdge(f"artifact:{batch}-{n}", f"run:{batch}", "consumed") for n in range(50))
        batch += 1
    tail = [LineageEdge(f"artifact:tail-{n}", "run:tail", "consumed") for n in range(5)]
    assert LineageLog(repo).append_edges(tail) == len(tail)
    keyed = []
    key = lineage._edge_key

    def counting_key(row):
        keyed.append(row)
        return key(row)

    monkeypatch.setattr(lineage, "_edge_key", counting_key)
    assert LineageLog(repo).record_edges(record, store=store) == 0
    # The append of the tail rewrote the key file, so no line is parsed. Each of the run's edges is
    # keyed once as given and once as a covered line recorded under the run's end.
    assert len(keyed) == 2 * own
    monkeypatch.undo()
    assert LineageLog(repo)._journal.covered == repo.lineage_path.stat().st_size


def test_append_stats_the_journal_once_and_appends_only_new_keys(tmp_path, monkeypatch):
    path = tmp_path / "lineage.jsonl"
    old = [{"from": "artifact:a", "to": f"run:{n}", "role": "consumed"} for n in range(6)]
    assert Journal(path, _edge_key).append([*old[:3], old[0]]) == 3
    Journal(path, _edge_key).write_keys()
    Journal(path, _edge_key).append(old[3:])
    journal = Journal(path, _edge_key)
    stats = []
    stat = os.stat

    def counting_stat(target, *args, **kwargs):
        if os.fspath(target) == os.fspath(path):
            stats.append(target)
        return stat(target, *args, **kwargs)

    new = {"from": "run:6", "to": "artifact:b", "role": "produced"}
    monkeypatch.setattr(os, "stat", counting_stat)
    assert journal.append([old[1], new, old[4], new]) == 1
    monkeypatch.undo()
    assert len(stats) == 1
    assert [json.loads(line) for line in path.read_text().splitlines()] == [*old, new]
