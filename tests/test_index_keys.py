"""The artifact index's key file changes how fast lookups are, never what they answer."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ca_engine.cli import main
from ca_engine.errors import IntegrityViolationError
from ca_engine.journal import Journal
from ca_engine.store import KEY_FILE_SLACK, ArtifactIndex, ArtifactKind, ArtifactStore, _index_key
from ca_engine.util import canonical_json

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
    """The index as a fresh parse reads it."""
    return Journal(path, _index_key, group=lambda key: key[1])


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


def write_index(index_path: Path, lines: list[str], cut: int) -> int:
    """Index ``lines`` with a key file covering the first ``cut``; the covered byte count."""
    index_path.write_text("".join(line + "\n" for line in lines[:cut]), encoding="utf-8")
    ArtifactIndex(index_path, index_path.with_suffix(".idx")).write_keys()
    covered = index_path.stat().st_size
    with open(index_path, "a", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines[cut:]))
    return covered


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
        covered = write_index(path, lines, cut)
        keyed = ArtifactIndex(path, path.with_suffix(".idx"))
        assert keyed.covered == covered
        assert answers(keyed) == answers(plain(path))

        # A changed byte anywhere in the covered prefix answers as a fresh parse of the changed index does ...
        data = bytearray(path.read_bytes())
        at = int(where * covered)
        if data[at] != byte:
            data[at] = byte
            path.write_bytes(data)
            assert answers(ArtifactIndex(path, path.with_suffix(".idx"))) == answers(plain(path))
        # ... and one that cannot be UTF-8 raises, naming the line it is on, unless it
        # replaced the last newline and so left a torn tail that every read ignores.
        data[at] = 0xFF
        path.write_bytes(data)
        keyed = ArtifactIndex(path, path.with_suffix(".idx"))
        if b"\n" in data[at:]:
            line = data.count(b"\n", 0, at) + 1
            with pytest.raises(IntegrityViolationError, match=rf"index\.jsonl: line {line}: not UTF-8"):
                KEYS[0] in keyed
        assert answers(keyed) == answers(plain(path))


def index_lines(count: int) -> list[str]:
    kinds = [kind.value for kind in ArtifactKind]
    return [
        canonical_json({"kind": kinds[n % len(kinds)], "hash": hashlib.sha256(b"%d" % (n % 7)).hexdigest(), "n": n})
        for n in range(count)
    ]


def resign(raw: bytes) -> bytes:
    """Key file bytes with the trailing digest recomputed over the changed body."""
    return raw[:-32] + hashlib.sha256(raw[:-32]).digest()


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
    write_index(path, lines, 30)
    assert ArtifactIndex(path, keys_path).covered > 0
    if damage == "stale":
        # Another index, longer than the covered prefix, whose bytes the key file does not describe.
        path.write_text("".join(line + "\n" for line in reversed(lines)), encoding="utf-8")
    else:
        keys_path.write_bytes(DAMAGE[damage](keys_path.read_bytes()))
    keyed = ArtifactIndex(path, keys_path)
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
    assert not repo.index_keys_path.exists()
    baseline = count_fsyncs(monkeypatch, lambda: ids.append(store.put(ArtifactKind.CODE, b"below")))
    while not repo.index_keys_path.exists():
        fsyncs = count_fsyncs(monkeypatch, lambda: ids.append(store.put(ArtifactKind.CODE, b"%d" % len(ids))))
        assert fsyncs == baseline
    assert repo.index_path.stat().st_size >= KEY_FILE_SLACK
    fresh = ArtifactStore(repo)
    assert fresh._index.covered == repo.index_path.stat().st_size
    assert all(fresh.has(artifact_id) for artifact_id in ids)
    assert [r.id for r in fresh.find_by_hash(ids[3].hash)] == [ids[3]]


def test_readers_never_write_the_key_file(repo, store):
    ids = put_until(store, KEY_FILE_SLACK + 100)
    repo.index_keys_path.unlink()
    fresh = ArtifactStore(repo)
    assert fresh.get(ids[0]) == b"blob 0" and fresh.find_by_hash(ids[-1].hash) and fresh.list()
    assert not repo.index_keys_path.exists()


def test_a_key_file_that_cannot_be_written_costs_only_speed(repo, store):
    repo.index_keys_path.mkdir()
    ids = put_until(store, KEY_FILE_SLACK + 100)
    ids.append(store.put(ArtifactKind.RESULT, b"after"))
    fresh = ArtifactStore(repo)
    assert fresh._index.covered == 0
    assert all(fresh.has(artifact_id) for artifact_id in ids)


def test_a_garbled_covered_line_exits_3_naming_it_for_a_lookup_of_another_artifact(repo, store, capsys):
    ids = put_until(store, KEY_FILE_SLACK + 100)
    assert ArtifactStore(repo)._index.covered > 0
    lines = repo.index_path.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5].replace(b'"kind":', b'"kind" ', 1)
    repo.index_path.write_bytes(b"".join(lines))
    assert main(["artifact", "verify", str(ids[-1]), "--repo", str(repo.root)]) == 3
    assert "index.jsonl: line 6:" in capsys.readouterr().err
