from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ca_engine.store as store_mod
from ca_engine.errors import IntegrityViolationError, LockHeldError, NotFoundError, RepoNotInitializedError, StorageError
from ca_engine.lineage import LineageEdge, LineageLog
from ca_engine.repo import Repository
from ca_engine.store import ArtifactId, ArtifactKind, ArtifactStore, WriteBatch, sha256_hex
from ca_engine.util import atomic_write_bytes
from helpers import journal_rows, object_count, object_digest_reference, tear

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def corrupt_object(store, artifact_id, offset=0, flip=0x01):
    path = store.object_path(artifact_id.hash)
    raw = bytearray(path.read_bytes())
    raw[offset] ^= flip
    path.write_bytes(bytes(raw))


def test_put_empty_blob_has_fixed_digest(store):
    artifact_id = store.put(ArtifactKind.DATA, b"", "text/plain")
    assert artifact_id.hash == SHA256_EMPTY
    assert store.list(ArtifactKind.DATA)[0].size == 0


def test_roundtrip(store):
    for blob in (b"", b"x", b"hello world\n", bytes(range(256)) * 11):
        artifact_id = store.put(ArtifactKind.CODE, blob)
        assert store.get(artifact_id) == blob


def test_put_is_idempotent(store):
    blob = b"12345"
    first = store.put(ArtifactKind.DATA, blob)
    before = object_count(store)
    second = store.put(ArtifactKind.DATA, blob)
    assert first == second
    assert object_count(store) == before
    assert len(store.list(ArtifactKind.DATA)) == 1


def test_reput_keeps_first_labels(store):
    blob = b"labelled"
    store.put(ArtifactKind.DATA, blob, labels={"origin": "first"})
    store.put(ArtifactKind.DATA, blob, labels={"origin": "second"})
    records = store.list(ArtifactKind.DATA)
    assert len(records) == 1
    assert records[0].labels == {"origin": "first"}


def test_same_bytes_two_kinds_are_two_artifacts(store):
    blob = b"shared-bytes"
    id_data = store.put(ArtifactKind.DATA, blob)
    id_test = store.put(ArtifactKind.TEST, blob)
    assert id_data != id_test
    assert id_data.hash == id_test.hash
    assert object_count(store) == 1
    assert len(store.list()) == 2


@pytest.mark.skipif(shutil.which("sha256sum") is None, reason="sha256sum unavailable")
def test_digest_matches_external_hashing_tool(store, tmp_path):
    blob = json.dumps({"acc": 0.9}).encode()
    path = tmp_path / "payload.json"
    path.write_bytes(blob)
    expected = subprocess.run(
        ["sha256sum", str(path)], capture_output=True, text=True, check=True
    ).stdout.split()[0]
    artifact_id = store.put(ArtifactKind.RESULT, blob, "application/json", {"run": "r1"})
    assert artifact_id.hash == expected


def test_get_unknown_is_not_found(store):
    missing = ArtifactId(ArtifactKind.DATA, "0" * 64)
    with pytest.raises(NotFoundError):
        store.get(missing)
    with pytest.raises(NotFoundError):
        store.verify(missing)


def test_corruption_detected(store):
    artifact_id = store.put(ArtifactKind.DATA, b"precious bytes")
    assert store.verify(artifact_id) is True
    corrupt_object(store, artifact_id, offset=3)
    assert store.verify(artifact_id) is False
    with pytest.raises(IntegrityViolationError):
        store.get(artifact_id)


def test_every_single_byte_flip_is_detected(store):
    rng = random.Random(7)
    blob = bytes(rng.randrange(256) for _ in range(64))
    artifact_id = store.put(ArtifactKind.DATA, blob)
    path = store.object_path(artifact_id.hash)
    for offset in range(len(blob)):
        raw = bytearray(blob)
        raw[offset] ^= 1 + rng.randrange(255)
        path.write_bytes(bytes(raw))
        assert store.verify(artifact_id) is False
    path.write_bytes(blob)
    assert store.verify(artifact_id) is True


def test_list_fresh_repo_empty(store):
    assert store.list() == []


def test_list_by_kind_counts(store):
    store.put(ArtifactKind.DATA, b"a")
    store.put(ArtifactKind.DATA, b"b")
    store.put(ArtifactKind.RESULT, b"c")
    assert len(store.list(ArtifactKind.DATA)) == 2
    assert len(store.list(ArtifactKind.RESULT)) == 1
    assert len(store.list()) == 3


def test_label_filter_matches_brute_force(store):
    rng = random.Random(13)
    for index in range(30):
        labels = {}
        if rng.random() < 0.7:
            labels["run"] = f"r{rng.randrange(3)}"
        if rng.random() < 0.4:
            labels["stage"] = f"s{rng.randrange(2)}"
        store.put(ArtifactKind.RESULT, f"blob-{index}".encode(), labels=labels)
    wanted = {"run": "r1"}
    expected = sorted(
        (
            rec
            for rec in store.list()
            if all(rec.labels.get(k) == v for k, v in wanted.items())
        ),
        key=lambda r: (r.created_at, r.id.kind.value, r.id.hash),
    )
    assert store.list(ArtifactKind.RESULT, wanted) == expected


def test_listing_is_pure(store):
    for index in range(5):
        store.put(ArtifactKind.DATA, f"{index}".encode())
    assert store.list() == store.list()


def test_label_keys_must_be_nonempty(store):
    with pytest.raises(ValueError):
        store.put(ArtifactKind.DATA, b"x", labels={"": "v"})


def test_uninitialized_repo_rejected(tmp_path):
    with pytest.raises(RepoNotInitializedError):
        ArtifactStore(Repository(tmp_path / "nowhere"))


def test_second_process_fails_fast_when_lock_held(repo, store):
    other_repo = Repository(repo.root, lock_timeout=0.05)
    other_store = ArtifactStore(other_repo)
    with repo.write_lock():
        with pytest.raises(LockHeldError):
            other_store.put(ArtifactKind.DATA, b"blocked")
    # Lock released: the write now goes through.
    assert other_store.put(ArtifactKind.DATA, b"blocked")


def test_taking_the_write_lock_stats_neither_the_index_nor_the_objects_dir(repo, store, monkeypatch):
    checked = {os.fspath(repo.index_path), os.fspath(repo.objects_dir)}
    stats = []
    stat = os.stat

    def counting_stat(path, *args, **kwargs):
        if os.fspath(path) in checked:
            stats.append(path)
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counting_stat)
    with repo.write_lock():
        pass
    assert stats == []


def test_a_repository_removed_under_open_handles_is_not_recreated(repo, store):
    lineage = LineageLog(repo)
    shutil.rmtree(repo.root)
    with pytest.raises(RepoNotInitializedError):
        lineage.append_edges([LineageEdge("artifact:a", "run:r", "consumed")])
    with pytest.raises(StorageError):
        store.put(ArtifactKind.DATA, b"into a removed repository")
    assert not repo.root.exists()


def test_hash_keyed_access(store):
    blob = b"hash keyed"
    id_data = store.put(ArtifactKind.DATA, blob)
    store.put(ArtifactKind.RESULT, blob)
    records = store.find_by_hash(id_data.hash)
    # Deterministic resolution order: lexicographically smallest kind first.
    assert [r.id.kind for r in records] == [ArtifactKind.DATA, ArtifactKind.RESULT]
    assert store.get_by_hash(id_data.hash) == blob
    with pytest.raises(NotFoundError):
        store.get_by_hash("b" * 64)
    corrupt_object(store, id_data)
    with pytest.raises(IntegrityViolationError):
        store.get_by_hash(id_data.hash)


def test_index_visible_to_second_store_instance(repo, store):
    artifact_id = store.put(ArtifactKind.DATA, b"cross-instance")
    fresh = ArtifactStore(repo)
    assert fresh.get(artifact_id) == b"cross-instance"
    assert sha256_hex(b"cross-instance") == artifact_id.hash


def test_torn_index_tail_is_ignored_then_cut(repo, store):
    first = store.put(ArtifactKind.DATA, b"before the crash")
    tear(repo.index_path)
    fresh = ArtifactStore(repo)
    assert [r.id for r in fresh.list()] == [first]
    second = fresh.put(ArtifactKind.DATA, b"after the crash")
    assert [r.id for r in ArtifactStore(repo).list()] == [first, second]
    assert [row["hash"] for row in journal_rows(repo.index_path)] == [first.hash, second.hash]


@pytest.mark.parametrize(
    "line",
    [
        "{not json",
        json.dumps({"kind": "bogus", "hash": "a" * 64}),
        json.dumps({"kind": "data", "hash": "A" * 64}),
        json.dumps({"hash": "a" * 64}),
        "[1, 2]",
    ],
)
def test_malformed_index_line_is_an_integrity_error(repo, store, line):
    store.put(ArtifactKind.DATA, b"one")
    store.put(ArtifactKind.DATA, b"two")
    first, second = repo.index_path.read_text().splitlines(keepends=True)
    repo.index_path.write_text(first + line + "\n" + second)
    with pytest.raises(IntegrityViolationError, match=r"index\.jsonl: line 2"):
        ArtifactStore(repo).list()



def plant_orphan(store, data):
    """Wrong bytes at ``data``'s object path with no index row, as a crash mid-write leaves."""
    obj = store.object_path(sha256_hex(data))
    obj.parent.mkdir(parents=True, exist_ok=True)
    obj.write_bytes(b"torn")


def test_put_rewrites_an_unindexed_object_file(store):
    data = b"the bytes that belong here\n"
    plant_orphan(store, data)
    artifact_id = store.put(ArtifactKind.DATA, data)
    assert store.get(artifact_id) == data
    assert store.verify(artifact_id)


def test_batch_stages_without_indexing_and_commits_once(repo, store, monkeypatch):
    data = [b"log\n", b"output\n", b"log\n"]
    plant_orphan(store, data[1])
    batch = WriteBatch(store)
    ids = [batch.put(ArtifactKind.RESULT, blob) for blob in data]
    assert ids[0] == ids[2]
    assert not any(store.has(artifact_id) for artifact_id in ids)
    # Staging writes no file: the orphan is as it was, and the log has none.
    assert store.object_path(ids[1].hash).read_bytes() == b"torn"
    assert not store.object_path(ids[0].hash).exists()
    # A write puts the staged bytes in place of the orphan; commit writes the log.
    batch.write([ids[1]])
    assert store.object_path(ids[1].hash).read_bytes() == data[1]
    assert not any(store.has(artifact_id) for artifact_id in ids)

    entered = []
    original = Repository.write_lock

    def write_lock(self, *args, **kwargs):
        entered.append(self.root)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Repository, "write_lock", write_lock)
    batch.commit()
    batch.commit()  # nothing left to commit
    assert entered == [repo.root]
    assert [store.get(artifact_id) for artifact_id in ids] == data
    assert [row["hash"] for row in journal_rows(repo.index_path)] == [ids[0].hash, ids[1].hash]


def test_concurrent_puts_and_writes_of_one_blob_write_it_once(repo, store, monkeypatch):
    blobs = [b"first blob\n" * 1000, b"second blob\n" * 1000]
    kinds = [ArtifactKind.DATA, ArtifactKind.RESULT]
    workers = 16
    start = threading.Barrier(workers)
    written = []

    def slow_write(path, data, **kwargs):
        written.append(path)
        time.sleep(0.05)  # a wide window for a second write of the same bytes
        atomic_write_bytes(path, data, **kwargs)

    monkeypatch.setattr(store_mod, "atomic_write_bytes", slow_write)
    batch = WriteBatch(store)

    def stage(i):
        blob = blobs[i % 2]
        start.wait(timeout=30)
        artifact_id = batch.put(kinds[i // 2 % 2], blob)
        batch.write([artifact_id])
        return store.object_path(artifact_id.hash).read_bytes() == blob

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            in_place = list(pool.map(stage, range(workers), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(in_place)
    assert sorted(written) == sorted(store.object_path(sha256_hex(blob)) for blob in blobs)
    batch.commit()
    assert len(written) == len(blobs)
    indexed = [(row["kind"], row["hash"]) for row in journal_rows(repo.index_path)]
    assert sorted(indexed) == sorted((kind.value, sha256_hex(blob)) for kind in kinds for blob in blobs)


def test_an_id_indexed_before_commit_is_not_indexed_twice(repo, store):
    batch = WriteBatch(store)
    staged = batch.put(ArtifactKind.DATA, b"raced")
    ArtifactStore(repo).put(ArtifactKind.DATA, b"raced")
    batch.commit()
    assert [row["hash"] for row in journal_rows(repo.index_path)] == [staged.hash]


@pytest.mark.parametrize("staged", [1, 12])
def test_commit_stats_the_index_at_most_twice_whatever_it_stages(repo, store, monkeypatch, staged):
    batch = WriteBatch(store)
    ids = [batch.put(ArtifactKind.RESULT, b"blob %d" % i) for i in range(staged)]
    ArtifactStore(repo).put(ArtifactKind.DATA, b"indexed by another writer after staging")
    stats = []
    stat = os.stat

    def counting_stat(path, *args, **kwargs):
        if os.fspath(path) == os.fspath(repo.index_path):
            stats.append(path)
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counting_stat)
    batch.commit()
    monkeypatch.undo()
    assert len(stats) <= 2
    assert all(ArtifactStore(repo).has(artifact_id) for artifact_id in ids)


def test_staging_new_bytes_stats_the_index_once_per_put(repo, store, monkeypatch):
    store.put(ArtifactKind.DATA, b"indexed")
    batch = WriteBatch(store)
    stats = []
    stat = os.stat

    def counting_stat(path, *args, **kwargs):
        if os.fspath(path) == os.fspath(repo.index_path):
            stats.append(path)
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counting_stat)
    ids = [batch.put(ArtifactKind.RESULT, b"new %d" % n) for n in range(3)]
    ids.append(batch.put(ArtifactKind.CODE, b"indexed"))  # new as code, its object file already indexed
    monkeypatch.undo()
    assert len(stats) == len(ids)
    assert object_count(store) == 1
    batch.commit()
    assert object_count(store) == 4
    assert all(ArtifactStore(repo).has(artifact_id) for artifact_id in ids)


@pytest.mark.parametrize("fault", [None, "write", "fsync"])
def test_commit_appends_no_row_for_a_blob_whose_file_is_not_written_and_fsynced(repo, store, monkeypatch, fault):
    store.put(ArtifactKind.DATA, b"indexed")
    rows = journal_rows(repo.index_path)
    batch = WriteBatch(store)
    ids = [batch.put(ArtifactKind.RESULT, b"blob %d" % n) for n in range(3)]
    batch.write(ids[:1])
    failing = store.object_path(ids[2].hash)
    written, synced, appended = [], [], []
    write, fsync_file, append = store_mod.atomic_write_bytes, store_mod.fsync_file, store._index.append

    def checked_write(path, data, **kwargs):
        if fault == "write" and path == failing:
            raise StorageError(f"cannot write {path}: No space left on device")
        write(path, data, **kwargs)
        written.append(path)

    def checked_fsync(path):
        if fault == "fsync" and path == failing:
            raise StorageError(f"cannot write {path}: Input/output error")
        fsync_file(path)
        synced.append(path)

    def checked_append(rows):
        rows = list(rows)
        appended.extend(row["hash"] for row in rows)
        assert all(store.object_path(row["hash"]) in synced for row in rows)
        return append(rows)

    monkeypatch.setattr(store_mod, "atomic_write_bytes", checked_write)
    monkeypatch.setattr(store_mod, "fsync_file", checked_fsync)
    monkeypatch.setattr(store._index, "append", checked_append)
    if fault is None:
        batch.commit()
        assert sorted(appended) == sorted(artifact_id.hash for artifact_id in ids)
        assert written == [store.object_path(artifact_id.hash) for artifact_id in ids[1:]]
        assert all(ArtifactStore(repo).has(artifact_id) for artifact_id in ids)
    else:
        with pytest.raises(StorageError, match=str(failing)):
            batch.commit()
        assert appended == []
        assert journal_rows(repo.index_path) == rows


@pytest.mark.parametrize(
    "blob, kept", [(b' \n\t["a", "b"]\n', True), (b"\x00\x01[binary", False), (b"  {}", False)]
)
def test_get_by_hash_keeps_only_blobs_with_the_lead_byte(store, blob, kept):
    artifact_id = store.put(ArtifactKind.DATA, blob)
    assert store.get_by_hash(artifact_id.hash, lead=b"[") == (blob if kept else None)
    assert store.get_by_hash(artifact_id.hash) == blob
    corrupt_object(store, artifact_id, offset=len(blob) - 1)
    with pytest.raises(IntegrityViolationError):
        store.get_by_hash(artifact_id.hash, lead=b"[")


@pytest.mark.parametrize("size", [0, store_mod._CHUNK, store_mod._CHUNK + 1, 3 << 20])
def test_objects_read_whole_or_mapped_verify_and_detect_flips(store, monkeypatch, size):
    blob = random.Random(size).randbytes(size)
    artifact_id = store.put(ArtifactKind.DATA, blob)
    maps = []
    mapping = store_mod.mmap.mmap
    monkeypatch.setattr(store_mod.mmap, "mmap", lambda *args, **kwargs: maps.append(args) or mapping(*args, **kwargs))
    assert store.verify(artifact_id) is True
    assert store.get(artifact_id) == blob
    assert store.get_by_hash(artifact_id.hash) == blob
    assert len(maps) == (3 if size > store_mod._CHUNK else 0)
    path = store.object_path(artifact_id.hash)
    reads = (store.get, lambda aid: store.get_by_hash(aid.hash, lead=b"["), lambda aid: WriteBatch(store).check(aid))
    for offset in sorted({0, size // 2, size - 1}) if size else ():
        raw = bytearray(blob)
        raw[offset] ^= 0x01
        path.write_bytes(raw)
        assert store.verify(artifact_id) is False
        for read in reads:
            with pytest.raises(IntegrityViolationError):
                read(artifact_id)
    path.unlink()
    assert store.verify(artifact_id) is False
    for read in reads:
        with pytest.raises(IntegrityViolationError, match="missing"):
            read(artifact_id)


WHITESPACE = st.lists(st.sampled_from(b" \t\n\r\x0b\x0c"), min_size=1, max_size=6).map(bytes)
# Leading whitespace that ends within 64 bytes of the 1 MiB chunk boundary, on either side.
WIDE_BLANKS = st.tuples(WHITESPACE, st.integers(store_mod._CHUNK - 64, store_mod._CHUNK + 64)).map(
    lambda pair: (pair[0] * (pair[1] // len(pair[0]) + 1))[: pair[1]]
)
JSON_ARRAYS = st.lists(st.text(max_size=8), max_size=4).map(lambda items: json.dumps(items).encode())
OTHER_BYTES = st.binary(min_size=1, max_size=16)
LEAD_BLOBS = st.one_of(
    st.tuples(WIDE_BLANKS, JSON_ARRAYS | OTHER_BYTES | st.just(b"")).map(b"".join),
    st.tuples(st.just(b"") | WHITESPACE, JSON_ARRAYS).map(b"".join),
    OTHER_BYTES,
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=LEAD_BLOBS, lead=st.sampled_from([b"[", None]))
def test_get_by_hash_returns_what_the_chunk_loop_kept(store, blob, lead):
    """The empty blob is left out: with ``lead``, the chunk loop returned None and the reader returns b""."""
    artifact_id = store.put(ArtifactKind.DATA, blob)
    digest, kept = object_digest_reference(store.object_path(artifact_id.hash), lead)
    assert digest == artifact_id.hash
    assert store.get_by_hash(artifact_id.hash, lead) == kept
