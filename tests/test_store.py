from __future__ import annotations

import json
import random
import shutil
import subprocess

import pytest

from ca_engine.errors import IntegrityViolationError, LockHeldError, NotFoundError, RepoNotInitializedError
from ca_engine.repo import Repository
from ca_engine.store import ArtifactId, ArtifactKind, ArtifactStore, sha256_hex
from helpers import journal_rows, tear

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
    before = store.object_count()
    second = store.put(ArtifactKind.DATA, blob)
    assert first == second
    assert store.object_count() == before
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
    assert store.object_count() == 1
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

