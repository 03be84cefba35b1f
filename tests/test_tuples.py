from __future__ import annotations

import multiprocessing
import random
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ca_engine.errors import DanglingReferenceError, InvalidTupleError, RunConflictError
from ca_engine.repo import Repository
from ca_engine.store import ArtifactId, ArtifactKind, ArtifactStore
from ca_engine.tuples import (
    ArtifactVersionTuple,
    RunRecord,
    RunStore,
    VersionPin,
    aligned,
    canonical_encode,
    diff_tuples,
    tuple_hash,
)
from helpers import baseline_tuple, make_run

VERSION_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789.-+"

component_names = st.from_regex(r"[a-z0-9_-]{1,10}", fullmatch=True)
versions = st.text(alphabet=VERSION_ALPHABET, min_size=1, max_size=12)


def pins_from(mapping):
    return ArtifactVersionTuple(tuple(VersionPin(c, v) for c, v in mapping.items()))


@st.composite
def tuples(draw, min_extra=0, max_extra=4):
    extra = draw(
        st.dictionaries(component_names, versions, min_size=min_extra, max_size=max_extra)
    )
    mapping = {
        "code": draw(versions),
        "data": draw(versions),
        "dependencies": draw(versions),
        "deployment": draw(versions),
    }
    mapping.update(extra)
    return pins_from(mapping)


def test_encoding_ignores_insertion_order():
    forward = ArtifactVersionTuple.of(
        VersionPin("data", "x1"),
        VersionPin("code", "c1"),
        VersionPin("dependencies", "d1"),
        VersionPin("deployment", "y1"),
    )
    reversed_ = ArtifactVersionTuple.of(
        VersionPin("deployment", "y1"),
        VersionPin("dependencies", "d1"),
        VersionPin("code", "c1"),
        VersionPin("data", "x1"),
    )
    assert canonical_encode(forward) == canonical_encode(reversed_)


def test_encoding_starts_with_lexicographically_first_component():
    assert canonical_encode(baseline_tuple()).startswith(b"code\nc1\n")


def test_extra_component_placement_matches_sorting_oracle():
    avt = baseline_tuple(extra=[VersionPin("gpu_driver", "535.54")])
    encoded = canonical_encode(avt).decode()
    order = [line for i, line in enumerate(encoded.split("\n")) if i % 3 == 0 and line]
    assert order == sorted(["code", "data", "dependencies", "deployment", "gpu_driver"])


def test_missing_baseline_component_is_invalid():
    avt = ArtifactVersionTuple.of(
        VersionPin("code", "c1"), VersionPin("data", "x1"), VersionPin("dependencies", "d1")
    )
    with pytest.raises(InvalidTupleError):
        canonical_encode(avt)
    with pytest.raises(InvalidTupleError):
        tuple_hash(avt)


def test_duplicate_component_rejected():
    with pytest.raises(InvalidTupleError):
        ArtifactVersionTuple.of(VersionPin("code", "a"), VersionPin("code", "b"))


def test_bad_pin_fields_rejected():
    with pytest.raises(InvalidTupleError):
        VersionPin("Code", "v1")
    with pytest.raises(InvalidTupleError):
        VersionPin("code", "")
    with pytest.raises(InvalidTupleError):
        VersionPin("code", "v1\nv2")
    with pytest.raises(InvalidTupleError):
        VersionPin("code", "v1", content="zz")


AT = "2024-01-01T00:00:00.000000Z"


@pytest.mark.parametrize(
    "make",
    [
        lambda suffix: ArtifactId.parse("data:" + "a" * 64 + suffix),
        lambda suffix: VersionPin("code" + suffix, "v1"),
        lambda suffix: RunRecord(
            "0123456789ab-000001" + suffix, baseline_tuple(), "validation", "main", AT, AT, "succeeded"
        ).validate(),
    ],
    ids=["artifact-id", "component", "run-id"],
)
def test_ids_and_names_reject_a_trailing_newline(make):
    make("")
    with pytest.raises((ValueError, InvalidTupleError)):
        make("\n")


def test_hash_is_deterministic():
    assert tuple_hash(baseline_tuple()) == tuple_hash(baseline_tuple())


@pytest.mark.skipif(shutil.which("sha256sum") is None, reason="sha256sum unavailable")
def test_hash_matches_external_tool_and_changes_on_data_bump(tmp_path):
    def external(avt):
        path = tmp_path / "encoding.bin"
        path.write_bytes(canonical_encode(avt))
        return subprocess.run(
            ["sha256sum", str(path)], capture_output=True, text=True, check=True
        ).stdout.split()[0]

    original = baseline_tuple()
    bumped = original.with_pin(VersionPin("data", "x2"))
    assert tuple_hash(original) == external(original)
    assert tuple_hash(bumped) == external(bumped)
    assert tuple_hash(original) != tuple_hash(bumped)


def test_diff_identity_empty():
    avt = baseline_tuple()
    assert diff_tuples(avt, avt) == []


def test_diff_single_change():
    original = baseline_tuple()
    bumped = original.with_pin(VersionPin("data", "x2"))
    entries = diff_tuples(original, bumped)
    assert len(entries) == 1
    assert entries[0].component == "data"
    assert entries[0].a.version == "x1"
    assert entries[0].b.version == "x2"


def test_diff_matches_brute_force_on_random_tuples():
    rng = random.Random(99)
    names = ["code", "data", "dependencies", "deployment", "gpu", "blas"]
    for _ in range(200):
        map_a = {n: f"v{rng.randrange(3)}" for n in rng.sample(names, rng.randrange(1, 7))}
        map_b = {n: f"v{rng.randrange(3)}" for n in rng.sample(names, rng.randrange(1, 7))}
        a, b = pins_from(map_a), pins_from(map_b)
        expected = sorted(
            component
            for component in set(map_a) | set(map_b)
            if map_a.get(component) != map_b.get(component)
        )
        got = diff_tuples(a, b)
        assert [e.component for e in got] == expected
        for entry in got:
            assert (entry.a.version if entry.a else None) == map_a.get(entry.component)
            assert (entry.b.version if entry.b else None) == map_b.get(entry.component)


def test_aligned_trivials():
    avt = baseline_tuple()
    assert aligned(avt, avt)
    assert not aligned(avt, baseline_tuple(extra=[VersionPin("gpu_driver", "1")]))
    rebased = pins_from({"code": "c9", "data": "x9", "dependencies": "d9", "deployment": "y9"})
    assert aligned(avt, rebased)


# -- persistence -------------------------------------------------------------


def test_mint_sequence_per_tuple(run_store):
    avt = baseline_tuple()
    prefix = tuple_hash(avt)[:12]
    assert run_store.mint_run_id(avt) == f"{prefix}-000001"
    assert run_store.mint_run_id(avt) == f"{prefix}-000002"


def test_mint_prefix_distinguishes_tuples(run_store):
    import hashlib

    def independent_prefix(**versions):
        mapping = {"code": "c1", "data": "x1", "dependencies": "d1", "deployment": "y1", **versions}
        encoded = "".join(f"{c}\n{mapping[c]}\n\n" for c in sorted(mapping)).encode()
        return hashlib.sha256(encoded).hexdigest()[:12]

    first = run_store.mint_run_id(baseline_tuple())
    second = run_store.mint_run_id(baseline_tuple(data="x2"))
    assert first.split("-")[0] == independent_prefix()
    assert second.split("-")[0] == independent_prefix(data="x2")
    assert first.split("-")[0] != second.split("-")[0]
    assert second.endswith("-000001")


def test_mint_counter_survives_reopen(repo, store, run_store):
    avt = baseline_tuple()
    token = run_store.mint_run_id(avt)
    reopened = RunStore(repo, store)
    assert reopened.mint_run_id(avt) != token
    assert reopened.mint_run_id(avt).endswith("-000003")


def test_a_minted_id_is_reserved_by_its_workdir(repo, run_store):
    run_id = run_store.mint_run_id(baseline_tuple())
    assert [path.name for path in repo.tmp_dir.iterdir()] == [run_id]
    assert list((repo.tmp_dir / run_id).iterdir()) == []


def test_threads_with_their_own_handles_mint_distinct_ids(repo, store):
    avt = baseline_tuple()
    handles = [RunStore(repo, store) for _ in range(8)]
    barrier = threading.Barrier(len(handles))

    def mint(handle):
        barrier.wait(timeout=30)
        return [handle.mint_run_id(avt) for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(handles)) as pool:
            ids = [run_id for minted in pool.map(mint, handles, timeout=60) for run_id in minted]
    finally:
        sys.setswitchinterval(interval)
    prefix = tuple_hash(avt)[:12]
    assert sorted(ids) == [f"{prefix}-{seq:06d}" for seq in range(1, 81)]


def _mint_in_child(root, count, out):
    repo = Repository(root)
    run_store = RunStore(repo, ArtifactStore(repo))
    out.put([run_store.mint_run_id(baseline_tuple()) for _ in range(count)])


def test_processes_mint_distinct_ids(repo):
    context = multiprocessing.get_context("spawn")
    out = context.Queue()
    children = [context.Process(target=_mint_in_child, args=(repo.root, 20, out)) for _ in range(3)]
    for child in children:
        child.start()
    ids = [run_id for _ in children for run_id in out.get(timeout=60)]
    for child in children:
        child.join(timeout=30)
        assert not child.is_alive() and child.exitcode == 0
    assert len(set(ids)) == 60


def test_a_leftover_workdir_keeps_its_id_taken(repo, run_store):
    avt = baseline_tuple()
    prefix = tuple_hash(avt)[:12]
    (repo.tmp_dir / f"{prefix}-000001").mkdir()
    assert run_store.mint_run_id(avt) == f"{prefix}-000002"


def test_a_recorded_id_is_not_handed_out_again_once_its_workdir_is_gone(repo, store, run_store):
    record = make_run(store, run_store)
    shutil.rmtree(repo.tmp_dir / record.run_id)
    assert run_store.mint_run_id(record.tuple) == record.run_id[:-6] + "000002"
    assert sorted(path.name for path in repo.tmp_dir.iterdir()) == [record.run_id[:-6] + "000002"]


def test_the_300th_mint_of_a_tuple_checks_at_most_24_records(repo, run_store, monkeypatch):
    avt = baseline_tuple()
    checked = []
    exists = Path.exists

    def counting(path, *args, **kwargs):
        checked.append(path)
        return exists(path, *args, **kwargs)

    monkeypatch.setattr(Path, "exists", counting)
    counts = []
    for _ in range(300):  # each id recorded and its directory removed, as a finished run leaves it
        checked.clear()
        run_id = run_store.mint_run_id(avt)
        counts.append(len(checked))
        run_store.run_path(run_id).touch()
        (repo.tmp_dir / run_id).rmdir()
    assert run_id == f"{tuple_hash(avt)[:12]}-000300"
    assert counts[:3] == [2, 3, 4]  # what a scan from 1 checks
    assert counts[-1] <= 24
    assert {path.parent for path in checked} == {repo.runs_dir}


def test_a_mint_never_hands_out_a_recorded_or_reserved_id(repo, run_store):
    avt = baseline_tuple()
    prefix = tuple_hash(avt)[:12]
    for seq in (1, 2, 3, 5, 8, 9):
        run_store.run_path(f"{prefix}-{seq:06d}").touch()
    (repo.tmp_dir / f"{prefix}-000010").mkdir()
    minted = [run_store.mint_run_id(avt) for _ in range(5)]
    assert len(set(minted)) == 5
    taken = {f"{prefix}-{seq:06d}" for seq in (1, 2, 3, 5, 8, 9, 10)}
    assert not taken & set(minted)


def test_record_roundtrip_and_idempotency(store, run_store):
    record = make_run(store, run_store)
    loaded = run_store.load(record.run_id)
    assert loaded.to_dict() == record.to_dict()
    run_store.record(record)  # identical re-record is a no-op
    assert len(list(run_store.repo.runs_dir.glob("*.json"))) == 1


def test_record_conflict_on_divergent_content(store, run_store):
    record = make_run(store, run_store)
    record.labels["extra"] = "different"
    with pytest.raises(RunConflictError):
        run_store.record(record)


def test_record_rejects_dangling_result(store, run_store):
    from ca_engine.store import ArtifactId

    record = make_run(store, run_store)
    ghost = ArtifactId(ArtifactKind.RESULT, "f" * 64)
    record.run_id = run_store.mint_run_id(record.tuple)
    record.result_ids = [ghost]
    with pytest.raises(DanglingReferenceError):
        run_store.record(record)


def test_record_rejects_incoherent_status(store, run_store):
    record = make_run(store, run_store)
    record.run_id = run_store.mint_run_id(record.tuple)
    record.status = "running"  # but finished_at is set
    with pytest.raises(ValueError):
        run_store.record(record)
    record.status = "succeeded"
    record.finished_at = None
    with pytest.raises(ValueError):
        run_store.record(record)


def test_record_rejects_non_result_ids(store, run_store):
    record = make_run(store, run_store)
    data_id = store.put(ArtifactKind.DATA, b"not a result")
    record.run_id = run_store.mint_run_id(record.tuple)
    record.result_ids = [data_id]
    with pytest.raises(ValueError):
        run_store.record(record)


# -- properties ---------------------------------------------------------------


@settings(max_examples=200)
@given(tuples())
def test_hash_invariant_under_permutation(avt):
    shuffled = list(avt.pins)
    random.Random(0).shuffle(shuffled)
    assert tuple_hash(ArtifactVersionTuple(tuple(shuffled))) == tuple_hash(avt)


@settings(max_examples=200)
@given(tuples(), st.data())
def test_single_pin_change_flips_hash(avt, data):
    component = data.draw(st.sampled_from(avt.components()))
    old = avt.pin(component)
    new_version = data.draw(versions.filter(lambda v: v != old.version))
    assert tuple_hash(avt.with_pin(VersionPin(component, new_version))) != tuple_hash(avt)


@settings(max_examples=200)
@given(tuples(), tuples())
def test_diff_empty_iff_encodings_equal(a, b):
    assert (diff_tuples(a, b) == []) == (canonical_encode(a) == canonical_encode(b))


@settings(max_examples=200)
@given(
    st.lists(st.dictionaries(component_names, versions, min_size=1, max_size=5), min_size=3, max_size=3)
)
def test_aligned_is_an_equivalence_relation(mappings):
    a, b, c = (pins_from(m) for m in mappings)
    assert aligned(a, a) and aligned(b, b) and aligned(c, c)
    assert aligned(a, b) == aligned(b, a)
    if aligned(a, b) and aligned(b, c):
        assert aligned(a, c)
