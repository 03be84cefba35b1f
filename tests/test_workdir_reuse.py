"""A pool thread keeps one workdir per run, and every task still sees exactly its own fresh inputs."""

from __future__ import annotations

import json
import mmap
import os
import shutil
import stat
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ca_engine.flow import RecordingExecutor, execute, parse_manifest
from ca_engine.flow.executors import ScriptedResult
from ca_engine.repo import Repository
from ca_engine.store import ArtifactKind, ArtifactStore
from ca_engine.tuples import RunStore
from helpers import baseline_tuple

UMASK = os.umask(0)
os.umask(UMASK)
FRESH_MODE = 0o666 & ~UMASK  # the mode a new copy of an input gets


def fan_manifest(count: int, aux: str | None = None) -> dict:
    """One step fanned out over the data pin, and over ``aux`` when given, plus a merge."""
    inputs = {"src": {"pin": "data"}}
    if aux is not None:
        inputs["aux"] = {"artifact": aux}
    return {
        "steps": [
            {
                "name": "fan",
                "command": "use {input:src} {output:part} {partition}",
                "inputs": inputs,
                "outputs": ["part"],
                "partition": {"count": count, "merge_command": "cat {partitions:part} {output:merged}"},
            }
        ],
        "outcomes": [{"step": "fan", "slot": "merged"}],
    }


def part(index: int) -> bytes:
    return b"part %d\n" % index


def test_a_wide_flow_creates_the_shared_input_once_per_pool_thread(tmp_path, monkeypatch):
    repo = Repository(tmp_path / ".ca")
    repo.init()
    store = ArtifactStore(repo)
    blob = store.put(ArtifactKind.DATA, b"shared input\n" * 4096)
    graph = parse_manifest(json.dumps(fan_manifest(32)))
    created, made = [], []
    real_open, real_mkdir = os.open, os.mkdir

    def counting_open(path, flags, *args, **kwargs):
        if flags & os.O_CREAT and Path(path).name == "in.src":
            created.append(path)
        return real_open(path, flags, *args, **kwargs)

    def counting_mkdir(path, *args, **kwargs):
        if Path(path).is_relative_to(repo.tmp_dir.resolve()):
            made.append(path)
        return real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    monkeypatch.setattr(os, "mkdir", counting_mkdir)
    record = execute(
        graph, baseline_tuple(data_content=blob.hash),
        RecordingExecutor({"fan.merge": ScriptedResult({"merged": b"merged"})}, default=ScriptedResult({"part": b"p"})),
        kind="validation", store=store, run_store=RunStore(repo, store), parallelism=2,
    )
    assert record.status == "succeeded"
    assert len(record.step_outcomes) == 33
    assert 1 <= len(created) <= 2
    assert len(made) <= 2 + 1  # one workdir per pool thread, and the run root
    assert store.verify(blob)
    assert list(repo.tmp_dir.iterdir()) == []


@pytest.mark.parametrize("parallelism", [1, 2])
def test_a_wide_flow_copies_the_shared_input_once_per_pool_thread(tmp_path, monkeypatch, parallelism):
    repo = Repository(tmp_path / ".ca")
    repo.init()
    store = ArtifactStore(repo)
    data = b"shared input\n" * 4096
    blob = store.put(ArtifactKind.DATA, data)
    graph = parse_manifest(json.dumps(fan_manifest(32)))
    opened: dict[int, str] = {}  # an open fd's number names the file os.open last returned it for
    copied = []
    real_open, real_sendfile = os.open, os.sendfile

    def recording_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        opened[fd] = Path(path).name
        return fd

    def counting_sendfile(out_fd, in_fd, offset, count):
        sent = real_sendfile(out_fd, in_fd, offset, count)
        if opened.get(out_fd) == "in.src":
            copied.append(sent)
        return sent

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "sendfile", counting_sendfile)
    record = execute(
        graph, baseline_tuple(data_content=blob.hash),
        RecordingExecutor({"fan.merge": ScriptedResult({"merged": b"merged"})}, default=ScriptedResult({"part": b"p"})),
        kind="validation", store=store, run_store=RunStore(repo, store), parallelism=parallelism,
    )
    assert record.status == "succeeded"
    assert len(data) <= sum(copied) <= parallelism * len(data)


# -- steps that misbehave on their inputs or their workdir ------------------------


def write(path, workdir, outside):
    path.write_bytes(b"scribbled over")


def append(path, workdir, outside):
    with open(path, "ab") as fh:
        fh.write(b"and more")


def truncate(path, workdir, outside):
    os.truncate(path, 3)


def pwrite_in_place(path, workdir, outside):
    """Change the first byte and keep the size."""
    fd = os.open(path, os.O_RDWR)
    try:
        first = os.pread(fd, 1, 0)
        os.pwrite(fd, bytes([first[0] ^ 0xFF]) if first else b"x", 0)
    finally:
        os.close(fd)


def store_through_a_shared_mapping(path, workdir, outside):
    with open(path, "r+b") as fh:
        if os.fstat(fh.fileno()).st_size:
            with mmap.mmap(fh.fileno(), 0) as mapped:
                mapped[0] ^= 0xFF


def touch_to_now(path, workdir, outside):
    os.utime(path)


def copy_the_other_input_over(path, workdir, outside):
    """``shutil.copy2`` a sibling input of the same size over this one: bytes, mode and times."""
    size = path.stat().st_size
    for other in workdir.glob("in.*"):
        if other != path and not other.is_symlink() and other.is_file() and other.stat().st_size == size:
            shutil.copy2(other, path)
            return


def delete(path, workdir, outside):
    path.unlink()


def make_read_only(path, workdir, outside):
    os.chmod(path, 0o400)


def open_to_all(path, workdir, outside):
    os.chmod(path, 0o777)


def link_elsewhere(path, workdir, outside):
    os.link(path, outside / f"link-{len(list(outside.iterdir()))}")


def replace_by_symlink(path, workdir, outside):
    target = outside / f"target-{len(list(outside.iterdir()))}"
    target.write_bytes(b"a file outside the workdir\n")
    path.unlink()
    path.symlink_to(target)


def replace_by_directory(path, workdir, outside):
    path.unlink()
    path.mkdir()
    (path / "inside").write_bytes(b"left behind\n")


def leave_a_file(path, workdir, outside):
    (workdir / "extra.txt").write_bytes(b"left behind\n")


def leave_a_directory(path, workdir, outside):
    (workdir / "scratch").mkdir(exist_ok=True)


MISBEHAVIOURS = [
    write, append, truncate, pwrite_in_place, store_through_a_shared_mapping, touch_to_now, copy_the_other_input_over,
    delete, make_read_only, open_to_all,
    link_elsewhere, replace_by_symlink, replace_by_directory, leave_a_file, leave_a_directory,
]


def assert_sees_exactly(workdir: Path, inputs, expected: dict[str, bytes]) -> None:
    assert sorted(os.listdir(workdir)) == sorted(path.name for path in inputs.values())
    for key, path in inputs.items():
        st = os.lstat(path)
        assert stat.S_ISREG(st.st_mode) and st.st_nlink == 1
        assert stat.S_IMODE(st.st_mode) == FRESH_MODE
        assert path.read_bytes() == expected[key]


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.lists(st.tuples(st.sampled_from(MISBEHAVIOURS), st.sampled_from(["src", "aux"])), max_size=3)),
        min_size=1,
        max_size=6,
    )
)
def test_each_task_sees_exactly_its_inputs_whatever_the_task_before_it_did(steps):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        outside = root / "outside"
        outside.mkdir()
        repo = Repository(root / ".ca")
        repo.init()
        store = ArtifactStore(repo)
        data = b"shared input\n" * 300
        aux_data = b"an aux input\n" * 300  # the size of data, so that a copy of one over the other keeps the size
        blob = store.put(ArtifactKind.DATA, data)
        aux = store.put(ArtifactKind.CODE, aux_data)
        graph = parse_manifest(json.dumps(fan_manifest(len(steps), str(aux))))

        def partition(*, command, inputs, outputs, env, workdir):
            index = int(command.split()[-1])
            assert_sees_exactly(workdir, inputs, {"src": data, "aux": aux_data})
            for misbehave, key in steps[index][0]:
                if os.path.isfile(inputs[key]) and not os.path.islink(inputs[key]):
                    misbehave(inputs[key], workdir, outside)
                else:
                    leave_a_file(inputs[key], workdir, outside)
            for path in outside.iterdir():
                left.setdefault(path.name, path.read_bytes())
            return ScriptedResult({"part": part(index)}, 0, b"")

        def merge(*, command, inputs, outputs, env, workdir):
            assert_sees_exactly(workdir, inputs, {f"part.{i:03d}": part(i) for i in range(len(steps))})
            return ScriptedResult({"merged": b"".join(inputs[key].read_bytes() for key in sorted(inputs))}, 0, b"")

        left: dict[str, bytes] = {}  # what each file a step made outside held when its task ended
        record = execute(
            graph, baseline_tuple(data_content=blob.hash),
            RecordingExecutor({"fan.merge": merge}, default=partition),
            kind="validation", store=store, run_store=RunStore(repo, store), parallelism=1,
        )
        assert record.status == "succeeded"
        assert store.get(record.result_ids[0]) == b"".join(part(i) for i in range(len(steps)))
        assert store.verify(blob) and store.verify(aux)
        assert list(repo.tmp_dir.iterdir()) == []
        # A link or symlink target a step made outside still holds what the step left: no later copy reached it.
        assert {path.name: path.read_bytes() for path in outside.iterdir()} == left


def test_a_write_hidden_by_restoring_the_modification_time_is_still_seen(tmp_path):
    repo = Repository(tmp_path / ".ca")
    repo.init()
    store = ArtifactStore(repo)
    data = b"shared input\n" * 300
    blob = store.put(ArtifactKind.DATA, data)
    graph = parse_manifest(json.dumps(fan_manifest(2)))
    inodes = []
    held = []  # the first copy, kept open so that its inode number cannot go to a file replacing it

    def partition(*, command, inputs, outputs, env, workdir):
        index = int(command.split()[-1])
        path = inputs["src"]
        before = os.stat(path)
        inodes.append(before.st_ino)
        assert path.read_bytes() == data
        if index == 0:
            held.append(open(path, "rb"))
            path.write_bytes(data.upper())
            time.sleep(0.02)
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            after = os.stat(path)
            assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        return ScriptedResult({"part": part(index)}, 0, b"")

    record = execute(
        graph, baseline_tuple(data_content=blob.hash),
        RecordingExecutor({"fan.merge": ScriptedResult({"merged": b"merged"})}, default=partition),
        kind="validation", store=store, run_store=RunStore(repo, store), parallelism=1,
    )
    assert record.status == "succeeded"
    assert inodes[0] != inodes[1]  # the kept copy was checked, and replaced
    with held[0] as first:
        assert first.read() == data.upper()  # the step's write stayed in the replaced file
    assert store.verify(blob)
