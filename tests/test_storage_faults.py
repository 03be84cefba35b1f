"""Every fault in a write of engine state makes ``ca`` exit 3, and the repository stays usable.

The sweep counts the ``os.fsync`` calls, K, of one in-process CLI cycle:
``artifact put`` → ``event emit`` → ``flow run --event`` → ``approve
--auto-release``. For each k ≤ K it runs that cycle on a fresh repository
with the k-th fsync raising ``OSError(EIO)``. The command that hits it must
exit 3 with ``error[storage-io]`` on stderr, no exception may leave ``main``,
and a full second cycle on the same repository must then succeed.

This models a failed syscall, not power loss: whatever was written before
the fault stays in the page cache, so later commands read it.
"""

from __future__ import annotations

import errno
import io
import json
import os
import tempfile
import threading
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ca_engine.cli import main
from ca_engine.errors import StorageError
from ca_engine.pipeline import Pipeline
from ca_engine.util import make_dir

FLOW = {
    "steps": [
        {
            "name": "experiment",
            "command": "cat {input:dataset} {input:__data_manifest} > {output:model}",
            "inputs": {"dataset": {"pin": "data"}},
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
    "metrics_output": {"step": "evaluate", "slot": "metrics"},
}


class FailingFsync:
    """Counts ``os.fsync`` calls and raises ``error`` at call number ``fail_at``."""

    def __init__(self, fail_at=None, error=errno.EIO):
        self.calls = 0
        self.fail_at = fail_at
        self.error = error
        self._fsync = os.fsync

    def __call__(self, fd):
        self.calls += 1
        if self.calls == self.fail_at or self.fail_at == "always":
            raise OSError(self.error, os.strerror(self.error))
        return self._fsync(fd)


def ca(*argv):
    """Exit code, stdout and stderr of one in-process ``ca`` command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


class Workspace:
    def __init__(self, root):
        root.mkdir()
        self.root = root
        self.repo = ["--repo", root / ".ca"]
        self.flow = root / "flow.json"
        self.flow.write_text(json.dumps(FLOW))
        assert ca("init", *self.repo)[0] == 0
        code, out, err = ca("artifact", "put", self.dataset(0), "--kind", "data", "--json", *self.repo)
        pins = ["code=c1", "dependencies=d1", "deployment=y1", f"data=x0@{json.loads(out)['hash']}"]
        assert ca("init", *(arg for pin in pins for arg in ("--pin", pin)), *self.repo)[0] == 0

    def dataset(self, n):
        path = self.root / f"dataset-{n}.json"
        path.write_text(json.dumps([f"cycle-{n}-row-{i}" for i in range(20)]))
        return path

    def cycle(self, n):
        """The cycle's commands: yields each argv and is sent back its exit code, stdout and stderr."""
        code, out, err = yield ("artifact", "put", self.dataset(n), "--kind", "data", "--json", *self.repo)
        content = json.loads(out)["hash"]
        event = ("event", "emit", "--source", "data", "--ref", "main", "--version", f"x{n}", "--content", content)
        yield (*event, "--id", f"evt-{n}", *self.repo)
        code, out, err = yield ("flow", "run", self.flow, "--event", f"evt-{n}", "--json", *self.repo)
        run_id = json.loads(out)["run_id"]
        code, out, err = yield ("approve", run_id, "--by", "alice", "--auto-release", "--flow", self.flow, "--json", *self.repo)
        assert json.loads(out)["release"]["status"] == "succeeded"


def run_cycle(ws, n):
    """Run cycle ``n`` until a command exits nonzero; that command's argv, code and stderr, or None."""
    steps = ws.cycle(n)
    argv = next(steps)
    while True:
        code, out, err = ca(*argv)
        if code != 0:
            return argv, code, err
        try:
            argv = steps.send((code, out, err))
        except StopIteration:
            return None


def validation_run(ws, n):
    """Run cycle ``n`` up to its approval; the id of its validation run."""
    steps = ws.cycle(n)
    argv = next(steps)
    while argv[0] != "approve":
        code, out, err = ca(*argv)
        assert code == 0, err
        argv = steps.send((code, out, err))
    return argv[1]


@contextmanager
def patched_fsync(monkeypatch, fsync):
    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", fsync)
        yield fsync


def test_every_fsync_fault_in_a_cycle_exits_3_and_the_next_cycle_succeeds(tmp_path, monkeypatch):
    ws = Workspace(tmp_path / "count")
    with patched_fsync(monkeypatch, FailingFsync()) as counter:
        assert run_cycle(ws, 1) is None
    total = counter.calls
    assert total > 0

    wrong = []
    for k in range(1, total + 1):
        ws = Workspace(tmp_path / f"k{k}")
        try:
            with patched_fsync(monkeypatch, FailingFsync(fail_at=k)):
                failed = run_cycle(ws, 1)
        except Exception as exc:
            wrong.append((k, f"escaped main: {exc!r}"))
            continue
        if failed is None or failed[1] != 3 or "error[storage-io]" not in failed[2]:
            wrong.append((k, failed))
            continue
        again = run_cycle(ws, 2)
        if again is not None:
            wrong.append((k, "second cycle", again))
    assert wrong == [], f"{len(wrong)} of {total} fsync faults: {wrong}"


def test_init_pin_on_a_full_disk_exits_3_naming_the_file(tmp_path, monkeypatch):
    repo = tmp_path / ".ca"
    assert ca("init", "--repo", repo)[0] == 0
    with patched_fsync(monkeypatch, FailingFsync(fail_at="always", error=errno.ENOSPC)):
        code, _, err = ca("init", "--pin", "code=c1", "--repo", repo)
    assert code == 3
    assert "error[storage-io]" in err and str(repo / "pins.json") in err


def test_an_approval_whose_append_fails_is_not_recorded_and_the_retry_succeeds(tmp_path, monkeypatch):
    ws = Workspace(tmp_path / "ws")
    run_id = validation_run(ws, 1)
    with patched_fsync(monkeypatch, FailingFsync(fail_at="always")):
        code, _, err = ca("approve", run_id, "--by", "alice", *ws.repo)
    assert code == 3 and "error[storage-io]" in err
    assert ca("approve", run_id, "--by", "alice", *ws.repo)[0] == 0


def test_a_release_whose_last_fsync_fails_is_not_recorded_and_the_retry_releases(tmp_path, monkeypatch):
    def approved(ws):
        run_id = validation_run(ws, 1)
        assert ca("approve", run_id, "--by", "alice", *ws.repo)[0] == 0
        return run_id

    def release(ws, run_id):
        return ca("release", run_id, "--flow", ws.flow, "--json", *ws.repo)

    twin = Workspace(tmp_path / "twin")
    twin_run = approved(twin)
    with patched_fsync(monkeypatch, FailingFsync()) as counter:
        assert release(twin, twin_run)[0] == 0
    ws = Workspace(tmp_path / "ws")
    run_id = approved(ws)
    with patched_fsync(monkeypatch, FailingFsync(fail_at=counter.calls)):
        code, _, err = release(ws, run_id)
    assert code == 3 and "error[storage-io]" in err
    code, out, err = release(ws, run_id)
    assert code == 0, err
    pins = json.loads((ws.root / ".ca" / "pins.json").read_text())
    assert pins["main"]["last_release_run"] == json.loads(out)["run_id"]


def release_faults(tmp_path, monkeypatch):
    """The fsync numbers, within ``ca release``, of the release row's append and of the pins write.

    Counted on a twin workspace: the pins fsync is the first one after
    ``Pipeline._save_pins`` is entered, the row's the one before it.
    """
    twin = Workspace(tmp_path / "twin")
    run_id = validation_run(twin, 1)
    assert ca("approve", run_id, "--by", "alice", *twin.repo)[0] == 0
    seen = []
    save_pins = Pipeline._save_pins
    with patched_fsync(monkeypatch, FailingFsync()) as counter, monkeypatch.context() as patch:
        patch.setattr(Pipeline, "_save_pins", lambda self, pins: (seen.append(counter.calls), save_pins(self, pins)))
        assert ca("release", run_id, "--flow", twin.flow, *twin.repo)[0] == 0
    (before_pins,) = seen
    return {"release-row": before_pins, "pins": before_pins + 1}


def released_rows(ws):
    return [row for row in journal(ws, "promotions.jsonl") if row["type"] == "release"]


def journal(ws, name):
    text = (ws.root / ".ca" / name).read_text()
    return [json.loads(line) for line in text.splitlines()]


def main_pins(ws):
    return json.loads((ws.root / ".ca" / "pins.json").read_text())["main"]


def test_a_release_whose_pins_write_fails_is_finished_by_the_retry(tmp_path, monkeypatch):
    fault = release_faults(tmp_path, monkeypatch)["pins"]
    ws = Workspace(tmp_path / "ws")
    run_id = validation_run(ws, 1)
    assert ca("approve", run_id, "--by", "alice", *ws.repo)[0] == 0
    before = main_pins(ws)
    with patched_fsync(monkeypatch, FailingFsync(fail_at=fault)):
        code, _, err = ca("release", run_id, "--flow", ws.flow, "--json", *ws.repo)
    assert code == 3 and "error[storage-io]" in err and "pins.json" in err
    (row,) = released_rows(ws)
    assert main_pins(ws) == before
    runs = sorted(p.name for p in (ws.root / ".ca" / "runs").iterdir())

    code, out, err = ca("release", run_id, "--flow", ws.flow, "--json", *ws.repo)
    assert code == 0, err
    assert json.loads(out)["run_id"] == row["release_run_id"]
    assert sorted(p.name for p in (ws.root / ".ca" / "runs").iterdir()) == runs
    assert main_pins(ws)["last_release_run"] == row["release_run_id"]
    code, _, err = ca("release", run_id, "--flow", ws.flow, *ws.repo)
    assert code == 1 and "already-released" in err


def test_a_release_whose_row_append_fails_leaves_main_unchanged(tmp_path, monkeypatch):
    fault = release_faults(tmp_path, monkeypatch)["release-row"]
    ws = Workspace(tmp_path / "ws")
    run_id = validation_run(ws, 1)
    assert ca("approve", run_id, "--by", "alice", *ws.repo)[0] == 0
    before = main_pins(ws)
    with patched_fsync(monkeypatch, FailingFsync(fail_at=fault)):
        code, _, err = ca("release", run_id, "--flow", ws.flow, *ws.repo)
    assert code == 3 and "error[storage-io]" in err and "promotions.jsonl" in err
    assert released_rows(ws) == [] and main_pins(ws) == before


def test_an_unfinished_release_that_a_later_one_superseded_is_not_finished(tmp_path, monkeypatch):
    fault = release_faults(tmp_path, monkeypatch)["pins"]
    ws = Workspace(tmp_path / "ws")
    first = validation_run(ws, 1)
    assert ca("approve", first, "--by", "alice", *ws.repo)[0] == 0
    with patched_fsync(monkeypatch, FailingFsync(fail_at=fault)):
        assert ca("release", first, "--flow", ws.flow, *ws.repo)[0] == 3
    second = validation_run(ws, 2)
    code, out, err = ca("approve", second, "--by", "alice", "--auto-release", "--flow", ws.flow, "--json", *ws.repo)
    assert code == 0, err
    latest = json.loads(out)["release"]["run_id"]

    code, _, err = ca("release", first, "--flow", ws.flow, *ws.repo)
    assert code == 1 and "already-released" in err
    assert main_pins(ws)["last_release_run"] == latest


def test_a_full_disk_at_the_run_workdir_exits_3_naming_it(tmp_path, monkeypatch):
    ws = Workspace(tmp_path / "ws")
    tmp = ws.root / ".ca" / "tmp"
    steps = ws.cycle(1)
    argv = next(steps)
    while argv[0] != "flow":
        argv = steps.send(ca(*argv))
    mkdir = os.mkdir

    def full(path, *args, **kwargs):
        if Path(path).parent == tmp:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return mkdir(path, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(os, "mkdir", full)
        code, _, err = ca(*argv)
    assert code == 3
    assert "error[storage-io]" in err and f"{tmp}/" in err
    assert list(tmp.iterdir()) == [] and list((ws.root / ".ca" / "runs").iterdir()) == []
    assert run_cycle(ws, 2) is None


# Two tasks ready at once, each long enough that each of two workers takes one.
TWO_WORKER_FLOW = {
    "steps": [
        {
            "name": "left",
            "command": "sleep 0.1; cat {input:dataset} > {output:model}",
            "inputs": {"dataset": {"pin": "data"}},
            "outputs": ["model"],
        },
        {
            "name": "right",
            "command": "sleep 0.1; cat {input:__data_manifest} > {output:model}",
            "inputs": {},
            "outputs": ["model"],
        },
        {
            "name": "evaluate",
            "command": "printf '{\"accuracy\": 0.91}' > {output:metrics}",
            "inputs": {"left": {"step": "left", "slot": "model"}, "right": {"step": "right", "slot": "model"}},
            "outputs": ["metrics"],
        },
    ],
    "outcomes": [{"step": "evaluate", "slot": "metrics"}],
    "metrics_output": {"step": "evaluate", "slot": "metrics"},
}


@pytest.mark.parametrize("on_calling_thread", [False, True], ids=["pool-thread", "calling-thread"])
def test_a_full_disk_at_an_object_write_after_a_task_exits_3_naming_it(tmp_path, monkeypatch, on_calling_thread):
    ws = Workspace(tmp_path / "ws")
    ws.flow.write_text(json.dumps(TWO_WORKER_FLOW))
    root = ws.root / ".ca"
    steps = ws.cycle(1)
    argv = next(steps)
    while argv[0] != "flow":
        argv = steps.send(ca(*argv))
    index = (root / "index.jsonl").read_bytes()
    failed = []
    mkstemp = tempfile.mkstemp

    def full(*args, dir=None, prefix=None, **kwargs):
        # Each task's object files are written after it releases its dependents; commit runs after every task.
        here = threading.current_thread() is threading.main_thread()
        if not failed and dir is not None and Path(dir).parent == root / "objects" and here == on_calling_thread:
            failed.append(Path(dir) / prefix[1:-1])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return mkstemp(*args, dir=dir, prefix=prefix, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(tempfile, "mkstemp", full)
        code, _, err = ca(*argv, "--parallelism", 2)
    (path,) = failed
    assert code == 3
    assert "error[storage-io]" in err and str(path) in err
    assert (root / "index.jsonl").read_bytes() == index
    assert list((root / "tmp").iterdir()) == [] and list((root / "runs").iterdir()) == []
    assert run_cycle(ws, 2) is None


def test_a_repository_without_tmp_runs_and_makes_it_again(tmp_path):
    ws = Workspace(tmp_path / "ws")
    tmp = ws.root / ".ca" / "tmp"
    tmp.rmdir()
    assert run_cycle(ws, 1) is None
    assert list(tmp.iterdir()) == []


def test_a_run_workdir_is_never_made_in_a_removed_repository(tmp_path):
    root = tmp_path / ".ca"
    with pytest.raises(StorageError) as raised:
        make_dir(root / "tmp" / "run")
    assert str(root / "tmp" / "run") in str(raised.value)
    assert not root.exists()
