from __future__ import annotations

import errno
import os
import time

import pytest

from ca_engine.errors import ExecutorFailureError, MissingOutputError, SpawnFailureError
from ca_engine.flow.executors import (
    ProcessExecutor,
    RecordingExecutor,
    env_snapshot_bytes,
    scripted,
)


def test_env_snapshot_is_sorted_key_value_lines():
    snap = env_snapshot_bytes({"B": "2", "A": "1"})
    assert snap == b"A=1\nB=2\n"
    assert env_snapshot_bytes({}) == b""


def test_recording_executor_returns_exact_script(tmp_path):
    workdir = tmp_path / "mystep"
    workdir.mkdir()
    executor = RecordingExecutor({"mystep": scripted({"out": "x"}, log=b"did it\n")})
    result = executor.run("anything", inputs={}, outputs={"out": workdir / "out"}, env={}, workdir=workdir)
    assert result.exit_code == 0
    assert result.outputs == {"out": b"x"}
    assert result.log == b"did it\n"
    assert [inv.key for inv in executor.invocations] == ["mystep"]


def test_recording_executor_without_script_fails(tmp_path):
    workdir = tmp_path / "ghost"
    workdir.mkdir()
    executor = RecordingExecutor({})
    with pytest.raises(ExecutorFailureError):
        executor.run("x", inputs={}, outputs={}, env={}, workdir=workdir)


def test_recording_executor_flags_missing_declared_output(tmp_path):
    workdir = tmp_path / "s"
    workdir.mkdir()
    executor = RecordingExecutor({"s": scripted({})})
    with pytest.raises(MissingOutputError):
        executor.run("x", inputs={}, outputs={"out": workdir / "out"}, env={}, workdir=workdir)


def test_process_executor_copy_roundtrip(tmp_path):
    workdir = tmp_path / "copy"
    (workdir / "inputs").mkdir(parents=True)
    (workdir / "outputs").mkdir()
    src = workdir / "inputs" / "src"
    dst = workdir / "outputs" / "dst"
    src.write_bytes(b"payload bytes")
    executor = ProcessExecutor()
    result = executor.run(
        f"cp {src} {dst}", inputs={"src": src}, outputs={"dst": dst}, env={}, workdir=workdir
    )
    assert result.exit_code == 0
    assert result.outputs == {"dst": b"payload bytes"}


def test_process_executor_nonzero_exit_keeps_log_and_raises_nothing(tmp_path):
    workdir = tmp_path / "fail"
    workdir.mkdir()
    executor = ProcessExecutor()
    result = executor.run(
        "echo sad story; exit 1",
        inputs={},
        outputs={"never": workdir / "never"},
        env={},
        workdir=workdir,
    )
    assert result.exit_code == 1
    assert b"sad story" in result.log
    assert result.outputs == {}


@pytest.mark.parametrize("command", ["true", "mkdir out"], ids=["absent", "directory"])
def test_process_executor_missing_output_on_success(command, tmp_path):
    workdir = tmp_path / "m"
    workdir.mkdir()
    executor = ProcessExecutor()
    with pytest.raises(MissingOutputError):
        executor.run(command, inputs={}, outputs={"out": workdir / "out"}, env={}, workdir=workdir)


def test_process_executor_spawn_failure(tmp_path):
    executor = ProcessExecutor()
    with pytest.raises(SpawnFailureError):
        executor.run("true", inputs={}, outputs={}, env={}, workdir=tmp_path / "does-not-exist")


def test_a_command_of_32_pages_or_more_is_a_spawn_failure(tmp_path):
    """Linux caps one exec argument, its NUL included, at 32 pages (MAX_ARG_STRLEN): 131,072 bytes with 4 KiB pages."""
    limit = 32 * os.sysconf("SC_PAGE_SIZE")
    longest = ": " + "x" * (limit - 3)
    assert len(longest.encode()) == limit - 1
    assert ProcessExecutor().run(longest, inputs={}, outputs={}, env={}, workdir=tmp_path).exit_code == 0
    with pytest.raises(SpawnFailureError, match="Argument list too long"):
        ProcessExecutor().run(longest + "x", inputs={}, outputs={}, env={}, workdir=tmp_path)


def test_a_log_that_cannot_be_made_is_a_spawn_failure(tmp_path, monkeypatch):
    def no_descriptor_left(*args, **kwargs):
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "pipe", no_descriptor_left)
    with pytest.raises(SpawnFailureError, match="Too many open files"):
        ProcessExecutor().run("true", inputs={}, outputs={}, env={}, workdir=tmp_path)


def test_a_log_larger_than_a_pipe_buffer_is_captured_whole(tmp_path):
    result = ProcessExecutor().run(
        "yes abcdefghi | head -c 300000", inputs={}, outputs={}, env={}, workdir=tmp_path
    )
    assert result.exit_code == 0
    assert result.log == b"abcdefghi\n" * 30000


def test_output_written_through_dev_stderr_keeps_its_place_in_the_log(tmp_path):
    # Reopening the log through /dev/stderr must not truncate what was written before.
    result = ProcessExecutor().run(
        "echo a; echo warn > /dev/stderr; echo b", inputs={}, outputs={}, env={}, workdir=tmp_path
    )
    assert result.log == b"a\nwarn\nb\n"


@pytest.mark.parametrize(
    "command",
    ["(sleep 1; touch late); true", "(sleep 1; touch late) & while :; do echo tick; sleep 0.01; done"],
    ids=["quiet", "writing"],
)
def test_process_executor_timeout_kills_the_whole_process_tree(command, tmp_path):
    workdir = tmp_path / "slow"
    workdir.mkdir()
    started = time.monotonic()
    with pytest.raises(ExecutorFailureError, match="timed out"):
        ProcessExecutor(timeout=0.3).run(command, inputs={}, outputs={}, env={}, workdir=workdir)
    assert time.monotonic() - started < 1
    time.sleep(1.5)
    assert not (workdir / "late").exists()


def test_process_executor_rejects_empty_command(tmp_path):
    with pytest.raises(SpawnFailureError):
        ProcessExecutor().run("  ", inputs={}, outputs={}, env={}, workdir=tmp_path)


def test_process_executor_passes_whitelisted_env(tmp_path):
    workdir = tmp_path / "env"
    workdir.mkdir()
    out = workdir / "out"
    executor = ProcessExecutor()
    result = executor.run(
        'printf "%s" "$CA_TEST_VALUE" > ' + str(out),
        inputs={},
        outputs={"out": out},
        env={"CA_TEST_VALUE": "hello-env"},
        workdir=workdir,
    )
    assert result.outputs["out"] == b"hello-env"
    assert result.env_snapshot == b"CA_TEST_VALUE=hello-env\n"


def test_an_empty_whitelist_still_inherits_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CA_TEST_INHERITED", "inherited")
    result = ProcessExecutor().run(
        'printf "%s" "$CA_TEST_INHERITED"', inputs={}, outputs={}, env={}, workdir=tmp_path
    )
    assert result.exit_code == 0
    assert result.log == b"inherited"
    assert result.env_snapshot == b""


def alive(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited; a zombie waiting to be reaped has."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_a_finished_step_leaves_no_process_behind(tmp_path):
    workdir = tmp_path / "detach"
    workdir.mkdir()
    out = workdir / "out"
    result = ProcessExecutor().run(
        f"(sleep 0.3; echo x > in.late) >/dev/null 2>&1 & echo $! > {out}",
        inputs={},
        outputs={"out": out},
        env={},
        workdir=workdir,
    )
    assert result.exit_code == 0
    background = int(result.outputs["out"])
    time.sleep(0.6)
    assert not (workdir / "in.late").exists()
    assert not alive(background)


def group_members(pgid: int) -> list[int]:
    """Processes in group ``pgid`` that have not exited."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rpartition(")")[2].split()
            except FileNotFoundError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_a_background_process_holding_the_output_does_not_hold_up_the_step(tmp_path, monkeypatch):
    killed = []
    real_killpg = os.killpg

    def recording_killpg(pgid, sig):
        killed.append(pgid)
        real_killpg(pgid, sig)

    monkeypatch.setattr(os, "killpg", recording_killpg)
    started = time.monotonic()
    result = ProcessExecutor().run("sleep 2 & echo hi", inputs={}, outputs={}, env={}, workdir=tmp_path)
    assert time.monotonic() - started < 0.5
    assert result.exit_code == 0
    assert result.log == b"hi\n"
    (group,) = killed
    deadline = time.monotonic() + 1
    while group_members(group) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert group_members(group) == []
