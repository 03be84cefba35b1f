from __future__ import annotations

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


def test_process_executor_missing_output_on_success(tmp_path):
    workdir = tmp_path / "m"
    workdir.mkdir()
    executor = ProcessExecutor()
    with pytest.raises(MissingOutputError):
        executor.run("true", inputs={}, outputs={"out": workdir / "out"}, env={}, workdir=workdir)


def test_process_executor_spawn_failure(tmp_path):
    executor = ProcessExecutor()
    with pytest.raises(SpawnFailureError):
        executor.run("true", inputs={}, outputs={}, env={}, workdir=tmp_path / "does-not-exist")


def test_process_executor_timeout_kills_the_whole_process_tree(tmp_path):
    workdir = tmp_path / "slow"
    workdir.mkdir()
    started = time.monotonic()
    with pytest.raises(ExecutorFailureError, match="timed out"):
        ProcessExecutor(timeout=0.3).run(
            "(sleep 1; touch late); true", inputs={}, outputs={}, env={}, workdir=workdir
        )
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
