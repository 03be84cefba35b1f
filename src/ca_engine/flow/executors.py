"""Step executors: the execution contract plus process and recording backends.

An executor receives a fully rendered command, the materialized input files,
the expected output file locations, and the whitelisted environment. It
returns the exit code, the captured output blobs, the combined stdout+stderr
log, and the environment snapshot. On nonzero exit, absent outputs are not an
error; on success every declared output must be present.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Union

from ..errors import ExecutorFailureError, MissingOutputError, SpawnFailureError


def env_snapshot_bytes(env: Mapping[str, str]) -> bytes:
    """Sorted KEY=VALUE lines of the whitelisted environment."""
    return "".join(f"{k}={env[k]}\n" for k in sorted(env)).encode("utf-8")


@dataclass(frozen=True)
class ExecResult:
    exit_code: int
    outputs: dict[str, bytes]
    log: bytes
    env_snapshot: bytes


class StepExecutor(ABC):
    """Contract for running one step task."""

    @abstractmethod
    def run(
        self,
        command: str,
        *,
        inputs: Mapping[str, Path],
        outputs: Mapping[str, Path],
        env: Mapping[str, str],
        workdir: Path,
    ) -> ExecResult:
        """Run ``command`` in ``workdir`` and capture the declared outputs."""


def _remaining(deadline: float | None) -> float | None:
    return None if deadline is None else max(0.0, deadline - time.monotonic())


def _read_until_exit(fd: int, pidfd: int, deadline: float | None) -> list[bytes]:
    """What is written to the pipe ``fd`` until the process behind ``pidfd`` exits; TimeoutError past ``deadline``.

    The pipe and the process are polled together, so a background process
    that keeps the pipe open does not hold up the wait. The process is left
    unreaped.
    """
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    poller.register(pidfd, select.POLLIN)
    chunks = []
    while True:
        timeout = _remaining(deadline)
        ready = poller.poll(None if timeout is None else timeout * 1000)
        if not ready:
            raise TimeoutError
        if any(polled == pidfd for polled, _ in ready):
            return chunks
        if chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
        else:  # every writer closed the pipe; wait for the exit alone
            poller.unregister(fd)


def _read_held(fd: int) -> list[bytes]:
    """What the pipe ``fd`` holds now, read without blocking."""
    os.set_blocking(fd, False)
    chunks = []
    try:
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except BlockingIOError:
        pass
    return chunks


class ProcessExecutor(StepExecutor):
    """Runs commands as OS subprocesses in an isolated working directory.

    Each step leads a session of its own. Once its process exits, or its
    timeout passes, every process left in its group is killed, so none can
    write into a workdir or input file a later task reuses. One that starts
    its own session (``setsid``) outlives the step: only a cgroup could hold
    it. The log is what the step's processes wrote to its output until its
    process exited: a background process that keeps the output open does
    not hold up the step, and what it writes later is not captured. The
    exit is awaited through a pidfd (Linux 5.3 or later).

    The command is passed whole as the one argument of ``sh -c``, and Linux
    caps one argument at 32 pages (``MAX_ARG_STRLEN``), its NUL included. A
    command of 131,072 bytes or more, with 4 KiB pages, fails to spawn with
    :class:`SpawnFailureError` ("Argument list too long"). Its paths are
    absolute, so a ``{partitions:…}`` merge reaches the limit at roughly
    1,100–1,400 partitions, depending on the repository's path.
    """

    def __init__(self, timeout: float | None = None):
        self.timeout = timeout

    def run(self, command, *, inputs, outputs, env, workdir) -> ExecResult:
        if not command.strip():
            raise SpawnFailureError("empty command")
        # Errors name the task and the command's length: the command may run to 128 KiB.
        task = f"task {workdir.name!r} ({len(command.encode())}-byte command)"
        try:
            proc = subprocess.Popen(
                command,
                shell=True,
                cwd=workdir,
                # With no whitelisted variable, the step inherits this environment without a copy.
                env={**os.environ, **env} if env else None,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        except OSError as exc:
            raise SpawnFailureError(f"cannot spawn {task}: {exc}") from exc
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        try:
            with proc:  # reaps the leader on the way out
                fd = proc.stdout.fileno()
                pidfd = -1
                try:
                    pidfd = os.pidfd_open(proc.pid)
                    chunks = _read_until_exit(fd, pidfd, deadline)
                finally:
                    # The leader is not reaped yet, so its id still names only the step's group.
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    if pidfd >= 0:
                        os.close(pidfd)
                log = b"".join(chunks + _read_held(fd))
        except TimeoutError as exc:
            raise ExecutorFailureError(f"{task} timed out after {self.timeout}s") from exc
        collected: dict[str, bytes] = {}
        if proc.returncode == 0:
            for slot, path in outputs.items():
                try:
                    collected[slot] = path.read_bytes()
                except (FileNotFoundError, IsADirectoryError) as exc:
                    raise MissingOutputError(f"declared output {slot!r} not produced at {path}") from exc
        return ExecResult(proc.returncode, collected, log, env_snapshot_bytes(env))


@dataclass(frozen=True)
class ScriptedResult:
    """Static script entry for the recording executor."""

    outputs: Mapping[str, bytes] = field(default_factory=dict)
    exit_code: int = 0
    log: bytes = b""


ScriptFn = Callable[..., ScriptedResult]
Script = Union[ScriptedResult, ScriptFn]


def scripted(outputs: Mapping[str, bytes | str] | None = None, exit_code: int = 0, log: bytes = b"") -> ScriptedResult:
    coerced = {
        slot: value.encode("utf-8") if isinstance(value, str) else bytes(value)
        for slot, value in (outputs or {}).items()
    }
    return ScriptedResult(coerced, exit_code, log)


def concat_merge() -> ScriptFn:
    """Merge script that concatenates partition inputs ``<slot>.<index>`` by slot name, then by integer index."""

    def merge(*, command, inputs, outputs, env, workdir) -> ScriptedResult:
        order = sorted(inputs, key=lambda key: (key.rpartition(".")[0], int(key.rpartition(".")[2])))
        blob = b"".join(Path(inputs[key]).read_bytes() for key in order)
        return ScriptedResult({slot: blob for slot in outputs}, 0, b"merged %d parts\n" % len(inputs))

    return merge


@dataclass(frozen=True)
class Invocation:
    key: str
    command: str
    start_seq: int
    end_seq: int


class RecordingExecutor(StepExecutor):
    """Deterministic executor returning scripted outputs, for tests.

    Scripts are keyed by the task's working-directory name, which the runner
    derives from the step: ``<step>``, ``<step>.p<i>`` for partition tasks and
    ``<step>.merge`` for merge tasks. A script is either a static
    :class:`ScriptedResult` or a callable receiving the run context. Every
    invocation is recorded with global start/end sequence numbers.
    """

    def __init__(self, scripts: Mapping[str, Script] | None = None, default: Script | None = None):
        self.scripts = dict(scripts or {})
        self.default = default
        self.invocations: list[Invocation] = []
        self._lock = threading.Lock()
        self._seq = 0

    def _next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def run(self, command, *, inputs, outputs, env, workdir) -> ExecResult:
        key = workdir.name
        script = self.scripts.get(key, self.default)
        if script is None:
            raise ExecutorFailureError(f"no script for task {key!r}")
        start = self._next_seq()
        if callable(script):
            result = script(command=command, inputs=inputs, outputs=outputs, env=env, workdir=workdir)
        else:
            result = script
        end = self._next_seq()
        with self._lock:
            self.invocations.append(Invocation(key, command, start, end))
        blobs = {
            slot: value.encode("utf-8") if isinstance(value, str) else bytes(value)
            for slot, value in result.outputs.items()
        }
        if result.exit_code == 0:
            for slot in outputs:
                if slot not in blobs:
                    raise MissingOutputError(f"script for {key!r} omits declared output {slot!r}")
        return ExecResult(result.exit_code, blobs, result.log, env_snapshot_bytes(env))
