"""Step executors: the execution contract plus process and recording backends.

An executor receives a fully rendered command, the materialized input files,
the expected output file locations, and the whitelisted environment. It
returns the exit code, the captured output blobs, the combined stdout+stderr
log, and the environment snapshot. On nonzero exit, absent outputs are not an
error; on success every declared output must be present.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
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


class ProcessExecutor(StepExecutor):
    """Runs commands as OS subprocesses in an isolated working directory."""

    def __init__(self, timeout: float | None = None):
        self.timeout = timeout

    def run(self, command, *, inputs, outputs, env, workdir) -> ExecResult:
        if not command.strip():
            raise SpawnFailureError("empty command")
        child_env = dict(os.environ)
        child_env.update(env)
        try:
            proc = subprocess.Popen(
                command,
                shell=True,
                cwd=workdir,
                env=child_env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        except OSError as exc:
            raise SpawnFailureError(f"cannot spawn {command!r}: {exc}") from exc
        try:
            with proc:
                try:
                    log, _ = proc.communicate(timeout=self.timeout)
                except BaseException:
                    # The step leads its own session, so this ends every process it started.
                    os.killpg(proc.pid, signal.SIGKILL)
                    raise
        except subprocess.TimeoutExpired as exc:
            raise ExecutorFailureError(f"command timed out after {self.timeout}s: {command}") from exc
        collected: dict[str, bytes] = {}
        if proc.returncode == 0:
            for slot, path in outputs.items():
                if not path.exists():
                    raise MissingOutputError(f"declared output {slot!r} not produced at {path}")
                collected[slot] = path.read_bytes()
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
    """Merge script that concatenates partition inputs in key (index) order."""

    def merge(*, command, inputs, outputs, env, workdir) -> ScriptedResult:
        blob = b"".join(Path(inputs[key]).read_bytes() for key in sorted(inputs))
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
