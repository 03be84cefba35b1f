"""Repository layout and the single-writer advisory lock.

All engine state lives under one directory (conventionally ``.ca/``):
``objects/`` and ``index.jsonl`` for the artifact store, ``runs/`` and
``runs.jsonl`` for run records, ``tmp/`` for the workdirs that reserve run ids,
``events.jsonl``/``pins.json``/``promotions.jsonl`` for the pipeline,
``lineage.jsonl`` for provenance edges, plus ``config.json`` and
``gates.json``. Each journal ``<name>.jsonl`` may have a key file
``<name>.idx`` derived from it (see :mod:`ca_engine.journal`).

Writers serialize through ``write_lock()``: an in-process mutex combined
with an ``fcntl`` lock on the ``lock`` file, so concurrent writer processes
block or fail fast with :class:`LockHeldError` after the configured timeout.
Readers never take the lock.
"""

from __future__ import annotations

import fcntl
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .errors import LockHeldError, RepoNotInitializedError
from .util import atomic_write_json, load_state

DEFAULT_LOCK_TIMEOUT = 10.0

_DEFAULT_CONFIG = {
    "parallelism": 4,
    "subset_fraction": 0.1,
    "subset_seed": 0,
    "flow_manifest": None,
}


def _config(doc) -> dict:
    if not isinstance(doc, dict):
        raise TypeError(f"expected an object, got {type(doc).__name__}")
    return doc


class Repository:
    """Handle to an engine repository directory."""

    def __init__(self, root: str | Path, lock_timeout: float | None = DEFAULT_LOCK_TIMEOUT):
        self.root = Path(root)
        self.lock_timeout = lock_timeout
        self._mutex = threading.Lock()

    # -- layout ----------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    @property
    def runs_journal_path(self) -> Path:
        return self.root / "runs.jsonl"

    @property
    def events_path(self) -> Path:
        return self.root / "events.jsonl"

    @property
    def pins_path(self) -> Path:
        return self.root / "pins.json"

    @property
    def promotions_path(self) -> Path:
        return self.root / "promotions.jsonl"

    @property
    def lineage_path(self) -> Path:
        return self.root / "lineage.jsonl"

    @property
    def config_path(self) -> Path:
        return self.root / "config.json"

    @property
    def gates_path(self) -> Path:
        return self.root / "gates.json"

    @property
    def tmp_dir(self) -> Path:
        return self.root / "tmp"

    @property
    def lock_path(self) -> Path:
        return self.root / "lock"

    # -- lifecycle ---------------------------------------------------------

    @property
    def initialized(self) -> bool:
        return self.index_path.exists() and self.objects_dir.is_dir()

    def require(self) -> None:
        if not self.initialized:
            raise RepoNotInitializedError(f"no repository at {self.root} (run `ca init`)")

    def init(self) -> bool:
        """Create the repository skeleton. Idempotent; returns True if created."""
        created = not self.initialized
        self.root.mkdir(parents=True, exist_ok=True)
        self.objects_dir.mkdir(exist_ok=True)
        self.runs_dir.mkdir(exist_ok=True)
        self.tmp_dir.mkdir(exist_ok=True)
        for path in (
            self.index_path,
            self.runs_journal_path,
            self.events_path,
            self.promotions_path,
            self.lineage_path,
        ):
            path.touch()
        if not self.pins_path.exists():
            atomic_write_json(self.pins_path, {})
        if not self.config_path.exists():
            atomic_write_json(self.config_path, _DEFAULT_CONFIG)
        self.lock_path.touch()
        return created

    # -- locking -----------------------------------------------------------

    @contextmanager
    def write_lock(self) -> Iterator[None]:
        """Exclusive repository write lock.

        Waits up to ``lock_timeout`` seconds, forever when it is None; a
        timeout of 0 fails fast. Raises :class:`LockHeldError` when the lock
        cannot be acquired in time. The repository is checked only when
        the lock file cannot be opened: every handle checked it when it
        opened, so one removed since still raises
        :class:`RepoNotInitializedError`.
        """
        timeout = self.lock_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._mutex.acquire(timeout=-1 if deadline is None else max(timeout, 0)):
            raise LockHeldError(f"write lock on {self.root} held by another thread")
        try:
            # flock needs no write access; the file holds no data.
            fd = os.open(self.lock_path, os.O_RDONLY | os.O_CREAT, 0o644)
        except BaseException as exc:
            self._mutex.release()
            if isinstance(exc, OSError):
                self.require()
            raise
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if deadline is not None and time.monotonic() >= deadline:
                        raise LockHeldError(f"write lock on {self.root} held by another process")
                    time.sleep(0.01)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
                self._mutex.release()

    # -- config ------------------------------------------------------------

    def config(self) -> dict:
        """The defaults updated from ``config.json``; a file that is not a JSON object is damaged state."""
        return {**_DEFAULT_CONFIG, **load_state(self.config_path, _config, {})}
