"""The three benchmark workloads, their seeded inputs and their output checks.

Every workload runs in rounds of a fixed amount of work on fresh
repositories, whose set-up is timed, so each round sees the same history
whatever the speed of the engine. Rounds repeat until the run's time is up;
a run makes at least one round, a traced run at least two.

``release-cycle`` drives the ``ca`` CLI in-process (``ca_engine.cli.main``);
``fanout`` and ``wide-input`` call ``Pipeline.run_direct`` with an executor
defined here on the public ``StepExecutor`` contract, followed by a read mix
through the CLI. All load comes from this one process with parallelism 2.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import resource
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from ca_engine import cli
from ca_engine.flow import graph as flow_graph
from ca_engine.flow.executors import ExecResult, StepExecutor, env_snapshot_bytes
from ca_engine.lineage import LineageLog
from ca_engine.pipeline import MAIN_BRANCH, Pipeline
from ca_engine.repo import Repository
from ca_engine.store import ArtifactKind, ArtifactStore, sha256_hex
from ca_engine.tuples import RunStore, VersionPin

from tracer import Tracer

PARALLELISM = 2
WORKLOADS = ("release-cycle", "fanout", "wide-input")
# A run stops starting new rounds after this long, so it ends within the
# three minutes it is allowed even when the engine gets much slower.
HARD_STOP_S = 120.0


@dataclass(frozen=True)
class Sizes:
    """Every size a workload depends on; recorded with each result."""

    items: int = 2000  # item ids per data manifest (release-cycle)
    cycles_per_round: int = 50
    fanout_flows_per_round: int = 1
    wide_flows_per_round: int = 8
    replay_every: int = 10
    score_partitions: int = 4
    fanout_partitions: int = 2000
    fanout_input_bytes: int = 1024
    wide_partitions: int = 32
    wide_input_bytes: int = 16 * 2**20
    min_setups: int = 30


class CheckFailed(Exception):
    """An operation exited non-zero, raised, or produced a wrong output."""


# -- seeded inputs -----------------------------------------------------------


def item_manifest(seed: int, version: int, items: int) -> bytes:
    """JSON array of item ids; version 0 is the initial data pin."""
    rng = random.Random(f"manifest:{seed}:{version}")
    ids = [f"i{rng.randrange(10**9):09d}" for _ in range(items)]
    return (json.dumps(ids) + "\n").encode("utf-8")


def payload(seed: int, size: int) -> bytes:
    return random.Random(f"payload:{seed}:{size}").randbytes(size)


def release_flow(score_partitions: int) -> bytes:
    """README-shaped flow: experiment -> score (partitions + merge) -> evaluate."""
    doc = {
        "steps": [
            {
                "name": "experiment",
                "command": "cat {input:dataset} {input:__data_manifest} > {output:model}",
                "inputs": {"dataset": {"pin": "data"}},
                "outputs": ["model"],
            },
            {
                "name": "score",
                "command": "echo {partition} | cat - {input:feed} > {output:chunk}",
                "inputs": {"feed": {"step": "experiment", "slot": "model"}},
                "outputs": ["chunk"],
                "partition": {
                    "count": score_partitions,
                    "merge_command": "cat {partitions:chunk} > {output:merged}",
                },
            },
            {
                "name": "evaluate",
                "command": "cat {input:scores} > /dev/null && echo '{\"accuracy\": 0.93}' > {output:metrics}",
                "inputs": {"scores": {"step": "score", "slot": "merged"}},
                "outputs": ["metrics"],
            },
        ],
        "outcomes": [{"step": "score", "slot": "merged"}, {"step": "evaluate", "slot": "metrics"}],
        "env_whitelist": [],
        "metrics_output": {"step": "evaluate", "slot": "metrics"},
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def fan_flow(partitions: int) -> bytes:
    """One step fanned out over the pinned input, plus a merge."""
    doc = {
        "steps": [
            {
                "name": "fan",
                "command": "derive {partition} {input:src} {output:part}",
                "inputs": {"src": {"pin": "data"}},
                "outputs": ["part"],
                "partition": {"count": partitions, "merge_command": "concat {partitions:part} {output:merged}"},
            }
        ],
        "outcomes": [{"step": "fan", "slot": "merged"}],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def partition_output(index: int, input_hash: str) -> bytes:
    return f"{index} {input_hash}\n".encode("ascii")


GATES = {"constraints": [{"metric": "accuracy", "op": ">=", "threshold": 0.9}]}
BASE_PINS = ("code=c1", "dependencies=d1", "deployment=y1")


class DerivingExecutor(StepExecutor):
    """In-process executor: starts no subprocess.

    A partition task (``derive <index> <input> <output>``) hashes its
    materialized input, fails unless the digest equals the pinned hash, and
    outputs ``"<index> <digest>"``. A merge task (``concat <parts...>
    <output>``) concatenates its inputs in the order the command lists them,
    which the engine renders in ascending partition index.
    """

    def __init__(self, expected_input_hash: str):
        self.expected_input_hash = expected_input_hash

    def run(self, command, *, inputs, outputs, env, workdir) -> ExecResult:
        verb, *args = command.split()
        env_blob = env_snapshot_bytes(env)
        (slot,) = outputs
        if verb == "derive":
            index, src = int(args[0]), args[1]
            digest = hashlib.sha256()
            with open(src, "rb") as fh:
                while chunk := fh.read(1 << 20):
                    digest.update(chunk)
            if digest.hexdigest() != self.expected_input_hash:
                return ExecResult(1, {}, b"materialized input does not match the pin\n", env_blob)
            log = f"partition {index}: input verified\n".encode("ascii")
            return ExecResult(0, {slot: partition_output(index, digest.hexdigest())}, log, env_blob)
        if verb == "concat":
            parts = [Path(path).read_bytes() for path in args[:-1]]
            return ExecResult(0, {slot: b"".join(parts)}, f"merged {len(parts)} parts\n".encode("ascii"), env_blob)
        return ExecResult(2, {}, f"unknown verb {verb!r}\n".encode("ascii"), env_blob)


# -- measurement helpers ------------------------------------------------------


def dir_bytes(root: Path) -> int:
    """Total size of the files under a repository, leaving out its ``tmp/``."""
    total = 0
    stack = [root]
    while stack:
        with os.scandir(stack.pop()) as entries:
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    if Path(entry.path) != root / "tmp":
                        stack.append(Path(entry.path))
                elif entry.is_file(follow_symlinks=False):
                    total += entry.stat(follow_symlinks=False).st_size
    return total


def line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def object_bytes(ca_root: Path, artifact_id: str) -> bytes:
    """Read a blob straight from the store layout and check its digest."""
    digest = artifact_id.partition(":")[2]
    data = (ca_root / "objects" / digest[:2] / digest[2:]).read_bytes()
    if sha256_hex(data) != digest:
        raise CheckFailed(f"object {artifact_id} does not match its digest")
    return data


ROUND_SERIES = ("cycle_ms", "query_ms", "query_mix_ms", "tasks_per_s", "input_mb_per_s", "repo_bytes_per_cycle")


@dataclass
class Samples:
    """Timings and counts of the rounds of one kind (traced or untraced).

    ``rounds`` holds one dict per round, mapping each of ``ROUND_SERIES`` to
    that round's samples in the order they were taken.
    """

    setup_s: list[float] = field(default_factory=list)
    rounds: list[dict[str, list[float]]] = field(default_factory=list)
    units: int = 0
    index_rows_added: int = 0

    def all(self, series: str) -> list[float]:
        return [value for r in self.rounds for value in r[series]]


class Bench:
    """One run of one workload: rounds, checks and samples."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path, sizes: Sizes):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.sizes = sizes
        self.tracer = Tracer()
        self.untraced = Samples()
        self.traced = Samples()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rounds = 0
        self._round_root: Path | None = None
        self._round: dict[str, list[float]] = {}
        self._ca_root: Path | None = None  # repository the ``ca`` commands address

    # -- bookkeeping -----------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            raise CheckFailed(what)

    def samples(self, traced: bool) -> Samples:
        return self.traced if traced else self.untraced

    def ca(self, label: str, *argv: str) -> tuple[dict, float]:
        """Run one ``ca`` command in-process; returns its JSON output and seconds."""
        out, err = io.StringIO(), io.StringIO()
        argv = [*argv, "--repo", str(self._ca_root), "--json"]
        with self.tracer.span(f"cli.{label}"):
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # an exception escaping the CLI is a failed operation
                    code = f"exception {exc!r}"
            elapsed = time.perf_counter() - start
        self.check(code == 0, f"ca {' '.join(argv[:2])}: exit {code}: {err.getvalue().strip()[:300]}")
        text = out.getvalue()
        return (json.loads(text) if text.strip() else {}), elapsed

    # -- driver ----------------------------------------------------------------

    def enough(self) -> bool:
        return self.rounds >= (2 if self.trace else 1)

    def run(self) -> None:
        release = self.workload == "release-cycle"
        round_fn = self._release_round if release else self._direct_round
        setup_fn = self._release_setup if release else self._direct_setup
        if self.trace:
            self.tracer.install(executor_classes=(DerivingExecutor,))
        try:
            start = time.perf_counter()
            while True:
                elapsed = time.perf_counter() - start
                if elapsed >= HARD_STOP_S or (elapsed >= self.seconds and self.enough()):
                    break
                traced = self.trace and self.rounds % 2 == 0
                self._round = {series: [] for series in ROUND_SERIES}
                self.samples(traced).rounds.append(self._round)
                self._in_round(round_fn, traced)
                self.rounds += 1
            # Set-up is short next to a round, so pad its sample count with
            # set-ups that are timed and then discarded.
            while len(self.untraced.setup_s) + len(self.traced.setup_s) < self.sizes.min_setups:
                self._in_round(setup_fn, False)
        finally:
            self.tracer.enabled = False
            self.tracer.uninstall()

    def _in_round(self, round_fn, traced: bool) -> None:
        self._round_root = self.workdir / f"round-{self.rounds}"
        try:
            round_fn(traced)
        finally:
            self.tracer.enabled = False
            shutil.rmtree(self._round_root, ignore_errors=True)

    def _timed_setup(self, traced: bool, setup) -> object:
        start = time.perf_counter()
        state = setup()
        self.samples(traced).setup_s.append(time.perf_counter() - start)
        return state

    def _begin_unit(self, traced: bool) -> None:
        samples = self.samples(traced)
        samples.units += 1
        self.tracer.trace_id = samples.units if traced else 0
        self.tracer.enabled = traced

    # -- release-cycle -----------------------------------------------------------

    def _release_setup(self, traced: bool):
        sizes = self.sizes
        root = self._round_root

        def setup():
            self._ca_root = root / ".ca"
            inputs = root / "inputs"
            inputs.mkdir(parents=True)
            for version in range(sizes.cycles_per_round + 1):
                (inputs / f"manifest-{version:04d}.json").write_bytes(item_manifest(self.seed, version, sizes.items))
            (inputs / "flow.json").write_bytes(release_flow(sizes.score_partitions))
            self.ca("init", "init")
            put, _ = self.ca(
                "artifact-put", "artifact", "put", str(inputs / "manifest-0000.json"),
                "--kind", "data", "--media-type", "application/json",
            )
            pins = [arg for pin in BASE_PINS for arg in ("--pin", pin)]
            self.ca("init", "init", *pins, "--pin", f"data=v0000@{put['hash']}")
            (root / ".ca" / "gates.json").write_text(json.dumps(GATES))
            return inputs

        return self._timed_setup(traced, setup)

    def _release_round(self, traced: bool) -> None:
        inputs = self._release_setup(traced)
        ca_root = self._round_root / ".ca"
        flow = str(inputs / "flow.json")
        tasks_per_run = self.sizes.score_partitions + 3
        samples = self.samples(traced)
        current = self._round
        replays = 0
        rows_before = line_count(ca_root / "index.jsonl")
        size_before = dir_bytes(ca_root)
        for cycle in range(1, self.sizes.cycles_per_round + 1):
            self._begin_unit(traced)
            manifest_path = inputs / f"manifest-{cycle:04d}.json"
            manifest_hash = sha256_hex(manifest_path.read_bytes())

            put, t_put = self.ca(
                "artifact-put", "artifact", "put", str(manifest_path), "--kind", "data", "--media-type", "application/json"
            )
            self.check(put.get("hash") == manifest_hash, "artifact put returned the manifest hash")
            event_id = f"evt-{self.seed}-{cycle:04d}"
            plan, t_emit = self.ca(
                "event-emit", "event", "emit", "--source", "data", "--ref", "working/bench",
                "--version", f"v{cycle:04d}", "--content", manifest_hash, "--id", event_id,
            )
            self.check(plan["tuple"]["data"]["content"] == manifest_hash, "event plan pins the new manifest")
            validation, t_flow = self.ca("flow-run", "flow", "run", flow, "--event", event_id, "--parallelism", "2")
            self.check(validation["status"] == "succeeded", "validation run succeeded")
            self.check(validation["data_scope"]["kind"] == "subset", "validation run saw the subset")
            val_id = validation["run_id"]
            gate, t_gate = self.ca("gate-eval", "gate", "eval", val_id)
            self.check(gate["pass"] is True, "gate passed")
            approved, t_approve = self.ca(
                "approve-release", "approve", val_id, "--by", "bench", "--auto-release", "--flow", flow, "--parallelism", "2"
            )
            release = approved["release"]
            rel_id = release["run_id"]
            self.check(release["status"] == "succeeded", "release run succeeded")
            self.check(release["data_scope"]["kind"] == "full", "release run saw the full data")
            pins = json.loads((ca_root / "pins.json").read_text())
            self.check(pins["main"]["pins"]["data"]["content"] == manifest_hash, "main data pin is the new manifest")
            self.check(pins["main"]["last_release_run"] == rel_id, "main records the release")

            current["cycle_ms"].append((t_put + t_emit + t_flow + t_gate + t_approve) * 1000)
            flow_s = t_flow + t_approve
            current["tasks_per_s"].append(2 * tasks_per_run / flow_s)
            shared = sum(self._model_bytes(ca_root, run_id) for run_id in (val_id, rel_id))
            current["input_mb_per_s"].append(self.sizes.score_partitions * shared / 1e6 / flow_s)

            data_ref = f"data:{manifest_hash}"
            result_ref = release["result_ids"][0]
            queries = []
            prov, t = self.ca("provenance", "lineage", "provenance", result_ref)
            queries.append(t)
            self.check(f"artifact:{data_ref}" in prov["closure"], "provenance of the release reaches the new data")
            users, t = self.ca("who-uses", "lineage", "who-uses", data_ref)
            queries.append(t)
            self.check({val_id, rel_id} <= set(users["runs"]), "who-uses lists both runs on the new data")
            shown, t = self.ca("run-show", "run", "show", rel_id)
            queries.append(t)
            self.check(len(shown["step_outcomes"]) == tasks_per_run, "release recorded every task")
            diff, t = self.ca("run-diff", "run", "diff", val_id, rel_id)
            queries.append(t)
            self.check(diff["tuple_diff"] == [] and [m["metric"] for m in diff["metrics"]] == ["accuracy"], "run diff")
            verified, t = self.ca("artifact-verify", "artifact", "verify", data_ref)
            queries.append(t)
            self.check(verified["ok"] is True, "new data verifies")
            listed, t = self.ca("run-ls", "run", "ls")
            queries.append(t)
            self.check(len(listed["runs"]) == 2 * cycle + replays, "run ls lists every run")
            current["query_ms"].extend(q * 1000 for q in queries)
            current["query_mix_ms"].append(sum(queries) * 1000 / len(queries))

            size_after = dir_bytes(ca_root)
            current["repo_bytes_per_cycle"].append(size_after - size_before)
            if cycle % self.sizes.replay_every == 0:
                replay, _ = self.ca("replay", "replay", rel_id, "--flow", flow, "--parallelism", "2")
                self.check(replay["identical"] is True, "replay of the release is identical")
                replays += 1
                size_after = dir_bytes(ca_root)
            size_before = size_after
            self.tracer.enabled = False
        samples.index_rows_added += line_count(ca_root / "index.jsonl") - rows_before

    def _model_bytes(self, ca_root: Path, run_id: str) -> int:
        """Size of the experiment's model, the input every score partition reads."""
        record = json.loads((ca_root / "runs" / f"{run_id}.json").read_text())
        (experiment,) = [o for o in record["step_outcomes"] if o["step"] == "experiment"]
        return len(object_bytes(ca_root, experiment["output_ids"]["model"]))

    # -- fanout / wide-input ---------------------------------------------------------

    def _direct_setup(self, traced: bool, root: Path | None = None):
        root = root or self._round_root
        if self.workload == "fanout":
            partitions, input_bytes = self.sizes.fanout_partitions, self.sizes.fanout_input_bytes
        else:
            partitions, input_bytes = self.sizes.wide_partitions, self.sizes.wide_input_bytes

        def setup():
            root.mkdir(parents=True)
            data = payload(self.seed, input_bytes)
            flow_path = root / "flow.json"
            flow_path.write_bytes(fan_flow(partitions))
            self._ca_root = root / ".ca"
            repo = Repository(self._ca_root)
            repo.init()
            store = ArtifactStore(repo)
            runs = RunStore(repo, store)
            pipeline = Pipeline(repo, store, runs, LineageLog(repo), parallelism=PARALLELISM)
            input_id = store.put(ArtifactKind.DATA, data)
            pins = [VersionPin(*pin.split("=")) for pin in BASE_PINS]
            pipeline.set_branch_pins(MAIN_BRANCH, [*pins, VersionPin("data", "v0001", input_id.hash)])
            return pipeline, flow_path, input_id, partitions, len(data)

        return self._timed_setup(traced, setup)

    def _direct_round(self, traced: bool) -> None:
        """Several flow runs, each on a fresh repository of its own."""
        if self.workload == "fanout":
            flows = self.sizes.fanout_flows_per_round
        else:
            flows = self.sizes.wide_flows_per_round
        for flow in range(flows):
            root = self._round_root / f"flow-{flow}"
            try:
                self._direct_flow(traced, root)
            finally:
                self.tracer.enabled = False
                shutil.rmtree(root, ignore_errors=True)

    def _direct_flow(self, traced: bool, root: Path) -> None:
        pipeline, flow_path, input_id, partitions, input_bytes = self._direct_setup(traced, root)
        ca_root = root / ".ca"
        samples = self.samples(traced)
        current = self._round
        rows_before = line_count(ca_root / "index.jsonl")
        size_before = dir_bytes(ca_root)
        self._begin_unit(traced)

        graph = flow_graph.parse_manifest(flow_path.read_text())
        executor = DerivingExecutor(input_id.hash)
        start = time.perf_counter()
        try:
            record = pipeline.run_direct(graph, executor)
        except Exception as exc:  # an exception out of the engine is a failed operation
            self.check(False, f"run_direct raised {exc!r}")
        flow_s = time.perf_counter() - start
        self.check(record.status == "succeeded", "flow run succeeded")
        self.check(len(record.step_outcomes) == partitions + 1, "task count is partitions + 1")
        current["cycle_ms"].append(flow_s * 1000)
        current["tasks_per_s"].append(len(record.step_outcomes) / flow_s)
        current["input_mb_per_s"].append(partitions * input_bytes / 1e6 / flow_s)

        expected = [partition_output(i, input_id.hash) for i in range(partitions)]
        produced = {
            o.partition_index: object_bytes(ca_root, str(o.output_ids["part"]))
            for o in record.step_outcomes
            if o.partition_index is not None
        }
        self.check(produced == dict(enumerate(expected)), "every partition output is derived from its index and input")
        merged_ref = str(record.result_ids[0])
        self.check(object_bytes(ca_root, merged_ref) == b"".join(expected), "merge is the partitions in index order")

        data_ref = str(input_id)
        queries = []
        prov, t = self.ca("provenance", "lineage", "provenance", merged_ref)
        queries.append(t)
        self.check(f"artifact:{data_ref}" in prov["closure"], "provenance of the merge reaches the input")
        users, t = self.ca("who-uses", "lineage", "who-uses", data_ref)
        queries.append(t)
        self.check(users["runs"] == [record.run_id], "who-uses lists the run")
        shown, t = self.ca("run-show", "run", "show", record.run_id)
        queries.append(t)
        self.check(len(shown["step_outcomes"]) == partitions + 1, "run show lists every task")
        gate, t = self.ca("gate-eval", "gate", "eval", record.run_id)
        queries.append(t)
        self.check(gate["pass"] is True, "gate passes with no policy")
        verified, t = self.ca("artifact-verify", "artifact", "verify", data_ref)
        queries.append(t)
        self.check(verified["ok"] is True, "input verifies")
        listed, t = self.ca("run-ls", "run", "ls")
        queries.append(t)
        self.check(len(listed["runs"]) == 1, "run ls lists the run")
        current["query_ms"].extend(q * 1000 for q in queries)
        current["query_mix_ms"].append(sum(queries) * 1000 / len(queries))
        self.tracer.enabled = False

        current["repo_bytes_per_cycle"].append(dir_bytes(ca_root) - size_before)
        samples.index_rows_added += line_count(ca_root / "index.jsonl") - rows_before


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
