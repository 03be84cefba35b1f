"""Lineage queries read only the edges of the nodes they visit, and answer as a scan of every edge does."""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ca_engine import journal, lineage
from ca_engine.cli import main
from ca_engine.errors import IntegrityViolationError, RunNotFoundError
from ca_engine.journal import KEY_FILE_SLACK, Journal
from ca_engine.lineage import LineageEdge, LineageLog, _edge_ends, _edge_key
from ca_engine.repo import Repository
from ca_engine.store import ArtifactId, ArtifactKind
from ca_engine.util import canonical_json
from helpers import baseline_tuple, make_run, resign


def artifact(name: str) -> str:
    return f"artifact:data:{hashlib.sha256(name.encode()).hexdigest()}"


HOT = artifact("hot")  # pinned by every run
ARTIFACTS = [artifact(f"a{n}") for n in range(5)]
RUNS = [f"run:{n:012x}-000001" for n in range(4)]
EDGES = st.one_of(
    st.tuples(st.sampled_from(ARTIFACTS), st.sampled_from(RUNS), st.sampled_from(["consumed", "pinned"])),
    st.tuples(st.sampled_from(RUNS), st.sampled_from(ARTIFACTS), st.just("produced")),
)


class NoRuns:
    """A run store with no records, so ``runs_using`` orders runs by id."""

    def started_at(self, token):
        return None

    def load(self, token):
        raise RunNotFoundError(token)


def brute_runs_using(edges, node) -> list[str]:
    return sorted({dst.removeprefix("run:") for src, dst, role in edges if src == node and role in ("consumed", "pinned")})


def brute_provenance(edges, node) -> set[str]:
    closure, frontier = set(), [node]
    while frontier:
        current = frontier.pop()
        if current in closure:
            continue
        closure.add(current)
        produced = current.startswith("artifact:")
        frontier.extend(src for src, dst, role in edges if dst == current and (role == "produced") == produced)
    return closure


def scan(data: bytes) -> list[tuple] | None:
    """Every edge of the log's complete lines, read one line at a time; None when a line is not an edge."""
    edges = []
    for raw in data.split(b"\n")[:-1]:
        try:
            text = raw.decode("utf-8")
            if not text.strip():
                continue
            row = json.loads(text)
            key = (row["from"], row["to"], row["role"])
            hash(key)
        except (ValueError, KeyError, TypeError):
            return None
        edges.append(key)
    return edges


def queries(log: LineageLog, nodes: list[str]) -> list:
    ids = [ArtifactId.parse(node.removeprefix("artifact:")) for node in nodes]
    return [log.runs_using(i, run_store=NoRuns()) for i in ids] + [log.provenance_of(i) for i in ids]


def assert_answers_as_the_scan(repo: Repository, nodes: list[str], log: LineageLog | None = None) -> None:
    """``log``, a fresh one by default, answers as the brute-force scan of the log's bytes does."""
    edges = scan(repo.lineage_path.read_bytes())
    log = log or LineageLog(repo)
    if edges is None:
        try:
            queries(log, nodes)
        except IntegrityViolationError:
            return
        raise AssertionError("a log with a damaged line answered")
    expected = [brute_runs_using(edges, node) for node in nodes] + [brute_provenance(edges, node) for node in nodes]
    assert queries(log, nodes) == expected


# Lines of about 115 bytes, so together past the slack.
FILLER = [(HOT, f"run:filler-{n:06d}", "pinned") for n in range(KEY_FILE_SLACK // 100)]


@settings(max_examples=60, deadline=None)
@given(
    placed=st.lists(st.tuples(EDGES, st.integers(0, len(FILLER))), min_size=1, max_size=25),
    cut=st.floats(0, 1, exclude_max=True),
    where=st.floats(0, 1, exclude_max=True),
    byte=st.integers(0, 255),
    added=EDGES,
)
def test_lineage_queries_past_the_slack_match_a_brute_force_scan(placed, cut, where, byte, added):
    edges = list(FILLER)
    for edge, spot in sorted(placed, key=lambda item: -item[1]):
        edges.insert(spot, edge)
    edges += [(HOT, run, "pinned") for run in RUNS]
    lines = [canonical_json(dict(zip(("from", "to", "role"), edge))) + "\n" for edge in edges]
    cut = 1 + int(cut * len(lines))
    nodes = [HOT, *ARTIFACTS]
    with tempfile.TemporaryDirectory() as tmp:
        repo = Repository(Path(tmp) / ".ca")
        repo.init()
        path = repo.lineage_path
        # A key file cut at any line, read by a handle before another writer appends the rest.
        path.write_text("".join(lines[:cut]), encoding="utf-8")
        Journal(path, _edge_key, group=_edge_ends).write_keys()
        covered = path.stat().st_size
        keyed = LineageLog(repo)
        assert keyed._journal.covered == covered
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join(lines[cut:]))
        assert path.stat().st_size >= KEY_FILE_SLACK
        assert keyed._journal.covered == covered
        assert_answers_as_the_scan(repo, nodes, keyed)

        # A writer appending edges brings the key file up to the whole log.
        LineageLog(repo).append_edges([LineageEdge(*added), LineageEdge(HOT, "run:added", "pinned")])
        assert LineageLog(repo)._journal.covered == path.stat().st_size
        assert_answers_as_the_scan(repo, nodes)

        # A byte changed in the covered prefix answers as the scan of the changed log.
        data = bytearray(path.read_bytes())
        at = int(where * covered)
        if data[at] != byte:
            data[at] = byte
            path.write_bytes(data)
            assert_answers_as_the_scan(repo, nodes)


def hot_log(repo: Repository, runs: int = 120) -> list[tuple]:
    """Past the slack, with the key file covering it: a chain of runs, each pinning HOT and consuming its own input."""
    edges = []
    for n in range(runs):
        run = f"run:chain-{n:06d}"
        edges += [(HOT, run, "pinned"), (artifact(f"in-{n}"), run, "consumed"), (run, artifact(f"out-{n}"), "produced")]
        if n:
            edges.append((artifact(f"out-{n - 1}"), run, "consumed"))
    log = LineageLog(repo)
    for at in range(0, len(edges), 40):
        log.append_edges(LineageEdge(*edge) for edge in edges[at : at + 40])
    assert repo.lineage_path.stat().st_size >= KEY_FILE_SLACK
    assert LineageLog(repo)._journal.covered == repo.lineage_path.stat().st_size
    return edges


def counting_log(repo, monkeypatch) -> tuple[LineageLog, list]:
    """A fresh log whose key function records each row it is given, so decoded lines can be counted."""
    keyed = []

    def counting_key(row):
        keyed.append(_edge_key(row))
        return _edge_key(row)

    monkeypatch.setattr(lineage, "_edge_key", counting_key)
    return LineageLog(repo), keyed


def test_who_uses_decodes_only_the_artifacts_out_edges(repo, monkeypatch):
    edges = hot_log(repo)
    for node in (HOT, artifact("in-7"), artifact("out-7")):
        log, keyed = counting_log(repo, monkeypatch)
        users = log.runs_using(ArtifactId.parse(node.removeprefix("artifact:")), run_store=NoRuns())
        assert users == brute_runs_using(edges, node)
        assert sorted(keyed) == sorted(edge for edge in edges if edge[0] == node)


def test_provenance_decodes_only_the_in_edges_of_the_closure(repo, monkeypatch):
    edges = hot_log(repo)
    node = artifact("out-3")
    log, keyed = counting_log(repo, monkeypatch)
    closure = log.provenance_of(ArtifactId.parse(node.removeprefix("artifact:")))
    assert closure == brute_provenance(edges, node)
    assert HOT in closure and len(closure) == 13
    # HOT's 120 pinned edges leave it; none of them is decoded.
    assert sorted(keyed) == sorted(edge for edge in edges if edge[1] in closure)


def test_recording_a_run_pinned_to_a_shared_artifact_decodes_only_its_own_edges(repo, store, run_store, monkeypatch):
    hot = store.put(ArtifactKind.DATA, b"hot")
    node = lineage.artifact_ref(hot)
    LineageLog(repo).append_edges(LineageEdge(node, f"run:shared-{n:06d}", "pinned") for n in range(400))
    assert LineageLog(repo)._journal.covered == repo.lineage_path.stat().st_size >= KEY_FILE_SLACK
    record = make_run(store, run_store, avt=baseline_tuple(data_content=hot.hash), steps=3)

    # The first recording keys each edge as given and as the line the key file rewrite decodes.
    log, keyed = counting_log(repo, monkeypatch)
    own = log.record_edges(record, store=store)
    assert own == 1 + 3 and len(keyed) == 2 * own
    # A second one keys each edge as given and as the covered line recorded under the run's end.
    log, keyed = counting_log(repo, monkeypatch)
    assert log.record_edges(record, store=store) == 0
    assert len(keyed) == 2 * own
    assert LineageLog(repo).runs_using(hot, run_store=run_store)[-1] == record.run_id


def test_a_key_file_rewrite_hashes_only_the_appended_bytes(repo, monkeypatch):
    """The bytes a rewrite hashes are the new key file's own: no byte of the log, before or after the append."""
    hot_log(repo)
    hashed = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(journal.hashlib, "sha256", lambda data=b"": (hashed.append(len(data)), sha256(data))[1])
    log = LineageLog(repo)
    assert log.runs_using(ArtifactId.parse(HOT.removeprefix("artifact:")), run_store=NoRuns())
    for run in ("run:late", "run:later"):
        hashed.clear()
        assert log.append_edges([LineageEdge(HOT, run, "pinned")]) == 1
        assert hashed == [log._journal.keys_path.stat().st_size - 32]
    monkeypatch.undo()
    assert LineageLog(repo)._journal.covered == repo.lineage_path.stat().st_size


def test_a_version_3_lineage_key_file_is_ignored_with_correct_answers(repo):
    edges = hot_log(repo)
    # Version 3 recorded each edge once, under a digest of the whole edge.
    keys_path = repo.lineage_path.with_suffix(".idx")
    Journal(repo.lineage_path, _edge_key).write_keys()
    raw = keys_path.read_bytes()
    keys_path.write_bytes(resign(raw[:7] + b"\x03" + raw[8:]))
    assert Journal(repo.lineage_path, _edge_key).covered == 0
    log = LineageLog(repo)
    assert log._journal.covered == 0
    nodes = [HOT, artifact("in-5"), artifact("out-5")]
    expected = [brute_runs_using(edges, node) for node in nodes] + [brute_provenance(edges, node) for node in nodes]
    assert queries(log, nodes) == expected
    # The next writer replaces it with one that covers the whole log.
    LineageLog(repo).append_edges([LineageEdge(HOT, "run:late", "pinned")])
    edges.append((HOT, "run:late", "pinned"))
    log = LineageLog(repo)
    assert log._journal.covered == repo.lineage_path.stat().st_size
    expected = [brute_runs_using(edges, node) for node in nodes] + [brute_provenance(edges, node) for node in nodes]
    assert queries(log, nodes) == expected


def test_who_uses_orders_its_runs_by_start_time_from_the_run_journal_and_opens_no_record(repo, store, run_store, monkeypatch, capsys):
    hot = store.put(ArtifactKind.DATA, b"hot")
    avt = baseline_tuple(data_content=hot.hash)
    # Start times out of id order, two runs sharing one, so ties fall back to the id.
    starts = [f"2024-01-{1 + (n * 7) % 11:02d}T00:00:00.000000Z" for n in range(24)]
    log = LineageLog(repo)
    for started_at in starts:
        log.record_edges(make_run(store, run_store, avt=avt, started_at=started_at, steps=1), store=store)
    # A run with edges but no record sorts first, as one with no start time.
    log.append_edges([LineageEdge(lineage.artifact_ref(hot), "run:000000000000-000001", "pinned")])
    runs_dir = repo.runs_dir.resolve()

    def today(token):
        try:
            return (run_store.load(token).started_at, token)
        except RunNotFoundError:
            return ("", token)

    expected = sorted(LineageLog(repo).runs_using(hot, run_store=run_store), key=today)
    assert expected[0] == "000000000000-000001" and len(expected) == 25
    opened = []
    real_open, real_os_open = io.open, os.open

    def watch(path):
        if Path(os.fspath(path)).resolve().parent == runs_dir:
            opened.append(path)

    monkeypatch.setattr(io, "open", lambda path, *a, **k: (watch(path), real_open(path, *a, **k))[1])
    monkeypatch.setattr(os, "open", lambda path, *a, **k: (watch(path), real_os_open(path, *a, **k))[1])
    assert main(["lineage", "who-uses", str(hot), "--json", "--repo", str(repo.root)]) == 0
    assert json.loads(capsys.readouterr().out)["runs"] == expected
    # Only the run with no row is looked for, and it has no record file.
    assert [Path(path).name for path in opened] == ["000000000000-000001.json"]
