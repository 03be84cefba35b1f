"""Self-test of the benchmark: seeded inputs, exact traced counts, trace maths, compare.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import report  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, execute_breakdown, self_times, union_length  # noqa: E402

TINY = workloads.Sizes(
    items=100,
    cycles_per_round=3,
    wide_flows_per_round=2,
    replay_every=2,
    fanout_partitions=20,
    wide_partitions=3,
    wide_input_bytes=1 << 16,
    min_setups=2,
)
REPEATING = ("util.fsync.count", "store.put.count", "lineage.edges_added")


def test_one_seed_gives_byte_identical_inputs():
    for version in (0, 1, 7):
        assert workloads.item_manifest(5, version, 2000) == workloads.item_manifest(5, version, 2000)
    assert workloads.item_manifest(5, 1, 2000) != workloads.item_manifest(6, 1, 2000)
    assert workloads.payload(5, 4096) == workloads.payload(5, 4096)
    assert workloads.payload(5, 4096) != workloads.payload(6, 4096)
    assert len(json.loads(workloads.item_manifest(5, 0, 2000))) == 2000
    assert workloads.release_flow(4) == workloads.release_flow(4)
    assert workloads.fan_flow(2000) == workloads.fan_flow(2000)


def traced_run(workload: str, tmp_path: Path) -> dict:
    bench = workloads.Bench(workload, 3, 0, True, tmp_path, TINY)
    bench.run()
    assert bench.failed == 0 and bench.attempted > 0
    layers = report.per_layer(bench.tracer, bench.traced, workloads.PARALLELISM)
    e2e = report.end_to_end(bench.traced, 1.0, bench.attempted, bench.failed)
    counts = {name: layers[name]["value"] for name in REPEATING}
    counts["repo_bytes_per_cycle"] = e2e["repo_bytes_per_cycle"]["value"]
    return counts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload, tmp_path):
    first = traced_run(workload, tmp_path / "a")
    second = traced_run(workload, tmp_path / "b")
    assert all(value > 0 for value in first.values())
    # Run records and feedback bundles embed each task's wall_time_ms, so a
    # step that takes 10 ms in one run and 9 ms in the other changes the
    # bytes written by one digit. Operation counts must repeat exactly.
    assert first.pop("repo_bytes_per_cycle") == pytest.approx(second.pop("repo_bytes_per_cycle"), abs=64)
    assert first == second


def test_union_length_merges_overlaps_and_clips():
    assert union_length([], 0, 10) == 0
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(-5, 2), (9, 20)], 0, 10) == 3


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("flow.runner.execute", 0.0, 10.0, None, 1),
        Span("flow.executors.run", 1.0, 4.0, 0, 1),
        Span("flow.executors.run", 2.0, 6.0, 0, 1),  # overlaps on the other pool thread
        Span("store.put", 6.0, 7.0, 0, 1),
        Span("util.fsync", 6.5, 6.75, 3, 1),
    ]
    assert self_times(spans) == pytest.approx([10 - 6, 3, 4, 0.75, 0.25])
    (run,) = execute_breakdown(spans)
    assert run["tasks"] == 2
    assert run["engine_only"] == pytest.approx(10 - 5)
    assert run["executor_busy"] == pytest.approx(7)


def test_wrappers_are_transparent_and_removed(tmp_path):
    from ca_engine import store as store_mod
    from ca_engine import util
    from ca_engine.repo import Repository

    originals = (store_mod.ArtifactStore.put, util.append_line, store_mod.append_line, Repository.write_lock)
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        repo = Repository(tmp_path / ".ca")
        repo.init()
        store = store_mod.ArtifactStore(repo)
        artifact_id = store.put(store_mod.ArtifactKind.DATA, b"payload")
        assert store.get(artifact_id) == b"payload"
        with pytest.raises(store_mod.NotFoundError):
            store.get(store_mod.ArtifactId(store_mod.ArtifactKind.CODE, "0" * 64))
    finally:
        tracer.uninstall()
    assert (store_mod.ArtifactStore.put, util.append_line, store_mod.append_line, Repository.write_lock) == originals
    names = {span.name for span in tracer.spans}
    assert {"store.open", "store.put", "repo.write_lock", "util.append_line", "util.fsync", "store.get"} <= names
    assert tracer.counters["store.put.bytes"] == len(b"payload")


def write_results(directory: Path, values: list[float], metric: str = "cycle_ms.p50") -> None:
    directory.mkdir()
    for i, value in enumerate(values):
        doc = {"workload": "fanout", "end_to_end": {metric: {"value": value, "unit": "ms"}}}
        (directory / f"r{i}.json").write_text(json.dumps(doc))


def test_compare_marks_worse_unresolved_and_ok(tmp_path):
    write_results(tmp_path / "base", [100, 101, 99, 100, 102])
    write_results(tmp_path / "same", [101, 100, 100, 99, 101])
    write_results(tmp_path / "slow", [130, 131, 129, 130, 132])
    write_results(tmp_path / "noisy", [60, 140, 100, 70, 150])
    assert report.compare(tmp_path / "base", tmp_path / "same").endswith("ok")
    assert report.compare(tmp_path / "base", tmp_path / "slow").endswith("worse")
    assert report.compare(tmp_path / "base", tmp_path / "noisy").endswith("unresolved")


def test_benchmark_json_names_the_tables_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    # fanout stays runnable but is left out: it could not be made steady here.
    assert [w["name"] for w in doc["workloads"]] == ["release-cycle", "wide-input"]
    e2e = {m.name: m for m in report.END_TO_END if m.every_workload}
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == {
        name: (m.unit, m.better, m.bound) for name, m in e2e.items()
    }
    layers = {m.name: (m.unit, m.better) for m in report.PER_LAYER if m.every_workload}
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == layers
