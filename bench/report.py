"""Metric definitions, summaries of a run, and the compare mode.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's own metric tables. The
entries marked ``every_workload`` are defined, and never zero, on all three
workloads; those are the ones ``BENCHMARK.json`` lists and the last output
line carries. The others exist on some workloads only and appear in the
report and in the saved result.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

from tracer import execute_breakdown, self_times


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None
    every_workload: bool = True


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("cycle_ms.p50", "ms", "lower", 0.25),
    Metric("cycle_ms.p90", "ms", "lower", 0.25, every_workload=False),
    Metric("query_ms.p50", "ms", "lower", 0.25),
    Metric("query_ms.p90", "ms", "lower", 0.25, every_workload=False),
    Metric("repo_bytes_per_cycle", "bytes", "lower", 0.1),
    Metric("tasks_per_s", "tasks/s", "higher", 0.25),
    Metric("input_mb_per_s", "MB/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("fail_ratio", "ratio", "lower", every_workload=False),
)

# Commands whose self time the traced run reports, by workload.
CYCLE_COMMANDS = ("artifact-put", "event-emit", "flow-run", "gate-eval", "approve-release")
QUERY_COMMANDS = ("provenance", "who-uses", "run-show", "run-diff", "artifact-verify", "run-ls")
RELEASE_ONLY_COMMANDS = ("artifact-put", "event-emit", "flow-run", "approve-release", "run-diff")

_LAYER_ROWS = [
    *[(f"cli.{cmd}.ms", "ms", cmd not in RELEASE_ONLY_COMMANDS) for cmd in (*CYCLE_COMMANDS, *QUERY_COMMANDS)],
    ("repo.write_lock.count", "count", True),
    ("repo.write_lock.wait_ms", "ms", True),
    ("store.open.count", "count", True),
    ("store.open.ms", "ms", True),
    ("store.put.count", "count", True),
    ("store.put.ms", "ms", True),
    ("store.put.bytes", "bytes", True),
    ("store.put.new_ratio", "ratio", True),
    ("store.get.count", "count", True),
    ("store.get.ms", "ms", True),
    ("store.get.bytes", "bytes", True),
    ("store.hashed_per_input_byte", "ratio", True),
    ("store.find_by_hash.count", "count", True),
    ("store.find_by_hash.ms", "ms", True),
    ("tuples.mint_run_id.ms", "ms", True),
    ("tuples.record.ms", "ms", True),
    ("tuples.attach_feedback.ms", "ms", True),
    ("tuples.load.count", "count", True),
    ("tuples.list.ms", "ms", True),
    ("flow.graph.parse_manifest.ms", "ms", True),
    ("flow.graph.validate.ms", "ms", True),
    ("flow.runner.execute.count", "count", True),
    ("flow.runner.execute.ms", "ms", True),
    ("flow.runner.tasks", "count", True),
    ("flow.runner.engine_only_ms", "ms", True),
    ("flow.runner.engine_only_ms_per_task", "ms", True),
    ("flow.executors.run.count", "count", True),
    ("flow.executors.run.ms", "ms", True),
    ("flow.executors.busy_ratio", "ratio", True),
    ("feedback.collect.ms", "ms", True),
    ("feedback.load_bundle.ms", "ms", True),
    ("feedback.evaluate_gate.ms", "ms", True),
    ("lineage.open.ms", "ms", True),
    ("lineage.record_edges.ms", "ms", True),
    ("lineage.edges_added", "count", True),
    ("lineage.provenance_of.ms", "ms", True),
    ("lineage.runs_using.ms", "ms", True),
    ("lineage.replay_check.ms", "ms", False),
    ("pipeline.ingest_event.ms", "ms", False),
    ("pipeline.run_validation.ms", "ms", False),
    ("pipeline.gate_report.ms", "ms", True),
    ("pipeline.approve.ms", "ms", False),
    ("pipeline.run_release.ms", "ms", False),
    ("pipeline.run_direct.ms", "ms", False),
    ("util.fsync.count", "count", True),
    ("util.fsync.ms", "ms", True),
    ("util.append_line.count", "count", True),
    ("util.atomic_write.count", "count", True),
]
_HIGHER_IS_BETTER = {"store.put.new_ratio", "flow.executors.busy_ratio"}
PER_LAYER = tuple(
    Metric(name, unit, "higher" if name in _HIGHER_IS_BETTER else "lower", every_workload=every)
    for name, unit, every in _LAYER_ROWS
)


# -- statistics -------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float | None:
    """The 90th percentile, only when at least ten samples lie above it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[8]


def spread(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- one run -------------------------------------------------------------------


def end_to_end(samples, rss_mb: float, attempted: int, failed: int) -> dict[str, dict]:
    """End-to-end metrics of one set of rounds, with the sample count of each."""

    def mid(series):
        values = samples.all(series)
        return (median(values) if values else None), len(values)

    cycles, queries = samples.all("cycle_ms"), samples.all("query_ms")
    values = {
        "setup_s": (median(samples.setup_s) if samples.setup_s else None, len(samples.setup_s)),
        "cycle_ms.p50": mid("cycle_ms"),
        "cycle_ms.p90": (p90(cycles), len(cycles)),
        # Median over cycles of the read mix's mean latency: the mix has a
        # few slow commands, so a median over single commands would jump
        # between command types as their costs shift.
        "query_ms.p50": mid("query_mix_ms"),
        "query_ms.p90": (p90(queries), len(queries)),
        "repo_bytes_per_cycle": mid("repo_bytes_per_cycle"),
        "tasks_per_s": mid("tasks_per_s"),
        "input_mb_per_s": mid("input_mb_per_s"),
        "peak_rss_mb": (rss_mb, 1),
        "fail_ratio": (failed / attempted if attempted else 0.0, attempted),
    }
    units = {m.name: m.unit for m in END_TO_END}
    return {
        name: {"value": value, "unit": units[name], "samples": n}
        for name, (value, n) in values.items()
        if value is not None
    }


def per_layer(tracer, samples, parallelism: int) -> dict[str, dict]:
    """Per-layer metrics from the traced rounds, per cycle or per flow run."""
    spans = tracer.spans
    units = max(samples.units, 1)
    own = self_times(spans)
    count: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    wall_ms: dict[str, float] = {}
    for span, own_s in zip(spans, own):
        count[span.name] = count.get(span.name, 0) + 1
        self_ms[span.name] = self_ms.get(span.name, 0.0) + own_s * 1000
        wall_ms[span.name] = wall_ms.get(span.name, 0.0) + (span.end - span.start) * 1000
    executes = execute_breakdown(spans)
    tasks = sum(e["tasks"] for e in executes)
    engine_only_ms = sum(e["engine_only"] for e in executes) * 1000
    slot_time = sum(e["wall"] for e in executes) * parallelism
    counters = tracer.counters
    distinct_get_bytes = sum(tracer.get_sizes.values())
    puts = count.get("store.put", 0)

    values: dict[str, float] = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.name.rpartition(".")
        if stat == "ms":
            values[metric.name] = self_ms.get(layer, 0.0) / units
        elif stat == "count":
            values[metric.name] = count.get(layer, 0) / units
    values.update(
        {
            "repo.write_lock.wait_ms": wall_ms.get("repo.write_lock", 0.0) / units,
            "store.put.bytes": counters.get("store.put.bytes", 0) / units,
            "store.put.new_ratio": samples.index_rows_added / puts if puts else 0.0,
            "store.get.bytes": counters.get("store.get.bytes", 0) / units,
            "store.hashed_per_input_byte": (
                counters.get("store.get.bytes", 0) / distinct_get_bytes if distinct_get_bytes else 0.0
            ),
            "flow.runner.tasks": tasks / units,
            "flow.runner.engine_only_ms": engine_only_ms / units,
            "flow.runner.engine_only_ms_per_task": engine_only_ms / tasks if tasks else 0.0,
            "flow.executors.busy_ratio": (
                sum(e["executor_busy"] for e in executes) / slot_time if slot_time else 0.0
            ),
            "lineage.edges_added": counters.get("lineage.edges_added", 0) / units,
        }
    )
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}


def overhead(untraced: dict, traced: dict) -> dict[str, float]:
    """Traced ÷ untraced for every timing both sides report."""
    out = {}
    for metric in END_TO_END:
        if metric.unit not in ("s", "ms", "tasks/s", "MB/s"):
            continue
        a, b = untraced.get(metric.name), traced.get(metric.name)
        if a and b and a["value"]:
            out[metric.name] = b["value"] / a["value"]
    return out


def format_table(title: str, metrics: dict[str, dict]) -> str:
    lines = [title]
    for name, m in metrics.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        lines.append(f"  {name:<40} {m['value']:>14.4f} {m['unit']}{samples}")
    return "\n".join(lines)


# -- compare ---------------------------------------------------------------------


def load_results(directory: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values over every saved result in a directory."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        sections = [doc.get("end_to_end", {}), doc.get("per_layer", {})]
        for section in sections:
            for name, metric in section.items():
                values.setdefault((doc["workload"], name), []).append(metric["value"])
    return values


def verdict(metric: Metric | None, base: list[float], new: list[float]) -> str:
    """``worse``, ``unresolved`` or ``ok`` against the metric's bound."""
    if metric is None or metric.bound is None:
        return "-"
    b1, bm, b3 = spread(base)
    n1, nm, n3 = spread(new)
    if bm == 0 or nm == 0:
        return "ok" if bm == nm else "unresolved"
    lower = metric.better == "lower"
    worse_by = (nm - bm) / bm if lower else (bm - nm) / bm
    if (b3 - b1) / bm > metric.bound or (n3 - n1) / nm > metric.bound:
        always_better = max(new) < min(base) if lower else min(new) > max(base)
        return "ok" if always_better else "unresolved"
    return "worse" if worse_by > metric.bound else "ok"


def compare(base_dir: Path, new_dir: Path) -> str:
    base, new = load_results(base_dir), load_results(new_dir)
    known = {m.name: m for m in (*END_TO_END, *PER_LAYER)}
    header = f"{'workload':<14} {'metric':<38} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} {'ratio':>7}  verdict"
    lines = [header, "-" * len(header)]
    for key in sorted(set(base) & set(new)):
        workload, name = key
        metric = known.get(name)
        cells = []
        for values in (base[key], new[key]):
            q1, q2, q3 = spread(values)
            cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
        b, n = median(base[key]), median(new[key])
        ratio = f"{n / b:.3f}" if b else "-"
        lines.append(f"{workload:<14} {name:<38} {cells[0]:>34} {cells[1]:>34} {ratio:>7}  {verdict(metric, base[key], new[key])}")
    return "\n".join(lines)
