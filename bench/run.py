"""ca-engine benchmark.

Run one workload from the root of a source checkout:

    python3 bench/run.py --workload release-cycle --seed 1 --seconds 25 --trace 0

The engine is imported from ``src/`` of the checkout; nothing is installed.
The run prints a report, saves it under ``.bench_results/``, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics). Compare two directories of saved results with:

    python3 bench/run.py compare BASE_DIR NEW_DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))


def _import_engine():
    """Put the checkout's ``src/`` on the path and import the benchmark modules."""
    src = ROOT / "src"
    if not (src / "ca_engine" / "__init__.py").is_file():
        raise SystemExit(f"bench: no engine sources at {src}/ca_engine; run from a ca-engine checkout")
    sys.path.insert(0, str(src))
    import report
    import workloads

    return report, workloads


def run_one(args) -> int:
    report, workloads = _import_engine()
    sizes = workloads.Sizes()
    workdir = ROOT / ".bench_work" / f"{os.getpid()}"
    bench = workloads.Bench(args.workload, args.seed, args.seconds, bool(args.trace), workdir, sizes)
    started = time.time()
    try:
        bench.run()
        error = None
    except workloads.CheckFailed as exc:
        error = str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    rss = workloads.peak_rss_mb()

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_at": started,
        "rounds": bench.rounds,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "parallelism": workloads.PARALLELISM,
            "flush_policy": "fsync on every journal append and atomic write, as shipped",
            "verification": "store get hash-verifies, as shipped",
        },
        "sizes": dataclasses.asdict(sizes),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "correct": error is None and bench.failed == 0,
    }
    untraced = bench.untraced
    doc["round_samples"] = {
        "untraced": {"setup_s": untraced.setup_s, "rounds": untraced.rounds},
        "traced": {"setup_s": bench.traced.setup_s, "rounds": bench.traced.rounds},
    }
    if untraced.all("cycle_ms"):
        doc["end_to_end"] = report.end_to_end(untraced, rss, bench.attempted, bench.failed)
    if args.trace and bench.traced.all("cycle_ms"):
        doc["traced_end_to_end"] = report.end_to_end(bench.traced, rss, bench.attempted, bench.failed)
        doc["per_layer"] = report.per_layer(bench.tracer, bench.traced, workloads.PARALLELISM)
        if "end_to_end" in doc:
            doc["tracing_overhead"] = report.overhead(doc["end_to_end"], doc["traced_end_to_end"])

    out_dir = Path(args.out) if args.out else ROOT / ".bench_results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=2) + "\n")
    if args.trace:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
            for index, span in enumerate(bench.tracer.spans):
                fh.write(json.dumps(span.to_dict(index)) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {bench.rounds}  trace {args.trace}")
    print(f"environment {json.dumps(doc['environment'])}")
    print(f"sizes {json.dumps(doc['sizes'])}")
    for title, key in (
        ("end-to-end (tracing off)", "end_to_end"),
        ("end-to-end (tracing on)", "traced_end_to_end"),
        ("per-layer (per cycle or flow run)", "per_layer"),
    ):
        if key in doc:
            print(report.format_table(title, doc[key]))
    if "tracing_overhead" in doc:
        print("tracing overhead (traced / untraced)")
        for name, ratio in doc["tracing_overhead"].items():
            print(f"  {name:<40} {ratio:>14.4f}")
    if error:
        print(f"FAILED: {error}")
    print(f"saved {out_dir / stem}.json")

    section = "per_layer" if args.trace else "end_to_end"
    table = report.PER_LAYER if args.trace else report.END_TO_END
    metrics = {
        m.name: {"value": doc[section][m.name]["value"], "unit": m.unit}
        for m in table
        if m.every_workload and m.name in doc.get(section, {})
    }
    line = {"correct": doc["correct"], "attempted": max(bench.attempted, 1), "failed": bench.failed, "metrics": metrics}
    print(json.dumps(line))
    return 0 if doc["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench/run.py compare")
        parser.add_argument("base", help="directory of saved results for the base commit")
        parser.add_argument("new", help="directory of saved results for the new commit")
        args = parser.parse_args(argv[1:])
        import report

        print(report.compare(Path(args.base), Path(args.new)))
        return 0
    parser = argparse.ArgumentParser(prog="bench/run.py", description="ca-engine benchmark")
    parser.add_argument("--workload", required=True, choices=["release-cycle", "fanout", "wide-input"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="directory for the saved result (default .bench_results/)")
    return run_one(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
