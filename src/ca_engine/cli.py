"""The ``ca`` command line interface.

Exit codes: 0 success, 1 domain error (validation failure, gate fail,
not-aligned, ...), 2 usage error, 3 storage/integrity error. Every subcommand
accepts ``--json`` to emit a single machine-readable JSON document on stdout;
human mode prints tables. All error text goes to stderr.

Configuration precedence: flags > environment (``CA_REPO``,
``CA_PARALLELISM``) > ``config.json`` in the repository > built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

from . import __version__
from .errors import EngineError, StorageError
from .feedback import compare_runs
from .flow.executors import ProcessExecutor
from .flow.graph import parse_manifest, to_dot, validate
from .lineage import LineageLog, replay_check
from .pipeline import MAIN_BRANCH, Pipeline, make_event
from .repo import Repository
from .store import ArtifactId, ArtifactKind, ArtifactStore
from .tuples import RunStore, VersionPin

DEFAULT_REPO = ".ca"


class _UserPathError(Exception):
    """A path the user named cannot be read or written: a plain error (exit 1), not a storage fault."""


@contextmanager
def _user_path():
    """Raise an ``OSError`` inside as :class:`_UserPathError`."""
    try:
        yield
    except OSError as exc:
        raise _UserPathError(exc) from exc


def _load_manifest(path: str):
    """Parse the flow manifest at the path the user named."""
    with _user_path():
        text = Path(path).read_text(encoding="utf-8")
    return parse_manifest(text)


class _Context:
    """Lazily opened handles over one repository, and its settings."""

    def __init__(self, args):
        self.args = args
        self.repo = Repository(args.repo or os.environ.get("CA_REPO") or DEFAULT_REPO)
        config = self.repo.config()
        if os.environ.get("CA_PARALLELISM"):
            config["parallelism"] = os.environ["CA_PARALLELISM"]
        if args.parallelism is not None:
            config["parallelism"] = args.parallelism
        self.parallelism = int(config["parallelism"])
        self.subset_fraction = float(config["subset_fraction"])
        self.subset_seed = int(config["subset_seed"])
        self.flow_manifest = config["flow_manifest"]
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if not (0 < self.subset_fraction <= 1):
            raise ValueError("subset_fraction must be in (0, 1]")

    @cached_property
    def store(self) -> ArtifactStore:
        return ArtifactStore(self.repo)

    @cached_property
    def runs(self) -> RunStore:
        return RunStore(self.repo, self.store)

    @cached_property
    def lineage(self) -> LineageLog:
        return LineageLog(self.repo)

    @cached_property
    def pipeline(self) -> Pipeline:
        return Pipeline(
            self.repo,
            self.store,
            self.runs,
            self.lineage,
            subset_fraction=self.subset_fraction,
            subset_seed=self.subset_seed,
            parallelism=self.parallelism,
        )

    def load_graph(self, manifest_arg: str | None):
        path = manifest_arg or self.flow_manifest
        if not path:
            raise EngineError("no flow manifest given (pass --flow or set flow_manifest in config.json)")
        graph = _load_manifest(path)
        violations = validate(graph)
        if violations:
            raise EngineError("invalid flow: " + "; ".join(str(v) for v in violations))
        return graph


def _emit(args, doc: dict, human: str | Callable[[], str]) -> None:
    """Print ``doc`` under ``--json``, else the human text; a callable builds the text only when it is printed."""
    if getattr(args, "json", False):
        print(json.dumps(doc, sort_keys=True))
        return
    text = human() if callable(human) else human
    if text:
        print(text)


def _finish_run(args, record, doc: dict, human: str) -> int:
    """Emit ``doc``, print one stderr line per failed task of ``record``, and return 0 if it succeeded, else 1."""
    _emit(args, doc, human)
    for o in record.step_outcomes:
        if o.exit_code:
            part = "" if o.partition_index is None else f"[p{o.partition_index}]"
            print(f"failed task: {o.step}{part} exit {o.exit_code}, log {o.log_id}", file=sys.stderr)
    return 0 if record.status == "succeeded" else 1


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))).rstrip(),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def _parse_labels(pairs: list[str]) -> dict[str, str]:
    labels = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"label must look like key=value, got {pair!r}")
        labels[key] = value
    return labels


def _parse_pin_flag(text: str) -> VersionPin:
    component, sep, rest = text.partition("=")
    if not sep or not rest:
        raise ValueError(f"pin must look like component=version[@hash], got {text!r}")
    version, at, content = rest.partition("@")
    return VersionPin(component, version, content if at else None)


# -- subcommand handlers -------------------------------------------------------


def cmd_init(args) -> int:
    ctx = _Context(args)
    created = ctx.repo.init()
    if args.pin:
        pins = [_parse_pin_flag(p) for p in args.pin]
        ctx.pipeline.set_branch_pins(MAIN_BRANCH, pins)
    _emit(
        args,
        {"repo": str(ctx.repo.root), "created": created},
        f"{'initialized' if created else 'already initialized'} {ctx.repo.root}",
    )
    return 0


def cmd_artifact_put(args) -> int:
    ctx = _Context(args)
    with _user_path():
        data = sys.stdin.buffer.read() if args.file == "-" else Path(args.file).read_bytes()
    artifact_id = ctx.store.put(
        ArtifactKind(args.kind), data, args.media_type, _parse_labels(args.label)
    )
    _emit(
        args,
        {"id": str(artifact_id), "kind": artifact_id.kind.value, "hash": artifact_id.hash, "size": len(data)},
        f"{artifact_id}",
    )
    return 0


def cmd_artifact_get(args) -> int:
    ctx = _Context(args)
    data = ctx.store.get(ArtifactId.parse(args.id))
    if args.output:
        with _user_path():
            Path(args.output).write_bytes(data)
    if getattr(args, "json", False):
        doc = {"id": args.id, "size": len(data), "output": args.output}
        if not args.output:
            import base64

            doc["base64"] = base64.b64encode(data).decode("ascii")
        print(json.dumps(doc, sort_keys=True))
    elif not args.output:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def cmd_artifact_verify(args) -> int:
    ctx = _Context(args)
    ok = ctx.store.verify(ArtifactId.parse(args.id))
    _emit(args, {"id": args.id, "ok": ok}, "true" if ok else "false")
    if not ok:
        print(f"error[integrity-violation]: {args.id} failed verification", file=sys.stderr)
        return 3
    return 0


def cmd_artifact_ls(args) -> int:
    ctx = _Context(args)
    kind = ArtifactKind(args.kind) if args.kind else None
    records = ctx.store.list(kind, _parse_labels(args.label))

    def human() -> str:
        rows = [[r.id.kind.value, r.id.hash[:12], str(r.size), r.media_type, r.created_at] for r in records]
        return _table(["kind", "hash", "size", "media_type", "created_at"], rows)

    _emit(args, {"artifacts": [r.to_dict() for r in records]}, human)
    return 0


def cmd_flow_validate(args) -> int:
    graph = _load_manifest(args.manifest)
    violations = validate(graph)
    if violations:
        for violation in violations:
            print(str(violation), file=sys.stderr)
        _emit(args, {"ok": False, "violations": [str(v) for v in violations]}, "")
        return 1
    _emit(args, {"ok": True, "violations": []}, "ok")
    return 0


def cmd_flow_graph(args) -> int:
    graph = _load_manifest(args.manifest)
    dot = to_dot(graph)
    if getattr(args, "json", False):
        print(json.dumps({"dot": dot}, sort_keys=True))
    else:
        print(dot)
    return 0


def cmd_flow_run(args) -> int:
    ctx = _Context(args)
    graph = ctx.load_graph(args.manifest)
    executor = ProcessExecutor()
    if args.event:
        plan = ctx.pipeline.find_plan(args.event)
        if plan is None:
            raise EngineError(f"no planned run for event {args.event!r} (emit it first)")
        record = ctx.pipeline.run_validation(plan, graph, executor)
    else:
        record = ctx.pipeline.run_direct(graph, executor, branch=args.branch)
    return _finish_run(args, record, record.summary(), f"run {record.run_id} [{record.kind}] {record.status}")


def cmd_event_emit(args) -> int:
    ctx = _Context(args)
    event = make_event(args.source, args.ref, args.version, args.content, args.id)
    plan = ctx.pipeline.ingest_event(event)
    _emit(
        args,
        {"event_id": plan.event_id, "branch": plan.branch, "kind": plan.kind, "tuple": plan.tuple.to_dict()},
        f"planned {plan.kind} run for event {plan.event_id} on {plan.branch}",
    )
    return 0


def cmd_run_ls(args) -> int:
    ctx = _Context(args)
    summaries = ctx.runs.summaries()

    def human() -> str:
        rows = [[s["run_id"], s["kind"], s["branch"], s["status"], s["started_at"]] for s in summaries]
        return _table(["run_id", "kind", "branch", "status", "started_at"], rows)

    _emit(args, {"runs": summaries}, human)
    return 0


def cmd_run_show(args) -> int:
    ctx = _Context(args)
    record = ctx.runs.load(args.run_id)

    def human() -> str:
        lines = [f"{k}: {v}" for k, v in record.summary().items()]
        lines.append(f"steps: {len(record.step_outcomes)} outcome(s)")
        return "\n".join(lines)

    _emit(args, record.to_dict(), human)
    return 0


def cmd_run_diff(args) -> int:
    ctx = _Context(args)
    comparison = compare_runs(args.run_a, args.run_b, run_store=ctx.runs, store=ctx.store)

    def human() -> str:
        rows = [[m.metric, f"{m.value_a}", f"{m.value_b}", f"{m.delta:+g}"] for m in comparison.metrics]
        text = _table(["metric", "a", "b", "delta"], rows)
        if comparison.tuple_diff:
            text += "\ntuple diff:\n" + "\n".join(
                f"  {d.component}: {d.a.version if d.a else '-'} -> {d.b.version if d.b else '-'}"
                for d in comparison.tuple_diff
            )
        return text

    _emit(args, comparison.to_dict(), human)
    return 0


def cmd_gate_eval(args) -> int:
    ctx = _Context(args)
    report = ctx.pipeline.gate_report(args.run_id)

    def human() -> str:
        rows = [
            [r.metric, r.op, f"{r.threshold}", "-" if r.observed is None else f"{r.observed}", "yes" if r.satisfied else "no"]
            for r in report.results
        ]
        verdict = "pass" if report.passed else "fail"
        return _table(["metric", "op", "threshold", "observed", "ok"], rows) + f"\ngate: {verdict}"

    _emit(args, {"run_id": args.run_id, **report.to_dict()}, human)
    return 0 if report.passed else 1


def cmd_approve(args) -> int:
    ctx = _Context(args)
    # The flow is loaded first, so a flow that cannot be loaded records no approval.
    graph = ctx.load_graph(args.flow) if args.auto_release else None
    request = ctx.pipeline.approve(args.run_id, args.by)
    human = f"approved {args.run_id} (by {args.by})"
    if graph is not None:
        release = ctx.pipeline.run_release(args.run_id, graph, ProcessExecutor())
        doc = {"approval": request.to_dict(), "release": release.summary()}
        return _finish_run(args, release, doc, human + f"\nrelease {release.run_id} {release.status}")
    _emit(args, request.to_dict(), human)
    return 0


def cmd_reject(args) -> int:
    ctx = _Context(args)
    request = ctx.pipeline.reject(args.run_id, args.by, args.reason)
    _emit(args, request.to_dict(), f"rejected {args.run_id} (by {args.by}): {args.reason}")
    return 0


def cmd_release(args) -> int:
    ctx = _Context(args)
    graph = ctx.load_graph(args.flow)
    release = ctx.pipeline.run_release(args.run_id, graph, ProcessExecutor())
    return _finish_run(args, release, release.summary(), f"release {release.run_id} {release.status}")


def cmd_lineage_who_uses(args) -> int:
    ctx = _Context(args)
    artifact_id = ArtifactId.parse(args.artifact)
    runs = ctx.lineage.runs_using(artifact_id, run_store=ctx.runs)
    _emit(args, {"artifact": args.artifact, "runs": runs}, "\n".join(runs))
    return 0


def cmd_lineage_provenance(args) -> int:
    ctx = _Context(args)
    artifact_id = ArtifactId.parse(args.artifact)
    closure = sorted(ctx.lineage.provenance_of(artifact_id))
    _emit(args, {"artifact": args.artifact, "closure": closure}, "\n".join(closure))
    return 0


def cmd_replay(args) -> int:
    ctx = _Context(args)
    graph = ctx.load_graph(args.flow)
    result = replay_check(
        args.run_id,
        graph,
        ProcessExecutor(),
        store=ctx.store,
        run_store=ctx.runs,
        lineage_log=ctx.lineage,
        parallelism=ctx.parallelism,
    )
    if result.identical:
        _emit(args, result.to_dict(), f"identical (replayed as {result.replay_run_id})")
        return 0
    human = "\n".join(
        f"diverged: {d.step}"
        + (f"[p{d.partition_index}]" if d.partition_index is not None else "")
        + f".{d.slot}: {d.old_hash} -> {d.new_hash}"
        for d in result.divergences
    )
    _emit(args, result.to_dict(), human + f"\n(replayed as {result.replay_run_id})")
    return 1


# -- parser ---------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One leaf command: its words after ``ca``, help line, handler and arguments."""

    path: tuple[str, ...]
    help: str
    func: Callable[[argparse.Namespace], int]
    args: tuple[tuple[tuple, dict], ...] = ()


def _arg(*names: str, **kwargs) -> tuple[tuple, dict]:
    return names, kwargs


# ``--repo``, ``--json`` and ``--parallelism``, accepted after every command.
COMMON_OPTIONS = (
    _arg("--repo", help="repository directory (default ./.ca or $CA_REPO)"),
    _arg("--json", action="store_true", help="emit one JSON document on stdout"),
    _arg("--parallelism", type=int, help="max concurrent flow steps"),
)

_KINDS = [k.value for k in ArtifactKind]

GROUPS = {
    "artifact": "content-addressed artifact store",
    "flow": "experiment flow graphs",
    "event": "change events",
    "run": "experiment runs",
    "gate": "promotion gate",
    "lineage": "provenance queries",
}

# The single source of argparse's parser and of :func:`_read_argv`; the order is the order of ``ca --help``.
COMMANDS = (
    Command(("init",), "create the repository skeleton", cmd_init, (
        _arg("--pin", action="append", metavar="COMPONENT=VERSION[@HASH]", help="seed a main branch pin"),
    )),
    Command(("artifact", "put"), "store a blob", cmd_artifact_put, (
        _arg("file", help="path to the blob, or - for stdin"),
        _arg("--kind", required=True, choices=_KINDS),
        _arg("--media-type", default="application/octet-stream"),
        _arg("--label", action="append", metavar="KEY=VALUE"),
    )),
    Command(("artifact", "get"), "print a blob", cmd_artifact_get, (_arg("id"), _arg("-o", "--output"))),
    Command(("artifact", "verify"), "check a blob against its digest", cmd_artifact_verify, (_arg("id"),)),
    Command(("artifact", "ls"), "list artifact records", cmd_artifact_ls, (
        _arg("--kind", choices=_KINDS),
        _arg("--label", action="append", metavar="KEY=VALUE"),
    )),
    Command(("flow", "validate"), "check a manifest", cmd_flow_validate, (_arg("manifest"),)),
    Command(("flow", "graph"), "render a manifest as DOT", cmd_flow_graph, (_arg("manifest"),)),
    Command(("flow", "run"), "execute a flow", cmd_flow_run, (
        _arg("manifest", nargs="?", help="flow manifest (defaults to config flow_manifest)"),
        _arg("--branch", default=MAIN_BRANCH),
        _arg("--event", help="execute the validation run planned for this event id"),
    )),
    Command(("event", "emit"), "ingest a change event", cmd_event_emit, (
        _arg("--source", required=True, choices=["code", "data", "dependencies", "deployment"]),
        _arg("--ref", required=True, help="branch or tag the change landed on"),
        _arg("--version", required=True),
        _arg("--content", help="content hash backing the new version"),
        _arg("--id", help="caller-supplied event id (defaults to a fresh one)"),
    )),
    Command(("run", "ls"), "list runs", cmd_run_ls),
    Command(("run", "show"), "show one run", cmd_run_show, (_arg("run_id"),)),
    Command(("run", "diff"), "compare two aligned runs", cmd_run_diff, (_arg("run_a"), _arg("run_b"))),
    Command(("gate", "eval"), "evaluate the gate policy for a run", cmd_gate_eval, (_arg("run_id"),)),
    Command(("approve",), "approve a validation run", cmd_approve, (
        _arg("run_id"),
        _arg("--by", required=True, help="approver identity"),
        _arg("--auto-release", action="store_true", help="run the release immediately"),
        _arg("--flow", help="flow manifest for --auto-release"),
    )),
    Command(("reject",), "reject a validation run", cmd_reject, (
        _arg("run_id"),
        _arg("--by", required=True),
        _arg("--reason", required=True),
    )),
    Command(("release",), "run the release for an approved run", cmd_release, (
        _arg("run_id"),
        _arg("--flow", help="flow manifest (defaults to config flow_manifest)"),
    )),
    Command(
        ("lineage", "who-uses"), "runs consuming or pinning an artifact", cmd_lineage_who_uses, (_arg("artifact"),)
    ),
    Command(("lineage", "provenance"), "upstream closure of an artifact", cmd_lineage_provenance, (_arg("artifact"),)),
    Command(("replay",), "re-execute a run and compare outputs", cmd_replay, (
        _arg("run_id"),
        _arg("--flow", help="flow manifest (defaults to config flow_manifest)"),
    )),
)


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for names, kwargs in COMMON_OPTIONS:
        common.add_argument(*names, **kwargs)
    return common


def _add_arguments(parser: argparse.ArgumentParser, command: Command) -> argparse.ArgumentParser:
    for names, kwargs in command.args:
        parser.add_argument(*names, **kwargs)
    parser.set_defaults(func=command.func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full ``ca`` parser with every command."""
    common = _common_options()
    parser = argparse.ArgumentParser(prog="ca", description="Continuous analysis engine")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict[str, argparse._SubParsersAction] = {}
    for command in COMMANDS:
        *group, name = command.path
        target = sub
        if group:
            (group,) = group
            if group not in groups:
                groups[group] = sub.add_parser(group, help=GROUPS[group]).add_subparsers(
                    dest=f"{group}_command", required=True
                )
            target = groups[group]
        _add_arguments(target.add_parser(name, parents=[common], help=command.help), command)
    return parser


# Spec keywords :func:`_read_argv` models; a command with any other is left to argparse.
_MODELED = frozenset({"action", "choices", "default", "help", "metavar", "nargs", "required", "type"})


def _read_argv(command: Command, argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse returns for ``argv`` (the words after the command's path), read from the specs.

    Returns None for anything it does not model: an unknown, abbreviated or
    attached short option, ``-h``, ``--``, a missing value or one starting
    with ``-``, a failed ``type`` or ``choices`` check, a missing required
    argument, an extra positional, or a spec keyword outside ``_MODELED``.
    """
    options: dict[str, tuple[str, dict]] = {}
    positionals: list[tuple[str, dict]] = []
    values: dict[str, object] = {"func": command.func}
    required: set[str] = set()
    for names, kwargs in (*COMMON_OPTIONS, *command.args):
        action = kwargs.get("action")
        if (
            not kwargs.keys() <= _MODELED
            or action not in (None, "store_true", "append")
            or ("type" in kwargs and isinstance(kwargs.get("default"), str))
        ):
            return None
        if names[0].startswith("-"):
            if "nargs" in kwargs:
                return None
            dest = next((n for n in names if n.startswith("--")), names[0]).lstrip("-").replace("-", "_")
            options.update(dict.fromkeys(names, (dest, kwargs)))
            if kwargs.get("required"):
                required.add(dest)
        else:
            # Only the last positional may be optional, and only as nargs="?".
            if action or kwargs.get("nargs", "?") != "?" or (positionals and "nargs" in positionals[-1][1]):
                return None
            dest = names[0]
            positionals.append((dest, kwargs))
            if "nargs" not in kwargs:
                required.add(dest)
        values[dest] = kwargs.get("default", False if action == "store_true" else None)
    tokens = iter(argv)
    pending = iter(positionals)
    for token in tokens:
        if token.startswith("-") and token != "-":
            name, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
            if name not in options:
                return None
            dest, kwargs = options[name]
            if kwargs.get("action") == "store_true":
                if eq:
                    return None
                values[dest] = True
                continue
            if not eq:
                value = next(tokens, "-")
            if value.startswith("-"):
                return None
        else:
            dest, kwargs = next(pending, (None, None))
            if dest is None:
                return None
            value = token
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = [*(values[dest] or ()), value] if kwargs.get("action") == "append" else value
        required.discard(dest)
    if required:
        return None
    return argparse.Namespace(**values)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Read well-formed argv from the command table; build argparse only for anything else.

    The full parser then prints help, the version and usage errors and sets
    the exit code, so they are argparse's own.
    """
    command = next((c for c in COMMANDS if tuple(argv[: len(c.path)]) == c.path), None)
    args = _read_argv(command, argv[len(command.path) :]) if command is not None else None
    return args if args is not None else build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except StorageError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, _UserPathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
