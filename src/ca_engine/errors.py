"""Engine exception hierarchy.

Every error carries a stable machine-readable ``code``. ``StorageError`` and
its subclasses signal storage/integrity failures (CLI exit code 3); all other
``EngineError`` subclasses are domain errors (CLI exit code 1).
"""

from __future__ import annotations


class EngineError(Exception):
    code = "engine-error"


class StorageError(EngineError):
    code = "storage-io"


class RepoNotInitializedError(StorageError):
    code = "repo-not-initialized"


class LockHeldError(StorageError):
    code = "lock-held"


class IntegrityViolationError(StorageError):
    code = "integrity-violation"


class NotFoundError(EngineError):
    code = "not-found"


class InvalidTupleError(EngineError):
    code = "invalid-tuple"


class RunConflictError(EngineError):
    code = "conflict"


class DanglingReferenceError(EngineError):
    code = "dangling-reference"


class ManifestParseError(EngineError):
    code = "parse-error"


class ManifestSchemaError(EngineError):
    code = "schema-error"


class FlowCycleError(EngineError):
    code = "cycle"


class FlowValidationError(EngineError):
    code = "invalid-flow"


class UnresolvedInputError(EngineError):
    code = "unresolved-input"


class UnknownBranchError(EngineError):
    code = "unknown-branch"


class MalformedEventError(EngineError):
    code = "malformed-event"


class IncompletePinsError(EngineError):
    code = "incomplete-pins"


class EmptyManifestError(EngineError):
    code = "empty-manifest"


class RunNotFoundError(EngineError):
    code = "run-not-found"


class RunNotSucceededError(EngineError):
    code = "run-not-succeeded"


class GateFailedError(EngineError):
    code = "gate-failed"


class GatePolicyError(EngineError):
    code = "invalid-gate-policy"


class AlreadyDecidedError(EngineError):
    code = "already-decided"


class AlreadyReleasedError(EngineError):
    code = "already-released"


class NotApprovedError(EngineError):
    code = "not-approved"


class MalformedMetricsError(EngineError):
    code = "malformed-metrics-document"


class NotAlignedError(EngineError):
    code = "not-aligned"


class MissingFeedbackError(EngineError):
    code = "missing-feedback"
