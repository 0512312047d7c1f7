"""Exception types shared across the package.

Every error carries an optional ``payload`` dict with machine-readable
details; the CLI serializes it into JSON diagnostics.
"""

from __future__ import annotations


class ArtifactError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str, **payload):
        super().__init__(message)
        self.payload = payload

    def to_json(self) -> dict:
        return {
            "type": type(self).__name__,
            "message": str(self),
            **{k: v for k, v in self.payload.items() if _jsonable(v)},
        }


def _jsonable(v) -> bool:
    return isinstance(v, (int, float, str, bool, list, tuple, dict, type(None)))


class ArgumentError(ArtifactError, ValueError):
    """Invalid argument or violated precondition."""


class ExhaustedSearchError(ArtifactError):
    """A bounded parameter search ran past its ceiling without a hit."""


class ConstructionIntegrityError(ArtifactError):
    """An explicit construction failed one of its own structural checks."""


class ConvergenceError(ArtifactError):
    """An iterative numerical method did not converge within its budget."""


class BudgetError(ArtifactError):
    """An enumeration or search exceeded its configured budget."""


class WalkStuckError(ArtifactError):
    """The constrained walk builder exhausted its search budget.

    Carries the stuck position, the sizes of the blocking sets and the
    partial assignment so a caller can resume with a larger budget.
    """

    def __init__(self, message: str, position: int, state: tuple = (), **payload):
        super().__init__(message, position=position, **payload)
        self.position = position
        self.state = state
        self.stage = payload.get("stage")


class ScheduleOverflowError(ArtifactError):
    """A derived constraint schedule exceeded its size cap."""


class DecompositionError(ArtifactError):
    """Thin decomposition failed; carries the partial edge assignment."""


class LayoutError(ArtifactError):
    """No low-stretch layout was found for a thin component."""


class CertificationError(ArtifactError):
    """A built LPS expander failed its certificate checks."""


class InfeasibleBuildError(ArtifactError):
    """The requested object is astronomically large by design and not built."""


class CodecError(ArtifactError):
    """Malformed label or out-of-range field during encode/decode."""


class PropertyFailureError(ArtifactError):
    """A pipeline stage produced output that failed its property checks."""


class EmbeddingFailureError(ArtifactError):
    """The embedding attempt failed; its ``trail``, also in its JSON, holds
    one entry: the walk budget, the params digest and the error."""

    def __init__(self, message: str, trail: list | None = None, **payload):
        super().__init__(message, trail=trail or [], **payload)
        self.trail = self.payload["trail"]


class IntegrityError(ArtifactError):
    """Internal cross-check failed (indicates a bug, not bad input)."""
