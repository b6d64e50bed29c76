"""Exception hierarchy for the ``repro`` library.

Every error deliberately raised by the library derives from
:class:`ReproError` so that callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and friends)
propagate unchanged.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "PrivacyParameterError",
    "BudgetExceededError",
    "MechanismError",
    "InsufficientDataError",
    "DomainError",
    "AssumptionRequiredError",
    "EngineError",
    "CoordinatorUnavailableError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class PrivacyParameterError(ReproError, ValueError):
    """An ``epsilon``, ``delta`` or ``beta`` parameter is outside its valid range."""


class BudgetExceededError(ReproError):
    """A mechanism attempted to spend more privacy budget than is available.

    ``remaining`` is the budget left at the refusal when the refuser reports
    it (the cluster coordinator's ``reserve`` does), else ``None``.
    """

    def __init__(self, *args: object, remaining: Optional[float] = None):
        super().__init__(*args)
        self.remaining = remaining


class MechanismError(ReproError):
    """A mechanism could not produce an output.

    Raised, for example, when the Sparse Vector Technique exhausts its safety
    cap without any query crossing the threshold, which means the input is
    outside the regime for which the algorithm has a utility guarantee.
    """


class InsufficientDataError(ReproError, ValueError):
    """The dataset is too small for the requested estimator."""


class DomainError(ReproError, ValueError):
    """A value, bucket size or domain description is invalid."""


class EngineError(ReproError, RuntimeError):
    """The parallel execution layer failed structurally.

    Raised when a pool worker dies unexpectedly, when a closed pool is
    reused, or when trial results cannot cross the process boundary.  Never
    raised for ordinary trial failures — those propagate as the trial's own
    exception or are captured as ``TrialFailure`` records.
    """


class CoordinatorUnavailableError(ReproError, ConnectionError):
    """The cluster budget coordinator cannot be reached.

    Raised by the coordinator RPC client when the transport fails (connection
    refused, reset, or timed out) after its single reconnect attempt.  Shard
    front-ends map this to a structured ``coordinator_unavailable`` answer:
    a joint budget whose owner is unreachable must refuse to admit spend, not
    fall back to a shard-local ledger that would silently double-count.
    """


class AssumptionRequiredError(ReproError, ValueError):
    """A baseline estimator was invoked without the a-priori bound it requires.

    The universal estimators of the paper never raise this; it exists so the
    Table-1 capability benchmark can demonstrate which estimators depend on
    assumptions A1 (mean range), A2 (variance range) or A3 (distribution
    family).
    """
