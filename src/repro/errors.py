"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`, so a
caller can catch every library failure with a single ``except`` clause while
still distinguishing specific failure modes when needed.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "DataValidationError",
    "UnsupportedKernelError",
    "UnsupportedOperationError",
    "NotFittedError",
    "UnknownNameError",
    "InvariantViolation",
    "CheckpointError",
    "DataQualityWarning",
    "DatasetNotFoundError",
    "ServiceOverloadedError",
    "CircuitOpenError",
    "WorkerPoolBrokenError",
    "DeadlineExceededError",
    "TransientTileError",
]


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class InvalidParameterError(ReproError, ValueError):
    """A user-supplied parameter is outside its valid domain.

    Raised, for example, for a non-positive bandwidth parameter ``gamma``,
    a relative error ``eps <= 0``, or an empty point set.
    """


class DataValidationError(InvalidParameterError):
    """An input dataset failed validation (non-finite or empty rows).

    Subclasses :class:`InvalidParameterError` so existing callers that
    catch the broader class keep working, while carrying structured
    detail about *what* was wrong so services can report it without
    parsing the message.

    Attributes
    ----------
    nonfinite_rows:
        Number of rows containing NaN/Inf coordinates (0 if the
        failure was something else).
    duplicate_fraction:
        Fraction of rows that are exact duplicates of another row, when
        computed (else ``None``).
    total_rows:
        Row count of the offending dataset.
    """

    def __init__(
        self,
        message: str,
        *,
        nonfinite_rows: int = 0,
        duplicate_fraction: float | None = None,
        total_rows: int = 0,
    ) -> None:
        super().__init__(message)
        self.nonfinite_rows = nonfinite_rows
        self.duplicate_fraction = duplicate_fraction
        self.total_rows = total_rows


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file could not be used (corrupt or mismatched).

    Raised on resume when the checkpoint's signature — dataset shape,
    kernel, bandwidth, grid, operation parameters — does not match the
    render being resumed, or when the file itself is unreadable.
    Resuming from a mismatched checkpoint would silently splice pixels
    from a *different* render into the image, so this is never
    downgraded to a warning.
    """


class DataQualityWarning(UserWarning):
    """A dataset is usable but statistically suspect.

    Emitted (via :func:`warnings.warn`) for duplicate-heavy datasets,
    where kernel density estimates remain well-defined but bandwidth
    selectors behave poorly, and when non-finite rows are dropped on
    request rather than rejected.
    """


class UnsupportedKernelError(ReproError, ValueError):
    """A method was asked to use a kernel it cannot bound.

    The paper's Table 6 and Section 5.1 spell out which method supports
    which kernel; for instance KARL's linear bounds require the Gaussian
    kernel's squared-distance aggregate and cannot serve the triangular,
    cosine or exponential kernels in :math:`O(d)` time.
    """


class UnsupportedOperationError(ReproError, ValueError):
    """A method was asked for an operation it does not implement.

    For example, tKDC answers threshold (tau) queries only, and Scikit's
    kd-tree traversal answers approximate (eps) queries only.
    """


class NotFittedError(ReproError, RuntimeError):
    """An estimator method was used before :meth:`fit` was called."""


class UnknownNameError(ReproError, KeyError):
    """A registry lookup (kernel, method, dataset, experiment) failed."""


class DatasetNotFoundError(UnknownNameError):
    """The tile service was asked for a dataset id it does not hold.

    Subclasses :class:`UnknownNameError` so registry-style callers keep
    working; the HTTP layer maps it to a 404.
    """


class ServiceOverloadedError(ReproError, RuntimeError):
    """The tile service's bounded render queue is full (backpressure).

    The HTTP layer maps it to a 503 with ``Retry-After``; callers should
    back off rather than retry immediately.
    """


class CircuitOpenError(ServiceOverloadedError):
    """A dataset's circuit breaker is open: rendering is suspended.

    Raised by the tile service after a dataset accumulates consecutive
    render failures, so one pathological dataset cannot monopolise the
    worker pool. Subclasses :class:`ServiceOverloadedError` because the
    remedy is identical — back off and retry later (HTTP 503 with
    ``Retry-After``); the breaker half-opens on its own after the reset
    timeout and probes with a single request.
    """


class WorkerPoolBrokenError(ReproError, RuntimeError):
    """The process worker pool lost a worker mid-render (OOM, SIGKILL).

    ``concurrent.futures`` poisons the whole ``ProcessPoolExecutor``
    when any worker dies abruptly; this wraps that condition in a typed,
    retryable error instead of leaking the raw ``BrokenProcessPool``
    traceback. The supervised executor rebuilds the pool and replays the
    lost tiles transparently — this error surfaces only when supervision
    is disabled or its rebuild budget is exhausted. The HTTP layer maps
    it to a 503 (the *next* render gets a fresh pool), never a 500.
    """


class TransientTileError(ReproError, RuntimeError):
    """A render lost tiles, or a tile's bound envelope was not finite.

    Raised inside a tile when its refinement returned a non-finite
    ``(LB, UB)`` envelope (kernels are bounded, so that is a fault, not
    an answer), and by strict render facades whose resilient run listed
    tiles in ``tiles_failed`` and would otherwise return an image with
    unfinished tiles. Rendering again with ``anytime=True`` returns the
    partial envelopes instead.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A tile render exceeded its per-request deadline budget.

    By default the degraded (partial-envelope) image is *not* returned —
    and never cached — because the service contract is that every served
    tile is a complete render. The HTTP layer maps it to a 504. Under
    the service's degrade-don't-fail policy the attached
    ``partial_values`` (best-so-far envelope midpoints / conservative
    τ mask, when the anytime path produced them) may be served instead,
    explicitly marked as degraded and never cached as fresh.

    Attributes
    ----------
    partial_values:
        Best-so-far tile value array from the anytime render that
        tripped the deadline, or ``None`` when no partial exists
        (non-indexed methods have no anytime path).
    pixels_resolved / pixels_total:
        How much of the tile had reached its stopping rule.
    """

    def __init__(
        self,
        message: str,
        *,
        partial_values: object | None = None,
        pixels_resolved: int = 0,
        pixels_total: int = 0,
    ) -> None:
        super().__init__(message)
        self.partial_values = partial_values
        self.pixels_resolved = int(pixels_resolved)
        self.pixels_total = int(pixels_total)


class InvariantViolation(ReproError, AssertionError):
    """A runtime soundness contract of the bound machinery failed.

    Raised only when invariant checking is enabled (the
    ``REPRO_CHECK_INVARIANTS`` environment toggle, see
    :mod:`repro.contracts`). A violation means a bound evaluation broke
    the correctness condition ``LB_R(q) <= F_R(q) <= UB_R(q)`` — the
    silent failure mode that makes εKDV/τKDV return wrong pixels while
    tests still pass — so it is never caught and repaired internally.

    Attributes
    ----------
    invariant:
        Short identifier of the violated contract (e.g.
        ``"bound-order"``, ``"leaf-containment"``,
        ``"monotone-tightening"``, ``"kernel-nonnegative"``,
        ``"eps-agreement"``).
    bound:
        Name of the offending bound provider / kernel / method class.
    node:
        Index-node identifier involved, if any.
    query:
        Query coordinates involved, if any.
    """

    def __init__(
        self,
        message: str,
        *,
        invariant: str = "unspecified",
        bound: str | None = None,
        node: int | None = None,
        query: object | None = None,
    ) -> None:
        super().__init__(message)
        self.invariant = invariant
        self.bound = bound
        self.node = node
        self.query = query
