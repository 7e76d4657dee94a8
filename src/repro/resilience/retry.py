"""Retry policy and the transient/fatal error taxonomy.

A tile worker can fail for two very different reasons. *Transient*
failures (a flaky worker, an injected fault, a poisoned intermediate
array) are safe to retry because tile evaluation is deterministic and
side-effect-free: recomputing the tile from its inputs yields the same
bits as a run that never failed. *Fatal* failures (an
:class:`~repro.errors.InvariantViolation`, an invalid-parameter error)
mean the computation itself is wrong — retrying would just fail again,
or worse, mask a soundness bug — so they propagate immediately.

:func:`is_transient` encodes that taxonomy; :class:`RetryPolicy` says
how hard to try (attempts, exponential backoff).
"""

from __future__ import annotations

from repro.errors import InvalidParameterError, ReproError

__all__ = ["RetryPolicy", "TransientTileError", "is_transient"]


class TransientTileError(ReproError, RuntimeError):
    """A tile failed in a way that is expected to succeed on retry.

    Raised by the fault injectors and by the tile runner's sanity
    checks (e.g. a bound provider returning NaN/Inf), and by the
    image-returning render wrappers when retries were exhausted and the
    image would otherwise silently carry unfinished tiles.
    """


def is_transient(error: BaseException) -> bool:
    """Whether ``error`` is worth retrying.

    The taxonomy, from most to least specific:

    * :class:`TransientTileError` — explicitly transient, retry.
    * Any other :class:`~repro.errors.ReproError` (including
      :class:`~repro.errors.InvariantViolation`) — the computation or
      its parameters are wrong; retrying cannot help and must not mask
      the bug. Fatal.
    * ``KeyboardInterrupt`` (and other ``BaseException`` outside
      ``Exception``) — user intent, never retried. Fatal (the runner
      converts it into cooperative cancellation instead).
    * Any other ``Exception`` (``MemoryError``, a crashed worker's
      ``RuntimeError``, numpy floating errors) — environmental, retry.
    """
    if isinstance(error, TransientTileError):
        return True
    if isinstance(error, ReproError):
        return False
    return isinstance(error, Exception)


class RetryPolicy:
    """How hard to retry transient tile failures.

    Parameters
    ----------
    max_attempts:
        Total tries per tile (first attempt included). ``1`` disables
        retrying.
    backoff_s / backoff_factor / max_backoff_s:
        Exponential backoff: attempt ``k`` (1-based) sleeps
        ``min(backoff_s * backoff_factor**(k-1), max_backoff_s)``
        before re-running. Tile recomputation is CPU-bound and local,
        so the defaults are short — backoff exists to let a transiently
        wedged tile drain, not to be polite to a server.
    """

    __slots__ = (
        "max_attempts",
        "backoff_s",
        "backoff_factor",
        "max_backoff_s",
    )

    def __init__(
        self,
        max_attempts: int = 4,
        backoff_s: float = 0.01,
        backoff_factor: float = 2.0,
        max_backoff_s: float = 0.25,
    ) -> None:
        if int(max_attempts) < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {max_attempts!r}"
            )
        if backoff_s < 0.0 or max_backoff_s < 0.0:
            raise InvalidParameterError("backoff times must be >= 0")
        if backoff_factor < 1.0:
            raise InvalidParameterError(
                f"backoff_factor must be >= 1, got {backoff_factor!r}"
            )
        self.max_attempts = int(max_attempts)
        self.backoff_s = float(backoff_s)
        self.backoff_factor = float(backoff_factor)
        self.max_backoff_s = float(max_backoff_s)

    def delay(self, attempt: int) -> float:
        """Backoff seconds before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return min(
            self.backoff_s * self.backoff_factor ** (attempt - 1),
            self.max_backoff_s,
        )

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"backoff_s={self.backoff_s})"
        )
