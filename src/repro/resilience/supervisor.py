"""Worker supervision: circuit breakers and pool-rebuild policy.

Two small, service-agnostic state machines that turn "a process died"
and "this dataset keeps failing" from outages into bounded, observable
recovery procedures:

* :class:`PoolSupervisor` — the rebuild policy a
  :class:`~repro.visual.executors.ProcessTileExecutor` consults once
  per broken generation of its inner pool, however many renders saw
  the break. It grants (or denies)
  each rebuild, spacing consecutive rebuilds with exponential backoff so
  a crash-looping workload cannot fork-bomb the host, and resets the
  storm counter once a replay round makes progress. The executor owns
  the mechanics (recreate the ``ProcessPoolExecutor`` against the
  already-published shared-memory tree, replay lost tiles); the
  supervisor owns only the *policy* — how many times, how fast.

* :class:`CircuitBreaker` — the classic closed → open → half-open
  machine, one per served dataset. Consecutive render
  failures trip it open; while open every request is rejected upfront
  (:class:`~repro.errors.CircuitOpenError`, HTTP 503) instead of
  burning a worker slot on a render that will fail; after
  ``reset_timeout_s`` a single probe request is let through, and its
  outcome decides between closing the circuit and re-opening it.

Both classes are thread-safe, clock-injectable (deterministic tests)
and snapshot to plain dicts for ``/stats``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.errors import InvalidParameterError

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "PoolSupervisor",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class PoolSupervisor:
    """Rebuild policy for a broken process pool.

    Parameters
    ----------
    max_consecutive_rebuilds:
        How many rebuilds may happen back-to-back without any tile
        completing in between. Once exhausted, :meth:`grant` denies and
        the executor surfaces :class:`~repro.errors.WorkerPoolBrokenError`.
    backoff_s / backoff_factor / max_backoff_s:
        Exponential backoff between consecutive rebuilds: rebuild ``k``
        (1-based) waits ``min(backoff_s * backoff_factor**(k-1),
        max_backoff_s)`` seconds. Keeps a crash-looping dataset from
        re-forking workers in a tight loop.
    """

    __slots__ = (
        "max_consecutive_rebuilds",
        "backoff_s",
        "backoff_factor",
        "max_backoff_s",
        "total_rebuilds",
        "total_denied",
        "_consecutive",
        "_lock",
    )

    def __init__(
        self,
        max_consecutive_rebuilds: int = 5,
        backoff_s: float = 0.05,
        backoff_factor: float = 2.0,
        max_backoff_s: float = 2.0,
    ) -> None:
        if int(max_consecutive_rebuilds) < 1:
            raise InvalidParameterError(
                f"max_consecutive_rebuilds must be >= 1, got "
                f"{max_consecutive_rebuilds!r}"
            )
        if backoff_s < 0.0 or max_backoff_s < 0.0:
            raise InvalidParameterError("backoff times must be >= 0")
        if backoff_factor < 1.0:
            raise InvalidParameterError(
                f"backoff_factor must be >= 1, got {backoff_factor!r}"
            )
        self.max_consecutive_rebuilds = int(max_consecutive_rebuilds)
        self.backoff_s = float(backoff_s)
        self.backoff_factor = float(backoff_factor)
        self.max_backoff_s = float(max_backoff_s)
        self.total_rebuilds = 0
        self.total_denied = 0
        self._consecutive = 0
        self._lock = threading.Lock()

    def grant(self) -> Optional[float]:
        """Permission for one rebuild: backoff seconds, or ``None`` (deny)."""
        with self._lock:
            if self._consecutive >= self.max_consecutive_rebuilds:
                self.total_denied += 1
                return None
            self._consecutive += 1
            self.total_rebuilds += 1
            return min(
                self.backoff_s * self.backoff_factor ** (self._consecutive - 1),
                self.max_backoff_s,
            )

    def note_progress(self) -> None:
        """A replay round completed tiles — the storm counter resets."""
        with self._lock:
            self._consecutive = 0

    @property
    def consecutive_rebuilds(self) -> int:
        """Rebuilds granted since the last :meth:`note_progress`."""
        with self._lock:
            return self._consecutive

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (for ``/stats``)."""
        with self._lock:
            return {
                "total_rebuilds": self.total_rebuilds,
                "total_denied": self.total_denied,
                "consecutive_rebuilds": self._consecutive,
                "max_consecutive_rebuilds": self.max_consecutive_rebuilds,
            }

    def __repr__(self) -> str:
        return (
            f"PoolSupervisor(rebuilds={self.total_rebuilds}, "
            f"consecutive={self.consecutive_rebuilds})"
        )


class CircuitBreaker:
    """Closed → open → half-open breaker over consecutive failures.

    Parameters
    ----------
    failure_threshold:
        Consecutive :meth:`record_failure` calls (with no intervening
        success) that trip the breaker open.
    reset_timeout_s:
        How long the breaker stays open before letting one half-open
        probe through.
    clock:
        Monotonic time source (injectable for tests).
    on_transition:
        Optional callback ``(old_state, new_state)`` fired inside the
        lock on every state change — the tile service mirrors
        transitions into its metrics registry here.
    """

    __slots__ = (
        "failure_threshold",
        "reset_timeout_s",
        "_clock",
        "_on_transition",
        "_lock",
        "_state",
        "_consecutive_failures",
        "_opened_at",
        "_probe_in_flight",
        "failures_total",
        "successes_total",
        "rejections_total",
        "transitions_total",
    )

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if int(failure_threshold) < 1:
            raise InvalidParameterError(
                f"failure_threshold must be >= 1, got {failure_threshold!r}"
            )
        if not float(reset_timeout_s) >= 0.0:
            raise InvalidParameterError(
                f"reset_timeout_s must be >= 0, got {reset_timeout_s!r}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probe_in_flight = False
        self.failures_total = 0
        self.successes_total = 0
        self.rejections_total = 0
        self.transitions_total = 0

    def _transition(self, new_state: str) -> None:
        old = self._state
        if old == new_state:
            return
        self._state = new_state
        self.transitions_total += 1
        if self._on_transition is not None:
            self._on_transition(old, new_state)

    @property
    def state(self) -> str:
        """Current state, advancing open → half-open when the timeout ran."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if self._state == BREAKER_OPEN:
            assert self._opened_at is not None
            if self._clock() - self._opened_at >= self.reset_timeout_s:
                self._transition(BREAKER_HALF_OPEN)
                self._probe_in_flight = False

    def allow(self) -> bool:
        """Whether a request may proceed (claims the half-open probe slot)."""
        with self._lock:
            self._maybe_half_open()
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            self.rejections_total += 1
            return False

    def record_success(self) -> None:
        """A render succeeded: close the circuit / reset the failure run."""
        with self._lock:
            self.successes_total += 1
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state != BREAKER_CLOSED:
                self._transition(BREAKER_CLOSED)
                self._opened_at = None

    def record_failure(self) -> None:
        """A render failed: count it; trip open at the threshold."""
        with self._lock:
            self.failures_total += 1
            self._consecutive_failures += 1
            self._probe_in_flight = False
            if self._state == BREAKER_HALF_OPEN or (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(BREAKER_OPEN)
                self._opened_at = self._clock()

    def retry_after_s(self) -> float:
        """Seconds until the next half-open probe (0 when not open)."""
        with self._lock:
            if self._state != BREAKER_OPEN or self._opened_at is None:
                return 0.0
            return max(
                0.0, self.reset_timeout_s - (self._clock() - self._opened_at)
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (for ``/stats``)."""
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "failures_total": self.failures_total,
                "successes_total": self.successes_total,
                "rejections_total": self.rejections_total,
                "transitions_total": self.transitions_total,
                "reset_timeout_s": self.reset_timeout_s,
            }

    def __repr__(self) -> str:
        return f"CircuitBreaker(state={self.state!r})"
