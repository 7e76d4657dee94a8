"""Budgets and cooperative cancellation.

A :class:`Budget` states how much a render is allowed to cost — wall
clock, kernel evaluations, refinement memory — and a
:class:`CancellationToken` turns that statement into something the hot
loops can poll cheaply. Cancellation is *cooperative*: nothing is
interrupted mid-arithmetic. The scalar and batched refinement engines
poll the token once per frontier pop, the tiled renderer once per tile,
and the progressive framework once per pixel, so a tripped token stops
the work at the next consistent point and the best-so-far ``(LB, UB)``
envelopes remain valid — the partial answer is still an enclosure of
the truth, just a looser one.

Stop reasons are short stable strings (the ``STOP_*`` constants); they
appear in :class:`~repro.resilience.result.DegradedResult` metadata and
in ``repro.obs`` trace events, so the naming is part of the public
schema documented in ``docs/robustness.md``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.errors import InvalidParameterError

__all__ = [
    "Budget",
    "CancellationToken",
    "STOP_DEADLINE",
    "STOP_KERNEL_BUDGET",
    "STOP_MEMORY",
    "STOP_CANCELLED",
    "STOP_INTERRUPT",
    "STOP_TILE_FAILURES",
]

#: The wall-clock deadline passed.
STOP_DEADLINE = "deadline"
#: The kernel-evaluation (point-evaluation) budget was spent.
STOP_KERNEL_BUDGET = "kernel-budget"
#: The refinement-frontier memory estimate exceeded the cap.
STOP_MEMORY = "memory"
#: :meth:`CancellationToken.cancel` was called programmatically.
STOP_CANCELLED = "cancelled"
#: ``KeyboardInterrupt`` (Ctrl-C) was converted into cancellation.
STOP_INTERRUPT = "keyboard-interrupt"
#: A tile failed: it raised or returned a non-finite envelope.
STOP_TILE_FAILURES = "tile-failures"


class Budget:
    """A cost envelope for one render (all limits optional).

    Parameters
    ----------
    deadline_s:
        Wall-clock seconds the render may take, measured from
        :meth:`CancellationToken.start` (the renderer arms it when the
        online stage begins, so index build time is not charged).
    max_kernel_evals:
        Cap on point (kernel) evaluations, the hardware-neutral work
        measure of :class:`~repro.core.engine.QueryStats`.
    max_memory_bytes:
        Cap on the batched engine's frontier-memory *estimate* (heap
        entries carry four float64 rows per pixel); this is a guard
        against pathological frontier growth, not an allocator hook.
    """

    __slots__ = ("deadline_s", "max_kernel_evals", "max_memory_bytes")

    def __init__(
        self,
        deadline_s: Optional[float] = None,
        max_kernel_evals: Optional[int] = None,
        max_memory_bytes: Optional[int] = None,
    ) -> None:
        if deadline_s is not None and not deadline_s > 0.0:
            raise InvalidParameterError(
                f"deadline_s must be > 0, got {deadline_s!r}"
            )
        if max_kernel_evals is not None and not int(max_kernel_evals) > 0:
            raise InvalidParameterError(
                f"max_kernel_evals must be > 0, got {max_kernel_evals!r}"
            )
        if max_memory_bytes is not None and not int(max_memory_bytes) > 0:
            raise InvalidParameterError(
                f"max_memory_bytes must be > 0, got {max_memory_bytes!r}"
            )
        self.deadline_s = None if deadline_s is None else float(deadline_s)
        self.max_kernel_evals = (
            None if max_kernel_evals is None else int(max_kernel_evals)
        )
        self.max_memory_bytes = (
            None if max_memory_bytes is None else int(max_memory_bytes)
        )

    @classmethod
    def from_deadline_ms(cls, deadline_ms: float) -> Budget:
        """A pure wall-clock budget (the CLI's ``--deadline-ms``)."""
        return cls(deadline_s=float(deadline_ms) / 1000.0)

    @property
    def unlimited(self) -> bool:
        """Whether no limit is set at all."""
        return (
            self.deadline_s is None
            and self.max_kernel_evals is None
            and self.max_memory_bytes is None
        )

    def token(self) -> CancellationToken:
        """A fresh (unarmed) token enforcing this budget."""
        return CancellationToken(self)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready description (for :class:`DegradedResult`)."""
        return {
            "deadline_s": self.deadline_s,
            "max_kernel_evals": self.max_kernel_evals,
            "max_memory_bytes": self.max_memory_bytes,
        }

    def __repr__(self) -> str:
        parts = [
            f"{slot}={getattr(self, slot)!r}"
            for slot in self.__slots__
            if getattr(self, slot) is not None
        ]
        return f"Budget({', '.join(parts)})"


class CancellationToken:
    """Cooperative stop signal, optionally enforcing a :class:`Budget`.

    The token is polled by the hot loops via :meth:`stop_reason`; once
    any budget limit trips (or :meth:`cancel` is called) the token
    latches — every later poll returns the same reason, and the
    latched :attr:`reason` never changes. Tokens are single-use: create
    a fresh one per render (``budget.token()``).

    Thread safety: :meth:`cancel` / :meth:`charge` / :meth:`stop_reason`
    may race across threads (a pool render's wait loop, a server's
    request threads sharing a token). All races are benign
    — the latch is a single attribute store, and the eval counter is
    advisory (a lost increment delays the trip by one tile at worst) —
    so no lock sits on the per-pop hot path.
    """

    __slots__ = ("budget", "reason", "_cancelled", "_deadline_at", "_evals")

    def __init__(self, budget: Optional[Budget] = None) -> None:
        self.budget = budget
        self.reason: Optional[str] = None
        self._cancelled = False
        self._deadline_at: Optional[float] = None
        self._evals = 0

    def start(self) -> CancellationToken:
        """Arm the wall-clock deadline (idempotent; first call wins)."""
        if (
            self._deadline_at is None
            and self.budget is not None
            and self.budget.deadline_s is not None
        ):
            self._deadline_at = time.monotonic() + self.budget.deadline_s
        return self

    def cancel(self, reason: str = STOP_CANCELLED) -> None:
        """Trip the token programmatically (first reason wins)."""
        if not self._cancelled:
            self.reason = reason
            self._cancelled = True

    def charge(self, kernel_evals: int) -> None:
        """Record kernel-evaluation work against the eval budget."""
        self._evals += kernel_evals

    @property
    def triggered(self) -> bool:
        """Whether the token has latched (any reason)."""
        return self._cancelled

    def stop_reason(self, memory_bytes: int = 0) -> Optional[str]:
        """Poll the token: the latched stop reason, or ``None`` (keep going).

        ``memory_bytes`` is the caller's current memory estimate (the
        batched engine passes its frontier estimate; other callers pass
        nothing). Tripping a budget limit latches the token.
        """
        if self._cancelled:
            return self.reason
        budget = self.budget
        if budget is None:
            return None
        if (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        ):
            self.cancel(STOP_DEADLINE)
        elif (
            budget.max_kernel_evals is not None
            and self._evals >= budget.max_kernel_evals
        ):
            self.cancel(STOP_KERNEL_BUDGET)
        elif (
            budget.max_memory_bytes is not None
            and memory_bytes > budget.max_memory_bytes
        ):
            self.cancel(STOP_MEMORY)
        return self.reason

    def __repr__(self) -> str:
        state = f"triggered={self.reason!r}" if self._cancelled else "active"
        return f"CancellationToken({state}, budget={self.budget!r})"
