"""Deadline-aware resilience: budgets, cancellation, recovery.

A render either finishes or it doesn't — this package makes "doesn't"
a first-class, well-defined outcome instead of a stack trace:

* :mod:`repro.resilience.budget` — :class:`Budget` (wall-clock
  deadline, kernel-evaluation budget, memory cap) and the cooperative
  :class:`CancellationToken` both refinement engines poll at
  refinement-step granularity and the tiled renderer polls at tile
  granularity;
* :mod:`repro.resilience.result` — :class:`DegradedResult` /
  :class:`RenderOutcome`, the structured description of a partial
  render (best-so-far per-pixel ``(LB, UB)`` envelopes, resolved-pixel
  fraction, worst residual gap, stop reason);
* :mod:`repro.resilience.checkpoint` — :class:`TileLedger`, the
  completed-tile checkpoint a killed render resumes from;
* :mod:`repro.resilience.faults` — deterministic seeded process-level
  fault plans (``REPRO_FAULTS=``) so the pool's supervision and
  deadline paths are exercised in CI;
* :mod:`repro.resilience.runner` — the in-process tile loop, and the
  tile failure rule and :class:`TileRunReport` both executors of
  :class:`repro.visual.kdv.KDVRenderer` share;
* :mod:`repro.resilience.supervisor` — :class:`PoolSupervisor` (rebuild
  policy for broken process pools — backoff-capped, storm-bounded) and
  :class:`CircuitBreaker` (closed/open/half-open breaker the tile
  service consults before rendering).

See ``docs/robustness.md`` for budget semantics, the degradation
contract, the fault matrix and the resume format.
"""

from __future__ import annotations

from repro.resilience.budget import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    STOP_INTERRUPT,
    STOP_KERNEL_BUDGET,
    STOP_MEMORY,
    STOP_TILE_FAILURES,
    Budget,
    CancellationToken,
)
from repro.resilience.checkpoint import TileLedger
from repro.resilience.faults import FaultPlan
from repro.resilience.result import DegradedResult, RenderOutcome
from repro.resilience.runner import TileRunReport, run_tiles
from repro.resilience.supervisor import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    PoolSupervisor,
)

__all__ = [
    "Budget",
    "CancellationToken",
    "CircuitBreaker",
    "PoolSupervisor",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "DegradedResult",
    "RenderOutcome",
    "TileLedger",
    "FaultPlan",
    "TileRunReport",
    "run_tiles",
    "STOP_DEADLINE",
    "STOP_KERNEL_BUDGET",
    "STOP_MEMORY",
    "STOP_CANCELLED",
    "STOP_INTERRUPT",
    "STOP_TILE_FAILURES",
]
