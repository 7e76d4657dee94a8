"""The in-process tile loop: retries, cancellation, faults.

:func:`run_tiles` is the in-process executor of the tile driver
(:meth:`repro.visual.kdv.KDVRenderer.render`). It drains a
deterministic work list of pixel-index tiles, one at a time, through
caller-supplied hooks (evaluate / store / completeness test), while
providing the guarantees the resilience layer promises:

* **Cancellation** — the :class:`~repro.resilience.budget.CancellationToken`
  is polled before every tile is taken *and* inside the refinement
  engine (per frontier pop), so a tripped token stops the run at the
  next consistent point; tiles already evaluated keep their valid
  best-so-far envelopes.
* **Retries** — transiently failed tiles (see
  :func:`~repro.resilience.retry.is_transient`) are requeued with
  exponential backoff up to the policy's attempt limit; tile evaluation
  is deterministic and side-effect-free, so a retried tile produces
  bit-identical values to a run that never failed.
* **Fatal errors** — non-transient failures
  (:class:`~repro.errors.InvariantViolation`, bad parameters) propagate
  immediately; retrying them would mask soundness bugs.
* **KeyboardInterrupt** — converted into cooperative cancellation
  (``STOP_INTERRUPT``) rather than a stack trace, so the caller still
  gets the partial image and its metadata.
* **Faults** — an optional
  :class:`~repro.resilience.faults.FaultInjector` wraps every attempt;
  a NaN-poisoned result is caught by the runner's output sanity check
  and retried clean.

Without a retry policy the loop recovers nothing: the first exception,
``KeyboardInterrupt`` included, propagates unchanged and no further
tile starts — the fail-fast contract of strict renders.

Results are written through ``store`` into caller-owned arrays indexed
by absolute pixel position, so completion order (which retries
perturb) cannot affect the final image bits.
"""

from __future__ import annotations

import time
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro._types import FloatArray, IntArray
from repro.resilience.budget import STOP_INTERRUPT, CancellationToken
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy, TransientTileError, is_transient

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

__all__ = ["TileRunReport", "run_tiles"]

#: One queued unit of work: (tile index, pixel indices, attempt number).
_Task = Tuple[int, "IntArray", int]

EvaluateFn = Callable[[Any, "IntArray"], Tuple["FloatArray", "FloatArray"]]
StoreFn = Callable[[int, "IntArray", "FloatArray", "FloatArray"], None]
CompleteFn = Callable[["FloatArray", "FloatArray"], bool]


class TileRunReport:
    """What happened to every tile of one resilient run.

    Attributes
    ----------
    completed:
        Tiles whose every pixel reached its stopping rule (eligible for
        the checkpoint ledger).
    partial:
        Tiles evaluated under a tripped token — stored envelopes are
        valid but not fully tightened.
    failed:
        Tiles whose retries were exhausted, as ``{tile: error string}``.
    unprocessed:
        Tiles never taken off the queue (cancellation hit first).
    retries / faults_injected:
        Recovery accounting.
    elapsed_s:
        Wall-clock seconds of the drain loop.
    """

    __slots__ = (
        "completed",
        "partial",
        "failed",
        "unprocessed",
        "retries",
        "faults_injected",
        "elapsed_s",
    )

    def __init__(self) -> None:
        self.completed: List[int] = []
        self.partial: List[int] = []
        self.failed: Dict[int, str] = {}
        self.unprocessed: List[int] = []
        self.retries = 0
        self.faults_injected = 0
        self.elapsed_s = 0.0

    @property
    def all_completed(self) -> bool:
        """Whether every queued tile fully resolved."""
        return not (self.partial or self.failed or self.unprocessed)

    def __repr__(self) -> str:
        return (
            f"TileRunReport(completed={len(self.completed)}, "
            f"partial={len(self.partial)}, failed={len(self.failed)}, "
            f"unprocessed={len(self.unprocessed)}, retries={self.retries})"
        )


def _sane(lower: FloatArray, upper: FloatArray) -> bool:
    """Envelope sanity: every bound finite (kernels are bounded)."""
    return bool(np.isfinite(lower).all() and np.isfinite(upper).all())


def run_tiles(
    tiles: Sequence[IntArray],
    evaluate: EvaluateFn,
    store: StoreFn,
    tile_complete: CompleteFn,
    engine: Any,
    *,
    token: CancellationToken,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultInjector] = None,
    tracer: Optional[Tracer] = None,
    skip: Optional[Set[int]] = None,
    op: str = "eps",
) -> TileRunReport:
    """Drain ``tiles`` through ``evaluate``/``store``, one tile at a time.

    Parameters
    ----------
    tiles:
        Pixel-index arrays in deterministic (row-major) order; the tile
        index is the position in this sequence.
    evaluate:
        ``evaluate(engine, pixels) -> (lower, upper)`` — runs the
        refinement for one tile's pixels. Must be deterministic and
        side-effect-free apart from engine statistics, and must poll
        ``token`` internally so cancellation reaches mid-tile work.
    store:
        ``store(tile, pixels, lower, upper)`` — writes results into
        caller-owned arrays (called for partial results too). Writes
        are disjoint across tiles; completion order cannot change bits.
    tile_complete:
        ``tile_complete(lower, upper) -> bool`` — whether every pixel
        reached its stopping rule (the ledger-eligibility test).
    engine:
        Handed to ``evaluate`` with every tile.
    token / faults / tracer:
        Cancellation token (required; pass an un-budgeted
        ``CancellationToken()`` for "only explicit cancel"), optional
        fault injector and tracer.
    retry:
        Policy for transient tile failures. ``None`` recovers nothing:
        the first exception (``KeyboardInterrupt`` included) propagates
        unchanged and no further tile starts.
    skip:
        Tile indices to leave untouched (checkpoint resume).
    op:
        Label for trace events (``"eps"`` / ``"tau"``).
    """
    token.start()
    queue: Deque[_Task] = deque()
    for index, pixels in enumerate(tiles):
        if skip is None or index not in skip:
            queue.append((index, pixels, 1))

    report = TileRunReport()
    start = time.perf_counter()

    def recovery(action: str, **fields: Any) -> None:
        if tracer is not None:
            tracer.recovery(action=action, **fields)

    while queue:
        if token.stop_reason() is not None:
            break
        task = queue.popleft()
        tile, pixels, attempt = task
        tile_start = time.perf_counter()
        try:
            if faults is not None:
                faults.before(tile, attempt)
            lower, upper = evaluate(engine, pixels)
            if faults is not None:
                lower, upper = faults.after(tile, attempt, lower, upper)
            if not _sane(lower, upper):
                raise TransientTileError(
                    f"tile {tile}: non-finite bound envelope from provider"
                )
        except KeyboardInterrupt:
            if retry is None:
                raise
            token.cancel(STOP_INTERRUPT)
            recovery(action="cancel", reason=STOP_INTERRUPT)
            queue.appendleft(task)
            break
        except Exception as err:
            if retry is None or not is_transient(err):
                raise
            if attempt >= retry.max_attempts:
                report.failed[tile] = f"{type(err).__name__}: {err}"
                recovery(
                    action="give-up", tile=tile, attempt=attempt,
                    reason=type(err).__name__,
                )
                continue
            delay = retry.delay(attempt)
            if delay > 0.0:
                time.sleep(delay)
            report.retries += 1
            recovery(
                action="retry", tile=tile, attempt=attempt,
                reason=type(err).__name__,
            )
            queue.append((tile, pixels, attempt + 1))
            continue
        store(tile, pixels, lower, upper)
        if tile_complete(lower, upper):
            report.completed.append(tile)
        else:
            report.partial.append(tile)
        if tracer is not None:
            tracer.tile(
                index=tile, rows=int(len(pixels)),
                seconds=time.perf_counter() - tile_start, worker=0, op=op,
            )

    report.unprocessed = sorted(task[0] for task in queue)
    if faults is not None:
        report.faults_injected = faults.injected
    report.elapsed_s = time.perf_counter() - start
    return report
