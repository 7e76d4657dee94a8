"""The in-process tile loop and the tile failure rule both executors share.

:func:`run_tiles` is the in-process executor of the tile driver
(:meth:`repro.visual.kdv.KDVRenderer.render`). It drains a
deterministic work list of pixel-index tiles, one at a time, through
caller-supplied hooks (evaluate / store), under the same failure rule
as the process pool
(:meth:`ProcessTileExecutor.run <repro.visual.executors.ProcessTileExecutor.run>`),
and both executors return the same :class:`TileRunReport`:

* **A tile fails once.** A tile that raises, or whose envelope is not
  finite (:func:`check_finite_envelope`, which pool workers run too), is
  not recomputed: refinement is deterministic, so a second run would
  only repeat the failure.
* **Fail fast** — the first tile exception, ``KeyboardInterrupt``
  included, propagates unchanged and no further tile starts: the
  contract of strict renders.
* **Resilient** — every tile exception is recorded in
  :attr:`TileRunReport.failed` and the other tiles still run; a
  ``KeyboardInterrupt`` becomes cooperative cancellation
  (``STOP_INTERRUPT``), so the caller still gets the partial image and
  its metadata.
* **Cancellation** — the :class:`~repro.resilience.budget.CancellationToken`
  is polled before every tile is taken *and* inside the refinement
  engine (per frontier pop), so a tripped token stops the run at the
  next consistent point; tiles already evaluated keep their valid
  best-so-far envelopes.

Results are written through ``store`` into caller-owned arrays indexed
by absolute pixel position, so completion order cannot affect the final
image bits; ``store`` also says whether the tile resolved completely.
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
from repro.errors import TransientTileError
from repro.resilience.budget import STOP_INTERRUPT, CancellationToken

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

__all__ = ["TileRunReport", "check_finite_envelope", "run_tiles"]

EvaluateFn = Callable[[Any, "IntArray"], Tuple["FloatArray", "FloatArray"]]
StoreFn = Callable[[int, "IntArray", "FloatArray", "FloatArray"], bool]


class TileRunReport:
    """What happened to every tile of one run, on either executor.

    Attributes
    ----------
    completed:
        Tiles whose every pixel reached its stopping rule (eligible for
        the checkpoint ledger).
    partial:
        Tiles evaluated under a tripped token — stored envelopes are
        valid but not fully tightened.
    failed:
        Tiles that raised, as ``{tile: "ErrorType: message"}``.
    unprocessed:
        Tiles never evaluated: cancellation hit first, or the pool
        closed before it ran them.
    worker_busy:
        Each pool worker's busy seconds (``0.0`` for a worker that ran
        no tile); ``None`` for an in-process run.
    """

    __slots__ = ("completed", "partial", "failed", "unprocessed", "worker_busy")

    def __init__(self) -> None:
        self.completed: List[int] = []
        self.partial: List[int] = []
        self.failed: Dict[int, str] = {}
        self.unprocessed: List[int] = []
        self.worker_busy: Optional[List[float]] = None

    def fail(self, tile: int, error: BaseException) -> None:
        """Record ``tile`` as failed with ``error`` (both executors)."""
        self.failed[tile] = f"{type(error).__name__}: {error}"

    @property
    def all_completed(self) -> bool:
        """Whether every queued tile fully resolved."""
        return not (self.partial or self.failed or self.unprocessed)

    def __repr__(self) -> str:
        return (
            f"TileRunReport(completed={len(self.completed)}, "
            f"partial={len(self.partial)}, failed={len(self.failed)}, "
            f"unprocessed={len(self.unprocessed)})"
        )


def check_finite_envelope(tile: int, lower: FloatArray, upper: FloatArray) -> None:
    """Raise :class:`~repro.errors.TransientTileError` unless every bound is finite.

    Kernels are bounded, so a NaN or infinite bound is a fault of the
    tile (a NaN query, a broken provider), never an answer.
    """
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise TransientTileError(
            f"tile {tile}: non-finite bound envelope from provider"
        )


def run_tiles(
    tiles: Sequence[IntArray],
    evaluate: EvaluateFn,
    store: StoreFn,
    engine: Any,
    *,
    token: CancellationToken,
    fail_fast: bool = True,
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
        ``store(tile, pixels, lower, upper) -> bool`` — writes results
        into caller-owned arrays (called for partial results too) and
        returns whether every pixel reached its stopping rule (the
        ledger-eligibility test). Writes are disjoint across tiles;
        completion order cannot change bits.
    engine:
        Handed to ``evaluate`` with every tile.
    token / tracer:
        Cancellation token (required; pass an un-budgeted
        ``CancellationToken()`` for "only explicit cancel") and
        optional tracer.
    fail_fast:
        ``True``: the first exception (``KeyboardInterrupt`` included)
        propagates unchanged and no further tile starts. ``False``:
        failed tiles land in :attr:`TileRunReport.failed` and a
        ``KeyboardInterrupt`` cancels ``token``.
    skip:
        Tile indices to leave untouched (checkpoint resume).
    op:
        Label for trace events (``"eps"`` / ``"tau"``).
    """
    token.start()
    queue: Deque[Tuple[int, IntArray]] = deque(
        (index, pixels)
        for index, pixels in enumerate(tiles)
        if skip is None or index not in skip
    )
    report = TileRunReport()

    while queue:
        if token.stop_reason() is not None:
            break
        tile, pixels = queue.popleft()
        tile_start = time.perf_counter()
        try:
            lower, upper = evaluate(engine, pixels)
            check_finite_envelope(tile, lower, upper)
        except KeyboardInterrupt:
            if fail_fast:
                raise
            token.cancel(STOP_INTERRUPT)
            if tracer is not None:
                tracer.recovery(action="cancel", reason=STOP_INTERRUPT)
            queue.appendleft((tile, pixels))
            break
        except Exception as err:
            if fail_fast:
                raise
            report.fail(tile, err)
            continue
        if store(tile, pixels, lower, upper):
            report.completed.append(tile)
        else:
            report.partial.append(tile)
        if tracer is not None:
            tracer.tile(
                index=tile, rows=int(len(pixels)),
                seconds=time.perf_counter() - tile_start, worker=0, op=op,
            )

    report.unprocessed = sorted(task[0] for task in queue)
    return report
