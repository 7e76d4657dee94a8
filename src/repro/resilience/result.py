"""Structured description of a partial (degraded) render.

A resilient render never "half fails": it returns a
:class:`RenderOutcome` carrying the best-so-far image, the per-pixel
``(LB, UB)`` envelopes it was derived from, and a
:class:`DegradedResult` record saying *how far it got and why it
stopped*. A run that finished normally carries ``degraded=None`` and its
image is bit-identical to the non-resilient code path.

``DegradedResult.as_dict()`` is the JSON sidecar schema the CLI writes
next to a partial image (``<out>.degraded.json``); field names are
stable and documented in ``docs/robustness.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro._types import BoolArray, FloatArray
from repro.errors import DeadlineExceededError, TransientTileError
from repro.resilience.budget import STOP_INTERRUPT, STOP_TILE_FAILURES

__all__ = ["DegradedResult", "RenderOutcome"]


class DegradedResult:
    """Why and how much a render was degraded.

    Attributes
    ----------
    reason:
        Stop reason (a ``STOP_*`` constant from
        :mod:`repro.resilience.budget`).
    pixels_total / pixels_resolved:
        Grid size and how many pixels reached their stopping rule
        (``resolved_fraction`` is the ratio).
    worst_gap:
        Largest residual ``UB - LB`` over unresolved pixels (``0.0``
        when everything resolved).
    tiles_total / tiles_completed / tiles_failed:
        Tile accounting; ``tiles_failed`` lists tiles that raised or
        returned a non-finite envelope (each as ``{"tile": i, "error":
        str}``).
    elapsed_s:
        Wall-clock seconds of the online (render) stage.
    budget:
        The budget in force, as a plain dict (or ``None``).
    """

    __slots__ = (
        "reason",
        "pixels_total",
        "pixels_resolved",
        "worst_gap",
        "tiles_total",
        "tiles_completed",
        "tiles_failed",
        "elapsed_s",
        "budget",
    )

    def __init__(
        self,
        *,
        reason: Optional[str],
        pixels_total: int,
        pixels_resolved: int,
        worst_gap: float,
        tiles_total: int,
        tiles_completed: int,
        tiles_failed: Optional[List[Dict[str, Any]]] = None,
        elapsed_s: float = 0.0,
        budget: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.reason = reason
        self.pixels_total = int(pixels_total)
        self.pixels_resolved = int(pixels_resolved)
        self.worst_gap = float(worst_gap)
        self.tiles_total = int(tiles_total)
        self.tiles_completed = int(tiles_completed)
        self.tiles_failed = list(tiles_failed) if tiles_failed else []
        self.elapsed_s = float(elapsed_s)
        self.budget = budget

    @property
    def resolved_fraction(self) -> float:
        """Fraction of pixels that reached their stopping rule."""
        if self.pixels_total <= 0:
            return 1.0
        return self.pixels_resolved / self.pixels_total

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (the ``.degraded.json`` schema)."""
        return {
            "reason": self.reason,
            "pixels_total": self.pixels_total,
            "pixels_resolved": self.pixels_resolved,
            "resolved_fraction": round(self.resolved_fraction, 6),
            "worst_gap": self.worst_gap,
            "tiles_total": self.tiles_total,
            "tiles_completed": self.tiles_completed,
            "tiles_failed": self.tiles_failed,
            "elapsed_s": round(self.elapsed_s, 6),
            "budget": self.budget,
        }

    def __repr__(self) -> str:
        return (
            f"DegradedResult(reason={self.reason!r}, "
            f"resolved={self.pixels_resolved}/{self.pixels_total}, "
            f"worst_gap={self.worst_gap:.3g}, "
            f"tiles_failed={len(self.tiles_failed)})"
        )


class RenderOutcome:
    """A resilient render's full return value.

    Attributes
    ----------
    image:
        The best-so-far answer image: εKDV returns the interval
        midpoint ``0.5 * (LB + UB)`` per pixel (identical to the exact
        answer formula when the pixel resolved), τKDV the hot mask
        ``LB >= τ`` (conservative for unresolved pixels: a pixel not yet
        proven hot renders cold).
    lower / upper:
        Per-pixel bound envelopes with the same shape as ``image``.
        They satisfy ``lower <= F <= upper`` always — cancellation only
        stops tightening, it never invalidates them.
    resolved:
        Boolean image: which pixels reached their stopping rule.
    degraded:
        :class:`DegradedResult` when the render stopped early (or lost
        tiles), ``None`` for a complete run.
    checkpoint_path:
        The checkpoint the run wrote (for ``--resume-from``), if any.
    """

    __slots__ = (
        "image",
        "lower",
        "upper",
        "resolved",
        "degraded",
        "checkpoint_path",
    )

    def __init__(
        self,
        image: FloatArray,
        lower: FloatArray,
        upper: FloatArray,
        resolved: BoolArray,
        degraded: Optional[DegradedResult] = None,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        self.image = image
        self.lower = lower
        self.upper = upper
        self.resolved = resolved
        self.degraded = degraded
        self.checkpoint_path = checkpoint_path

    @property
    def complete(self) -> bool:
        """Whether the render ran to full completion."""
        return self.degraded is None

    def raise_if_stopped(self, subject: str) -> None:
        """Raise what a strict render raises for this run's stop reason.

        A complete run returns. One that lost tiles
        (``STOP_TILE_FAILURES``) raises
        :class:`~repro.errors.TransientTileError`, and one stopped by
        Ctrl-C (``STOP_INTERRUPT``) re-raises :class:`KeyboardInterrupt`.
        Any other stop (deadline, kernel or memory budget, cancellation)
        raises :class:`~repro.errors.DeadlineExceededError` naming the
        reason, with the best-so-far :attr:`image` as its
        ``partial_values``. ``subject`` opens the message, e.g.
        ``"eps render"``.
        """
        degraded = self.degraded
        if degraded is None:
            return
        if degraded.reason == STOP_TILE_FAILURES:
            raise TransientTileError(
                f"{subject} lost "
                f"{degraded.tiles_total - degraded.tiles_completed} tile(s)"
            )
        if degraded.reason == STOP_INTERRUPT:
            raise KeyboardInterrupt
        raise DeadlineExceededError(
            f"{subject} stopped on {degraded.reason!r} with "
            f"{degraded.pixels_resolved}/{degraded.pixels_total} pixels resolved",
            partial_values=np.asarray(self.image),
            pixels_resolved=degraded.pixels_resolved,
            pixels_total=degraded.pixels_total,
        )

    def __repr__(self) -> str:
        state = "complete" if self.complete else repr(self.degraded)
        return f"RenderOutcome(shape={getattr(self.image, 'shape', None)}, {state})"
