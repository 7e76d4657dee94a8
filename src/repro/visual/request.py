"""The unified render request API: what to render vs how to run it.

PRs 2–4 accumulated keyword sprawl on :class:`~repro.visual.kdv.KDVRenderer`
(``tile_size``, ``workers``, ``trace``, ``budget``, ``checkpoint``, ...).
This module splits that surface into two frozen dataclasses:

* :class:`RenderRequest` — *what* is rendered: the operation (ε or τ),
  its parameters, the method, kernel, bandwidth and viewport grid.
  Every field here shapes the output bytes, so the request carries a
  stable :meth:`~RenderRequest.fingerprint` — the cache key of the tile
  service (:mod:`repro.serve`).
* :class:`RenderOptions` — *how* the render runs: tiling, worker
  processes, tracing, budgets and the rest of the resilience surface.
  With the single exception of ``tile_size`` (see below), options never
  change the rendered values, only cost, observability and degradation
  behaviour — which is exactly why they stay out of the fingerprint.

``tile_size`` lives on :class:`RenderOptions` because it is an execution
knob, but it *does* participate in the fingerprint: the batched engine
refines each tile as one frontier batch, and per-pixel ε answers (while
always honouring the ``(1 ± eps)`` contract) depend on the batch
composition. Two renders with different tile partitions may therefore
produce different — equally valid — images, so the partition must key
the cache. ``workers`` does not: tiles are refined independently, and
the same partition gives bit-identical values at any worker count.

:meth:`KDVRenderer.render(request) <repro.visual.kdv.KDVRenderer.render>`
is the single entrypoint consuming these (see ``docs/api.md``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    import os
    from pathlib import Path

    from repro._types import FloatArray
    from repro.methods.base import Method
    from repro.resilience.budget import Budget, CancellationToken
    from repro.visual.grid import PixelGrid
    from repro.visual.kdv import FaultsLike, KDVRenderer, TraceTarget

__all__ = ["RenderOptions", "RenderRequest", "OP_EPS", "OP_TAU"]

#: The two render operations of the paper: approximate density (εKDV)
#: and thresholded hotspot classification (τKDV).
OP_EPS = "eps"
OP_TAU = "tau"

#: Version tag of the fingerprint payload schema. Bump whenever the
#: payload layout changes, so stale cache entries can never alias new
#: ones. v2 added the ``tier`` field (exact vs per-zoom coreset).
FINGERPRINT_FORMAT = "repro-render-request-v2"


def _float_token(value: float) -> str:
    """Canonical string for a float field (exact, `repr`-based)."""
    return repr(float(value))


def _normalize_tile_size(
    tile_size: Union[int, Tuple[int, int], None],
) -> Optional[Tuple[int, int]]:
    """``None`` | int | pair -> ``None`` | ``(width, height)`` pair."""
    if tile_size is None:
        return None
    if isinstance(tile_size, tuple):
        width, height = int(tile_size[0]), int(tile_size[1])
    else:
        width = height = int(tile_size)
    if width < 1 or height < 1:
        raise InvalidParameterError(f"tile_size must be >= 1, got {width}x{height}")
    return width, height


@dataclass(frozen=True)
class RenderOptions:
    """How a render executes — cost, scheduling and resilience knobs.

    Every field is optional; the all-defaults instance reproduces the
    plain (untiled, untraced, non-resilient) render path exactly.

    Parameters
    ----------
    tile_size:
        Pixel-tile edge (or ``(width, height)``) for tiled rendering
        through the batched engine. The only option that participates
        in :meth:`RenderRequest.fingerprint` (see the module docstring).
    workers:
        ``N >= 2`` drains the tiles over the method's process pool of
        ``N`` workers; ``None`` or ``1`` renders in-process.
    trace:
        Scoped trace target (see :func:`repro.obs.trace_to`).
    budget:
        :class:`~repro.resilience.budget.Budget` cost envelope; engages
        the anytime path.
    cancel:
        Externally owned cancellation token.
    resume_from / checkpoint:
        Tile-ledger paths for checkpoint/resume.
    faults:
        Deterministic process-level fault plan (testing/chaos): a
        :class:`~repro.resilience.faults.FaultPlan` or its spec string;
        ``None`` reads ``REPRO_FAULTS``. Only pool workers execute it.
    anytime:
        Return the full :class:`~repro.resilience.result.RenderOutcome`
        (image + per-pixel envelopes + degradation metadata) instead of
        the bare image/mask.
    envelope:
        τ renders only: per-pixel ``(LB, UB)`` arrays (flat, grid
        order) known to enclose the density, used as the starting
        envelope instead of the root bounds. Pixels it settles
        (:func:`~repro.core.stopping.tau_settled_mask`) are not refined;
        the rest refine in full-size batches. Out of the fingerprint:
        the τ mask is schedule-independent, so the start changes cost,
        never the mask.
    """

    tile_size: Union[int, Tuple[int, int], None] = None
    workers: Optional[int] = None
    trace: "TraceTarget" = None
    budget: Optional["Budget"] = None
    cancel: Optional["CancellationToken"] = None
    resume_from: Union[str, "os.PathLike[str]", None] = None
    checkpoint: Union[str, "os.PathLike[str]", None] = None
    faults: "FaultsLike" = None
    anytime: bool = False
    envelope: Optional[Tuple["FloatArray", "FloatArray"]] = None

    def __post_init__(self) -> None:
        _normalize_tile_size(self.tile_size)  # validates
        if self.workers is not None and int(self.workers) < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {self.workers!r}")

    def replace(self, **changes: Any) -> "RenderOptions":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    @property
    def resilience_engaged(self) -> bool:
        """Whether any resilience field is set (budget, checkpointing, ...)."""
        return any(
            value is not None
            for value in (
                self.budget,
                self.cancel,
                self.resume_from,
                self.checkpoint,
                self.faults,
            )
        )


#: The all-defaults options instance shared by bare requests.
_DEFAULT_OPTIONS = RenderOptions()


@dataclass(frozen=True)
class RenderRequest:
    """What to render — a complete, cacheable description of one image.

    Parameters
    ----------
    op:
        ``"eps"`` (density colour map) or ``"tau"`` (hotspot mask).
    eps / tau:
        The operation parameter (exactly the one matching ``op`` must
        be set).
    method:
        Registry name of the solution method (a fitted
        :class:`~repro.methods.base.Method` instance is accepted for
        library use, but only named methods can be fingerprinted).
    kernel / gamma / weight:
        Kernel name, bandwidth and per-point weight. ``None`` means
        "whatever the renderer was built with"; a non-``None`` value
        must *match* the renderer (requests cannot re-fit a renderer —
        build a new one for a different kernel or bandwidth).
    atol:
        εKDV absolute floor; ``None`` resolves to the renderer default
        (``1e-9 * weight``).
    grid:
        Viewport/resolution to render (``None``: the renderer's own
        grid). A different grid renders through a shared-index clone
        (:meth:`~repro.visual.kdv.KDVRenderer.with_grid`), so pan/zoom/
        tile requests reuse the fitted kd-tree and moment aggregates.
    method_options:
        Canonicalised ``(name, repr(value))`` pairs of the method
        constructor options; filled by :meth:`resolve`.
    tier:
        Data-tier label: ``None`` for the exact point set, or a
        coreset-tier tag (e.g. ``"coreset-z3"``) when the render is
        answered from a per-zoom weighted coreset. Participates in the
        fingerprint — the same viewport rendered from different tiers
        produces different (both valid) bytes, so tiers must never
        alias in the cache.
    options:
        The :class:`RenderOptions` execution knobs.
    """

    op: str
    eps: Optional[float] = None
    tau: Optional[float] = None
    method: Union[str, "Method"] = "quad"
    kernel: Optional[str] = None
    gamma: Optional[float] = None
    weight: Optional[float] = None
    atol: Optional[float] = None
    grid: Optional["PixelGrid"] = None
    method_options: Tuple[Tuple[str, str], ...] = ()
    tier: Optional[str] = None
    options: RenderOptions = field(default_factory=RenderOptions)

    def __post_init__(self) -> None:
        if self.op not in (OP_EPS, OP_TAU):
            raise InvalidParameterError(
                f"op must be {OP_EPS!r} or {OP_TAU!r}, got {self.op!r}"
            )
        if self.op == OP_EPS:
            if self.eps is None:
                raise InvalidParameterError("an eps render requires eps=")
            if self.tau is not None:
                raise InvalidParameterError("an eps render must not set tau=")
            if not (math.isfinite(float(self.eps)) and float(self.eps) > 0.0):
                raise InvalidParameterError(
                    f"eps must be a positive finite number, got {self.eps!r}"
                )
        else:
            if self.tau is None:
                raise InvalidParameterError("a tau render requires tau=")
            if self.eps is not None:
                raise InvalidParameterError("a tau render must not set eps=")
            if not math.isfinite(float(self.tau)):
                raise InvalidParameterError(f"tau must be finite, got {self.tau!r}")
        if self.gamma is not None and not float(self.gamma) > 0.0:
            raise InvalidParameterError(f"gamma must be > 0, got {self.gamma!r}")
        if self.weight is not None and not float(self.weight) > 0.0:
            raise InvalidParameterError(f"weight must be > 0, got {self.weight!r}")
        if self.atol is not None and float(self.atol) < 0.0:
            raise InvalidParameterError(f"atol must be >= 0, got {self.atol!r}")

    # -- construction helpers ----------------------------------------------

    @classmethod
    def for_eps(
        cls,
        eps: float = 0.01,
        method: Union[str, "Method"] = "quad",
        *,
        options: Optional[RenderOptions] = None,
        **fields: Any,
    ) -> "RenderRequest":
        """An εKDV request (convenience constructor)."""
        return cls(
            op=OP_EPS,
            eps=eps,
            method=method,
            options=options if options is not None else _DEFAULT_OPTIONS,
            **fields,
        )

    @classmethod
    def for_tau(
        cls,
        tau: float,
        method: Union[str, "Method"] = "quad",
        *,
        options: Optional[RenderOptions] = None,
        **fields: Any,
    ) -> "RenderRequest":
        """A τKDV request (convenience constructor)."""
        return cls(
            op=OP_TAU,
            tau=tau,
            method=method,
            options=options if options is not None else _DEFAULT_OPTIONS,
            **fields,
        )

    def replace(self, **changes: Any) -> "RenderRequest":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- resolution ---------------------------------------------------------

    def resolve(self, renderer: "KDVRenderer") -> "RenderRequest":
        """Fill renderer-default fields; validate consistency.

        Returns a request whose ``kernel``, ``gamma``, ``weight``,
        ``grid``, ``atol`` and ``method_options`` are concrete, so its
        fingerprint is well defined. A request that *names* a kernel or
        bandwidth different from the renderer's is rejected — the
        renderer's fitted indexes are specific to them, so honouring the
        request silently would render the wrong thing.
        """
        changes: Dict[str, Any] = {}
        kernel_name = renderer.kernel.name
        if self.kernel is None:
            changes["kernel"] = kernel_name
        elif str(self.kernel).lower() != kernel_name:
            raise InvalidParameterError(
                f"request kernel {self.kernel!r} does not match the renderer's "
                f"{kernel_name!r}; build a KDVRenderer with that kernel instead"
            )
        if self.gamma is None:
            changes["gamma"] = float(renderer.gamma)
        elif float(self.gamma) != float(renderer.gamma):  # lint: allow-float-eq -- config identity, not arithmetic
            raise InvalidParameterError(
                f"request gamma {self.gamma!r} does not match the renderer's "
                f"{renderer.gamma!r}; build a KDVRenderer with that bandwidth instead"
            )
        if self.weight is None:
            changes["weight"] = float(renderer.weight)
        elif float(self.weight) != float(renderer.weight):  # lint: allow-float-eq -- config identity, not arithmetic
            raise InvalidParameterError(
                f"request weight {self.weight!r} does not match the renderer's "
                f"{renderer.weight!r}"
            )
        if self.grid is None:
            changes["grid"] = renderer.grid
        if self.op == OP_EPS and self.atol is None:
            changes["atol"] = 1e-9 * float(renderer.weight)
        if not self.method_options and isinstance(self.method, str):
            from repro.methods.registry import canonical_method_options

            changes["method_options"] = canonical_method_options(
                self.method, renderer.method_options
            )
        return self.replace(**changes) if changes else self

    # -- fingerprinting ------------------------------------------------------

    def fingerprint_payload(self) -> Dict[str, Any]:
        """The canonical, JSON-ready dict the fingerprint hashes.

        Contains exactly the fields that shape the rendered values: op
        and its parameter, method name and canonical options, kernel,
        bandwidth, weight, atol, grid geometry and the tile partition.
        Execution knobs (``workers``, ``trace``, budgets, checkpoints,
        fault plans, ``anytime``) are deliberately absent — they never
        change a *complete* render's values. Partial (degraded) results
        must not be cached by callers for the same reason.
        """
        if not isinstance(self.method, str):
            raise InvalidParameterError(
                "fingerprint requires a registry-named method, got a "
                f"{type(self.method).__name__} instance"
            )
        if self.kernel is None or self.gamma is None or self.grid is None:
            raise InvalidParameterError(
                "fingerprint requires a resolved request; call "
                "request.resolve(renderer) first"
            )
        grid = self.grid
        payload: Dict[str, Any] = {
            "format": FINGERPRINT_FORMAT,
            "tier": None if self.tier is None else str(self.tier),
            "op": self.op,
            "method": str(self.method).lower(),
            "method_options": [list(pair) for pair in self.method_options],
            "kernel": str(self.kernel).lower(),
            "gamma": _float_token(self.gamma),
            "weight": None if self.weight is None else _float_token(self.weight),
            "eps": None if self.eps is None else _float_token(self.eps),
            "tau": None if self.tau is None else _float_token(self.tau),
            "atol": None if self.atol is None else _float_token(self.atol),
            "grid": [
                int(grid.width),
                int(grid.height),
                [_float_token(v) for v in grid.low],
                [_float_token(v) for v in grid.high],
            ],
            "tile_size": (
                None
                if _normalize_tile_size(self.options.tile_size) is None
                else list(_normalize_tile_size(self.options.tile_size))
            ),
        }
        return payload

    def fingerprint(self, extra: Optional[Mapping[str, Any]] = None) -> str:
        """Stable hex digest identifying the rendered bytes.

        ``extra`` mixes caller context into the key (the tile service
        passes dataset id + version, colormap and tile XYZ). Two
        requests hash equal iff every value-shaping field — and every
        ``extra`` item — is equal; see :meth:`fingerprint_payload` for
        exactly which fields those are.
        """
        payload = self.fingerprint_payload()
        if extra:
            payload["extra"] = {str(key): extra[key] for key in sorted(extra)}
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), default=repr
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
