"""Trace event schema: kinds, required fields, and the event builder.

Events are plain dictionaries (JSON-serialisable by construction) so
every sink — ring buffer, JSONL file, callback — handles them uniformly
and ``tools/trace_report.py`` can consume a trace with no unpickling.
Each event carries:

``event``
    The kind, one of the ``EVENT_*`` constants below.
``t``
    Seconds since the owning tracer started (monotonic clock).
``method``
    The active method name (``quad``, ``karl``, ...) when a method
    scope is open, else absent.

Kind-specific fields (see ``docs/observability.md`` for the full
schema):

``query``
    One scalar-engine query: ``engine``, ``op`` (``eps``/``tau``),
    ``bound`` (provider class), ``rule`` (which stopping rule fired —
    the names of :mod:`repro.core.stopping`), ``iterations``,
    ``node_evaluations``, ``leaf_evaluations``, ``point_evaluations``,
    ``root_gap``, ``lb``, ``ub``.
``batch_query``
    One batched-engine batch: ``rows``, per-pixel refinement ``depth_*``
    summaries, ``rules`` (rule name -> pixel count), ``pops`` (frontier
    pops), gap statistics.
``step`` / ``batch_step``
    Per-refinement-step detail (only at trace level ``steps``): the
    popped node, leaf flag, bound gap, and for batches the active-row
    count.
``tile``
    One rendered tile: ``index``, ``rows``, ``seconds``, ``worker``.
``render``
    One full render: ``op``, ``pixels``, ``tiles``, ``workers``,
    ``seconds``, and per-worker busy time when tiled.
``snapshot``
    One progressive-visualization snapshot capture.
``recovery``
    One recovery action of the resilient tile driver: ``action``
    (``cancel``, when Ctrl-C stops a resilient render) and ``reason``.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = [
    "EVENT_QUERY",
    "EVENT_BATCH_QUERY",
    "EVENT_STEP",
    "EVENT_BATCH_STEP",
    "EVENT_TILE",
    "EVENT_RENDER",
    "EVENT_SNAPSHOT",
    "EVENT_RECOVERY",
    "EVENT_KINDS",
    "make_event",
]

EVENT_QUERY = "query"
EVENT_BATCH_QUERY = "batch_query"
EVENT_STEP = "step"
EVENT_BATCH_STEP = "batch_step"
EVENT_TILE = "tile"
EVENT_RENDER = "render"
EVENT_SNAPSHOT = "snapshot"
EVENT_RECOVERY = "recovery"

#: Every kind a conforming sink may receive.
EVENT_KINDS = frozenset(
    {
        EVENT_QUERY,
        EVENT_BATCH_QUERY,
        EVENT_STEP,
        EVENT_BATCH_STEP,
        EVENT_TILE,
        EVENT_RENDER,
        EVENT_SNAPSHOT,
        EVENT_RECOVERY,
    }
)


def make_event(kind: str, t: float, **fields: Any) -> Dict[str, Any]:
    """Build one event dict; ``None``-valued fields are dropped."""
    event: Dict[str, Any] = {"event": kind, "t": round(float(t), 6)}
    for key, value in fields.items():
        if value is not None:
            event[key] = value
    return event
