"""Tracing flag resolution — zero overhead when off.

This mirrors the flag pattern of :mod:`repro.contracts.runtime`: the
``REPRO_TRACE`` environment variable is read once at import (and on
:func:`refresh_from_env`), hot paths call :func:`current_tracer` — one
cached attribute read returning ``None`` when tracing is off — and every
instrumented branch hangs off that ``None`` check, so a disabled build
pays a single pointer comparison per query/batch and nothing per
iteration.

``REPRO_TRACE`` values (case-insensitive):

``1`` / ``true`` / ``on`` / ``yes``
    Summary tracing: per-query, per-batch, per-tile and per-render
    events plus metric aggregation.
``2`` / ``steps`` / ``detail`` / ``full``
    Everything above plus per-refinement-step events (voluminous).

``REPRO_TRACE_OUT`` optionally names a JSONL file for the default
tracer's events; otherwise they land in a bounded in-memory ring buffer
reachable via ``current_tracer().events()``.

Programmatic control: :func:`set_tracer` installs/uninstalls a tracer
explicitly, and :func:`trace_to` scopes one around a block::

    with trace_to("render.jsonl") as tracer:
        renderer.render(
            RenderRequest.for_eps(0.01, options=RenderOptions(tile_size=64))
        )
    # events are on disk; tracer.summary() has the aggregates
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Optional, Union

from repro.obs.sinks import JsonlSink, TraceSink, resolve_sink
from repro.obs.trace import Tracer

__all__ = [
    "ENV_VAR",
    "OUT_ENV_VAR",
    "tracing_enabled",
    "current_tracer",
    "set_tracer",
    "refresh_from_env",
    "trace_to",
]

#: Environment variable toggling the default tracer.
ENV_VAR = "REPRO_TRACE"

#: Environment variable naming a JSONL file for the default tracer.
OUT_ENV_VAR = "REPRO_TRACE_OUT"

#: Values of :data:`ENV_VAR` enabling summary-level tracing.
_TRUTHY = frozenset({"1", "true", "on", "yes"})

#: Values of :data:`ENV_VAR` enabling per-step tracing as well.
_STEP_LEVEL = frozenset({"2", "steps", "detail", "full"})


def _env_level() -> Optional[str]:
    """``None`` (off), ``"summary"`` or ``"steps"`` from the environment."""
    raw = os.environ.get(ENV_VAR, "").strip().lower()
    if raw in _STEP_LEVEL:
        return "steps"
    if raw in _TRUTHY:
        return "summary"
    return None


class _State:
    """Cached tracer plus the env-derived level, like contracts._State."""

    __slots__ = ("tracer", "level", "override")

    def __init__(self) -> None:
        self.override: bool = False
        self.level: Optional[str] = _env_level()
        self.tracer: Optional[Tracer] = None


_state = _State()


def _default_tracer() -> Tracer:
    """Build the env-configured tracer (ring buffer or JSONL file)."""
    out = os.environ.get(OUT_ENV_VAR, "").strip()
    sink: Optional[TraceSink] = JsonlSink(out) if out else None
    return Tracer(sink, steps=_state.level == "steps")


def tracing_enabled() -> bool:
    """Whether a tracer is (or would be) active."""
    return _state.tracer is not None or _state.level is not None


def current_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is off.

    This is the hot-path entry point: instrumented code calls it once
    per query/batch/render and skips every tracing branch on ``None``.
    The env-configured default tracer is created lazily on first use so
    importing the library never opens trace files.
    """
    tracer = _state.tracer
    if tracer is None and _state.level is not None and not _state.override:
        tracer = _state.tracer = _default_tracer()
    return tracer


def set_tracer(tracer: Optional[Tracer]) -> None:
    """Install ``tracer`` explicitly, or ``None`` to disable tracing.

    An explicit ``None`` also masks the environment flag until
    :func:`refresh_from_env` re-reads it — tests use this to guarantee
    an untraced region regardless of the ambient ``REPRO_TRACE``.
    """
    _state.tracer = tracer
    _state.override = tracer is None


def refresh_from_env() -> bool:
    """Re-read :data:`ENV_VAR` / :data:`OUT_ENV_VAR`; drop any override."""
    _state.override = False
    _state.level = _env_level()
    _state.tracer = None
    return tracing_enabled()


@contextmanager
def trace_to(
    target: Union[TraceSink, Callable[[Mapping[str, Any]], object], str, Path, None] = None,
    *,
    steps: bool = False,
) -> Iterator[Tracer]:
    """Scope a tracer around a block; restores the previous state after.

    ``target`` is anything :func:`repro.obs.sinks.resolve_sink` accepts:
    a sink, a callable, a file path, or ``None`` for an in-memory ring
    buffer. Sinks the context manager itself constructed (from a path)
    are closed on exit; caller-provided sinks are left open.
    """
    sink = resolve_sink(target)
    owns_sink = sink is not None and not isinstance(target, TraceSink)
    tracer = Tracer(sink, steps=steps)
    previous_tracer = _state.tracer
    previous_override = _state.override
    _state.tracer = tracer
    _state.override = False
    try:
        yield tracer
    finally:
        _state.tracer = previous_tracer
        _state.override = previous_override
        if owns_sink and sink is not None:
            sink.close()
