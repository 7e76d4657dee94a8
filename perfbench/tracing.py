"""Span recording for the traced server, installed from outside ``src/``.

:func:`install` wraps the public functions of each layer a tile request
crosses, at the names their callers look up: methods on their classes
(and on every subclass that overrides them), module functions in every
``repro`` module that imported them by name. Only ``server.py --trace``
imports this module, so untraced runs carry no wrapper at all.

Each span records ``(id, name, thread, start, end, parent, rid,
child_time)``: ``parent`` is the enclosing span on the same thread
(0 for none) and ``child_time`` the summed duration of its direct
children, so a layer's self time is ``end - start - child_time``. The
request id (``rid``) comes from the ``rid`` query parameter: the
``TileServer._tile`` wrapper binds it for the event-loop coroutine, the
``plan_tile`` wrapper pins it on the returned plan, and the
``serve_tile`` wrapper re-binds it on the pool thread that renders.

Backend calls (``node_bounds_batch`` / ``leaf_exact_batch``) run tens of
thousands of times per tile, so they are not stored one by one: each is
folded into a per ``(name, parent, rid)`` count and total, and its time
is still charged to the parent's ``child_time``.

A target a later change deleted or renamed is reported as unmeasured
instead of failing the run. All times use :func:`time.monotonic`, the
clock the client process reads too.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Recorder", "TARGETS", "install"]

_clock = time.monotonic
_ids = itertools.count(1)
_local = threading.local()
_RID: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_rid", default=None
)
_PLAN_RID = "_perfbench_rid"

#: (span name, module, attribute path, mode). ``mode`` is ``"span"``,
#: ``"leaf"`` (aggregated), ``"http"`` (the async request envelope),
#: ``"plan"`` (pins the rid on the plan) or ``"serve"`` (re-binds it).
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("http.tile", "repro.serve.http", "TileServer._tile", "http"),
    ("service.plan_tile", "repro.serve.service", "TileService.plan_tile", "plan"),
    ("service.cached_png", "repro.serve.service", "TileService.cached_png", "span"),
    ("service.try_acquire_slot", "repro.serve.service", "TileService.try_acquire_slot", "span"),
    ("service.serve_tile", "repro.serve.service", "TileService.serve_tile", "serve"),
    ("cache.get_png", "repro.cache.tiles", "TileCache.get_png", "span"),
    ("cache.put_png", "repro.cache.tiles", "TileCache.put_png", "span"),
    ("cache.get_density", "repro.cache.tiles", "TileCache.get_density", "span"),
    ("cache.put_density", "repro.cache.tiles", "TileCache.put_density", "span"),
    ("cache.get_bounds", "repro.cache.tiles", "TileCache.get_bounds", "span"),
    ("cache.put_bounds", "repro.cache.tiles", "TileCache.put_bounds", "span"),
    ("registry.register", "repro.serve.registry", "DatasetRegistry.register", "span"),
    ("registry.register", "repro.serve.sharding", "ShardedDatasetRegistry.register", "span"),
    ("registry.coarse_density", "repro.serve.registry", "DatasetEntry.coarse_density", "span"),
    ("registry.coarse_density", "repro.serve.sharding", "ShardedDatasetEntry.coarse_density", "span"),
    ("coreset.coreset_for_delta", "repro.sampling.coreset", "coreset_for_delta", "span"),
    ("kdv.render", "repro.visual.kdv", "KDVRenderer.render", "span"),
    ("kdv.run_tiles", "repro.resilience.runner", "run_tiles", "span"),
    ("engine.root_envelope", "repro.core.batch_engine", "BatchRefinementEngine.root_envelope", "span"),
    ("engine.query_eps_bounds", "repro.core.batch_engine", "BatchRefinementEngine.query_eps_bounds", "span"),
    ("engine.query_tau_bounds", "repro.core.batch_engine", "BatchRefinementEngine.query_tau_bounds", "span"),
    ("backend.node_bounds_batch", "repro.core.backends.base", "ComputeBackend.node_bounds_batch", "leaf"),
    ("backend.leaf_exact_batch", "repro.core.backends.base", "ComputeBackend.leaf_exact_batch", "leaf"),
    ("exact.exact_density", "repro.core.exact", "exact_density", "span"),
    ("encode.colormap_apply", "repro.visual.colormap", "Colormap.apply", "span"),
    ("encode.two_color_map", "repro.visual.colormap", "two_color_map", "span"),
    ("encode.png_bytes", "repro.visual.image", "png_bytes", "span"),
)


class Recorder:
    """In-memory span store; :meth:`snapshot` is written out at the end."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, int, float, float, int, Optional[str], float]] = []
        self.leaf: Dict[Tuple[str, int, Optional[str]], List[float]] = {}
        self.leaf_lock = threading.Lock()
        self.wrapped: List[str] = []
        self.unmeasured: Dict[str, str] = {}

    def snapshot(self) -> Dict[str, Any]:
        with self.leaf_lock:
            leaf = [
                [name, parent, rid, int(count), total]
                for (name, parent, rid), (count, total) in self.leaf.items()
            ]
        return {
            "span_fields": ["id", "name", "thread", "start", "end", "parent", "rid", "child_time"],
            "spans": [list(span) for span in list(self.spans)],
            "leaf_fields": ["name", "parent", "rid", "count", "total"],
            "leaf": leaf,
            "wrapped": sorted(set(self.wrapped)),
            "unmeasured": dict(sorted(self.unmeasured.items())),
        }


def _stack() -> List[List[Any]]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _current_rid() -> Optional[str]:
    rid = getattr(_local, "rid", None)
    return rid if rid is not None else _RID.get()


def _span_wrapper(recorder: Recorder, name: str, fn: Callable[..., Any], mode: str) -> Callable[..., Any]:
    spans = recorder.spans

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = _stack()
        parent = stack[-1] if stack else None
        rebound = False
        if mode == "serve":
            plan = args[1] if len(args) > 1 else kwargs.get("plan")
            rid = getattr(plan, _PLAN_RID, None)
            if rid is not None:
                _local.rid = rid
                rebound = True
        rid = _current_rid()
        frame = [next(_ids), 0.0]
        stack.append(frame)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            if rebound:
                _local.rid = None
            if parent is not None:
                parent[1] += end - start
            spans.append(
                (frame[0], name, threading.get_ident(), start, end,
                 parent[0] if parent is not None else 0, rid, frame[1])
            )
        if mode == "plan" and rid is not None:
            try:
                setattr(result, _PLAN_RID, rid)
            except (AttributeError, TypeError):
                recorder.unmeasured["service.queue_wait"] = "plan object takes no attributes"
        return result

    return wrapper


def _leaf_wrapper(recorder: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    leaf = recorder.leaf
    lock = recorder.leaf_lock

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            stack = _stack()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += elapsed
            key = (name, parent[0] if parent is not None else 0, _current_rid())
            with lock:
                slot = leaf.get(key)
                if slot is None:
                    leaf[key] = [1, elapsed]
                else:
                    slot[0] += 1
                    slot[1] += elapsed

    return wrapper


def _http_wrapper(recorder: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    spans = recorder.spans

    @functools.wraps(fn)
    async def wrapper(self: Any, match: Any, params: Dict[str, str], *args: Any, **kwargs: Any) -> Any:
        rid = params.get("rid")
        token = _RID.set(rid)
        start = _clock()
        try:
            return await fn(self, match, params, *args, **kwargs)
        finally:
            end = _clock()
            _RID.reset(token)
            spans.append((next(_ids), name, threading.get_ident(), start, end, 0, rid, 0.0))

    return wrapper


def _wrap(recorder: Recorder, name: str, fn: Callable[..., Any], mode: str) -> Callable[..., Any]:
    if mode == "http":
        if not inspect.iscoroutinefunction(fn):
            raise TypeError("the request envelope is no longer a coroutine")
        return _http_wrapper(recorder, name, fn)
    if mode == "leaf":
        return _leaf_wrapper(recorder, name, fn)
    return _span_wrapper(recorder, name, fn, mode)


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _install_target(recorder: Recorder, name: str, module_name: str, path: str, mode: str) -> None:
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        cls = getattr(module, owner_name)
        defined = 0
        for klass in _subclasses(cls):
            original = klass.__dict__.get(attr)
            if original is None or not callable(original):
                continue
            defined += 1
            if getattr(original, "__perfbench_wrapped__", False) or getattr(
                original, "__isabstractmethod__", False
            ):
                continue
            wrapper = _wrap(recorder, name, original, mode)
            wrapper.__perfbench_wrapped__ = True  # type: ignore[attr-defined]
            setattr(klass, attr, wrapper)
        if not defined:
            raise AttributeError(f"{path} is not defined")
        return
    original = getattr(module, attr)
    wrapper = _wrap(recorder, name, original, mode)
    wrapper.__perfbench_wrapped__ = True  # type: ignore[attr-defined]
    # Patch every binding callers look up: the defining module and each
    # repro module that imported the function by name.
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)


def install() -> Recorder:
    """Import every instrumented module and wrap its targets."""
    recorder = Recorder()
    for _, module_name, _, _ in TARGETS:
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass  # reported per target below
    for name, module_name, path, mode in TARGETS:
        try:
            _install_target(recorder, name, module_name, path, mode)
        except (ImportError, AttributeError, TypeError) as error:
            recorder.unmeasured[name] = f"{module_name}.{path}: {error}"
            continue
        recorder.wrapped.append(name)
    return recorder


def query_stats(service: Any) -> Dict[str, int]:
    """Summed ``QueryStats`` of every fitted method the registry holds.

    Walks each entry's renderer, its coreset tier renderers and, for
    sharded entries, every shard's; fitted methods shared between
    renderers are counted once.
    """
    totals: Dict[str, int] = {}
    seen: set = set()

    def renderers_of(entry: Any) -> List[Any]:
        found = [getattr(entry, "renderer", None)]
        tiers = getattr(entry, "_coreset_tiers", {}) or {}
        found.extend(getattr(tier, "renderer", None) for tier in tiers.values())
        for shard in getattr(entry, "_shards", ()) or ():
            found.extend(renderers_of(shard))
        return [renderer for renderer in found if renderer is not None]

    registry = service.registry
    for dataset_id in registry.ids():
        for renderer in renderers_of(registry.get(dataset_id)):
            for fitted in (getattr(renderer, "_methods", {}) or {}).values():
                stats = getattr(fitted, "stats", None)
                if stats is None or id(stats) in seen:
                    continue
                seen.add(id(stats))
                for field, value in stats.as_dict().items():
                    totals[field] = totals.get(field, 0) + int(value)
    return totals
