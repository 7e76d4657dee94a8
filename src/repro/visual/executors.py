"""Process-pool tile executor — true parallel rendering past the GIL.

The in-process tile executor of :mod:`repro.visual.kdv` runs on one
core: refinement holds the GIL through the whole loop (Python +
small-batch numpy). :class:`ProcessTileExecutor` is the tile driver's
second executor: it drains tiles into worker *processes*:

* the fitted kd-tree is published **once** into POSIX shared memory
  (:func:`repro.index.shared.publish_tree`); every worker attaches
  zero-copy views at pool start instead of unpickling megabytes of tree
  per render;
* each worker rebuilds the method's bound provider from a tiny picklable
  spec and answers tiles with a private
  :class:`~repro.core.batch_engine.BatchRefinementEngine` — the same
  engine and bounds as in-process rendering, so tile envelopes are
  **bit-identical** to the in-process executor's;
* per-tile :class:`~repro.core.engine.QueryStats` travel back as plain
  dicts and are merged through the usual ``QueryStats.merge`` ledger;
  the parent re-emits ``tile`` trace events into the ambient obs sinks
  (worker processes have no tracer), so observability is unchanged;
* cancellation crosses the process boundary through a shared byte slot
  (:mod:`repro.resilience.process`): Ctrl-C, deadlines and kernel
  budgets trip the parent token, a watcher thread mirrors the latch
  into the slot, and workers stop at their next frontier poll and
  return valid best-so-far envelopes — no orphaned processes, no
  zombie work;
* the pool is **supervised**: when a worker genuinely dies (OOM killer,
  segfault in a native kernel, an injected ``worker_kill`` fault),
  ``concurrent.futures`` poisons the whole ``ProcessPoolExecutor`` —
  the executor detects that, consults its
  :class:`~repro.resilience.supervisor.PoolSupervisor` and *rebuilds*
  the inner pool against the already-published shared-memory tree
  (no re-publication, no re-pack), then replays the tiles whose
  futures never returned. Rebuild storms are capped with exponential
  backoff; when the budget is exhausted (or supervision is disabled)
  a typed :class:`~repro.errors.WorkerPoolBrokenError` surfaces
  instead of the raw ``BrokenProcessPool`` traceback.

Workers come from a ``forkserver`` context whose server has already
imported the worker's modules (``spawn`` where the platform has no
forkserver), so no worker is forked from a threaded parent and a pool
start costs one fork plus a tree attach. Each worker pins numpy's
bundled OpenBLAS to one thread: the pool's parallelism is its
processes. One pool can host several trees (a served dataset's exact
tree and its coreset tiers); each job names the tree it refines.

Pools are cached by
:meth:`repro.methods.base.IndexedMethod.process_executor` (one per
fitted method) or, in the tile service, by
:meth:`repro.serve.registry.DatasetEntry.process_executor` (one per
dataset), so a render sweep pays the pool start once.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import weakref
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from repro.contracts.runtime import invariants_enabled, set_invariants
from repro.core.engine import QueryStats
from repro.errors import InvalidParameterError, WorkerPoolBrokenError
from repro.index.shared import attach_tree, publish_tree
from repro.resilience.budget import STOP_INTERRUPT, CancellationToken
from repro.resilience.faults import (
    FAULT_POOL_BREAK,
    FAULT_SLOW_RESPONSE,
    FAULT_WORKER_KILL,
    FaultPlan,
    fault_fires,
)
from repro.resilience.process import CancelSlots, CancelWatcher, SlotCancellationToken
from repro.resilience.runner import check_finite_envelope
from repro.resilience.supervisor import PoolSupervisor

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro._types import FloatArray, IntArray
    from repro.methods.base import IndexedMethod

__all__ = [
    "ProcessTileExecutor",
    "TileJob",
    "ProcessRunOutcome",
    "pool_supervision_totals",
]

# Process-wide supervision ledger. Executor instances are replaced when
# their rebuild budget is exhausted (close + fresh build on the next
# render), which would silently zero per-instance counters — these
# totals survive replacement so /stats and chaos tests can assert
# "a break happened and was recovered" across executor lifetimes.
_TOTALS_LOCK = threading.Lock()
_TOTAL_BREAKS = 0
_TOTAL_REBUILDS = 0


def _count_break() -> None:
    global _TOTAL_BREAKS
    with _TOTALS_LOCK:
        _TOTAL_BREAKS += 1


def _count_rebuild() -> None:
    global _TOTAL_REBUILDS
    with _TOTALS_LOCK:
        _TOTAL_REBUILDS += 1


def pool_supervision_totals() -> dict[str, int]:
    """Process-lifetime ``{"breaks": N, "rebuilds": N}`` across all pools."""
    with _TOTALS_LOCK:
        return {"breaks": _TOTAL_BREAKS, "rebuilds": _TOTAL_REBUILDS}


#: Modules the fork server imports once, so every worker it forks
#: starts with the refinement stack loaded.
_WORKER_MODULES = ("repro.visual.executors", "repro.core.batch_engine", "repro.core.bounds")


def _pool_context() -> Any:
    """The start context every pool takes its workers from.

    ``forkserver`` forks workers from a single-threaded server process,
    so they never inherit a lock another parent thread held at fork
    time (a worker forked from a threaded HTTP server would block in
    ``multiprocessing.util._close_stdin`` on the stdin lock its control
    thread holds). ``spawn`` stands in where forkserver is missing.
    """
    import multiprocessing as mp

    if "forkserver" not in mp.get_all_start_methods():
        return mp.get_context("spawn")
    ctx = mp.get_context("forkserver")
    ctx.set_forkserver_preload(list(_WORKER_MODULES))
    return ctx


def _blas_threads(count: Optional[int] = None) -> Optional[int]:
    """Set this process's OpenBLAS thread count to ``count``; return it.

    ``OPENBLAS_NUM_THREADS`` is read only when the library loads, which
    happened before a pool worker existed, so the runtime setter is the
    only lever. numpy's wheels bundle a 64-bit-integer OpenBLAS whose
    exports carry a ``scipy_openblas_`` (numpy >= 2) or ``openblas_``
    prefix and a ``64_`` suffix; the lookup goes through numpy's linalg
    extension, which links it. Returns ``None``, setting nothing, where
    numpy uses another BLAS.
    """
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        library = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        getter = getattr(library, f"{prefix}get_num_threads64_", None)
        setter = getattr(library, f"{prefix}set_num_threads64_", None)
        if getter is not None and setter is not None:
            break
    else:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter.argtypes, setter.restype = [ctypes.c_int], None
    if count is not None:
        setter(int(count))
    return int(getter())


class TileJob(NamedTuple):
    """One tile's work order: its index, pixel ids, and query centers.

    ``centers`` is the materialised ``grid.centers()[pixels]`` slice —
    shipping the actual coordinates (a few tens of KB per tile)
    guarantees the worker refines *exactly* the same float64 inputs as
    an in-process render, which is what makes the bit-identity claim
    hold without re-deriving grid geometry in the worker.
    """

    index: int
    pixels: IntArray
    centers: FloatArray


class ProcessRunOutcome:
    """What one :meth:`ProcessTileExecutor.run` produced.

    Attributes
    ----------
    payloads:
        ``{tile_index: (lower, upper)}`` envelope pairs for every tile
        whose worker returned. Tiles a tripped token cut short still
        appear here (their envelopes are valid, just looser).
    errors:
        ``{tile_index: exception}`` for tiles whose worker raised,
        non-finite envelopes included. The original exception objects,
        so strict callers re-raise with the true type.
    cancelled:
        Tile indices whose worker observed the cancellation slot and
        returned early (a subset of ``payloads`` keys).
    unrun:
        Tile indices never executed (future cancelled before start, or
        the pool broke underneath them).
    stats:
        All workers' engine counters merged into one
        :class:`~repro.core.engine.QueryStats`.
    keyboard_interrupt:
        ``True`` when a Ctrl-C landed during collection; the run drains
        outstanding futures before returning, so the caller decides
        whether to re-raise (strict) or degrade (anytime).
    worker_seconds:
        ``{ordinal_worker_id: busy_seconds}`` summed per worker.
    pool_broken:
        ``True`` when the pool broke at least once during the run
        (even if supervision rebuilt it and the run recovered).
    rebuilds:
        How many times the pool was rebuilt during this run.
    """

    __slots__ = (
        "payloads",
        "errors",
        "cancelled",
        "unrun",
        "stats",
        "keyboard_interrupt",
        "worker_seconds",
        "pool_broken",
        "rebuilds",
    )

    def __init__(self) -> None:
        self.payloads: dict[int, tuple[FloatArray, FloatArray]] = {}
        self.errors: dict[int, BaseException] = {}
        self.cancelled: set[int] = set()
        self.unrun: set[int] = set()
        self.stats = QueryStats()
        self.keyboard_interrupt = False
        self.worker_seconds: dict[int, float] = {}
        self.pool_broken = False
        self.rebuilds = 0


# -- worker side -------------------------------------------------------------
#
# Module-level state, populated once per worker process by the pool
# initializer. concurrent.futures passes ``initargs`` through the
# multiprocessing Process machinery, which is the only legal route for
# shared objects (the slot array): they travel once, when the worker
# starts, never with a task.

_WORKER_STATE: dict[str, Any] = {}


def _worker_init(trees: list[tuple[dict[str, Any], dict[str, Any]]], slot_array: Any) -> None:
    """Attach every published tree and rebuild its bound provider.

    ``trees`` lists ``(segment meta, spec)`` pairs; a job names its tree
    by position in this list.
    """
    from repro.core.bounds import make_bound_provider

    _blas_threads(1)
    attached = []
    for meta, spec in trees:
        provider = make_bound_provider(
            spec["provider"],
            spec["kernel"],
            spec["gamma"],
            spec["weight"],
            **spec["provider_options"],
        )
        attached.append((attach_tree(meta), provider, spec))
    _WORKER_STATE["trees"] = attached
    _WORKER_STATE["slots"] = slot_array


def _inject_process_faults(
    fault_spec: Optional[dict[str, Any]], index: int, attempt: int
) -> None:
    """Worker-side deterministic process faults (see REPRO_FAULTS docs).

    ``worker_kill`` and ``pool_break`` are *real* abrupt deaths — the
    parent observes an authentic ``BrokenProcessPool``, exactly the
    condition an OOM-killed or segfaulted worker produces — so the
    supervision path in CI exercises the same machinery production
    faults would. Rolls are keyed on (tile, attempt): a tile whose
    worker was killed on attempt 1 is (with high probability) left
    alone on the replay, so deterministic recovery converges.
    """
    if not fault_spec:
        return
    seed = int(fault_spec["seed"])
    rates: dict[str, float] = fault_spec["rates"]
    if fault_fires(seed, FAULT_WORKER_KILL, index, attempt, rates.get(FAULT_WORKER_KILL, 0.0)):
        os.kill(os.getpid(), signal.SIGKILL)
    if fault_fires(seed, FAULT_POOL_BREAK, index, attempt, rates.get(FAULT_POOL_BREAK, 0.0)):
        os._exit(1)
    if fault_fires(
        seed, FAULT_SLOW_RESPONSE, index, attempt, rates.get(FAULT_SLOW_RESPONSE, 0.0)
    ):
        time.sleep(float(fault_spec["slow_ms"]) / 1000.0)


def _run_tile(
    tree: int,
    index: int,
    centers: FloatArray,
    op: str,
    params: dict[str, float],
    slot: Optional[int],
    check: bool,
    fault_spec: Optional[dict[str, Any]] = None,
    attempt: int = 1,
) -> tuple[int, tuple[FloatArray, FloatArray], dict[str, int], float, bool, int]:
    """Refine one tile's envelopes on tree ``tree``; returns a picklable tuple.

    A non-finite envelope raises here, in the worker, through the check
    the in-process executor runs, so both executors fail the tile alike.
    """
    from repro.core.batch_engine import BatchRefinementEngine

    _inject_process_faults(fault_spec, index, attempt)
    attached, provider, spec = _WORKER_STATE["trees"][tree]
    set_invariants(check)
    stats = QueryStats()
    engine = BatchRefinementEngine(attached, provider, ordering=spec["ordering"], stats=stats)
    token: CancellationToken | None = None
    if slot is not None:
        token = SlotCancellationToken(_WORKER_STATE["slots"], slot)
        token.start()
    start = time.perf_counter()
    if op == "eps":
        payload = engine.query_eps_bounds(
            centers, params["eps"], atol=params["atol"], cancel=token
        )
    else:
        payload = engine.query_tau_bounds(centers, params["tau"], cancel=token)
    check_finite_envelope(index, *payload)
    seconds = time.perf_counter() - start
    was_cancelled = bool(token is not None and token.triggered)
    return index, payload, stats.as_dict(), seconds, was_cancelled, os.getpid()


def _worker_spec(method: IndexedMethod) -> dict[str, Any]:
    """What a worker needs to rebuild ``method``'s bound provider and engine."""
    provider = method.engine.provider  # type: ignore[union-attr]
    return {
        "provider": method.provider_name,
        "kernel": provider.kernel.name,
        "gamma": float(provider.gamma),
        "weight": float(provider.weight),
        "provider_options": dict(method.provider_options),
        "ordering": method.ordering,
    }


class _PoolBox:
    """Mutable holder for the inner ``ProcessPoolExecutor``.

    The weakref finalizer must keep closing the *current* pool even
    after a supervised rebuild swapped it — capturing the box (stable
    identity) instead of the pool object makes that true without
    re-registering finalizers per rebuild.
    """

    __slots__ = ("pool",)

    def __init__(self, pool: Any) -> None:
        self.pool = pool


def _close_pool(box: _PoolBox, handles: list[Any]) -> None:
    box.pool.shutdown(wait=True, cancel_futures=True)
    for handle in handles:
        handle.close()


class ProcessTileExecutor:
    """A persistent worker-process pool over one or more fitted trees.

    Parameters
    ----------
    methods:
        A fitted :class:`~repro.methods.base.IndexedMethod` over a
        kd-tree index, or a sequence of them (ball trees have no
        shared-memory packing and raise
        :class:`~repro.errors.InvalidParameterError`). Each distinct
        method's tree is published once, and every worker attaches all
        of them; :meth:`run` names the tree a render refines.
    workers:
        Worker process count (>= 1).

    Attributes
    ----------
    supervisor:
        Rebuild policy for broken pools, a fresh
        :class:`~repro.resilience.supervisor.PoolSupervisor` per
        executor. Assign another to tune the storm cap/backoff, or
        ``None`` to turn supervision off (the first break then raises
        :class:`~repro.errors.WorkerPoolBrokenError`).
    """

    def __init__(
        self,
        methods: IndexedMethod | Sequence[IndexedMethod],
        workers: int,
    ) -> None:
        from concurrent.futures import ProcessPoolExecutor

        workers = int(workers)
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        if not isinstance(methods, (list, tuple)):
            methods = [methods]
        distinct = list({id(method): method for method in methods}.values())
        if not distinct or any(method.engine is None for method in distinct):
            raise InvalidParameterError(
                "methods must be fitted before building a process executor"
            )
        specs = [_worker_spec(method) for method in distinct]
        ctx = _pool_context()
        self.workers = workers
        self.supervisor: PoolSupervisor | None = PoolSupervisor()
        self.breaks = 0
        self.rebuilds = 0
        self._ctx = ctx
        self._generation = 0
        self._rebuild_lock = threading.Lock()
        # The executor holds the trees it published, so an id() below
        # cannot be reused by another tree while the pool lives.
        self._trees = [method.engine.tree for method in distinct]  # type: ignore[union-attr]
        self._tree_index = {id(tree): index for index, tree in enumerate(self._trees)}
        self._handles: list[Any] = []
        try:
            for tree in self._trees:
                self._handles.append(publish_tree(tree))
            self._slots = CancelSlots(ctx)
            self._initargs = (
                [(handle.meta, spec) for handle, spec in zip(self._handles, specs)],
                self._slots.array,
            )
            self._box = _PoolBox(
                ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=ctx,
                    initializer=_worker_init,
                    initargs=self._initargs,
                )
            )
        except BaseException:
            for handle in self._handles:
                handle.close()
            raise
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _close_pool, self._box, self._handles
        )

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def segments(self) -> list[str]:
        """Names of the shared-memory segments holding the published trees."""
        return [handle.name for handle in self._handles]

    def worker_pids(self) -> list[int]:
        """Process ids of the pool's live workers (empty before the first run)."""
        processes = self._box.pool._processes
        return sorted(processes) if processes else []

    def close(self) -> None:
        """Shut the pool down and unlink the shared trees (idempotent)."""
        if not self._closed:
            self._closed = True
            self._finalizer()

    def rebuild(self, observed_generation: int) -> None:
        """Replace the broken inner pool with a fresh one.

        The shared-memory trees published at construction are
        **reused**: the new pool's initargs carry the same segment
        metadata and slot array, so workers re-attach zero-copy views —
        no re-publication, no re-pack of any kd-tree.
        ``observed_generation`` makes the call race-safe when several
        concurrent :meth:`run` loops hit the same broken pool: only the
        first one actually rebuilds.
        """
        from concurrent.futures import ProcessPoolExecutor

        with self._rebuild_lock:
            if self._closed or self._generation != observed_generation:
                return
            old = self._box.pool
            self._box.pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._ctx,
                initializer=_worker_init,
                initargs=self._initargs,
            )
            self._generation += 1
            self.rebuilds += 1
            _count_rebuild()
            # The old pool is already broken: don't wait on its corpse.
            old.shutdown(wait=False, cancel_futures=True)

    def health(self) -> dict[str, Any]:
        """JSON-ready snapshot of pool liveness (for ``/stats``)."""
        report: dict[str, Any] = {
            "workers": self.workers,
            "trees": len(self._handles),
            "pids": self.worker_pids(),
            "closed": self._closed,
            "breaks": self.breaks,
            "rebuilds": self.rebuilds,
            "generation": self._generation,
            "supervised": self.supervisor is not None,
        }
        if self.supervisor is not None:
            report["supervisor"] = self.supervisor.as_dict()
        return report

    def __enter__(self) -> ProcessTileExecutor:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the drain loop ------------------------------------------------------

    def run(
        self,
        jobs: list[TileJob],
        *,
        tree: Any,
        op: str,
        params: dict[str, float],
        token: CancellationToken | None = None,
        tracer: Any = None,
        on_result: Any = None,
        faults: FaultPlan | None = None,
    ) -> ProcessRunOutcome:
        """Drain ``jobs``' envelopes through the worker pool; never raises Ctrl-C.

        ``tree`` is the fitted tree (``method.tree``) the jobs refine,
        one of the trees the pool publishes.

        Tiles are submitted all at once and drain from the pool's shared
        call queue — idle workers steal the next tile, so an uneven tile
        cost distribution self-balances. Per-tile results stream back
        ``as_completed``:

        * worker stats merge into ``outcome.stats`` and (when ``token``
          carries a kernel budget) charge the parent token, so budgets
          account cross-process work exactly like in-process work;
        * ``tile`` trace events re-emit in the parent with stable
          ordinal worker ids (pids map to 0..N-1 in first-seen order);
        * ``on_result(index, payload)`` runs in submission-completion
          order when given (the tile driver's ``store``).

        A ``KeyboardInterrupt`` during collection cancels the token,
        trips the cancellation slot (workers stop at their next frontier
        poll), cancels not-yet-started futures, and *waits* for running
        ones — their best-so-far envelopes are collected and no process
        is orphaned. The interrupt is reported on the outcome rather
        than re-raised, because strict and anytime callers disagree on
        what to do with it (as they do about tile errors).

        When the pool **breaks** (a worker died abruptly — OOM killer,
        segfault, injected ``worker_kill``), supervision kicks in: the
        supervisor grants a backoff-spaced rebuild, the inner pool is
        recreated against the already-published shared tree, and the
        tiles whose futures never returned are resubmitted with a
        bumped attempt number. Tiles that completed before the break
        keep their results — no work is redone. When the supervisor
        denies (storm cap) or supervision is off, a typed
        :class:`~repro.errors.WorkerPoolBrokenError` is raised; a run
        whose token already tripped does not rebuild at all (the caller
        is abandoning the render anyway) and reports lost tiles as
        ``unrun``.

        ``faults`` is a :class:`~repro.resilience.faults.FaultPlan`;
        its rolls execute *inside* the workers.
        """
        from concurrent.futures import BrokenExecutor, CancelledError, as_completed

        if self._closed:
            raise InvalidParameterError("process executor is closed")
        tree_index = self._tree_index.get(id(tree))
        if tree_index is None:
            raise InvalidParameterError(
                f"this pool publishes {len(self._trees)} tree(s) and the "
                "given tree is not one of them"
            )
        outcome = ProcessRunOutcome()
        if not jobs:
            return outcome
        if token is None:
            token = CancellationToken()
        token.start()
        check = invariants_enabled()
        fault_spec: dict[str, Any] | None = None
        if faults is not None and not faults.empty:
            fault_spec = faults.as_dict()
        slot = self._slots.claim()
        pid_to_worker: dict[int, int] = {}
        jobs_by_index = {job.index: job for job in jobs}
        attempts = {job.index: 1 for job in jobs}
        try:
            with CancelWatcher(self._slots, slot, token) as watcher:
                todo = list(jobs)
                while todo:
                    generation = self._generation
                    futures: dict[Any, int] = {}
                    pending: set[Any] = set()
                    completed_this_round = 0
                    broken: BaseException | None = None
                    lost: set[int] = set()
                    try:
                        for job in todo:
                            futures[
                                self._box.pool.submit(
                                    _run_tile,
                                    tree_index,
                                    job.index,
                                    job.centers,
                                    op,
                                    params,
                                    slot,
                                    check,
                                    fault_spec,
                                    attempts[job.index],
                                )
                            ] = job.index
                        pending = set(futures)
                    except BrokenExecutor as error:
                        # A worker died fast enough to poison the pool
                        # mid-submission; nothing submitted this round
                        # will produce results, so the whole round is
                        # lost and replays after the rebuild.
                        broken = error
                        lost = {job.index for job in todo}
                    todo = []
                    while pending:
                        try:
                            for future in as_completed(pending):
                                pending.discard(future)
                                tile_index = futures[future]
                                try:
                                    result = future.result()
                                except CancelledError:
                                    outcome.unrun.add(tile_index)
                                    continue
                                except BrokenExecutor as error:
                                    # The pool died underneath us: this
                                    # future and everything still pending
                                    # never produced results.
                                    broken = error
                                    lost = {tile_index}
                                    lost.update(futures[f] for f in pending)
                                    pending.clear()
                                    break
                                except BaseException as error:
                                    outcome.errors[tile_index] = error
                                    continue
                                index, payload, stats_dict, seconds, cancelled, pid = result
                                completed_this_round += 1
                                worker_id = pid_to_worker.setdefault(
                                    pid, len(pid_to_worker)
                                )
                                tile_stats = QueryStats()
                                for field, value in stats_dict.items():
                                    setattr(tile_stats, field, value)
                                outcome.stats.merge(tile_stats)
                                token.charge(tile_stats.point_evaluations)
                                outcome.payloads[index] = payload
                                if cancelled:
                                    outcome.cancelled.add(index)
                                outcome.worker_seconds[worker_id] = (
                                    outcome.worker_seconds.get(worker_id, 0.0)
                                    + seconds
                                )
                                if tracer is not None:
                                    tracer.tile(
                                        index=index,
                                        rows=int(payload[0].shape[0]),
                                        seconds=seconds,
                                        worker=worker_id,
                                        op=op,
                                    )
                                if on_result is not None:
                                    on_result(index, payload)
                        except KeyboardInterrupt:
                            outcome.keyboard_interrupt = True
                            token.cancel(STOP_INTERRUPT)
                            watcher.trip()
                            for future in list(pending):
                                if future.cancel():
                                    pending.discard(future)
                                    outcome.unrun.add(futures[future])
                            # Loop back into as_completed for the
                            # stragglers: they observe the tripped slot
                            # and return their best-so-far envelopes
                            # within a frontier pop.
                            continue
                    if completed_this_round and self.supervisor is not None:
                        self.supervisor.note_progress()
                    if broken is None:
                        continue
                    outcome.pool_broken = True
                    self.breaks += 1
                    _count_break()
                    if token.triggered or outcome.keyboard_interrupt:
                        # The render is being abandoned anyway: no
                        # rebuild, report the lost tiles as unrun so
                        # the anytime path degrades them.
                        outcome.unrun.update(lost)
                        self.close()
                        break
                    delay = (
                        self.supervisor.grant()
                        if self.supervisor is not None
                        else None
                    )
                    if delay is None:
                        self.close()
                        if self.supervisor is None:
                            detail = "supervision is disabled"
                        else:
                            detail = (
                                "the rebuild budget is exhausted "
                                f"({self.supervisor.max_consecutive_rebuilds} "
                                "consecutive rebuilds without progress)"
                            )
                        raise WorkerPoolBrokenError(
                            f"process worker pool broke with {len(lost)} "
                            f"tile(s) in flight and {detail}"
                        ) from broken
                    if delay > 0.0:
                        time.sleep(delay)
                    self.rebuild(generation)
                    outcome.rebuilds += 1
                    for index in lost:
                        attempts[index] += 1
                    todo = [jobs_by_index[i] for i in sorted(lost)]
        finally:
            self._slots.release(slot)
        return outcome
