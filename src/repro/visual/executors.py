"""Process-pool tile executor — true parallel rendering past the GIL.

The in-process tile executor of :mod:`repro.visual.kdv` runs on one
core: the numpy reference backend holds the GIL through the whole
refinement loop (Python + small-batch numpy). :class:`ProcessTileExecutor`
is the tile driver's second executor: it drains tiles into worker
*processes*:

* the fitted kd-tree is published **once** into POSIX shared memory
  (:func:`repro.index.shared.publish_tree`); every worker attaches
  zero-copy views at pool start instead of unpickling megabytes of tree
  per render;
* each worker rebuilds the method's bound provider from a tiny picklable
  spec and answers tiles with a private
  :class:`~repro.core.batch_engine.BatchRefinementEngine` — the same
  engine, bounds and backend dispatch as in-process rendering, so tile
  envelopes are **bit-identical** to the in-process executor's;
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

Pools are cached per fitted method by
:meth:`repro.methods.base.IndexedMethod.process_executor`, so a render
sweep pays the fork + attach cost once.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import weakref
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from repro.contracts.runtime import invariants_enabled, set_invariants
from repro.core.backends import resolve_backend
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
from repro.resilience.supervisor import PoolSupervisor, default_pool_supervisor

if TYPE_CHECKING:
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

#: Environment override for the multiprocessing start method
#: (``fork`` / ``spawn`` / ``forkserver``). The default prefers ``fork``
#: where available: workers inherit the parent's modules, so pool
#: start-up is milliseconds instead of a fresh interpreter per worker.
MP_START_ENV_VAR = "REPRO_MP_START"


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
        ``{tile_index: exception}`` for tiles whose worker raised. The
        original exception objects, so strict callers re-raise with the
        true type.
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
# shared objects (the slot array) — they inherit, they do not pickle.

_WORKER_STATE: dict[str, Any] = {}


def _worker_init(tree_meta: dict[str, Any], spec: dict[str, Any], slot_array: Any) -> None:
    from repro.core.bounds import make_bound_provider

    tree = attach_tree(tree_meta)
    provider = make_bound_provider(
        spec["provider"],
        spec["kernel"],
        spec["gamma"],
        spec["weight"],
        **spec["provider_options"],
    )
    _WORKER_STATE["tree"] = tree
    _WORKER_STATE["provider"] = provider
    _WORKER_STATE["spec"] = spec
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
    index: int,
    centers: FloatArray,
    op: str,
    params: dict[str, float],
    slot: Optional[int],
    check: bool,
    fault_spec: Optional[dict[str, Any]] = None,
    attempt: int = 1,
) -> tuple[int, tuple[FloatArray, FloatArray], dict[str, int], float, bool, int]:
    """Refine one tile's envelopes in a worker; returns a picklable tuple."""
    from repro.core.batch_engine import BatchRefinementEngine

    _inject_process_faults(fault_spec, index, attempt)
    spec = _WORKER_STATE["spec"]
    set_invariants(check)
    stats = QueryStats()
    engine = BatchRefinementEngine(
        _WORKER_STATE["tree"],
        _WORKER_STATE["provider"],
        ordering=spec["ordering"],
        stats=stats,
        backend=spec["backend"],
    )
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
    seconds = time.perf_counter() - start
    was_cancelled = bool(token is not None and token.triggered)
    return index, payload, stats.as_dict(), seconds, was_cancelled, os.getpid()


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


def _close_pool(box: _PoolBox, handle: Any) -> None:
    box.pool.shutdown(wait=True, cancel_futures=True)
    handle.close()


class ProcessTileExecutor:
    """A persistent worker-process pool bound to one fitted method.

    Parameters
    ----------
    method:
        A fitted :class:`~repro.methods.base.IndexedMethod` over a
        kd-tree index (ball trees have no shared-memory packing and
        raise :class:`~repro.errors.InvalidParameterError`).
    workers:
        Worker process count (>= 1).
    backend:
        Compute-backend name the workers dispatch through (``None``
        inherits the method's backend / ``REPRO_BACKEND``).
    supervisor:
        Rebuild policy for broken pools. The default sentinel
        ``"default"`` resolves through
        :func:`~repro.resilience.supervisor.default_pool_supervisor`
        (supervision on unless ``REPRO_POOL_SUPERVISE=0``); pass an
        explicit :class:`~repro.resilience.supervisor.PoolSupervisor`
        to tune the storm cap/backoff, or ``None`` to disable
        supervision (the first break then raises
        :class:`~repro.errors.WorkerPoolBrokenError`).
    """

    def __init__(
        self,
        method: IndexedMethod,
        workers: int,
        backend: str | None = None,
        supervisor: PoolSupervisor | None | str = "default",
    ) -> None:
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        workers = int(workers)
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        engine = method.engine
        if engine is None:
            raise InvalidParameterError(
                "method must be fitted before building a process executor"
            )
        provider = engine.provider
        # Resolve the backend *here*, in the parent: shipping the raw
        # name would make every worker process call resolve_backend()
        # with a fresh fallback-warning latch, re-firing the one-time
        # "numba unavailable" RuntimeWarning once per worker. Resolving
        # to the concrete backend's name keeps the warning once per
        # interpreter and sends workers a name that always exists.
        resolved_backend = resolve_backend(
            backend if backend is not None else method.backend
        )
        spec = {
            "provider": method.provider_name,
            "kernel": provider.kernel.name,
            "gamma": float(provider.gamma),
            "weight": float(provider.weight),
            "provider_options": dict(method.provider_options),
            "ordering": method.ordering,
            "backend": resolved_backend.name,
        }
        self.spec = spec
        start_method = os.environ.get(MP_START_ENV_VAR)
        if not start_method:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else None
            )
        ctx = mp.get_context(start_method)
        self.workers = workers
        if supervisor == "default":
            supervisor = default_pool_supervisor()
        self.supervisor: PoolSupervisor | None = supervisor  # type: ignore[assignment]
        self.breaks = 0
        self.rebuilds = 0
        self._ctx = ctx
        self._generation = 0
        self._rebuild_lock = threading.Lock()
        self._handle = publish_tree(engine.tree)
        try:
            self._slots = CancelSlots(ctx)
            self._box = _PoolBox(
                ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=ctx,
                    initializer=_worker_init,
                    initargs=(self._handle.meta, spec, self._slots.array),
                )
            )
        except BaseException:
            self._handle.close()
            raise
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _close_pool, self._box, self._handle
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the pool down and unlink the shared tree (idempotent)."""
        if not self._closed:
            self._closed = True
            self._finalizer()

    def rebuild(self, observed_generation: int) -> None:
        """Replace the broken inner pool with a fresh one.

        The shared-memory tree published at construction is **reused**:
        the new pool's initargs carry the same handle metadata and slot
        array, so workers re-attach zero-copy views — no re-publication,
        no re-pack of the kd-tree. ``observed_generation`` makes the
        call race-safe when several concurrent :meth:`run` loops hit the
        same broken pool: only the first one actually rebuilds.
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
                initargs=(self._handle.meta, self.spec, self._slots.array),
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
        op: str,
        params: dict[str, float],
        token: CancellationToken | None = None,
        tracer: Any = None,
        on_result: Any = None,
        faults: FaultPlan | None = None,
    ) -> ProcessRunOutcome:
        """Drain ``jobs``' envelopes through the worker pool; never raises Ctrl-C.

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

        ``faults`` is the process-level half of a fault plan (see
        :meth:`~repro.resilience.faults.FaultPlan.partition_process`);
        its rolls execute *inside* the workers.
        """
        from concurrent.futures import BrokenExecutor, CancelledError, as_completed

        if self._closed:
            raise InvalidParameterError("process executor is closed")
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
