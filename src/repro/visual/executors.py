"""Process-pool tile executor — true parallel rendering past the GIL.

The in-process tile executor of :mod:`repro.visual.kdv` runs on one
core: refinement holds the GIL through the whole loop (Python +
small-batch numpy). :class:`ProcessTileExecutor` is the tile driver's
second executor: it drains tiles into worker *processes*:

* a fitted kd-tree is published **once** into POSIX shared memory
  (:func:`repro.index.shared.publish_tree`), the first time a render
  refines it on the pool, and unlinked once the tree is gone; each job
  names its tree's segment, and a worker attaches zero-copy views on the
  first job that does instead of unpickling megabytes of tree per
  render;
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
  the inner pool, whose fresh workers attach the already-published
  segments on their first jobs (no re-publication, no re-pack), then
  replays the tiles whose futures never returned. Rebuild storms are
  capped with exponential backoff; when the budget is exhausted (or
  supervision is disabled) a typed
  :class:`~repro.errors.WorkerPoolBrokenError` surfaces instead of the
  raw ``BrokenProcessPool`` traceback.

Workers come from a ``forkserver`` context whose server has already
imported the worker's modules (``spawn`` where the platform has no
forkserver), so no worker is forked from a threaded parent and a pool
start costs one fork. Each worker pins numpy's bundled OpenBLAS to one
thread: the pool's parallelism is its processes. A worker holds every
tree its jobs have named (a served dataset's exact tree and coreset
tiers, other methods' trees, several datasets'), and drops a tree once
a job's list of live segments no longer has it.

The process holds one pool per worker count (:func:`render_pool`),
built on the first pooled render of that size and shared by every
render after it: a library render sweep and every dataset of a tile
service alike. :func:`close_render_pools` shuts them all down.
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
    from repro._types import FloatArray, IntArray
    from repro.methods.base import IndexedMethod

__all__ = [
    "ProcessTileExecutor",
    "TileJob",
    "ProcessRunOutcome",
    "close_render_pools",
    "pool_supervision_totals",
    "render_pool",
    "render_pools",
]

#: How often a draining :meth:`ProcessTileExecutor.run` looks for tiles
#: a pool closed under it cancelled (nothing wakes it for those).
_CLOSE_POLL_S = 0.05

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


class TreeSegment(NamedTuple):
    """A published tree as every job on it names it.

    ``seq`` numbers the executor's publications (1, 2, ...), ``meta`` is
    the :class:`~repro.index.shared.SharedTreeHandle` meta a worker
    attaches, and ``spec`` what it rebuilds the method's bound provider
    and engine from.
    """

    seq: int
    meta: dict[str, Any]
    spec: dict[str, Any]


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
        Tile indices never executed: their future was cancelled before
        it started (Ctrl-C, or the pool closed under the run), or the
        pool broke underneath them while the run was being abandoned.
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
# Module-level state of one worker process. The pool initializer stores
# the cancellation slots: concurrent.futures passes ``initargs`` through
# the multiprocessing Process machinery, which is the only legal route
# for shared objects (the slot array), so they travel once, when the
# worker starts. Trees are attached by the jobs that name them.

_WORKER_STATE: dict[str, Any] = {}


def _worker_init(slot_array: Any) -> None:
    """Run OpenBLAS on one thread; keep the slots; attach no tree yet."""
    _blas_threads(1)
    _WORKER_STATE["slots"] = slot_array
    _WORKER_STATE["trees"] = {}


def _attached(segment: TreeSegment, live: tuple[int, frozenset[str]]) -> tuple[Any, Any]:
    """This worker's ``(tree, bound provider)`` for ``segment``.

    Attaches the segment on the first job that names it. ``live`` is
    ``(seq, names)``: the segments the pool still published when the
    job was submitted, as of its publication ``seq``. A segment this
    worker holds that was published by then and is not among them has
    been unlinked, so its mapping is dropped; later publications are
    unknown to the job and stay. Jobs run one at a time on the worker's
    main thread, so the attach runs single-threaded.
    """
    from repro.core.bounds import make_bound_provider

    trees: dict[str, tuple[int, Any, Any]] = _WORKER_STATE["trees"]
    seq, names = live
    for name in [name for name, held in trees.items() if held[0] <= seq and name not in names]:
        trees.pop(name)[1].close()
    name = str(segment.meta["name"])
    held = trees.get(name)
    if held is None:
        spec = segment.spec
        provider = make_bound_provider(
            spec["provider"],
            spec["kernel"],
            spec["gamma"],
            spec["weight"],
            **spec["provider_options"],
        )
        held = trees[name] = (segment.seq, attach_tree(segment.meta), provider)
    return held[1], held[2]


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
    segment: TreeSegment,
    live: tuple[int, frozenset[str]],
    index: int,
    centers: FloatArray,
    op: str,
    params: dict[str, float],
    slot: Optional[int],
    check: bool,
    fault_spec: Optional[dict[str, Any]] = None,
    attempt: int = 1,
) -> tuple[int, tuple[FloatArray, FloatArray], dict[str, int], float, bool, int]:
    """Refine one tile's envelopes on ``segment``'s tree; returns a picklable tuple.

    A non-finite envelope raises here, in the worker, through the check
    the in-process executor runs, so both executors fail the tile alike.
    """
    from repro.core.batch_engine import BatchRefinementEngine

    _inject_process_faults(fault_spec, index, attempt)
    tree, provider = _attached(segment, live)
    set_invariants(check)
    stats = QueryStats()
    engine = BatchRefinementEngine(tree, provider, ordering=segment.spec["ordering"], stats=stats)
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


# -- the process's pools -----------------------------------------------------

_POOLS: dict[int, ProcessTileExecutor] = {}
_POOLS_LOCK = threading.Lock()


def render_pool(workers: int) -> ProcessTileExecutor:
    """The process's render pool of ``workers`` workers.

    Built on the first call for that size, and again after it closed,
    so concurrent first renders share one pool; its workers start with
    its first job.
    """
    workers = int(workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None or pool.closed:
            pool = ProcessTileExecutor(workers)
            _POOLS[workers] = pool
        return pool


def render_pools() -> list[ProcessTileExecutor]:
    """The process's open render pools, smallest first (for ``/stats``)."""
    with _POOLS_LOCK:
        return [pool for __, pool in sorted(_POOLS.items()) if not pool.closed]


def close_render_pools() -> None:
    """Shut every render pool down and unlink its trees (idempotent).

    A render draining a pool returns once its running tiles finish,
    with its queued tiles listed as unrun; the next pooled render
    builds a fresh pool.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()


# -- the executor ------------------------------------------------------------

#: What an executor keeps per published tree: the segment its jobs
#: name, and the finalizer that unlinks it when the tree is gone.
_Published = tuple[TreeSegment, weakref.finalize]


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


def _close_pool(box: _PoolBox, published: weakref.WeakKeyDictionary[Any, _Published]) -> None:
    box.pool.shutdown(wait=True, cancel_futures=True)
    for __, release in list(published.values()):
        release()
    published.clear()


class ProcessTileExecutor:
    """A persistent worker-process pool that renders on any fitted kd-tree.

    Parameters
    ----------
    workers:
        Worker process count (>= 1).

    :meth:`run` publishes the tree of the method it is given the first
    time (ball trees have no shared-memory packing and raise
    :class:`~repro.errors.InvalidParameterError`); the segment is
    unlinked once the tree is gone or the executor closes, and a render
    in flight holds its method, so its tree's segment outlives it.
    Most callers want the process's shared pool, :func:`render_pool`.

    Attributes
    ----------
    supervisor:
        Rebuild policy for broken pools, a fresh
        :class:`~repro.resilience.supervisor.PoolSupervisor` per
        executor. Assign another to tune the storm cap/backoff, or
        ``None`` to turn supervision off (the first break then raises
        :class:`~repro.errors.WorkerPoolBrokenError`).
    """

    def __init__(self, workers: int) -> None:
        workers = int(workers)
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.supervisor: PoolSupervisor | None = PoolSupervisor()
        self.breaks = 0
        self.rebuilds = 0
        self._ctx = _pool_context()
        self._generation = 0
        # Guards publication, the live list, rebuilds and closing.
        self._lock = threading.Lock()
        self._closed = False
        self._seq = 0
        self._published: weakref.WeakKeyDictionary[Any, _Published] = (
            weakref.WeakKeyDictionary()
        )
        self._slots = CancelSlots(self._ctx)
        self._box = _PoolBox(self._new_pool())
        self._finalizer = weakref.finalize(self, _close_pool, self._box, self._published)

    def _new_pool(self) -> Any:
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._ctx,
            initializer=_worker_init,
            initargs=(self._slots.array,),
        )

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def segments(self) -> list[str]:
        """Names of the shared-memory segments holding the published trees."""
        with self._lock:
            return [str(segment.meta["name"]) for segment, __ in self._published.values()]

    def worker_pids(self) -> list[int]:
        """Process ids of the pool's live workers (empty before the first run)."""
        processes = self._box.pool._processes
        return sorted(processes) if processes else []

    def close(self) -> None:
        """Shut the pool down and unlink the published trees (idempotent).

        A :meth:`run` draining the pool returns once its running tiles
        finish, with its queued tiles listed as unrun.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._finalizer()

    def _publish(self, method: IndexedMethod) -> TreeSegment | None:
        """``method``'s tree as jobs name it, published on first use.

        ``None`` once the executor is closed.
        """
        if method.engine is None:
            raise InvalidParameterError("methods must be fitted before rendering on a pool")
        tree = method.tree
        with self._lock:
            if self._closed:
                return None
            published = self._published.get(tree)
            if published is None:
                handle = publish_tree(tree)  # type: ignore[arg-type]
                self._seq += 1
                segment = TreeSegment(self._seq, handle.meta, _worker_spec(method))
                published = (segment, weakref.finalize(tree, handle.close))
                self._published[tree] = published
            return published[0]

    def _live(self) -> tuple[int, frozenset[str]]:
        """``(seq, names)`` of the segments published now (see ``_attached``)."""
        with self._lock:
            names = frozenset(
                str(segment.meta["name"]) for segment, __ in self._published.values()
            )
            return self._seq, names

    def rebuild(self, observed_generation: int) -> None:
        """Replace the broken inner pool with a fresh one.

        The published segments are **reused**: the new workers attach
        them on their first jobs — no re-publication, no re-pack of any
        kd-tree. ``observed_generation`` makes the call race-safe when
        several concurrent :meth:`run` loops hit the same broken pool:
        only the first one actually rebuilds.
        """
        with self._lock:
            if self._closed or self._generation != observed_generation:
                return
            old = self._box.pool
            self._box.pool = self._new_pool()
            self._generation += 1
            self.rebuilds += 1
        _count_rebuild()
        # The old pool is already broken: don't wait on its corpse.
        old.shutdown(wait=False, cancel_futures=True)

    def health(self) -> dict[str, Any]:
        """JSON-ready snapshot of pool liveness (for ``/stats``)."""
        report: dict[str, Any] = {
            "workers": self.workers,
            "trees": len(self.segments),
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
        method: IndexedMethod,
        op: str,
        params: dict[str, float],
        token: CancellationToken | None = None,
        tracer: Any = None,
        on_result: Any = None,
        faults: FaultPlan | None = None,
    ) -> ProcessRunOutcome:
        """Drain ``jobs``' envelopes through the worker pool; never raises Ctrl-C.

        ``method`` is the fitted method whose tree the jobs refine; its
        tree is published the first time a run names it.

        Tiles are submitted all at once and drain from the pool's shared
        call queue — idle workers steal the next tile, so an uneven tile
        cost distribution self-balances. Per-tile results stream back
        as they complete:

        * worker stats merge into ``outcome.stats`` and (when ``token``
          carries a kernel budget) charge the parent token, so budgets
          account cross-process work exactly like in-process work;
        * ``tile`` trace events re-emit in the parent with stable
          ordinal worker ids (pids map to 0..N-1 in first-seen order);
        * ``on_result(index, payload)`` runs in completion order when
          given (the tile driver's ``store``).

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
        recreated, and the tiles whose futures never returned are
        resubmitted with a bumped attempt number. Tiles that completed
        before the break keep their results — no work is redone. When
        the supervisor denies (storm cap) or supervision is off, the
        executor closes and a typed
        :class:`~repro.errors.WorkerPoolBrokenError` is raised; a run
        whose token already tripped does not rebuild at all (the caller
        is abandoning the render anyway; the next run rebuilds) and
        reports lost tiles as ``unrun``.

        When the executor **closes** under the run (:meth:`close`,
        :func:`close_render_pools`, or a supervisor denial in a
        concurrent run), the run returns once its running tiles finish,
        with the rest listed as ``unrun``; on an executor already
        closed, every tile is.

        ``faults`` is a :class:`~repro.resilience.faults.FaultPlan`;
        its rolls execute *inside* the workers.
        """
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, CancelledError, wait

        segment = self._publish(method)
        outcome = ProcessRunOutcome()
        if not jobs:
            return outcome
        if segment is None:
            outcome.unrun.update(job.index for job in jobs)
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
                    pool = self._box.pool
                    live = self._live()
                    futures: dict[Any, int] = {}
                    completed_this_round = 0
                    broken: BaseException | None = None
                    lost: set[int] = set()
                    for position, job in enumerate(todo):
                        try:
                            future = pool.submit(
                                _run_tile,
                                segment,
                                live,
                                job.index,
                                job.centers,
                                op,
                                params,
                                slot,
                                check,
                                fault_spec,
                                attempts[job.index],
                            )
                        except BrokenExecutor as error:
                            # A worker died fast enough to poison the pool
                            # mid-submission; nothing submitted this round
                            # will produce results, so the whole round is
                            # lost and replays after the rebuild.
                            broken = error
                            lost = {job.index for job in todo}
                            futures.clear()
                            break
                        except RuntimeError:
                            # Shut down under this run: the rest never runs.
                            if not self._closed:
                                raise
                            outcome.unrun.update(job.index for job in todo[position:])
                            break
                        futures[future] = job.index
                    pending = set(futures)
                    todo = []
                    while pending:
                        try:
                            done, __ = wait(
                                pending, timeout=_CLOSE_POLL_S, return_when=FIRST_COMPLETED
                            )
                            # A closing pool cancels its queued futures
                            # without waking their waiters, so they are
                            # collected at the next poll instead.
                            done |= {future for future in pending if future.cancelled()}
                            for future in sorted(done, key=futures.__getitem__):
                                pending.discard(future)
                                tile_index = futures[future]
                                try:
                                    result = future.result()
                                except CancelledError:
                                    outcome.unrun.add(tile_index)
                                    continue
                                except BrokenExecutor as error:
                                    broken = error
                                    lost.add(tile_index)
                                    continue
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
                            if broken is not None:
                                # The pool died underneath us: nothing
                                # still pending produces results.
                                lost.update(futures[future] for future in pending)
                                pending.clear()
                        except KeyboardInterrupt:
                            outcome.keyboard_interrupt = True
                            token.cancel(STOP_INTERRUPT)
                            watcher.trip()
                            for future in list(pending):
                                if future.cancel():
                                    pending.discard(future)
                                    outcome.unrun.add(futures[future])
                            # Loop back into the wait for the stragglers:
                            # they observe the tripped slot and return
                            # their best-so-far envelopes within a
                            # frontier pop.
                            continue
                    if completed_this_round and self.supervisor is not None:
                        self.supervisor.note_progress()
                    if broken is None:
                        continue
                    outcome.pool_broken = True
                    self.breaks += 1
                    _count_break()
                    if token.triggered or outcome.keyboard_interrupt or self._closed:
                        # The render is being abandoned (or the pool was
                        # closed under it): no rebuild, report the lost
                        # tiles as unrun so the anytime path degrades
                        # them. A later run rebuilds a pool left broken.
                        outcome.unrun.update(lost)
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
