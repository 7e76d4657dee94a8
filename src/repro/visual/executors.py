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
* :meth:`ProcessTileExecutor.run` takes the renderer's work list and
  ``store`` hook and returns the
  :class:`~repro.resilience.runner.TileRunReport` the in-process
  executor (:func:`~repro.resilience.runner.run_tiles`) returns, under
  the same failure rule;
* per-tile :class:`~repro.core.engine.QueryStats` travel back as plain
  dicts and are merged into the render's private ledger; the parent
  re-emits ``tile`` trace events into the ambient obs sinks (worker
  processes have no tracer), so observability is unchanged;
* cancellation crosses the process boundary through a shared byte slot
  (:mod:`repro.resilience.process`): the run's wait loop copies the
  parent token (deadline, kernel budget, ``cancel()``) into the slot
  every 20 ms and sets it at once on Ctrl-C, and workers stop at their
  next frontier poll and return valid best-so-far envelopes — no
  orphaned processes, no zombie work;
* the pool is **supervised**: when a worker genuinely dies (OOM killer,
  segfault in a native kernel, an injected ``worker_kill`` fault),
  ``concurrent.futures`` poisons the whole ``ProcessPoolExecutor``.
  The first run to see that *generation* of the inner pool broken
  counts the break, takes one grant from the
  :class:`~repro.resilience.supervisor.PoolSupervisor`, sleeps its
  backoff and rebuilds the inner pool, whose fresh workers attach the
  already-published segments on their first jobs (no re-publication,
  no re-pack); every run replays the tiles whose futures never
  returned on the new generation. Rebuild storms are capped with
  exponential backoff; when the budget is exhausted (or supervision is
  disabled) the executor closes once and a typed
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
from repro.resilience.process import CancelSlots, SlotCancellationToken
from repro.resilience.runner import TileRunReport, check_finite_envelope
from repro.resilience.supervisor import PoolSupervisor

if TYPE_CHECKING:
    from repro._types import FloatArray, IntArray
    from repro.methods.base import IndexedMethod
    from repro.resilience.runner import StoreFn

__all__ = [
    "ProcessTileExecutor",
    "TileJob",
    "close_render_pools",
    "pool_supervision_totals",
    "render_pool",
    "render_pools",
]

#: How often a draining :meth:`ProcessTileExecutor.run` copies its token
#: into the render's cancellation slot and looks for tiles a pool closed
#: under it cancelled (nothing wakes it for those).
_POLL_S = 0.02

# Process-wide supervision ledger: one break per broken pool generation,
# one rebuild per generation replaced. Executor instances are replaced
# when their rebuild budget is exhausted (close + fresh build on the
# next render), which would silently zero per-instance counters — these
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
) -> tuple[tuple[FloatArray, FloatArray], dict[str, int], float, int]:
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
    return payload, stats.as_dict(), seconds, os.getpid()


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
    with its queued tiles listed as unprocessed; the next pooled render
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
    time; the segment is unlinked once the tree is gone or the executor
    closes, and a render in flight holds its method, so its tree's
    segment outlives it.
    Most callers want the process's shared pool, :func:`render_pool`.

    Attributes
    ----------
    supervisor:
        Rebuild policy for broken pools, a fresh
        :class:`~repro.resilience.supervisor.PoolSupervisor` per
        executor. Assign another to tune the storm cap/backoff, or
        ``None`` to turn supervision off (the first break then raises
        :class:`~repro.errors.WorkerPoolBrokenError`).
    breaks / rebuilds:
        Generations of the inner pool seen broken, and replaced.
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
        # Guards publication, the live list, recovery and closing.
        self._lock = threading.Lock()
        # Signalled when a recovery step ends or the executor closes.
        self._recovered = threading.Condition(self._lock)
        self._recovering = False
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
        finish, with its queued tiles listed as unprocessed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._recovered.notify_all()
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

    def _recover(self, generation: int, lost: int, cause: BaseException) -> bool:
        """Step the pool past broken ``generation`` once; whether it is open.

        The first run to see ``generation`` broken counts the break,
        takes one supervisor grant, sleeps its backoff and swaps in a
        fresh inner pool, whose workers attach the published segments on
        their first jobs (no re-publication, no re-pack). A run that sees
        the generation broken later waits for that step and replays on
        the next generation. A denial (or no supervisor) closes the
        executor once and raises
        :class:`~repro.errors.WorkerPoolBrokenError` in the run that
        asked; the runs waiting on it find the executor closed.
        """
        with self._lock:
            while self._recovering and self._generation == generation and not self._closed:
                self._recovered.wait()
            if self._closed or self._generation != generation:
                return not self._closed
            self._recovering = True
            self.breaks += 1
        _count_break()
        old = None
        try:
            delay = None if self.supervisor is None else self.supervisor.grant()
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
                    f"process worker pool broke with {lost} tile(s) in flight and {detail}"
                ) from cause
            time.sleep(delay)
            with self._lock:
                if not self._closed:
                    old, self._box.pool = self._box.pool, self._new_pool()
                    self._generation += 1
                    self.rebuilds += 1
        finally:
            with self._lock:
                self._recovering = False
                self._recovered.notify_all()
        if old is None:
            return False
        _count_rebuild()
        # The old pool is already broken: don't wait on its corpse.
        old.shutdown(wait=False, cancel_futures=True)
        return True

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
        store: StoreFn,
        *,
        method: IndexedMethod,
        op: str,
        params: dict[str, float],
        token: CancellationToken | None = None,
        fail_fast: bool = True,
        stats: QueryStats | None = None,
        tracer: Any = None,
        faults: FaultPlan | None = None,
    ) -> TileRunReport:
        """Drain ``jobs`` through the worker pool, under the tile failure rule.

        The pool counterpart of :func:`repro.resilience.runner.run_tiles`,
        with the same ``store`` hook, the same failure rule and the same
        :class:`~repro.resilience.runner.TileRunReport`. ``method`` is
        the fitted method whose tree the jobs refine; its tree is
        published the first time a run names it.

        Tiles are submitted all at once and drain from the pool's shared
        call queue — idle workers steal the next tile, so an uneven tile
        cost distribution self-balances. Per-tile results stream back
        as they complete:

        * worker stats merge into ``stats`` (the render's private ledger) and
          charge ``token``, so budgets account cross-process work
          exactly like in-process work;
        * ``tile`` trace events re-emit in the parent with stable
          ordinal worker ids (pids map to 0..N-1 in first-seen order);
        * ``store(index, pixels, lower, upper)`` runs in completion
          order and says whether the tile resolved completely.

        A token that tripped before the run starts leaves every tile
        unprocessed, as it does in-process. While the run drains, its
        wait loop copies the token into the render's cancellation slot
        every 20 ms, so tiles in flight stop at their next frontier poll
        and land as partial with valid best-so-far envelopes. A Ctrl-C
        cancels the token with ``STOP_INTERRUPT``, sets the slot at once,
        cancels the futures no worker took yet and *waits* for running
        ones, so no process is orphaned.

        When the pool **breaks** (a worker died abruptly — OOM killer,
        segfault, injected ``worker_kill``), one recovery step per
        generation (``_recover``) rebuilds it and every run replays its
        lost tiles there with a bumped attempt number; tiles that
        completed before the break keep their results. A denied rebuild
        closes the executor and raises
        :class:`~repro.errors.WorkerPoolBrokenError` in the run that
        asked. A run whose token already tripped does not recover (the
        caller is abandoning the render; the next run recovers) and
        lists its lost tiles as unprocessed. When the executor
        **closes** under the run (:meth:`close`,
        :func:`close_render_pools`, or a denial in a concurrent run),
        the run returns once its running tiles finish, with the rest
        unprocessed; on an executor already closed, every tile is.

        With ``fail_fast`` the run then re-raises, in this order: a
        Ctrl-C, the lowest-indexed tile's own exception (a non-finite
        envelope included), or :class:`~repro.errors.WorkerPoolBrokenError`
        for tiles a closing pool never ran. Otherwise every tile that
        raised is listed as failed. ``faults`` is a
        :class:`~repro.resilience.faults.FaultPlan`; its rolls execute
        *inside* the workers.
        """
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, CancelledError, wait

        report = TileRunReport()
        if token is None:
            token = CancellationToken()
        token.start()
        if stats is None:
            stats = QueryStats()
        segment = self._publish(method)
        todo = list(jobs)
        if segment is None or token.stop_reason() is not None:
            report.unprocessed, todo = [job.index for job in jobs], []
        check = invariants_enabled()
        fault_spec = None if faults is None or faults.empty else faults.as_dict()
        jobs_by_index = {job.index: job for job in jobs}
        attempts = dict.fromkeys(jobs_by_index, 1)
        errors: dict[int, BaseException] = {}
        busy: dict[int, float] = {}
        pid_to_worker: dict[int, int] = {}
        interrupted = False
        slot = self._slots.claim()
        try:
            while todo:
                with self._lock:
                    generation, pool = self._generation, self._box.pool
                live = self._live()
                futures: dict[Any, int] = {}
                broken: BaseException | None = None
                lost: set[int] = set()
                for position, job in enumerate(todo):
                    try:
                        future = pool.submit(
                            _run_tile, segment, live, job.index, job.centers, op,
                            params, slot, check, fault_spec, attempts[job.index],
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
                        report.unprocessed.extend(job.index for job in todo[position:])
                        break
                    futures[future] = job.index
                pending = set(futures)
                progress = False
                while pending:
                    try:
                        if token.stop_reason() is not None:
                            self._slots.set(slot)
                        done, __ = wait(pending, timeout=_POLL_S, return_when=FIRST_COMPLETED)
                        # A closing pool cancels its queued futures
                        # without waking their waiters, so they are
                        # collected at the next poll instead.
                        done |= {future for future in pending if future.cancelled()}
                        for future in sorted(done, key=futures.__getitem__):
                            pending.discard(future)
                            index = futures[future]
                            try:
                                result = future.result()
                            except CancelledError:
                                report.unprocessed.append(index)
                                continue
                            except BrokenExecutor as error:
                                broken = error
                                lost.add(index)
                                continue
                            except BaseException as error:
                                errors[index] = error
                                continue
                            payload, stats_dict, seconds, pid = result
                            progress = True
                            worker = pid_to_worker.setdefault(pid, len(pid_to_worker))
                            busy[worker] = busy.get(worker, 0.0) + seconds
                            tile_stats = QueryStats()
                            for field, value in stats_dict.items():
                                setattr(tile_stats, field, value)
                            stats.merge(tile_stats)
                            token.charge(tile_stats.point_evaluations)
                            if tracer is not None:
                                tracer.tile(
                                    index=index, rows=int(payload[0].shape[0]),
                                    seconds=seconds, worker=worker, op=op,
                                )
                            pixels = jobs_by_index[index].pixels
                            if store(index, pixels, *payload):
                                report.completed.append(index)
                            else:
                                report.partial.append(index)
                        if broken is not None:
                            # The pool died underneath us: nothing
                            # still pending produces results.
                            lost.update(futures[future] for future in pending)
                            pending.clear()
                    except KeyboardInterrupt:
                        interrupted = True
                        token.cancel(STOP_INTERRUPT)
                        self._slots.set(slot)
                        for future in list(pending):
                            if future.cancel():
                                pending.discard(future)
                                report.unprocessed.append(futures[future])
                        # Loop back into the wait for the stragglers:
                        # they observe the tripped slot and return their
                        # best-so-far envelopes within a frontier pop.
                if progress and self.supervisor is not None:
                    self.supervisor.note_progress()
                todo = []
                if broken is None:
                    continue
                if token.triggered or not self._recover(generation, len(lost), broken):
                    report.unprocessed.extend(lost)
                    break
                for index in lost:
                    attempts[index] += 1
                todo = [jobs_by_index[index] for index in sorted(lost)]
        finally:
            self._slots.release(slot)
        if fail_fast:
            if interrupted:
                raise KeyboardInterrupt
            if errors:
                raise errors[min(errors)]
            if report.unprocessed and not token.triggered:
                raise WorkerPoolBrokenError(
                    f"the render pool closed with {len(report.unprocessed)} tile(s) unrun"
                )
        if interrupted and tracer is not None:
            tracer.recovery(action="cancel", reason=STOP_INTERRUPT)
        for index in sorted(errors):
            report.fail(index, errors[index])
        report.completed.sort()
        report.partial.sort()
        report.unprocessed.sort()
        report.worker_busy = [
            busy.get(worker, 0.0) for worker in range(max(self.workers, len(busy)))
        ]
        return report
