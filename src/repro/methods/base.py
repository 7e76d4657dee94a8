"""Method abstraction: fit points once, answer εKDV / τKDV queries.

A :class:`Method` mirrors how the paper structures its comparison — an
offline stage (index build / pre-sampling) followed by an online stage
(per-pixel queries). Capability flags encode Table 6; asking a method
for an operation or kernel it does not support raises immediately rather
than silently falling back.

With ``REPRO_CHECK_INVARIANTS=1`` (see :mod:`repro.contracts`) every
εKDV batch of a method with :attr:`Method.deterministic_guarantee` is
additionally cross-checked against the brute-force exact density — the
end-to-end ``(1 ± eps)`` contract — at an extra O(n·m) cost per batch.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.contracts.runtime import check_eps_agreement, invariants_enabled
from repro.core.batch_engine import BatchRefinementEngine
from repro.obs.runtime import current_tracer
from repro.core.engine import RefinementEngine
from repro.core.kernels import Kernel, get_kernel
from repro.errors import (
    NotFittedError,
    UnsupportedKernelError,
    UnsupportedOperationError,
)
from repro.index.kdtree import DEFAULT_LEAF_SIZE, KDTree
from repro.utils.validation import check_points, check_positive

if TYPE_CHECKING:
    from repro._types import BoolArray, FloatArray, KernelLike, PointLike
    from repro.core.engine import BoundTrace, QueryStats
    from repro.index.balltree import BallTree

__all__ = ["Method", "IndexedMethod"]


class Method(ABC):
    """A KDV solution method (offline fit + online queries).

    Class attributes
    ----------------
    name:
        Registry name.
    supports_eps / supports_tau:
        Which operations the method implements (the paper's Table 6).
    supported_kernels:
        Frozenset of kernel names, or ``None`` for all kernels.
    deterministic_guarantee:
        ``False`` only for the sampling camp (Z-order).
    """

    name: str = "abstract"
    supports_eps: bool = True
    supports_tau: bool = True
    supported_kernels: frozenset[str] | None = None
    deterministic_guarantee: bool = True

    def __init__(self) -> None:
        self.points: FloatArray | None = None
        self.kernel: Kernel | None = None
        self.gamma: float | None = None
        self.weight: float | None = None
        self.point_weights: FloatArray | None = None

    # -- lifecycle ---------------------------------------------------------

    def fit(
        self,
        points: PointLike,
        kernel: KernelLike = "gaussian",
        gamma: float = 1.0,
        weight: float = 1.0,
        point_weights: PointLike | None = None,
    ) -> Method:
        """Run the offline stage on a dataset.

        Parameters
        ----------
        points:
            Data points of shape ``(n, d)``.
        kernel:
            Kernel name or instance.
        gamma:
            Positive kernel bandwidth parameter.
        weight:
            Global per-point weight ``w``.
        point_weights:
            Optional non-negative per-point weights ``w_i`` (the
            re-weighted-sample form of the paper's footnote 5). Methods
            that cannot honour them raise
            :class:`~repro.errors.UnsupportedOperationError`.

        Returns
        -------
        Method
            ``self``, for chaining.
        """
        resolved = get_kernel(kernel)
        if self.supported_kernels is not None and resolved.name not in self.supported_kernels:
            supported = ", ".join(sorted(self.supported_kernels))
            raise UnsupportedKernelError(
                f"method {self.name!r} supports only [{supported}] kernels, "
                f"got {resolved.name!r}"
            )
        self.points = check_points(points)
        self.kernel = resolved
        self.gamma = check_positive(gamma, "gamma")
        self.weight = check_positive(weight, "weight")
        if point_weights is not None:
            self.point_weights = np.asarray(point_weights, dtype=np.float64).reshape(-1)
        else:
            self.point_weights = None
        self._fit_impl()
        return self

    @abstractmethod
    def _fit_impl(self) -> None:
        """Method-specific offline work (index build, sampling, ...)."""

    def _require_fitted(self) -> None:
        if self.points is None:
            raise NotFittedError(f"method {self.name!r} must be fitted before querying")

    def _require(self, operation: str) -> None:
        self._require_fitted()
        supported = self.supports_eps if operation == "eps" else self.supports_tau
        if not supported:
            raise UnsupportedOperationError(
                f"method {self.name!r} does not support {operation}KDV "
                "(see the paper's Table 6)"
            )

    # -- online queries ------------------------------------------------------

    def batch_eps(self, queries: PointLike, eps: float, *, atol: float = 0.0) -> FloatArray:
        """εKDV over many query points; returns densities ``(m,)``."""
        self._require("eps")
        queries = check_points(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
        tracer = current_tracer()
        if tracer is not None:
            with tracer.method_scope(self.name):
                out = self._batch_eps_impl(queries, eps, atol)
        else:
            out = self._batch_eps_impl(queries, eps, atol)
        if invariants_enabled() and self.deterministic_guarantee:
            self._check_eps_agreement(queries, out, eps, atol)
        return out

    def batch_tau(self, queries: PointLike, tau: float) -> BoolArray:
        """τKDV over many query points; returns booleans ``(m,)``."""
        self._require("tau")
        queries = check_points(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
        tracer = current_tracer()
        if tracer is not None:
            with tracer.method_scope(self.name):
                return self._batch_tau_impl(queries, tau)
        return self._batch_tau_impl(queries, tau)

    def query_eps(self, query: PointLike, eps: float, *, atol: float = 0.0) -> float:
        """εKDV for a single point."""
        return float(self.batch_eps(np.atleast_2d(query), eps, atol=atol)[0])

    def query_tau(self, query: PointLike, tau: float) -> bool:
        """τKDV for a single point."""
        return bool(self.batch_tau(np.atleast_2d(query), tau)[0])

    @abstractmethod
    def _batch_eps_impl(self, queries: FloatArray, eps: float, atol: float) -> FloatArray:
        """Answer validated εKDV batches."""

    @abstractmethod
    def _batch_tau_impl(self, queries: FloatArray, tau: float) -> BoolArray:
        """Answer validated τKDV batches."""

    def _check_eps_agreement(
        self, queries: FloatArray, returned: FloatArray, eps: float, atol: float
    ) -> None:
        """Cross-check a batch answer against the exact density.

        Only runs under :func:`repro.contracts.invariants_enabled` for
        methods advertising a deterministic guarantee — it costs a full
        O(n·m) brute-force scan per batch.
        """
        from repro.core.exact import exact_density

        assert self.points is not None and self.kernel is not None
        assert self.gamma is not None and self.weight is not None
        exact = np.atleast_1d(
            exact_density(
                self.points,
                queries,
                kernel=self.kernel,
                gamma=self.gamma,
                weight=self.weight,
                point_weights=self.point_weights,
            )
        )
        for index in range(queries.shape[0]):
            check_eps_agreement(
                float(returned[index]),
                float(exact[index]),
                eps,
                atol,
                method=self.name,
                query=queries[index].tolist(),
            )

    def __repr__(self) -> str:
        fitted = "fitted" if self.points is not None else "unfitted"
        return f"{type(self).__name__}({fitted})"


class IndexedMethod(Method):
    """Shared implementation of the bound-based camp.

    Subclasses set :attr:`provider_name` to pick their bound functions;
    everything else — tree build, refinement loop, statistics — is
    identical across aKDE, tKDC, KARL and QUAD, matching the paper's
    "same framework, different bounds" experimental design.
    """

    provider_name: str = "baseline"

    def __init__(
        self,
        leaf_size: int = DEFAULT_LEAF_SIZE,
        ordering: str = "gap",
        index: str = "kd",
        engine: str = "scalar",
        backend: str | None = None,
    ) -> None:
        super().__init__()
        from repro.errors import InvalidParameterError

        if index not in ("kd", "ball"):
            raise InvalidParameterError(f"index must be 'kd' or 'ball', got {index!r}")
        if engine not in ("scalar", "batch"):
            raise InvalidParameterError(
                f"engine must be 'scalar' or 'batch', got {engine!r}"
            )
        self.leaf_size = leaf_size
        self.ordering = ordering
        self.index = index
        self.engine_mode = engine
        # Compute-backend selection for the batched engines (None defers
        # to REPRO_BACKEND / the numpy reference); the scalar engine is
        # backend-independent by design.
        self.backend = backend
        self.provider_options: dict[str, Any] = {}
        self.tree: KDTree | BallTree | None = None
        self.engine: RefinementEngine | None = None
        self.batch_engine: BatchRefinementEngine | None = None
        # Cached process-pool tile executors, keyed by (workers, backend).
        # Lazily built by process_executor() under the lock; invalidated
        # on refit since the worker processes hold a snapshot of the
        # fitted tree.
        self._process_executors: dict[tuple[int, str | None], Any] = {}
        self._executors_lock = threading.Lock()
        #: ``(method, workers, backend) -> pool or None`` of whoever
        #: lends this method a shared pool that publishes its tree (a
        #: served dataset; a ``None`` answer renders in-process);
        #: ``None`` means a pool of the method's own.
        self.pool_owner: Callable[[IndexedMethod, int, str | None], Any] | None = None

    def _fit_impl(self) -> None:
        from repro.core.bounds import make_bound_provider

        self.close_executors()
        self.pool_owner = None
        if self.index == "ball":
            from repro.index.balltree import BallTree

            self.tree = BallTree(
                self.points, leaf_size=self.leaf_size, weights=self.point_weights
            )
        else:
            self.tree = KDTree(
                self.points, leaf_size=self.leaf_size, weights=self.point_weights
            )
        provider = make_bound_provider(
            self.provider_name,
            self.kernel,
            self.gamma,
            self.weight,
            **self.provider_options,
        )
        self.engine = RefinementEngine(self.tree, provider, ordering=self.ordering)
        # The batched engine shares the scalar engine's stats object, so
        # ``method.stats`` is one unified work ledger regardless of which
        # refinement schedule answered a query.
        self.batch_engine = BatchRefinementEngine(
            self.tree,
            provider,
            ordering=self.ordering,
            stats=self.engine.stats,
            backend=self.backend,
        )

    @property
    def stats(self) -> QueryStats:
        """Engine counters (iterations, node/leaf evaluations)."""
        self._require_fitted()
        assert self.engine is not None
        return self.engine.stats

    def make_batch_engine(
        self,
        stats: QueryStats | None = None,
        backend: str | None = None,
    ) -> BatchRefinementEngine:
        """A fresh batched engine over this method's tree and bounds.

        Each call returns an independent engine accumulating into its
        own ``stats`` (or the one given) — the building block for
        tile-parallel rendering, where every worker refines with a
        private engine and the owner merges the per-worker stats.
        ``backend`` overrides this method's compute backend for the new
        engine (``None`` inherits it).
        """
        self._require_fitted()
        engine = self.engine
        assert engine is not None
        return BatchRefinementEngine(
            engine.tree,
            engine.provider,
            ordering=self.ordering,
            stats=stats,
            backend=self.backend if backend is None else backend,
        )

    def process_executor(self, workers: int, backend: str | None = None) -> Any:
        """The process-pool tile executor this fitted method renders on.

        The :attr:`pool_owner`'s answer when one is set: its shared pool
        (whose workers attach this method's tree with the dataset's
        others), or ``None`` once it no longer publishes this method,
        and the render runs in-process. Otherwise a cached
        :class:`~repro.visual.executors.ProcessTileExecutor` of the
        method's own, whose workers attach the fitted tree from shared
        memory — one publication feeds every render until the method is
        refitted or :meth:`close_executors` runs. Keyed by ``(workers,
        backend)`` so a renderer can mix configurations without
        thrashing pools, and built under a lock, so concurrent first
        renders share one pool.
        """
        self._require_fitted()
        owner = self.pool_owner
        if owner is not None:
            return owner(self, int(workers), backend)
        key = (int(workers), backend if backend is not None else self.backend)
        with self._executors_lock:
            pool = self._process_executors.get(key)
            if pool is None or pool.closed:
                from repro.visual.executors import ProcessTileExecutor

                pool = ProcessTileExecutor(self, workers=key[0], backend=key[1])
                self._process_executors[key] = pool
            return pool

    def executor_health(self) -> list[dict[str, Any]]:
        """Liveness snapshots of the cached process pools (for ``/stats``).

        One dict per cached :class:`ProcessTileExecutor` — worker count,
        break/rebuild counters, supervisor state — so the tile service
        can surface pool supervision without reaching into executor
        internals. Empty when no process pool has been built.
        """
        with self._executors_lock:
            pools = list(self._process_executors.values())
        return [pool.health() for pool in pools]

    def close_executors(self) -> None:
        """Shut down cached process pools and free their shared memory.

        Idempotent; called automatically on refit. Anyone embedding a
        long-lived method (the serve registry) must call this — or rely
        on the executors' own finalizers — before dropping the method.
        """
        with self._executors_lock:
            executors, self._process_executors = self._process_executors, {}
        for pool in executors.values():
            pool.close()

    def _batch_eps_impl(self, queries: FloatArray, eps: float, atol: float) -> FloatArray:
        if self.engine_mode == "batch":
            batch_engine = self.batch_engine
            assert batch_engine is not None
            return batch_engine.query_eps_batch(queries, eps, atol=atol)
        engine = self.engine
        assert engine is not None
        out = np.empty(queries.shape[0], dtype=np.float64)
        for index in range(queries.shape[0]):
            out[index] = engine.query_eps(queries[index], eps, atol=atol)
        return out

    def _batch_tau_impl(self, queries: FloatArray, tau: float) -> BoolArray:
        if self.engine_mode == "batch":
            batch_engine = self.batch_engine
            assert batch_engine is not None
            return batch_engine.query_tau_batch(queries, tau)
        engine = self.engine
        assert engine is not None
        out = np.empty(queries.shape[0], dtype=bool)
        for index in range(queries.shape[0]):
            out[index] = engine.query_tau(queries[index], tau)
        return out

    def query_eps_traced(
        self, query: PointLike, eps: float, *, atol: float = 0.0
    ) -> tuple[float, BoundTrace]:
        """εKDV for one point, returning ``(value, BoundTrace)``.

        Instrumentation for the tightness case study (Figure 18).
        """
        from repro.core.engine import BoundTrace

        self._require("eps")
        assert self.engine is not None
        trace = BoundTrace()
        value = self.engine.query_eps(
            np.asarray(query, dtype=np.float64), eps, atol=atol, trace=trace
        )
        return value, trace
