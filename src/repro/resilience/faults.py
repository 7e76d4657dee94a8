"""Deterministic seeded fault injection (``REPRO_FAULTS=``).

Every degradation path in the resilience layer must be exercisable on
demand, or it is dead code that fails the first time reality tests it.
This module injects four fault kinds into the tile runner:

========================  ==================================================
``worker_crash``          The tile evaluation raises (transient) before any
                          work happens — exercises retry.
``slow_tile``             The tile sleeps ``slow_ms`` before evaluating —
                          exercises deadlines and latency accounting.
``nan_bounds``            The tile's returned envelopes are poisoned with
                          NaN — exercises the runner's output sanity check
                          (the poisoned copy is discarded and the tile
                          retried clean, so final images are unaffected).
``oom``                   An allocation-failure stand-in raises (transient,
                          reported as ``MemoryError``-like) — exercises the
                          same retry path under a different label.
``worker_kill``           **Process-level.** The worker process SIGKILLs
                          itself before evaluating — the parent observes a
                          real ``BrokenProcessPool`` and the supervised
                          executor must rebuild the pool and replay the
                          lost tiles.
``pool_break``            **Process-level.** The worker calls ``os._exit``
                          — an abrupt non-signal death that equally poisons
                          the pool; exercises the same supervision path
                          through a different kill mechanism.
``slow_response``         **Process-level.** The worker sleeps ``slow_ms``
                          before evaluating — exercises cross-process
                          deadline propagation through the cancel slot.
========================  ==================================================

The process-level kinds are executed *inside worker processes* by
:mod:`repro.visual.executors` (the in-process tile runner ignores
them); :meth:`FaultPlan.partition_process` splits a mixed plan into its
process-level and in-process halves so each executor injects only the
kinds it owns.

Injection is **deterministic**: each (kind, tile, attempt) triple rolls
its own ``numpy`` generator seeded from the plan seed, so a run with the
same plan injects exactly the same faults — CI chaos jobs are
reproducible, never flaky. Because faults are keyed on the *attempt*
number, a tile that crashed on attempt 1 is (with high probability) left
alone on attempt 2, and because tile evaluation is deterministic the
retried tile produces bit-identical values to a fault-free run.

Activation: programmatically (pass a :class:`FaultPlan` /
:class:`FaultInjector` to the renderer) or via the environment::

    REPRO_FAULTS="worker_crash:0.05,slow_tile:0.05,seed:7,slow_ms:20"

Injected faults and the runner's recovery actions are emitted as
``repro.obs`` trace events (kinds ``fault`` / ``recovery``).
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.resilience.retry import TransientTileError

if TYPE_CHECKING:
    from repro._types import FloatArray
    from repro.obs.trace import Tracer

__all__ = [
    "FAULT_WORKER_CRASH",
    "FAULT_SLOW_TILE",
    "FAULT_NAN_BOUNDS",
    "FAULT_OOM",
    "FAULT_WORKER_KILL",
    "FAULT_POOL_BREAK",
    "FAULT_SLOW_RESPONSE",
    "FAULT_KINDS",
    "PROCESS_FAULT_KINDS",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "fault_fires",
]

FAULT_WORKER_CRASH = "worker_crash"
FAULT_SLOW_TILE = "slow_tile"
FAULT_NAN_BOUNDS = "nan_bounds"
FAULT_OOM = "oom"
FAULT_WORKER_KILL = "worker_kill"
FAULT_POOL_BREAK = "pool_break"
FAULT_SLOW_RESPONSE = "slow_response"

#: Recognised kinds, with the stable integer each contributes to the
#: per-roll seed (appending new kinds must not renumber old ones).
FAULT_KINDS: Dict[str, int] = {
    FAULT_WORKER_CRASH: 1,
    FAULT_SLOW_TILE: 2,
    FAULT_NAN_BOUNDS: 3,
    FAULT_OOM: 4,
    FAULT_WORKER_KILL: 5,
    FAULT_POOL_BREAK: 6,
    FAULT_SLOW_RESPONSE: 7,
}

#: Kinds executed inside worker *processes* (real process death / delay)
#: rather than by the in-process tile runner's injector.
PROCESS_FAULT_KINDS = frozenset(
    {FAULT_WORKER_KILL, FAULT_POOL_BREAK, FAULT_SLOW_RESPONSE}
)


def fault_fires(seed: int, kind: str, tile: int, attempt: int, rate: float) -> bool:
    """Whether one deterministic fault roll fires.

    Pure function of ``(seed, kind, tile, attempt)`` — the same roll a
    :class:`FaultInjector` makes, exposed at module level so worker
    *processes* (which carry no injector object) reproduce the parent's
    plan bit-for-bit, and so tests/tools can predict exactly which
    tiles a given seed kills.
    """
    if rate <= 0.0:
        return False
    rng = np.random.default_rng([int(seed), FAULT_KINDS[kind], int(tile), int(attempt)])
    return bool(rng.random() < rate)

#: Environment variable holding the fault plan.
ENV_FAULTS = "REPRO_FAULTS"


class InjectedFault(TransientTileError):
    """A fault the injector raised on purpose (always transient)."""

    def __init__(self, kind: str, tile: int, attempt: int) -> None:
        super().__init__(
            f"injected fault {kind!r} on tile {tile} (attempt {attempt})"
        )
        self.kind = kind
        self.tile = tile
        self.attempt = attempt


class FaultPlan:
    """Which faults to inject, at what rates, under which seed.

    Parameters
    ----------
    rates:
        Mapping of fault kind to per-(tile, attempt) probability in
        ``[0, 1]``.
    seed:
        Base seed of the deterministic rolls.
    slow_ms:
        Sleep duration of ``slow_tile`` faults, in milliseconds.
    """

    __slots__ = ("rates", "seed", "slow_ms")

    def __init__(
        self,
        rates: Mapping[str, float],
        seed: int = 0,
        slow_ms: float = 50.0,
    ) -> None:
        clean: Dict[str, float] = {}
        for kind, rate in rates.items():
            if kind not in FAULT_KINDS:
                raise InvalidParameterError(
                    f"unknown fault kind {kind!r}; expected one of "
                    f"{sorted(FAULT_KINDS)}"
                )
            rate = float(rate)
            if not 0.0 <= rate <= 1.0:
                raise InvalidParameterError(
                    f"fault rate for {kind!r} must be in [0, 1], got {rate!r}"
                )
            if rate > 0.0:
                clean[kind] = rate
        self.rates = clean
        self.seed = int(seed)
        if not slow_ms >= 0.0:
            raise InvalidParameterError(
                f"slow_ms must be >= 0, got {slow_ms!r}"
            )
        self.slow_ms = float(slow_ms)

    @classmethod
    def parse(cls, spec: str) -> FaultPlan:
        """Parse ``"worker_crash:0.05,slow_tile:0.05[,seed:N][,slow_ms:X]"``."""
        rates: Dict[str, float] = {}
        seed = 0
        slow_ms = 50.0
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition(":")
            key = key.strip()
            if not sep:
                raise InvalidParameterError(
                    f"bad fault spec item {item!r}: expected 'kind:rate'"
                )
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "slow_ms":
                    slow_ms = float(value)
                else:
                    rates[key] = float(value)
            except ValueError as exc:
                raise InvalidParameterError(
                    f"bad fault spec item {item!r}: {exc}"
                ) from exc
        return cls(rates, seed=seed, slow_ms=slow_ms)

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
        """The plan from ``REPRO_FAULTS``, or ``None`` when unset/empty."""
        spec = (env if env is not None else os.environ).get(ENV_FAULTS, "")
        spec = spec.strip()
        if not spec:
            return None
        return cls.parse(spec)

    @property
    def empty(self) -> bool:
        """Whether no fault has a positive rate."""
        return not self.rates

    def partition_process(self) -> Tuple["FaultPlan", "FaultPlan"]:
        """Split into ``(process_plan, in_process_plan)`` halves.

        Process-level kinds (:data:`PROCESS_FAULT_KINDS`) are injected
        inside worker processes by the process tile executor; everything
        else belongs to the in-process runner's :class:`FaultInjector`. Both
        halves keep the seed and ``slow_ms``, so a kind fires for the
        same (tile, attempt) regardless of which runner rolls it.
        """
        process = {k: r for k, r in self.rates.items() if k in PROCESS_FAULT_KINDS}
        in_process = {
            k: r for k, r in self.rates.items() if k not in PROCESS_FAULT_KINDS
        }
        return (
            FaultPlan(process, seed=self.seed, slow_ms=self.slow_ms),
            FaultPlan(in_process, seed=self.seed, slow_ms=self.slow_ms),
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready description of the plan."""
        return {"rates": dict(self.rates), "seed": self.seed, "slow_ms": self.slow_ms}

    def __repr__(self) -> str:
        return f"FaultPlan({self.rates!r}, seed={self.seed}, slow_ms={self.slow_ms})"


class FaultInjector:
    """Executes a :class:`FaultPlan` against the tile runner's hooks.

    The runner calls :meth:`before` ahead of every tile attempt and
    :meth:`after` on the attempt's envelopes. Injection counts are
    tracked on :attr:`injected` (total) and per kind; fired faults are
    emitted on ``tracer`` when one is attached.

    Thread safety: rolls are pure functions of (seed, kind, tile,
    attempt) with a private generator per call, so concurrent workers
    need no locking; the counters use benign unlocked increments (they
    are advisory accounting, not control flow).
    """

    __slots__ = ("plan", "tracer", "injected", "by_kind")

    def __init__(self, plan: FaultPlan, tracer: Optional[Tracer] = None) -> None:
        self.plan = plan
        self.tracer = tracer
        self.injected = 0
        self.by_kind: Dict[str, int] = {}

    def _fires(self, kind: str, tile: int, attempt: int) -> bool:
        return fault_fires(
            self.plan.seed, kind, tile, attempt, self.plan.rates.get(kind, 0.0)
        )

    def _record(self, kind: str, tile: int, attempt: int, worker: int) -> None:
        self.injected += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if self.tracer is not None:
            self.tracer.fault(kind=kind, tile=tile, attempt=attempt, worker=worker)

    def before(self, tile: int, attempt: int, worker: int = 0) -> None:
        """Pre-evaluation faults: crash, OOM stand-in, slow tile."""
        if self._fires(FAULT_WORKER_CRASH, tile, attempt):
            self._record(FAULT_WORKER_CRASH, tile, attempt, worker)
            raise InjectedFault(FAULT_WORKER_CRASH, tile, attempt)
        if self._fires(FAULT_OOM, tile, attempt):
            self._record(FAULT_OOM, tile, attempt, worker)
            raise InjectedFault(FAULT_OOM, tile, attempt)
        if self._fires(FAULT_SLOW_TILE, tile, attempt):
            self._record(FAULT_SLOW_TILE, tile, attempt, worker)
            time.sleep(self.plan.slow_ms / 1000.0)

    def after(
        self,
        tile: int,
        attempt: int,
        lower: FloatArray,
        upper: FloatArray,
        worker: int = 0,
    ) -> Tuple[FloatArray, FloatArray]:
        """Post-evaluation faults: poison the envelopes with NaN.

        Returns (possibly replaced) envelope arrays; the originals are
        never mutated, so a retry recomputes clean values and the final
        image stays bit-identical to a fault-free run.
        """
        if self._fires(FAULT_NAN_BOUNDS, tile, attempt):
            self._record(FAULT_NAN_BOUNDS, tile, attempt, worker)
            lower = np.array(lower, dtype=np.float64, copy=True)
            upper = np.array(upper, dtype=np.float64, copy=True)
            lower[0] = np.nan
            upper[0] = np.nan
        return lower, upper

    def __repr__(self) -> str:
        return f"FaultInjector({self.plan!r}, injected={self.injected})"
