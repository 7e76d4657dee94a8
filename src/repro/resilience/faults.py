"""Deterministic seeded fault injection (``REPRO_FAULTS=``).

Every degradation path of the process pool must be exercisable on
demand, or it is dead code that fails the first time reality tests it.
This module plans three fault kinds, each executed *inside* a worker
process of :class:`~repro.visual.executors.ProcessTileExecutor` before
the worker refines its tile:

========================  ==================================================
``worker_kill``           The worker process SIGKILLs itself — the parent
                          observes a real ``BrokenProcessPool`` and the
                          supervised executor must rebuild the pool and
                          replay the lost tiles.
``pool_break``            The worker calls ``os._exit`` — an abrupt
                          non-signal death that equally poisons the pool;
                          exercises the same supervision path through a
                          different kill mechanism.
``slow_response``         The worker sleeps ``slow_ms`` — exercises
                          cross-process deadline propagation through the
                          cancel slot.
========================  ==================================================

An in-process render has no worker to kill, so it ignores the plan. A
tile that *raises*, or returns a non-finite envelope, needs no injected
kind: both executors fail it under one rule (see
:mod:`repro.resilience.runner`).

Injection is **deterministic**: each (kind, tile, attempt) triple rolls
its own ``numpy`` generator seeded from the plan seed, so a run with the
same plan injects exactly the same faults — CI chaos jobs are
reproducible, never flaky. Because faults are keyed on the *attempt*
number, a tile whose worker was killed on attempt 1 is (with high
probability) left alone on the replay, and because tile evaluation is
deterministic the replayed tile produces bit-identical values to a
fault-free run.

Activation: programmatically (pass a :class:`FaultPlan` or its spec
string as ``RenderOptions(faults=...)``) or via the environment::

    REPRO_FAULTS="worker_kill:0.05,slow_response:0.05,seed:7,slow_ms:20"
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional

import numpy as np

from repro.errors import InvalidParameterError

__all__ = [
    "FAULT_WORKER_KILL",
    "FAULT_POOL_BREAK",
    "FAULT_SLOW_RESPONSE",
    "FAULT_KINDS",
    "FaultPlan",
    "fault_fires",
]

FAULT_WORKER_KILL = "worker_kill"
FAULT_POOL_BREAK = "pool_break"
FAULT_SLOW_RESPONSE = "slow_response"

#: Recognised kinds, with the stable integer each contributes to the
#: per-roll seed (adding or removing kinds must not renumber the rest,
#: so a plan fires on the same tiles across versions).
FAULT_KINDS: Dict[str, int] = {
    FAULT_WORKER_KILL: 5,
    FAULT_POOL_BREAK: 6,
    FAULT_SLOW_RESPONSE: 7,
}


def fault_fires(seed: int, kind: str, tile: int, attempt: int, rate: float) -> bool:
    """Whether one deterministic fault roll fires.

    Pure function of ``(seed, kind, tile, attempt)``, so worker
    processes reproduce the parent's plan bit-for-bit, and tests and
    tools can predict exactly which tiles a given seed kills.
    """
    if rate <= 0.0:
        return False
    rng = np.random.default_rng([int(seed), FAULT_KINDS[kind], int(tile), int(attempt)])
    return bool(rng.random() < rate)

#: Environment variable holding the fault plan.
ENV_FAULTS = "REPRO_FAULTS"


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
        Sleep duration of ``slow_response`` faults, in milliseconds.
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
        """Parse ``"worker_kill:0.05,slow_response:0.05[,seed:N][,slow_ms:X]"``."""
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

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready description of the plan."""
        return {"rates": dict(self.rates), "seed": self.seed, "slow_ms": self.slow_ms}

    def __repr__(self) -> str:
        return f"FaultPlan({self.rates!r}, seed={self.seed}, slow_ms={self.slow_ms})"
