"""Cross-process cancellation plumbing for the process-pool executor.

A :class:`~repro.resilience.budget.CancellationToken` is an in-process
object — worker processes cannot see its latch. This module bridges it
over shared memory:

* the parent allocates a :class:`CancelSlots` array (one byte per
  concurrent render) alongside the pool and hands it to every worker
  through the pool initializer — multiprocessing sync/shared objects
  only cross the process boundary by inheritance, never by per-task
  pickling, which is why the slots exist for the pool's lifetime and
  renders merely *claim* an index;
* each render claims a slot, and the render's own wait loop
  (:meth:`ProcessTileExecutor.run <repro.visual.executors.ProcessTileExecutor.run>`)
  copies the parent token into it: whatever trips the token — a
  wall-clock deadline, a spent kernel budget, a programmatic
  ``cancel()`` — becomes a nonzero byte within one poll of that loop
  (20 ms), and a Ctrl-C sets the byte at once;
* workers wrap the slot in a :class:`SlotCancellationToken`, which the
  refinement engines poll exactly like any other token, so a cancelled
  tile stops at the next frontier pop and returns its best-so-far
  ``(LB, UB)`` envelopes — valid, just looser.

The worker-side reason is always :data:`~repro.resilience.budget.STOP_CANCELLED`
(one byte carries no reason string); the parent reports the *real*
reason from its own token when assembling the degraded result.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro.errors import InvalidParameterError
from repro.resilience.budget import STOP_CANCELLED, CancellationToken

if TYPE_CHECKING:
    import multiprocessing.context

__all__ = ["CancelSlots", "SlotCancellationToken"]

#: Concurrent renders one pool supports; claims beyond this block on a
#: previous render releasing its slot (bounded, so no silent failure).
DEFAULT_SLOT_CAPACITY = 64


class CancelSlots:
    """A lock-free byte array of cancellation flags, one per render.

    Created in the parent with the pool's multiprocessing context and
    inherited by workers via the pool initializer. A zero byte means
    "keep going"; anything else means "stop". Byte stores are atomic on
    every platform CPython supports, so no lock guards the hot reads.
    """

    def __init__(
        self,
        ctx: multiprocessing.context.BaseContext,
        capacity: int = DEFAULT_SLOT_CAPACITY,
    ) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        self.array = ctx.Array("b", capacity, lock=False)
        self._capacity = capacity
        self._free = list(range(capacity - 1, -1, -1))
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)

    @property
    def capacity(self) -> int:
        return self._capacity

    def claim(self, timeout: Optional[float] = None) -> int:
        """Reserve a cleared slot for one render; blocks when exhausted."""
        with self._available:
            while not self._free:
                if not self._available.wait(timeout=timeout):
                    raise InvalidParameterError(
                        f"all {self._capacity} cancellation slots are claimed; "
                        "a previous render did not release its slot"
                    )
            slot = self._free.pop()
        self.array[slot] = 0
        return slot

    def release(self, slot: int) -> None:
        """Return a slot to the pool (clears it for the next claimant)."""
        self.array[slot] = 0
        with self._available:
            self._free.append(slot)
            self._available.notify()

    def set(self, slot: int) -> None:
        """Trip a slot (visible to every attached process)."""
        self.array[slot] = 1


class SlotCancellationToken(CancellationToken):
    """Worker-side token that polls a :class:`CancelSlots` byte.

    Behaves exactly like a plain token for the engines (latching,
    ``charge`` accounting for the worker's own stats) but additionally
    trips as soon as the parent sets the slot. Budget limits stay
    parent-enforced — the parent's run loop is the single authority, so
    worker and parent cannot disagree about *whether* to stop, only
    observe it a poll apart.
    """

    __slots__ = ("_slot_array", "_slot")

    def __init__(self, slot_array: object, slot: int) -> None:
        super().__init__(budget=None)
        self._slot_array = slot_array
        self._slot = int(slot)

    def stop_reason(self, memory_bytes: int = 0) -> Optional[str]:
        if not self._cancelled and self._slot_array[self._slot] != 0:
            self.cancel(STOP_CANCELLED)
        return super().stop_reason(memory_bytes)

