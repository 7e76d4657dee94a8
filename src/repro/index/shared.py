"""Publish a fitted kd-tree into shared memory; attach it elsewhere.

The process-pool tile executor needs every worker to refine against the
*same* fitted index without pickling the node graph per task (the tree
for a few million points is tens of MB, and a per-task copy would erase
the parallelism win). A :class:`~repro.index.kdtree.KDTree` already
lives in a structure-of-arrays layout (its ``arrays``, one array per
node field, indexed by the dense preorder ``node_id``).
:func:`publish_tree` copies those arrays into a single
:class:`multiprocessing.shared_memory` segment, and :func:`attach_tree`
makes a :class:`SharedKDTree` over views of it, with the node-building
routine the source tree used
(:func:`~repro.index.kdtree.nodes_from_arrays`). One publication feeds
N workers.

Fidelity guarantees (what makes cross-process results trustworthy):

* both trees are made by one routine from bit-identical arrays, so
  rectangles, moments and leaf points agree bit for bit, and so do
  bound evaluations;
* node identity (``node_id``), depths and the left-before-right
  topology are the same, so preorder walks — including the canonical
  τ re-decision path :func:`~repro.core.engine.exhausted_exact` — visit
  leaves in the same order and sum in the same order;
* leaf ``points``/``sq_norms``/``indices``/``weights`` are zero-copy
  views into the segment (the bulk of the memory); only the small
  per-node scalars are materialised as Python objects.

Lifecycle: the publishing side owns the segment — :meth:`SharedTreeHandle.close`
(also registered as a ``weakref.finalize``) unlinks it exactly once;
the render pool calls it once the published tree is gone. Attachers
map the segment read-only in spirit (nothing writes) and merely close
their mapping; an unlinked segment stays mapped in a worker until the
worker drops it. On Python 3.11 every attach implicitly
registers the segment with ``multiprocessing.resource_tracker``, which
would unlink it when the *first* worker exits (bpo-38119); the attach
path immediately unregisters to keep ownership with the publisher.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Any
import weakref

import numpy as np

from repro.errors import InvalidParameterError
from repro.index.kdtree import KDTree

if TYPE_CHECKING:
    from repro._types import FloatArray

__all__ = [
    "SharedKDTree",
    "SharedTreeHandle",
    "attach_tree",
    "pack_tree",
    "publish_tree",
]

#: Array alignment inside the segment; numpy float64 ops want 8, keep a
#: comfortable 16 so future SIMD-friendly consumers stay aligned too.
_ALIGN = 16


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def pack_tree(tree: KDTree) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """A kd-tree's own arrays (:attr:`KDTree.arrays`) plus a scalar manifest.

    The arrays are what :func:`publish_tree` copies into shared memory
    and what :class:`SharedKDTree` makes its nodes from, so
    ``attach_tree(publish_tree(t).meta)`` round-trips exactly.
    """
    if not isinstance(tree, KDTree):
        raise InvalidParameterError(
            f"only KDTree supports shared-memory publication, got {type(tree).__name__}"
        )
    scalars: dict[str, Any] = {
        "n_points": tree.n_points,
        "dims": tree.dims,
        "leaf_size": tree.leaf_size,
    }
    return tree.arrays, scalars


class SharedTreeHandle:
    """Owner of one published tree segment (publishing-process side).

    ``meta`` is a small picklable dict that travels to worker processes
    (with each job on the tree); :func:`attach_tree` turns it back into
    a :class:`SharedKDTree`. The handle unlinks the segment on
    :meth:`close` — exactly once, also via a ``weakref.finalize`` safety
    net, so an abandoned handle cannot leak the segment past interpreter
    exit.
    """

    def __init__(self, shm: shared_memory.SharedMemory, meta: dict[str, Any]) -> None:
        self._shm = shm
        self.meta = meta
        self._finalizer = weakref.finalize(self, _release_segment, shm)

    @property
    def name(self) -> str:
        """OS-level segment name (``meta["name"]``)."""
        return str(self.meta["name"])

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Unmap and unlink the segment. Idempotent."""
        self._finalizer()

    def __enter__(self) -> SharedTreeHandle:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"SharedTreeHandle(name={self.name!r}, {state})"


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    shm.close()
    try:
        shm.unlink()
    # lint: allow-silent-except -- unlink is idempotent by intent; the
    # segment being gone already IS the goal state.
    except FileNotFoundError:
        pass


def publish_tree(tree: KDTree) -> SharedTreeHandle:
    """Copy a tree's arrays (:func:`pack_tree`) into one shared-memory segment.

    Returns the owning :class:`SharedTreeHandle`; pass ``handle.meta``
    to worker processes and call :func:`attach_tree` there.
    """
    arrays, scalars = pack_tree(tree)
    manifest: list[tuple[str, str, tuple[int, ...], int]] = []
    offset = 0
    for name, array in arrays.items():
        offset = _aligned(offset)
        manifest.append((name, array.dtype.str, array.shape, offset))
        offset += array.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for (name, dtype, shape, start), array in zip(manifest, arrays.values()):
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=start)
        view[...] = array
        del view
    meta = {"name": shm.name, "manifest": manifest, "scalars": scalars}
    return SharedTreeHandle(shm, meta)


class SharedKDTree(KDTree):
    """A kd-tree over the arrays of a shared-memory segment.

    A :class:`~repro.index.kdtree.KDTree` whose :attr:`arrays` are
    read-only views into the segment, with nodes made by the same
    routine as the published tree's. ``points`` and ``weights`` are
    the leaf-ordered ``leaf_points`` and ``leaf_weights`` (dataset rows
    in ``arrays["leaf_indices"]``). Obtain instances via
    :func:`attach_tree`.
    """

    def __init__(self, meta: dict[str, Any], shm: shared_memory.SharedMemory) -> None:
        self._shm = shm
        scalars = meta["scalars"]
        self.n_points = int(scalars["n_points"])
        self.dims = int(scalars["dims"])
        self.leaf_size = int(scalars["leaf_size"])
        views = {
            name: np.ndarray(tuple(shape), dtype=dtype, buffer=shm.buf, offset=offset)
            for name, dtype, shape, offset in meta["manifest"]
        }
        self.points = views["leaf_points"]
        self.weights: FloatArray | None = views.get("leaf_weights")
        self._adopt(views)

    def close(self) -> None:
        """Unmap the segment (attacher side; never unlinks).

        Drops the node graph and every view first so nothing pins the
        buffer — callers must likewise have released any arrays they
        took from the tree, or the underlying ``memoryview`` raises
        :class:`BufferError`.
        """
        self.root = None  # type: ignore[assignment]
        self._nodes = []
        self.arrays = {}
        self.points = None  # type: ignore[assignment]
        self.weights = None
        self._shm.close()


def attach_tree(meta: dict[str, Any]) -> SharedKDTree:
    """Attach the segment described by ``meta`` and rebuild the tree.

    Call in the consuming process with the ``meta`` of a
    :class:`SharedTreeHandle`. The attach suppresses the implicit
    ``multiprocessing.resource_tracker`` registration: on Python < 3.13
    every attach re-registers the segment and the tracker of the first
    exiting process would unlink it under the publisher (bpo-38119) —
    and since forked workers share one tracker, a register/unregister
    pair per worker double-unregisters the same name. Skipping the
    registration outright keeps ownership with the publishing handle
    alone. The attach path runs single-threaded (a pool worker attaches
    on its first job on the tree, and runs one job at a time on its
    main thread), so the brief module-attribute swap cannot race.
    """
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        shm = shared_memory.SharedMemory(name=str(meta["name"]))
    finally:
        resource_tracker.register = original_register
    return SharedKDTree(meta, shm)
