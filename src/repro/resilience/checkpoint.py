"""Per-tile checkpoint/resume: the completed-tile ledger.

A :class:`TileLedger` records, for one tiled render, which tiles have
*fully resolved* and the per-pixel ``(LB, UB)`` envelopes of the whole
grid so far. A killed render saves the ledger (``.npz``); a later run
passes ``resume_from=`` and only recomputes tiles the ledger does not
mark completed.

The resume contract is **bit-identity**: a tile is marked completed
only when every one of its pixels reached its stopping rule, which (for
the deterministic batched refinement schedule) happens exactly when the
tile's refinement loop terminated naturally — so the stored envelopes
are the same bits an uninterrupted run would have produced, and the
resumed image equals the uninterrupted image bit for bit.

Safety: the ledger embeds a JSON *signature* of everything that shapes
tile values (dataset fingerprint, kernel, bandwidth, grid geometry,
operation and its parameters). Loading a ledger whose signature differs
from the resuming render raises
:class:`~repro.errors.CheckpointError` — splicing pixels from a
different render into an image must be impossible, not merely unlikely.
Saves are atomic (write to a temporary file, then ``os.replace``) so a
kill during save leaves either the old checkpoint or the new one, never
a torn file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Set, Union

import numpy as np

from repro._types import BoolArray, FloatArray
from repro.errors import CheckpointError, InvalidParameterError

__all__ = ["TileLedger"]

#: Format marker stored inside every ledger file.
_FORMAT = "repro-tile-ledger-v1"


class TileLedger:
    """Completed-tile ledger for one tiled render.

    Parameters
    ----------
    signature:
        JSON-serialisable dict identifying the render (see module
        docstring). Compared exactly on resume.
    lower / upper:
        Flat per-pixel envelope arrays (row-major, full grid). Only the
        slices of completed tiles are meaningful on resume.
    completed:
        Boolean array, one flag per tile (tile order is the grid's
        row-major tile order, which is deterministic).
    """

    __slots__ = ("signature", "lower", "upper", "completed")

    def __init__(
        self,
        signature: Dict[str, Any],
        lower: FloatArray,
        upper: FloatArray,
        completed: BoolArray,
    ) -> None:
        self.signature = dict(signature)
        self.lower = np.asarray(lower, dtype=np.float64)
        self.upper = np.asarray(upper, dtype=np.float64)
        self.completed = np.asarray(completed, dtype=bool)
        if self.lower.shape != self.upper.shape:
            raise InvalidParameterError(
                "ledger lower/upper envelope shapes differ: "
                f"{self.lower.shape} vs {self.upper.shape}"
            )

    @classmethod
    def new(
        cls,
        signature: Dict[str, Any],
        n_pixels: int,
        n_tiles: int,
    ) -> TileLedger:
        """An empty ledger: vacuous envelopes, no tile completed."""
        return cls(
            signature,
            np.zeros(int(n_pixels), dtype=np.float64),
            np.full(int(n_pixels), np.inf, dtype=np.float64),
            np.zeros(int(n_tiles), dtype=bool),
        )

    # -- persistence -------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Atomically write the ledger to ``path`` (npz format)."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as handle:
                np.savez(
                    handle,
                    format=np.array(_FORMAT),
                    signature=np.array(
                        json.dumps(self.signature, sort_keys=True)
                    ),
                    lower=self.lower,
                    upper=self.upper,
                    completed=self.completed,
                )
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # a failed save leaves no debris behind
                tmp.unlink()

    @classmethod
    def load(cls, path: Union[str, Path]) -> TileLedger:
        """Read a ledger; :class:`CheckpointError` if unusable."""
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                if str(data["format"]) != _FORMAT:
                    raise CheckpointError(
                        f"{path}: unknown checkpoint format "
                        f"{str(data['format'])!r} (expected {_FORMAT!r})"
                    )
                signature = json.loads(str(data["signature"]))
                return cls(
                    signature,
                    data["lower"],
                    data["upper"],
                    data["completed"],
                )
        except CheckpointError:
            raise
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"{path}: unreadable or corrupt checkpoint ({exc})"
            ) from exc

    def require_signature(self, expected: Dict[str, Any]) -> None:
        """Refuse to resume a render the ledger does not belong to."""
        if self.signature != dict(expected):
            ours = json.dumps(self.signature, sort_keys=True)
            theirs = json.dumps(dict(expected), sort_keys=True)
            raise CheckpointError(
                "checkpoint signature mismatch — refusing to resume.\n"
                f"  checkpoint: {ours}\n"
                f"  render:     {theirs}"
            )

    # -- bookkeeping -------------------------------------------------------

    def completed_tiles(self) -> Set[int]:
        """Indices of tiles already resolved (the resume skip set)."""
        return set(int(i) for i in np.flatnonzero(self.completed))

    def __repr__(self) -> str:
        done = int(self.completed.sum())
        return (
            f"TileLedger(tiles={self.completed.size}, completed={done}, "
            f"pixels={self.lower.size})"
        )
