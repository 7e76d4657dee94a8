"""Canonical ε/τ stopping rules shared by both refinement engines.

Both :class:`~repro.core.engine.RefinementEngine` (scalar) and
:class:`~repro.core.batch_engine.BatchRefinementEngine` (batched
frontier) must answer every query with *identical* semantics — only the
refinement schedule may differ. This module is the single definition of

* when refinement may stop, given a pixel's global ``[LB, UB]``
  interval, and
* how the final interval is classified (the εKDV midpoint is computed by
  the engines; the τKDV hot/cold decision lives here).

τKDV canonical semantics
------------------------
A pixel is **hot** iff ``F_P(q) >= tau``. With bounds, the decision is
certain as soon as ``LB >= tau`` (hot) or ``UB < tau`` (cold). Note the
*strict* inequality on the cold side: when ``UB == tau`` the true
density may still equal ``tau`` exactly — which is hot — so stopping on
``UB <= tau`` and classifying with ``LB >= tau`` could declare a pixel
cold that the scalar path (or a different refinement order) declares
hot. Refinement therefore continues on ``UB == tau`` until either the
lower bound catches up or the frontier drains, at which point
``LB == UB`` equals the exact leaf sum and ``LB >= tau`` is exactly the
canonical ``F >= tau`` test.

εKDV rules
----------
Refinement stops when ``UB + offset <= (1 + eps) * (LB + offset)`` (the
paper's relative test; the midpoint then satisfies the ``(1 ± eps)``
contract) or when ``UB - LB <= atol`` (the optional absolute floor for
all-zero regions).

The ``*_rule`` helpers name which rule fired — the observability layer
(:mod:`repro.obs`) records these names in trace events, so the naming is
part of the public event schema documented in ``docs/observability.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro._types import BoolArray, FloatArray

__all__ = [
    "RULE_EPS_RELATIVE",
    "RULE_EPS_ATOL",
    "RULE_TAU_HOT",
    "RULE_TAU_COLD",
    "RULE_EXHAUSTED",
    "RULE_CANCELLED",
    "eps_should_stop",
    "eps_stop_mask",
    "eps_stop_rule",
    "tau_should_stop",
    "tau_stop_mask",
    "tau_is_hot",
    "tau_hot_mask",
    "tau_stop_rule",
    "TAU_TIE_GUARD",
    "tau_decision_is_tight",
    "tau_tight_mask",
    "tau_settled_mask",
]

#: The relative ``(1 ± eps)`` test fired.
RULE_EPS_RELATIVE = "eps-relative"
#: The absolute ``ub - lb <= atol`` floor fired.
RULE_EPS_ATOL = "eps-atol"
#: ``LB >= tau`` — the pixel is certainly hot.
RULE_TAU_HOT = "tau-hot"
#: ``UB < tau`` — the pixel is certainly cold.
RULE_TAU_COLD = "tau-cold"
#: The frontier drained before any test fired (fully refined).
RULE_EXHAUSTED = "exhausted"
#: Refinement was cut short by a cooperative
#: :class:`~repro.resilience.budget.CancellationToken` (deadline /
#: budget / explicit cancel); the final interval is a valid but
#: not-fully-tightened enclosure.
RULE_CANCELLED = "cancelled"


# -- eps ------------------------------------------------------------------


def eps_should_stop(
    lb: float, ub: float, one_plus_eps: float, offset: float, atol: float
) -> bool:
    """Whether a scalar εKDV query may stop on interval ``[lb, ub]``."""
    return ub + offset <= one_plus_eps * (lb + offset) or ub - lb <= atol


def eps_stop_mask(
    lb: FloatArray, ub: FloatArray, one_plus_eps: float, offset: float, atol: float
) -> BoolArray:
    """Row-wise :func:`eps_should_stop` over equal-length bound vectors."""
    result: BoolArray = (ub + offset <= one_plus_eps * (lb + offset)) | (ub - lb <= atol)
    return result


def eps_stop_rule(
    lb: float, ub: float, one_plus_eps: float, offset: float, atol: float
) -> str:
    """Name the εKDV rule satisfied by a final interval (trace label)."""
    if ub + offset <= one_plus_eps * (lb + offset):
        return RULE_EPS_RELATIVE
    if ub - lb <= atol:
        return RULE_EPS_ATOL
    return RULE_EXHAUSTED


# -- tau ------------------------------------------------------------------


def tau_should_stop(lb: float, ub: float, tau: float) -> bool:
    """Whether a scalar τKDV query may stop on interval ``[lb, ub]``.

    Stops only once the decision is certain: ``lb >= tau`` (hot) or
    ``ub < tau`` (cold, strict — see the module docstring for why
    ``ub == tau`` must keep refining).
    """
    return lb >= tau or ub < tau


def tau_stop_mask(lb: FloatArray, ub: FloatArray, tau: float) -> BoolArray:
    """Row-wise :func:`tau_should_stop` over equal-length bound vectors."""
    result: BoolArray = (lb >= tau) | (ub < tau)
    return result


def tau_is_hot(lb: float, tau: float) -> bool:
    """Canonical τKDV classification of a stopped/drained interval.

    After :func:`tau_should_stop` fired (or the frontier drained, making
    ``lb == ub`` the exact density), ``lb >= tau`` is exactly the
    canonical ``F_P(q) >= tau`` decision.
    """
    return lb >= tau


def tau_hot_mask(lb: FloatArray, tau: float) -> BoolArray:
    """Row-wise :func:`tau_is_hot`."""
    result: BoolArray = lb >= tau
    return result


def tau_stop_rule(lb: float, ub: float, tau: float) -> str:
    """Name the τKDV rule satisfied by a final interval (trace label)."""
    if lb >= tau:
        return RULE_TAU_HOT
    if ub < tau:
        return RULE_TAU_COLD
    return RULE_EXHAUSTED


#: Relative margin below which a τ decision counts as a *tie*: within
#: this distance of ``tau`` the certain-stop that fired reflects one
#: schedule's rounding, not the mathematics, so both engines re-decide
#: from the canonical fully-refined sum
#: (:func:`repro.core.engine.exhausted_exact`). The guard must dominate
#: the engines' accumulation noise (Kahan-compensated sums of
#: direct-form kernel values, a few ulp ≈ 1e-15 relative) with a wide
#: safety factor, while staying far below any τ spacing that occurs in
#: real renders — boundary-tight pixels are the rare case, so the extra
#: exact pass they trigger is cold-path.
TAU_TIE_GUARD = 1e-9


def tau_decision_is_tight(lb: float, ub: float, tau: float) -> bool:
    """Whether a final τ interval decided within the tie guard of ``tau``.

    For a hot stop the margin is ``lb - tau``; for a cold stop it is
    ``tau - ub``. A tight (or inverted, i.e. undecided) margin means the
    caller should re-decide from the canonical exhausted sum.
    """
    scale = max(abs(tau), abs(lb), abs(ub), 1e-300)
    margin = lb - tau if lb >= tau else tau - ub
    return margin <= TAU_TIE_GUARD * scale


def tau_tight_mask(lb: FloatArray, ub: FloatArray, tau: float) -> BoolArray:
    """Row-wise :func:`tau_decision_is_tight`."""
    scale = np.maximum(np.maximum(np.abs(lb), np.abs(ub)), max(abs(tau), 1e-300))
    margin = np.where(lb >= tau, lb - tau, tau - ub)
    result: BoolArray = margin <= TAU_TIE_GUARD * scale
    return result


def tau_settled_mask(lb: FloatArray, ub: FloatArray, tau: float) -> BoolArray:
    """Rows an enclosing envelope decides under every refinement schedule.

    A certain decision whose margin clears :data:`TAU_TIE_GUARD` is the
    canonical ``F >= tau`` whatever schedule produced the envelope, so
    such a pixel needs no refinement. A tight margin, or an interval
    that rounding turned inside-out (intersecting two envelopes can),
    leaves the pixel open.
    """
    result: BoolArray = (
        tau_stop_mask(lb, ub, tau) & ~tau_tight_mask(lb, ub, tau) & (lb <= ub)
    )
    return result
