"""Method registry and the machine-readable version of Table 6."""

from __future__ import annotations

import inspect
from typing import Any

from repro.errors import UnknownNameError
from repro.methods.akde import AKDEMethod
from repro.methods.exact_method import ExactMethod
from repro.methods.karl import KARLMethod
from repro.methods.quad import QUADMethod
from repro.methods.scikit_like import ScikitLikeMethod
from repro.methods.tkdc import TKDCMethod
from repro.methods.base import Method
from repro.methods.zorder import ZOrderMethod

__all__ = [
    "METHOD_REGISTRY",
    "canonical_method_options",
    "create_method",
    "method_option_names",
    "available_methods",
    "capability_table",
]

#: Registry name -> method class (the paper's Table 6 column order).
METHOD_REGISTRY: dict[str, type[Method]] = {
    cls.name: cls
    for cls in (
        ExactMethod,
        ScikitLikeMethod,
        ZOrderMethod,
        AKDEMethod,
        TKDCMethod,
        KARLMethod,
        QUADMethod,
    )
}


def _lookup(name: str) -> type[Method]:
    try:
        return METHOD_REGISTRY[str(name).lower()]
    except KeyError:
        known = ", ".join(METHOD_REGISTRY)
        raise UnknownNameError(f"unknown method {name!r}; available: {known}") from None


def create_method(name: str, **kwargs: Any) -> Method:
    """Instantiate a method by registry name.

    Keyword arguments are forwarded to the method constructor (e.g.
    ``leaf_size`` for indexed methods, ``delta`` for Z-order). Options a
    method's constructor does not declare are silently dropped, so one
    option set can configure a heterogeneous sweep of methods — the
    pattern every experiment in Section 7 uses.
    """
    cls = _lookup(name)
    accepted = inspect.signature(cls.__init__).parameters
    applicable = {key: value for key, value in kwargs.items() if key in accepted}
    return cls(**applicable)


def canonical_method_options(
    name: str, options: dict[str, Any]
) -> tuple[tuple[str, str], ...]:
    """The constructor-applicable subset of ``options``, canonicalised.

    Applies the same keyword filter as :func:`create_method` (options
    the method's constructor does not declare are dropped), then renders
    each surviving value with ``repr`` and sorts by key — a stable,
    hashable form used by
    :meth:`~repro.visual.request.RenderRequest.fingerprint`, where an
    option that would not reach the constructor must not split the cache
    key.
    """
    cls = _lookup(name)
    accepted = inspect.signature(cls.__init__).parameters
    return tuple(
        sorted(
            (key, repr(value))
            for key, value in options.items()
            if key in accepted
        )
    )


def method_option_names() -> frozenset[str]:
    """Every keyword some method constructor in :data:`METHOD_REGISTRY` declares.

    An option outside this set reaches no method through
    :func:`create_method` — most likely a misspelling — so callers that
    store options for later (``DatasetRegistry.register``) reject it.
    """
    return frozenset(
        name
        for cls in METHOD_REGISTRY.values()
        for name in inspect.signature(cls.__init__).parameters
        if name != "self"
    )


def available_methods(
    *, operation: str | None = None, kernel: str | None = None
) -> list[str]:
    """Registry names, optionally filtered by capability.

    Parameters
    ----------
    operation:
        ``"eps"``, ``"tau"`` or ``None`` (no filter).
    kernel:
        Kernel name; filters out methods that cannot bound it.
    """
    names: list[str] = []
    for name, cls in METHOD_REGISTRY.items():
        if operation == "eps" and not cls.supports_eps:
            continue
        if operation == "tau" and not cls.supports_tau:
            continue
        if (
            kernel is not None
            and cls.supported_kernels is not None
            and str(kernel).lower() not in cls.supported_kernels
        ):
            continue
        names.append(name)
    return names


def capability_table() -> dict[str, dict[str, Any]]:
    """Table 6 as a dict: name -> {eps, tau, deterministic, kernels}."""
    table: dict[str, dict[str, Any]] = {}
    for name, cls in METHOD_REGISTRY.items():
        kernels = (
            "all" if cls.supported_kernels is None else sorted(cls.supported_kernels)
        )
        table[name] = {
            "eps": cls.supports_eps,
            "tau": cls.supports_tau,
            "deterministic": cls.deterministic_guarantee,
            "kernels": kernels,
        }
    return table
