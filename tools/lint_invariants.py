#!/usr/bin/env python
"""Project-specific AST linter for bound-soundness hazards.

Generic linters cannot know that this codebase's correctness hinges on
floating-point discipline (the ``LB <= F <= UB`` contract of the bound
machinery degrades silently, not loudly). This tool encodes the rules
that keep that contract auditable:

``float-eq``
    No ``==`` / ``!=`` against a float literal. Exact float comparison
    is almost always a hidden tolerance bug; the handful of intentional
    exact-sentinel comparisons carry an allowlist marker.
``unclipped-exp``
    Every ``np.exp`` argument must pass through ``np.minimum`` /
    ``np.maximum`` / ``np.clip`` (or carry a marker): unclipped
    ``exp(-x)`` underflows for large ``x`` and breaks warning-clean
    runs under ``-W error``.
``dtype-required``
    Array constructors (``np.array``, ``np.asarray``, ``np.empty``,
    ``np.zeros``, ``np.ones``, ``np.full``) inside ``core/`` and
    ``index/`` must pass ``dtype=`` explicitly — bound arithmetic must
    never silently run in float32 or object dtype.
``mutable-default``
    No mutable default argument values (list/dict/set literals or
    constructor calls).
``bounds-interface``
    Every ``BoundProvider`` subclass under ``core/bounds/`` must define
    ``name`` and implement ``node_bounds`` itself (no partially
    implemented providers reachable through the factory).
``missing-all``
    Every public module must declare ``__all__``.
``return-annotation``
    Every public function and public method must annotate its return
    type (the teeth behind the repository-wide typing pass).
``silent-except``
    No ``except`` handler whose body is only ``pass`` / ``...`` —
    a swallowed error is the same silent failure mode the contracts
    exist to prevent.
``legacy-render``
    No ``render_eps(`` / ``render_tau(`` calls inside ``serve/``. The
    tile service must go through the unified
    ``KDVRenderer.render(request)`` entrypoint — the cache keys are
    request fingerprints, so a render that bypasses the request object
    bypasses the cache-key discipline with it.
``bare-except``
    No ``except:`` without an exception type. A bare except catches
    ``KeyboardInterrupt`` and ``SystemExit``, which breaks the
    resilience layer's cooperative-cancellation contract (Ctrl-C must
    reach the tile runner, not die in a helper). Catch ``Exception``
    — or the precise type — instead; the rare deliberate case carries
    ``# lint: allow-bare-except``.
``backend-dispatch``
    No direct ``node_bounds_batch`` / ``node_bounds_stacked`` /
    ``leaf_exact_batch`` (or their ``checked_`` variants) calls outside
    ``core/backends/`` and ``core/bounds/``, and no direct
    ``kernel.evaluate(...)`` calls outside those plus ``core/exact.py``
    (the reference scan the bounds are validated against). Engine and renderer code must route
    batched evaluations through the engine's
    :class:`~repro.core.backends.base.ComputeBackend`, the one seam
    where invariant checking is selected and where the benchmark's
    traced run counts calls — a call that goes straight to the provider
    (or to the kernel itself, as the weighted-coreset evaluation paths
    could) escapes both. The deliberate scalar paths outside the seam
    carry ``# lint: allow-backend-dispatch``.
``shim-import``
    No ``repro.compat`` imports inside ``src/`` (outside the shim
    module itself). ``repro.compat`` exists for *external* callers
    migrating off the legacy surface; internal code importing it makes
    the deprecated names load-bearing and un-removable. The blessed
    exceptions (the package root's ``QuadKernelDensity`` re-export and
    the historical ``kernel_normaliser`` alias) carry
    ``# lint: allow-shim-import``.

False positives are suppressed with an inline marker on the same or the
preceding line::

    if extent == 0.0:  # lint: allow-float-eq -- exact sentinel, see docs

Usage::

    python tools/lint_invariants.py src/ [more paths...]

Exits 0 when clean, 1 when violations are found, 2 on usage errors.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

__all__ = ["Violation", "lint_file", "lint_paths", "main"]

#: Inline suppression marker, e.g. ``# lint: allow-float-eq``.
_MARKER_RE = re.compile(r"#\s*lint:\s*allow-([a-z-]+)")

#: numpy array constructors that must receive an explicit ``dtype=``.
_DTYPE_CONSTRUCTORS = frozenset(
    {"array", "asarray", "ascontiguousarray", "empty", "zeros", "ones", "full"}
)

#: Call names accepted as "clipping" an ``np.exp`` argument.
_CLIP_CALLS = frozenset({"minimum", "maximum", "clip", "min", "max"})

#: Subtrees under these packages require ``dtype-required``.
_DTYPE_SCOPED_PARTS = ("core", "index")


class Violation(NamedTuple):
    """One linter finding."""

    path: Path
    line: int
    rule: str
    message: str

    def format(self) -> str:
        """Render as ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _collect_markers(source: str) -> dict[int, set[str]]:
    """Map line number -> rule names suppressed on that line.

    A marker on a code line suppresses on that line. A marker inside a
    comment block carries forward through the rest of the block and onto
    the first code line after it, so multi-line justification comments
    work naturally.
    """
    markers: dict[int, set[str]] = {}
    pending: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        found = {match.group(1) for match in _MARKER_RE.finditer(line)}
        comment_only = line.lstrip().startswith("#")
        active = found | pending
        if active:
            markers[lineno] = active
        if comment_only:
            pending = active
        else:
            pending = set()
    return markers


def _suppressed(markers: dict[int, set[str]], line: int, rule: str) -> bool:
    """A marker on the flagged line or the line above suppresses the rule."""
    return rule in markers.get(line, ()) or rule in markers.get(line - 1, ())


def _call_name(node: ast.expr) -> str | None:
    """Trailing name of a call target: ``np.exp`` -> ``exp``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_numpy_call(node: ast.expr) -> bool:
    """Whether a call target looks like ``np.<fn>`` / ``numpy.<fn>``."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _contains_clip(node: ast.AST) -> bool:
    """Whether any call inside ``node`` is a clipping function."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call) and _call_name(child.func) in _CLIP_CALLS:
            return True
    return False


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        return _call_name(node.func) in ("list", "dict", "set")
    return False


def _iter_defaults(args: ast.arguments) -> Iterator[ast.expr]:
    for default in args.defaults:
        yield default
    for default in args.kw_defaults:
        if default is not None:
            yield default


def _public_defs(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Yield public module-level functions and public methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield item


def _has_all(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            if any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                return True
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == "__all__":
                return True
    return False


def _dtype_scoped(path: Path) -> bool:
    parts = path.parts
    return any(part in _DTYPE_SCOPED_PARTS for part in parts)


def _bounds_scoped(path: Path) -> bool:
    return "bounds" in path.parts and path.name != "base.py"


def _check_float_eq(
    path: Path, tree: ast.Module, markers: dict[int, set[str]]
) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if not any(
            isinstance(operand, ast.Constant) and isinstance(operand.value, float)
            for operand in operands
        ):
            continue
        if _suppressed(markers, node.lineno, "float-eq"):
            continue
        yield Violation(
            path,
            node.lineno,
            "float-eq",
            "exact ==/!= against a float literal; compare with a tolerance "
            "or add '# lint: allow-float-eq' with a justification",
        )


def _check_unclipped_exp(
    path: Path, tree: ast.Module, markers: dict[int, set[str]]
) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node.func) != "exp" or not _is_numpy_call(node.func):
            continue
        if node.args and _contains_clip(node.args[0]):
            continue
        if _suppressed(markers, node.lineno, "unclipped-exp"):
            continue
        yield Violation(
            path,
            node.lineno,
            "unclipped-exp",
            "np.exp argument is not clipped (np.minimum/np.maximum/np.clip); "
            "large magnitudes underflow and warn under -W error",
        )


def _check_dtype_required(
    path: Path, tree: ast.Module, markers: dict[int, set[str]]
) -> Iterator[Violation]:
    if not _dtype_scoped(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node.func)
        if name not in _DTYPE_CONSTRUCTORS or not _is_numpy_call(node.func):
            continue
        if any(keyword.arg == "dtype" for keyword in node.keywords):
            continue
        if _suppressed(markers, node.lineno, "dtype-required"):
            continue
        yield Violation(
            path,
            node.lineno,
            "dtype-required",
            f"np.{name} without an explicit dtype= inside core/ or index/; "
            "bound arithmetic must not silently change precision",
        )


def _check_mutable_default(
    path: Path, tree: ast.Module, markers: dict[int, set[str]]
) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for default in _iter_defaults(node.args):
            if _is_mutable_literal(default) and not _suppressed(
                markers, default.lineno, "mutable-default"
            ):
                yield Violation(
                    path,
                    default.lineno,
                    "mutable-default",
                    "mutable default argument value; use None and create "
                    "the container inside the function",
                )


def _check_bounds_interface(
    path: Path, tree: ast.Module, markers: dict[int, set[str]]
) -> Iterator[Violation]:
    if not _bounds_scoped(path):
        return
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        base_names = {_call_name(base) for base in node.bases}
        if "BoundProvider" not in base_names and not any(
            isinstance(name, str) and name.endswith("BoundProvider")
            for name in base_names
        ):
            continue
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        attributes = {
            target.id
            for item in node.body
            if isinstance(item, ast.Assign)
            for target in item.targets
            if isinstance(target, ast.Name)
        } | {
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            if isinstance(item.target, ast.Name)
        }
        missing = [
            requirement
            for requirement, present in (
                ("name", "name" in attributes),
                ("node_bounds", "node_bounds" in methods),
            )
            if not present
        ]
        if missing and not _suppressed(markers, node.lineno, "bounds-interface"):
            yield Violation(
                path,
                node.lineno,
                "bounds-interface",
                f"BoundProvider subclass {node.name!r} is missing "
                f"{', '.join(missing)} (full base.py interface required)",
            )


def _check_missing_all(
    path: Path, tree: ast.Module, markers: dict[int, set[str]]
) -> Iterator[Violation]:
    if path.name.startswith("_") and path.name != "__init__.py":
        return
    if _has_all(tree) or _suppressed(markers, 1, "missing-all"):
        return
    yield Violation(
        path,
        1,
        "missing-all",
        "public module does not declare __all__",
    )


def _check_return_annotation(
    path: Path, tree: ast.Module, markers: dict[int, set[str]]
) -> Iterator[Violation]:
    for node in _public_defs(tree):
        if node.returns is not None:
            continue
        if _suppressed(markers, node.lineno, "return-annotation"):
            continue
        yield Violation(
            path,
            node.lineno,
            "return-annotation",
            f"public def {node.name!r} has no return annotation",
        )


def _check_silent_except(
    path: Path, tree: ast.Module, markers: dict[int, set[str]]
) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in node.body
        ):
            continue
        if _suppressed(markers, node.lineno, "silent-except"):
            continue
        yield Violation(
            path,
            node.lineno,
            "silent-except",
            "except handler silently swallows the error (body is only "
            "pass/...); handle, log or re-raise",
        )


#: Shorthand entrypoints forbidden inside the serve package.
_LEGACY_RENDER_CALLS = frozenset({"render_eps", "render_tau"})


def _serve_scoped(path: Path) -> bool:
    return "serve" in path.parts


def _check_legacy_render(
    path: Path, tree: ast.Module, markers: dict[int, set[str]]
) -> Iterator[Violation]:
    if not _serve_scoped(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node.func)
        if name not in _LEGACY_RENDER_CALLS:
            continue
        if _suppressed(markers, node.lineno, "legacy-render"):
            continue
        yield Violation(
            path,
            node.lineno,
            "legacy-render",
            f"{name}() is forbidden in serve/; build a RenderRequest and "
            "call renderer.render(request) so the cache-key fingerprint "
            "covers exactly what was rendered",
        )


#: Batched evaluation entrypoints that must go through the compute seam.
_BACKEND_DISPATCH_CALLS = frozenset(
    {
        "node_bounds_batch",
        "node_bounds_stacked",
        "leaf_exact_batch",
        "checked_node_bounds_batch",
        "checked_node_bounds_stacked",
        "checked_leaf_exact_batch",
    }
)

#: Kernel-evaluation entrypoints: direct ``kernel.evaluate(...)`` calls
#: outside the seam sidestep the compute backend exactly like the batch
#: entrypoints do — the weighted-coreset tier added new evaluation call
#: sites, so the rule covers both families.
_KERNEL_EVAL_CALLS = frozenset({"evaluate"})


def _backend_dispatch_exempt(path: Path) -> bool:
    """Whether a file legitimately calls the batch entrypoints directly.

    ``core/backends/`` holds the seam itself, ``core/bounds/`` the
    provider implementations (including internal checked -> unchecked
    delegation), and ``core/exact.py`` the reference brute-force scan
    the bounds are validated against; everywhere else must route
    through the engine's compute backend.
    """
    parts = path.parts
    if parts and parts[-1] == "exact.py" and len(parts) >= 2 and parts[-2] == "core":
        return True
    for index in range(len(parts) - 1):
        if parts[index] == "core" and parts[index + 1] in ("backends", "bounds"):
            return True
    return False


def _is_kernel_eval(node: ast.Call) -> bool:
    """``<something>.evaluate(...)`` where the receiver looks like a kernel.

    Restricted to receivers named ``kernel`` / ``self.kernel`` /
    ``*.kernel`` so unrelated ``evaluate`` methods (e.g. expression
    evaluators) never trip the rule.
    """
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr in _KERNEL_EVAL_CALLS):
        return False
    receiver = func.value
    if isinstance(receiver, ast.Name):
        return receiver.id == "kernel"
    if isinstance(receiver, ast.Attribute):
        return receiver.attr == "kernel"
    return False


def _check_backend_dispatch(
    path: Path, tree: ast.Module, markers: dict[int, set[str]]
) -> Iterator[Violation]:
    if _backend_dispatch_exempt(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node.func)
        if name in _BACKEND_DISPATCH_CALLS:
            if _suppressed(markers, node.lineno, "backend-dispatch"):
                continue
            yield Violation(
                path,
                node.lineno,
                "backend-dispatch",
                f"direct {name}() call bypasses the ComputeBackend seam; "
                "go through the engine's backend "
                "(backend.node_bounds_batch(provider, ...)), where invariant "
                "checking is selected and the benchmark's traced run counts "
                "calls",
            )
        elif _is_kernel_eval(node):
            if _suppressed(markers, node.lineno, "backend-dispatch"):
                continue
            yield Violation(
                path,
                node.lineno,
                "backend-dispatch",
                "direct kernel.evaluate() call bypasses the ComputeBackend "
                "seam; evaluate densities through exact_density / the "
                "engine's backend (or mark a deliberate reference "
                "path with '# lint: allow-backend-dispatch')",
            )


def _check_bare_except(
    path: Path, tree: ast.Module, markers: dict[int, set[str]]
) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is not None:
            continue
        if _suppressed(markers, node.lineno, "bare-except"):
            continue
        yield Violation(
            path,
            node.lineno,
            "bare-except",
            "bare 'except:' also catches KeyboardInterrupt/SystemExit and "
            "defeats cooperative cancellation; catch Exception or the "
            "precise type, or add '# lint: allow-bare-except'",
        )


_SHIM_MODULE = "repro.compat"


def _check_shim_import(
    path: Path, tree: ast.Module, markers: dict[int, set[str]]
) -> Iterator[Violation]:
    if path.name == "compat.py" and "repro" in path.parts:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not (module == _SHIM_MODULE or module.startswith(_SHIM_MODULE + ".")):
                continue
        elif isinstance(node, ast.Import):
            if not any(
                alias.name == _SHIM_MODULE
                or alias.name.startswith(_SHIM_MODULE + ".")
                for alias in node.names
            ):
                continue
        else:
            continue
        if _suppressed(markers, node.lineno, "shim-import"):
            continue
        yield Violation(
            path,
            node.lineno,
            "shim-import",
            "internal import of the repro.compat shim keeps deprecated names "
            "load-bearing; import the canonical home instead (or mark a "
            "blessed re-export with '# lint: allow-shim-import')",
        )


_CHECKS = (
    _check_shim_import,
    _check_float_eq,
    _check_unclipped_exp,
    _check_dtype_required,
    _check_mutable_default,
    _check_bounds_interface,
    _check_missing_all,
    _check_return_annotation,
    _check_silent_except,
    _check_legacy_render,
    _check_bare_except,
    _check_backend_dispatch,
)


def lint_file(path: Path) -> list[Violation]:
    """Lint one Python file and return its violations."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [
            Violation(path, error.lineno or 1, "syntax", f"cannot parse: {error.msg}")
        ]
    markers = _collect_markers(source)
    violations: list[Violation] = []
    for check in _CHECKS:
        violations.extend(check(path, tree, markers))
    return violations


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Iterable[Path]) -> list[Violation]:
    """Lint every ``.py`` file under the given paths."""
    violations: list[Violation] = []
    for path in _iter_python_files(paths):
        violations.extend(lint_file(path))
    return violations


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = sys.argv[1:] if argv is None else argv
    if not arguments:
        print(__doc__, file=sys.stderr)
        return 2
    paths = [Path(argument) for argument in arguments]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    violations = lint_paths(paths)
    for violation in sorted(violations):
        print(violation.format())
    if violations:
        print(f"\n{len(violations)} violation(s) found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
