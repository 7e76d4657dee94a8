"""Command-line interface: ``python -m repro`` / ``repro-kdv``.

Subcommands
-----------
``render``
    Render an εKDV or τKDV colour map of a synthetic dataset (or a CSV
    file) to PNG. ``--trace-out trace.jsonl`` additionally records a
    structured trace of the render (see :mod:`repro.obs`) and prints the
    per-method refinement summary.
``experiment``
    Run one of the paper's experiments and print its result table.
``serve``
    Start the KDV tile server (:mod:`repro.serve`): slippy-map tiles at
    ``/tile/{dataset}/{z}/{x}/{y}.png`` with the multi-level density
    cache, plus ``/stats``.
``list``
    Show the registered kernels, methods, datasets and experiments.

All rendering routes through the unified
:class:`~repro.visual.request.RenderRequest` API (``docs/api.md`` maps
the legacy keyword surface onto it).

Invalid numeric inputs (``--eps <= 0``, non-finite ``--tau-offset``,
non-positive ``--width``/``--height``/``--n``) are rejected at parse
time with a clear message and exit code 2; domain errors raised deeper
in the library (:class:`~repro.errors.ReproError`) exit with code 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from repro.core.kernels import available_kernels
from repro.errors import ReproError
from repro.experiments.runner import available_experiments, run_experiments
from repro.methods.registry import available_methods

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """Argparse type: an integer strictly greater than zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type: a finite float strictly greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {value!r}")
    return value


def _finite_float(text: str) -> float:
    """Argparse type: any finite float (rejects nan/inf)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-kdv",
        description="QUAD: quadratic-bound-based kernel density visualization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser("render", help="render a KDV colour map to PNG")
    source = render.add_mutually_exclusive_group()
    source.add_argument("--dataset", default="crime", help="synthetic dataset name")
    source.add_argument("--csv", help="CSV file with one point per row")
    render.add_argument(
        "--n", type=_positive_int, default=10_000, help="synthetic dataset size"
    )
    render.add_argument("--seed", type=int, default=0)
    render.add_argument("--kernel", default="gaussian", choices=available_kernels())
    render.add_argument("--method", default="quad", choices=available_methods())
    render.add_argument("--width", type=_positive_int, default=320)
    render.add_argument("--height", type=_positive_int, default=240)
    render.add_argument(
        "--eps", type=_positive_float, default=0.01, help="relative error (eKDV)"
    )
    render.add_argument(
        "--tau-offset",
        type=_finite_float,
        default=None,
        help="render a tKDV mask at tau = mu + OFFSET * sigma instead of eKDV",
    )
    render.add_argument("--out", default="kdv.png", help="output PNG path")
    render.add_argument("--colormap", default="density")
    render.add_argument(
        "--tile-size",
        type=_positive_int,
        default=None,
        help="render in square tiles of this edge (enables the tiled engine)",
    )
    render.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="render tiles on this many worker processes (2 or more use "
        "the process pool)",
    )
    render.add_argument(
        "--deadline-ms",
        type=_positive_float,
        default=None,
        help="anytime render: stop after this many milliseconds and write "
        "the best-so-far image plus a .degraded.json sidecar",
    )
    render.add_argument(
        "--resume-from",
        default=None,
        metavar="CKPT",
        help="resume a tiled render from a checkpoint written by --checkpoint",
    )
    render.add_argument(
        "--checkpoint",
        default=None,
        metavar="CKPT",
        help="write a completed-tile checkpoint (npz) for --resume-from",
    )
    render.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="with --workers 2 or more: kill or slow pool workers on "
        "deterministic tiles, e.g. 'worker_kill:0.05,slow_response:0.05' "
        "(also honoured from the REPRO_FAULTS environment variable)",
    )
    render.add_argument(
        "--drop-nonfinite",
        action="store_true",
        help="with --csv: drop rows containing NaN/Inf instead of rejecting the file",
    )
    render.add_argument(
        "--trace-out",
        default=None,
        metavar="JSONL",
        help="write a structured render trace (repro.obs) to this JSONL file "
        "and print the refinement summary",
    )
    render.add_argument(
        "--trace-steps",
        action="store_true",
        help="with --trace-out: also record per-refinement-step events (voluminous)",
    )

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument(
        "name",
        choices=available_experiments() + ["all"],
        help="experiment id, or 'all' to run every registered experiment",
    )
    experiment.add_argument("--scale", default="small")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--out-dir", default=None, help="save CSV/JSON here")
    experiment.add_argument(
        "--keep-going",
        action="store_true",
        help="with 'all': continue past a failing experiment and report it "
        "at the end instead of aborting the batch",
    )

    serve = sub.add_parser("serve", help="start the KDV tile server")
    serve.add_argument(
        "--dataset",
        action="append",
        default=None,
        metavar="SPEC",
        help="dataset to serve as 'name[:n[:seed]]' (repeatable; "
        "default: crime:10000:0)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8699)
    serve.add_argument("--method", default="quad", choices=available_methods())

    # Flag groups mirror the nested ServiceConfig groups
    # (RenderConfig / CacheConfig / ResilienceConfig); the no-op
    # ShardingConfig has no flags.
    serve_render = serve.add_argument_group(
        "render", "what a served tile looks like and how it executes"
    )
    serve_render.add_argument("--tile-px", type=_positive_int, default=256)
    serve_render.add_argument(
        "--eps", type=_positive_float, default=0.05, help="default εKDV tolerance"
    )
    serve_render.add_argument(
        "--tau",
        type=_finite_float,
        default=None,
        help="serve τKDV hotspot masks at this threshold instead of εKDV",
    )
    serve_render.add_argument("--colormap", default="density")
    serve_render.add_argument(
        "--deadline-ms",
        type=_positive_float,
        default=10_000.0,
        help="per-request render deadline",
    )
    serve_render.add_argument("--workers", type=_positive_int, default=4)
    serve_render.add_argument(
        "--render-workers",
        type=_positive_int,
        default=None,
        help="tile-render worker processes of the server, on one "
        "supervised process pool every dataset shares; 1 renders "
        "in-process (default: one per CPU this process may use)",
    )
    serve_render.add_argument("--max-zoom", type=_positive_int, default=18)

    serve_cache = serve.add_argument_group(
        "cache", "tile cache byte budgets and TTL"
    )
    serve_cache.add_argument(
        "--cache-mb",
        type=_positive_int,
        default=64,
        help="byte budget per cache level (PNG / density / bounds)",
    )
    serve_cache.add_argument(
        "--ttl-s", type=_positive_float, default=None, help="cache entry TTL"
    )

    serve_resilience = serve.add_argument_group(
        "resilience",
        "backpressure, one circuit breaker per dataset, and degraded serving",
    )
    serve_resilience.add_argument(
        "--queue-limit",
        type=_positive_int,
        default=32,
        help="max in-flight renders before requests get 503",
    )
    serve_resilience.add_argument(
        "--no-degraded",
        action="store_true",
        help="disable degrade-don't-fail serving (stale/partial tiles); "
        "overload and failures then surface as 503/504/500",
    )
    serve_resilience.add_argument(
        "--breaker-threshold",
        type=_positive_int,
        default=5,
        help="consecutive render failures that open a dataset's circuit breaker",
    )
    serve_resilience.add_argument(
        "--breaker-reset-s",
        type=_positive_float,
        default=30.0,
        help="seconds an open breaker waits before its half-open probe",
    )
    serve_resilience.add_argument(
        "--drain-s",
        type=_positive_float,
        default=5.0,
        help="max seconds to wait for in-flight requests on shutdown",
    )

    sub.add_parser("list", help="show registered components")
    return parser


def _command_render(args: argparse.Namespace) -> int:
    import json

    from repro.data.loaders import load_csv
    from repro.data.synthetic import load_dataset
    from repro.resilience import STOP_INTERRUPT, STOP_TILE_FAILURES, Budget
    from repro.visual.kdv import KDVRenderer
    from repro.visual.request import RenderOptions, RenderRequest

    from contextlib import nullcontext

    from repro.obs.runtime import trace_to

    if args.csv:
        points = load_csv(args.csv, drop_nonfinite=args.drop_nonfinite)
    else:
        points = load_dataset(args.dataset, n=args.n, seed=args.seed)
    renderer = KDVRenderer(
        points, resolution=(args.width, args.height), kernel=args.kernel
    )
    budget = (
        Budget.from_deadline_ms(args.deadline_ms)
        if args.deadline_ms is not None
        else None
    )
    # Tiled renders route through the anytime path as well, so Ctrl-C
    # mid-render still writes the partial image and degraded sidecar
    # (complete anytime renders are bit-identical to the strict path).
    resilient = any(
        value is not None
        for value in (
            budget,
            args.resume_from,
            args.checkpoint,
            args.faults,
            args.tile_size,
            args.workers,
        )
    )
    scope = (
        trace_to(args.trace_out, steps=args.trace_steps)
        if args.trace_out
        else nullcontext()
    )
    options = RenderOptions(
        tile_size=args.tile_size,
        workers=args.workers,
        budget=budget,
        resume_from=args.resume_from,
        checkpoint=args.checkpoint,
        faults=args.faults,
        anytime=resilient,
    )
    degraded = None
    with scope:
        if args.tau_offset is None:
            request = RenderRequest.for_eps(args.eps, args.method, options=options)
            result = renderer.render(request)
            if resilient:
                image = result.image
                degraded = result.degraded
            else:
                image = result
            path = renderer.save_density_png(image, args.out, colormap=args.colormap)
        else:
            mu, sigma = renderer.density_stats()
            tau = mu + args.tau_offset * sigma
            if not math.isfinite(tau):
                print(f"error: computed tau {tau!r} is not finite", file=sys.stderr)
                return 2
            request = RenderRequest.for_tau(tau, args.method, options=options)
            result = renderer.render(request)
            if resilient:
                mask = result.image.astype(bool)
                degraded = result.degraded
            else:
                mask = result
            path = renderer.save_mask_png(mask, args.out)
    print(f"wrote {path}")
    if degraded is not None:
        sidecar = f"{args.out}.degraded.json"
        with open(sidecar, "w") as handle:
            json.dump(degraded.as_dict(), handle, indent=2)
            handle.write("\n")
        print(
            f"render degraded ({degraded.reason}): "
            f"{degraded.pixels_resolved}/{degraded.pixels_total} pixels resolved; "
            f"details in {sidecar}",
            file=sys.stderr,
        )
    if args.trace_out:
        from repro.obs.report import format_summary, summarize_jsonl

        print(f"trace written to {args.trace_out}")
        print(format_summary(summarize_jsonl(args.trace_out)))
    if degraded is not None and degraded.reason == STOP_INTERRUPT:
        return 130
    if degraded is not None and degraded.reason == STOP_TILE_FAILURES:
        return 1
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    names = available_experiments() if args.name == "all" else [args.name]
    failures: list[str] = []
    outcomes = run_experiments(
        names,
        scale=args.scale,
        seed=args.seed,
        out_dir=args.out_dir,
        keep_going=args.keep_going,
    )
    for name, result in outcomes:
        if isinstance(result, ReproError):
            failures.append(name)
            print(f"# {name}: FAILED ({result})", file=sys.stderr)
            print()
            continue
        print(f"# {result.experiment}: {result.description}")
        for key, value in result.metadata.items():
            if key == "trace":
                print("#   trace = (attached; see saved JSON)")
                continue
            print(f"#   {key} = {value}")
        print(result.to_table())
        if args.out_dir:
            print(f"# saved under {args.out_dir}")
        print()
    if failures:
        print(
            f"error: {len(failures)} experiment(s) failed: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _parse_dataset_spec(spec: str) -> tuple[str, int, int]:
    """``name[:n[:seed]]`` -> ``(name, n, seed)`` with defaults 10000, 0."""
    parts = spec.split(":")
    if len(parts) > 3 or not parts[0]:
        raise ReproError(f"bad dataset spec {spec!r}; expected name[:n[:seed]]")
    try:
        n = int(parts[1]) if len(parts) > 1 and parts[1] else 10_000
        seed = int(parts[2]) if len(parts) > 2 and parts[2] else 0
    except ValueError:
        raise ReproError(
            f"bad dataset spec {spec!r}; n and seed must be integers"
        ) from None
    if n <= 0:
        raise ReproError(f"bad dataset spec {spec!r}; n must be positive")
    return parts[0], n, seed


def _command_serve(args: argparse.Namespace) -> int:
    from repro.data.synthetic import load_dataset
    from repro.serve import (
        CacheConfig,
        RenderConfig,
        ResilienceConfig,
        ServiceConfig,
        TileService,
        run_server,
    )

    megabyte = 1024 * 1024
    config = ServiceConfig(
        render=RenderConfig(
            tile_px=args.tile_px,
            eps=args.eps,
            tau=args.tau,
            colormap=args.colormap,
            deadline_ms=args.deadline_ms,
            workers=args.workers,
            render_workers=args.render_workers,
            max_zoom=args.max_zoom,
        ),
        cache=CacheConfig(
            png_bytes=args.cache_mb * megabyte,
            aux_bytes=args.cache_mb * megabyte,
            ttl_s=args.ttl_s,
        ),
        resilience=ResilienceConfig(
            queue_limit=args.queue_limit,
            degraded_serving=not args.no_degraded,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_s=args.breaker_reset_s,
            drain_s=args.drain_s,
        ),
    )
    service = TileService(config=config)
    for spec in args.dataset or ["crime:10000:0"]:
        name, n, seed = _parse_dataset_spec(spec)
        points = load_dataset(name, n=n, seed=seed)
        service.registry.register(name, points, method=args.method)
        print(f"repro serve: registered {name!r} (n={n}, seed={seed})")
    run_server(service, host=args.host, port=args.port)
    return 0


def _command_list(args: argparse.Namespace) -> int:
    from repro.data.synthetic import available_datasets

    print("kernels:    ", ", ".join(available_kernels()))
    print("methods:    ", ", ".join(available_methods()))
    print("datasets:   ", ", ".join(available_datasets()))
    print("experiments:", ", ".join(available_experiments()))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "render": _command_render,
        "experiment": _command_experiment,
        "serve": _command_serve,
        "list": _command_list,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Interrupts inside a resilient tiled render are converted to a
        # cooperative cancellation (partial image + sidecar, exit 130,
        # handled above); this catches Ctrl-C anywhere else so the CLI
        # still exits with the conventional SIGINT code.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
