#!/usr/bin/env python
"""Asyncio load generator for the KDV tile server.

Drives a tile-serving workload that looks like real map traffic:

* **zipf-distributed viewports** — sessions target hotspot tiles drawn
  from a zipf distribution over a deterministically-shuffled tile
  universe, so a few viewports are hot and most are cold;
* **zoom-in / pan sessions** — each session descends from ``z=0`` to
  its target tile through the ancestor chain (what a slippy map does on
  zoom-in), panning to random neighbour tiles at each level;
* **configurable concurrency / duration / seed** — N concurrent
  clients run sessions until the wall-clock budget expires; the whole
  workload is a pure function of ``--seed``.

Every response is validated against the on-the-wire contract in
``tools/_client.py``; the run fails (exit 1) if any response is
malformed. Results land in ``BENCH_serve.json``::

    {
      "schema": "repro-serve-bench-v1",
      "workload": {...}, "environment": {...},
      "latency_ms": {"p50": ..., "p95": ..., "p99": ..., "mean": ..., "max": ...},
      "throughput_rps": ..., "requests": {"total": ..., "by_status": {...}},
      "cache": {"hits": ..., "misses": ..., "hit_rate": ...},
      "backpressure_rate": ..., "degraded_rate": ...,
      "malformed_responses": 0, "validation": {...}
    }

Run against a live server::

    PYTHONPATH=src python tools/loadgen.py --url http://127.0.0.1:8699 --dataset crime

or self-contained (boots an in-process service on an ephemeral port,
suitable for CI)::

    PYTHONPATH=src python tools/loadgen.py --smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import time
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _client import check_wellformed, http_get  # noqa: E402

__all__ = ["main", "run_workload"]

SCHEMA = "repro-serve-bench-v1"
DEFAULT_OUTPUT = "BENCH_serve.json"

Tile = Tuple[int, int, int]


# --------------------------------------------------------------------------
# Workload model
# --------------------------------------------------------------------------


def tile_universe(zoom_max: int) -> List[Tile]:
    """Every tile address up to and including ``zoom_max``."""
    tiles: List[Tile] = []
    for z in range(zoom_max + 1):
        side = 2**z
        tiles.extend((z, x, y) for x in range(side) for y in range(side))
    return tiles


class ZipfViewports:
    """Zipf sampler over the deepest-zoom tiles.

    Popularity rank is a seeded shuffle of the tile grid, so *which*
    tiles are hot is deterministic per seed but not spatially trivial
    (the hot set is scattered, as with real cities on a basemap).
    """

    def __init__(self, zoom_max: int, s: float, rng: random.Random) -> None:
        side = 2**zoom_max
        self.tiles: List[Tile] = [
            (zoom_max, x, y) for x in range(side) for y in range(side)
        ]
        rng.shuffle(self.tiles)
        weights = [1.0 / (rank**s) for rank in range(1, len(self.tiles) + 1)]
        self._cdf = list(accumulate(weights))
        self._total = self._cdf[-1]

    def sample(self, rng: random.Random) -> Tile:
        index = bisect_left(self._cdf, rng.random() * self._total)
        return self.tiles[min(index, len(self.tiles) - 1)]


def session_tiles(target: Tile, pans: int, rng: random.Random) -> List[Tile]:
    """The request sequence for one zoom-in/pan session toward ``target``.

    Descends the ancestor chain z=0..target-z (each ancestor is the
    tile containing the target at that zoom), and at each zoom level
    after the root pans to up to ``pans`` random 4-neighbours.
    """
    z_target, x_target, y_target = target
    sequence: List[Tile] = []
    for z in range(z_target + 1):
        shift = z_target - z
        x, y = x_target >> shift, y_target >> shift
        sequence.append((z, x, y))
        if z == 0:
            continue
        side = 2**z
        for _ in range(rng.randint(0, pans)):
            dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
            x = min(max(x + dx, 0), side - 1)
            y = min(max(y + dy, 0), side - 1)
            sequence.append((z, x, y))
    return sequence


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


class _Stats:
    """Mutable tally shared by all client workers."""

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        self.by_status: Dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.degraded = 0
        self.backpressured = 0
        self.malformed: List[str] = []
        self.sessions = 0

    def record(
        self, tile: Tile, status: int, headers: Dict[str, str], elapsed_ms: float
    ) -> None:
        self.latencies_ms.append(elapsed_ms)
        self.by_status[str(status)] = self.by_status.get(str(status), 0) + 1
        if status == 200:
            if headers.get("X-Cache") == "hit":
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            if headers.get("X-Repro-Degraded"):
                self.degraded += 1
        elif status == 503:
            self.backpressured += 1


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


async def run_workload(
    host: str,
    port: int,
    dataset: str,
    *,
    concurrency: int,
    duration_s: float,
    seed: int,
    zoom_max: int,
    zipf_s: float,
    pans: int,
    timeout_s: float = 120.0,
) -> _Stats:
    """Run the zipf zoom-in/pan workload; returns the raw tally."""
    viewports = ZipfViewports(zoom_max, zipf_s, random.Random(seed))
    stats = _Stats()
    deadline = time.perf_counter() + duration_s

    async def client(worker: int) -> None:
        rng = random.Random((seed << 16) ^ worker)
        while time.perf_counter() < deadline:
            stats.sessions += 1
            target = viewports.sample(rng)
            for z, x, y in session_tiles(target, pans, rng):
                if time.perf_counter() >= deadline:
                    return
                path = f"/tile/{dataset}/{z}/{x}/{y}.png"
                started = time.perf_counter()
                try:
                    status, headers, body = await http_get(
                        host, port, path, timeout=timeout_s
                    )
                except (asyncio.TimeoutError, ConnectionError, OSError) as error:
                    stats.malformed.append(f"{path}: transport failure: {error!r}")
                    continue
                elapsed_ms = (time.perf_counter() - started) * 1e3
                stats.record((z, x, y), status, headers, elapsed_ms)
                violation = check_wellformed(status, headers, body)
                if violation is not None:
                    stats.malformed.append(f"{path}: {violation}")

    await asyncio.gather(*(client(worker) for worker in range(concurrency)))
    return stats


def build_report(
    stats: _Stats,
    *,
    duration_s: float,
    workload: Dict[str, Any],
    environment: Dict[str, Any],
) -> Dict[str, Any]:
    """Shape the tally into the ``repro-serve-bench-v1`` payload."""
    latencies = sorted(stats.latencies_ms)
    total = len(latencies)
    served_200 = stats.cache_hits + stats.cache_misses
    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "workload": workload,
        "environment": environment,
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50), 3),
            "p95": round(_percentile(latencies, 0.95), 3),
            "p99": round(_percentile(latencies, 0.99), 3),
            "mean": round(sum(latencies) / total, 3) if total else 0.0,
            "max": round(latencies[-1], 3) if total else 0.0,
        },
        "throughput_rps": round(total / duration_s, 2) if duration_s else 0.0,
        "requests": {
            "total": total,
            "sessions": stats.sessions,
            "by_status": dict(sorted(stats.by_status.items())),
        },
        "cache": {
            "hits": stats.cache_hits,
            "misses": stats.cache_misses,
            "hit_rate": round(stats.cache_hits / served_200, 4) if served_200 else 0.0,
        },
        "backpressure_rate": round(stats.backpressured / total, 4) if total else 0.0,
        "degraded_rate": round(stats.degraded / served_200, 4) if served_200 else 0.0,
        "malformed_responses": len(stats.malformed),
        "validation": {
            "contract": "tools/_client.py:check_wellformed",
            "violations": stats.malformed[:20],
        },
    }
    return report


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


async def _run_against(
    host: str, port: int, args: argparse.Namespace, environment: Dict[str, Any]
) -> Dict[str, Any]:
    workload = {
        "model": "zipf-viewports/zoom-in-pan",
        "dataset": args.dataset,
        "concurrency": args.concurrency,
        "duration_s": args.duration,
        "seed": args.seed,
        "zoom_max": args.zoom_max,
        "zipf_s": args.zipf_s,
        "pans": args.pans,
    }
    started = time.perf_counter()
    stats = await run_workload(
        host,
        port,
        args.dataset,
        concurrency=args.concurrency,
        duration_s=args.duration,
        seed=args.seed,
        zoom_max=args.zoom_max,
        zipf_s=args.zipf_s,
        pans=args.pans,
    )
    elapsed = time.perf_counter() - started
    return build_report(
        stats, duration_s=elapsed, workload=workload, environment=environment
    )


async def _run_smoke(args: argparse.Namespace) -> Dict[str, Any]:
    """Boot an in-process service and drive the workload at it."""
    from repro.data.synthetic import load_dataset
    from repro.serve import RenderConfig, ServiceConfig, TileServer, TileService

    config = ServiceConfig(
        render=RenderConfig(tile_px=args.tile_px, eps=0.05, workers=2),
    )
    service = TileService(config=config)
    service.registry.register(
        args.dataset, load_dataset(args.dataset, n=args.n_points, seed=0)
    )
    server = await TileServer(service, port=0).start()
    print(
        f"loadgen[smoke]: server on {server.url}, dataset {args.dataset!r} "
        f"n={args.n_points}"
    )
    try:
        host, port = server.url.rsplit("://", 1)[1].rsplit(":", 1)
        environment = {
            "mode": "smoke",
            "url": server.url,
            "cpu_count": os.cpu_count(),
            "tile_px": args.tile_px,
            "n_points": args.n_points,
            "python": sys.version.split()[0],
        }
        return await _run_against(host, int(port), args, environment)
    finally:
        await server.stop()
        service.close()


def main(argv: Optional[List[str]] = None) -> int:
    """Run the load generator; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--url", help="base URL of a running tile server")
    target.add_argument(
        "--smoke",
        action="store_true",
        help="boot an in-process service and load-test it (CI mode)",
    )
    parser.add_argument("--dataset", default="crime")
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--duration", type=float, default=10.0, help="seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--zoom-max", type=int, default=3, help="deepest zoom targeted by sessions"
    )
    parser.add_argument(
        "--zipf-s", type=float, default=1.1, help="zipf exponent for viewport popularity"
    )
    parser.add_argument(
        "--pans", type=int, default=2, help="max neighbour pans per zoom level"
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument("--tile-px", type=int, default=128, help="smoke mode tile size")
    parser.add_argument(
        "--n-points", type=int, default=4_000, help="smoke mode dataset size"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        report = asyncio.run(_run_smoke(args))
    else:
        base = args.url.rstrip("/")
        hostport = base.rsplit("://", 1)[-1]
        host, _, port = hostport.partition(":")
        environment = {
            "mode": "external",
            "url": base,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        }
        report = asyncio.run(_run_against(host, int(port or "80"), args, environment))

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

    latency = report["latency_ms"]
    print(
        f"loadgen: {report['requests']['total']} requests "
        f"({report['requests']['sessions']} sessions) in "
        f"{report['workload']['duration_s']}s budget | "
        f"p50={latency['p50']}ms p95={latency['p95']}ms p99={latency['p99']}ms | "
        f"{report['throughput_rps']} rps | "
        f"cache hit rate {report['cache']['hit_rate']:.0%} | "
        f"backpressure {report['backpressure_rate']:.1%} | "
        f"degraded {report['degraded_rate']:.1%}"
    )
    print(f"loadgen: wrote {args.output}")

    if report["malformed_responses"]:
        for violation in report["validation"]["violations"]:
            print(f"loadgen: MALFORMED {violation}", file=sys.stderr)
        print(
            f"loadgen: FAIL — {report['malformed_responses']} malformed responses",
            file=sys.stderr,
        )
        return 1
    if report["requests"]["total"] == 0:
        print("loadgen: FAIL — no requests completed", file=sys.stderr)
        return 1
    print("loadgen: OK (zero malformed responses)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
