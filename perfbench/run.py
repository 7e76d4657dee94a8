"""The repository benchmark: seeded tile workloads against a real tile server.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_explore --seed 1 --seconds 20 --trace 0

Each workload (see :mod:`perfbench.workloads`) launches ``TileServer``
in its own process (``perfbench/server.py``), drives a fixed seeded
request script over two connections, checks every answer
(:mod:`perfbench.oracle`) and prints its metrics, the last line of
standard output being one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``setup_s``,
``tile_ms_p50``, ``tiles_per_s``, ``server_rss_mb``; ``tile_ms_p99``
and ``failed_frac`` are printed beside them, not in the JSON line).
``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics of :mod:`perfbench.layers`. ``--seconds`` is the
nominal measuring time; the work a run does is fixed by the workload's
script, never by the clock, so a faster server finishes sooner instead
of doing more. ``--size smoke`` shrinks every workload to seconds (the
self-test uses it).

A run keeps its per-request records, config, environment and oracle
results under ``perfbench/runs/``. The exit code is 0 when every answer
checked out, 1 when a check failed, 2 when the benchmark could not run
(no ``src/repro`` here, or the server did not start).
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, NoReturn, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "tile_ms_p50": "ms",
    "tiles_per_s": "1/s",
    "server_rss_mb": "MiB",
}
#: Counter groups compared against the script's implied mix.
MIX_COUNTERS = ("tile_cache.png", "tile_cache.density", "tile_cache.bounds")


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


# -- helpers -------------------------------------------------------------------


def _percentile(values: Sequence[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _counters(stats: Dict[str, Any]) -> Dict[str, int]:
    return {str(k): int(v) for k, v in stats.get("metrics", {}).get("counters", {}).items()}


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: after.get(k, 0) - before.get(k, 0) for k in sorted(set(after) | set(before))
            if after.get(k, 0) != before.get(k, 0)}


def _loadavg() -> Optional[List[float]]:
    try:
        return [round(v, 2) for v in os.getloadavg()]
    except OSError:
        return None


def _host_speed_ms() -> float:
    """Median time of a fixed interpreter loop: shows a slow or busy host.

    Recorded before and after a run, while no server runs. On the
    2-CPU virtual machine this benchmark was built on it ranged from 7
    to 23 ms within the same hour, and run times followed it.
    """
    timings = []
    for _ in range(15):
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        timings.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(timings)


def _commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _tier_deltas(stats: Dict[str, Any], dataset: str) -> Dict[int, float]:
    """Per zoom, the summed coreset ``delta_abs`` a tile of that zoom carries."""
    entry = stats["datasets"][dataset]
    shards = entry.get("sharding", {}).get("per_shard") or [entry]
    deltas: Dict[int, float] = {}
    for shard in shards:
        for tier in shard.get("coreset", {}).get("tiers", []) or []:
            zoom = int(tier["zoom"])
            deltas[zoom] = deltas.get(zoom, 0.0) + float(tier["delta_abs"])
    return deltas


# -- one round -----------------------------------------------------------------


@dataclasses.dataclass
class Round:
    """One server's life: set-up, warm phase, measured phase, check phase."""

    setup_s: float = 0.0
    records: List[Any] = dataclasses.field(default_factory=list)
    wall_s: float = 0.0
    rss_mb: float = 0.0
    counter_deltas: Dict[str, int] = dataclasses.field(default_factory=dict)
    query_deltas: Dict[str, int] = dataclasses.field(default_factory=dict)
    stats: Dict[str, Any] = dataclasses.field(default_factory=dict)
    check_records: List[Any] = dataclasses.field(default_factory=list)
    dump: Optional[Dict[str, Any]] = None


def run_round(
    index: int,
    spec: Dict[str, Any],
    script: Any,
    run_dir: Path,
    bodies: Dict[str, bytes],
    traced: bool,
) -> Round:
    from perfbench.client import ServerProcess, run_clients

    result = Round()
    name = f"round{index}{'-traced' if traced else ''}"
    server = ServerProcess(ROOT, run_dir, name, {**spec, "trace": traced})
    try:
        result.setup_s = server.setup_s
        result.stats = server.get_json("/stats")
        if script.warm:
            run_clients(
                server.port, spec["dataset"], script.warm, tag=f"w{index}", bodies=bodies, lockstep=True
            )
        before = _counters(server.get_json("/stats"))
        query_before = server.command("qstats")["query_stats"] if traced else {}
        records, wall = run_clients(
            server.port, spec["dataset"], script.measured, tag=f"m{index}", bodies=bodies,
            lockstep=script.lockstep,
        )
        after = _counters(server.get_json("/stats"))
        if traced:
            query_after = server.command("qstats")["query_stats"]
            result.query_deltas = _delta(query_after, query_before)
        result.records, result.wall_s = records, wall
        result.counter_deltas = _delta(after, before)
        result.rss_mb = server.peak_rss_mb()
        check, _ = run_clients(server.port, spec["dataset"], script.check, tag=f"c{index}", bodies=bodies)
        result.check_records = check
        if traced:
            path = run_dir / f"{name}-spans.json"
            server.command(f"dump {path}")
            raw = path.read_bytes()
            result.dump = json.loads(raw)
            (run_dir / f"{name}-spans.json.gz").write_bytes(gzip.compress(raw))
            path.unlink()
    finally:
        server.close()
    return result


def setup_only(index: int, spec: Dict[str, Any], run_dir: Path) -> float:
    from perfbench.client import ServerProcess

    server = ServerProcess(ROOT, run_dir, f"setup{index}", {**spec, "trace": False})
    server.close()
    return server.setup_s


# -- the oracle over a run -------------------------------------------------------


def judge(
    rounds: Sequence[Round],
    script: Any,
    inputs: Any,
    bodies: Dict[str, bytes],
    seed: int,
    size: Any,
    dataset: str,
    eps: float,
) -> Tuple[Dict[str, str], Dict[str, Any]]:
    """Check every answer; return ``{request key: failure}`` and a summary."""
    import numpy as np

    from perfbench import oracle

    failures: Dict[str, str] = {}
    first_digest: Dict[str, str] = {}
    all_records = [r for rnd in rounds for r in list(rnd.records) + list(rnd.check_records)]
    for record in all_records:
        reason = ""
        if record.status != 200:
            reason = f"status {record.status} {record.error}".strip()
        elif record.error:
            reason = record.error
        elif record.degraded:
            reason = f"degraded: {record.degraded}"
        elif record.cache not in ("hit", "miss"):
            reason = f"X-Cache {record.cache!r}"
        else:
            digest = first_digest.setdefault(record.key, record.digest)
            if digest != record.digest:
                reason = "bytes differ from an earlier identical request"
        if reason:
            failures.setdefault(record.key, reason)

    deltas = _tier_deltas(rounds[0].stats, dataset)
    atol = 1e-9 * inputs.weight
    f_cap = inputs.weight * inputs.points.shape[0]
    side = size.tile_px
    checked = {"tau_tiles": 0, "tau_pixels": 0, "eps_tiles": 0, "eps_pixels": 0}
    measured = {req.key: req for client in script.measured for req in client if req is not None}
    eps_tiles = sorted({req.tile for req in measured.values() if req.op == "eps"})
    gray_by_tile = {req.tile: req for client in script.check for req in client if req is not None}

    def rng_for(key: str) -> "np.random.Generator":
        return np.random.default_rng([seed, zlib.crc32(key.encode())])

    for key, request in sorted(measured.items()):
        if key in failures or key not in bodies:
            continue
        try:
            image = oracle.decode_png(bodies[key])
            if image.shape != (side, side, 3):
                raise ValueError(f"tile is {image.shape}, expected {(side, side, 3)}")
            if request.op != "tau":
                continue
            hot = oracle.tau_mask(image)
            pixels = oracle.sample_pixels(rng_for(key), size.oracle_pixels, hot, side)
            exact = inputs.density(inputs.tile_centers(request.tile)[pixels])
            delta = deltas.get(request.tile[0], 0.0)
            wrong = oracle.tau_mismatches(hot[pixels], exact, float(request.value), delta)
            checked["tau_tiles"] += 1
            checked["tau_pixels"] += int(pixels.size)
            if wrong:
                failures[key] = f"{wrong} of {pixels.size} sampled τ pixels disagree with F >= τ"
        except ValueError as error:
            failures[key] = f"undecodable tile: {error}"

    for tile in eps_tiles:
        gray = gray_by_tile.get(tile)
        tile_keys = [k for k, r in measured.items() if r.tile == tile and r.op == "eps"]
        if gray is None or gray.key not in bodies:
            for key in tile_keys:
                failures.setdefault(key, "no gray refetch to check against")
            continue
        try:
            levels = oracle.gray_levels(oracle.decode_png(bodies[gray.key]))
        except ValueError as error:
            reason = f"gray refetch undecodable: {error}"
        else:
            pixels = oracle.sample_pixels(rng_for(gray.key), size.oracle_pixels, None, side)
            exact = inputs.density(inputs.tile_centers(tile)[pixels])
            on_tier = tile[0] in deltas
            err = eps * (f_cap if on_tier else exact) + atol
            fits, lo, hi = oracle.gray_scale_fits(levels[pixels], exact, err)
            checked["eps_tiles"] += 1
            checked["eps_pixels"] += int(pixels.size)
            reason = "" if fits else f"no grey scale fits the ε envelopes (s in [{lo:.4g}, {hi:.4g}])"
        if reason:
            for key in tile_keys + [gray.key]:
                failures.setdefault(key, reason)
    return failures, checked


# -- metrics ---------------------------------------------------------------------


def end_to_end(
    rounds: Sequence[Round], failures: Dict[str, str], setups: Sequence[float]
) -> Tuple[Dict[str, float], List[str]]:
    """The end-to-end metrics of the untraced rounds, and one note line each."""
    timed = [rnd for rnd in rounds if rnd.dump is None]
    latencies = [rec.latency_ms for rnd in timed for rec in rnd.records if rec.status == 200]
    good = sum(1 for rnd in timed for rec in rnd.records if rec.key not in failures)
    wall = sum(rnd.wall_s for rnd in timed)
    samples = len(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "tile_ms_p50": _percentile(latencies, 50) if latencies else 0.0,
        "tiles_per_s": good / wall if wall > 0 else 0.0,
        "server_rss_mb": statistics.median(rnd.rss_mb for rnd in timed),
    }
    notes = {
        "setup_s": f"median of {len(setups)} launches",
        "tile_ms_p50": f"median of n={samples}",
        "tiles_per_s": f"{good} correct full-quality tiles / {wall:.3f} s",
        "server_rss_mb": "peak resident set (VmHWM) after the measured phase",
    }
    lines = [
        f"  {name:<16} {values[name]:>14.6g} {unit:<5} ({notes[name]})"
        for name, unit in END_TO_END.items()
    ]
    # The tail is printed, not gated: only a stream leaves ten samples
    # beyond p99; a render-bound script's "p99" is its slowest request.
    beyond = int(samples * 0.01)
    if beyond >= 10:
        lines.append(
            f"  {'tile_ms_p99':<16} {_percentile(latencies, 99):>14.6g} ms    "
            f"(n={samples}, {beyond} samples beyond)"
        )
    else:
        lines.append(f"  {'tile_ms_p99':<16} {'-':>14} ms    (n={samples}: too few samples for a tail)")
    return values, lines


def mix_report(
    implied: Dict[str, int], rounds: Sequence[Round]
) -> Tuple[List[Dict[str, int]], List[str], List[str]]:
    """Each round's observed cache mix, the keys that drift from ``implied``, and lines."""
    mixes = []
    for rnd in rounds:
        observed: Dict[str, int] = {}
        for rec in rnd.records:
            key = f"xcache.{rec.cache or 'none'}"
            observed[key] = observed.get(key, 0) + 1
        observed.update(
            (name, value) for name, value in rnd.counter_deltas.items() if name.startswith(MIX_COUNTERS)
        )
        mixes.append(dict(sorted(observed.items())))
    drift = sorted(
        {k for mix in mixes for k in set(mix) | set(implied) if mix.get(k, 0) != implied.get(k, 0)}
    )
    lines = [f"  mix implied by the script: {implied}"]
    lines += [f"  mix observed in round {index}: {mix}" for index, mix in enumerate(mixes)]
    lines.append(f"  mix drift: {', '.join(drift) if drift else 'none'}")
    return mixes, drift, lines


def write_records(run_dir: Path, rounds: Sequence[Round], summary: Dict[str, Any]) -> None:
    """Keep the per-request records (gzipped JSON lines) and the run summary."""
    lines = [
        json.dumps({"round": index, "phase": phase, **rec.as_dict()})
        for index, rnd in enumerate(rounds)
        for phase, records in (("measured", rnd.records), ("check", rnd.check_records))
        for rec in records
    ]
    (run_dir / "records.jsonl.gz").write_bytes(gzip.compress("\n".join(lines).encode() + b"\n"))
    (run_dir / "run.json").write_text(json.dumps(summary, indent=1, sort_keys=True))


# -- main ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import numpy as np

        from perfbench.client import ServerError
        from perfbench.layers import PER_LAYER, per_layer
        from perfbench.workloads import DATASET, DEADLINE_MS, EPS, WORKLOADS, expected_mix, make_inputs
    except ImportError as error:
        _fail(f"cannot import the benchmark or the program: {error}")
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    if args.trace:
        # One untraced and one traced round share the run's time.
        size = dataclasses.replace(size, stream=size.stream // 2)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_dir = HERE / "runs" / (
        f"{workload.name}-{size.label}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    )
    run_dir.mkdir(parents=True, exist_ok=True)
    environment = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_before": _loadavg(),
        "host_speed_ms_before": _host_speed_ms(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": args.seed,
        "argv": sys.argv,
    }
    inputs = make_inputs(size.n, size.tile_px, args.seed)
    points_path = run_dir / "points.npy"
    np.save(points_path, inputs.points)
    script = workload.build(inputs, size)
    spec = {
        "points": str(points_path),
        "dataset": DATASET,
        "tile_px": size.tile_px,
        "deadline_ms": DEADLINE_MS,
        "shards": workload.shards,
        "coreset_zoom": workload.coreset_zoom,
    }

    bodies: Dict[str, bytes] = {}
    rounds: List[Round] = []
    setups: List[float] = []
    try:
        if not args.trace:
            for index in range(size.setups - 1):
                setups.append(setup_only(index, spec, run_dir))
        for index, traced in enumerate([False, True] if args.trace else [False]):
            rounds.append(run_round(index, spec, script, run_dir, bodies, traced))
            setups.append(rounds[-1].setup_s)
    except (ServerError, OSError) as error:
        _fail(f"server failed: {error}")
    finally:
        # The points are regenerated from the seed; only the records are kept.
        points_path.unlink()
    environment["loadavg_after"] = _loadavg()
    environment["host_speed_ms_after"] = _host_speed_ms()

    failures, checked = judge(rounds, script, inputs, bodies, args.seed, size, DATASET, EPS)
    implied = expected_mix(workload, script, sorted(_tier_deltas(rounds[0].stats, DATASET)))
    mixes, drift, mix_lines = mix_report(implied, rounds)
    attempted = sum(len(rnd.records) for rnd in rounds)
    failed = sum(1 for rnd in rounds for rec in rnd.records if rec.key in failures)
    kinds: Dict[str, int] = {}
    for rec in rounds[0].records:
        kinds[rec.kind] = kinds.get(rec.kind, 0) + 1
    answers = sorted(
        {(rec.key, rec.digest) for rnd in rounds for rec in list(rnd.records) + list(rnd.check_records)}
    )
    run_digest = hashlib.sha256("\n".join(f"{k} {d}" for k, d in answers).encode()).hexdigest()

    lines = [
        f"perfbench {workload.name} size={size.label} seed={args.seed} trace={args.trace} "
        f"rounds={len(rounds)} cpu_count={os.cpu_count()}",
        f"  host: loadavg {environment['loadavg_before']} -> {environment['loadavg_after']}, "
        f"speed probe {environment['host_speed_ms_before']:.2f} -> "
        f"{environment['host_speed_ms_after']:.2f} ms",
        f"  requests per round: {kinds} over {len(script.measured)} connections",
        *mix_lines,
        f"  oracle: {checked}; failures: {len(failures)}",
        *(f"    FAIL {key}: {reason}" for key, reason in sorted(failures.items())),
        f"  answers digest: {run_digest}",
    ]
    unmeasured: Dict[str, str] = {}
    if not args.trace:
        values, metric_lines = end_to_end(rounds, failures, setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        lines += metric_lines
        lines.append(
            f"  {'failed_frac':<16} {failed / attempted if attempted else 0.0:>14.6g} ratio "
            f"({failed} of {attempted} requests without a correct full-quality 200)"
        )
    else:
        untraced, traced = rounds
        speed = [
            end_to_end([rnd], failures, setups)[0]["tiles_per_s"]
            for rnd in (untraced, dataclasses.replace(traced, dump=None))
        ]
        assert traced.dump is not None
        values, unmeasured = per_layer(
            traced.dump,
            [rec.as_dict() for rec in traced.records],
            traced.counter_deltas,
            traced.query_deltas,
            *speed,
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
        for name, (unit, layer) in PER_LAYER.items():
            note = f"unmeasured: {unmeasured[name]}" if name in unmeasured else layer
            lines.append(f"  {name:<28} {values[name]:>14.6g} {unit:<5} ({note})")
    lines.append(f"  records: {run_dir.relative_to(ROOT)}")
    print("\n".join(lines))

    write_records(
        run_dir,
        rounds,
        {
            "config": {
                "workload": workload.name,
                "why": workload.why,
                "size": dataclasses.asdict(size),
                "server": spec,
                "lockstep": script.lockstep,
                "script": {
                    phase: [[r.key if r else None for r in client] for client in getattr(script, phase)]
                    for phase in ("warm", "measured", "check")
                },
            },
            "environment": environment,
            "rounds": [
                {
                    "traced": rnd.dump is not None,
                    "setup_s": rnd.setup_s,
                    "wall_s": rnd.wall_s,
                    "rss_mb": rnd.rss_mb,
                    "counter_deltas": rnd.counter_deltas,
                    "query_deltas": rnd.query_deltas,
                }
                for rnd in rounds
            ],
            "setups_s": setups,
            "mix": {"implied": implied, "observed": mixes, "drift": drift},
            "oracle": {"checked": checked, "failures": failures},
            "answers_digest": run_digest,
            "metrics": metrics,
            "unmeasured": unmeasured,
        },
    )
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
