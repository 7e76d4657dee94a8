"""The three workloads: inputs, request scripts and the cache mix each implies.

Every workload is a fixed, seeded request script driven by two
closed-loop clients, one connection each. Each client owns its tiles, so
whether a request hits a cache level never depends on how the two
clients interleave, and every run does the same work. The render-bound
workloads move in lock-step (see :class:`Script`), and only client 0
sends the first ε tile, which pays the colour-range probe alone: two
clients racing to compute the probe would make the work, the timing and
the peak memory of a run depend on that race. The seed picks the
points (a seeded subsample of one fixed crime-like pool from
``repro.data.synthetic``, so every seed maps the same city) and the
order of the ``warm_revisit`` stream; the tile walk itself is fixed.

A script has three phases, each one request list per client: ``warm``
(untimed, fills caches), ``measured`` (the end-to-end metrics) and
``check`` (untimed: the ``gray`` refetch of every ε tile the oracle
judges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.client import Request

__all__ = ["EPS", "Inputs", "Script", "Size", "WORKLOADS", "Workload", "expected_mix", "make_inputs"]

#: ε of every density layer the workloads request.
EPS = 0.05
#: Reference ε of sharded τ renders (``repro.serve.sharding.TAU_SHARD_REF_EPS``).
TAU_REF_EPS = 0.05
DATASET = "crime"
#: Size of the fixed point pool every seed subsamples from.
POOL_FACTOR = 2
#: Deadline far above the slowest tile, so no tile degrades.
DEADLINE_MS = 300_000.0


@dataclass(frozen=True)
class Size:
    """How big one run is.

    ``setups`` server launches (the measured one included) are timed
    for ``setup_s``; ``stream`` is the per-client request count of a
    revisit stream.
    """

    label: str
    n: int
    tile_px: int
    setups: int
    stream: int = 0
    oracle_pixels: int = 96


@dataclass
class Inputs:
    """What a seed generates: the points and the geometry the oracle needs."""

    points: np.ndarray
    rng: np.random.Generator
    tile_px: int
    base_low: np.ndarray
    base_high: np.ndarray
    gamma: float
    weight: float

    def tile_centers(self, tile: Tuple[int, int, int], side: Optional[int] = None) -> np.ndarray:
        """Pixel centres of a tile (at ``side`` px; default the served size)."""
        from repro.serve.tiles import tile_grid
        from repro.visual.grid import PixelGrid

        base = PixelGrid(2, 2, self.base_low, self.base_high)
        z, x, y = tile
        return tile_grid(base, z, x, y, side or self.tile_px).centers()

    def density(self, centers: np.ndarray) -> np.ndarray:
        from repro.core.exact import exact_density

        return exact_density(self.points, centers, "gaussian", self.gamma, self.weight)


#: One phase of a script: a request list per client. ``None`` is an idle step.
Phase = List[List[Optional[Request]]]


@dataclass
class Script:
    """The requests of one round.

    With ``lockstep`` the clients move in steps: step ``k`` starts when
    every client has its answer for step ``k - 1``, so which requests
    overlap is fixed by the script, not by timing.
    """

    warm: Phase = field(default_factory=list)
    measured: Phase = field(default_factory=list)
    check: Phase = field(default_factory=list)
    lockstep: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shards: int
    coreset_zoom: Optional[int]
    sizes: Dict[str, Size]
    build: Callable[[Inputs, Size], Script]


def make_inputs(n: int, tile_px: int, seed: int) -> Inputs:
    """Seeded points: ``n`` of a fixed ``POOL_FACTOR * n`` crime-like pool."""
    from repro.data.bandwidth import scott_gamma
    from repro.data.synthetic import load_dataset
    from repro.visual.grid import PixelGrid

    pool = load_dataset(DATASET, n=POOL_FACTOR * n, seed=0)
    rng = np.random.default_rng(seed)
    points = np.ascontiguousarray(pool[np.sort(rng.choice(pool.shape[0], size=n, replace=False))])
    base = PixelGrid.fit(points, 320, 240)
    return Inputs(
        points=points,
        rng=rng,
        tile_px=tile_px,
        base_low=base.low,
        base_high=base.high,
        gamma=float(scott_gamma(points, "gaussian")),
        weight=1.0 / n,
    )


def _eps(tile: Tuple[int, int, int], kind: str = "eps", colormap: Optional[str] = None) -> Request:
    return Request(tile, "eps", EPS, colormap, kind)


def _gray(tile: Tuple[int, int, int]) -> Request:
    return Request(tile, "eps", EPS, "gray", "check-gray")


# -- cold_explore --------------------------------------------------------------

#: Lock-step zoom-in walks over disjoint halves of the map. Client 0 owns
#: z0 and requests it alone; then both clients open a z1 tile, toggle its
#: τ hotspot layer, and zoom into a z2 tile.
COLD_STEPS: Dict[str, Tuple[Tuple[Optional[Tuple[str, Tuple[int, int, int]]], ...], ...]] = {
    "full": (
        (("eps", (0, 0, 0)), None),
        (("eps", (1, 0, 0)), ("eps", (1, 1, 1))),
        (("tau", (1, 0, 0)), ("tau", (1, 1, 1))),
        (("eps", (2, 1, 1)), ("eps", (2, 2, 2))),
    ),
    "smoke": (
        (("eps", (0, 0, 0)), None),
        (("eps", (1, 0, 0)), ("eps", (1, 1, 1))),
        (("tau", (1, 0, 0)), ("tau", (1, 1, 1))),
    ),
}


def _cold_tau(inputs: Inputs) -> float:
    """One hotspot threshold from the points: the 80th percentile of a coarse map."""
    from repro.visual.grid import PixelGrid

    coarse = PixelGrid(16, 12, inputs.base_low, inputs.base_high)
    return float(np.quantile(inputs.density(coarse.centers()), 0.8))


def _build_cold(inputs: Inputs, size: Size) -> Script:
    tau = _cold_tau(inputs)
    script = Script(lockstep=True)
    script.measured = [[], []]
    tiles: List[Tuple[int, int, int]] = []
    for step in COLD_STEPS[size.label]:
        for client, entry in enumerate(step):
            if entry is None:
                script.measured[client].append(None)
                continue
            op, tile = entry
            if op == "eps":
                script.measured[client].append(_eps(tile))
                tiles.append(tile)
            else:
                script.measured[client].append(Request(tile, "tau", tau, None, "tau"))
    script.check = [[_gray(tile) for tile in tiles]]
    return script


# -- warm_revisit --------------------------------------------------------------

WARM_TILES = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))
#: Zipf exponent of the revisit stream (z0 is the most popular tile).
WARM_ZIPF_S = 1.2


def _build_warm(inputs: Inputs, size: Size) -> Script:
    ranks = np.arange(1, len(WARM_TILES) + 1, dtype=np.float64)
    weights = ranks ** -WARM_ZIPF_S
    weights /= weights.sum()
    script = Script()
    # Server defaults: no ε or colormap parameter. The untimed warm pass
    # renders z0 alone (it pays the colour-range probe), then the four
    # z1 tiles two at a time.
    warm = [Request(tile, "eps", None, None, "warm") for tile in WARM_TILES]
    script.warm = [[warm[0], warm[1], warm[3]], [None, warm[2], warm[4]]]
    for _ in range(2):
        picks = inputs.rng.choice(len(WARM_TILES), size=size.stream, p=weights)
        script.measured.append([Request(WARM_TILES[i], "eps", None, None, "revisit") for i in picks])
    script.check = [[_gray(tile) for tile in WARM_TILES]]
    return script


# -- param_sweep ---------------------------------------------------------------

#: Per client: one tile on a coreset tier (z1) and one on the exact tier (z2).
SWEEP_TILES = (((1, 0, 1), (2, 1, 2)), ((1, 1, 0), (2, 2, 1)))
SWEEP_QUANTILES = (0.6, 0.75, 0.9, 0.97)


def _sweep_cycle(inputs: Inputs, tile: Tuple[int, int, int]) -> List[Request]:
    """ε in three colormaps (two are L2 hits), then τ at four density quantiles."""
    coarse = inputs.density(inputs.tile_centers(tile, side=16))
    cycle = [
        _eps(tile, "eps-render"),
        _eps(tile, "eps-restyle", "heat"),
        _eps(tile, "eps-restyle", "gray"),
    ]
    for index, q in enumerate(SWEEP_QUANTILES):
        kind = "tau-first" if index == 0 else "tau-rethreshold"
        cycle.append(Request(tile, "tau", float(np.quantile(coarse, q)), None, kind))
    return cycle


def _no_tau_pairs(first: List[Request], second: List[Request]) -> Phase:
    """Lock-step both cycles so that no step holds two τ requests.

    Each τ request may finish on the exact density of its undecided
    pixels, a scan whose buffers reach tens of MiB; two at once would
    make the run's peak memory depend on whether the two scans happened
    to overlap. When both clients are due a τ request, the one with
    more requests left goes first and the other idles that step.
    The schedule is fixed here, from the script alone.
    """
    steps: Phase = [[], []]
    queues = [list(first), list(second)]
    # Client 1 starts one step late: client 0's first ε render pays the
    # colour-range probe alone.
    steps[0].append(queues[0].pop(0))
    steps[1].append(None)
    while queues[0] or queues[1]:
        due = [queue[0] if queue else None for queue in queues]
        if all(request is not None and request.op == "tau" for request in due):
            waiting = 1 if len(queues[0]) >= len(queues[1]) else 0
            due[waiting] = None
        for client, request in enumerate(due):
            steps[client].append(request)
            if request is not None:
                queues[client].pop(0)
    return steps


def _build_sweep(inputs: Inputs, size: Size) -> Script:
    """Both clients run the same restyle/re-threshold cycle on their own tiles."""
    cycles = [
        [request for tile in tiles for request in _sweep_cycle(inputs, tile)]
        for tiles in SWEEP_TILES
    ]
    script = Script(lockstep=True, measured=_no_tau_pairs(*cycles))
    script.check = [[_gray(tile) for tiles in SWEEP_TILES for tile in tiles]]
    return script


WORKLOADS: Dict[str, Workload] = {
    "cold_explore": Workload(
        name="cold_explore",
        why="a first look at a big map: cold tiles through coreset tiers, render-bound",
        shards=1,
        coreset_zoom=3,
        sizes={
            "full": Size("full", n=40_000, tile_px=256, setups=3),
            "smoke": Size("smoke", n=4_000, tile_px=64, setups=1, oracle_pixels=48),
        },
        build=_build_cold,
    ),
    "warm_revisit": Workload(
        name="warm_revisit",
        why="a popular map: every measured request is an L1 hit, bound by HTTP and planning",
        shards=1,
        coreset_zoom=None,
        sizes={
            "full": Size("full", n=10_000, tile_px=256, setups=5, stream=6_000),
            "smoke": Size("smoke", n=2_000, tile_px=64, setups=1, stream=200, oracle_pixels=48),
        },
        build=_build_warm,
    ),
    "param_sweep": Workload(
        name="param_sweep",
        why="restyling and re-thresholding one view: L2/L3 hits, shard gather and the tau fallback",
        shards=2,
        coreset_zoom=2,
        sizes={
            "full": Size("full", n=20_000, tile_px=256, setups=3),
            "smoke": Size("smoke", n=4_000, tile_px=64, setups=1, oracle_pixels=48),
        },
        build=_build_sweep,
    ),
}


# -- the cache mix a script implies ----------------------------------------------


def expected_mix(
    workload: Workload, script: Script, coreset_zooms: Sequence[int]
) -> Dict[str, int]:
    """Cache events the measured phase should cause, from the script alone.

    Models the service's keying: the PNG key is the whole request, the
    density key drops the colormap, the bounds key keeps only the tile,
    and on sharded tiles each shard has its own density and bounds keys,
    shared by every τ of the tile (one reference-ε render) and by the ε
    layer when its folded ε equals the reference. Each L1 miss looks the
    PNG level up twice (event loop, then the render leader).
    """
    tiers = set(coreset_zooms)
    sharded = workload.shards > 1
    seen = {"png": set(), "density": set(), "bounds": set()}
    counts: Dict[str, int] = {}

    def bump(name: str, amount: int = 1) -> None:
        counts[name] = counts.get(name, 0) + amount

    def lookup(level: str, key: object, record: bool) -> bool:
        hit = key in seen[level]
        if record:
            bump(f"tile_cache.{level}.{'hits' if hit else 'misses'}")
            if not hit:
                bump(f"tile_cache.{level}.inserts")
        seen[level].add(key)
        return hit

    def serve(request: Request, record: bool) -> None:
        z = request.tile[0]
        eps = EPS if request.value is None and request.op == "eps" else request.value
        png_key = (request.tile, request.op, eps, request.colormap or "density")
        hit = png_key in seen["png"]
        if record:
            bump("xcache.hit" if hit else "xcache.miss")
        if hit:
            if record:
                bump("tile_cache.png.hits")
            return
        if record:
            bump("tile_cache.png.misses", 2)
            bump("tile_cache.png.inserts")
        seen["png"].add(png_key)
        if lookup("density", (request.tile, request.op, eps), record):
            return
        if not sharded:
            lookup("bounds", request.tile, record)
            return
        folded = z in tiers
        if request.op == "eps":
            shard_params = ("folded" if folded else "exact", eps)
        else:
            shard_params = ("exact", TAU_REF_EPS)
        for shard in range(workload.shards):
            if not lookup("density", (request.tile, shard, shard_params), record):
                lookup("bounds", (request.tile, shard), record)

    for client in script.warm:
        for request in client:
            if request is not None:
                serve(request, record=False)
    for client in script.measured:
        for request in client:
            if request is not None:
                serve(request, record=True)
    return dict(sorted(counts.items()))
