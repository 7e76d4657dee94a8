"""Self-test of the benchmark: smoke runs print every metric, the oracle bites.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke runs use ``--size smoke`` (64-px tiles, a few thousand
points), so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path
from typing import List

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import oracle, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, make_inputs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    text = "\n".join(lines[:-1])
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
            for line in lines[:-1]
        ), f"{metric['name']} not printed with its unit"
    assert "mix drift: none" in text
    assert "failures: 0" in text


def test_run_without_a_program_fails_without_a_result():
    bare = ROOT / "perfbench" / "runs" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bench = bare / "perfbench"
    bench.mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    for source in (ROOT / "perfbench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_revisit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(bare), capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- the oracle ------------------------------------------------------------------


def encode_png(image: np.ndarray, filters: List[int]) -> bytes:
    """Encode RGB with a chosen filter type per row, cycling through ``filters``."""
    height, width, _ = image.shape
    stride = width * 3
    flat = image.reshape(height, stride).astype(np.int64)
    rows = []
    for y in range(height):
        kind = int(filters[y % len(filters)])
        line = flat[y]
        prior = flat[y - 1] if y else np.zeros(stride, dtype=np.int64)
        left = np.concatenate([np.zeros(3, dtype=np.int64), line[:-3]])
        upper_left = np.concatenate([np.zeros(3, dtype=np.int64), prior[:-3]])
        if kind == 0:
            predicted = np.zeros(stride, dtype=np.int64)
        elif kind == 1:
            predicted = left
        elif kind == 2:
            predicted = prior
        elif kind == 3:
            predicted = (left + prior) // 2
        else:
            predicted = np.array(
                [oracle.paeth(int(a), int(b), int(c)) for a, b, c in zip(left, prior, upper_left)],
                dtype=np.int64,
            )
        rows.append(bytes([kind]) + ((line - predicted) % 256).astype(np.uint8).tobytes())

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", zlib.crc32(tag + payload))

    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return oracle.PNG_SIGNATURE + chunk(b"IHDR", header) + chunk(b"IDAT", zlib.compress(b"".join(rows))) + chunk(b"IEND", b"")


def test_png_decoder_handles_all_five_filter_types():
    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, size=(17, 13, 3), dtype=np.uint8)
    for filters in ([0], [1], [2], [3], [4], [0, 1, 2, 3, 4]):
        assert np.array_equal(oracle.decode_png(encode_png(image, filters)), image)


def test_png_decoder_reads_the_served_encoder():
    from repro.visual.image import png_bytes

    image = np.random.default_rng(1).integers(0, 256, size=(8, 9, 3), dtype=np.uint8)
    assert np.array_equal(oracle.decode_png(png_bytes(image)), image)


@pytest.fixture(scope="module")
def tile():
    inputs = make_inputs(2_000, 32, seed=5)
    centers = inputs.tile_centers((1, 0, 0))
    return inputs, inputs.density(centers)


def test_oracle_rejects_one_flipped_tau_pixel(tile):
    inputs, exact = tile
    tau = float(np.quantile(exact, 0.7))
    hot = exact >= tau
    image = np.where(hot[:, None], oracle.HOT_RGB, oracle.COLD_RGB).astype(np.uint8)
    served = oracle.tau_mask(oracle.decode_png(encode_png(image.reshape(32, 32, 3), [0, 4])))
    assert oracle.tau_mismatches(served, exact, tau, 0.0) == 0
    far = int(np.argmax(np.abs(exact - tau)))
    served[far] = not served[far]
    # An isolated flip is an edge pixel; a sample as large as the tile's
    # edge set is sure to include it.
    pixels = oracle.sample_pixels(np.random.default_rng(0), 32 * 32, served, 32)
    assert far in pixels
    assert oracle.tau_mismatches(served[pixels], exact[pixels], tau, 0.0) == 1
    # A coreset tier may flip it only within its delta_abs of tau.
    assert oracle.tau_mismatches(served, exact, tau, abs(exact[far] - tau) * 2) == 0


def test_oracle_rejects_one_grey_level_outside_its_envelope(tile):
    from repro.visual.colormap import get_colormap

    inputs, exact = tile
    eps = 0.05
    served = exact * (1 + eps * np.random.default_rng(2).uniform(-0.9, 0.9, exact.size))
    rgb = get_colormap("gray").apply(served, vmin=0.0, vmax=float(exact.max()) * 0.8, log_scale=True)
    levels = oracle.gray_levels(oracle.decode_png(encode_png(rgb.reshape(32, 32, 3), [1, 2, 3])))
    err = eps * exact + 1e-9 * inputs.weight
    assert oracle.gray_scale_fits(levels, exact, err)[0]
    middle = int(np.argsort(exact)[exact.size // 2])
    levels[middle] = min(255, levels[middle] + 40)
    assert not oracle.gray_scale_fits(levels, exact, err)[0]


def test_wire_contract():
    assert oracle.check_wellformed(200, {}, oracle.PNG_SIGNATURE) is None
    assert oracle.check_wellformed(200, {}, b"GIF89a") is not None
    assert oracle.check_wellformed(200, {"X-Repro-Degraded": "stale"}, oracle.PNG_SIGNATURE) is not None
    error = json.dumps({"status": 503, "code": "overloaded", "message": "full"}).encode()
    assert oracle.check_wellformed(503, {"Retry-After": "1"}, error) is None
    assert oracle.check_wellformed(503, {}, error) is not None


# -- tracing keeps working when a later change removes a target ------------------------


def test_missing_trace_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(
        tracing,
        "TARGETS",
        (("service.gone", "repro.serve.service", "TileService.no_such_method", "span"),
         ("module.gone", "repro.no_such_module", "anything", "span")),
    )
    recorder = tracing.install()
    assert recorder.wrapped == []
    assert set(recorder.unmeasured) == {"service.gone", "module.gone"}
