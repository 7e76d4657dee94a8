"""Answer checks: the wire contract, a PNG decoder and the density oracle.

Every response must meet the server's wire contract
(:func:`check_wellformed`). Tile bytes are decoded here, independently
of the encoder (:func:`decode_png` handles all five PNG filter types),
and judged against brute-force density from ``repro.core.exact``:

* **τ masks** (:func:`tau_mismatches`): a sampled pixel is hot exactly
  when ``F >= τ``. The only flips allowed are the ones the tile's tier
  allows: ``|F - τ| <= delta_abs`` on coreset tiers (docs/bounds.md §6)
  and float-noise ties everywhere.
* **ε tiles** (:func:`gray_scale_fits`), fetched in the monotone
  ``gray`` colormap: one common grey scale ``g = rint(s * log1p(v))``
  must put every sampled pixel's level inside its envelope
  ``[F - err, F + err]``, with ``err = ε·F + atol`` on exact tiers and
  ``ε·F_cap + atol`` on coreset tiers. The check solves for the set of
  scales ``s`` every pixel admits, so it does not depend on how the
  server picks its colour range.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "HOT_RGB",
    "COLD_RGB",
    "TIE_RTOL",
    "check_wellformed",
    "decode_png",
    "gray_levels",
    "gray_scale_fits",
    "sample_pixels",
    "tau_mask",
    "tau_mismatches",
]

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
#: The τ mask colours of the served two-colour map.
HOT_RGB = (220, 20, 20)
COLD_RGB = (235, 235, 235)
#: Relative band around τ inside which summation-order noise may flip a pixel.
TIE_RTOL = 1e-9


def check_wellformed(status: int, headers: Dict[str, str], body: bytes) -> Optional[str]:
    """The server's wire contract for one response; a violation message or ``None``.

    A 200 is a PNG, and a degraded 200 also carries
    ``Cache-Control: no-store`` and a ``Warning``; anything else is a
    JSON error object with ``status``, ``code`` and ``message``, and a
    503 or 504 advertises ``Retry-After``.
    """
    if status == 200:
        if not body.startswith(PNG_SIGNATURE):
            return "200 body is not a PNG"
        if headers.get("X-Repro-Degraded"):
            if headers.get("Cache-Control") != "no-store":
                return "degraded 200 missing Cache-Control: no-store"
            if "Warning" not in headers:
                return "degraded 200 missing Warning header"
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return f"status {status} body is not JSON"
    if not isinstance(payload, dict):
        return f"status {status} error JSON is not an object"
    for field in ("status", "code", "message"):
        if field not in payload:
            return f"status {status} error JSON missing {field!r}"
    if status in (503, 504) and "Retry-After" not in headers:
        return f"status {status} missing Retry-After header"
    return None


# -- PNG ---------------------------------------------------------------------


def paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def _unfilter(kind: int, line: np.ndarray, prior: np.ndarray, bpp: int) -> np.ndarray:
    if kind == 0:
        return line
    if kind == 2:
        return (line.astype(np.uint16) + prior).astype(np.uint8)
    if kind == 1:
        # Sub is a running sum per channel, modulo 256.
        sums = np.cumsum(line.reshape(-1, bpp).astype(np.int64), axis=0)
        return (sums % 256).astype(np.uint8).reshape(-1)
    if kind not in (3, 4):
        raise ValueError(f"unknown PNG filter type {kind}")
    out = bytearray(len(line))
    raw = line.tolist()
    up = prior.tolist()
    for i in range(len(raw)):
        left = out[i - bpp] if i >= bpp else 0
        if kind == 3:
            out[i] = (raw[i] + ((left + up[i]) >> 1)) & 0xFF
        else:
            upper_left = up[i - bpp] if i >= bpp else 0
            out[i] = (raw[i] + paeth(left, up[i], upper_left)) & 0xFF
    return np.frombuffer(bytes(out), dtype=np.uint8)


def decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit RGB, non-interlaced PNG into a ``(h, w, 3)`` array."""
    if not data.startswith(PNG_SIGNATURE):
        raise ValueError("not a PNG")
    offset = len(PNG_SIGNATURE)
    header: Optional[Tuple[int, ...]] = None
    idat = []
    while offset < len(data):
        if offset + 8 > len(data):
            raise ValueError("truncated PNG chunk header")
        length, tag = struct.unpack(">I4s", data[offset:offset + 8])
        payload = data[offset + 8:offset + 8 + length]
        crc = data[offset + 8 + length:offset + 12 + length]
        if len(payload) != length or len(crc) != 4:
            raise ValueError("truncated PNG chunk")
        if struct.unpack(">I", crc)[0] != zlib.crc32(tag + payload):
            raise ValueError(f"bad CRC in PNG chunk {tag!r}")
        if tag == b"IHDR":
            header = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
        offset += 12 + length
    if header is None:
        raise ValueError("PNG without IHDR")
    width, height, depth, colour, _compression, _filter, interlace = header
    if depth != 8 or colour != 2 or interlace != 0:
        raise ValueError(f"unsupported PNG: depth {depth}, colour type {colour}, interlace {interlace}")
    bpp = 3
    stride = width * bpp
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    if raw.size != height * (stride + 1):
        raise ValueError("PNG image data has the wrong size")
    rows = raw.reshape(height, stride + 1)
    image = np.empty((height, stride), dtype=np.uint8)
    prior = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        prior = _unfilter(int(rows[y, 0]), rows[y, 1:], prior, bpp)
        image[y] = prior
    return image.reshape(height, width, 3)


# -- density checks ----------------------------------------------------------


def tau_mask(image: np.ndarray) -> np.ndarray:
    """Flat hot mask of a decoded τ tile; raises on a third colour."""
    flat = image.reshape(-1, 3)
    hot = np.all(flat == HOT_RGB, axis=1)
    cold = np.all(flat == COLD_RGB, axis=1)
    if not bool(np.all(hot | cold)):
        raise ValueError(f"τ tile has {int((~(hot | cold)).sum())} pixels of neither mask colour")
    return hot


def gray_levels(image: np.ndarray) -> np.ndarray:
    """Flat grey levels of a decoded ``gray`` tile; raises unless R == G == B."""
    flat = image.reshape(-1, 3)
    if not (np.array_equal(flat[:, 0], flat[:, 1]) and np.array_equal(flat[:, 0], flat[:, 2])):
        raise ValueError("gray tile has non-grey pixels")
    return flat[:, 0].astype(np.int64)


def sample_pixels(rng: np.random.Generator, count: int, mask: Optional[np.ndarray], side: int) -> np.ndarray:
    """A seeded pixel sample: uniform, plus mask-edge pixels when a mask is given.

    Edge pixels (a 4-neighbour differs) are where ``F`` is near τ, so
    half the τ sample goes there; a uniform sample alone would almost
    never test the boundary.
    """
    total = side * side
    uniform = rng.choice(total, size=min(count, total), replace=False)
    if mask is None:
        return np.sort(uniform)
    grid = mask.reshape(side, side)
    edge = np.zeros_like(grid)
    edge[1:, :] |= grid[1:, :] != grid[:-1, :]
    edge[:-1, :] |= grid[1:, :] != grid[:-1, :]
    edge[:, 1:] |= grid[:, 1:] != grid[:, :-1]
    edge[:, :-1] |= grid[:, 1:] != grid[:, :-1]
    candidates = np.flatnonzero(edge.reshape(-1))
    if candidates.size:
        picked = rng.choice(candidates, size=min(count, candidates.size), replace=False)
        uniform = np.concatenate([uniform, picked])
    return np.unique(uniform)


def tau_mismatches(hot: np.ndarray, exact: np.ndarray, tau: float, delta_abs: float) -> int:
    """Sampled pixels whose served mask disagrees with ``F >= τ`` beyond the allowed flips."""
    wrong = hot != (exact >= tau)
    allowed = np.abs(exact - tau) <= delta_abs + TIE_RTOL * abs(tau)
    return int((wrong & ~allowed).sum())


def gray_scale_fits(levels: np.ndarray, exact: np.ndarray, err: np.ndarray) -> Tuple[bool, float, float]:
    """Whether one scale ``s`` maps every envelope onto its grey level.

    Returns ``(fits, s_low, s_high)``: level ``g`` is ``rint(s *
    log1p(v))`` (clipped at 255) for some ``v`` in ``[F - err, F +
    err]``, which bounds ``s`` from both sides per pixel.
    """
    lo = np.log1p(np.maximum(exact - err, 0.0))
    hi = np.log1p(exact + err)
    s_low, s_high = 0.0, np.inf
    g = levels.astype(np.float64)
    slack = 1e-9
    positive = g > 0
    if positive.any():
        if np.any(hi[positive] <= 0.0):
            return False, s_low, s_high
        s_low = float(np.max((g[positive] - 0.5 - slack) / hi[positive]))
    below = (g < 255) & (lo > 0.0)
    if below.any():
        s_high = float(np.min((g[below] + 0.5 + slack) / lo[below]))
    return s_low <= s_high, s_low, s_high
