"""Deterministic image output: binary PGM/PPM plus JSON sidecars.

Masks go out as P5 PGM (255 = set cell, 0 = empty) with a small JSON
sidecar describing the window geometry; disk covers render to P6 PPM with
a fixed palette.  No timestamps, no library metadata: the same inputs
produce byte-identical files.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .geometry import Disks
from .raster import GridMask

__all__ = [
    "write_pgm",
    "read_pgm",
    "write_ppm",
    "render_mask",
    "render_disks",
    "MASK_SCHEMA",
]

MASK_SCHEMA = "cantordiff-mask/1"

# fixed fill palette, cycled by disk index
_PALETTE = (
    (31, 119, 180),
    (255, 127, 14),
    (44, 160, 44),
    (214, 39, 40),
    (148, 103, 189),
    (140, 86, 75),
)
_BG = (252, 252, 252)
_AXIS = (210, 210, 210)
_OUTLINE_SCALE = 0.55


def _sidecar(mask: GridMask, extra: dict | None) -> dict:
    meta = {
        "schema": MASK_SCHEMA,
        "origin": [mask.origin.real, mask.origin.imag],
        "cell": mask.cell,
        "width": mask.width,
        "height": mask.height,
        "mode": mask.mode,
    }
    if extra:
        meta.update(extra)
    return meta


def write_pgm(mask: GridMask, path: str | Path, extra: dict | None = None) -> Path:
    """Write a mask as binary PGM plus a <path>.json geometry sidecar.

    Image rows run top to bottom (largest imaginary part first).
    """
    path = Path(path)
    pixels = np.where(mask.bits[::-1, :], np.uint8(255), np.uint8(0))
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    path.write_bytes(header + pixels.tobytes())
    side = path.with_name(path.name + ".json")
    side.write_text(json.dumps(_sidecar(mask, extra), sort_keys=True, indent=2) + "\n")
    return path


def read_pgm(path: str | Path) -> GridMask:
    """Read back a mask written by write_pgm (requires the sidecar)."""
    path = Path(path)
    raw = path.read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5":
        raise ValueError(f"{path} is not a binary PGM written by this package")
    width, height = (int(t) for t in parts[1].split())
    if parts[2] != b"255":
        raise ValueError(f"{path}: unexpected maxval {parts[2]!r}")
    data = np.frombuffer(parts[3][: width * height], dtype=np.uint8)
    bits = (data.reshape(height, width) > 127)[::-1, :].copy()
    meta = json.loads(path.with_name(path.name + ".json").read_text())
    origin = complex(meta["origin"][0], meta["origin"][1])
    return GridMask(origin=origin, cell=float(meta["cell"]), bits=bits, mode=meta["mode"])


def write_ppm(pixels: np.ndarray, path: str | Path) -> Path:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError("pixels must be an (H, W, 3) uint8 array")
    path = Path(path)
    h, w = pixels.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    path.write_bytes(header + pixels.tobytes())
    return path


def render_mask(mask: GridMask, fg: tuple[int, int, int] = _PALETTE[0]) -> np.ndarray:
    """RGB render of a mask (top row = largest imaginary part)."""
    img = np.empty((mask.height, mask.width, 3), dtype=np.uint8)
    img[:] = _BG
    flipped = mask.bits[::-1, :]
    for ch in range(3):
        img[..., ch][flipped] = fg[ch]
    return img


def render_disks(
    disks: Disks,
    cell: float,
    pad: float | None = None,
    axes: bool = True,
) -> np.ndarray:
    """RGB render of filled disks with outlines, fixed palette.

    Pixel (0, 0) is the top-left corner of the bounding window (all disks
    plus pad, default one radius of slack).  Purely for inspection; the
    certified numbers never come from this raster.
    """
    if not (math.isfinite(cell) and cell > 0.0):
        raise ValueError(f"cell must be finite and > 0, got {cell!r}")
    cx, cy, r = disks.centers.real, disks.centers.imag, disks.radii
    if pad is None:
        pad = max(float(r.max()), cell) * 0.5
    x_lo = float((cx - r).min()) - pad
    x_hi = float((cx + r).max()) + pad
    y_lo = float((cy - r).min()) - pad
    y_hi = float((cy + r).max()) + pad
    w = max(int(math.ceil((x_hi - x_lo) / cell)), 8)
    h = max(int(math.ceil((y_hi - y_lo) / cell)), 8)
    if w * h > (1 << 24):
        raise ValueError(
            f"render of {w}x{h} pixels exceeds the 2^24 pixel cap; "
            "use a coarser cell"
        )
    xs = x_lo + (np.arange(w) + 0.5) * cell
    ys = y_hi - (np.arange(h) + 0.5) * cell
    img = np.empty((h, w, 3), dtype=np.float64)
    img[:] = _BG
    if axes:
        col = np.argmin(np.abs(xs))
        row = np.argmin(np.abs(ys))
        if abs(xs[col]) <= cell:
            img[:, col] = _AXIS
        if abs(ys[row]) <= cell:
            img[row, :] = _AXIS
    for idx, (x, y, rad) in enumerate(zip(cx.tolist(), cy.tolist(), r.tolist())):
        color = np.array(_PALETTE[idx % len(_PALETTE)], dtype=np.float64)
        dist = np.hypot(xs[None, :] - x, ys[:, None] - y)
        fill = dist <= rad
        img[fill] = 0.65 * img[fill] + 0.35 * color
        edge = np.abs(dist - rad) <= cell
        img[edge] = _OUTLINE_SCALE * color
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)
