"""Deterministic image output: binary PGM/PPM plus JSON sidecars.

Masks go out as P5 PGM (255 = set cell, 0 = empty) with a small JSON
sidecar describing the window geometry; disk covers render to P6 PPM with
a fixed palette, in float strips of _STRIP_BYTES / 16 pixels over which
raster._disk_windows walks the disks.  Both formats stream to disk: the
header, then the pixel rows in strips of about 1 MB, so writing an image
holds one strip beyond the array it comes from, never a whole-image copy.
A PGM strip is one uint8 negation of the bools' bytes (0 stays 0, 1
becomes 255), and read_pgm reads the strips back straight into the mask.
No timestamps, no library metadata: equal inputs give byte-identical files.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .geometry import Disks
from .raster import GridMask, _disk_windows, check_cap, check_cell

__all__ = [
    "write_pgm",
    "read_pgm",
    "write_ppm",
    "render_disks",
    "MASK_SCHEMA",
]

MASK_SCHEMA = "cantordiff-mask/1"

# fixed fill palette, cycled by disk index
_PALETTE = np.array([
    (31, 119, 180),
    (255, 127, 14),
    (44, 160, 44),
    (214, 39, 40),
    (148, 103, 189),
    (140, 86, 75),
], dtype=np.float64)
_BG = (252, 252, 252)
_AXIS = (210, 210, 210)
_OUTLINE_SCALE = 0.55
# bytes of pixel data per write or read (at least one image row)
_STRIP_BYTES = 1 << 20


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


def _write_netpbm(path: str | Path, magic: str, rows: np.ndarray, strip) -> Path:
    """Write a binary PGM/PPM header, then strip(rows[lo:hi]) for row strips
    of about _STRIP_BYTES output bytes; strip must give uint8 pixels."""
    path = Path(path)
    height, width = rows.shape[:2]
    step = max(1, _STRIP_BYTES // max(1, rows[:1].size))
    with open(path, "wb") as f:
        f.write(f"{magic}\n{width} {height}\n255\n".encode("ascii"))
        for lo in range(0, height, step):
            f.write(np.ascontiguousarray(strip(rows[lo : lo + step])))
    return path


def write_pgm(mask: GridMask, path: str | Path, extra: dict | None = None) -> Path:
    """Write a mask as binary PGM plus a <path>.json geometry sidecar.

    Image rows run top to bottom (largest imaginary part first).
    """
    path = _write_netpbm(path, "P5", mask.bits[::-1], lambda s: np.negative(s.view(np.uint8)))
    side = path.with_name(path.name + ".json")
    side.write_text(json.dumps(_sidecar(mask, extra), sort_keys=True, indent=2) + "\n")
    return path


def read_pgm(path: str | Path) -> GridMask:
    """Read back a mask written by write_pgm (requires the sidecar).

    The pixel rows are read in strips straight into the mask's bits.
    """
    path = Path(path)
    with open(path, "rb") as f:
        magic, dims, maxval = (f.readline() for _ in range(3))
        if not maxval.endswith(b"\n") or magic != b"P5\n":
            raise ValueError(f"{path} is not a binary PGM written by this package")
        width, height = (int(t) for t in dims.split())
        if maxval != b"255\n":
            raise ValueError(f"{path}: unexpected maxval {maxval[:-1]!r}")
        bits = np.empty((height, width), dtype=bool)
        image = bits[::-1]  # image rows run top to bottom
        step = max(1, _STRIP_BYTES // max(1, width))
        for top in range(0, height, step):
            rows = min(step, height - top)
            data = np.frombuffer(f.read(rows * width), dtype=np.uint8)
            image[top : top + rows] = data.reshape(rows, width) > 127
    meta = json.loads(path.with_name(path.name + ".json").read_text())
    origin = complex(meta["origin"][0], meta["origin"][1])
    return GridMask(origin=origin, cell=float(meta["cell"]), bits=bits, mode=meta["mode"])


def write_ppm(pixels: np.ndarray, path: str | Path) -> Path:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError("pixels must be an (H, W, 3) uint8 array")
    return _write_netpbm(path, "P6", pixels, lambda s: s)


def render_disks(disks: Disks, cell: float | None = None) -> np.ndarray:
    """RGB render of filled disks with outlines and axes, fixed palette.

    Pixel (0, 0) is the top-left corner of the bounding window: all disks
    plus a pad of half the largest radius, at least half a cell.  A cell
    of None is 1/900 of the disks' wider extent, at least 1e-6.  Purely
    for inspection; the certified numbers never come from this raster.
    """
    cx, cy, r = disks.centers.real, disks.centers.imag, disks.radii
    x_lo, x_hi = float((cx - r).min()), float((cx + r).max())
    y_lo, y_hi = float((cy - r).min()), float((cy + r).max())
    if cell is None:
        cell = max(max(x_hi - x_lo, y_hi - y_lo) / 900.0, 1e-6)
    check_cell(cell)
    pad = max(float(r.max()), cell) * 0.5
    x_lo, x_hi, y_lo, y_hi = x_lo - pad, x_hi + pad, y_lo - pad, y_hi + pad
    w = max(int(math.ceil((x_hi - x_lo) / cell)), 8)
    h = max(int(math.ceil((y_hi - y_lo) / cell)), 8)
    check_cap(f"render of {w}x{h} pixels", w * h, 1 << 24)
    xs = x_lo + (np.arange(w) + 0.5) * cell
    ys = y_hi - (np.arange(h) + 0.5) * cell
    col = np.argmin(np.abs(xs))
    row = np.argmin(np.abs(ys))
    reach = r + cell  # the outlines reach a cell past the radius
    img = np.empty((h, w, 3), dtype=np.uint8)
    # 2^16 pixels a strip, whose float RGB takes 1.5 MB
    step = max(1, (_STRIP_BYTES >> 4) // w)
    for top in range(0, h, step):
        buf = np.full((min(step, h - top), w, 3), _BG, dtype=np.float64)
        if abs(xs[col]) <= cell:
            buf[:, col] = _AXIS
        if abs(ys[row]) <= cell and top <= row < top + step:
            buf[row - top] = _AXIS
        # the walker wants ascending axes, so the strip is walked bottom up
        for k, rows, cols, dx, dy in _disk_windows(xs, ys[top : top + step][::-1], disks, reach):
            win, color, rad = buf[::-1][rows, cols], _PALETTE[k % len(_PALETTE)], r[k]
            dist = np.hypot(dx, dy[:, None])
            fill = dist <= rad
            win[fill] = 0.65 * win[fill] + 0.35 * color
            win[np.abs(dist - rad) <= cell] = _OUTLINE_SCALE * color
        img[top : top + step] = np.clip(np.rint(buf), 0, 255)
    return img
