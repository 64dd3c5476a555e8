"""PGM/PPM writers and the sidecar metadata."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from cantordiff import images, raster
from cantordiff import Disks, GridMask, Parameter, disk_mask, rasterize_preimage
from cantordiff.cover import difference_cover, generate_pieces
from cantordiff.images import read_pgm, render_disks, write_pgm, write_ppm


def test_pgm_roundtrip(tmp_path, p5):
    m = rasterize_preimage(p5, 1, 0.05)
    path = write_pgm(m, tmp_path / "m.pgm", extra={"depth": 1})
    back = read_pgm(path)
    assert back.cell == m.cell
    assert back.origin == m.origin
    assert np.array_equal(back.bits, m.bits)


def test_pgm_sidecar_schema(tmp_path):
    m = disk_mask(Disks(0j, 1.0), 0.1)
    path = write_pgm(m, tmp_path / "d.pgm")
    meta = json.loads((tmp_path / "d.pgm.json").read_text())
    assert meta["schema"] == "cantordiff-mask/1"
    assert meta["cell"] == 0.1
    assert meta["height"] == m.height and meta["width"] == m.width


def test_pgm_bytes_deterministic(tmp_path):
    m = disk_mask(Disks(0.5 + 0.5j, 0.8), 0.05)
    p1 = write_pgm(m, tmp_path / "a.pgm")
    p2 = write_pgm(m, tmp_path / "b.pgm")
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.pgm.json").read_text() == (tmp_path / "b.pgm.json").read_text()


def test_pgm_image_row_order(tmp_path):
    # bottom raster row must land at the bottom of the image (P5 stores
    # top row first, so the bits are flipped on write)
    bits = np.zeros((2, 3), dtype=bool)
    bits[0, 0] = True
    m = GridMask(bits=bits, origin=0j, cell=1.0)
    path = write_pgm(m, tmp_path / "r.pgm")
    raw = path.read_bytes()
    pix = raw[-6:]
    assert pix[3] == 255 and pix[4] == 0 and pix[5] == 0


def test_render_disks_and_ppm(tmp_path):
    img = render_disks(Disks([0j, 2 + 1j], [1.0, 0.5]), 0.05)
    assert img.ndim == 3 and img.shape[2] == 3
    path = write_ppm(img, tmp_path / "d.ppm")
    raw = path.read_bytes()
    assert raw.startswith(b"P6")


def _whole_image_render(disks, cell):
    # the render as one whole-image float64 pass per disk: the reference
    # for the strip-by-strip render_disks
    cx, cy, r = disks.centers.real, disks.centers.imag, disks.radii
    pad = max(float(r.max()), cell) * 0.5
    x_lo = float((cx - r).min()) - pad
    x_hi = float((cx + r).max()) + pad
    y_lo = float((cy - r).min()) - pad
    y_hi = float((cy + r).max()) + pad
    w = max(int(math.ceil((x_hi - x_lo) / cell)), 8)
    h = max(int(math.ceil((y_hi - y_lo) / cell)), 8)
    xs = x_lo + (np.arange(w) + 0.5) * cell
    ys = y_hi - (np.arange(h) + 0.5) * cell
    img = np.empty((h, w, 3), dtype=np.float64)
    img[:] = (252, 252, 252)
    col = np.argmin(np.abs(xs))
    row = np.argmin(np.abs(ys))
    if abs(xs[col]) <= cell:
        img[:, col] = (210, 210, 210)
    if abs(ys[row]) <= cell:
        img[row, :] = (210, 210, 210)
    palette = [(31, 119, 180), (255, 127, 14), (44, 160, 44),
               (214, 39, 40), (148, 103, 189), (140, 86, 75)]
    for idx, (x, y, rad) in enumerate(zip(cx.tolist(), cy.tolist(), r.tolist())):
        color = np.array(palette[idx % len(palette)], dtype=np.float64)
        dist = np.hypot(xs[None, :] - x, ys[:, None] - y)
        fill = dist <= rad
        img[fill] = 0.65 * img[fill] + 0.35 * color
        edge = np.abs(dist - rad) <= cell
        img[edge] = 0.55 * color
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def _difference_disks(c):
    return difference_cover(generate_pieces(Parameter(c), 1, 64).disks)


def _seeded_disks():
    rng = np.random.default_rng(23)
    return Disks(rng.uniform(-2, 2, 12) + 1j * rng.uniform(-2, 2, 12), rng.uniform(0.0, 1.0, 12))


_RENDER_CASES = {
    "difference c=5": (lambda: _difference_disks(5.0), 0.04),
    "difference c=-5": (lambda: _difference_disks(-5.0), 0.05),
    "difference c=2.5i": (lambda: _difference_disks(2.5j), 0.03),
    "seeded": (_seeded_disks, 0.02),
    "zero radii": (lambda: Disks([0.21 + 0.4j, -1.0], [0.0, 0.0]), 0.01),
    "far apart": (lambda: Disks([-6.0 + 2j, 5.0 - 4j], [0.5, 1.7]), 0.03),
    "two disks": (lambda: Disks([0j, 1 + 1j], [1.0, 0.5]), 0.01),
    "axes through pixel centers": (lambda: Disks([0j], [1.0]), 0.1),
}


# the default render strips of 2^16 pixels over disk windows walked in
# strips of the budget, and strips of 7 pixels over strips of 7 cells,
# one row each
@pytest.mark.parametrize("strip", [1 << 16, 7])
@pytest.mark.parametrize("name", sorted(_RENDER_CASES))
def test_render_disks_equals_the_whole_image_render(name, strip, monkeypatch):
    monkeypatch.setattr(images, "_STRIP_BYTES", strip << 4)
    monkeypatch.setattr(raster, "_BUDGET", min(strip, raster._BUDGET))
    build, cell = _RENDER_CASES[name]
    disks = build()
    img = render_disks(disks, cell)
    ref = _whole_image_render(disks, cell)
    assert img.dtype == np.uint8 and img.shape == ref.shape
    assert img.tobytes() == ref.tobytes()


def test_render_disks_memory_is_its_image_plus_a_strip():
    # 1167 x 1167 pixels: 3.9 MiB of output, where one whole-image
    # float64 distance pass alone takes 10.4 MiB
    tracemalloc.start()
    try:
        img = render_disks(Disks([0j, 1 + 1j], [1.0, 0.5]), 0.003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert img.shape == (1167, 1167, 3)
    assert peak <= 16 << 20


@pytest.mark.parametrize(
    "disks, cell",
    [(Disks([0j, 2 + 1j], [1.0, 0.5]), 3.5 / 900.0), (Disks([1j], [1e-5]), 1e-6)],
    ids=["spread", "floor"],
)
def test_render_disks_default_cell(disks, cell):
    # no cell: 1/900 of the wider side of the disks, at least 1e-6
    assert render_disks(disks).tobytes() == render_disks(disks, cell).tobytes()


def test_render_disks_pixel_cap():
    with pytest.raises(ValueError, match="cap|pixel"):
        render_disks(Disks([0j], [1.0]), 1e-5)


def _old_pgm(bits):
    h, w = bits.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + np.where(
        bits[::-1, :], np.uint8(255), np.uint8(0)
    ).tobytes()


def _old_ppm(pixels):
    h, w = pixels.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


@pytest.mark.parametrize(
    "budget, shape, fill",
    [
        (1 << 20, (1, 1), True),  # 1x1 mask
        (1 << 20, (1, 1), False),
        (64, (13, 10), None),  # 6 rows per strip: 13 is no multiple of it
        (64, (5, 100), None),  # a row above the budget: one row per strip
        (1 << 20, (3, (1 << 20) + 5), None),  # the same at the real budget
        (64, (13, 10), False),  # all-False mask
    ],
)
def test_streamed_writers_match_whole_image_bytes(tmp_path, monkeypatch, budget, shape, fill):
    monkeypatch.setattr(images, "_STRIP_BYTES", budget)
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    bits = rng.random(shape) < 0.4 if fill is None else np.full(shape, fill)
    m = GridMask(bits=bits, origin=0j, cell=1.0)
    assert write_pgm(m, tmp_path / "m.pgm").read_bytes() == _old_pgm(bits)
    assert np.array_equal(read_pgm(tmp_path / "m.pgm").bits, bits)
    pixels = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
    assert write_ppm(pixels, tmp_path / "m.ppm").read_bytes() == _old_ppm(pixels)


def test_pgm_pixels_of_a_strided_mask(tmp_path, monkeypatch):
    # write_pgm converts each strip through a uint8 view of the bools; a
    # mask that is a strided view of a larger array gives the same pixels
    monkeypatch.setattr(images, "_STRIP_BYTES", 100)
    bits = np.random.default_rng(43).random((90, 120)) < 0.5
    m = GridMask(bits=bits[::2, 1::3], origin=0j, cell=1.0)
    raw = write_pgm(m, tmp_path / "s.pgm").read_bytes()
    assert raw == b"P5\n40 45\n255\n" + np.where(m.bits[::-1], 255, 0).astype(np.uint8).tobytes()


def test_pgm_io_holds_one_strip(tmp_path):
    bits = np.zeros((4000, 4000), dtype=bool)
    bits[::3, 1::2] = True
    m = GridMask(bits=bits, origin=0j, cell=1.0)
    tracemalloc.start()
    try:
        write_pgm(m, tmp_path / "big.pgm")
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = read_pgm(tmp_path / "big.pgm")
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a strip is 1 MB; one whole-image copy would be 16 MB
    assert write_peak < 3 * (1 << 20)
    assert read_peak < bits.nbytes + 3 * (1 << 20)
    assert (tmp_path / "big.pgm").stat().st_size == 16_000_000 + len(b"P5\n4000 4000\n255\n")
    assert np.array_equal(back.bits, bits)
