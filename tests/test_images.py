"""PGM/PPM writers and the sidecar metadata."""

import json

import numpy as np
import pytest

from cantordiff import Disk, Disks, Parameter, disk_mask, rasterize_preimage
from cantordiff.images import read_pgm, render_disks, render_mask, write_pgm, write_ppm


def test_pgm_roundtrip(tmp_path, p5):
    m = rasterize_preimage(p5, 1, 0.05)
    path = write_pgm(m, tmp_path / "m.pgm", extra={"depth": 1})
    back = read_pgm(path)
    assert back.cell == m.cell
    assert back.origin == m.origin
    assert np.array_equal(back.bits, m.bits)


def test_pgm_sidecar_schema(tmp_path):
    m = disk_mask(Disk(0j, 1.0), 0.1)
    path = write_pgm(m, tmp_path / "d.pgm")
    meta = json.loads((tmp_path / "d.pgm.json").read_text())
    assert meta["schema"] == "cantordiff-mask/1"
    assert meta["cell"] == 0.1
    assert meta["height"] == m.height and meta["width"] == m.width


def test_pgm_bytes_deterministic(tmp_path):
    m = disk_mask(Disk(0.5 + 0.5j, 0.8), 0.05)
    p1 = write_pgm(m, tmp_path / "a.pgm")
    p2 = write_pgm(m, tmp_path / "b.pgm")
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.pgm.json").read_text() == (tmp_path / "b.pgm.json").read_text()


def test_pgm_image_row_order(tmp_path):
    # bottom raster row must land at the bottom of the image (P5 stores
    # top row first, so the bits are flipped on write)
    bits = np.zeros((2, 3), dtype=bool)
    bits[0, 0] = True
    from cantordiff import GridMask

    m = GridMask(bits=bits, origin=0j, cell=1.0)
    path = write_pgm(m, tmp_path / "r.pgm")
    raw = path.read_bytes()
    pix = raw[-6:]
    assert pix[3] == 255 and pix[4] == 0 and pix[5] == 0


def test_render_mask_shape():
    m = disk_mask(Disk(0j, 1.0), 0.1)
    img = render_mask(m)
    assert img.shape == (m.height, m.width, 3)
    assert img.dtype == np.uint8


def test_render_disks_and_ppm(tmp_path):
    img = render_disks(Disks([0j, 2 + 1j], [1.0, 0.5]), 0.05)
    assert img.ndim == 3 and img.shape[2] == 3
    path = write_ppm(img, tmp_path / "d.ppm")
    raw = path.read_bytes()
    assert raw.startswith(b"P6")


def test_render_disks_pixel_cap():
    with pytest.raises(ValueError, match="cap|pixel"):
        render_disks(Disks([0j], [1.0]), 1e-5)
