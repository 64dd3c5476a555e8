"""Preimage rasters, mask differences and the deterministic sampler."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cantordiff import raster
from cantordiff import (
    Disks,
    GridMask,
    Parameter,
    difference_cover,
    disk_mask,
    forward_map,
    lcg_uniforms,
    mask_difference,
    piece_sample_tree,
    preimage_member,
    rasterize_preimage,
    sample_diff_check,
    union_grid_mask,
)
from cantordiff.images import render_disks
from cantordiff.verify import _shift_or

# area of the depth-1 preimage at c=5, from the change-of-variables
# integral over the starting disk (mpmath quadrature, both branches)
AREA_DEPTH1_C5 = 10.0


def test_depth0_is_starting_disk(p5):
    m = rasterize_preimage(p5, 0, 0.01)
    assert m.area == pytest.approx(math.pi * 25, rel=1e-2)


def test_depth1_area_analytic(p5):
    m = rasterize_preimage(p5, 1, 0.01)
    assert m.area == pytest.approx(AREA_DEPTH1_C5, rel=2e-2)


def test_member_matches_escape_test(p5):
    rng = np.random.default_rng(41)
    z = 6 * (rng.normal(size=500) + 1j * rng.normal(size=500))
    for depth in (0, 1, 3):
        got = preimage_member(z, p5, depth)
        w = z.copy()
        want = np.abs(w) <= 5.0
        for _ in range(depth):
            w = forward_map(np.where(want, w, 0), p5)
            want &= np.abs(w) <= 5.0
        assert np.array_equal(got, want)


def test_inner_mask_contains_piece_samples(p5):
    # piece samples sit on the ideal boundary; nudge toward the piece
    # center so inner-raster cell tests see true interior points
    from cantordiff import generate_pieces

    m = rasterize_preimage(p5, 2, 0.01)
    for samples in generate_pieces(p5, 1, samples=64).samples:
        mid = samples.mean()
        pulled = mid + (samples - mid) * 0.9
        assert np.all(preimage_member(pulled, p5, 2))
        ix = np.round((pulled.real - m.origin.real) / m.cell).astype(int)
        iy = np.round((pulled.imag - m.origin.imag) / m.cell).astype(int)
        inside = (ix >= 0) & (ix < m.width) & (iy >= 0) & (iy < m.height)
        assert inside.all()


def test_nested_depths(p5):
    m1 = rasterize_preimage(p5, 1, 0.05)
    m2 = rasterize_preimage(p5, 2, 0.05)
    s1 = set(np.round(m1.set_centers(), 9).tolist())
    s2 = set(np.round(m2.set_centers(), 9).tolist())
    assert s2 <= s1


def test_outer_contains_inner(p5):
    for depth in (0, 1, 2):
        inner = rasterize_preimage(p5, depth, 0.05)
        outer = rasterize_preimage(p5, depth, 0.05, mode="outer")
        si = set(np.round(inner.set_centers(), 9).tolist())
        so = set(np.round(outer.set_centers(), 9).tolist())
        assert si <= so
        assert inner.area <= outer.area


def test_disk_mask_area():
    m = disk_mask(Disks(0.3 + 0.2j, 1.0), 0.01)
    assert m.area == pytest.approx(math.pi, rel=5e-3)
    # inner rasterization: marked centers are genuinely inside
    pts = m.set_centers()
    assert np.abs(pts - (0.3 + 0.2j)).max() <= 1.0


def _all_cells(centers, radii, cell, grow, shift):
    # every disk tested on every cell of the documented window: the
    # grown disks' bounding box plus one spare cell a side, centers at
    # (k + 0.5 - shift) * cell
    cx, cy = centers.real, centers.imag
    kx = math.floor(float((cx - radii - grow).min()) / cell) - 1
    ky = math.floor(float((cy - radii - grow).min()) / cell) - 1
    nx = math.ceil(float((cx + radii + grow).max()) / cell) + 1 - kx + 1
    ny = math.ceil(float((cy + radii + grow).max()) / cell) + 1 - ky + 1
    xs = (np.arange(kx, kx + nx, dtype=np.float64) + (0.5 - shift)) * cell
    ys = (np.arange(ky, ky + ny, dtype=np.float64) + (0.5 - shift)) * cell
    inside = np.zeros((ny, nx), dtype=bool)
    for x, y, rr in zip(cx, cy, radii + grow):
        inside |= (xs[None, :] - x) ** 2 + (ys[:, None] - y) ** 2 <= rr * rr
    return inside, complex((kx - shift) * cell, (ky - shift) * cell)


_DISK_SETS = {
    "one disk": lambda rng: (np.array([0.3 - 0.7j]), np.array([1.3])),
    "zero radius": lambda rng: (np.array([0.21 + 0.4j, -1.0]), np.array([0.0, 0.0])),
    "far apart": lambda rng: (np.array([-6.0 + 2j, 5.0 - 4j]), np.array([0.5, 1.7])),
    "seeded": lambda rng: (
        rng.uniform(-2, 2, 9) + 1j * rng.uniform(-2, 2, 9), rng.uniform(0.0, 1.5, 9)
    ),
}


# strips of 2^16 cells hold these windows whole, the budget's cut the
# larger ones, and strips of 7 cells are one row each
@pytest.mark.parametrize("strip", [1 << 16, raster._BUDGET, 7])
@pytest.mark.parametrize("cell", [0.013, 0.05, 0.1 / 3, 0.37])
@pytest.mark.parametrize("name", sorted(_DISK_SETS))
def test_disk_rasters_equal_the_all_cells_test(name, cell, strip, monkeypatch):
    monkeypatch.setattr(raster, "_BUDGET", strip)
    centers, radii = _DISK_SETS[name](np.random.default_rng(17))
    union = union_grid_mask(Disks(centers, radii), cell)
    bits, origin = _all_cells(centers, radii, cell, cell * math.sqrt(2.0) / 2.0, 0.5)
    assert union.origin == origin and union.mode == "union"
    assert union.bits.shape == bits.shape and np.array_equal(union.bits, bits)
    for align, shift in (("half", 0.0), ("integer", 0.5)):
        # each disk alone, then all of them at once
        for c, r in [*zip(centers[:, None], radii[:, None]), (centers, radii)]:
            m = disk_mask(Disks(c, r), cell, align)
            bits, origin = _all_cells(c, r, cell, 0.0, shift)
            assert m.origin == origin and m.mode == "disk"
            assert m.bits.shape == bits.shape and np.array_equal(m.bits, bits)


def test_disk_mask_obeys_the_cell_cap(monkeypatch):
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", "10000")
    # 203 x 203 cells: the unit disk's 200 cells a side plus one spare
    # cell on each side and the fencepost
    with pytest.raises(ValueError, match="disk mask cells: 41209 needed"):
        disk_mask(Disks(0j, 1.0), 0.01)


def test_disk_mask_memory_is_its_bits_plus_a_strip():
    # 2003 x 2003 cells: 4 MB of bits, where whole-window float64
    # temporaries would take 32 MB each
    tracemalloc.start()
    try:
        m = disk_mask(Disks(0j, 1.0), 0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.bits.shape == (2003, 2003)
    assert peak <= 8 << 20


def test_mask_difference_of_disks_is_difference_disk():
    a = disk_mask(Disks(1 + 1j, 0.8), 0.02)
    b = disk_mask(Disks(-0.5j, 0.6), 0.02)
    d = mask_difference(a, b)
    pts = d.set_centers()
    assert np.abs(pts - (1 + 1j - (-0.5j))).max() <= 1.4 + 1e-9


def test_mask_difference_of_disks_equals_shift_or():
    # the direct reference is verify's shift-and-OR oracle
    a = disk_mask(Disks(0.4 - 0.3j, 1.1), 0.05)
    b = disk_mask(Disks(-0.2 + 0.9j, 0.7), 0.05)
    d1 = _shift_or(a, b)
    d2 = mask_difference(a, b)
    assert d1.origin == d2.origin and d1.cell == d2.cell
    assert np.array_equal(d1.bits, d2.bits)


def _assert_matches_direct(a, b):
    direct = _shift_or(a, b)
    runs = mask_difference(a, b)
    assert runs.origin == direct.origin and runs.cell == direct.cell
    assert runs.bits.shape == direct.bits.shape
    assert np.array_equal(runs.bits, direct.bits)
    return runs


def _mask(bits, origin=0j):
    return GridMask(origin=origin, cell=0.05, bits=np.asarray(bits, dtype=bool))


def test_mask_difference_self_difference_equals_shift_or(p5):
    # the same GridMask twice (as oracle and verify pass it) and a copy of
    # its bits must give the same difference
    m = rasterize_preimage(p5, 2, 0.05)
    same = _assert_matches_direct(m, m)
    copy = mask_difference(m, _mask(m.bits.copy(), m.origin))
    assert np.array_equal(same.bits, copy.bits)
    d = disk_mask(Disks(0.3 - 0.1j, 0.4), 0.05)
    _assert_matches_direct(d, d)


def test_mask_difference_cells_on_window_edges_equal_shift_or():
    rng = np.random.default_rng(43)
    for _ in range(6):
        h, w = (int(v) for v in rng.integers(3, 30, size=2))
        bits = rng.random((h, w)) < 0.1
        # one set cell on each of the four edges, away from the corners
        bits[0, rng.integers(w)] = bits[-1, rng.integers(w)] = True
        bits[rng.integers(h), 0] = bits[rng.integers(h), -1] = True
        corners = np.zeros((h + 2, w + 1), dtype=bool)
        corners[[0, 0, -1, -1], [0, -1, 0, -1]] = True
        a, b = _mask(bits), _mask(corners, 0.2 - 0.35j)
        _assert_matches_direct(a, a)
        _assert_matches_direct(a, b)
        _assert_matches_direct(b, a)


def test_mask_difference_single_cell_equals_shift_or():
    one = np.zeros((5, 7), dtype=bool)
    one[2, 3] = True
    other = np.zeros((4, 4), dtype=bool)
    other[3, 0] = True
    a, b = _mask(one), _mask(other, 1 + 1j)
    assert np.count_nonzero(_assert_matches_direct(a, a).bits) == 1
    assert np.count_nonzero(_assert_matches_direct(a, b).bits) == 1
    _assert_matches_direct(b, a)


def test_mask_difference_empty_masks_equal_shift_or():
    full = _mask(np.ones((4, 6)))
    empty = _mask(np.zeros((5, 3)))
    for a, b in ((empty, full), (full, empty), (empty, empty)):
        out = _assert_matches_direct(a, b)
        assert not out.bits.any()


def test_mask_difference_shape_parity_equals_shift_or():
    rng = np.random.default_rng(47)
    shapes = [(7, 8), (8, 7), (9, 9), (10, 10), (1, 6), (6, 1)]
    for sa in shapes:
        a = _mask(rng.random(sa) < 0.3)
        _assert_matches_direct(a, a)
        for sb in shapes:
            _assert_matches_direct(a, _mask(rng.random(sb) < 0.3, -0.5j))


def _checkerboard(h, w):
    return (np.add.outer(np.arange(h), np.arange(w)) % 2).astype(bool)


def test_mask_difference_random_shapes_and_densities():
    rng = np.random.default_rng(53)
    fixed = [
        np.ones((1, 1)),
        np.ones((1, 9)),
        np.ones((8, 1)),
        np.ones((5, 6)),
        _checkerboard(7, 9),
        _checkerboard(1, 10),
        ~_checkerboard(6, 1),
    ]
    masks = [_mask(bits) for bits in fixed]
    for _ in range(12):
        h, w = (int(v) for v in rng.integers(1, 25, size=2))
        masks.append(_mask(rng.random((h, w)) < rng.choice([0.05, 0.3, 0.7, 0.95])))
    for i, a in enumerate(masks):
        _assert_matches_direct(a, a)
        for b in masks[i + 1 :: 3]:
            _assert_matches_direct(a, b)
            _assert_matches_direct(b, a)


def test_mask_difference_runs_end_in_last_column():
    rng = np.random.default_rng(59)
    for _ in range(8):
        h, w = (int(v) for v in rng.integers(2, 20, size=2))
        bits = rng.random((h, w)) < 0.4
        # every row ends in a run through the last column, of length 1..w
        for row, start in enumerate(rng.integers(0, w, size=h)):
            bits[row, start:] = True
        other = rng.random((int(rng.integers(1, 9)), w)) < 0.5
        other[:, -1] = True
        a, b = _mask(bits), _mask(other, 0.3j)
        _assert_matches_direct(a, a)
        _assert_matches_direct(a, b)
        _assert_matches_direct(b, a)


@pytest.mark.parametrize("chunk", [1, 7])
def test_mask_difference_chunks_of_run_pairs(monkeypatch, chunk):
    # many run pairs through tiny chunks, including a partial last one
    monkeypatch.setattr(raster, "_BUDGET", chunk)
    rng = np.random.default_rng(61)
    a = _mask(rng.random((13, 17)) < 0.4)
    b = _mask(rng.random((9, 11)) < 0.4, 1 - 1j)
    _assert_matches_direct(a, b)
    _assert_matches_direct(b, a)
    _assert_matches_direct(_mask(_checkerboard(6, 8)), a)


def test_mask_difference_holds_one_window(p5):
    # oracle-fine's self-difference: beyond the 6.4 MB output window only
    # the edge array of the cropped block and one chunk of run pairs live
    inner = rasterize_preimage(p5, 3, 0.005)
    h, w = 2 * inner.height - 1, 2 * inner.width - 1
    tracemalloc.start()
    try:
        out = mask_difference(inner, inner)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.bits.shape == (h, w)
    assert peak < h * w + 6 * (1 << 20)


def test_mask_self_difference_symmetric(p5):
    m = rasterize_preimage(p5, 1, 0.05)
    d = mask_difference(m, m)
    assert np.array_equal(d.bits, d.bits[::-1, ::-1])
    # zero offset is always attained
    iy = int(round((0 - d.origin.imag) / d.cell))
    ix = int(round((0 - d.origin.real) / d.cell))
    assert bool(d.bits[iy, ix])


def test_mask_difference_antisymmetry():
    a = disk_mask(Disks(0.7 + 0j, 0.9), 0.05)
    b = disk_mask(Disks(0 + 0.4j, 0.5), 0.05)
    ab = mask_difference(a, b)
    ba = mask_difference(b, a)
    assert np.array_equal(ab.bits, ba.bits[::-1, ::-1])


def test_mask_difference_rejects_mixed_cells():
    a = disk_mask(Disks(0j, 1.0), 0.05)
    b = disk_mask(Disks(0j, 1.0), 0.04)
    with pytest.raises(ValueError, match="cell"):
        mask_difference(a, b)


def test_raster_cap(p5, monkeypatch):
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", "10000")
    with pytest.raises(ValueError, match="cap"):
        rasterize_preimage(p5, 1, 1e-4)


# each capped allocation at a size of a few hundred units, far inside its
# built-in default
_CAPPED = {
    "sample tree": lambda p: piece_sample_tree(p, 1, samples=64),
    "difference disks": lambda p: difference_cover(Disks(np.arange(20.0), np.full(20, 0.1))),
    "union grid": lambda p: union_grid_mask(Disks([0j], [1.0]), 0.1),
    "disk mask": lambda p: disk_mask(Disks(0j, 1.0), 0.1),
    "raster": lambda p: rasterize_preimage(p, 1, 0.5),
    "render": lambda p: render_disks(Disks([0j], [1.0]), 0.1),
    "difference samples": lambda p: sample_diff_check(Disks(0j, 1.0), Disks(1.0, 0.5), 1000, 7),
    "difference window": lambda p: mask_difference(
        _mask(np.eye(8, dtype=bool)), _mask(np.eye(8, dtype=bool))
    ),
}


@pytest.mark.parametrize("name", sorted(_CAPPED))
def test_every_capped_allocation_obeys_the_env_cap(name, p5, monkeypatch):
    monkeypatch.delenv("CANTORDIFF_MEMORY_CAP", raising=False)
    _CAPPED[name](p5)
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", "100")
    with pytest.raises(ValueError, match="exceeds the cap 100"):
        _CAPPED[name](p5)


def test_env_cap_replaces_the_default_and_is_validated(monkeypatch):
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", str(1 << 40))
    raster.check_cap("units", 1 << 30, 1)
    for text, message in (("abc", "must be an integer, got 'abc'"),
                          ("0", "must be positive, got 0"),
                          ("-5", "must be positive, got -5")):
        monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", text)
        with pytest.raises(ValueError, match=f"^CANTORDIFF_MEMORY_CAP {message}$"):
            raster.check_cap("units", 1, 10)


@pytest.mark.parametrize(
    "c",
    [
        5.0,
        -5.0,
        2.5j,
        3 + 4j,
        2.05 * np.exp(3j),
        1e7,
        2 + 1e-9,
        2.05 * np.exp(1j * np.pi),
        4.7 * np.exp(2j),
        1e300,
    ],
)
def test_raster_equals_cell_by_cell_tests(c):
    # the raster skips the blocks certified empty, fills the rest of the
    # upper half and mirrors it; the plain forms test every cell of the
    # wide window of half-side |c| + cell, which the raster's box crops.
    # The wide nhalf is 41 and 96: 41 and the width 82 are not
    # multiples of the 16-cell block (partial blocks on both axes), 96 is
    p = Parameter(c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cell in (p.abs_c / 40.0, p.abs_c / 95.0):
            coords = _scan_axis(p, 0, cell)
            for depth in range(7):
                for mode in ("inner", "outer"):
                    _assert_crop(p, depth, cell, mode, _cell_by_cell(p, depth, cell, mode, coords))


def _scan_axis(p, depth, cell):
    # the cell centers along one axis of the raster's scan window; the
    # depth-0 one, of half-side |c| + cell, holds those of every depth
    nhalf = math.ceil(((raster._radii(p)[1] if depth else p.abs_c) + cell) / cell)
    return (np.arange(2 * nhalf) - nhalf + 0.5) * cell


def _cell_by_cell(p, depth, cell, mode, coords):
    # the raster's test on every cell of the square over coords, the
    # outer one at a side of one cell
    if mode == "inner":
        return preimage_member(coords[None, :] + 1j * coords[:, None], p, depth)
    thresholds, pad = raster._thresholds(p, depth, cell)
    return raster._live_blocks(coords, coords, 1, pad, p, thresholds)


def _assert_crop(p, depth, cell, mode, want):
    # want is the test on every cell of a window centered on 0 that holds
    # the raster's scan window: half-side |c| + cell at depth 0, the
    # rounded-up sqrt(2|c|) + cell after.  The raster spans a box
    # symmetric about 0 inside the scan window; the bits agree on the box
    # and want sets none outside it; returns the raster
    m = rasterize_preimage(p, depth, cell, mode)
    scan = _scan_axis(p, depth, cell).size
    (h, w), where = m.bits.shape, (cell, depth, mode)
    assert h % 2 == 0 and w % 2 == 0 and max(h, w) <= scan, where
    assert m.origin == complex(-w // 2 * cell, -h // 2 * cell), where
    assert want.shape[0] >= scan if depth else want.shape[0] == scan, where
    ky, kx = (want.shape[0] - h) // 2, (want.shape[1] - w) // 2
    inside = want[ky : ky + h, kx : kx + w]
    assert np.array_equal(m.bits, inside), where
    assert np.count_nonzero(inside) == np.count_nonzero(want), where
    return m


@pytest.mark.parametrize("seed", range(6))
def test_raster_equals_the_scan_window_test_cropped(seed):
    # a small parameter fuzz: the reference tests every cell of the scan
    # window itself, which the raster's box crops.  The inner and outer
    # rasters of one call come from one block pass, so share one box
    rng = np.random.default_rng(seed)
    for _ in range(3):
        p = Parameter(rng.uniform(2.05, 40.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
        for depth in range(4):
            cell = (raster._radii(p)[1] if depth else p.abs_c) / rng.uniform(8.0, 120.0)
            coords = _scan_axis(p, depth, cell)
            inner, outer = (
                _assert_crop(p, depth, cell, mode, _cell_by_cell(p, depth, cell, mode, coords))
                for mode in ("inner", "outer")
            )
            assert (inner.origin, inner.bits.shape) == (outer.origin, outer.bits.shape)


def test_inner_raster_spans_the_outer_box_at_c_minus_5():
    # oracle-fine's configuration at c = -5: a block pass of the inner
    # raster's own, at |c| on every step, kept a box of 52 x 1164 cells
    p = Parameter(-5.0)
    for mode in ("inner", "outer"):
        m = rasterize_preimage(p, 3, 0.005, mode)
        assert m.bits.shape == (52, 1140), mode
        assert m.origin == complex(-570 * 0.005, -26 * 0.005), mode


def test_raster_with_no_live_block_is_two_by_two(p5, monkeypatch):
    # no parameter the tests sweep leaves every block of the scan window
    # ruled out, so the block test is made to rule them all out
    real = raster._live_blocks
    monkeypatch.setattr(raster, "_live_blocks", lambda *args: np.zeros_like(real(*args)))
    for mode in ("inner", "outer"):
        m = rasterize_preimage(p5, 2, 0.05, mode)
        assert m.bits.shape == (2, 2) and not m.bits.any()
        assert m.origin == complex(-0.05, -0.05)
        d = mask_difference(m, m)
        assert d.bits.shape == (3, 3) and not d.bits.any()
        assert d.origin == pytest.approx(complex(-0.075, -0.075))


def test_empty_raster_at_a_large_modulus():
    # at |c| = 1e8 and cell 500 a depth-2 piece is about 0.5 across: no
    # cell center lies in one, yet the blocks around them stay live
    p = Parameter(1e8)
    m = rasterize_preimage(p, 2, 500.0)
    assert m.cells == 0 and m.bits.shape == (60, 36)
    assert m.origin == complex(-9000.0, -15000.0)
    d = mask_difference(m, m)
    assert d.bits.shape == (119, 71) and not d.bits.any()
    _assert_crop(p, 2, 500.0, "inner", _cell_by_cell(p, 2, 500.0, "inner", _scan_axis(p, 2, 500.0)))


def _flip_cell(p, j, keeps):
    # the cells lo < hi, a few ulps apart, between which keeps(j, cell)
    # turns False: a bisection on the cell, which moves the tested
    # center, (j + 1/2)cell out along the tip's axis, outward as it grows
    lo, hi = 0.5 * p.abs_c / (j + 0.5), 2.0 * p.abs_c / (j + 0.5)
    assert keeps(j, lo) and not keeps(j, hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if keeps(j, mid) else (lo, mid)
    return lo, hi


@pytest.mark.parametrize("c", [-5.0, -2.05, 5.0])
def test_window_holds_the_cells_at_the_preimage_tip(c):
    # the depth-1 preimage reaches |z| = sqrt(2|c|) at z^2 = -2c, since
    # |-2c + c| = |c|: the tip of both rasters, on the real axis at c < 0
    # and at +-i*sqrt(10) at c = 5.  Cells that put a center within a few
    # ulps of the tip, or of either test's verdict there, must leave the
    # raster's window holding every bit the wide window sets
    p = Parameter(c)

    def center(j, cell):
        # (j + 1/2)cell out along the tip's axis and cell/2 across it
        along, across = (j + 0.5) * cell, 0.5 * cell
        return (across, along) if c > 0 else (along, across)

    def inner(j, cell):
        return bool(preimage_member(complex(*center(j, cell)), p, 1))

    def outer(j, cell):  # the one cell at center(j, cell)
        (x, y), (thresholds, pad) = center(j, cell), raster._thresholds(p, 1, cell)
        return bool(raster._live_blocks(np.array([x]), np.array([y]), 1, pad, p, thresholds)[0, 0])

    cells = []
    for j in (17, 40):
        cells.append(math.sqrt(2.0 * p.abs_c) / (j + 0.5))
        for keeps in (inner, outer):
            cells += _flip_cell(p, j, keeps)
    for cell in sorted({s * (1.0 + k * 2.0**-52) for s in cells for k in range(-3, 4)}):
        coords = _scan_axis(p, 0, cell)
        for depth in (1, 2):
            for mode in ("inner", "outer"):
                _assert_crop(p, depth, cell, mode, _cell_by_cell(p, depth, cell, mode, coords))


@pytest.mark.parametrize("mode", ["inner", "outer"])
def test_block_test_rules_out_most_of_the_window(p5, mode):
    # oracle-fine's rasters: if the margin ever stopped dropping blocks the
    # bits would not change, only the time, so pin the live share of the
    # one block pass, and that the raster in either mode sets bits only in
    # the blocks it leaves live
    cell, depth = 0.005, 3
    nhalf = math.ceil((raster._radii(p5)[1] + cell) / cell)
    coords = (np.arange(2 * nhalf) - nhalf + 0.5) * cell
    thresholds, pad = raster._thresholds(p5, depth, cell)
    live = raster._live_blocks(coords, coords[:nhalf], 16, pad, p5, thresholds)
    assert live.shape == (math.ceil(nhalf / 16), math.ceil(2 * nhalf / 16))
    assert 0 < live.sum() * 16 * 16 < 0.05 * nhalf * 2 * nhalf
    m = rasterize_preimage(p5, depth, cell, mode)
    h, w = m.height // 2, m.width // 2
    iy, ix = np.nonzero(m.bits[:h])
    assert iy.size > 0
    assert live[(iy + nhalf - h) // 16, (ix + nhalf - w) // 16].all()


def _exact_escapes(c: complex, depth: int, points) -> bool:
    # |Q^depth(p)|^2 > |c|^2 in exact rational arithmetic, p = (x, y)
    cr, ci = Fraction(c.real), Fraction(c.imag)
    bound = cr * cr + ci * ci
    for x, y in points:
        for _ in range(depth):
            x, y = x * x - y * y + cr, 2 * x * y + ci
        if not x * x + y * y > bound:
            return False
    return True


@pytest.mark.parametrize("c", [5.0, 2.5j, 3 + 4j])
def test_outer_cells_dropped_next_to_kept_ones_hold_no_preimage_point(c):
    # |c| is exact at these parameters.  The dropped cells that border a
    # kept one are those nearest the preimage; the corners and the center
    # of each, exact multiples of the cell size, must escape exactly
    p = Parameter(c)
    cell = 0.05
    for depth in (1, 2, 3):
        m = rasterize_preimage(p, depth, cell, "outer")
        # the raster's box and a ring of one cell around it, whose cells
        # the block test dropped; the box is symmetric about 0
        kept = np.pad(m.bits, 2)
        near = np.zeros_like(kept)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                near |= np.roll(kept, (dy, dx), axis=(0, 1))
        iy, ix = np.nonzero((near & ~kept)[1:-1, 1:-1])
        assert iy.size > 100
        h = Fraction(cell)
        points = set()
        for j, i in zip((iy - 1 - m.height // 2).tolist(), (ix - 1 - m.width // 2).tolist()):
            points |= {(i * h, j * h), ((i + 1) * h, j * h), (i * h, (j + 1) * h),
                       ((i + 1) * h, (j + 1) * h), ((2 * i + 1) * h / 2, (2 * j + 1) * h / 2)}
        assert _exact_escapes(p.c, depth, points), depth


def test_piece_samples_lie_in_outer_cells():
    # the samples of the depth-(n - 1) pieces lie on the boundary of the
    # depth-n preimage, so the cells that hold them must be kept
    from cantordiff import generate_pieces

    for c in (5.0, 2.5j, 3 + 4j, 2.2):
        p = Parameter(c)
        for depth in (1, 3, 5):
            m = rasterize_preimage(p, depth, 0.01, "outer")
            z = generate_pieces(p, depth - 1, samples=2048).samples.ravel()
            ix = np.floor((z.real - m.origin.real) / m.cell).astype(int)
            iy = np.floor((z.imag - m.origin.imag) / m.cell).astype(int)
            assert m.bits[iy, ix].all(), (c, depth)


def test_outer_raster_is_tight_at_depth_4(p5):
    # a superset that stopped dropping cells would pass every containment
    # test, so pin how tight the outer raster is
    assert rasterize_preimage(p5, 4, 0.01, "outer").area < 0.03


def test_raster_orbit_overflow_is_silent():
    # at c = 1e300 orbits overflow to inf or NaN; they fail the threshold
    # test and drop out without a RuntimeWarning
    p = Parameter(1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inner, outer = [rasterize_preimage(p, 2, 1e298, mode) for mode in ("inner", "outer")]
    assert not np.any(inner.bits & ~outer.bits)


def test_lcg_matches_scalar_reference():
    # MMIX constants, 53-bit mantissa from the top bits
    def scalar(seed, count):
        s = seed & (2**64 - 1)
        out = []
        for _ in range(count):
            s = (s * 6364136223846793005 + 1442695040888963407) % 2**64
            out.append((s >> 11) * 2.0**-53)
        return out

    got = lcg_uniforms(20260816, 300)
    assert got.tolist() == scalar(20260816, 300)
    assert np.array_equal(lcg_uniforms(7, 1000), lcg_uniforms(7, 1000))
    assert 0.0 <= got.min() and got.max() < 1.0


def test_lcg_coeff_table_matches_scalar_recurrence():
    # counts inside one block and on both sides of each block edge
    chunk = raster._BUDGET
    for count in (0, 1, 5, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        s, want = 987654321, []
        for _ in range(count):
            s = (s * 6364136223846793005 + 1442695040888963407) % 2**64
            want.append((s >> 11) * 2.0**-53)
        got = lcg_uniforms(987654321, count)
        assert got.dtype == np.float64
        assert got.tolist() == want, count


def test_sample_diff_check_reads_one_stream():
    # 20000 pairs take 13 rejection rounds; together they must read one
    # unbroken stream, the same as accepting over a single long draw
    d2, d1 = Disks(2 + 1j, 1.0), Disks(-1j, 1.0)
    u = lcg_uniforms(5, 240_000)
    cand = (2.0 * u[0::2] - 1.0) + 1j * (2.0 * u[1::2] - 1.0)
    unit = cand[cand.real**2 + cand.imag**2 <= 1.0][:40_000]
    assert unit.size == 40_000
    x = (2 + 1j) + 1.0 * unit[0::2]
    y = -1j + 1.0 * unit[1::2]
    want = float(np.abs((x - y) - (2 + 2j)).max())
    assert sample_diff_check(d2, d1, 20_000, seed=5) == want


def _scalar_diff_check(c2, r2, c1, r1, count, seed):
    # the scalar LCG recurrence, rejection pair by pair, and the points in
    # Python complex arithmetic; only the final modulus is numpy's
    s, unit = seed & (2**64 - 1), []
    while len(unit) < 2 * count:
        u = []
        for _ in range(2):
            s = (s * 6364136223846793005 + 1442695040888963407) % 2**64
            u.append((s >> 11) * 2.0**-53)
        x, y = 2.0 * u[0] - 1.0, 2.0 * u[1] - 1.0
        if x * x + y * y <= 1.0:
            unit.append(complex(x, y))
    dev = [
        (c2 + r2 * p) - (c1 + r1 * q) - (c2 - c1)
        for p, q in zip(unit[0::2], unit[1::2])
    ]
    return float(np.abs(np.array(dev)).max())


# at count 2000 the one full round accepts 3237 points, so the last x
# carries into a second round that holds its y
@pytest.mark.parametrize(
    "count, min_rounds", [(1000, 1), (2000, 2), (4321, 2), (20_000, 2), (33_333, 2)]
)
def test_sample_diff_check_equals_the_scalar_reference(count, min_rounds, monkeypatch):
    real, draws, accepted = raster._lcg_blocks, [], [0]

    def counted(seed):
        for block in real(seed):
            # counted before the sampler turns the block into candidates
            u = 2.0 * block - 1.0
            draws.append(block.size)
            accepted.append(accepted[-1] + int(np.count_nonzero(u[0::2] ** 2 + u[1::2] ** 2 <= 1.0)))
            yield block

    monkeypatch.setattr(raster, "_lcg_blocks", counted)
    pair = (0.3 - 1.7j, 1.25, -2.1 + 0.4j, 0.6)
    got = sample_diff_check(Disks(*pair[:2]), Disks(*pair[2:]), count, seed=count)
    assert got == _scalar_diff_check(*pair, count, count)
    # every round draws at most the budget; past one round, some round
    # ends on an odd accepted point, which carries into the next
    assert max(draws) <= raster._BUDGET and len(draws) >= min_rounds
    assert min_rounds == 1 or any(n % 2 for n in accepted[1:-1])


def test_sample_diff_check_builds_the_stride_tables_once(monkeypatch):
    # 20000 pairs take 13 rounds, all read from one stream
    real, calls = np.cumprod, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "cumprod", counted)
    sample_diff_check(Disks(2 + 1j, 1.0), Disks(-1j, 1.0), 20_000, seed=5)
    assert len(calls) == 1


def test_sample_diff_check_sup_below_radius():
    sup = sample_diff_check(Disks(2 + 1j, 1.0), Disks(-1j, 1.0), 20000, seed=3)
    assert sup <= 2.0 * (1 + 1e-12)
    assert sup > 1.5


def test_sample_diff_check_deterministic():
    a = sample_diff_check(Disks(1 + 1j, 0.5), Disks(0j, 0.5), 5000, seed=11)
    b = sample_diff_check(Disks(1 + 1j, 0.5), Disks(0j, 0.5), 5000, seed=11)
    assert a == b


def test_sample_diff_check_count_floor():
    with pytest.raises(ValueError):
        sample_diff_check(Disks(0j, 1.0), Disks(0j, 1.0), 10, seed=1)


@pytest.mark.parametrize("side", [0, 1])
def test_sample_diff_check_refuses_a_side_of_two_disks(side):
    pair = [Disks(0j, 1.0), Disks(1j, 0.5)]
    pair[side] = Disks([0j, 2.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="^need one disk a side, got [12] and [12]$"):
        sample_diff_check(*pair, 1000, seed=1)
