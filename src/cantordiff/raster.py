"""Brute-force raster oracles.

These are the independent cross-checks for the certified machinery: plain
grids over the plane and orbit iteration on every cell center that a
block test cannot rule out.  Nothing here feeds the certified bounds; the
oracles exist so every claim the bound machinery makes can be falsified
numerically at desk scale.

Conventions.  A GridMask stores one bit per cell; bits[iy, ix] covers the
square of side `cell` whose center is origin + (ix + 0.5 + (iy + 0.5)i) *
cell (origin is the lower-left corner of the window).  Preimage rasters
are centered on 0, so their cell centers sit on half-integer multiples of
the cell size; difference masks of two such rasters then land on integer
multiples, the same lattice the union grid uses, which is what makes the
two estimates comparable cell for cell.  The union grid and
images.render_disks walk each disk's own cells in row strips with one
walker, _disk_windows.  Mask differences have one implementation, exact
integer sums over pairs of row runs.  Every blocked pass here, the
disk-window strips and the run pairs of a mask difference, holds at most
_BUDGET = 2^13 elements a block, the geometry module's one budget.

The block test.  _live_blocks rules out a square of side x side cells at
once.  It runs the float orbit b~_0 = b, b~_{k+1} = fl(b~_k * b~_k + c)
from the square's float midpoint b and carries a bound D_k on the
distance from b~_k to the orbit of every point the square stands for:
at any pad >= 0 the float orbits p~_k of its float cell centers, the
orbits that preimage_member runs; with pad at least the half diagonal
also the exact orbits Q^k(p) of every point p of its cells.  With
u = 2^-53 and a_k = fl|b~_k|:

  * D_0 = (h + pad + 2u*a_0) * (1 + 8u), with h the hypot of the half
    widths measured on the float corner centers.  b is off their exact
    midpoint m by at most u|m|, every float center q~ lies within the
    exact h of m, a cell's exact center q is off q~ by at most u|q| (one
    rounded product per axis), and |m| <= (1 + 3.01u)*a_0 (np.hypot is
    within 2u).  So a float center lies within h + 1.01u*a_0 of b, and a
    point p within h(1 + 1.01u) + pad + 2u*a_0 + 7.1u^2*a_0.
    The computed h rounds down by a factor of at most 1 + 3u and D_0's
    three roundings by (1 + u)^3, so D_0 >= (h + pad + 2u*a_0)(1 + 1.9u)
    covers both while 1.9u*pad >= 3.3u^2*a_0, that is while the window
    is under 2^51 cells wide (its bits alone would need 2^102 bytes).
  * One orbit step of numpy's w*w + c, rounded to nearest, errs by at
    most 4u(|w|^2 + |c|).  Each component of the square is two rounded
    products and a rounded sum (or a fused multiply-add), off by at most
    (2u + u^2)|w|^2, so the square is off by at most 2*sqrt(2)*u|w|^2 +
    O(u^2); adding c rounds each component once more, by u times the
    modulus of the sum at most, which is u(|w|^2 + |c|) + O(u^2).
    Underflow errs by at most 2^-1074 absolute per operation, far below
    u|c| since |c| > 2.  As p~_{k+1} - b~_{k+1} = (p~_k - b~_k)(p~_k +
    b~_k) plus the rounding of both steps, and |p~_k| <= |b~_k| + D_k,

        D_{k+1} = (2*a_k + D_k)*D_k + KAPPA*u*((a_k + D_k)^2 + a_k^2 + 2|c|)

    holds with KAPPA = 16.  Of it, 4 covers the rounding of the two orbit
    steps (an exact step Q^k(p) -> Q^{k+1}(p) adds none); 2 covers using
    a_k in the first term, since a_k may lie below |b~_k| by 2u relative,
    and 4u*a_k*D_k <= 2u(a_k + D_k)^2; 3 covers the round-to-nearest
    evaluation of D_{k+1} itself, whose first term is at most
    (a_k + D_k)^2.  The other 7 are slack for the O(u^2) terms.
  * At step k the square is certified empty once
    (a_k*(1 - 4u) - D_k)*(1 - 4u) > thr_k in float.  Each of the three
    roundings of that expression errs upward by at most u relative, and
    a_k <= (1 + 2u)|b~_k|, so it exceeds thr_k only if |b~_k| - D_k >
    thr_k / (1 - 2u).  Then |Q^k(p)| > thr_k, and fl|p~_k| >= (1 -
    2u)|p~_k| >= (1 - 2u)(|b~_k| - D_k) > thr_k.  The bound needs every
    step before k finite, so a square whose orbit or margin reaches inf
    or NaN is kept and not iterated.

Both modes run one pass: the test at the half-diagonal pad tiles the
upper half of the window into squares of _BLOCK x _BLOCK cells and drops
those certified empty; at c = 5, depth 3 and cell 0.005, 36 of the 3,200
squares survive.  Mode "inner" runs preimage_member on the column runs
of the rest, with the bits of the cell-by-cell test (rasterize_preimage
proves that no dropped square holds one of its cells); mode "outer" runs
the block test at a side of one cell.  A point p of the depth-n preimage
has |Q^n(p)| <= |c|, and |Q^k(p)| <= sqrt(2|c|) for k < n, since |z|^2
<= |z^2 + c| + |c| and sqrt(2|c|) <= |c|.  _thresholds rounds both up,
so a dropped cell holds no preimage point: the outer raster is a
certified superset.  The same bound sizes the window the block test
scans at every depth n >= 1; the two rasters of one call span the one
box, symmetric about 0, over the blocks the pass keeps.  The outer
raster equals the side-one test on the whole window at every parameter
the tests sweep; that is not proven, as the two sides round differently.
Nothing here imports the bound or verify machinery.

Determinism.  A preimage raster is symmetric under z -> -z, exactly so
on its cell centers, so only its upper half is iterated and the lower
half is copied from it turned by half a turn.  The rasters are filled
serially: after the block test too little work is left to share between
threads.
"""
from __future__ import annotations

import math
import os
from collections import namedtuple

import numpy as np

from .geometry import _BUDGET, Disks, Parameter, forward_map

__all__ = [
    "GridMask",
    "preimage_member",
    "rasterize_preimage",
    "mask_difference",
    "DEFAULT_MAX_POINTS",
    "DEFAULT_MAX_PAIRS",
    "DEFAULT_MAX_CELLS",
]

# built-in caps: sampled points, difference-disk pairs, and the cells of
# any one raster or union grid
DEFAULT_MAX_POINTS = 1 << 24
DEFAULT_MAX_PAIRS = 1 << 20
DEFAULT_MAX_CELLS = 1 << 26
_ENV_CAP = "CANTORDIFF_MEMORY_CAP"

# a one of mask_difference's edge dtype, which np.add.at's fast path needs
_ONE = np.int32(1)

# cells per side of the blocks rasterize_preimage rules out whole, then
# the unit roundoff of float64 and the rounding constant of the block
# margin (derived in the module docstring)
_BLOCK = 16
_U = 2.0**-53
_KAPPA = 16.0


class GridMask(namedtuple("GridMask", "origin cell bits mode")):
    """Bit raster over an axis-aligned window of the plane; its area is
    its set-cell count times cell^2."""

    __slots__ = ()

    def __new__(cls, origin: complex, cell: float, bits: np.ndarray, mode: str = ""):
        if bits.dtype != np.bool_ or bits.ndim != 2:
            raise ValueError("bits must be a 2-d boolean array")
        check_cell(cell)
        bits.setflags(write=False)
        return super().__new__(cls, origin, cell, bits, mode)

    @classmethod
    def _make(cls, iterable):  # so _replace validates too
        return cls(*iterable)

    def __eq__(self, other):
        if not isinstance(other, GridMask):
            return NotImplemented
        return (
            self.origin == other.origin
            and self.cell == other.cell
            and self.mode == other.mode
            and bool(np.array_equal(self.bits, other.bits))  # shapes included
        )

    def __ne__(self, other):  # tuple's own would compare the bits cell by cell
        return not self == other

    @property
    def height(self) -> int:
        return int(self.bits.shape[0])

    @property
    def width(self) -> int:
        return int(self.bits.shape[1])

    @property
    def cells(self) -> int:
        return int(np.count_nonzero(self.bits))

    @property
    def area(self) -> float:
        return self.cells * self.cell * self.cell

    def center_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(xs, ys) coordinates of the cell centers along each axis."""
        xs = self.origin.real + (np.arange(self.width) + 0.5) * self.cell
        ys = self.origin.imag + (np.arange(self.height) + 0.5) * self.cell
        return xs, ys

    def set_centers(self) -> np.ndarray:
        """Complex centers of the set cells, row-major order."""
        xs, ys = self.center_axes()
        iy, ix = np.nonzero(self.bits)
        return xs[ix] + 1j * ys[iy]


def check_cell(cell: float) -> None:
    """Refuse a cell size that is not finite and positive."""
    if not (math.isfinite(cell) and cell > 0.0):
        raise ValueError(f"cell must be finite and > 0, got {cell!r}")


def check_cap(what: str, need: int, default: int) -> None:
    """Refuse an allocation of need units above the cap.

    The cap is CANTORDIFF_MEMORY_CAP, a positive integer, when it is set:
    it then replaces every built-in default.  Otherwise it is default.
    """
    text = os.environ.get(_ENV_CAP)
    limit = default
    if text is not None:
        try:
            limit = int(text)
        except ValueError:
            raise ValueError(f"{_ENV_CAP} must be an integer, got {text!r}") from None
        if limit <= 0:
            raise ValueError(f"{_ENV_CAP} must be positive, got {limit}")
    if need > limit:
        raise ValueError(
            f"{what}: {need} needed, which exceeds the cap {limit}; lower "
            "the depth, the sample count or the resolution"
        )


def preimage_member(z, param: Parameter, depth: int):
    """Exact center test: |Q^k(z)| <= |c| for every k = 0..depth.

    True exactly on the depth-fold preimage of the closed disk of radius
    |c| (depth 0 is the disk itself).  The preimages are nested, so
    testing every step equals testing the last and keeps intermediate
    values bounded.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    arr = np.asarray(z, dtype=np.complex128)
    # only survivors are iterated
    idx = np.flatnonzero(np.hypot(arr.real, arr.imag) <= param.abs_c)
    w = arr.ravel()[idx]
    for _ in range(depth):
        # an orbit that overflows to inf or NaN fails the test below
        with np.errstate(over="ignore", invalid="ignore"):
            w = forward_map(w, param)
        keep = np.hypot(w.real, w.imag) <= param.abs_c
        idx, w = idx[keep], w[keep]
    alive = np.zeros(arr.shape, dtype=bool)
    alive.flat[idx] = True
    if arr.ndim == 0:
        return bool(alive)
    return alive


def _radii(param: Parameter) -> tuple[float, float]:
    """(a, r1): |c| and sqrt(2|c|), each rounded up (abs(c) is within an
    ulp, and the square root rounds by at most half of one)."""
    a = math.nextafter(param.abs_c, math.inf)
    return a, math.nextafter(math.sqrt(2.0 * a), math.inf)


def _thresholds(param: Parameter, depth: int, cell: float) -> tuple[list[float], float]:
    """(thresholds, pad) of the block test, one threshold per orbit step:
    t = r1*(1 + 2^-48) before the last step, a at it, with (a, r1) of
    _radii, and the half diagonal rounded up (math.sqrt(0.5) rounds up).
    The factor on r1 is what lets one pass serve the inner raster too
    (rasterize_preimage)."""
    a, r1 = _radii(param)
    pad = math.nextafter(cell * math.sqrt(0.5), math.inf)
    return [r1 * (1.0 + 2.0**-48)] * depth + [a], pad


def _live_blocks(
    xs: np.ndarray, ys: np.ndarray, side: int, pad: float, param: Parameter, thresholds: list[float]
) -> np.ndarray:
    """Squares of side x side cells over the column and row centers xs and
    ys that the block test cannot rule out (module docstring).

    Entry [i, j] covers the rows [i, i + 1) * side and the columns
    [j, j + 1) * side, both clipped.  Only undecided squares are iterated.
    """

    def axis(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # float midpoints and half widths of the squares along one axis
        n = coords.size
        lo = coords[::side]
        hi = coords[np.minimum(np.arange(side, n + side, side), n) - 1]
        return (lo + hi) * 0.5, (hi - lo) * 0.5

    (bx, hx), (by, hy) = axis(xs), axis(ys)
    live = np.ones((by.size, bx.size), dtype=bool)
    shrink = 1.0 - 4.0 * _U
    with np.errstate(over="ignore", invalid="ignore"):
        b = (bx[None, :] + 1j * by[:, None]).ravel()
        a = np.hypot(b.real, b.imag)
        d = (np.hypot(hx[None, :], hy[:, None]).ravel() + pad + 2.0 * _U * a) * (1.0 + 8.0 * _U)
        idx = np.arange(b.size)
        for k, thr in enumerate(thresholds):
            if k:
                d = (2.0 * a + d) * d + _KAPPA * _U * ((a + d) ** 2 + a * a + 2.0 * param.abs_c)
                b = forward_map(b, param)
                a = np.hypot(b.real, b.imag)
            finite = np.isfinite(a)
            # a NaN or inf margin compares False and keeps its square
            out = finite & ((a * shrink - d) * shrink > thr)
            live.flat[idx[out]] = False
            keep = finite & ~out & np.isfinite(d)
            idx, b, a, d = idx[keep], b[keep], a[keep], d[keep]
            if not idx.size:
                break
    return live


def rasterize_preimage(param: Parameter, depth: int, cell: float, mode: str = "inner") -> GridMask:
    """Raster of the depth-fold preimage of the starting disk.

    Depth 0 is the starting disk itself; depth n marks (an approximation
    of) the set where |Q^k(z)| <= |c| for every k <= n.

    Both modes run one block pass and so span one box.  Mode "inner"
    runs preimage_member on the cell centers of the live blocks (every
    marked center is a true preimage point); mode "outer" marks every
    cell of them that the block test at a side of one cell cannot
    certify to lie outside, giving a certified superset of the preimage
    (module docstring).

    The block test scans the window, the square of half-side nhalf*cell,
    nhalf = ceil((r + cell)/cell), with r = abs(c) at depth 0 and r = r1
    of _radii, sqrt(2|c|) rounded up, at depth >= 1 (the module docstring
    bounds the depth-n preimage by it); the "raster cells" cap is on its
    cells.  The bits span only the box over the live blocks of its upper
    half and their half-turn images, widened to be symmetric about 0 (2 x
    2 cells around 0 when no block is live).  The cell centers are
    fl((j + 1/2)*cell) for integers j, the same doubles in any window,
    so the window and the box only crop the lattice.

    The inner bits are those of preimage_member on every cell.  The
    pass certifies, at any pad >= 0, fl|p~_k| > thr_k at some step k <=
    n = depth for the float orbit p~ of every float center in a dropped
    block, and that orbit is the one preimage_member runs.  With A =
    abs(c) and u = 2^-53:

      * At k = n, thr_n = a >= A, so preimage_member rejects the center
        at step n.
      * At k < n, thr_k = t = fl(r1(1 + 2^-48)) >= sqrt(2A)(1 + d) with
        d = 30u.  With w = p~_k, fl|w| > t gives |w| > sqrt(2A)(1 +
        d)(1 - 2u) (np.hypot is within 2u), |c| <= A(1 + 2u), and the
        step errs by at most 4u(|w|^2 + |c|) (module docstring), so
        fl|fl(w^2 + c)| >= A(1 + 4d - 24u) to first order in u, which
        exceeds A once d > 6u: preimage_member rejects the center at
        step k + 1 <= n.  The factor 2^-48 = 32u leaves slack.

    A larger threshold only weakens the cull, so the outer raster's
    certificate holds with t as well.  So neither mode sets a cell of
    the upper half outside the live blocks (in mode "outer" the
    side-one test runs only inside them); the lower half is their
    half-turn image.  Nor would either test mark a center outside the
    window, so the box holds every cell that the test would set
    anywhere on the lattice:

      * Outside.  The computed nhalf >= (r/cell + 1)(1 - 2u), so a
        center outside has a coordinate, and so a modulus, of at least
        fl((nhalf + 1/2)*cell) >= (r + 1.5*cell)(1 - 3u).
      * Inner.  An accepted center z has fl|z| <= A, so |z| <= A(1 + 3u)
        (np.hypot is within 2u).  At depth >= 1 also fl|w| <= A for w =
        fl(z^2 + c), which is within 4u(|z|^2 + |c|) of z^2 + c (module
        docstring), and |c| <= A(1 + 2u).  As |z|^2 <= |z^2 + c| + |c|,
        (1 - 4u)|z|^2 <= A(1 + 3u) + A(1 + 2u)(1 + 4u), so |z| <=
        sqrt(2A)(1 + 5u) <= r1(1 + 5u).  Either way |z| <= r(1 + 5u).
      * Outer.  A kept cell passed step 0, at the threshold t at depth
        >= 1 and A rounded up at depth 0, so t <= r(1 + 34u).  Its
        square is the cell, b its center, D_0 = (pad + 2u*a_0)(1 + 8u)
        with pad <= (1 + 4u)cell/sqrt(2), and it was kept because
        fl((fl(a_0(1 - 4u)) - D_0)(1 - 4u)) <= t.  With a_0 >= (1 - 2u)|b|
        and the four roundings that gives |b| <= (r + cell/sqrt(2))(1 + 57u).

    Both bounds lie below (r + 1.5*cell)(1 - 3u) once cell > 76u*r, that
    is while the window, at least 2r/cell cells wide, is under 2^47 cells
    wide: the spare cell absorbs every rounding.
    """
    if mode not in ("inner", "outer"):
        raise ValueError(f"mode must be 'inner' or 'outer', got {mode!r}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    check_cell(cell)
    r = _radii(param)[1] if depth else param.abs_c
    nhalf = math.ceil((r + cell) / cell)
    width = 2 * nhalf
    check_cap("raster cells", width * width, DEFAULT_MAX_CELLS)
    coords = (np.arange(width, dtype=np.float64) - nhalf + 0.5) * cell

    thresholds, pad = _thresholds(param, depth, cell)
    live = _live_blocks(coords, coords[:nhalf], _BLOCK, pad, param, thresholds)
    # the runs of live blocks, as window slices of cells, so that a fully
    # live strip of _BLOCK rows is one call
    rows, starts, stops = _runs(live)
    rows, starts, stops = rows * _BLOCK, starts * _BLOCK, np.minimum(stops * _BLOCK, width)
    # half-sides of the box over them and their half-turn images, in
    # cells, and the window index of its cell (0, 0)
    h, w = 1, 1
    if rows.size:
        h = nhalf - int(rows[0])
        w = max(nhalf - int(starts.min()), int(stops.max()) - nhalf)
    y0, x0 = nhalf - h, nhalf - w
    bits = np.zeros((2 * h, 2 * w), dtype=bool)
    for y_lo, x_lo, x_hi in zip(rows.tolist(), starts.tolist(), stops.tolist()):
        xs, ys = coords[x_lo:x_hi], coords[y_lo : min(y_lo + _BLOCK, nhalf)]
        if mode == "inner":
            run = preimage_member(xs + 1j * ys[:, None], param, depth)
        else:
            run = _live_blocks(xs, ys, 1, pad, param, thresholds)
        bits[y_lo - y0 : y_lo - y0 + ys.size, x_lo - x0 : x_hi - x0] = run
    # Q(-z) = Q(z) and coords[width-1-k] == -coords[k] exactly, so the
    # orbit of cell (2h-1-iy, 2w-1-ix) of the box, centered on 0, is that
    # of cell (iy, ix)
    bits[h:] = bits[h - 1 :: -1, ::-1]
    return GridMask(origin=complex(-w * cell, -h * cell), cell=cell, bits=bits, mode=mode)


def _disk_windows(xs: np.ndarray, ys: np.ndarray, disks: Disks, reach: np.ndarray):
    """For each disk k in turn, the cells within reach[k] of its center plus
    one spare cell a side, of the grid with ascending center axes xs, ys:
    yields (k, rows, cols, xs[cols] - x_k, ys[rows] - y_k) for row strips
    of about _BUDGET cells, rows and cols slices of the grid."""
    cx, cy = disks.centers.real, disks.centers.imag
    x_lo = np.maximum(np.searchsorted(xs, cx - reach) - 1, 0).tolist()
    x_hi = np.minimum(np.searchsorted(xs, cx + reach, "right") + 1, xs.size).tolist()
    y_lo = np.maximum(np.searchsorted(ys, cy - reach) - 1, 0).tolist()
    y_hi = np.minimum(np.searchsorted(ys, cy + reach, "right") + 1, ys.size).tolist()
    for k, (x, y) in enumerate(zip(cx.tolist(), cy.tolist())):
        cols = slice(x_lo[k], x_hi[k])
        dx = xs[cols] - x
        step = max(1, _BUDGET // dx.size)
        for lo in range(y_lo[k], y_hi[k], step):
            rows = slice(lo, min(lo + step, y_hi[k]))
            yield k, rows, cols, dx, ys[rows] - y


def _bbox(bits: np.ndarray) -> tuple[slice, slice]:
    """Row and column slices of the bounding box of the set cells."""
    rows = np.flatnonzero(bits.any(axis=1))
    cols = np.flatnonzero(bits.any(axis=0))
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def _runs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal row runs of set cells, row-major: (row, start, stop), each
    run on the columns [start, stop) of its row."""
    edges = np.zeros((bits.shape[0], bits.shape[1] + 1), dtype=np.int8)
    edges[:, :-1] = bits
    edges[:, 1:] -= bits  # +1 at each start, -1 at each stop
    rows, cols = np.nonzero(edges)
    return rows[0::2], cols[0::2], cols[1::2]


def mask_difference(a: GridMask, b: GridMask) -> GridMask:
    """Discrete difference-set support: all center differences a - b.

    The result marks cell (iy, ix) iff some set cell of `a` minus some set
    cell of `b` has center difference equal to that cell's center; its
    window is the full (height_a + height_b - 1) x (width_a + width_b - 1)
    difference lattice.  Both masks are cropped to the bounding boxes of
    their set cells and cut into maximal row runs.  The difference of two
    runs is one run of the difference block, so each pair of runs adds +1
    at its start and -1 past its end in an integer edge array, whose row
    prefix sums are positive exactly on the marked cells.

    Cost: O(runs_a * runs_b) pair updates, _BUDGET at a time, plus
    O(block).  A preimage raster has few runs, a noisy mask up to one per
    two cells (verify's 96x80 by 64x48 noise pair makes about 1M pairs).

    The window's cells are capped like a raster's, before anything is
    allocated; the int32 edge array spans at most the window plus one
    column, so the cap bounds its cells too.  A self-difference window
    has about four times the cells of its raster's box, while a raster's
    cap is on the window its block test scans, sqrt(2|c|) each side of
    0 at depth >= 1.  Where the box holds under a quarter of that
    window's cells, as at c = 5, depth 3, the raster's cap sets the
    finest cell that oracle accepts, about sqrt(2|c|)/4095; elsewhere the
    difference window does.
    """
    if a.cell != b.cell:
        raise ValueError(
            f"cell sizes must match exactly, got {a.cell!r} and {b.cell!r}"
        )
    (ha, wa), (hb, wb) = a.bits.shape, b.bits.shape
    check_cap("difference window cells", (ha + hb - 1) * (wa + wb - 1), DEFAULT_MAX_CELLS)
    out = np.zeros((ha + hb - 1, wa + wb - 1), dtype=bool)
    if a.bits.any() and b.bits.any():
        (ya, xa), (yb, xb) = _bbox(a.bits), _bbox(b.bits)
        hc, wc = yb.stop - yb.start, xb.stop - xb.start
        h, w = ya.stop - ya.start + hc - 1, xa.stop - xa.start + wc - 1
        # the runs (ra, [a0, a1)) and (rb, [b0, b1)) mark block row
        # ra - rb + hc - 1, columns [a0 - b1 + wc, a1 - b0 + wc - 1); as
        # flat offsets into the (h, w + 1) edge array:
        ra, a0, a1 = _runs(a.bits[ya, xa])
        rb, b0, b1 = _runs(b.bits[yb, xb])
        base = (hc - 1) * (w + 1) + wc
        a_lo, a_hi = ra * (w + 1) + a0 + base, ra * (w + 1) + a1 + base - 1
        b_lo, b_hi = rb * (w + 1) + b0, rb * (w + 1) + b1
        edges = np.zeros((h, w + 1), dtype=np.int32)
        flat = edges.reshape(-1)
        kb = min(rb.size, _BUDGET)
        ka = max(1, _BUDGET // kb)
        for i in range(0, ra.size, ka):
            for j in range(0, rb.size, kb):
                at, bt = slice(i, i + ka), slice(j, j + kb)
                np.add.at(flat, (a_lo[at, None] - b_hi[None, bt]).ravel(), _ONE)
                np.subtract.at(flat, (a_hi[at, None] - b_lo[None, bt]).ravel(), _ONE)
        np.cumsum(edges, axis=1, out=edges)
        oy, ox = ya.start + hb - yb.stop, xa.start + wb - xb.stop
        np.greater(edges[:, :w], 0, out=out[oy : oy + h, ox : ox + w])
    origin = complex(
        a.origin.real - b.origin.real - (wb - 0.5) * a.cell,
        a.origin.imag - b.origin.imag - (hb - 0.5) * a.cell,
    )
    return GridMask(origin=origin, cell=a.cell, bits=out, mode="difference")
