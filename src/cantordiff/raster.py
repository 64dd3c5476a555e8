"""Brute-force raster and sampling oracles.

These are the independent cross-checks for the certified machinery: plain
grids over the plane, orbit iteration on every cell center that a block
test cannot rule out, and a reproducible pseudo-random sampler.  Nothing
here feeds the certified bounds; the oracles exist so every claim the
bound machinery makes can be falsified numerically at desk scale.

Conventions.  A GridMask stores one bit per cell; bits[iy, ix] covers the
square of side `cell` whose center is origin + (ix + 0.5 + (iy + 0.5)i) *
cell (origin is the lower-left corner of the window).  Preimage rasters
are centered on 0, so their cell centers sit on half-integer multiples of
the cell size; difference masks of two such rasters then land on integer
multiples, the same lattice the union-area grid uses, which is what makes
the two estimates comparable cell for cell.  Mask differences have one
implementation, exact integer sums over pairs of row runs; verify holds
it against a plain shift-and-OR of its own.

Block culling.  A preimage raster decides each cell center p by the float
orbit p~_0 = p, p~_{k+1} = fl(p~_k * p~_k + c) and the tests
fl|p~_k| <= thr_k of _survivors, and a cell is set iff it passes every
one.  rasterize_preimage first tiles the upper half of the window into
blocks of _BLOCK x _BLOCK cells and runs the same float orbit b~_k from
each block's center b, carrying a bound D_k >= |p~_k - b~_k| for every
center p of the block whose orbit is still alive.  With u = 2^-53:

  * D_0 is the block's half diagonal, measured on its float corner
    centers, plus the rounding of their midpoint b.  The half widths and
    their hypot h round down by a factor of at most 1 + 3u + O(u^2)
    together, and b is off the true midpoint m by at most u|m| <=
    1.01u*a_0, where a_k = fl|b~_k|.  So D_0 = (h + 2u*a_0) * (1 + 8u)
    covers both, its own two roundings included.
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
    steps; 2 covers using a_k in the first term, since np.abs is hypot,
    within one ulp, so a_k may lie below |b~_k| by 2u relative, and
    4u*a_k*D_k <= 2u(a_k + D_k)^2; 3 covers the round-to-nearest
    evaluation of D_{k+1} itself, whose first term is at most
    (a_k + D_k)^2.  The other 7 are slack for the O(u^2) terms.
  * At step k the block is certified empty once
    (a_k*(1 - 4u) - D_k)*(1 - 4u) > thr_k in float.  Each of the three
    roundings of that expression errs upward by at most u relative, and
    a_k <= (1 + 2u)|b~_k|, so it exceeds thr_k only if |b~_k| - D_k >
    thr_k / (1 - 2u).  Then every live cell has fl|p~_k| >=
    (1 - 2u)|p~_k| >= (1 - 2u)(|b~_k| - D_k) > thr_k: its test fails.
    A cell whose orbit is not finite at step k fails it as well (inf and
    NaN are never <= thr_k), and a cell that failed an earlier test is
    clear already.  The bound needs every step before k finite, so a
    block whose orbit reaches inf or NaN is never dropped.

Every cell of a dropped block is therefore clear in the per-cell test
too, and the blocks that survive go through the unchanged _survivors on
contiguous column runs: the bits are those of the cell-by-cell test, in
both modes.  preimage_member and _outer_block test every cell and stay
the references.  At c = 5, depth 3 and cell 0.005, 38 of the 7,938
blocks of the upper half survive.

Determinism.  All randomness comes from an explicit 64-bit linear
congruential generator (s <- 6364136223846793005*s + 1442695040888963407
mod 2^64, doubles taken as (s >> 11) / 2^53), vectorized by precomputed
stride coefficients but bit-identical to the scalar recurrence.  A
preimage raster is symmetric under z -> -z, exactly so on its cell
centers, so only its upper half is iterated and the lower half is copied
from it turned by half a turn.  The rasters are filled serially: after
the block test too little work is left to share between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Disk, Parameter, disk_difference

__all__ = [
    "GridMask",
    "preimage_member",
    "rasterize_preimage",
    "disk_mask",
    "mask_difference",
    "mask_area",
    "sample_diff_check",
    "lcg_uniforms",
    "DEFAULT_MAX_CELLS",
]

# built-in cap on the cells of any one raster or union grid
DEFAULT_MAX_CELLS = 1 << 26

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
_CHUNK = 1 << 14

# run pairs per np.add.at call in mask_difference (more only raise the
# peak), and a one of the edge dtype, which np.add.at's fast path needs
_PAIR_CHUNK, _ONE = 1 << 16, np.int32(1)

# cap for the outer-mode dilation radii; once the certified error passes
# it no further cell can be ruled out, so the iteration stops early
_ERR_CAP = 1.0e6

# cells per side of the blocks rasterize_preimage rules out whole, then
# the unit roundoff of float64 and the rounding constant of the block
# margin (derived in the module docstring)
_BLOCK = 16
_U = 2.0**-53
_KAPPA = 16.0


@dataclass(frozen=True)
class GridMask:
    """Bit raster over an axis-aligned window of the plane."""

    origin: complex
    cell: float
    bits: np.ndarray
    mode: str = ""

    def __post_init__(self) -> None:
        if self.bits.dtype != np.bool_ or self.bits.ndim != 2:
            raise ValueError("bits must be a 2-d boolean array")
        if not (math.isfinite(self.cell) and self.cell > 0.0):
            raise ValueError(f"cell must be finite and > 0, got {self.cell!r}")
        self.bits.setflags(write=False)

    @property
    def height(self) -> int:
        return int(self.bits.shape[0])

    @property
    def width(self) -> int:
        return int(self.bits.shape[1])

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


def check_cap(what: str, need: int, cap: int | None, default: int) -> None:
    """Refuse an allocation of need units above cap (None: the default)."""
    limit = default if cap is None else cap
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
    alive = _survivors(arr, param.c, [param.abs_c] * (depth + 1))
    if arr.ndim == 0:
        return bool(alive)
    return alive


def _survivors(z: np.ndarray, c: complex, thresholds: list[float]) -> np.ndarray:
    """Mask of the points whose orbit w_0 = z, w_{k+1} = w_k^2 + c keeps
    |w_k| <= thresholds[k] at every step; only survivors are iterated."""
    idx = np.flatnonzero(np.abs(z) <= thresholds[0])
    w = z.ravel()[idx]
    for thr in thresholds[1:]:
        # an orbit that overflows to inf or NaN fails the test below
        with np.errstate(over="ignore", invalid="ignore"):
            w = w * w + c
        keep = np.abs(w) <= thr
        idx, w = idx[keep], w[keep]
    alive = np.zeros(z.shape, dtype=bool)
    alive.flat[idx] = True
    return alive


def _outer_block(z0: np.ndarray, param: Parameter, depth: int, half_diag: float):
    """Superset test: keep every cell not certified to miss the preimage.

    If the cell contains a point p of the depth-fold preimage, the orbit
    of p satisfies |Q^k(p)| <= R_1 for k < depth and <= |c| at k = depth,
    while the center orbit w_k drifts from Q^k(p) by at most

        e_0 = half diagonal,   e_{k+1} = (2*R_1 + e_k) * e_k

    (from |Q(z) - Q(w)| = |z - w| |z + w| and the R_1 modulus bound).  So
    a cell is certified out as soon as |w_k| exceeds the inflated
    threshold; whatever survives is a superset of the preimage.  Once
    e_k explodes past _ERR_CAP no further cell can be ruled out and the
    loop stops early, which only enlarges the superset.
    """
    return _survivors(z0, param.c, _outer_thresholds(param, depth, half_diag))


def _outer_thresholds(param: Parameter, depth: int, half_diag: float) -> list[float]:
    """The inflated thresholds of _outer_block, one per orbit step."""
    a = param.abs_c
    r1 = math.sqrt(2.0 * a)
    e = half_diag
    thresholds = [(r1 if depth >= 1 else a) + e]
    for k in range(1, depth + 1):
        e = (2.0 * r1 + e) * e
        if e > _ERR_CAP:
            break
        thresholds.append((r1 if k < depth else a) + e)
    return thresholds


def _live_blocks(
    coords: np.ndarray, nhalf: int, param: Parameter, thresholds: list[float]
) -> np.ndarray:
    """Blocks of the upper half that the block test cannot rule out.

    Entry [i, j] covers the rows [i, i + 1) * _BLOCK of the raster and its
    columns [j, j + 1) * _BLOCK, both clipped to the window; it is False
    only when every cell center in it fails some test of _survivors with
    these thresholds (the margin is derived in the module docstring).
    """

    def axis(n: int) -> tuple[np.ndarray, np.ndarray]:
        # float midpoints and half widths of the blocks along one axis
        lo = coords[:n:_BLOCK]
        hi = coords[np.minimum(np.arange(_BLOCK, n + _BLOCK, _BLOCK), n) - 1]
        return (lo + hi) * 0.5, (hi - lo) * 0.5

    (bx, hx), (by, hy) = axis(coords.size), axis(nhalf)
    b = bx[None, :] + 1j * by[:, None]
    a = np.abs(b)
    d = (np.hypot(hx[None, :], hy[:, None]) + 2.0 * _U * a) * (1.0 + 8.0 * _U)
    finite = np.ones(b.shape, dtype=bool)
    live = np.ones(b.shape, dtype=bool)
    shrink = 1.0 - 4.0 * _U
    with np.errstate(over="ignore", invalid="ignore"):
        for k, thr in enumerate(thresholds):
            if k:
                d = (2.0 * a + d) * d + _KAPPA * _U * ((a + d) ** 2 + a * a + 2.0 * param.abs_c)
                b = b * b + param.c
                a = np.abs(b)
            finite &= np.isfinite(a)
            # a NaN margin compares False and keeps its block
            live &= ~(finite & ((a * shrink - d) * shrink > thr))
    return live


def rasterize_preimage(
    param: Parameter,
    depth: int,
    cell: float,
    mode: str = "inner",
    max_cells: int | None = None,
    workers: int = 1,
) -> GridMask:
    """Raster of the depth-fold preimage of the starting disk.

    Depth 0 is the starting disk itself; depth n marks (an approximation
    of) the set where |Q^k(z)| <= |c| for every k <= n.  The window is
    the square of half-side nhalf*cell with nhalf = ceil((|c|+cell)/cell),
    so it contains the starting disk with at least one spare cell on
    every side and the cell centers sit on half-integer multiples of the
    cell size.

    mode "inner" tests cell centers exactly (every marked center is a
    true preimage point); mode "outer" marks every cell that cannot be
    certified to lie outside, giving a true superset of the preimage.
    The outer dilation grows rapidly with depth, so outer masks are only
    tight for small depths; they stay correct as supersets regardless.

    workers is accepted for compatibility and ignored; the raster is
    always filled serially.
    """
    if mode not in ("inner", "outer"):
        raise ValueError(f"mode must be 'inner' or 'outer', got {mode!r}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if not (math.isfinite(cell) and cell > 0.0):
        raise ValueError(f"cell must be finite and > 0, got {cell!r}")
    nhalf = math.ceil((param.abs_c + cell) / cell)
    width = 2 * nhalf
    check_cap("raster cells", width * width, max_cells, DEFAULT_MAX_CELLS)
    coords = (np.arange(width, dtype=np.float64) - nhalf + 0.5) * cell
    origin = complex(-nhalf * cell, -nhalf * cell)
    half_diag = cell * math.sqrt(2.0) / 2.0

    if mode == "inner":
        thresholds = [param.abs_c] * (depth + 1)
    else:
        thresholds = _outer_thresholds(param, depth, half_diag)
    live = _live_blocks(coords, nhalf, param, thresholds)
    bits = np.zeros((width, width), dtype=bool)
    # each strip of _BLOCK rows with a live block, filled by its runs of
    # live columns as slices, so that a fully live strip is one call
    edges = np.diff(live.astype(np.int8), axis=1, prepend=0, append=0)
    for i in np.flatnonzero(live.any(axis=1)).tolist():
        y_lo, y_hi = i * _BLOCK, min(i * _BLOCK + _BLOCK, nhalf)
        starts = np.flatnonzero(edges[i] > 0) * _BLOCK
        stops = np.minimum(np.flatnonzero(edges[i] < 0) * _BLOCK, width)
        for x_lo, x_hi in zip(starts.tolist(), stops.tolist()):
            z0 = coords[x_lo:x_hi] + 1j * coords[y_lo:y_hi, None]
            bits[y_lo:y_hi, x_lo:x_hi] = _survivors(z0, param.c, thresholds)
    # Q(-z) = Q(z) and coords[width-1-k] == -coords[k] exactly, so the
    # orbit of cell (width-1-iy, width-1-ix) is that of cell (iy, ix)
    bits[nhalf:] = bits[nhalf - 1 :: -1, ::-1]
    return GridMask(origin=origin, cell=cell, bits=bits, mode=mode)


def disk_mask(disk: Disk, cell: float, align: str = "half") -> GridMask:
    """Plain center-membership raster of one disk.

    align "half" puts cell centers on half-integer multiples of the cell
    size (the preimage raster convention); align "integer" puts them on
    integer multiples (the lattice difference masks land on).
    """
    if not (math.isfinite(cell) and cell > 0.0):
        raise ValueError(f"cell must be finite and > 0, got {cell!r}")
    if align not in ("half", "integer"):
        raise ValueError(f"align must be 'half' or 'integer', got {align!r}")
    shift = 0.0 if align == "half" else 0.5
    kx_lo = math.floor((disk.center.real - disk.radius) / cell) - 1
    kx_hi = math.ceil((disk.center.real + disk.radius) / cell) + 1
    ky_lo = math.floor((disk.center.imag - disk.radius) / cell) - 1
    ky_hi = math.ceil((disk.center.imag + disk.radius) / cell) + 1
    xs = (np.arange(kx_lo, kx_hi + 1, dtype=np.float64) + 0.5 - shift) * cell
    ys = (np.arange(ky_lo, ky_hi + 1, dtype=np.float64) + 0.5 - shift) * cell
    bits = (xs[None, :] - disk.center.real) ** 2 + (
        ys[:, None] - disk.center.imag
    ) ** 2 <= disk.radius * disk.radius
    origin = complex((kx_lo - shift) * cell, (ky_lo - shift) * cell)
    return GridMask(origin=origin, cell=cell, bits=bits, mode="disk")


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

    Cost: O(runs_a * runs_b) pair updates, _PAIR_CHUNK at a time, plus
    O(block).  A preimage raster has few runs, a noisy mask up to one per
    two cells (verify's 96x80 by 64x48 noise pair makes about 1M pairs).
    """
    if a.cell != b.cell:
        raise ValueError(
            f"cell sizes must match exactly, got {a.cell!r} and {b.cell!r}"
        )
    (ha, wa), (hb, wb) = a.bits.shape, b.bits.shape
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
        kb = min(rb.size, _PAIR_CHUNK)
        ka = max(1, _PAIR_CHUNK // kb)
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


def mask_area(mask: GridMask) -> float:
    """Marked area: set-cell count times cell^2."""
    return int(np.count_nonzero(mask.bits)) * mask.cell * mask.cell


def _lcg_coeffs() -> tuple[np.ndarray, np.ndarray]:
    """Stride coefficients: s_{i+k} = A[k-1]*s_i + B[k-1] mod 2^64.

    Built by doubling: a stride of m + k composes stride k after stride m,
    so A[m+k-1] = A[k-1]*A[m-1] and B[m+k-1] = A[k-1]*B[m-1] + B[k-1]
    (uint64 arithmetic wraps mod 2^64).
    """
    a_pow = np.empty(_CHUNK, dtype=np.uint64)
    b_acc = np.empty(_CHUNK, dtype=np.uint64)
    a_pow[0], b_acc[0] = _LCG_A, _LCG_C
    m = 1
    with np.errstate(over="ignore"):
        while m < _CHUNK:
            a_pow[m : 2 * m] = a_pow[:m] * a_pow[m - 1]
            b_acc[m : 2 * m] = a_pow[:m] * b_acc[m - 1] + b_acc[:m]
            m *= 2
    return a_pow, b_acc


_COEFFS: tuple[np.ndarray, np.ndarray] | None = None


def _lcg_states(seed: int, count: int) -> np.ndarray:
    """States s_1..s_count of the LCG seeded with s_0 = seed."""
    global _COEFFS
    if _COEFFS is None:
        _COEFFS = _lcg_coeffs()
    a_pow, b_acc = _COEFFS
    states = np.empty(count, dtype=np.uint64)
    s = np.uint64(seed & _LCG_MASK)
    filled = 0
    while filled < count:
        take = min(_CHUNK, count - filled)
        with np.errstate(over="ignore"):
            states[filled : filled + take] = a_pow[:take] * s + b_acc[:take]
        s = states[filled + take - 1]
        filled += take
    return states


def _unit(states: np.ndarray) -> np.ndarray:
    return (states >> np.uint64(11)).astype(np.float64) * 2.0**-53


def lcg_uniforms(seed: int, count: int) -> np.ndarray:
    """count doubles in [0, 1) from the 64-bit LCG stream.

    The i-th output (i >= 1) is (s_i >> 11) / 2^53 where s_i is the i-th
    state after seeding with s_0 = seed.  Vectorized with precomputed
    stride coefficients; identical to stepping the scalar recurrence.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return _unit(_lcg_states(seed, count))


def _disk_points(unit: np.ndarray, disk: Disk) -> np.ndarray:
    return disk.center + disk.radius * unit


def sample_diff_check(d2: Disk, d1: Disk, count: int, seed: int) -> float:
    """Monte Carlo falsification check for the disk difference set.

    Draws count pairs (x in d2, y in d1) by rejection from the bounding
    square of the unit disk (accepted candidates alternate between the
    two disks in stream order), verifies every difference x - y lies in
    disk_difference(d2, d1), and returns the largest |x - y - center|
    observed (it approaches the radius from below as count grows).  A
    containment violation raises RuntimeError: it would falsify the
    difference-disk identity itself.
    """
    if count < 1000:
        raise ValueError(f"need count >= 1000, got {count}")
    need = 2 * count
    kept: list[np.ndarray] = []
    have = 0
    state = seed
    while have < need:
        short = need - have
        draw = 2 * max(short + (short >> 2) + 64, 1 << 12)
        u = _lcg_states(state, draw)
        state = int(u[-1])  # each round continues the one stream
        u = _unit(u)
        cand = (2.0 * u[0::2] - 1.0) + 1j * (2.0 * u[1::2] - 1.0)
        acc = cand[cand.real**2 + cand.imag**2 <= 1.0]
        kept.append(acc)
        have += acc.size
    unit = np.concatenate(kept)[:need]
    x = _disk_points(unit[0::2], d2)
    y = _disk_points(unit[1::2], d1)
    pred = disk_difference(d2, d1)
    dev = np.abs((x - y) - pred.center)
    tol = 1e-12 * (pred.radius + 1.0)
    worst = float(dev.max())
    if worst > pred.radius + tol:
        raise RuntimeError(
            "difference-disk containment violated: sampled deviation "
            f"{worst:.17g} exceeds radius {pred.radius:.17g}"
        )
    return worst
