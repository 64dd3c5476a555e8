"""Reference computations that verify's checks trust.

Each function here takes plain inputs (a Parameter, Disks, GridMasks,
numbers, a seed) and either recomputes a quantity of the product by a
method of its own: the radius recursion in exact integers, disk rasters
that test every cell of their box, cell-for-cell window comparisons and
a shift-and-OR mask difference; or supplies verify's reproducible
randomness: the LCG stream and the Monte Carlo falsifier of the
difference-disk identity, which reads its rounds from that stream.  None
takes verify's context or returns a verdict; the checks, their seeded
inputs and their tolerances stay in verify.  Only verify and the tests
import this module, and it imports nothing of the package but geometry
and raster.

Determinism.  All randomness comes from an explicit 64-bit linear
congruential generator (s <- 6364136223846793005*s + 1442695040888963407
mod 2^64, doubles taken as (s >> 11) / 2^53), vectorized in blocks of
_BUDGET = 2^13 steps from stride tables built once per stream, but
bit-identical to the scalar recurrence.  lcg_uniforms and the sampler's
rounds both read the blocks of one stream.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import _BUDGET, Disks, Parameter, disk_difference
from .raster import DEFAULT_MAX_CELLS, DEFAULT_MAX_POINTS, GridMask, check_cap, mask_difference

# fraction bits of radius-recursion's integer reference, which holds R_k
# as an integer B_k within 6 units below 2^_P R_k (about 60 digits)
_P = 200

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def _integer_radii(param: Parameter, count: int) -> tuple[list[int], list[int]]:
    """R_1..R_count and r_1..r_count as integers B_k and b_k over 2^_P.

    |c|^2 is exact from the integer ratios of c's parts, A = floor(2^P |c|)
    = B_0, and B_{k+1} = isqrt((A + B_k) 2^P), b_{k+1} = isqrt((A - B_k) 2^P)
    are floor roots of R_{k+1} = sqrt(|c| + R_k), r_{k+1} = sqrt(|c| - R_k).

    For |c| > 2, u_k = 2^P R_k - B_k obeys 0 <= u_k < 3 + 2 sqrt(2) < 6:
    u_0 < 1, and as sqrt(X) - sqrt(Y) <= (X - Y)/sqrt(X) for Y <= X and
    R_{k+1} > sqrt(2), u_{k+1} < 1 + (u_0 + u_k)/R_{k+1} < 1 + (1 + u_k)/sqrt(2).
    Likewise |2^P r_k - b_k| < 1 + 6/r_k for r_k > 0, and b_1 = r_1 = 0.
    So R_k errs by under 2^-197 relative and r_k by under (1 + 6/r_k)/(2^P r_k),
    which is below 2^-143 for k >= 2 once |c| >= 2 + 2^-53 (r_k^2 >= (|c| - 2)/2).
    """
    (p, q), (s, t) = param.c.real.as_integer_ratio(), param.c.imag.as_integer_ratio()
    a = math.isqrt((((p * t) ** 2 + (s * q) ** 2) << 2 * _P) // (q * t) ** 2)
    big, outer, inner = a, [], []
    for _ in range(count):
        inner.append(math.isqrt((a - big) << _P))
        big = math.isqrt((a + big) << _P)
        outer.append(big)
    return outer, inner


def _int_origin_index(mask: GridMask) -> tuple[int, int]:
    """Integer-lattice index k of cell (0, 0), whose center is k * cell on
    each axis."""
    fx = mask.origin.real / mask.cell + 0.5
    fy = mask.origin.imag / mask.cell + 0.5
    kx, ky = round(fx), round(fy)
    if abs(fx - kx) > 1e-6 or abs(fy - ky) > 1e-6:
        raise ValueError("mask cell centers are not on the integer lattice")
    return kx, ky


def _overlap(m1: GridMask, m2: GridMask) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """Row and column slices of m1.bits and of m2.bits over the cells the
    two windows share: empty slices when they share none.  The masks must
    lie on one lattice: equal cells, and windows an integer number of
    cells apart."""
    fx = (m2.origin.real - m1.origin.real) / m1.cell
    fy = (m2.origin.imag - m1.origin.imag) / m1.cell
    dx, dy = round(fx), round(fy)  # m1's index of m2's cell (0, 0)
    if m1.cell != m2.cell or abs(fx - dx) > 1e-6 or abs(fy - dy) > 1e-6:
        raise ValueError("masks are not on one lattice")
    x_lo, y_lo = max(0, dx), max(0, dy)
    x_hi = max(x_lo, min(m1.width, dx + m2.width))
    y_hi = max(y_lo, min(m1.height, dy + m2.height))
    return (
        (slice(y_lo, y_hi), slice(x_lo, x_hi)),
        (slice(y_lo - dy, y_hi - dy), slice(x_lo - dx, x_hi - dx)),
    )


def _outside(m1: GridMask, m2: GridMask) -> int:
    """Set cells of m1 that are not set cells of m2, both on one lattice."""
    s1, s2 = _overlap(m1, m2)
    return m1.cells - int(np.count_nonzero(m1.bits[s1] & m2.bits[s2]))


def _disk_raster(disk: Disks, cell: float, shift: float) -> GridMask:
    """Raster, capped as "disk mask cells", of the cells of the lattice
    fl((k + 0.5 - shift)*cell) whose centers lie in the one-row disk:
    shift 0 is the half-integer lattice, 0.5 the integer one.  Every cell
    of the disk's box plus one spare cell a side is tested, in row strips
    of at most _BUDGET cells (one row when a row is wider)."""
    x, y, r = float(disk.centers.real[0]), float(disk.centers.imag[0]), float(disk.radii[0])
    kx_lo, kx_hi = math.floor((x - r) / cell) - 1, math.ceil((x + r) / cell) + 1
    ky_lo, ky_hi = math.floor((y - r) / cell) - 1, math.ceil((y + r) / cell) + 1
    shape = (ky_hi - ky_lo + 1, kx_hi - kx_lo + 1)
    check_cap("disk mask cells", shape[0] * shape[1], DEFAULT_MAX_CELLS)
    xs = (np.arange(kx_lo, kx_hi + 1, dtype=np.float64) + (0.5 - shift)) * cell
    ys = (np.arange(ky_lo, ky_hi + 1, dtype=np.float64) + (0.5 - shift)) * cell
    dx2 = (xs - x) ** 2
    bits = np.zeros(shape, dtype=bool)
    step = max(1, _BUDGET // xs.size)
    for lo in range(0, ys.size, step):
        dy = ys[lo : lo + step, None] - y
        bits[lo : lo + step] = dx2 + dy**2 <= r * r
    origin = complex((kx_lo - shift) * cell, (ky_lo - shift) * cell)
    return GridMask(origin=origin, cell=cell, bits=bits, mode="disk")


def diff_proof_numbers(d2: Disks, d1: Disks, cell: float) -> tuple[int, float]:
    """Cell counts behind the proof: (cells outside the prediction,
    deepest missing cell's distance inside the predicted boundary)."""
    dm = mask_difference(_disk_raster(d2, cell, 0.0), _disk_raster(d1, cell, 0.0))
    pred = disk_difference(d2, d1)
    pm = _disk_raster(pred, cell, 0.5)
    extra = _outside(dm, pm)
    # the predicted cells that the difference mask misses, on pm's lattice
    missing = pm.bits.copy()
    sp, sd = _overlap(pm, dm)
    missing[sp] &= ~dm.bits[sd]
    deepest = 0.0
    if missing.any():
        kx, ky = _int_origin_index(pm)
        iy, ix = np.nonzero(missing)
        centers = (ix + kx) * cell + 1j * ((iy + ky) * cell)
        deepest = float((pred.radii - np.abs(centers - pred.centers)).max())
    return extra, deepest


def _shift_or(a: GridMask, b: GridMask) -> GridMask:
    """Reference mask difference: one copy of a, shifted by minus the
    offset of each set cell of b, ORed into the full difference window."""
    ha, wa = a.bits.shape
    hb, wb = b.bits.shape
    out = np.zeros((ha + hb - 1, wa + wb - 1), dtype=bool)
    iys, ixs = np.nonzero(b.bits)
    for iy, ix in zip(iys.tolist(), ixs.tolist()):
        oy, ox = hb - 1 - iy, wb - 1 - ix
        out[oy : oy + ha, ox : ox + wa] |= a.bits
    origin = complex(
        a.origin.real - b.origin.real - (wb - 0.5) * a.cell,
        a.origin.imag - b.origin.imag - (hb - 0.5) * a.cell,
    )
    return GridMask(origin=origin, cell=a.cell, bits=out, mode="difference")


def _lcg_blocks(seed: int):
    """Blocks of _BUDGET doubles (s_i >> 11) / 2^53 of the LCG states s_1,
    s_2, ... seeded with s_0 = seed, without end.

    A stride of k steps is s_{i+k} = A^k*s_i + C*(1 + A + ... + A^(k-1))
    mod 2^64: the tables below hold both for k = 1.._BUDGET, built once,
    and each block is one stride of the last state before it (uint64
    arithmetic wraps mod 2^64).
    """
    a_pow = np.cumprod(np.full(_BUDGET, _LCG_A, dtype=np.uint64))
    b_acc = np.cumsum(np.concatenate(([np.uint64(1)], a_pow[:-1])))
    b_acc *= np.uint64(_LCG_C)
    s = np.uint64(seed & _LCG_MASK)
    while True:
        states = a_pow * s + b_acc
        s = states[-1]
        yield (states >> np.uint64(11)) * 2.0**-53


def lcg_uniforms(seed: int, count: int) -> np.ndarray:
    """count doubles in [0, 1) from the 64-bit LCG stream.

    The i-th output (i >= 1) is (s_i >> 11) / 2^53 where s_i is the i-th
    state after seeding with s_0 = seed, filled from the blocks of one
    _lcg_blocks stream; identical to stepping the scalar recurrence.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    out = np.empty(count, dtype=np.float64)
    blocks = _lcg_blocks(seed)
    for lo in range(0, count, _BUDGET):
        out[lo : lo + _BUDGET] = next(blocks)[: count - lo]
    return out


def sample_diff_check(d2: Disks, d1: Disks, count: int, seed: int) -> float:
    """Monte Carlo falsification check for the disk difference set.

    Draws count pairs (x in d2, y in d1), both one-row Disks, by
    rejection from the bounding square of the unit disk (accepted
    candidates alternate between the two disks in stream order), verifies
    every difference x - y lies in disk_difference(d2, d1), and returns
    the largest |x - y - center| observed (it approaches the radius from
    below as count grows).  A containment violation raises RuntimeError:
    it would falsify the difference-disk identity itself.

    Each round is the next block of one _lcg_blocks stream, _BUDGET
    states, and its deviations fold into a running maximum, so the
    memory stays one round's whatever the count.  A round that ends on
    an x carries it into the next, where its y is accepted.
    """
    if len(d2) != 1 or len(d1) != 1:
        raise ValueError(f"need one disk a side, got {len(d2)} and {len(d1)}")
    if count < 1000:
        raise ValueError(f"need count >= 1000, got {count}")
    need = 2 * count
    check_cap("difference samples", need, DEFAULT_MAX_POINTS)
    pred = disk_difference(d2, d1)
    worst, have = 0.0, 0
    carry = np.empty(0, dtype=np.complex128)
    blocks = _lcg_blocks(seed)
    while have < need:
        u = next(blocks)
        # candidates 2u - 1 of the bounding square, real and imaginary
        # parts interleaved, so that u viewed as complex holds them
        u *= 2.0
        u -= 1.0
        r2 = np.square(u[0::2])
        r2 += np.square(u[1::2])
        acc = u.view(np.complex128)[r2 <= 1.0][: need - have]
        have += acc.size
        # accepted unit-disk points, x and y alternating, become x - y -
        # center in place
        acc = np.concatenate((carry, acc))
        pairs = acc.size - acc.size % 2
        x, y, carry = acc[0:pairs:2], acc[1:pairs:2], acc[pairs:]
        x *= d2.radii
        x += d2.centers
        y *= d1.radii
        y += d1.centers
        x -= y
        x -= pred.centers
        worst = max(worst, float(np.abs(x).max(initial=0.0)))
    radius = float(pred.radii[0])
    if worst > radius + 1e-12 * (radius + 1.0):
        raise RuntimeError(
            "difference-disk containment violated: sampled deviation "
            f"{worst:.17g} exceeds radius {radius:.17g}"
        )
    return worst
