"""Planar geometry for quadratic Julia set covers.

Points of the plane are plain complex numbers (scalars or numpy arrays of
dtype complex128).  This module provides the quadratic map z -> z^2 + c and
its two inverse square-root branches with a fixed cut (argument taken in
[0, 2*pi)), one exact diametral search giving the smallest diametral index
pair with its distance, the sqrt(3)/2 enclosing disk built on that pair,
and the exact difference sets of two sets of disks.  Disks, two parallel
arrays of centers and radii, is the one disk type: a single disk is a
one-row Disks.  Parameter, the map's parameter c, lives in the numpy-free
bounds module and is re-exported here.

The enclosing disk is deliberately not the minimal one: centering on the
midpoint of a diametral pair and inflating by sqrt(3)/2 gives a certified
cover of the whole set from the diameter alone, which is what the area
bounds downstream consume.

Diametral pairs come from an exact all-pairs scan or an exact block search.
Either runs only on the points that could end a pair at least as long as
a start pair found by farthest-point sweeps: with m the start pair's
midpoint and R the largest |p - m|, no pair through p is longer than
|p - m| + R.  The slack of that test exceeds its rounding, so every point
of a diametral or tied pair stays, and the pair, its distance and the
tie-break are those of the full set.  The count of the points that stay
picks the method.  On most piece sample rows a few points of thousands
stay, so the scan runs; on the round pieces of c on or near the
imaginary axis (2.5i, 2.05i) nearly all stay, and the block search runs.
"""
from __future__ import annotations

import math

import numpy as np

from .bounds import Parameter

__all__ = [
    "Parameter",
    "Disks",
    "forward_map",
    "sqrt_branch",
    "inverse_branch",
    "diametral_pair",
    "diametral_disks",
    "disk_difference",
]

TWO_PI = 2.0 * math.pi

# elements per block of every blocked array pass, which bounds a block's
# temporaries: the rows of the all-pairs scan here, and in the raster and
# verify modules the LCG strides, mask_difference's run pairs, the
# disk-window strips and pairwise-contraction's distances
_BUDGET = 1 << 13
# the all-pairs scan up to this many candidates, the block search above:
# the two cost the same on piece sample rows of 320 to 352 points
_ALL_PAIRS_LIMIT = 320
# children per block of the block search, and block pairs per chunk
_FAN = 8
_CHUNK = 256


class Disks:
    """A nonempty set of closed disks {|z - centers[k]| <= radii[k]} as
    parallel read-only 1-D arrays."""

    __slots__ = ("centers", "radii")

    def __init__(self, centers, radii) -> None:
        c = np.asarray(centers, dtype=np.complex128).reshape(-1).view()
        r = np.asarray(radii, dtype=np.float64).reshape(-1).view()
        if r.size == 0:
            raise ValueError("need at least one disk")
        if c.shape != r.shape:
            raise ValueError(f"{c.size} centers but {r.size} radii")
        if not np.all(np.isfinite(r) & (r >= 0.0)):
            raise ValueError("radii must be finite and >= 0")
        c.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        return self.radii.size


def forward_map(z, param: Parameter):
    """The quadratic map z -> z^2 + c (scalar or elementwise)."""
    return z * z + param.c


def sqrt_branch(z, sign: int = 1):
    """Square root with the argument cut fixed on [0, 2*pi).

    Writes z = rho * exp(i*theta) with theta in [0, 2*pi) and returns
    sign * sqrt(rho) * exp(i*theta/2).  The +1 branch therefore lands in
    the closed upper half plane (argument in [0, pi)) and the -1 branch is
    exactly its negative.  Accepts scalars or numpy arrays.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    arr = np.asarray(z, dtype=np.complex128)
    theta = np.arctan2(arr.imag, arr.real)
    theta = np.where(theta < 0.0, theta + TWO_PI, theta)
    root = np.sqrt(np.abs(arr)) * np.exp(0.5j * theta)
    if sign == -1:
        root = -root
    if arr.ndim == 0:
        return complex(root)
    return root


def inverse_branch(z, branch: int, param: Parameter):
    """Branch 0 or 1 of the inverse of the quadratic map.

    Branch 0 applies the upper-half-plane square root to z - c, branch 1
    its negative.  Composing strings of these branches over {0, 1} in
    order produces the pieces of the n-th preimage of any starting set.
    """
    if branch not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    return sqrt_branch(z - param.c, 1 if branch == 0 else -1)


def _pair_scan(pts: np.ndarray) -> tuple[int, int, float]:
    """Exact diametral pair by all-pairs scan of np.hypot distances, in
    blocks of _BUDGET // m rows (at least one).

    Returns (i, j, distance) with i <= j and (i, j) lexicographically
    smallest among pairs attaining the maximum: the distance matrix is
    exactly symmetric, so its first maximum in row-major order, which is
    the one kept here, already has i <= j.
    """
    m = pts.size
    rows = max(1, _BUDGET // m)
    best, bi, bj = -1.0, 0, 0
    for lo in range(0, m, rows):
        d = pts[lo : lo + rows, None] - pts[None, :]
        d = np.hypot(d.real, d.imag)
        k = int(d.argmax())
        v = float(d.flat[k])
        if v > best:
            best = v
            bi, bj = divmod(lo * m + k, m)
    return bi, bj, best


def _rects(u: np.ndarray, v: np.ndarray, size: int) -> tuple[np.ndarray, ...]:
    """Per run of `size` points: center, axis (c, s), half extents along it."""
    u, v = (np.append(w, [w[-1]] * (-w.size % size)).reshape(-1, size) for w in (u, v))
    du, dv = u - u.mean(axis=1, keepdims=True), v - v.mean(axis=1, keepdims=True)
    th = 0.5 * np.arctan2(2.0 * (du * dv).sum(axis=1), (du * du - dv * dv).sum(axis=1))
    c, s = np.cos(th), np.sin(th)
    r, t = u * c[:, None] + v * s[:, None], v * c[:, None] - u * s[:, None]
    r0, r1, t0, t1 = r.min(axis=1), r.max(axis=1), t.min(axis=1), t.max(axis=1)
    rc, tc = (r0 + r1) / 2.0, (t0 + t1) / 2.0
    return rc * c - tc * s, rc * s + tc * c, c, s, (r1 - r0) / 2.0, (t1 - t0) / 2.0


def _unit_frame(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(u, v, e): x and y centred on their bounding box, then scaled by the
    power of two 2**-e into [-1, 1]."""
    u, v = x - (x.min() / 2.0 + x.max() / 2.0), y - (y.min() / 2.0 + y.max() / 2.0)
    e = math.frexp(max(np.abs(u).max(), np.abs(v).max()))[1]
    return np.ldexp(u, -e), np.ldexp(v, -e), e


def _pair_search(pts: np.ndarray) -> tuple[int, int, float]:
    """_pair_scan's contract, by branch-and-bound
    over blocks of _FAN**k angle-sorted points: from the top down, a block
    pair whose bound still reaches the best distance splits into its child
    pairs, highest bound first; O(m) memory plus _CHUNK pairs per level."""
    m, x, y = pts.size, pts.real, pts.imag
    u, v, e = _unit_frame(x, y)
    ang = np.arctan2(v, u)
    order = np.argsort(ang)  # steers the search, never its result
    if np.any(np.diff(ang[order]) == 0.0):
        # shared angles: sort stably by radius too and keep each first copy
        order = np.argsort(ang + 1j * (u * u + v * v), kind="stable")
        order = order[np.r_[True, (np.diff(u[order]) != 0) | (np.diff(v[order]) != 0)]]
    u, v = u[order], v[order]
    best, bk, q = -1.0, 0, 0
    for _ in range(3):  # farthest-point sweeps give the starting pair
        p, q = q, int(((u - u[q]) ** 2 + (v - v[q]) ** 2).argmax())
        i, j = sorted((int(order[p]), int(order[q])))
        best, bk = max((best, bk), (float(np.hypot(x[i] - x[j], y[i] - y[j])), i * m + j))
    levels = [(u, v)]
    while _FAN ** len(levels) < u.size:
        levels.append(_rects(u, v, _FAN ** len(levels)))
    # a pair's bound: the hypot of both rectangles' extents in the first one's
    # frame, each side + 2**-41 > all rounding here, so it never prunes a tie
    tiny, g = 2.0**-41, np.arange(_FAN)
    stack = [(len(levels), np.zeros(1, int), np.zeros(1, int), np.full(1, np.inf))]
    while stack:
        lev, a, b, ub2 = stack.pop()
        lim2 = math.ldexp(min(best, np.finfo(float).max), -e) ** 2
        a, b = a[ub2 > lim2, None] * _FAN + g, b[ub2 > lim2, None] * _FAN + g
        last = levels[lev - 1][0].size - 1
        fa = [f[np.minimum(a, last)][:, :, None] for f in levels[lev - 1]]
        fb = [f[np.minimum(b, last)][:, None, :] for f in levels[lev - 1]]
        wu, wv = fa[0] - fb[0], fa[1] - fb[1]
        if lev > 1:  # the offset and both extents in the first rectangle's frame
            (ca, sa, ra, ta), (cb, sb, rb, tb) = fa[2:], fb[2:]
            cos, sin = abs(ca * cb + sa * sb), abs(sa * cb - ca * sb)
            wu, wv = abs(wu * ca + wv * sa), abs(wv * ca - wu * sa)
            wu, wv = wu + ra + rb * cos + tb * sin, wv + ta + rb * sin + tb * cos
        ub2 = (abs(wu) + tiny) ** 2 + (abs(wv) + tiny) ** 2
        ub2[(a[:, :, None] > b[:, None, :]) | (b > last)[:, None, :]] = 0.0  # no repeats
        f = np.flatnonzero(ub2 > lim2)
        a, b, ub2 = a.ravel()[f // _FAN], b[f // _FAN**2, f % _FAN], ub2.ravel()[f]
        if lev > 1:
            f = np.split(np.argsort(ub2), range(_CHUNK, f.size, _CHUNK))
            stack += [(lev - 1, a[k], b[k], ub2[k]) for k in f]
            continue
        i, j = np.minimum(order[a], order[b]), np.maximum(order[a], order[b])
        d = np.hypot(x[i] - x[j], y[i] - y[j])
        if d.size and d.max() >= best:
            k = int((i * m + j)[d == d.max()].min())
            best, bk = float(d.max()), k if d.max() > best else min(k, bk)
    return bk // m, bk % m, best


def _candidates(pts: np.ndarray) -> np.ndarray:
    """Ascending indices of the points that may end a diametral pair.

    Farthest-point sweeps give a start pair at distance d, its midpoint m
    and R = max |p - m|.  As |p - q| <= |p - m| + R, a point with
    |p - m| + R < d is in no pair at distance >= d, so no diametral or tied
    pair loses a point.  In the _unit_frame the test carries a slack of
    2**-40 relative plus 2**-41 absolute, far above every rounding error of
    either side.
    """
    u, v, _ = _unit_frame(pts.real, pts.imag)
    d, q = -1.0, 0
    for _ in range(3):
        p, q = q, int(((u - u[q]) ** 2 + (v - v[q]) ** 2).argmax())
        d, a, b = max((d, 0, 0), (float(np.hypot(u[p] - u[q], v[p] - v[q])), p, q))
    r = np.hypot(u - (u[a] + u[b]) / 2.0, v - (v[a] + v[b]) / 2.0)
    # a NaN compares false and keeps its point
    return np.flatnonzero(~(r + r.max() < d * (1.0 - 2.0**-40) - 2.0**-41))


def diametral_pair(points) -> tuple[int, int, float]:
    """(i, j, distance) of the diameter of a finite point set.

    (i, j), i <= j, is the lexicographically smallest pair attaining the
    maximum distance, measured with np.hypot (as scalar abs() of a complex
    rounds).  Only the _candidates are searched: dropping points that end
    no diametral pair changes neither the pair nor its distance, and the
    ascending index map keeps the tie-break.  Their count picks the method,
    the all-pairs scan up to _ALL_PAIRS_LIMIT candidates, else the search.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128)).ravel()
    if pts.size == 0:
        raise ValueError("need at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    keep = _candidates(pts)
    search = _pair_scan if keep.size <= _ALL_PAIRS_LIMIT else _pair_search
    i, j, d = search(pts[keep])
    return int(keep[i]), int(keep[j]), d


def diametral_disks(x, y, distance) -> Disks:
    """The sqrt(3)/2 disks on diametral pairs (x, y) at the given
    distances |x - y|, as diametral_pair returns them; scalars or arrays.

    Each disk centers on the midpoint of its pair and has radius
    (sqrt(3)/2) * |x - y|.  Any planar set of diameter |x - y| containing
    x and y fits in this disk, so it covers the whole set; it is not the
    minimal enclosing disk.
    """
    return Disks((x + y) / 2.0, (math.sqrt(3.0) / 2.0) * distance)


def disk_difference(a: Disks, b: Disks) -> Disks:
    """Exact difference sets {x - y : x in a_i, y in b_j}, row-major over (i, j).

    Element i*len(b)+j is the disk centered at a.centers[i] - b.centers[j]
    with radius a.radii[i] + b.radii[j] (equality, not just containment).
    For two translates of the same radius-R disk this is the radius-2R
    disk around the center offset.  A single disk is a one-row Disks.
    """
    return Disks(a.centers[:, None] - b.centers[None, :], a.radii[:, None] + b.radii[None, :])
