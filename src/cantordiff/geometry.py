"""Planar geometry for quadratic Julia set covers.

Points of the plane are plain complex numbers (scalars or numpy arrays of
dtype complex128).  This module provides the quadratic map z -> z^2 + c and
its two inverse square-root branches with a fixed cut (argument taken in
[0, 2*pi)), exact point-set diameters with a deterministic diametral pair,
the sqrt(3)/2 enclosing disk built on that pair, and the exact difference
set of two disks.  A single disk is a Disk; a set of disks is a Disks,
two parallel arrays of centers and radii.

The enclosing disk is deliberately not the minimal one: centering on the
midpoint of a diametral pair and inflating by sqrt(3)/2 gives a certified
cover of the whole set from the diameter alone, which is what the area
bounds downstream consume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Parameter",
    "Disk",
    "Disks",
    "forward_map",
    "sqrt_branch",
    "inverse_branch",
    "diameter",
    "diametral_pair",
    "diametral_disks",
    "enclosing_disk",
    "disk_difference",
]

TWO_PI = 2.0 * math.pi

# all-pairs diameter is exact and fast enough up to this many points;
# larger sets go through a convex hull first
_ALL_PAIRS_LIMIT = 4096
_BLOCK = 256


@dataclass(frozen=True)
class Parameter:
    """Parameter c of the quadratic map, restricted to |c| > 2.

    For |c| > 2 the filled Julia set is totally disconnected and the whole
    inverse-branch construction below applies; smaller parameters are
    rejected outright rather than producing silently wrong bounds.
    """

    c: complex
    abs_c: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = complex(self.c)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("parameter c must be finite")
        a = abs(c)
        if not a > 2.0:
            raise ValueError(
                f"need |c| > 2 (totally disconnected regime), got |c| = {a:.17g}"
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "abs_c", a)


@dataclass(frozen=True)
class Disk:
    """Closed disk {z : |z - center| <= radius}."""

    center: complex
    radius: float

    def __post_init__(self) -> None:
        r = float(self.radius)
        if not (math.isfinite(r) and r >= 0.0):
            raise ValueError(f"radius must be finite and >= 0, got {r!r}")
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", r)

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def contains(self, z, tol: float = 0.0):
        """Membership test, scalar or elementwise on arrays.

        tol is an absolute slack added to the radius (use it to absorb
        floating-point noise in certified checks).
        """
        return np.abs(np.asarray(z) - self.center) <= self.radius + tol


@dataclass(frozen=True, eq=False)
class Disks:
    """A nonempty set of closed disks {|z - centers[k]| <= radii[k]} as
    parallel read-only 1-D arrays; disks[k] is the scalar Disk k."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.centers, dtype=np.complex128).reshape(-1).view()
        r = np.asarray(self.radii, dtype=np.float64).reshape(-1).view()
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

    def __len__(self) -> int:
        return self.radii.size

    def __getitem__(self, k: int) -> Disk:
        return Disk(self.centers[k], self.radii[k])


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


def _as_points(points) -> np.ndarray:
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128)).ravel()
    if pts.size == 0:
        raise ValueError("need at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def _pair_scan(pts: np.ndarray) -> tuple[int, int, float]:
    """Exact diametral pair by blocked all-pairs scan.

    Returns (i, j, distance) with i <= j and (i, j) lexicographically
    smallest among pairs attaining the maximum: the distance matrix is
    exactly symmetric, so its first maximum in row-major order, which is
    the one kept here, already has i <= j.
    """
    m = pts.size
    best, bi, bj = -1.0, 0, 0
    for lo in range(0, m, _BLOCK):
        d = np.abs(pts[lo : lo + _BLOCK, None] - pts[None, :])
        k = int(d.argmax())
        v = float(d.flat[k])
        if v > best:
            best = v
            bi, bj = divmod(lo * m + k, m)
    return bi, bj, best


def _hull_chains(
    xs: list[float], ys: list[float], order: list[int]
) -> tuple[list[int], list[int]]:
    """Upper and lower convex hull chains (indices, left to right) of the
    points (xs[k], ys[k]) taken in lexicographic order."""
    upper: list[int] = []
    lower: list[int] = []
    for idx in order:
        x, y = xs[idx], ys[idx]
        # pop while the cross product (a - o) x (p - o) is >= 0 (upper)
        # or <= 0 (lower), with p the new point
        while len(upper) >= 2:
            o, a = upper[-2], upper[-1]
            ox, oy = xs[o], ys[o]
            if not ((xs[a] - ox) * (y - oy) - (ys[a] - oy) * (x - ox) >= 0):
                break
            upper.pop()
        while len(lower) >= 2:
            o, a = lower[-2], lower[-1]
            ox, oy = xs[o], ys[o]
            if not ((xs[a] - ox) * (y - oy) - (ys[a] - oy) * (x - ox) <= 0):
                break
            lower.pop()
        upper.append(idx)
        lower.append(idx)
    return upper, lower


def _pair_hull(pts: np.ndarray) -> tuple[int, int, float]:
    """Diametral pair via convex hull and rotating calipers.

    Same value as _pair_scan; the reported pair is the lexicographically
    smallest among the antipodal pairs the sweep visits (interior points
    and duplicate hull vertices can never attain the maximum strictly, so
    the distance is exact either way).  The sweep runs on Python floats:
    float arithmetic rounds exactly like numpy float64 scalars, and each
    distance is abs(complex(dx, dy)), which is C hypot, the same rounding
    as numpy's scalar abs of a complex.
    """
    xs = pts.real.tolist()
    ys = pts.imag.tolist()
    upper, lower = _hull_chains(xs, ys, np.lexsort((pts.imag, pts.real)).tolist())
    i, j = 0, len(lower) - 1
    best = -1.0
    cands: list[tuple[int, int]] = []
    while i < len(upper) - 1 or j > 0:
        a, b = upper[i], lower[j]
        d = abs(complex(xs[a] - xs[b], ys[a] - ys[b]))
        if d > best:
            best = d
            cands = [(a, b) if a <= b else (b, a)]
        elif d == best:
            cands.append((a, b) if a <= b else (b, a))
        if i == len(upper) - 1:
            j -= 1
        elif j == 0:
            i += 1
        else:
            u0, u1 = upper[i], upper[i + 1]
            l0, l1 = lower[j - 1], lower[j]
            # advance the chain whose edge turns first
            if (ys[u1] - ys[u0]) * (xs[l1] - xs[l0]) > (ys[l1] - ys[l0]) * (
                xs[u1] - xs[u0]
            ):
                i += 1
            else:
                j -= 1
    a, b = min(cands)
    return a, b, best


def _diametral(points) -> tuple[np.ndarray, int, int, float]:
    """Points plus (i, j, distance) of a diametral pair.

    Small sets scan all pairs; above _ALL_PAIRS_LIMIT points a convex hull
    pass restricts candidates to antipodal hull pairs, which preserves the
    attained distance.
    """
    pts = _as_points(points)
    scan = _pair_scan if pts.size <= _ALL_PAIRS_LIMIT else _pair_hull
    return (pts, *scan(pts))


def diametral_pair(points) -> tuple[int, int]:
    """Indices (i, j), i <= j, of a pair attaining the set diameter.

    Deterministic: the same input always gives the same pair.  Up to
    _ALL_PAIRS_LIMIT points it is the lexicographically smallest index
    pair among all pairs attaining the diameter; above that it is the
    smallest among the antipodal hull pairs the calipers visit, which can
    be a different pair at the same distance.
    """
    _, i, j, _ = _diametral(points)
    return i, j


def diameter(points) -> float:
    """Exact diameter max |p - q| of a finite point set."""
    return _diametral(points)[3]


def diametral_disks(x, y) -> Disks:
    """The sqrt(3)/2 disks on diametral pairs (x, y), scalars or arrays.

    Each disk centers on the midpoint of its pair and has radius
    (sqrt(3)/2) * |x - y|.  Any planar set of diameter |x - y| containing
    x and y fits in this disk, so it covers the whole set; it is not the
    minimal enclosing disk.
    """
    d = x - y
    # hypot, not np.abs: it rounds exactly like scalar abs() of a complex
    return Disks((x + y) / 2.0, (math.sqrt(3.0) / 2.0) * np.hypot(d.real, d.imag))


def enclosing_disk(points) -> Disk:
    """Certified enclosing disk: diametral_disks on a diametral pair."""
    pts, i, j, _ = _diametral(points)
    return diametral_disks(pts[i], pts[j])[0]


def disk_difference(d2: Disk, d1: Disk) -> Disk:
    """Exact difference set {x - y : x in d2, y in d1}.

    The result is the disk centered at the difference of the centers with
    radius the sum of the radii (equality, not just containment).  For two
    translates of the same radius-R disk this is the radius-2R disk around
    the center offset.
    """
    return Disk(d2.center - d1.center, d2.radius + d1.radius)
