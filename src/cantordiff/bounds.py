"""Scalar bound machinery for preimage covers of the quadratic map.

Everything here is elementary real arithmetic on |c|.  Two coupled radius
recursions pin the modulus of every point in the n-th preimage of the
closed disk of radius |c|:

    R_0 = |c|,  R_{k+1} = sqrt(|c| + R_k)   (outer bound)
    r_0 = 0,    r_{k+1} = sqrt(|c| - R_k)   (inner bound)

The seeds are the disk itself.  One walk from them gives every term; its
first step is R_1 = sqrt(2|c|) and r_1 = 0.

Both converge monotonically to explicit fixed points.  The inner radii
control how strongly the inverse branches contract, which yields a
certified diameter bound K_n for every depth-n piece (n >= 0; K_0 is the
diameter bound of one inverse branch of the disk) and from it an upper
bound 12*pi*4^n*K_n^2 on the area of a disk cover of the difference set
built from those pieces.  The bound decays geometrically whenever
|c|^2 - 6|c| + 6 > 0 (with |c| > 3); that threshold is evaluated in exact
rational arithmetic so boundary parameters classify correctly.

All derived quantities are ordinary double precision: results carry the
usual relative rounding error (order n * 2^-52 for depth n), which is far
below every tolerance used downstream.  Depths up to 64 multiply the inner
radii directly; deeper rows sum their logarithms, which dodges overflow and
underflow of the product.  Where K_n or the area bound leaves double range
(|c| close to 2) it saturates at +inf, which is still an upper bound.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .geometry import Parameter

__all__ = [
    "RadiusBounds",
    "BoundRow",
    "DecayParams",
    "radius_sequences",
    "radius_limits",
    "first_piece_diameter",
    "piece_diameter_bound",
    "difference_measure_bound",
    "bound_table",
    "decay_condition",
    "decay_parameters",
]

_LOG_SPACE_DEPTH = 64


@dataclass(frozen=True)
class RadiusBounds:
    """First terms of the outer/inner radius recursions for one parameter.

    Arrays are 1-based through the accessors: outer(k) is R_k and
    inner(k) is r_k for 1 <= k <= count.
    """

    abs_c: float
    outer_seq: np.ndarray
    inner_seq: np.ndarray
    outer_limit: float
    inner_limit: float

    def __post_init__(self) -> None:
        self.outer_seq.setflags(write=False)
        self.inner_seq.setflags(write=False)

    @property
    def count(self) -> int:
        return int(self.outer_seq.size)

    def outer(self, k: int) -> float:
        if not 1 <= k <= self.count:
            raise IndexError(f"k must be in 1..{self.count}, got {k}")
        return float(self.outer_seq[k - 1])

    def inner(self, k: int) -> float:
        if not 1 <= k <= self.count:
            raise IndexError(f"k must be in 1..{self.count}, got {k}")
        return float(self.inner_seq[k - 1])


@dataclass(frozen=True)
class BoundRow:
    """One depth of the certified bound table."""

    n: int
    outer_radius: float  # R_n
    inner_radius: float  # r_n
    diam_bound: float  # K_n, certified piece diameter at depth n
    bound: float  # 12*pi*4^n*K_n^2, certified cover area
    ratio_step: float  # bound(n+1)/bound(n) = 2/r_{n+2}^2


@dataclass(frozen=True)
class DecayParams:
    """Geometric-decay certificate for the bound sequence.

    For every n >= settle_index the table satisfies
    bound(n) <= prefactor * ratio^n with ratio < 1.
    """

    epsilon: float
    delta: float
    settle_index: int
    ratio: float
    prefactor: float


def radius_limits(param: Parameter) -> tuple[float, float]:
    """Fixed points (outer, inner) of the two radius recursions."""
    a = param.abs_c
    s = math.sqrt(1.0 + 4.0 * a)
    outer = (1.0 + s) / 2.0
    inner_sq = (2.0 * a - 1.0 - s) / 2.0
    inner = math.sqrt(inner_sq) if inner_sq > 0.0 else 0.0
    return outer, inner


def _radii(a: float) -> Iterator[tuple[float, float]]:
    """(R_k, r_k) for k = 0, 1, 2, ... from the seeds R_0 = |c| = a, r_0 = 0.

    The recursion itself yields R_1 = sqrt(2a) and r_1 = 0, because a + a
    is exactly 2.0*a in floating point.
    """
    outer, inner = a, 0.0
    while True:
        yield outer, inner
        outer, inner = math.sqrt(a + outer), math.sqrt(a - outer)


def radius_sequences(param: Parameter, count: int) -> RadiusBounds:
    """R_1..R_count and r_1..r_count plus their limits."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    a = param.abs_c
    outer, inner = np.array(list(islice(_radii(a), 1, count + 1))).T.copy()
    lim_outer, lim_inner = radius_limits(param)
    return RadiusBounds(a, outer, inner, lim_outer, lim_inner)


def first_piece_diameter(param: Parameter) -> float:
    """Certified diameter bound K_0 for a depth-0 piece.

    A depth-0 piece is one inverse branch of the disk; every point of it
    has modulus at most R_1 = sqrt(2|c|), so 2*sqrt(2|c|) bounds its
    diameter.  The sampled depth-0 diameters are generate_pieces(param, 0)
    and never enter certified output.
    """
    return 2.0 * math.sqrt(2.0 * param.abs_c)


def _exp(x: float) -> float:
    """e^x, saturating at +inf where it leaves double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _rows(param: Parameter, first: int, depth: int) -> list[BoundRow]:
    """Bound rows for n = first..depth from one walk of the radius recursion.

    Each log-space row takes its own pairwise sum of logarithms (a running
    sum would change the last digits), so a whole table costs O(depth^2)
    additions; a single row (first == depth) costs O(depth).
    """
    if depth < 0:
        raise ValueError(f"depth n must be >= 0, got {depth}")
    radii = list(islice(_radii(param.abs_c), depth + 3))
    k0 = first_piece_diameter(param)
    log_inner = np.log(np.array([r for _, r in radii[2:]]))  # log r_2, log r_3, ...
    prod = 1.0  # r_2 * ... * r_{n+1}
    rows = []
    for n in range(depth + 1):
        r_next = radii[n + 2][1]
        if n < first:
            prod *= r_next
            continue
        if n <= _LOG_SPACE_DEPTH:
            # an underflowed product means K_n is past double range
            kn = 2.0 ** (-n / 2.0) / prod * k0 if prod else math.inf
            bound = 12.0 * math.pi * 4.0**n * kn * kn
        else:
            # log space dodges overflow/underflow of the product
            log_k = -n / 2.0 * math.log(2.0) - float(np.sum(log_inner[:n])) + math.log(k0)
            kn = _exp(log_k)
            log_bound = math.log(12.0 * math.pi) + n * math.log(4.0) + 2.0 * log_k
            bound = math.exp(log_bound) if log_bound < 709.0 else math.inf
        prod *= r_next
        rows.append(BoundRow(n, *radii[n], kn, bound, 2.0 / (r_next * r_next)))
    return rows


def piece_diameter_bound(param: Parameter, n: int) -> float:
    """Certified diameter bound K_n for every depth-n piece, n >= 0.

    K_n = 2^(-n/2) * (r_2 * ... * r_{n+1})^(-1) * K_0 with K_0 =
    first_piece_diameter(param).  Each inverse-branch application
    contracts pairwise distances by at least sqrt(2)*r_{k+1} at depth k,
    and the product telescopes.  K_n is +inf where it leaves double range.
    """
    return difference_measure_bound(param, n).diam_bound


def difference_measure_bound(param: Parameter, n: int) -> BoundRow:
    """Certified area bound 12*pi*4^n*K_n^2 for the depth-n cover, n >= 0.

    The difference set of the depth-n preimage is covered by the pairwise
    disk differences of 2^(n+1) enclosing disks of radius
    (sqrt(3)/2)*K_n; summing 4^(n+1) areas of radius-sqrt(3)*K_n disks
    gives the stated bound, +inf where it leaves double range.  ratio_step
    is the exact factor to the next depth, 2/r_{n+2}^2.  At n = 0 the row
    reports the recursion seeds R_0 = |c| and r_0 = 0.
    """
    return _rows(param, n, n)[0]


def bound_table(param: Parameter, depth: int) -> list[BoundRow]:
    """Bound rows for n = 1..depth from one walk of the radius recursion."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return _rows(param, 1, depth)


def decay_condition(param: Parameter) -> bool:
    """Whether geometric decay of the bound is guaranteed.

    True iff |c| > 3 and |c|^2 - 6|c| + 6 > 0, evaluated in exact rational
    arithmetic on the double |c| so parameters right at the threshold
    classify by the true sign rather than by rounding noise.  Equivalent
    to the asymptotic step 2/inner_limit^2 being < 1.
    """
    a = param.abs_c
    if not a > 3.0:
        return False
    x = Fraction(a)
    return x * x - 6 * x + 6 > 0


def _epsilon_margin(param: Parameter) -> float:
    a = param.abs_c
    return 2.0 * a - 1.0 - math.sqrt(1.0 + 4.0 * a) - 4.0


def decay_parameters(param: Parameter, epsilon: float | None = None) -> DecayParams:
    """Geometric-decay certificate (epsilon, delta, settle index, ratio).

    Requires decay_condition(param).  The margin M = 2|c| - 1 -
    sqrt(1+4|c|) - 4 is positive there; epsilon must lie in (0, M) and
    defaults to M/2.  Then

        delta = sqrt((2|c| - 1 - epsilon - sqrt(1+4|c|))/2) - sqrt(2)

    is positive, the inner radii pass sqrt(2) + delta at some first index
    settle_index + 1, and every later step multiplies the bound by at
    most ratio = 2/(sqrt(2)+delta)^2 < 1.  prefactor anchors the envelope
    at the settle depth: bound(n) <= prefactor * ratio^n for all
    n >= settle_index (certified-diameter table).
    """
    if not decay_condition(param):
        raise ValueError(
            "decay not guaranteed: need |c| > 3 and |c|^2 - 6|c| + 6 > 0, "
            f"got |c| = {param.abs_c:.17g}"
        )
    a = param.abs_c
    margin = _epsilon_margin(param)
    if epsilon is None:
        epsilon = margin / 2.0
    if not (0.0 < epsilon < margin):
        raise ValueError(
            f"epsilon must lie in (0, {margin:.17g}), got {epsilon!r}"
        )
    root2 = math.sqrt(2.0)
    s = math.sqrt(1.0 + 4.0 * a)
    delta = math.sqrt((2.0 * a - 1.0 - epsilon - s) / 2.0) - root2
    threshold = root2 + delta
    # first index with r_k >= sqrt(2) + delta; the inner radii increase
    # strictly to a limit above the threshold, so the scan terminates
    walk = islice(_radii(a), (1 << 22) + 1)
    first = next((k for k, (_, r) in enumerate(walk) if r >= threshold), None)
    if first is None:
        raise RuntimeError(
            "inner radii did not reach the decay threshold; "
            "epsilon is too close to its upper limit"
        )
    settle = max(first - 1, 1)
    ratio = 2.0 / (threshold * threshold)
    anchor = difference_measure_bound(param, settle)
    prefactor = anchor.bound / ratio**settle
    return DecayParams(
        epsilon=float(epsilon),
        delta=delta,
        settle_index=settle,
        ratio=ratio,
        prefactor=prefactor,
    )
