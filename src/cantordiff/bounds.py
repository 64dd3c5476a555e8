"""Scalar bound machinery for preimage covers of the quadratic map.

Everything here is elementary real arithmetic on |c|.  Two coupled radius
recursions pin the modulus of every point in the n-th preimage of the
closed disk of radius |c|:

    R_1 = sqrt(2|c|),  R_{k+1} = sqrt(|c| + R_k)   (outer bound)
    r_1 = 0,           r_{k+1} = sqrt(|c| - R_k)   (inner bound)

seeded by R_0 = |c| (the disk itself) and r_0 = 0.

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
below every tolerance used downstream.  Depths beyond 64 are evaluated in
log space to dodge overflow/underflow of the intermediate products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

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


def radius_sequences(param: Parameter, count: int) -> RadiusBounds:
    """R_1..R_count and r_1..r_count plus their limits."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    a = param.abs_c
    outer = np.empty(count, dtype=np.float64)
    inner = np.empty(count, dtype=np.float64)
    outer[0] = math.sqrt(2.0 * a)
    inner[0] = 0.0
    for k in range(1, count):
        outer[k] = math.sqrt(a + outer[k - 1])
        inner[k] = math.sqrt(a - outer[k - 1])
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


def _log_diameter_bound(param: Parameter, rb: RadiusBounds, n: int) -> float:
    """log K_n, for depths where the direct product could leave double range."""
    inner_log_sum = float(np.sum(np.log(rb.inner_seq[1 : n + 1])))
    return -n / 2.0 * math.log(2.0) - inner_log_sum + math.log(first_piece_diameter(param))


def _require_depth(n: int) -> None:
    if n < 0:
        raise ValueError(f"depth n must be >= 0, got {n}")


def _radius_table(param: Parameter, rb: RadiusBounds | None, count: int) -> RadiusBounds:
    if rb is not None and rb.count >= count and rb.abs_c == param.abs_c:
        return rb
    return radius_sequences(param, count)


def piece_diameter_bound(
    param: Parameter,
    n: int,
    rb: RadiusBounds | None = None,
) -> float:
    """Certified diameter bound K_n for every depth-n piece, n >= 0.

    K_n = 2^(-n/2) * (r_2 * ... * r_{n+1})^(-1) * K_0 with K_0 =
    first_piece_diameter(param).  Each inverse-branch application
    contracts pairwise distances by at least sqrt(2)*r_{k+1} at depth k,
    and the product telescopes.
    """
    _require_depth(n)
    rb = _radius_table(param, rb, n + 1)
    if n <= _LOG_SPACE_DEPTH:
        prod = 1.0
        for k in range(1, n + 1):
            prod *= rb.inner_seq[k]
        return 2.0 ** (-n / 2.0) / prod * first_piece_diameter(param)
    return math.exp(_log_diameter_bound(param, rb, n))


def difference_measure_bound(
    param: Parameter,
    n: int,
    rb: RadiusBounds | None = None,
) -> BoundRow:
    """Certified area bound 12*pi*4^n*K_n^2 for the depth-n cover, n >= 0.

    The difference set of the depth-n preimage is covered by the pairwise
    disk differences of 2^(n+1) enclosing disks of radius
    (sqrt(3)/2)*K_n; summing 4^(n+1) areas of radius-sqrt(3)*K_n disks
    gives the stated bound.  ratio_step is the exact factor to the next
    depth, 2/r_{n+2}^2.  At n = 0 the row reports the recursion seeds
    R_0 = |c| and r_0 = 0.
    """
    _require_depth(n)
    rb = _radius_table(param, rb, n + 2)
    kn = piece_diameter_bound(param, n, rb)
    if n <= _LOG_SPACE_DEPTH:
        bound = 12.0 * math.pi * 4.0**n * kn * kn
    else:
        log_k = _log_diameter_bound(param, rb, n)
        log_bound = math.log(12.0 * math.pi) + n * math.log(4.0) + 2.0 * log_k
        # a diverging table can leave double range; +inf is still an upper bound
        bound = math.exp(log_bound) if log_bound < 709.0 else math.inf
    r_next = rb.inner(n + 2)
    ratio_step = 2.0 / (r_next * r_next)
    return BoundRow(
        n=n,
        outer_radius=rb.outer(n) if n else param.abs_c,
        inner_radius=rb.inner(n) if n else 0.0,
        diam_bound=kn,
        bound=bound,
        ratio_step=ratio_step,
    )


def bound_table(param: Parameter, depth: int) -> list[BoundRow]:
    """Bound rows for n = 1..depth, sharing one radius table."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    rb = radius_sequences(param, depth + 2)
    return [difference_measure_bound(param, n, rb) for n in range(1, depth + 1)]


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
    count = 64
    first = None
    while first is None:
        rb = radius_sequences(param, count)
        hits = np.nonzero(rb.inner_seq >= threshold)[0]
        if hits.size:
            first = int(hits[0]) + 1
        else:
            count *= 4
            if count > 1 << 22:
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
