"""Scalar bound machinery for preimage covers of the quadratic map.

Everything here is elementary real arithmetic on |c|, on the standard
library alone.  Two coupled radius recursions pin the modulus of every
point in the n-th preimage of the closed disk of radius |c|:

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
integer arithmetic so boundary parameters classify correctly.

Every certified number is rounded outward.  IEEE sqrt, +, -, * and / are
correctly rounded, so stepping one double outward with math.nextafter
after each of them gives a one-sided bound (Tucker, Validated Numerics,
2011): the bound walk rounds R_k, K_n, the area bound, ratio_step and the
decay ratio and prefactor up, and r_k down.  It never forms |c| - R_k,
which cancels near |c| = 2; it walks d_k = |c| - R_k as

    d_{k+1} = (|c|(|c| - 2) + d_k) / (|c| + R_{k+1}),   r_{k+1} = sqrt(d_k).

The product r_2*...*r_{n+1} is kept as a math.frexp mantissa and
exponent, so it neither overflows nor underflows, and K_n and the bound
are scaled into place with math.ldexp at the end: above the double range
they saturate at +inf, below the normal range they round up to a
subnormal and never below the smallest positive double, and all of these
are still upper bounds.  abs(c) is only within an ulp of |c| off the
axes; an exact integer comparison tells on which side |c| lies, and the
walk takes the neighbouring double there wherever that is conservative.
It takes |c| - 2 from the exact |c|^2, where the ulp would be magnified.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterator
from itertools import islice

__all__ = [
    "Parameter",
    "BoundRow",
    "DecayParams",
    "radius_limits",
    "first_piece_diameter",
    "piece_diameter_bound",
    "difference_measure_bound",
    "bound_table",
    "decay_condition",
    "decay_parameters",
]

# largest accepted |c|: 4|c| is then at most the largest double
_ABS_C_MAX = sys.float_info.max / 4.0
_SQRT2_UP = math.nextafter(math.sqrt(2.0), math.inf)
_TWELVE_PI_UP = math.nextafter(12.0 * math.nextafter(math.pi, math.inf), math.inf)


class Parameter(namedtuple("Parameter", "c")):
    """Parameter c of the quadratic map, restricted to |c| > 2.

    For |c| > 2 the filled Julia set is totally disconnected and the whole
    inverse-branch construction applies; smaller parameters are rejected
    outright rather than producing silently wrong bounds.  So is any |c|
    above a quarter of the largest double, where 4|c| (in the radius
    limits and the decay margin) would overflow.
    """

    __slots__ = ()

    def __new__(cls, c):
        c = complex(c)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("parameter c must be finite")
        try:
            a = abs(c)
        except OverflowError:  # |c| beyond the largest double
            a = math.inf
        if not a > 2.0:
            raise ValueError(
                f"need |c| > 2 (totally disconnected regime), got |c| = {a:.17g}"
            )
        if not a <= _ABS_C_MAX:
            raise ValueError(
                f"need |c| <= {_ABS_C_MAX:.17g} (4|c| must stay finite), got c = {c}"
            )
        return super().__new__(cls, c)

    @classmethod
    def _make(cls, iterable):  # so _replace validates too
        return cls(*iterable)

    @property
    def abs_c(self) -> float:
        return abs(self.c)


class BoundRow(
    namedtuple("BoundRow", "n outer_radius inner_radius diam_bound bound ratio_step")
):
    """One depth of the certified bound table.

    outer_radius is R_n, rounded up; inner_radius r_n, rounded down;
    diam_bound K_n, the certified piece diameter at depth n; bound
    12*pi*4^n*K_n^2, the certified cover area; ratio_step
    bound(n+1)/bound(n) = 2/r_{n+2}^2, rounded up.
    """

    __slots__ = ()


class DecayParams(namedtuple("DecayParams", "epsilon delta settle_index ratio prefactor")):
    """Geometric-decay certificate for the bound sequence.

    For every n >= settle_index the table satisfies
    bound(n) <= prefactor * ratio^n with ratio < 1.
    """

    __slots__ = ()


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _down(x: float) -> float:
    # every quantity rounded down here is >= 0, so 0 is a lower bound too
    return max(math.nextafter(x, -math.inf), 0.0)


def _div_up(x: float, y: float) -> float:
    """x / y rounded up for x, y >= 0: exact when y is a power of two, +inf at y = 0."""
    if not y:
        return math.inf
    q = x / y
    return q if math.frexp(y)[0] == 0.5 else _up(q)


def _scale_up(x: float, e: int) -> float:
    """x * 2^e rounded up: +inf above the double range, at least the
    smallest positive double below it (ldexp is exact for normal results)."""
    try:
        y = math.ldexp(x, e)
    except OverflowError:
        return math.inf
    return y if y >= sys.float_info.min else _up(y)


def _abs_c_range(param: Parameter) -> tuple[float, float, float]:
    """Doubles lo <= |c| <= hi, one of them abs(c), and excess <= |c| - 2.

    abs(c) rounds hypot(re c, im c), so |c| lies within an ulp of it.  The
    sign of abs(c)^2 - |c|^2, exact on the integer ratios of the three
    doubles, tells on which side.  Where abs(c) is inexact and below 4,
    lo - 2 would magnify that ulp, so excess is (|c|^2 - 4)/(|c| + 2) with
    |c|^2 - 4 from one correctly rounded int division.
    """
    a = param.abs_c
    (p, q), (x, u), (y, v) = (t.as_integer_ratio() for t in (a, param.c.real, param.c.imag))
    den = (u * v) ** 2
    num = (x * v) ** 2 + (y * u) ** 2  # |c|^2 = num/den
    side = p * p * den - num * q * q
    lo = _down(a) if side > 0 else a
    hi = _up(a) if side < 0 else a
    if side and a < 4.0:
        return lo, hi, _down(_down((num - 4 * den) / den) / _up(hi + 2.0))
    return lo, hi, _down(lo - 2.0)


def radius_limits(param: Parameter) -> tuple[float, float]:
    """Fixed points (outer, inner) of the two radius recursions.

    The inner limit squared, (2|c| - 1 - sqrt(1 + 4|c|))/2, is evaluated
    in the conjugate form 2|c|(|c| - 2)/(2|c| - 1 + sqrt(1 + 4|c|)) with
    |c| - 2 from _abs_c_range, so it does not cancel near |c| = 2, on the
    axes or off them.
    """
    a = param.abs_c
    s = math.sqrt(1.0 + 4.0 * a)
    outer = (1.0 + s) / 2.0
    inner = math.sqrt(2.0 * a * (_abs_c_range(param)[2] / (2.0 * a - 1.0 + s)))
    return outer, inner


def _walk(lo: float, hi: float, excess: float) -> Iterator[tuple[float, float]]:
    """(R_k, r_k) for k = 0, 1, 2, ..., from R_0 = |c| and r_0 = 0.

    lo <= |c| <= hi and excess <= |c| - 2; R_k is rounded up and r_k
    down.  The walk never forms |c| - R_k: d_0 = 0, so r_1 = sqrt(d_0) = 0
    exactly, and d_{k+1} = (|c|(|c| - 2) + d_k) / (|c| + R_{k+1}) with
    numerator and denominator scaled by t = 2^-m, |c|t in [1/2, 1): the
    scaling is exact and keeps |c|(|c| - 2) in range.
    """
    t = math.ldexp(1.0, -math.frexp(hi)[1])
    head = _down(excess * (lo * t))  # |c|(|c| - 2) t
    outer, gap, inner = hi, 0.0, 0.0  # R_0, d_0, r_0
    while True:
        yield outer, inner
        inner = _down(math.sqrt(gap))
        outer = _up(math.sqrt(_up(hi + outer)))
        gap = _down(_down(head + gap * t) / _up(hi * t + outer * t))


def first_piece_diameter(param: Parameter) -> float:
    """Certified diameter bound K_0 = 2*sqrt(2|c|), rounded up, for a depth-0 piece.

    A depth-0 piece is one inverse branch of the disk; every point of it
    has modulus at most R_1 = sqrt(2|c|), so 2*sqrt(2|c|) bounds its
    diameter.  The sampled depth-0 diameters are generate_pieces(param, 0)
    and never enter certified output.
    """
    return 2.0 * _up(math.sqrt(2.0 * _abs_c_range(param)[1]))


def _rows(param: Parameter, first: int, depth: int) -> list[BoundRow]:
    """Bound rows for n = first..depth from one O(depth) walk.

    K_n = K_0 * 2^(-n/2) / (r_2*...*r_{n+1}); for odd n the half power is
    2^(-(n+1)/2) * sqrt(2).  So K_n = q * 2^shift with an integer shift and
    a mantissa q in [1/2, 1) from K_0 (times sqrt 2 for odd n) over the
    product's mantissa, and the bound is 12*pi*q^2 * 2^(2*shift + 2n).
    """
    if depth < 0:
        raise ValueError(f"depth n must be >= 0, got {depth}")
    radii = list(islice(_walk(*_abs_c_range(param)), depth + 3))
    k_even = first_piece_diameter(param)
    k_odd = _up(k_even * _SQRT2_UP)
    mant, exp = 1.0, 0  # r_2*...*r_{n+1} >= mant * 2^exp
    rows = []
    for n in range(depth + 1):
        if n:
            mant, e = math.frexp(_down(mant * radii[n + 1][1]))
            exp += e
        if n < first:
            continue
        q, e = math.frexp(_div_up(k_odd if n % 2 else k_even, mant))
        shift = e - exp - (n + 1) // 2
        kn = _scale_up(q, shift)
        bound = _scale_up(_up(_TWELVE_PI_UP * _up(q * q)), 2 * (shift + n))
        r_next = radii[n + 2][1]
        ratio_step = _div_up(2.0, _down(r_next * r_next))
        rows.append(BoundRow(n, *radii[n], kn, bound, ratio_step))
    return rows


def piece_diameter_bound(param: Parameter, n: int) -> float:
    """Certified diameter bound K_n for every depth-n piece, n >= 0.

    K_n = 2^(-n/2) * (r_2 * ... * r_{n+1})^(-1) * K_0 with K_0 =
    first_piece_diameter(param).  Each inverse-branch application
    contracts pairwise distances by at least sqrt(2)*r_{k+1} at depth k,
    and the product telescopes.  K_n is rounded up, +inf where it leaves
    double range.
    """
    return difference_measure_bound(param, n).diam_bound


def difference_measure_bound(param: Parameter, n: int) -> BoundRow:
    """Certified area bound 12*pi*4^n*K_n^2 for the depth-n cover, n >= 0.

    The difference set of the depth-n preimage is covered by the pairwise
    disk differences of 2^(n+1) enclosing disks of radius
    (sqrt(3)/2)*K_n; summing 4^(n+1) areas of radius-sqrt(3)*K_n disks
    gives the stated bound, rounded up, +inf where it leaves double range.
    ratio_step is the factor to the next depth, 2/r_{n+2}^2, rounded up.
    At n = 0 the row reports the recursion seeds R_0 = |c| and r_0 = 0.
    """
    return _rows(param, n, n)[0]


def bound_table(param: Parameter, depth: int) -> list[BoundRow]:
    """Bound rows for n = 1..depth from one walk of the radius recursion."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return _rows(param, 1, depth)


def decay_condition(param: Parameter) -> bool:
    """Whether geometric decay of the bound is guaranteed.

    True iff |c| > 3 and |c|^2 - 6|c| + 6 > 0, evaluated exactly on the
    double |c| = p/q as p^2 - 6pq + 6q^2 > 0 in integers, so parameters
    right at the threshold classify by the true sign rather than by
    rounding noise.  Equivalent to the asymptotic step 2/inner_limit^2
    being < 1.
    """
    a = param.abs_c
    if not a > 3.0:
        return False
    p, q = a.as_integer_ratio()
    return p * p - 6 * p * q + 6 * q * q > 0


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
    most ratio = 2/(sqrt(2)+delta)^2 < 1, rounded up.  prefactor, rounded
    up, anchors the envelope at the settle depth: bound(n) <= prefactor *
    ratio^n for all n >= settle_index (certified-diameter table).
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
    walk = islice(_walk(*_abs_c_range(param)), (1 << 22) + 1)
    first = next((k for k, (_, r) in enumerate(walk) if r >= threshold), None)
    if first is None:
        raise RuntimeError(
            "inner radii did not reach the decay threshold; "
            "epsilon is too close to its upper limit"
        )
    settle = max(first - 1, 1)
    ratio = _div_up(2.0, _down(threshold * threshold))
    power = 1.0  # ratio^settle, rounded down
    for _ in range(settle):
        power = _down(power * ratio)
    anchor = difference_measure_bound(param, settle)
    return DecayParams(
        epsilon=float(epsilon),
        delta=delta,
        settle_index=settle,
        ratio=ratio,
        prefactor=_div_up(anchor.bound, power),
    )
