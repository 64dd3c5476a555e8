"""Self-contained cross-validation of every certified claim.

Each check pits one piece of the bound machinery against an independent
brute-force oracle (forward iteration, exhaustive pairwise scans, plain
rasters, reproducible sampling) at desk scale.  A check returns a pass
flag plus a one-line deterministic detail string; the harness collects
them into a report whose bytes depend only on the configuration, never on
wall clock or dict ordering.

Tolerances fall into four groups: exact (bitwise) where the construction
guarantees identity, one-sided where a certified number must lie outward
of the true one (the radius rows, bracketed by an exact integer
fixed-point recursion and at most 1e-14-relative from it),
1e-12-relative where only rounding noise separates the two sides, and
1e-9-relative where a forward-inverse roundtrip feeds one side;
piece-membership carries a rounding bound derived from operation counts.
The piece-nesting check additionally allows a sampling slack that
shrinks like 1/samples^2: enclosing disks built from sampled diametral
pairs undershoot the true set slightly, and the quadratic rate comes
from the smoothness of the piece boundaries.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import cached_property

import numpy as np

from . import bounds as bnd
from . import cover as cov
from .geometry import (
    _BUDGET,
    Disks,
    Parameter,
    diametral_disks,
    disk_difference,
    forward_map,
    inverse_branch,
)
from .raster import (
    DEFAULT_MAX_CELLS,
    GridMask,
    check_cap,
    lcg_uniforms,
    mask_difference,
    rasterize_preimage,
    sample_diff_check,
)

__all__ = ["VerifyConfig", "run_verification", "REPORT_SCHEMA"]

REPORT_SCHEMA = "cantordiff-verify/1"

# sampled enclosing disks undershoot the true disk by O(diam / samples^2);
# this constant times radius/samples^2 absorbs it.  Calibrated over several
# parameters, depths up to 6 and sample counts 16..256: no violation was
# ever observed (the sqrt(3)/2 factor already cushions the circumradius),
# so this guards only unexplored corners of parameter space.
_NEST_C = 16.0

# piece-membership's rounding per orbit step, in units of u = 2^-53 times
# |w|^2 + |c|: 4 for forward_map (complex square and + c), 2 for np.hypot,
# 1 for the threshold sum, 24 for the inverse step that built the point
# (sqrt_branch is within 12u relative: u for z - c, 2.5u for the root of
# the modulus, 6.5u for half the arctan2 argument shifted by 2*pi, 2u for
# the exponential, u for the product; squaring doubles it) and 16 for the
# chain points, at most 16u*|c| outside |z| = |c| (3u at the boundary,
# then 12u plus a quarter of the excess per step).  47, rounded up to
# leave a 1/48 relative slack for the terms of order u^2.
_ORBIT_KAPPA = 48.0

# fraction bits of radius-recursion's integer reference, which holds R_k
# as an integer B_k within 6 units below 2^_P R_k (about 60 digits)
_P = 200


class VerifyConfig(
    namedtuple(
        "VerifyConfig",
        "param depth samples cell count seed epsilon",
        defaults=(4, 256, 0.02, 20000, 20260816, None),
    )
):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.count < 1000:
            raise ValueError(f"count must be >= 1000, got {self.count}")
        return self

    @classmethod
    def _make(cls, iterable):  # so _replace validates too
        return cls(*iterable)


class _Ctx:
    """The configuration's fields (ctx.param, ctx.depth, ...) and the shared
    expensive intermediates, built lazily."""

    def __init__(self, cfg: VerifyConfig) -> None:
        vars(self).update(cfg._asdict())
        self._inner: dict[int, GridMask] = {}

    def inner(self, depth: int) -> GridMask:
        if depth not in self._inner:
            self._inner[depth] = rasterize_preimage(self.param, depth, self.cell)
        return self._inner[depth]

    @cached_property
    def pieces(self) -> list[cov.Pieces]:
        return cov.piece_tree(self.param, self.depth, self.samples)

    @cached_property
    def rows(self) -> list[bnd.BoundRow]:
        """Certified bound rows n = 1..max(depth + 2, 420); rows[k - 1] is n = k."""
        return bnd.bound_table(self.param, max(self.depth + 2, 420))


def _seeded_points(ctx: _Ctx, count: int, spread: float, stream: int) -> np.ndarray:
    u = lcg_uniforms(ctx.seed + stream, 2 * count)
    return spread * ((2.0 * u[0::2] - 1.0) + 1j * (2.0 * u[1::2] - 1.0))


def _check_branch_roundtrip(ctx: _Ctx) -> tuple[bool, str]:
    z = _seeded_points(ctx, 4096, ctx.param.abs_c + 2.0, stream=1)
    worst = 0.0
    for b in (0, 1):
        back = forward_map(inverse_branch(z, b, ctx.param), ctx.param)
        rel = np.abs(back - z) / np.maximum(np.abs(z), 1.0)
        worst = max(worst, float(rel.max()))
    return worst <= 1e-12, f"max relative roundtrip error {worst:.3e}"


def _check_branch_symmetry(ctx: _Ctx) -> tuple[bool, str]:
    z = _seeded_points(ctx, 4096, ctx.param.abs_c + 2.0, stream=2)
    plus = inverse_branch(z, 0, ctx.param)
    minus = inverse_branch(z, 1, ctx.param)
    exact = bool(np.array_equal(minus, -plus))
    args = np.angle(plus[np.abs(plus) > 0])
    in_range = bool(np.all((args >= 0.0) & (args < math.pi)))
    ok = exact and in_range
    return ok, f"negation exact={exact}, branch-0 arguments in [0, pi)={in_range}"


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


def _check_radius_recursion(ctx: _Ctx) -> tuple[bool, str]:
    rows = ctx.rows
    outer, inner = _integer_radii(ctx.param, len(rows))
    big = [row.outer_radius for row in rows]
    small = [row.inner_radius for row in rows]
    # a row x = n/d against its reference y = B/2^P, exactly: x - y has the
    # sign of e = n 2^P - B d, and |x - y|/y = |e|/(B d)
    gaps = []
    for x, b in zip(big + small, outer + inner):
        n, d = x.as_integer_ratio()
        gaps.append(((n << _P) - b * d, b * d))
    outward = all(e >= 0 for e, _ in gaps[: len(rows)]) and all(
        e <= 0 for e, _ in gaps[len(rows) :]
    )
    # the largest relative gap num/den over the references y > 0
    num, den = 0, 1
    for e, m in gaps:
        if m and abs(e) * den > num * m:
            num, den = abs(e), m
    # weak, not eventually constant: after R_k stalls at its fixed point the
    # d_k walk still moves, so r_k may rise by an ulp later, still a lower bound
    mono = all(x >= y for x, y in zip(big, big[1:])) and all(
        x <= y for x, y in zip(small, small[1:])
    )
    ok = outward and num * 10**14 <= den and mono
    return ok, (
        f"bracket of the 50-digit recursion={outward}, max relative gap "
        f"{num / den:.3e}, monotone until stall={mono}"
    )


def _check_radius_limits(ctx: _Ctx) -> tuple[bool, str]:
    a = ctx.param.abs_c
    lo, li = bnd.radius_limits(ctx.param)
    res = max(abs(lo * lo - (a + lo)), abs(li * li - (a - lo))) / max(a, 1.0)
    term = ctx.rows[63]
    gap = max(abs(term.outer_radius - lo), abs(term.inner_radius - li))
    # the outward rows sit ulps of R* away from the limits
    ok = res <= 1e-15 and gap <= 1e-12 * max(lo, 1.0)
    return ok, f"fixed-point residual {res:.3e}, term-64 gap {gap:.3e}"


def _check_decay_equivalence(ctx: _Ctx) -> tuple[bool, str]:
    mags = [2.2, 2.5, 3.0, 3.5, 4.0, 4.5, 4.73, 4.74, 3.0 + math.sqrt(3.0), 5.0, 8.0, 12.0]
    bad = []
    for a in mags:
        p = Parameter(a)
        cond = bnd.decay_condition(p)
        _, inner = bnd.radius_limits(p)
        step = 2.0 / (inner * inner) if inner > 0 else math.inf
        if cond != (step < 1.0):
            bad.append(a)
    ok = not bad
    return ok, f"checked {len(mags)} magnitudes, mismatches {bad!r}"


def _check_decay_tail(ctx: _Ctx) -> tuple[bool, str]:
    if not bnd.decay_condition(ctx.param):
        return True, "skipped: decay not guaranteed for this parameter"
    dp = bnd.decay_parameters(ctx.param, ctx.epsilon)
    top = 400
    worst = 0.0
    # below the normal range the bound saturates at the smallest positive
    # double and the envelope loses precision or underflows to 0
    tiny = 0
    for row in ctx.rows[dp.settle_index - 1 : top]:
        env = dp.prefactor * dp.ratio**row.n
        if min(env, row.bound) < sys.float_info.min:
            tiny += 1
        else:
            worst = max(worst, row.bound / env)
    threshold = math.sqrt(2.0) + dp.delta - 1e-12
    above = all(row.inner_radius >= threshold for row in ctx.rows[dp.settle_index : top])
    ok = worst <= 1.0 + 1e-9 and above
    detail = (
        f"bound/envelope max {worst:.12f} over n={dp.settle_index}..{top}, "
        f"inner radii above threshold={above}"
    )
    if tiny:
        detail += f", {tiny} rows below the normal range skipped"
    return ok, detail


def _check_bound_telescoping(ctx: _Ctx) -> tuple[bool, str]:
    rows = ctx.rows[:200]
    worst_k = 0.0
    worst_r = 0.0
    # a step to +inf must be predicted to pass the saturation threshold,
    # the largest double; saturated counts the steps from a finite value
    # to +inf (at most two).  A step from or to a value below the normal
    # range, where the rows saturate at the smallest positive double, is
    # skipped and counted in tiny.
    saturated = tiny = 0
    reach_k = reach_r = math.inf
    for prev, nxt in zip(rows, rows[1:]):
        r_next = ctx.rows[prev.n + 1].inner_radius
        if math.isinf(nxt.diam_bound):
            saturated += math.isfinite(prev.diam_bound)
            predicted = prev.diam_bound / sys.float_info.max / (math.sqrt(2.0) * r_next)
            reach_k = min(reach_k, predicted)
        elif min(prev.diam_bound, nxt.diam_bound) < sys.float_info.min:
            tiny += 1
        else:
            lhs = nxt.diam_bound * math.sqrt(2.0) * r_next
            worst_k = max(worst_k, abs(lhs - prev.diam_bound) / prev.diam_bound)
        if math.isinf(nxt.bound):
            saturated += math.isfinite(prev.bound)
            reach_r = min(reach_r, prev.bound / sys.float_info.max * prev.ratio_step)
        elif min(prev.bound, nxt.bound) < sys.float_info.min:
            tiny += 1
        else:
            step = nxt.bound / prev.bound
            worst_r = max(worst_r, abs(step - prev.ratio_step) / prev.ratio_step)
    ok = (
        worst_k <= 1e-12
        and worst_r <= 1e-9
        and reach_k >= 1.0 - 1e-12
        and reach_r >= 1.0 - 1e-9
    )
    detail = (
        f"diameter telescoping rel err {worst_k:.3e}, "
        f"ratio_step vs actual step rel err {worst_r:.3e}"
    )
    if saturated:
        detail += (
            f", {saturated} steps from finite to +inf, predicted/threshold min "
            f"{min(reach_k, reach_r):.3e}"
        )
    if tiny:
        detail += f", {tiny} steps below the normal range skipped"
    return ok, detail


def _check_piece_membership(ctx: _Ctx) -> tuple[bool, str]:
    """Every sample's forward orbit stays in |z| <= |c| up to rounding.

    The float orbit w_m of a level-k sample retraces the inverse chain v_m
    that built it, back to the circle at m = k + 1.  With ku = _ORBIT_KAPPA
    * u, e_0 = ku*(|w_0| + |c|) and, from |Q(z) - Q(w)| = |z - w||z + w|,
    e_{m+1} = (2|w_m| + e_m)*e_m + ku*(|w_m|^2 + |c|) bound |w_m - v_m|,
    how far v_m may sit outside |z| = |c| and the rounding of the test
    |w_m| <= |c| + e_m.  An orbit stops once e_m passes R_1 = sqrt(2|c|),
    the bound of every chain point but the last: nothing is left to falsify.
    """
    a = ctx.param.abs_c
    r1 = math.sqrt(2.0 * a)
    ku = _ORBIT_KAPPA * 2.0**-53
    worst, ok, stopped = 0.0, True, 0
    for k, level in enumerate(ctx.pieces):
        w = level.samples.ravel()
        mod = np.hypot(w.real, w.imag)
        e = ku * (mod + a)
        for step in range(k + 2):
            if step:
                live = e <= r1
                w, mod, e = w[live], mod[live], e[live]
                e = (2.0 * mod + e) * e + ku * (mod * mod + a)
                w = forward_map(w, ctx.param)
                mod = np.hypot(w.real, w.imag)
            worst = max(worst, float(mod.max(initial=0.0)))
            ok = ok and bool(np.all(mod <= a + e))
        stopped += level.samples.size - w.size
    detail = f"max forward-orbit modulus {worst:.12f} vs |c| = {a:.12f}"
    if stopped:
        detail += f", {stopped} orbits stopped once their error bound passed R_1 = {r1:.6g}"
    return ok, detail


def _check_suffix_sharing(ctx: _Ctx) -> tuple[bool, str]:
    # one branch call per piece, against the tree's one call per level
    prev = cov.boundary_samples(ctx.param, ctx.samples)[None, :]
    exact = True
    for k, level in enumerate(ctx.pieces):
        half = 1 << k
        for j, arr in enumerate(level.samples):
            b = j >> k
            src = prev[j & (half - 1)]
            if not np.array_equal(arr, inverse_branch(src, b, ctx.param)):
                exact = False
        prev = level.samples
    return exact, f"rebuilt {sum(len(lv) for lv in ctx.pieces)} pieces, bitwise equal={exact}"


def _check_pairwise_contraction(ctx: _Ctx) -> tuple[bool, str]:
    n = ctx.samples
    # piece j + 2^k of level k is -(piece j), whose pair distances are
    # the same bit for bit, so only the first half of each level is
    # measured; the mirror itself is checked, so no piece goes unseen
    halves = []
    for k, level in enumerate(ctx.pieces):
        half = len(level) >> 1
        if not np.array_equal(level.samples[half:], -level.samples[:half]):
            return False, (
                f"depth {k}: pieces {half}..{2 * half - 1} are not pieces 0..{half - 1} negated"
            )
        halves.append(level.samples[:half])
    worst = 0.0
    # sample rows lo..lo+rows-1 against the columns after lo: every pair
    # i < j once at least, and the pairs seen twice give the same ratio,
    # since |a - b| == |b - a| bit for bit.  A block spans every piece of
    # a half level, the deepest within _BUDGET elements (at least one
    # sample row), and serves as the parent distances of the next level:
    # child p < 2^k maps from parent p, and parent p + 2^(k-1) is
    # -(parent p), so child half rows p and p + 2^(k-1) share parent half
    # row p
    lo = 0
    while lo < n - 1:
        rows = max(1, _BUDGET // (len(halves[-1]) * (n - lo - 1)))
        i, j = slice(lo, lo + rows), slice(lo + 1, n)
        for k, s in enumerate(halves):
            d = np.abs(s[:, i, None] - s[:, None, j])
            if k:
                mask = dp > 0
                dc = (d * (math.sqrt(2.0) * ctx.rows[k].inner_radius)).reshape(2, *dp.shape)
                np.divide(dc, dp, out=dc, where=mask)
                worst = max(worst, float(dc.max(where=mask, initial=0.0)))
            dp = d
        lo += rows
    ok = worst <= 1.0 + 1e-9
    return ok, f"max contracted/original pairwise ratio {worst:.12f} (depths 1..{ctx.depth})"


def _check_sampled_diameter(ctx: _Ctx) -> tuple[bool, str]:
    worst = 0.0
    for k, level in enumerate(ctx.pieces[1:], start=1):
        kn = bnd.piece_diameter_bound(ctx.param, k)
        worst = max(worst, float((level.sampled_diam / kn).max()))
    ok = worst <= 1.0 + 1e-12
    return ok, f"max sampled diameter / certified bound {worst:.12f}"


def _worst_fill(samples: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> float:
    """Max over rows k with radii[k] > 0 of |samples[k] - centers[k]| / radii[k]."""
    dev = np.abs(samples - centers[:, None]).max(axis=1)
    pos = radii > 0.0
    return float((dev[pos] / radii[pos]).max(initial=0.0))


def _check_enclosure(ctx: _Ctx) -> tuple[bool, str]:
    worst = max(_worst_fill(lv.samples, lv.disks.centers, lv.disks.radii) for lv in ctx.pieces)
    ok = worst <= 1.0 + 1e-12
    return ok, f"max sample distance / disk radius {worst:.15f}"


def _check_argument_spread(ctx: _Ctx) -> tuple[bool, str]:
    worst = 0.0
    for level in ctx.pieces[1:]:
        # a row's spread is 2*pi less its widest gap between arguments,
        # the one across the cut included
        args = np.sort(np.angle(level.samples), axis=1)
        gaps = np.diff(args, axis=1).max(axis=1, initial=0.0)
        wrap = 2.0 * math.pi - (args[:, -1] - args[:, 0])
        spread = 2.0 * math.pi - np.maximum(gaps, wrap)
        worst = float(np.fmax.reduce(spread, initial=worst))
    ok = worst < math.pi / 2.0
    return ok, f"max argument spread {worst:.12f} < pi/2 = {math.pi / 2.0:.12f}"


def _check_nesting(ctx: _Ctx) -> tuple[bool, str]:
    slack = 1e-9 + _NEST_C / (ctx.samples * ctx.samples)
    # row j's prefix piece is row j >> 1 one level up
    worst = max(
        _worst_fill(lv.samples, np.repeat(up.disks.centers, 2), np.repeat(up.disks.radii, 2))
        for up, lv in zip(ctx.pieces, ctx.pieces[1:])
    )
    ok = worst <= 1.0 + slack
    return ok, f"max child sample / parent disk radius {worst:.12f} (slack {slack:.3e})"


def _seeded_disk_pairs(ctx: _Ctx, pairs: int, stream: int) -> tuple[Disks, Disks]:
    """Disks d2 and d1 with one row per pair, row t from the six uniforms
    6t..6t + 5: d2's center, d1's center, d2's radius, d1's radius."""
    u = lcg_uniforms(ctx.seed + stream, 6 * pairs).reshape(pairs, 6)
    # each center's parts side by side, viewed as one complex
    centers = (4.0 * u[:, :4] - 2.0).view(np.complex128)
    radii = 0.5 + u[:, 4:]
    return Disks(centers[:, 0], radii[:, 0]), Disks(centers[:, 1], radii[:, 1])


def _paired_difference(d2: Disks, d1: Disks) -> Disks:
    """Row t of d2 minus row t of d1: the diagonal of disk_difference."""
    pred = disk_difference(d2, d1)
    return Disks(pred.centers[:: len(d1) + 1], pred.radii[:: len(d1) + 1])


def _check_difference_sampling(ctx: _Ctx) -> tuple[bool, str]:
    d2, d1 = _seeded_disk_pairs(ctx, 8, stream=3)
    radii = _paired_difference(d2, d1).radii
    sup_ratio = 0.0
    for t in range(len(d2)):
        row2, row1 = Disks(d2.centers[t], d2.radii[t]), Disks(d1.centers[t], d1.radii[t])
        try:
            sup = sample_diff_check(row2, row1, ctx.count, ctx.seed + 100 + t)
        except RuntimeError as exc:
            return False, str(exc)
        sup_ratio = max(sup_ratio, sup / float(radii[t]))
    ok = sup_ratio <= 1.0
    return ok, f"8 pairs, {ctx.count} samples each, max sup/radius {sup_ratio:.9f}"


def _check_difference_attainment(ctx: _Ctx) -> tuple[bool, str]:
    d2, d1 = _seeded_disk_pairs(ctx, 8, stream=4)
    t = np.exp(2j * math.pi * np.arange(64) / 64.0)
    x = d2.centers[:, None] + d2.radii[:, None] * t
    y = d1.centers[:, None] - d1.radii[:, None] * t
    pred = _paired_difference(d2, d1)
    radii = pred.radii[:, None]
    dev = np.abs(np.abs((x - y) - pred.centers[:, None]) - radii) / radii
    worst = float(dev.max())
    ok = worst <= 1e-12
    return ok, f"antipodal boundary probes hit the radius within {worst:.3e} relative"


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


def raster_diff_proof(d2: Disks, d1: Disks, cell: float) -> tuple[bool, str]:
    """Grid falsification of the difference-disk identity.

    Rasterizes both one-row disks, forms the discrete difference mask, and
    compares it cell for cell with the raster of the predicted disk on
    the same lattice.  The difference mask must be an exact subset, and
    cells of the predicted raster that the difference mask misses must
    all sit within 2*sqrt(2)*cell of the predicted boundary circle (the
    certified snapping slack of the construction).
    """
    extra, deepest = diff_proof_numbers(d2, d1, cell)
    layer = 2.0 * math.sqrt(2.0) * cell * (1.0 + 1e-9)
    ok = extra == 0 and deepest <= layer
    return ok, (
        f"difference mask outside prediction: {extra} cells, "
        f"missing-cell depth {deepest:.6f} vs layer {layer:.6f}"
    )


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


def _check_difference_raster(ctx: _Ctx) -> tuple[bool, str]:
    d2, d1 = _seeded_disk_pairs(ctx, 1, stream=5)
    return raster_diff_proof(d2, d1, max(ctx.cell, 0.02))


def _random_mask(ctx: _Ctx, shape: tuple[int, int], stream: int, p: float) -> GridMask:
    u = lcg_uniforms(ctx.seed + stream, shape[0] * shape[1])
    bits = (u < p).reshape(shape)
    return GridMask(origin=complex(0.0, 0.0), cell=1.0, bits=bits, mode="noise")


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


def _check_correlation_methods(ctx: _Ctx) -> tuple[bool, str]:
    a = _random_mask(ctx, (96, 80), stream=6, p=0.3)
    b = _random_mask(ctx, (64, 48), stream=7, p=0.3)
    fast = mask_difference(a, b)
    slow = _shift_or(a, b)
    same = bool(np.array_equal(fast.bits, slow.bits)) and fast.origin == slow.origin
    # exhaustive oracle on a small pair: the set of center differences
    sa = _random_mask(ctx, (12, 10), stream=8, p=0.4)
    sb = _random_mask(ctx, (9, 11), stream=9, p=0.4)
    dm = mask_difference(sa, sb)
    ay, ax = np.nonzero(sa.bits)
    by, bx = np.nonzero(sb.bits)
    dx, dy = ax[:, None] - bx, ay[:, None] - by
    want_pairs = set(zip(dx.ravel().tolist(), dy.ravel().tolist()))
    got_pairs = {(round(z.real), round(z.imag)) for z in dm.set_centers().tolist()}
    oracle = got_pairs == want_pairs
    ok = same and oracle
    return ok, f"run pairs==shift-or on 96x80*64x48: {same}, exhaustive small oracle match: {oracle}"


def _check_mask_symmetry(ctx: _Ctx) -> tuple[bool, str]:
    inner = ctx.inner(1)
    dm = mask_difference(inner, inner)
    sym = bool(np.array_equal(dm.bits, dm.bits[::-1, ::-1]))
    mid_y, mid_x = dm.height // 2, dm.width // 2
    has_zero = bool(dm.bits[mid_y, mid_x]) if inner.cells else False
    ok = sym and has_zero
    return ok, f"self-difference centrally symmetric={sym}, zero offset marked={has_zero}"


def _check_raster_nesting(ctx: _Ctx) -> tuple[bool, str]:
    inner1 = ctx.inner(1)
    inner2 = ctx.inner(2)
    # the rasters of each depth span a box of their own
    nested = _outside(inner2, inner1) == 0
    outer1 = rasterize_preimage(ctx.param, 1, ctx.cell, mode="outer")
    inside = _outside(inner1, outer1) == 0
    counts = (inner2.cells, inner1.cells, outer1.cells)
    ok = nested and inside
    return ok, f"cell counts depth2<=depth1<=outer1: {counts}, nested={nested}, inner-in-outer={inside}"


def _sandwich_at(ctx: _Ctx, n: int) -> tuple[bool, str]:
    """area-sandwich at piece depth n; the inner raster stays in ctx's cache."""
    # depth-n pieces decompose the (n+1)-fold preimage, so the raster
    # side of the sandwich runs one level deeper than the piece depth
    inner = ctx.inner(n + 1)
    dm = mask_difference(inner, inner)
    sw = cov.sandwich(ctx.param, ctx.pieces[n], ctx.cell)
    grid, total, worst = sw.union, sw.total, sw.bound
    stray = _outside(dm, grid)
    if stray:
        return False, f"depth {n}: {stray} difference cells escape the union grid"
    raster_area = dm.area
    if not sw.holds(raster_area):
        if math.isfinite(total) and not total <= worst:
            return False, f"depth {n}: sum {total:.9f} exceeds certified bound {worst:.9f}"
        return False, (
            f"depth {n}: ordering failed or an area is not finite: raster "
            f"{raster_area:.9f}, grid {grid.area:.9f} (+{sw.margin:.9f}), sum {total:.9f}"
        )
    return True, (
        f"depth {n}: raster {raster_area:.9f} <= grid {grid.area:.9f} "
        f"<= sum {total:.9f} <= bound {worst:.9f}"
    )


def _check_area_sandwich(ctx: _Ctx) -> tuple[bool, str]:
    # the detail of the first failing depth, else of the deepest
    for n in range(1, min(ctx.depth, 4) + 1):
        ok, detail = _sandwich_at(ctx, n)
        if not ok:
            break
    return ok, detail


def _check_worst_case_identity(ctx: _Ctx) -> tuple[bool, str]:
    n = ctx.depth
    kn = bnd.piece_diameter_bound(ctx.param, n)
    # enclosing-disk radius of a piece whose diameter is exactly K_n
    radius = diametral_disks(0j, complex(kn), kn).radii[0]
    count = 1 << (n + 1)
    t = np.arange(count, dtype=np.float64)
    total = cov.sum_area(cov.difference_cover(Disks(3.0 * radius * t, np.full(count, radius))))
    closed = bnd.difference_measure_bound(ctx.param, n).bound
    rel = abs(total - closed) / closed
    ok = rel <= 1e-12
    return ok, f"sum over {count}^2 equal-radius difference disks vs closed form: rel err {rel:.3e}"


def _check_union_calibration(ctx: _Ctx) -> tuple[bool, str]:
    cell = 0.01
    one, two = Disks([0.3 + 0.2j], [1.0]), Disks([0.0, 5.0 + 1.0j], [1.0, 1.0])
    err_one = abs(cov.union_grid_mask(one, cell).area - math.pi)
    err_two = abs(cov.union_grid_mask(two, cell).area - 2.0 * math.pi)
    dup = cov.union_grid_mask(Disks([0.0, 0.0], [1.0, 1.0]), cell)
    base = cov.union_grid_mask(Disks([0.0], [1.0]), cell)
    idem = dup.cells == base.cells
    margin = cov.union_margin(one, cell)
    ok = err_one <= margin and err_two <= cov.union_margin(two, cell) and idem
    return ok, (
        f"unit disk err {err_one:.6f} (margin {margin:.6f}), "
        f"disjoint pair err {err_two:.6f}, duplicate idempotent={idem}"
    )


def _check_lcg_reference(ctx: _Ctx) -> tuple[bool, str]:
    n = 1000
    fast = lcg_uniforms(ctx.seed, n)
    s = ctx.seed & ((1 << 64) - 1)
    slow = np.empty(n)
    for i in range(n):
        s = (6364136223846793005 * s + 1442695040888963407) & ((1 << 64) - 1)
        slow[i] = (s >> 11) * 2.0**-53
    exact = bool(np.array_equal(fast, slow))
    repeat = bool(np.array_equal(fast, lcg_uniforms(ctx.seed, n)))
    ok = exact and repeat
    return ok, f"vectorized equals scalar recurrence={exact}, repeatable={repeat}"


_CHECKS = [
    ("branch-roundtrip", _check_branch_roundtrip),
    ("branch-symmetry", _check_branch_symmetry),
    ("radius-recursion", _check_radius_recursion),
    ("radius-limits", _check_radius_limits),
    ("decay-threshold-equivalence", _check_decay_equivalence),
    ("decay-tail-envelope", _check_decay_tail),
    ("bound-telescoping", _check_bound_telescoping),
    ("piece-membership", _check_piece_membership),
    ("suffix-sharing", _check_suffix_sharing),
    ("pairwise-contraction", _check_pairwise_contraction),
    ("sampled-diameter-bound", _check_sampled_diameter),
    ("enclosing-disk-cover", _check_enclosure),
    ("argument-spread", _check_argument_spread),
    ("piece-nesting", _check_nesting),
    ("difference-sampling", _check_difference_sampling),
    ("difference-attainment", _check_difference_attainment),
    ("difference-raster-proof", _check_difference_raster),
    ("correlation-methods", _check_correlation_methods),
    ("difference-mask-symmetry", _check_mask_symmetry),
    ("raster-nesting", _check_raster_nesting),
    ("area-sandwich", _check_area_sandwich),
    ("worst-case-identity", _check_worst_case_identity),
    ("union-grid-calibration", _check_union_calibration),
    ("lcg-reference", _check_lcg_reference),
]


def run_verification(cfg: VerifyConfig) -> dict:
    """Run every check; the report dict is fully deterministic."""
    ctx = _Ctx(cfg)
    results = []
    all_ok = True
    for name, fn in _CHECKS:
        ok, detail = fn(ctx)
        results.append({"name": name, "passed": bool(ok), "detail": detail})
        all_ok = all_ok and bool(ok)
    config = cfg._asdict()
    c = config.pop("param").c
    return {
        "schema": REPORT_SCHEMA,
        "config": {**config, "c": [c.real, c.imag]},
        "checks": results,
        "passed": bool(all_ok),
    }
