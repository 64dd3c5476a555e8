"""Self-contained cross-validation of every certified claim.

Each check pits one piece of the bound machinery against an independent
brute-force oracle (forward iteration, exhaustive pairwise scans, plain
rasters, reproducible sampling) at desk scale.  A check returns a pass
flag plus a one-line deterministic detail string; the harness collects
them into a report whose bytes depend only on the configuration, never on
wall clock, thread count or dict ordering.

Tolerances fall into three groups: exact (bitwise) where the construction
guarantees identity, 1e-12-relative where only rounding noise separates
the two sides, and 1e-9-relative where a forward-inverse roundtrip feeds
one side.  The piece-nesting check additionally allows a sampling slack
that shrinks like 1/samples^2: enclosing disks built from sampled
diametral pairs undershoot the true set slightly, and the quadratic rate
comes from the smoothness of the piece boundaries.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from . import cover as cov
from .geometry import (
    Disk,
    Disks,
    Parameter,
    diametral_disks,
    disk_difference,
    forward_map,
    inverse_branch,
    sqrt_branch,
)
from .raster import (
    GridMask,
    disk_mask,
    lcg_uniforms,
    mask_area,
    mask_difference,
    preimage_member,
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


@dataclass(frozen=True)
class VerifyConfig:
    param: Parameter
    depth: int = 4
    samples: int = 256
    cell: float = 0.02
    count: int = 20000
    seed: int = 20260816
    epsilon: float | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.count < 1000:
            raise ValueError(f"count must be >= 1000, got {self.count}")


class _Ctx:
    """Shared expensive intermediates, built lazily."""

    def __init__(self, cfg: VerifyConfig) -> None:
        self.cfg = cfg
        self._pieces: list[cov.Pieces] | None = None
        self._rb: bnd.RadiusBounds | None = None
        self._inner: dict[int, GridMask] = {}

    def inner(self, depth: int) -> GridMask:
        if depth not in self._inner:
            self._inner[depth] = rasterize_preimage(
                self.cfg.param, depth, self.cfg.cell, mode="inner", workers=self.cfg.workers
            )
        return self._inner[depth]

    @property
    def pieces(self) -> list[cov.Pieces]:
        if self._pieces is None:
            self._pieces = cov.piece_tree(
                self.cfg.param, self.cfg.depth, self.cfg.samples, workers=self.cfg.workers
            )
        return self._pieces

    @property
    def rb(self) -> bnd.RadiusBounds:
        if self._rb is None:
            n = max(self.cfg.depth + 2, 420)
            self._rb = bnd.radius_sequences(self.cfg.param, n)
        return self._rb


def _seeded_points(cfg: VerifyConfig, count: int, spread: float, stream: int) -> np.ndarray:
    u = lcg_uniforms(cfg.seed + stream, 2 * count)
    return spread * ((2.0 * u[0::2] - 1.0) + 1j * (2.0 * u[1::2] - 1.0))


def _check_branch_roundtrip(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    z = _seeded_points(cfg, 4096, cfg.param.abs_c + 2.0, stream=1)
    worst = 0.0
    for b in (0, 1):
        back = forward_map(inverse_branch(z, b, cfg.param), cfg.param)
        rel = np.abs(back - z) / np.maximum(np.abs(z), 1.0)
        worst = max(worst, float(rel.max()))
    return worst <= 1e-12, f"max relative roundtrip error {worst:.3e}"


def _check_branch_symmetry(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    z = _seeded_points(cfg, 4096, cfg.param.abs_c + 2.0, stream=2)
    plus = inverse_branch(z, 0, cfg.param)
    minus = inverse_branch(z, 1, cfg.param)
    exact = bool(np.array_equal(minus, -plus))
    args = np.angle(plus[np.abs(plus) > 0])
    in_range = bool(np.all((args >= 0.0) & (args < math.pi)))
    ok = exact and in_range
    return ok, f"negation exact={exact}, branch-0 arguments in [0, pi)={in_range}"


def _eventually_constant_monotone(seq: np.ndarray, direction: int) -> bool:
    d = np.diff(np.asarray(seq, dtype=np.float64)) * direction
    if np.any(d < 0):
        return False
    flat = np.nonzero(d == 0)[0]
    if flat.size == 0:
        return True
    # once two consecutive terms coincide the tail must stay constant
    return bool(np.all(d[flat[0]:] == 0))


def _check_radius_recursion(ctx: _Ctx) -> tuple[bool, str]:
    rb = ctx.rb
    a = rb.abs_c
    o, i = rb.outer_seq, rb.inner_seq
    res_o = np.abs(o[1:] ** 2 - (a + o[:-1]))
    res_i = np.abs(i[1:] ** 2 - (a - o[:-1]))
    worst = float(max(res_o.max(), res_i.max())) / max(a, 1.0)
    # strict monotonicity holds until the doubles stall at the fixed point,
    # weak monotonicity must hold throughout
    mono = _eventually_constant_monotone(o, -1) and _eventually_constant_monotone(i, +1)
    first = abs(o[0] - math.sqrt(2 * a)) == 0.0 and i[0] == 0.0
    ok = worst <= 1e-15 and mono and first
    return ok, f"defining-equation residual {worst:.3e}, monotone until stall={mono}"


def _check_radius_limits(ctx: _Ctx) -> tuple[bool, str]:
    rb = ctx.rb
    a = rb.abs_c
    lo, li = rb.outer_limit, rb.inner_limit
    res = max(abs(lo * lo - (a + lo)), abs(li * li - (a - lo))) / max(a, 1.0)
    gap = max(abs(rb.outer(64) - lo), abs(rb.inner(64) - li))
    ok = res <= 1e-15 and gap <= 1e-12
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
    cfg = ctx.cfg
    if not bnd.decay_condition(cfg.param):
        return True, "skipped: decay not guaranteed for this parameter"
    dp = bnd.decay_parameters(cfg.param, cfg.epsilon)
    top = 400
    rows = bnd.bound_table(cfg.param, top)
    worst = 0.0
    for row in rows[dp.settle_index - 1 :]:
        env = dp.prefactor * dp.ratio**row.n
        worst = max(worst, row.bound / env)
    tail = ctx.rb.inner_seq[dp.settle_index : top]
    above = bool(np.all(tail >= math.sqrt(2.0) + dp.delta - 1e-12))
    ok = worst <= 1.0 + 1e-9 and above
    return ok, (
        f"bound/envelope max {worst:.12f} over n={dp.settle_index}..{top}, "
        f"inner radii above threshold={above}"
    )


def _check_bound_telescoping(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    rows = bnd.bound_table(cfg.param, 200)
    worst_k = 0.0
    worst_r = 0.0
    # a step to +inf must be predicted to pass the saturation threshold:
    # the largest double for K_n, e^709 (the log-space cut) for the bound;
    # saturated counts the steps from a finite value to +inf (at most two)
    saturated = 0
    reach_k = reach_r = math.inf
    for prev, nxt in zip(rows, rows[1:]):
        r_next = ctx.rb.inner(prev.n + 2)
        if math.isinf(nxt.diam_bound):
            saturated += math.isfinite(prev.diam_bound)
            predicted = prev.diam_bound / sys.float_info.max / (math.sqrt(2.0) * r_next)
            reach_k = min(reach_k, predicted)
        else:
            lhs = nxt.diam_bound * math.sqrt(2.0) * r_next
            worst_k = max(worst_k, abs(lhs - prev.diam_bound) / prev.diam_bound)
        if math.isinf(nxt.bound):
            saturated += math.isfinite(prev.bound)
            reach_r = min(reach_r, prev.bound / math.exp(709.0) * prev.ratio_step)
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
    return ok, detail


def _check_piece_membership(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    tol = cfg.param.abs_c * (1.0 + 1e-9)
    worst = 0.0
    for k, level in enumerate(ctx.pieces):
        z = level.samples
        worst = max(worst, float(np.abs(z).max()))
        for _ in range(k + 1):
            z = forward_map(z, cfg.param)
            worst = max(worst, float(np.abs(z).max()))
    ok = worst <= tol
    return ok, f"max forward-orbit modulus {worst:.12f} vs |c| = {cfg.param.abs_c:.12f}"


def _check_suffix_sharing(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    # one branch call per piece, against the tree's one call per level
    prev = cov.boundary_samples(cfg.param, cfg.samples)[None, :]
    exact = True
    for k, level in enumerate(ctx.pieces):
        half = 1 << k
        for j, arr in enumerate(level.samples):
            b = j >> k
            src = prev[j & (half - 1)]
            if not np.array_equal(arr, inverse_branch(src, b, cfg.param)):
                exact = False
        prev = level.samples
    return exact, f"rebuilt {sum(len(lv) for lv in ctx.pieces)} pieces, bitwise equal={exact}"


def _check_pairwise_contraction(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    worst = 0.0
    for k in range(1, len(ctx.pieces)):
        factor = math.sqrt(2.0) * ctx.rb.inner(k + 1)
        half = 1 << k
        for j, child in enumerate(ctx.pieces[k].samples):
            parent = ctx.pieces[k - 1].samples[j & (half - 1)]
            dc = np.abs(child[:, None] - child[None, :]) * factor
            dp = np.abs(parent[:, None] - parent[None, :])
            mask = dp > 0
            ratio = float((dc[mask] / dp[mask]).max()) if mask.any() else 0.0
            worst = max(worst, ratio)
    ok = worst <= 1.0 + 1e-9
    return ok, f"max contracted/original pairwise ratio {worst:.12f} (depths 1..{cfg.depth})"


def _check_sampled_diameter(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    worst = 0.0
    for k, level in enumerate(ctx.pieces[1:], start=1):
        kn = bnd.piece_diameter_bound(cfg.param, k)
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


def _circular_spread(z: np.ndarray) -> float:
    args = np.sort(np.angle(z))
    gaps = np.diff(args)
    wrap = 2.0 * math.pi - (args[-1] - args[0])
    return 2.0 * math.pi - max(float(gaps.max()) if gaps.size else 0.0, wrap)


def _check_argument_spread(ctx: _Ctx) -> tuple[bool, str]:
    worst = 0.0
    for level in ctx.pieces[1:]:
        for z in level.samples:
            worst = max(worst, _circular_spread(z))
    ok = worst < math.pi / 2.0
    return ok, f"max argument spread {worst:.12f} < pi/2 = {math.pi / 2.0:.12f}"


def _check_nesting(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    slack = 1e-9 + _NEST_C / (cfg.samples * cfg.samples)
    # row j's prefix piece is row j >> 1 one level up
    worst = max(
        _worst_fill(lv.samples, np.repeat(up.disks.centers, 2), np.repeat(up.disks.radii, 2))
        for up, lv in zip(ctx.pieces, ctx.pieces[1:])
    )
    ok = worst <= 1.0 + slack
    return ok, f"max child sample / parent disk radius {worst:.12f} (slack {slack:.3e})"


def _seeded_disk_pairs(cfg: VerifyConfig, pairs: int, stream: int) -> list[tuple[Disk, Disk]]:
    u = lcg_uniforms(cfg.seed + stream, 6 * pairs)
    out = []
    for t in range(pairs):
        c2 = complex(4.0 * u[6 * t] - 2.0, 4.0 * u[6 * t + 1] - 2.0)
        c1 = complex(4.0 * u[6 * t + 2] - 2.0, 4.0 * u[6 * t + 3] - 2.0)
        r2 = 0.5 + u[6 * t + 4]
        r1 = 0.5 + u[6 * t + 5]
        out.append((Disk(c2, r2), Disk(c1, r1)))
    return out


def _check_difference_sampling(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    sup_ratio = 0.0
    for t, (d2, d1) in enumerate(_seeded_disk_pairs(cfg, 8, stream=3)):
        try:
            sup = sample_diff_check(d2, d1, cfg.count, cfg.seed + 100 + t)
        except RuntimeError as exc:
            return False, str(exc)
        pred = disk_difference(d2, d1)
        sup_ratio = max(sup_ratio, sup / pred.radius)
    ok = sup_ratio <= 1.0
    return ok, f"8 pairs, {cfg.count} samples each, max sup/radius {sup_ratio:.9f}"


def _check_difference_attainment(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    worst = 0.0
    t = np.exp(2j * math.pi * np.arange(64) / 64.0)
    for d2, d1 in _seeded_disk_pairs(cfg, 8, stream=4):
        x = d2.center + d2.radius * t
        y = d1.center - d1.radius * t
        pred = disk_difference(d2, d1)
        dev = np.abs(np.abs((x - y) - pred.center) - pred.radius) / pred.radius
        worst = max(worst, float(dev.max()))
    ok = worst <= 1e-12
    return ok, f"antipodal boundary probes hit the radius within {worst:.3e} relative"


def _int_origin_index(mask: GridMask) -> tuple[int, int]:
    """Lattice index of cell (0, 0) for integer-aligned masks."""
    fx = mask.origin.real / mask.cell + 0.5
    fy = mask.origin.imag / mask.cell + 0.5
    kx, ky = round(fx), round(fy)
    if abs(fx - kx) > 1e-6 or abs(fy - ky) > 1e-6:
        raise ValueError("mask cell centers are not on the integer lattice")
    return kx, ky


def _on_common_lattice(
    m1: GridMask, m2: GridMask
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Embed two integer-aligned masks into one window."""
    k1 = _int_origin_index(m1)
    k2 = _int_origin_index(m2)
    kx_lo = min(k1[0], k2[0])
    ky_lo = min(k1[1], k2[1])
    kx_hi = max(k1[0] + m1.width, k2[0] + m2.width)
    ky_hi = max(k1[1] + m1.height, k2[1] + m2.height)
    shape = (ky_hi - ky_lo, kx_hi - kx_lo)
    b1 = np.zeros(shape, dtype=bool)
    b2 = np.zeros(shape, dtype=bool)
    b1[k1[1] - ky_lo : k1[1] - ky_lo + m1.height, k1[0] - kx_lo : k1[0] - kx_lo + m1.width] = m1.bits
    b2[k2[1] - ky_lo : k2[1] - ky_lo + m2.height, k2[0] - kx_lo : k2[0] - kx_lo + m2.width] = m2.bits
    return b1, b2, kx_lo, ky_lo


def raster_diff_proof(d2: Disk, d1: Disk, cell: float) -> tuple[bool, str]:
    """Grid falsification of the difference-disk identity.

    Rasterizes both disks, forms the discrete difference mask, and
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


def diff_proof_numbers(d2: Disk, d1: Disk, cell: float) -> tuple[int, float]:
    """Cell counts behind the proof: (cells outside the prediction,
    deepest missing cell's distance inside the predicted boundary)."""
    dm = mask_difference(disk_mask(d2, cell), disk_mask(d1, cell))
    pred = disk_difference(d2, d1)
    pm = disk_mask(pred, cell, align="integer")
    bd, bp, kx_lo, ky_lo = _on_common_lattice(dm, pm)
    extra = int(np.count_nonzero(bd & ~bp))
    missing = bp & ~bd
    deepest = 0.0
    if missing.any():
        iy, ix = np.nonzero(missing)
        centers = (ix + kx_lo) * cell + 1j * ((iy + ky_lo) * cell)
        deepest = float((pred.radius - np.abs(centers - pred.center)).max())
    return extra, deepest


def _check_difference_raster(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    d2, d1 = _seeded_disk_pairs(cfg, 1, stream=5)[0]
    return raster_diff_proof(d2, d1, max(cfg.cell, 0.02))


def _random_mask(cfg: VerifyConfig, shape: tuple[int, int], stream: int, p: float) -> GridMask:
    u = lcg_uniforms(cfg.seed + stream, shape[0] * shape[1])
    bits = (u < p).reshape(shape)
    return GridMask(origin=complex(0.0, 0.0), cell=1.0, bits=bits, mode="noise")


def _check_correlation_methods(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    a = _random_mask(cfg, (96, 80), stream=6, p=0.3)
    b = _random_mask(cfg, (64, 48), stream=7, p=0.3)
    fast = mask_difference(a, b, method="fft")
    slow = mask_difference(a, b, method="direct")
    same = bool(np.array_equal(fast.bits, slow.bits)) and fast.origin == slow.origin
    # exhaustive oracle on a small pair: the set of center differences
    sa = _random_mask(cfg, (12, 10), stream=8, p=0.4)
    sb = _random_mask(cfg, (9, 11), stream=9, p=0.4)
    dm = mask_difference(sa, sb, method="direct")
    want_pairs = set()
    ay, ax = np.nonzero(sa.bits)
    by, bx = np.nonzero(sb.bits)
    for j in range(ay.size):
        for t in range(by.size):
            want_pairs.add((int(ax[j]) - int(bx[t]), int(ay[j]) - int(by[t])))
    got_pairs = set()
    ys, xs = np.nonzero(dm.bits)
    for iy, ix in zip(ys.tolist(), xs.tolist()):
        cx = dm.origin.real + (ix + 0.5) * dm.cell
        cy = dm.origin.imag + (iy + 0.5) * dm.cell
        got_pairs.add((round(cx), round(cy)))
    oracle = got_pairs == want_pairs
    ok = same and oracle
    return ok, f"fft==direct on 96x80*64x48: {same}, exhaustive small oracle match: {oracle}"


def _check_mask_symmetry(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    inner = ctx.inner(1)
    dm = mask_difference(inner, inner)
    sym = bool(np.array_equal(dm.bits, dm.bits[::-1, ::-1]))
    mid_y, mid_x = dm.height // 2, dm.width // 2
    has_zero = bool(dm.bits[mid_y, mid_x]) if np.count_nonzero(inner.bits) else False
    ok = sym and has_zero
    return ok, f"self-difference centrally symmetric={sym}, zero offset marked={has_zero}"


def _check_raster_nesting(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    inner1 = ctx.inner(1)
    inner2 = ctx.inner(2)
    nested = not bool(np.any(inner2.bits & ~inner1.bits))
    outer1 = rasterize_preimage(cfg.param, 1, cfg.cell, mode="outer", workers=cfg.workers)
    inside = not bool(np.any(inner1.bits & ~outer1.bits))
    counts = (
        int(np.count_nonzero(inner2.bits)),
        int(np.count_nonzero(inner1.bits)),
        int(np.count_nonzero(outer1.bits)),
    )
    ok = nested and inside
    return ok, f"cell counts depth2<=depth1<=outer1: {counts}, nested={nested}, inner-in-outer={inside}"


def _check_area_sandwich(ctx: _Ctx) -> tuple[bool, str]:
    # depth-n pieces decompose the (n+1)-fold preimage, so the raster
    # side of the sandwich runs one level deeper than the piece depth
    cfg = ctx.cfg
    top = min(cfg.depth, 4)
    last = ""
    for n in range(1, top + 1):
        inner = ctx.inner(n + 1)
        dm = mask_difference(inner, inner)
        sw = cov.sandwich(cfg.param, ctx.pieces[n], cfg.cell)
        grid, total, worst = sw.union, sw.total, sw.bound
        bd, bu, _, _ = _on_common_lattice(dm, grid.mask)
        stray = int(np.count_nonzero(bd & ~bu))
        if stray:
            return False, f"depth {n}: {stray} difference cells escape the union grid"
        raster_area = mask_area(dm)
        if not (raster_area <= grid.area and grid.area <= total + grid.margin):
            return False, (
                f"depth {n}: ordering failed: raster {raster_area:.9f}, "
                f"grid {grid.area:.9f} (+{grid.margin:.9f}), sum {total:.9f}"
            )
        if not total <= worst * (1.0 + 1e-12):
            return False, f"depth {n}: sum {total:.9f} exceeds certified bound {worst:.9f}"
        last = (
            f"depth {n}: raster {raster_area:.9f} <= grid {grid.area:.9f} "
            f"<= sum {total:.9f} <= bound {worst:.9f}"
        )
    return True, last


def _check_worst_case_identity(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    n = cfg.depth
    kn = bnd.piece_diameter_bound(cfg.param, n)
    # enclosing-disk radius of a piece whose diameter is exactly K_n
    radius = diametral_disks(0j, complex(kn))[0].radius
    count = 1 << (n + 1)
    disks = [Disk(complex(3.0 * radius * t, 0.0), radius) for t in range(count)]
    total = math.fsum(disk_difference(a, b).area for a in disks for b in disks)
    closed = bnd.difference_measure_bound(cfg.param, n).bound
    rel = abs(total - closed) / closed
    ok = rel <= 1e-12
    return ok, f"sum over {count}^2 equal-radius difference disks vs closed form: rel err {rel:.3e}"


def _check_union_calibration(ctx: _Ctx) -> tuple[bool, str]:
    cell = 0.01
    one = cov.union_area_grid(Disks([0.3 + 0.2j], [1.0]), cell)
    err_one = abs(one.area - math.pi)
    two = cov.union_area_grid(Disks([0.0, 5.0 + 1.0j], [1.0, 1.0]), cell)
    err_two = abs(two.area - 2.0 * math.pi)
    dup = cov.union_area_grid(Disks([0.0, 0.0], [1.0, 1.0]), cell)
    base = cov.union_area_grid(Disks([0.0], [1.0]), cell)
    idem = dup.cells == base.cells
    ok = err_one <= one.margin and err_two <= two.margin and idem
    return ok, (
        f"unit disk err {err_one:.6f} (margin {one.margin:.6f}), "
        f"disjoint pair err {err_two:.6f}, duplicate idempotent={idem}"
    )


def _check_lcg_reference(ctx: _Ctx) -> tuple[bool, str]:
    cfg = ctx.cfg
    n = 1000
    fast = lcg_uniforms(cfg.seed, n)
    s = cfg.seed & ((1 << 64) - 1)
    slow = np.empty(n)
    for i in range(n):
        s = (6364136223846793005 * s + 1442695040888963407) & ((1 << 64) - 1)
        slow[i] = (s >> 11) * 2.0**-53
    exact = bool(np.array_equal(fast, slow))
    repeat = bool(np.array_equal(fast, lcg_uniforms(cfg.seed, n)))
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
    return {
        "schema": REPORT_SCHEMA,
        "config": {
            "c": [ctx.cfg.param.c.real, ctx.cfg.param.c.imag],
            "depth": ctx.cfg.depth,
            "samples": ctx.cfg.samples,
            "cell": ctx.cfg.cell,
            "count": ctx.cfg.count,
            "seed": ctx.cfg.seed,
            "epsilon": ctx.cfg.epsilon,
            # workers deliberately not echoed: the report must be
            # byte-identical at any thread count
        },
        "checks": results,
        "passed": bool(all_ok),
    }
