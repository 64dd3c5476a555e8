"""The cross-validation harness: every check green and fully reproducible."""

import cmath
import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cantordiff import Disks, GridMask, Parameter, Pieces, VerifyConfig, run_verification
from cantordiff import bounds as bnd
from cantordiff import _oracle, cover, geometry, raster, verify
from cantordiff.verify import REPORT_SCHEMA, raster_diff_proof

SMALL = dict(depth=2, samples=64, cell=0.05, count=2000)


def _cfg(p5, **kw):
    return VerifyConfig(param=p5, **{**SMALL, **kw})


def test_all_checks_pass(p5):
    rep = run_verification(_cfg(p5))
    failed = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert rep["passed"] and not failed, failed


def test_report_shape(p5):
    rep = run_verification(_cfg(p5))
    assert rep["schema"] == REPORT_SCHEMA
    assert rep["config"]["depth"] == 2
    assert rep["config"]["c"] == [5.0, 0.0]
    names = [c["name"] for c in rep["checks"]]
    assert len(names) == len(set(names))
    assert all({"name", "passed", "detail"} <= set(c) for c in rep["checks"])


def test_report_repeatable(p5):
    a = run_verification(_cfg(p5))
    b = run_verification(_cfg(p5))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_one_run_builds_each_shared_intermediate_once(p5, monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, *args[1:], *kwargs.values()))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(verify.cov, "piece_tree", counted("piece_tree", verify.cov.piece_tree))
    monkeypatch.setattr(verify.bnd, "bound_table", counted("bound_table", verify.bnd.bound_table))
    monkeypatch.setattr(verify, "rasterize_preimage", counted("raster", verify.rasterize_preimage))
    assert run_verification(_cfg(p5))["passed"]
    # the sandwich at piece depths 1..min(depth, 4) rasterizes one level deeper
    depth = SMALL["depth"]
    want = [("piece_tree", depth, SMALL["samples"]), ("bound_table", 420)]
    want += [("raster", n, SMALL["cell"]) for n in range(1, min(depth, 4) + 2)]
    want += [("raster", 1, SMALL["cell"], "outer")]
    assert sorted(calls) == sorted(want)


def test_config_validation(p5):
    with pytest.raises(ValueError):
        VerifyConfig(param=p5, depth=0)
    with pytest.raises(ValueError):
        VerifyConfig(param=p5, count=10)


def test_raster_diff_proof_exact_subset():
    ok, detail = raster_diff_proof(Disks(1 + 2j, 0.8), Disks(-0.3j, 0.6), 0.01)
    assert ok, detail


def test_raster_diff_proof_concentric():
    ok, detail = raster_diff_proof(Disks(0j, 1.0), Disks(0j, 1.0), 0.02)
    assert ok, detail


@pytest.mark.parametrize("c", [2.01, complex(-1.5, 1.4), 2.0000001])
def test_all_checks_pass_where_the_bound_saturates(c):
    # near |c| = 2 the bound table passes double range inside its 200 rows;
    # at the last parameter K_n does too
    rep = run_verification(VerifyConfig(param=Parameter(c)))
    failed = [ch["name"] for ch in rep["checks"] if not ch["passed"]]
    assert len(rep["checks"]) == 24
    assert rep["passed"] and not failed, failed
    detail = next(ch["detail"] for ch in rep["checks"] if ch["name"] == "bound-telescoping")
    # one step from finite to +inf for each quantity that saturates
    first, last = bnd.bound_table(Parameter(c), 200)[::199]
    steps = sum(
        math.isfinite(getattr(first, q)) and math.isinf(getattr(last, q))
        for q in ("diam_bound", "bound")
    )
    assert steps == (2 if c == 2.0000001 else 1)
    assert f", {steps} steps from finite to +inf," in detail


@pytest.mark.parametrize("c", [5.0, 2.01])
@pytest.mark.parametrize("edit", ["ratio_step", "bound", "diam_bound"])
def test_bound_telescoping_rejects_a_bad_finite_row(monkeypatch, c, edit):
    # rows up to 40 are finite at both parameters; a ratio_step off by 1e-6,
    # or a bound or K_n saturating from row 40 on where the prediction stays
    # far below double range, must fail
    table = bnd.bound_table

    def tampered(param, depth):
        rows = table(param, depth)
        assert math.isfinite(rows[40].bound)
        if edit == "ratio_step":
            rows[40] = rows[40]._replace(ratio_step=rows[40].ratio_step * (1.0 + 1e-6))
        else:
            rows[40:] = [row._replace(**{edit: math.inf}) for row in rows[40:]]
        return rows

    cfg = VerifyConfig(param=Parameter(c))
    check = dict(verify._CHECKS)["bound-telescoping"]
    assert check(verify._Ctx(cfg))[0]
    monkeypatch.setattr(bnd, "bound_table", tampered)
    assert not check(verify._Ctx(cfg))[0]


@pytest.mark.parametrize(
    "c", [5.0, -5.0, 3 + 4j, 2.05j, 2.0000001, (2 + 1e-9) * cmath.exp(1j), 1e300]
)
def test_radius_recursion_brackets_the_certified_rows(c):
    check = dict(verify._CHECKS)["radius-recursion"]
    ok, detail = check(verify._Ctx(VerifyConfig(param=Parameter(c))))
    assert ok, detail
    assert detail.startswith("bracket of the 200-bit integer recursion=True,")


_PARAMETER_CHECKS = (
    "radius-recursion",
    "radius-limits",
    "decay-threshold-equivalence",
    "decay-tail-envelope",
    "bound-telescoping",
)
# three rings of 16 arguments, then both ends of the domain: near |c| = 2,
# on and off the axis, and where the bounds fall below the normal range
# (from |c| of about 30)
_SWEEP = [
    (f"{r}-at-{k}pi/8", r * cmath.exp(1j * math.pi * k / 8))
    for r in (2.05, 2.5, 5.0)
    for k in range(16)
] + [(str(a), a) for a in (2 + 1e-12, 2 + 1e-9, 30.0, 1e7, 1e300)] + [
    ("2+1e-12-at-0.3i", (2 + 1e-12) * cmath.exp(0.3j))
]


@pytest.mark.parametrize("c", [c for _, c in _SWEEP], ids=[name for name, _ in _SWEEP])
def test_parameter_checks_hold_across_the_domain(c):
    ctx = verify._Ctx(VerifyConfig(param=Parameter(c), depth=2, count=1000))
    checks = dict(verify._CHECKS)
    failed = [(name, checks[name](ctx)) for name in _PARAMETER_CHECKS]
    failed = [(name, detail) for name, (ok, detail) in failed if not ok]
    assert not failed, failed


def _decimal_radii(param, count):
    """R_1..R_count and r_1..r_count at 50 digits, from R_0 = |c| taken as
    sqrt(re^2 + im^2) in Decimal: R_{k+1} = sqrt(|c| + R_k), r_{k+1} = sqrt(|c| - R_k)."""
    with localcontext() as dec:
        dec.prec = 50
        a = (Decimal(param.c.real) ** 2 + Decimal(param.c.imag) ** 2).sqrt()
        big, outer, inner = a, [], []
        for _ in range(count):
            inner.append((a - big).sqrt())
            big = (a + big).sqrt()
            outer.append(big)
    return outer, inner


_RADIUS_PARAMS = [
    5.0, -5.0, 2.5j, 3 + 4j, 2 + 1e-7, 8.0, 1e300, -2.0294846180309127 + 0.28929601652272774j
]


@pytest.mark.parametrize("c", _RADIUS_PARAMS)
def test_integer_radii_within_the_proven_bound(c):
    # against mpmath with 80 digits past the units of 2^P |c|:
    # 0 <= 2^P R_k - B_k < 6 and |2^P r_k - b_k| < 1 + 6/r_k, b_1 = 0
    mpmath = pytest.importorskip("mpmath")
    param = Parameter(c)
    outer, inner = _oracle._integer_radii(param, 420)
    scale = 2**_oracle._P
    with mpmath.workdps(80 + len(str(outer[0]))):
        a = mpmath.sqrt(mpmath.mpf(c.real) ** 2 + mpmath.mpf(c.imag) ** 2)
        big = a
        assert inner[0] == 0
        for k in range(420):
            small = mpmath.sqrt(a - big)
            big = mpmath.sqrt(a + big)
            assert 0 <= big * scale - outer[k] < 6, k
            if k:
                assert abs(small * scale - inner[k]) < 1 + 6 / small, k


def _inside(x: Decimal, toward: float) -> float:
    """The double next to x on the side of `toward`, strictly past x."""
    y = float(x)
    while (Decimal(y) >= x) if toward < 0 else (Decimal(y) <= x):
        y = math.nextafter(y, toward)
    return y


@pytest.mark.parametrize("c", [5.0, 2.05j])
@pytest.mark.parametrize(
    "edit", ["inner-1-one-ulp-up", "outer-10-inside", "inner-10-inside"]
)
def test_radius_recursion_rejects_an_inward_row(monkeypatch, c, edit):
    # each certified R_k sits at least one ulp above the true value, so the
    # tampered outer row is set to the first double below the 50-digit R_k;
    # r_1 = 0 is exact, so one ulp up already leaves the bracket
    param = Parameter(c)
    outer, inner = _decimal_radii(param, 10)
    table = bnd.bound_table

    def tampered(param, depth):
        rows = table(param, depth)
        if edit == "inner-1-one-ulp-up":
            rows[0] = rows[0]._replace(inner_radius=math.nextafter(0.0, 1.0))
        elif edit == "outer-10-inside":
            rows[9] = rows[9]._replace(outer_radius=_inside(outer[9], -math.inf))
        else:
            rows[9] = rows[9]._replace(inner_radius=_inside(inner[9], math.inf))
        return rows

    cfg = VerifyConfig(param=param)
    check = dict(verify._CHECKS)["radius-recursion"]
    assert check(verify._Ctx(cfg))[0]
    monkeypatch.setattr(bnd, "bound_table", tampered)
    ok, detail = check(verify._Ctx(cfg))
    assert not ok
    # the edit stays monotone: only the bracket catches it
    assert detail.startswith("bracket of the 200-bit integer recursion=False,")
    assert detail.endswith("monotone until stall=True")


def test_correlation_methods_rejects_one_flipped_bit(monkeypatch):
    real = verify.mask_difference

    def flipped(a, b):
        out = real(a, b)
        bits = out.bits.copy()
        bits[bits.shape[0] // 2, bits.shape[1] // 2] ^= True
        return GridMask(origin=out.origin, cell=out.cell, bits=bits, mode=out.mode)

    cfg = _cfg(Parameter(5.0))
    check = dict(verify._CHECKS)["correlation-methods"]
    assert check(verify._Ctx(cfg)) == (
        True, "run pairs==shift-or on 96x80*64x48: True, exhaustive small oracle match: True"
    )
    monkeypatch.setattr(verify, "mask_difference", flipped)
    ok, detail = check(verify._Ctx(cfg))
    assert not ok
    assert detail == "run pairs==shift-or on 96x80*64x48: False, exhaustive small oracle match: False"


def test_shift_or_oracle_on_a_hand_made_pair():
    # a = cells (0, 0) and (0, 2); b = cell (1, 1): differences (-1, -1) and
    # (1, -1) in (x, y) cell offsets
    a = GridMask(origin=0j, cell=1.0, bits=np.array([[True, False, True]]))
    bb = np.zeros((2, 2), dtype=bool)
    bb[1, 1] = True
    d = _oracle._shift_or(a, GridMask(origin=0j, cell=1.0, bits=bb))
    assert d.bits.shape == (2, 4)
    centers = sorted((round(z.real), round(z.imag)) for z in d.set_centers())
    assert centers == [(-1, -1), (1, -1)]


@pytest.mark.parametrize(
    "c, depth", [(5.0, 10), (1e7, 2), (1e300, 2)], ids=["5-d10", "1e7", "1e300"]
)
def test_piece_membership_allows_the_rounding_of_the_orbit(c, depth):
    # the orbit's rounding error grows with depth and with |c|: at the first
    # two points the orbit passes |c| by 3.2e-8 and 0.215; at 1e300 every
    # orbit stops before it can overflow (warnings are errors here)
    check = dict(verify._CHECKS)["piece-membership"]
    cfg = VerifyConfig(param=Parameter(c), depth=depth, samples=16, count=1000)
    ok, detail = check(verify._Ctx(cfg))
    assert ok, detail
    stopped = ", 224 orbits stopped once their error bound passed R_1 = 1.41421e+150"
    assert detail.endswith(stopped) if c == 1e300 else "stopped" not in detail


def test_piece_membership_rejects_a_moved_piece():
    check = dict(verify._CHECKS)["piece-membership"]
    ctx = verify._Ctx(_cfg(Parameter(5.0), depth=4))
    assert check(ctx)[0]
    level = ctx.pieces[-1]
    moved = level.samples.copy()
    moved[0] *= 1.0 + 1e-9
    ctx.pieces[-1] = Pieces(level.depth, moved, level.sampled_diam, level.disks)
    ok, detail = check(ctx)
    assert not ok, detail


def test_area_sandwich_decides_the_bound_without_slack(monkeypatch):
    # a sum 5e-13 relative above the bound fails, as Sandwich.holds decides
    real = verify.cov.sandwich

    def tight(*args, **kwargs):
        sw = real(*args, **kwargs)
        return sw._replace(bound=sw.total * (1.0 - 5e-13))

    monkeypatch.setattr(verify.cov, "sandwich", tight)
    check = dict(verify._CHECKS)["area-sandwich"]
    ok, detail = check(verify._Ctx(_cfg(Parameter(5.0))))
    assert not ok
    assert detail.startswith("depth 1: sum ") and " exceeds certified bound " in detail


def test_area_sandwich_fails_on_an_area_that_is_not_finite(monkeypatch):
    # an overflowed sum sits below an infinite bound; Sandwich.holds, which
    # the check defers to, refuses it
    real = verify.cov.sandwich

    def overflowed(*args, **kwargs):
        return real(*args, **kwargs)._replace(total=math.inf, bound=math.inf)

    monkeypatch.setattr(verify.cov, "sandwich", overflowed)
    check = dict(verify._CHECKS)["area-sandwich"]
    ok, detail = check(verify._Ctx(_cfg(Parameter(5.0))))
    assert not ok
    assert detail.startswith("depth 1: ordering failed or an area is not finite: ")


def _pairwise_ratio_all_at_once(ctx) -> float:
    # the check before its pairs were blocked: every pair held at once
    i, j = np.triu_indices(ctx.samples, 1)
    worst = 0.0
    for k in range(1, len(ctx.pieces)):
        factor = math.sqrt(2.0) * ctx.rows[k].inner_radius
        children = ctx.pieces[k].samples
        for p, parent in enumerate(ctx.pieces[k - 1].samples):
            dp = np.abs(parent[i] - parent[j])
            for child in (children[p], children[p + (1 << k)]):
                dc = np.abs(child[i] - child[j]) * factor
                worst = max(worst, float((dc[dp > 0] / dp[dp > 0]).max()))
    return worst


@pytest.mark.parametrize("samples", [16, 255, 256, 300, 700])
def test_pairwise_contraction_blocks_keep_the_ratio(samples):
    # blocks of _BUDGET // (8 * columns left) sample rows, 8 pieces in
    # the half of the depth-3 level: 16 samples are one block, 255 and 256
    # start at four rows a block, 300 at three and 700 at one, and the
    # blocks grow as the columns left shrink
    ctx = verify._Ctx(_cfg(Parameter(0.0 + 2.5j), depth=3, samples=samples))
    ok, detail = dict(verify._CHECKS)["pairwise-contraction"](ctx)
    assert ok
    assert detail.startswith(f"max contracted/original pairwise ratio {_pairwise_ratio_all_at_once(ctx):.12f} ")


@pytest.mark.parametrize("samples", [16, 33, 100])
def test_pairwise_contraction_equals_the_all_pairs_ratio(samples):
    # 33 samples are one block of 32 sample rows, 100 take blocks of 10,
    # 11, 13, 15, 20 and 34.  Piece 0 of level 1 and its mirror, piece 2,
    # repeat their first sample: the pair (0, 1) of their children then
    # has a zero parent distance, masked on both sides
    ctx = verify._Ctx(_cfg(Parameter(0.0 + 2.5j), depth=3, samples=samples))
    lv = ctx.pieces[1]
    s = lv.samples.copy()
    s[0, 1] = s[0, 0]
    s[2, 1] = s[2, 0]
    ctx.pieces = [ctx.pieces[0], Pieces(1, s, lv.sampled_diam, lv.disks), *ctx.pieces[2:]]
    child = ctx.pieces[2].samples[0]
    assert child[0] != child[1]
    _, detail = dict(verify._CHECKS)["pairwise-contraction"](ctx)
    want = _pairwise_ratio_all_at_once(ctx)
    assert math.isfinite(want)
    assert detail == f"max contracted/original pairwise ratio {want:.12f} (depths 1..3)"


def test_pairwise_contraction_fails_on_a_level_that_is_not_mirrored():
    # only the first half of each level is measured, so a second half
    # that is not the first one negated fails the check outright
    ctx = verify._Ctx(_cfg(Parameter(5.0), depth=3, samples=64))
    assert dict(verify._CHECKS)["pairwise-contraction"](ctx)[0]
    lv = ctx.pieces[2]
    s = lv.samples.copy()
    s[5, 3] += 1e-3
    ctx.pieces = [*ctx.pieces[:2], Pieces(2, s, lv.sampled_diam, lv.disks), ctx.pieces[3]]
    ok, detail = dict(verify._CHECKS)["pairwise-contraction"](ctx)
    assert not ok
    assert detail == "depth 2: pieces 4..7 are not pieces 0..3 negated"


def _budget_cases():
    ctx = verify._Ctx(_cfg(Parameter(5.0), depth=4, samples=256))
    ctx.pieces, ctx.rows
    a = verify._random_mask(ctx, (96, 80), stream=6, p=0.3)
    b = verify._random_mask(ctx, (64, 48), stream=7, p=0.3)
    pts = verify._seeded_points(ctx, 256, 3.0, stream=1)
    d2, d1 = Disks(0.3 - 1.7j, 1.25), Disks(-2.1 + 0.4j, 0.6)
    return {
        "sampler": lambda: verify.sample_diff_check(d2, d1, 20_000, 5),
        "pairwise": lambda: dict(verify._CHECKS)["pairwise-contraction"](ctx),
        "scan": lambda: geometry._pair_scan(pts),
        "mask-difference": lambda: verify.mask_difference(a, b),
    }


@pytest.mark.parametrize("name", ["sampler", "pairwise", "scan", "mask-difference"])
def test_blocked_passes_stay_within_the_element_budget(name):
    # a few blocks of _BUDGET complex elements; the sampler's 40,000
    # points drawn at once take 2.8 MB, a scan in 256-row blocks 1.6 MB
    import tracemalloc

    run = _budget_cases()[name]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 16 * geometry._BUDGET, peak


def test_pairwise_contraction_memory_is_bounded():
    # 2048 samples have 2,096,128 pairs: held at once, their indices and
    # distances took more than 100 MB
    import tracemalloc

    ctx = verify._Ctx(_cfg(Parameter(5.0), depth=1, samples=2048))
    ctx.pieces, ctx.rows
    tracemalloc.start()
    try:
        ok, _ = dict(verify._CHECKS)["pairwise-contraction"](ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 8 << 20, peak


def _spread_per_row(ctx) -> float:
    # reference: one sort per row
    worst = 0.0
    for level in ctx.pieces[1:]:
        for z in level.samples:
            args = np.sort(np.angle(z))
            gap = max(float(np.diff(args).max()), 2.0 * math.pi - (args[-1] - args[0]))
            worst = max(worst, 2.0 * math.pi - gap)
    return worst


@pytest.mark.parametrize("c", [5.0, -5.0, 2.5j, 3 + 4j])
def test_argument_spread_equals_the_per_row_spread(c):
    ctx = verify._Ctx(_cfg(Parameter(c), depth=3, samples=100))
    _, detail = dict(verify._CHECKS)["argument-spread"](ctx)
    assert detail.startswith(f"max argument spread {_spread_per_row(ctx):.12f} < pi/2")


def _embed(m1, m2, shift=0.5):
    # reference: both masks on one lattice copied into one common window;
    # the centers of the lattice are (k + 0.5 - shift) * cell, so cell
    # (0, 0) of a mask has the index k = origin / cell + shift
    (x1, y1), (x2, y2) = (
        (round(m.origin.real / m.cell + shift), round(m.origin.imag / m.cell + shift)) for m in (m1, m2)
    )
    x_lo, y_lo = min(x1, x2), min(y1, y2)
    shape = (max(y1 + m1.height, y2 + m2.height) - y_lo, max(x1 + m1.width, x2 + m2.width) - x_lo)
    b1, b2 = np.zeros(shape, bool), np.zeros(shape, bool)
    b1[y1 - y_lo : y1 - y_lo + m1.height, x1 - x_lo : x1 - x_lo + m1.width] = m1.bits
    b2[y2 - y_lo : y2 - y_lo + m2.height, x2 - x_lo : x2 - x_lo + m2.width] = m2.bits
    return b1, b2, x_lo, y_lo


def _lattice_mask(rng, kx, ky, h, w, cell=0.25, shift=0.5):
    # cell (0, 0) centred on the lattice point (kx + 0.5 - shift) * cell
    bits = rng.random((h, w)) < 0.4
    return GridMask(complex((kx - shift) * cell, (ky - shift) * cell), cell, bits)


_WINDOW_PAIRS = [
    ((0, 0, 7, 9), (20, -3, 5, 6)),  # disjoint
    ((0, 0, 7, 9), (9, 30, 5, 6)),  # disjoint, rows only
    ((0, 0, 12, 10), (4, -5, 11, 13)),  # partly overlapping
    ((-3, 2, 20, 25), (2, 5, 6, 7)),  # nested
    ((2, 5, 6, 7), (-3, 2, 20, 25)),  # nested the other way
    ((1, -1, 9, 9), (1, -1, 9, 9)),  # equal windows
]


@pytest.mark.parametrize("first, second", _WINDOW_PAIRS)
def test_outside_counts_as_on_one_common_window(first, second):
    rng = np.random.default_rng(sum(first + second) + 100)
    m1, m2 = _lattice_mask(rng, *first), _lattice_mask(rng, *second)
    b1, b2, _, _ = _embed(m1, m2)
    assert _oracle._outside(m1, m2) == np.count_nonzero(b1 & ~b2)
    assert _oracle._outside(m2, m1) == np.count_nonzero(b2 & ~b1)


def test_outside_counts_on_the_half_integer_lattice():
    # the preimage rasters' lattice compares as the integer one does; a
    # mask half a cell off it is refused
    for first, second in _WINDOW_PAIRS:
        rng = np.random.default_rng(sum(first + second) + 200)
        m1, m2 = _lattice_mask(rng, *first, shift=0.0), _lattice_mask(rng, *second, shift=0.0)
        b1, b2, _, _ = _embed(m1, m2, 0.0)
        assert _oracle._outside(m1, m2) == np.count_nonzero(b1 & ~b2)
        assert _oracle._outside(m2, m1) == np.count_nonzero(b2 & ~b1)
        m3 = _lattice_mask(rng, *second)
        for pair in ((m1, m3), (m3, m1)):
            with pytest.raises(ValueError, match="not on one lattice"):
                _oracle._outside(*pair)


def test_outside_refuses_masks_of_different_cells():
    rng = np.random.default_rng(300)
    m1, m2 = _lattice_mask(rng, 0, 0, 4, 4), _lattice_mask(rng, 0, 0, 4, 4, cell=0.5)
    with pytest.raises(ValueError, match="not on one lattice"):
        _oracle._outside(m1, m2)


def test_raster_nesting_compares_rasters_of_different_windows():
    # at c = -5 and the default cell 0.02 the depth-1 inner raster spans
    # 128 x 320 cells and the depth-2 one 64 x 320; a depth-2 cell set
    # outside the depth-1 box is still caught
    ctx = verify._Ctx(_cfg(Parameter(-5.0), cell=0.02))
    inner1, inner2 = ctx.inner(1), ctx.inner(2)
    assert (inner1.bits.shape, inner2.bits.shape) == ((128, 320), (64, 320))
    check = dict(verify._CHECKS)["raster-nesting"]
    assert check(ctx)[0]
    h, w = inner1.height // 2 - inner2.height // 2, inner1.width // 2 - inner2.width // 2
    bits = np.pad(inner2.bits, ((h + 1, h + 1), (w + 1, w + 1)))
    bits[0, 0] = True
    ctx._inner[2] = inner2._replace(bits=bits, origin=inner1.origin - (1 + 1j) * ctx.cell)
    ok, detail = check(ctx)
    assert not ok and "nested=False, inner-in-outer=True" in detail


@pytest.mark.parametrize(
    "d2, d1, cell",
    [
        (Disks(1 + 2j, 0.8), Disks(-0.3j, 0.6), 0.01),
        (Disks(0j, 1.0), Disks(0j, 1.0), 0.02),
        (Disks(-1.3 + 0.7j, 0.25), Disks(2.2 - 1.1j, 1.4), 0.05),
    ],
)
def test_diff_proof_numbers_equal_the_common_window_reference(d2, d1, cell):
    a, b = _oracle._disk_raster(d2, cell, 0.0), _oracle._disk_raster(d1, cell, 0.0)
    dm = raster.mask_difference(a, b)
    pred = geometry.disk_difference(d2, d1)
    bd, bp, kx_lo, ky_lo = _embed(dm, _oracle._disk_raster(pred, cell, 0.5))
    iy, ix = np.nonzero(bp & ~bd)
    centers = (ix + kx_lo) * cell + 1j * ((iy + ky_lo) * cell)
    deepest = float((pred.radii - np.abs(centers - pred.centers)).max()) if iy.size else 0.0
    assert _oracle.diff_proof_numbers(d2, d1, cell) == (int(np.count_nonzero(bd & ~bp)), deepest)


def test_difference_raster_proof_shares_no_code_with_the_union_grid(monkeypatch):
    # the oracle rasterizes its disks itself, so it passes, with the same
    # detail, when the union grid and its disk walker cannot run
    check = dict(verify._CHECKS)["difference-raster-proof"]
    want = check(verify._Ctx(_cfg(Parameter(5.0))))

    def unreachable(*args, **kwargs):
        raise AssertionError("difference-raster-proof reached the union grid's path")

    monkeypatch.setattr(raster, "_disk_windows", unreachable)
    monkeypatch.setattr(cover, "_disk_windows", unreachable)
    monkeypatch.setattr(cover, "union_grid_mask", unreachable)
    got = check(verify._Ctx(_cfg(Parameter(5.0))))
    assert got == want and got[0]


def test_piece_membership_takes_no_complex_abs(monkeypatch):
    # its moduli are np.hypot's, which _ORBIT_KAPPA budgets for
    ctx = verify._Ctx(_cfg(Parameter(5.0)))
    ctx.pieces
    real_abs, complex_args = np.abs, []

    def spy_abs(z, *args, **kwargs):
        if np.iscomplexobj(z):
            complex_args.append(z)
        return real_abs(z, *args, **kwargs)

    monkeypatch.setattr(np, "abs", spy_abs)
    assert dict(verify._CHECKS)["piece-membership"](ctx)[0]
    assert not complex_args


def test_area_sandwich_counts_the_cells_the_grid_misses(monkeypatch):
    # the union grid loses its top 45 rows and every seventh column of the
    # rest, so difference cells are missed outside its window and inside it
    real, grids = verify.cov.sandwich, []

    def holed(*args, **kwargs):
        sw = real(*args, **kwargs)
        bits = sw.union.bits[:-45].copy()
        bits[:, ::7] = False
        grids.append(sw.union._replace(bits=bits))
        return sw._replace(union=grids[-1])

    monkeypatch.setattr(verify.cov, "sandwich", holed)
    ctx = verify._Ctx(_cfg(Parameter(5.0)))
    ok, detail = dict(verify._CHECKS)["area-sandwich"](ctx)
    inner = ctx.inner(2)
    dm = verify.mask_difference(inner, inner)
    bd, bu, _, _ = _embed(dm, grids[0])
    _, window, _, _ = _embed(dm, grids[0]._replace(bits=np.ones_like(grids[0].bits)))
    stray, outside = int(np.count_nonzero(bd & ~bu)), int(np.count_nonzero(bd & ~window))
    assert not ok
    assert detail == f"depth 1: {stray} difference cells escape the union grid"
    assert 0 < outside < stray


@pytest.mark.parametrize("c, limit", [(5.0, 3.5), (-5.0, 4.0)])
def test_area_sandwich_memory_is_bounded(c, limit):
    # with the default cell 0.02 a difference window has 639^2 cells: a
    # copy of both masks into one common window, and the temporaries of
    # comparing them there, took 0.9 MiB at c = 5 and 1.8 MiB at c = -5
    import tracemalloc

    ctx = verify._Ctx(VerifyConfig(Parameter(c)))
    for n in range(2, min(ctx.depth, 4) + 2):
        ctx.inner(n)
    ctx.pieces
    tracemalloc.start()
    try:
        dict(verify._CHECKS)["area-sandwich"](ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit * (1 << 20), peak
