"""Branch inverses and the disk geometry helpers.

Reference values here were frozen from a 50-digit mpmath run of the same
formulas; the library itself never touches mpmath.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cantordiff import (
    Disks,
    Parameter,
    diametral_disks,
    diametral_pair,
    disk_difference,
    forward_map,
    generate_pieces,
    inverse_branch,
    piece_tree,
    sqrt_branch,
    sum_area,
)
from cantordiff import geometry
from cantordiff.geometry import _ALL_PAIRS_LIMIT, _BUDGET, _pair_scan, _pair_search


def test_parameter_rejects_small_modulus():
    with pytest.raises(ValueError, match=r"\|c\| > 2"):
        Parameter(1.5)
    with pytest.raises(ValueError, match=r"\|c\| > 2"):
        Parameter(2.0)
    with pytest.raises(ValueError):
        Parameter(complex("inf"))


def test_parameter_accepts_complex():
    p = Parameter(-2 + 2j)
    assert p.abs_c == abs(-2 + 2j)


def test_sqrt_branch_squares_back():
    rng = np.random.default_rng(7)
    z = rng.normal(size=400) + 1j * rng.normal(size=400)
    for sign in (1, -1):
        w = sqrt_branch(z, sign)
        assert np.allclose(w * w, z, rtol=1e-14, atol=1e-14)


def test_sqrt_branch_zero_is_upper_half_plane():
    # cut along [0, 2pi): branch 0 arguments land in [0, pi)
    rng = np.random.default_rng(11)
    z = rng.normal(size=400) + 1j * rng.normal(size=400)
    args = np.angle(sqrt_branch(z, 1))
    assert np.all((args >= 0.0) & (args < math.pi))


def test_sqrt_branch_one_is_exact_negation():
    rng = np.random.default_rng(13)
    z = rng.normal(size=256) + 1j * rng.normal(size=256)
    assert np.array_equal(sqrt_branch(z, -1), -sqrt_branch(z, 1))


def test_sqrt_branch_scalar_passthrough():
    w = sqrt_branch(-4.0 + 0j, 1)
    assert isinstance(w, complex)
    assert w == pytest.approx(2j, abs=1e-15)


def test_inverse_branch_is_right_inverse(p5):
    rng = np.random.default_rng(17)
    z = 5 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    for b in (0, 1):
        back = forward_map(inverse_branch(z, b, p5), p5)
        assert np.allclose(back, z, rtol=1e-13, atol=1e-13)


def test_inverse_branches_differ_by_sign(p5):
    z = np.array([1 + 1j, -3.0, 0.5j])
    assert np.array_equal(inverse_branch(z, 1, p5), -inverse_branch(z, 0, p5))


def test_diameter_345_triangle():
    pts = np.array([0.0, 3.0, 3.0 + 4.0j])
    assert diametral_pair(pts) == (0, 2, 5.0)


def test_diametral_pair_tie_break_is_lexicographic():
    # unit square: both diagonals realize the diameter, pick smallest (i, j)
    pts = np.array([0.0, 1.0, 1.0 + 1.0j, 1.0j])
    assert diametral_pair(pts) == (0, 2, math.hypot(1.0, 1.0))
    # a 24-gon: vectorised np.abs rounds (0, 12) to 6.0 and misses the
    # scalar maximum 6.000000000000001 of (5, 17)
    pts = 3.0 * np.exp(2j * math.pi * np.arange(24) / 24) - 1.5j
    best = max(abs(a - b) for a in pts for b in pts)
    assert best == 6.000000000000001
    assert _pair_scan(pts) == (5, 17, best) == (*_first_attaining_pair(pts), best)
    assert diametral_pair(pts) == (5, 17, best)


def _first_attaining_pair(pts):
    # brute-force oracle: smallest (i, j), i <= j, over every pair whose
    # np.hypot distance equals the maximum of the full distance matrix
    d = pts[:, None] - pts[None, :]
    d = np.hypot(d.real, d.imag)
    hits = np.argwhere(d == d.max())
    return min((int(i), int(j)) for i, j in hits if i <= j)


def test_diametral_pair_tie_break_spans_blocks(monkeypatch):
    # points on a 5x5 integer lattice repeat, so many index pairs attain
    # the diameter exactly and they spread over several scan blocks of
    # _BUDGET // n rows; in half the cases the extreme corners only appear
    # after the first block
    rng = np.random.default_rng(37)
    for case in range(8):
        n = int(rng.integers(300, 1501))
        block = _BUDGET // n
        assert n > block
        pts = rng.integers(0, 5, size=n) + 1j * rng.integers(0, 5, size=n)
        if case % 2:
            head = block + int(rng.integers(0, n - block))
            pts[:head] = rng.integers(1, 4, size=head) + 1j * rng.integers(1, 4, size=head)
        assert _pair_scan(pts)[:2] == _first_attaining_pair(pts), case
    # one to four rows a block, so the blocks straddle the diagonal and
    # the mirrored maxima (i, j) and (j, i) of the 3x3 lattice fall in one
    # block or across two; the scan keeps the full matrix's first maximum
    for case in range(48):
        n = int(rng.integers(2, 60))
        rows = 1 + case % 4
        monkeypatch.setattr(geometry, "_BUDGET", rows * n + int(rng.integers(0, n)))
        pts = rng.integers(0, 3, size=n) + 1j * rng.integers(0, 3, size=n)
        d = pts[:, None] - pts[None, :]
        best = float(np.hypot(d.real, d.imag).max())
        assert _pair_scan(pts) == (*_first_attaining_pair(pts), best), case


def test_block_search_diameter_matches_bruteforce():
    rng = np.random.default_rng(23)
    n = _ALL_PAIRS_LIMIT + 321
    pts = rng.normal(size=n) + 1j * rng.normal(size=n)
    # independent quadratic oracle on a thinned copy plus the fast pair;
    # the prune leaves few points of this cloud, so the block search runs
    # on all of them directly
    i, j, d_fast = diametral_pair(pts)
    assert _pair_search(pts) == (i, j, d_fast)
    assert abs(pts[i] - pts[j]) == d_fast
    sub = pts[:: 7]
    brute = max(
        abs(a - b) for k, a in enumerate(sub) for b in sub[k + 1 :]
    )
    assert d_fast >= brute - 1e-12


def _max_hypot(pts):
    # brute-force oracle in the search's rounding: np.hypot rounds like the
    # scalar abs() of a complex, which the vectorised np.abs need not
    d = pts[:, None] - pts[None, :]
    return float(np.hypot(d.real, d.imag).max())


def _smallest_max_pair(pts):
    # blocked all-pairs oracle in np.hypot rounding: (i, j, distance) with
    # (i, j), i <= j, the smallest pair attaining the maximum.  Squared
    # distances only preselect candidates: a pair attaining the maximum
    # hypot is within a few ulps of its block's largest square, far inside
    # the 1e-9 margin, and np.hypot then measures every candidate
    m = pts.size
    best, key = -1.0, 0
    for lo in range(0, m, 64):
        dx = pts.real[lo : lo + 64, None] - pts.real[None, lo:]
        dy = pts.imag[lo : lo + 64, None] - pts.imag[None, lo:]
        d2 = dx * dx + dy * dy
        ii, jj = np.nonzero(d2 >= d2.max() * (1.0 - 1e-9))
        d = np.hypot(dx[ii, jj], dy[ii, jj])
        i, j = ii + lo, jj + lo
        hits = (np.minimum(i, j) * m + np.maximum(i, j))[d == d.max()]
        if d.max() > best:
            best, key = float(d.max()), int(hits.min())
        elif d.max() == best:
            key = min(key, int(hits.min()))
    return key // m, key % m, best


def test_diametral_pair_matches_bruteforce_beyond_scan_limit():
    # above the scan limit, both behind the prune and unpruned, the block
    # search's pair must be the oracle's exactly, ties and duplicates
    # included
    rng = np.random.default_rng(61)
    for kind in range(7):
        n = int(rng.integers(_ALL_PAIRS_LIMIT + 1, 6001))
        if kind == 0:
            pts = rng.normal(size=n) + 1j * rng.normal(size=n)
        elif kind in (1, 2):
            side = 5 if kind == 1 else 7
            pts = rng.integers(0, side, size=n) + 1j * rng.integers(0, side, size=n)
        elif kind == 3:
            pts = 2.5 * np.exp(2j * math.pi * rng.integers(0, 24, size=n) / 24) + 0.5
        elif kind == 4:
            pts = np.full(n, 0.3 - 0.7j)
        elif kind == 5:
            # blocks with wide rectangles: every half extent of the bound counts
            pts = rng.uniform(-5, 5, size=n) + 1j * rng.uniform(-1, 1, size=n)
        else:
            blob = 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            pts = np.exp(2j * math.pi * rng.integers(0, 3, size=n) / 3) + blob
        want = _smallest_max_pair(pts)
        assert diametral_pair(pts) == want, (kind, n)
        assert _pair_search(pts) == want, (kind, n)


@pytest.mark.parametrize("c", [5.0, -5.0, 2.5j, 3 + 4j])
def test_diametral_pair_on_pieces_beyond_scan_limit(c):
    pieces = generate_pieces(Parameter(c), 2, samples=5000)
    for k, row in enumerate(pieces.samples):
        i, j, d = _smallest_max_pair(row)
        assert diametral_pair(row) == (i, j, d), k
        assert pieces.sampled_diam[k] == d


def test_scan_and_search_agree_between_the_limits():
    # piece rows from just above the scan limit up to 4096 points: the two
    # exact paths must give one pair, whichever side of the limit runs
    rng = np.random.default_rng(89)
    for c in [5.0, -5.0, 2.5j, 3 + 4j, 2.2, 2.05j]:
        samples = int(rng.integers(_ALL_PAIRS_LIMIT + 1, 4097))
        for level in piece_tree(Parameter(c), 2, samples):
            for k, row in enumerate(level.samples):
                assert _pair_scan(row)[:2] == _pair_search(row)[:2], (c, samples, k)


def test_search_dispatch_counts_the_points_the_prune_keeps(monkeypatch):
    # at c = 5 the prune keeps a few of 5,000 points per row, so the scan
    # runs; the round pieces at c = 2.5i keep nearly all, so the search runs
    calls = []

    def search(pts):
        calls.append(pts.size)
        if refuse:
            raise AssertionError(f"block search on {pts.size} points")
        return _pair_search(pts)

    monkeypatch.setattr(geometry, "_pair_search", search)
    refuse = True
    generate_pieces(Parameter(5.0), 2, samples=5000)
    refuse = False
    generate_pieces(Parameter(2.5j), 2, samples=5000)
    assert calls and min(calls) > _ALL_PAIRS_LIMIT


def _pruning_inputs(n, rng):
    # inputs where dropping points is delicate: exact ties, repeats, equal
    # points, far offsets and extreme scales
    k = rng.integers(0, 24, size=n)
    blob = rng.normal(size=n) + 1j * rng.normal(size=n)
    yield 2.5 * np.exp(2j * math.pi * k / 24) + 0.5
    yield np.exp(2j * math.pi * (k % 5) / 5) - 3j
    yield np.full(n, 0.3 - 0.7j)
    yield (1e6 + 1e6j) + 1e-3 * blob
    yield 1e-300 * blob
    yield 1e150 * blob
    # from index 0 the farthest-point sweeps go 0 -> 1 -> 0 and stop on a
    # pair at distance 1, but the last two points lie 1.05 apart
    box = 0.1 * (rng.uniform(-1, 1, size=n - 4) + 1j * rng.uniform(-1, 1, size=n - 4))
    sweep = np.r_[0.0, 1.0, 0.5 + box, 0.5 + 0.52j, 0.5 - 0.53j]
    assert np.abs(sweep - sweep[0]).argmax() == 1 and np.abs(sweep - sweep[1]).argmax() == 0
    yield sweep


@pytest.mark.parametrize("n", [4, 64, _ALL_PAIRS_LIMIT, _ALL_PAIRS_LIMIT + 1, 3000])
def test_diametral_pair_equals_unpruned_paths(n):
    # diametral_pair searches only the points that can end a diametral pair;
    # the unpruned scan or search on every point must give the same answer
    rng = np.random.default_rng(n)
    plain = _pair_scan if n <= _ALL_PAIRS_LIMIT else _pair_search
    for case, pts in enumerate(_pruning_inputs(n, rng)):
        assert pts.size == n
        assert diametral_pair(pts) == plain(pts), (case, n)


@pytest.mark.parametrize("n, sides", [(64, 8), (64, 60), (_ALL_PAIRS_LIMIT + 80, 8)])
def test_pruning_keeps_the_ties_of_turned_polygons(n, sides):
    # the tied diagonals of a turned polygon differ from the start pair's
    # distance in the last bits; without its slack the prune drops some
    # of them on a few of these turns and the tie-break moves
    k = (7 * np.arange(n)) % sides
    plain = _pair_scan if n <= _ALL_PAIRS_LIMIT else _pair_search
    for r in range(200):
        pts = 6000.0 * np.exp(2j * math.pi * (r / 200 + k) / sides)
        assert diametral_pair(pts) == plain(pts), r


def test_block_search_memory_on_a_large_circle():
    # the vertices of a regular 2^18-gon in shuffled order: the search's
    # worst case, with a few hundred antipodal pairs tied after rounding
    n = 1 << 18
    turn = np.random.default_rng(71).permutation(n)
    pts = np.exp(2j * math.pi * turn / n)
    tracemalloc.start()
    try:
        i, j, d_max = diametral_pair(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20
    # only antipodal pairs come within rounding of the maximum (the next
    # ones are 2 cos(pi/n) ~ 2 - 1.5e-10 apart), so they are the oracle
    at = np.argsort(turn)
    a, b = at[: n // 2], at[n // 2 :]
    d = np.hypot(pts.real[a] - pts.real[b], pts.imag[a] - pts.imag[b])
    lo, hi = np.minimum(a, b)[d == d.max()], np.maximum(a, b)[d == d.max()]
    k = int(np.argmin(lo * n + hi))
    assert (i, j, d_max) == (lo[k], hi[k], d.max())


def test_block_search_on_degenerate_inputs():
    # lattices and repeated circle points give many duplicates, collinear
    # runs and distance ties; the block search runs behind the prune on
    # the inputs it cannot shrink below the scan limit, directly on all
    rng = np.random.default_rng(53)
    ring = np.exp(2j * math.pi * rng.integers(0, 24, size=5000) / 24)
    grid = rng.integers(0, 7, size=5000) + 1j * rng.integers(0, 7, size=5000)
    # without the corners 0 and 6+6i the only diametral pair is (6, 6i),
    # placed at the first and the last index
    cut = grid[(grid != 0) & (grid != 6 + 6j)]
    inputs = [
        grid,
        grid[::-1],
        np.concatenate([[6], cut[(cut != 6) & (cut != 6j)], [6j]]),
        rng.integers(0, 7, size=5000) + 0j,
        3.0 * ring - 1.5j,
        np.concatenate([ring[:2500], ring[2499::-1]]),
    ]
    for pts in inputs:
        assert pts.size > _ALL_PAIRS_LIMIT
        i, j, d = diametral_pair(pts)
        assert i <= j
        # duplicates never change the diameter, so the quadratic oracles
        # run on the few distinct points
        distinct = np.unique(pts)
        assert abs(pts[i] - pts[j]) == d == _max_hypot(distinct)
        assert d == _pair_scan(distinct)[2]
        assert diametral_pair(pts.copy()) == (i, j, d)
        assert (i, j, d) == _smallest_max_pair(pts)
        assert _pair_search(pts) == (i, j, d)


def _enclosing_disk(pts) -> tuple[complex, float]:
    i, j, dist = diametral_pair(pts)
    d = diametral_disks(pts[i], pts[j], dist)
    return d.centers[0], d.radii[0]


def test_enclosing_disk_two_points():
    pts = np.array([-1.0 + 0j, 1.0 + 0j])
    center, radius = _enclosing_disk(pts)
    assert center == 0
    assert radius == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_diametral_disks_scalar_and_array_agree():
    rng = np.random.default_rng(19)
    x = rng.normal(size=50) + 1j * rng.normal(size=50)
    y = rng.normal(size=50) + 1j * rng.normal(size=50)
    dist = np.hypot((x - y).real, (x - y).imag)
    many = diametral_disks(x, y, dist)
    assert len(many) == 50
    for k in range(50):
        one = diametral_disks(x[k], y[k], abs(x[k] - y[k]))
        assert len(one) == 1
        assert one.centers[0] == many.centers[k] and one.radii[0] == many.radii[k]
        assert many.radii[k] == math.sqrt(3.0) / 2.0 * abs(x[k] - y[k])


def test_enclosing_disk_covers_equilateral():
    # worst case for the sqrt(3)/2 factor: circumradius equals d/sqrt(3)
    ang = np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    pts = np.exp(1j * ang)
    center, radius = _enclosing_disk(pts)
    assert np.all(np.abs(pts - center) <= radius)
    assert radius == pytest.approx(math.sqrt(3) / 2 * diametral_pair(pts)[2], rel=1e-15)


def test_enclosing_disk_covers_random_clouds():
    rng = np.random.default_rng(29)
    for _ in range(20):
        pts = rng.normal(size=60) + 1j * rng.normal(size=60)
        center, radius = _enclosing_disk(pts)
        assert np.all(np.abs(pts - center) <= radius + 1e-12)


def test_disk_difference_exact():
    got = disk_difference(Disks(3 + 4j, 1.0), Disks(1 + 1j, 1.0))
    assert got.centers.tolist() == [2 + 3j] and got.radii.tolist() == [2.0]


def test_disk_difference_is_row_major_over_both_sides():
    a, b = Disks([0j, 1j], [1.0, 2.0]), Disks([3.0, 4.0, 5j], [0.5, 0.25, 0.125])
    got = disk_difference(a, b)
    assert got.centers.tolist() == [-3, -4, -5j, 1j - 3, 1j - 4, -4j]
    assert got.radii.tolist() == [1.5, 1.25, 1.125, 2.5, 2.25, 2.125]


def test_disk_difference_contains_sampled_differences():
    rng = np.random.default_rng(31)
    d2, d1 = Disks(0.3 - 0.7j, 1.25), Disks(-2.0 + 0.4j, 0.75)
    dd = disk_difference(d2, d1)
    u = d2.centers + d2.radii * np.sqrt(rng.uniform(size=500)) * np.exp(
        2j * math.pi * rng.uniform(size=500)
    )
    v = d1.centers + d1.radii * np.sqrt(rng.uniform(size=500)) * np.exp(
        2j * math.pi * rng.uniform(size=500)
    )
    assert np.all(np.abs((u - v) - dd.centers) <= dd.radii + 1e-12)


def test_disk_area():
    assert sum_area(Disks(0j, 2.0)) == pytest.approx(4 * math.pi, rel=1e-15)
