"""Piece generation, enclosing-disk covers and the union-of-disks grid."""

import math

import numpy as np
import pytest

from cantordiff import (
    Disks,
    Parameter,
    boundary_samples,
    diametral_pair,
    difference_cover,
    forward_map,
    generate_pieces,
    piece_diameter_bound,
    piece_sample_tree,
    piece_tree,
    sandwich,
    sum_area,
    union_grid_mask,
    union_margin,
)
from cantordiff import geometry


def test_boundary_samples_on_circle(p5):
    pts = boundary_samples(p5, 64)
    assert pts.shape == (64,)
    assert np.allclose(np.abs(pts), 5.0, rtol=1e-15)


def test_boundary_samples_minimum_count(p5):
    with pytest.raises(ValueError):
        boundary_samples(p5, 8)


def test_piece_count_depth0(p5):
    assert len(generate_pieces(p5, 0, samples=32)) == 2


def test_piece_count_depth2(p5):
    pcs = generate_pieces(p5, 2, samples=32)
    assert len(pcs) == 8
    assert pcs.samples.shape == (8, 32)
    assert [pcs.label(j) for j in range(len(pcs))] == [
        "000", "001", "010", "011", "100", "101", "110", "111",
    ]


def test_depth0_pieces_negate(p5):
    # the two first-level pieces are exact negatives of each other
    a, b = generate_pieces(p5, 0, samples=64).samples
    assert np.array_equal(a, -b)


def test_samples_roundtrip_into_disk(p5):
    # depth n pieces forward-map n+1 times back onto the starting circle
    for n in (0, 2):
        for z in generate_pieces(p5, n, samples=48).samples:
            for _ in range(n + 1):
                z = forward_map(z, p5)
            assert np.max(np.abs(np.abs(z) - 5.0)) < 1e-12


def test_suffix_sharing_tree_matches_direct_composition(p5):
    tree = piece_sample_tree(p5, 4, samples=32)
    base = boundary_samples(p5, 32)
    from cantordiff import inverse_branch

    for k, level in enumerate(tree):
        assert level.shape == (2 ** (k + 1), 32)
        for j, arr in enumerate(level):
            bits = [(j >> (k - t)) & 1 for t in range(k + 1)]
            z = base
            for b in reversed(bits):
                z = inverse_branch(z, b, p5)
            assert np.array_equal(arr, z), (k, j)


def test_sampled_diameter_below_certified_bound(p5):
    for n in (1, 2, 3):
        kn = piece_diameter_bound(p5, n)
        assert np.all(generate_pieces(p5, n, samples=64).sampled_diam <= kn)


def test_sampled_diameter_rounding_contract(p5):
    # sampled_diam rounds exactly like scalar abs() on the diametral pair,
    # and the disk radius is sqrt(3)/2 times that very double
    pieces = generate_pieces(p5, 3, samples=512)
    for row, diam in zip(pieces.samples, pieces.sampled_diam):
        i, j, _ = diametral_pair(row)
        assert diam == abs(row[i] - row[j])
    assert np.array_equal(pieces.disks.radii, math.sqrt(3) / 2 * pieces.sampled_diam)


def test_sampled_diameters_are_the_search_distances(monkeypatch):
    # sampled_diam is the distance diametral_pair returns, which is
    # np.hypot of its pair's difference bit for bit; the rows below reach
    # both the all-pairs scan and the block search
    ran = set()
    for name in ("_pair_scan", "_pair_search"):
        kernel = getattr(geometry, name)
        monkeypatch.setattr(geometry, name, lambda p, k=kernel, n=name: ran.add(n) or k(p))
    for c in (5.0, -5.0, 2.5j, 2.05j):
        for samples in (256, 16384):
            pieces = generate_pieces(Parameter(c), 2, samples)
            for row, diam in zip(pieces.samples, pieces.sampled_diam):
                i, j, d = diametral_pair(row)
                gap = row[i] - row[j]
                assert diam == d == np.hypot(gap.real, gap.imag), (c, samples)
    assert ran == {"_pair_scan", "_pair_search"}


def test_disks_cover_their_samples(p5):
    pieces = generate_pieces(p5, 3, samples=64)
    for j, samples in enumerate(pieces.samples):
        center, radius = pieces.disks.centers[j], pieces.disks.radii[j]
        assert np.all(np.abs(samples - center) <= radius + 1e-12), j


def test_children_nest_in_parent_disk(p5):
    levels = piece_tree(p5, 3, samples=64)
    for k in range(1, len(levels)):
        for j, samples in enumerate(levels[k].samples):
            parent = levels[k - 1].disks
            dev = np.abs(samples - parent.centers[j >> 1]).max()
            assert dev <= parent.radii[j >> 1] * (1 + 1e-9), (k, j)


def test_max_points_cap(p5, monkeypatch):
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", "1000")
    with pytest.raises(ValueError, match="cap"):
        generate_pieces(p5, 6, samples=512)


def test_difference_cover_is_all_pairs(p5):
    disks = generate_pieces(p5, 1, samples=32).disks
    diff = difference_cover(disks)
    n = len(disks)
    assert len(diff) == n * n
    # row-major: entry t corresponds to (i, j) = divmod(t, n), and each
    # entry is c_i - c_j, r_i + r_j in Python complex and float arithmetic,
    # bit for bit (signed zeros included)
    c, r = disks.centers.tolist(), disks.radii.tolist()
    pairs = [divmod(t, n) for t in range(n * n)]
    assert diff.centers.tobytes() == np.array([c[i] - c[j] for i, j in pairs]).tobytes()
    assert diff.radii.tobytes() == np.array([r[i] + r[j] for i, j in pairs]).tobytes()


def test_difference_cover_cap(monkeypatch):
    disks = Disks(np.arange(40, dtype=np.float64), np.full(40, 0.1))
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", "100")
    with pytest.raises(ValueError, match="cap"):
        difference_cover(disks)


def test_disks_arrays_are_checked_and_read_only():
    d = Disks([0j, 1j], [1.0, 0.5])
    assert len(d) == 2
    assert d.centers.tolist() == [0j, 1j] and d.radii.tolist() == [1.0, 0.5]
    one = Disks(1j, 0.5)  # a single disk is a one-row Disks
    assert len(one) == 1 and one.centers.tolist() == [1j] and one.radii.tolist() == [0.5]
    with pytest.raises(ValueError):
        d.radii[0] = 2.0
    with pytest.raises(ValueError, match="centers"):
        Disks([0j, 1j], [1.0])
    with pytest.raises(ValueError, match="radii"):
        Disks([0j], [-1.0])
    with pytest.raises(ValueError, match="radii"):
        Disks([0j], [math.inf])
    with pytest.raises(ValueError, match="at least one"):
        Disks([], [])


def test_sum_area_fsum():
    disks = Disks([0j, 1j], [1.0, 0.5])
    assert sum_area(disks) == math.fsum(math.pi * r * r for r in disks.radii.tolist())


def test_union_grid_unit_disk_area():
    disks = Disks([0j], [1.0])
    area, margin = union_grid_mask(disks, 0.01).area, union_margin(disks, 0.01)
    # dilated count overestimates; subtracting the margin must underestimate
    assert area >= math.pi
    assert area - margin <= math.pi
    assert area == pytest.approx(math.pi, abs=margin)


def test_union_grid_disjoint_pair_adds():
    disks = Disks([0j, 5 + 0j], [1.0, 1.0])
    g = union_grid_mask(disks, 0.01)
    assert g.area == pytest.approx(2 * math.pi, abs=union_margin(disks, 0.01))


def test_union_grid_duplicate_is_idempotent():
    one = union_grid_mask(Disks([0.2 + 0.1j], [0.7]), 0.02)
    two = union_grid_mask(Disks([0.2 + 0.1j] * 2, [0.7] * 2), 0.02)
    assert one.cells == two.cells
    assert one.area == two.area


def test_union_margin_is_the_dilation_allowance():
    disks = Disks([0j, 3 + 1j], [1.0, 0.25])
    terms = [math.pi * (2.0 * math.sqrt(2.0) * 0.1 * r + 2.0 * 0.1 * 0.1) for r in (1.0, 0.25)]
    assert union_margin(disks, 0.1) == math.fsum(terms)


def test_union_never_exceeds_sum(p5):
    diff = difference_cover(generate_pieces(p5, 2, samples=64).disks)
    g = union_grid_mask(diff, 0.05)
    assert g.area <= sum_area(diff) + union_margin(diff, 0.05)


def test_union_grid_mask_lattice():
    m = union_grid_mask(Disks([0j], [1.0]), 0.25)
    # centers sit on the integer-cell lattice (k*cell exactly), the lattice
    # that differences of half-integer preimage masks land on
    assert m.cell == 0.25
    ax_x, ax_y = m.center_axes()
    assert np.allclose((ax_x / 0.25) % 1.0, 0.0)
    assert np.allclose((ax_y / 0.25) % 1.0, 0.0)


def test_union_grid_cell_validation(monkeypatch):
    for f in (union_grid_mask, union_margin):
        with pytest.raises(ValueError, match="cell must be finite and > 0"):
            f(Disks([0j], [1.0]), 0.0)
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", "1000")
    with pytest.raises(ValueError, match="cap"):
        union_grid_mask(Disks([0j], [1.0]), 1e-5)


def test_sandwich_fails_on_an_area_that_is_not_finite(p5):
    sw = sandwich(p5, generate_pieces(p5, 1, samples=64), 0.05)
    area = sw.union.area / 2.0
    assert sw.holds(area)
    assert not sw.holds(math.inf)
    assert not sw.holds(math.nan)
    # an overflowed sum or union would sit below an infinite bound
    overflowed = sw._replace(total=math.inf, bound=math.inf)
    assert not overflowed.holds(area)
