"""Acceptance gate: nine numbered criteria, one test per criterion.

pytest -v gives one pass/fail line per criterion; the measured numbers
are printed and show up under -rP (or on failure).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from cantordiff import (
    Disks,
    Parameter,
    bound_table,
    decay_condition,
    decay_parameters,
    difference_cover,
    difference_measure_bound,
    generate_pieces,
    lcg_uniforms,
    mask_difference,
    piece_diameter_bound,
    piece_tree,
    radius_limits,
    rasterize_preimage,
    sample_diff_check,
    sum_area,
    union_grid_mask,
    union_margin,
)
from cantordiff.cli import main
from cantordiff._oracle import diff_proof_numbers

SEED = 20260816


@pytest.fixture(scope="module")
def tree512(p5):
    # shared by criteria 5 and 6: all pieces to depth 8 at 512 samples
    return piece_tree(p5, 8, samples=512)


def test_criterion_1_threshold_booleans():
    assert decay_condition(Parameter(4.74)) is True
    assert decay_condition(Parameter(4.73)) is False
    assert decay_condition(Parameter(3.0 + math.sqrt(3.0))) is False
    print("criterion 1: booleans exact at 4.74 / 4.73 / 3+sqrt(3)")


def test_criterion_2_decay_reproduction(p5):
    t0 = time.perf_counter()
    rows = bound_table(p5, 200)
    dp = decay_parameters(p5, 0.1)
    elapsed = time.perf_counter() - t0
    step50 = rows[49].ratio_step
    assert abs(step50 - 0.905541) <= 1e-4
    assert dp.settle_index == 3
    assert all(r.ratio_step < 1.0 for r in rows[dp.settle_index:])
    first_small = next(r.n for r in rows if r.bound < 1e-3)
    assert first_small <= 200
    assert elapsed < 1.0
    print(
        f"criterion 2: step(50)={step50:.9f}, N={dp.settle_index}, "
        f"bound<1e-3 at n={first_small}, {elapsed * 1000:.0f}ms"
    )


def test_criterion_3_divergence_control(p3, capsys):
    t0 = time.perf_counter()
    rows = bound_table(p3, 40)
    elapsed = time.perf_counter() - t0
    assert abs(rows[39].ratio_step - 2.8686) <= 1e-3
    first_big = next(r.n for r in rows if r.bound > 1e6)
    assert first_big <= 40
    code = main(["bounds", "--c-re", "3", "--depth", "10"])
    out = capsys.readouterr().out
    assert code == 0 and "decay not guaranteed" in out
    assert elapsed < 1.0
    print(
        f"criterion 3: step(40)={rows[39].ratio_step:.9f}, bound>1e6 at "
        f"n={first_big}, flagged, {elapsed * 1000:.0f}ms"
    )


def test_criterion_4_difference_disk_oracle():
    t0 = time.perf_counter()
    u = lcg_uniforms(SEED, 500)
    best_gap = math.inf
    for t in range(100):
        r = 0.3 + u[5 * t]
        d2 = Disks(complex(6 * u[5 * t + 1] - 3, 6 * u[5 * t + 2] - 3), r)
        d1 = Disks(complex(6 * u[5 * t + 3] - 3, 6 * u[5 * t + 4] - 3), r)
        # raises on any containment violation
        sup = sample_diff_check(d2, d1, 100000, seed=SEED + t)
        best_gap = min(best_gap, 2 * r - sup)
    assert best_gap <= 1e-2
    # grid proof on three of the pairs: no cell escapes the predicted
    # disk and no interior cell deeper than one diagonal goes missing
    for t in (0, 41, 99):
        r = 0.3 + u[5 * t]
        d2 = Disks(complex(6 * u[5 * t + 1] - 3, 6 * u[5 * t + 2] - 3), r)
        d1 = Disks(complex(6 * u[5 * t + 3] - 3, 6 * u[5 * t + 4] - 3), r)
        extra, deepest = diff_proof_numbers(d2, d1, 0.01)
        assert extra == 0
        assert deepest <= math.sqrt(2.0) * 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"criterion 4: 100 pairs clean at k=1e5, best sup gap "
        f"{best_gap:.5f}, raster proof within one cell, {elapsed:.1f}s"
    )


def test_criterion_5_pointwise_contraction(p5, tree512):
    t0 = time.perf_counter()
    rows = bound_table(p5, 12)
    sqrt2 = math.sqrt(2.0)
    worst = 0.0
    for n in range(1, 9):
        r_next = rows[n].inner_radius
        for j, child in enumerate(tree512[n].samples):
            parent = tree512[n - 1].samples[j % (1 << n)]
            dz = np.abs(parent[:, None] - parent[None, :])
            du = np.abs(child[:, None] - child[None, :])
            lhs = du * (sqrt2 * r_next)
            assert np.all(lhs <= dz * (1 + 1e-9)), (n, j)
            nz = dz > 0
            worst = max(worst, float((lhs[nz] / dz[nz]).max()))
        kn = piece_diameter_bound(p5, n)
        assert np.all(tree512[n].sampled_diam <= kn), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 5: contraction certificate holds to depth 8 at m=512, "
        f"worst normalized ratio {worst:.6f}, diameters under bound, "
        f"{elapsed:.1f}s"
    )


def test_criterion_6_enclosure(p5, tree512):
    worst_cover = 0.0
    for n in range(0, 9):
        level = tree512[n]
        for samples, center, radius in zip(
            level.samples, level.disks.centers, level.disks.radii
        ):
            dev = float(np.abs(samples - center).max())
            assert dev <= radius + 1e-12 * radius
            worst_cover = max(worst_cover, dev / radius)
        if n >= 1:
            kn = piece_diameter_bound(p5, n)
            assert np.all(level.disks.radii < math.sqrt(3.0) / 2.0 * kn), n
    print(
        f"criterion 6: all samples enclosed (worst fill {worst_cover:.4f}), "
        f"radii below certified sqrt(3)/2 * diameter bound"
    )


def test_criterion_7_sandwich_chain(p5):
    # the three estimates at matching lattices: the rasterized difference
    # set is a cell-for-cell subset of the dilated union cover, the union
    # cover cannot exceed the disk-area sum plus its dilation margin, and
    # the sum stays under the worst-case closed form
    t0 = time.perf_counter()
    cell = 0.01
    lines = []
    for n in range(1, 6):
        inner = rasterize_preimage(p5, n + 1, cell)
        raster = mask_difference(inner, inner).area
        diff = difference_cover(generate_pieces(p5, n, samples=512).disks)
        grid, margin = union_grid_mask(diff, cell), union_margin(diff, cell)
        total = sum_area(diff)
        worst = difference_measure_bound(p5, n).bound
        assert raster < grid.area, n
        assert grid.area < total + margin, n
        assert total < worst, n
        lines.append(
            f"  n={n}: raster {raster:.6f} < union {grid.area:.6f} "
            f"(margin {margin:.6f}) < sum {total:.6f} + margin "
            f"< worst {worst:.6f}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 7: sandwich strict at depths 1..5 ({elapsed:.1f}s)")
    for line in lines:
        print(line)


def _eventually_constant_monotone(seq, direction: int) -> bool:
    d = np.diff(np.asarray(seq, dtype=np.float64)) * direction
    if np.any(d < 0):
        return False
    flat = np.nonzero(d == 0)[0]
    # once two consecutive terms coincide the tail must stay constant
    return flat.size == 0 or bool(np.all(d[flat[0]:] == 0))


def test_criterion_8_radius_fixtures(p5):
    rows = bound_table(p5, 10000)
    assert rows[0].outer_radius == pytest.approx(math.sqrt(10.0), abs=1e-12)
    assert rows[1].inner_radius == pytest.approx(math.sqrt(5.0 - math.sqrt(10.0)), abs=1e-12)
    outer_limit, inner_limit = radius_limits(p5)
    assert outer_limit == pytest.approx((1 + math.sqrt(21.0)) / 2, abs=1e-12)
    assert inner_limit == pytest.approx(math.sqrt((9.0 - math.sqrt(21.0)) / 2.0), abs=1e-12)
    assert _eventually_constant_monotone([row.outer_radius for row in rows], -1)
    assert _eventually_constant_monotone([row.inner_radius for row in rows], +1)
    print("criterion 8: closed forms to 1e-12, monotone over 10^4 terms")


def _cli(*argv: str) -> bytes:
    r = subprocess.run([sys.executable, "-m", "cantordiff.cli", *argv], capture_output=True)
    assert r.returncode == 0, r.stderr.decode()
    return r.stdout


def test_criterion_9_verify_determinism(tmp_path):
    rp = tmp_path / "report.json"
    verify = ("verify", "--c-re", "5", "--depth", "2", "--samples", "64",
              "--cell", "0.05", "--count", "2000", "--report", str(rp))
    out_a = _cli(*verify)
    rep_a = rp.read_bytes()
    assert _cli(*verify) == out_a and rp.read_bytes() == rep_a
    assert json.loads(rep_a)["passed"] is True

    # --workers is accepted and ignored, since the rasters are filled
    # serially: the output must not depend on it
    outdir = tmp_path / "oracle"
    files = ("report.json", "inner.pgm", "outer.pgm", "diff.pgm")

    def oracle(workers: str) -> list[bytes]:
        out = _cli("oracle", "--c-re", "5", "--depth", "2", "--cell", "0.05",
                   "--samples", "64", "--workers", workers, "--outdir", str(outdir))
        return [out] + [(outdir / name).read_bytes() for name in files]

    assert oracle("1") == oracle("2")
    print("criterion 9: verify byte-identical twice, oracle at 1 vs 2 workers")
