"""Sampled preimage pieces and certified disk covers of their difference set.

A depth-n piece is the image of the starting disk D = {|z| <= |c|} under a
composition G_{s0} o ... o G_{sn} of inverse branches, one piece per
symbol string in {0,1}^(n+1).  Pieces are represented by the image of a
uniform sample of the boundary circle; the 2^(n+1) pieces at each depth
are kept in lexicographic symbol order (s0 is the most significant bit of
the piece index).

The sample tree shares suffixes: one level is built from the previous one
by applying both branches to every array, so intermediate levels are
themselves the lower-depth pieces, bit for bit.  Index bookkeeping used
throughout (level k holds 2^(k+1) pieces):

  * child j at level k was mapped from array j mod 2^k at level k-1 by
    branch j >> k (the new leading symbol);
  * dropping the last symbol of child j gives prefix piece j >> 1 at
    level k-1, which contains it as a set.

The difference set of the depth-n preimage is covered by all pairwise
disk differences of the pieces' enclosing disks; summing their areas or
rasterizing their union gives the two certified area estimates, and
sandwich() computes both next to the closed-form bound.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import difference_measure_bound
from .geometry import (
    Disk,
    Parameter,
    diametral_disk,
    diametral_pair,
    disk_difference,
    inverse_branch,
)
from .raster import DEFAULT_MAX_CELLS, GridMask, check_cap

__all__ = [
    "PieceCover",
    "GridArea",
    "Sandwich",
    "boundary_samples",
    "piece_sample_tree",
    "generate_pieces",
    "piece_tree",
    "piece_disks",
    "difference_cover",
    "sum_area",
    "union_grid_mask",
    "union_area_grid",
    "sandwich",
    "DEFAULT_MAX_POINTS",
    "DEFAULT_MAX_PAIRS",
    "DEFAULT_MAX_CELLS",
]

DEFAULT_MAX_POINTS = 1 << 24
DEFAULT_MAX_PAIRS = 1 << 20

_MIN_SAMPLES = 16


@dataclass(frozen=True)
class PieceCover:
    """One sampled piece with its certified enclosing disk."""

    seq: tuple[int, ...]
    samples: np.ndarray
    sampled_diam: float
    disk: Disk

    def __post_init__(self) -> None:
        self.samples.setflags(write=False)

    @property
    def depth(self) -> int:
        return len(self.seq) - 1

    @property
    def label(self) -> str:
        return "".join(str(s) for s in self.seq)


@dataclass(frozen=True)
class GridArea:
    """Grid estimate of a union area plus its certified allowance.

    area counts the marked cells of mask times cell^2; the dilation used
    while marking guarantees area <= (sum of member areas) + margin.
    """

    area: float
    margin: float
    cells: int
    cell: float
    mask: GridMask = field(repr=False, compare=False)


@dataclass(frozen=True)
class Sandwich:
    """The certified side of the area chain for one depth of pieces.

    disks is the difference cover, union its grid estimate, total the sum
    of its disk areas and bound the closed form 12*pi*4^n*K_n^2 at the
    pieces' depth n.
    """

    disks: list[Disk]
    union: GridArea
    total: float
    bound: float

    def holds(self, raster_area: float) -> bool:
        """raster <= union <= sum + margin, and sum <= bound."""
        return (
            raster_area <= self.union.area <= self.total + self.union.margin
            and self.total <= self.bound
        )


def boundary_samples(param: Parameter, count: int) -> np.ndarray:
    """count points uniformly spaced on the starting circle |z| = |c|."""
    if count < _MIN_SAMPLES:
        raise ValueError(f"need count >= {_MIN_SAMPLES}, got {count}")
    k = np.arange(count, dtype=np.float64)
    return param.abs_c * np.exp(2j * math.pi * k / count)


def piece_sample_tree(
    param: Parameter,
    depth: int,
    samples: int = 512,
    max_points: int | None = None,
) -> list[list[np.ndarray]]:
    """Sampled pieces for every depth 0..depth, lexicographic order.

    Returns one list per level; level k holds 2^(k+1) arrays of the given
    sample count.  Levels share suffixes as described in the module
    docstring, so building the deepest level yields all of them.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    total = ((1 << (depth + 2)) - 2) * samples
    check_cap("sample tree points", total, max_points, DEFAULT_MAX_POINTS)
    level = [boundary_samples(param, samples)]
    levels: list[list[np.ndarray]] = []
    for _ in range(depth + 1):
        level = [inverse_branch(arr, b, param) for b in (0, 1) for arr in level]
        levels.append(level)
    return levels


def _finalize_piece(seq: tuple[int, ...], arr: np.ndarray) -> PieceCover:
    i, j = diametral_pair(arr)
    d = float(abs(arr[i] - arr[j]))
    return PieceCover(seq, arr, d, diametral_disk(arr[i], arr[j]))


def _seq_of(index: int, depth: int) -> tuple[int, ...]:
    return tuple((index >> (depth - i)) & 1 for i in range(depth + 1))


def _finalize_level(
    arrays: list[np.ndarray], depth: int, workers: int
) -> list[PieceCover]:
    def one(idx: int) -> PieceCover:
        return _finalize_piece(_seq_of(idx, depth), arrays[idx])

    if workers <= 1:
        return [one(i) for i in range(len(arrays))]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(one, range(len(arrays))))


def generate_pieces(
    param: Parameter,
    depth: int,
    samples: int = 512,
    max_points: int | None = None,
    workers: int = 1,
) -> list[PieceCover]:
    """The 2^(depth+1) sampled pieces at one depth, with enclosing disks.

    Output is independent of workers: pieces are finalized independently
    and reassembled in lexicographic order.
    """
    levels = piece_sample_tree(param, depth, samples, max_points)
    return _finalize_level(levels[-1], depth, workers)


def piece_tree(
    param: Parameter,
    depth: int,
    samples: int = 512,
    max_points: int | None = None,
    workers: int = 1,
) -> list[list[PieceCover]]:
    """Finalized pieces for every depth 0..depth (shared sample tree)."""
    levels = piece_sample_tree(param, depth, samples, max_points)
    return [_finalize_level(arrays, k, workers) for k, arrays in enumerate(levels)]


def piece_disks(pieces: Sequence[PieceCover]) -> list[Disk]:
    """Enclosing disks of the pieces, in the given order."""
    return [pc.disk for pc in pieces]


def difference_cover(
    disks: Sequence[Disk], max_pairs: int | None = None
) -> list[Disk]:
    """All pairwise difference disks, row-major over (i, j).

    Element i*len(disks)+j is disk_difference(disks[i], disks[j]), the
    exact difference set of the two members; together they cover the
    difference set of any sets the input disks cover.
    """
    n = len(disks)
    if n == 0:
        raise ValueError("need at least one disk")
    check_cap("difference disks", n * n, max_pairs, DEFAULT_MAX_PAIRS)
    return [disk_difference(da, db) for da in disks for db in disks]


def sum_area(disks: Sequence[Disk]) -> float:
    """Sum of the disk areas (exactly rounded, order independent)."""
    if len(disks) == 0:
        raise ValueError("need at least one disk")
    return math.fsum(d.area for d in disks)


def union_grid_mask(
    disks: Sequence[Disk], cell: float, max_cells: int | None = None
) -> GridMask:
    """Dilated membership raster of a disk union.

    Marks every cell of the lattice (i*cell, j*cell) whose center lies
    within radius + cell*sqrt(2)/2 of some disk center.  Cell centers sit
    on integer multiples of cell so that difference masks of half-integer
    rasters (which land on the same lattice) compare cell for cell.
    """
    n = len(disks)
    if n == 0:
        raise ValueError("need at least one disk")
    if not (math.isfinite(cell) and cell > 0.0):
        raise ValueError(f"cell must be finite and > 0, got {cell!r}")
    dil = cell * math.sqrt(2.0) / 2.0
    xs_lo = min(d.center.real - d.radius - dil for d in disks)
    xs_hi = max(d.center.real + d.radius + dil for d in disks)
    ys_lo = min(d.center.imag - d.radius - dil for d in disks)
    ys_hi = max(d.center.imag + d.radius + dil for d in disks)
    kx_lo = math.floor(xs_lo / cell) - 1
    kx_hi = math.ceil(xs_hi / cell) + 1
    ky_lo = math.floor(ys_lo / cell) - 1
    ky_hi = math.ceil(ys_hi / cell) + 1
    nx = kx_hi - kx_lo + 1
    ny = ky_hi - ky_lo + 1
    check_cap("union grid cells", nx * ny, max_cells, DEFAULT_MAX_CELLS)
    mask = np.zeros((ny, nx), dtype=bool)
    for d in disks:
        rr = d.radius + dil
        ax_lo = max(kx_lo, math.floor((d.center.real - rr) / cell) - 1)
        ax_hi = min(kx_hi, math.ceil((d.center.real + rr) / cell) + 1)
        ay_lo = max(ky_lo, math.floor((d.center.imag - rr) / cell) - 1)
        ay_hi = min(ky_hi, math.ceil((d.center.imag + rr) / cell) + 1)
        if ax_lo > ax_hi or ay_lo > ay_hi:
            continue
        dx = np.arange(ax_lo, ax_hi + 1, dtype=np.float64) * cell - d.center.real
        dy = np.arange(ay_lo, ay_hi + 1, dtype=np.float64) * cell - d.center.imag
        hit = dx[None, :] ** 2 + dy[:, None] ** 2 <= rr * rr
        mask[ay_lo - ky_lo : ay_hi - ky_lo + 1, ax_lo - kx_lo : ax_hi - kx_lo + 1] |= hit
    origin = complex((kx_lo - 0.5) * cell, (ky_lo - 0.5) * cell)
    return GridMask(origin=origin, cell=cell, bits=mask, mode="union")


def union_area_grid(
    disks: Sequence[Disk], cell: float, max_cells: int | None = None
) -> GridArea:
    """Grid over-estimate of the union area of the disks.

    Counts the cells of union_grid_mask times cell^2.  Each marked cell is
    contained in its disk dilated by cell*sqrt(2), and the dilated disks
    have total area sum_area(disks) + margin, so the estimate never
    exceeds that: area <= sum_area(disks) + margin with

        margin = sum_i pi * (2*sqrt(2)*cell*r_i + 2*cell^2).
    """
    mask = union_grid_mask(disks, cell, max_cells)
    count = int(np.count_nonzero(mask.bits))
    margin = math.fsum(
        math.pi * (2.0 * math.sqrt(2.0) * cell * d.radius + 2.0 * cell * cell)
        for d in disks
    )
    return GridArea(
        area=count * cell * cell, margin=margin, cells=count, cell=cell, mask=mask
    )


def sandwich(
    param: Parameter,
    pieces: Sequence[PieceCover],
    cell: float,
    cap: int | None = None,
) -> Sandwich:
    """Difference cover of one depth of pieces, its two area estimates
    and the closed-form bound at that depth.

    cap, when given, replaces both the pair cap and the cell cap.
    """
    disks = difference_cover(piece_disks(pieces), max_pairs=cap)
    return Sandwich(
        disks=disks,
        union=union_area_grid(disks, cell, max_cells=cap),
        total=sum_area(disks),
        bound=float(difference_measure_bound(param, pieces[0].depth).bound),
    )
