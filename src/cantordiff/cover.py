"""Sampled preimage pieces and disk covers of their difference set.

A depth-n piece is the image of the starting disk D = {|z| <= |c|} under a
composition G_{s0} o ... o G_{sn} of inverse branches, one piece per
symbol string in {0,1}^(n+1).  Pieces are represented by the image of a
uniform sample of the boundary circle; the 2^(n+1) pieces at each depth
are the rows of one (2^(n+1), samples) array in lexicographic symbol
order (s0 is the most significant bit of the row index j).

The sample tree shares suffixes: one level is built from the previous one
by applying both branches to the whole previous array, so intermediate
levels are themselves the lower-depth pieces, bit for bit.  Index
bookkeeping used throughout (level k holds 2^(k+1) pieces):

  * child j at level k was mapped from row j mod 2^k at level k-1 by
    branch j >> k (the new leading symbol);
  * dropping the last symbol of child j gives prefix piece j >> 1 at
    level k-1, which contains it as a set.

The difference set of the depth-n preimage is covered by all pairwise
disk differences of the pieces' enclosing disks, as far as those disks
cover the pieces: they are built on sampled diametral pairs, which can
undershoot a piece's true diameter.  Summing the difference disks' areas
or rasterizing their union gives the two area estimates, and sandwich()
computes both next to the certified closed-form bound.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .bounds import difference_measure_bound
from .geometry import Disks, Parameter, diametral_disks, diametral_pair, disk_difference
from .geometry import inverse_branch
from .raster import DEFAULT_MAX_CELLS, DEFAULT_MAX_PAIRS, DEFAULT_MAX_POINTS, GridMask
from .raster import _disk_cells, check_cap, check_cell

__all__ = [
    "Pieces",
    "Sandwich",
    "boundary_samples",
    "piece_sample_tree",
    "generate_pieces",
    "piece_tree",
    "difference_cover",
    "sum_area",
    "union_grid_mask",
    "union_margin",
    "sandwich",
    "DEFAULT_MAX_POINTS",
    "DEFAULT_MAX_PAIRS",
    "DEFAULT_MAX_CELLS",
]

_MIN_SAMPLES = 16


class Pieces:
    """The 2^(depth+1) sampled pieces of one depth with their enclosing disks.

    Row j of samples is the piece with branch word j; sampled_diam[j] is
    the distance diametral_pair returned for that row, and disks[j] the
    sqrt(3)/2 disk on the pair it returned.
    """

    __slots__ = ("depth", "samples", "sampled_diam", "disks")

    def __init__(
        self, depth: int, samples: np.ndarray, sampled_diam: np.ndarray, disks: Disks
    ) -> None:
        samples.setflags(write=False)
        sampled_diam.setflags(write=False)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sampled_diam", sampled_diam)
        object.__setattr__(self, "disks", disks)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        return len(self.samples)

    def label(self, j: int) -> str:
        """Branch word of piece j, s0 first."""
        return format(j, f"0{self.depth + 1}b")


class Sandwich(namedtuple("Sandwich", "disks union margin total bound")):
    """The area chain for one depth of pieces.

    disks is the difference cover of the pieces' sampled enclosing disks,
    union its union grid, whose area over-estimates the union's, margin
    the grid's certified allowance (union_margin), total the sum of its
    disk areas and bound the certified closed form 12*pi*4^n*K_n^2 at the
    pieces' depth n.
    """

    __slots__ = ()

    def holds(self, raster_area: float) -> bool:
        """raster <= union <= sum + margin, and sum <= bound, all areas finite.

        An area that overflowed to inf would satisfy any upper bound, so
        it fails the chain instead; the bound alone may be inf (it
        saturates near |c| = 2).
        """
        areas = (raster_area, self.union.area, self.total, self.margin)
        return (
            all(map(math.isfinite, areas))
            and raster_area <= self.union.area <= self.total + self.margin
            and self.total <= self.bound
        )


def boundary_samples(param: Parameter, count: int) -> np.ndarray:
    """count points uniformly spaced on the starting circle |z| = |c|."""
    if count < _MIN_SAMPLES:
        raise ValueError(f"need samples >= {_MIN_SAMPLES}, got {count}")
    k = np.arange(count, dtype=np.float64)
    return param.abs_c * np.exp(2j * math.pi * k / count)


def piece_sample_tree(param: Parameter, depth: int, samples: int = 512) -> list[np.ndarray]:
    """Sampled pieces for every depth 0..depth, lexicographic order.

    Returns one array per level; level k has shape (2^(k+1), samples),
    one row per piece.  Levels share suffixes as described in the module
    docstring, so building the deepest level yields all of them.  Branch
    1 is the negated branch 0, so row j + 2^k of level k is -(row j), bit
    for bit; verify's pairwise-contraction and the union grid's disk walk
    do the work of each such pair once.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    total = ((1 << (depth + 2)) - 2) * samples
    check_cap("sample tree points", total, DEFAULT_MAX_POINTS)
    level = boundary_samples(param, samples)[None, :]
    levels: list[np.ndarray] = []
    for _ in range(depth + 1):
        root = inverse_branch(level, 0, param)  # branch 1 is -root, bit for bit
        level = np.concatenate([root, -root])
        levels.append(level)
    return levels


def _pieces(level: np.ndarray) -> Pieces:
    """Diametral pairs, sampled diameters and enclosing disks of one level."""
    i, j, d = zip(*map(diametral_pair, level))
    rows, sampled_diam = np.arange(len(level)), np.array(d)
    return Pieces(
        depth=len(level).bit_length() - 2,
        samples=level,
        sampled_diam=sampled_diam,
        disks=diametral_disks(level[rows, i], level[rows, j], sampled_diam),
    )


def generate_pieces(param: Parameter, depth: int, samples: int = 512) -> Pieces:
    """The 2^(depth+1) sampled pieces at one depth, with enclosing disks."""
    return _pieces(piece_sample_tree(param, depth, samples)[-1])


def piece_tree(param: Parameter, depth: int, samples: int = 512) -> list[Pieces]:
    """Pieces for every depth 0..depth (shared sample tree)."""
    return [_pieces(level) for level in piece_sample_tree(param, depth, samples)]


def difference_cover(disks: Disks) -> Disks:
    """All pairwise difference disks disk_difference(disks, disks), capped.

    Element i*len(disks)+j is the exact difference set of disks i and j.
    Together they cover the difference set of any sets the input disks
    cover.
    """
    check_cap("difference disks", len(disks) ** 2, DEFAULT_MAX_PAIRS)
    return disk_difference(disks, disks)


def sum_area(disks: Disks) -> float:
    """Sum of the disk areas (exactly rounded, order independent)."""
    r = disks.radii
    return math.fsum((math.pi * r * r).tolist())


def union_grid_mask(disks: Disks, cell: float) -> GridMask:
    """Dilated membership raster of a disk union.

    Marks, with raster's one disk rasterizer, every cell of the lattice
    (i*cell, j*cell) whose center lies within radius + cell*sqrt(2)/2 of
    some disk center: the lattice that difference masks of half-integer
    rasters land on, so the two compare cell for cell.

    Only the largest disk at each distinct center is rasterized: its
    window holds that of any smaller reach R = fl(r + grow) at the center
    (searchsorted is monotone), and its test marks every cell a smaller
    one would, as fl(R*R) is monotone in R; -0.0 and 0.0 are one center,
    as they give the same windows and test values.  Sorted as numpy
    sorts complex numbers, by real, then imaginary part, those disks are
    their own half-turn image (x, y, r) -> (-x, -y, r) exactly when
    negating and reversing them gives them back, as negation reverses the
    order.  Then _disk_cells walks only the second half, the centers
    with x > 0, or x = 0 and y >= 0, and writes each strip's hit at its
    window both of the bits and of the bits turned by half a turn,
    bits[::-1, ::-1], whose cell (j, i) is cell (H-1-j, W-1-i).  That is
    exact, as negation is exact and rounding to nearest is odd:

      * fl(fl(-x + r) + g) = -fl(fl(x - r) - g), so the window's extremes
        are negatives of each other: kx_lo = -kx_hi and ky_lo = -ky_hi.
        The centers are k*cell for k = -K..K, so xs[W-1-i] = -xs[i] and
        ys[H-1-i] = -ys[i].
      * The mirror -d of a walked disk d has the same reach R and its
        window bounds come from -x -+ R = -(x +- R).  As xs is its own
        negation, searchsorted(xs, -a) on the left is W less
        searchsorted(xs, a) on the right, and the other way round, so the
        columns [lo, hi) of d map to [W - hi, W - lo) for -d, the rows
        alike: the window of d in the turned bits.
      * The test value of -d at cell (H-1-j, W-1-i) has dx = fl(-xs[i] +
        x) = -fl(xs[i] - x) and likewise dy, so its squares, and its
        hit, are those of d at cell (j, i).

    A difference cover D_i - D_j always is its own image, and of depth-n
    pieces, mirrored as piece_sample_tree builds them, 4^n + 1 of its
    4^(n+1) disks are walked.
    """
    check_cell(cell)
    order = np.argsort(disks.centers)
    c = disks.centers[order]
    first = np.flatnonzero(np.append(True, c[1:] != c[:-1]))
    c, r = c[first], np.maximum.reduceat(disks.radii[order], first)
    half = None
    if np.array_equal(c, -c[::-1]) and np.array_equal(r, r[::-1]):
        half = Disks(c[c.size // 2 :], r[c.size // 2 :])
    grow = cell * math.sqrt(2.0) / 2.0
    return _disk_cells(Disks(c, r), cell, grow, 0.5, "union grid cells", "union", half)


def union_margin(disks: Disks, cell: float) -> float:
    """Certified allowance of the union grid's area over the sum of areas.

    Each cell union_grid_mask marks is contained in its disk dilated by
    cell*sqrt(2), and the dilated disks have total area sum_area(disks) +
    margin, so the grid's area never exceeds that sum, with

        margin = sum_i pi * (2*sqrt(2)*cell*r_i + 2*cell^2).
    """
    check_cell(cell)
    terms = math.pi * (2.0 * math.sqrt(2.0) * cell * disks.radii + 2.0 * cell * cell)
    return math.fsum(terms.tolist())


def sandwich(param: Parameter, pieces: Pieces, cell: float) -> Sandwich:
    """Difference cover of one depth of pieces, its two area estimates
    and the closed-form bound at that depth."""
    disks = difference_cover(pieces.disks)
    return Sandwich(
        disks=disks,
        union=union_grid_mask(disks, cell),
        margin=union_margin(disks, cell),
        total=sum_area(disks),
        bound=float(difference_measure_bound(param, pieces.depth).bound),
    )
