"""Certified area bounds for difference sets of disconnected quadratic Julia sets.

For |c| > 2 the filled Julia set of z -> z^2 + c is a Cantor set obtained
by pulling the disk {|z| <= |c|} back through the two inverse branches.
This package builds sampled covers of those preimage pieces, certifies an
upper bound on the area of a disk cover of the difference set, decides
when the bound decays geometrically with depth, and cross-checks every
step against brute-force raster and sampling oracles.
"""
from .bounds import (
    BoundRow,
    DecayParams,
    RadiusBounds,
    bound_table,
    decay_condition,
    decay_parameters,
    difference_measure_bound,
    first_piece_diameter,
    piece_diameter_bound,
    radius_limits,
    radius_sequences,
)
from .cover import (
    GridArea,
    Pieces,
    Sandwich,
    boundary_samples,
    difference_cover,
    generate_pieces,
    piece_sample_tree,
    piece_tree,
    sandwich,
    sum_area,
    union_area_grid,
    union_grid_mask,
)
from .geometry import (
    Disk,
    Disks,
    Parameter,
    diameter,
    diametral_disks,
    diametral_pair,
    disk_difference,
    enclosing_disk,
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
from .verify import VerifyConfig, run_verification

__version__ = "0.1.0"

__all__ = [
    "BoundRow",
    "DecayParams",
    "Disk",
    "Disks",
    "GridArea",
    "GridMask",
    "Parameter",
    "Pieces",
    "RadiusBounds",
    "Sandwich",
    "VerifyConfig",
    "bound_table",
    "boundary_samples",
    "decay_condition",
    "decay_parameters",
    "diameter",
    "diametral_disks",
    "diametral_pair",
    "difference_cover",
    "difference_measure_bound",
    "disk_difference",
    "disk_mask",
    "enclosing_disk",
    "first_piece_diameter",
    "forward_map",
    "generate_pieces",
    "inverse_branch",
    "lcg_uniforms",
    "mask_area",
    "mask_difference",
    "piece_diameter_bound",
    "piece_sample_tree",
    "piece_tree",
    "preimage_member",
    "radius_limits",
    "radius_sequences",
    "rasterize_preimage",
    "run_verification",
    "sample_diff_check",
    "sandwich",
    "sqrt_branch",
    "sum_area",
    "union_area_grid",
    "union_grid_mask",
    "__version__",
]
