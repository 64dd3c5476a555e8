"""Certified area bounds for difference sets of disconnected quadratic Julia sets.

For |c| > 2 the filled Julia set of z -> z^2 + c is a Cantor set obtained
by pulling the disk {|z| <= |c|} back through the two inverse branches.
This package builds sampled covers of those preimage pieces, certifies an
upper bound on the area of a disk cover of the difference set, decides
when the bound decays geometrically with depth, and cross-checks every
step against brute-force raster and sampling oracles.
"""
import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; each submodule is imported
# on first access, so `import cantordiff` loads neither numpy nor any of them
_HOME = {
    **dict.fromkeys(
        (
            "BoundRow",
            "DecayParams",
            "Parameter",
            "bound_table",
            "decay_condition",
            "decay_parameters",
            "difference_measure_bound",
            "first_piece_diameter",
            "piece_diameter_bound",
            "radius_limits",
        ),
        "bounds",
    ),
    **dict.fromkeys(
        (
            "Pieces",
            "Sandwich",
            "boundary_samples",
            "difference_cover",
            "generate_pieces",
            "piece_sample_tree",
            "piece_tree",
            "sandwich",
            "sum_area",
            "union_grid_mask",
            "union_margin",
        ),
        "cover",
    ),
    **dict.fromkeys(
        (
            "Disks",
            "diametral_disks",
            "diametral_pair",
            "disk_difference",
            "forward_map",
            "inverse_branch",
            "sqrt_branch",
        ),
        "geometry",
    ),
    **dict.fromkeys(
        (
            "GridMask",
            "disk_mask",
            "lcg_uniforms",
            "mask_difference",
            "preimage_member",
            "rasterize_preimage",
            "sample_diff_check",
        ),
        "raster",
    ),
    **dict.fromkeys(("VerifyConfig", "run_verification"), "verify"),
}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
