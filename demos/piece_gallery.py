"""
Preimage pieces and their enclosing disks
=========================================

Generates the sampled pieces of the backward orbit at a few depths,
compares sampled diameters with the certified bounds, and renders the
enclosing disks to a PPM image next to this script.
"""

from pathlib import Path

from cantordiff import Parameter, generate_pieces, piece_diameter_bound
from cantordiff.images import render_disks, write_ppm

p = Parameter(5.0)

for depth in (0, 1, 2, 3):
    pieces = generate_pieces(p, depth, samples=256)
    widest = pieces.sampled_diam.max()
    bound = piece_diameter_bound(p, depth)
    print(f"depth {depth}: {len(pieces)} pieces, widest sampled "
          f"{widest:.6f} vs certified {bound:.6f}")
    disks = pieces.disks
    for j in range(min(4, len(pieces))):
        print(f"  {pieces.label(j)}: center {disks.centers[j]:.4f}, "
              f"radius {disks.radii[j]:.5f}")

# one image per depth; disks shrink by roughly 1/(sqrt(2) r) per level
out = Path(__file__).resolve().parent
for depth in (1, 3, 5):
    disks = generate_pieces(p, depth, samples=256).disks
    path = write_ppm(render_disks(disks, 0.01), out / f"pieces_depth{depth}.ppm")
    print(f"wrote {path}")
