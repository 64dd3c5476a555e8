"""
The sandwich inequality, end to end
===================================

One depth of the whole argument: a brute-force raster of the preimage
difference set from below, the union of difference disks from above,
and the closed-form worst case on top.  Writes the three masks as PGM
files next to this script.
"""

from pathlib import Path

from cantordiff import (
    Parameter,
    generate_pieces,
    mask_difference,
    rasterize_preimage,
    sandwich,
)
from cantordiff.images import write_pgm

p = Parameter(5.0)
depth = 2          # piece depth; the pieces tile the (depth+1)-fold preimage
cell = 0.02
out = Path(__file__).resolve().parent

# lower estimate: rasterize the preimage, difference it against itself
inner = rasterize_preimage(p, depth + 1, cell)
diff_mask = mask_difference(inner, inner)
raster = diff_mask.area
write_pgm(inner, out / "preimage.pgm", extra={"depth": depth + 1})
write_pgm(diff_mask, out / "difference.pgm")

# upper estimates: enclosing disks of every piece, all pairwise
# difference disks, their area sum and a dilated union grid with an
# explicit margin; on top the closed form 12 pi 4^n K_n^2
sw = sandwich(p, generate_pieces(p, depth, samples=512), cell)
write_pgm(sw.union, out / "union.pgm")

print(f"c = {p.c}, piece depth {depth}, cell {cell}")
print(f"raster lower estimate   {raster:.6f}")
print(f"union-of-disks estimate {sw.union.area:.6f} (margin {sw.margin:.6f})")
print(f"sum of disk areas       {sw.total:.6f}")
print(f"worst-case closed form  {sw.bound:.6f}")
assert sw.holds(raster)
print("sandwich holds: raster <= union <= sum + margin, and sum <= worst case")
