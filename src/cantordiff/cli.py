"""Command line front end.

Subcommands: bounds (certified bound table plus decay certificate), cover
(sampled pieces with enclosing disks), diff (difference-disk cover and
area estimates), oracle (brute-force rasters), verify (cross-validation
suite).  Exit codes: 0 success, 1 verification failure, 2 argument or
domain errors and output paths that cannot be written (one "error: ..."
line on stderr).

bounds, cover and diff each build one record, its header fields plus a
table of rows, and print it in either format from that one record.  JSON
is the header fields plus the table under its name, one object per row,
a complex cell as [re, im].  CSV is a header line of the column names (a
complex column as <name>_re,<name>_im), one line per row and "# key,value"
trailer lines, with true/false for booleans.

All output is deterministic: numbers print with 17 significant digits,
JSON is emitted with sorted keys, and nothing depends on time or on
--workers, which cover and oracle accept and ignore.  Set
CANTORDIFF_MEMORY_CAP to a positive integer to replace every built-in
allocation cap (sample points, difference-disk pairs, raster, difference
window and grid cells, render pixels) of cover, diff, oracle and verify
alike; bounds allocates nothing capped and ignores it.  A run over a cap,
or with a malformed cap, exits 2.

verify's defaults live in verify.VerifyConfig alone: the parser passes
on only the options given, and the deepest piece depth of its area
sandwich, which the overflow guard needs, comes from verify too.

`import cantordiff.cli` loads argparse and the bounds module, both on the
standard library, and bounds runs on nothing more: json is imported where
JSON is written, and the other subcommands import their numpy-backed
modules (cover, raster, images, verify) when they run.  Paths stay plain
strings, so pathlib is not loaded either.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain
from operator import itemgetter

from .bounds import (
    Parameter,
    bound_table,
    decay_condition,
    decay_parameters,
    first_piece_diameter,
    piece_diameter_bound,
)

__all__ = ["main", "dispatch"]

BOUNDS_SCHEMA = "cantordiff-bounds/1"
COVER_SCHEMA = "cantordiff-cover/1"
DIFF_SCHEMA = "cantordiff-diff/1"
ORACLE_SCHEMA = "cantordiff-oracle/1"

_DECAY_NOTE = "decay not guaranteed: need |c| > 3 and |c|^2 - 6|c| + 6 > 0"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _cell(v) -> str:
    """One CSV value: %.17g floats, true/false booleans, else str."""
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _json_text(obj) -> str:
    import json

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _add_param_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c-re", type=float, required=True, help="real part of c")
    p.add_argument("--c-im", type=float, default=0.0, help="imaginary part of c")


def _parse_epsilon(text: str) -> float | None:
    if text == "auto":
        return None
    return float(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cantordiff", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    b = sub.add_parser("bounds", help="certified bound table and decay certificate")
    _add_param_args(b)
    b.add_argument("--depth", type=int, default=50, help="table depth (default 50)")
    b.add_argument("--epsilon", type=_parse_epsilon, default=None, metavar="X|auto")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--output", default=None)

    c = sub.add_parser("cover", help="sampled pieces and enclosing disks")
    _add_param_args(c)
    c.add_argument("--depth", type=int, required=True)
    c.add_argument("--samples", type=int, default=512)
    c.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; pieces are always built serially")
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--output", default=None)
    c.add_argument("--render", default=None, help="write a PPM image here")
    c.add_argument("--render-cell", type=float, default=None)

    d = sub.add_parser("diff", help="difference-disk cover and area estimates")
    _add_param_args(d)
    d.add_argument("--depth", type=int, required=True)
    d.add_argument("--samples", type=int, default=512)
    d.add_argument("--cell", type=float, default=0.01, help="union grid cell size")
    d.add_argument("--format", choices=("csv", "json"), default="csv")
    d.add_argument("--output", default=None)
    d.add_argument("--render", default=None)
    d.add_argument("--render-cell", type=float, default=None)

    o = sub.add_parser("oracle", help="brute-force preimage and difference rasters")
    _add_param_args(o)
    o.add_argument("--depth", type=int, required=True)
    o.add_argument("--cell", type=float, default=0.02)
    o.add_argument("--samples", type=int, default=512,
                   help="boundary samples per piece for the disk-cover side")
    o.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; the rasters are always filled serially")
    o.add_argument("--outdir", required=True)

    # an option not given is left out, so VerifyConfig supplies its default
    v = sub.add_parser("verify", help="run the cross-validation suite",
                       argument_default=argparse.SUPPRESS)
    _add_param_args(v)
    v.add_argument("--depth", type=int)
    v.add_argument("--samples", type=int)
    v.add_argument("--cell", type=float)
    v.add_argument("--count", type=int)
    v.add_argument("--seed", type=int)
    v.add_argument("--epsilon", type=_parse_epsilon, metavar="X|auto")
    v.add_argument("--report", default=None, help="write the JSON report here")

    return parser


def _emit(args, fields: dict, table: str, columns: tuple, rows: list, trailer: list, image=None):
    """Print one record in args.format to args.output or stdout.

    fields are the JSON header and rows the tuples of the table named
    table, with the given columns; a complex quantity is the column pair
    <name>_re, <name>_im, one [re, im] value in JSON.  trailer holds the
    (key, value) items that follow the rows in CSV.  image, built before
    the call so that a refused render prints nothing, goes to args.render.
    """
    if args.format == "json":
        # a <name>_re column and the <name>_im after it give one slice of two
        kept = [(k, name) for k, name in enumerate(columns) if not name.endswith("_im")]
        keys = [name.removesuffix("_re") for _, name in kept]
        cells = itemgetter(*(slice(k, k + 2) if name.endswith("_re") else k for k, name in kept))
        text = [_json_text({**fields, table: [dict(zip(keys, cells(row))) for row in rows]})]
    else:
        # the first row's types pick each column's format
        line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
        text = chain(
            [",".join(columns) + "\n"],
            map(line.__mod__, rows),
            (f"# {key},{_cell(value)}\n" for key, value in trailer),
        )
    if args.output is None:
        sys.stdout.writelines(text)
    else:
        with open(args.output, "w") as f:
            f.writelines(text)
        print(f"wrote {args.output}")
    if image is not None:
        from .images import write_ppm

        write_ppm(image, args.render)
        print(f"wrote {args.render}")


def _header(param: Parameter, depth: int) -> dict:
    """The c and depth fields of every record."""
    return {"c": [param.c.real, param.c.imag], "depth": depth}


def _sandwich_fields(sw) -> dict:
    """The areas of a cover.Sandwich under the names diff and oracle report."""
    return {
        "sum_area": sw.total,
        "union_area": sw.union.area,
        "union_margin": sw.margin,
        "worst_case_bound": sw.bound,
    }


def _check_cell_area(param: Parameter, cell: float, piece_depth: int) -> None:
    """Refuse a cell at which an area of oracle, diff or verify could overflow.

    The samples of every piece lie in |z| <= |c|, so its enclosing disk
    has |center| <= |c| and radius <= sqrt(3)|c|, and a difference disk
    |center| <= 2|c| and radius <= 2*sqrt(3)|c|.  The rasters and the
    union grid, spare cells included, then fit in a square of side
    s = 12(|c| + cell): every squared offset, raster area and grid area is
    at most s^2, and the sum area and the grid margin of the
    4^(piece_depth + 1) difference disks are at most 4^(piece_depth + 1)
    s^2.  Below 2^1023 all of them are finite.  oracle passes its depth
    less one, so at depth 0, where it builds no disk cover, the factor
    4^0 = 1 leaves the bound of its rasters, s^2.
    """
    if not (math.isfinite(cell) and cell > 0.0):
        return  # the raster and the grid refuse it themselves
    if 2.0 * math.log2(12.0 * (param.abs_c + cell)) + 2 * (piece_depth + 1) >= 1023.0:
        raise ValueError(f"areas would overflow at --cell {cell!r} and |c| = {param.abs_c!r}")


def _run_bounds(args, param: Parameter) -> int:
    if args.depth < 1:
        raise ValueError(f"--depth must be >= 1, got {args.depth}")
    rows = [
        (r.n, r.outer_radius, r.inner_radius, r.diam_bound, r.bound, r.ratio_step)
        for r in bound_table(param, args.depth)
    ]
    guaranteed = decay_condition(param)
    decay = decay_parameters(param, args.epsilon)._asdict() if guaranteed else None
    fields = {
        "schema": BOUNDS_SCHEMA,
        **_header(param, args.depth),
        "diam_mode": "certified",
        "base_diam": first_piece_diameter(param),
        "decay_guaranteed": guaranteed,
        "decay": decay,
        "note": None if guaranteed else _DECAY_NOTE,
    }
    trailer = [(key, fields[key]) for key in ("diam_mode", "base_diam", "decay_guaranteed")]
    trailer += list(decay.items()) if guaranteed else [("note", _DECAY_NOTE)]
    _emit(args, fields, "rows", ("n", "R_n", "r_n", "K_n", "bound", "ratio_step"), rows, trailer)
    return 0


def _render(args, disks):
    """The image --render asks for, or None."""
    if args.render is None:
        return None
    from .images import render_disks

    return render_disks(disks, args.render_cell)


def _run_cover(args, param: Parameter) -> int:
    from .cover import generate_pieces

    pieces = generate_pieces(param, args.depth, args.samples)
    disks = pieces.disks
    fields = {
        "schema": COVER_SCHEMA,
        **_header(param, args.depth),
        "samples": args.samples,
        "diam_bound": piece_diameter_bound(param, args.depth),
        "max_sampled_diam": float(pieces.sampled_diam.max()),
    }
    labels = [pieces.label(j) for j in range(len(pieces))]
    c, r, d = disks.centers, disks.radii, pieces.sampled_diam
    rows = list(zip(labels, c.real.tolist(), c.imag.tolist(), r.tolist(), d.tolist()))
    trailer = [("pieces", len(pieces))]
    trailer += [(key, fields[key]) for key in ("depth", "diam_bound", "max_sampled_diam")]
    columns = ("seq", "center_re", "center_im", "radius", "sampled_diam")
    _emit(args, fields, "pieces", columns, rows, trailer, _render(args, disks))
    return 0


def _run_diff(args, param: Parameter) -> int:
    from .cover import generate_pieces, sandwich

    _check_cell_area(param, args.cell, args.depth)
    pieces = generate_pieces(param, args.depth, args.samples)
    sw = sandwich(param, pieces, args.cell)
    diff = sw.disks
    count = len(pieces)
    fields = {
        "schema": DIFF_SCHEMA,
        **_header(param, args.depth),
        "samples": args.samples,
        "cell": args.cell,
        **_sandwich_fields(sw),
        "union_cells": sw.union.cells,
    }
    c, r = diff.centers, diff.radii
    rows = [
        (t // count, t % count, x, y, rad)
        for t, (x, y, rad) in enumerate(zip(c.real.tolist(), c.imag.tolist(), r.tolist()))
    ]
    keys = ("sum_area", "union_area", "union_margin", "union_cells", "worst_case_bound")
    trailer = [(key, fields[key]) for key in keys]
    columns = ("i", "j", "center_re", "center_im", "radius")
    _emit(args, fields, "disks", columns, rows, trailer, _render(args, diff))
    return 0


def _run_oracle(args, param: Parameter) -> int:
    from .cover import generate_pieces, sandwich
    from .images import write_pgm
    from .raster import mask_difference, rasterize_preimage

    _check_cell_area(param, args.cell, args.depth - 1)
    outdir = args.outdir
    meta = _header(param, args.depth)
    report = {"schema": ORACLE_SCHEMA, **meta, "cell": args.cell, "sandwich": None}

    def record(name: str, mask) -> None:
        write_pgm(mask, os.path.join(outdir, f"{name}.pgm"), meta)
        report[f"{name}_cells"] = mask.cells
        report[f"{name}_area"] = mask.area

    def build(mode: str):
        return rasterize_preimage(param, args.depth, args.cell, mode)

    # nothing is written before the inner raster and its self-difference
    # pass their caps, so a refused run leaves no directory behind; the
    # outer raster is a second, identical block pass over the inner one's
    # window, cap and box, and each mask is dropped once its PGM is written
    inner = build("inner")
    diff = mask_difference(inner, inner)
    os.makedirs(outdir or os.curdir, exist_ok=True)
    record("inner", inner)
    del inner
    record("diff", diff)
    del diff
    record("outer", build("outer"))
    if args.depth >= 1:
        # disk-cover side at the matching piece depth: depth-(d-1) pieces
        # tile the d-fold preimage the rasters just measured
        pieces = generate_pieces(param, args.depth - 1, args.samples)
        sw = sandwich(param, pieces, args.cell)
        report["sandwich"] = {
            "piece_depth": args.depth - 1,
            **_sandwich_fields(sw),
            "holds": sw.holds(report["diff_area"]),
        }
    with open(os.path.join(outdir, "report.json"), "w") as f:
        f.write(_json_text(report))
    lines = [(key, report[key]) for key in ("inner_area", "outer_area", "diff_area")]
    sw = report["sandwich"]
    if sw is not None:
        lines += [(key, sw[key]) for key in ("union_area", "sum_area", "worst_case_bound")]
        lines.append(("sandwich_holds", sw["holds"]))
    for key, value in lines:
        print(f"{key},{_cell(value)}")
    print(f"wrote {outdir}")
    return 0


def _run_verify(args, param: Parameter) -> int:
    from .verify import VerifyConfig, _sandwich_depths, run_verification

    cfg = VerifyConfig(param, **{k: v for k, v in vars(args).items() if k in VerifyConfig._fields})
    # verify's area sandwich builds pieces down to its deepest depth
    _check_cell_area(param, cfg.cell, _sandwich_depths(cfg.depth)[-1])
    # a --report that the write after the checks would refuse fails now:
    # "a" leaves an existing file as it is, and where no file can be made
    # it raises without making one
    out, folder = args.report, os.path.dirname(args.report or "") or "."
    if out is not None and (os.path.exists(out) or not os.access(folder, os.W_OK)):
        open(out, "a").close()
    report = run_verification(cfg)
    for check in report["checks"]:
        tag = "PASS" if check["passed"] else "FAIL"
        print(f"{tag} {check['name']}: {check['detail']}")
    npass = sum(1 for c in report["checks"] if c["passed"])
    print(f"verify: {npass}/{len(report['checks'])} checks passed")
    if args.report is not None:
        with open(args.report, "w") as f:
            f.write(_json_text(report))
        print(f"wrote {args.report}")
    return 0 if report["passed"] else 1


def dispatch(args: argparse.Namespace) -> int:
    """Route parsed arguments to their subcommand."""
    runners = {
        "bounds": _run_bounds,
        "cover": _run_cover,
        "diff": _run_diff,
        "oracle": _run_oracle,
        "verify": _run_verify,
    }
    param = Parameter(complex(args.c_re, args.c_im))
    epsilon = getattr(args, "epsilon", None)
    # where decay holds, decay_parameters checks epsilon against its margin
    if epsilon is not None and not decay_condition(param) and not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a positive finite number, got {epsilon!r}")
    return runners[args.command](args, param)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return dispatch(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
