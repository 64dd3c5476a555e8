"""Command line front end.

Subcommands: bounds (certified bound table plus decay certificate), cover
(sampled pieces with enclosing disks), diff (difference-disk cover and
area estimates), oracle (brute-force rasters), verify (cross-validation
suite).  Exit codes: 0 success, 1 verification failure, 2 argument or
domain errors (one "error: ..." line on stderr).

All output is deterministic: numbers print with 17 significant digits,
JSON is emitted with sorted keys, and nothing depends on time or thread
count.  Set CANTORDIFF_MEMORY_CAP to an integer to override the default
allocation caps of cover, diff and oracle (sample-tree points,
difference-disk pairs and grid cells alike); verify ignores it and always
runs at the built-in caps.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bounds import (
    bound_table,
    decay_condition,
    decay_parameters,
    first_piece_diameter,
    piece_diameter_bound,
)
from .cover import generate_pieces, sandwich
from .geometry import Disks, Parameter
from .images import render_disks, write_pgm, write_ppm
from .raster import mask_area, mask_difference, rasterize_preimage
from .verify import VerifyConfig, run_verification

__all__ = ["main", "dispatch"]

BOUNDS_SCHEMA = "cantordiff-bounds/1"
COVER_SCHEMA = "cantordiff-cover/1"
DIFF_SCHEMA = "cantordiff-diff/1"
ORACLE_SCHEMA = "cantordiff-oracle/1"

ENV_CAP = "CANTORDIFF_MEMORY_CAP"

_DECAY_NOTE = "decay not guaranteed: need |c| > 3 and |c|^2 - 6|c| + 6 > 0"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


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
    b.add_argument("--output", type=Path, default=None)

    c = sub.add_parser("cover", help="sampled pieces and enclosing disks")
    _add_param_args(c)
    c.add_argument("--depth", type=int, required=True)
    c.add_argument("--samples", type=int, default=512)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--output", type=Path, default=None)
    c.add_argument("--render", type=Path, default=None, help="write a PPM image here")
    c.add_argument("--render-cell", type=float, default=None)

    d = sub.add_parser("diff", help="difference-disk cover and area estimates")
    _add_param_args(d)
    d.add_argument("--depth", type=int, required=True)
    d.add_argument("--samples", type=int, default=512)
    d.add_argument("--workers", type=int, default=1)
    d.add_argument("--cell", type=float, default=0.01, help="union grid cell size")
    d.add_argument("--format", choices=("csv", "json"), default="csv")
    d.add_argument("--output", type=Path, default=None)
    d.add_argument("--render", type=Path, default=None)
    d.add_argument("--render-cell", type=float, default=None)

    o = sub.add_parser("oracle", help="brute-force preimage and difference rasters")
    _add_param_args(o)
    o.add_argument("--depth", type=int, required=True)
    o.add_argument("--cell", type=float, default=0.02)
    o.add_argument("--samples", type=int, default=512,
                   help="boundary samples per piece for the disk-cover side")
    o.add_argument("--workers", type=int, default=1)
    o.add_argument("--outdir", type=Path, required=True)

    v = sub.add_parser("verify", help="run the cross-validation suite")
    _add_param_args(v)
    v.add_argument("--depth", type=int, default=4)
    v.add_argument("--samples", type=int, default=256)
    v.add_argument("--cell", type=float, default=0.02)
    v.add_argument("--count", type=int, default=20000)
    v.add_argument("--seed", type=int, default=20260816)
    v.add_argument("--epsilon", type=_parse_epsilon, default=None, metavar="X|auto")
    v.add_argument("--threads", type=int, default=1)
    v.add_argument("--report", type=Path, default=None, help="write the JSON report here")

    return parser


def _emit(lines: list[str], output: Path | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)
        print(f"wrote {output}")


def _emit_json(obj: dict, output: Path | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)
        print(f"wrote {output}")


def _decay_block(param: Parameter, epsilon: float | None) -> tuple[bool, dict | None]:
    if not decay_condition(param):
        return False, None
    dp = decay_parameters(param, epsilon)
    return True, {
        "epsilon": dp.epsilon,
        "delta": dp.delta,
        "settle_index": dp.settle_index,
        "ratio": dp.ratio,
        "prefactor": dp.prefactor,
    }


def _run_bounds(args, cap: int | None) -> int:
    param = Parameter(complex(args.c_re, args.c_im))
    if args.depth < 1:
        raise ValueError(f"--depth must be >= 1, got {args.depth}")
    base = first_piece_diameter(param)
    rows = bound_table(param, args.depth)
    guaranteed, decay = _decay_block(param, args.epsilon)
    if args.format == "json":
        obj = {
            "schema": BOUNDS_SCHEMA,
            "c": [param.c.real, param.c.imag],
            "depth": args.depth,
            "diam_mode": "certified",
            "base_diam": base,
            "rows": [
                {
                    "n": r.n,
                    "R_n": r.outer_radius,
                    "r_n": r.inner_radius,
                    "K_n": r.diam_bound,
                    "bound": r.bound,
                    "ratio_step": r.ratio_step,
                }
                for r in rows
            ],
            "decay_guaranteed": guaranteed,
            "decay": decay,
            "note": None if guaranteed else _DECAY_NOTE,
        }
        _emit_json(obj, args.output)
        return 0
    lines = ["n,R_n,r_n,K_n,bound,ratio_step"]
    for r in rows:
        lines.append(
            f"{r.n},{_fmt(r.outer_radius)},{_fmt(r.inner_radius)},"
            f"{_fmt(r.diam_bound)},{_fmt(r.bound)},{_fmt(r.ratio_step)}"
        )
    lines.append("# diam_mode,certified")
    lines.append(f"# base_diam,{_fmt(base)}")
    lines.append(f"# decay_guaranteed,{'true' if guaranteed else 'false'}")
    if guaranteed:
        lines.append(f"# epsilon,{_fmt(decay['epsilon'])}")
        lines.append(f"# delta,{_fmt(decay['delta'])}")
        lines.append(f"# settle_index,{decay['settle_index']}")
        lines.append(f"# ratio,{_fmt(decay['ratio'])}")
        lines.append(f"# prefactor,{_fmt(decay['prefactor'])}")
    else:
        lines.append(f"# note,{_DECAY_NOTE}")
    _emit(lines, args.output)
    return 0


def _render_cover(disks: Disks, render: Path, render_cell: float | None) -> None:
    if render_cell is None:
        cx, cy, r = disks.centers.real, disks.centers.imag, disks.radii
        spread = max(
            float((cx + r).max()) - float((cx - r).min()),
            float((cy + r).max()) - float((cy - r).min()),
        )
        render_cell = max(spread / 900.0, 1e-6)
    write_ppm(render_disks(disks, render_cell), render)
    print(f"wrote {render}")


def _run_cover(args, cap: int | None) -> int:
    param = Parameter(complex(args.c_re, args.c_im))
    pieces = generate_pieces(
        param, args.depth, args.samples, max_points=cap, workers=args.workers
    )
    kn = piece_diameter_bound(param, args.depth)
    max_diam = float(pieces.sampled_diam.max())
    disks = pieces.disks
    rows = list(zip(disks.centers.tolist(), disks.radii.tolist(), pieces.sampled_diam.tolist()))
    if args.format == "json":
        obj = {
            "schema": COVER_SCHEMA,
            "c": [param.c.real, param.c.imag],
            "depth": args.depth,
            "samples": args.samples,
            "diam_bound": kn,
            "max_sampled_diam": max_diam,
            "pieces": [
                {
                    "seq": pieces.label(j),
                    "center": [z.real, z.imag],
                    "radius": r,
                    "sampled_diam": d,
                }
                for j, (z, r, d) in enumerate(rows)
            ],
        }
        _emit_json(obj, args.output)
    else:
        lines = ["seq,center_re,center_im,radius,sampled_diam"]
        for j, (z, r, d) in enumerate(rows):
            lines.append(
                f"{pieces.label(j)},{_fmt(z.real)},{_fmt(z.imag)},{_fmt(r)},{_fmt(d)}"
            )
        lines.append(f"# pieces,{len(pieces)}")
        lines.append(f"# depth,{args.depth}")
        lines.append(f"# diam_bound,{_fmt(kn)}")
        lines.append(f"# max_sampled_diam,{_fmt(max_diam)}")
        _emit(lines, args.output)
    if args.render is not None:
        _render_cover(disks, args.render, args.render_cell)
    return 0


def _run_diff(args, cap: int | None) -> int:
    param = Parameter(complex(args.c_re, args.c_im))
    pieces = generate_pieces(
        param, args.depth, args.samples, max_points=cap, workers=args.workers
    )
    sw = sandwich(param, pieces, args.cell, cap)
    diff, grid = sw.disks, sw.union
    count = len(pieces)
    rows = list(zip(diff.centers.tolist(), diff.radii.tolist()))
    if args.format == "json":
        obj = {
            "schema": DIFF_SCHEMA,
            "c": [param.c.real, param.c.imag],
            "depth": args.depth,
            "samples": args.samples,
            "cell": args.cell,
            "sum_area": sw.total,
            "union_area": grid.area,
            "union_margin": grid.margin,
            "union_cells": grid.cells,
            "worst_case_bound": sw.bound,
            "disks": [
                {
                    "i": t // count,
                    "j": t % count,
                    "center": [z.real, z.imag],
                    "radius": r,
                }
                for t, (z, r) in enumerate(rows)
            ],
        }
        _emit_json(obj, args.output)
    else:
        lines = ["i,j,center_re,center_im,radius"]
        for t, (z, r) in enumerate(rows):
            lines.append(
                f"{t // count},{t % count},{_fmt(z.real)},{_fmt(z.imag)},{_fmt(r)}"
            )
        lines.append(f"# sum_area,{_fmt(sw.total)}")
        lines.append(f"# union_area,{_fmt(grid.area)}")
        lines.append(f"# union_margin,{_fmt(grid.margin)}")
        lines.append(f"# union_cells,{grid.cells}")
        lines.append(f"# worst_case_bound,{_fmt(sw.bound)}")
        _emit(lines, args.output)
    if args.render is not None:
        _render_cover(diff, args.render, args.render_cell)
    return 0


def _run_oracle(args, cap: int | None) -> int:
    param = Parameter(complex(args.c_re, args.c_im))
    outdir: Path = args.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    meta = {"c": [param.c.real, param.c.imag], "depth": args.depth}
    inner = rasterize_preimage(
        param, args.depth, args.cell, mode="inner", max_cells=cap, workers=args.workers
    )
    outer = rasterize_preimage(
        param, args.depth, args.cell, mode="outer", max_cells=cap, workers=args.workers
    )
    diff = mask_difference(inner, inner)
    write_pgm(inner, outdir / "inner.pgm", meta)
    write_pgm(outer, outdir / "outer.pgm", meta)
    write_pgm(diff, outdir / "diff.pgm", meta)
    report = {
        "schema": ORACLE_SCHEMA,
        "c": [param.c.real, param.c.imag],
        "depth": args.depth,
        "cell": args.cell,
        "inner_cells": int(inner.bits.sum()),
        "inner_area": mask_area(inner),
        "outer_cells": int(outer.bits.sum()),
        "outer_area": mask_area(outer),
        "diff_cells": int(diff.bits.sum()),
        "diff_area": mask_area(diff),
        "sandwich": None,
    }
    if args.depth >= 1:
        # disk-cover side at the matching piece depth: depth-(d-1) pieces
        # tile the d-fold preimage the rasters just measured
        pieces = generate_pieces(
            param, args.depth - 1, args.samples, max_points=cap, workers=args.workers
        )
        sw = sandwich(param, pieces, args.cell, cap)
        report["sandwich"] = {
            "piece_depth": args.depth - 1,
            "union_area": sw.union.area,
            "union_margin": sw.union.margin,
            "sum_area": sw.total,
            "worst_case_bound": sw.bound,
            "holds": sw.holds(report["diff_area"]),
        }
    (outdir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(f"inner_area,{_fmt(report['inner_area'])}")
    print(f"outer_area,{_fmt(report['outer_area'])}")
    print(f"diff_area,{_fmt(report['diff_area'])}")
    sw = report["sandwich"]
    if sw is not None:
        print(f"union_area,{_fmt(sw['union_area'])}")
        print(f"sum_area,{_fmt(sw['sum_area'])}")
        print(f"worst_case_bound,{_fmt(sw['worst_case_bound'])}")
        print(f"sandwich_holds,{'true' if sw['holds'] else 'false'}")
    print(f"wrote {outdir}")
    return 0


def _run_verify(args, cap: int | None) -> int:
    param = Parameter(complex(args.c_re, args.c_im))
    cfg = VerifyConfig(
        param=param,
        depth=args.depth,
        samples=args.samples,
        cell=args.cell,
        count=args.count,
        seed=args.seed,
        epsilon=args.epsilon,
        workers=args.threads,
    )
    report = run_verification(cfg)
    for check in report["checks"]:
        tag = "PASS" if check["passed"] else "FAIL"
        print(f"{tag} {check['name']}: {check['detail']}")
    npass = sum(1 for c in report["checks"] if c["passed"])
    print(f"verify: {npass}/{len(report['checks'])} checks passed")
    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.report}")
    return 0 if report["passed"] else 1


def dispatch(args: argparse.Namespace) -> int:
    """Route parsed arguments to their subcommand."""
    cap_text = os.environ.get(ENV_CAP)
    cap = None
    if cap_text is not None:
        try:
            cap = int(cap_text)
        except ValueError:
            raise ValueError(f"{ENV_CAP} must be an integer, got {cap_text!r}")
        if cap <= 0:
            raise ValueError(f"{ENV_CAP} must be positive, got {cap}")
    runners = {
        "bounds": _run_bounds,
        "cover": _run_cover,
        "diff": _run_diff,
        "oracle": _run_oracle,
        "verify": _run_verify,
    }
    return runners[args.command](args, cap)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
