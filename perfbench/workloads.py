"""The benchmark's workloads and the output gate each one passes through.

A workload is a fixed list of CLI invocations (one "pass").  Every
invocation carries a gate: a function of its exit code, its captured
stdout and its output directory that returns an Outcome, counting the
operations it attempted and the ones that failed.  Only the verify seed
comes from the benchmark seed; every other input is fixed.

Why these two workloads (each stresses different layers, so a gain in
one layer shows on one workload and any cost it carries on another):

* oracle-fine: the raster and images workload.  A 2004^2 FFT
  self-difference, the convex-hull diametral path (16,384 samples per
  piece), 24 MB of PGM writes, two worker threads, the largest memory
  peak.
* param-ring: a user scanning parameters.  Six short processes, so the
  import dominates; all 24 verify checks run at three parameters.

The cover and geometry layers run in both.  gate_diff has no workload; the
self-test uses it to show that a sum_area edited above the bound fails.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Open defect (see ROADMAP.md): the inverse branches cut along the
# positive real axis, so for Re c < 0 sampled pieces splice two true
# pieces and these checks fail.  The gate keeps them visible (verify.checks_failed, the run
# record, stderr) but does not count them as failed operations; any other
# FAIL line, at any parameter, still does.
KNOWN_DEFECTS = {
    (-5.0, 0.0): frozenset(
        {"pairwise-contraction", "sampled-diameter-bound", "argument-spread", "area-sandwich"}
    ),
}

VERIFY_CHECKS = 24

_TRAILER = re.compile(r"^# (\w+),(.*)$")
_SANDWICH = re.compile(
    r"raster ([0-9.eE+-]+) <= grid ([0-9.eE+-]+) <= sum ([0-9.eE+-]+) <= bound ([0-9.eE+-]+)"
)


@dataclass
class Outcome:
    """What the gate found in one invocation's outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    checks_failed: int = 0
    # sampled-to-certified slack read from the outputs (no gate on these)
    slack: dict[str, float] = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)


@dataclass(frozen=True)
class Invocation:
    label: str
    args: tuple[str, ...]
    gate: Callable[[int, Path, Path], Outcome]
    outdir: Path | None = None


def _trailer(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        m = _TRAILER.match(line)
        if m:
            out[m.group(1)] = m.group(2)
    return out


def gate_diff(depth: int) -> Callable[[int, Path, Path], Outcome]:
    """diff: 4^(depth+1) disk rows and union <= sum + margin <= ... <= bound."""

    def gate(code: int, stdout: Path, outdir: Path) -> Outcome:
        res = Outcome(attempted=1)
        if code != 0:
            res.fail(f"diff exited {code}")
            return res
        text = stdout.read_text()
        rows = sum(1 for line in text.splitlines() if line and line[0].isdigit())
        want = 4 ** (depth + 1)
        tail = _trailer(text)
        try:
            total = float(tail["sum_area"])
            union = float(tail["union_area"])
            margin = float(tail["union_margin"])
            worst = float(tail["worst_case_bound"])
        except (KeyError, ValueError) as exc:
            res.fail(f"diff trailer unreadable: {exc!r}")
            return res
        if rows != want:
            res.fail(f"diff printed {rows} disk rows, want {want}")
        elif not union <= total + margin:
            res.fail(f"union_area {union!r} > sum_area {total!r} + margin {margin!r}")
        elif not total <= worst:
            res.fail(f"sum_area {total!r} > worst_case_bound {worst!r}")
        res.slack = {"sum_over_bound": total / worst, "union_over_sum": union / total}
        return res

    return gate


def gate_oracle(code: int, stdout: Path, outdir: Path) -> Outcome:
    """oracle: the sandwich holds, inner <= outer, PGMs read back to the report."""
    res = Outcome(attempted=1)
    if code != 0:
        res.fail(f"oracle exited {code}")
        return res
    try:
        report = json.loads((outdir / "report.json").read_text())
        sw = report["sandwich"]
        holds = sw["holds"] is True
        inner, outer = report["inner_cells"], report["outer_cells"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        res.fail(f"oracle report unreadable: {exc!r}")
        return res
    if not holds:
        res.fail("report.json: sandwich.holds is not true")
    elif not inner <= outer:
        res.fail(f"inner_cells {inner} > outer_cells {outer}")
    else:
        from cantordiff.images import read_pgm

        for name in ("inner", "outer", "diff"):
            got = int(read_pgm(outdir / f"{name}.pgm").bits.sum())
            if got != report[f"{name}_cells"]:
                res.fail(f"{name}.pgm holds {got} cells, report says {report[name + '_cells']}")
                break
    if sw:
        res.slack = {
            "sum_over_bound": sw["sum_area"] / sw["worst_case_bound"],
            "union_over_sum": sw["union_area"] / sw["sum_area"],
            "diff_over_union": report["diff_area"] / sw["union_area"],
        }
    return res


def gate_bounds(depth: int) -> Callable[[int, Path, Path], Outcome]:
    """bounds: exit 0 and one row per depth 1..depth."""

    def gate(code: int, stdout: Path, outdir: Path) -> Outcome:
        res = Outcome(attempted=1)
        lines = stdout.read_text().splitlines()
        rows = [line for line in lines[1:] if line and not line.startswith("#")]
        if code != 0:
            res.fail(f"bounds exited {code}")
        elif not lines or lines[0] != "n,R_n,r_n,K_n,bound,ratio_step":
            res.fail("bounds header missing")
        elif len(rows) != depth or rows[-1].split(",")[0] != str(depth):
            res.fail(f"bounds printed {len(rows)} rows, want {depth}")
        return res

    return gate


def gate_verify(c: tuple[float, float]) -> Callable[[int, Path, Path], Outcome]:
    """verify: each check line is one operation; exit 1 means checks failed."""
    known = KNOWN_DEFECTS.get(c, frozenset())

    def gate(code: int, stdout: Path, outdir: Path) -> Outcome:
        res = Outcome()
        lines = stdout.read_text().splitlines()
        checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
        res.attempted = max(len(checks), VERIFY_CHECKS)
        if code not in (0, 1):
            res.failed = res.attempted
            res.problems.append(f"verify exited {code}")
            return res
        if len(checks) != VERIFY_CHECKS:
            res.fail(f"verify printed {len(checks)} check lines, want {VERIFY_CHECKS}")
        for line in checks:
            tag, rest = line.split(" ", 1)
            name = rest.split(":", 1)[0]
            if tag == "PASS":
                m = _SANDWICH.search(rest) if name == "area-sandwich" else None
                if m:
                    raster, grid, total, worst = (float(g) for g in m.groups())
                    res.slack = {
                        "sum_over_bound": total / worst,
                        "union_over_sum": grid / total,
                        "diff_over_union": raster / grid,
                    }
                continue
            res.checks_failed += 1
            if name in known:
                res.known.append(f"c={c}: {line}")
            else:
                res.fail(f"c={c}: {line}")
        passed = len(checks) - res.checks_failed
        summary = f"verify: {passed}/{len(checks)} checks passed"
        if summary not in lines:
            res.fail(f"verify summary line missing or wrong (want {summary!r})")
        if (code == 0) != (res.checks_failed == 0):
            res.fail(f"verify exited {code} with {res.checks_failed} FAIL lines")
        return res

    return gate


def _c_args(c: tuple[float, float]) -> tuple[str, ...]:
    return ("--c-re", repr(c[0]), "--c-im", repr(c[1]))


RING = ((5.0, 0.0), (-5.0, 0.0), (0.0, 2.5))


def oracle_fine(seed: int, work: Path) -> list[Invocation]:
    out = work / "oracle"
    args = (
        "oracle", "--c-re", "5", "--depth", "3", "--cell", "0.005",
        "--samples", "16384", "--workers", "2", "--outdir", str(out),
    )
    return [Invocation("oracle", args, gate_oracle, outdir=out)]


def param_ring(seed: int, work: Path) -> list[Invocation]:
    calls = []
    for c in RING:
        tag = f"{c[0]:g}{c[1]:+g}i"
        calls.append(
            Invocation(f"bounds[{tag}]", ("bounds", *_c_args(c), "--depth", "200"), gate_bounds(200))
        )
        calls.append(
            Invocation(f"verify[{tag}]", ("verify", *_c_args(c), "--seed", str(seed)), gate_verify(c))
        )
    return calls


WORKLOADS: dict[str, Callable[[int, Path], list[Invocation]]] = {
    "oracle-fine": oracle_fine,
    "param-ring": param_ring,
}
