"""cantordiff benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/cantordiff).  Every
CLI invocation is a fresh child process started exactly as the
`cantordiff` console script would be, so the import is paid on every
call, as users pay it.

--trace 0 runs passes of the workload, with an import probe before each
invocation, for as long as the next pass is expected to end within S
seconds (at least three passes), and reports the end-to-end metrics:
wall_s (spawn to exit of every invocation in a pass, summed; median over
passes), setup_s (spawn to exit of `import cantordiff.cli`; median over
probes) and peak_rss_mb (largest ru_maxrss of the workload's children).

--trace 1 alternates untraced and traced passes (see tracer.py) plus a
`python -X importtime` probe, and reports the per-layer metrics.

Every pass goes through the workload's output gate; the last stdout line
is the JSON result.  A run record with the environment, every sample,
the gate findings and sha256 digests of stdout and artifacts is written
to perfbench/out/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Invocation, Outcome

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / "perfbench" / "out"

CLI = "import sys; from cantordiff.cli import main; sys.exit(main())"
IMPORT = "import cantordiff.cli"
MIN_PASSES = 3
_MB = 1024.0  # ru_maxrss is in KiB on Linux


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CANTORDIFF_MEMORY_CAP", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr: str


def spawn(argv: list[str], stdout: Path, env: dict[str, str]) -> Proc:
    """Run argv to completion; time spawn to exit and read its rusage."""
    err_path = stdout.with_suffix(".err")
    with open(stdout, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: take the child down too
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(
        code=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / _MB,
        stderr=err_path.read_text(errors="replace"),
    )


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    stdout_bytes: int = 0
    outcome: Outcome = field(default_factory=Outcome)
    slack: dict[str, float] = field(default_factory=dict)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    trace: list[dict] = field(default_factory=list)


def run_pass(
    calls: list[Invocation], work: Path, env: dict[str, str], traced: bool, probes: list[float] | None = None
) -> Pass:
    """One pass of the workload.  With `probes`, an import probe runs before
    each invocation and its wall time is appended there."""
    res = Pass()
    for i, inv in enumerate(calls):
        if probes is not None:
            probes.append(probe(work, env).wall_s)
        stdout = work / f"call{i}.out"
        if traced:
            spans = work / f"call{i}.trace.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), "--", *inv.args]
        else:
            argv = [sys.executable, "-c", CLI, *inv.args]
        proc = spawn(argv, stdout, env)
        res.wall_s += proc.wall_s
        res.cpu_s += proc.cpu_s
        res.maxrss_mb = max(res.maxrss_mb, proc.maxrss_mb)
        res.stdout_bytes += stdout.stat().st_size
        got = inv.gate(proc.code, stdout, inv.outdir)
        if got.failed and proc.stderr.strip():
            got.problems.append(f"{inv.label} stderr: {proc.stderr.strip()[-400:]}")
        out = res.outcome
        out.attempted += got.attempted
        out.failed += got.failed
        out.checks_failed += got.checks_failed
        out.problems += got.problems
        out.known += got.known
        for key, value in got.slack.items():
            res.slack[key] = max(res.slack.get(key, 0.0), value)
        files = {"stdout": sha256(stdout)}
        if inv.outdir is not None and inv.outdir.is_dir():
            for path in sorted(inv.outdir.iterdir()):
                files[path.name] = sha256(path)
        res.digests[inv.label] = files
        if traced:
            res.trace.append(json.loads(spans.read_text()) if spans.exists() else {})
        # delete outputs at once: the kernel then drops their dirty pages
        # instead of writing them back while a later pass is being timed
        stdout.unlink()
        if inv.outdir is not None:
            shutil.rmtree(inv.outdir, ignore_errors=True)
    return res


def probe(work: Path, env: dict[str, str], *flags: str) -> Proc:
    return spawn([sys.executable, *flags, "-c", IMPORT], work / "probe.out", env)


def import_breakdown(stderr: str) -> dict[str, float]:
    """Self import time in seconds: all modules, scipy.*, numpy.*."""
    total = scipy = numpy = 0.0
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            us = float(parts[0].split(":", 1)[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        total += us
        if name == "scipy" or name.startswith("scipy."):
            scipy += us
        elif name == "numpy" or name.startswith("numpy."):
            numpy += us
    return {"import.total_s": total * 1e-6, "import.scipy_s": scipy * 1e-6, "import.numpy_s": numpy * 1e-6}


def merge_traces(traces: list[dict]) -> dict:
    """Sum self times and counts over one pass's invocations; max for peaks."""
    self_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    maxima: dict[str, float] = {}
    calls: dict[str, int] = {}
    for tr in traces:
        for k, v in tr.get("self_s", {}).items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in tr.get("calls", {}).items():
            calls[k] = calls.get(k, 0) + v
        for k, v in tr.get("sums", {}).items():
            sums[k] = sums.get(k, 0.0) + v
        for k, v in tr.get("maxima", {}).items():
            maxima[k] = max(maxima.get(k, 0.0), v)
    return {"self_s": self_s, "calls": calls, "sums": sums, "maxima": maxima}


def layer_metrics(p: Pass) -> tuple[dict[str, float], dict[str, float]]:
    """(per-layer metrics, record-only metrics) for one traced pass.

    Stage times and counts that some declared workload never produces are
    kept out of the first set, so that no metric there is identically zero
    on a workload; they go to the run record instead.
    """
    tr = merge_traces(p.trace)
    t, s, mx = tr["self_s"], tr["sums"], tr["maxima"]

    def layer(name: str) -> float:
        return sum(v for k, v in t.items() if k.startswith(name + "."))

    cells = s.get("cover.union_grid_cells", 0.0)
    m = {
        "cli.self_s": t.get("cli.main", 0.0),
        "cli.stdout_bytes": float(p.stdout_bytes),
        "bounds.self_s": layer("bounds"),
        "geometry.diametral_pair_s": t.get("geometry.diametral_pair", 0.0),
        "geometry.diametral_pair_calls": float(tr["calls"].get("geometry.diametral_pair", 0)),
        "geometry.diametral_pair_points": s.get("geometry.diametral_pair_points", 0.0),
        "cover.piece_sample_tree_s": t.get("cover.piece_sample_tree", 0.0),
        "cover.sample_points": s.get("cover.sample_points", 0.0),
        "cover.difference_cover_s": t.get("cover.difference_cover", 0.0),
        "cover.difference_disks": s.get("cover.difference_disks", 0.0),
        "cover.difference_cover_peak_mb": mx.get("cover.difference_cover_peak_mb", 0.0),
        "cover.sum_area_s": t.get("cover.sum_area", 0.0),
        "cover.union_grid_mask_s": t.get("cover.union_grid_mask", 0.0),
        "cover.union_grid_cells": cells,
        "cover.union_fill_ratio": s.get("cover.union_marked_cells", 0.0) / cells if cells else 0.0,
        "cover.points_cap_use": mx.get("cover.points_cap_use", 0.0),
        "cover.pairs_cap_use": mx.get("cover.pairs_cap_use", 0.0),
        "cover.cells_cap_use": mx.get("cover.cells_cap_use", 0.0),
        "cover.sum_over_bound": p.slack.get("sum_over_bound", 0.0),
        "cover.union_over_sum": p.slack.get("union_over_sum", 0.0),
        "raster.rasterize_inner_s": t.get("raster.rasterize_inner", 0.0),
        "raster.rasterize_outer_s": t.get("raster.rasterize_outer", 0.0),
        "raster.raster_cells": s.get("raster.raster_cells", 0.0),
        "raster.mask_difference_s": t.get("raster.mask_difference", 0.0),
        "raster.mask_difference_out_cells": s.get("raster.mask_difference_out_cells", 0.0),
        "raster.mask_difference_peak_mb": mx.get("raster.mask_difference_peak_mb", 0.0),
        "raster.cells_cap_use": mx.get("raster.cells_cap_use", 0.0),
        "raster.diff_over_union": p.slack.get("diff_over_union", 0.0),
    }
    extra = {
        "bounds.bound_table_rows": s.get("bounds.bound_table_rows", 0.0),
        "raster.lcg_draws": s.get("raster.lcg_draws", 0.0),
        "images.pgm_bytes": s.get("images.pgm_bytes", 0.0),
        "verify.checks_failed": float(p.outcome.checks_failed),
        "bounds.bound_table_s": t.get("bounds.bound_table", 0.0),
        "bounds.decay_parameters_s": t.get("bounds.decay_parameters", 0.0),
        "cover.generate_pieces_self_s": t.get("cover.generate_pieces", 0.0),
        "cover.union_area_grid_s": t.get("cover.union_area_grid", 0.0),
        "raster.sample_diff_check_s": t.get("raster.sample_diff_check", 0.0),
        "raster.self_s": layer("raster"),
        "images.write_pgm_s": t.get("images.write_pgm", 0.0),
        "images.self_s": layer("images"),
        "verify.self_s": layer("verify"),
    }
    for k, v in t.items():
        if k.startswith("verify.check."):
            extra[k + "_s"] = v
    return m, extra


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def digest_mismatches(passes: list[Pass]) -> list[str]:
    """Invocation files whose bytes differ between repeats in this run."""
    seen: dict[str, str] = {}
    bad = set()
    for p in passes:
        for label, files in p.digests.items():
            for name, digest in files.items():
                key = f"{label}:{name}"
                if seen.setdefault(key, digest) != digest:
                    bad.add(key)
    return sorted(bad)


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            sha = got.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
    }


def _more(start: float, laps: list[float], seconds: float, least: int) -> bool:
    """Start another lap only if it is expected to end within the run's time."""
    if len(laps) < least:
        return True
    return time.perf_counter() - start + statistics.median(laps) <= seconds


def measure(calls: list[Invocation], work: Path, seconds: float) -> tuple[dict, dict]:
    env = child_env()
    start = time.perf_counter()
    probe(work, env)  # warm-up: byte-compiles the package, fills the page cache
    setups: list[float] = []
    passes: list[Pass] = []
    laps: list[float] = []
    # probes and invocations alternate so that both sample the whole run:
    # the host's speed drifts over tens of seconds
    while _more(start, laps, seconds, MIN_PASSES):
        t0 = time.perf_counter()
        passes.append(run_pass(calls, work, env, traced=False, probes=setups))
        laps.append(time.perf_counter() - t0)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p.maxrss_mb for p in passes),
    }
    record = {
        "samples": {
            "wall_s": [p.wall_s for p in passes],
            "setup_s": setups,
            "peak_rss_mb": [p.maxrss_mb for p in passes],
            "cpu_s": [p.cpu_s for p in passes],
        },
    }
    return metrics, _finish(passes, record)


def measure_traced(calls: list[Invocation], work: Path, seconds: float) -> tuple[dict, dict]:
    env = child_env()
    start = time.perf_counter()
    probe(work, env)
    imports: list[dict[str, float]] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    laps: list[float] = []
    while _more(start, laps, seconds, 1):
        t0 = time.perf_counter()
        imports.append(import_breakdown(probe(work, env, "-X", "importtime").stderr))
        plain.append(run_pass(calls, work, env, traced=False))
        traced.append(run_pass(calls, work, env, traced=True))
        laps.append(time.perf_counter() - t0)
    layers = [layer_metrics(p) for p in traced]
    metrics = {
        **median_of(imports),
        **median_of([m for m, _ in layers]),
        "proc.cpu_s": statistics.median(p.cpu_s for p in plain),
        "trace.overhead_s": statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in plain),
    }
    record = {
        "record_only": median_of([e for _, e in layers]),
        "spans": [merge_traces(p.trace) for p in traced],
        "samples": {
            "untraced_wall_s": [p.wall_s for p in plain],
            "traced_wall_s": [p.wall_s for p in traced],
        },
    }
    return metrics, _finish(plain + traced, record)


def _finish(passes: list[Pass], record: dict) -> dict:
    record["attempted"] = sum(p.outcome.attempted for p in passes)
    record["failed"] = sum(p.outcome.failed for p in passes)
    record["problems"] = [x for p in passes for x in p.outcome.problems]
    record["known_defects"] = sorted({x for p in passes for x in p.outcome.known})
    record["digests"] = [p.digests for p in passes]
    record["digest_mismatches"] = digest_mismatches(passes)
    return record


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cantordiff" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/cantordiff; run from a source checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))  # the oracle gate reads PGMs back with the package

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        calls = WORKLOADS[args.workload](args.seed, work)
        run = measure_traced if args.trace else measure
        metrics, record = run(calls, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "trace": args.trace, **environment(args.seed), "metrics": metrics, **record}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    for line in record["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    for line in record["known_defects"]:
        print(f"known defect (not counted as failed): {line}", file=sys.stderr)
    for name in record["digest_mismatches"]:
        print(f"warning: output bytes differ between repeats: {name}", file=sys.stderr)
    for name, values in record["samples"].items():
        print(f"{name}: n={len(values)} median={statistics.median(values):.6g}", file=sys.stderr)

    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
