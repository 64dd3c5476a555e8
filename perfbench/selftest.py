"""Self-test of the benchmark's gate and tracer on small, fast inputs.

    python3 perfbench/selftest.py      (from the root of a source checkout)

Checks that the output gate counts tampered outputs as failed operations,
that the known-defect list excuses only the checks it names, that a
traced run with two worker threads nests every diametral-pair span under
the span that submitted it, and that tracing leaves stdout byte-identical.
Exits 1 on the first failed expectation.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import gate_diff, gate_oracle, gate_verify


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {what}")


def cli(work: Path, name: str, *args: str, traced: bool = False) -> tuple[int, Path]:
    out = work / f"{name}.out"
    if traced:
        argv = [sys.executable, str(run.BENCH / "tracer.py"), str(work / f"{name}.trace.json"), "--", *args]
    else:
        argv = [sys.executable, "-c", run.CLI, *args]
    return run.spawn(argv, out, run.child_env()).code, out


def edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    if old not in text:
        raise ValueError(f"{old!r} not in {path}")
    path.write_text(text.replace(old, new, 1))


def check_diff_gate(work: Path) -> None:
    code, out = cli(work, "diff", "diff", "--c-re", "5", "--depth", "2", "--cell", "0.02")
    gate = gate_diff(2)
    expect(gate(code, out, work).failed == 0, "diff gate passes a real depth-2 diff")
    lines = out.read_text().splitlines()
    worst = next(x for x in lines if x.startswith("# worst_case_bound,")).split(",")[1]
    total = next(x for x in lines if x.startswith("# sum_area,"))
    edit(out, total, f"# sum_area,{float(worst) * 2!r}")
    expect(gate(code, out, work).failed == 1, "diff gate fails a sum_area edited above the bound")
    out.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
    expect(gate(code, out, work).failed == 1, "diff gate fails a missing disk row")
    expect(gate(2, out, work).failed == 1, "diff gate fails exit code 2")


def check_oracle_gate(work: Path) -> None:
    outdir = work / "oracle"
    code, out = cli(
        work, "oracle", "oracle", "--c-re", "5", "--depth", "2", "--cell", "0.02",
        "--samples", "256", "--outdir", str(outdir),
    )
    expect(gate_oracle(code, out, outdir).failed == 0, "oracle gate passes a real depth-2 oracle")
    report = outdir / "report.json"
    saved = report.read_text()
    edit(report, '"holds": true', '"holds": false')
    expect(gate_oracle(code, out, outdir).failed == 1, "oracle gate fails sandwich.holds = false")
    report.write_text(saved)
    pgm = outdir / "inner.pgm"
    raw = bytearray(pgm.read_bytes())
    raw[-1] ^= 0xFF
    pgm.write_bytes(bytes(raw))
    expect(gate_oracle(code, out, outdir).failed == 1, "oracle gate fails a PGM whose cells disagree with the report")


def check_verify_gate(work: Path) -> None:
    code, out = cli(work, "verify5", "verify", "--c-re", "5", "--depth", "2", "--count", "1000")
    gate = gate_verify((5.0, 0.0))
    got = gate(code, out, work)
    expect(got.failed == 0 and got.attempted == 24, "verify gate passes 24 real checks at c = 5")
    edit(out, "PASS lcg-reference", "FAIL lcg-reference")
    expect(gate(code, out, work).failed >= 1, "verify gate fails an edited FAIL line")

    code, out = cli(work, "verify-5", "verify", "--c-re", "-5", "--depth", "2", "--count", "1000")
    got = gate_verify((-5.0, 0.0))(code, out, work)
    expect(
        got.failed == 0 and got.checks_failed == len(got.known) > 0,
        f"known-defect FAIL lines at c = -5 are reported, not counted ({got.checks_failed})",
    )
    edit(out, "PASS lcg-reference", "FAIL lcg-reference")
    got = gate_verify((-5.0, 0.0))(code, out, work)
    expect(got.failed >= 1, "verify gate still fails an unlisted check at c = -5")


def check_worker_spans(work: Path) -> None:
    args = ("cover", "--c-re", "5", "--depth", "3", "--samples", "5000", "--workers", "2")
    code, plain = cli(work, "cover-plain", *args)
    tcode, traced = cli(work, "cover-traced", *args, traced=True)
    expect(code == tcode == 0, "cover runs traced and untraced")
    expect(plain.read_bytes() == traced.read_bytes(), "tracing leaves stdout byte-identical")
    trace = json.loads((work / "cover-traced.trace.json").read_text())
    parents = {p for p, c, _ in trace["edges"] if c == "geometry.diametral_pair"}
    expect(parents == {"cover.generate_pieces"}, f"worker-thread diametral_pair spans nest under generate_pieces ({parents})")
    expect(trace["calls"]["geometry.diametral_pair"] == 16, "all 16 pieces traced")
    self_s = trace["self_s"]
    expect(self_s["geometry.diametral_pair"] > 0.0, "worker-thread diametral_pair time is recorded")
    expect(min(self_s.values()) >= 0.0, "no span has negative self time")


def check_import_parse() -> None:
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   numpy.core\n"
        "import time:       300 |        400 | numpy\n"
        "import time:      2000 |       2000 |     scipy.signal\n"
        "import time:        50 |       2050 | cantordiff\n"
    )
    got = run.import_breakdown(text)
    want = {"import.total_s": 2450e-6, "import.scipy_s": 2000e-6, "import.numpy_s": 400e-6}
    expect(all(abs(got[k] - v) < 1e-12 for k, v in want.items()), "importtime breakdown parses")


def main() -> int:
    if not (run.ROOT / "src" / "cantordiff" / "cli.py").is_file():
        print("error: run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        check_import_parse()
        check_diff_gate(work)
        check_oracle_gate(work)
        check_verify_gate(work)
        check_worker_spans(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
