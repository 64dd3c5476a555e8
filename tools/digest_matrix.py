"""Run a fixed matrix of cantordiff CLI invocations and print output digests.

    python3 tools/digest_matrix.py OUTDIR [--src SRC]

Runs 120 invocations, 20 at each of six parameters c: `bounds` at depth
60 (CSV), at depth 300 (JSON) and at depth 20 with `--epsilon 0.1`
(JSON), `cover` at depths 3 and 4 with 64, 512, 5000 and 16384 samples,
at depth 3 with 64 samples into `--output cover.csv` and at depth 3
with `--render cover.ppm`, `diff` at depths 2 and 3 and at depth 2 with
`--render diff.ppm`, `verify --report` with 256 and 5000 samples, and
`oracle` at depth 2 and at the oracle-fine configuration (depth 3, cell
0.005, 16384 samples, 2 workers; at c = 5 it is the benchmark's
oracle-fine command).  Each one
runs in a fresh child with PYTHONPATH=SRC (default: this checkout's src)
and its own directory OUTDIR/NN-label as working directory, so output
paths on the command line are relative.  Absolute occurrences of that
directory in stdout and stderr are replaced by "<dir>" anyway.

Prints one line per digest, `sha256  NN-label/item`, for the exit code,
stdout, stderr and every file the invocation wrote.  Run it on two
checkouts and diff the two listings to state which output bytes changed.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

PARAMS = [("5", "0"), ("-5", "0"), ("0", "2.5"), ("3", "4"), ("2.2", "0"), ("0", "2.05")]


def invocations() -> list[tuple[str, list[str]]]:
    runs = []
    for re_, im in PARAMS:
        c = ["--c-re", re_, "--c-im", im]
        tag = f"c{re_}+{im}i"
        runs += [
            (f"{tag}-bounds-d60", ["bounds", *c, "--depth", "60"]),
            (f"{tag}-bounds-d300", ["bounds", *c, "--depth", "300", "--format", "json"]),
            (f"{tag}-bounds-eps", ["bounds", *c, "--depth", "20", "--epsilon", "0.1",
                                   "--format", "json"]),
        ]
        for depth, fmt in ((3, "csv"), (4, "json")):
            for samples in (64, 512, 5000, 16384):
                runs.append((f"{tag}-cover-d{depth}-s{samples}", [
                    "cover", *c, "--depth", str(depth), "--samples", str(samples),
                    "--format", fmt]))
        runs += [
            (f"{tag}-cover-output", ["cover", *c, "--depth", "3", "--samples", "64",
                                     "--output", "cover.csv"]),
            (f"{tag}-diff-d2", ["diff", *c, "--depth", "2", "--samples", "5000",
                                "--cell", "0.02", "--format", "json"]),
            (f"{tag}-cover-render", ["cover", *c, "--depth", "3", "--render", "cover.ppm"]),
            (f"{tag}-diff-d3", ["diff", *c, "--depth", "3", "--cell", "0.02"]),
            (f"{tag}-diff-render", ["diff", *c, "--depth", "2", "--cell", "0.02",
                                    "--render", "diff.ppm"]),
            (f"{tag}-verify", ["verify", *c, "--report", "report.json"]),
            (f"{tag}-verify-s5000", ["verify", *c, "--depth", "3", "--samples", "5000",
                                     "--report", "report.json"]),
            (f"{tag}-oracle-d2", ["oracle", *c, "--depth", "2", "--cell", "0.01",
                                  "--samples", "5000", "--outdir", "out"]),
            (f"{tag}-oracle-fine", ["oracle", *c, "--depth", "3", "--cell", "0.005",
                                    "--samples", "16384", "--workers", "2",
                                    "--outdir", "out"]),
        ]
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    repo = Path(__file__).resolve().parents[1]
    ap.add_argument("--src", type=Path, default=repo / "src")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    env.pop("CANTORDIFF_MEMORY_CAP", None)
    for n, (label, argv) in enumerate(invocations()):
        run_dir = (args.outdir / f"{n:02d}-{label}").resolve()
        run_dir.mkdir(parents=True, exist_ok=False)
        proc = subprocess.run(
            [sys.executable, "-m", "cantordiff.cli", *argv],
            cwd=run_dir, env=env, capture_output=True, check=False,
        )
        name = run_dir.name
        here = str(run_dir).encode()
        print(f"{_sha(str(proc.returncode).encode())}  {name}/exit={proc.returncode}")
        print(f"{_sha(proc.stdout.replace(here, b'<dir>'))}  {name}/stdout")
        print(f"{_sha(proc.stderr.replace(here, b'<dir>'))}  {name}/stderr")
        for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
            print(f"{_sha(path.read_bytes())}  {name}/{path.relative_to(run_dir)}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
