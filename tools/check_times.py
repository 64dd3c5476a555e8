"""Time each of verify's checks, in milliseconds, at a few parameters.

    python3 tools/check_times.py [--c C]... [--runs N] [--src SRC]

Each run is a fresh child with PYTHONPATH=SRC (default: this checkout's
src) that calls run_verification once per parameter, at verify's default
configuration, with every check wrapped in a perf_counter timer; the
parameter's pieces, rows and rasters are built inside the checks that
first need them, as in a `verify` run.  Prints one row per check, in
report order, with its minimum over the N runs at each parameter and the
sum across them, between a header and a total line that both start with
"#".  C is a Python complex literal (default: 5, -5 and 2.5j, the
parameters of perfbench's param-ring).
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import json, sys, time
from cantordiff import Parameter, VerifyConfig, verify

def timed(name, fn):
    def run(ctx):
        t0 = time.perf_counter()
        out = fn(ctx)
        took[name] = time.perf_counter() - t0
        return out
    return run

verify._CHECKS = [(name, timed(name, fn)) for name, fn in verify._CHECKS]
times = []
for text in sys.argv[1:]:
    took = {}
    verify.run_verification(VerifyConfig(Parameter(complex(text))))
    times.append(took)
print(json.dumps(times))
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--c", action="append", type=complex, dest="params")
    ap.add_argument("--runs", type=int, default=10)
    repo = Path(__file__).resolve().parents[1]
    ap.add_argument("--src", type=Path, default=repo / "src")
    args = ap.parse_args()
    params = args.params or [5 + 0j, -5 + 0j, 2.5j]
    if args.runs < 1:
        ap.error(f"--runs must be >= 1, got {args.runs}")
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    env.pop("CANTORDIFF_MEMORY_CAP", None)
    best: list[dict[str, float]] = [{} for _ in params]
    for _ in range(args.runs):
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, *map(str, params)],
            env=env, capture_output=True, text=True, check=True,
        )
        for row, took in zip(best, json.loads(proc.stdout)):
            for name, s in took.items():
                row[name] = min(row.get(name, s), s)
    names = list(best[0])
    width = max(map(len, names))
    cols = [f"c={c.real:g}{c.imag:+g}i" for c in params] + ["sum"]
    print(f"# {'check':<{width - 2}} " + " ".join(f"{c:>12}" for c in cols))
    totals = [0.0] * len(cols)
    for name in names:
        ms = [row[name] * 1e3 for row in best]
        ms.append(sum(ms))
        totals = [t + m for t, m in zip(totals, ms)]
        print(f"{name:<{width}} " + " ".join(f"{m:12.1f}" for m in ms))
    print(f"# {'total':<{width - 2}} " + " ".join(f"{m:12.1f}" for m in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
