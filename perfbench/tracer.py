"""Span tracer for the benchmark's traced run, applied from outside the package.

    python3 perfbench/tracer.py OUT.json -- <cantordiff arguments>

imports cantordiff, wraps the public stage functions of every module and
each verify check, runs cantordiff.cli.main on the arguments and writes
per-span self times, parent edges and counts to OUT.json.  Nothing in the
package is edited: wrappers replace the functions at run time, in every
module that holds a reference to them (cli binds `generate_pieces` by
name, cover binds `diametral_pair`, verify binds raster names).

Each thread keeps its own span stack.  ThreadPoolExecutor.submit is
wrapped so that work running on a pool thread nests under the span that
submitted it; a span's self time is its duration minus the union of its
children's intervals, so parallel children never drive it negative.
tracemalloc runs only inside the spans listed in PEAK_MEMORY.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

MODULES = ("bounds", "geometry", "cover", "raster", "images", "verify", "cli")

# Elementwise kernels and the per-pair disk constructor stay unwrapped:
# their time belongs to the stage that calls them (piece_sample_tree,
# rasterize_preimage, difference_cover), and a deep cover makes one
# disk_difference call per pair of pieces (262,144 at depth 8), so a
# wrapper would mostly time itself.
INLINE = frozenset(
    {
        "geometry.forward_map",
        "geometry.sqrt_branch",
        "geometry.inverse_branch",
        "geometry.disk_difference",
        "raster.preimage_member",
        "cli.dispatch",
    }
)

PEAK_MEMORY = frozenset({"cover.difference_cover", "raster.mask_difference"})

_MB = float(1 << 20)


class _Span:
    __slots__ = ("name", "parent", "children")

    def __init__(self, name: str, parent: "_Span | None") -> None:
        self.name = name
        self.parent = parent
        self.children: list[tuple[float, float]] = []


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """In-memory span recorder: per-name calls and self time, parent edges, counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.root = _Span("root", None)
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.edges: Counter[tuple[str, str]] = Counter()
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, float] = defaultdict(float)

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> _Span:
        stack = self._stack()
        return stack[-1] if stack else self.root

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.sums[key] += value

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, name, fn, hook=None, peak=False):
        """Wrap fn in a span; name is a string or a function of the bound args.

        hook(tracer, arguments, result) records counts after each call;
        peak measures the call's tracemalloc peak.
        """
        sig = inspect.signature(fn)
        bind = hook is not None or callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if bind:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            label = name(bound.arguments) if callable(name) else name
            stack = self._stack()
            span = _Span(label, stack[-1] if stack else self.root)
            started = peak and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            stack.append(span)
            t0 = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if started:
                    self.peak(f"{label}_peak_mb", tracemalloc.get_traced_memory()[1] / _MB)
                    tracemalloc.stop()
                self._close(span, t0, t1)
            if hook is not None:
                hook(self, bound.arguments, ret)
            return ret

        return wrapper

    def _close(self, span: _Span, t0: float, t1: float) -> None:
        own = (t1 - t0) - _covered(span.children, t0, t1)
        with self._lock:
            self.calls[span.name] += 1
            self.self_s[span.name] += own
            self.edges[(span.parent.name, span.name)] += 1
            if span.parent is not self.root:
                span.parent.children.append((t0, t1))

    def patch_thread_pools(self) -> None:
        """Nest pool-thread spans under the span that submitted the work."""
        original = ThreadPoolExecutor.submit
        tracer = self

        def submit(executor, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run(*a, **k):
                tracer._local.stack = [parent] if parent is not tracer.root else []
                try:
                    return fn(*a, **k)
                finally:
                    tracer._local.stack = []

            return original(executor, run, *args, **kwargs)

        ThreadPoolExecutor.submit = submit

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "sums": dict(self.sums),
            "maxima": dict(self.maxima),
        }


# Hooks: counts taken from arguments and return values.  A *_cap_use is
# the size the call needed over the module's default cap, read at run time.


def _cap(module: str, name: str) -> int:
    return getattr(sys.modules[f"cantordiff.{module}"], name)


def _on_bound_table(t: Tracer, a: dict, ret) -> None:
    t.add("bounds.bound_table_rows", len(ret))


def _on_diametral_pair(t: Tracer, a: dict, ret) -> None:
    t.add("geometry.diametral_pair_points", int(np.size(a["points"])))


def _on_sample_tree(t: Tracer, a: dict, ret) -> None:
    points = sum(arr.size for level in ret for arr in level)
    t.add("cover.sample_points", points)
    t.peak("cover.points_cap_use", points / _cap("cover", "DEFAULT_MAX_POINTS"))


def _on_difference_cover(t: Tracer, a: dict, ret) -> None:
    t.add("cover.difference_disks", len(ret))
    t.peak("cover.pairs_cap_use", len(ret) / _cap("cover", "DEFAULT_MAX_PAIRS"))


def _on_union_grid_mask(t: Tracer, a: dict, ret) -> None:
    t.add("cover.union_grid_cells", ret.bits.size)
    t.add("cover.union_marked_cells", int(np.count_nonzero(ret.bits)))
    t.peak("cover.cells_cap_use", ret.bits.size / _cap("cover", "DEFAULT_MAX_CELLS"))


def _on_rasterize(t: Tracer, a: dict, ret) -> None:
    t.add("raster.raster_cells", ret.bits.size)
    t.peak("raster.cells_cap_use", ret.bits.size / _cap("raster", "DEFAULT_MAX_CELLS"))


def _on_mask_difference(t: Tracer, a: dict, ret) -> None:
    t.add("raster.mask_difference_out_cells", ret.bits.size)


def _on_lcg(t: Tracer, a: dict, ret) -> None:
    t.add("raster.lcg_draws", a["count"])


def _on_write_pgm(t: Tracer, a: dict, ret) -> None:
    t.add("images.pgm_bytes", Path(ret).stat().st_size)


HOOKS = {
    "bounds.bound_table": _on_bound_table,
    "geometry.diametral_pair": _on_diametral_pair,
    "cover.piece_sample_tree": _on_sample_tree,
    "cover.difference_cover": _on_difference_cover,
    "cover.union_grid_mask": _on_union_grid_mask,
    "raster.rasterize_preimage": _on_rasterize,
    "raster.mask_difference": _on_mask_difference,
    "raster.lcg_uniforms": _on_lcg,
    "images.write_pgm": _on_write_pgm,
}

# one span name per raster mode, so inner and outer rasters time apart
NAMES = {"raster.rasterize_preimage": lambda a: f"raster.rasterize_{a['mode']}"}


def instrument(tracer: Tracer) -> None:
    """Wrap every public stage function and verify check, rebinding all aliases."""
    mods = {m: importlib.import_module(f"cantordiff.{m}") for m in MODULES}
    holders = [m for n, m in sys.modules.items() if n == "cantordiff" or n.startswith("cantordiff.")]
    for short, mod in mods.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            key = f"{short}.{attr}"
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or key in INLINE:
                continue
            wrapped = tracer.wrap(NAMES.get(key, key), fn, HOOKS.get(key), key in PEAK_MEMORY)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, name, wrapped)
    checks = mods["verify"]._CHECKS
    for i, (name, fn) in enumerate(checks):
        checks[i] = (name, tracer.wrap(f"verify.check.{name}", fn))
    tracer.patch_thread_pools()


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <cantordiff arguments>", file=sys.stderr)
        return 2
    out, cli_args = Path(argv[0]), argv[2:]
    tracer = Tracer()
    instrument(tracer)
    cli = sys.modules["cantordiff.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        out.write_text(json.dumps(tracer.report(), sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
