"""The oracle module's import direction: it depends on the code it checks,
never the other way round, and no production path loads it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy

import cantordiff
from cantordiff import _oracle, raster


def _imported(tree: ast.AST):
    # every imported module, a relative one with its leading dots
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            yield from ("." * node.level + a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + node.module


def test_oracle_imports_only_geometry_and_raster_and_takes_no_ctx():
    tree = ast.parse(Path(_oracle.__file__).read_text())
    package = {n for n in _imported(tree) if n.startswith(".") or n.split(".")[0] == "cantordiff"}
    assert package == {".geometry", ".raster"}
    for fn in (n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.Lambda))):
        args = fn.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        assert "ctx" not in names, getattr(fn, "name", "lambda")


def test_cover_diff_and_oracle_load_neither_the_oracle_nor_verify(tmp_path):
    code = (
        "import contextlib, io, sys\n"
        "from cantordiff.cli import main\n"
        "common = ['--c-re', '5', '--depth', '1', '--samples', '16']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['cover', *common]), main(['diff', *common, '--cell', '0.1']),\n"
        f"             main(['oracle', *common, '--cell', '0.1', '--outdir', {str(tmp_path)!r}])]\n"
        "print(codes, sorted(n for n in sys.modules if n in\n"
        "                    ('cantordiff._oracle', 'cantordiff.verify')))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[0, 0, 0] []\n"


def test_the_images_import_path_loads_no_oracle_code():
    # oracle and the benchmark's PGM gate import cantordiff.images; each
    # package module it loads is compiled in every such process
    code = (
        "import sys, cantordiff.images\n"
        "print(*sorted(n for n in sys.modules if n.split('.')[0] == 'cantordiff'))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == [
        "cantordiff",
        "cantordiff.bounds",
        "cantordiff.geometry",
        "cantordiff.images",
        "cantordiff.raster",
    ]


def test_the_verify_import_path_loads_neither_images_nor_cli():
    # every verify child imports cantordiff.verify and compiles each package
    # module it loads; -S: no site hooks, so nothing is preloaded that a
    # plain interpreter lacks, and numpy's directory goes on the path by hand
    path = [str(Path(m.__file__).resolve().parents[1]) for m in (cantordiff, numpy)]
    code = (
        "import sys, cantordiff.verify\n"
        "print(*sorted(n for n in sys.modules if n.split('.')[0] == 'cantordiff'))\n"
    )
    r = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == [
        "cantordiff",
        "cantordiff._oracle",
        "cantordiff.bounds",
        "cantordiff.cover",
        "cantordiff.geometry",
        "cantordiff.raster",
        "cantordiff.verify",
    ]


def test_the_lcg_and_the_sampler_are_public_from_the_oracle():
    for name in ("lcg_uniforms", "sample_diff_check"):
        assert getattr(cantordiff, name) is getattr(_oracle, name)
        assert not hasattr(raster, name)
