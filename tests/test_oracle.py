"""The oracle module's import direction: it depends on the code it checks,
never the other way round, and no production path loads it."""

import ast
import subprocess
import sys
from pathlib import Path

from cantordiff import _oracle


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
