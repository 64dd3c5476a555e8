"""Command line interface: formats, exit codes, determinism."""

import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy
import pytest

import cantordiff
from cantordiff.cli import main
from cantordiff.images import read_pgm


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_csv(capsys):
    code, out, err = run_cli(capsys, "bounds", "--c-re", "5", "--depth", "3")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "n,R_n,r_n,K_n,bound,ratio_step"
    assert len([l for l in lines if not l.startswith("#")]) == 4
    row1 = lines[1].split(",")
    assert float(row1[1]) == pytest.approx(3.1622776601683795, rel=1e-15)
    assert "# decay_guaranteed,true" in lines


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--c-re", "5", "--depth", "3",
                           "--format", "json")
    obj = json.loads(out)
    assert obj["schema"] == "cantordiff-bounds/1"
    assert obj["decay_guaranteed"] is True
    assert len(obj["rows"]) == 3
    assert obj["decay"]["settle_index"] == 2


def test_bounds_flags_no_decay(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--c-re", "3", "--depth", "5")
    assert code == 0
    assert "decay not guaranteed" in out
    code, out, _ = run_cli(capsys, "bounds", "--c-re", "3", "--depth", "5",
                           "--format", "json")
    obj = json.loads(out)
    assert obj["decay_guaranteed"] is False and obj["decay"] is None
    assert "decay not guaranteed" in obj["note"]


def test_bounds_epsilon(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--c-re", "5", "--depth", "3",
                           "--epsilon", "0.1", "--format", "json")
    obj = json.loads(out)
    assert obj["decay"]["epsilon"] == 0.1
    assert obj["decay"]["settle_index"] == 3


@pytest.mark.parametrize("command", ["bounds", "verify"])
@pytest.mark.parametrize("epsilon", ["-1", "0", "nan", "inf"])
def test_epsilon_must_be_positive_and_finite(capsys, command, epsilon):
    # at c = 3 decay is not guaranteed and epsilon goes unused, yet a value
    # no certificate could take is still refused
    code, out, err = run_cli(capsys, command, "--c-re", "3", "--depth", "2",
                             "--epsilon", epsilon)
    assert code == 2 and out == ""
    assert err == f"error: epsilon must be a positive finite number, got {float(epsilon)!r}\n"


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_epsilon_outside_the_decay_margin(capsys, command):
    code, out, err = run_cli(capsys, command, "--c-re", "5", "--depth", "2",
                             "--epsilon", "-1")
    assert code == 2 and out == ""
    assert err == "error: epsilon must lie in (0, 0.41742430504416017), got -1.0\n"


def test_unused_epsilon_leaves_bounds_output(capsys):
    plain = run_cli(capsys, "bounds", "--c-re", "3", "--depth", "5")
    assert run_cli(capsys, "bounds", "--c-re", "3", "--depth", "5", "--epsilon", "0.1") == plain


def test_complex_parameter(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--c-re", "-2", "--c-im", "2",
                           "--depth", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["c"] == [-2.0, 2.0]


def test_cover_csv(capsys):
    code, out, _ = run_cli(capsys, "cover", "--c-re", "5", "--depth", "1",
                           "--samples", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "seq,center_re,center_im,radius,sampled_diam"
    rows = [l for l in lines if not l.startswith(("seq", "#"))]
    assert len(rows) == 4
    assert [r.split(",")[0] for r in rows] == ["00", "01", "10", "11"]


def test_cover_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "cover", "--c-re", "5", "--depth", "1",
                           "--samples", "64", "--format", "json")
    obj = json.loads(out)
    assert obj["schema"] == "cantordiff-cover/1"
    assert len(obj["pieces"]) == 4
    assert all(p["radius"] > 0 for p in obj["pieces"])


def test_diff_reports_sandwich_numbers(capsys):
    code, out, _ = run_cli(capsys, "diff", "--c-re", "5", "--depth", "1",
                           "--samples", "64", "--cell", "0.02", "--format", "json")
    obj = json.loads(out)
    assert obj["schema"] == "cantordiff-diff/1"
    assert len(obj["disks"]) == 16
    assert obj["union_area"] <= obj["sum_area"] + obj["union_margin"]
    assert obj["sum_area"] <= obj["worst_case_bound"]


@pytest.mark.parametrize("piece_depth", [0, 2])
def test_diff_and_oracle_share_the_sandwich(tmp_path, capsys, piece_depth):
    # diff at piece depth n and oracle at raster depth n + 1 run the same
    # certified computation: every number must agree bit for bit
    common = ("--c-re", "5", "--samples", "128", "--cell", "0.02")
    code, out, _ = run_cli(capsys, "diff", "--depth", str(piece_depth),
                           "--format", "json", *common)
    assert code == 0
    diff = json.loads(out)
    code, _, _ = run_cli(capsys, "oracle", "--depth", str(piece_depth + 1),
                         "--outdir", str(tmp_path), *common)
    assert code == 0
    sw = json.loads((tmp_path / "report.json").read_text())["sandwich"]
    assert sw["piece_depth"] == piece_depth
    for key in ("sum_area", "union_area", "union_margin", "worst_case_bound"):
        assert diff[key].hex() == sw[key].hex(), key


def _same(text: str, value) -> bool:
    """A CSV cell against its JSON value, floats bit for bit."""
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, str):
        return text == value
    return float(text).hex() == float(value).hex()


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--c-re", "5", "--depth", "40"),
        ("bounds", "--c-re", "3", "--depth", "40"),
        ("cover", "--c-re", "0", "--c-im", "2.5", "--depth", "2", "--samples", "64"),
        ("diff", "--c-re", "0", "--c-im", "2.5", "--depth", "1", "--samples", "64",
         "--cell", "0.05"),
    ],
    ids=["bounds-decay", "bounds-no-decay", "cover", "diff"],
)
def test_csv_and_json_carry_the_same_record(capsys, argv):
    code, csv_text, _ = run_cli(capsys, *argv)
    assert code == 0
    code, json_text, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    obj = json.loads(json_text)
    lines = csv_text.splitlines()
    header, *body = [line.split(",") for line in lines if not line.startswith("# ")]
    # a JSON [re, im] pair is the two CSV columns <name>_re and <name>_im
    table = []
    for row in obj[{"bounds": "rows", "cover": "pieces", "diff": "disks"}[argv[0]]]:
        flat = {}
        for key, value in row.items():
            if isinstance(value, list):
                flat[f"{key}_re"], flat[f"{key}_im"] = value
            else:
                flat[key] = value
        table.append(flat)
    assert len(body) == len(table) > 0
    for cells, want in zip(body, table):
        assert sorted(header) == sorted(want)
        assert all(_same(text, want[name]) for name, text in zip(header, cells)), cells
    trailer = [line[2:].split(",", 1) for line in lines if line.startswith("# ")]
    assert trailer
    for key, text in trailer:
        value = obj[key] if key in obj else obj["decay"][key]
        if isinstance(value, list):  # cover's "# pieces" counts the table
            value = len(value)
        assert _same(text, value), (key, text, value)


def test_oracle_writes_artifacts(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "oracle", "--c-re", "5", "--depth", "1",
                           "--cell", "0.05", "--outdir", str(tmp_path / "o"))
    assert code == 0
    base = tmp_path / "o"
    for name in ("inner.pgm", "outer.pgm", "diff.pgm", "report.json",
                 "inner.pgm.json", "outer.pgm.json", "diff.pgm.json"):
        assert (base / name).exists(), name
    rep = json.loads((base / "report.json").read_text())
    assert rep["schema"] == "cantordiff-oracle/1"
    assert rep["inner_area"] <= rep["outer_area"]
    assert rep["sandwich"]["holds"] is True
    assert rep["sandwich"]["piece_depth"] == 0
    assert rep["diff_area"] <= rep["sandwich"]["union_area"]
    assert "inner_area" in out and "sandwich_holds,true" in out


def test_oracle_at_depth_0_builds_no_disk_cover(tmp_path, capsys):
    outdir = tmp_path / "o"
    code, out, _ = run_cli(capsys, "oracle", "--c-re", "5", "--depth", "0",
                           "--cell", "0.05", "--outdir", str(outdir))
    assert code == 0
    rep = json.loads((outdir / "report.json").read_text())
    assert rep["sandwich"] is None
    names = [line.split(",")[0] for line in out.splitlines()]
    assert names == ["inner_area", "outer_area", "diff_area", f"wrote {outdir}"]


@pytest.mark.parametrize("depth, code", [(0, 0), (1, 2)])
def test_oracle_area_refusal_follows_the_piece_depth(tmp_path, capsys, depth, code):
    # 4^(depth - 1 + 1) difference disks of area up to (12(|c| + cell))^2:
    # at depth 0 only the rasters count and every area is finite
    got, out, err = run_cli(capsys, "oracle", "--c-re", "5e152", "--cell", "1e150",
                            "--depth", str(depth), "--outdir", str(tmp_path / "out"))
    assert got == code
    if code:
        assert out == "" and "areas would overflow" in err
    else:
        areas = [float(line.split(",")[1]) for line in out.splitlines()[:3]]
        assert all(map(math.isfinite, areas))


def test_verify_cli_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--c-re", "5", "--depth", "2",
                           "--samples", "64", "--cell", "0.05", "--count", "2000")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith(("PASS", "FAIL")) for l in lines[:-1])
    assert lines[-1].startswith("verify: ")
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "c",
    [("30",), ("2.000000000001",), ("0.24504285082390193", "--c-im", "2.487961816680492")],
    ids=["30", "2+1e-12", "2.5-at-0.47pi"],
)
def test_verify_cli_passes_at_the_ends_of_the_domain(capsys, c):
    code, out, _ = run_cli(capsys, "verify", "--c-re", *c, "--depth", "2", "--count", "1000")
    assert code == 0, out
    assert out.strip().splitlines()[-1] == "verify: 24/24 checks passed"


def test_verify_cli_passes_at_depth_9(capsys):
    # the orbits of 16 samples at depth 9 pass |c| by 5.9e-9, within their
    # rounding bound
    code, out, _ = run_cli(capsys, "verify", "--c-re", "5", "--depth", "9", "--samples", "16",
                           "--count", "1000")
    assert code == 0, out
    assert out.strip().splitlines()[-1] == "verify: 24/24 checks passed"


def test_verify_cli_passes_at_a_large_modulus(capsys):
    # the depth >= 1 rasters scan sqrt(2|c|), not |c|: at |c| = 1e8 and
    # cell 500 that is 60^2 cells, which hold the depth-1 preimage; the
    # |c|-wide window, 400002^2 cells, could never fit under the cap.  The
    # depth-2 inner raster sets no cell there, yet spans the 60^2 cells of
    # its live blocks
    code, out, _ = run_cli(capsys, "verify", "--c-re", "1e8", "--cell", "500")
    assert code == 0, out
    assert out.strip().splitlines()[-1] == "verify: 24/24 checks passed"
    assert (
        "PASS raster-nesting: cell counts depth2<=depth1<=outer1: (0, 796, 920), "
        "nested=True, inner-in-outer=True"
    ) in out.splitlines()


def test_verify_cli_stops_at_the_raster_cell_cap(capsys):
    # the depth-1 window at the default cell 0.02 spans sqrt(2e7) + 0.02,
    # 223608 cells, each side of 0
    code, _, err = run_cli(capsys, "verify", "--c-re", "1e7", "--depth", "2", "--count", "1000")
    assert code == 2
    assert err.startswith("error: raster cells: 200002150656 needed")


def test_verify_report_file(tmp_path, capsys):
    rp = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify", "--c-re", "5", "--depth", "2",
                         "--samples", "64", "--cell", "0.05",
                         "--count", "2000", "--report", str(rp))
    assert code == 0
    rep = json.loads(rp.read_text())
    assert rep["passed"] is True


def test_exit_code_1_on_verify_failure(capsys, monkeypatch):
    import cantordiff.verify as verify_mod

    def forced_failure(cfg):
        return {
            "schema": "cantordiff-verify/1",
            "config": {},
            "checks": [{"name": "forced", "passed": False, "detail": "x"}],
            "passed": False,
        }

    monkeypatch.setattr(verify_mod, "run_verification", forced_failure)
    code, out, _ = run_cli(capsys, "verify", "--c-re", "5")
    assert code == 1
    assert "FAIL forced" in out


def test_exit_code_2_on_bad_parameter(capsys):
    code, _, err = run_cli(capsys, "bounds", "--c-re", "1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv", [("--c-re", "1.5e308", "--c-im", "1.5e308"), ("--c-re", "1e308")]
)
def test_exit_code_2_on_huge_parameter(argv):
    # abs(c) overflows in the first, 4|c| in the second: one message with
    # the limit, exit 2, no traceback
    r = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", "bounds", *argv],
        capture_output=True, text=True,
    )
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: need |c| <= 4.4942328371557893e+307 ")
    assert r.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("cover", "--c-re", "5", "--depth", "1", "--samples", "16", "--output", "{missing}/x.csv"),
        ("verify", "--c-re", "5", "--depth", "1", "--count", "1000", "--report", "{missing}/r.json"),
        ("cover", "--c-re", "5", "--depth", "1", "--samples", "16", "--render", "{missing}/x.ppm"),
        ("oracle", "--c-re", "5", "--depth", "1", "--cell", "0.1", "--outdir", "{file}/out"),
    ],
    ids=["output", "report", "render", "outdir"],
)
def test_exit_code_2_on_an_unwritable_output_path(argv, tmp_path):
    # one error line and exit 2, never a traceback, and never exit 1, the
    # code of a failed verification
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "file": tmp_path / "file"}
    r = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", *(a.format(**paths) for a in argv)],
        capture_output=True, text=True,
    )
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr
    assert "Traceback" not in r.stderr


def test_unwritable_report_is_refused_before_the_checks(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "verify", "--c-re", "5", "--depth", "1", "--count", "1000",
                             "--report", str(path))
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


def test_refused_verify_leaves_the_report_path_alone(tmp_path, capsys, monkeypatch):
    # the path check creates no file and leaves an existing one as it is
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", "1000")
    (tmp_path / "old.json").write_text("kept\n")
    for name in ("new.json", "old.json"):
        code, out, _ = run_cli(capsys, "verify", "--c-re", "5", "--depth", "2", "--count", "1000",
                               "--report", str(tmp_path / name))
        assert code == 2 and out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["old.json"]
    assert (tmp_path / "old.json").read_text() == "kept\n"


def test_diff_refuses_an_overflowing_cell_before_building_pieces(capsys, monkeypatch):
    import cantordiff.cover as cover_mod

    def no_pieces(*args):
        raise AssertionError("generate_pieces ran")

    monkeypatch.setattr(cover_mod, "generate_pieces", no_pieces)
    code, out, err = run_cli(capsys, "diff", "--c-re", "1e300", "--depth", "9",
                             "--samples", "8192", "--cell", "1e298")
    assert code == 2 and out == ""
    assert err == "error: areas would overflow at --cell 1e+298 and |c| = 1e+300\n"


def _run_silently(capsys, tmp_path, command, c, cell):
    extra = ["--outdir", str(tmp_path / "out")] if command == "oracle" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(capsys, command, "--c-re", c, "--depth", "2", "--cell", cell, *extra)


@pytest.mark.parametrize("command", ["oracle", "diff", "verify"])
@pytest.mark.parametrize("c, cell", [("1e300", "1e298"), ("1e155", "1.3e154")])
def test_cell_at_which_an_area_overflows_is_refused(tmp_path, capsys, command, c, cell):
    # at c = 1e300 a cell of 1e298 has the area 1e596; at c = 1e155 the
    # square of 1.3e154 is finite, but 2 such cells or an offset of 1.5
    # cells are not: every area would read inf and the sandwich "hold"
    code, out, err = _run_silently(capsys, tmp_path, command, c, cell)
    assert code == 2 and out == ""
    assert err == f"error: areas would overflow at --cell {float(cell)!r} and |c| = {float(c)!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, c, cell", [("oracle", "1e152", "2e150"), ("diff", "1e151", "2e149")])
def test_cell_just_inside_the_area_limit_runs_silently(tmp_path, capsys, command, c, cell):
    code, out, _ = _run_silently(capsys, tmp_path, command, c, cell)
    assert code == 0
    # oracle prints "name,value" lines, diff "# name,value" trailer lines
    fields = [line.removeprefix("# ").split(",") for line in out.splitlines()]
    areas = [float(f[1]) for f in fields if f[0].endswith(("_area", "_margin", "_bound"))]
    assert len(areas) >= 4 and all(map(math.isfinite, areas))


def test_exit_code_2_on_bad_flag_value(capsys):
    code, _, err = run_cli(capsys, "bounds", "--c-re", "5", "--depth", "0")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "cover", "--c-re", "5", "--depth", "1",
                           "--samples", "4")
    assert code == 2 and err.startswith("error:")
    # oracle has no difference-method option
    code, _, err = run_cli(capsys, "oracle", "--c-re", "5", "--depth", "1",
                           "--outdir", "unused", "--method", "fft")
    assert code == 2 and err.startswith("error:")


def test_verify_names_the_samples_below_their_floor(capsys):
    # "count" would read as --count, a separate flag with a floor of 1000
    code, out, err = run_cli(capsys, "verify", "--c-re", "5", "--samples", "15")
    assert code == 2 and out == ""
    assert err == "error: need samples >= 16, got 15\n"


def test_memory_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", "1000")
    code, _, err = run_cli(capsys, "diff", "--c-re", "5", "--depth", "3",
                           "--samples", "64", "--cell", "0.01")
    assert code == 2
    assert "cap" in err


_CAPPED_RUNS = {
    "cover": ("cover", "--c-re", "5", "--depth", "1", "--samples", "16"),
    "diff": ("diff", "--c-re", "5", "--depth", "1", "--samples", "16"),
    "oracle": ("oracle", "--c-re", "5", "--depth", "1", "--cell", "0.1"),
    "verify": ("verify", "--c-re", "5", "--depth", "1", "--samples", "16", "--count", "1000"),
}


@pytest.mark.parametrize("text", ["abc", "0", "-5"])
@pytest.mark.parametrize("command", sorted(_CAPPED_RUNS))
def test_malformed_memory_cap_exits_2(command, text, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", text)
    argv = _CAPPED_RUNS[command]
    if command == "oracle":
        argv += ("--outdir", str(tmp_path / "out"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: CANTORDIFF_MEMORY_CAP must be ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cap, count",
    [("1000", "1000"), (None, "10000000")],
    ids=["capped run", "over-cap count"],
)
def test_verify_obeys_the_memory_cap(cap, count, capsys, monkeypatch):
    if cap is None:
        monkeypatch.delenv("CANTORDIFF_MEMORY_CAP", raising=False)
    else:
        monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", cap)
    code, out, err = run_cli(capsys, "verify", "--c-re", "5", "--depth", "2",
                             "--count", count)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceeds the cap" in err
    assert err.count("\n") == 1


def test_oracle_refuses_the_difference_window_before_writing_it(tmp_path, capsys, monkeypatch):
    # the 66^2-cell rasters fit the cap; their 131^2-cell self-difference
    # does not, and is refused before anything is written
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", "10404")
    code, out, err = run_cli(capsys, "oracle", "--c-re", "5", "--depth", "1", "--cell", "0.1",
                             "--outdir", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err == (
        "error: difference window cells: 17161 needed, which exceeds the cap 10404; "
        "lower the depth, the sample count or the resolution\n"
    )
    assert not (tmp_path / "out").exists()


def test_oracle_fine_fits_a_cap_below_its_scan_window_difference(tmp_path, capsys, monkeypatch):
    # the rasters scan 1268^2 cells under the cap, but span only the box of
    # their live blocks, 1012 rows by 276 columns, so the self-difference
    # takes 2023 x 551 cells, not the 2535^2 of the scan window
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", "2000000")
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "oracle", "--c-re", "5", "--depth", "3",
                                "--cell", "0.005", "--outdir", str(out))
    assert code == 0 and err == "", err
    assert stdout.splitlines()[-1] == f"wrote {out}"
    for name, shape in (("inner", (1012, 276)), ("outer", (1012, 276)), ("diff", (2023, 551))):
        assert read_pgm(out / f"{name}.pgm").bits.shape == shape, name


def _render_run(command):
    # depth-1 pieces of 64 samples at c = 5; diff's union grid at a cell
    # of 0.05 stays under a cap of 100000 cells
    argv = (command, "--c-re", "5", "--depth", "1", "--samples", "64")
    return argv if command == "cover" else argv + ("--cell", "0.05")


@pytest.mark.parametrize("command", ["cover", "diff"])
def test_refused_render_leaves_no_output(command, tmp_path, capsys, monkeypatch):
    # the image is built before the table is printed or --output written
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", "100000")
    code, out, err = run_cli(capsys, *_render_run(command), "--output", str(tmp_path / "t.csv"),
                             "--render", str(tmp_path / "x.ppm"))
    assert code == 2 and out == ""
    assert err.startswith("error: render of 390x994 pixels: 387660 needed")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["cover", "diff"])
def test_render_writes_the_ppm_of_the_disks(command, tmp_path, capsys):
    from cantordiff.cover import difference_cover, generate_pieces
    from cantordiff.images import render_disks, write_ppm

    disks = generate_pieces(cantordiff.Parameter(5.0), 1, 64).disks
    disks = disks if command == "cover" else difference_cover(disks)
    cx, cy, r = disks.centers.real, disks.centers.imag, disks.radii
    spread = max(float((cx + r).max() - (cx - r).min()), float((cy + r).max() - (cy - r).min()))
    # the default cell fits the larger side of the disks into 900 pixels
    for cell, extra in ((spread / 900.0, ()), (0.05, ("--render-cell", "0.05"))):
        path = tmp_path / f"{cell}.ppm"
        code, out, _ = run_cli(capsys, *_render_run(command), "--render", str(path), *extra)
        assert code == 0 and out.endswith(f"\nwrote {path}\n")
        ref = write_ppm(render_disks(disks, cell), tmp_path / "ref.ppm").read_bytes()
        assert path.read_bytes() == ref
    assert (tmp_path / f"{spread / 900.0}.ppm").stat().st_size > (tmp_path / "0.05.ppm").stat().st_size


def test_bounds_ignores_the_memory_cap():
    # bounds allocates nothing capped: a malformed cap neither stops it nor
    # makes it load numpy or the raster module to check the value
    code = (
        "import contextlib, io, sys\n"
        "from cantordiff.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['bounds', '--c-re', '5', '--depth', '30'])\n"
        "print(code, [m for m in ('numpy', 'cantordiff.raster') if m in sys.modules])\n"
    )
    env = {**os.environ, "CANTORDIFF_MEMORY_CAP": "abc"}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0 []\n"


def test_output_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "b.csv"
    code, out, _ = run_cli(capsys, "bounds", "--c-re", "5", "--depth", "3",
                           "--output", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("n,R_n")


def test_written_paths_echo_as_given(tmp_path, capsys):
    given = f"{tmp_path}/./b.csv"
    code, out, _ = run_cli(capsys, "bounds", "--c-re", "5", "--depth", "3",
                           "--output", given)
    assert code == 0 and out == f"wrote {given}\n"
    assert (tmp_path / "b.csv").read_text().startswith("n,R_n")


def test_cli_entrypoint_subprocess():
    # the installed console script path, end to end
    r = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", "bounds", "--c-re", "5",
         "--depth", "2"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert r.stdout.startswith("n,R_n")


@pytest.mark.parametrize(
    "c_re, depth", [("2.01", 900), ("2.0000001", 200), ("2.0000000001", 64)]
)
def test_bounds_saturate_at_inf_near_two(c_re, depth):
    # K_n and the bound leave double range: they print inf, with no
    # traceback and no overflow or division warning
    r = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", "bounds", "--c-re", c_re,
         "--depth", str(depth)],
        capture_output=True, text=True,
    )
    assert r.returncode == 0 and r.stderr == ""
    last = r.stdout.splitlines()[depth].split(",")
    assert last[0] == str(depth)
    assert last[3:5] == ["inf", "inf"]


def test_stdout_determinism_subprocess():
    argv = [sys.executable, "-m", "cantordiff.cli", "verify", "--c-re", "5",
            "--depth", "2", "--samples", "64", "--cell", "0.05",
            "--count", "2000"]
    a = subprocess.run(argv, capture_output=True)
    b = subprocess.run(argv, capture_output=True)
    assert a.stdout == b.stdout


def test_import_does_not_load_scipy():
    # every CLI call pays the import; keep heavy dependencies out of it,
    # including lazily on the mask difference path
    code = (
        "import sys\n"
        "import cantordiff.cli\n"
        "from cantordiff import Disks, disk_mask, mask_difference\n"
        "m = disk_mask(Disks(0j, 1.0), 0.1)\n"
        "mask_difference(m, m)\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_bounds_runs_without_numpy():
    # bounds needs only the standard library: with numpy unimportable it
    # still answers, and none of the numpy-backed modules is loaded
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from cantordiff.cli import main\n"
        "out = {}\n"
        "for fmt in ('csv', 'json'):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        out[fmt] = main(['bounds', '--c-re', '5', '--depth', '300', '--format', fmt])\n"
        "    out[fmt + '_rows'] = buf.getvalue().count('\\n')\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    out['help'] = exc.code\n"
        "out['loaded'] = sorted(n for n in sys.modules if n.startswith('cantordiff.'))\n"
        "print(json.dumps(out))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["csv"] == out["json"] == out["help"] == 0
    assert out["csv_rows"] == 1 + 300 + 8
    assert out["json_rows"] > 300
    assert out["loaded"] == ["cantordiff.bounds", "cantordiff.cli"]


def test_cli_imports_only_what_it_runs():
    # -S: no site hooks, so nothing is preloaded that a plain interpreter
    # lacks; numpy's directory goes on the path by hand for verify
    path = [str(Path(m.__file__).resolve().parents[1]) for m in (cantordiff, numpy)]
    code = (
        "import contextlib, io, sys\n"
        "from cantordiff.cli import main\n"
        "def loaded(*argv):\n"
        "    if argv:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert main(list(argv)) == 0\n"
        "    heavy = ('dataclasses', 'inspect', 'json', 'typing', 'numpy', 'pathlib')\n"
        "    return [m for m in heavy if m in sys.modules]\n"
        "print(loaded())\n"
        "print(loaded('bounds', '--c-re', '5', '--depth', '30'))\n"
        "print(loaded('verify', '--c-re', '5', '--depth', '1', '--samples', '16', '--count', '1000'))\n"
    )
    r = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert r.returncode == 0, r.stderr
    on_import, after_bounds, after_verify = map(ast.literal_eval, r.stdout.splitlines())
    assert on_import == after_bounds == []
    assert "dataclasses" not in after_verify and "json" not in after_verify
    assert "numpy" in after_verify


def test_package_resolves_names_lazily():
    import importlib

    import cantordiff

    for name in cantordiff.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"cantordiff.{cantordiff._HOME[name]}")
        assert getattr(cantordiff, name) is getattr(home, name), name
        assert getattr(home, name).__module__ == home.__name__, name
    assert set(cantordiff.__all__) <= set(dir(cantordiff))
    namespace = {}
    exec("from cantordiff import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(cantordiff.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        cantordiff.no_such_name
