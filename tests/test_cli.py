"""Command line interface: formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from cantordiff.cli import main


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


def test_verify_cli_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--c-re", "5", "--depth", "2",
                           "--samples", "64", "--cell", "0.05", "--count", "2000")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith(("PASS", "FAIL")) for l in lines[:-1])
    assert lines[-1].startswith("verify: ")
    assert "FAIL" not in out


def test_verify_report_file(tmp_path, capsys):
    rp = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify", "--c-re", "5", "--depth", "2",
                         "--samples", "64", "--cell", "0.05",
                         "--count", "2000", "--report", str(rp))
    assert code == 0
    rep = json.loads(rp.read_text())
    assert rep["passed"] is True


def test_exit_code_1_on_verify_failure(capsys, monkeypatch):
    import cantordiff.cli as cli_mod

    def forced_failure(cfg):
        return {
            "schema": "cantordiff-verify/1",
            "config": {},
            "checks": [{"name": "forced", "passed": False, "detail": "x"}],
            "passed": False,
        }

    monkeypatch.setattr(cli_mod, "run_verification", forced_failure)
    code, out, _ = run_cli(capsys, "verify", "--c-re", "5")
    assert code == 1
    assert "FAIL forced" in out


def test_exit_code_2_on_bad_parameter(capsys):
    code, _, err = run_cli(capsys, "bounds", "--c-re", "1")
    assert code == 2
    assert err.startswith("error:")


def test_exit_code_2_on_bad_flag_value(capsys):
    code, _, err = run_cli(capsys, "bounds", "--c-re", "5", "--depth", "0")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "cover", "--c-re", "5", "--depth", "1",
                           "--samples", "4")
    assert code == 2 and err.startswith("error:")
    # oracle picks its difference method itself
    code, _, err = run_cli(capsys, "oracle", "--c-re", "5", "--depth", "1",
                           "--outdir", "unused", "--method", "fft")
    assert code == 2 and err.startswith("error:")


def test_memory_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CANTORDIFF_MEMORY_CAP", "1000")
    code, _, err = run_cli(capsys, "diff", "--c-re", "5", "--depth", "3",
                           "--samples", "64", "--cell", "0.01")
    assert code == 2
    assert "cap" in err


def test_output_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "b.csv"
    code, out, _ = run_cli(capsys, "bounds", "--c-re", "5", "--depth", "3",
                           "--output", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("n,R_n")


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
    # K_n and the bound leave double range (at the last case the running
    # product of the inner radii underflows first): they print inf, with no
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
    # including lazily on the FFT difference path
    code = (
        "import sys\n"
        "import cantordiff.cli\n"
        "from cantordiff import Disk, disk_mask, mask_difference\n"
        "m = disk_mask(Disk(0j, 1.0), 0.1)\n"
        "mask_difference(m, m, method='fft')\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
