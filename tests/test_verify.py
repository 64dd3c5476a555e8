"""The cross-validation harness: every check green and fully reproducible."""

import dataclasses
import json
import math

import pytest

from cantordiff import Disk, Parameter, VerifyConfig, run_verification
from cantordiff import bounds as bnd
from cantordiff import verify
from cantordiff.verify import REPORT_SCHEMA, raster_diff_proof

SMALL = dict(depth=2, samples=64, cell=0.05, count=2000)


def _cfg(p5, **kw):
    return VerifyConfig(param=p5, **{**SMALL, **kw})


def test_all_checks_pass(p5):
    rep = run_verification(_cfg(p5))
    failed = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert rep["passed"] and not failed, failed


def test_report_shape(p5):
    rep = run_verification(_cfg(p5))
    assert rep["schema"] == REPORT_SCHEMA
    assert rep["config"]["depth"] == 2
    assert rep["config"]["c"] == [5.0, 0.0]
    names = [c["name"] for c in rep["checks"]]
    assert len(names) == len(set(names))
    assert all({"name", "passed", "detail"} <= set(c) for c in rep["checks"])


def test_report_repeatable(p5):
    a = run_verification(_cfg(p5))
    b = run_verification(_cfg(p5))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_thread_invariant(p5):
    a = run_verification(_cfg(p5, workers=1))
    b = run_verification(_cfg(p5, workers=8))
    assert "workers" not in a["config"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_config_validation(p5):
    with pytest.raises(ValueError):
        VerifyConfig(param=p5, depth=0)
    with pytest.raises(ValueError):
        VerifyConfig(param=p5, count=10)


def test_raster_diff_proof_exact_subset():
    ok, detail = raster_diff_proof(Disk(1 + 2j, 0.8), Disk(-0.3j, 0.6), 0.01)
    assert ok, detail


def test_raster_diff_proof_concentric():
    ok, detail = raster_diff_proof(Disk(0j, 1.0), Disk(0j, 1.0), 0.02)
    assert ok, detail


@pytest.mark.parametrize("c", [2.01, complex(-1.5, 1.4), 2.0000001])
def test_all_checks_pass_where_the_bound_saturates(c):
    # near |c| = 2 the bound table passes double range inside its 200 rows;
    # at the last parameter K_n does too
    rep = run_verification(VerifyConfig(param=Parameter(c)))
    failed = [ch["name"] for ch in rep["checks"] if not ch["passed"]]
    assert len(rep["checks"]) == 24
    assert rep["passed"] and not failed, failed
    detail = next(ch["detail"] for ch in rep["checks"] if ch["name"] == "bound-telescoping")
    # one step from finite to +inf for each quantity that saturates
    first, last = bnd.bound_table(Parameter(c), 200)[::199]
    steps = sum(
        math.isfinite(getattr(first, q)) and math.isinf(getattr(last, q))
        for q in ("diam_bound", "bound")
    )
    assert steps == (2 if c == 2.0000001 else 1)
    assert f", {steps} steps from finite to +inf," in detail


@pytest.mark.parametrize("c", [5.0, 2.01])
@pytest.mark.parametrize("edit", ["ratio_step", "bound", "diam_bound"])
def test_bound_telescoping_rejects_a_bad_finite_row(monkeypatch, c, edit):
    # rows up to 40 are finite at both parameters; a ratio_step off by 1e-6,
    # or a bound or K_n saturating from row 40 on where the prediction stays
    # far below double range, must fail
    table = bnd.bound_table

    def tampered(param, depth):
        rows = table(param, depth)
        assert math.isfinite(rows[40].bound)
        if edit == "ratio_step":
            rows[40] = dataclasses.replace(rows[40], ratio_step=rows[40].ratio_step * (1.0 + 1e-6))
        else:
            rows[40:] = [dataclasses.replace(row, **{edit: math.inf}) for row in rows[40:]]
        return rows

    cfg = VerifyConfig(param=Parameter(c))
    check = dict(verify._CHECKS)["bound-telescoping"]
    assert check(verify._Ctx(cfg))[0]
    monkeypatch.setattr(bnd, "bound_table", tampered)
    assert not check(verify._Ctx(cfg))[0]
