"""Radius recursions, diameter bounds and the decay certificate.

The frozen decimals were produced by an independent 50-digit mpmath run of
the defining recursions (R_1 = sqrt(2|c|), R_{k+1} = sqrt(|c|+R_k), r_1 = 0,
r_{k+1} = sqrt(|c|-R_k)) and rounded to the nearest double.
"""

import cmath
import math
import sys

import numpy as np
import pytest

from cantordiff import (
    Parameter,
    bound_table,
    decay_condition,
    decay_parameters,
    difference_measure_bound,
    first_piece_diameter,
    generate_pieces,
    piece_diameter_bound,
    radius_limits,
    radius_sequences,
)

# mpmath oracle, c = 5
R1 = 3.1622776601683795
R2 = 2.8569700138728056
R3 = 2.8030287215568817
r2 = 1.355626179974266
r3 = 1.4639091454483077
r4 = 1.482218363954218
R_LIM = 2.79128784747792
r_LIM = 1.486173661629784
DIAM0 = 6.324555320336759
K1 = 3.2989448131523065
K2 = 1.5934774746050349
K8 = 0.018545894915872947
BOUND1 = 1641.1232981596843
BOUND8 = 849.7802605708174
STEP1 = 0.9332580565586611
STEP_LIMIT_C5 = 0.9055050463303893
STEP_LIMIT_C3 = 2.86851709182133

REL = 1e-13


def test_radius_sequence_oracle_values(p5):
    rb = radius_sequences(p5, 8)
    assert rb.outer(1) == pytest.approx(R1, rel=REL)
    assert rb.outer(2) == pytest.approx(R2, rel=REL)
    assert rb.outer(3) == pytest.approx(R3, rel=REL)
    assert rb.inner(1) == 0.0
    assert rb.inner(2) == pytest.approx(r2, rel=REL)
    assert rb.inner(3) == pytest.approx(r3, rel=REL)
    assert rb.inner(4) == pytest.approx(r4, rel=REL)


def test_radius_limits_oracle(p5):
    lo, li = radius_limits(p5)
    assert lo == pytest.approx(R_LIM, rel=REL)
    assert li == pytest.approx(r_LIM, rel=REL)


def test_radius_limits_closed_form(p5):
    # fixed points: R^2 = |c| + R, r^2 = |c| - R
    lo, li = radius_limits(p5)
    assert lo == pytest.approx((1 + math.sqrt(21)) / 2, abs=1e-12)
    assert li == pytest.approx(math.sqrt((9 - math.sqrt(21)) / 2), abs=1e-12)


def test_radius_defining_equations(p5):
    rb = radius_sequences(p5, 64)
    o, i = rb.outer_seq, rb.inner_seq
    assert np.allclose(o[1:] ** 2, 5.0 + o[:-1], rtol=1e-15)
    assert np.allclose(i[1:] ** 2, 5.0 - o[:-1], rtol=1e-15)


def test_first_piece_diameter_certified(p5):
    assert first_piece_diameter(p5) == pytest.approx(DIAM0, rel=REL)


def test_first_piece_diameter_sampled_below_certified(p5):
    pieces = generate_pieces(p5, 0, samples=2048)
    assert len(pieces) == 2
    assert np.all(pieces.sampled_diam > 0)
    assert np.all(pieces.sampled_diam <= first_piece_diameter(p5))


def test_depth_zero_row(p5):
    k0 = first_piece_diameter(p5)
    assert piece_diameter_bound(p5, 0) == k0
    row = difference_measure_bound(p5, 0)
    assert (row.n, row.outer_radius, row.inner_radius) == (0, 5.0, 0.0)
    assert row.diam_bound == k0
    assert row.bound == 12.0 * math.pi * k0 * k0
    # the seeds continue the recursion: R_1 = sqrt(|c| + R_0), r_1 = sqrt(|c| - R_0)
    rb = radius_sequences(p5, 2)
    assert rb.outer(1) == math.sqrt(5.0 + row.outer_radius)
    assert rb.inner(1) == math.sqrt(5.0 - row.outer_radius)


def test_piece_diameter_bound_oracle(p5):
    assert piece_diameter_bound(p5, 1) == pytest.approx(K1, rel=REL)
    assert piece_diameter_bound(p5, 2) == pytest.approx(K2, rel=REL)
    assert piece_diameter_bound(p5, 8) == pytest.approx(K8, rel=REL)


def test_measure_bound_oracle(p5):
    assert difference_measure_bound(p5, 1).bound == pytest.approx(BOUND1, rel=REL)
    assert difference_measure_bound(p5, 8).bound == pytest.approx(BOUND8, rel=REL)


def test_measure_bound_is_twelve_pi_formula(p5):
    for n in (1, 3, 6):
        k = piece_diameter_bound(p5, n)
        row = difference_measure_bound(p5, n)
        assert row.bound == pytest.approx(12 * math.pi * 4**n * k * k, rel=1e-12)


def test_ratio_step_oracle(p5):
    rows = bound_table(p5, 50)
    assert rows[0].ratio_step == pytest.approx(STEP1, rel=REL)
    assert rows[49].ratio_step == pytest.approx(STEP_LIMIT_C5, rel=1e-12)


def test_ratio_step_is_actual_bound_ratio(p5):
    rows = bound_table(p5, 30)
    for a, b in zip(rows, rows[1:]):
        assert b.bound / a.bound == pytest.approx(a.ratio_step, rel=1e-12)


def test_bound_table_log_space_switch_is_seamless(p5):
    # rows above depth 64 come from the log-space path
    rows = bound_table(p5, 80)
    for a, b in zip(rows[60:], rows[61:]):
        assert b.bound / a.bound == pytest.approx(a.ratio_step, rel=1e-10)
    assert rows[79].bound > 0


def test_bound_table_deep_does_not_overflow(p3):
    rows = bound_table(p3, 900)
    assert math.isfinite(math.log(rows[-1].bound)) or rows[-1].bound == math.inf
    assert rows[-1].bound > 1e100


def test_decay_condition_truth_table():
    for a, want in ((3.0, False), (4.0, False), (4.73, False), (4.74, True),
                    (5.0, True), (10.0, True)):
        assert decay_condition(Parameter(a)) is want, a


def test_decay_condition_boundary_double_exact():
    # float(3+sqrt(3)) lands strictly below the real threshold; the exact
    # rational evaluation of x^2-6x+6 must see that and say no
    assert decay_condition(Parameter(3.0 + math.sqrt(3.0))) is False


def test_decay_condition_matches_limit_ratio():
    for a in (2.2, 3.0, 4.0, 4.73, 4.74, 5.0, 8.0):
        p = Parameter(a)
        _, li = radius_limits(p)
        assert decay_condition(p) is bool(2.0 / (li * li) < 1.0), a


def test_decay_parameters_epsilon_point_one(p5):
    dp = decay_parameters(p5, 0.1)
    assert dp.epsilon == 0.1
    assert dp.delta == pytest.approx(0.05504208336119309, rel=REL)
    assert dp.settle_index == 3
    assert dp.ratio == pytest.approx(0.926478316093856, rel=REL)
    assert dp.ratio == pytest.approx(2.0 / (math.sqrt(2) + dp.delta) ** 2, rel=1e-15)


def test_decay_parameters_auto_epsilon(p5):
    dp = decay_parameters(p5)
    assert dp.epsilon == pytest.approx(0.20871215252208, rel=REL)
    assert dp.settle_index == 2
    assert 0 < dp.ratio < 1


def test_decay_envelope_dominates_bounds(p5):
    dp = decay_parameters(p5, 0.1)
    rows = bound_table(p5, 200)
    for row in rows[dp.settle_index - 1 :]:
        env = dp.prefactor * dp.ratio**row.n
        assert row.bound <= env * (1 + 1e-12), row.n


def test_decay_parameters_rejected_without_decay(p3):
    with pytest.raises(ValueError, match="decay not guaranteed"):
        decay_parameters(p3)


def test_decay_parameters_epsilon_out_of_margin(p5):
    with pytest.raises(ValueError):
        decay_parameters(p5, 1e9)
    with pytest.raises(ValueError):
        decay_parameters(p5, -0.1)


def test_bound_depth_validation(p5):
    with pytest.raises(ValueError):
        difference_measure_bound(p5, -1)
    with pytest.raises(ValueError):
        piece_diameter_bound(p5, -1)
    with pytest.raises(ValueError):
        bound_table(p5, 0)


def test_frozen_fixtures_match_live_oracle():
    # regenerate the module constants at 50 digits; every frozen double
    # must be the correctly rounded value
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    a = mp.mpf(5)
    R = [mp.sqrt(2 * a)]
    r = {1: mp.mpf(0)}
    for k in range(1, 10):
        r[k + 1] = mp.sqrt(a - R[-1])
        R.append(mp.sqrt(a + R[-1]))
    assert [float(x) for x in R[:3]] == [R1, R2, R3]
    assert [float(r[k]) for k in (2, 3, 4)] == [r2, r3, r4]
    assert float((1 + mp.sqrt(21)) / 2) == R_LIM
    assert float(mp.sqrt((9 - mp.sqrt(21)) / 2)) == r_LIM
    diam0 = 2 * R[0]
    assert float(diam0) == DIAM0
    k1 = diam0 / (mp.sqrt(2) * r[2])
    k8 = diam0 * mp.mpf(2) ** -4 / mp.fprod(r[k] for k in range(2, 10))
    assert float(k1) == K1
    assert float(k8) == K8
    assert float(12 * mp.pi * 4 * k1 * k1) == BOUND1
    assert float(12 * mp.pi * 4**8 * k8 * k8) == BOUND8
    assert float(2 / r[3] ** 2) == STEP1


def _walk_cases(count=60, seed=601):
    # a fixed draw: |c| in (2.2, 50), any argument, half the depths in the
    # running-product range 0..64 and half in log space 65..300, plus the
    # depths at either side of the switch and at both ends
    rng = np.random.default_rng(seed)
    mags = rng.uniform(2.2, 50.0, count).tolist()
    args = rng.uniform(-math.pi, math.pi, count).tolist()
    half = count // 2
    depths = rng.integers(0, 65, half).tolist() + rng.integers(65, 301, count - half).tolist()
    extras = rng.integers(0, 21, count).tolist()
    fixed = [(3.7, 0.4, n, 3) for n in (0, 1, 64, 65, 300)]
    return list(zip(mags, args, depths, extras)) + fixed


@pytest.mark.parametrize("mag, arg, n, extra", _walk_cases())
def test_row_walk_matches_mpmath(mag, arg, n, extra):
    # rows up to 64 come from the running product, deeper ones from log space
    mp = pytest.importorskip("mpmath")
    p = Parameter(mag * cmath.exp(1j * arg))
    with mp.workdps(50):
        a = mp.mpf(p.abs_c)
        outer = mp.sqrt(2 * a)  # R_1
        k = 2 * outer  # K_0
        for _ in range(n):
            k /= mp.sqrt(2) * mp.sqrt(a - outer)  # r_{j+1} from R_j
            outer = mp.sqrt(a + outer)
        bound = 12 * mp.pi * mp.mpf(4) ** n * k * k
        saturates = bound >= mp.exp(709) * (1 - mp.mpf("1e-12"))
    row = difference_measure_bound(p, n)
    assert row.diam_bound == pytest.approx(float(k), rel=1e-12)
    if math.isinf(row.bound):
        assert saturates
    elif bound >= sys.float_info.min:
        # below the normal double range the bound underflows; not checked here
        assert row.bound == pytest.approx(float(bound), rel=1e-12)
    # the three public entry points read the same row
    assert piece_diameter_bound(p, n) == row.diam_bound
    if n:
        assert bound_table(p, n + extra)[n - 1] == row
