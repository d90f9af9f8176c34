import numpy as np
import pytest

import qecwb as q
from qecwb.recovery import RecoveryOperation


def qec_recovery_fidelity_closed(gamma):
    """Explicit four-piece closed form for the damping-adapted recovery."""
    c = 1.0 - gamma
    t_main = np.sqrt((1 + c**4) / 2) + np.sqrt(2 * c**2 / 2)
    t_weight1 = np.sqrt(gamma * c**3 / 2) + np.sqrt(gamma * c / 2)
    t_cross = 0.25 * (2 / (1 + c**4)) * (gamma**2 / 2) ** 2
    t_leftover = 0.25 * ((gamma**2 * c**2 * (c**2 - 1)) / (2 * (1 + c**4))) ** 2
    return 0.25 * t_main**2 + t_weight1**2 + t_cross + t_leftover


def cp_recovery_fidelity_closed(gamma):
    g = gamma
    return 0.25 * (
        ((1 - g + g**2 / 2) + (1 - g)) ** 2
        + (g - g**2 / 2) ** 2
        + 2 * (g**2 / 2) ** 2
        + 4 * ((2 - g) * np.sqrt(g * (1 - g) / 2)) ** 2
        + 4 * (g * (1 - g) / np.sqrt(2)) ** 2
    )


def bitflip_fidelity(p):
    return q.entanglement_fidelity(
        q.repetition3(), q.repetition_recovery(), q.enlarge(q.bitflip_single(p), 3)
    ).value


def test_bitflip_closed_form_samples():
    for p in (0.0, 0.1, 0.37, 0.75, 1.0):
        assert abs(bitflip_fidelity(p) - (1 - 3 * p**2 + 2 * p**3)) <= 1e-12
    assert abs(bitflip_fidelity(0.1) - 0.972) <= 1e-12


def test_identity_channel_with_exact_recovery():
    result = q.entanglement_fidelity(
        q.repetition3(), q.repetition_recovery(), q.enlarge(q.bitflip_single(0.0), 3)
    )
    assert abs(result.value - 1.0) <= 1e-12
    assert q.nonvanishing_terms(result) == [(0, 0)]


def test_ad_standard_recovery_matches_explicit_form():
    for gamma in (1e-3, 0.01, 0.1, 0.25):
        value = q.entanglement_fidelity(
            q.leung4(), q.standard_ad_recovery(gamma), q.enlarge(q.ad_single(gamma), 4)
        ).value
        assert abs(value - qec_recovery_fidelity_closed(gamma)) <= 1e-12


def test_cp_recovery_matches_explicit_form():
    for gamma in (0.01, 0.1, 0.3):
        value = q.entanglement_fidelity(
            q.leung4(), q.cp_recovery(), q.enlarge(q.ad_single(gamma), 4)
        ).value
        assert abs(value - cp_recovery_fidelity_closed(gamma)) <= 1e-12


def test_cp_recovery_is_the_even_channel_adapted_member():
    even = q.FletcherParams(1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 0.0)
    for gamma in (0.0, 1e-3, 0.01, 0.1, 0.3, 0.9):
        assert abs(q.fletcher_fidelity_closed(even, gamma) - cp_recovery_fidelity_closed(gamma)) <= 1e-12


def test_term_table_consistency():
    result = q.entanglement_fidelity(
        q.leung4(), q.standard_ad_recovery(0.1), q.enlarge(q.ad_single(0.1), 4)
    )
    assert abs(result.value - sum(t.contribution for t in result.terms)) <= 1e-15
    assert len(result.terms) == 6 * 16  # five operators plus the leftover row


def test_nonvanishing_terms_bitflip():
    result = q.entanglement_fidelity(
        q.repetition3(), q.repetition_recovery(), q.enlarge(q.bitflip_single(0.3), 3)
    )
    assert q.nonvanishing_terms(result) == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_nonvanishing_terms_ad_standard():
    result = q.entanglement_fidelity(
        q.leung4(), q.standard_ad_recovery(0.1), q.enlarge(q.ad_single(0.1), 4)
    )
    assert sorted(q.nonvanishing_terms(result)) == [
        (0, 0), (0, 15), (1, 1), (2, 2), (3, 3), (4, 4),
    ]
    # the leftover row carries its own (small) weight at this damping rate
    leftover = [t for t in result.terms if t.key == ("O", 15)]
    assert len(leftover) == 1 and leftover[0].contribution > 1e-14


def test_fidelity_rejects_incomplete_recovery():
    rec = q.repetition_recovery()
    clipped = RecoveryOperation(3, rec.labels[:2], rec.stack[:2])
    with pytest.raises(ValueError):
        q.entanglement_fidelity(q.repetition3(), clipped, q.enlarge(q.bitflip_single(0.1), 3))


def test_fidelity_rejects_code_of_another_dimension():
    channel = q.enlarge(q.bitflip_single(0.1), 3)
    with pytest.raises(ValueError, match="dimensions differ"):
        q.entanglement_fidelity(q.leung4(), q.repetition_recovery(), channel)
    with pytest.raises(ValueError, match="dimensions differ"):
        q.entanglement_fidelity(q.repetition3(), q.cp_recovery(), channel)


def test_fidelity_rejects_recovery_with_nan_entry():
    ops = [op.copy() for op in q.repetition_recovery().operators()]
    ops[1][0, 4] = np.nan
    rec = RecoveryOperation(3, tuple("r%d" % k for k in range(len(ops))), ops)
    assert np.isnan(rec.completeness_defect())
    with pytest.raises(ValueError, match="not trace preserving"):
        q.entanglement_fidelity(q.repetition3(), rec, q.enlarge(q.bitflip_single(0.1), 3))


def test_fidelity_bounds_across_triples():
    for p in np.linspace(0, 1, 9):
        f = bitflip_fidelity(p)
        assert -1e-12 <= f <= 1 + 1e-12
    for gamma in (0.0, 0.2, 0.6):
        for rec in (q.standard_ad_recovery(gamma), q.cp_recovery()):
            f = q.entanglement_fidelity(q.leung4(), rec, q.enlarge(q.ad_single(gamma), 4)).value
            assert -1e-12 <= f <= 1 + 1e-12


def test_all_ad_recoveries_ideal_at_zero_damping():
    channel = q.enlarge(q.ad_single(0.0), 4)
    code = q.leung4()
    opt = q.closed_form_optimum(0.0)
    for rec in (
        q.standard_ad_recovery(0.0),
        q.cp_recovery(),
        q.fletcher_recovery(opt.a_bar, opt.b_bar),
    ):
        assert abs(q.entanglement_fidelity(code, rec, channel).value - 1.0) <= 1e-12


def test_recovery_ranking_at_small_damping():
    code = q.leung4()
    for gamma in np.logspace(-4, -2, 7):
        channel = q.enlarge(q.ad_single(gamma), 4)
        f_qec = q.entanglement_fidelity(code, q.standard_ad_recovery(gamma), channel).value
        f_cp = q.entanglement_fidelity(code, q.cp_recovery(), channel).value
        opt = q.closed_form_optimum(gamma)
        f_fl = q.entanglement_fidelity(code, q.fletcher_recovery(opt.a_bar, opt.b_bar), channel).value
        assert f_fl >= f_cp >= f_qec


def test_baseline_values():
    for p in (0.0, 0.1, 0.5, 1.0):
        assert abs(q.baseline_no_qec(q.bitflip_single(p)) - (1 - 2 * p + p**2)) <= 1e-12
    gamma = 0.1
    expected = 0.25 * (1 + np.sqrt(1 - gamma)) ** 2
    assert abs(q.baseline_no_qec(q.ad_single(gamma)) - expected) <= 1e-12
    with pytest.raises(ValueError):
        q.baseline_no_qec(q.enlarge(q.bitflip_single(0.1), 2))


def test_threshold_analysis_bitflip():
    coded = lambda p: 1 - 3 * p**2 + 2 * p**3
    baseline = lambda p: 1 - 2 * p + p**2
    report = q.threshold_analysis(coded, baseline, np.linspace(0.0, 1.0, 101))
    assert report.coding_useful_range == (0.0, 1.0)
    assert abs(report.failure_threshold - 0.5) <= 1e-10


def test_threshold_analysis_trivial_point():
    report = q.threshold_analysis(lambda p: 1.0, lambda p: 1.0, np.linspace(0.0, 1.0, 101))
    assert report.coding_useful_range == (0.0, 1.0)
    assert report.failure_threshold == 1.0


def test_second_order_coeff_constant_curve():
    fit = q.second_order_coeff(lambda g: 1.0, np.logspace(-4, -2, 9))
    assert abs(fit.c0 - 1.0) <= 1e-12
    assert abs(fit.c1) <= 1e-9
    assert abs(fit.c2) <= 1e-6
    assert fit.residual <= 1e-12


def test_second_order_coeff_known_quadratics():
    grid = np.logspace(-4, -2, 9)
    known = lambda g: 1 - 2 * g**2 + 1.5 * g**3
    fit = q.second_order_coeff(known, grid)
    assert abs(fit.c0 - 1.0) <= 1e-8
    assert abs(fit.c1) <= 1e-5
    assert abs(fit.c2 + 2.0) <= 1e-3


def test_second_order_fit_residual_on_recovery_curves():
    grid = np.logspace(-4, -2, 9)
    code = q.leung4()
    curves = [
        lambda g: q.entanglement_fidelity(
            code, q.standard_ad_recovery(g), q.enlarge(q.ad_single(g), 4)
        ).value,
        lambda g: q.entanglement_fidelity(
            code, q.cp_recovery(), q.enlarge(q.ad_single(g), 4)
        ).value,
        lambda g: q.closed_form_optimum(g).f_star,
    ]
    for curve in curves:
        assert q.second_order_coeff(curve, grid).residual <= 1e-6


def test_second_order_coeff_validates_grid():
    with pytest.raises(ValueError):
        q.second_order_coeff(lambda g: 1.0, [1e-3, 1e-2])
    with pytest.raises(ValueError):
        q.second_order_coeff(lambda g: 1.0, [0.0, 1e-3, 1e-2])
    with pytest.raises(ValueError):
        q.second_order_coeff(lambda g: 1.0, [1e-4, 1e-3, 0.5])


def test_second_order_coeff_rejects_non_finite_samples():
    with pytest.raises(ValueError, match="curve values must be finite"):
        q.second_order_coeff(lambda g: float("nan"), np.logspace(-4, -2, 9))


def bitflip_coded(p):
    return 1 - 3 * p**2 + 2 * p**3


def bitflip_baseline(p):
    return (1 - p) ** 2


@pytest.mark.parametrize("grid, message", [
    (np.linspace(1.0, 0.0, 101), "grid must be strictly increasing"),
    ([0.0, 0.5, 0.5, 1.0], "grid must be strictly increasing"),
    ([], "grid is empty"),
    ([0.0, float("nan"), 1.0], "grid values must be finite"),
    ([0.0, 0.5, float("inf")], "grid values must be finite"),
], ids=["descending", "repeated", "empty", "nan", "inf"])
def test_threshold_analysis_rejects_bad_grids(grid, message):
    with pytest.raises(ValueError, match=message):
        q.threshold_analysis(bitflip_coded, bitflip_baseline, grid)


@pytest.mark.parametrize("coded, baseline", [
    (lambda p: float("nan"), bitflip_baseline),  # would read "useful everywhere, never fails"
    (bitflip_coded, lambda p: float("inf") if p > 0.5 else bitflip_baseline(p)),
    # finite on the grid, NaN inside the (0.4, 0.6) bracket the bisection searches
    (lambda p: float("nan") if 0.4 < p < 0.6 else bitflip_coded(p), bitflip_baseline),
], ids=["nan-coded", "inf-baseline", "nan-in-bisection"])
def test_threshold_analysis_rejects_non_finite_curve_values(coded, baseline):
    with pytest.raises(ValueError, match="curve values must be finite"):
        q.threshold_analysis(coded, baseline, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
