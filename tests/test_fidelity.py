from itertools import permutations

import numpy as np
import pytest

import qecwb as q
from qecwb.channels import KrausChannel, _single_qubit_pair
from qecwb.fidelity import _channel_factors, _recovery_factors
from qecwb.recovery import RecoveryOperation
from test_channels import WEIGHT_ERROR
from test_kernel_oracle import permute_qubits_matrix


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


def damping_point(gamma):
    opt = q.closed_form_optimum(gamma)
    recoveries = (q.standard_ad_recovery(gamma), q.cp_recovery(),
                  q.fletcher_recovery(opt.a_bar, opt.b_bar))
    return recoveries, q.enlarge(q.ad_single(gamma), 4)


def test_cold_and_warm_factor_caches_agree():
    for gamma in (0.0, 1e-3, 0.1, 0.5):
        recoveries, channel = damping_point(gamma)
        for rec in recoveries:
            _recovery_factors.cache_clear()
            _channel_factors.cache_clear()
            cold = q.entanglement_fidelity(q.leung4(), rec, channel)
            warm = q.entanglement_fidelity(q.leung4(), rec, channel)
            assert warm.value == cold.value and warm.row_keys == cold.row_keys
            assert warm.table.tobytes() == cold.table.tobytes()
    assert _recovery_factors.cache_info().hits and _channel_factors.cache_info().hits


def test_one_channel_gives_each_code_its_own_fidelity():
    recoveries, channel = damping_point(0.1)
    for rec in recoveries:
        for first, second in ((q.leung4(), q.grassl4()), (q.grassl4(), q.leung4())):
            q.entanglement_fidelity(first, rec, channel)
            shared = q.entanglement_fidelity(second, rec, channel)
            # a new channel object of the same operators misses both caches
            fresh = q.entanglement_fidelity(
                second, rec, KrausChannel(4, channel.labels, channel.stack))
            assert shared.value == fresh.value
            assert shared.table.tobytes() == fresh.table.tobytes()
    leung = q.entanglement_fidelity(q.leung4(), q.cp_recovery(), channel).value
    grassl = q.entanglement_fidelity(q.grassl4(), q.cp_recovery(), channel).value
    assert leung != grassl


def test_fidelity_is_unchanged_under_every_qubit_permutation():
    gamma = 0.1
    code, recovery = q.leung4(), q.standard_ad_recovery(gamma)
    channel = q.enlarge(q.ad_single(gamma), 4)
    expected = q.entanglement_fidelity(code, recovery, channel).value
    for perm in permutations(range(4)):
        m = permute_qubits_matrix(perm, 4)  # real, so its inverse is m.T
        moved = q.QuantumCode(4, m @ code.zero_logical, m @ code.one_logical)
        moved_recovery = RecoveryOperation(4, recovery.labels, m @ recovery.stack @ m.T)
        moved_channel = KrausChannel(4, channel.labels, m @ channel.stack @ m.T)
        # damping acts alike on every qubit, so moving the channel only reorders its operators
        for errors in (moved_channel, channel):
            value = q.entanglement_fidelity(moved, moved_recovery, errors).value
            assert abs(value - expected) <= 1e-13, perm


def test_cached_factors_are_read_only():
    recoveries, channel = damping_point(0.1)
    for rec in recoveries:
        q.entanglement_fidelity(q.leung4(), rec, channel)
        for factors in (_recovery_factors(q.leung4(), rec)[0], _channel_factors(q.leung4(), channel)):
            with pytest.raises(ValueError):
                factors[0, 0, 0] = 0.0


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
    # its completeness defect would be NaN; the recovery is refused before the fidelity's gate
    with pytest.raises(ValueError, match=WEIGHT_ERROR):
        RecoveryOperation(3, tuple("r%d" % k for k in range(len(ops))), ops)


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


@pytest.mark.parametrize("entry", [1e200, -1e200j, 2e154])
def test_baseline_names_a_trace_too_large_to_square(entry):
    # Python's abs(trace) ** 2 raises OverflowError above about 1.3e154; no such channel is built
    with pytest.raises(ValueError, match=WEIGHT_ERROR):
        q.baseline_no_qec(KrausChannel(1, ("a",), [np.diag([entry, 0.0])]))


def test_baseline_of_the_largest_admitted_unitary_branch_is_finite():
    # A unitary branch c I weighs |tr A|**2 = 4 c**2 by p = c**2, so its baseline c**4 is quartic
    # in the entries.  Just below the bound (weight 2 c**2 = 9.8e139) it is finite; 1e78 I, of
    # weight 2e156, would overflow it to inf and is refused.
    c = 7e69
    channel = KrausChannel(1, ("a",), [c * np.eye(2)])
    assert q.baseline_no_qec(channel) == pytest.approx(c ** 4, rel=1e-15)
    with pytest.raises(ValueError, match=WEIGHT_ERROR):
        KrausChannel(1, ("a",), [1e78 * np.eye(2)])


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


def test_second_order_coeff_three_samples_fit_the_quadratic_exactly():
    fit = q.second_order_coeff(lambda g: 1 - 2 * g + 3 * g**2, [1e-3, 4e-3, 1e-2])
    assert abs(fit.c0 - 1.0) <= 1e-12
    assert abs(fit.c1 + 2.0) <= 1e-10
    assert abs(fit.c2 - 3.0) <= 1e-9
    assert fit.residual <= 1e-14


def test_second_order_coeff_four_samples_fit_the_cubic_exactly():
    # a quadratic fit to these four samples reads c2 = 3.65
    fit = q.second_order_coeff(lambda g: 1 - 2 * g + 3 * g**2 + 40 * g**3, [1e-3, 3e-3, 6e-3, 1e-2])
    assert abs(fit.c0 - 1.0) <= 1e-12
    assert abs(fit.c1 + 2.0) <= 1e-10
    assert abs(fit.c2 - 3.0) <= 1e-8
    assert fit.residual <= 1e-14


@pytest.mark.parametrize("grid", [
    [1e-3, 1.000001e-3, 1.000002e-3],  # 1e-9 apart: rank 2 of 3
    [1e-3, 1.001e-3, 1.002e-3, 1.003e-3],  # 1e-6 apart: rank 3 of 4
    [1e-300, 2e-300, 3e-300],  # g**2 underflows: rank 1 of 3
])
def test_second_order_coeff_rejects_distinct_samples_of_deficient_rank(grid):
    with pytest.raises(ValueError, match="ill-conditioned fit"):
        q.second_order_coeff(lambda g: 1 - 2 * g + 3 * g**2, grid)


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


def test_second_order_coeff_validates_grid(capfd):
    with pytest.raises(ValueError):
        q.second_order_coeff(lambda g: 1.0, [1e-3, 1e-2])
    with pytest.raises(ValueError):
        q.second_order_coeff(lambda g: 1.0, [0.0, 1e-3, 1e-2])
    with pytest.raises(ValueError):
        q.second_order_coeff(lambda g: 1.0, [1e-4, 1e-3, 0.5])
    for bad in (float("nan"), float("inf"), -float("inf")):
        for position in range(3):
            grid = [1e-4, 1e-3, 1e-2]
            grid[position] = bad
            with pytest.raises(ValueError, match=r"need >= 3 strictly positive samples, all <= 1e-2"):
                q.second_order_coeff(lambda g: 1.0, grid)
    assert capfd.readouterr().err == ""  # no LAPACK lines from a fit that must not run


def test_second_order_coeff_rejects_a_repeated_sample():
    with pytest.raises(ValueError, match="samples must be distinct"):
        q.second_order_coeff(lambda g: 1.0, [1e-3, 1e-2, 1e-3, 2e-3])


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
    # a (1, 2) grid once read as the report ((0.1, 0.2), (0.1, 0.2)), threshold (0.1, 0.2)
    ([[0.1, 0.2]], "grid must be a one-dimensional sequence"),
    ([[0.1], [0.2]], "grid must be a one-dimensional sequence"),
    ([[0.1], 0.2], "grid must be a one-dimensional sequence"),
    (0.1, "grid must be a one-dimensional sequence"),
], ids=["descending", "repeated", "empty", "nan", "inf", "row", "column", "ragged", "scalar"])
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


@pytest.mark.parametrize("tol", [-1.0, float("inf")], ids=["negative", "inf"])
def test_nonvanishing_terms_needs_a_finite_non_negative_tol(tol):
    # -1.0 once listed every one of a table's (k, l), exact zeros included
    result = q.entanglement_fidelity(q.leung4(), q.cp_recovery(), q.enlarge(q.ad_single(0.1), 4))
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        q.nonvanishing_terms(result, tol)
    assert len(q.nonvanishing_terms(result, 0.0)) == 12 < result.table.size == 160


NOT_REAL = [None, "a", 1j, [[1e-4, 1e-3]], float("nan")]


def _four_qubit_family(g):
    return q.leung4(), q.weight_le1_ad_errors(g)


# Each entry point with one scalar replaced by x, and the message it raises for x.
SCALAR_ENTRY_POINTS = {
    "classify_pair": (lambda x: q.classify_pair(q.enumerate_pairs()[0], [x, 1e-3]),
                      "need >= 2 distinct noise samples"),
    "violation_order": (lambda x: q.violation_order(_four_qubit_family, [x, 1e-3]),
                        "need >= 2 distinct noise samples"),
    "radius_sweep": (lambda x: q.radius_sweep(0.1, [x]), r"radii must lie in \(0, 1\]"),
    "residue-p_l": (lambda x: q.residue(np.eye(4), np.eye(4), x, 1.0),
                    "p_l must equal the largest restricted eigenvalue"),
    "residue-lambda_l": (lambda x: q.residue(np.eye(4), np.eye(4), 1.0, x),
                         r"lambda_l \* p_l must equal the smallest restricted eigenvalue"),
    "threshold-coded": (lambda x: q.threshold_analysis(lambda p: x, bitflip_baseline, [0.1, 0.2]),
                        "curve values must be finite"),
    "threshold-baseline": (lambda x: q.threshold_analysis(bitflip_coded, lambda p: x, [0.1, 0.2]),
                           "curve values must be finite"),
    "threshold-grid": (lambda x: q.threshold_analysis(bitflip_coded, bitflip_baseline, x),
                       "grid must be a one-dimensional sequence"),
    "threshold-grid-value": (lambda x: q.threshold_analysis(bitflip_coded, bitflip_baseline, [0.1, x]),
                             "grid (must be a one-dimensional sequence|values must be finite)"),
    "second_order_coeff": (lambda x: q.second_order_coeff(lambda g: x, [1e-4, 1e-3, 1e-2]),
                           "curve values must be finite"),
    "second_order_coeff-sample": (lambda x: q.second_order_coeff(lambda g: 1.0, [1e-4, 1e-3, x]),
                                  "need >= 3 strictly positive samples"),
    "nonvanishing_terms": (lambda x: q.nonvanishing_terms(
        q.entanglement_fidelity(q.repetition3(), q.repetition_recovery(),
                                q.enlarge(q.bitflip_single(0.1), 3)), x),
        "tol must be a finite number >= 0"),
}


@pytest.mark.parametrize("x", NOT_REAL, ids=["none", "str", "complex", "nested", "nan"])
@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
def test_entry_points_refuse_scalars_that_are_not_real_numbers(entry, x):
    call, message = SCALAR_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=message):
        call(x)


# Each sequence argument given the scalar x, and the message that names the argument.
SEQUENCE_ENTRY_POINTS = {
    "classify_pair": (lambda x: q.classify_pair(q.enumerate_pairs()[0], x),
                      "noise samples must be a sequence of numbers"),
    "violation_order": (lambda x: q.violation_order(_four_qubit_family, x),
                        "noise samples must be a sequence of numbers"),
    "radius_sweep": (lambda x: q.radius_sweep(0.1, x), "radii must be a sequence of numbers"),
    "second_order_coeff": (lambda x: q.second_order_coeff(lambda g: 1.0, x),
                           "samples must be a sequence of numbers"),
    "threshold_analysis": (lambda x: q.threshold_analysis(bitflip_coded, bitflip_baseline, x),
                           "grid must be a one-dimensional sequence"),
}


@pytest.mark.parametrize("x", [1e-3, np.float64(1e-3), np.array(1e-3), None],
                         ids=["float", "float64", "0-d", "none"])
@pytest.mark.parametrize("entry", sorted(SEQUENCE_ENTRY_POINTS))
def test_sequence_arguments_refuse_a_scalar_by_name(entry, x):
    call, message = SEQUENCE_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=message):  # a TypeError fails the test
        call(x)


@pytest.mark.parametrize("stack", [
    [[[0.5, 1e200], [0.0, 0.5]]],  # A^dag A overflows, the trace does not
    [np.diag([np.nan, 0.5])],
    [np.diag([np.inf, 0.5])],
    [np.diag([1.3e154, 0.0])] * 2,  # each squared trace is finite, their sum is not
], ids=["gram-overflow", "nan", "inf", "sum-overflow"])
def test_baseline_names_a_value_that_is_not_finite(stack):
    with pytest.raises(ValueError, match=WEIGHT_ERROR):
        q.baseline_no_qec(KrausChannel(1, tuple("ab"[:len(stack)]), stack))


def test_sweeps_call_their_curves_at_python_floats():
    seen = []

    def recorded(curve):
        def call(x):
            seen.append(type(x))
            return curve(x)
        return call

    q.threshold_analysis(recorded(bitflip_coded), recorded(bitflip_baseline), np.linspace(0.0, 1.0, 11))
    bisected = len(seen) - 2 * 11
    q.second_order_coeff(recorded(lambda g: 1 - 2 * g**2), np.logspace(-4, -2, 5))
    assert bisected > 0 and len(seen) == 2 * 11 + bisected + 5
    assert set(seen) == {float}


def test_threshold_grid_pass_reuses_the_tables_channels():
    # A table of 16 bit-flip points, then the threshold analysis over the same 16: the grid pass
    # finds every single-qubit channel, its baseline, its enlargement and its A_l V still cached;
    # only the bisection's new points miss.
    code, recovery = q.repetition3(), q.repetition_recovery()
    grid = np.linspace(0.013, 0.987, 16).tolist()
    coded_calls = []

    def coded(p):
        coded_calls.append(p)
        return q.entanglement_fidelity(code, recovery, q.enlarge(q.bitflip_single(p), 3)).value

    def baseline(p):
        return q.baseline_no_qec(q.bitflip_single(p))

    caches = (_single_qubit_pair, q.channels._enlarge_pair, _channel_factors, q.baseline_no_qec)
    for cache in caches:
        cache.cache_clear()
    for p in grid:
        coded(p), baseline(p)
    misses = [cache.cache_info().misses for cache in caches]
    assert misses == [len(grid)] * 4
    coded_calls.clear()
    report = q.threshold_analysis(coded, baseline, grid)
    assert coded_calls[:len(grid)] == grid and abs(report.failure_threshold - 0.5) <= 1e-10
    bisected = len(coded_calls) - len(grid)
    assert bisected > 0
    added = [cache.cache_info().misses - before for cache, before in zip(caches, misses)]
    assert added == [bisected, bisected, bisected, 0]
