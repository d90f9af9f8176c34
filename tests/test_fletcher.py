import math

import numpy as np
import pytest

import qecwb as q
from qecwb.fidelity import TRACE_PRESERVING_TOL


def random_unit_params(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return complex(v[0], v[1]), complex(v[2], v[3])


def test_params_validation():
    p = q.FletcherParams(0.6, 0.0, 0.8, 0.0)
    assert abs(p.radius - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        q.FletcherParams(1.0, 0.0, 1.0, 0.0)  # norm sqrt(2) > 1


NAN = float("nan")


def test_params_radius_gate_is_inclusive():
    edge = 1.0 + q.fletcher.RADIUS_SLACK
    assert q.FletcherParams(edge, 0.0, 0.0, 0.0).radius == edge
    with pytest.raises(ValueError, match="radius must not exceed 1"):
        q.FletcherParams(math.nextafter(edge, 2.0), 0.0, 0.0, 0.0)


@pytest.mark.parametrize("coords", [(NAN, 0.0, 0.0, 0.0), (0.0, NAN, 0.0, 0.0),
                                    (0.0, 0.0, NAN, 0.0), (0.0, 0.0, 0.0, NAN)])
def test_params_reject_nan(coords):
    with pytest.raises(ValueError, match="radius must not exceed 1"):
        q.FletcherParams(*coords)


@pytest.mark.parametrize("gamma", [NAN, -0.5, 1.0, 2.0, True, np.False_, "0.1", 0.1 + 0j],
                         ids=["nan", "-0.5", "1.0", "2.0", "bool", "numpy-bool", "str", "complex"])
def test_optimum_searches_reject_bad_damping(gamma):
    for search in (q.closed_form_optimum, q.numeric_optimum, lambda g: q.radius_sweep(g, [0.5]),
                   q.standard_ad_recovery, q.base_fidelity,
                   lambda g: q.fletcher_fidelity_closed(q.FletcherParams(1, 0, 0, 0), g)):
        with pytest.raises(ValueError, match=r"damping rate must lie in \[0, 1\)"):
            search(gamma)


@pytest.mark.parametrize("rate", [np.float32(0.1), np.float16(0.1)], ids=["float32", "float16"])
def test_narrow_precision_damping_rates_compute_at_their_exact_value(rate):
    # in its own precision 1 - rate rounds apart from the exact value math.sqrt(rate) sees
    gamma = float(rate)
    params = q.FletcherParams(0.6, 0.0, 0.8, 0.0)
    for f in (q.closed_form_optimum, q.numeric_optimum, lambda g: q.radius_sweep(g, [0.5])[0],
              q.base_fidelity, lambda g: q.fletcher_fidelity_closed(params, g)):
        value = f(rate)
        values = value if isinstance(value, tuple) else (value,)
        assert value == f(gamma) and all(type(v) is float for v in values)
    optimum = q.closed_form_optimum(rate)
    assert q.fletcher_recovery(optimum.a_bar, optimum.b_bar).completeness_defect() <= TRACE_PRESERVING_TOL
    recovery = q.standard_ad_recovery(rate)
    assert np.array_equal(recovery.stack, q.standard_ad_recovery(gamma).stack)
    errors = q.enlarge(q.ad_single(rate), 4)
    assert q.entanglement_fidelity(q.leung4(), recovery, errors).value == q.entanglement_fidelity(
        q.leung4(), q.standard_ad_recovery(gamma), errors).value


def test_closed_form_matches_matrix_route():
    rng = np.random.default_rng(51)
    code = q.leung4()
    for _ in range(30):
        a, b = random_unit_params(rng)
        gamma = rng.uniform(1e-3, 0.3)
        closed = q.fletcher_fidelity_closed(q.FletcherParams.from_complex(a, b), gamma)
        matrix = q.entanglement_fidelity(
            code, q.fletcher_recovery(a, b), q.enlarge(q.ad_single(gamma), 4)
        ).value
        assert abs(closed - matrix) <= 1e-12


def test_imaginary_parts_do_not_enter():
    gamma = 0.08
    base = q.fletcher_fidelity_closed(q.FletcherParams(0.5, 0.0, 0.5, np.sqrt(0.5)), gamma)
    for split in (0.0, 0.3, 0.7, 1.0):
        im_a = np.sqrt(0.5 * split)
        im_b = np.sqrt(0.5 * (1 - split))
        value = q.fletcher_fidelity_closed(q.FletcherParams(0.5, im_a, 0.5, im_b), gamma)
        assert abs(value - base) <= 1e-15


def test_noiseless_channel_with_balanced_parameters():
    p = q.FletcherParams(1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 0.0)
    assert abs(q.fletcher_fidelity_closed(p, 0.0) - 1.0) <= 1e-12


def test_closed_form_optimum_values():
    opt = q.closed_form_optimum(0.0)
    assert abs(opt.a_bar - 1 / np.sqrt(2)) <= 1e-12
    assert abs(opt.b_bar - 1 / np.sqrt(2)) <= 1e-12

    opt = q.closed_form_optimum(0.1)
    scale = np.sqrt(1 + 0.81**2)
    assert abs(opt.a_bar - 1 / scale) <= 1e-12
    assert abs(opt.b_bar - 0.81 / scale) <= 1e-12
    assert abs(opt.a_bar - 0.777063878480823) <= 1e-12
    assert abs(opt.b_bar - 0.629421741569467) <= 1e-12


def test_optimum_stationarity():
    for gamma in (0.01, 0.1, 0.3):
        a = q.closed_form_optimum(gamma).a_bar
        residual = a - 2 * a * gamma - np.sqrt(1 - a * a) + a * gamma**2
        assert abs(residual) <= 1e-10


def test_small_damping_expansion_of_optimum():
    fit = q.second_order_coeff(lambda g: q.closed_form_optimum(g).f_star, np.logspace(-4, -2, 9))
    assert abs(fit.c0 - 1.0) <= 1e-6
    assert abs(fit.c1) <= 1e-3
    assert abs(fit.c2 + 1.5) <= 1e-2


def test_numeric_optimum_agrees_with_closed_form():
    # The whole damping range: a golden-section bracket stepped the wrong way, c or d,
    # misplaces the optimum by 0.06 to 1.4 somewhere on it.
    for gamma in [0.0] + np.logspace(-6, math.log10(0.98), 200).tolist():
        closed = q.closed_form_optimum(gamma)
        numeric = q.numeric_optimum(gamma)
        assert abs(numeric.a_bar - closed.a_bar) <= 1e-8
        assert abs(numeric.b_bar - closed.b_bar) <= 1e-8
        assert abs(numeric.f_star - closed.f_star) <= 1e-12


def test_numeric_optimum_angle_at_zero_damping():
    opt = q.numeric_optimum(0.0)
    theta = math.atan2(opt.b_bar, opt.a_bar)
    assert abs(theta - math.pi / 4) <= 1e-8



def test_random_certificate_never_beats_optimum():
    rng = np.random.default_rng(52)
    for gamma in (0.01, 0.05, 0.1):
        f_star = q.closed_form_optimum(gamma).f_star
        for _ in range(1000):
            a, b = random_unit_params(rng)
            value = q.fletcher_fidelity_closed(q.FletcherParams.from_complex(a, b), gamma)
            assert value <= f_star + 1e-12


def test_phase_rotations_never_beat_optimum():
    rng = np.random.default_rng(53)
    gamma = 0.05
    f_star = q.closed_form_optimum(gamma).f_star
    opt = q.closed_form_optimum(gamma)
    for _ in range(100):
        phi_a, phi_b = rng.uniform(0, 2 * np.pi, size=2)
        a = opt.a_bar * np.exp(1j * phi_a)
        b = opt.b_bar * np.exp(1j * phi_b)
        value = q.fletcher_fidelity_closed(q.FletcherParams.from_complex(a, b), gamma)
        assert value <= f_star + 1e-12


def test_radius_sweep_monotone_and_capped():
    gamma = 0.05
    radii = (0.25, 0.5, 0.75, 1.0)
    sweep = q.radius_sweep(gamma, radii)
    values = [f for _, f in sweep]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert abs(values[-1] - q.closed_form_optimum(gamma).f_star) <= 1e-12
    for radius in (1.5, 0.0):
        with pytest.raises(ValueError, match=r"radii must lie in \(0, 1\]"):
            q.radius_sweep(gamma, [radius])


def test_radius_sweep_leading_coefficient():
    # constant term of the small-damping expansion per radius is (1 + r) / 2
    for r in (0.25, 0.5, 1.0):
        fit = q.second_order_coeff(
            lambda g: q.radius_sweep(g, [r])[0][1], np.logspace(-4, -2, 9)
        )
        assert abs(fit.c0 - 0.5 * (1 + r)) <= 1e-3


def test_radius_sweep_shrinks_to_base_fidelity():
    gamma = 0.03
    tiny = q.radius_sweep(gamma, [1e-9])[0][1]
    assert abs(tiny - q.base_fidelity(gamma)) <= 1e-9
