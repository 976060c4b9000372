import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from uil.analytic import evaluate_metrics, metrics_values
from uil.params import InterferometerParams

from matrix_amplitudes import beam_splitter_matrix, difference_signal_phase_gradient, output_amplitudes
from numeric_optimum import fluctuation_ratio_values, intensity_ratio_values

ANGLES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)
SPLIT_ANGLES = st.floats(min_value=0.0, max_value=math.pi / 2)
AMPLITUDES = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def params(theta1, theta2, phi, **kw):
    return InterferometerParams(theta1, theta2, phi, **kw)


def reference_output_amplitudes(p):
    """Independent route: explicit 2x2 matrix product."""
    mirror = np.diag([1.0, cmath.exp(-1j * p.phi - p.kappa)])
    chain = beam_splitter_matrix(p.theta2) @ mirror @ beam_splitter_matrix(p.theta1)
    return chain @ np.array([p.alpha, 0.0])


# beam splitter matrix


def test_splitter_identity_at_zero():
    assert np.array_equal(beam_splitter_matrix(0.0), np.eye(2))


def test_splitter_balanced_entries():
    half = math.sqrt(2.0) / 2.0
    expected = np.array([[half, half], [-half, half]])
    np.testing.assert_allclose(beam_splitter_matrix(math.pi / 4), expected, atol=1e-15)


def test_splitter_inverse_by_negation():
    product = beam_splitter_matrix(0.3) @ beam_splitter_matrix(-0.3)
    np.testing.assert_allclose(product, np.eye(2), atol=1e-15)


@given(ANGLES)
def test_splitter_is_special_orthogonal(theta):
    b = beam_splitter_matrix(theta)
    np.testing.assert_allclose(b.T @ b, np.eye(2), atol=1e-14)
    assert np.linalg.det(b) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_splitter_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        beam_splitter_matrix(bad)


# output amplitudes


def test_balanced_zero_phase_destructive_interference():
    out = output_amplitudes(params(math.pi / 4, math.pi / 4, 0.0))
    assert abs(out.a3) < 1e-15
    assert out.b3 == pytest.approx(-1.0, abs=1e-15)


def test_transparent_first_splitter_ignores_phase():
    for phi in (0.0, 1.0, 2.5):
        out = output_amplitudes(params(0.0, 0.7, phi))
        assert out.a3 == pytest.approx(math.cos(0.7), abs=1e-15)
        assert out.b3 == pytest.approx(-math.sin(0.7), abs=1e-15)


def test_balanced_quarter_phase_frozen_values():
    out = output_amplitudes(params(math.pi / 4, math.pi / 4, math.pi / 2))
    assert out.a3 == pytest.approx((1 + 1j) / 2, abs=1e-15)
    assert out.b3 == pytest.approx((-1 + 1j) / 2, abs=1e-15)


@given(ANGLES, ANGLES, ANGLES, AMPLITUDES)
def test_matches_matrix_product_route(theta1, theta2, phi, alpha):
    p = params(theta1, theta2, phi, kappa=0.25, alpha=alpha)
    expected = reference_output_amplitudes(p)
    out = output_amplitudes(p)
    assert out.a3 == pytest.approx(expected[0], abs=1e-13)
    assert out.b3 == pytest.approx(expected[1], abs=1e-13)


@given(ANGLES, ANGLES, ANGLES, AMPLITUDES)
def test_lossless_energy_conservation(theta1, theta2, phi, alpha):
    out = output_amplitudes(params(theta1, theta2, phi, alpha=alpha))
    assert out.total_intensity == pytest.approx(abs(alpha) ** 2, abs=1e-12)


def test_total_intensity_overflows_to_inf():
    out = output_amplitudes(params(0.7, 0.7, 1.0, alpha=1e200))
    assert out.total_intensity == math.inf


@given(ANGLES, ANGLES, ANGLES, st.floats(min_value=0.0, max_value=3.0))
def test_lossy_energy_never_grows(theta1, theta2, phi, kappa):
    out = output_amplitudes(params(theta1, theta2, phi, kappa=kappa))
    assert out.total_intensity <= 1.0 + 1e-12


# probe arm statistics


def probe_stats(p):
    m = evaluate_metrics(p)
    return m.intensity_probe, m.std_intensity_probe


def test_probe_stats_balanced_amplitude_two():
    intensity, std = probe_stats(params(math.pi / 4, 0.1, 0.2, alpha=2.0))
    assert intensity == pytest.approx(2.0, abs=1e-12)
    assert std == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_probe_stats_transparent_splitter():
    assert probe_stats(params(0.0, 0.9, 0.2, alpha=1.7)) == (0.0, 0.0)


def test_probe_stats_one_third_split():
    # sin(arctan(1/sqrt(2)))^2 = 1/3
    theta = math.atan(1.0 / math.sqrt(2.0))
    intensity, std = probe_stats(params(theta, 0.5, 0.1))
    assert intensity == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert std == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)


@given(SPLIT_ANGLES, ANGLES, ANGLES, st.floats(min_value=0.0, max_value=2.0))
def test_probe_stats_ignore_downstream_settings(theta1, theta2, phi, kappa):
    baseline = probe_stats(params(theta1, 0.1, 0.0))
    assert probe_stats(params(theta1, theta2, phi, kappa=kappa)) == baseline


# difference signal


def test_mean_balanced_is_cosine():
    for phi, expected in [(0.0, 1.0), (math.pi / 3, 0.5), (math.pi / 2, 0.0)]:
        for alpha in (1.0, 1.5 + 0.5j):
            p = params(math.pi / 4, math.pi / 4, phi, alpha=alpha)
            assert evaluate_metrics(p).mean_O == pytest.approx(
                abs(alpha) ** 2 * expected, abs=1e-12
            )


def test_mean_vacuum_input_is_zero():
    assert evaluate_metrics(params(0.4, 1.1, 0.7, alpha=0.0)).mean_O == 0.0


def test_mean_transparent_splitter_phase_independent():
    for phi in (0.0, 0.8, 2.2):
        p = params(0.0, 0.9, phi, alpha=1.3)
        expected = -abs(1.3) ** 2 * math.cos(2 * 0.9)
        assert evaluate_metrics(p).mean_O == pytest.approx(expected, abs=1e-12)


@given(ANGLES, ANGLES, ANGLES, st.floats(min_value=0.0, max_value=1.5))
def test_mean_equals_output_intensity_difference(theta1, theta2, phi, kappa):
    p = params(theta1, theta2, phi, kappa=kappa, alpha=1.2)
    out = output_amplitudes(p)
    expected = abs(out.b3) ** 2 - abs(out.a3) ** 2
    assert evaluate_metrics(p).mean_O == pytest.approx(expected, abs=1e-12)


@given(ANGLES, ANGLES, ANGLES)
def test_mean_even_in_phase(theta1, theta2, phi):
    p_plus = params(theta1, theta2, phi)
    p_minus = params(theta1, theta2, -phi)
    assert evaluate_metrics(p_plus).mean_O == evaluate_metrics(p_minus).mean_O


def test_std_is_alpha_when_lossless():
    for theta1, theta2, phi in [(0.3, 1.2, 0.4), (1.0, 0.1, 2.0)]:
        p = params(theta1, theta2, phi, alpha=1.7 - 0.2j)
        assert evaluate_metrics(p).std_O == pytest.approx(abs(p.alpha), abs=1e-12)


def test_std_with_loss_closed_form():
    p = params(0.8, 0.3, 1.0, kappa=0.6, alpha=1.4)
    expected = abs(p.alpha) * math.sqrt(
        math.cos(0.8) ** 2 + math.exp(-1.2) * math.sin(0.8) ** 2
    )
    assert evaluate_metrics(p).std_O == pytest.approx(expected, abs=1e-12)


# phase resolution


def test_resolution_balanced_working_point():
    for alpha in (0.5, 1.0, 2.0):
        p = params(math.pi / 4, math.pi / 4, math.pi / 2, alpha=alpha)
        assert evaluate_metrics(p).delta_phi == pytest.approx(1.0 / alpha, rel=1e-14)


def test_resolution_reduces_to_lossless_form():
    rng = np.random.default_rng(11)
    for _ in range(200):
        theta1, theta2 = rng.uniform(0.05, math.pi / 2 - 0.05, 2)
        phi = rng.uniform(0.1, math.pi - 0.1)
        p = params(theta1, theta2, phi, alpha=rng.uniform(0.2, 2.0))
        lossless = 1.0 / abs(
            p.alpha * math.sin(2 * theta1) * math.sin(2 * theta2) * math.sin(phi)
        )
        assert evaluate_metrics(p).delta_phi == pytest.approx(lossless, rel=1e-12)


def test_resolution_balanced_with_loss_frozen_value():
    p = params(math.pi / 4, math.pi / 4, math.pi / 2, kappa=0.5)
    assert evaluate_metrics(p).delta_phi == pytest.approx(math.sqrt((math.e + 1.0) / 2.0), rel=1e-13)


@pytest.mark.parametrize(
    "p",
    [
        params(0.0, 0.7, 1.0),
        params(0.4, 0.7, 0.0),
        params(0.4, 0.0, 1.0),
        params(0.4, 0.7, 1.0, alpha=0.0),
    ],
)
def test_resolution_returns_infinity_without_sensitivity(p):
    assert evaluate_metrics(p).delta_phi == math.inf


def test_resolution_is_noise_over_gradient():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = params(
            rng.uniform(0.1, 1.4),
            rng.uniform(0.1, 1.4),
            rng.uniform(0.1, 3.0),
            kappa=rng.uniform(0.0, 1.0),
            alpha=rng.uniform(0.3, 2.0),
        )
        m = evaluate_metrics(p)
        assert m.delta_phi == pytest.approx(m.std_O / abs(difference_signal_phase_gradient(p)), rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    step = 1e-6
    for _ in range(100):
        theta1, theta2 = rng.uniform(0.05, math.pi / 2 - 0.05, 2)
        phi = rng.uniform(0.0, 2 * math.pi)
        kappa = rng.uniform(0.0, 1.0)
        alpha = rng.uniform(0.3, 2.0)
        plus = evaluate_metrics(params(theta1, theta2, phi + step, kappa=kappa, alpha=alpha)).mean_O
        minus = evaluate_metrics(params(theta1, theta2, phi - step, kappa=kappa, alpha=alpha)).mean_O
        fd = (plus - minus) / (2.0 * step)
        grad = difference_signal_phase_gradient(params(theta1, theta2, phi, kappa=kappa, alpha=alpha))
        if grad != 0.0:
            assert fd == pytest.approx(grad, rel=1e-6)


def test_resolution_scales_inversely_with_efficiency():
    base = params(0.5, 0.6, 1.0, kappa=0.2)
    for eta in (0.25, 0.5, 0.9):
        dimmed = params(0.5, 0.6, 1.0, kappa=0.2, eta=eta)
        assert evaluate_metrics(dimmed).delta_phi == pytest.approx(
            evaluate_metrics(base).delta_phi / eta, rel=1e-14
        )


def test_working_point_minimizes_resolution_over_phase():
    phis = np.linspace(0.01, math.pi - 0.01, 2001)
    for kappa in (0.0, 0.4):
        values = [evaluate_metrics(params(0.5, 0.8, phi, kappa=kappa)).delta_phi for phi in phis]
        assert phis[int(np.argmin(values))] == pytest.approx(math.pi / 2, abs=2e-3)


def test_balanced_angles_give_best_resolution():
    rng = np.random.default_rng(3)
    best = evaluate_metrics(params(math.pi / 4, math.pi / 4, math.pi / 2)).delta_phi
    for _ in range(200):
        theta1, theta2 = rng.uniform(0.0, math.pi / 2, 2)
        assert best <= evaluate_metrics(params(theta1, theta2, math.pi / 2)).delta_phi + 1e-15


# performance ratios


def test_intensity_ratio_balanced():
    for alpha in (0.5, 1.0, 2.0):
        p = params(math.pi / 4, math.pi / 4, math.pi / 2, alpha=alpha)
        assert evaluate_metrics(p).rho_intensity == pytest.approx(2.0 / alpha, rel=1e-14)


def test_intensity_ratio_grows_as_power_drops():
    p_large = params(0.6, 0.7, 1.0, alpha=1.0)
    p_small = params(0.6, 0.7, 1.0, alpha=0.01)
    assert evaluate_metrics(p_small).rho_intensity == pytest.approx(
        100.0 * evaluate_metrics(p_large).rho_intensity, rel=1e-12
    )


def test_intensity_ratio_unbalanced_frozen_value():
    p = params(math.pi / 3, math.pi / 4, math.pi / 2)
    assert evaluate_metrics(p).rho_intensity == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-13)


def test_intensity_ratio_zero_when_resolution_infinite():
    assert evaluate_metrics(params(0.0, 0.7, 1.0)).rho_intensity == 0.0
    assert evaluate_metrics(params(0.3, 0.7, 0.0)).rho_intensity == 0.0


def test_intensity_ratio_where_resolution_overflows():
    # delta_phi is inf only because 1/sensitivity exceeds the double
    # range; rho_intensity = rho_fluctuation / (|alpha| |s1|) stays finite
    theta1, theta2, phi = 0.01, math.pi / 4, 2.2250738585072014e-308
    m = evaluate_metrics(params(theta1, theta2, phi))
    assert m.delta_phi == math.inf
    with mpmath.workdps(50):
        t1, t2, ph = map(mpmath.mpf, (theta1, theta2, phi))
        want = 2 * abs(mpmath.cos(t1) * mpmath.sin(2 * t2) * mpmath.sin(ph)) / abs(mpmath.sin(t1))
    assert abs(mpmath.mpf(m.rho_intensity) - want) <= 1e-12 * want


def test_fluctuation_ratio_balanced_is_sqrt_two():
    p = params(math.pi / 4, math.pi / 4, math.pi / 2)
    assert evaluate_metrics(p).rho_fluctuation == pytest.approx(math.sqrt(2.0), rel=1e-13)


def test_fluctuation_ratio_equal_splitter_optimum():
    theta = math.atan(1.0 / math.sqrt(2.0))
    p = params(theta, theta, math.pi / 2)
    assert evaluate_metrics(p).rho_fluctuation == pytest.approx(
        8.0 * math.sqrt(3.0) / 9.0, rel=1e-13
    )


def test_fluctuation_ratio_homodyne_limit():
    assert evaluate_metrics(params(0.0, math.pi / 4, math.pi / 2)).rho_fluctuation == pytest.approx(
        2.0, abs=1e-15
    )
    assert evaluate_metrics(params(1e-4, math.pi / 4, math.pi / 2)).rho_fluctuation == pytest.approx(
        2.0, abs=1e-7
    )


def test_fluctuation_ratio_small_angle_expansion():
    for theta1 in np.linspace(0.01, 0.2, 25):
        for theta2, phi in [(math.pi / 4, math.pi / 2), (0.6, 1.1)]:
            value = evaluate_metrics(params(theta1, theta2, phi)).rho_fluctuation
            expansion = (2.0 - theta1**2) * math.sin(2 * theta2) * math.sin(phi)
            assert abs(value - expansion) < theta1**4


@given(
    st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01),
    st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01),
    st.floats(min_value=0.1, max_value=math.pi - 0.1),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.1, max_value=2.0),
)
def test_fluctuation_ratio_independent_of_amplitude(theta1, theta2, phi, a1, a2):
    first = evaluate_metrics(params(theta1, theta2, phi, alpha=a1)).rho_fluctuation
    second = evaluate_metrics(params(theta1, theta2, phi, alpha=a2)).rho_fluctuation
    assert first == pytest.approx(second, abs=1e-12)


def test_fluctuation_ratio_is_inverse_resolution_times_noise():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = params(
            rng.uniform(0.05, math.pi / 2 - 0.05),
            rng.uniform(0.05, math.pi / 2 - 0.05),
            rng.uniform(0.1, math.pi - 0.1),
            kappa=rng.uniform(0.0, 1.0),
            eta=rng.uniform(0.2, 1.0),
            alpha=rng.uniform(0.3, 2.0),
        )
        m = evaluate_metrics(p)
        expected = 1.0 / (m.delta_phi * m.std_intensity_probe)
        assert m.rho_fluctuation == pytest.approx(expected, rel=1e-12)


def test_fluctuation_ratio_lossy_reduction_to_two_cosine():
    for theta1 in np.linspace(0.0, math.pi / 2, 91):
        p = params(theta1, math.pi / 4, math.pi / 2)
        assert evaluate_metrics(p).rho_fluctuation == pytest.approx(
            2.0 * math.cos(theta1), abs=1e-14
        )


def test_fluctuation_ratio_scales_with_efficiency():
    p = params(0.5, 0.7, 1.2, kappa=0.3)
    base = evaluate_metrics(p).rho_fluctuation
    for eta in (0.25, 0.5, 0.9):
        dimmed = params(0.5, 0.7, 1.2, kappa=0.3, eta=eta)
        assert evaluate_metrics(dimmed).rho_fluctuation == pytest.approx(eta * base, rel=1e-13)


# visibility


def test_visibility_balanced_lossless_is_exactly_one():
    assert evaluate_metrics(params(math.pi / 4, math.pi / 4, 0.3)).visibility == 1.0


def test_visibility_no_probe_light():
    assert evaluate_metrics(params(0.0, math.pi / 4, 0.3)).visibility == 0.0


def test_visibility_zero_input():
    assert evaluate_metrics(params(0.5, 0.5, 0.3, alpha=0.0)).visibility == 0.0


def test_visibility_eighth_turn_frozen_value():
    p = params(math.pi / 8, math.pi / 4, 0.0)
    assert evaluate_metrics(p).visibility == pytest.approx(math.sin(math.pi / 4), rel=1e-14)


def grid_visibility(p, n=20001):
    phis = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    intensities = [
        abs(output_amplitudes(params(p.theta1, p.theta2, phi, kappa=p.kappa, alpha=p.alpha)).b3) ** 2
        for phi in phis
    ]
    top, bottom = max(intensities), min(intensities)
    return (top - bottom) / (top + bottom) if top + bottom else 0.0


def test_visibility_matches_phase_scan():
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = params(
            rng.uniform(0.05, math.pi / 2 - 0.05),
            rng.uniform(0.05, math.pi / 2 - 0.05),
            0.0,
            kappa=rng.uniform(0.0, 1.0),
        )
        assert evaluate_metrics(p).visibility == pytest.approx(grid_visibility(p), abs=1e-7)


@given(SPLIT_ANGLES, SPLIT_ANGLES, st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=200)
def test_visibility_bounded(theta1, theta2, kappa):
    v = evaluate_metrics(params(theta1, theta2, 0.1, kappa=kappa)).visibility
    assert 0.0 <= v <= 1.0


# whole-point evaluation and shared kernels


def test_metrics_bundle_consistency():
    # every field of the bundle is the kernel's column at the point
    p = params(0.5, 0.6, 1.0, kappa=0.2, eta=0.8, alpha=1.1)
    columns = metrics_values(p.theta1, p.theta2, p.phi, p.kappa, p.eta, abs(p.alpha))
    assert dataclasses.asdict(evaluate_metrics(p)) == {k: float(v) for k, v in columns.items()}


@given(
    st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05),
    st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05),
    st.floats(min_value=0.1, max_value=math.pi - 0.1),
)
def test_metrics_invariant_under_full_turn(theta1, theta2, phi):
    # Away from the singular phases, where 1/|sin| does not amplify the
    # one-ulp wobble of the shifted argument beyond reconstruction.
    before = evaluate_metrics(params(theta1, theta2, phi, kappa=0.1))
    after = evaluate_metrics(params(theta1, theta2, phi + 2 * math.pi, kappa=0.1))
    for name, value in dataclasses.asdict(before).items():
        assert getattr(after, name) == pytest.approx(value, rel=1e-12)


def test_vector_kernels_match_scalar_api():
    # the optimum search's objective kernels (tests/numeric_optimum.py)
    # must agree with the bundle bit for bit, theta1 = 0 included
    rng = np.random.default_rng(23)
    theta1 = np.append(rng.uniform(0.0, math.pi / 2, 63), 0.0)
    theta2 = rng.uniform(0.0, math.pi / 2, 64)
    phi = rng.uniform(0.0, 2 * math.pi, 64)
    kappa = rng.uniform(0.0, 1.0, 64)
    rho_i = intensity_ratio_values(theta1, theta2, phi, kappa, 0.7, 1.3)
    rho_di = fluctuation_ratio_values(theta1, theta2, phi, kappa, 0.7)
    for i in range(64):
        p = params(theta1[i], theta2[i], phi[i], kappa=kappa[i], eta=0.7, alpha=1.3)
        assert rho_i[i] == evaluate_metrics(p).rho_intensity
        assert rho_di[i] == evaluate_metrics(p).rho_fluctuation


def test_metrics_bundle_squares_agree_between_arrays_and_scalars():
    # here the scalar square of |s2 c1| - T |c2 s1| = 0.4164007126484729
    # through libm pow came out one ulp off the array square
    theta2 = -4.079668380776266
    columns = metrics_values(math.pi / 4, np.full(4, theta2), math.pi / 2, 1.0, 1.0, 1.0)
    point = evaluate_metrics(params(math.pi / 4, theta2, math.pi / 2, kappa=1.0))
    for name, value in dataclasses.asdict(point).items():
        assert columns[name][0] == value, name


# Cramer-Rao: delta_phi * sqrt(F) >= 1 for the Fisher information F of the
# two independent Poisson detector counts (Braunstein & Caves, PRL 72,
# 3439 (1994)), with equality at the balanced working point.  F is taken
# at the transmission the program carries, the double exp(-kappa): past
# kappa ~ 708 that double is subnormal and has fewer digits than kappa,
# a limit of its own that the README states.


def fisher_information_mp(theta1, theta2, phi, kappa, eta, alpha_abs):
    """F = sum_i (d lambda_i/d phi)^2 / lambda_i, lambda_i = eta |out_i|^2, at 50 digits."""
    with mpmath.workdps(50):
        t1, t2, phi, eta, alpha = map(mpmath.mpf, (theta1, theta2, phi, eta, alpha_abs))
        t = mpmath.mpf(float(np.exp(-kappa)))
        c1, s1, c2, s2 = mpmath.cos(t1), mpmath.sin(t1), mpmath.cos(t2), mpmath.sin(t2)
        rotor = mpmath.expj(-phi)
        a3 = alpha * (c1 * c2 - t * s1 * s2 * rotor)
        b3 = -alpha * (s2 * c1 + t * s1 * c2 * rotor)
        slope = eta * alpha**2 * t / 2 * mpmath.sin(2 * t1) * mpmath.sin(2 * t2) * mpmath.sin(phi)
        return sum(slope**2 / (eta * abs(amp) ** 2) for amp in (a3, b3))


@given(
    SPLIT_ANGLES,
    SPLIT_ANGLES,
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=800.0),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.floats(min_value=1e-150, max_value=1e150),
)
@settings(max_examples=300)
def test_cramer_rao_bound_over_extreme_domain(theta1, theta2, phi, kappa, eta, alpha_abs):
    m = evaluate_metrics(params(theta1, theta2, phi, kappa=kappa, eta=eta, alpha=alpha_abs))
    assert not any(math.isnan(value) for value in dataclasses.asdict(m).values())
    if math.isinf(m.delta_phi):  # no sensitivity, or beyond the double range
        return
    fisher = fisher_information_mp(theta1, theta2, phi, kappa, eta, alpha_abs)
    assert mpmath.mpf(m.delta_phi) * mpmath.sqrt(fisher) >= 1 - 16 * np.finfo(float).eps
