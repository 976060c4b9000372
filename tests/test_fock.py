import contextlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import linalg, special, stats

import uil.fock
import uil.params
from uil.analytic import evaluate_metrics
from uil.fock import (
    _poisson,
    _thinned,
    _truncation,
    SimulationMoments,
    TruncationError,
    TruncationWarning,
    check_cutoff,
    required_cutoff,
    simulate,
    simulate_values,
)
from uil.params import InterferometerParams

from box_fock import apply_beam_splitter, coherent_state, mixer_sectors
from dense_fock import (
    ModeOperatorMatrix,
    TwoModeState,
    beam_splitter_unitary,
    difference_observable,
    mode_operators,
    number_operator,
    phase_unitary,
    splitter_generator,
)
from matrix_amplitudes import output_amplitudes


POINT_WHAT = "192 (n + 72) at n = floor(|alpha|^2) for the drive and one point's columns"


def point_bytes(n):
    """What simulate_values counts for one point on the drive's weights 0 .. n; check_cutoff refuses it at floor(|alpha|^2)."""
    return 192 * (n + 72)


def vacuum(dim):
    vec = np.zeros(dim, dtype=complex)
    vec[0] = 1.0
    return vec


def number_moments(psi, axis):
    """Mean and standard deviation of the photon number on one axis."""
    marginal = (np.abs(np.moveaxis(psi, axis, 0)) ** 2).reshape(psi.shape[axis], -1).sum(axis=1)
    numbers = np.arange(marginal.size)
    mean = numbers @ marginal
    return mean, math.sqrt(max(numbers**2 @ marginal - mean**2, 0.0))


def attenuate(psi, kappa, axis):
    """Loss as simulate applies it: a vacuum ancilla axis appended and
    coupled to ``axis`` by a splitter of transmission exp(-kappa)."""
    with_ancilla = np.zeros(psi.shape + (psi.shape[axis],), dtype=complex)
    with_ancilla[..., 0] = psi
    return apply_beam_splitter(with_ancilla, math.acos(math.exp(-kappa)), axes=(axis, psi.ndim))


# cutoff and coherent states


def test_cutoff_validation():
    assert coherent_state(0.1, np.int64(5)).shape == (6,)
    p = InterferometerParams(0.3, 0.4, 0.5, kappa=0.2, alpha=0.5)
    for bad in (0, -1, 2.5):
        with pytest.raises(ValueError, match="n_max must be an integer >= 1"):
            coherent_state(0.5, bad)
        with pytest.raises(ValueError, match="n_max must be an integer >= 1"):
            simulate(p, bad)


def test_vacuum_coherent_state_is_exact():
    state = coherent_state(0.0, 8)
    assert state[0] == 1.0
    assert np.linalg.norm(state) == 1.0


@pytest.mark.parametrize(
    "alpha, rel",
    [
        (1e-3, 1e-14),
        (0.9 - 0.4j, 1e-15),
        (3.0, 1e-14),
        (12.0, 1e-14),
        (38.5, 1e-14),
        (39.0, 1e-14),
        (45.0, 1e-14),
        (27.0 + 28.0j, 1e-14),
        (60.0, 1e-14),
        (300.0, 1e-14),
    ],
)
def test_coherent_coefficients_against_factorial_formula(alpha, rel):
    # the drive's Poisson weights, as the engine and the cutoff table take
    # them from one start, against the 50-digit e^-mean mean^n / n! on every
    # weight of 1e-280 or more (every 37th at |alpha| = 300); past |alpha| =
    # 27.3 e^-mean is 0, so a running product started at n = 0 would give
    # all 0
    mean = abs(alpha) ** 2
    n_max = max(20, required_cutoff(alpha))
    drive = _poisson(mean, 0, n_max)
    start, table, *_ = _truncation(mean, None)
    assert drive.shape == (n_max + 1,)
    assert drive.dtype == np.float64
    assert np.array_equal(table[: n_max + 1 - start], drive[start:])
    with mpmath.workdps(50):
        x = mpmath.mpf(mean)
        for n in range(0, n_max + 1, 37 if mean > 1e4 else 1):
            exact = mpmath.exp(n * mpmath.log(x) - x - mpmath.loggamma(n + 1))
            if exact >= 1e-280:
                assert abs(drive[n] - exact) <= rel * exact, n
                if n >= start:
                    assert abs(table[n - start] - exact) <= rel * exact, n


def test_coherent_mean_photon_number():
    state = coherent_state(1.0, 30)
    probabilities = np.abs(state) ** 2
    mean = np.arange(31) @ probabilities
    # independent oracle: truncated Poisson sum
    oracle = sum(n * stats.poisson.pmf(n, 1.0) for n in range(31))
    assert mean == pytest.approx(oracle, abs=1e-12)
    assert mean == pytest.approx(1.0, abs=1e-10)


def test_coherent_variance_is_mean():
    state = coherent_state(2.0, 40)
    mean, std = number_moments(state, axis=0)
    assert std**2 == pytest.approx(4.0, abs=1e-8)
    assert mean == pytest.approx(4.0, abs=1e-8)


def test_coherent_norm_tracks_truncation():
    state = coherent_state(2.0, 40)
    assert 1.0 - 1e-10 <= np.linalg.norm(state) <= 1.0 + 1e-15


def test_coherent_tail_failure_raises_with_estimate():
    with pytest.raises(TruncationError) as err:
        coherent_state(3.0, 10)
    assert err.value.required_cutoff is not None
    needed = err.value.required_cutoff
    assert stats.poisson.sf(needed, 9.0) < 1e-10
    assert stats.poisson.sf(needed - 1, 9.0) >= 1e-10
    coherent_state(3.0, needed)  # now fits
    assert f"is not below 1.0e-10; use n_max >= {needed}" in str(err.value)


def test_required_cutoff_zero_amplitude():
    assert required_cutoff(0.0) == 1


@pytest.mark.parametrize("alpha", [1e200, complex(1.5e308, 1.5e308)])
def test_overflowing_mean_photon_number_is_a_value_error(alpha):
    with pytest.raises(ValueError, match="double range"):
        required_cutoff(alpha)
    with pytest.raises(ValueError, match="double range"):
        coherent_state(alpha, 10)


@settings(max_examples=400)
@given(
    st.floats(min_value=1e-3, max_value=50.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_poisson_tail_matches_scipy(alpha_abs, position):
    # n anywhere from 0 to far beyond the mean, where the tail is tiny; the
    # truncation table holds n = max(1, floor(mean)) on, and past its end
    # every tail is 0
    mean = alpha_abs**2
    n = int(position * (mean + 40.0 * math.sqrt(mean) + 60.0))
    start, _, tails, *_ = _truncation(mean, None)
    expected = special.pdtrc(n, mean)
    if n >= start and expected > 1e-300:
        tail = tails[n - start] if n - start < tails.size else 0.0
        assert tail == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("alpha", [3e7, 1e8, 1e150])
def test_required_cutoff_refuses_a_drive_beyond_memory_at_once(alpha):
    # the drive's amplitudes at n_max = floor(|alpha|^2) already exceed
    # physical memory: refused before the search, which took 56 s at
    # |alpha| = 3e7 (naming a cutoff 5.71 std above the mean), named the
    # mean itself at 1e8 and did not end at 1e150
    src = os.path.dirname(os.path.dirname(uil.fock.__file__))
    script = (
        "import time\n"
        "from uil.fock import TruncationError, required_cutoff\n"
        "began = time.perf_counter()\n"
        f"try:\n    required_cutoff({alpha!r})\n"
        "except TruncationError as exc:\n    print(exc.required_cutoff, time.perf_counter() - began)\n    print(exc)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=20
    )
    assert done.returncode == 0, done.stderr
    required, seconds = done.stdout.splitlines()[0].split()
    assert required == "None"
    assert float(seconds) < 1.0
    assert f"|alpha|^2 = {alpha**2:.6g} needs at least {point_bytes(int(alpha**2))} bytes" in done.stdout
    assert f"{POINT_WHAT}, more than the" in done.stdout


@pytest.mark.parametrize(
    "alpha, tol, accepted", [(300.0, None, 91915), (300.0, 1e-8, 92404), (3000.0, None, 9019091), (3000.0, 1e-8, 9024389)]
)
def test_required_cutoff_pins_deep_drives(alpha, tol, accepted):
    # drives past the scipy search's grid: check_cutoff accepts from
    # `accepted` on and refuses the cutoff below, naming required_cutoff.
    # Without tol it refuses only a tail of 1e-10 or more, yet names the
    # cutoff of tol 1e-8; in between simulate warns, before it builds the
    # drive
    needed = {300.0: 92404, 3000.0: 9024389}[alpha]
    assert required_cutoff(alpha, tol) == needed
    assert check_cutoff(alpha, accepted, tol) == accepted
    with pytest.raises(TruncationError, match=f"; use n_max >= {needed}$") as err:
        check_cutoff(alpha, accepted - 1, tol)
    assert err.value.required_cutoff == needed
    if accepted < needed:
        assert check_cutoff(alpha, needed - 1) == needed - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            with pytest.raises(TruncationWarning, match=f"at n_max = {needed - 1} shifts its moments by"):
                simulate(InterferometerParams(0.7, 0.9, 1.1, kappa=0.4, alpha=alpha), needed - 1)


def test_cutoff_table_builds_no_weight_below_the_mode():
    # the table reads the drive's weights from floor(|alpha|^2) up: at
    # |alpha| 3000 it peaks at 6.5 MB, where the 9e6 weights below the
    # mode alone would take 72 MB
    tracemalloc.start()
    try:
        assert required_cutoff(3000.0, 1e-8) == 9024389
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def test_required_cutoff_matches_scipy_search():
    def scipy_cutoff(alpha, tol):
        # first n >= max(1, floor(mean)) whose tail is below 1e-10 and
        # that shifts the drive's photon-number mean and standard deviation
        # by less than tol, 1e-8 (the warning's limit) without one, or
        # leaves a tail below eps; the shifts from the tail's moments
        # summed term by term
        mean = alpha**2
        if mean == 0.0:
            return 1
        start = max(1, int(mean))
        n = np.arange(start, start + int(10.0 * math.sqrt(mean)) + 40)
        tail = special.pdtrc(n, mean)
        k = np.arange(n[-1] + 200.0)
        pmf = stats.poisson.pmf(k, mean)
        first = np.cumsum((k * pmf)[::-1])[::-1][n + 1]  # sum over k > n of k p_k
        second = np.cumsum((k**2 * pmf)[::-1])[::-1][n + 1]
        variance_shift = 2.0 * mean * first - second - first**2
        std_shift = np.abs(variance_shift) / (np.sqrt(mean + variance_shift) + math.sqrt(mean))
        shift_tol = 1e-8 if tol is None else tol
        fits = (tail < 1e-10) & ((tail < np.finfo(float).eps) | (np.maximum(first, std_shift) < shift_tol))
        assert fits.any(), alpha
        return int(n[np.argmax(fits)])

    for tol, points in [(None, 2001), (1e-6, 401), (1e-8, 401), (1e-9, 401), (1e-12, 401)]:
        for alpha in np.linspace(0.0, 40.0, points):
            assert required_cutoff(alpha, tol) == scipy_cutoff(alpha, tol), (alpha, tol)


# ladder operators


def test_mode_operators_basics():
    lowering, raising = mode_operators(6)
    assert np.all(lowering @ vacuum(7) == 0.0)
    np.testing.assert_array_equal(raising, lowering.conj().T)
    for n in range(6):
        assert lowering[n, n + 1] == pytest.approx(math.sqrt(n + 1))
    number = raising @ lowering
    np.testing.assert_allclose(number, number_operator(6))
    np.testing.assert_allclose(number.diagonal().real, np.arange(7))


def test_truncated_commutator():
    n_max = 9
    lowering, raising = mode_operators(n_max)
    commutator = lowering @ raising - raising @ lowering
    diag = commutator.diagonal().real
    np.testing.assert_allclose(diag[:-1], np.ones(n_max), atol=1e-14)
    # the single deviation of the truncated algebra sits at the edge state
    assert diag[-1] == pytest.approx(-n_max)


# beam splitter unitary


def test_splitter_unitary_identity_at_zero():
    np.testing.assert_allclose(beam_splitter_unitary(0.0, 4), np.eye(25), atol=1e-14)


@pytest.mark.parametrize("n_max", [6, 25])
@pytest.mark.parametrize("theta", [0.3, math.pi / 4, 1.2])
def test_splitter_unitarity(n_max, theta):
    u = beam_splitter_unitary(theta, n_max)
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    assert defect < 1e-12


def test_splitter_inverse_by_negation():
    u = beam_splitter_unitary(0.7, 6) @ beam_splitter_unitary(-0.7, 6)
    np.testing.assert_allclose(u, np.eye(49), atol=1e-13)


def test_splitter_single_photon_action():
    d = 7
    one_photon_a = np.zeros(d, dtype=complex)
    one_photon_a[1] = 1.0
    state = TwoModeState.from_single_modes(one_photon_a, vacuum(d), 6)
    rotated = state.apply(beam_splitter_unitary(math.pi / 4, 6)).amplitudes.reshape(d, d)
    # |1,0> -> cos|1,0> - sin|0,1>
    assert rotated[1, 0] == pytest.approx(math.sqrt(0.5), abs=1e-13)
    assert rotated[0, 1] == pytest.approx(-math.sqrt(0.5), abs=1e-13)
    assert np.sum(np.abs(rotated) ** 2) == pytest.approx(1.0, abs=1e-13)


def test_splitter_heisenberg_consistency():
    n_max, theta = 10, 0.9
    d = n_max + 1
    u = beam_splitter_unitary(theta, n_max)
    lowering, _ = mode_operators(n_max)
    eye = np.eye(d, dtype=complex)
    mode_a, mode_b = np.kron(lowering, eye), np.kron(eye, lowering)
    transformed = u.conj().T @ mode_a @ u
    expected = math.cos(theta) * mode_a + math.sin(theta) * mode_b
    totals = np.add.outer(np.arange(d), np.arange(d)).ravel()
    keep = totals < n_max
    block = np.ix_(keep, keep)
    assert np.max(np.abs(transformed[block] - expected[block])) < 1e-10


def test_splitter_coherent_covariance():
    # splitting a coherent state yields the product of rotated amplitudes
    alpha, theta, n_max = 1.2 + 0.3j, 0.8, 25
    d = n_max + 1
    state = TwoModeState.from_single_modes(coherent_state(alpha, n_max), vacuum(d), n_max)
    split = state.apply(beam_splitter_unitary(theta, n_max))
    target = TwoModeState.from_single_modes(
        coherent_state(math.cos(theta) * alpha, n_max),
        coherent_state(-math.sin(theta) * alpha, n_max),
        n_max,
    )
    overlap = abs(np.vdot(target.amplitudes, split.amplitudes)) ** 2
    assert overlap >= 1.0 - 1e-10


@pytest.mark.parametrize("n_max", range(1, 9))
def test_mixer_sectors_are_the_sector_blocks_of_the_dense_expm(n_max):
    # sector N of exp(theta G): rows and columns |n_a, N - n_a>, n_a ascending
    d = n_max + 1
    rng = np.random.default_rng(200 + n_max)
    for theta in rng.uniform(-math.pi, math.pi, 3):
        unitary = linalg.expm(theta * splitter_generator(n_max))
        sectors = list(mixer_sectors(theta, d))
        assert len(sectors) == d
        for total, rotation in enumerate(sectors):
            index = np.arange(total + 1) * d + total - np.arange(total + 1)
            assert np.max(np.abs(rotation - unitary[np.ix_(index, index)])) <= 1e-12


@pytest.mark.parametrize("theta", [-0.7, 0.3, math.pi / 4, 1.2])
def test_mixer_sectors_stay_orthogonal_to_the_largest_cutoff(theta):
    # every sector N <= 329, about |alpha| = 15's cutoff, built by the recurrence
    for total, rotation in enumerate(mixer_sectors(theta, 330)):
        assert np.max(np.abs(rotation.T @ rotation - np.eye(total + 1))) <= 1e-13, total


@pytest.mark.parametrize("n_max", range(1, 8))
def test_sector_splitter_matches_dense_expm(n_max):
    # random states confined to n_a + n_b <= n_max, the splitter's
    # precondition; the dense generator keeps them there
    d = n_max + 1
    rng = np.random.default_rng(n_max)
    theta = rng.uniform(-math.pi, math.pi)
    unitary = linalg.expm(theta * splitter_generator(n_max))
    beyond = np.add.outer(np.arange(d), np.arange(d)) > n_max
    psi = np.where(beyond, 0.0, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    expected = (unitary @ psi.ravel()).reshape(d, d)
    assert np.max(np.abs(apply_beam_splitter(psi, theta, axes=(0, 1)) - expected)) <= 1e-12
    # rank 3, splitter pair on the last and first axes (mode a = axis 2)
    # with a spectator axis between them
    psi = np.where(beyond[:, None, :], 0.0, rng.normal(size=(d, 3, d)) + 1j * rng.normal(size=(d, 3, d)))
    pair_first = np.moveaxis(psi, (2, 0), (0, 1)).reshape(d * d, 3)
    expected = np.moveaxis((unitary @ pair_first).reshape(d, d, 3), (0, 1), (2, 0))
    assert np.max(np.abs(apply_beam_splitter(psi, theta, axes=(2, 0)) - expected)) <= 1e-12


@pytest.mark.parametrize("n_max", range(1, 9))
def test_split_table_is_the_dense_splitter_on_a_number_state_and_vacuum(n_max):
    # column (n, 0) of the dense exp(theta G) holds <n_a, n - n_a| U |n, 0>:
    # its squares summed over n_b are the row of n kept at cos^2, over n_a
    # the row of n kept at sin^2, for the angles stacked along one axis
    d = n_max + 1
    rng = np.random.default_rng(100 + n_max)
    thetas = rng.uniform(-math.pi, math.pi, 3)
    cos2, sin2 = np.cos(thetas) ** 2, np.sin(thetas) ** 2
    for n in range(d):
        rows = _thinned(np.eye(d)[n], np.stack([cos2, sin2]), np.stack([sin2, cos2]))
        for i, theta in enumerate(thetas):
            column = np.abs(linalg.expm(theta * splitter_generator(n_max))[:, n * d].reshape(d, d)) ** 2
            assert np.max(np.abs(rows[:, 0, i] - column.sum(axis=1))) <= 1e-12
            assert np.max(np.abs(rows[:, 1, i] - column.sum(axis=0))) <= 1e-12


def test_split_number_states_keep_their_norm():
    # every number state n <= 329, about |alpha| = 15's cutoff, of a random
    # weight: its thinned row sums to that weight
    rng = np.random.default_rng(329)
    thetas = np.array([0.0, math.pi / 2, math.pi, *rng.uniform(-math.pi, math.pi, 6)])
    for n in range(330):
        weight = rng.uniform(0.5, 1.0)
        rows = _thinned(np.eye(n + 1)[n] * weight, np.cos(thetas) ** 2, np.sin(thetas) ** 2)
        assert np.max(np.abs(rows.sum(axis=0) - weight)) <= 1e-13, n


def test_apply_beam_splitter_rejects_mismatched_axes():
    with pytest.raises(ValueError):
        apply_beam_splitter(np.zeros((3, 4), dtype=complex), 0.3, axes=(0, 1))


# phase unitary


def test_phase_identity_at_zero():
    np.testing.assert_allclose(phase_unitary(0.0, 5), np.eye(36), atol=1e-15)


def test_phase_flips_single_photon():
    d = 6
    state = TwoModeState.from_single_modes(vacuum(d), np.eye(d, dtype=complex)[1], 5)
    flipped = state.apply(phase_unitary(math.pi, 5))
    np.testing.assert_allclose(flipped.amplitudes, -state.amplitudes, atol=1e-15)


def test_phase_rotates_coherent_amplitude():
    n_max = 25
    d = n_max + 1
    state = TwoModeState.from_single_modes(vacuum(d), coherent_state(1.0, n_max), n_max)
    rotated = state.apply(phase_unitary(math.pi / 2, n_max))
    target = TwoModeState.from_single_modes(
        vacuum(d), coherent_state(-1.0j, n_max), n_max
    )
    assert np.max(np.abs(rotated.amplitudes - target.amplitudes)) < 1e-10


def test_phase_unitary_acts_on_requested_mode():
    d = 4
    one_a = np.eye(d, dtype=complex)[1]
    state = TwoModeState.from_single_modes(one_a, vacuum(d), 3)
    on_probe = state.apply(phase_unitary(1.0, 3, mode=1))
    np.testing.assert_allclose(on_probe.amplitudes, state.amplitudes)
    on_reference = state.apply(phase_unitary(1.0, 3, mode=0))
    np.testing.assert_allclose(
        on_reference.amplitudes, np.exp(-1j) * state.amplitudes, atol=1e-15
    )


# loss channel


def test_loss_identity_channel():
    # at kappa = 1e-20 the loss takes 2e-20 of the probe's photons, far
    # below rounding: simulate must reproduce the lossless moments
    rng = np.random.default_rng(12)
    for _ in range(5):
        angles = rng.uniform(-3.0, 3.0, 3)
        lossless = simulate(InterferometerParams(*angles, alpha=0.7), 12)
        unsplit = simulate(InterferometerParams(*angles, kappa=1e-20, alpha=0.7), 12)
        np.testing.assert_allclose(unsplit, lossless, rtol=1e-14, atol=1e-15)


def test_loss_attenuates_mean_photon_number():
    dilated = attenuate(coherent_state(1.0, 20), math.log(2.0), axis=0)
    mean, _ = number_moments(dilated, axis=0)
    assert mean == pytest.approx(0.25, abs=1e-10)


def test_loss_keeps_vacuum():
    dilated = attenuate(vacuum(7), 0.8, axis=0)
    assert abs(dilated[0, 0]) == pytest.approx(1.0, abs=1e-14)
    assert np.sum(np.abs(dilated) ** 2) == pytest.approx(1.0, abs=1e-14)


def test_loss_preserves_norm():
    state = coherent_state(1.5, 18)
    dilated = attenuate(state, 0.5, axis=0)
    assert np.linalg.norm(dilated) == pytest.approx(np.linalg.norm(state), abs=1e-13)


# state and operator containers


def test_two_mode_state_shape_checked():
    with pytest.raises(ValueError):
        TwoModeState(np.zeros(7, dtype=complex), 2)


def test_difference_observable_expectation():
    d = 4
    one_b = np.eye(d, dtype=complex)[1]
    state = TwoModeState.from_single_modes(vacuum(d), one_b, 3)
    value = state.expectation(difference_observable(3))
    assert value.real == pytest.approx(1.0)
    assert value.imag == pytest.approx(0.0)


def test_operator_matrix_kinds_and_unitarity_gate():
    u = ModeOperatorMatrix(beam_splitter_unitary(0.4, 4), "unitary")
    assert u.unitarity_defect() < 1e-12
    lowering, _ = mode_operators(4)
    ModeOperatorMatrix(lowering, "annihilation", mode=0)
    with pytest.raises(ValueError):
        ModeOperatorMatrix(lowering, "unitary")
    with pytest.raises(ValueError):
        ModeOperatorMatrix(lowering, "hermitian")


# full simulation


def test_simulate_balanced_working_point():
    p = InterferometerParams(math.pi / 4, math.pi / 4, math.pi / 2)
    result = simulate(p, 30)
    assert result.mean_O == pytest.approx(0.0, abs=1e-10)
    assert result.std_O == pytest.approx(1.0, abs=1e-8)
    assert result.probe_intensity == pytest.approx(0.5, abs=1e-10)
    assert result.probe_std == pytest.approx(math.sqrt(0.5), abs=1e-10)


def test_simulate_vacuum_input():
    p = InterferometerParams(0.6, 1.1, 0.8, kappa=0.3, alpha=0.0)
    result = simulate(p, 8)
    assert result == (0.0, 0.0, 0.0, 0.0)


def test_simulate_std_is_amplitude_when_lossless():
    rng = np.random.default_rng(31)
    for _ in range(5):
        p = InterferometerParams(
            rng.uniform(0.0, math.pi / 2),
            rng.uniform(0.0, math.pi / 2),
            rng.uniform(0.0, 2 * math.pi),
            alpha=1.0,
        )
        assert simulate(p, 25).std_O == pytest.approx(1.0, abs=1e-8)


def test_simulate_matches_closed_forms_at_random_points():
    rng = np.random.default_rng(7)
    for _ in range(12):
        p = InterferometerParams(
            rng.uniform(0.0, math.pi / 2),
            rng.uniform(0.0, math.pi / 2),
            rng.uniform(0.0, 2 * math.pi),
            kappa=rng.uniform(0.0, 1.0),
            alpha=complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
        )
        result = simulate(p, 25)
        metrics = evaluate_metrics(p)
        assert result.mean_O == pytest.approx(metrics.mean_O, abs=1e-8)
        assert result.std_O == pytest.approx(metrics.std_O, abs=1e-8)
        assert result.probe_intensity == pytest.approx(metrics.intensity_probe, abs=1e-8)
        assert result.probe_std == pytest.approx(metrics.std_intensity_probe, abs=1e-8)


def test_simulate_matches_closed_forms_at_large_amplitude():
    # |alpha| = 8 needs n_max >= required_cutoff(8) = 121; ten more
    # photons keep the 1e-10 Poisson tail from costing ~5e-9 of the
    # 64-photon mean, so only the engine is tested
    alpha = 8.0
    n_max = required_cutoff(alpha) + 10
    rng = np.random.default_rng(8)
    for _ in range(3):
        p = InterferometerParams(
            rng.uniform(0.0, math.pi / 2),
            rng.uniform(0.0, math.pi / 2),
            rng.uniform(0.0, 2 * math.pi),
            kappa=rng.uniform(0.0, 1.0),
            alpha=alpha,
        )
        result = simulate(p, n_max)
        metrics = evaluate_metrics(p)
        assert result.mean_O == pytest.approx(metrics.mean_O, abs=1e-8)
        assert result.std_O == pytest.approx(metrics.std_O, abs=1e-8)
        assert result.probe_intensity == pytest.approx(metrics.intensity_probe, abs=1e-8)
        assert result.probe_std == pytest.approx(metrics.std_intensity_probe, abs=1e-8)


def test_simulate_network_output_is_product_coherent_state():
    n_max = 40
    for alpha, theta1, theta2, phi in [(2.0, 0.7, 0.9, 1.3), (1.0 + 1.0j, 0.3, 1.2, 2.1)]:
        p = InterferometerParams(theta1, theta2, phi, alpha=alpha)
        d = n_max + 1
        drive = coherent_state(alpha, n_max)
        vac = vacuum(d)
        psi = np.outer(drive, vac)
        psi = apply_beam_splitter(psi, theta1, axes=(0, 1))
        psi = psi * np.exp(-1j * phi * np.arange(d))
        psi = apply_beam_splitter(psi, theta2, axes=(0, 1))
        out = output_amplitudes(p)
        target = np.outer(coherent_state(out.a3, n_max), coherent_state(out.b3, n_max))
        fidelity = abs(np.vdot(target.ravel(), psi.ravel())) ** 2
        assert fidelity >= 1.0 - 1e-8


@pytest.mark.parametrize(
    "theta1, kappa, alpha",
    [(theta1, kappa, 2.5) for theta1 in (0.0, 0.7, math.pi / 2, -0.4, 7.0) for kappa in (0.0, 1e-12, 0.4, 3.0)]
    + [(0.7, 0.4, 1.5 - 2.0j)],
)
def test_simulate_moments_match_the_full_lossy_state(theta1, kappa, alpha):
    # simulate traces the ancilla out in closed form; the explicit
    # dilation, weighted as a whole rank-3 state, must give the same
    # moments.  No absolute slack: at theta1 = 0 the probe moments are
    # exactly 0 in the box, and so must they be in simulate
    p = InterferometerParams(theta1, 0.9, 1.1, kappa=kappa, alpha=alpha)
    n_max = 34
    d = n_max + 1
    psi = np.outer(coherent_state(p.alpha, n_max), vacuum(d))
    psi = apply_beam_splitter(psi, p.theta1, axes=(0, 1))
    probe_intensity, probe_std = number_moments(psi, axis=1)
    psi = psi * np.exp(-1j * p.phi * np.arange(d))
    psi = attenuate(psi, p.kappa, axis=1)
    psi = apply_beam_splitter(psi, p.theta2, axes=(0, 1))
    probabilities = np.abs(psi) ** 2
    numbers = np.arange(d, dtype=float)
    weights = (numbers[None, :] - numbers[:, None])[:, :, None]  # n_b - n_a
    mean = float((weights * probabilities).sum())
    std = math.sqrt(float((weights**2 * probabilities).sum()) - mean**2)
    expected = (mean, std, probe_intensity, probe_std)
    assert simulate(p, n_max) == pytest.approx(expected, rel=1e-12, abs=0.0)


def rotation_route(p, n_max):
    """simulate's four moments from whole sector rotations on boxes.

    The input splitter and the loss are :func:`apply_beam_splitter` on
    boxes.  The ancilla is traced out branch by branch, one branch for
    each number l of lost photons, and each sector's whole rotation from
    :func:`mixer_sectors` turns every branch of the sector at once.
    """
    d = n_max + 1
    psi = apply_beam_splitter(np.outer(coherent_state(p.alpha, n_max), vacuum(d)), p.theta1, axes=(0, 1))
    probe_intensity, probe_std = number_moments(psi, axis=1)
    psi = psi * np.exp(-1j * p.phi * np.arange(d))
    number_states = np.zeros((d, d), dtype=complex)
    number_states[:, 0] = 1.0
    loss = apply_beam_splitter(number_states, math.acos(math.exp(-p.kappa)), axes=(0, 1))  # <m, l| U |m + l, 0>
    mean = second = 0.0
    for total, rotation in enumerate(mixer_sectors(p.theta2, d)):
        n_a = np.arange(total + 1)[:, None]
        lost = np.arange(n_max - total + 1)  # n_a + n_b + l <= n_max
        branches = psi[n_a, total - n_a + lost] * loss[total - n_a, lost]
        probabilities = np.abs(rotation @ branches) ** 2
        signal = total - 2.0 * n_a  # n_b - n_a
        mean += float((signal * probabilities).sum())
        second += float((signal**2 * probabilities).sum())
    return mean, math.sqrt(second - mean**2), probe_intensity, probe_std


def dense_route(p, n_max):
    """simulate's four moments from the dense two-mode unitaries, the ancilla traced out branch by branch."""
    d = n_max + 1
    state = TwoModeState.from_single_modes(coherent_state(p.alpha, n_max), vacuum(d), n_max)
    state = state.apply(beam_splitter_unitary(p.theta1, n_max))
    probe_intensity, probe_std = number_moments(state.as_matrix(), axis=1)
    psi = state.apply(phase_unitary(p.phi, n_max)).as_matrix()
    # loss[m, l, n] = <m, l| U |n, 0>, the probe's photons m kept and l lost
    loss = beam_splitter_unitary(math.acos(math.exp(-p.kappa)), n_max)[:, ::d].reshape(d, d, d)
    branches = np.einsum("an,mln->lam", psi, loss).reshape(d, d * d)  # branch l's box, flat
    turned = beam_splitter_unitary(p.theta2, n_max) @ branches.T
    observable = difference_observable(n_max)
    mean = float(np.real(np.vdot(turned, observable @ turned)))
    second = float(np.real(np.vdot(turned, observable @ (observable @ turned))))
    return mean, math.sqrt(second - mean**2), probe_intensity, probe_std


ROUTE_POINTS = [(0.7, 0.9, 1.1, 0.0), (1.2, 0.3, 4.0, 0.4), (0.4, 1.4, 2.5, 1.3)]


@pytest.mark.parametrize("alpha, n_max", [(1.0, 12), (3.0, 36), (8.0, 131), (15.0, 333)])
def test_simulate_agrees_with_the_rotation_route(alpha, n_max):
    # lossless and lossy points, up to |alpha| = 15's cutoff: the column
    # recursion and the binomial thinnings against whole rotations and the
    # dilated loss, within 1e-11 of the larger of a moment and 1e-3 |alpha|^2
    for point in ROUTE_POINTS:
        p = InterferometerParams(*point, alpha=alpha)
        expected = np.array(rotation_route(p, n_max))
        got = np.array(simulate(p, n_max))
        assert np.all(np.abs(got - expected) <= 1e-11 * np.maximum(np.abs(expected), 1e-3 * alpha**2)), point


@pytest.mark.parametrize("alpha, n_max", [(0.3, 6), (1.0, 12)])
def test_simulate_agrees_with_the_dense_route(alpha, n_max):
    for point in ROUTE_POINTS:
        p = InterferometerParams(*point, alpha=alpha)
        expected = np.array(dense_route(p, n_max))
        assert np.array(simulate(p, n_max)) == pytest.approx(expected, rel=1e-12, abs=1e-14), point
        assert np.array(rotation_route(p, n_max)) == pytest.approx(expected, rel=1e-12, abs=1e-14), point


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0, 8.0])
def test_simulate_values_agrees_with_simulate_point_by_point(alpha, monkeypatch):
    # 101 points a drive, every other one lossy, at a random phase, run in
    # chunks of 7 (the last one short) and all in one chunk: every field
    # of every point agrees with that point's own simulate call
    n_max = required_cutoff(alpha, 1e-8) + 2
    count = point_bytes(n_max)
    rng = np.random.default_rng(int(10 * alpha))
    theta1, theta2 = rng.uniform(0.0, math.pi / 2, (2, 101))
    phi = rng.uniform(0.0, 2.0 * math.pi, 101)
    kappa = np.where(np.arange(101) % 2 == 1, rng.uniform(0.0, 1.5, 101), 0.0)
    expected = np.array(
        [simulate(InterferometerParams(*point, alpha=alpha), n_max) for point in zip(theta1, theta2, phi, kappa)]
    ).T
    for chunk in (7, 101):
        monkeypatch.setattr(uil.params, "physical_memory_bytes", lambda: chunk * uil.fock._CHUNK_SHARE * count)
        values = simulate_values(theta1, theta2, phi, kappa, alpha, n_max)
        assert list(values) == list(SimulationMoments._fields)
        got = np.array(list(values.values()))
        assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected)), chunk


def test_simulate_values_keeps_the_broadcast_shape():
    # theta1 along one axis, phi along another, the rest scalars: each
    # field has the broadcast shape, and a scalar call gives 0-d arrays
    theta1 = np.array([0.3, 0.9, 1.2])[:, None]
    phi = np.array([0.4, 2.0])
    values = simulate_values(theta1, 0.7, phi, 0.2, 1.5, 20)
    assert {value.shape for value in values.values()} == {(3, 2)}
    for i, j in np.ndindex(3, 2):
        one = simulate(InterferometerParams(theta1[i, 0], 0.7, phi[j], kappa=0.2, alpha=1.5), 20)
        assert tuple(value[i, j] for value in values.values()) == pytest.approx(one, rel=1e-13, abs=0.0)
    assert {value.shape for value in simulate_values(0.3, 0.7, 0.4, 0.2, 1.5, 20).values()} == {()}


def probe_moments_at(alpha, n_max):
    # at theta1 = pi/2 and no loss the probe holds the whole drive, so its
    # mean and standard deviation are the truncated drive's
    p = InterferometerParams(math.pi / 2, 0.7, 1.1, alpha=alpha)
    return np.array(simulate(p, n_max)[2:])


@pytest.mark.parametrize("alpha, n_max, shift", [(0.00375, 1, "5.273e-08"), (20.0, 534, "2.725e-07")])
def test_simulate_warns_on_the_moment_shift(alpha, n_max, shift):
    # the drive truncated at n_max moves its mean or standard deviation by
    # the shift, at least 1e-8, and the probe moments move by as much
    # against a cutoff past the drive's end; 534 is the first cutoff whose
    # tail is below 1e-10, and required_cutoff(20) names 545
    with pytest.warns(TruncationWarning, match=f"shifts its moments by {shift}, which reaches 1.0e-08"):
        truncated = probe_moments_at(alpha, n_max)
    far = probe_moments_at(alpha, 2 * n_max + 200)
    assert np.max(np.abs(truncated - far)) == pytest.approx(float(shift), rel=1e-3)


@pytest.mark.parametrize("alpha, n_max, moved", [(0.16, 4, 7e-9), (1e-3, 1, 1.01e-9)])
def test_simulate_is_silent_below_the_moment_shift_limit(alpha, n_max, moved):
    # the truncated drive's moments shift by 6.95e-9 and 1.0e-9, below
    # 1e-8, and no value moves by more against n_max = 40, though the
    # drive's weight at |n_max> is 1.744e-8 and 1e-6
    rng = np.random.default_rng(7)
    points = [rng.uniform(0.0, high, 50) for high in (math.pi / 2, math.pi / 2, 2.0 * math.pi, 1.0)]
    truncated = simulate_values(*points, alpha, n_max)
    far = simulate_values(*points, alpha, 40)
    assert max(np.max(np.abs(truncated[name] - far[name])) for name in far) < moved


def test_simulate_rejects_undersized_cutoff():
    p = InterferometerParams(0.4, 0.9, 0.5, alpha=3.0)
    with pytest.raises(TruncationError):
        simulate(p, 10)


@pytest.mark.parametrize(
    "call",
    [
        "check_cutoff(3.0, 5)",
        "check_cutoff(1e7, 40)",
        "simulate(InterferometerParams(0.4, 0.9, 0.5, kappa=0.3, alpha=1e7), 40)",
    ],
)
def test_library_refuses_a_drive_beyond_the_cutoff_at_once(call):
    # |alpha|^2 > n_max: refused before the Poisson-tail search, whose
    # work grows with |alpha| (at |alpha|^2 = 1e14 it took 25 s), and
    # with no cutoff named
    src = os.path.dirname(os.path.dirname(uil.fock.__file__))
    script = (
        "from uil import InterferometerParams, TruncationError, simulate\n"
        "from uil.fock import check_cutoff\n"
        f"try:\n    {call}\nexcept TruncationError as exc:\n    print(exc, exc.required_cutoff)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert "n_max must exceed |alpha|^2 None" in done.stdout


def test_simulate_refuses_a_cutoff_beyond_physical_memory():
    # |alpha|^2 = 10^20 at n_max = 10^20: the drive's weights reach 10^20
    # photons, 192 (10^20 + 72) bytes, about 1.9e22: refused before the
    # drive (8e20 bytes) or anything else is allocated, and before the
    # O(n^2) sector loop could start; n_max = 10^21 is refused the same way
    # before its Poisson tail is summed
    p = InterferometerParams(0.4, 0.9, 0.5, kappa=0.3, alpha=1e10)
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match="physical memory") as err:
            simulate(p, 10**20)
        with pytest.raises(TruncationError, match=re.escape(f"{POINT_WHAT}, more than the")):
            coherent_state(1e10, 10**21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"needs at least {point_bytes(10**20)} bytes, {POINT_WHAT}, more than" in str(err.value)
    assert peak < 1_000_000  # bytes: the drive alone would be 8e20


@pytest.mark.parametrize("alpha, last", [(0.0, 0), (1e-5, 29), (1.0, 177)])
def test_a_cutoff_past_the_drive_changes_no_bit(alpha, last):
    # the drive's weights end at the last nonzero one, n = last: in 50-digit
    # mpmath it is at least the smallest subnormal, and the next one rounds
    # to 0.  Every cutoff at or past it runs the same drive, so every value
    # is the one at n_max = last to the bit, at a cost the drive sets
    with mpmath.workdps(50):
        def weight(n):
            return mpmath.exp(-mpmath.mpf(alpha) ** 2) * mpmath.mpf(alpha) ** (2 * n) / mpmath.factorial(n)

        assert weight(last) >= mpmath.mpf(2) ** -1074
        assert weight(last + 1) < mpmath.mpf(2) ** -1075
    rng = np.random.default_rng(29)
    theta1, theta2 = rng.uniform(0.0, math.pi / 2, (2, 20))
    phi = rng.uniform(0.0, 2.0 * math.pi, 20)
    kappa = np.where(np.arange(20) % 2 == 1, rng.uniform(0.0, 1.5, 20), 0.0)
    expected = simulate_values(theta1, theta2, phi, kappa, alpha, max(1, last))
    for n_max in (last + 1, 2 * last + 7, 10**6, 10**11):
        assert _poisson(alpha**2, 0, n_max).size == last + 1, n_max
        got = simulate_values(theta1, theta2, phi, kappa, alpha, n_max)
        for name in SimulationMoments._fields:
            assert np.array_equal(got[name], expected[name]), (n_max, name)


def test_vacuum_runs_on_a_drive_of_one_entry():
    # no photon at any cutoff: one weight, 1, and every moment exactly 0
    p = InterferometerParams(0.7, 0.9, 1.1, kappa=0.4, alpha=0.0)
    for n_max in (1, 40, 10**11):
        drive = _poisson(0.0, 0, n_max)
        assert drive.dtype == np.float64
        assert drive.tolist() == [1.0]
        assert simulate(p, n_max) == (0.0, 0.0, 0.0, 0.0)


def first_lossy_peak(alpha, n_max, points=None):
    """Traced peak of a lossy simulate call, or of a simulate_values call over ``points`` copies of its point."""
    p = InterferometerParams(0.7, 0.9, 1.1, kappa=0.4, alpha=alpha)
    tracemalloc.start()
    try:
        if points is None:
            simulate(p, n_max)
        else:
            simulate_values(*(np.full(points, x) for x in (p.theta1, p.theta2, p.phi, p.kappa)), alpha, n_max)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lossy_simulate_peaks_well_below_the_box():
    # measured at 0.005 of the 16 * 61^3 byte box: a point holds O(n_max)
    assert first_lossy_peak(3.0, 60) < 0.15 * 16 * 61**3


def test_lossy_simulate_peak_at_a_large_cutoff():
    # measured at 48 KB; 229 is one below the cutoff required_cutoff(12)
    # names, so the drive's moments shift by 1.413e-8 and simulate warns
    with pytest.warns(TruncationWarning, match="shifts its moments by 1.413e-08"):
        peak = first_lossy_peak(12.0, 229)
    assert peak < 3_000_000


@pytest.mark.parametrize("alpha, n_max", [(3.0, 60), (12.0, 229)])
def test_memory_refusal_counts_at_least_the_traced_peak(alpha, n_max, monkeypatch):
    # the count bounds what a first lossy call holds, and what a batch
    # holds per point of its chunk; a memory one byte short of one point's
    # count at floor(|alpha|^2) refuses the drive, for a point and for a
    # batch, and exactly that much runs them.  At |alpha| 12, n_max 229 is
    # one below the cutoff required_cutoff names, so every run warns
    expected = pytest.warns(TruncationWarning) if n_max < required_cutoff(alpha) else contextlib.nullcontext()
    with expected:
        count = point_bytes(n_max)
        single = first_lossy_peak(alpha, n_max)
        assert single <= count
        monkeypatch.setattr(uil.params, "physical_memory_bytes", lambda: 3 * uil.fock._CHUNK_SHARE * count)
        batch = first_lossy_peak(alpha, n_max, points=5)  # a chunk of 3 points, then one of 2
        assert single < batch <= 3 * count
        refused = point_bytes(int(alpha**2))
        p = InterferometerParams(0.7, 0.9, 1.1, kappa=0.4, alpha=alpha)
        monkeypatch.setattr(uil.params, "physical_memory_bytes", lambda: refused - 1)
        with pytest.raises(TruncationError, match=re.escape(f"needs at least {refused} bytes")):
            simulate(p, n_max)
        with pytest.raises(TruncationError, match=re.escape(f"needs at least {refused} bytes")):
            simulate_values(np.full(5, 0.7), 0.9, 1.1, 0.4, alpha, n_max)
        monkeypatch.setattr(uil.params, "physical_memory_bytes", lambda: refused)
        simulate(p, n_max)
        simulate_values(np.full(5, 0.7), 0.9, 1.1, 0.4, alpha, n_max)


def test_point_count_bounds_the_traced_peak_at_every_cutoff(monkeypatch):
    # every n_max from 1 to 333, each with the largest of these drives it
    # holds: a first lossy call stays within one point's count at the
    # drive's size, and a batch of 5 in chunks of 3 within three counts.
    # At small cutoffs a fixed 12 KB, most of it numpy broadcasting the
    # inputs, sets the peak, and at |alpha| 4.4, n_max 53 the cutoff
    # check's table, sized by the mean, holds 0.87 of the count, its
    # largest share for |alpha| up to 16
    drives = [(required_cutoff(alpha), alpha) for alpha in (1e-5, 1.0, 3.0, 4.4, 8.0, 12.0, 15.0)]
    for n_max in range(1, 334):
        alpha = max(alpha for needed, alpha in drives if needed <= n_max)
        count = point_bytes(_poisson(alpha**2, 0, n_max).size - 1)
        monkeypatch.setattr(uil.params, "physical_memory_bytes", lambda: 3 * uil.fock._CHUNK_SHARE * count)
        assert first_lossy_peak(alpha, n_max) <= count, n_max
        assert first_lossy_peak(alpha, n_max, points=5) <= 3 * count, n_max


def test_relabeled_network_gives_identical_physics():
    # Swapping which slot carries the drive, the phase and the loss is a
    # pure relabeling: with both splitters negated and the observable
    # negated, every reported number must be unchanged.
    p = InterferometerParams(0.65, 1.05, 0.85, kappa=0.4, alpha=1.1)
    n_max = 22
    d = n_max + 1
    reference = simulate(p, n_max)

    drive = coherent_state(p.alpha, n_max)
    psi = np.outer(vacuum(d), drive)  # drive now enters the second slot
    psi = apply_beam_splitter(psi, -p.theta1, axes=(0, 1))
    probe_intensity, probe_std = number_moments(psi, axis=0)
    psi = psi * np.exp(-1j * p.phi * np.arange(d))[:, None]  # phase on first slot
    psi = attenuate(psi, p.kappa, axis=0)
    psi = apply_beam_splitter(psi, -p.theta2, axes=(0, 1))
    probabilities = np.abs(psi) ** 2
    numbers = np.arange(d, dtype=float)
    weights = (numbers[:, None] - numbers[None, :])[:, :, None]  # n_first - n_second
    mean = float((weights * probabilities).sum())
    second = float((weights**2 * probabilities).sum())
    std = math.sqrt(max(second - mean**2, 0.0))

    assert mean == pytest.approx(reference.mean_O, abs=1e-10)
    assert std == pytest.approx(reference.std_O, abs=1e-10)
    assert probe_intensity == pytest.approx(reference.probe_intensity, abs=1e-10)
    assert probe_std == pytest.approx(reference.probe_std, abs=1e-10)


def test_cross_check_lossy_resolution_against_simulator():
    # finite-difference the simulated signal and divide the simulated
    # noise: must reproduce the closed-form resolution
    p = InterferometerParams(math.pi / 4, math.pi / 4, math.pi / 2, kappa=0.5)
    n_max, step = 25, 1e-4
    plus = simulate(
        InterferometerParams(p.theta1, p.theta2, p.phi + step, kappa=p.kappa), n_max
    )
    minus = simulate(
        InterferometerParams(p.theta1, p.theta2, p.phi - step, kappa=p.kappa), n_max
    )
    gradient = (plus.mean_O - minus.mean_O) / (2.0 * step)
    std = simulate(p, n_max).std_O
    assert std / abs(gradient) == pytest.approx(math.sqrt((math.e + 1.0) / 2.0), rel=1e-6)


def test_probe_stats_match_closed_form_after_first_splitter():
    p = InterferometerParams(0.4, 1.2, 2.0, alpha=1.5)
    result = simulate(p, 25)
    metrics = evaluate_metrics(p)
    assert result.probe_intensity == pytest.approx(metrics.intensity_probe, abs=1e-10)
    assert result.probe_std == pytest.approx(metrics.std_intensity_probe, abs=1e-10)


def test_analytic_signal_and_noise_against_simulator_lossless():
    p = InterferometerParams(1.1, 0.35, 0.9, alpha=0.8 + 0.6j)
    result = simulate(p, 25)
    assert result.mean_O == pytest.approx(evaluate_metrics(p).mean_O, abs=1e-10)
    assert result.std_O == pytest.approx(evaluate_metrics(p).std_O, abs=1e-10)
