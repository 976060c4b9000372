import dataclasses
import importlib.util
import math
from pathlib import Path

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings

from uil.analytic import metrics_values
from uil.optimize import (
    OBJECTIVES,
    REGIME_KINDS,
    ConstraintRegime,
    optimize,
)

import numeric_optimum
from numeric_optimum import (
    DEFAULT_GRID_POINTS,
    CountingObjective,
    fluctuation_ratio_values,
    scan,
    search_optimum,
)

EQUAL_OPT_ANGLE = math.atan(1.0 / math.sqrt(2.0))
EQUAL_OPT_VALUE = 8.0 * math.sqrt(3.0) / 9.0
SUBNORMAL_KAPPA = 740.0  # T = exp(-740) ~ 4e-322, below the normal double range


def bench_reference():
    """The benchmark's own closed forms and golden-section optimum."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regime_validation():
    with pytest.raises(ValueError):
        ConstraintRegime("diagonal")
    with pytest.raises(ValueError):
        ConstraintRegime("free", kappa=-1.0)


def test_stationary_angle_identities():
    # arctan(1/sqrt(2)) and arcsin(1/sqrt(3)) are the same point
    assert EQUAL_OPT_ANGLE == pytest.approx(math.asin(1.0 / math.sqrt(3.0)), abs=1e-15)
    # and it is the stationary point of 4s - 4s^3 in s = sin(theta)
    s = math.sin(EQUAL_OPT_ANGLE)
    assert 4.0 - 12.0 * s * s == pytest.approx(0.0, abs=1e-14)


def test_equal_splitters_fluctuation_optimum():
    report = optimize("rho_fluctuation", ConstraintRegime("equal_splitters"))
    assert not report.boundary_supremum and not report.unbounded
    assert report.theta1 == report.theta2
    assert abs(report.theta1 - EQUAL_OPT_ANGLE) < 1e-15
    assert abs(report.value - EQUAL_OPT_VALUE) < 1e-15
    assert 1.088 <= report.value / math.sqrt(2.0) <= 1.090
    assert report.phi == math.pi / 2
    assert report.n_evaluations == 1


def test_equal_splitters_with_free_phase():
    report = optimize("rho_fluctuation", ConstraintRegime("equal_splitters", phi=None))
    assert abs(report.theta1 - EQUAL_OPT_ANGLE) < 1e-15
    assert report.phi == math.pi / 2
    assert abs(report.value - EQUAL_OPT_VALUE) < 1e-15
    # coarse independent 2-D scan agrees on the argmax location
    thetas = np.linspace(0.0, math.pi / 2, 301)
    phis = np.linspace(0.0, math.pi, 301)
    grid = fluctuation_ratio_values(
        thetas[:, None], thetas[:, None], phis[None, :], 0.0
    )
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    assert abs(thetas[i] - report.theta1) < 0.01
    assert abs(phis[j] - report.phi) < 0.01


@pytest.mark.parametrize("kappa", [0.0, 0.1, 0.5, 1.0, 1.7, 3.0])
def test_equal_splitter_angle_matches_bench_golden_optimum(kappa):
    report = optimize("rho_fluctuation", ConstraintRegime("equal_splitters", kappa=kappa), eta=0.8)
    mpmath.mp.dps = 50
    t = mpmath.exp(-mpmath.mpf(kappa))
    stationary = mpmath.atan(mpmath.sqrt(2 / (1 + mpmath.sqrt(1 + 8 * t * t))))
    assert abs(report.theta1 - float(stationary)) <= 1e-15
    # the peak is flat to rounding within about 1e-8, so a golden-section
    # search stops that far off it: 1.2e-8 at kappa = 3
    theta, value = bench_reference().equal_splitter_fluctuation_optimum(kappa, 0.8)
    assert abs(report.theta1 - theta) < 2e-8
    assert report.value == pytest.approx(value, rel=1e-15)


def test_fixed_mixer_reports_boundary_not_interior():
    report = optimize("rho_fluctuation", ConstraintRegime("fixed_mixer"))
    assert report.boundary_supremum and not report.unbounded
    assert report.theta1 == 0.0
    assert report.theta2 == math.pi / 4
    assert report.value == 2.0


def test_fixed_mixer_objective_strictly_decreasing():
    thetas = np.linspace(1e-3, math.pi / 2 - 1e-3, 500)
    values = fluctuation_ratio_values(thetas, math.pi / 4, math.pi / 2, 0.0)
    assert np.all(np.diff(values) < 0.0)


def test_free_regime_boundary_supremum():
    for kappa in (0.0, SUBNORMAL_KAPPA):
        report = optimize("rho_fluctuation", ConstraintRegime("free", kappa=kappa, phi=None))
        assert report.boundary_supremum and not report.unbounded
        assert report.theta1 == 0.0
        assert report.theta2 == math.pi / 4
        assert report.value == 2.0 * math.exp(-kappa)


def test_free_intensity_objective_is_unbounded():
    for kind in ("free", "fixed_mixer"):
        for kappa in (0.0, SUBNORMAL_KAPPA):
            report = optimize("rho_intensity", ConstraintRegime(kind, kappa=kappa))
            assert report.unbounded and report.boundary_supremum
            assert report.value == math.inf
            assert (report.theta1, report.theta2) == (0.0, math.pi / 4)


def test_equal_splitters_intensity_boundary_limit():
    for alpha in (1.0, 2.0, 0.3):
        report = optimize("rho_intensity", ConstraintRegime("equal_splitters"), alpha=alpha)
        assert report.boundary_supremum and not report.unbounded
        assert (report.theta1, report.theta2) == (0.0, 0.0)
        assert report.value == pytest.approx(4.0 / alpha, rel=1e-15)


def test_optimized_value_non_increasing_in_loss():
    for kind in ("equal_splitters", "fixed_mixer"):
        values = [
            optimize("rho_fluctuation", ConstraintRegime(kind, kappa=k)).value
            for k in (0.0, 0.25, 0.5, 1.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_lossy_equal_splitters_beats_grid():
    regime = ConstraintRegime("equal_splitters", kappa=0.3)
    report = optimize("rho_fluctuation", regime)
    thetas = np.linspace(0.0, math.pi / 2, 2000)
    grid_best = np.max(fluctuation_ratio_values(thetas, thetas, math.pi / 2, 0.3))
    assert report.value >= grid_best - 1e-12


def test_halving_tolerance_never_loses_value():
    # the search oracle's refinement only improves as its bracket shrinks
    for tol in (1e-4, 1e-6):
        regime = ConstraintRegime("equal_splitters", kappa=0.1)
        coarse = search_optimum("rho_fluctuation", regime, tol=tol).value
        fine = search_optimum("rho_fluctuation", regime, tol=tol / 2).value
        assert fine >= coarse - tol


def test_determinism():
    first = optimize("rho_fluctuation", ConstraintRegime("equal_splitters"))
    second = optimize("rho_fluctuation", ConstraintRegime("equal_splitters"))
    assert first == second


def test_report_serializes():
    report = optimize("rho_fluctuation", ConstraintRegime("fixed_mixer"))
    d = dataclasses.asdict(report)
    assert d["regime"] == "fixed_mixer"
    assert d["boundary_supremum"] is True
    assert "bracket_tol" not in d


def test_rejects_unknown_objective_and_bad_tol():
    with pytest.raises(ValueError):
        optimize("rho_visibility", ConstraintRegime("free"))
    with pytest.raises(TypeError):  # the closed forms take no tolerance
        optimize("rho_fluctuation", ConstraintRegime("free"), tol=1e-8)
    with pytest.raises(ValueError):  # the search oracle's bracket could never shrink to 0
        search_optimum("rho_fluctuation", ConstraintRegime("free"), tol=0.0)


@pytest.mark.parametrize("eta, alpha", [(0.0, 1.0), (1.5, 1.0), (math.nan, 1.0), (1.0, complex(1.5e308, 1.5e308))])
def test_rejects_invalid_operating_point(eta, alpha):
    with pytest.raises(ValueError):
        optimize("rho_intensity", ConstraintRegime("free"), alpha=alpha, eta=eta)


# the report's value


@pytest.mark.parametrize("kind", REGIME_KINDS)
@pytest.mark.parametrize("phi", [math.pi / 2, 0.7, None])
def test_attained_value_is_the_metrics_bundle_bit_for_bit(kind, phi):
    regime = ConstraintRegime(kind, kappa=0.4, phi=phi)
    report = optimize("rho_fluctuation", regime, alpha=2.0, eta=0.9)
    columns = metrics_values(report.theta1, report.theta2, report.phi, 0.4, 0.9, 2.0)
    assert report.value == float(columns["rho_fluctuation"])
    assert report.n_evaluations == 1


ZERO_CASES = [  # sin(phi) = 0 with phi fixed, T = 0, rho_intensity at |alpha| = 0
    *((objective, kappa, phi, 1.5) for objective in OBJECTIVES
      for kappa, phi in [(0.3, 0.0), (0.3, -0.0), (800.0, 1.1), (800.0, None)]),
    ("rho_intensity", 0.3, None, 0.0),
]


@pytest.mark.parametrize("kind", REGIME_KINDS)
@pytest.mark.parametrize("objective, kappa, phi, alpha", ZERO_CASES)
def test_identically_zero_objective_report(objective, kind, kappa, phi, alpha):
    report = optimize(objective, ConstraintRegime(kind, kappa=kappa, phi=phi), alpha=alpha)
    assert report.value == 0.0
    assert report.boundary_supremum and not report.unbounded
    assert report.theta1 == 0.0
    assert report.theta2 == (0.0 if kind == "equal_splitters" else math.pi / 4)


# against the search oracle (tests/numeric_optimum.py)


@settings(max_examples=40)
@given(
    objective=st.sampled_from(OBJECTIVES),
    kind=st.sampled_from(REGIME_KINDS),
    kappa=st.floats(min_value=0.0, max_value=3.0),
    eta=st.floats(min_value=0.3, max_value=1.0),
    alpha=st.floats(min_value=0.3, max_value=3.0),
    phi=st.one_of(st.none(), st.floats(min_value=0.0, max_value=2 * math.pi)),
)
# delta_phi overflows at this phi, yet rho_intensity grows without bound as theta1 -> 0
@example(objective="rho_intensity", kind="free", kappa=0.0, eta=1.0, alpha=1.0, phi=2.2250738585072014e-308)
# the interior optimum underflows to 0, where the search sees a flat zero and reports the boundary
@example(objective="rho_fluctuation", kind="equal_splitters", kappa=1.0, eta=0.5, alpha=1.0, phi=5e-324)
def test_closed_form_matches_numeric_oracle(objective, kind, kappa, eta, alpha, phi):
    regime = ConstraintRegime(kind, kappa=kappa, phi=phi)
    report = optimize(objective, regime, alpha=alpha, eta=eta)
    oracle = search_optimum(objective, regime, alpha=alpha, eta=eta)
    if oracle.value == math.inf:
        assert report.value == math.inf
    else:
        assert report.value >= oracle.value - 1e-15 * oracle.value
    if oracle.theta1 <= 1e-6 and not oracle.boundary_supremum:
        return  # the search's flat-boundary misreport: no verdict to compare
    assert report.boundary_supremum == oracle.boundary_supremum
    assert report.unbounded == oracle.unbounded
    if not report.boundary_supremum:
        for name in ("theta1", "theta2", "phi"):
            assert abs(getattr(report, name) - getattr(oracle, name)) <= 1e-6, name


# the search oracle's grid scan in slabs


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("kind", REGIME_KINDS)
def test_slab_scan_matches_full_grid_argmax(monkeypatch, objective, kind):
    monkeypatch.setattr(numeric_optimum, "SLAB_POINTS", 1000)
    regime = ConstraintRegime(kind, kappa=0.8, phi=None)
    f = CountingObjective(objective, regime, eta=0.9, alpha_abs=1.3)
    grids = {name: np.linspace(*f.coord_domain(name), 41) for name in f.coord_names()}
    coords, value = scan(f, grids)

    full = np.meshgrid(*grids.values(), indexing="ij")
    values = f(dict(zip(grids, full)))
    best = np.unravel_index(np.argmax(values), values.shape)
    assert value == values[best]
    assert coords == {name: grids[name][i] for name, i in zip(grids, best)}
    assert f.calls == 2 * values.size


def test_slab_scan_keeps_the_first_of_tied_maxima(monkeypatch):
    monkeypatch.setattr(numeric_optimum, "SLAB_POINTS", 10)  # two rows of a per slab
    grids = {"a": np.linspace(0.0, 1.0, 11), "b": np.linspace(0.0, 1.0, 5)}
    coords, value = scan(lambda c: np.minimum(c["a"] + c["b"], 0.5), grids)
    assert (coords, value) == ({"a": 0.0, "b": 0.5}, 0.5)
    coords, value = scan(lambda c: np.minimum(c["a"] + 0.0 * c["b"], 0.5), grids)
    assert (coords, value) == ({"a": 0.5, "b": 0.0}, 0.5)


def test_two_coordinate_scan_is_one_kernel_call():
    f = CountingObjective("rho_fluctuation", ConstraintRegime("free"), eta=1.0, alpha_abs=1.0)
    calls = []

    def counted(coords):
        calls.append(coords)
        return f(coords)

    grids = {
        name: np.linspace(*f.coord_domain(name), DEFAULT_GRID_POINTS) for name in f.coord_names()
    }
    scan(counted, grids)
    assert len(calls) == 1
    assert f.calls == DEFAULT_GRID_POINTS**2
