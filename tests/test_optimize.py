import importlib
import math

import numpy as np
import pytest

from uil.analytic import fluctuation_ratio_values
from uil.optimize import (
    DEFAULT_GRID_POINTS,
    OBJECTIVES,
    REGIME_KINDS,
    ConstraintRegime,
    _CountingObjective,
    _scan,
    optimize,
)

# the package re-exports the function optimize under the module's name
optimize_module = importlib.import_module("uil.optimize")

EQUAL_OPT_ANGLE = math.atan(1.0 / math.sqrt(2.0))
EQUAL_OPT_VALUE = 8.0 * math.sqrt(3.0) / 9.0


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
    report = optimize("rho_fluctuation", ConstraintRegime("equal_splitters"), tol=1e-8)
    assert not report.boundary_supremum and not report.unbounded
    assert report.theta1 == report.theta2
    assert abs(report.theta1 - EQUAL_OPT_ANGLE) < 1e-6
    assert abs(report.value - EQUAL_OPT_VALUE) < 1e-9
    assert 1.088 <= report.value / math.sqrt(2.0) <= 1.090
    assert report.phi == math.pi / 2
    assert report.n_evaluations > 0


def test_equal_splitters_with_free_phase():
    report = optimize(
        "rho_fluctuation", ConstraintRegime("equal_splitters", phi=None), tol=1e-8
    )
    assert abs(report.theta1 - EQUAL_OPT_ANGLE) < 1e-6
    assert abs(report.phi - math.pi / 2) < 1e-6
    assert abs(report.value - EQUAL_OPT_VALUE) < 1e-8
    # coarse independent 2-D scan agrees on the argmax location
    thetas = np.linspace(0.0, math.pi / 2, 301)
    phis = np.linspace(0.0, math.pi, 301)
    grid = fluctuation_ratio_values(
        thetas[:, None], thetas[:, None], phis[None, :], 0.0
    )
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    assert abs(thetas[i] - report.theta1) < 0.01
    assert abs(phis[j] - report.phi) < 0.01


def test_fixed_mixer_reports_boundary_not_interior():
    report = optimize("rho_fluctuation", ConstraintRegime("fixed_mixer"), tol=1e-8)
    assert report.boundary_supremum and not report.unbounded
    assert report.theta1 == 0.0
    assert report.theta2 == math.pi / 4
    assert report.value == pytest.approx(2.0, abs=1e-12)


def test_fixed_mixer_objective_strictly_decreasing():
    thetas = np.linspace(1e-3, math.pi / 2 - 1e-3, 500)
    values = fluctuation_ratio_values(thetas, math.pi / 4, math.pi / 2, 0.0)
    assert np.all(np.diff(values) < 0.0)


def test_free_regime_boundary_supremum():
    report = optimize("rho_fluctuation", ConstraintRegime("free"), tol=1e-8)
    assert report.boundary_supremum
    assert report.theta1 == 0.0
    assert report.theta2 == pytest.approx(math.pi / 4, abs=1e-6)
    assert report.value == pytest.approx(2.0, abs=1e-12)


def test_free_intensity_objective_is_unbounded():
    report = optimize("rho_intensity", ConstraintRegime("free"), tol=1e-6)
    assert report.unbounded and report.boundary_supremum
    assert report.value == math.inf
    assert report.theta1 == 0.0


def test_equal_splitters_intensity_boundary_limit():
    report = optimize("rho_intensity", ConstraintRegime("equal_splitters"), tol=1e-8)
    assert report.boundary_supremum and not report.unbounded
    assert report.value == pytest.approx(4.0, rel=1e-9)


def test_optimized_value_non_increasing_in_loss():
    for kind in ("equal_splitters", "fixed_mixer"):
        values = [
            optimize("rho_fluctuation", ConstraintRegime(kind, kappa=k), tol=1e-7).value
            for k in (0.0, 0.25, 0.5, 1.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_lossy_equal_splitters_beats_grid():
    regime = ConstraintRegime("equal_splitters", kappa=0.3)
    report = optimize("rho_fluctuation", regime, tol=1e-8)
    thetas = np.linspace(0.0, math.pi / 2, 2000)
    grid_best = np.max(fluctuation_ratio_values(thetas, thetas, math.pi / 2, 0.3))
    assert report.value >= grid_best - 1e-12


def test_halving_tolerance_never_loses_value():
    for tol in (1e-4, 1e-6):
        regime = ConstraintRegime("equal_splitters", kappa=0.1)
        coarse = optimize("rho_fluctuation", regime, tol=tol).value
        fine = optimize("rho_fluctuation", regime, tol=tol / 2).value
        assert fine >= coarse - tol


def test_determinism():
    first = optimize("rho_fluctuation", ConstraintRegime("equal_splitters"), tol=1e-8)
    second = optimize("rho_fluctuation", ConstraintRegime("equal_splitters"), tol=1e-8)
    assert first == second


def test_report_serializes():
    report = optimize("rho_fluctuation", ConstraintRegime("fixed_mixer"), tol=1e-6)
    d = report.to_dict()
    assert d["regime"] == "fixed_mixer"
    assert d["boundary_supremum"] is True


def test_rejects_unknown_objective_and_bad_tol():
    with pytest.raises(ValueError):
        optimize("rho_visibility", ConstraintRegime("free"))
    with pytest.raises(ValueError):
        optimize("rho_fluctuation", ConstraintRegime("free"), tol=0.0)



# grid scan in slabs


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("kind", REGIME_KINDS)
def test_slab_scan_matches_full_grid_argmax(monkeypatch, objective, kind):
    monkeypatch.setattr(optimize_module, "_SLAB_POINTS", 1000)
    regime = ConstraintRegime(kind, kappa=0.8, phi=None)
    f = _CountingObjective(objective, regime, eta=0.9, alpha_abs=1.3)
    grids = {name: np.linspace(*f.coord_domain(name), 41) for name in f.coord_names()}
    coords, value = _scan(f, grids)

    full = np.meshgrid(*grids.values(), indexing="ij")
    values = f(dict(zip(grids, full)))
    best = np.unravel_index(np.argmax(values), values.shape)
    assert value == values[best]
    assert coords == {name: grids[name][i] for name, i in zip(grids, best)}
    assert f.calls == 2 * values.size


def test_slab_scan_keeps_the_first_of_tied_maxima(monkeypatch):
    monkeypatch.setattr(optimize_module, "_SLAB_POINTS", 10)  # two rows of a per slab
    grids = {"a": np.linspace(0.0, 1.0, 11), "b": np.linspace(0.0, 1.0, 5)}
    coords, value = _scan(lambda c: np.minimum(c["a"] + c["b"], 0.5), grids)
    assert (coords, value) == ({"a": 0.0, "b": 0.5}, 0.5)
    coords, value = _scan(lambda c: np.minimum(c["a"] + 0.0 * c["b"], 0.5), grids)
    assert (coords, value) == ({"a": 0.5, "b": 0.0}, 0.5)


def test_two_coordinate_scan_is_one_kernel_call():
    f = _CountingObjective("rho_fluctuation", ConstraintRegime("free"), eta=1.0, alpha_abs=1.0)
    calls = []

    def counted(coords):
        calls.append(coords)
        return f(coords)

    grids = {
        name: np.linspace(*f.coord_domain(name), DEFAULT_GRID_POINTS) for name in f.coord_names()
    }
    _scan(counted, grids)
    assert len(calls) == 1
    assert f.calls == DEFAULT_GRID_POINTS**2
