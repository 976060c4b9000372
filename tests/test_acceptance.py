"""Acceptance criteria, one test per criterion, each timed at its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from uil.analytic import evaluate_metrics
from uil.cli import main
from uil.fock import simulate
from uil.optimize import ConstraintRegime, optimize
from uil.params import InterferometerParams

from matrix_amplitudes import difference_signal_phase_gradient

HALF_PI = math.pi / 2


def balanced(alpha=1.0, **kw):
    return InterferometerParams(math.pi / 4, math.pi / 4, HALF_PI, alpha=alpha, **kw)


def report(line):
    print(line)


def test_criterion_01_balanced_resolution():
    start = time.perf_counter()
    for alpha in (0.5, 1.0, 2.0):
        resolution = evaluate_metrics(balanced(alpha)).delta_phi
        assert abs(resolution - 1.0 / alpha) <= 1e-12 * (1.0 / alpha)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"ACCEPTANCE 01 balanced resolution 1/|alpha|: PASS ({elapsed:.3f}s)")


def test_criterion_02_balanced_ratios():
    start = time.perf_counter()
    for alpha in (0.5, 1.0, 2.0):
        rho_i = evaluate_metrics(balanced(alpha)).rho_intensity
        assert abs(rho_i - 2.0 / alpha) <= 1e-12 * (2.0 / alpha)
    rho_di = evaluate_metrics(balanced()).rho_fluctuation
    assert abs(rho_di - math.sqrt(2.0)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"ACCEPTANCE 02 balanced ratios 2/|alpha| and sqrt(2): PASS ({elapsed:.3f}s)")


def test_criterion_03_equal_splitter_optimum():
    start = time.perf_counter()
    result = optimize("rho_fluctuation", ConstraintRegime("equal_splitters"))
    target_angle = math.atan(1.0 / math.sqrt(2.0))
    target_value = 8.0 * math.sqrt(3.0) / 9.0
    assert abs(result.theta1 - target_angle) < 1e-6
    assert abs(result.value - target_value) < 1e-9
    assert 1.088 <= result.value / math.sqrt(2.0) <= 1.090
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        f"ACCEPTANCE 03 equal-splitter optimum arctan(1/sqrt(2)), 8*sqrt(3)/9: "
        f"PASS ({elapsed:.3f}s)"
    )


def test_criterion_04_homodyne_like_limit():
    near_zero = InterferometerParams(1e-4, math.pi / 4, HALF_PI)
    assert abs(evaluate_metrics(near_zero).rho_fluctuation - 2.0) < 1e-7
    for theta1 in np.linspace(1e-3, 0.2, 50):
        value = evaluate_metrics(
            InterferometerParams(theta1, math.pi / 4, HALF_PI)
        ).rho_fluctuation
        assert abs(value - (2.0 - theta1**2)) < theta1**4
    report("ACCEPTANCE 04 homodyne-like limit 2 and small-angle expansion: PASS")


def test_criterion_05_loss_reduction_identity():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        theta1, theta2 = rng.uniform(0.0, HALF_PI, 2)
        phi = rng.uniform(0.0, 2 * math.pi)
        alpha = rng.uniform(0.1, 2.0)
        lossy_form = evaluate_metrics(
            InterferometerParams(theta1, theta2, phi, kappa=0.0, alpha=alpha)
        ).delta_phi
        sensitivity = abs(
            alpha * math.sin(2 * theta1) * math.sin(2 * theta2) * math.sin(phi)
        )
        lossless_form = 1.0 / sensitivity if sensitivity else math.inf
        if math.isinf(lossless_form):
            assert math.isinf(lossy_form)
        else:
            assert abs(lossy_form - lossless_form) <= 1e-12 * lossless_form
    for theta1 in rng.uniform(0.0, HALF_PI, 1000):
        value = evaluate_metrics(
            InterferometerParams(theta1, math.pi / 4, HALF_PI, kappa=0.0)
        ).rho_fluctuation
        assert abs(value - 2.0 * math.cos(theta1)) <= 1e-12
    report("ACCEPTANCE 05 lossy formulas reduce to lossless forms at kappa=0: PASS")


def test_criterion_06_oracle_equivalence(capsys):
    start = time.perf_counter()
    code = main(
        ["verify", "--alpha", "1", "--cutoff", "30", "--samples", "50",
         "--seed", "0", "--tol", "1e-8"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS" in out
    # the noise of the difference signal is |alpha| without loss
    rng = np.random.default_rng(17)
    for _ in range(3):
        p = InterferometerParams(
            rng.uniform(0.0, HALF_PI), rng.uniform(0.0, HALF_PI),
            rng.uniform(0.0, 2 * math.pi), alpha=1.0,
        )
        assert abs(simulate(p, 30).std_O - 1.0) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"ACCEPTANCE 06 closed forms match Fock oracle < 1e-8: PASS ({elapsed:.3f}s)")


def test_criterion_07_gradient_check():
    rng = np.random.default_rng(99)
    step = 1e-6
    checked = 0
    for _ in range(100):
        p = InterferometerParams(
            rng.uniform(0.02, HALF_PI - 0.02),
            rng.uniform(0.02, HALF_PI - 0.02),
            rng.uniform(0.0, 2 * math.pi),
            kappa=rng.uniform(0.0, 1.0),
            alpha=rng.uniform(0.2, 2.0),
        )
        analytic = difference_signal_phase_gradient(p)
        if analytic == 0.0:
            continue
        up = InterferometerParams(p.theta1, p.theta2, p.phi + step, kappa=p.kappa, alpha=p.alpha)
        down = InterferometerParams(p.theta1, p.theta2, p.phi - step, kappa=p.kappa, alpha=p.alpha)
        numeric = (evaluate_metrics(up).mean_O - evaluate_metrics(down).mean_O) / (2 * step)
        assert abs(numeric - analytic) <= 1e-6 * abs(analytic)
        checked += 1
    assert checked >= 95
    report(f"ACCEPTANCE 07 phase gradient matches finite differences ({checked} points): PASS")


def test_criterion_08_loss_surface_properties(tmp_path, capsys):
    start = time.perf_counter()
    surface = tmp_path / "surface.csv"
    assert main(["sweep", "--output", str(surface)]) == 0
    with open(surface, newline="") as handle:
        rows = list(csv.DictReader(handle))
    capsys.readouterr()
    transmissions = sorted({float(r["transmission"]) for r in rows})
    thetas = sorted({float(r["theta1"]) for r in rows})
    assert len(transmissions) == 40 and len(thetas) == 60

    table = {
        (float(r["transmission"]), float(r["theta1"])): float(r["rho_fluctuation"])
        for r in rows
    }
    for theta in thetas:
        column = [table[(t, theta)] for t in transmissions]
        # more transmission = less loss: the ratio must not drop
        assert all(b >= a - 1e-12 for a, b in zip(column, column[1:]))

    # the exact balanced lossless value, on a grid that contains it
    exact = tmp_path / "slice.csv"
    assert main(
        ["sweep", "--axis", f"theta1=0:{HALF_PI!r}:61", "--kappa", "0",
         "--output", str(exact)]
    ) == 0
    with open(exact, newline="") as handle:
        slice_rows = list(csv.DictReader(handle))
    capsys.readouterr()
    balanced_row = slice_rows[30]
    assert float(balanced_row["theta1"]) == math.pi / 4
    assert abs(float(balanced_row["rho_fluctuation"]) - math.sqrt(2.0)) <= 1e-12

    # weak gradients at small splitting, full transmission
    full = [table[(transmissions[-1], theta)] for theta in thetas]
    small = [i for i, theta in enumerate(thetas) if theta < 0.1]
    for i in small:
        if 0 < i < len(thetas) - 1:
            slope = (full[i + 1] - full[i - 1]) / (thetas[i + 1] - thetas[i - 1])
        else:
            slope = (full[i + 1] - full[i]) / (thetas[i + 1] - thetas[i])
        assert abs(slope) < 0.2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"ACCEPTANCE 08 loss-surface monotonicity/value/gradients: PASS ({elapsed:.3f}s)")


def test_criterion_09_detector_efficiency_scaling():
    points = [
        balanced(),
        InterferometerParams(0.5, 0.8, 1.2, kappa=0.4),
        InterferometerParams(1.1, 0.3, 2.0, kappa=0.1, alpha=1.7),
    ]
    for p in points:
        unit = evaluate_metrics(p).rho_fluctuation
        for eta in (0.25, 0.5, 0.9):
            dimmed = InterferometerParams(
                p.theta1, p.theta2, p.phi, kappa=p.kappa, eta=eta, alpha=p.alpha
            )
            assert abs(evaluate_metrics(dimmed).rho_fluctuation - eta * unit) <= 1e-12
    report("ACCEPTANCE 09 detector efficiency scales the ratio linearly: PASS")


def test_criterion_10_sweep_determinism(tmp_path, capsys):
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(["sweep", "--output", str(first)]) == 0
    assert main(["sweep", "--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    report("ACCEPTANCE 10 repeated sweeps are byte-identical: PASS")
