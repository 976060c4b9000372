"""Numeric optimum search, the oracle for the closed-form optimizer.

A grid scan over the regime's free coordinates, cyclic golden-section
refinement of the best node, and probes toward theta1 = 0 that tell a
boundary supremum or an unbounded objective from an interior maximum.
It knows nothing of the formulas in :mod:`uil.optimize`, only values
of the objectives, so the tests use it to check them.  It is slow, and
it has a known fault: where the objective is flat to the last ulp near
theta1 = 0, it can report the boundary supremum as an interior maximum
at theta1 of about 1e-8.

The objective kernels repeat the arithmetic of
:func:`uil.analytic.metrics_values`, operation for operation, so the
two agree bit for bit (``test_vector_kernels_match_scalar_api``).
"""

from __future__ import annotations

import math

import numpy as np

from uil.optimize import OBJECTIVES, ConstraintRegime, OptimumReport

DEFAULT_GRID_POINTS = 721  # 0.125 degree spacing over a quarter turn
DEFAULT_TOL = 1e-8
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BOUNDARY_PROBES = (1e-4, 1e-6, 1e-8)
SLAB_POINTS = 2**20  # objective values per grid-scan call; a 721 x 721 scan is one call


def fluctuation_ratio_values(theta1, theta2, phi, kappa, eta=1.0):
    """rho_fluctuation over broadcast inputs."""
    t = np.exp(-np.asarray(kappa, dtype=float))
    theta1 = np.asarray(theta1, dtype=float)
    c1 = np.cos(theta1)
    noise = np.hypot(c1, t * np.sin(theta1))
    mixer = np.abs(np.sin(2.0 * np.asarray(theta2, dtype=float)))
    return 2.0 * eta * t * mixer * np.abs(np.sin(phi)) * (np.abs(c1) / noise)


def intensity_ratio_values(theta1, theta2, phi, kappa, eta=1.0, alpha_abs=1.0):
    """rho_intensity over broadcast inputs.

    0 where the point has no phase sensitivity at all (rho_fluctuation,
    sin(2 theta1) or |alpha| is 0), not where delta_phi merely overflows.
    """
    t = np.exp(-np.asarray(kappa, dtype=float))
    theta1 = np.asarray(theta1, dtype=float)
    c1, s1 = np.cos(theta1), np.sin(theta1)
    noise = np.hypot(c1, t * s1)
    mixer = np.abs(np.sin(2.0 * np.asarray(theta2, dtype=float)))
    rho_fluctuation = 2.0 * eta * t * mixer * np.abs(np.sin(phi)) * (np.abs(c1) / noise)
    no_sensitivity = (rho_fluctuation == 0.0) | (np.sin(2.0 * theta1) == 0.0) | (alpha_abs == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(no_sensitivity, 0.0, rho_fluctuation / (alpha_abs * np.abs(s1)))


class CountingObjective:
    """Ratio evaluator over free coordinates, with an evaluation counter."""

    def __init__(self, objective: str, regime: ConstraintRegime, eta: float, alpha_abs: float):
        if objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
        self.objective = objective
        self.regime = regime
        self.eta = eta
        self.alpha_abs = alpha_abs
        self.calls = 0

    def coord_names(self) -> list[str]:
        names = {
            "equal_splitters": ["theta"],
            "fixed_mixer": ["theta1"],
            "free": ["theta1", "theta2"],
        }[self.regime.kind]
        if self.regime.phi is None:
            names = names + ["phi"]
        return names

    def coord_domain(self, name: str) -> tuple[float, float]:
        return (0.0, math.pi) if name == "phi" else (0.0, math.pi / 2.0)

    def angles_from_coords(self, coords: dict) -> tuple:
        if self.regime.kind == "equal_splitters":
            theta1 = theta2 = coords["theta"]
        elif self.regime.kind == "fixed_mixer":
            theta1, theta2 = coords["theta1"], math.pi / 4.0
        else:
            theta1, theta2 = coords["theta1"], coords["theta2"]
        phi = coords["phi"] if self.regime.phi is None else self.regime.phi
        return theta1, theta2, phi

    def __call__(self, coords: dict):
        theta1, theta2, phi = self.angles_from_coords(coords)
        self.calls += int(np.broadcast(theta1, theta2, phi).size)
        if self.objective == "rho_fluctuation":
            return fluctuation_ratio_values(theta1, theta2, phi, self.regime.kappa, self.eta)
        return intensity_ratio_values(
            theta1, theta2, phi, self.regime.kappa, self.eta, self.alpha_abs
        )


def golden_max(f1d, lo: float, hi: float, tol: float, seed: tuple[float, float]):
    """Golden-section maximization on [lo, hi] down to bracket width tol.

    Returns the best (x, value) ever evaluated, seeded with a known
    point so refinement can only improve on the grid scan.  Ties keep
    the smaller coordinate.
    """
    best_x, best_val = seed

    def consider(x: float, val: float) -> None:
        nonlocal best_x, best_val
        if val > best_val or (val == best_val and x < best_x):
            best_x, best_val = x, val

    span = hi - lo
    c = hi - INV_GOLDEN * span
    d = lo + INV_GOLDEN * span
    fc, fd = f1d(c), f1d(d)
    consider(c, fc)
    consider(d, fd)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - INV_GOLDEN * (hi - lo)
            fc = f1d(c)
            consider(c, fc)
        else:
            lo, c, fc = c, d, fd
            d = lo + INV_GOLDEN * (hi - lo)
            fd = f1d(d)
            consider(d, fd)
    return best_x, best_val


def scan(objective, grids: dict) -> tuple[dict, float]:
    """Best node of the grid; ties go to the lexicographically smallest.

    The grid is evaluated in slabs along its first coordinate of at most
    about ``SLAB_POINTS`` nodes, each on sparse (broadcast) axes, so
    only one slab's objective values are held at a time.  A later slab
    wins only with a strictly larger value.
    """
    names = list(grids)
    first, *rest = (grids[name] for name in names)
    rows = max(1, SLAB_POINTS // math.prod(axis.size for axis in rest))
    best_value, best_node = -math.inf, None
    for start in range(0, first.size, rows):
        axes = np.meshgrid(first[start:start + rows], *rest, indexing="ij", sparse=True)
        values = np.asarray(objective(dict(zip(names, axes))))
        node = np.unravel_index(int(np.argmax(values)), values.shape)
        if best_node is None or values[node] > best_value:
            best_value, best_node = float(values[node]), (start + node[0], *node[1:])
    return {name: float(grids[name][i]) for name, i in zip(names, best_node)}, best_value


def refine(objective: CountingObjective, coords: dict, value: float, step: dict, tol: float):
    """Cyclic per-coordinate golden-section refinement around a grid point."""
    coords = dict(coords)
    for _ in range(3):
        for name in objective.coord_names():
            lo_dom, hi_dom = objective.coord_domain(name)
            lo = max(lo_dom, coords[name] - step[name])
            hi = min(hi_dom, coords[name] + step[name])

            def f1d(x, _name=name):
                probe = dict(coords)
                probe[_name] = x
                return float(objective(probe))

            coords[name], value = golden_max(f1d, lo, hi, tol, (coords[name], value))
    return coords, value


def search_optimum(
    objective: str,
    regime: ConstraintRegime,
    tol: float = DEFAULT_TOL,
    grid_points: int = DEFAULT_GRID_POINTS,
    alpha: complex = 1.0 + 0.0j,
    eta: float = 1.0,
) -> OptimumReport:
    """Maximize a performance ratio by search over the regime's free coordinates.

    Coarse scan on ``grid_points`` nodes per free coordinate (at most
    181 when three are free), then golden-section refinement of the
    winning bracket until its width is below ``tol``, then probes at
    theta1 = 1e-4, 1e-6 and 1e-8.  The objective is reported unbounded
    when each probe grows it more than tenfold, and a boundary supremum
    when the last probe beats the interior or the interior hugs
    theta1 = 0 within ``tol``.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    f = CountingObjective(objective, regime, eta, abs(alpha))
    names = f.coord_names()
    per_axis = grid_points if len(names) <= 2 else min(grid_points, 181)
    grids = {name: np.linspace(*f.coord_domain(name), per_axis) for name in names}
    coords, value = scan(f, grids)
    step = {name: float(grids[name][1] - grids[name][0]) for name in names}
    interior_coords, interior_value = refine(f, coords, value, step, tol)

    probe_name = names[0]  # theta or theta1
    boundary_coords = dict(interior_coords)
    probe_values = []
    for probe in BOUNDARY_PROBES:
        boundary_coords[probe_name] = probe
        if len(names) > 1:
            frozen = dict(step)
            frozen[probe_name] = 0.0
            boundary_coords, _ = refine(f, boundary_coords, float(f(boundary_coords)), frozen, tol)
        probe_values.append(float(f(boundary_coords)))

    diverging = all(
        later > 10.0 * earlier for earlier, later in zip(probe_values, probe_values[1:])
    ) and probe_values[-1] > 0.0
    limit_value = probe_values[-1]
    hugging_boundary = interior_coords[probe_name] <= tol

    boundary = unbounded = False
    if diverging:
        boundary = unbounded = True
        value = math.inf
        coords = dict(boundary_coords, **{probe_name: 0.0})
    elif limit_value > interior_value or hugging_boundary:
        boundary = True
        value = max(limit_value, interior_value)
        coords = dict(boundary_coords, **{probe_name: 0.0})
    else:
        value = interior_value
        coords = interior_coords

    theta1, theta2, phi = f.angles_from_coords(coords)
    return OptimumReport(
        objective=objective,
        regime=regime.kind,
        kappa=regime.kappa,
        eta=eta,
        alpha_abs=abs(alpha),
        theta1=float(theta1),
        theta2=float(theta2),
        phi=float(phi),
        value=float(value),
        n_evaluations=f.calls,
        boundary_supremum=boundary,
        unbounded=unbounded,
    )
