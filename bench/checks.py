"""Checks of each operation's output against the reference module.

Every function returns a list of problems; an empty list means the
operation passed.  Nothing here compares against stored output: sweep
rows are recomputed from their own input columns, optimizer reports
from the benchmark's own optimum search, and `verify` output is read
for its own verdict and deviations.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

import reference

INPUTS = ("theta1", "theta2", "phi", "kappa", "eta", "alpha_abs")
ANGLE_TOL = 1e-6
_DEVIATION = re.compile(r"max \|analytic - simulator\| = (\S+)")


def _columns(text: str, fmt: str) -> dict[str, np.ndarray]:
    if fmt == "csv":
        header, _, body = text.partition("\n")
        values = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        return {name: values[:, i] for i, name in enumerate(header.split(","))}
    records = json.loads(text)
    return {name: np.array([float(r[name]) for r in records]) for name in records[0]}


def sweep_inputs(axes, fixed: dict) -> dict[str, np.ndarray]:
    """The input columns a sweep over `axes` (row-major) must carry."""
    grids = []
    for name, start, stop, steps in axes:
        values = np.linspace(start, stop, steps)
        if name == "transmission":
            name, values = "kappa", np.array([-math.log(v) + 0.0 for v in values])
        grids.append((name, values))
    meshes = np.meshgrid(*(values for _, values in grids), indexing="ij")
    columns = {name: mesh.ravel() for (name, _), mesh in zip(grids, meshes)}
    rows = meshes[0].size
    columns.update({name: np.full(rows, value) for name, value in fixed.items()})
    return columns


def check_sweep(op: dict, data_path: Path) -> tuple[list[str], str, dict]:
    """Check one sweep data file and its manifest.

    Returns the problems, the data file's sha256 and the manifest, so
    that the caller can compare repeats of the same sweep.
    """
    data = data_path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    manifest = json.loads(Path(f"{data_path}.manifest.json").read_text())
    problems = []
    if manifest.get("sha256") != digest:
        problems.append("manifest sha256 does not match the data file")
    if manifest.get("output") != data_path.name:
        problems.append(f"manifest names output {manifest.get('output')!r}")
    text = data.decode("utf-8")
    if "nan" in text.lower():
        problems.append("NaN in the data file")
    columns = _columns(text, op["format"])
    expected = sweep_inputs(op["axes"], op["fixed"])
    rows = math.prod(steps for *_, steps in op["axes"])
    if columns["theta1"].size != rows:
        return problems + [f"{columns['theta1'].size} rows, want {rows}"], digest, manifest
    for name, want in expected.items():
        if not np.array_equal(columns[name], want):
            problems.append(f"input column {name} is not the requested grid")
    problems += reference.mismatches("transmission", columns["transmission"], np.exp(-columns["kappa"]))

    inputs = [columns[name] for name in INPUTS]
    want = reference.closed_forms(*inputs)
    # At theta1 = 0 the extended-real contract is still open: either limit passes.
    got = columns["rho_intensity"]
    either = (columns["theta1"] == 0.0) & (np.isinf(got) | (got == 0.0))
    want["rho_intensity"] = np.where(either, got, want["rho_intensity"])
    for name in reference.QUANTITIES:
        problems += reference.mismatches(name, columns[name], want[name], columns["alpha_abs"] ** 2)
    products = reference.cramer_rao_products(columns["delta_phi"], *inputs)
    if products.size and products.min() < reference.CR_FLOOR:
        problems.append(f"Cramer-Rao violated: min delta_phi*sqrt(F) = {products.min()!r}")
    return problems, digest, manifest


def check_optimum(stdout: str, expected: dict, request: dict) -> list[str]:
    """Check one `uil optimize` report against the benchmark's own optimum."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = [
        f"{key} = {report.get(key)!r}, want {want!r}"
        for key, want in request.items()
        if report.get(key) != want
    ]
    for flag in ("boundary_supremum", "unbounded"):
        if report.get(flag) is not expected[flag]:
            problems.append(f"{flag} = {report.get(flag)!r}, want {expected[flag]!r}")
    value = report.get("value")
    value = math.inf if value == "inf" else value
    if not isinstance(value, (int, float)):
        return problems + [f"value = {value!r}"]
    problems += reference.mismatches("value", value, expected["value"])
    angles = {"theta1": expected["theta1"], "theta2": expected["theta2"], "phi": math.pi / 2}
    for name, want in angles.items():
        got = report.get(name)
        if not isinstance(got, (int, float)) or abs(got - want) > ANGLE_TOL:
            problems.append(f"{name} = {got!r}, want {want!r} within {ANGLE_TOL}")
    if not report.get("n_evaluations", 0) > 0:
        problems.append("no evaluations reported")
    return problems


def check_verify(code, stdout: str, tol: float) -> list[str]:
    """Check one `uil verify` run: exit 0, PASS, every deviation below tol."""
    problems = [] if code == 0 else [f"exit status {code!r}"]
    if "PASS" not in stdout:
        problems.append("no PASS verdict")
    deviations = [float(m) for m in _DEVIATION.findall(stdout)]
    if len(deviations) != 4:
        problems.append(f"{len(deviations)} deviation lines, want 4")
    problems += [f"deviation {d!r} >= {tol}" for d in deviations if not d < tol]
    return problems


def check_simulator(points: list[dict], cutoff: int) -> list[str]:
    """Compare `uil.simulate` with the closed forms at lossy points."""
    from uil import InterferometerParams, simulate

    problems = []
    for point in points:
        moments = simulate(InterferometerParams(**point), cutoff)
        want = reference.closed_forms(
            point["theta1"], point["theta2"], point["phi"], point["kappa"], 1.0, abs(point["alpha"])
        )
        pairs = {
            "mean_O": moments.mean_O,
            "std_O": moments.std_O,
            "intensity_probe": moments.probe_intensity,
            "std_intensity_probe": moments.probe_std,
        }
        for name, got in pairs.items():
            if not abs(got - float(want[name])) < 1e-8:
                problems.append(f"simulate {name} = {got!r}, closed form {float(want[name])!r} at {point}")
    return problems
