"""Command-line front end.

Subcommands: ``metrics`` (one operating point), ``sweep`` (parameter
grids to CSV/JSON with a run manifest), ``optimize`` (angle search
under a constraint regime) and ``verify`` (closed forms against the
Fock-space engine on random operating points).

Exit codes: 0 success, 2 bad usage or flag values, 3 I/O failure,
4 Fock truncation failure.  Data files are byte-deterministic for
identical invocations; each one is paired with a ``.manifest.json``
carrying the resolved parameter set and a checksum.

Flag values beat config-file entries (plain ``key = value`` lines),
which beat built-in defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analytic import metrics_values
from .fock import TruncationError, coherent_state, simulate
from .optimize import DEFAULT_TOL, ConstraintRegime, optimize
from .params import InterferometerParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_TRUNCATION = 4

DEFAULT_VERIFY_CUTOFF = 40
CUTOFF_ENV_VAR = "UIL_DEFAULT_CUTOFF"

CSV_COLUMNS = (
    "theta1",
    "theta2",
    "phi",
    "kappa",
    "transmission",
    "eta",
    "alpha_abs",
    "mean_O",
    "std_O",
    "delta_phi",
    "intensity_probe",
    "std_intensity_probe",
    "rho_intensity",
    "rho_fluctuation",
    "visibility",
)

AXIS_NAMES = ("theta1", "theta2", "phi", "kappa", "transmission", "eta", "alpha_abs")

PARAM_DEFAULTS = {
    "theta1": math.pi / 4,
    "theta2": math.pi / 4,
    "phi": math.pi / 2,
    "kappa": 0.0,
    "eta": 1.0,
    "alpha_re": 1.0,
    "alpha_im": 0.0,
}

# Default sweep: loss-surface preset.  Transmission axis is linear in
# exp(-kappa) (the CSV always carries both kappa and transmission).
PRESET_AXES = ("transmission=0.05:1.0:40", "theta1=0.01:1.5707963267948966:60")
PRESET_FIXED = {"theta2": math.pi / 4, "phi": math.pi / 2}

_OBJECTIVE_FLAGS = {"rho-di": "rho_fluctuation", "rho-i": "rho_intensity"}
_REGIME_FLAGS = {
    "free": "free",
    "equal-splitters": "equal_splitters",
    "fixed-mixer": "fixed_mixer",
}


class UsageError(ValueError):
    """Flag combination or value that cannot be acted on."""


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _json_dumps(obj) -> str:
    """JSON text with infinities as "inf"/"-inf"; NaN raises ValueError."""

    def walk(x):
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [walk(v) for v in x]
        return _jsonable(x)

    return json.dumps(walk(obj), indent=2, allow_nan=False)


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key.replace("-", "_")] = value
    if "alpha" in entries:
        entries.setdefault("alpha_re", entries["alpha"])
    return entries


def _resolve(args, config: dict[str, str], defaults: dict):
    """Apply flag > config > default precedence for the given keys."""
    unknown = sorted(set(config) - set(defaults) - {"alpha"})
    if unknown:
        raise UsageError(
            f"unknown config key(s) {unknown}; accepted: {sorted({*defaults, 'alpha'})}"
        )
    resolved = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if key == "alpha_re" and flag_value is None:
            flag_value = getattr(args, "alpha", None)  # --alpha is shorthand for --alpha-re
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            caster = type(default) if default is not None else str
            try:
                resolved[key] = caster(config[key])
            except ValueError as exc:
                raise UsageError(f"config value for {key!r}: {exc}") from exc
        else:
            resolved[key] = default
    return resolved


def _explicit_param_names(args, config) -> set[str]:
    names = set()
    for key in PARAM_DEFAULTS:
        if getattr(args, key, None) is not None or key in config:
            names.add(key)
    if getattr(args, "alpha", None) is not None or "alpha" in config:
        names.add("alpha_re")
    return names


def _build_params(resolved: dict) -> InterferometerParams:
    try:
        return InterferometerParams(
            theta1=resolved["theta1"],
            theta2=resolved["theta2"],
            phi=resolved["phi"],
            kappa=resolved["kappa"],
            eta=resolved["eta"],
            alpha=complex(resolved["alpha_re"], resolved["alpha_im"]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


KERNEL_INPUTS = ("theta1", "theta2", "phi", "kappa", "eta", "alpha_abs")


def _point_inputs(params: InterferometerParams) -> dict[str, float]:
    return {
        "theta1": params.theta1,
        "theta2": params.theta2,
        "phi": params.phi,
        "kappa": params.kappa,
        "eta": params.eta,
        "alpha_abs": abs(params.alpha),
    }


def _columns(inputs: dict) -> dict[str, np.ndarray]:
    """Every CSV column over the broadcast inputs, from one kernel call."""
    metrics = metrics_values(*(inputs[name] for name in KERNEL_INPUTS))
    shape = metrics["mean_O"].shape
    columns = {name: np.broadcast_to(value, shape) for name, value in inputs.items()}
    columns["transmission"] = np.exp(-columns["kappa"])
    columns.update(metrics)
    return {name: columns[name].ravel() for name in CSV_COLUMNS}


def _rows(columns: dict[str, np.ndarray]):
    return zip(*(columns[name].tolist() for name in CSV_COLUMNS))


def _render_csv(columns: dict[str, np.ndarray]) -> str:
    """CSV text with each number in its shortest round-trip form; NaN raises ValueError."""
    if any(np.isnan(column).any() for column in columns.values()):
        raise ValueError("NaN in a computed column, nothing written")
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(map(repr, row)) for row in _rows(columns))
    return "\n".join(lines) + "\n"


def _records(columns: dict[str, np.ndarray]) -> list[dict[str, float]]:
    return [dict(zip(CSV_COLUMNS, row)) for row in _rows(columns)]


def _write_data_file(path: str, data: str, command: str, parameters: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(data)
    manifest = {
        "tool": "uil",
        "version": __version__,
        "command": command,
        "created": datetime.now(timezone.utc).isoformat(),
        "parameters": parameters,
        "output": os.path.basename(path),
        "sha256": hashlib.sha256(data.encode("utf-8")).hexdigest(),
    }
    with open(path + ".manifest.json", "w", encoding="utf-8") as handle:
        handle.write(_json_dumps(manifest) + "\n")


def _emit(data: str, args, command: str, parameters: dict) -> None:
    if args.output:
        _write_data_file(args.output, data, command, parameters)
    else:
        sys.stdout.write(data if data.endswith("\n") else data + "\n")


# Subcommands


def _cmd_metrics(args) -> int:
    config = _load_config(args.config)
    resolved = _resolve(args, config, PARAM_DEFAULTS)
    columns = _columns(_point_inputs(_build_params(resolved)))
    fmt = args.format or "json"
    data = _render_csv(columns) if fmt == "csv" else _json_dumps(_records(columns)[0]) + "\n"
    _emit(data, args, "metrics", {**resolved, "format": fmt})
    return EXIT_OK


# Domain of each swept parameter: (description, test over the axis values).
_AXIS_DOMAINS = {
    "transmission": ("in (0, 1]", lambda v: (v > 0.0) & (v <= 1.0)),
    "kappa": ("finite and >= 0", lambda v: np.isfinite(v) & (v >= 0.0)),
    "eta": ("in (0, 1]", lambda v: (v > 0.0) & (v <= 1.0)),
    "alpha_abs": ("finite and >= 0", lambda v: np.isfinite(v) & (v >= 0.0)),
}


def _parse_axis(spec: str) -> tuple[str, np.ndarray]:
    """Axis name and its validated values."""
    try:
        name, rest = spec.split("=", 1)
        start_s, stop_s, steps_s = rest.split(":")
        name = name.strip().replace("-", "_")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except (ValueError, AttributeError) as exc:
        raise UsageError(
            f"axis {spec!r} must look like name=start:stop:steps"
        ) from exc
    if name not in AXIS_NAMES:
        raise UsageError(f"axis parameter {name!r} not one of {AXIS_NAMES}")
    if steps < 2:
        raise UsageError(f"axis {name!r} needs at least 2 steps, got {steps}")
    with np.errstate(invalid="ignore"):  # an infinite end point spaces out to NaN
        values = np.linspace(start, stop, steps)
    domain, valid = _AXIS_DOMAINS.get(name, ("finite", np.isfinite))
    bad = values[~valid(values)]
    if bad.size:
        raise UsageError(f"{name} axis values must be {domain}, got {float(bad[0])!r}")
    return name, values


def _sweep_inputs(axes, fixed: dict) -> dict:
    """Input columns of the grid, row-major over the axes in the given order."""
    grids = {}
    for name, values in axes:
        if name == "transmission":
            # math.log per value, not np.log, whose vector loop may differ
            # in the last ulp: kappa = -log(T) exactly as a reader computes it.
            name, values = "kappa", np.array([-math.log(v) + 0.0 for v in values.tolist()])
        grids[name] = values
    meshes = np.meshgrid(*grids.values(), indexing="ij")
    return {**fixed, **{name: mesh.ravel() for name, mesh in zip(grids, meshes)}}


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    resolved = _resolve(args, config, PARAM_DEFAULTS)

    axis_specs = list(args.axis) if args.axis else list(PRESET_AXES)
    if not args.axis:
        explicit = _explicit_param_names(args, config)
        resolved.update({k: v for k, v in PRESET_FIXED.items() if k not in explicit})
    axes = [_parse_axis(spec) for spec in axis_specs]

    names = [axis[0] for axis in axes]
    swept = {"kappa" if name == "transmission" else name for name in names}
    if len(swept) != len(names):
        raise UsageError(f"swept parameters must be distinct (a transmission axis sets kappa), got {names}")
    if "alpha_abs" in swept:
        swept.update(("alpha_re", "alpha_im"))
    clashes = swept & _explicit_param_names(args, config)
    if clashes:
        raise UsageError(f"parameters both fixed and swept: {sorted(clashes)}")

    if not args.output:
        raise UsageError("sweep requires --output")
    fixed = _point_inputs(_build_params(resolved))
    columns = _columns(_sweep_inputs(axes, fixed))
    fmt = args.format or "csv"
    data = _render_csv(columns) if fmt == "csv" else _json_dumps(_records(columns)) + "\n"
    rows = columns["theta1"].size
    parameters = {**resolved, "axes": axis_specs, "format": fmt, "rows": rows}
    _write_data_file(args.output, data, "sweep", parameters)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    config = _load_config(args.config)
    defaults = {**PARAM_DEFAULTS, "tol": DEFAULT_TOL}
    resolved = _resolve(args, config, defaults)
    if resolved["tol"] <= 0.0:
        raise UsageError(f"tol must be positive, got {resolved['tol']}")
    try:
        regime = ConstraintRegime(
            kind=_REGIME_FLAGS[args.regime],
            kappa=resolved["kappa"],
            phi=None if args.free_phi else resolved["phi"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = optimize(
        _OBJECTIVE_FLAGS[args.objective],
        regime,
        tol=resolved["tol"],
        alpha=complex(resolved["alpha_re"], resolved["alpha_im"]),
        eta=resolved["eta"],
    )
    data = _json_dumps(report.to_dict()) + "\n"
    _emit(data, args, "optimize", {**resolved, "objective": args.objective, "regime": args.regime})
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    defaults = {
        "alpha_re": 1.0,
        "alpha_im": 0.0,
        "samples": 50,
        "seed": 0,
        "tol": 1e-8,
        "cutoff": int(os.environ.get(CUTOFF_ENV_VAR, DEFAULT_VERIFY_CUTOFF)),
    }
    resolved = _resolve(args, config, defaults)
    alpha = complex(resolved["alpha_re"], resolved["alpha_im"])
    cutoff, samples, seed, tol = (
        resolved["cutoff"],
        resolved["samples"],
        resolved["seed"],
        resolved["tol"],
    )
    if samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples}")

    coherent_state(alpha, cutoff)  # tail check up front; TruncationError -> exit 4

    rng = np.random.default_rng(seed)
    theta1 = rng.uniform(0.0, math.pi / 2, samples)
    theta2 = rng.uniform(0.0, math.pi / 2, samples)
    phi = rng.uniform(0.0, 2.0 * math.pi, samples)
    kappa = rng.uniform(0.0, 1.0, samples)

    metrics = metrics_values(theta1, theta2, phi, kappa, 1.0, abs(alpha))
    oracle_names = {
        "mean_O": "mean_O",
        "std_O": "std_O",
        "intensity_probe": "probe_intensity",
        "std_intensity_probe": "probe_std",
    }
    worst = dict.fromkeys(oracle_names, 0.0)
    for i in range(samples):
        params = InterferometerParams(
            theta1=float(theta1[i]),
            theta2=float(theta2[i]),
            phi=float(phi[i]),
            kappa=float(kappa[i]),
            alpha=alpha,
        )
        oracle = simulate(params, cutoff)
        for key, name in oracle_names.items():
            worst[key] = max(worst[key], abs(float(metrics[key][i]) - getattr(oracle, name)))

    max_dev = max(worst.values())
    print(
        f"verify: {samples} samples, |alpha| = {abs(alpha):g}, "
        f"cutoff n_max = {cutoff}, seed = {seed}"
    )
    for key, dev in worst.items():
        print(f"  {key:22s} max |analytic - simulator| = {dev:.3e}")
    verdict = "PASS" if max_dev < tol else "FAIL"
    print(f"{verdict}: max deviation {max_dev:.3e} (tolerance {tol:.1e})")
    return EXIT_OK if max_dev < tol else 1


# Parser


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta1", type=float, help="input splitter mixing angle, radians")
    parser.add_argument("--theta2", type=float, help="output mixer mixing angle, radians")
    parser.add_argument("--phi", type=float, help="probe-arm phase delay, radians")
    parser.add_argument("--kappa", type=float, help="probe-arm attenuation exponent (>= 0)")
    parser.add_argument("--eta", type=float, help="detector quantum efficiency in (0, 1]")
    parser.add_argument("--alpha", type=float, help="shorthand for --alpha-re")
    parser.add_argument("--alpha-re", type=float, dest="alpha_re", help="input amplitude, real part")
    parser.add_argument("--alpha-im", type=float, dest="alpha_im", help="input amplitude, imaginary part")


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", help="write result to this path (with a .manifest.json)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--config", help="key = value config file (flags win over it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uil",
        description="Unbalanced two-path interferometer: resolution/back-action toolkit",
    )
    parser.add_argument("--version", action="version", version=f"uil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="all performance metrics at one operating point")
    _add_param_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("sweep", help="metrics over a parameter grid (default: loss surface preset)")
    _add_param_flags(p)
    _add_io_flags(p)
    p.add_argument(
        "--axis",
        action="append",
        metavar="NAME=START:STOP:STEPS",
        help=f"swept axis ({'|'.join(AXIS_NAMES)}); repeatable, row-major in given order",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="maximize a performance ratio over splitting angles")
    p.add_argument("--objective", choices=sorted(_OBJECTIVE_FLAGS), required=True)
    p.add_argument("--regime", choices=sorted(_REGIME_FLAGS), required=True)
    p.add_argument("--tol", type=float, help="angular bracket tolerance (default 1e-8)")
    p.add_argument("--free-phi", action="store_true", help="optimize the operating phase too")
    _add_param_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("verify", help="check closed forms against the Fock-space simulator")
    p.add_argument("--alpha", type=float, help="shorthand for --alpha-re")
    p.add_argument("--alpha-re", type=float, dest="alpha_re")
    p.add_argument("--alpha-im", type=float, dest="alpha_im")
    p.add_argument("--cutoff", type=int, help=f"Fock cutoff n_max (default {DEFAULT_VERIFY_CUTOFF}, env {CUTOFF_ENV_VAR})")
    p.add_argument("--samples", type=int, help="number of random operating points (default 50)")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument("--tol", type=float, help="max allowed |analytic - simulator| (default 1e-8)")
    p.add_argument("--config", help="key = value config file")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already reported the problem
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"uil {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"uil {args.command}: invalid value: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TruncationError as exc:
        print(f"uil {args.command}: truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except OSError as exc:
        print(f"uil {args.command}: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
