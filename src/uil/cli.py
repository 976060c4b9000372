"""Command-line front end.

Subcommands: ``metrics`` (one operating point), ``sweep`` (parameter
grids to CSV/JSON with a run manifest), ``optimize`` (the closed-form
optimum angles under a constraint regime) and ``verify`` (closed forms
against the Fock-space engine on random operating points).

Exit codes: 0 success, 2 bad usage, flag values or memory exhausted,
3 I/O failure, 4 Fock truncation failure.  Data files are
byte-deterministic for identical invocations; each one is paired with
a ``.manifest.json`` carrying the resolved parameter set and a checksum.

Flag values beat config-file entries (plain ``key = value`` lines),
which beat built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analytic import metrics_values
from .fock import TruncationError, check_cutoff, simulate
from .optimize import REGIME_KINDS, ConstraintRegime, optimize
from .params import DOMAINS, InterferometerParams, check_domain, check_memory, modulus

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_TRUNCATION = 4

DEFAULT_VERIFY_CUTOFF = 40

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


class UsageError(ValueError):
    """Flag combination or value that cannot be acted on."""


def _json_dumps(obj) -> str:
    """JSON text with infinities as "inf"/"-inf"; NaN raises ValueError."""

    def walk(x):
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [walk(v) for v in x]
        if isinstance(x, float) and math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x

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


def _resolve(args, defaults: dict) -> tuple[dict, set[str]]:
    """Apply flag > config > default precedence for the given keys.

    Returns the resolved values and the keys that a flag or the config
    file set (``alpha`` counts as ``alpha_re``).
    """
    config = _load_config(args.config)
    unknown = sorted(set(config) - set(defaults) - {"alpha"})
    if unknown:
        raise UsageError(
            f"unknown config key(s) {unknown}; accepted: {sorted({*defaults, 'alpha'})}"
        )
    resolved, explicit = {}, set()
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if key == "alpha_re" and flag_value is None:
            flag_value = getattr(args, "alpha", None)  # --alpha is shorthand for --alpha-re
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            try:
                resolved[key] = type(default)(config[key])
            except ValueError as exc:
                raise UsageError(f"config value for {key!r}: {exc}") from exc
        else:
            resolved[key] = default
            continue
        explicit.add(key)
    return resolved, explicit


def _point_inputs(resolved: dict) -> dict[str, float]:
    """The six kernel inputs of the resolved operating point, each checked against its domain."""
    names = ("theta1", "theta2", "phi", "kappa", "eta")
    inputs = {name: check_domain(name, resolved[name]) for name in names}
    inputs["alpha_abs"] = modulus(complex(resolved["alpha_re"], resolved["alpha_im"]))
    return inputs


def _columns(inputs: dict) -> dict[str, np.ndarray]:
    """Every CSV column over the broadcast inputs, from one kernel call.

    A NaN in any column raises ValueError here, before any file is opened.
    """
    metrics = metrics_values(**inputs)
    shape = metrics["mean_O"].shape
    columns = {name: np.broadcast_to(value, shape) for name, value in inputs.items()}
    columns["transmission"] = np.exp(-columns["kappa"])
    columns.update(metrics)
    if any(np.isnan(column).any() for column in columns.values()):
        raise ValueError("NaN in a computed column, nothing written")
    return {name: columns[name].ravel() for name in CSV_COLUMNS}


# Rows formatted per block, and written per piece, so memory does not
# grow with the rendered text.
RENDER_BLOCK_ROWS = 2048
RENDER_PIECE_ROWS = 512


def _template(fmt: str) -> tuple[str, list[str], str]:
    """A data file's fixed text: before its first value, after each value
    of a row, and after its last value.

    The JSON parts reproduce ``json.dumps(records, indent=2)`` with its
    closing newline.
    """
    if fmt == "csv":
        return ",".join(CSV_COLUMNS) + "\n", [","] * (len(CSV_COLUMNS) - 1) + ["\n"], "\n"
    keys = [f"\n    {json.dumps(name)}: " for name in CSV_COLUMNS]
    after = [f",{key}" for key in keys[1:]] + ["\n  },\n  {" + keys[0]]
    return "[\n  {" + keys[0], after, "\n  }\n]\n"


def _render_blocks(columns: dict[str, np.ndarray], fmt: str):
    """The data file's bytes, RENDER_PIECE_ROWS rows at a time.

    Per block, ``repr_bytes`` formats each distinct bit pattern once (so
    -0.0 and 0.0 stay apart).  A piece is a NUL-padded byte matrix of
    its rows, each value followed by the template's text after it; its
    bytes are written with the NULs dropped.
    """
    from .floatrepr import repr_bytes  # here, so processes that write no data file never load it

    head, after, tail = _template(fmt)
    gap = max(len(text) for text in [*after, tail])
    fixed = np.zeros((len(after) + 1, gap), dtype=np.uint8)  # the text after each value, then the tail
    for j, text in enumerate([*after, tail]):
        fixed[j, : len(text)] = np.frombuffer(text.encode(), dtype=np.uint8)
    rows = columns[CSV_COLUMNS[0]].size
    yield head.encode()
    for start in range(0, rows, RENDER_BLOCK_ROWS):
        values = np.stack([columns[name][start : start + RENDER_BLOCK_ROWS] for name in CSV_COLUMNS], axis=1)
        distinct, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
        text = repr_bytes(distinct.view(np.float64), quote_inf=fmt == "json")
        used = np.flatnonzero(text.any(axis=0))  # the byte columns some value fills
        lo, width = used[0], used[-1] + 1 - used[0]
        piece = np.empty((RENDER_PIECE_ROWS, len(CSV_COLUMNS), width + gap), dtype=np.uint8)
        piece[:, :, width:] = fixed[:-1]
        inverse = inverse.reshape(values.shape)
        for first in range(0, len(inverse), RENDER_PIECE_ROWS):
            part = inverse[first : first + RENDER_PIECE_ROWS]
            cells = piece[: len(part)]
            cells[:, :, :width] = text.take(part, axis=0)[:, :, lo : lo + width]
            if start + first + len(part) == rows:
                cells[-1, -1, width:] = fixed[-1]
            yield cells.tobytes().translate(None, b"\0")


def _write_data_file(path: str, blocks, command: str, parameters: dict) -> None:
    """Write the text blocks to ``path``, hashing them as they go, then its manifest."""
    import hashlib  # here, so processes that write no data file never load it

    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for data in blocks:
            digest.update(data)
            handle.write(data)
    manifest = {
        "tool": "uil",
        "version": __version__,
        "command": command,
        "created": datetime.now(timezone.utc).isoformat(),
        "parameters": parameters,
        "output": os.path.basename(path),
        "sha256": digest.hexdigest(),
    }
    with open(path + ".manifest.json", "w", encoding="utf-8") as handle:
        handle.write(_json_dumps(manifest) + "\n")


def _emit(data: str, args, command: str, parameters: dict) -> None:
    if args.output:
        _write_data_file(args.output, [data.encode()], command, parameters)
    else:
        sys.stdout.write(data if data.endswith("\n") else data + "\n")


# Subcommands


def _cmd_metrics(args) -> int:
    resolved, _ = _resolve(args, PARAM_DEFAULTS)
    columns = _columns(_point_inputs(resolved))
    fmt = args.format or "json"
    if fmt == "csv":
        data = b"".join(_render_blocks(columns, fmt)).decode()
    else:
        data = _json_dumps({name: float(columns[name][0]) for name in CSV_COLUMNS}) + "\n"
    _emit(data, args, "metrics", {**resolved, "format": fmt})
    return EXIT_OK


def _parse_axis(spec: str) -> tuple[str, float, float, int]:
    """Axis name, end points and number of steps."""
    try:
        name, rest = spec.split("=", 1)
        start_s, stop_s, steps_s = rest.split(":")
        name = name.strip().replace("-", "_")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except (ValueError, AttributeError) as exc:
        raise UsageError(
            f"axis {spec!r} must look like name=start:stop:steps"
        ) from exc
    if name not in DOMAINS:
        raise UsageError(f"axis parameter {name!r} not one of {tuple(DOMAINS)}")
    if steps < 2:
        raise UsageError(f"axis {name!r} needs at least 2 steps, got {steps}")
    return name, start, stop, steps


def _sweep_inputs(axes, fixed: dict) -> dict:
    """Input columns of the grid, row-major over the axes in the given order."""
    grids = {}
    for name, start, stop, steps in axes:
        with np.errstate(invalid="ignore"):  # an infinite end point spaces out to NaN
            values = check_domain(name, np.linspace(start, stop, steps))
        if name == "transmission":
            # math.log per value, not np.log, whose vector loop may differ
            # in the last ulp: kappa = -log(T) exactly as a reader computes it.
            name, values = "kappa", np.array([-math.log(v) + 0.0 for v in values.tolist()])
        grids[name] = values
    meshes = np.meshgrid(*grids.values(), indexing="ij")
    return {**fixed, **{name: mesh.ravel() for name, mesh in zip(grids, meshes)}}


def _cmd_sweep(args) -> int:
    resolved, explicit = _resolve(args, PARAM_DEFAULTS)

    axis_specs = list(args.axis) if args.axis else list(PRESET_AXES)
    if not args.axis:
        resolved.update({k: v for k, v in PRESET_FIXED.items() if k not in explicit})
    axes = [_parse_axis(spec) for spec in axis_specs]

    names = [axis[0] for axis in axes]
    swept = {"kappa" if name == "transmission" else name for name in names}
    if len(swept) != len(names):
        raise UsageError(f"swept parameters must be distinct (a transmission axis sets kappa), got {names}")
    if "alpha_abs" in swept:
        swept.update(("alpha_re", "alpha_im"))
    clashes = swept & explicit
    if clashes:
        raise UsageError(f"parameters both fixed and swept: {sorted(clashes)}")

    if not args.output:
        raise UsageError("sweep requires --output")
    rows = math.prod(steps for *_, steps in axes)
    what = f"{len(CSV_COLUMNS)} columns of 8-byte values"  # the columns alone, before any axis is spaced out
    check_memory(8 * len(CSV_COLUMNS) * rows, f"a grid of {rows} rows needs at least", what, UsageError)
    fixed = _point_inputs(resolved)
    columns = _columns(_sweep_inputs(axes, fixed))
    fmt = args.format or "csv"
    parameters = {**resolved, "axes": axis_specs, "format": fmt, "rows": rows}
    _write_data_file(args.output, _render_blocks(columns, fmt), "sweep", parameters)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    resolved, _ = _resolve(args, PARAM_DEFAULTS)
    regime = ConstraintRegime(
        kind=args.regime.replace("-", "_"),
        kappa=resolved["kappa"],
        phi=None if args.free_phi else resolved["phi"],
    )
    report = optimize(
        _OBJECTIVE_FLAGS[args.objective],
        regime,
        alpha=complex(resolved["alpha_re"], resolved["alpha_im"]),
        eta=resolved["eta"],
    )
    data = _json_dumps(asdict(report)) + "\n"
    _emit(data, args, "optimize", {**resolved, "objective": args.objective, "regime": args.regime})
    return EXIT_OK


def _cmd_verify(args) -> int:
    defaults = {
        "alpha_re": 1.0,
        "alpha_im": 0.0,
        "samples": 50,
        "seed": 0,
        "tol": 1e-8,
        "cutoff": DEFAULT_VERIFY_CUTOFF,
    }
    resolved, _ = _resolve(args, defaults)
    alpha = complex(resolved["alpha_re"], resolved["alpha_im"])
    alpha_abs = modulus(alpha)
    cutoff, samples, seed, tol = (resolved[key] for key in ("cutoff", "samples", "seed", "tol"))
    if samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples}")
    if not tol > 0.0:
        raise UsageError(f"tol must be > 0, got {tol!r}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")

    check_cutoff(alpha, cutoff, tol)  # ValueError -> exit 2, TruncationError -> exit 4

    rng = random.Random(seed)  # numpy.random would load hashlib and OpenSSL
    highs = (math.pi / 2, math.pi / 2, 2.0 * math.pi, 1.0)  # theta1, theta2, phi, kappa
    points = [np.array([rng.uniform(0.0, high) for _ in range(samples)]) for high in highs]

    metrics = metrics_values(*points, 1.0, alpha_abs)
    oracle_names = {
        "mean_O": "mean_O",
        "std_O": "std_O",
        "intensity_probe": "probe_intensity",
        "std_intensity_probe": "probe_std",
    }
    worst = dict.fromkeys(oracle_names, 0.0)
    for i, point in enumerate(np.stack(points, axis=1).tolist()):
        oracle = simulate(InterferometerParams(*point, alpha=alpha), cutoff)
        for key, name in oracle_names.items():
            worst[key] = max(worst[key], abs(float(metrics[key][i]) - getattr(oracle, name)))

    max_dev = max(worst.values())
    print(
        f"verify: {samples} samples, |alpha| = {alpha_abs:g}, "
        f"cutoff n_max = {cutoff}, seed = {seed}"
    )
    for key, dev in worst.items():
        print(f"  {key:22s} max |analytic - simulator| = {dev:.3e}")
    verdict = "PASS" if max_dev < tol else "FAIL"
    print(f"{verdict}: max deviation {max_dev:.3e} (tolerance {tol:.1e})")
    return EXIT_OK if max_dev < tol else 1


# Parser


def _add_alpha_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, help="shorthand for --alpha-re")
    parser.add_argument("--alpha-re", type=float, dest="alpha_re", help="input amplitude, real part")
    parser.add_argument("--alpha-im", type=float, dest="alpha_im", help="input amplitude, imaginary part")


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta1", type=float, help="input splitter mixing angle, radians")
    parser.add_argument("--theta2", type=float, help="output mixer mixing angle, radians")
    parser.add_argument("--phi", type=float, help="probe-arm phase delay, radians")
    parser.add_argument("--kappa", type=float, help="probe-arm attenuation exponent (>= 0)")
    parser.add_argument("--eta", type=float, help="detector quantum efficiency in (0, 1]")
    _add_alpha_flags(parser)


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
        help=f"swept axis ({'|'.join(DOMAINS)}); repeatable, row-major in given order",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="maximize a performance ratio over splitting angles")
    p.add_argument("--objective", choices=sorted(_OBJECTIVE_FLAGS), required=True)
    regimes = sorted(kind.replace("_", "-") for kind in REGIME_KINDS)
    p.add_argument("--regime", choices=regimes, required=True)
    p.add_argument("--free-phi", action="store_true", help="optimize the operating phase too")
    _add_param_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("verify", help="check closed forms against the Fock-space simulator")
    _add_alpha_flags(p)
    p.add_argument("--cutoff", type=int, help=f"Fock cutoff n_max (default {DEFAULT_VERIFY_CUTOFF})")
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
    except MemoryError as exc:  # a grid below the physical-memory bound can exceed the process's share
        print(f"uil {args.command}: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
