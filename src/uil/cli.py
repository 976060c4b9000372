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
import gc
import math
import os
import random
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analytic import metrics_values
from .fock import TruncationError, check_cutoff, simulate_values
from .optimize import REGIME_KINDS, ConstraintRegime, optimize
from .params import DOMAINS, PerformanceMetrics, check_domain, check_memory, modulus

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_TRUNCATION = 4

CSV_COLUMNS = (*DOMAINS, *(field.name for field in fields(PerformanceMetrics)))  # inputs, then metrics

# Every value a subcommand reads from a flag or a config key: its default,
# whose type the flag ``--key-name`` takes, and the flag's help.
PARAMETERS = {
    key: (default, f"{text} (default {default:g})")
    for key, default, text in (
        ("theta1", math.pi / 4, "input splitter mixing angle, radians"),
        ("theta2", math.pi / 4, "output mixer mixing angle, radians"),
        ("phi", math.pi / 2, "probe-arm phase delay, radians"),
        ("kappa", 0.0, "probe-arm attenuation exponent (>= 0)"),
        ("eta", 1.0, "detector quantum efficiency in (0, 1]"),
        ("alpha_re", 1.0, "input amplitude, real part"),
        ("alpha_im", 0.0, "input amplitude, imaginary part"),
        ("samples", 50, "number of random operating points"),
        ("seed", 0, "random seed"),
        ("tol", 1e-8, "max allowed |analytic - simulator|"),
        ("cutoff", 40, "Fock cutoff n_max"),
    )
}
# The keys each subcommand reads, in the order of its flags; it resolves them,
# and a manifest records them, in table order.
POINT_KEYS = ("theta1", "theta2", "phi", "kappa", "eta", "alpha_re", "alpha_im")
VERIFY_KEYS = ("alpha_re", "alpha_im", "cutoff", "samples", "seed", "tol")

# Default sweep: loss-surface preset.  Transmission axis is linear in
# exp(-kappa) (the CSV always carries both kappa and transmission).
PRESET_AXES = ("transmission=0.05:1.0:40", "theta1=0.01:1.5707963267948966:60")

_OBJECTIVE_FLAGS = {"rho-di": "rho_fluctuation", "rho-i": "rho_intensity"}


class UsageError(ValueError):
    """Flag combination or value that cannot be acted on."""


def _json_dumps(obj) -> str:
    """JSON text with infinities as "inf"/"-inf"; NaN raises ValueError."""
    import json  # here, so processes that print no JSON never load it

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


def _resolve(args) -> tuple[dict, set[str]]:
    """Apply flag > config > default precedence over the subcommand's keys, in table order.

    Returns the resolved values and the keys that a flag or the config
    file set (``alpha`` counts as ``alpha_re``).
    """
    config = _load_config(args.config)
    unknown = sorted(set(config) - {*args.keys, "alpha"})
    if unknown:
        raise UsageError(f"unknown config key(s) {unknown}; accepted: {sorted({*args.keys, 'alpha'})}")
    resolved, explicit = {}, set()
    for key in (key for key in PARAMETERS if key in args.keys):
        flag_value = getattr(args, key)
        if key == "alpha_re" and flag_value is None:
            flag_value = args.alpha  # --alpha is shorthand for --alpha-re
        default = PARAMETERS[key][0]
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

    Each column is a view of the inputs' broadcast shape over its own
    values.  A NaN in any column raises ValueError here, before any file
    is opened.
    """
    metrics = metrics_values(**inputs)
    shape = metrics["mean_O"].shape
    columns = {name: np.broadcast_to(value, shape) for name, value in inputs.items()}
    columns["transmission"] = np.broadcast_to(np.exp(-inputs["kappa"]), shape)
    columns.update(metrics)
    if any(np.isnan(_own_values(column)[0]).any() for column in columns.values()):
        raise ValueError("NaN in a computed column, nothing written")
    return {name: columns[name] for name in CSV_COLUMNS}


def _own_values(column: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The values a column view holds, flat, and the step through them along each axis.

    Row ``i`` of the column (a multi-index over its shape) holds
    ``values[i @ steps]``; a broadcast axis has step 0.
    """
    column = np.atleast_1d(column)
    held = np.ascontiguousarray(column[tuple(slice(None) if stride else slice(0, 1) for stride in column.strides)])
    steps = [stride // held.itemsize if size > 1 else 0 for stride, size in zip(held.strides, held.shape)]
    return held.ravel(), steps


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
    import json

    keys = [f"\n    {json.dumps(name)}: " for name in CSV_COLUMNS]
    after = [f",{key}" for key in keys[1:]] + ["\n  },\n  {" + keys[0]]
    return "[\n  {" + keys[0], after, "\n  }\n]\n"


def _render_blocks(columns: dict[str, np.ndarray], fmt: str):
    """The data file's bytes, RENDER_PIECE_ROWS rows at a time.

    Each column is formatted from its own values (see ``_own_values``):
    per block, ``repr_bytes`` formats, in one call, the range of each
    column's values that the block's rows address, or, where that range
    is longer than the block, the values the rows address.  A piece is a
    NUL-padded byte matrix of its rows, each value followed by the
    template's text after it; its bytes are written with the NULs
    dropped.
    """
    from .floatrepr import repr_bytes  # here, so processes that write no data file never load it

    head, after, tail = _template(fmt)
    gap = max(len(text) for text in [*after, tail])
    fixed = np.zeros((len(after) + 1, gap), dtype=np.uint8)  # the text after each value, then the tail
    for j, text in enumerate([*after, tail]):
        fixed[j, : len(text)] = np.frombuffer(text.encode(), dtype=np.uint8)
    shape = np.shape(columns[CSV_COLUMNS[0]]) or (1,)
    held, steps = zip(*(_own_values(columns[name]) for name in CSV_COLUMNS))
    steps = np.array(steps).T  # (axis, column)
    rows = math.prod(shape)

    def block(start: int):
        # a function of its own, so that one block's buffers are freed before the next block's are made
        at = np.unravel_index(np.arange(start, min(start + RENDER_BLOCK_ROWS, rows)), shape)
        index = np.stack(at, axis=1) @ steps  # (row, column) into `held`
        low, high = index.min(axis=0), index.max(axis=0) + 1
        parts = [own[a:b] for own, a, b in zip(held, low, high)]
        for j in np.flatnonzero(high - low > len(index)):  # rows that wrap round a longer axis
            parts[j], low[j], index[:, j] = held[j][index[:, j]], 0, np.arange(len(index))
        sizes = [len(part) for part in parts]
        text = repr_bytes(np.concatenate(parts), quote_inf=fmt == "json")
        used = np.flatnonzero(text.any(axis=0))  # the byte columns some value fills
        lo, width = used[0], used[-1] + 1 - used[0]
        piece = np.empty((RENDER_PIECE_ROWS, len(CSV_COLUMNS), width + gap), dtype=np.uint8)
        piece[:, :, width:] = fixed[:-1]
        index += np.cumsum(sizes) - sizes - low  # now (row, column) into `text`
        for first in range(0, len(index), RENDER_PIECE_ROWS):
            part = index[first : first + RENDER_PIECE_ROWS]
            cells = piece[: len(part)]
            cells[:, :, :width] = text.take(part, axis=0)[:, :, lo : lo + width]
            if start + first + len(part) == rows:
                cells[-1, -1, width:] = fixed[-1]
            yield cells.tobytes().translate(None, b"\0")

    yield head.encode()
    for start in range(0, rows, RENDER_BLOCK_ROWS):
        yield from block(start)


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
    resolved, _ = _resolve(args)
    columns = _columns(_point_inputs(resolved))
    fmt = args.format or "json"
    if fmt == "csv":
        data = b"".join(_render_blocks(columns, fmt)).decode()
    else:
        data = _json_dumps({name: float(columns[name]) for name in CSV_COLUMNS}) + "\n"
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
    """Kernel inputs of the grid, row-major over the axes in the given order, as an open grid.

    Axis k holds its values along dimension k and has length 1 along
    every other; fixed parameters stay scalars.
    """
    inputs = dict(fixed)
    for k, (name, start, stop, steps) in enumerate(axes):
        for end in (start, stop):
            if not math.isfinite(end):  # no domain holds it; spaced out, it would read as NaN
                check_domain(name, end)
        if math.isfinite(stop - start):
            values = np.linspace(start, stop, steps)
        else:  # finite ends whose span overflows: spaced out at half scale, which halves and doubles exactly
            values = 2.0 * np.linspace(start / 2, stop / 2, steps)
        check_domain(name, values)
        if name == "transmission":
            # math.log per value, not np.log, whose vector loop may differ
            # in the last ulp: kappa = -log(T) exactly as a reader computes it.
            name, values = "kappa", np.array([-math.log(v) + 0.0 for v in values.tolist()])
        inputs[name] = values.reshape([steps if j == k else 1 for j in range(len(axes))])
    return inputs


def _cmd_sweep(args) -> int:
    resolved, explicit = _resolve(args)
    axis_specs = list(args.axis) if args.axis else list(PRESET_AXES)
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
    resolved, _ = _resolve(args)
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
    resolved, _ = _resolve(args)
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
    what = "16 values of 8 bytes a sample: 4 drawn parameters, 8 closed forms and 4 oracle moments"
    check_memory(128 * samples, f"{samples} samples need at least", what, UsageError)

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
    oracle = simulate_values(*points, alpha, cutoff)
    worst = {key: float(np.max(np.abs(metrics[key] - oracle[name]))) for key, name in oracle_names.items()}

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uil",
        description="Unbalanced two-path interferometer: resolution/back-action toolkit",
    )
    parser.add_argument("--version", action="version", version=f"uil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    metrics = sub.add_parser("metrics", help="all performance metrics at one operating point")
    sweep = sub.add_parser("sweep", help="metrics over a parameter grid (default: loss surface preset)")
    optimize = sub.add_parser("optimize", help="maximize a performance ratio over splitting angles")
    verify = sub.add_parser("verify", help="check closed forms against the Fock-space simulator")

    optimize.add_argument("--objective", choices=sorted(_OBJECTIVE_FLAGS), required=True)
    regimes = sorted(kind.replace("_", "-") for kind in REGIME_KINDS)
    optimize.add_argument("--regime", choices=regimes, required=True)
    optimize.add_argument("--free-phi", action="store_true", help="optimize the operating phase too")
    # optimize chooses the angles; verify draws the operating points
    for p, func, keys in (
        (metrics, _cmd_metrics, POINT_KEYS),
        (sweep, _cmd_sweep, POINT_KEYS),
        (optimize, _cmd_optimize, POINT_KEYS[2:]),
        (verify, _cmd_verify, VERIFY_KEYS),
    ):
        p.set_defaults(func=func, keys=keys)
        for key in keys:
            if key == "alpha_re":
                p.add_argument("--alpha", type=float, help="shorthand for --alpha-re")
            default, text = PARAMETERS[key]
            p.add_argument("--" + key.replace("_", "-"), type=type(default), help=text)
    for p in (metrics, sweep, optimize):  # verify prints its report
        p.add_argument("--output", help="write result to this path (with a .manifest.json)")
    for p in (metrics, sweep):  # optimize writes JSON only
        p.add_argument("--format", choices=("csv", "json"), help="output format")
    for p in (metrics, sweep, optimize, verify):
        p.add_argument("--config", help="key = value config file (flags win over it)")
    sweep.add_argument(
        "--axis",
        action="append",
        metavar="NAME=START:STOP:STEPS",
        help=f"swept axis ({'|'.join(DOMAINS)}); repeatable, row-major in given order",
    )
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
    """Run :func:`main` as a process, ``uil`` and ``python -m uil``, and exit with its code.

    Every object the run made is frozen first (``gc.freeze``), so the
    exiting interpreter skips its final garbage collection over them;
    atexit handlers and the flushing of stdout and stderr still run, and
    :func:`main` has closed every data file it wrote before it returns.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
