"""Row-by-row reference renderers for the sweep-output tests.

These are the simple renderers `uil.cli` used before it formatted each
column once and filled a fixed template block by block: one ``repr``
per cell for CSV, and ``json.dumps(records, indent=2)`` for JSON, with
infinities as the strings "inf"/"-inf".  They hold the whole text at
once, but are simple enough to trust, so the tests require the
streamed output to equal theirs byte for byte.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _rows(columns: dict[str, np.ndarray], names):
    """The grid's rows, in C order over the columns' common shape."""
    return zip(*(np.ravel(columns[name]).tolist() for name in names))


def render_csv(columns: dict[str, np.ndarray], names) -> str:
    lines = [",".join(names)]
    lines.extend(",".join(map(repr, row)) for row in _rows(columns, names))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def render_json(columns: dict[str, np.ndarray], names) -> str:
    records = [{name: _jsonable(value) for name, value in zip(names, row)} for row in _rows(columns, names)]
    return json.dumps(records, indent=2, allow_nan=False) + "\n"
