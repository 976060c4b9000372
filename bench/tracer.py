"""Spans around the public functions of `uil`'s layers, for the traced run.

`install` wraps every function in the `__all__` of `uil.analytic`,
`uil.fock` and `uil.optimize`, plus `uil.cli.main`, in every `uil`
module namespace that holds it, so callers inside the package reach the
wrapper too.  Each call records a span (name, parent span, start,
duration, points evaluated) in columnar arrays that stay in memory until
the run ends; `round_figures` turns a range of spans into layer figures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYER_MODULES = ("analytic", "fock", "optimize")
FOCK_TIMED = ("fock.simulate", "fock.coherent_state")


def _points(args, result) -> int:
    """Operating points one call evaluates.

    An optimizer report carries its own evaluation count; a kernel call
    covers the broadcast shape of its array arguments; anything else
    (a scalar function of one parameter set) is one point.
    """
    evaluations = getattr(result, "n_evaluations", None)
    if evaluations is not None:
        return int(evaluations)
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    return int(np.broadcast(*arrays).size) if arrays else 1


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.duration = array("d")
        self.points = array("q")
        self._open: list[int] = []
        self._origin = time.perf_counter()

    def mark(self) -> int:
        """Index of the next span, to delimit a round."""
        return len(self.name)

    def wrap(self, label: str, fn):
        name_id = len(self.labels)
        self.labels.append(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(self._open[-1] if self._open else -1)
            self.duration.append(0.0)
            self.points.append(0)
            self._open.append(index)
            begin = time.perf_counter()
            self.start.append(begin - self._origin)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.duration[index] = time.perf_counter() - begin
                self._open.pop()
            self.points[index] = _points(args, result)
            return result

        return traced

    def round_figures(self, first: int, stop: int) -> dict:
        """Layer figures for the spans first..stop-1 (whole call trees)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.duration, dtype=np.float64)
        points = np.frombuffer(self.points, dtype=np.int64)
        layer_of_label = np.array([label.split(".")[0] for label in self.labels] or [""])
        layer = layer_of_label[name]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=name.size)
        own = duration - child_time
        parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], "")

        part = slice(first, stop)
        layer, parent_layer, own, points, name = layer[part], parent_layer[part], own[part], points[part], name[part]
        figures: dict = {}
        for key in (*LAYER_MODULES, "cli"):
            mine = layer == key
            entering = mine & (parent_layer != key)
            figures[key] = {
                "calls": int(mine.sum()),
                "self_s": float(own[mine].sum()),
                "points": int(points[entering].sum()),
            }
        figures["optimize"]["kernel_calls"] = int(((layer == "analytic") & (parent_layer == "optimize")).sum())
        figures["durations"] = {
            label: duration[first:stop][name == self.labels.index(label)].tolist()
            for label in FOCK_TIMED
            if label in self.labels
        }
        return figures


def install(tracer: Tracer) -> None:
    """Replace the traced functions wherever a `uil` module binds them."""
    import uil.cli

    originals = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"uil.{short}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn):
                originals[id(fn)] = (fn, tracer.wrap(f"{short}.{attr}", fn))
    originals[id(uil.cli.main)] = (uil.cli.main, tracer.wrap("cli.main", uil.cli.main))
    for module_name, module in list(sys.modules.items()):
        if module_name != "uil" and not module_name.startswith("uil."):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
