"""Span tracer for the traced benchmark run.

The tracer wraps the package's public functions at every module global
that is bound to them, which is where callers look them up (``exp`` in
both ``lie_core`` and ``harness``, ``assert_unitary`` in both
``lie_core`` and ``jets``, and so on).  Each call records a span (name,
start, end, parent) in memory, plus its self time (duration minus the
time of its child spans) and a work count computed from argument or
result shapes.  Spans are written out once, when the run ends.

A target that no longer exists in the package is reported as absent; the
untraced passes never see the wrappers.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "gaugejets"


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _batch(arr, trailing: int) -> int:
    """Number of items in the leading axes of ``arr``."""
    return math.prod(arr.shape[: arr.ndim - trailing])


def _one(args, kwargs, out) -> int:
    return 1


def _conjugated_connection(args, kwargs, out) -> int:
    return _batch(_arg(args, kwargs, 1, "A").entries, 2)


def _conjugated_jet_connection(args, kwargs, out) -> int:
    jc = _arg(args, kwargs, 1, "jc")
    return _batch(jc.A, 2) + _batch(jc.dA, 2)


def _conjugated_curvature(args, kwargs, out) -> int:
    return _batch(_arg(args, kwargs, 1, "f").comps, 2)


def _none_conjugated(args, kwargs, out) -> int:
    # the matter action applies representation matrices; it conjugates none
    return 0


def _matrices_in_first(args, kwargs, out) -> int:
    return _batch(_arg(args, kwargs, 0, "m"), 2)


def _exp_matrices(args, kwargs, out) -> int:
    return _batch(_arg(args, kwargs, 0, "x").entries, 2)


def _patch_points(args, kwargs, out) -> int:
    return _arg(args, kwargs, 0, "patch").npoints


def _jet_points(args, kwargs, out) -> int:
    return _batch(out.g, 2)


def _curvature_components(args, kwargs, out) -> int:
    return _batch(out.comps, 2)


def _central_diff_bytes(args, kwargs, out) -> int:
    # two shifted reads of the input and one write of the output
    return 3 * _arg(args, kwargs, 0, "arr").nbytes


def _region_points(args, kwargs, out) -> int:
    return _arg(args, kwargs, 1, "region").npoints


def _written_bytes(args, kwargs, out) -> int:
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _read_bytes(args, kwargs, out) -> int:
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _suite_label(args, kwargs) -> str:
    return _arg(args, kwargs, 1, "name")


@dataclass(frozen=True)
class Layer:
    """One per-layer metric group: ``<name>.self_s`` and ``<name>.<count>``.

    ``targets`` maps ``module.function`` (or ``module.Class.method``) to
    the function computing that call's work count.
    """

    name: str
    count: str
    targets: dict[str, Callable]


LAYERS = (
    Layer("lie_core.exp", "matrices", {"lie_core.exp": _exp_matrices}),
    Layer(
        "lie_core.check",
        "matrices",
        {
            "lie_core.assert_unitary": _matrices_in_first,
            "lie_core.assert_antihermitian": _matrices_in_first,
        },
    ),
    Layer(
        "lie_core.rep_matrix",
        "calls",
        {"lie_core.rep_matrix": _one, "lie_core.rep_algebra_matrix": _one},
    ),
    Layer(
        "analytic.sample",
        "points",
        {
            "analytic.sample_gauge": _patch_points,
            "analytic.sample_connection": _patch_points,
            "analytic.sample_matter": _patch_points,
        },
    ),
    Layer(
        "jets.jet_mul",
        "points",
        {
            "jets.jet1_mul": _jet_points,
            "jets.jet2_mul": _jet_points,
            "jets.jet1_inv": _jet_points,
            "jets.jet2_inv": _jet_points,
        },
    ),
    Layer(
        "jets.jet_of",
        "calls",
        {
            "jets.jet1_of": _one,
            "jets.jet2_of": _one,
            "jets.jet_connection_of": _one,
            "jets.jet_matter_of": _one,
        },
    ),
    Layer("jets.curvature", "components", {"jets.curvature": _curvature_components}),
    Layer(
        "actions.act",
        "matrices",
        {
            "actions.act_connection": _conjugated_connection,
            "actions.act_jet_connection": _conjugated_jet_connection,
            "actions.act_jet_matter": _none_conjugated,
            "actions.act_curvature": _conjugated_curvature,
        },
    ),
    Layer(
        "lagrangians.density",
        "calls",
        {
            "lagrangians.gauge_density": _one,
            "lagrangians.covariant_derivative": _one,
            "lagrangians.MinimallyCoupledDensity.__call__": _one,
        },
    ),
    Layer("patch.central_diff", "bytes", {"patch.central_diff": _central_diff_bytes}),
    Layer("patch.integrate", "points", {"patch.integrate": _region_points}),
    Layer("jgf.write", "bytes", {"jgf.write_field": _written_bytes}),
    Layer("jgf.read", "bytes", {"jgf.read_field": _read_bytes}),
)

# harness spans are timed per suite; their self time is the harness's own
HARNESS_TARGETS = ("harness.run_suite",)


def _resolve(target: str):
    """Return (owner, attribute, function) for ``module.name[.method]``, or None."""
    module_name, _, rest = target.partition(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    """Installs span-recording wrappers and aggregates spans per pass."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name_id, start, end, parent, self_s, count, label)
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._layer_of: list[str | None] = []  # layer per name id, None for harness
        self.absent: list[str] = []
        self._origin = time.perf_counter()
        self._pass_start = 0

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fn: Callable, name_id: int, count: Callable | None, label):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:  # record the span even when the call raises
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                n, tag = 0, None
                try:  # a changed signature must not break the run
                    if count is not None:
                        n = count(args, kwargs, out)
                    if label is not None:
                        tag = label(args, kwargs)
                except Exception:
                    pass
                spans[index] = (name_id, start, end, parent, duration - frame[1], n, tag)

        return traced

    def install(self) -> None:
        """Wrap every target at each package global bound to it."""
        targets = [(t, layer.name, c) for layer in LAYERS for t, c in layer.targets.items()]
        targets += [(t, None, None) for t in HARNESS_TARGETS]
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        absent = []
        for target, layer, count in targets:
            found = _resolve(target)
            if found is None:
                absent.append(target)
                continue
            owner, attr, fn = found
            if target not in self.names:
                self.names.append(target)
                self._layer_of.append(layer)
            name_id = self.names.index(target)
            label = _suite_label if layer is None else None
            wrapped = self._wrapper(fn, name_id, count, label)
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, wrapped)
        self.absent = absent

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- per-pass aggregation ----------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)

    def end_pass(self, pass_s: float) -> dict[str, float]:
        """Per-layer self times, counts and per-suite times of the last pass."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer.name}.self_s"] = 0.0
            out[f"{layer.name}.{layer.count}"] = 0
        counts = {layer.name: layer.count for layer in LAYERS}
        suites: dict[str, float] = {}
        for name_id, start, end, _parent, self_s, n, tag in self.spans[self._pass_start :]:
            layer = self._layer_of[name_id]
            if layer is None:
                if tag is not None:
                    suites[tag] = suites.get(tag, 0.0) + (end - start)
                continue
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.{counts[layer]}"] += n
        layered = sum(out[f"{layer.name}.self_s"] for layer in LAYERS)
        out["harness.self_s"] = pass_s - layered
        for suite, seconds in suites.items():
            out[f"harness.suite_s.{suite}"] = seconds
        return out

    def write(self, path: str) -> None:
        """Write every span as [name_id, start, end, parent], times from tracer start."""
        origin = self._origin
        rows = [[s[0], s[1] - origin, s[2] - origin, s[3]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
