"""Spans at the public boundary of each wlab layer, recorded from outside the
package.

``Tracer.installed()`` replaces the public functions the CLI and the layers
call through module attributes (``wlab.solver.spsolve``, ``wlab.geometry
.rotational_profile`` ...) with timing wrappers, and puts the originals back
on exit.  Spans stay in memory as (name, start, end, parent, op, attrs)
records until ``write`` dumps them.  The scalar relation calls ``f(x)`` of a
rotational profile (5 per RK4 step) are not spans: each adds its count
and time to the open span, which keeps the trace small.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

CLI = "cli.main"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "child_s")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op = parent, op
        self.attrs = {}
        self.child_s = 0.0       # time of direct child spans and aggregated calls

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "attrs": self.attrs}


class _TimedFunction:
    """A relation's scalar function whose calls are counted and timed."""

    def __init__(self, fn, tracer: "Tracer"):
        self._fn = fn
        self._tracer = tracer

    def __call__(self, x):
        t0 = time.perf_counter()
        try:
            return self._fn(x)
        finally:
            self._tracer.count_call("relation.f", time.perf_counter() - t0)

    def __getattr__(self, name):
        return getattr(self._fn, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = -1

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def count_call(self, name: str, seconds: float):
        if not self._stack:
            return
        span = self.spans[self._stack[-1]]
        span.attrs[name + "_calls"] = span.attrs.get(name + "_calls", 0) + 1
        span.attrs[name + "_s"] = span.attrs.get(name + "_s", 0.0) + seconds
        span.child_s += seconds

    def wrap(self, fn, name: str, hook=None):
        """`fn` recorded as a span; `hook(tracer, span, args, kwargs, result)`
        adds counters to the span's attrs.  The hook also runs when `fn`
        raises, with result None, so a failed call is still counted."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx)
                if hook is not None:
                    hook(self, self.spans[idx], args, kwargs, result)

        return wrapper

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        from wlab import diagram, geometry, solver
        from wlab.relation import FForm

        def timed_f_function(fn):
            @functools.wraps(fn)
            def wrapper(rel):
                f = fn(rel)
                return None if f is None else _TimedFunction(f, self)
            return wrapper

        def timed_g_to_f(fn):
            inner = self.wrap(fn, "relation.g_to_f")

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return FForm(_TimedFunction(inner(*args, **kwargs).f, self))
            return wrapper

        targets = [
            (solver, "newton_solve", self.wrap(solver.newton_solve, "solver.newton", _newton_hook)),
            (solver, "spsolve", self.wrap(solver.spsolve, "solver.linsolve", _linsolve_hook)),
            (solver, "residual_fields", self.wrap(solver.residual_fields, "jets.residual",
                                                  _residual_hook)),
            (solver, "intrinsic_distances", self.wrap(solver.intrinsic_distances,
                                                      "solver.dijkstra", _dijkstra_hook)),
            (solver, "second_fundamental_norm_field",
             self.wrap(solver.second_fundamental_norm_field, "solver.sigma")),
            (solver, "blowup_select", self.wrap(solver.blowup_select, "solver.blowup")),
            (solver.GraphPatch, "load",
             staticmethod(self.wrap(solver.GraphPatch.load, "solver.patch_load"))),
            (geometry, "f_function", timed_f_function(geometry.f_function)),
            (geometry, "g_to_f", timed_g_to_f(geometry.g_to_f)),
            (geometry, "rotational_profile", self.wrap(geometry.rotational_profile,
                                                       "geometry.profile", _profile_hook)),
            (geometry, "detect_period", self.wrap(geometry.detect_period, "geometry.period")),
            (diagram, "load_obj", self.wrap(diagram.load_obj, "diagram.load_obj")),
            (diagram, "mesh_diagram", self.wrap(diagram.mesh_diagram, "diagram.mesh",
                                                _mesh_hook)),
            (diagram, "qc_classify", self.wrap(diagram.qc_classify, "diagram.qc")),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapped in targets:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), sort_keys=True) + "\n")


# -- counter hooks -------------------------------------------------------------

def _newton_hook(tracer, span, args, kwargs, outcome):
    if outcome is None:
        return
    span.attrs["iterations"] = outcome.iterations
    span.attrs["status"] = outcome.status


def _linsolve_hook(tracer, span, args, kwargs, result):
    span.attrs["nnz"] = int(args[0].nnz)
    span.attrs["unknowns"] = int(args[0].shape[0])


def _residual_hook(tracer, span, args, kwargs, result):
    span.attrs["points"] = int(np.size(args[1]))
    if span.parent is not None:
        key = "gradient_residuals" if kwargs.get("with_gradient", False) else "plain_residuals"
        parent = tracer.spans[span.parent].attrs
        parent[key] = parent.get(key, 0) + 1


def _dijkstra_hook(tracer, span, args, kwargs, dist):
    if dist is None:
        return
    span.attrs["nodes"] = int(np.isfinite(dist).sum())


def _profile_hook(tracer, span, args, kwargs, profile):
    if profile is None:
        return
    span.attrs["rk4_steps"] = len(profile) - 1


def _mesh_hook(tracer, span, args, kwargs, diag):
    if diag is None:
        return
    span.attrs["fitted"] = len(diag)
    span.attrs["skipped"] = int(diag.notes.get("skipped_boundary", 0)
                                + diag.notes.get("skipped_degenerate", 0))


# -- per-op layer metrics --------------------------------------------------------

PER_OP = (
    "solver.newton_s", "solver.linsolve_s", "solver.linsolve_calls", "solver.jacobian_nnz",
    "solver.newton_self_s", "solver.newton_iters", "solver.linesearch_trials",
    "solver.unknowns", "solver.patch_load_s", "solver.dijkstra_s", "solver.dijkstra_calls",
    "solver.dijkstra_nodes", "solver.sigma_s", "solver.blowup_self_s",
    "jets.residual_s", "jets.residual_calls", "jets.residual_points",
    "relation.f_s", "relation.f_calls", "relation.g_to_f_s",
    "geometry.profile_s", "geometry.profile_self_s", "geometry.rk4_steps", "geometry.period_s",
    "diagram.load_obj_s", "diagram.mesh_s", "diagram.qc_s", "diagram.vertices_fitted",
    "diagram.vertices_skipped", "cli.self_s", "cli.artifact_bytes",
)
_DURATION = {"solver.newton": "solver.newton_s", "solver.linsolve": "solver.linsolve_s",
             "solver.patch_load": "solver.patch_load_s", "solver.dijkstra": "solver.dijkstra_s",
             "solver.sigma": "solver.sigma_s", "jets.residual": "jets.residual_s",
             "relation.g_to_f": "relation.g_to_f_s", "geometry.profile": "geometry.profile_s",
             "geometry.period": "geometry.period_s", "diagram.load_obj": "diagram.load_obj_s",
             "diagram.mesh": "diagram.mesh_s", "diagram.qc": "diagram.qc_s"}
_SELF = {"solver.newton": "solver.newton_self_s", "solver.blowup": "solver.blowup_self_s",
         "geometry.profile": "geometry.profile_self_s", CLI: "cli.self_s"}
_CALLS = {"solver.linsolve": "solver.linsolve_calls", "solver.dijkstra": "solver.dijkstra_calls",
          "jets.residual": "jets.residual_calls"}


def op_metrics(spans: list) -> tuple:
    """Layer metrics of one op from its spans; also (accepted steps, trials)
    for the run-level step acceptance ratio."""
    m = dict.fromkeys(PER_OP, 0)
    accepted = trials = 0
    for sp in spans:
        name = sp.name
        if name in _DURATION:
            m[_DURATION[name]] += sp.duration
        if name in _SELF:
            m[_SELF[name]] += sp.self_s
        if name in _CALLS:
            m[_CALLS[name]] += 1
        a = sp.attrs
        m["relation.f_calls"] += a.get("relation.f_calls", 0)
        m["relation.f_s"] += a.get("relation.f_s", 0.0)
        if name == "solver.linsolve":
            m["solver.jacobian_nnz"] = max(m["solver.jacobian_nnz"], a.get("nnz", 0))
            m["solver.unknowns"] = max(m["solver.unknowns"], a.get("unknowns", 0))
        elif name == "jets.residual":
            m["jets.residual_points"] += a.get("points", 0)
        elif name == "solver.dijkstra":
            m["solver.dijkstra_nodes"] += a.get("nodes", 0)
        elif name == "geometry.profile":
            m["geometry.rk4_steps"] += a.get("rk4_steps", 0)
        elif name == "diagram.mesh":
            m["diagram.vertices_fitted"] += a.get("fitted", 0)
            m["diagram.vertices_skipped"] += a.get("skipped", 0)
        elif name == "solver.newton":
            iters = a.get("iterations", 0)
            m["solver.newton_iters"] += iters
            # the first plain residual is the starting point, the rest are
            # line-search trials; a line search that ran out of steps still
            # counts its iteration, a failed linear solve does not
            failed_search = (a.get("status") == "line_search_failure"
                             and iters == a.get("gradient_residuals", 0))
            accepted += iters - int(failed_search)
            trials += a.get("plain_residuals", 0) - 1
    m["solver.linesearch_trials"] = trials
    return m, accepted, trials


def aggregate(per_op: list, accepted: int, trials: int) -> dict:
    """Mean per op of each layer metric, plus the run-level acceptance ratio."""
    out = {}
    for key in PER_OP:
        out[key] = float(np.mean([m[key] for m in per_op])) if per_op else 0.0
    out["solver.step_accept_ratio"] = accepted / trials if trials else 0.0
    return out


def by_op(spans: list) -> dict:
    groups = defaultdict(list)
    for sp in spans:
        groups[sp.op].append(sp)
    return groups
