"""Batch front end.

    wlab <certify|solve|revolve|diagram|parallel|linop|blowup>
         --config <path> [--out <dir>] [--seed <u64>] [--set key=value ...]

Configs are JSON files; repeated --set overrides replace dotted keys, with
values parsed as JSON where possible (bare words fall back to strings).
A config is checked against its command's keys in `_KEYS`, and their
defaults filled in, before the command runs.
Every command writes one deterministic `<command>_report.json` (sorted
keys, seed recorded, no timestamp; the wall-clock stamp goes to
run_stamp.txt), through `_write_report`, plus CSV artifacts next to it.

Exit codes: 0 ok, 1 I/O or parse error, 2 certification/validity failure,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import diagram as diagram_mod
from . import geometry, grid, linop, solver
from .errors import WlabError
from .relation import (DEFAULT_SAMPLES, DEFAULT_T_MAX, RelationSpec, certify_ellipticity,
                       relation_from_json, relation_to_json)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CERTIFICATION = 2
EXIT_SOLVER = 3


def _set_override(tree: dict, dotted: str, raw: str):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    *path, last = dotted.split(".")
    node = tree
    for k in path:
        node = node.setdefault(k, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ValueError(f"override path {dotted!r} crosses a non-object value")
    node[last] = value


# ---------------------------------------------------------------------------
# Config keys: a check takes a key's quoted name and its JSON value, and
# returns what the command reads or raises ValueError naming the key
# ---------------------------------------------------------------------------


def _child(name: str, key: str) -> str:
    """The quoted name of `key` inside the object quoted as `name`."""
    return f"{name[:-1]}.{key}'"


def _real(value) -> bool:
    """Whether `value` is a JSON number that is a finite double (a bool is none)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _kind(what: str, ok, convert=float):
    """The check that returns `convert(value)` when `ok(value)`, and raises
    "<name> must be <what>" otherwise."""
    def check(name: str, value):
        if not ok(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")
        return convert(value)
    return check


def _integer(lo: int):
    return _kind(f"an integer >= {lo}", lambda v: _real(v) and v == int(v) and v >= lo, int)


def _reals(n: int):
    return _kind(f"a list of {n} finite numbers",
                 lambda v: isinstance(v, list) and len(v) == n and all(map(_real, v)),
                 lambda v: tuple(map(float, v)))


_finite = _kind("a finite number", _real)
_positive = _kind("finite and > 0", lambda v: _real(v) and v > 0)
_path = _kind("a file path", lambda v: isinstance(v, str), str)
_node = _kind("two integer grid indices [iy, ix]",
              lambda v: isinstance(v, list) and len(v) == 2 and all(type(i) is int for i in v),
              tuple)
_pairs = _kind("a list of [k1, k2] rows of finite numbers",
               lambda v: isinstance(v, list) and all(
                   isinstance(row, list) and len(row) == 2 and all(map(_real, row)) for row in v),
               lambda v: np.array(v, dtype=float).reshape(-1, 2))


def _relation(name: str, spec) -> RelationSpec:
    """A relation object or the path of a JSON file holding one."""
    if isinstance(spec, str):
        with open(spec) as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{name} must be a JSON object or a path to one, got {spec!r}")
    return relation_from_json(spec)


def _boundary(name: str, spec):
    """A constant, or {"kind": "affine", "coeffs": [a, b, c]} for a + b*x + c*y."""
    if not isinstance(spec, dict):
        return _finite(name, spec)
    if spec.get("kind") != "affine":
        raise ValueError(f"{name} must be a number or an affine object, got {spec!r}")
    a, b, c = _reals(3)(_child(name, "coeffs"), spec.get("coeffs"))
    return lambda x, y: a + b * x + c * y


def _domain(name: str, dom):
    """The patch constructor of a disk or rectangle, taking (h, boundary=, init=)."""
    kind = dom.get("type") if isinstance(dom, dict) else None
    if kind == "disk":
        return functools.partial(grid.GraphPatch.disk,
                                 _reals(2)(_child(name, "center"), dom.get("center", [0.0, 0.0])),
                                 _positive(_child(name, "radius"), dom.get("radius")))
    if kind == "rectangle":
        return functools.partial(grid.GraphPatch.rectangle,
                                 _reals(4)(_child(name, "bounds"), dom.get("bounds")))
    raise ValueError(f"{name} must be a disk or rectangle object, got {dom!r}")


def _patch(name: str, spec) -> dict:
    """{"load": [csv, header]}, or {"solve": the resolved keys of solve}."""
    if isinstance(spec, dict) and "load" in spec:
        load = spec["load"] if isinstance(spec["load"], dict) else {}
        return {"load": [_path(_child(name, f"load.{k}"), load.get(k)) for k in ("csv", "header")]}
    if isinstance(spec, dict) and "solve" in spec:
        return {"solve": _resolve("solve", spec["solve"], _child(name, "solve"))}
    raise ValueError(f"{name} must be an object holding 'load' or 'solve', got {spec!r}")


def _sigma(name: str, spec):
    """None for an empty object, else {"base": float, "spikes": [(node, amplitude)]}."""
    if not isinstance(spec, dict):
        raise ValueError(f"{name} must be an object, got {spec!r}")
    spikes = spec.get("spikes", [])
    if not (isinstance(spikes, list) and all(isinstance(s, dict) for s in spikes)):
        raise ValueError(f"{_child(name, 'spikes')} must be a list of objects, got {spikes!r}")
    return {"base": _finite(_child(name, "base"), spec.get("base", 1.0)),
            "spikes": [(_node("synthetic_sigma spike 'node'", s.get("node")),
                        _finite("synthetic_sigma spike 'amplitude'", s.get("amplitude")))
                       for s in spikes]} if spec else None


# command -> key -> (check, default); a default of ... makes the key required,
# and one of None makes it optional
_KEYS = {
    "certify": {"relation": (_relation, ...), "t_max": (_positive, DEFAULT_T_MAX),
                "samples": (_integer(2), DEFAULT_SAMPLES)},
    "solve": {"relation": (_relation, ...), "domain": (_domain, ...), "h": (_positive, ...),
              "boundary": (_boundary, 0.0), "init": (_finite, 0.0),
              "tol_res": (_positive, solver.DEFAULT_TOL_RES),
              "max_iter": (_integer(1), solver.DEFAULT_MAX_ITER),
              "benchmark_center_value": (_finite, None)},
    "revolve": {"relation": (_relation, ...), "seed_state": (_reals(3), ...),
                "step": (_positive, geometry.DEFAULT_STEP),
                "s_max": (_positive, geometry.DEFAULT_S_MAX)},
    "diagram": {"mesh": (_path, None), "pairs_csv": (_path, None), "pairs": (_pairs, None)},
    "parallel": {"relation": (_relation, ...), "a": (_finite, ...), "pairs": (_pairs, None)},
    "linop": {"relation": (_relation, ...), "r0": (_positive, ...), "L": (_positive, 1.0),
              "r": (_positive, 1.0)},
    "blowup": {"patch": (_patch, ...), "radius": (_positive, ...), "center": (_node, None),
               "synthetic_sigma": (_sigma, None)},
}


def _resolve(command: str, params, name: str = "") -> dict:
    """`params` checked against the command's keys, defaults filled in;
    ValueError naming the first key that is missing or bad.  Keys the
    table does not list are ignored.  `name` quotes a nested config."""
    if not isinstance(params, dict):
        raise ValueError(f"{name or 'a config'} must be a JSON object, got {params!r}")
    resolved = {}
    for key, (check, default) in _KEYS[command].items():
        key_name = _child(name, key) if name else repr(key)
        value = params.get(key, default)
        if value is ...:
            raise ValueError(f"{key_name} is missing")
        resolved[key] = None if value is None and default is None else check(key_name, value)
    return resolved


# ---------------------------------------------------------------------------
# Commands: each reads its resolved keys `p`, writes its CSVs and patch to
# `out`, and returns its exit code and its report's fields (None for no report)
# ---------------------------------------------------------------------------

def _cmd_certify(p: dict, out: Path) -> tuple:
    report = certify_ellipticity(p["relation"], t_max=p["t_max"], samples=p["samples"])
    return (EXIT_OK if report.is_elliptic else EXIT_CERTIFICATION), {
        "check": "ellipticity_certification",
        "report": report.to_json(),
    }


def _solve(p: dict) -> solver.SolveOutcome:
    """The outcome of the Dirichlet problem resolved solve keys describe."""
    patch = p["domain"](p["h"], boundary=p["boundary"], init=p["init"])
    return solver.newton_solve(p["relation"], patch, tol_res=p["tol_res"], max_iter=p["max_iter"])


def _cmd_solve(p: dict, out: Path) -> tuple:
    outcome = _solve(p)
    out.mkdir(parents=True, exist_ok=True)
    outcome.final_patch.save(out / "solution.csv", out / "solution_header.json")
    fields = {
        "check": "dirichlet_solve",
        "outcome": outcome.to_json(),
        "interior_nodes": int(outcome.final_patch.interior_mask().sum()),
    }
    if p["benchmark_center_value"] is not None and outcome.status == "converged":
        center = outcome.final_patch.values[tuple(n // 2 for n in outcome.final_patch.shape)]
        fields["center_value"] = float(center)
        fields["center_value_error"] = float(abs(center - p["benchmark_center_value"]))
    return (EXIT_OK if outcome.status == "converged" else EXIT_SOLVER), fields


def _cmd_revolve(p: dict, out: Path) -> tuple:
    profile = geometry.rotational_profile(p["relation"], p["seed_state"], step=p["step"],
                                          s_max=p["s_max"])
    out.mkdir(parents=True, exist_ok=True)
    grid.write_csv(out / "profile.csv", "s,r,z,theta,kappa_m,kappa_p",
                   [profile.s, profile.r, profile.z, profile.theta, profile.kappa_m,
                    profile.kappa_p])
    return EXIT_OK, {
        "check": "rotational_profile_generation",
        "samples": len(profile),
        "termination": profile.reason,
        "period": geometry.detect_period(profile),
    }


def _cmd_diagram(p: dict, out: Path) -> tuple:
    if p["mesh"] is not None:
        diag = diagram_mod.mesh_diagram(diagram_mod.load_obj(p["mesh"]))
    elif p["pairs_csv"] is not None:
        rows = np.loadtxt(p["pairs_csv"], delimiter=",", skiprows=1, ndmin=2)
        if len(rows) and rows.shape[1] < 2:
            raise ValueError(f"'pairs_csv' needs k1 and k2 columns, got {rows.shape[1]}")
        diag = diagram_mod.CurvatureDiagram(rows[:, :2], "synthetic")
    elif p["pairs"] is not None:
        diag = diagram_mod.CurvatureDiagram(p["pairs"], "synthetic")
    else:
        raise ValueError("diagram config needs 'mesh', 'pairs_csv' or 'pairs'")
    report = diagram_mod.qc_classify(diag)
    out.mkdir(parents=True, exist_ok=True)
    grid.write_csv(out / "diagram.csv", "k1,k2", diag.samples.T)
    return EXIT_OK, {
        "check": "quasiconformality_classification",
        "source": diag.source,
        "sample_count": len(diag),
        "notes": diag.notes,
        "qc": report.to_json(),
    }


def _cmd_parallel(p: dict, out: Path) -> tuple:
    fields = {
        "check": "parallel_surface_conjugation",
        "offset": p["a"],
        "conjugated": relation_to_json(geometry.conjugate_relation(p["relation"], p["a"])),
    }
    if p["pairs"] is not None and len(p["pairs"]):
        rows = np.column_stack([p["pairs"], *geometry.parallel_curvatures(p["pairs"], p["a"])])
        out.mkdir(parents=True, exist_ok=True)
        grid.write_csv(out / "parallel_pairs.csv",
                       "k1,k2,k1_offset,k2_offset,metric_factor_1,metric_factor_2", rows.T)
        fields["pairs_written"] = len(rows)
    return EXIT_OK, fields


def _cmd_linop(p: dict, out: Path) -> tuple:
    op = linop.cylinder_operator(p["relation"], p["r0"])
    return EXIT_OK, {
        "check": "cylinder_linearized_operator",
        "operator": op.to_json(),
        "threshold": linop.perturbation_threshold(op, p["L"], p["r"]),
        "box": [p["L"], p["r"]],
        "critical_square_half_size": 0.5 * math.pi * math.sqrt((op.A + op.B) / op.C),
    }


def _cmd_blowup(p: dict, out: Path) -> tuple:
    spec = p["patch"]
    if "load" in spec:
        patch = grid.GraphPatch.load(*spec["load"])
    else:
        outcome = _solve(spec["solve"])
        if outcome.status != "converged":
            return EXIT_SOLVER, None
        patch = outcome.final_patch
    sigma, synth = None, p["synthetic_sigma"]
    if synth is not None:
        sigma = np.where(patch.mask, synth["base"], np.nan)
        for node, amplitude in synth["spikes"]:
            iy, ix = patch.in_domain_node(node, "synthetic_sigma spike")
            sigma[iy, ix] += amplitude
    center = p["center"] or tuple(n // 2 for n in patch.shape)
    sel = solver.blowup_select(patch, center, p["radius"], sigma_field=sigma)
    return EXIT_OK, {
        "check": "blowup_maximizer_selection",
        "selection": sel.to_json(),
        "radius": p["radius"],
        "synthetic_sigma": synth is not None,
    }


def _write_report(out: Path, command: str, p: dict, fields: dict, seed: int):
    """`<command>_report.json` in `out`: the command's fields, the relation
    it read (when its keys hold one at the top level) and the seed; then
    run_stamp.txt, which alone holds the wall clock."""
    if "relation" in p:
        fields = {**fields, "relation": relation_to_json(p["relation"])}
    # a non-finite number raises ValueError here, before any file opens
    text = json.dumps({**fields, "seed": seed}, sort_keys=True, indent=2, allow_nan=False)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{command}_report.json").write_text(text + "\n")
    (out / "run_stamp.txt").write_text(datetime.datetime.now().isoformat() + "\n")


_DISPATCH = {
    "certify": _cmd_certify,
    "solve": _cmd_solve,
    "revolve": _cmd_revolve,
    "diagram": _cmd_diagram,
    "parallel": _cmd_parallel,
    "linop": _cmd_linop,
    "blowup": _cmd_blowup,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlab",
        description="Numerical laboratory for elliptic Weingarten surfaces")
    parser.add_argument("command", choices=tuple(_DISPATCH))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the summary (no command samples randomly)")
    # argparse copies the default list before it appends, so no call's
    # overrides reach the next
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config entry (dotted key)")
    parser.error = lambda message: parser.exit(EXIT_IO, f"wlab: error: {message}\n")
    return parser


# built once per process: every `main` call parses with it
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:      # --help: 0; a usage error: 1, not argparse's 2
        return exc.code

    try:
        with open(args.config) as fh:
            params = json.load(fh)
        for item in args.overrides:
            key, _, raw = item.partition("=")
            if not _:
                raise ValueError(f"override {item!r} is not KEY=VALUE")
            _set_override(params, key, raw)
    except (OSError, ValueError) as exc:
        print(f"wlab: config error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        p, out = _resolve(args.command, params), Path(args.out)
        code, fields = _DISPATCH[args.command](p, out)
        if fields is not None:
            _write_report(out, args.command, p, fields, args.seed)
        return code
    except (KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"wlab: input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except WlabError as exc:
        print(f"wlab: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (TypeError, ValueError) as exc:
        print(f"wlab: invalid parameter: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
