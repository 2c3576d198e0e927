"""Batch front end.

    wlab <certify|solve|revolve|diagram|parallel|linop|blowup>
         --config <path> [--out <dir>] [--seed <u64>] [--set key=value ...]

Configs are JSON files; repeated --set overrides replace dotted keys, with
values parsed as JSON where possible (bare words fall back to strings).
Every command writes a deterministic summary JSON (sorted keys, seed
recorded, no timestamp; the wall-clock stamp goes to run_stamp.txt) plus
CSV artifacts next to it.

Exit codes: 0 ok, 1 I/O or parse error, 2 certification/validity failure,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagram as diagram_mod
from . import geometry, linop, solver
from .errors import WlabError
from .relation import (DEFAULT_SAMPLES, DEFAULT_T_MAX, RelationSpec, certify_ellipticity,
                       relation_from_json, relation_to_json)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CERTIFICATION = 2
EXIT_SOLVER = 3


@dataclass
class ExperimentConfig:
    """One experiment: the command's parameter record plus run metadata."""

    params: dict
    out_dir: Path
    seed: int

    def __post_init__(self):
        if not isinstance(self.params, dict):
            raise ValueError(f"a config must be a JSON object, got {self.params!r}")
        for key, value in self.params.items():
            if key.startswith("tol") and not (isinstance(value, (int, float)) and value > 0):
                raise ValueError(f"tolerance {key!r} must be positive, got {value!r}")

    def relation(self) -> RelationSpec:
        if "relation" not in self.params:
            raise KeyError("config is missing 'relation'")
        spec = self.params["relation"]
        if isinstance(spec, str):
            with open(spec) as fh:
                spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError(f"relation must be a JSON object or a path to one, got {spec!r}")
        return relation_from_json(spec)

    def write_summary(self, name: str, payload: dict):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        payload = dict(payload)
        payload["seed"] = self.seed
        with open(self.out_dir / name, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        with open(self.out_dir / "run_stamp.txt", "w") as fh:
            fh.write(datetime.datetime.now().isoformat() + "\n")


def _set_override(tree: dict, dotted: str, raw: str):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    node = tree
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ValueError(f"override path {dotted!r} crosses a non-object value")
    node[keys[-1]] = value


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_certify(cfg: ExperimentConfig) -> int:
    rel = cfg.relation()
    report = certify_ellipticity(rel, t_max=float(cfg.params.get("t_max", DEFAULT_T_MAX)),
                                 samples=int(cfg.params.get("samples", DEFAULT_SAMPLES)))
    cfg.write_summary("certify_report.json", {
        "check": "ellipticity_certification",
        "relation": relation_to_json(rel),
        "report": report.to_json(),
    })
    return EXIT_OK if report.is_elliptic else EXIT_CERTIFICATION


def _boundary_data(spec):
    """Constant value, or {"kind": "affine", "coeffs": [a, b, c]} for a + b*x + c*y."""
    if isinstance(spec, dict):
        if spec.get("kind") != "affine":
            raise ValueError(f"unknown boundary kind {spec.get('kind')!r}")
        a, b, c = (float(v) for v in spec["coeffs"])
        return lambda x, y: a + b * x + c * y
    return float(spec)


def _build_patch(cfg: ExperimentConfig) -> solver.GraphPatch:
    dom = cfg.params["domain"]
    h = float(cfg.params["h"])
    bc = _boundary_data(cfg.params.get("boundary", 0.0))
    init = float(cfg.params.get("init", 0.0))
    if dom["type"] == "disk":
        return solver.GraphPatch.disk(tuple(dom.get("center", (0.0, 0.0))),
                                      float(dom["radius"]), h, boundary=bc, init=init)
    if dom["type"] == "rectangle":
        return solver.GraphPatch.rectangle(tuple(dom["bounds"]), h, boundary=bc, init=init)
    raise ValueError(f"unknown domain type {dom.get('type')!r}")


def _solve(cfg: ExperimentConfig):
    """(relation, SolveOutcome) of the Dirichlet problem a solve config describes."""
    rel = cfg.relation()
    outcome = solver.newton_solve(rel, _build_patch(cfg),
                                  tol_res=float(cfg.params.get("tol_res", 1e-8)),
                                  max_iter=int(cfg.params.get("max_iter", 40)))
    return rel, outcome


def _cmd_solve(cfg: ExperimentConfig) -> int:
    rel, outcome = _solve(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    outcome.final_patch.save(cfg.out_dir / "solution.csv", cfg.out_dir / "solution_header.json")
    summary = {
        "check": "dirichlet_solve",
        "relation": relation_to_json(rel),
        "outcome": outcome.to_json(),
        "interior_nodes": int(outcome.final_patch.interior_mask().sum()),
    }
    bench = cfg.params.get("benchmark_center_value")
    if bench is not None and outcome.status == "converged":
        ny, nx = outcome.final_patch.shape
        center = outcome.final_patch.values[ny // 2, nx // 2]
        summary["center_value"] = float(center)
        summary["center_value_error"] = float(abs(center - float(bench)))
    cfg.write_summary("solve_report.json", summary)
    return EXIT_OK if outcome.status == "converged" else EXIT_SOLVER


def _cmd_revolve(cfg: ExperimentConfig) -> int:
    rel = cfg.relation()
    seed_state = tuple(float(v) for v in cfg.params["seed_state"])
    profile = geometry.rotational_profile(rel, seed_state,
                                          step=float(cfg.params.get("step", geometry.DEFAULT_STEP)),
                                          s_max=float(cfg.params.get("s_max", 10.0)))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    solver.write_csv(cfg.out_dir / "profile.csv", "s,r,z,theta,kappa_m,kappa_p",
                     [profile.s, profile.r, profile.z, profile.theta, profile.kappa_m,
                      profile.kappa_p])
    period = geometry.detect_period(profile)
    cfg.write_summary("revolve_report.json", {
        "check": "rotational_profile_generation",
        "relation": relation_to_json(rel),
        "samples": len(profile),
        "termination": profile.reason,
        "period": period,
    })
    return EXIT_OK


def _curvature_pairs(raw) -> np.ndarray:
    """Inline `pairs` as an (N, 2) float array of [k1, k2] rows."""
    ks = np.asarray(raw, dtype=float)
    if ks.ndim != 2 or ks.shape[1] != 2:
        raise ValueError(f"'pairs' must be a list of [k1, k2] rows, got shape {ks.shape}")
    return ks


def _cmd_diagram(cfg: ExperimentConfig) -> int:
    if "mesh" in cfg.params:
        mesh = diagram_mod.load_obj(cfg.params["mesh"])
        diag = diagram_mod.mesh_diagram(mesh)
    elif "pairs_csv" in cfg.params:
        rows = np.loadtxt(cfg.params["pairs_csv"], delimiter=",", skiprows=1, ndmin=2)
        if len(rows) and rows.shape[1] < 2:
            raise ValueError(f"'pairs_csv' needs k1 and k2 columns, got {rows.shape[1]}")
        diag = diagram_mod.CurvatureDiagram(rows[:, :2], "synthetic")
    elif "pairs" in cfg.params:
        diag = diagram_mod.CurvatureDiagram(_curvature_pairs(cfg.params["pairs"]), "synthetic")
    else:
        raise KeyError("diagram config needs 'mesh', 'pairs_csv' or 'pairs'")
    report = diagram_mod.qc_classify(diag)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    solver.write_csv(cfg.out_dir / "diagram.csv", "k1,k2", diag.samples.T)
    cfg.write_summary("diagram_report.json", {
        "check": "quasiconformality_classification",
        "source": diag.source,
        "sample_count": len(diag),
        "notes": diag.notes,
        "qc": report.to_json(),
    })
    return EXIT_OK


def _cmd_parallel(cfg: ExperimentConfig) -> int:
    rel = cfg.relation()
    a = float(cfg.params["a"])
    conj = geometry.conjugate_relation(rel, a)
    payload = {
        "check": "parallel_surface_conjugation",
        "relation": relation_to_json(rel),
        "offset": a,
        "conjugated": relation_to_json(conj),
    }
    pairs = cfg.params.get("pairs")
    if pairs:
        ks = _curvature_pairs(pairs)
        rows = np.column_stack([ks, *geometry.parallel_curvatures(ks, a)])
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        solver.write_csv(cfg.out_dir / "parallel_pairs.csv",
                         "k1,k2,k1_offset,k2_offset,metric_factor_1,metric_factor_2", rows.T)
        payload["pairs_written"] = len(rows)
    cfg.write_summary("parallel_report.json", payload)
    return EXIT_OK


def _cmd_linop(cfg: ExperimentConfig) -> int:
    rel = cfg.relation()
    r0 = float(cfg.params["r0"])
    op = linop.cylinder_operator(rel, r0)
    L = float(cfg.params.get("L", 1.0))
    r = float(cfg.params.get("r", 1.0))
    critical_square = 0.5 * math.pi * math.sqrt((op.A + op.B) / op.C)
    cfg.write_summary("linop_report.json", {
        "check": "cylinder_linearized_operator",
        "relation": relation_to_json(rel),
        "operator": op.to_json(),
        "threshold": linop.perturbation_threshold(op, L, r),
        "box": [L, r],
        "critical_square_half_size": critical_square,
    })
    return EXIT_OK


def _grid_node(value, name: str):
    """`value` if it is a grid node [iy, ix] of two ints (a bool is none);
    ValueError naming `name` otherwise."""
    if not (isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)):
        raise ValueError(f"{name} must be two integer grid indices [iy, ix], got {value!r}")
    return value


def _cmd_blowup(cfg: ExperimentConfig) -> int:
    radius = float(cfg.params["radius"])
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"'radius' must be finite and > 0, got {radius!r}")
    center = cfg.params.get("center")
    if center is not None:
        _grid_node(center, "'center'")
    spec = cfg.params["patch"]
    if "load" in spec:
        patch = solver.GraphPatch.load(spec["load"]["csv"], spec["load"]["header"])
    else:
        _, outcome = _solve(ExperimentConfig(spec["solve"], cfg.out_dir, cfg.seed))
        if outcome.status != "converged":
            return EXIT_SOLVER
        patch = outcome.final_patch
    sigma = None
    synth = cfg.params.get("synthetic_sigma")
    if synth is not None and not isinstance(synth, dict):
        raise ValueError(f"synthetic_sigma must be an object, got {synth!r}")
    if synth:
        sigma = np.where(patch.mask, float(synth.get("base", 1.0)), np.nan)
        for spike in synth.get("spikes", []):
            node = _grid_node(spike["node"], "synthetic_sigma spike 'node'")
            iy, ix = patch.in_domain_node(node, "synthetic_sigma spike")
            sigma[iy, ix] += float(spike["amplitude"])
    if center is None:
        ny, nx = patch.shape
        center = (ny // 2, nx // 2)
    sel = solver.blowup_select(patch, center, radius, sigma_field=sigma)
    cfg.write_summary("blowup_report.json", {
        "check": "blowup_maximizer_selection",
        "selection": sel.to_json(),
        "radius": radius,
        "synthetic_sigma": bool(synth),
    })
    return EXIT_OK


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
        cfg = ExperimentConfig(params, Path(args.out), args.seed)
    except (OSError, TypeError, ValueError, json.JSONDecodeError) as exc:
        print(f"wlab: config error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        return _DISPATCH[args.command](cfg)
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
