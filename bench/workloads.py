"""Seeded inputs, ops and correctness gates for the two benchmark workloads.

``cap_solve`` runs ``wlab solve``, where sparse LU and Newton dominate.
``kernel_sweep`` runs ``wlab blowup``, ``wlab revolve`` and ``wlab diagram``,
whose time goes to scalar Python loops (Dijkstra, RK4 steps, per-vertex
quadric fits) and none to Newton.

Every workload builds a *pool* of ops from the seed.  The timed loop runs the
pool in order, whole pools at a time, so every run sees the same mix of op
kinds whatever its length; strata inside the pool keep that mix the same
from seed to seed.  Each op is one ``wlab`` command on generated files, and
each op's gate reads the command's artifacts and compares them with a
closed-form reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Op:
    """One ``wlab.cli.main`` call and the check of its outputs."""

    kind: str
    command: str
    config: Path
    out_dir: Path
    expect_code: int
    params: dict
    gate: Callable[["Op", int], float] = field(repr=False)

    def argv(self) -> list:
        return [self.command, "--config", str(self.config), "--out", str(self.out_dir)]


class GateFailure(Exception):
    """An op's output missed its gate; the message says which check."""


def _require(cond: bool, what: str):
    if not cond:
        raise GateFailure(what)


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, sort_keys=True))
    return path


def _expect_code(op: Op, code: int):
    _require(code == op.expect_code, f"exit code {code}, expected {op.expect_code}")


# ---------------------------------------------------------------------------
# cap_solve: CMC caps over disks, plus over-wide disks that must fail
# ---------------------------------------------------------------------------

# R*H0 range of the caps: every cap in it takes 4 Newton steps, so the cap
# ops of a run cost the same for every seed, and the median and tail of a
# run fall inside one block of like ops.  Each cap draws from its own quarter.
CAP_RANGE = (0.48, 0.62)
CAP_OPS = 4
CAP_RADII = (0.745, 0.755)
# No cap exists for R*H0 > 1.  On the h = R/24 grid the discrete problem
# still converges up to R*H0 = 1.06, so over-wide disks are drawn above that.
WIDE_RANGE = (1.07, 1.10)
CAP_GATE = 0.02


def cap_center(h0: float, radius: float) -> float:
    """Center height of the lower spherical cap of mean curvature h0 that
    vanishes on the circle of the given radius."""
    return math.sqrt(1.0 / h0 ** 2 - radius ** 2) - 1.0 / h0


def _gate_cap(op: Op, code: int) -> float:
    _expect_code(op, code)
    report = _read_json(op.out_dir / "solve_report.json")
    _require(report["outcome"]["status"] == "converged", "cap solve did not converge")
    rows = np.loadtxt(op.out_dir / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
    at = int(np.argmin(rows[:, 0] ** 2 + rows[:, 1] ** 2))
    _require(rows[at, 0] ** 2 + rows[at, 1] ** 2 < 1e-20, "no grid node at the disk center")
    exact = cap_center(op.params["h0"], op.params["radius"])
    err = abs(rows[at, 2] - exact) / abs(exact)
    _require(err <= CAP_GATE, f"center value error {err:.3g} > {CAP_GATE}")
    return err


def _gate_wide(op: Op, code: int) -> float:
    _expect_code(op, code)
    report = _read_json(op.out_dir / "solve_report.json")
    _require(report["outcome"]["status"] != "converged", "over-wide disk reported a solution")
    return 0.0


def cap_solve_pool(rng: np.random.Generator, work: Path, tiny: bool) -> list:
    """The over-wide disk, the cheapest op and the one warmed up, then the caps."""
    radius = float(rng.uniform(0.9, 1.1))
    h0 = float(rng.uniform(*WIDE_RANGE)) / radius
    cfg = {"relation": {"kind": "cmc", "h0": h0},
           "domain": {"type": "disk", "center": [0.0, 0.0], "radius": radius},
           "h": radius / 24.0, "tol_res": 1e-9, "max_iter": 30}
    ops = [Op("wide", "solve", _write_config(work / "wide.json", cfg), work / "out_wide",
              3, {"h0": h0, "radius": radius, "h": radius / 24.0}, _gate_wide)]
    h_cap = 1.0 / (40 if tiny else 128)
    lo, hi = CAP_RANGE
    for k in range(CAP_OPS):
        radius = float(rng.uniform(*CAP_RADII))
        h0 = (lo + (hi - lo) * (k + float(rng.uniform())) / CAP_OPS) / radius
        cfg = {"relation": {"kind": "cmc", "h0": h0},
               "domain": {"type": "disk", "center": [0.0, 0.0], "radius": radius},
               "h": h_cap, "tol_res": 1e-9, "max_iter": 30}
        ops.append(Op("cap", "solve", _write_config(work / f"cap{k}.json", cfg), work / f"out_cap{k}",
                      0, {"h0": h0, "radius": radius, "h": h_cap}, _gate_cap))
    return ops


# ---------------------------------------------------------------------------
# kernel_sweep, part 1: h-maximizer selection on a cap solved once in setup
# ---------------------------------------------------------------------------

BLOWUP_OPS = 8
BLOWUP_RADII = (0.2, 0.5)
BLOWUP_GATE = 0.01


def _gate_blowup(op: Op, code: int) -> float:
    _expect_code(op, code)
    sel = _read_json(op.out_dir / "blowup_report.json")["selection"]
    lam, r_n, h_max = sel["lambda_n"], sel["r_n"], sel["h_max"]
    _require(abs(h_max - lam * r_n) <= 1e-12 * max(1.0, abs(h_max)), "h_max != lambda_n * r_n")
    _require(0.0 < r_n <= op.params["radius"] * (1.0 + 1e-12), "r_n outside (0, radius]")
    exact = math.sqrt(2.0) * op.params["h0"]
    err = abs(lam - exact) / exact
    _require(err <= BLOWUP_GATE, f"lambda_n error {err:.3g} > {BLOWUP_GATE}")
    return err


def blowup_ops(rng: np.random.Generator, work: Path, tiny: bool, main) -> list:
    """Solves the h = 1/64 cap with ``wlab solve`` (so the patch comes from the
    program's own artifacts) and spreads intrinsic disks over it."""
    n = 16 if tiny else 64
    h = 1.0 / n
    h0 = float(rng.uniform(0.4, 0.8))
    solve_cfg = {"relation": {"kind": "cmc", "h0": h0},
                 "domain": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
                 "h": h, "tol_res": 1e-9, "max_iter": 30}
    solved = work / "patch"
    code = main(["solve", "--config", str(_write_config(work / "patch.json", solve_cfg)),
                 "--out", str(solved)])
    if code != 0:
        raise RuntimeError(f"setup solve of the blow-up patch exited {code}")
    load = {"csv": str(solved / "solution.csv"), "header": str(solved / "solution_header.json")}
    ops = []
    lo, hi = BLOWUP_RADII
    for k in range(BLOWUP_OPS):
        radius = lo + (hi - lo) * (k + float(rng.uniform())) / BLOWUP_OPS
        # an intrinsic disk lies inside the planar disk of the same radius;
        # with rounding to a node, that disk stays two nodes clear of the edge
        reach = 1.0 - radius - 3.0 * h
        rho, phi = reach * math.sqrt(float(rng.uniform())), 2.0 * math.pi * float(rng.uniform())
        center = [n + int(round(rho * math.sin(phi) / h)), n + int(round(rho * math.cos(phi) / h))]
        cfg = {"patch": {"load": load}, "center": center, "radius": radius}
        ops.append(Op("blowup", "blowup", _write_config(work / f"blowup{k}.json", cfg),
                      work / f"out_blowup{k}", 0,
                      {"h0": h0, "h": h, "center": center, "radius": radius}, _gate_blowup))
    return ops


# ---------------------------------------------------------------------------
# kernel_sweep, part 2: rotational profiles of CMC and g-form relations
# ---------------------------------------------------------------------------

PROFILE_GATE = 1e-6
UNDULOID_OPS = 3


def _profile_rows(op: Op, code: int) -> np.ndarray:
    _expect_code(op, code)
    report = _read_json(op.out_dir / "revolve_report.json")
    _require(report["termination"] == "s_max", f"profile stopped early: {report['termination']}")
    rows = np.loadtxt(op.out_dir / "profile.csv", delimiter=",", skiprows=1, ndmin=2)
    _require(abs(rows[-1, 0] - op.params["s_max"]) <= 1e-9 * op.params["s_max"],
             "profile does not reach s_max")
    return rows


def _gate_unduloid(op: Op, code: int) -> float:
    rows = _profile_rows(op, code)
    h0 = op.params["h0"]
    period = _read_json(op.out_dir / "revolve_report.json")["period"]
    _require(period is not None, "no period detected")
    err_period = abs(period - math.pi / h0) * h0 / math.pi
    err_sum = float(np.max(np.abs(rows[:, 4] + rows[:, 5] - 2.0 * h0))) / h0
    err = max(err_period, err_sum)
    _require(err <= PROFILE_GATE, f"unduloid error {err:.3g} > {PROFILE_GATE}")
    return err


def _gate_gform(op: Op, code: int) -> float:
    rows = _profile_rows(op, code)
    p = op.params
    H = 0.5 * (rows[:, 4] + rows[:, 5])
    t = (0.5 * (rows[:, 4] - rows[:, 5])) ** 2
    g = p["scale"] * np.sqrt(t + p["offset"]) + p["shift"]
    err = float(np.max(np.abs(H - g)) / np.max(np.abs(H)))
    _require(err <= PROFILE_GATE, f"relation residual {err:.3g} > {PROFILE_GATE}")
    return err


def profile_ops(rng: np.random.Generator, work: Path, tiny: bool) -> list:
    # s_max covers two periods of the slowest unduloid (pi/H0 <= 5.3); shorter
    # ops give a run more samples.  At step 5e-3 detect_period can miss the
    # first return; 2e-3 finds it.
    step, s_max = (2e-3, 6.0) if tiny else (1e-3, 10.0)
    ops = []
    for k in range(UNDULOID_OPS):
        h0 = float(rng.uniform(0.6, 1.5))
        rho = float(rng.uniform(0.15, 0.35))
        cfg = {"relation": {"kind": "cmc", "h0": h0}, "seed_state": [rho / h0, 0.0, math.pi / 2],
               "step": step, "s_max": s_max}
        ops.append(Op("unduloid", "revolve", _write_config(work / f"unduloid{k}.json", cfg),
                      work / f"out_unduloid{k}", 0,
                      {"h0": h0, "r0": rho / h0, "step": step, "s_max": s_max}, _gate_unduloid))
    g = {"scale": float(rng.uniform(0.3, 0.6)), "offset": float(rng.uniform(0.5, 1.5)),
         "shift": float(rng.uniform(-0.2, 0.2))}
    r0 = float(rng.uniform(0.3, 1.0))
    cfg = {"relation": {"kind": "g", "function": {"kind": "closed", "name": "sqrt_offset",
                                                  "params": g, "domain": [0.0, "inf"]}},
           "seed_state": [r0, 0.0, math.pi / 2], "step": step, "s_max": s_max}
    ops.append(Op("gform", "revolve", _write_config(work / "gform.json", cfg), work / "out_gform",
                  0, dict(g, r0=r0, step=step, s_max=s_max), _gate_gform))
    return ops


# ---------------------------------------------------------------------------
# kernel_sweep, part 3: curvature diagrams of inward icospheres
# ---------------------------------------------------------------------------

MESH_GATE = 0.05


def icosphere(subdiv: int) -> tuple:
    """Unit icosphere by midpoint subdivision: (vertices, faces), outward winding."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [(-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
             (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
             (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1)]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    V = [np.asarray(v, dtype=float) / np.linalg.norm(v) for v in verts]
    F = faces
    for _ in range(subdiv):
        mid = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in mid:
                m = V[i] + V[j]
                V.append(m / np.linalg.norm(m))
                mid[key] = len(V) - 1
            return mid[key]

        F2 = []
        for a, b, c in F:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            F2 += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        F = F2
    return np.asarray(V), np.asarray(F, dtype=int)


def write_obj(path: Path, vertices: np.ndarray, faces: np.ndarray):
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    path.write_text("\n".join(lines) + "\n")


def _gate_mesh(op: Op, code: int) -> float:
    _expect_code(op, code)
    report = _read_json(op.out_dir / "diagram_report.json")
    notes = report["notes"]
    _require(notes["skipped_boundary"] == 0 and notes["skipped_degenerate"] == 0,
             f"skipped vertices: {notes}")
    _require(report["sample_count"] == op.params["vertices"], "diagram misses vertices")
    pairs = np.loadtxt(op.out_dir / "diagram.csv", delimiter=",", skiprows=1, ndmin=2)
    _require(pairs.shape[0] == op.params["vertices"], "diagram.csv misses vertices")
    err = float(np.max(np.abs(pairs * op.params["radius"] - 1.0)))
    _require(err <= MESH_GATE, f"principal curvature error {err:.3g} > {MESH_GATE}")
    return err


def mesh_ops(rng: np.random.Generator, work: Path, tiny: bool) -> list:
    """One small and one large sphere."""
    sizes = (3, 3) if tiny else (4, 5)
    meshes = {s: icosphere(s) for s in set(sizes)}
    ops = []
    for k, subdiv in enumerate(sizes):
        radius = float(np.exp(rng.uniform(math.log(0.5), math.log(4.0))))
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        rot = q * np.sign(np.diag(r))
        rot[:, 0] *= np.sign(np.linalg.det(rot))    # a rotation, not a reflection
        shift = rng.uniform(-1.0, 1.0, 3)
        V, F = meshes[subdiv]
        obj = work / f"sphere{k}.obj"
        obj.parent.mkdir(parents=True, exist_ok=True)
        # reversed winding: the inward normal makes both curvatures +1/radius
        write_obj(obj, radius * V @ rot.T + shift, F[:, ::-1])
        cfg = {"mesh": str(obj)}
        ops.append(Op(f"icosphere{subdiv}", "diagram", _write_config(work / f"mesh{k}.json", cfg),
                      work / f"out_mesh{k}", 0,
                      {"subdiv": subdiv, "radius": radius, "vertices": len(V)}, _gate_mesh))
    return ops


def kernel_sweep_pool(rng: np.random.Generator, work: Path, tiny: bool, main) -> list:
    """8 blow-ups (~0.25 s), a small and a large mesh (~0.45 and ~2 s), 3
    unduloids and a g-form profile (~0.8 and ~1.5 s).  The blow-ups are more
    than half of the ops, so the median is a blow-up; the slowest quarter is
    the large mesh, the g-form and the slower unduloids.  Each of the three
    kernels takes a quarter to a half of the run's time."""
    return blowup_ops(rng, work, tiny, main) + mesh_ops(rng, work, tiny) + profile_ops(rng, work, tiny)


def make_pool(name: str, rng: np.random.Generator, work: Path, tiny: bool, main) -> list:
    if name == "cap_solve":
        return cap_solve_pool(rng, work, tiny)
    if name == "kernel_sweep":
        return kernel_sweep_pool(rng, work, tiny, main)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cap_solve", "kernel_sweep")



def warmup_ops(pool: list) -> list:
    """The first op of each command in the pool, which the pools order to be
    that command's cheapest: each set-up runs these once, untimed."""
    first = {}
    for op in pool:
        first.setdefault(op.command, op)
    return list(first.values())
