"""Batch front-end tests: exit codes, artifacts, determinism, overrides."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlab
from conftest import make_flat_mesh, make_icosphere, report_json, write_obj
from wlab import diagram, geometry
from wlab.cli import EXIT_IO, _KEYS, _resolve, _solve, main
from wlab.grid import GraphPatch
from wlab.relation import (DEFAULT_T_MAX, ClosedForm, FForm, GForm, LinearWeingarten,
                           certify_ellipticity, f_function, f_to_g, g_to_f, relation_from_json,
                           relation_to_json)
from wlab.solver import newton_solve


README = Path(__file__).resolve().parent.parent / "README.md"


def run(tmp_path, command, config, out="out", extra=()):
    cfg = tmp_path / f"{command}_config.json"
    cfg.write_text(json.dumps(config))
    outdir = tmp_path / out
    return main([command, "--config", str(cfg), "--out", str(outdir), *extra]), outdir


def assert_exact_csv(path, columns):
    """The CSV reloads to `columns` bit for bit, and each field is the
    shortest decimal of its double."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    expected = np.column_stack(columns)
    assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()
    fields = ",".join(path.read_text().splitlines()[1:]).split(",")
    assert all(v == repr(float(v)) for v in fields)


CMC_REL = {"kind": "cmc", "h0": 1.0}


def cmc_as_g(h0):
    """CMC(h0) written as the g-form H = h0."""
    return {"kind": "g", "function": {"kind": "closed", "name": "constant",
                                      "params": {"value": h0}, "domain": [0.0, "inf"]}}


SOLVE_CFG = {
    "relation": {"kind": "cmc", "h0": 0.5},
    "domain": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
    "h": 1.0 / 24.0,
    "tol_res": 1e-9,
    "max_iter": 30,
    "benchmark_center_value": math.sqrt(3.0) - 2.0,
}

# blow-up inputs that exit 1 before any solve, and the key each one names
BAD_BLOWUP_INPUTS = {
    "zero_blowup_radius": {"radius": 0},
    "infinite_blowup_radius": {"radius": math.inf},
    "nan_blowup_radius": {"radius": math.nan},
    "fractional_center": {"center": [4.5, 4]},
    "boolean_center": {"center": [True, 4]},
    "three_index_center": {"center": [4, 4, 4]},
}
# spike nodes that are not two integers; int() would take each as node (4, 4) or (1, 4)
BAD_SPIKE_NODES = {"fractional_spike_node": [4.7, 4.2], "boolean_spike_node": [True, 4]}
LINOP_CFG = {"relation": {"kind": "cmc", "h0": 0.5}, "r0": 1.0, "L": 3.0, "r": 3.0}
# linop inputs that exit 1, and the key each one names
BAD_LINOP_INPUTS = {
    "nan_cylinder_radius": {"r0": math.nan},
    "infinite_cylinder_radius": {"r0": math.inf},
    "nan_box_length": {"L": math.nan},
    "infinite_box_length": {"L": math.inf},
    "nan_box_width": {"r": math.nan},
}


class TestCertify:
    def test_cmc_exit_zero_and_report(self, tmp_path):
        code, outdir = run(tmp_path, "certify", {"relation": CMC_REL})
        assert code == 0
        report = json.loads((outdir / "certify_report.json").read_text())
        assert report["report"]["uniform_constant_Lambda"] == 0.0
        assert report["seed"] == 0

    def test_linear_weingarten_elliptic_but_not_uniform(self, tmp_path):
        code, outdir = run(tmp_path, "certify",
                           {"relation": {"kind": "linear", "alpha": 0.0, "beta": 1.0,
                                         "delta": 1.0}})
        assert code == 0
        report = json.loads((outdir / "certify_report.json").read_text())
        assert report["report"]["is_elliptic"]
        assert report["report"]["uniform_constant_Lambda"] is None

    def test_f_form_grid_counts_the_points_it_evaluates(self, tmp_path):
        cfg = {"relation": relation_to_json(g_to_f(CI_G_FORM))}
        n = []
        for out, extra in (("default", ()), ("fewer", ("--set", "samples=500"))):
            code, outdir = run(tmp_path, "certify", cfg, out=out, extra=extra)
            assert code == 0
            report = json.loads((outdir / "certify_report.json").read_text())
            n.append(report["report"]["grid"]["n"])
        assert n == [4000, 500]

    def test_malformed_config_exit_one(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"relation": {"kind": "cmc" "h0": 1}}')
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_non_elliptic_exit_two(self, tmp_path):
        rel = {"kind": "g", "function": {"kind": "closed", "name": "sqrt_offset",
                                         "params": {"scale": 2.0, "offset": 0.0, "shift": 0.0},
                                         "domain": [0.0, "inf"]}}
        code, _ = run(tmp_path, "certify", {"relation": rel})
        assert code == 2

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "nope.json")]) == 1


class TestSolve:
    def test_cap_benchmark(self, tmp_path):
        code, outdir = run(tmp_path, "solve", SOLVE_CFG)
        assert code == 0
        report = json.loads((outdir / "solve_report.json").read_text())
        assert report["outcome"]["status"] == "converged"
        assert abs(report["center_value"] - (math.sqrt(3.0) - 2.0)) < 5e-3
        assert (outdir / "solution_header.json").exists()
        patch = _solve(_resolve("solve", SOLVE_CFG)).final_patch
        X, Y = patch.xy()
        assert_exact_csv(outdir / "solution.csv",
                         [X[patch.mask], Y[patch.mask], patch.values[patch.mask]])

    def test_minimal_affine_quick(self, tmp_path):
        cfg = {"relation": {"kind": "cmc", "h0": 0.0},
               "domain": {"type": "rectangle", "bounds": [0.0, 1.0, 0.0, 1.0]},
               "h": 0.125,
               "boundary": {"kind": "affine", "coeffs": [0.015, 0.025, -0.01]},
               "tol_res": 1e-10}
        code, outdir = run(tmp_path, "solve", cfg)
        assert code == 0
        report = json.loads((outdir / "solve_report.json").read_text())
        assert report["outcome"]["iterations"] <= 3

    def test_overwide_disk_exit_three(self, tmp_path):
        code, _ = run(tmp_path, "solve", SOLVE_CFG,
                      extra=("--set", "domain.radius=2.2", "--set", "h=0.0625",
                             "--set", "max_iter=20"))
        assert code == 3

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        _, out1 = run(tmp_path, "solve", SOLVE_CFG, out="o1")
        _, out2 = run(tmp_path, "solve", SOLVE_CFG, out="o2")
        for name in ("solve_report.json", "solution.csv", "solution_header.json", "solution.bin"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestRevolve:
    def test_unduloid_period(self, tmp_path):
        cfg = {"relation": {"kind": "cmc", "h0": 0.5},
               "seed_state": [0.5, 0.0, math.pi / 2], "step": 1e-3, "s_max": 15.0}
        code, outdir = run(tmp_path, "revolve", cfg)
        assert code == 0
        report = json.loads((outdir / "revolve_report.json").read_text())
        assert report["period"] == pytest.approx(2.0 * math.pi, rel=1e-6)
        rows = np.loadtxt(outdir / "profile.csv", delimiter=",", skiprows=1)
        assert rows.shape[1] == 6
        assert np.max(np.abs(rows[:, 4] + rows[:, 5] - 1.0)) < 1e-8
        p = geometry.rotational_profile(relation_from_json(cfg["relation"]),
                                        tuple(cfg["seed_state"]), cfg["step"], cfg["s_max"])
        assert_exact_csv(outdir / "profile.csv", [p.s, p.r, p.z, p.theta, p.kappa_m, p.kappa_p])

    def test_linear_g_form_profile_is_the_cmc_profile(self, tmp_path):
        profiles = []
        for out, rel in (("cmc", UNDULOID["relation"]), ("g", cmc_as_g(0.5))):
            code, outdir = run(tmp_path, "revolve", dict(UNDULOID, relation=rel), out=out)
            assert code == 0
            profiles.append((outdir / "profile.csv").read_bytes())
        assert profiles[0] == profiles[1]


# the CI's g-form profile relation, sampled: g_to_f gives its Hermite f, and
# f_to_g the Hermite g of that f; the README writes both as "hermite" objects
CI_G_FORM = GForm(ClosedForm("sqrt_offset", {"scale": 0.45, "offset": 0.8, "shift": 0.05}))


@pytest.fixture(scope="module", params=["hermite_f", "hermite_g_of_it"])
def sampled_relation(request):
    f_form = g_to_f(CI_G_FORM)
    return f_form if request.param == "hermite_f" else f_to_g(f_form)


def read_report(outdir, name, rel) -> dict:
    report = json.loads((outdir / name).read_text())
    assert report["relation"] == relation_to_json(rel)
    return report


class TestSampledRelations:
    """A sampled Hermite relation runs through certify, solve and revolve
    as it does in-process."""

    def test_certify(self, tmp_path, sampled_relation):
        rel = sampled_relation
        code, outdir = run(tmp_path, "certify", {"relation": relation_to_json(rel)})
        assert code == 0
        report = read_report(outdir, "certify_report.json", rel)
        assert report["report"] == report_json(certify_ellipticity(rel))

    def test_solve(self, tmp_path, sampled_relation):
        rel = sampled_relation
        domain = {"type": "disk", "center": [0.0, 0.0], "radius": 0.5}
        code, outdir = run(tmp_path, "solve", {"relation": relation_to_json(rel),
                                               "domain": domain, "h": 1.0 / 32.0})
        assert code == 0
        out = newton_solve(rel, GraphPatch.disk((0.0, 0.0), 0.5, 1.0 / 32.0))
        assert read_report(outdir, "solve_report.json", rel)["outcome"] == report_json({
            "status": out.status, "iterations": out.iterations, "history": out.history,
            "residual_sup": out.residual_sup})
        patch = out.final_patch
        X, Y = patch.xy()
        assert_exact_csv(outdir / "solution.csv",
                         [X[patch.mask], Y[patch.mask], patch.values[patch.mask]])

    def test_revolve(self, tmp_path, sampled_relation):
        rel = sampled_relation
        code, outdir = run(tmp_path, "revolve", {"relation": relation_to_json(rel),
                                                 "seed_state": [0.6, 0.0, math.pi / 2],
                                                 "s_max": 2.0})
        assert code == 0
        p = geometry.rotational_profile(rel, (0.6, 0.0, math.pi / 2), s_max=2.0)
        report = read_report(outdir, "revolve_report.json", rel)
        assert (report["samples"], report["termination"], report["period"]) == (
            len(p), p.reason, geometry.detect_period(p))
        assert_exact_csv(outdir / "profile.csv", [p.s, p.r, p.z, p.theta, p.kappa_m, p.kappa_p])


class TestDiagram:
    def test_icosphere_positive_branch(self, tmp_path):
        obj = tmp_path / "ico.obj"
        write_obj(make_icosphere(2.0, 3), obj)
        code, outdir = run(tmp_path, "diagram", {"mesh": str(obj)})
        assert code == 0
        report = json.loads((outdir / "diagram_report.json").read_text())
        assert report["qc"]["classification"] == "positive_branch"
        rows = np.loadtxt(outdir / "diagram.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(rows - 0.5)) < 0.1
        diag = diagram.mesh_diagram(diagram.load_obj(obj))
        assert_exact_csv(outdir / "diagram.csv", [diag.samples])

    def test_inline_pairs(self, tmp_path):
        code, outdir = run(tmp_path, "diagram", {"pairs": [[2.0, -1.0], [1.0, -0.5]]})
        assert code == 0
        report = json.loads((outdir / "diagram_report.json").read_text())
        assert report["qc"]["classification"] == "negative_branch"

    def test_pairs_csv_same_as_inline_pairs(self, tmp_path):
        pairs = [[2.0, -1.0], [1.0, -0.5]]
        csv = tmp_path / "pairs.csv"
        csv.write_text("k1,k2\n" + "".join(f"{k1!r},{k2!r}\n" for k1, k2 in pairs))
        code, inline = run(tmp_path, "diagram", {"pairs": pairs}, out="inline")
        assert code == 0
        code, from_csv = run(tmp_path, "diagram", {"pairs_csv": str(csv)}, out="from_csv")
        assert code == 0
        for name in ("diagram_report.json", "diagram.csv"):
            assert (from_csv / name).read_bytes() == (inline / name).read_bytes()

    def test_missing_mesh_exit_one(self, tmp_path):
        code, _ = run(tmp_path, "diagram", {"mesh": str(tmp_path / "ghost.obj")})
        assert code == 1


class TestParallel:
    def test_cmc_conjugation(self, tmp_path):
        cfg = {"relation": CMC_REL, "a": 1.0, "pairs": [[2.0, 0.0], [0.3, -1.7]]}
        code, outdir = run(tmp_path, "parallel", cfg)
        assert code == 0
        report = json.loads((outdir / "parallel_report.json").read_text())
        assert report["conjugated"]["kind"] == "cmc"
        assert report["conjugated"]["h0"] == pytest.approx(-1.0)
        rows = np.loadtxt(outdir / "parallel_pairs.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows[0, 2] == pytest.approx(0.0) and rows[0, 3] == pytest.approx(-2.0)
        pairs = np.array(cfg["pairs"])
        assert_exact_csv(outdir / "parallel_pairs.csv",
                         [pairs, *geometry.parallel_curvatures(pairs, cfg["a"])])

    def test_linear_g_form_conjugates_as_cmc(self, tmp_path):
        conjugated = []
        for out, rel in (("cmc", CMC_REL), ("g", cmc_as_g(1.0))):
            code, outdir = run(tmp_path, "parallel", {"relation": rel, "a": 0.3}, out=out)
            assert code == 0
            report = json.loads((outdir / "parallel_report.json").read_text())
            conjugated.append(report["conjugated"])
        assert conjugated[0] == conjugated[1]
        assert conjugated[1]["kind"] == "linear"

    def test_pole_exit_two(self, tmp_path):
        cfg = {"relation": CMC_REL, "a": 0.5, "pairs": [[2.0, 0.0]]}
        code, _ = run(tmp_path, "parallel", cfg)
        assert code == 2

    @pytest.mark.parametrize("a", [0.001, -0.001])
    @pytest.mark.parametrize("form", ["g", "hermite_f"])
    def test_sampled_conjugate_maps_f(self, tmp_path, form, a):
        """The CI's g-form and its Hermite f conjugate to a Hermite f-form
        through the images of f's breakpoints, and between them the
        conjugate is F_a o f o F_a^-1: conj(F_a(x)) = F_a(f(x))."""
        f = g_to_f(CI_G_FORM).f
        rel = CI_G_FORM if form == "g" else FForm(f)
        code, outdir = run(tmp_path, "parallel", {"relation": relation_to_json(rel), "a": a})
        assert code == 0
        conjugated = json.loads((outdir / "parallel_report.json").read_text())["conjugated"]
        assert conjugated["kind"] == "f" and conjugated["function"]["kind"] == "hermite"
        assert len(conjugated["function"]["x"]) == f.breakpoints.size
        conj = relation_from_json(conjugated).f
        x = 0.5 * (f.breakpoints[1:] + f.breakpoints[:-1])
        expected = geometry.f_a(f(x), a)
        assert np.max(np.abs(conj(geometry.f_a(x, a)) - expected) / np.abs(expected)) <= 1e-9

    @pytest.mark.parametrize("form", ["g", "hermite_f"])
    def test_zero_offset_keeps_the_relation(self, tmp_path, form):
        rel = CI_G_FORM if form == "g" else g_to_f(CI_G_FORM)
        code, outdir = run(tmp_path, "parallel", {"relation": relation_to_json(rel), "a": 0.0})
        assert code == 0
        report = json.loads((outdir / "parallel_report.json").read_text())
        assert report["conjugated"] == report["relation"] == relation_to_json(rel)


class TestLinop:
    def test_cmc_cylinder(self, tmp_path):
        code, outdir = run(tmp_path, "linop", LINOP_CFG)
        assert code == 0
        report = json.loads((outdir / "linop_report.json").read_text())
        assert report["operator"]["A"] == 0.5
        assert report["critical_square_half_size"] == pytest.approx(
            0.5 * math.pi * math.sqrt(2.0), abs=1e-12)
        assert report["threshold"] > 0

    def test_mismatched_cylinder_exit_two(self, tmp_path):
        cfg = {"relation": {"kind": "linear", "alpha": 0.0, "beta": 1.0, "delta": 1.0},
               "r0": 1.0}
        code, _ = run(tmp_path, "linop", cfg)
        assert code == 2

    @pytest.mark.parametrize("case", sorted(BAD_LINOP_INPUTS))
    def test_non_finite_radius_or_box_names_the_key(self, tmp_path, capsys, case):
        extra = BAD_LINOP_INPUTS[case]
        code, _ = run(tmp_path, "linop", dict(LINOP_CFG, **extra))
        assert code == 1
        err = capsys.readouterr().err
        key, = extra
        assert err.startswith("wlab: invalid parameter: ")
        assert f"'{key}' must be finite and > 0" in err and err.count("\n") == 1


class TestBlowup:
    def test_synthetic_spike(self, tmp_path):
        cfg = {
            "patch": {"solve": {
                "relation": {"kind": "cmc", "h0": 0.5},
                "domain": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
                "h": 1.0 / 16.0, "tol_res": 1e-9, "max_iter": 30,
            }},
            "radius": 0.7,
            "synthetic_sigma": {"base": 1.0,
                                "spikes": [{"node": [19, 14], "amplitude": 3.0}]},
        }
        code, outdir = run(tmp_path, "blowup", cfg)
        assert code == 0
        report = json.loads((outdir / "blowup_report.json").read_text())
        sel = report["selection"]
        assert sel["q_n"] == [19, 14]
        assert sel["h_max"] == pytest.approx(sel["lambda_n"] * sel["r_n"])

    def test_constant_sigma_picks_center(self, tmp_path):
        cfg = {
            "patch": {"solve": {
                "relation": {"kind": "cmc", "h0": 0.5},
                "domain": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
                "h": 1.0 / 16.0, "tol_res": 1e-9, "max_iter": 30,
            }},
            "radius": 0.6,
        }
        code, outdir = run(tmp_path, "blowup", cfg)
        assert code == 0
        report = json.loads((outdir / "blowup_report.json").read_text())
        assert report["selection"]["q_n"] == [16, 16]

    def test_load_path_matches_solve_path(self, tmp_path):
        solve_cfg = dict(SOLVE_CFG, h=1.0 / 16.0)
        _, solved = run(tmp_path, "solve", solve_cfg, out="solved")
        cfg = {
            "patch": {"load": {"csv": str(solved / "solution.csv"),
                               "header": str(solved / "solution_header.json")}},
            "radius": 0.6,
        }
        code, outdir = run(tmp_path, "blowup", cfg, out="from_load")
        assert code == 0
        report = json.loads((outdir / "blowup_report.json").read_text())
        assert report["selection"]["q_n"] == [16, 16]

    @pytest.mark.parametrize("node", [[999, 0], [-1, 4], [0, 0]])
    def test_spike_off_the_domain_exit_one(self, tmp_path, capsys, node):
        """Off the 9 x 9 grid, wrapping to its last row, or outside the disk."""
        cfg = {"patch": {"solve": dict(SOLVE_CFG, h=0.25)}, "radius": 0.5,
               "synthetic_sigma": {"spikes": [{"node": node, "amplitude": 3.0}]}}
        code, outdir = run(tmp_path, "blowup", cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"wlab: invalid parameter: synthetic_sigma spike ({node[0]}, {node[1]}) " \
                      "is not an in-domain node\n"
        assert not (outdir / "blowup_report.json").exists()

    @pytest.mark.parametrize("case", sorted(BAD_SPIKE_NODES))
    def test_non_integer_spike_node_names_the_key(self, tmp_path, capsys, case):
        node = BAD_SPIKE_NODES[case]
        cfg = dict(TINY_BLOWUP, synthetic_sigma={"spikes": [{"node": node, "amplitude": 3.0}]})
        code, outdir = run(tmp_path, "blowup", cfg)
        assert code == 1
        assert capsys.readouterr().err == (
            "wlab: invalid parameter: synthetic_sigma spike 'node' must be two integer grid "
            f"indices [iy, ix], got {node!r}\n")
        assert not (outdir / "blowup_report.json").exists()

    @pytest.mark.parametrize("case", sorted(BAD_BLOWUP_INPUTS))
    def test_bad_radius_or_center_names_the_key(self, tmp_path, capsys, case):
        extra = BAD_BLOWUP_INPUTS[case]
        code, _ = run(tmp_path, "blowup", dict(TINY_BLOWUP, **extra))
        assert code == 1
        err = capsys.readouterr().err
        key, = extra
        assert err.startswith(f"wlab: invalid parameter: '{key}' must be ")
        assert err.count("\n") == 1

    def test_truncated_patch_exit_one(self, tmp_path):
        _, solved = run(tmp_path, "solve", dict(SOLVE_CFG, h=1.0 / 16.0), out="solved")
        csv = solved / "solution.csv"
        lines = csv.read_text().splitlines(keepends=True)
        csv.write_text("".join(lines[:-1]))
        cfg = {
            "patch": {"load": {"csv": str(csv),
                               "header": str(solved / "solution_header.json")}},
            "radius": 0.6,
        }
        code, _ = run(tmp_path, "blowup", cfg, out="from_load")
        assert code == 1


SCALED_CAP = {  # R*H0 = 0.7 at length scale 1e-4
    "relation": {"kind": "cmc", "h0": 1e4},
    "domain": {"type": "disk", "center": [0.0, 0.0], "radius": 0.7e-4},
    "h": 0.7e-4 / 24.0, "tol_res": 1e-4, "max_iter": 30,
}
OVERWIDE_DISK = {  # R*H0 = 1.08: no cap exists
    "relation": {"kind": "cmc", "h0": 1.08},
    "domain": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
    "h": 1.0 / 24.0, "tol_res": 1e-9, "max_iter": 30,
}
STEEP_SQUARE = {  # H0 = 3 on the unit square: no graph, the residual grows
    "relation": {"kind": "cmc", "h0": 3.0},
    "domain": {"type": "rectangle", "bounds": [0.0, 1.0, 0.0, 1.0]},
    "h": 1.0 / 16.0, "tol_res": 1e-9, "max_iter": 40,
}
TWO_SQRT_T = {"kind": "g", "function": {"kind": "closed", "name": "sqrt_offset",
                                        "params": {"scale": 2.0, "offset": 0.0, "shift": 0.0},
                                        "domain": [0.0, "inf"]}}
HERMITE_START = {  # g is sampled on [0, 0.1] only; the flat start violates it next to the rim
    "relation": {"kind": "g", "function": {"kind": "hermite", "x": [0.0, 0.1],
                                           "y": [0.0, 0.0], "dy": [0.0, 0.0]}},
    "domain": {"type": "rectangle", "bounds": [0.0, 1.0, 0.0, 1.0]},
    "h": 0.125, "boundary": 1.0, "init": 0.0,
}
RELOAD_SOLVE = dict(SOLVE_CFG, h=1.0 / 16.0)
RELOAD_BLOWUP = {"center": [12, 19], "radius": 0.5}


def reloaded_blowup_config(tmp_path):
    code, solved = run(tmp_path, "solve", RELOAD_SOLVE, out="solved")
    assert code == 0
    return dict(RELOAD_BLOWUP, patch={"load": {"csv": str(solved / "solution.csv"),
                                               "header": str(solved / "solution_header.json")}})


def same_selection_as_in_process(outdir):
    from wlab.grid import GraphPatch
    from wlab.relation import relation_from_json
    from wlab.solver import blowup_select, newton_solve
    patch = GraphPatch.disk((0.0, 0.0), 1.0, RELOAD_SOLVE["h"])
    out = newton_solve(relation_from_json(RELOAD_SOLVE["relation"]), patch,
                       tol_res=RELOAD_SOLVE["tol_res"], max_iter=RELOAD_SOLVE["max_iter"])
    sel = blowup_select(out.final_patch, tuple(RELOAD_BLOWUP["center"]), RELOAD_BLOWUP["radius"])
    report = json.loads((outdir / "blowup_report.json").read_text())
    assert report["selection"] == report_json(sel)


def reports_divergence(outdir):
    outcome = json.loads((outdir / "solve_report.json").read_text())["outcome"]
    assert outcome["status"] == "diverged"
    assert outcome["iterations"] == len(outcome["history"]) < 40


def same_conjugate_as_linear(outdir):
    report = json.loads((outdir / "parallel_report.json").read_text())
    exact = geometry.conjugate_relation(LinearWeingarten(1.0, 0.5, 1.0), MOBIUS_NATURAL["a"])
    assert report["conjugated"] == relation_to_json(exact)


def keeps_offset_branch(outdir):
    # at a = -0.3 the linear map gives beta' < 0: the conjugate is the linear
    # relation's, whose canonical branch holds the offset 0.396 of the input's
    # fixed point (-1 + sqrt(1.5))/0.5 and the offset [-5, 1/0.3) of its domain [-2, inf)
    report = json.loads((outdir / "parallel_report.json").read_text())
    exact = geometry.conjugate_relation(LinearWeingarten(1.0, 0.5, 1.0), -0.3)
    assert report["conjugated"] == relation_to_json(exact)
    f = f_function(relation_from_json(report["conjugated"]))
    fixed = geometry.f_a((-1.0 + math.sqrt(1.5)) / 0.5, -0.3)
    assert float(f(fixed)) == pytest.approx(fixed, rel=1e-9)
    assert f.domain.lo <= geometry.f_a(-2.0, -0.3) and f.domain.hi >= 1.0 / 0.3


def one_column_pairs_csv(tmp):
    # one column of 1, 2, 3, 4 is no list of (k1, k2) pairs, not (2, 1) and (4, 3)
    csv = tmp / "pairs.csv"
    csv.write_text("k\n1\n2\n3\n4\n")
    return {"pairs_csv": str(csv)}


def writes_no_diagram(outdir):
    assert not (outdir / "diagram.csv").exists()
    assert not (outdir / "diagram_report.json").exists()


def mesh_config(tmp, vertices, faces):
    obj = tmp / "mesh.obj"
    write_obj(diagram.TriMesh(vertices, faces), obj)
    return {"mesh": str(obj)}


def zero_area_fan(tmp):
    # an 8 x 8 grid beside a 5 x 5 grid collapsed to one point
    grid, lump = make_flat_mesh(8), make_flat_mesh(5)
    return mesh_config(tmp, np.vstack([grid.vertices, 0.0 * lump.vertices]),
                       np.vstack([grid.faces, lump.faces + 64]))


def skips_the_zero_area_fan(outdir):
    notes = json.loads((outdir / "diagram_report.json").read_text())["notes"]
    assert notes["skipped_degenerate"] == 9 and notes["skipped_boundary"] == 28 + 16


def non_finite_vertex(tmp, token):
    obj = tmp / "mesh.obj"
    write_obj(make_icosphere(1.0, 1), obj)
    lines = obj.read_text().split("\n")
    lines[4] = f"v 0 {token} 0"
    obj.write_text("\n".join(lines))
    return {"mesh": str(obj)}


def writes_no_certify_report(outdir):
    assert not (outdir / "certify_report.json").exists()


def writes_no_blowup(outdir):
    assert not (outdir / "blowup_report.json").exists()


def writes_no_linop_report(outdir):
    assert not (outdir / "linop_report.json").exists()


def writes_no_solve_report(outdir):
    assert not (outdir / "solve_report.json").exists()


def writes_no_parallel_report(outdir):
    assert not (outdir / "parallel_report.json").exists()


def reports_non_elliptic(outdir):
    assert json.loads((outdir / "certify_report.json").read_text())["report"]["is_elliptic"] is False


def reports_domain_violation(outdir):
    outcome = json.loads((outdir / "solve_report.json").read_text())["outcome"]
    assert outcome["status"] == "domain_violation"
    assert outcome["iterations"] == 0 and outcome["history"] == []
    assert outcome["residual_sup"] is None


# (command, config builder, exit code, check of the outputs)
# a = 0.25 keeps every curvature above off the pole 1/a = 4
PARALLEL_CFG = {"relation": CMC_REL, "a": 0.25}
# its values f(x) run from 58 down through the pole 1/a = 10 at a = 0.1
MOBIUS_TO_POLE = {"kind": "f", "function": {"kind": "closed", "name": "mobius",
                                            "params": {"alpha": 1.0, "beta": 0.5, "delta": 1.0},
                                            "domain": [-1.9, 5.0]}}
# the f of LinearWeingarten(1, 0.5, 1) on its natural domain: the linear map conjugates it
MOBIUS_NATURAL = {"relation": dict(MOBIUS_TO_POLE, function=dict(MOBIUS_TO_POLE["function"],
                                                                 domain=[-2.0, "inf"])),
                  "a": 0.01}
TINY_BLOWUP = {"patch": {"solve": dict(SOLVE_CFG, h=0.25)}, "radius": 0.5}
UNDULOID = {"relation": {"kind": "cmc", "h0": 0.5}, "seed_state": [0.5, 0.0, math.pi / 2],
            "s_max": 1.0}
# inputs the key table rejects (exit 1, one line) that the commands used to
# run on or crash on: (command, base config, bad keys, output check)
CONFIG_GAPS = {
    "infinite_disk_radius": ("solve", SOLVE_CFG, {"domain": dict(SOLVE_CFG["domain"],
                                                                 radius=math.inf)}, None),
    "zero_newton_steps": ("solve", SOLVE_CFG, {"max_iter": 0}, writes_no_solve_report),
    "fractional_newton_steps": ("solve", SOLVE_CFG, {"max_iter": 2.5}, writes_no_solve_report),
    "nan_initial_guess": ("solve", SOLVE_CFG, {"init": math.nan}, writes_no_solve_report),
    "nan_benchmark_center_value": ("solve", SOLVE_CFG, {"benchmark_center_value": math.nan},
                                   writes_no_solve_report),
    "nan_inline_pair": ("diagram", {}, {"pairs": [[1, math.nan], [2, 1]]}, writes_no_diagram),
    "nan_certification_range": ("certify", {"relation": CMC_REL}, {"t_max": math.nan},
                                writes_no_certify_report),
    "fractional_certification_samples": ("certify", {"relation": CMC_REL}, {"samples": 2.5},
                                         writes_no_certify_report),
    "nan_parallel_offset": ("parallel", PARALLEL_CFG, {"a": math.nan}, None),
    "profile_past_the_bound": ("revolve", UNDULOID, {"step": 1e-300}, None),
}
EXIT_CODES = {
    "scaled_cap_solves": ("solve", lambda tmp: SCALED_CAP, 0, None),
    "overwide_disk_fails": ("solve", lambda tmp: OVERWIDE_DISK, 3, None),
    "steep_square_diverges": ("solve", lambda tmp: STEEP_SQUARE, 3, reports_divergence),
    "domain_violation_at_start": ("solve", lambda tmp: HERMITE_START, 3, reports_domain_violation),
    "non_elliptic_certify": ("certify", lambda tmp: {"relation": TWO_SQRT_T}, 2, None),
    "malformed_json": ("certify", lambda tmp: '{"relation": {"kind": "cmc" "h0": 1}}', 1, None),
    "reloaded_blowup": ("blowup", reloaded_blowup_config, 0, same_selection_as_in_process),
    "null_step": ("solve", lambda tmp: dict(SOLVE_CFG, h=None), 1, None),
    "scalar_domain": ("solve", lambda tmp: dict(SOLVE_CFG, domain=5), 1, None),
    "list_relation": ("certify", lambda tmp: {"relation": [1, 2]}, 1, None),
    "null_h0": ("certify", lambda tmp: {"relation": {"kind": "cmc", "h0": None}}, 1, None),
    "scalar_patch_solve": ("blowup", lambda tmp: {"patch": {"solve": 5}, "radius": 0.5}, 1, None),
    "empty_center": ("blowup", lambda tmp: {"patch": {"solve": dict(SOLVE_CFG, h=0.25)},
                                            "center": {}, "radius": 0.5}, 1, None),
    "flat_pairs": ("parallel", lambda tmp: dict(PARALLEL_CFG, pairs=[1, 2]), 1, None),
    "triple_pair": ("parallel", lambda tmp: dict(PARALLEL_CFG, pairs=[[1, 2, 3]]), 1, None),
    "quadruple_pair": ("parallel", lambda tmp: dict(PARALLEL_CFG, pairs=[[1, 2, 3, 4]]), 1, None),
    "ragged_pairs": ("parallel", lambda tmp: dict(PARALLEL_CFG, pairs=[[1, 2], [3]]), 1, None),
    "conjugate_values_cross_pole": ("parallel", lambda tmp: {"relation": MOBIUS_TO_POLE, "a": 0.1},
                                    2, None),
    "mobius_natural_domain_conjugates": ("parallel", lambda tmp: MOBIUS_NATURAL, 0,
                                         same_conjugate_as_linear),
    "mobius_natural_domain_keeps_branch": ("parallel", lambda tmp: dict(MOBIUS_NATURAL, a=-0.3),
                                           0, keeps_offset_branch),
    "scalar_synthetic_sigma": ("blowup", lambda tmp: dict(TINY_BLOWUP, synthetic_sigma=5), 1, None),
    "list_synthetic_sigma": ("blowup", lambda tmp: dict(TINY_BLOWUP, synthetic_sigma=[1]), 1,
                             None),
    "zero_grid_step": ("solve", lambda tmp: dict(SOLVE_CFG, h=0), 1, None),
    "zero_profile_step": ("revolve", lambda tmp: dict(UNDULOID, step=0), 1, None),
    "negative_profile_step": ("revolve", lambda tmp: dict(UNDULOID, step=-0.1), 1, None),
    "nonpositive_profile_length": ("revolve", lambda tmp: dict(UNDULOID, s_max=0), 1, None),
    "infinite_profile_length": ("revolve", lambda tmp: dict(UNDULOID, s_max="inf"), 1, None),
    "one_column_pairs_csv": ("diagram", one_column_pairs_csv, 1, writes_no_diagram),
    "flat_inline_pairs": ("diagram", lambda tmp: {"pairs": [1, 2, 3, 4]}, 1, writes_no_diagram),
    "single_column_inline_pairs": ("diagram", lambda tmp: {"pairs": [[1], [2], [3], [4]]}, 1,
                                   writes_no_diagram),
    "nan_h0_certify": ("certify", lambda tmp: {"relation": {"kind": "cmc", "h0": math.nan}}, 1,
                       writes_no_certify_report),
    "infinite_closed_form_parameter": ("certify", lambda tmp: {"relation": dict(
        TWO_SQRT_T, function=dict(TWO_SQRT_T["function"], params={
            "scale": 2.0, "offset": math.inf, "shift": 0.0}))}, 1, writes_no_certify_report),
    "list_function": ("certify", lambda tmp: {"relation": {"kind": "g", "function": [1, 2]}}, 1,
                      writes_no_certify_report),
    "string_function": ("certify", lambda tmp: {"relation": {"kind": "f", "function": "x"}}, 1,
                        writes_no_certify_report),
    # a relation or scalar function of unknown kind, or an unknown closed
    # form, is a config error, not a validity failure (exit 2)
    "relation_without_kind": ("certify", lambda tmp: {"relation": {}}, 1,
                              writes_no_certify_report),
    "unknown_function_kind": ("certify", lambda tmp: {"relation": {
        "kind": "g", "function": {"kind": "spline"}}}, 1, writes_no_certify_report),
    "unknown_closed_form": ("certify", lambda tmp: {"relation": dict(
        TWO_SQRT_T, function=dict(TWO_SQRT_T["function"], name="gauss"))}, 1,
                            writes_no_certify_report),
    # faces of no area leave a vertex without a normal, which is skipped;
    # a mesh of no area leaves no fit at all
    "zero_area_fan": ("diagram", zero_area_fan, 0, skips_the_zero_area_fan),
    "mesh_of_no_area": ("diagram", lambda tmp: mesh_config(
        tmp, 0.0 * make_icosphere(1.0, 1).vertices, make_icosphere(1.0, 1).faces), 2,
        writes_no_diagram),
    "nan_vertex": ("diagram", lambda tmp: non_finite_vertex(tmp, "nan"), 2, writes_no_diagram),
    "infinite_vertex": ("diagram", lambda tmp: non_finite_vertex(tmp, "-inf"), 2,
                        writes_no_diagram),
    # a 200,001 x 200,001 grid is refused before it is allocated
    "grid_past_the_bound": ("solve", lambda tmp: dict(SOLVE_CFG, h=1e-5), 1,
                            writes_no_solve_report),
    **{name: ("blowup", lambda tmp, extra=extra: dict(TINY_BLOWUP, **extra), 1, writes_no_blowup)
       for name, extra in BAD_BLOWUP_INPUTS.items()},
    **{name: ("blowup", lambda tmp, node=node: dict(TINY_BLOWUP, synthetic_sigma={
        "spikes": [{"node": node, "amplitude": 3.0}]}), 1, writes_no_blowup)
       for name, node in BAD_SPIKE_NODES.items()},
    **{name: ("linop", lambda tmp, extra=extra: dict(LINOP_CFG, **extra), 1,
              writes_no_linop_report)
       for name, extra in BAD_LINOP_INPUTS.items()},
    # g = 4 sqrt(t) - 1.5 holds on the unit cylinder, where 4 H0^2 g'^2 = 16: A < 0
    "non_elliptic_cylinder": ("linop", lambda tmp: dict(LINOP_CFG, relation=dict(
        TWO_SQRT_T, function=dict(TWO_SQRT_T["function"], params={
            "scale": 4.0, "offset": 0.0, "shift": -1.5}))), 2, writes_no_linop_report),
    **{name: (command, lambda tmp, base=base, extra=extra: dict(base, **extra), 1, check)
       for name, (command, base, extra, check) in CONFIG_GAPS.items()},
    "non_affine_boundary": ("solve", lambda tmp: dict(SOLVE_CFG, boundary={"kind": "quadratic"}),
                            1, writes_no_solve_report),
    "non_object_spikes": ("blowup", lambda tmp: dict(TINY_BLOWUP, synthetic_sigma={
        "spikes": [[4, 4]]}), 1, writes_no_blowup),
    # a squared coefficient past about 1.3e154 overflows: the triple is rejected
    # in one line, not with an OverflowError traceback
    "overflowing_alpha_squared": ("certify", lambda tmp: {"relation": {
        "kind": "linear", "alpha": 1e200, "beta": 1.0, "delta": 1.0}}, 2,
        writes_no_certify_report),
    # (beta^2 overflows, so g's offset 2/beta^2 underflows to 0 and 4t g'^2 = 1)
    "overflowing_beta_squared": ("certify", lambda tmp: {"relation": {
        "kind": "linear", "alpha": 1.0, "beta": 1e200, "delta": 1e-200}}, 2,
        reports_non_elliptic),
    "overflowing_conjugate_of_large_h0": ("parallel", lambda tmp: {
        "relation": {"kind": "cmc", "h0": 1e300}, "a": 0.5}, 2, writes_no_parallel_report),
    "overflowing_conjugate_at_large_offset": ("parallel", lambda tmp: dict(PARALLEL_CFG, a=1e300),
                                              2, writes_no_parallel_report),
    # 1e309 parses as inf
    "overflowing_boundary": ("solve", lambda tmp: json.dumps(SOLVE_CFG)[:-1]
                             + ', "boundary": 1e309}', 1, writes_no_solve_report),
}


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_exit_code_table(tmp_path, capsys, case):
    command, make_config, expected, check = EXIT_CODES[case]
    config = make_config(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    outdir = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(outdir)]) == expected
    if expected == EXIT_IO:     # an input failure says why in one line
        assert capsys.readouterr().err.count("\n") == 1
    if check is not None:
        check(outdir)


class TestConfigHandling:
    def test_override_parses_json_scalars(self, tmp_path):
        code, outdir = run(tmp_path, "certify", {"relation": CMC_REL},
                           extra=("--set", "t_max=100.0", "--set", "samples=500"))
        assert code == 0
        report = json.loads((outdir / "certify_report.json").read_text())
        assert report["report"]["grid"] == {"n": 500, "t_max": 100.0}

    def test_bad_override_exit_one(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"relation": CMC_REL}))
        assert main(["certify", "--config", str(cfg), "--set", "oops"]) == 1

    def test_override_through_a_non_object_exit_one(self, tmp_path, capsys):
        code, outdir = run(tmp_path, "certify", {"relation": CMC_REL, "t_max": 5.0},
                           extra=("--set", "t_max.x=1"))
        assert code == 1 and not outdir.exists()
        assert "'t_max.x' crosses a non-object value" in capsys.readouterr().err

    def test_missing_key_named(self, tmp_path, capsys):
        code, outdir = run(tmp_path, "solve", {k: v for k, v in SOLVE_CFG.items() if k != "h"})
        assert code == 1 and not outdir.exists()
        assert capsys.readouterr().err == "wlab: invalid parameter: 'h' is missing\n"

    def test_relation_from_a_file(self, tmp_path):
        path = tmp_path / "cmc1.json"
        path.write_text(json.dumps(CMC_REL))
        code, inline = run(tmp_path, "certify", {"relation": CMC_REL}, out="inline")
        assert code == 0
        # a path is no JSON, so --set takes it as a bare word
        code, from_file = run(tmp_path, "certify", {"relation": {"kind": "cmc", "h0": 5.0}},
                              out="file", extra=("--set", f"relation={path}"))
        assert code == 0
        assert (from_file / "certify_report.json").read_bytes() == (
            inline / "certify_report.json").read_bytes()
        code, missing = run(tmp_path, "certify", {"relation": str(tmp_path / "absent.json")},
                            out="missing")
        assert code == 1 and not missing.exists()

    def test_negative_tolerance_rejected(self, tmp_path):
        code, _ = run(tmp_path, "solve", dict(SOLVE_CFG, tol_res=-1.0))
        assert code == 1

    @pytest.mark.parametrize("argv", [["solve"], ["frobnicate", "--config", "c.json"],
                                      ["certify", "--config", "c.json", "--seed", "abc"]],
                             ids=["missing_config", "unknown_command", "non_integer_seed"])
    def test_usage_error_exit_one(self, capsys, argv):
        # argparse exits 2, which is the certification-failure code
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("wlab: error: ") and err.count("\n") == 1

    def test_help_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "--seed" in capsys.readouterr().out

    def test_overrides_do_not_leak_into_the_next_call(self, tmp_path):
        code, first = run(tmp_path, "certify", {"relation": CMC_REL}, out="first",
                          extra=("--set", "t_max=100.0"))
        assert code == 0
        code, second = run(tmp_path, "certify", {"relation": CMC_REL}, out="second")
        assert code == 0
        grids = [json.loads((out / "certify_report.json").read_text())["report"]["grid"]
                 for out in (first, second)]
        assert grids[0]["t_max"] == 100.0
        assert grids[1]["t_max"] == DEFAULT_T_MAX

    def test_parser_serves_repeated_calls(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["--help"]) == 0
            assert main(["solve"]) == 1
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert "--seed" in outputs[0].out
        assert outputs[0].err.startswith("wlab: error: ") and outputs[0].err.count("\n") == 1

    def test_seed_recorded(self, tmp_path):
        code, outdir = run(tmp_path, "certify", {"relation": CMC_REL},
                           extra=("--seed", "42"))
        assert code == 0
        assert json.loads((outdir / "certify_report.json").read_text())["seed"] == 42

    def test_timestamp_isolated(self, tmp_path):
        _, outdir = run(tmp_path, "certify", {"relation": CMC_REL})
        assert (outdir / "run_stamp.txt").exists()
        assert "stamp" not in (outdir / "certify_report.json").read_text()


# a fresh process runs each command in turn and reports the scipy modules
# loaded so far and whether orjson is; only the sparse solve, the blow-up's
# Dijkstra and the mesh diagram's adjacency need scipy, and only the commands
# that write a CSV need orjson
SCIPY_PROBE = """
import json, sys
from wlab.cli import main

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), "orjson" in sys.modules

steps = {"import": [0, *loaded()]}
for name, command in json.loads(sys.argv[1]):
    code = main([command, "--config", name + ".json", "--out", name])
    steps[name] = [code, *loaded()]
print(json.dumps(steps))
"""


def test_commands_load_scipy_only_where_used(tmp_path):
    mesh = tmp_path / "ico.obj"
    write_obj(make_icosphere(1.0, 1), mesh)
    configs = {
        "certify": {"relation": CMC_REL},
        "linop": {"relation": {"kind": "cmc", "h0": 0.5}, "r0": 1.0, "L": 3.0, "r": 3.0},
        "revolve": {"relation": {"kind": "g", "function": {
            "kind": "closed", "name": "sqrt_offset", "domain": [0.0, "inf"],
            "params": {"scale": 0.45, "offset": 0.8, "shift": 0.05}}},
            "seed_state": [0.6, 0.0, math.pi / 2], "s_max": 1.0},
        "parallel": dict(PARALLEL_CFG, pairs=[[2.0, 0.0]]),
        "pairs": {"pairs": [[2.0, -1.0], [1.0, -0.5]]},
        "mesh": {"mesh": str(mesh)},
        "solve": dict(SOLVE_CFG, h=0.125),
        "blowup": {"patch": {"load": {"csv": "solve/solution.csv",
                                      "header": "solve/solution_header.json"}}, "radius": 0.5},
    }
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    commands = [(name, name if name not in ("pairs", "mesh") else "diagram") for name in configs]
    src = str(Path(wlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    steps = json.loads(done.stdout.splitlines()[-1])
    # the commands run in this order in one process, so orjson stays loaded
    # from the first CSV on
    for name in ("import", "certify", "linop"):
        assert steps[name] == [0, [], False], name
    for name in ("revolve", "parallel", "pairs"):
        assert steps[name] == [0, [], True], name
    for name, module in (("mesh", "scipy.sparse"), ("solve", "scipy.sparse.linalg"),
                         ("blowup", "scipy.sparse.csgraph")):
        code, loaded, _ = steps[name]
        assert code == 0 and module in loaded, name
    # scipy.interpolate would add 0.3-0.5 s; no command needs it
    assert not any(m.startswith("scipy.interpolate") for m in steps["blowup"][1])


# each command's worked example above, and the values one of its keys is
# given in turn: non-finite, out of range, mistyped or of the wrong shape
WORKED_EXAMPLES = {
    "certify": {"relation": CMC_REL},
    "solve": SOLVE_CFG,
    "revolve": UNDULOID,
    "diagram": {"pairs": [[2.0, -1.0], [1.0, -0.5]]},
    "parallel": {"relation": CMC_REL, "a": 1.0, "pairs": [[2.0, 0.0], [0.3, -1.7]]},
    "linop": LINOP_CFG,
    "blowup": dict(TINY_BLOWUP, synthetic_sigma={"spikes": [{"node": [4, 4], "amplitude": 3.0}]}),
}
# the files each worked example writes besides its report and run_stamp.txt
COMMAND_FILES = {"solve": {"solution.csv", "solution_header.json", "solution.bin"},
                 "revolve": {"profile.csv"}, "diagram": {"diagram.csv"},
                 "parallel": {"parallel_pairs.csv"}}


@pytest.mark.parametrize("command", sorted(WORKED_EXAMPLES))
def test_one_writer_writes_each_report(tmp_path, monkeypatch, command):
    """A command's report goes through `_write_report` once: one
    `<command>_report.json` beside its own files and run_stamp.txt, holding
    `check`, `seed`, and `relation` exactly when the command reads one."""
    calls, write = [], wlab.cli._write_report
    monkeypatch.setattr(wlab.cli, "_write_report",
                        lambda *args: calls.append(args[1]) or write(*args))
    config = WORKED_EXAMPLES[command]
    code, outdir = run(tmp_path, command, config, extra=("--seed", "7"))
    assert code == 0 and calls == [command]
    assert sorted(f.name for f in outdir.iterdir()) == sorted(
        {f"{command}_report.json", "run_stamp.txt", *COMMAND_FILES.get(command, ())})
    report = json.loads((outdir / f"{command}_report.json").read_text())
    assert isinstance(report["check"], str) and report["seed"] == 7
    assert ("relation" in report) == ("relation" in _KEYS[command])
    if "relation" in report:
        assert report["relation"] == relation_to_json(relation_from_json(config["relation"]))


def test_blowup_whose_solve_fails_writes_no_report(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(wlab.cli, "_write_report", lambda *args: calls.append(args[1]))
    code, outdir = run(tmp_path, "blowup", {"patch": {"solve": OVERWIDE_DISK}, "radius": 0.5})
    assert code == 3 and calls == [] and not outdir.exists()


BAD_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 0.5, "x", None, [], {}, [[0.5]],
              [1, 2, 3, 4, 5]]


@st.composite
def one_bad_value(draw):
    command = draw(st.sampled_from(sorted(WORKED_EXAMPLES)))
    example = WORKED_EXAMPLES[command]
    key = draw(st.sampled_from(sorted(set(example) | set(_KEYS[command]))))
    return command, dict(example, **{key: draw(st.sampled_from(BAD_VALUES))})


def no_constant(name):
    raise AssertionError(f"a report holds {name}")


@settings(max_examples=100, deadline=None)
@given(one_bad_value())
def test_one_bad_value_ends_in_an_exit_code(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path, err = Path(tmp) / "config.json", io.StringIO()
        path.write_text(json.dumps(config))
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2, 3)
        # a warning would print two more lines
        assert err.getvalue().count("\n") <= 1 and not caught, (err.getvalue(), caught)
        for report in Path(tmp).glob("out/*.json"):
            json.loads(report.read_text(), parse_constant=no_constant)


def readme_key_table() -> dict:
    """command -> key -> default of the README's key table.  A default is
    the one-element JSON list after its key, `[none]` is None, and a key
    with none is required (...); parenthesized notes are skipped."""
    lines = README.read_text().splitlines()
    table = {}
    for line in lines[lines.index("| command | keys |") + 2:]:
        row = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
        if row is None:
            break
        depth, cell = 0, ""
        for ch in row[2]:
            depth += ch == "("
            cell += ch if depth == 0 else ""
            depth -= ch == ")"
        keys = table[row[1]] = {}
        for m in re.finditer(r"`(\w+)`( \[none\])?( \[)?", cell):
            keys[m[1]] = (None if m[2] else ... if not m[3] else
                          json.JSONDecoder().raw_decode(cell, m.start(3) + 1)[0][0])
    return table


def test_readme_key_table_is_the_code_table():
    table = readme_key_table()
    assert sorted(table) == sorted(_KEYS)
    for command, keys in _KEYS.items():
        assert table[command] == {key: default for key, (_, default) in keys.items()}, command
