"""Acceptance suite: one test per exit criterion, each printed as a
PASS/FAIL line with its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from conftest import (centered_bump, cylinder_patch, make_cylinder_mesh, make_flat_mesh,
                      make_icosphere, plane_patch, planar_curvature_5pt, sphere_patch)
from wlab import cli
from wlab.diagram import (CurvatureDiagram, gamma_mu, gamma_to_wedge, mesh_diagram, mu_gamma,
                          qc_classify)
from wlab.geometry import (conjugate_relation, detect_period, f_a,
                           offset_profile, parallel_curvatures, rotational_profile)
from wlab.grid import GraphPatch, rescale_patch
from wlab.jets import Jet2, curvatures_of_jet, h2k_eigenvalues, mean_gauss, q4, q4_rewritten
from wlab.linop import cylinder_operator, variation_derivatives, variation_rhs_fields
from wlab.relation import (CMC, ClosedForm, GForm, LinearWeingarten, certify_ellipticity,
                           default_t_grid, f_function, rescale_relation, umbilical_constant)
from wlab.solver import blowup_select, newton_solve

SQRT3_M2 = math.sqrt(3.0) - 2.0


@contextlib.contextmanager
def criterion(num, budget_s, label):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} FAIL ({time.monotonic() - t0:6.1f}s) {label}",
              flush=True)
        raise
    elapsed = time.monotonic() - t0
    status = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    print(f"[acceptance] criterion {num:2d} {status} ({elapsed:6.1f}s < {budget_s:.0f}s) {label}",
          flush=True)
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_01_curvature_formulas():
    with criterion(1, 1.0, "curvature formulas and rotation covariance"):
        cases = [
            (Jet2(0, 0, 0, 0, 0), (0.0, 0.0)),
            (Jet2(0, 0, 1, 0, 1), (1.0, 1.0)),
            (Jet2(1, 0, 1, 0, 1), (3.0 / (4.0 * math.sqrt(2.0)), 0.25)),
        ]
        for jet, (H_exp, K_exp) in cases:
            H, K = curvatures_of_jet(jet)
            assert abs(H - H_exp) < 1e-12 and abs(K - K_exp) < 1e-12
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            p, q, r, s, t = rng.normal(0.0, 1.5, 5)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            c, d = math.cos(phi), math.sin(phi)
            R = np.array([[c, -d], [d, c]])
            pq = R.T @ np.array([p, q])
            M = R.T @ np.array([[r, s], [s, t]]) @ R
            H1, K1 = mean_gauss(p, q, r, s, t)
            H2, K2 = mean_gauss(pq[0], pq[1], M[0, 0], M[0, 1], M[1, 1])
            assert abs(H1 - H2) < 1e-12 and abs(K1 - K2) < 1e-12


def test_criterion_02_eigenvalue_formula():
    with criterion(2, 5.0, "closed-form symbol eigenvalues vs eigendecomposition oracle"):
        l1, l2, z = h2k_eigenvalues(0.0, 0.0)
        assert (float(l1), float(l2), float(z)) == (1.0, 0.5, 0.0)

        rng = np.random.default_rng(7)
        ang = rng.uniform(0.0, 2.0 * math.pi, 10_000)
        rad = 1.5 * np.sqrt(rng.uniform(0.0, 1.0, 10_000))
        ps, qs = rad * np.cos(ang), rad * np.sin(ang)

        def scaled_form(p, q, r, s, t):
            H, K = mean_gauss(p, q, r, s, t)
            return (1.0 + p * p + q * q) ** 2 * (H * H - K)

        # the form is exactly quadratic in (r,s,t): its Hessian follows from
        # finitely many evaluations with no truncation error
        e = np.eye(3)
        mats = np.empty((ps.size, 3, 3))
        base = scaled_form(ps, qs, 0.0, 0.0, 0.0)
        singles = [scaled_form(ps, qs, *e[i]) for i in range(3)]
        for i in range(3):
            for j in range(3):
                pair = scaled_form(ps, qs, *(e[i] + e[j]))
                mats[:, i, j] = 0.5 * (pair - singles[i] - singles[j] + base)
        oracle = np.sort(np.linalg.eigvalsh(mats), axis=1)[:, ::-1]
        l1, l2, z = h2k_eigenvalues(ps, qs)
        assert np.max(np.abs(oracle[:, 0] - l1)) < 1e-10
        assert np.max(np.abs(oracle[:, 1] - l2)) < 1e-10
        assert np.max(np.abs(oracle[:, 2])) < 1e-10


def test_criterion_03_quartic_identity_and_positivity():
    with criterion(3, 5.0, "quartic discriminant identity and positivity on the jet box"):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 10.0, 100_000)
        y = rng.uniform(0.0, 10.0, 100_000)
        a, b = q4(x, y), q4_rewritten(x, y)
        assert np.max(np.abs(a - b) / (1.0 + np.abs(a))) < 1e-9
        ang = rng.uniform(0.0, 2.0 * math.pi, 50_000)
        rad = 1.5 * np.sqrt(rng.uniform(0.0, 1.0, 50_000))
        ps, qs = rad * np.cos(ang), rad * np.sin(ang)
        assert np.min(q4(ps * ps, qs * qs)) > 0.0


def test_criterion_04_dirichlet_solver_convergence_order():
    with criterion(4, 120.0, "disk Dirichlet solve: center value and grid order"):
        exact = lambda x, y: np.sqrt(3.0) - np.sqrt(4.0 - x * x - y * y)
        errs = {}
        centers = {}
        for n in (32, 64, 128):
            patch = GraphPatch.disk((0.0, 0.0), 1.0, 1.0 / n)
            out = newton_solve(CMC(0.5), patch, tol_res=1e-10, max_iter=30)
            assert out.status == "converged"
            X, Y = out.final_patch.xy()
            keep = out.final_patch.interior_mask()
            errs[n] = float(np.max(np.abs(out.final_patch.values[keep] - exact(X, Y)[keep])))
            ny, nx = out.final_patch.shape
            centers[n] = float(out.final_patch.values[ny // 2, nx // 2])
        assert abs(centers[64] - SQRT3_M2) / abs(SQRT3_M2) < 0.02
        order_coarse = math.log2(errs[32] / errs[64])
        order_fine = math.log2(errs[64] / errs[128])
        assert order_coarse >= 1.8 and order_fine >= 1.8


def test_criterion_05_radius_bound(tmp_path):
    with criterion(5, 180.0, "cap family radius bound and solver failure mode"):
        # closed-form existence: the cap height sqrt(Rs^2 - R^2) is real
        # exactly for R < Rs = 1/H0 = 2
        assert 4.0 - 1.9 ** 2 > 0.0
        assert 4.0 - 2.2 ** 2 < 0.0

        def run(radius, h):
            cfg = tmp_path / f"solve_{radius}.json"
            cfg.write_text(json.dumps({
                "relation": {"kind": "cmc", "h0": 0.5},
                "domain": {"type": "disk", "center": [0.0, 0.0], "radius": radius},
                "h": h, "tol_res": 1e-8, "max_iter": 30,
            }))
            return cli.main(["solve", "--config", str(cfg), "--out",
                             str(tmp_path / f"out_{radius}")])

        assert run(1.9, 1.0 / 24.0) == 0
        assert run(2.2, 1.0 / 16.0) == 3
        failure = json.loads((tmp_path / "out_2.2" / "solve_report.json").read_text())
        assert failure["outcome"]["status"] in ("max_iterations", "diverged",
                                                "line_search_failure")


def test_criterion_06_parallel_surface_algebra():
    with criterion(6, 10.0, "offset transform, conjugation, geometric cylinder offset"):
        rng = np.random.default_rng(3)
        done = 0
        while done < 10_000:
            a = rng.uniform(-2.0, 2.0)
            x = rng.uniform(-5.0, 5.0)
            if abs(1.0 + a * x) < 0.05 or abs(1.0 - a * x / (1.0 + a * x)) < 0.05:
                continue
            assert abs(f_a(f_a(x, -a), a) - x) < 1e-12 * (1.0 + abs(x))
            done += 1

        conj = conjugate_relation(CMC(1.0), 1.0)
        assert isinstance(conj, CMC) and abs(conj.h0 + 1.0) < 1e-14

        rel = LinearWeingarten(1.0, 1.0, 1.0)
        a = 0.4
        conj2 = conjugate_relation(rel, a)
        assert isinstance(conj2, LinearWeingarten)
        f, f2 = f_function(rel), f_function(conj2)
        xs = f.domain.lo + np.logspace(-2, 1.0, 100)
        for x in xs:
            y = float(np.asarray(f(x)))
            if abs(1 - a * x) < 0.05 or abs(1 - a * y) < 0.05:
                continue
            xp = x / (1.0 - a * x)
            if not f2.domain.contains(xp, tol=0.0):
                continue
            assert abs(float(np.asarray(f2(xp))) - y / (1.0 - a * y)) < 1e-10 * (1 + abs(y))

        # geometric offset of a discretized cylinder (r0 = 1, pair (1, 0))
        prof = rotational_profile(CMC(0.5), (1.0, 0.0, math.pi / 2), step=1e-3, s_max=2.0)
        off = offset_profile(prof, 0.4)
        km_fd = planar_curvature_5pt(off.r, off.z, prof.s[1] - prof.s[0])
        kp_geom = np.sin(off.theta) / off.r
        k1, k2 = parallel_curvatures([1.0, 0.0], 0.4)[0][0]
        m = np.isfinite(km_fd)
        assert np.max(np.abs(kp_geom - k1)) < 1e-6
        assert np.max(np.abs(km_fd[m] - k2)) < 1e-6


def test_criterion_07_rotational_generator():
    with criterion(7, 30.0, "profile generator: sum invariant, cylinder, period stability"):
        prof = rotational_profile(CMC(0.5), (0.5, 0.0, math.pi / 2), step=1e-3, s_max=25.0)
        assert np.max(np.abs(prof.kappa_m + prof.kappa_p - 1.0)) < 1e-8

        cyl = rotational_profile(CMC(0.5), (1.0, 0.0, math.pi / 2), step=1e-3, s_max=3.0)
        assert np.max(np.abs(cyl.r - 1.0)) < 1e-12
        assert np.max(np.abs(cyl.theta - math.pi / 2)) < 1e-12

        T1 = detect_period(prof)
        prof2 = rotational_profile(CMC(0.5), (0.5, 0.0, math.pi / 2), step=5e-4, s_max=25.0)
        T2 = detect_period(prof2)
        assert T1 is not None and T2 is not None
        assert abs(T1 - T2) / T1 < 1e-3


def test_criterion_08_quasiconformality_suite():
    with criterion(8, 5.0, "qc classification, mu-gamma, wedge slopes, minimal-type wedge"):
        rng = np.random.default_rng(5)
        k = rng.uniform(0.1, 5.0, 500)
        rep = qc_classify(CurvatureDiagram(np.column_stack([k, -k])))
        assert rep.classification == "negative_branch"
        assert abs(rep.gamma_star + 1.0) < 1e-12

        for mu in np.concatenate([[0.0], np.linspace(0.01, 0.999, 400)]):
            assert abs(gamma_mu(mu_gamma(float(mu))) - float(mu)) < 1e-14

        for gamma in -1.0 - rng.exponential(2.0, 1000):
            m1, m2 = gamma_to_wedge(float(gamma))
            assert abs(m1 * m2 - 1.0) < 1e-12

        rel = GForm(ClosedForm("sqrt_offset", {"scale": 0.5, "offset": 1.0, "shift": -0.5}))
        rep_rel = certify_ellipticity(rel)
        assert rep_rel.uniform_constant_Lambda is not None and rep_rel.minimal_type
        ts = np.logspace(-8, 3, 500)
        gv = np.asarray(rel.g(ts))
        out = qc_classify(CurvatureDiagram(np.column_stack([gv + np.sqrt(ts),
                                                            gv - np.sqrt(ts)])))
        assert out.classification == "negative_branch" and out.gamma_star <= -1.0


def test_criterion_09_linearized_operator():
    with criterion(9, 60.0, "variation formulas, cylinder constants, critical square"):
        for make in (lambda n: plane_patch(1.0 / n),
                     lambda n: sphere_patch(0.6 / n),
                     lambda n: cylinder_patch(0.8 / n)):
            errs = []
            for n in (32, 64):
                patch = make(n)
                phi = centered_bump(patch)
                dH, dK = variation_derivatives(patch, phi, 1e-5)
                two_hp, kp = variation_rhs_fields(patch, phi)
                m = (np.isfinite(dH) & np.isfinite(two_hp)
                     & np.isfinite(dK) & np.isfinite(kp))
                scale = max(float(np.max(np.abs(two_hp[m]))), 1.0)
                errs.append(max(float(np.max(np.abs(2 * dH[m] - two_hp[m]))),
                                float(np.max(np.abs(dK[m] - kp[m])))) / scale)
            assert errs[1] <= 0.35 * errs[0]

        op = cylinder_operator(CMC(0.5), 1.0)
        assert (op.A, op.B) == (0.5, 0.5)
        assert abs(op.C - 2.0 * 0.5 ** 2) < 1e-15
        L_crit = 0.5 * math.pi * math.sqrt((op.A + op.B) / op.C)
        assert abs(L_crit - 0.5 * math.pi * math.sqrt(2.0)) < 1e-10


def test_criterion_10_blowup_bookkeeping():
    with criterion(10, 10.0, "rescaling preserves Lambda, scales alpha, fixes h"):
        rel = GForm(ClosedForm("sqrt_offset", {"scale": 0.5, "offset": 1.0, "shift": 0.0}))
        lam = 3.0
        grid = default_t_grid(1e4, 4000)
        base = certify_ellipticity(rel, grid)
        scaled = certify_ellipticity(rescale_relation(rel, lam), grid / lam ** 2)
        assert base.uniform_constant_Lambda is not None
        assert abs(scaled.uniform_constant_Lambda - base.uniform_constant_Lambda) < 1e-12

        assert abs(umbilical_constant(rescale_relation(CMC(1.0), lam)) - 1.0 / lam) < 1e-15
        alpha = umbilical_constant(LinearWeingarten(0.0, 1.0, 1.0))
        alpha_scaled = umbilical_constant(rescale_relation(LinearWeingarten(0.0, 1.0, 1.0), lam))
        assert abs(alpha_scaled - alpha / lam) < 1e-12

        patch = GraphPatch.disk((0.0, 0.0), 1.0, 1.0 / 16.0)
        out = newton_solve(CMC(0.5), patch, tol_res=1e-10)
        assert out.status == "converged"
        ny, nx = out.final_patch.shape
        sel1 = blowup_select(out.final_patch, (ny // 2, nx // 2), 0.6)
        sel2 = blowup_select(rescale_patch(out.final_patch, lam), (ny // 2, nx // 2), 0.6 * lam)
        assert abs(sel2.h_max - sel1.h_max) < 1e-10


def test_criterion_11_mesh_diagrams():
    with criterion(11, 30.0, "mesh diagrams: icosphere, cylinder, flat grid"):
        d_sphere = mesh_diagram(make_icosphere(2.0, 4))
        assert np.max(np.abs(d_sphere.samples - 0.5)) / 0.5 < 0.05
        d_cyl = mesh_diagram(make_cylinder_mesh())
        assert np.max(np.abs(d_cyl.samples[:, 0] - 1.0)) < 0.05
        assert np.max(np.abs(d_cyl.samples[:, 1])) < 0.05
        d_flat = mesh_diagram(make_flat_mesh(12))
        assert np.max(np.abs(d_flat.samples)) < 1e-6
