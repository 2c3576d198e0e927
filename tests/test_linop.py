"""Linearized-operator tests: variation formulas, cylinder constants,
perturbation threshold against a finite-difference oracle of L_g."""

import math

import numpy as np
import pytest

from conftest import centered_bump, cylinder_patch, plane_patch, report_json, sphere_patch
from wlab.errors import EllipticityError, RelationError
from wlab.jets import g_at
from wlab.linop import (CylinderOperator, _curvatures_and_normal, _varied_curvatures,
                        cylinder_operator, laplace_beltrami, perturbation_threshold,
                        variation_derivatives, variation_rhs_fields)
from wlab.relation import CMC, HALF_LINE, ClosedForm, GForm, LinearWeingarten, g_of


def weingarten_variation_rate(rel, patch, phi, tau_step):
    """Oracle for L_g[phi]: the finite-difference rate [W(tau) - W(-tau)]/(2 tau)
    of the residual W = H - g(H^2 - K) under the normal variation u + tau*phi*N."""
    g = g_of(rel)
    (H1, K1), (H0, K0) = _varied_curvatures(patch, phi, tau_step)
    return ((H1 - g_at(g, H1, K1)) - (H0 - g_at(g, H0, K0))) / (2.0 * tau_step)


def variation_mismatch(patch, tau=1e-5):
    phi = centered_bump(patch)
    dH, dK = variation_derivatives(patch, phi, tau)
    two_hp, kp = variation_rhs_fields(patch, phi)
    m = np.isfinite(dH) & np.isfinite(two_hp) & np.isfinite(dK) & np.isfinite(kp)
    scale = max(float(np.max(np.abs(two_hp[m]))), 1.0)
    return max(float(np.max(np.abs(2 * dH[m] - two_hp[m]))),
               float(np.max(np.abs(dK[m] - kp[m])))) / scale


PATCH_MAKERS = {
    "plane": lambda n: plane_patch(1.0 / n),
    "sphere": lambda n: sphere_patch(0.6 / n),
    "cylinder": lambda n: cylinder_patch(0.8 / n),
}


class TestVariationFormulas:
    @pytest.mark.parametrize("name", list(PATCH_MAKERS))
    def test_error_halves_with_h(self, name):
        make = PATCH_MAKERS[name]
        e1 = variation_mismatch(make(32))
        e2 = variation_mismatch(make(64))
        assert e2 <= 0.35 * e1
        assert e1 < 0.05

    def test_plane_rates_are_flat_laplacian_and_zero(self):
        patch = plane_patch(1.0 / 64)
        X, Y = patch.xy()
        phi = np.sin(np.pi * X) * np.sin(np.pi * Y)
        dH, dK = variation_derivatives(patch, phi, 1e-5)
        m = np.isfinite(dH)
        lap = -2.0 * math.pi ** 2 * phi
        assert np.max(np.abs(2.0 * dH[m] - lap[m])) < 5e-3
        assert np.max(np.abs(dK[m])) < 1e-8

    def test_unit_sphere_zeroth_order_term(self):
        # 2 H'(0) = Lap(phi) + 2 phi on the unit sphere (4H^2 - 2K = 2)
        patch = sphere_patch(0.6 / 64)
        phi = centered_bump(patch)
        dH, _ = variation_derivatives(patch, phi, 1e-5)
        lap = laplace_beltrami(patch, phi)
        m = np.isfinite(dH) & np.isfinite(lap)
        rhs = lap[m] + 2.0 * phi[m]
        assert np.max(np.abs(2.0 * dH[m] - rhs)) / np.max(np.abs(rhs)) < 2e-2

    def test_cylinder_k_rate_is_divergence_term(self):
        patch = cylinder_patch(0.8 / 64)
        phi = centered_bump(patch)
        _, dK = variation_derivatives(patch, phi, 1e-5)
        _, kp = variation_rhs_fields(patch, phi)   # K = 0 kills the 2HK term
        m = np.isfinite(dK) & np.isfinite(kp)
        assert np.max(np.abs(dK[m] - kp[m])) / np.max(np.abs(kp[m])) < 2e-2

    def test_too_large_step_rejected(self):
        patch = sphere_patch(0.6 / 24)
        phi = centered_bump(patch)
        with pytest.raises(ValueError):
            variation_derivatives(patch, phi, 2.0)

    def test_parametrized_curvatures_sphere(self):
        patch = sphere_patch(0.6 / 64)
        X, Y = patch.xy()
        S = np.stack([X, Y, patch.values], axis=-1)
        H, K, _ = _curvatures_and_normal(S)
        assert np.nanmax(np.abs(H - 1.0)) < 1e-3
        assert np.nanmax(np.abs(K - 1.0)) < 1e-3


class TestCylinderOperator:
    def test_cmc_constants(self):
        op = cylinder_operator(CMC(0.5), 1.0)
        assert (op.A, op.B) == (0.5, 0.5)
        assert op.C == pytest.approx(2.0 * 0.5 ** 2)
        assert op.H0 == 0.5

    def test_invariant_c_equals_4ah0sq(self):
        for rel, r0 in ((CMC(0.25), 2.0), (LinearWeingarten(1.0, 1.0, 1.0), 1.0)):
            op = cylinder_operator(rel, r0)
            assert op.C == pytest.approx(4.0 * op.A * op.H0 ** 2, rel=1e-15)
            assert op.A > 0 and op.B > 0 and op.C > 0

    def test_linear_weingarten_111(self):
        # g(t) = sqrt(2+t) - 1, g(1/4) = 1/2, g'(1/4) = 1/3
        op = cylinder_operator(LinearWeingarten(1.0, 1.0, 1.0), 1.0)
        assert op.A == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert op.B == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert op.C == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_relation_mismatch_rejected(self):
        # the cylinder (1, 0) does not satisfy 2*0*H + K = 1
        with pytest.raises(RelationError, match="does not satisfy"):
            cylinder_operator(LinearWeingarten(0.0, 1.0, 1.0), 1.0)

    def test_non_elliptic_cylinder_rejected(self):
        # g = 4 sqrt(t) - 1.5 holds on the unit cylinder (H0 = 1/2), where
        # g' = 4 and 4 H0^2 g'^2 = 16: A = -1.5 < 0
        g = ClosedForm("sqrt_offset", {"scale": 4.0, "offset": 0.0, "shift": -1.5}, HALF_LINE)
        with pytest.raises(EllipticityError, match=r"not elliptic: .* = 16 >= 1$"):
            cylinder_operator(GForm(g), 1.0)

    def test_fd_cross_check_via_variation(self):
        # A phi_ss + B phi_tt + C phi from the residual variation rate on a
        # cylinder patch, independent of the closed-form constants
        rel = LinearWeingarten(1.0, 1.0, 1.0)
        op = cylinder_operator(rel, 1.0)
        patch = cylinder_patch(0.8 / 96, half_width=0.4, length=1.2)
        X, Y = patch.xy()
        s = np.arcsin(np.clip(X, -1.0, 1.0))
        L, R = 1.0, 0.7
        phi = np.cos(np.pi * s / (2 * L)) * np.cos(np.pi * (Y - 0.6) / (2 * R))
        rate = weingarten_variation_rate(rel, patch, phi, 1e-5)
        pred = (-op.A * (np.pi / (2 * L)) ** 2 - op.B * (np.pi / (2 * R)) ** 2 + op.C) * phi
        m = np.isfinite(rate)
        assert np.max(np.abs(rate[m] - pred[m])) < 2e-3


class TestThreshold:
    def test_cmc_critical_square(self):
        op = cylinder_operator(CMC(0.5), 1.0)
        L_crit = 0.5 * math.pi * math.sqrt((op.A + op.B) / op.C)
        assert L_crit == pytest.approx(0.5 * math.pi * math.sqrt(2.0), abs=1e-10)
        assert perturbation_threshold(op, L_crit * (1 + 1e-9), L_crit * (1 + 1e-9)) > 0
        assert perturbation_threshold(op, L_crit * (1 - 1e-9), L_crit * (1 - 1e-9)) < 0

    def test_limits(self):
        op = cylinder_operator(CMC(0.5), 1.0)
        assert perturbation_threshold(op, 1e9, 1e9) == pytest.approx(op.C, rel=1e-12)
        assert perturbation_threshold(op, 1e-6, 1e-6) < -1e9

    def test_monotone_in_both_sizes(self):
        op = cylinder_operator(LinearWeingarten(1.0, 1.0, 1.0), 1.0)
        Ls = np.linspace(0.3, 5.0, 40)
        vals_L = [perturbation_threshold(op, L, 1.0) for L in Ls]
        vals_r = [perturbation_threshold(op, 1.0, r) for r in Ls]
        assert np.all(np.diff(vals_L) > 0)
        assert np.all(np.diff(vals_r) > 0)

    def test_bad_box_rejected(self):
        op = cylinder_operator(CMC(0.5), 1.0)
        with pytest.raises(ValueError):
            perturbation_threshold(op, 0.0, 1.0)

    def test_json(self):
        op = CylinderOperator(0.5, 0.5, 0.5, 0.5, 1.0)
        assert report_json(op) == {"A": 0.5, "B": 0.5, "C": 0.5, "H0": 0.5, "r0": 1.0}


class TestApplyLg:
    """L_g[phi] through the finite-difference oracle."""

    def test_cylinder_matches_constant_coefficients(self):
        errs = []
        for n in (48, 96):
            patch = cylinder_patch(0.8 / n, half_width=0.4, length=1.2)
            X, Y = patch.xy()
            s = np.arcsin(np.clip(X, -1.0, 1.0))
            L, R = 1.0, 0.7
            phi = np.cos(np.pi * s / (2 * L)) * np.cos(np.pi * (Y - 0.6) / (2 * R))
            op = cylinder_operator(CMC(0.5), 1.0)
            lg = weingarten_variation_rate(CMC(0.5), patch, phi, 1e-5)
            pred = perturbation_threshold(op, L, R) * phi
            m = np.isfinite(lg)
            errs.append(float(np.max(np.abs(lg[m] - pred[m]))))
        assert errs[1] <= 0.35 * errs[0]

    @pytest.mark.parametrize("name,rel", [
        ("sphere", CMC(1.0)),
        ("cylinder", LinearWeingarten(1.0, 1.0, 1.0)),
    ])
    def test_second_order_symbol_positive_definite(self, name, rel):
        # ellipticity of the relation makes w0*g^{-1} + g'*(T1 g^{-1})
        # positive definite pointwise
        from wlab.jets import mean_gauss
        from wlab.relation import g_of
        from wlab.grid import jet_fields
        patch = PATCH_MAKERS[name](48)
        p, q, r, s, t = jet_fields(patch)
        keep = np.isfinite(p)
        p, q, r, s, t = (a[keep] for a in (p, q, r, s, t))
        H, K = mean_gauss(p, q, r, s, t)
        g = g_of(rel)
        tt = np.maximum(H * H - K, 0.0)
        gv, gp = np.asarray(g(tt)), np.asarray(g.derivative(tt))
        w0 = 0.5 * (1.0 - 2.0 * gv * gp)
        w2 = 1.0 + p * p + q * q
        W = np.sqrt(w2)
        ginv = np.stack([np.stack([(1 + q * q) / w2, -p * q / w2], -1),
                         np.stack([-p * q / w2, (1 + p * p) / w2], -1)], -2)
        II = np.stack([np.stack([r, s], -1), np.stack([s, t], -1)], -2) / W[..., None, None]
        S = ginv @ II
        T1 = 2.0 * H[..., None, None] * np.eye(2) - S
        sym = w0[..., None, None] * ginv + gp[..., None, None] * (T1 @ ginv)
        sym = 0.5 * (sym + np.swapaxes(sym, -1, -2))
        assert np.min(np.linalg.eigvalsh(sym)) > 0.0


def test_perturbation_sign_drives_positivity():
    # positive threshold makes L_g[phi] > 0 strictly inside the box
    op = cylinder_operator(CMC(0.5), 1.0)
    L = 3.0
    assert perturbation_threshold(op, L, L) > 0
    patch = cylinder_patch(0.8 / 48, half_width=0.4, length=1.2)
    X, Y = patch.xy()
    s = np.arcsin(np.clip(X, -1.0, 1.0))
    phi = np.cos(np.pi * s / (2 * L)) * np.cos(np.pi * (Y - 0.6) / (2 * L))
    lg = weingarten_variation_rate(CMC(0.5), patch, phi, 1e-5)
    m = np.isfinite(lg)
    assert np.min(lg[m]) > 0.0
