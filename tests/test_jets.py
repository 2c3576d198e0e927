"""Jet-level curvature, residual and spectral tests.

The eigenvalue oracle here is deliberately independent of the closed
formula: the quadratic form (1+p^2+q^2)^2 * (H^2-K) in (r, s, t) is exactly
quadratic, so its Hessian is recovered without truncation error from
finitely many evaluations, and numpy's symmetric eigensolver provides the
spectrum."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shape_operator_pairs
from wlab.errors import EllipticityError
from wlab.jets import (Jet2, curvatures_of_jet, h2k_eigenvalues, mean_gauss, principal_curvatures,
                       q4, q4_rewritten, residual_fields)
from wlab.linop import ThetaBox, uniform_ellipticity_lambda
from wlab.relation import CMC, ClosedForm, GForm, LinearWeingarten, g_of


def scaled_form(p, q, r, s, t):
    H, K = mean_gauss(p, q, r, s, t)
    return (1.0 + p * p + q * q) ** 2 * (H * H - K)


def hessian_oracle(p, q):
    """Exact Hessian/2 of the scaled form in (r, s, t) from 10 evaluations
    (no truncation error: the form is quadratic)."""
    def f(r, s, t):
        return scaled_form(p, q, r, s, t)

    e = np.eye(3)
    M = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            M[i, j] = 0.5 * (f(*(e[i] + e[j])) - f(*e[i]) - f(*e[j]) + f(0.0, 0.0, 0.0))
    return M


radii = st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)


def sphere_jet(rho, a, b):
    """Jet of the lower hemisphere of radius rho (H = 1/rho) at (rho*a, rho*b)."""
    x, y = rho * a, rho * b
    w = math.sqrt(rho * rho - x * x - y * y)
    return Jet2(x / w, y / w, (rho * rho - y * y) / w ** 3, x * y / w ** 3,
                (rho * rho - x * x) / w ** 3)


def cylinder_jet(rho, a, angle):
    """Jet of the lower half of the cylinder of radius rho (H = 1/(2 rho))
    whose axis is horizontal and normal to (cos angle, sin angle), at
    distance rho*a from the axis."""
    xi = rho * a
    w = math.sqrt(rho * rho - xi * xi)
    c, s = math.cos(angle), math.sin(angle)
    k = rho * rho / w ** 3
    return Jet2(xi / w * c, xi / w * s, k * c * c, k * c * s, k * s * s)


def linear_through(H, K, beta):
    """Linear relation 2H + beta*K = delta satisfied at the state (H, K)."""
    return LinearWeingarten(1.0, beta, 2.0 * H + beta * K)


def residual(rel, j: Jet2) -> float:
    return float(residual_fields(g_of(rel), *astuple(j)))


def gradient(rel, j: Jet2) -> np.ndarray:
    """(F_p, F_q, F_r, F_s, F_t) of the residual: the analytic gradient that
    Newton's Jacobian is assembled from."""
    _, grads = residual_fields(g_of(rel), *astuple(j), with_gradient=True)
    return np.array([float(v) for v in grads])


def fd_gradient(rel, j: Jet2, step: float = 1e-6) -> np.ndarray:
    """Oracle for `gradient`: central differences of the residual, with a
    step of step * (1 + |component|) in each jet component."""
    g, base = g_of(rel), np.array(astuple(j))
    out = np.empty(5)
    for i in range(5):
        h = step * (1.0 + abs(base[i]))
        hi, lo = base.copy(), base.copy()
        hi[i] += h
        lo[i] -= h
        out[i] = (float(residual_fields(g, *hi)) - float(residual_fields(g, *lo))) / (2.0 * h)
    return out


class TestCurvatures:
    def test_plane(self):
        assert curvatures_of_jet(Jet2(0, 0, 0, 0, 0)) == (0.0, 0.0)

    def test_unit_sphere_jet(self):
        H, K = curvatures_of_jet(Jet2(0, 0, 1, 0, 1))
        assert H == pytest.approx(1.0, abs=1e-15)
        assert K == pytest.approx(1.0, abs=1e-15)

    def test_tilted_jet(self):
        H, K = curvatures_of_jet(Jet2(1, 0, 1, 0, 1))
        assert H == pytest.approx(3.0 / (4.0 * math.sqrt(2.0)), abs=1e-15)
        assert K == pytest.approx(0.25, abs=1e-15)

    def test_h2_minus_k_nonnegative(self, rng):
        j = rng.normal(0.0, 2.0, (5, 20000))
        H, K = mean_gauss(*j)
        assert np.min(H * H - K) >= -1e-14

    def test_principal_curvatures_are_the_shape_operator_eigenvalues(self, rng):
        p, q, r, s, t = rng.normal(0.0, 1.5, (5, 2000))
        k = np.column_stack(principal_curvatures(p, q, r, s, t))
        ref = shape_operator_pairs(p, q, r, s, t)
        scale = np.max(np.abs(ref), axis=1)
        assert np.max(np.max(np.abs(k - ref), axis=1) / scale) < 1e-12
        H, K = mean_gauss(p, q, r, s, t)
        assert np.max(np.abs(k.mean(axis=1) - H) / scale) < 1e-12
        assert np.max(np.abs(k.prod(axis=1) - K) / scale ** 2) < 1e-12

    @settings(derandomize=True, deadline=None)
    @given(radii, st.floats(0.0, 0.9), st.floats(0.0, 2.0 * math.pi))
    def test_sphere_jets_are_umbilic_to_the_last_digits(self, rho, frac, angle):
        # H +- sqrt(H^2 - K) would keep only about half of these digits
        jet = sphere_jet(rho, frac * math.cos(angle), frac * math.sin(angle))
        for k in principal_curvatures(*astuple(jet)):
            assert abs(k * rho - 1.0) <= 1e-14

    def test_rotation_covariance(self, rng):
        for _ in range(1000):
            p, q, r, s, t = rng.normal(0.0, 1.5, 5)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            c, d = math.cos(phi), math.sin(phi)
            R = np.array([[c, -d], [d, c]])
            pq2 = R.T @ np.array([p, q])
            M2 = R.T @ np.array([[r, s], [s, t]]) @ R
            H1, K1 = mean_gauss(p, q, r, s, t)
            H2, K2 = mean_gauss(pq2[0], pq2[1], M2[0, 0], M2[0, 1], M2[1, 1])
            assert abs(H1 - H2) < 1e-12 and abs(K1 - K2) < 1e-12


class TestResidual:
    def test_cmc_sphere_jet_zero(self):
        assert residual(CMC(1.0), Jet2(0, 0, 1, 0, 1)) == 0.0

    def test_minimal_plane_zero(self):
        assert residual(CMC(0.0), Jet2(0, 0, 0, 0, 0)) == 0.0

    def test_cmc_plane_is_minus_one(self):
        assert residual(CMC(1.0), Jet2(0, 0, 0, 0, 0)) == -1.0

    def test_gradient_cmc_origin(self):
        grad = gradient(CMC(0.7), Jet2(0, 0, 0, 0, 0))
        assert grad[2] == pytest.approx(0.5, abs=1e-12)   # F_r
        assert grad[3] == pytest.approx(0.0, abs=1e-12)   # F_s
        assert grad[4] == pytest.approx(0.5, abs=1e-12)   # F_t

    def test_gradient_f_t_formula(self, rng):
        # F_t = (1+p^2)/(2(1+p^2+q^2)^(3/2)) for constant g
        for _ in range(25):
            j = Jet2(*rng.normal(0.0, 1.0, 5))
            grad = gradient(CMC(2.0), j)
            expected = (1.0 + j.p ** 2) / (2.0 * (1.0 + j.p ** 2 + j.q ** 2) ** 1.5)
            assert grad[4] == pytest.approx(expected, rel=1e-12)

    def test_gradient_symmetry_signs(self, rng):
        # (p,q,r,s,t) -> (-p,q,r,-s,t) flips F_p and keeps F_r
        rel = GForm(ClosedForm("sqrt_offset", {"scale": 0.5, "offset": 1.0, "shift": 0.0}))
        for _ in range(25):
            p, q, r, s, t = rng.normal(0.0, 1.0, 5)
            g1 = gradient(rel, Jet2(p, q, r, s, t))
            g2 = gradient(rel, Jet2(-p, q, r, -s, t))
            assert g1[0] == pytest.approx(-g2[0], rel=1e-9, abs=1e-12)
            assert g1[2] == pytest.approx(g2[2], rel=1e-9, abs=1e-12)

    @settings(derandomize=True, deadline=None)
    @given(radii, st.floats(0.0, 0.9), st.floats(0.0, 2.0 * math.pi), st.floats(0.1, 10.0))
    def test_exact_sphere_jets_at_every_scale(self, rho, frac, angle, c):
        jet = sphere_jet(rho, frac * math.cos(angle), frac * math.sin(angle))
        H, K = 1.0 / rho, 1.0 / rho ** 2
        for rel in (CMC(H), linear_through(H, K, c * rho)):
            assert abs(residual(rel, jet)) <= 1e-10 * H

    @settings(derandomize=True, deadline=None)
    @given(radii, st.floats(-0.9, 0.9), st.floats(0.0, 2.0 * math.pi), st.floats(0.1, 10.0))
    def test_exact_cylinder_jets_at_every_scale(self, rho, frac, angle, c):
        jet = cylinder_jet(rho, frac, angle)
        H = 0.5 / rho
        for rel in (CMC(H), linear_through(H, 0.0, c * rho)):
            assert abs(residual(rel, jet)) <= 1e-10 * H

    @pytest.mark.parametrize("rel", [
        CMC(1.0),
        LinearWeingarten(0.0, 1.0, 1.0),
        LinearWeingarten(1.0, 1.0, 1.0),
        GForm(ClosedForm("sqrt_offset", {"scale": 0.5, "offset": 1.0, "shift": -0.5})),
    ])
    def test_analytic_matches_finite_differences(self, rel, rng):
        for _ in range(40):
            j = Jet2(*rng.normal(0.0, 1.2, 5))
            ga = gradient(rel, j)
            gf = fd_gradient(rel, j)
            assert np.max(np.abs(ga - gf) / (1.0 + np.abs(ga))) < 1e-6


class TestSpectrum:
    def test_origin_values(self):
        l1, l2, z = h2k_eigenvalues(0.0, 0.0)
        assert (float(l1), float(l2), float(z)) == (1.0, 0.5, 0.0)

    def test_origin_matches_oracle(self):
        ev = np.sort(np.linalg.eigvalsh(hessian_oracle(0.0, 0.0)))[::-1]
        assert np.allclose(ev, [1.0, 0.5, 0.0], atol=1e-14)

    def test_spectral_identity_at_origin(self):
        # form value at (r,s,t) = (1,0,-1) is 1 = lambda * |component|^2
        # with (1,0,-1)/sqrt(2) the eigenvector of lambda = 1/2
        val = scaled_form(0.0, 0.0, 1.0, 0.0, -1.0)
        assert val == pytest.approx(1.0, abs=1e-15)
        assert val == pytest.approx(0.5 * 2.0, abs=1e-15)

    def test_closed_formula_vs_oracle(self, rng):
        worst = 0.0
        for _ in range(2000):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rad = 1.5 * math.sqrt(rng.uniform(0.0, 1.0))
            p, q = rad * math.cos(ang), rad * math.sin(ang)
            ev = np.sort(np.linalg.eigvalsh(hessian_oracle(p, q)))[::-1]
            l1, l2, _ = h2k_eigenvalues(p, q)
            worst = max(worst, abs(ev[0] - float(l1)), abs(ev[1] - float(l2)), abs(ev[2]))
        assert worst < 1e-10

    def test_trace_identity(self, rng):
        for _ in range(200):
            p, q = rng.uniform(-1.4, 1.4, 2)
            l1, l2, z = h2k_eigenvalues(p, q)
            assert float(l1 + l2 + z) == pytest.approx(np.trace(hessian_oracle(p, q)), abs=1e-12)


class TestQ4:
    def test_value_at_origin(self):
        assert float(q4(0.0, 0.0)) == 4.0
        assert float(q4_rewritten(0.0, 0.0)) == 4.0

    def test_identity_on_samples(self, rng):
        x = rng.uniform(0.0, 10.0, 100_000)
        y = rng.uniform(0.0, 10.0, 100_000)
        a, b = q4(x, y), q4_rewritten(x, y)
        assert np.max(np.abs(a - b) / (1.0 + np.abs(a))) < 1e-9

    def test_positive_on_slope_disk(self, rng):
        ang = rng.uniform(0.0, 2.0 * math.pi, 20_000)
        rad = 1.5 * np.sqrt(rng.uniform(0.0, 1.0, 20_000))
        p, q = rad * np.cos(ang), rad * np.sin(ang)
        assert np.min(q4(p * p, q * q)) > 0.0

    def test_vanishes_only_on_the_critical_circle(self):
        # the square term vanishes on x + y = 1 + sqrt(3), outside the slope disk
        crit = 1.0 + math.sqrt(3.0)
        assert crit > 9.0 / 4.0
        assert float(q4(crit, 0.0)) == pytest.approx(0.0, abs=1e-12)


class TestUniformEllipticity:
    def test_minimal_origin_symbol(self):
        lam = uniform_ellipticity_lambda(CMC(0.0))
        assert 0.0 < lam <= 0.5 + 1e-12

    def test_cmc_independent_of_level(self):
        lam1 = uniform_ellipticity_lambda(CMC(0.5))
        lam2 = uniform_ellipticity_lambda(CMC(5.0))
        assert lam1 == pytest.approx(lam2, rel=1e-12)

    def test_uniform_relation_positive(self):
        rel = GForm(ClosedForm("sqrt_offset", {"scale": 0.5, "offset": 1.0, "shift": 0.0}))
        lam = uniform_ellipticity_lambda(rel)
        assert lam > 0.0

    def test_rejects_non_uniform(self):
        with pytest.raises(EllipticityError):
            uniform_ellipticity_lambda(LinearWeingarten(0.0, 1.0, 1.0))

    def test_box_sampling_stays_inside(self, rng):
        box = ThetaBox()
        jets = box.sample(500, rng)
        assert np.all(jets[:, 0] ** 2 + jets[:, 1] ** 2 <= box.slope_bound + 1e-12)
        assert np.all(np.sum(np.abs(jets), axis=1) <= box.l1_bound + 1e-12)
