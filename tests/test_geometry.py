"""Parallel-surface algebra and rotational profile tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import planar_curvature_5pt
from wlab import geometry
from wlab.errors import DomainError, RelationError
from wlab.geometry import (ProfileCurve, conjugate_relation,
                           detect_period, f_a, offset_profile, parallel_curvatures,
                           rotational_profile, angle_function)
from wlab.relation import (CMC, ClosedForm, FForm, GForm, Interval, LinearWeingarten,
                           f_function, g_to_f, relation_to_json)


class TestMobiusTransform:
    def test_f1_half(self):
        assert f_a(0.5, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_fixed(self):
        for a in (-2.0, 0.3, 5.0):
            assert f_a(0.0, a) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_roundtrip(self, a, x):
        if abs(1.0 + a * x) < 1e-3 or abs(a * x) > 1e3:
            return
        assert f_a(f_a(x, -a), a) == pytest.approx(x, abs=1e-12, rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            f_a(1.0, 1.0)

    def test_strictly_increasing_on_branch(self):
        ts = np.linspace(-0.9, 0.9, 100)
        vals = f_a(ts, 1.0)
        assert np.all(np.diff(vals) > 0)


class TestParallelCurvatures:
    def test_cylinder_to_negative_cmc(self):
        pair, factors = parallel_curvatures([2.0, 0.0], 1.0)
        assert pair.tolist() == [[0.0, -2.0]]
        assert factors.tolist() == [[1.0, 1.0]]

    def test_umbilic_stays_umbilic(self):
        pair, _ = parallel_curvatures([0.5, 0.5], 0.7)
        assert pair[0, 0] == pair[0, 1]

    def test_zero_distance_identity(self):
        pair, factors = parallel_curvatures([1.3, -0.2], 0.0)
        assert pair.tolist() == [[1.3, -0.2]]
        assert factors.tolist() == [[1.0, 1.0]]

    def test_pole_named(self):
        with pytest.raises(DomainError, match="k1"):
            parallel_curvatures([2.0, 1.0], 0.5)
        with pytest.raises(DomainError, match=r"k2 = 2.0 \(pair 1\)"):
            parallel_curvatures([[3.0, 1.0], [0.0, 2.0]], 0.5)

    def test_rows_ordered_with_aligned_factors(self):
        ks = np.array([[0.0, 2.0], [-1.3, 0.7], [0.5, 0.5], [2.0, 0.0]])
        a = 0.3
        kt, factors = parallel_curvatures(ks, a)
        assert np.all(kt[:, 0] >= kt[:, 1])
        for row, out, fac in zip(ks, kt, factors):
            for k in row:
                j = int(np.flatnonzero(out == f_a(k, a))[0])
                assert fac[j] == (1.0 - a * k) ** 2

    def test_back_and_forth_identity(self, rng):
        checked = 0
        while checked < 300:
            k1, k2 = rng.uniform(-3, 3, 2)
            a = rng.uniform(-1.5, 1.5)
            if min(abs(1 - a * k1), abs(1 - a * k2)) < 0.1:
                continue
            fwd, _ = parallel_curvatures([k1, k2], a)
            if np.min(np.abs(1 + a * fwd)) < 0.1:
                continue
            back, _ = parallel_curvatures(fwd, -a)
            assert back[0, 0] == pytest.approx(max(k1, k2), abs=1e-12)
            assert back[0, 1] == pytest.approx(min(k1, k2), abs=1e-12)
            checked += 1


class TestConjugation:
    def test_cmc_to_cmc(self):
        conj = conjugate_relation(CMC(1.0), 1.0)
        assert isinstance(conj, CMC)
        assert conj.h0 == pytest.approx(-1.0, abs=1e-14)

    def test_identity_at_zero(self):
        rel = LinearWeingarten(1.0, 1.0, 1.0)
        assert conjugate_relation(rel, 0.0) is rel

    def test_linear_stays_linear_with_graph_agreement(self, rng):
        for _ in range(25):
            al, be = rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0)
            de = rng.uniform((-al * al / be) + 0.2, 2.5)
            a = rng.uniform(-0.8, 0.8)
            rel = LinearWeingarten(al, be, de)
            conj = conjugate_relation(rel, a)
            assert isinstance(conj, (LinearWeingarten, CMC))
            f = f_function(rel)
            f2 = f_function(conj)
            xs = f.domain.lo + np.logspace(-2, 1.2, 60) if math.isfinite(f.domain.lo) \
                else np.linspace(-8.0, 8.0, 60)
            for x in xs:
                if abs(1 - a * x) < 1e-2:
                    continue
                y = float(np.asarray(f(x)))
                if abs(1 - a * y) < 1e-2:
                    continue
                target = y / (1.0 - a * y)
                xp = x / (1.0 - a * x)
                if not f2.domain.contains(xp, tol=0.0) or abs(xp) > 1e6:
                    continue
                assert float(np.asarray(f2(xp))) == pytest.approx(target, rel=1e-10, abs=1e-10)

    def test_discriminant_preserved(self):
        rel = LinearWeingarten(0.3, 1.2, 0.9)
        conj = conjugate_relation(rel, 0.45)
        assert conj.discriminant == pytest.approx(rel.discriminant, rel=1e-12)

    def test_sampled_conjugation_is_involution(self):
        grid = np.concatenate([[0.0], np.logspace(-6, 2, 600)])
        ff = g_to_f(GForm(ClosedForm("sqrt_offset",
                                     {"scale": 0.5, "offset": 1.0, "shift": 0.0})), grid)
        conj = conjugate_relation(ff, 0.05)
        xs = conj.f.breakpoints[::25]
        fx = np.asarray(conj.f(xs))
        inside = conj.f.domain.contains(fx)
        err = np.abs(np.asarray(conj.f(fx[inside])) - xs[inside])
        assert np.max(err / (1.0 + np.abs(xs[inside]))) < 1e-8

    @pytest.mark.parametrize("a", [0.001, -0.002])
    def test_g_form_conjugation_round_trips(self, a):
        # a g-form is conjugated on the breakpoints of g_to_f's default grid
        rel = GForm(ClosedForm("sqrt_offset", {"scale": 0.5, "offset": 1.0, "shift": 0.0}))
        base = g_to_f(rel).f
        back = conjugate_relation(conjugate_relation(rel, a), -a).f
        for name in ("breakpoints", "values", "derivatives"):
            np.testing.assert_allclose(getattr(back, name), getattr(base, name),
                                       rtol=1e-12, atol=0.0)

    def test_g_form_grid_across_the_pole_rejected(self):
        # g_to_f's default grid reaches x ~ 150, past the pole 1/a = 5
        rel = GForm(ClosedForm("sqrt_offset", {"scale": 0.5, "offset": 1.0, "shift": 0.0}))
        with pytest.raises(RelationError, match=r"pole x = 1/a = 5: .* x = 5\.0"):
            conjugate_relation(rel, 0.2)

    def test_values_across_the_pole_rejected(self):
        # x stays below 1/a = 10, but f(x) falls from 58 at x = -1.9 through 10
        ff = FForm(ClosedForm("mobius", {"alpha": 1.0, "beta": 0.5, "delta": 1.0},
                              Interval(-1.9, 5.0)))
        with pytest.raises(RelationError, match=r"pole f\(x\) = 1/a = 10: .* x = -1\.49\d*, "
                                                r"f\(x\) = 9\.99"):
            conjugate_relation(ff, 0.1)

    @pytest.mark.parametrize("a", [0.01, 0.02])
    def test_closed_form_sampling_matches_linear_map(self, a):
        ff = FForm(ClosedForm("mobius", {"alpha": 1.0, "beta": 0.5, "delta": 1.0},
                              Interval(-1.5, 30.0)))
        sampled = conjugate_relation(ff, a).f
        exact = f_function(conjugate_relation(LinearWeingarten(1.0, 0.5, 1.0), a))
        lo = max(sampled.domain.lo, exact.domain.lo)
        hi = min(sampled.domain.hi, exact.domain.hi)
        xs = np.linspace(lo, hi, 1001)[1:-1]
        np.testing.assert_allclose(np.asarray(sampled(xs)), np.asarray(exact(xs)), rtol=1e-6)

    def test_linear_conjugate_keeps_the_offset_branch(self):
        # F_a o f o F_{-a} for 400 linear relations with either sign of beta,
        # each as a LinearWeingarten and as the f-form of its `f_function`:
        # the conjugate's canonical branch must hold F_a of the input's fixed
        # point, also where beta' = beta + 2 alpha a - delta a^2 < 0
        rng = np.random.default_rng(2024)
        checked = flipped = 0
        for _ in range(400):
            al = rng.uniform(-1.5, 1.5)
            be = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
            disc = rng.uniform(0.05, 3.0)
            de = (disc - al * al) / be
            a = rng.uniform(-0.8, 0.8)
            rel = LinearWeingarten(al, be, de)
            u0 = (-al + math.sqrt(rel.discriminant)) / be
            if abs(1.0 - a * u0) < 1e-3:
                continue      # the offset of the umbilic sphere is a point
            flipped += be + 2.0 * al * a - de * a * a < 0.0
            target = u0 / (1.0 - a * u0)
            f = f_function(rel)
            for form in (rel, FForm(f)):
                conj = conjugate_relation(form, a)
                assert relation_to_json(conj) == relation_to_json(conjugate_relation(rel, a))
                f2 = f_function(conj)
                assert float(f2(target)) == pytest.approx(target, rel=1e-9, abs=1e-12)
                pole = f2.domain.hi if math.isfinite(f2.domain.hi) else f2.domain.lo
                step = 1e-3 * min(1.0, abs(target - pole)) if math.isfinite(pole) else 1e-3
                for x in target + step * np.array([-1.0, 1.0]):
                    y = f_a(float(f(float(f_a(x, -a)))), a)
                    assert float(f2(x)) == pytest.approx(y, rel=1e-9, abs=1e-12)
                checked += 1
        assert checked >= 790 and flipped >= 50

    @pytest.mark.parametrize("lam", [1e4, 1.0, 1e-8, 1e-14, 1e-15, 1e-16, 1e-100])
    def test_cmc_conjugate_is_free_of_the_length_scale(self, lam):
        # CMC(1) at a = 0.3 is LinearWeingarten(0.4, 0.42, 2); at length
        # scale lam, beta' scales by lam and delta' by 1/lam, and the way
        # back by -0.3*lam returns CMC(1/lam)
        conj = conjugate_relation(CMC(1.0 / lam), 0.3 * lam)
        assert isinstance(conj, LinearWeingarten)
        ref = conjugate_relation(CMC(1.0), 0.3)
        assert (ref.alpha, ref.beta, ref.delta) == pytest.approx((0.4, 0.42, 2.0), rel=1e-15)
        assert (conj.alpha, conj.beta / lam, conj.delta * lam) == pytest.approx(
            (ref.alpha, ref.beta, ref.delta), rel=3e-16)
        back = conjugate_relation(conj, -0.3 * lam)
        assert isinstance(back, CMC)
        assert back.h0 * lam == pytest.approx(1.0, rel=3e-16)

    @pytest.mark.parametrize("a", [0.3, -0.3])
    def test_cmc_f_form_conjugates_exactly(self, a):
        # the affine f of CMC(1) on the whole line: its pole 1/a is inside any
        # sample window, so only the linear map conjugates it
        conj = conjugate_relation(FForm(f_function(CMC(1.0))), a)
        assert conj == conjugate_relation(CMC(1.0), a)
        fixed = 1.0 / (1.0 - a)
        assert float(f_function(conj)(fixed)) == pytest.approx(fixed, rel=1e-12)

    def test_cylinder_cross_check(self):
        # the cylinder pair (2, 0) of CMC(1) maps, at a = 1, to the pair
        # (0, -2) of the conjugated class CMC(-1)
        conj = conjugate_relation(CMC(1.0), 1.0)
        k1, k2 = parallel_curvatures([2.0, 0.0], 1.0)[0][0]
        f2 = f_function(conj)
        assert float(np.asarray(f2(k1))) == pytest.approx(k2, abs=1e-12)


class _Stop(Exception):
    pass


def rk4_reference(rel, seed, step, s_max):
    """Reference: the RK4 loop with a numpy state and a fresh first stage
    (5n + 1 calls of f) that rotational_profile replaced.  Same arithmetic,
    so equal results.  Returns rows (s, r, z, theta, kappa_m, kappa_p)."""
    f = f_function(rel)
    if f is None:
        f = g_to_f(rel).f

    def rhs(state):
        r, z, th = state
        if r < 1e-6:
            raise _Stop("axis_contact")
        kp = math.sin(th) / r
        if not (f.domain.lo - 1e-12 <= kp <= f.domain.hi + 1e-12):
            raise _Stop("domain_exit")
        km = float(np.asarray(f(kp)))
        return np.array([math.cos(th), math.sin(th), km]), km, kp

    state = np.array(seed, dtype=float)
    _, km, kp = rhs(state)
    rows, reason = [(0.0, *state, km, kp)], "s_max"
    try:
        for k in range(max(int(math.ceil(s_max / step)), 1)):
            k1v, _, _ = rhs(state)
            k2v, _, _ = rhs(state + 0.5 * step * k1v)
            k3v, _, _ = rhs(state + 0.5 * step * k2v)
            k4v, _, _ = rhs(state + step * k3v)
            state = state + (step / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            _, km, kp = rhs(state)
            rows.append(((k + 1) * step, *state, km, kp))
    except _Stop as stop:
        reason = str(stop)
    return np.array(rows), reason


class TestRotationalProfiles:
    def test_sphere_circle_invariant(self):
        theta0 = 0.6
        prof = rotational_profile(CMC(1.0), (math.sin(theta0), 0.0, theta0),
                                  step=1e-3, s_max=1.5)
        assert prof.reason == "s_max"
        assert np.max(np.abs(prof.r - np.sin(prof.theta))) < 1e-10

    def test_sphere_reaches_axis(self):
        theta0 = 0.6
        prof = rotational_profile(CMC(1.0), (math.sin(theta0), 0.0, theta0),
                                  step=1e-3, s_max=10.0)
        assert prof.reason == "axis_contact"
        assert prof.s[-1] < math.pi

    def test_cylinder_fixed_point(self):
        # f(0) = 2*H0 = c; the vertical line r = 1/c is stationary
        prof = rotational_profile(CMC(0.5), (1.0, 0.0, math.pi / 2), step=1e-3, s_max=3.0)
        assert np.max(np.abs(prof.r - 1.0)) < 1e-12
        assert np.max(np.abs(prof.theta - math.pi / 2)) < 1e-12
        assert np.max(np.abs(prof.z - prof.s)) < 1e-12

    def test_cmc_sum_invariant(self):
        prof = rotational_profile(CMC(0.5), (0.5, 0.0, math.pi / 2), step=1e-3, s_max=20.0)
        assert np.max(np.abs(prof.kappa_m + prof.kappa_p - 1.0)) < 1e-8

    def test_tangent_consistency(self):
        # (r', z') = (cos theta, sin theta) to integration tolerance
        from conftest import d1_5pt
        prof = rotational_profile(CMC(0.5), (0.5, 0.0, math.pi / 2), step=1e-3, s_max=6.0)
        h = prof.s[1] - prof.s[0]
        rp, zp = d1_5pt(prof.r, h), d1_5pt(prof.z, h)
        m = np.isfinite(rp)
        assert np.max(np.abs(rp[m] - np.cos(prof.theta[m]))) < 1e-9
        assert np.max(np.abs(zp[m] - np.sin(prof.theta[m]))) < 1e-9

    def test_relation_residual_along_curve(self):
        rel = FForm(f_function(CMC(0.5)))
        prof = rotational_profile(rel, (0.7, 0.0, math.pi / 2), step=1e-3, s_max=8.0)
        f = f_function(rel)
        res = prof.kappa_m - np.asarray(f(prof.kappa_p))
        assert np.max(np.abs(res)) < 1e-8

    def test_geometric_meridian_curvature(self):
        # independent check: theta' recovered from (r, z) by 4th-order stencils
        prof = rotational_profile(CMC(0.5), (0.5, 0.0, math.pi / 2), step=1e-3, s_max=6.0)
        km = planar_curvature_5pt(prof.r, prof.z, prof.s[1] - prof.s[0])
        m = np.isfinite(km)
        assert np.max(np.abs(km[m] - prof.kappa_m[m])) < 1e-8

    def test_domain_exit_reported(self):
        # f restricted to a window that the oscillating trajectory leaves
        import wlab.relation as R
        narrow = FForm(ClosedForm("affine", {"intercept": 1.0, "slope": -1.0},
                                  domain=R.Interval(0.45, 0.60)))
        prof = rotational_profile(narrow, (1.9, 0.0, math.pi / 2), step=1e-3, s_max=5.0)
        assert prof.reason == "domain_exit"
        assert len(prof) > 1

    @pytest.mark.parametrize("rel", [CMC(0.8), GForm(ClosedForm(
        "sqrt_offset", {"scale": 0.4, "offset": 1.0, "shift": 0.1}))])
    def test_four_f_calls_per_step(self, rel, monkeypatch):
        calls = []

        class Counted:
            def __init__(self, f):
                self.f, self.domain = f, f.domain

            def __call__(self, x):
                calls.append(x)
                return self.f(x)

        monkeypatch.setattr(geometry, "f_function",
                            lambda r: None if f_function(r) is None else Counted(f_function(r)))
        monkeypatch.setattr(geometry, "g_to_f", lambda r: FForm(Counted(g_to_f(r).f)))
        prof = rotational_profile(rel, (0.6, 0.0, math.pi / 2), step=1e-2, s_max=1.5)
        assert prof.reason == "s_max"
        n = len(prof) - 1
        assert n == 150
        assert len(calls) == 4 * n + 1
        assert all(type(x) is float for x in calls)

    @pytest.mark.parametrize("rel, seed, s_max", [
        (CMC(0.9), (0.25, 0.0, math.pi / 2), 4.0),                         # unduloid
        (GForm(ClosedForm("sqrt_offset", {"scale": 0.45, "offset": 0.8, "shift": 0.05})),
         (0.6, 0.0, math.pi / 2), 2.0),                                    # through g_to_f
        (CMC(1.0), (math.sin(0.6), 0.0, 0.6), 3.0),                        # axis contact
        (FForm(ClosedForm("affine", {"intercept": 1.0, "slope": -1.0},
                          domain=Interval(0.45, 0.60))), (1.9, 0.0, math.pi / 2), 5.0),
    ])
    def test_equal_to_the_numpy_state_loop(self, rel, seed, s_max):
        prof = rotational_profile(rel, seed, step=1e-3, s_max=s_max)
        rows, reason = rk4_reference(rel, seed, 1e-3, s_max)
        assert prof.reason == reason
        got = np.column_stack([prof.s, prof.r, prof.z, prof.theta, prof.kappa_m, prof.kappa_p])
        assert np.array_equal(got, rows)

    # the stage whose radius first falls below AXIS_RADIUS: 2, 3 and 4 are
    # the RK4 stages and 5 the step's end point
    @pytest.mark.parametrize("stage, h0, seed, step", [
        (2, 2.01, (0.2155, 0.0, 2.8), 0.091),
        (3, 2.55, (0.1052, 0.0, 2.72), 0.108),
        (4, 1.78, (0.0375, 0.0, 2.95), 0.019),
        (5, 0.24, (0.1648, 0.0, 3.22), 0.111),
    ])
    def test_axis_contact_at_each_stage(self, stage, h0, seed, step, monkeypatch):
        """Contact at a stage ends the profile at the last full step, after
        one f call for each stage before it: at most 4n + 1 calls in all for
        n steps begun."""
        f, calls = f_function(CMC(h0)), []
        monkeypatch.setattr(geometry, "f_function", lambda rel: lambda x: calls.append(x) or f(x))
        prof = rotational_profile(CMC(h0), seed, step=step, s_max=1.0)
        done = len(prof) - 1
        assert prof.reason == "axis_contact" and done >= 1
        assert len(calls) == 4 * done + stage - 1 <= 4 * (done + 1) + 1
        rows, reason = rk4_reference(CMC(h0), seed, step, 1.0)
        assert reason == "axis_contact"
        assert np.array_equal(np.column_stack([prof.s, prof.r, prof.z, prof.theta, prof.kappa_m,
                                               prof.kappa_p]), rows)

    def test_bad_seed_rejected(self):
        with pytest.raises(RelationError):
            rotational_profile(CMC(0.5), (0.0, 0.0, math.pi / 2), step=1e-3, s_max=1.0)


    @pytest.mark.parametrize("step, s_max", [(0.0, 1.0), (-0.1, 1.0), (math.nan, 1.0),
                                             (1e-3, math.inf), (1e-3, math.nan),
                                             (1e-3, 0.0), (1e-3, -1.0)])
    def test_bad_step_or_length_rejected(self, step, s_max):
        with pytest.raises(ValueError, match="finite step"):
            rotational_profile(CMC(0.5), (0.5, 0.0, math.pi / 2), step=step, s_max=s_max)

    @pytest.mark.parametrize("step, s_max", [(1e-300, 1.0), (1e-10, 1e308)])
    def test_profile_past_the_bound_rejected(self, step, s_max):
        """1e300 steps, and a step count that overflows to inf, are refused
        before any step is taken."""
        with pytest.raises(ValueError, match="exceeds 1000000"):
            rotational_profile(CMC(0.5), (0.5, 0.0, math.pi / 2), step=step, s_max=s_max)

    def test_profile_at_the_bound_runs(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_PROFILE_STEPS", 10)
        seed = (0.5, 0.0, math.pi / 2)
        assert len(rotational_profile(CMC(0.5), seed, step=0.1, s_max=1.0)) == 11
        with pytest.raises(ValueError, match="exceeds 10$"):
            rotational_profile(CMC(0.5), seed, step=0.1, s_max=1.05)

    def test_seed_on_the_axis_rejected(self):
        with pytest.raises(RelationError, match=r"^profile seed is not integrable: r = 5e-07 is on"):
            rotational_profile(CMC(0.5), (5e-7, 0.0, math.pi / 2))


class TestPeriodDetection:
    def quad_oracle(self, H0, r0):
        # first integral J = r sin(theta) - H0 r^2; period by quadrature
        J = r0 - H0 * r0 * r0
        rm, rp = sorted(np.roots([-H0, 1.0, -J]).real)

        def igd(phi):
            r = rm + (rp - rm) * math.sin(phi) ** 2
            dr = (rp - rm) * 2.0 * math.sin(phi) * math.cos(phi)
            s = (J + H0 * r * r) / r
            c2 = max(1.0 - s * s, 0.0)
            return dr / math.sqrt(c2) if c2 > 0 else 0.0

        half, _ = quad(igd, 0.0, math.pi / 2, limit=200)
        return 2.0 * half

    def test_unduloid_period_matches_quadrature(self):
        prof = rotational_profile(CMC(0.5), (0.5, 0.0, math.pi / 2), step=1e-3, s_max=25.0)
        T = detect_period(prof)
        assert T is not None
        assert T == pytest.approx(self.quad_oracle(0.5, 0.5), rel=1e-8)

    def test_stability_under_step_halving(self):
        T1 = detect_period(rotational_profile(CMC(0.5), (0.5, 0.0, math.pi / 2),
                                              step=1e-3, s_max=25.0))
        T2 = detect_period(rotational_profile(CMC(0.5), (0.5, 0.0, math.pi / 2),
                                              step=5e-4, s_max=25.0))
        assert abs(T1 - T2) / T1 < 1e-3

    def test_first_return_found_at_coarse_step(self):
        # unduloids over H0 in [0.6, 1.5] x r0*H0 in [0.15, 0.35] at step 5e-3;
        # s_max reaches just past the first return (pi/H0), not to the second
        for h0 in np.linspace(0.6, 1.5, 19):
            for neck in np.linspace(0.15, 0.35, 9):
                prof = rotational_profile(CMC(h0), (neck / h0, 0.0, math.pi / 2), step=5e-3,
                                          s_max=1.1 * math.pi / h0)
                T = detect_period(prof)
                assert T is not None and abs(T - math.pi / h0) < 1e-3, (h0, neck, T)

    def test_shallow_minimum_skipped(self):
        # a phase distance that goes out to 1, back to a shallow minimum of
        # 0.04 (below a quarter of the leave radius 0.25, but too far for a
        # return at this step), out past 0.25 again, and back through 0
        ints = np.concatenate([np.arange(0, 51), np.arange(49, 1, -1), np.arange(3, 26),
                               np.arange(24, -3, -1)])
        s = 0.01 * np.arange(ints.size)
        zero = np.zeros(ints.size)
        prof = ProfileCurve(s, 1.0 + 0.02 * ints, zero, zero + 1.0, zero, zero)
        assert detect_period(prof) == s[np.flatnonzero(ints == 0)[-1]]

    def test_no_period_for_cylinder(self):
        prof = rotational_profile(CMC(0.5), (1.0, 0.0, math.pi / 2), step=1e-3, s_max=5.0)
        assert detect_period(prof) is None


class TestOffsetProfile:
    def test_cylinder_offset_curvatures_fd(self):
        prof = rotational_profile(CMC(0.5), (1.0, 0.0, math.pi / 2), step=1e-3, s_max=2.0)
        off = offset_profile(prof, 0.4)
        # parallel curvature from geometry of the offset samples
        kp_geom = np.sin(off.theta) / off.r
        assert np.max(np.abs(kp_geom - prof.kappa_p / (1 - 0.4 * prof.kappa_p))) < 1e-12

    def test_unduloid_offset_meridian_fd(self):
        prof = rotational_profile(CMC(0.5), (0.5, 0.0, math.pi / 2), step=1e-3, s_max=5.0)
        off = offset_profile(prof, 0.3)
        # the stencil differentiates in the original parameter; the curvature
        # formula is parametrization-invariant so the values compare directly
        km_fd = planar_curvature_5pt(off.r, off.z, prof.s[1] - prof.s[0])
        m = np.isfinite(km_fd)
        assert np.max(np.abs(km_fd[m] - off.kappa_m[m])) < 1e-8

    def test_offset_respects_margin(self):
        prof = rotational_profile(CMC(0.5), (1.0, 0.0, math.pi / 2), step=1e-2, s_max=0.5)
        with pytest.raises(DomainError):
            offset_profile(prof, 1.0)   # kappa_p = 1 sits exactly on the pole
        assert offset_profile(prof, -4.0).r[0] == pytest.approx(5.0)


class TestPoleRule:
    """offset_profile and parallel_curvatures reject exactly the curvatures
    f_a rejects: |1 - a*k| <= POLE_GUARD * (1 + |a*k|)."""

    @staticmethod
    def rejects(fn, *args) -> bool:
        try:
            fn(*args)
        except DomainError:
            return True
        return False

    @pytest.mark.parametrize("a", [1.0, -2.5])
    @pytest.mark.parametrize("gap", [0.0, 5e-10, 1.5e-9, -1.5e-9, 2.5e-9, 1e-6])
    def test_same_rule_as_f_a(self, a, gap):
        k = (1.0 - gap) / a          # 1 - a*k = gap up to roundoff, |a*k| ~ 1
        expected = self.rejects(f_a, k, a)
        assert expected == (abs(gap) < 2e-9)
        for kappa_m, kappa_p in (([0.1, k], [0.2, 0.3]), ([0.1, 0.2], [k, 0.3])):
            prof = ProfileCurve(np.array([0.0, 0.1]), np.array([1.0, 1.0]), np.zeros(2),
                                np.full(2, math.pi / 2), np.array(kappa_m), np.array(kappa_p))
            assert self.rejects(offset_profile, prof, a) == expected
        assert self.rejects(parallel_curvatures, [k, -3.0 / a], a) == expected
        assert self.rejects(parallel_curvatures, [5.0 / a, k], a) == expected


class TestAngleFunction:
    def test_graph_patch(self):
        from conftest import sphere_patch
        nu = angle_function(sphere_patch(0.6 / 32))
        vals = nu[np.isfinite(nu)]
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)

    def test_vertical_cylinder_profile(self):
        prof = rotational_profile(CMC(0.5), (1.0, 0.0, math.pi / 2), step=1e-2, s_max=1.0)
        assert np.max(np.abs(angle_function(prof))) < 1e-12

    def test_sphere_apex(self):
        theta0 = 0.05
        prof = rotational_profile(CMC(1.0), (math.sin(theta0), 0.0, theta0),
                                  step=1e-3, s_max=0.2)
        assert float(np.max(angle_function(prof))) == pytest.approx(1.0, abs=2e-3)

    def test_type_error(self):
        with pytest.raises(TypeError):
            angle_function(42)
