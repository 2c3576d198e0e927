"""Relation representation, conversion and certification tests."""

import json
import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from conftest import report_json
from wlab.errors import DomainError, EllipticityError, RelationError
from wlab.relation import (CMC, DOMAIN_TOL, ClosedForm, FForm, FULL_LINE, GForm, HALF_LINE,
                           Interval, LinearWeingarten, SampledHermite, certify_ellipticity,
                           default_t_grid, f_function, f_to_g, g_of, g_to_f,
                           linear_coefficients, relation_from_json, relation_to_json,
                           umbilical_constant)


def sqrt_rel(scale=1.0, offset=1.0, shift=0.0):
    return GForm(ClosedForm("sqrt_offset", {"scale": scale, "offset": offset, "shift": shift}))


MINIMAL_F = FForm(ClosedForm("affine", {"intercept": 0.0, "slope": -1.0}, FULL_LINE))


def same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


class TestCertify:
    def test_cmc_is_uniformly_elliptic_with_zero_sup(self):
        rep = certify_ellipticity(CMC(1.0))
        assert rep.is_elliptic
        assert rep.sup_4tgp2 == 0.0
        assert rep.uniform_constant_Lambda == 0.0
        assert rep.umbilical_alpha == 1.0
        assert not rep.minimal_type

    def test_linear_weingarten_sqrt_is_not_uniform(self):
        # g(t) = sqrt(1+t): 4t g'^2 = t/(1+t) -> 1
        rep = certify_ellipticity(LinearWeingarten(0.0, 1.0, 1.0))
        assert rep.is_elliptic
        assert rep.sup_4tgp2 > 0.999
        assert rep.uniform_constant_Lambda is None
        assert not (math.isinf(rep.If_domain.lo) and math.isinf(rep.If_domain.hi))

    def test_minimal_bounded_branch_example(self):
        # g(t) = sqrt(t+1) - 1: t - g(t^2) = t - sqrt(t^2+1) + 1 in (0, 1]
        rep = certify_ellipticity(sqrt_rel(shift=-1.0))
        assert rep.minimal_type
        assert rep.bounded_branch == "t_minus_g_bounded"
        assert rep.If_domain.lo == pytest.approx(-1.0, abs=1e-12)
        assert math.isinf(rep.If_domain.hi)
        ts = np.logspace(0, 6, 50)
        vals = ts - (np.sqrt(ts ** 2 + 1.0) - 1.0)
        assert np.all((vals > 0.0) & (vals <= 1.0))

    def test_grid_monotone_in_t_max(self):
        rel = LinearWeingarten(0.0, 1.0, 1.0)
        sups = [certify_ellipticity(rel, t_max=T, samples=2000).sup_4tgp2
                for T in (1e2, 1e3, 1e4, 1e5)]
        assert all(a <= b + 1e-15 for a, b in zip(sups, sups[1:]))

    def test_non_elliptic_sqrt_t(self):
        rep = certify_ellipticity(sqrt_rel(scale=2.0, offset=0.0))
        assert not rep.is_elliptic

    def test_empty_grid_rejected(self):
        with pytest.raises(EllipticityError):
            certify_ellipticity(CMC(1.0), t_grid=np.array([]))

    def test_fform_certification(self):
        rep = certify_ellipticity(FForm(f_function(LinearWeingarten(0.0, 1.0, 1.0))))
        assert rep.is_elliptic
        assert rep.umbilical_alpha == pytest.approx(1.0, abs=1e-9)
        assert rep.bounded_branch == "t_minus_g_bounded"

    def test_orientation_flip_recorded(self):
        rep = certify_ellipticity(CMC(-2.0))
        assert rep.umbilical_alpha == 2.0
        assert rep.orientation_flipped


class TestConversions:
    def test_g_to_f_cmc_is_affine(self):
        ff = g_to_f(CMC(1.5))
        xs = np.linspace(-3.0, 3.0, 41)
        xs = xs[(xs > ff.f.domain.lo) & (xs < ff.f.domain.hi)]
        assert np.allclose(np.asarray(ff.f(xs)), 3.0 - xs, atol=1e-9)

    @pytest.mark.parametrize("rel", [
        LinearWeingarten(0.0, 1.0, 1.0),
        sqrt_rel(scale=0.5, shift=-0.5),
        sqrt_rel(shift=-1.0),
    ])
    def test_g_to_f_involution_on_grid_and_midpoints(self, rel):
        ff = g_to_f(rel)
        xs = ff.f.breakpoints
        mids = 0.5 * (xs[:-1] + xs[1:])
        for grid in (xs, mids):
            fx = np.asarray(ff.f(grid))
            inside = ff.f.domain.contains(fx)
            err = np.abs(np.asarray(ff.f(fx[inside])) - grid[inside])
            assert np.max(err / (1.0 + np.abs(grid[inside]))) < 1e-8

    def test_g_to_f_umbilical_fixed_point(self):
        # beta x^2 + 2 alpha x - delta = 0 with (0, 1, 1): alpha_umb = 1
        ff = g_to_f(LinearWeingarten(0.0, 1.0, 1.0))
        assert float(np.asarray(ff.f(1.0))) == pytest.approx(1.0, abs=1e-10)

    def test_g_to_f_for_a_g_whose_domain_starts_above_zero(self):
        ts = np.linspace(0.1, 50.0, 40)
        g = SampledHermite(ts, 0.3 * np.sqrt(ts + 1.0), 0.15 / np.sqrt(ts + 1.0))
        f = g_to_f(GForm(g)).f
        xs = f.breakpoints
        fx = np.asarray(f(xs))
        assert np.array_equal(np.asarray(f(fx)), xs)
        dfx = np.asarray(f.derivative(xs))
        assert np.all(dfx < 0.0)
        assert np.max(np.abs(dfx * np.asarray(f.derivative(fx)) - 1.0)) <= 1e-12

    def test_g_to_f_rejects_non_elliptic(self):
        with pytest.raises(EllipticityError):
            g_to_f(sqrt_rel(scale=2.0, offset=1e-6))

    @pytest.mark.parametrize("rel", [
        CMC(1.0), LinearWeingarten(0.0, 1.0, 1.0),
        sqrt_rel(scale=0.5, shift=-0.5), sqrt_rel(shift=-1.0),
    ])
    def test_elliptic_branches_strictly_monotone(self, rel):
        g = g_of(rel)
        ts = np.concatenate([[0.0], np.logspace(-6, 4, 500)])
        gv = np.asarray(g(ts))
        up, dn = gv + np.sqrt(ts), gv - np.sqrt(ts)
        assert np.all(np.diff(up) > 1e-12)
        assert np.all(np.diff(dn) < -1e-12)

    def test_f_to_g_affine_gives_constant(self):
        gb = f_to_g(FForm(ClosedForm("affine", {"intercept": 2.0, "slope": -1.0}, FULL_LINE)))
        ts = np.linspace(0.0, 50.0, 200)
        assert np.allclose(np.asarray(gb.g(ts)), 1.0, atol=1e-12)

    def test_f_to_g_minimal_gives_zero(self):
        gb = f_to_g(MINIMAL_F)
        ts = np.linspace(0.0, 50.0, 100)
        assert np.allclose(np.asarray(gb.g(ts)), 0.0, atol=1e-12)

    def test_f_to_g_mobius_matches_sqrt(self):
        gb = f_to_g(FForm(f_function(LinearWeingarten(0.0, 1.0, 1.0))))
        ts = np.linspace(0.01, 50.0, 200)
        assert np.max(np.abs(np.asarray(gb.g(ts)) - np.sqrt(1.0 + ts))) < 1e-10

    def test_roundtrip_on_conversion_grid(self):
        rel = LinearWeingarten(0.0, 1.0, 1.0)
        t_grid = np.concatenate([[0.0], np.logspace(-6, 3, 500)])
        ff = g_to_f(rel, t_grid)
        gb = f_to_g(ff)
        g_true = g_of(rel)
        ts = gb.g.breakpoints
        err = np.abs(np.asarray(gb.g(ts)) - np.asarray(g_true(ts)))
        assert np.max(err) < 1e-8

    def test_f_to_g_rejects_broken_symmetry(self):
        bad = FForm(ClosedForm("affine", {"intercept": 1.0, "slope": -0.5}, FULL_LINE))
        with pytest.raises(RelationError):
            f_to_g(bad)


# triples whose g_of reads back to a g of the same bits
LINEAR_G_TRIPLES = [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, 1.0), (1.0, 0.5, 1.0),
                    (1.0, -0.5, 1.0), (0.7, 1.3, 0.4), (0.0, 1.0, 1.0)]


class TestLinearGForms:
    """A g-form whose g is exactly a linear relation's g_of is linear."""

    @pytest.mark.parametrize("triple", LINEAR_G_TRIPLES, ids=str)
    def test_sqrt_offset_reads_back(self, triple):
        g = g_of(LinearWeingarten(*triple))
        rel = relation_from_json(relation_to_json(GForm(g)))
        lin = linear_coefficients(rel)
        assert lin is not None and g_of(LinearWeingarten(*lin)).to_json() == g.to_json()
        # the g-form keeps its own g, and gets the linear relation's f
        assert g_of(rel) is rel.g
        assert f_function(rel).to_json() == f_function(LinearWeingarten(*lin)).to_json()

    def test_every_unit_scale_sqrt_offset_is_linear(self):
        # 200 valid triples, each written as its own g_of: the offset need not
        # survive (e - d^2) + d^2 bit for bit
        rng, rels = np.random.default_rng(0), []
        while len(rels) < 200:
            try:
                rels.append(GForm(g_of(LinearWeingarten(*rng.uniform(-2.0, 2.0, 3)))))
            except RelationError:
                pass
        for rel in rels:
            assert linear_coefficients(rel) is not None
            f = f_function(rel)
            assert isinstance(f, ClosedForm) and f.name == "mobius"

    @pytest.mark.parametrize("value", [1.0, -0.3, 0.0])
    def test_constant_is_cmc(self, value):
        rel = GForm(ClosedForm("constant", {"value": value}))
        assert linear_coefficients(rel) == linear_coefficients(CMC(value))
        assert f_function(rel).to_json() == f_function(CMC(value)).to_json()

    @pytest.mark.parametrize("rel", [
        sqrt_rel(scale=0.45, offset=0.8, shift=0.05),
        GForm(ClosedForm("constant", {"value": 1.0}, Interval(0.0, 4.0))),
        GForm(ClosedForm("affine", {"intercept": 1.0, "slope": 0.0})),
    ], ids=["scale_0.45", "short_domain", "affine_g"])
    def test_other_gs_stay_non_linear(self, rel):
        assert linear_coefficients(rel) is None and f_function(rel) is None


class TestUmbilical:
    @pytest.mark.parametrize("rel,expected", [
        (CMC(1.0), 1.0),
        (LinearWeingarten(0.0, 1.0, 1.0), 1.0),
        (MINIMAL_F, 0.0),
    ])
    def test_values(self, rel, expected):
        assert umbilical_constant(rel) == pytest.approx(expected, abs=1e-9)

    def test_linear_weingarten_slope_negative(self, rng):
        # f'(x) = -(alpha^2 + beta*delta)/(alpha + beta*x)^2 < 0 on I_f
        for _ in range(20):
            al, be = rng.uniform(-2, 2), rng.uniform(0.1, 2)
            de = rng.uniform(-al * al / be + 0.1, 3.0)
            f = f_function(LinearWeingarten(al, be, de))
            lo = f.domain.lo
            xs = lo + np.logspace(-3, 2, 50)
            assert np.all(np.asarray(f.derivative(xs)) < 0.0)


def umbilic_cases():
    rng = np.random.default_rng(2024)
    cases = [CMC(1.0), CMC(-0.75), CMC(0.0)]
    for _ in range(200):
        al, be = rng.uniform(-2, 2), rng.uniform(0.1, 2)
        cases.append(LinearWeingarten(al, be, rng.uniform(-al * al / be + 0.1, 3.0)))
    cases += [sqrt_rel(scale=0.5, shift=-0.5), f_to_g(MINIMAL_F),
              MINIMAL_F, FForm(f_function(LinearWeingarten(0.0, 1.0, 1.0))),
              g_to_f(LinearWeingarten(0.0, 1.0, 1.0))]
    return cases


def test_umbilical_constant_is_certified_alpha():
    # one definition of the umbilical value: the certificate's, bit for bit
    for rel in umbilic_cases():
        assert umbilical_constant(rel) == certify_ellipticity(rel).umbilical_alpha, rel


class TestWedge:
    """The certificate's f-slope bounds (Lambda1, Lambda2) are the wedge
    -Lambda2*x <= f(x) <= -Lambda1*x of a minimal-type relation."""

    def test_minimal_affine_wedge(self):
        assert certify_ellipticity(MINIMAL_F).f_slope_bounds == pytest.approx((1.0, 1.0))

    def test_cmc_zero_wedge(self):
        assert certify_ellipticity(CMC(0.0)).f_slope_bounds == pytest.approx((1.0, 1.0))

    def test_slope_band_half_to_two(self):
        # scale 1/3 gives -f' in [1/2, 2] asymptotically
        lam1, lam2 = certify_ellipticity(sqrt_rel(scale=1.0 / 3.0, shift=-1.0 / 3.0)).f_slope_bounds
        assert lam1 == pytest.approx(0.5, rel=1e-3)
        assert lam2 == pytest.approx(2.0, rel=1e-3)


class TestBoundedBranchFamily:
    # minimal_type and I_f != R iff a branch is bounded, across both branches
    CASES = [
        (sqrt_rel(shift=-1.0), True, "t_minus_g_bounded"),
        (GForm(ClosedForm("sqrt_offset", {"scale": -1.0, "offset": 1.0, "shift": 1.0})),
         True, "t_plus_g_bounded"),
        (CMC(0.0), True, "neither"),
        (sqrt_rel(scale=0.5, shift=-0.5), True, "neither"),
        (LinearWeingarten(1.0, 1.0, 0.0), True, "t_minus_g_bounded"),
        (MINIMAL_F, True, "neither"),
    ]

    @pytest.mark.parametrize("rel,minimal,branch", CASES)
    def test_equivalence(self, rel, minimal, branch):
        rep = certify_ellipticity(rel)
        assert rep.minimal_type == minimal
        assert rep.bounded_branch == branch
        full_line = math.isinf(rep.If_domain.lo) and math.isinf(rep.If_domain.hi)
        assert (not full_line) == (branch != "neither")

    @pytest.mark.parametrize("rel, hi", [
        (FForm(f_function(LinearWeingarten(1.0, -1.0, -1.0))), 1.0),
        (g_to_f(sqrt_rel(scale=-1.0, offset=1.0, shift=0.0)), 0.0),
    ], ids=["closed", "sampled"])
    def test_f_form_bounded_above(self, rel, hi):
        # f runs from -inf up to the pole -alpha/beta = 1, or to the sampled
        # f's value at its lowest breakpoint, near the g's shift 0
        rep = certify_ellipticity(rel)
        assert rep.bounded_branch == "t_plus_g_bounded"
        assert rep.If_domain.lo == -math.inf and rep.If_domain.hi == pytest.approx(hi, abs=1e-2)

    @pytest.mark.parametrize("scale,shift", [(1.0, 0.2), (-1.0, 0.3)])
    def test_sampled_g_finds_the_closed_form_branch(self, scale, shift):
        # a sampled g is classified by its tail, not by name
        closed = ClosedForm("sqrt_offset", {"scale": scale, "offset": 0.5, "shift": shift})
        ts = np.concatenate([[0.0], np.logspace(-6, 4, 2000)])
        rel = GForm(SampledHermite(ts, np.asarray(closed(ts)), np.asarray(closed.derivative(ts))))
        rep = certify_ellipticity(rel)
        assert rep.bounded_branch == certify_ellipticity(GForm(closed)).bounded_branch
        end = rep.If_domain.lo if scale > 0 else rep.If_domain.hi
        assert end == pytest.approx(shift, abs=5e-3)


class TestScalarFunctions:
    def test_hermite_no_extrapolation(self):
        sf = SampledHermite(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 4.0]),
                            np.array([0.0, 2.0, 4.0]))
        assert float(np.asarray(sf(1.5))) == pytest.approx(2.25, abs=1e-12)
        with pytest.raises(DomainError):
            sf(2.5)
        with pytest.raises(DomainError):
            sf(np.array([0.5, -0.1]))

    # a NaN breakpoint fails the increasing check first, with RelationError
    @pytest.mark.parametrize("column, bad", [(0, math.inf), (1, math.nan), (1, -math.inf),
                                             (2, math.nan), (2, math.inf)])
    def test_hermite_rejects_non_finite_samples(self, column, bad):
        cols = [np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.0, 0.0]), np.array([-1.0, -1.0, -1.0])]
        cols[column][-1] = bad
        with pytest.raises(ValueError, match="finite"):
            SampledHermite(*cols)

    def test_hermite_reproduces_values_and_slopes(self):
        xs = np.linspace(0.0, 3.0, 30)
        sf = SampledHermite(xs, np.sin(xs), np.cos(xs))
        assert np.allclose(np.asarray(sf(xs)), np.sin(xs))
        assert np.allclose(np.asarray(sf.derivative(xs)), np.cos(xs))

    def test_closed_form_domain_enforced(self):
        f = f_function(LinearWeingarten(0.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            f(-1.0)

    def test_scalar_domain_check_keeps_its_tolerance_and_message(self):
        f = ClosedForm("affine", {"intercept": 1.0, "slope": 2.0}, Interval(0.0, 1.0))
        assert float(f(1.0 + 0.5 * DOMAIN_TOL)) == 1.0 + 2.0 * (1.0 + 0.5 * DOMAIN_TOL)
        for bad in (1.0 + 2.0 * DOMAIN_TOL, -1.0, math.nan, np.float64(-1.0)):
            with pytest.raises(DomainError, match="closed form 'affine' evaluated at"):
                f(bad)
        xs = np.linspace(0.0, 3.0, 30)
        sf = SampledHermite(xs, np.sin(xs), np.cos(xs))
        assert math.isfinite(float(sf(xs[-1] + 0.5 * DOMAIN_TOL)))
        with pytest.raises(DomainError, match=r"evaluated at 2 .*\(2 offending points\)") as exc:
            f(np.array([0.5, 2.0, -3.0]))
        assert exc.value.index == (1,)
        # the same rule, message and index for the float path's functions
        cases = [(ClosedForm("mobius", {"alpha": 1.0, "beta": 0.5, "delta": 1.0},
                             Interval(-2.0, math.inf)), "closed form 'mobius'", -2.0),
                 (ClosedForm("sqrt_offset", {"scale": 0.5, "offset": 1.0, "shift": 0.0}),
                  "closed form 'sqrt_offset'", 0.0),
                 (sf, "sampled function", 3.0)]
        for fn, what, end in cases:
            outside = end - 2.0 * DOMAIN_TOL if end == fn.domain.lo else end + 2.0 * DOMAIN_TOL
            for bad in (outside, math.nan, np.float64(outside)):
                for evaluate, name in ((fn, what), (fn.derivative, what + " derivative")):
                    with pytest.raises(DomainError, match=f"^{name} evaluated at") as exc:
                        evaluate(bad)
                    assert exc.value.index == ()
            inside = np.float64(0.5 * (max(fn.domain.lo, -5.0) + min(fn.domain.hi, 5.0)))
            assert fn(inside) == fn(float(inside))
            assert fn.derivative(inside) == fn.derivative(float(inside))

    def test_float_at_a_domain_end_gets_numpys_inf_or_nan(self):
        # on Python floats 3/0 at x = -2, c/(2 sqrt(0)) at x = -1 and sqrt(-1e-13) raise
        mob = ClosedForm("mobius", {"alpha": 1.0, "beta": 0.5, "delta": 1.0}, Interval(-2.0, 5.0))
        sq = ClosedForm("sqrt_offset", {"scale": 0.5, "offset": 1.0, "shift": 0.0},
                        Interval(-1.0, 5.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            for fn, x in ((mob, -2.0), (sq.derivative, -1.0), (sq, -1.0 - 0.1 * DOMAIN_TOL)):
                got, want = fn(x), fn(np.array([x]))[0]
                assert not math.isfinite(got) and np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("name, params, domain", [
        ("constant", {"value": -0.35}, HALF_LINE),
        ("affine", {"intercept": 1.3, "slope": -1.0}, FULL_LINE),
        ("mobius", {"alpha": 0.7, "beta": 1.3, "delta": 0.4}, Interval(-0.7 / 1.3, math.inf)),
        ("sqrt_offset", {"scale": 0.45, "offset": 0.8, "shift": 0.05}, HALF_LINE),
    ])
    def test_closed_form_float_path_equals_the_array_path(self, name, params, domain, rng):
        fn = ClosedForm(name, params, domain)
        lo = max(domain.lo, -40.0)
        xs = np.concatenate([lo + np.logspace(-9, 1.6, 400), rng.uniform(lo, 40.0, 400)])
        for evaluate in (fn, fn.derivative):
            floats = [evaluate(float(x)) for x in xs]
            assert all(type(v) is float for v in floats)
            arrays = np.array([evaluate(np.array([x]))[0] for x in xs])
            assert same_bits(floats, arrays)
            assert same_bits(floats, evaluate(xs))

    def test_unknown_closed_form_rejected(self):
        with pytest.raises(RelationError):
            ClosedForm("gauss", {})

    def test_linear_weingarten_requires_ellipticity(self):
        with pytest.raises(RelationError):
            LinearWeingarten(0.0, 1.0, -1.0)

    def test_negative_beta_keeps_its_branch(self):
        # (1, -1, -1) and (-1, 1, 1) are one equation: each triple names the
        # branch through its own fixed point (-alpha + sqrt(2))/beta
        rel, other = LinearWeingarten(1.0, -1.0, -1.0), LinearWeingarten(-1.0, 1.0, 1.0)
        assert (rel.alpha, rel.beta, rel.delta) == (1.0, -1.0, -1.0)
        f, f_other = f_function(rel), f_function(other)
        fixed = 1.0 - math.sqrt(2.0)
        assert float(f(fixed)) == pytest.approx(fixed, rel=1e-14)
        assert f.domain == Interval(-math.inf, 1.0) and f_other.domain == Interval(1.0, math.inf)
        assert float(f_other(1.0 + math.sqrt(2.0))) == pytest.approx(1.0 + math.sqrt(2.0))
        xs = np.array([-3.0, 0.0, 0.9])
        np.testing.assert_allclose(np.asarray(f(xs)), (-1.0 - xs) / (1.0 - xs), rtol=1e-15)
        report = certify_ellipticity(rel)
        assert report.umbilical_alpha == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
        assert report.orientation_flipped and not certify_ellipticity(other).orientation_flipped
        assert float(g_of(rel)(0.0)) == pytest.approx(fixed, rel=1e-14)


class TestHermiteOracle:
    """SampledHermite evaluates its cubics itself; scipy's CubicHermiteSpline
    is the oracle, bit for bit, on the array path and the float path."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_cubic_hermite_spline(self, seed):
        rng = np.random.default_rng(seed)
        for k in range(25):
            n = 2 if k < 5 else int(rng.integers(3, 60))
            xs = np.cumsum(rng.uniform(1e-3, 2.0, n)) + rng.normal(0.0, 5.0)
            ys, dys = rng.normal(0.0, 3.0, n), rng.normal(0.0, 3.0, n)
            ys[rng.random(n) < 0.1] = -0.0
            dys[rng.random(n) < 0.1] = -0.0
            pts = np.concatenate([xs, rng.uniform(xs[0], xs[-1], 200),
                                  [xs[0] - 1e-13, xs[-1] + 1e-13]])
            sf = SampledHermite(xs, ys, dys)
            spline = CubicHermiteSpline(xs, ys, dys)
            for mine, ref in ((sf, spline), (sf.derivative, spline.derivative())):
                want = ref(pts)
                assert same_bits(mine(pts), want)
                assert same_bits([mine(float(x)) for x in pts], want)

    def test_signed_zeros_sum_as_scipy_does(self):
        # scipy's sums start from 0.0, so it never returns -0.0
        xs, zeros = np.array([0.0, 1.0, 2.0]), np.array([-0.0, -0.0, -0.0])
        pts = np.array([-1e-13, -0.0, 0.0, 0.5, 1.0, 2.0, 2.0 + 1e-13])
        sf, spline = SampledHermite(xs, zeros, zeros), CubicHermiteSpline(xs, zeros, zeros)
        for mine, ref in ((sf, spline), (sf.derivative, spline.derivative())):
            assert same_bits(mine(pts), ref(pts))
            assert same_bits([mine(float(x)) for x in pts], ref(pts))


class TestSerialization:
    @pytest.mark.parametrize("rel", [
        CMC(0.75),
        LinearWeingarten(1.0, 2.0, 0.5),
        sqrt_rel(scale=0.5, shift=-0.5),
        MINIMAL_F,
    ])
    def test_roundtrip(self, rel):
        blob = json.dumps(relation_to_json(rel))
        back = relation_from_json(json.loads(blob))
        ts = np.linspace(0.0, 5.0, 11)
        if not isinstance(rel, FForm):
            g1, g2 = g_of(rel), g_of(back)
            assert np.allclose(np.asarray(g1(ts)), np.asarray(g2(ts)), atol=1e-14)
        else:
            xs = np.linspace(-2.0, 2.0, 11)
            assert np.allclose(np.asarray(f_function(rel)(xs)),
                               np.asarray(f_function(back)(xs)), atol=1e-14)

    def test_hermite_roundtrip(self):
        ff = g_to_f(CMC(1.0), np.concatenate([[0.0], np.logspace(-4, 2, 100)]))
        back = relation_from_json(relation_to_json(ff))
        xs = ff.f.breakpoints
        assert np.allclose(np.asarray(back.f(xs)), np.asarray(ff.f(xs)), atol=1e-15)

    def test_report_json_fields(self):
        rep = report_json(certify_ellipticity(CMC(1.0)))
        for key in ("is_elliptic", "sup_4tgp2", "uniform_constant_Lambda", "f_slope_bounds",
                    "umbilical_alpha", "minimal_type", "If_domain", "bounded_branch"):
            assert key in rep


def test_default_grid_shape():
    grid = default_t_grid(100.0, 50)
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(100.0)
    assert grid.size == 50
    with pytest.raises(EllipticityError):
        default_t_grid(-1.0, 50)


def test_interval_contains():
    iv = Interval(-1.0, math.inf)
    assert iv.contains(0.0)
    assert not iv.contains(-1.5)
    assert not (math.isinf(iv.lo) and math.isinf(iv.hi))
