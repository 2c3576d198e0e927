"""Solver, intrinsic-distance and rescaling tests.

The blow-up maximizer is checked against an exhaustive scan whose distances
come from scipy's csgraph Dijkstra on an independently assembled sparse
graph."""

import hashlib
import heapq
import json
import math
import time
import zlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from conftest import cap_exact, report_json
from wlab.errors import DomainError, RelationError
from wlab.relation import (CMC, ClosedForm, FForm, GForm, Interval, LinearWeingarten,
                           SampledHermite, certify_ellipticity, default_t_grid, f_function,
                           g_of, rescale_relation, umbilical_constant)
from scipy.sparse.linalg import spsolve as scipy_spsolve

from wlab import grid, solver
from wlab.grid import GraphPatch, jet_fields, rescale_patch, write_csv
from wlab.solver import (BlowupSelection, blowup_select, intrinsic_distances, nested_dissection,
                         newton_solve, second_fundamental_norm_field, spsolve)

SQRT3_M2 = math.sqrt(3.0) - 2.0


def residual_field(rel, patch):
    """The residual `newton_solve` drives to zero, at each interior node
    (NaN elsewhere)."""
    iy, ix = np.nonzero(patch.interior_mask())
    out = np.full_like(patch.values, np.nan)
    _, out[iy, ix] = solver._interior_residual(g_of(rel), patch.values, patch.h, iy, ix)
    return out


def solved_cap(h, radius=1.0, H0=0.5, tol=1e-10):
    patch = GraphPatch.disk((0.0, 0.0), radius, h)
    out = newton_solve(CMC(H0), patch, tol_res=tol, max_iter=30)
    assert out.status == "converged"
    return out


class TestResidualField:
    def test_affine_minimal_zero(self):
        aff = lambda x, y: 0.2 + 0.7 * x - 0.4 * y
        patch = GraphPatch.rectangle((0, 1, 0, 1), 1 / 16, boundary=aff, init=aff)
        res = residual_field(CMC(0.0), patch)
        assert np.nanmax(np.abs(res)) < 1e-12

    def test_plane_under_cmc_is_minus_one(self):
        patch = GraphPatch.rectangle((0, 1, 0, 1), 1 / 8)
        res = residual_field(CMC(1.0), patch)
        vals = res[np.isfinite(res)]
        assert np.allclose(vals, -1.0)

    def test_exact_cap_residual_second_order(self):
        errs = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            patch = GraphPatch.disk((0.0, 0.0), 1.0, h)
            X, Y = patch.xy()
            patch.values = np.where(patch.mask, cap_exact(0.5)(X, Y), np.nan)
            errs.append(np.nanmax(np.abs(residual_field(CMC(0.5), patch))))
        assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5

    def test_domain_violation_names_node(self):
        g = SampledHermite(np.array([0.0, 0.1]), np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        patch = GraphPatch.rectangle((0, 1, 0, 1), 1 / 8, boundary=1.0, init=0.0)
        with pytest.raises(DomainError, match="node"):
            residual_field(GForm(g), patch)


class TestNewton:
    def test_affine_boundary_minimal(self):
        aff = lambda x, y: 0.3 + 0.5 * x - 0.2 * y
        patch = GraphPatch.rectangle((0, 1, 0, 1), 1 / 32, boundary=aff, init=0.0)
        out = newton_solve(CMC(0.0), patch, tol_res=1e-10)
        assert out.status == "converged"
        X, Y = out.final_patch.xy()
        assert np.nanmax(np.abs(out.final_patch.values - aff(X, Y))) < 1e-10

    def test_cap_center_value(self):
        out = solved_cap(1 / 32)
        ny, nx = out.final_patch.shape
        assert out.final_patch.values[ny // 2, nx // 2] == pytest.approx(SQRT3_M2, rel=0.01)

    def test_maximum_principle_band(self):
        h = 1 / 32
        out = solved_cap(h)
        vals = out.final_patch.values[out.final_patch.mask]
        assert np.max(vals) <= 1e-12
        assert np.min(vals) >= SQRT3_M2 - 10.0 * h * h

    def test_deterministic_bitwise(self):
        patch = GraphPatch.disk((0.0, 0.0), 1.0, 1 / 16)
        out1 = newton_solve(CMC(0.5), patch, tol_res=1e-10)
        out2 = newton_solve(CMC(0.5), patch, tol_res=1e-10)
        assert np.array_equal(out1.final_patch.values, out2.final_patch.values, equal_nan=True)
        assert out1.residual_sup == out2.residual_sup

    def test_overwide_disk_fails(self):
        patch = GraphPatch.disk((0.0, 0.0), 2.2, 1 / 16)
        out = newton_solve(CMC(0.5), patch, tol_res=1e-8, max_iter=25)
        assert out.status != "converged"

    def test_growing_residual_is_diverged(self):
        # H0 = 3 on the unit square has no graph solution: the residual falls, then grows
        out = newton_solve(CMC(3.0), GraphPatch.rectangle((0, 1, 0, 1), 1 / 16), tol_res=1e-9,
                           max_iter=40)
        assert out.status == "diverged" and out.iterations < 40
        sups = [rec["residual_sup"] for rec in out.history]
        run = solver.RESIDUAL_GROWTH_RUN
        assert all(b > a for a, b in zip(sups[-run - 1:-1], sups[-run:]))

    def test_domain_violation_at_start_is_a_status(self):
        g = SampledHermite(np.array([0.0, 0.1]), np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        patch = GraphPatch.rectangle((0, 1, 0, 1), 1 / 8, boundary=1.0, init=0.0)
        out = newton_solve(GForm(g), patch, tol_res=1e-10)
        assert out.status == "domain_violation"
        assert out.iterations == 0 and out.history == []
        assert math.isnan(out.residual_sup)
        assert np.array_equal(out.final_patch.values, patch.values)

    def test_history_records_each_iteration(self):
        out = solved_cap(1 / 32)
        assert len(out.history) == out.iterations > 0
        assert [rec["pivoted"] for rec in out.history] == [False] * out.iterations
        assert out.history[-1]["residual_sup"] == out.residual_sup
        for rec in out.history:
            assert rec["residual_sup"] <= rec["residual_l2"]
            assert rec["step_scale"] == 0.5 ** rec["backtracks"]
            assert isinstance(rec["krylov_iters"], int) and isinstance(rec["refactored"], bool)
            assert solver.BACKWARD_ERROR_LIMIT <= rec["forcing"] <= solver.FORCING_MAX
        assert json.loads(json.dumps(out.history)) == out.history

    def test_cap_is_factored_once(self):
        out = solved_cap(1 / 32)
        assert [rec["refactored"] for rec in out.history] == [True] + [False] * (out.iterations - 1)
        assert out.history[0]["krylov_iters"] == 0
        assert all(0 < rec["krylov_iters"] <= solver.KRYLOV_REFACTOR_ITERS
                   for rec in out.history[1:])

    def test_step_after_one_over_the_krylov_budget_refactors(self):
        # a stale factor far from any solution: some GMRES solves exceed the budget
        out = newton_solve(CMC(1.08), GraphPatch.disk((0.0, 0.0), 1.0, 1 / 24), tol_res=1e-9,
                           max_iter=30)
        over = [k for k, rec in enumerate(out.history[:-1])
                if not rec["refactored"] and rec["krylov_iters"] > solver.KRYLOV_REFACTOR_ITERS]
        assert over
        for k, rec in enumerate(out.history[1:], start=1):
            prev = out.history[k - 1]
            stale = not prev["refactored"] and prev["krylov_iters"] > solver.KRYLOV_REFACTOR_ITERS
            if stale:
                assert rec["refactored"] and rec["krylov_iters"] == 0
            else:   # GMRES tried the factor first
                assert rec["krylov_iters"] > 0

    @pytest.mark.parametrize("r_h0, steps", [(0.48, 4), (0.55, 4), (0.62, 4), (0.8, 5),
                                             (0.9, 5)])
    def test_cap_newton_step_counts(self, r_h0, steps):
        # inexact steps must not cost Newton steps: these are the exact-solve counts
        out = newton_solve(CMC(r_h0 / 0.75), GraphPatch.disk((0.0, 0.0), 0.75, 1 / 64),
                           tol_res=1e-10, max_iter=30)
        assert out.status == "converged" and out.iterations == steps
        assert out.history[0]["forcing"] == solver.BACKWARD_ERROR_LIMIT
        assert all(rec["forcing"] > solver.BACKWARD_ERROR_LIMIT for rec in out.history[1:])

    def test_each_step_asks_spsolve_for_its_forcing_term(self, monkeypatch):
        asked = []

        def recording(*args, rtol=solver.BACKWARD_ERROR_LIMIT, **kwargs):
            asked.append(rtol)
            return spsolve(*args, rtol=rtol, **kwargs)

        monkeypatch.setattr(solver, "spsolve", recording)
        out = solved_cap(1 / 32)
        assert asked == [rec["forcing"] for rec in out.history]
        assert max(asked) > solver.BACKWARD_ERROR_LIMIT

    def test_last_allowed_iteration_converges(self):
        n = solved_cap(1 / 32).iterations
        out = newton_solve(CMC(0.5), GraphPatch.disk((0.0, 0.0), 1.0, 1 / 32), tol_res=1e-10,
                           max_iter=n)
        assert out.status == "converged" and out.iterations == n == len(out.history)
        assert out.residual_sup <= 1e-10

    def test_trial_outside_the_domain_is_backtracked(self):
        # g is sampled on [0, 0.01] only: the first full Newton step of this cap
        # leaves that domain, and half of it does not
        rel = GForm(SampledHermite(np.array([0.0, 0.01]), np.array([0.5, 0.5]),
                                   np.array([0.0, 0.0])))
        patch = GraphPatch.disk((0.0, 0.0), 1.0, 1 / 16)
        system = solver._System(rel, patch)
        _, work, _, grads = system.residual(patch.values, with_gradient=True)
        step, *_ = spsolve(system.jacobian(grads), -work, system.order)
        with pytest.raises(DomainError):
            system.residual(system.insert(patch.values, system.unknowns(patch.values) + step))
        out = newton_solve(rel, patch, tol_res=1e-9, max_iter=1)
        assert out.status == "max_iterations" and out.iterations == 1
        first = out.history[0]
        assert first["backtracks"] >= 1 and first["step_scale"] == 0.5 ** first["backtracks"]

    def test_failed_linear_solve_is_a_line_search_failure(self, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solver, "spsolve", singular)
        patch = GraphPatch.disk((0.0, 0.0), 1.0, 1 / 16)
        out = newton_solve(CMC(0.5), patch, tol_res=1e-10)
        assert out.status == "line_search_failure" and out.iterations == 0 and out.history == []
        assert out.residual_sup == pytest.approx(0.5)
        assert np.array_equal(out.final_patch.values, patch.values, equal_nan=True)

    def test_singular_jacobian_is_a_line_search_failure(self, monkeypatch):
        def all_zero(J, *args, **kwargs):
            # the real linear solve, handed an exactly singular Jacobian
            return spsolve(sp.csr_matrix(J.shape), *args, **kwargs)

        monkeypatch.setattr(solver, "spsolve", all_zero)
        out = newton_solve(CMC(0.5), GraphPatch.disk((0.0, 0.0), 1.0, 1 / 16), tol_res=1e-10)
        assert out.status == "line_search_failure" and out.iterations == 0 and out.history == []

    def test_non_finite_step_is_a_line_search_failure(self, monkeypatch):
        calls = []

        def nan_second_step(J, rhs, *args, **kwargs):
            x, *rest = spsolve(J, rhs, *args, **kwargs)
            calls.append(x)
            return (np.full_like(x, np.nan) if len(calls) == 2 else x, *rest)

        monkeypatch.setattr(solver, "spsolve", nan_second_step)
        out = newton_solve(CMC(0.5), GraphPatch.disk((0.0, 0.0), 1.0, 1 / 16), tol_res=1e-10)
        assert out.status == "line_search_failure" and out.iterations == 1
        assert len(calls) == 2 and len(out.history) == 1
        assert out.residual_sup == out.history[0]["residual_sup"]
        assert np.all(np.isfinite(out.final_patch.values[out.final_patch.mask]))

    def test_fform_relation_usable(self):
        # solver accepts f-side input by converting internally
        from wlab.relation import FForm, f_function
        rel = FForm(f_function(CMC(0.5)))
        patch = GraphPatch.disk((0.0, 0.0), 1.0, 1 / 16)
        out = newton_solve(rel, patch, tol_res=1e-8)
        assert out.status == "converged"
        ny, nx = out.final_patch.shape
        assert out.final_patch.values[ny // 2, nx // 2] == pytest.approx(SQRT3_M2, rel=0.02)


def _rectangle_nodes():
    return np.nonzero(np.ones((40, 70), dtype=bool))


def _disk_nodes():
    patch = GraphPatch.disk((0.0, 0.0), 1.0, 1 / 32)
    assert patch.tie_node.shape[0] > 0
    iy, ix = np.nonzero(patch.interior_mask())
    return (np.concatenate([iy, patch.tie_node[:, 0]]),
            np.concatenate([ix, patch.tie_node[:, 1]]))


class TestLinearSolve:
    @pytest.mark.parametrize("nodes", [_rectangle_nodes, _disk_nodes,
                                       lambda: (np.array([3]), np.array([5]))])
    def test_nested_dissection_is_a_permutation(self, nodes):
        iy, ix = nodes()
        order = nested_dissection(iy, ix)
        assert np.array_equal(np.sort(order), np.arange(iy.size))

    def test_rectangle_separator_comes_last(self):
        # the first cut is the median column of the 40 x 70 node set
        iy, ix = _rectangle_nodes()
        last = nested_dissection(iy, ix)[-40:]
        assert np.all(ix[last] == 35)
        assert np.array_equal(np.sort(iy[last]), np.arange(40))

    def test_matches_scipy_on_cap_jacobian(self):
        patch = GraphPatch.disk((0.0, 0.0), 1.0, 1 / 32)
        system = solver._System(CMC(0.5), patch)
        _, work, _, grads = system.residual(patch.values, with_gradient=True)
        J = system.jacobian(grads)
        x, factor, krylov_iters, refactored = spsolve(J, -work, system.order)
        ref = scipy_spsolve(J.tocsc(), -work)
        assert refactored and krylov_iters == 0 and not factor.pivoted
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @staticmethod
    def _cap_step_systems():
        """The cap's Jacobian at the initial guess and after one Newton step,
        with that step's right-hand side."""
        patch = GraphPatch.disk((0.0, 0.0), 1.0, 1 / 32)
        system = solver._System(CMC(0.5), patch)
        _, work, _, grads = system.residual(patch.values, with_gradient=True)
        J0 = system.jacobian(grads)
        step, *_ = spsolve(J0, -work, system.order)
        values = system.insert(patch.values, system.unknowns(patch.values) + step)
        _, work1, _, grads1 = system.residual(values, with_gradient=True)
        return system, J0, system.jacobian(grads1), -work1

    def test_reused_factor_meets_the_backward_error_bound(self):
        system, J0, J1, b = self._cap_step_systems()
        _, factor0, _, _ = spsolve(J0, np.ones(system.n), system.order)
        x, factor, krylov_iters, refactored = spsolve(J1, b, system.order, factor0)
        assert factor is factor0 and not refactored
        assert 0 < krylov_iters <= solver.KRYLOV_REFACTOR_ITERS
        assert np.linalg.norm(J1 @ x - b) <= solver.BACKWARD_ERROR_LIMIT * np.linalg.norm(b)
        ref = scipy_spsolve(J1.tocsc(), b)
        assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_reused_factor_meets_a_looser_forcing_term(self):
        system, J0, J1, b = self._cap_step_systems()
        _, factor0, _, _ = spsolve(J0, np.ones(system.n), system.order)
        _, _, tight_iters, _ = spsolve(J1, b, system.order, factor0)
        x, factor, loose_iters, refactored = spsolve(J1, b, system.order, factor0, rtol=1e-3)
        assert factor is factor0 and not refactored
        assert 0 < loose_iters < tight_iters
        assert np.linalg.norm(J1 @ x - b) <= 1e-3 * np.linalg.norm(b)

    def test_reused_factor_solves_once_per_gmres_iteration_and_cycle(self, monkeypatch):
        system, J0, J1, b = self._cap_step_systems()
        _, factor0, _, _ = spsolve(J0, np.ones(system.n), system.order)
        solves = []
        original = solver.Factor.solve
        monkeypatch.setattr(solver.Factor, "solve",
                            lambda self, v: solves.append(1) or original(self, v))
        _, _, krylov_iters, _ = spsolve(J1, b, system.order, factor0)
        assert krylov_iters <= solver.KRYLOV_RESTART    # one cycle
        assert len(solves) == krylov_iters + 1

    def test_unrelated_factor_misses_and_is_refactored(self):
        system, _, J1, b = self._cap_step_systems()
        _, unrelated, _, _ = spsolve(sp.identity(system.n, format="csr"), np.ones(system.n),
                                     system.order)
        x, factor, krylov_iters, refactored = spsolve(J1, b, system.order, unrelated)
        assert refactored and factor is not unrelated and unrelated.lu is None
        assert krylov_iters == solver.KRYLOV_RESTART * solver.KRYLOV_CYCLES
        assert np.linalg.norm(J1 @ x - b) <= solver.BACKWARD_ERROR_LIMIT * np.linalg.norm(b)

    @pytest.mark.parametrize("patch", [
        GraphPatch.disk((0.0, 0.0), 1.0, 1 / 16, boundary=lambda x, y: 0.3 * x,
                        init=lambda x, y: 0.4 * (x * x + y * y) + 0.1 * x * y),
        GraphPatch.rectangle((0, 1, 0, 0.75), 1 / 16, boundary=lambda x, y: 0.5 * x * y,
                             init=lambda x, y: np.sin(2.0 * x) * y)])
    def test_jacobian_is_the_derivative_of_the_work_residual(self, patch, rng):
        system = solver._System(LinearWeingarten(1.0, 0.5, 1.0), patch)
        _, _, _, grads = system.residual(patch.values, with_gradient=True)
        J = system.jacobian(grads)
        z, v, eps = system.unknowns(patch.values), rng.normal(size=system.n), 1e-6

        def work(zz):
            return system.residual(system.insert(patch.values, zz))[1]

        fd = (work(z + eps * v) - work(z - eps * v)) / (2.0 * eps)
        assert np.linalg.norm(J @ v - fd) <= 1e-7 * np.linalg.norm(fd)

    def test_zero_diagonal_is_solved(self):
        # an off-diagonal 2 x 2 block: the given order has zero diagonal entries
        J = sp.csr_matrix(np.array([[0.0, 2.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 4.0]]))
        b = np.array([1.0, -2.0, 3.0])
        x, *_ = spsolve(J, b, np.arange(3))
        assert np.allclose(x, [-2.0 / 3.0, 0.5, 0.75], rtol=1e-12, atol=0.0)

    def test_tiny_pivot_takes_the_pivoted_fallback(self):
        # unpivoted LU of [[1e-20, 1], [1, 1]] loses x[0] entirely
        J = sp.csr_matrix(np.array([[1e-20, 1.0], [1.0, 1.0]]))
        b = np.array([1.0, 2.0])
        x, factor, _, _ = spsolve(J, b, np.arange(2))
        assert factor.pivoted
        assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)
        assert np.allclose(x, [1.0, 1.0], rtol=1e-12, atol=0.0)
        x, factor = solver._factor(J, b, np.arange(2))
        assert factor.pivoted and solver._solves_to_limit(J, x, b)
        assert np.allclose(x, [1.0, 1.0], rtol=1e-12, atol=0.0)

    def test_singular_raises(self):
        # [[1, 1], [1, 1]] reaches the pivoted fallback, which is singular too
        for rows in ([[1.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]):
            J = sp.csr_matrix(np.array(rows))
            with pytest.raises(RuntimeError):
                spsolve(J, np.ones(2), np.arange(2))
            with pytest.raises(RuntimeError):
                solver._factor(J, np.array([1.0, 2.0]), np.arange(2))


class TestSigmaField:
    def test_plane_zero(self):
        patch = GraphPatch.rectangle((0, 1, 0, 1), 1 / 8)
        sig = second_fundamental_norm_field(patch)
        assert np.nanmax(sig) == 0.0

    def test_unit_sphere_cap(self):
        patch = GraphPatch.disk((0.0, 0.0), 0.5, 1 / 64)
        X, Y = patch.xy()
        patch.values = np.where(patch.mask, -np.sqrt(1.0 - X ** 2 - Y ** 2), np.nan)
        sig = second_fundamental_norm_field(patch)
        assert np.nanmax(np.abs(sig - math.sqrt(2.0))) < 1e-3

    def test_cylinder(self):
        patch = GraphPatch.rectangle((-0.4, 0.4, 0, 1), 1 / 64)
        X, Y = patch.xy()
        patch.values = -np.sqrt(1.0 - X ** 2) + 0.0 * Y
        sig = second_fundamental_norm_field(patch)
        assert np.nanmax(np.abs(sig - 1.0)) < 1e-3


def brute_force_selection(patch, center, radius, sigma):
    """Independent h-maximizer: csgraph Dijkstra + full scan."""
    ny, nx = patch.shape
    idx = np.arange(ny * nx).reshape(ny, nx)
    rows, cols, vals = [], [], []
    for dy, dx in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
        ys = slice(max(dy, 0), ny + min(dy, 0))
        xs = slice(max(dx, 0), nx + min(dx, 0))
        yd = slice(max(-dy, 0), ny + min(-dy, 0))
        xd = slice(max(-dx, 0), nx + min(-dx, 0))
        ok = patch.mask[yd, xd] & patch.mask[ys, xs]
        du = patch.values[yd, xd] - patch.values[ys, xs]
        w = np.sqrt((patch.h * dx) ** 2 + (patch.h * dy) ** 2 + du ** 2)
        rows.append(idx[yd, xd][ok])
        cols.append(idx[ys, xs][ok])
        vals.append(w[ok])
    G = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ny * nx, ny * nx))
    d_center = csgraph_dijkstra(G, indices=idx[center[0], center[1]]).reshape(ny, nx)
    in_disk = patch.mask & (d_center <= radius)
    if not in_disk.any():
        raise ValueError("intrinsic disk is empty")
    bd = np.zeros_like(in_disk)
    for dy, dx in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
        sh = np.zeros_like(in_disk)
        ys = slice(max(dy, 0), ny + min(dy, 0))
        yd = slice(max(-dy, 0), ny + min(-dy, 0))
        xs = slice(max(dx, 0), nx + min(dx, 0))
        xd = slice(max(-dx, 0), nx + min(-dx, 0))
        sh[yd, xd] = ~in_disk[ys, xs]
        bd |= in_disk & sh
    bd |= in_disk & patch.boundary_mask()
    sub = G[np.ix_(idx[in_disk], idx[in_disk])]
    src = np.nonzero(bd[in_disk])[0]
    d_bd_sub = csgraph_dijkstra(sub, indices=src).min(axis=0)
    d_bd = np.full((ny, nx), np.inf)
    d_bd[in_disk] = d_bd_sub
    with np.errstate(invalid="ignore"):
        h = np.where(in_disk & np.isfinite(sigma) & np.isfinite(d_bd), sigma * d_bd, -np.inf)
    flat = int(np.argmax(h))
    qy, qx = divmod(flat, nx)
    if not np.isfinite(h[qy, qx]):
        raise ValueError("h-function is nowhere finite on the disk")
    return BlowupSelection((qy, qx), float(sigma[qy, qx]), float(d_bd[qy, qx]), float(h[qy, qx]))


def selection_or_error(select, patch, center, radius, sigma):
    try:
        return select(patch, center, radius, sigma)
    except ValueError as exc:
        return str(exc)


def bump_rectangle(h):
    """A non-square rectangle carrying a smooth bump, so |sigma| varies."""
    patch = GraphPatch.rectangle((0.0, 1.0, 0.0, 0.75), h)
    X, Y = patch.xy()
    patch.values = 0.3 * np.exp(-8.0 * ((X - 0.4) ** 2 + (Y - 0.45) ** 2))
    return patch


class TestBlowup:
    def test_constant_sigma_picks_center(self):
        out = solved_cap(1 / 16)
        patch = out.final_patch
        ny, nx = patch.shape
        sel = blowup_select(patch, (ny // 2, nx // 2), 0.6)
        # |sigma| is constant on the cap, so h is maximal where the distance is
        assert sel.q_n == (ny // 2, nx // 2)
        assert sel.h_max == pytest.approx(sel.lambda_n * sel.r_n)

    def test_plane_h_zero(self):
        patch = GraphPatch.rectangle((0, 1, 0, 1), 1 / 16)
        ny, nx = patch.shape
        sel = blowup_select(patch, (ny // 2, nx // 2), 0.3)
        assert sel.h_max == 0.0
        assert sel.lambda_n == 0.0

    def test_synthetic_spike_matches_brute_force(self, rng):
        out = solved_cap(1 / 16)
        patch = out.final_patch
        ny, nx = patch.shape
        sigma = np.where(patch.mask, 1.0, np.nan)
        spike = (ny // 2 + 3, nx // 2 - 2)
        sigma[spike] = 4.0
        sigma[ny // 2 - 4, nx // 2 + 1] = 2.5
        sel = blowup_select(patch, (ny // 2, nx // 2), 0.7, sigma_field=sigma)
        assert sel == brute_force_selection(patch, (ny // 2, nx // 2), 0.7, sigma)

    @pytest.mark.parametrize("kind", ["cap", "rectangle"])
    def test_equal_to_the_full_patch_scan(self, kind):
        """Bit for bit the full-patch selection, or the same ValueError, over
        seeded draws: boxes clipped by the grid edge, radii below h (down to
        -h) and beyond the patch, the patch's own |sigma| and synthetic
        fields with ties."""
        h = 1 / 32
        patch = solved_cap(h, radius=0.5, H0=1.2).final_patch if kind == "cap" else bump_rectangle(h)
        own_sigma = second_fundamental_norm_field(patch)
        rng = np.random.default_rng(2024)
        nodes = np.argwhere(patch.mask)
        span = h * max(patch.shape)
        clipped = beyond = below_h = 0
        for draw in range(110):
            center = tuple(int(v) for v in nodes[rng.integers(len(nodes))])
            radius = float(rng.choice([rng.uniform(-h, h), rng.uniform(h, 0.5 * span),
                                       rng.uniform(0.5 * span, 1.5 * span)], p=[0.15, 0.6, 0.25]))
            synthetic = draw % 2 == 1
            sigma = np.where(patch.mask, rng.integers(1, 4, patch.shape).astype(float), np.nan) \
                if synthetic else None
            got = selection_or_error(blowup_select, patch, center, radius, sigma)
            want = selection_or_error(brute_force_selection, patch, center, radius,
                                      sigma if synthetic else own_sigma)
            assert got == want, (center, radius, synthetic)
            k = int(max(radius, 0.0) / h) + 2
            clipped += min(center) < k or center[0] + k >= patch.shape[0] \
                or center[1] + k >= patch.shape[1]
            beyond += radius > span
            below_h += radius < h
        assert clipped > 20 and beyond > 5 and below_h > 5

    def test_box_absorbs_rounded_distances(self):
        """Ten steps of 0.1 sum to 0.9999999999999999: at that radius the node
        ten steps up is in the disk although int(radius/h) = 9, and on a
        plane (h = 0 everywhere) it is the first disk node in row-major order."""
        patch = GraphPatch.rectangle((0.0, 3.0, 0.0, 3.0), 0.1)
        radius = sum([0.1] * 10)
        assert int(radius / patch.h) == 9
        sel = blowup_select(patch, (15, 15), radius)
        assert sel.q_n == (5, 15)
        assert sel == brute_force_selection(patch, (15, 15), radius,
                                            second_fundamental_norm_field(patch))

    def test_selection_reads_only_the_box(self):
        """NaN heights and a |sigma| spike outside the box of int(radius/h) + 2
        nodes around the center leave the selection unchanged."""
        patch = solved_cap(1 / 32).final_patch
        center, radius = (20, 27), 0.3
        iy, ix = np.indices(patch.shape)
        outside = np.maximum(abs(iy - center[0]), abs(ix - center[1])) > int(radius / patch.h) + 2
        assert (outside & patch.mask).any()
        sigma = np.where(patch.mask, 1.0, np.nan)
        sigma[22, 25] = 2.0
        own = blowup_select(patch, center, radius)
        synthetic = blowup_select(patch, center, radius, sigma_field=sigma)

        blurred = patch.copy()
        blurred.values[outside] = np.nan
        spiked = sigma.copy()
        spiked[outside & patch.mask] = 1e6
        assert blowup_select(blurred, center, radius) == own
        assert blowup_select(blurred, center, radius, sigma_field=spiked) == synthetic

    def test_degenerate_disks_rejected(self):
        patch = GraphPatch.rectangle((0, 1, 0, 1), 1 / 8)
        with pytest.raises(ValueError):
            blowup_select(patch, (-3, 0), 0.5)          # off-grid center
        with pytest.raises(ValueError):
            blowup_select(patch, (0, 0), 0.01)          # no usable node in the disk

    @pytest.mark.parametrize("center", [(4.7, 4.2), (True, 4), (4.0, 4)])
    def test_center_of_non_integers_rejected(self, center):
        """int() would take each as node (4, 4) or (1, 4)."""
        patch = solved_cap(0.25).final_patch
        with pytest.raises(ValueError, match="not two integer grid indices"):
            blowup_select(patch, center, 0.5)
        assert blowup_select(patch, np.array([4, 4]), 0.5) == blowup_select(patch, (4, 4), 0.5)

    def test_distance_symmetry(self):
        patch = GraphPatch.rectangle((0, 1, 0, 1), 1 / 8)
        ny, nx = patch.shape
        d = intrinsic_distances(patch, [(ny // 2, nx // 2)])
        assert d[ny // 2, nx // 2] == 0.0
        assert np.isfinite(d[patch.mask]).all()


def octile(h, dy, dx):
    """Shortest 8-neighbor path length on a flat grid of step h."""
    lo, hi = np.minimum(np.abs(dy), np.abs(dx)), np.maximum(np.abs(dy), np.abs(dx))
    return h * (hi + (math.sqrt(2.0) - 1.0) * lo)


def heap_distances(patch, sources, within=None):
    """Reference: the heap Dijkstra with per-edge Python arithmetic that
    intrinsic_distances replaced.  Same edge lengths, so equal results."""
    ny, nx = patch.shape
    allowed = patch.mask if within is None else patch.mask & within
    dist = np.full((ny, nx), np.inf)
    heap = []
    for iy, ix in sources:
        if allowed[iy, ix]:
            dist[iy, ix] = 0.0
            heap.append((0.0, iy, ix))
    heapq.heapify(heap)
    while heap:
        d, iy, ix = heapq.heappop(heap)
        if d > dist[iy, ix]:
            continue
        for dy, dx in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
            jy, jx = iy + dy, ix + dx
            if 0 <= jy < ny and 0 <= jx < nx and allowed[jy, jx]:
                du = patch.values[jy, jx] - patch.values[iy, ix]
                nd = d + math.sqrt((patch.h * dx) ** 2 + (patch.h * dy) ** 2 + du * du)
                if nd < dist[jy, jx]:
                    dist[jy, jx] = nd
                    heapq.heappush(heap, (nd, jy, jx))
    return dist


def coo_graph(patch, allowed):
    """Reference: the graph builder that `solver._grid_graph` replaced, COO
    triplets per neighbour direction converted to CSR."""
    ny, nx = patch.shape
    n = np.count_nonzero(allowed)
    node = np.full((ny, nx), -1)
    node[allowed] = np.arange(n)
    rows, cols, lengths = [], [], []
    for dy, dx in grid.NEIGHBORS8:
        a = (slice(max(-dy, 0), ny - max(dy, 0)), slice(max(-dx, 0), nx - max(dx, 0)))
        b = (slice(max(dy, 0), ny + min(dy, 0)), slice(max(dx, 0), nx + min(dx, 0)))
        both = allowed[a] & allowed[b]
        du = patch.values[b][both] - patch.values[a][both]
        rows.append(node[a][both])
        cols.append(node[b][both])
        lengths.append(np.sqrt((patch.h * dx) ** 2 + (patch.h * dy) ** 2 + du * du))
    return sp.csr_matrix((np.concatenate(lengths), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


class TestIntrinsicDistances:
    def grid(self, patch):
        return np.mgrid[0:patch.shape[0], 0:patch.shape[1]]

    def test_flat_patch_is_octile(self):
        patch = GraphPatch.rectangle((0, 1.25, 0, 0.75), 1 / 16)
        Y, X = self.grid(patch)
        d = intrinsic_distances(patch, [(5, 7)])
        assert d[5, 7] == 0.0
        np.testing.assert_allclose(d, octile(patch.h, Y - 5, X - 7), rtol=1e-14, atol=0)

    def test_several_sources_give_the_nearest(self):
        patch = GraphPatch.rectangle((0, 1.25, 0, 0.75), 1 / 16)
        Y, X = self.grid(patch)
        sources = [(0, 0), (12, 3), (4, 19)]
        d = intrinsic_distances(patch, np.array(sources))
        exact = np.min([octile(patch.h, Y - sy, X - sx) for sy, sx in sources], axis=0)
        np.testing.assert_allclose(d, exact, rtol=1e-14, atol=0)

    def test_wall_blocks_paths_and_outside_sources_are_ignored(self):
        patch = GraphPatch.rectangle((0, 1, 0, 1), 1 / 16)
        Y, X = self.grid(patch)
        within = X != 8
        d = intrinsic_distances(patch, [(8, 2), (3, 8)], within=within)
        assert np.all(np.isinf(d[:, 8:]))
        np.testing.assert_allclose(d[:, :8], octile(patch.h, Y - 8, X - 2)[:, :8],
                                   rtol=1e-14, atol=0)
        assert np.all(np.isinf(intrinsic_distances(patch, [(3, 8), (0, 8)], within=within)))

    def test_equal_to_the_heap_loop(self):
        patch = solved_cap(1 / 32).final_patch
        ny, nx = patch.shape
        center = [(ny // 2 - 3, nx // 2 + 4)]
        d = intrinsic_distances(patch, center)
        assert np.array_equal(d, heap_distances(patch, center))
        within = d <= 0.45
        sources = [tuple(n) for n in np.argwhere(within)[::23]] + [(0, 0), (ny // 2, 1)]
        d = intrinsic_distances(patch, sources, within=within)
        assert np.array_equal(d, heap_distances(patch, sources, within=within))

    def test_graph_equal_to_the_coo_builder(self):
        """On a disk crop with a wall cut out of it, the slice-built CSR
        graph has the COO builder's indptr, indices and data, bit for bit."""
        patch = solved_cap(1 / 32).final_patch
        box = (slice(4, 40), slice(9, 50))
        crop = GraphPatch(patch.x0, patch.y0, patch.h, patch.mask[box], patch.values[box])
        Y, X = self.grid(crop)
        within = (X != 17) | (Y < 6)
        for allowed in (crop.mask, crop.mask & within):
            graph, node = solver._grid_graph(crop, allowed)
            ref = coo_graph(crop, allowed)
            assert ref.nnz > 0 and not allowed.all()
            assert np.array_equal(graph.indptr, ref.indptr)
            assert np.array_equal(graph.indices, ref.indices)
            assert np.array_equal(_bits(graph.data), _bits(ref.data))
            assert np.array_equal(node[allowed], np.arange(np.count_nonzero(allowed)))
            assert np.all(node[~allowed] == -1)

    def test_limit_keeps_distances_within_it(self):
        patch = solved_cap(1 / 32).final_patch
        ny, nx = patch.shape
        sources = [(ny // 2 - 3, nx // 2 + 4), (ny // 2 + 6, nx // 2 - 2)]
        full = intrinsic_distances(patch, sources)
        for limit in (0.0, patch.h, 0.3, float(np.median(full[patch.mask]))):
            d = intrinsic_distances(patch, sources, limit=limit)
            near = full <= limit
            assert near.any() and not near[patch.mask].all()
            assert np.array_equal(_bits(d[near]), _bits(full[near]))
            assert np.all(np.isinf(d[~near]))

    def test_cap_distances_satisfy_bellman(self):
        patch = solved_cap(1 / 64).final_patch
        ny, nx = patch.shape
        d = intrinsic_distances(patch, [(ny // 2 + 5, nx // 2 - 9)])
        finite = np.isfinite(d)
        assert np.array_equal(finite, patch.mask)
        best = np.full_like(d, np.inf)
        pad_d = np.pad(d, 1, constant_values=np.inf)
        pad_u = np.pad(patch.values, 1, constant_values=np.nan)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == dx == 0:
                    continue
                nb_d = pad_d[1 + dy:1 + dy + ny, 1 + dx:1 + dx + nx]
                du = pad_u[1 + dy:1 + dy + ny, 1 + dx:1 + dx + nx] - patch.values
                via = nb_d + np.sqrt((patch.h * dx) ** 2 + (patch.h * dy) ** 2 + du * du)
                via = np.where(np.isfinite(via), via, np.inf)
                # no neighbor offers a shorter route
                assert np.all(d[finite] <= via[finite] * (1 + 1e-14))
                best = np.minimum(best, via)
        source = d == 0.0
        assert np.count_nonzero(source) == 1
        # and every other node is reached through one of them
        np.testing.assert_allclose(d[finite & ~source], best[finite & ~source], rtol=1e-14, atol=0)


class TestRescaling:
    def test_cmc_rescale(self):
        assert rescale_relation(CMC(1.0), 2.0) == CMC(0.5)

    def test_lambda_preserved_exactly(self):
        rel = GForm(ClosedForm("sqrt_offset", {"scale": 0.5, "offset": 1.0, "shift": 0.0}))
        lam = 3.7
        grid = default_t_grid(1e4, 3000)
        base = certify_ellipticity(rel, grid)
        scaled = certify_ellipticity(rescale_relation(rel, lam), grid / lam ** 2)
        assert scaled.sup_4tgp2 == pytest.approx(base.sup_4tgp2, abs=1e-12)
        assert scaled.uniform_constant_Lambda == pytest.approx(base.uniform_constant_Lambda,
                                                               abs=1e-12)

    def test_umbilical_scales(self):
        lam = 2.5
        for rel in (LinearWeingarten(0.0, 1.0, 1.0), GForm(ClosedForm("constant", {"value": 0.7}))):
            assert umbilical_constant(rescale_relation(rel, lam)) == pytest.approx(
                umbilical_constant(rel) / lam, rel=1e-12)

    def test_sampled_g_rescale(self):
        base = g_of(CMC(1.0))
        ts = np.linspace(0.0, 9.0, 10)
        rel = GForm(SampledHermite(ts, np.asarray(base(ts)), np.zeros_like(ts)))
        lam = 2.0
        scaled = rescale_relation(rel, lam)
        tq = np.linspace(0.0, 9.0 / lam ** 2, 7)
        assert np.allclose(np.asarray(scaled.g(tq)), 0.5, atol=1e-14)

    @pytest.mark.parametrize("rel", [CMC(0.75), LinearWeingarten(1.0, 0.5, 1.0),
                                     LinearWeingarten(1.0, -0.5, 1.0)], ids=repr)
    @pytest.mark.parametrize("lam", [1e-3, 2.0, 1e3])
    def test_linear_fform_rescales_as_fform(self, rel, lam):
        """A linear relation's f-form rescales to the f-form of the rescaled
        linear relation, whose g is the rescaled g-form's."""
        scaled = rescale_relation(FForm(f_function(rel)), lam)
        assert isinstance(scaled, FForm)
        assert scaled.f.to_json() == f_function(rescale_relation(rel, lam)).to_json()
        by_g = rescale_relation(GForm(g_of(rel)), lam).g
        t = np.array([0.0, 0.3, 1.0, 7.0]) / lam ** 2
        assert np.allclose(np.asarray(g_of(scaled)(t)), np.asarray(by_g(t)), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("f", [
        SampledHermite(np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([-1.0, -1.0])),
        ClosedForm("mobius", {"alpha": 1.0, "beta": 0.5, "delta": 1.0}, Interval(-1.9, 5.0)),
    ], ids=["sampled", "mobius_off_branch"])
    def test_nonlinear_fform_not_rescaled(self, f):
        with pytest.raises(RelationError, match="linear f-form"):
            rescale_relation(FForm(f), 2.0)

    def test_residual_scales_inverse(self):
        out = solved_cap(1 / 16)
        lam = 2.0
        rel2 = rescale_relation(CMC(0.5), lam)
        # perturb off the solution so the compared residual is nonzero
        shifted = out.final_patch.copy()
        shifted.values = shifted.values + 0.05 * np.where(shifted.mask, 1.0, np.nan) * (
            np.cos(shifted.xy()[0]))
        r_base = residual_field(CMC(0.5), shifted)
        r_scaled = residual_field(rel2, rescale_patch(shifted, lam))
        m = np.isfinite(r_base)
        assert np.allclose(r_scaled[m], r_base[m] / lam, atol=1e-12)

    def test_sigma_scales_inverse(self):
        out = solved_cap(1 / 16)
        lam = 2.0
        s1 = second_fundamental_norm_field(out.final_patch)
        s2 = second_fundamental_norm_field(rescale_patch(out.final_patch, lam))
        m = np.isfinite(s1)
        assert np.allclose(s2[m], s1[m] / lam, rtol=1e-12)

    def test_h_function_invariant(self):
        out = solved_cap(1 / 16)
        patch = out.final_patch
        ny, nx = patch.shape
        lam = 3.0
        sel1 = blowup_select(patch, (ny // 2, nx // 2), 0.6)
        sel2 = blowup_select(rescale_patch(patch, lam), (ny // 2, nx // 2), 0.6 * lam)
        assert sel2.h_max == pytest.approx(sel1.h_max, abs=1e-10)
        assert sel2.q_n == sel1.q_n
        assert sel2.lambda_n == pytest.approx(sel1.lambda_n / lam, rel=1e-12)
        assert sel2.r_n == pytest.approx(sel1.r_n * lam, rel=1e-12)

    def test_identity_rescale(self):
        out = solved_cap(1 / 16)
        patch2 = rescale_patch(out.final_patch, 1.0)
        assert np.array_equal(patch2.values, out.final_patch.values, equal_nan=True)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            rescale_relation(CMC(1.0), 0.0)
        with pytest.raises(ValueError):
            rescale_patch(GraphPatch.rectangle((0, 1, 0, 1), 0.25), -1.0)

    @pytest.mark.parametrize("width", [0.5, 0.7, 0.9])
    def test_cap_solve_closed_under_rescaling(self, width):
        # the cap with R*H0 = width on the h = R/24 grid, scaled by lam:
        # H0 = 1/lam, R = width*lam, residual tolerance 1e-8/lam
        steps, centers = [], []
        for lam in (1.0, 1e-6, 1e-4, 1e-2, 1e4):
            radius = width * lam
            out = newton_solve(CMC(1.0 / lam), GraphPatch.disk((0.0, 0.0), radius, radius / 24),
                               tol_res=1e-8 / lam, max_iter=30)
            assert out.status == "converged", lam
            ny, nx = out.final_patch.shape
            steps.append(out.iterations)
            centers.append(out.final_patch.values[ny // 2, nx // 2] / lam)
        assert steps == [steps[0]] * len(steps)
        assert np.allclose(centers, centers[0], rtol=1e-12, atol=0.0)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _assert_same_patch(a, b):
    """Every field of two patches equal, floats bit for bit."""
    assert (a.x0, a.y0, a.h, a.kind, a.disk_spec) == (b.x0, b.y0, b.h, b.kind, b.disk_spec)
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(_bits(a.values[a.mask]), _bits(b.values[b.mask]))
    assert np.isnan(a.values[~a.mask]).all() and np.isnan(b.values[~b.mask]).all()
    for name in ("tie_node", "tie_inner"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("tie_tau", "tie_len", "tie_bc"):
        assert np.array_equal(_bits(getattr(a, name)), _bits(getattr(b, name))), name


_TIES = ("tie_node", "tie_inner", "tie_tau", "tie_len", "tie_bc")


def _no_text_parse(*args, **kwargs):
    raise AssertionError("the patch was parsed from text")


def _lone_array(blob, tmp_path):
    np.save(tmp_path / "lone.npy", np.arange(3.0))
    return [(tmp_path / "lone.npy").read_bytes()]


# damaged copies of a binary `save` wrote: (bytes, scratch dir) -> list of blobs
_DAMAGED_BINARIES = {
    "empty": lambda blob, _: [b""],
    "truncated": lambda blob, _: [blob[:n] for n in (4, 100, len(blob) // 2, len(blob) - 1)],
    "garbage": lambda blob, _: [np.random.default_rng(3).bytes(len(blob))],
    "lone_array": _lone_array,
    "flipped_byte": lambda blob, _: [blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:]
                                     for i in range(len(blob))],
}


def _loop_disk(center, radius, h, boundary, seen):
    """`GraphPatch.disk` as it was built by a Python scan over each cut node
    and direction: the reference the array builder matches bit for bit.
    `seen` counts the candidates with tau < 0 ("negative") and the slivers."""
    cx, cy = (float(v) for v in center)
    n = int(math.ceil(radius / h))
    x0, y0 = cx - n * h, cy - n * h
    size = 2 * n + 1
    mask = np.zeros((size, size), dtype=bool)
    patch = GraphPatch(x0, y0, h, mask, np.zeros((size, size)), (cx, cy, radius))
    X, Y = patch.xy()
    rho2 = (X - cx) ** 2 + (Y - cy) ** 2
    patch.mask = rho2 <= radius * radius * (1.0 + 1e-12)
    patch.values = np.where(patch.mask, np.asarray(grid._as_bc(0.0)(X, Y), dtype=float), np.nan)
    bc = grid._as_bc(boundary)
    R = radius
    cut = np.argwhere(patch.boundary_mask())
    nodes, inners, taus, lens_, bcs = [], [], [], [], []
    ny, nx = patch.shape
    for iy, ix in cut:
        px = patch.x0 + ix * patch.h - cx
        py = patch.y0 + iy * patch.h - cy
        best = None
        for dy, dx in grid.NEIGHBORS8:
            jy, jx = iy + dy, ix + dx
            outside = not (0 <= jy < ny and 0 <= jx < nx) or not patch.mask[jy, jx]
            if not outside:
                continue
            ky, kx = iy - dy, ix - dx
            if not (0 <= ky < ny and 0 <= kx < nx) or not patch.mask[ky, kx]:
                continue
            step = patch.h * math.hypot(dx, dy)
            ux, uy = dx / math.hypot(dx, dy), dy / math.hypot(dx, dy)
            pd = px * ux + py * uy
            disc = pd * pd - (px * px + py * py - R * R)
            if disc < 0.0:
                continue
            tau = -pd + math.sqrt(disc)
            if tau < -1e-12 * step or tau > step * (1.0 + 1e-9):
                continue
            seen["negative"] += int(tau < 0.0)
            if best is None or tau < best[0]:
                bx = cx + px + max(tau, 0.0) * ux
                by = cy + py + max(tau, 0.0) * uy
                best = (max(tau, 0.0), step, (ky, kx), (bx, by))
        if best is None:
            # isolated sliver: pin to the radially nearest circle point
            seen["sliver"] += 1
            rho = math.hypot(px, py)
            scale = R / rho if rho > 0 else 1.0
            patch.values[iy, ix] = float(np.asarray(bc(cx + px * scale, cy + py * scale)))
            continue
        tau, step, inner, (bx, by) = best
        nodes.append((iy, ix))
        inners.append(inner)
        taus.append(tau)
        lens_.append(step)
        bcs.append(float(np.asarray(bc(bx, by))))
    patch.tie_node = np.asarray(nodes, dtype=int).reshape(-1, 2)
    patch.tie_inner = np.asarray(inners, dtype=int).reshape(-1, 2)
    patch.tie_tau = np.asarray(taus, dtype=float)
    patch.tie_len = np.asarray(lens_, dtype=float)
    patch.tie_bc = np.asarray(bcs, dtype=float)
    if len(nodes):
        patch.values[patch.tie_node[:, 0], patch.tie_node[:, 1]] = patch.tie_bc
    return patch


def _tie_sweep():
    """(center, radius, h) of random disks, of disks shaped like the
    benchmark's over-wide solve (h = R/24), of disks narrower than 1.5 h, and
    of disks whose radius is a Pythagorean hypotenuse k h, so that grid nodes
    lie on the circle.  Shrunk by 4e-13, those nodes stay inside the mask
    tolerance but outside the circle and become slivers; around (0.79, -0.2)
    np.hypot and math.hypot round the radius of one of them differently."""
    rng = np.random.default_rng(20)
    disks = [(tuple(rng.uniform(-1.0, 1.0, 2)), r, r / rng.uniform(3.0, 30.0))
             for r in rng.uniform(0.05, 1.5, 120)]
    disks += [((0.0, 0.0), r, r / 24.0) for r in rng.uniform(0.9, 1.1, 60)]
    disks += [(tuple(rng.uniform(-1.0, 1.0, 2)), r, r / rng.uniform(0.5, 1.5))
              for r in rng.uniform(0.05, 1.5, 10)]
    disks += [(center, k * h * shrink, h) for h in (1 / 10, 1 / 24) for k in (5, 13, 25, 29)
              for center in ((0.0, 0.0), (0.3, -0.7), (0.79, -0.2)) for shrink in (1.0, 1.0 - 4e-13)]
    return disks


class TestDiskTies:
    def test_array_builder_matches_the_loop(self):
        seen = {"negative": 0, "sliver": 0}
        affine = lambda x, y: 0.1 + 0.2 * x - 0.3 * y
        for center, radius, h in _tie_sweep():
            for bc in (0.25, affine):
                _assert_same_patch(GraphPatch.disk(center, radius, h, boundary=bc),
                                   _loop_disk(center, radius, h, bc, seen))
        # both edge rules of the tie choice are exercised
        assert seen["negative"] > 0 and seen["sliver"] > 0, seen


class TestPatchIO:
    def test_save_load_roundtrip(self, tmp_path):
        solved = solved_cap(1 / 16).final_patch
        extreme = solved.copy()
        sel = solved.mask
        extreme.values[sel] = np.resize([-0.0, 5e-324, 1e308, -1e-300, 1.0 / 3.0], sel.sum())
        X, Y = solved.xy()
        for patch in (solved, extreme):
            csv, hdr = tmp_path / "u.csv", tmp_path / "u.json"
            patch.save(csv, hdr)
            _assert_same_patch(GraphPatch.load(csv, hdr), patch)
            # the columns a plain reader of the CSV sees are the grid's own bits
            rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
            expect = np.column_stack([X[sel], Y[sel], patch.values[sel]])
            assert np.array_equal(_bits(rows), _bits(expect))

    def test_loads_fixed_width_format(self, tmp_path):
        """Patches written as `%.18e` rows and an indented header load to the
        same bits as the shortest-decimal, compact files `save` writes."""
        patch = solved_cap(1 / 16).final_patch
        X, Y = patch.xy()
        sel = patch.mask
        old_csv, old_hdr = tmp_path / "old.csv", tmp_path / "old.json"
        np.savetxt(old_csv, np.column_stack([X[sel], Y[sel], patch.values[sel]]), fmt="%.18e",
                   delimiter=",", header="x,y,u", comments="")
        hdr = {
            "x0": patch.x0, "y0": patch.y0, "h": patch.h, "shape": list(patch.shape),
            "kind": patch.kind, "disk": list(patch.disk_spec),
            "mask": ["".join("1" if v else "0" for v in row) for row in patch.mask],
            "tie_node": patch.tie_node.tolist(), "tie_inner": patch.tie_inner.tolist(),
            "tie_tau": patch.tie_tau.tolist(), "tie_len": patch.tie_len.tolist(),
            "tie_bc": patch.tie_bc.tolist(),
        }
        with open(old_hdr, "w") as fh:
            json.dump(hdr, fh, sort_keys=True, indent=1)
        csv, new_hdr = tmp_path / "u.csv", tmp_path / "u.json"
        patch.save(csv, new_hdr)
        text = new_hdr.read_text()
        assert json.loads(text) == hdr
        assert text == json.dumps(hdr, sort_keys=True)
        _assert_same_patch(GraphPatch.load(old_csv, old_hdr), GraphPatch.load(csv, new_hdr))

    @pytest.mark.parametrize("kind", ["rectangle", "disk"])
    def test_binary_and_text_paths_agree(self, tmp_path, kind, monkeypatch):
        """The binary beside the CSV and the text it caches load to the same
        patch: arrays bit for bit with their dtypes, scalars as the same
        Python types."""
        patch = (solved_cap(1 / 16).final_patch if kind == "disk"
                 else GraphPatch.rectangle((-0.5, 0.5, -0.25, 0.5), 1 / 8, boundary=0.25))
        csv, hdr = tmp_path / "u.csv", tmp_path / "u.json"
        patch.save(csv, hdr)
        with monkeypatch.context() as m:
            m.setattr(np, "loadtxt", _no_text_parse)
            binary = GraphPatch.load(csv, hdr)
        (tmp_path / "u.bin").unlink()
        text = GraphPatch.load(csv, hdr)
        _assert_same_patch(binary, text)
        _assert_same_patch(binary, patch)
        for name in ("x0", "y0", "h", "kind", "disk_spec"):
            assert type(getattr(binary, name)) is type(getattr(text, name)), name
        if kind == "disk":
            assert [type(v) for v in binary.disk_spec] == [type(v) for v in text.disk_spec]
        for name in ("mask", "values") + _TIES:
            assert getattr(binary, name).dtype == getattr(text, name).dtype, name
            assert getattr(binary, name).shape == getattr(text, name).shape, name

    def test_edited_csv_loads_edited_value(self, tmp_path):
        patch = solved_cap(1 / 16).final_patch
        csv, hdr = tmp_path / "u.csv", tmp_path / "u.json"
        patch.save(csv, hdr)
        lines = csv.read_text().splitlines(keepends=True)
        x, y, _ = lines[1].split(",")
        lines[1] = f"{x},{y},0.125\n"
        csv.write_text("".join(lines))
        expect = patch.copy()
        expect.values[tuple(np.argwhere(patch.mask)[0])] = 0.125
        _assert_same_patch(GraphPatch.load(csv, hdr), expect)

    def test_edited_header_loads_through_text(self, tmp_path):
        patch = solved_cap(1 / 16).final_patch
        csv, hdr = tmp_path / "u.csv", tmp_path / "u.json"
        patch.save(csv, hdr)
        fields = json.loads(hdr.read_text())
        fields["x0"] += 0.5
        hdr.write_text(json.dumps(fields, sort_keys=True))
        expect = patch.copy()
        expect.x0 += 0.5
        _assert_same_patch(GraphPatch.load(csv, hdr), expect)

    @pytest.mark.parametrize("damage", sorted(_DAMAGED_BINARIES))
    def test_damaged_binary_loads_through_text(self, tmp_path, damage):
        """A binary that is truncated, garbage, a lone .npy array or damaged
        anywhere (every byte flipped in turn) never raises: the text gives
        the patch."""
        patch = GraphPatch.disk((0.0, 0.0), 1.0, 1 / 4, boundary=0.125)
        csv, hdr, binary = tmp_path / "u.csv", tmp_path / "u.json", tmp_path / "u.bin"
        patch.save(csv, hdr)
        for blob in _DAMAGED_BINARIES[damage](binary.read_bytes(), tmp_path):
            binary.write_bytes(blob)
            _assert_same_patch(GraphPatch.load(csv, hdr), patch)

    def test_binary_layout(self, tmp_path):
        """A CRC line, a JSON line, then the arrays' raw bytes in order."""
        patch = solved_cap(1 / 16).final_patch
        csv, hdr = tmp_path / "u.csv", tmp_path / "u.json"
        patch.save(csv, hdr)
        blob = (tmp_path / "u.bin").read_bytes()
        crc, meta, data = blob.split(b"\n", 2)
        assert crc == b"%08x" % zlib.crc32(blob[9:])
        meta = json.loads(meta)
        assert meta["csv_sha256"] == hashlib.sha256(csv.read_bytes()).hexdigest()
        assert meta["header_sha256"] == hashlib.sha256(hdr.read_bytes()).hexdigest()
        arrays = [getattr(patch, name) for name in ("mask", "values") + _TIES]
        assert meta["arrays"] == [[name, a.dtype.str, list(a.shape)]
                                  for name, a in zip(("mask", "values") + _TIES, arrays)]
        assert data == b"".join(a.tobytes() for a in arrays)

    def test_old_npz_alone_loads_through_text(self, tmp_path, monkeypatch):
        """The binary of earlier versions, an `np.savez` beside the CSV, is
        not read: with no `.bin` the text gives the patch."""
        patch = solved_cap(1 / 16).final_patch
        csv, hdr = tmp_path / "u.csv", tmp_path / "u.json"
        patch.save(csv, hdr)
        (tmp_path / "u.bin").unlink()
        np.savez(tmp_path / "u.npz", mask=patch.mask, values=patch.values)
        parsed = []
        loadtxt = np.loadtxt

        def no_npz_read(*args, **kwargs):
            raise AssertionError("np.load read the old binary")

        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parsed.append(a) or loadtxt(*a, **k))
        monkeypatch.setattr(np, "load", no_npz_read)
        _assert_same_patch(GraphPatch.load(csv, hdr), patch)
        assert len(parsed) == 1

    def test_binary_bytes_repeat(self, tmp_path, monkeypatch):
        """Two saves of one patch, a day apart by the clock, write the same
        binary bytes."""
        patch = solved_cap(1 / 16).final_patch
        blobs = []
        for name, shift in (("a", 0.0), ("b", 86400.0)):
            now = time.time() + shift
            with monkeypatch.context() as m:
                m.setattr(time, "time", lambda: now)
                patch.save(tmp_path / f"{name}.csv", tmp_path / f"{name}.json")
            blobs.append((tmp_path / f"{name}.bin").read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_row_raises(self, tmp_path):
        csv, hdr = tmp_path / "u.csv", tmp_path / "u.json"
        solved_cap(1 / 16).final_patch.save(csv, hdr)
        lines = csv.read_text().splitlines(keepends=True)
        csv.write_text("".join(lines[:5] + lines[6:]))
        with pytest.raises(ValueError):
            GraphPatch.load(csv, hdr)

    @pytest.mark.parametrize("kind", ["rectangle", "disk"])
    @pytest.mark.parametrize("data", ["constant", "affine"])
    def test_reload_resolves_in_zero_iterations(self, tmp_path, kind, data):
        bc = 0.0 if data == "constant" else (lambda x, y: 0.1 + 0.2 * x - 0.3 * y)
        if kind == "disk":
            patch = GraphPatch.disk((0.0, 0.0), 1.0, 1 / 32, boundary=bc)
        else:
            patch = GraphPatch.rectangle((-0.5, 0.5, -0.5, 0.5), 1 / 32, boundary=bc)
        out = newton_solve(CMC(0.5), patch, tol_res=1e-10)
        assert out.status == "converged"
        csv, hdr = tmp_path / "u.csv", tmp_path / "u.json"
        out.final_patch.save(csv, hdr)
        back = GraphPatch.load(csv, hdr)
        for name in ("tie_node", "tie_inner", "tie_tau", "tie_len", "tie_bc"):
            assert np.array_equal(getattr(back, name), getattr(out.final_patch, name)), name
        again = newton_solve(CMC(0.5), back, tol_res=1e-10)
        assert again.status == "converged"
        assert again.iterations == 0
        assert np.array_equal(again.final_patch.values, out.final_patch.values, equal_nan=True)

    def test_jets_need_interior(self):
        patch = GraphPatch.rectangle((0, 1, 0, 1), 0.25)
        p, q, r, s, t = jet_fields(patch)
        keep = patch.interior_mask()
        assert np.isfinite(p[keep]).all()
        assert np.isnan(p[~keep]).all()


def _repr_rows(path, header, columns):
    """The oracle: one row per entry, each float formatted by `str.format`,
    which is its `repr`."""
    cols = [np.asarray(c, dtype=float).tolist() for c in columns]
    row = ",".join(["{}"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(map(row.format, *cols))


# where orjson's layout and `repr`'s part, or nearly do: the least subnormal,
# the ends of [1e-5, 1e-4), where only `repr` writes an exponent, 10.00001,
# whose digits hold 0.0000, the last values without an exponent and the first
# with one (1e16), and the largest double
EDGE_FLOATS = [5e-324, 1e-5, 9.999999999999999e-05, 1.0000000000000001e-05, 10.00001, 1e15,
               1e16, 9999999999999998.0, 1e22, 1.7976931348623157e308]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 2.2250738585072014e-308]


class TestWriteCsv:
    """`write_csv` writes the bytes of the per-row `repr` writer."""

    @staticmethod
    def assert_same_bytes(tmp_path, columns):
        write_csv(tmp_path / "fast.csv", "header", columns)
        _repr_rows(tmp_path / "oracle.csv", "header", columns)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays(np.float64, st.tuples(st.integers(0, 40), st.integers(1, 6)),
                  elements=st.floats(width=64) | st.sampled_from(EDGE_FLOATS + SPECIAL_FLOATS)
                  | st.floats(1e-5, 1e-4) | st.floats(-1e-4, -1e-5)))
    def test_random_tables(self, tmp_path, table):
        self.assert_same_bytes(tmp_path, list(table.T))
        # the same rows in blocks of 7, so block ends fall on every kind of value
        with pytest.MonkeyPatch.context() as m:
            m.setattr(grid, "CSV_BLOCK", 7)
            self.assert_same_bytes(tmp_path, list(table.T))

    def test_rows_across_blocks(self, tmp_path, rng):
        n = 2 * grid.CSV_BLOCK + 3
        values = np.array(EDGE_FLOATS + SPECIAL_FLOATS)
        table = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-310, 300, (n, 3))
        edge = rng.random((n, 3)) < 0.2
        table[edge] = rng.choice(np.concatenate([values, -values]), np.count_nonzero(edge))
        self.assert_same_bytes(tmp_path, list(table.T))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_edge_values(self, tmp_path, k):
        values = np.array(EDGE_FLOATS + SPECIAL_FLOATS)
        values = np.concatenate([values, -values])
        # every value, signed both ways, in every column
        self.assert_same_bytes(tmp_path, [np.roll(values, j) for j in range(k)])

    @pytest.mark.parametrize("k", range(1, 7))
    def test_zero_rows(self, tmp_path, k):
        self.assert_same_bytes(tmp_path, [np.empty(0)] * k)
        assert (tmp_path / "fast.csv").read_bytes() == b"header\n"


@pytest.mark.parametrize("h", [0.0, -0.125, math.inf, math.nan])
def test_grid_step_must_be_finite_and_positive(h):
    with pytest.raises(ValueError, match="grid step h"):
        GraphPatch.rectangle((0, 1, 0, 1), h)
    with pytest.raises(ValueError, match="grid step h"):
        GraphPatch.disk((0.0, 0.0), 1.0, h)


def test_blowup_selection_json():
    sel = BlowupSelection((3, 4), 1.5, 2.0, 3.0)
    blob = report_json(sel)
    assert blob == {"q_n": [3, 4], "lambda_n": 1.5, "r_n": 2.0, "h_max": 3.0}
