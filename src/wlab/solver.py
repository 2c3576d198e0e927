"""Damped Newton iteration for the Dirichlet problem of the Weingarten graph
PDE on a 9-point stencil, over the patches of `wlab.grid`.

A converging solve factors its Jacobian once.  The first Newton step
factors it with SuperLU: the unknowns are eliminated in a geometric
nested-dissection order of their grid nodes, computed once per solve,
without pivoting, which keeps about half the fill of a pivoted COLAMD
factorization.  A factorization that is exactly singular, or whose step is
not finite or has a relative backward error above 1e-8, is redone with
SuperLU's COLAMD order and threshold partial pivoting.  The factor P is
then frozen: each later step solves J_k s = -F_k inexactly (Kelley 2003),
by GMRES on the right-preconditioned operator J_k P^-1, so GMRES minimizes
the true residual |J_k s + F_k| itself.  Step k asks for the relative
residual eta_k of Eisenstat & Walker (1996), choice 2 with gamma = 0.1:
eta_k = 0.1 (|w_k| / |w_{k-1}|)^2 on the work residual w, raised to
0.5 tol / |F_k|_inf near the tolerance, capped at 0.1 and never below
1e-8, and checked on J_k s + F_k after GMRES returns.  A step that misses
the check within three restart cycles of 20 is factored afresh and solved
to 1e-8, and so is the step after one that GMRES solved in more than 15
iterations; the old factor is freed first.  The rules count iterations and
residuals and read no clock, so reruns are identical.

Also here: the norm of the second fundamental form per node and the
intrinsic h-function maximizer used by blow-up arguments (h = |sigma| *
distance to the boundary of an intrinsic disk).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import DomainError
from .grid import NEIGHBORS8, GraphPatch, interior_of, jet_fields
from .jets import mean_gauss, residual_fields, stencil_jets
from .relation import RelationSpec, g_of

# scipy is imported by the functions that use it, not with the module:
# `wlab certify`, `revolve`, `parallel` and `linop` never load it
if TYPE_CHECKING:
    import scipy.sparse as sp

ARMIJO_FACTOR = 0.5
ARMIJO_SLOPE = 1.0e-4
MIN_STEP = 2.0 ** -20
SLOPE_LIMIT = 1.0e6          # interior |Du| beyond this counts as divergence
RESIDUAL_GROWTH_RUN = 5      # accepted steps with growing residual => diverged
ND_LEAF = 64                 # nested dissection keeps node sets this small in given order
BACKWARD_ERROR_LIMIT = 1e-8  # relative |J x - b| / |b| every Newton step must meet
KRYLOV_RESTART = 20          # GMRES restart length
KRYLOV_CYCLES = 3            # GMRES restart cycles before the step is refactored
KRYLOV_REFACTOR_ITERS = 15   # more GMRES iterations than this: factor the next Jacobian
FORCING_GAMMA = 0.1          # Eisenstat-Walker choice 2: eta = gamma (|w_k| / |w_{k-1}|)^2
FORCING_MAX = 0.1            # loosest relative residual a Newton step asks of GMRES
DEFAULT_TOL_RES = 1.0e-8     # sup-norm residual at which Newton stops
DEFAULT_MAX_ITER = 40

# (dy, dx) of the 9-point stencil, in the order of the coefficients in _System.jacobian
_STENCIL9 = [(0, 1), (0, -1), (1, 0), (-1, 0), (0, 0), (1, 1), (-1, -1), (1, -1), (-1, 1)]


def _interior_residual(g, values: np.ndarray, h: float, iy: np.ndarray, ix: np.ndarray,
                       with_gradient: bool = False):
    """Jets at the interior nodes (iy, ix) and the residual there (with its
    jet gradient when asked).  A relation-domain violation names its node."""
    jets = stencil_jets(values, h, iy, ix)
    try:
        return jets, residual_fields(g, *jets, with_gradient=with_gradient)
    except DomainError as exc:
        k = exc.index[0]
        raise DomainError(f"{exc} at node (iy={iy[k]}, ix={ix[k]})") from None


def second_fundamental_norm_field(patch: GraphPatch) -> np.ndarray:
    """|sigma| = sqrt(k1^2 + k2^2) = sqrt(4H^2 - 2K) per interior node (NaN elsewhere)."""
    H, K = mean_gauss(*jet_fields(patch))
    return np.sqrt(np.maximum(4.0 * H * H - 2.0 * K, 0.0))


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

@dataclass
class SolveOutcome:
    # converged | diverged | max_iterations | line_search_failure |
    # domain_violation (the initial guess already leaves g's domain; 0 iterations,
    # NaN residual, written as null)
    status: str
    residual_sup: float
    iterations: int
    final_patch: GraphPatch
    # one record per Newton iteration: residual_sup and residual_l2 after the
    # step, the accepted step_scale (0 if none), the rejected trial steps
    # (backtracks), the interior slope max |Du|, the GMRES iterations the
    # linear solve ran (krylov_iters; 0 when it had no factor to reuse),
    # whether the step factored its Jacobian (refactored), whether the
    # factor the step used, fresh or reused, is the pivoted COLAMD fallback
    # (pivoted), and the relative linear residual the step asked of GMRES
    # (forcing; a fresh factorization solves to BACKWARD_ERROR_LIMIT anyway)
    history: list = field(default_factory=list)


def nested_dissection(iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """Elimination order of the grid nodes (iy[k], ix[k]) by geometric nested
    dissection (A. George, SIAM J. Numer. Anal. 10, 1973).

    A node set is split at the grid line through the median of its longer
    side; both halves are ordered recursively and the line comes last.  The
    Newton rows couple nodes at most one grid step apart (9-point stencil and
    cut-node ties), so the line separates the halves.  Sets of at most
    ND_LEAF nodes keep their given order.  Returns a permutation of
    range(len(iy)).
    """
    iy, ix = np.asarray(iy), np.asarray(ix)
    parts = []

    def dissect(idx):
        if idx.size <= ND_LEAF:
            parts.append(idx)
            return
        y, x = iy[idx], ix[idx]
        coord = y if np.ptp(y) >= np.ptp(x) else x
        line = np.partition(coord, coord.size // 2)[coord.size // 2]
        dissect(idx[coord < line])
        dissect(idx[coord > line])
        parts.append(idx[coord == line])

    dissect(np.arange(iy.size))
    return np.concatenate(parts)


class Factor:
    """A SuperLU factor of one Newton Jacobian J0, applied in the original
    unknown numbering: `solve(b)` returns J0^-1 b.  `pivoted` marks the
    COLAMD fallback; otherwise the factor is unpivoted in the elimination
    order `order`."""

    def __init__(self, lu, order: Optional[np.ndarray]):
        self.lu = lu
        self.order = order
        self.pivoted = order is None

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.pivoted:
            return self.lu.solve(b)
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order])
        return x

    def release(self):
        """Free the LU storage now, although callers still hold this object."""
        self.lu = None


def _solves_to_limit(J: sp.spmatrix, x: np.ndarray, rhs: np.ndarray,
                     rtol: float = BACKWARD_ERROR_LIMIT) -> bool:
    # a non-finite x fails the comparison
    return bool(np.linalg.norm(J @ x - rhs) <= rtol * np.linalg.norm(rhs))


def _factor(J: sp.spmatrix, rhs: np.ndarray, order: np.ndarray):
    """Factor J afresh and solve J x = rhs; returns (x, factor).

    SuperLU factors J with rows and columns in the elimination order `order`
    and the diagonal as pivot (it swaps rows only at an exactly zero
    diagonal entry).  If that factorization is singular, or x misses
    BACKWARD_ERROR_LIMIT, J is factored again with COLAMD and threshold
    partial pivoting.  Raises RuntimeError when J is singular.
    """
    from scipy.sparse.linalg import splu

    try:
        factor = Factor(splu(J[order][:, order].tocsc(), permc_spec="NATURAL",
                             diag_pivot_thresh=0.0, options={"SymmetricMode": True}), order)
    except RuntimeError:
        pass
    else:
        x = factor.solve(rhs)
        if _solves_to_limit(J, x, rhs):
            return x, factor
        factor.release()
    factor = Factor(splu(J.tocsc()), None)
    return factor.solve(rhs), factor


def spsolve(J: sp.spmatrix, rhs: np.ndarray, order: np.ndarray,
            factor: Optional[Factor] = None, rtol: float = BACKWARD_ERROR_LIMIT):
    """Solve J x = rhs for one Newton step to |J x - rhs| <= rtol |rhs|;
    returns (x, factor, krylov_iters, refactored).

    With a `factor` P of an earlier Jacobian, GMRES (restart KRYLOV_RESTART,
    at most KRYLOV_CYCLES cycles, relative tolerance rtol) solves
    J P^-1 y = rhs, x = P^-1 y, and krylov_iters counts its iterations.  The
    bound is then checked on J x - rhs itself; a miss frees the given factor
    (`Factor.release`) and J is factored afresh, as it is when no factor is
    given, with an unpivoted nested-dissection LU and its checked COLAMD
    fallback (`_factor`), which solve to BACKWARD_ERROR_LIMIT whatever rtol
    is.  The factor returned is the one x came from, and refactored says
    whether it is new.  Raises RuntimeError when J must be factored and is
    singular.
    """
    krylov_iters = 0
    if factor is not None:
        from scipy.sparse.linalg import LinearOperator, gmres

        def count(_):
            nonlocal krylov_iters
            krylov_iters += 1

        # GMRES ends each cycle by applying J P^-1 to its iterate y, so the
        # last P^-1 y it computed is the step x
        last = [None, None]

        def preconditioned(y):
            last[:] = y.copy(), factor.solve(y)
            return J @ last[1]

        y, _ = gmres(LinearOperator(J.shape, matvec=preconditioned, dtype=float), rhs,
                     rtol=rtol, restart=KRYLOV_RESTART, maxiter=KRYLOV_CYCLES,
                     callback=count, callback_type="pr_norm")
        x = last[1] if np.array_equal(y, last[0]) else factor.solve(y)
        if _solves_to_limit(J, x, rhs, rtol):
            return x, factor, krylov_iters, False
        factor.release()
    x, factor = _factor(J, rhs, order)
    return x, factor, krylov_iters, True


class _System:
    """Index maps and assembly for one patch + relation."""

    def __init__(self, rel: RelationSpec, patch: GraphPatch):
        self.g = g_of(rel)
        self.patch = patch
        self.h = patch.h
        # the unknowns: interior nodes, then tied cut nodes (none on a rectangle)
        self.iy, self.ix = np.nonzero(patch.interior_mask())
        self.n_int = self.iy.size
        self.nodes = (np.concatenate([self.iy, patch.tie_node[:, 0]]),
                      np.concatenate([self.ix, patch.tie_node[:, 1]]))
        self.n = self.nodes[0].size
        self.index = np.full(patch.shape, -1, dtype=int)
        self.index[self.nodes] = np.arange(self.n)
        self.tie_inner = (patch.tie_inner[:, 0], patch.tie_inner[:, 1])
        self.tie_weight = patch.tie_tau / (patch.tie_tau + patch.tie_len)
        self.order = nested_dissection(*self.nodes)
        self._jacobian_pattern()

    def unknowns(self, values: np.ndarray) -> np.ndarray:
        return values[self.nodes]

    def insert(self, values: np.ndarray, z: np.ndarray) -> np.ndarray:
        out = values.copy()
        out[self.nodes] = z
        return out

    def residual(self, values: np.ndarray, with_gradient: bool = False):
        """Residual in two scalings.

        Returns (F_vec, work_vec, slope[, work_grads]):
        F_vec is the reported residual H - g(H^2-K) (plus the linear tie
        rows); work_vec scales the PDE rows by 2*(1+p^2+q^2)^(3/2), the
        quasilinear form whose Newton linearization stays well conditioned
        at steep slopes.  Both vanish together.
        """
        (p, q, _, _, _), res = _interior_residual(self.g, values, self.h, self.iy, self.ix,
                                                   with_gradient)
        F, grads = (res if with_gradient else (res, None))
        w3 = 2.0 * (1.0 + p * p + q * q) ** 1.5
        wgt = self.tie_weight
        tie = (values[self.nodes[0][self.n_int:], self.nodes[1][self.n_int:]]
               - (wgt * values[self.tie_inner] + (1.0 - wgt) * self.patch.tie_bc))
        F_vec = np.concatenate([F, tie])
        work = np.concatenate([w3 * F, tie])
        slope = float(np.max(np.abs(np.concatenate([p, q])))) if p.size else 0.0
        if not with_gradient:
            return F_vec, work, slope
        # d(w3*F)/dw = w3*F_w + F * d(w3)/dw;  d(w3)/dp = 6pW, d(w3)/dq = 6qW
        wroot = np.sqrt(1.0 + p * p + q * q)
        scaled = [w3 * grads[i] for i in range(5)]
        scaled[0] = scaled[0] + 6.0 * p * wroot * F
        scaled[1] = scaled[1] + 6.0 * q * wroot * F
        return F_vec, work, slope, tuple(scaled)

    def jacobian(self, grads) -> sp.csr_matrix:
        """The Jacobian of the work residual: the fixed pattern of
        `_jacobian_pattern` filled with this step's stencil coefficients."""
        import scipy.sparse as sp

        Fp, Fq, Fr, Fs, Ft = grads
        h = self.h
        coeffs = (
            Fp / (2 * h) + Fr / h ** 2,
            -Fp / (2 * h) + Fr / h ** 2,
            Fq / (2 * h) + Ft / h ** 2,
            -Fq / (2 * h) + Ft / h ** 2,
            -2 * Fr / h ** 2 - 2 * Ft / h ** 2,
            Fs / (4 * h ** 2),
            Fs / (4 * h ** 2),
            -Fs / (4 * h ** 2),
            -Fs / (4 * h ** 2),
        )
        vals = np.concatenate([np.stack(coeffs, axis=1)[self._keep], self._tie_vals])
        return sp.csr_matrix((vals, self._indices, self._indptr), shape=(self.n, self.n))

    def _jacobian_pattern(self):
        """CSR structure of the Jacobian, fixed per system, with the columns
        of each row in stencil order.  A row per interior node holds its
        9-point stencil without the nodes that carry boundary data (the
        `_keep` mask over (node, stencil entry)); a row per tie holds the
        tied node and its inner node, with constant values `_tie_vals`."""
        cols = np.stack([self.index[self.iy + dy, self.ix + dx] for dy, dx in _STENCIL9], axis=1)
        self._keep = cols >= 0
        tie_cols = np.column_stack([np.arange(self.n_int, self.n), self.index[self.tie_inner]])
        tie_keep = tie_cols >= 0
        w = self.tie_weight
        self._tie_vals = np.column_stack([np.ones_like(w), -w])[tie_keep]
        # 32-bit indices, which scipy would pick anyway, so no step copies them
        self._indices = np.concatenate([cols[self._keep], tie_cols[tie_keep]]).astype(np.int32)
        counts = np.concatenate([self._keep.sum(axis=1), tie_keep.sum(axis=1)])
        self._indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(counts, out=self._indptr[1:])


def newton_solve(rel: RelationSpec, patch0: GraphPatch, tol_res: float = DEFAULT_TOL_RES,
                 max_iter: int = DEFAULT_MAX_ITER) -> SolveOutcome:
    """Damped Newton for the Weingarten graph PDE with Dirichlet data.

    Armijo backtracking on the residual 2-norm (factor 0.5, minimum step
    2**-20); divergence is declared after five consecutive accepted steps of
    residual growth or when the interior slope exceeds 1e6.  An initial
    guess whose curvatures leave g's domain returns "domain_violation".
    """
    patch = patch0.copy()
    sys_ = _System(rel, patch)
    if sys_.n_int == 0:
        raise ValueError("patch has no interior nodes")
    values = patch.values.copy()
    history = []

    def outcome(status, res_sup, it):
        patch.values = values
        return SolveOutcome(status, float(res_sup), it, patch, history)

    try:
        F_vec, work, slope = sys_.residual(values)
    except DomainError:
        return outcome("domain_violation", math.nan, 0)
    res_sup = np.max(np.abs(F_vec))
    growth = 0
    factor, krylov_iters, refactored = None, 0, True
    prev_norm = None
    for it in range(1, max_iter + 1):
        if res_sup <= tol_res:
            return outcome("converged", res_sup, it - 1)
        if not refactored and krylov_iters > KRYLOV_REFACTOR_ITERS:
            factor = None    # the only reference, so its LU is freed before the next
        norm0 = np.linalg.norm(work)
        forcing = BACKWARD_ERROR_LIMIT
        if prev_norm is not None:
            forcing = max(BACKWARD_ERROR_LIMIT,
                          min(FORCING_MAX, max(FORCING_GAMMA * (norm0 / prev_norm) ** 2,
                                               0.5 * tol_res / res_sup)))
        prev_norm = norm0
        try:
            _, _, _, grads = sys_.residual(values, with_gradient=True)
            step, factor, krylov_iters, refactored = spsolve(sys_.jacobian(grads), -work,
                                                             sys_.order, factor, rtol=forcing)
        except (RuntimeError, DomainError, ValueError):
            return outcome("line_search_failure", res_sup, it - 1)
        if not np.all(np.isfinite(step)):
            return outcome("line_search_failure", res_sup, it - 1)

        z = sys_.unknowns(values)
        scale = 1.0
        backtracks = 0
        accepted = False
        while scale >= MIN_STEP:
            try:
                trial = sys_.insert(values, z + scale * step)
                F_new, work_new, slope_new = sys_.residual(trial)
            except DomainError:
                pass
            else:
                if np.linalg.norm(work_new) <= (1.0 - 2 * ARMIJO_SLOPE * scale) * norm0:
                    values, F_vec, work, slope = trial, F_new, work_new, slope_new
                    accepted = True
                    break
            scale *= ARMIJO_FACTOR
            backtracks += 1
        history.append({"residual_sup": float(np.max(np.abs(F_vec))),
                        "residual_l2": float(np.linalg.norm(F_vec)),
                        "step_scale": scale if accepted else 0.0, "backtracks": backtracks,
                        "slope": slope, "pivoted": factor.pivoted,
                        "krylov_iters": krylov_iters, "refactored": refactored,
                        "forcing": float(forcing)})
        if not accepted:
            return outcome("line_search_failure", res_sup, it)

        new_sup = np.max(np.abs(F_vec))
        growth = growth + 1 if new_sup > res_sup else 0
        res_sup = new_sup
        if slope > SLOPE_LIMIT or growth >= RESIDUAL_GROWTH_RUN:
            return outcome("diverged", res_sup, it)
    if res_sup <= tol_res:
        return outcome("converged", res_sup, max_iter)
    return outcome("max_iterations", res_sup, max_iter)


# ---------------------------------------------------------------------------
# Intrinsic distances and the blow-up h-function
# ---------------------------------------------------------------------------

def _grid_graph(patch: GraphPatch, allowed: np.ndarray):
    """(CSR graph, node map) of the 8-neighbour grid graph on `allowed`.

    The node map numbers the allowed nodes in row-major order (-1
    elsewhere).  The (8, ny, nx) arrays of neighbour numbers and secant
    lengths are filled from padded slices in `NEIGHBORS8` order and then
    compressed with the edge mask node by node, so each CSR row has its
    columns in ascending order: the neighbours of a node, in that order,
    are row-major.  Edge lengths are sqrt((h dx)^2 + (h dy)^2 + du^2)."""
    import scipy.sparse as sp

    ny, nx = patch.shape
    n = np.count_nonzero(allowed)
    pad_node = np.full((ny + 2, nx + 2), -1, dtype=np.int32)
    node = pad_node[1:-1, 1:-1]
    node[allowed] = np.arange(n, dtype=np.int32)
    pad_u = np.full((ny + 2, nx + 2), np.nan)
    pad_u[1:-1, 1:-1] = patch.values
    nbr = np.empty((8, ny, nx), dtype=np.int32)
    length = np.empty((8, ny, nx))
    for k, (dy, dx) in enumerate(NEIGHBORS8):
        shifted = (slice(1 + dy, 1 + dy + ny), slice(1 + dx, 1 + dx + nx))
        nbr[k] = pad_node[shifted]
        du = pad_u[shifted] - patch.values
        length[k] = np.sqrt((patch.h * dx) ** 2 + (patch.h * dy) ** 2 + du * du)
    edge = (nbr >= 0) & allowed
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(edge, axis=0)[allowed], out=indptr[1:])
    by_node = edge.transpose(1, 2, 0)
    graph = sp.csr_matrix((length.transpose(1, 2, 0)[by_node], nbr.transpose(1, 2, 0)[by_node],
                           indptr), shape=(n, n))
    return graph, node


def intrinsic_distances(patch: GraphPatch, sources, within: Optional[np.ndarray] = None,
                        limit: float = np.inf) -> np.ndarray:
    """Multi-source intrinsic distance over the 8-neighbor grid graph.

    An edge joins two allowed nodes (the patch mask, and `within` when
    given) one grid step apart, and its length is the secant length
    sqrt((h dx)^2 + (h dy)^2 + du^2) of the graph over it.  `sources` is an
    iterable of (iy, ix); sources outside the allowed set are ignored.
    Returns the distance of every node to its nearest source (scipy's
    csgraph Dijkstra), inf where no source is reachable or the distance
    exceeds `limit`.  A node within `limit` is reached only through nodes
    within it, so its distance has the same bits as without the limit.
    """
    # Imported here, not with the module: only the blow-up path needs
    # csgraph, and importing it in every process left `wlab solve` runs in
    # one of two heap layouts, chosen at random per process, whose peak RSS
    # differed by 4.5 MB.
    from scipy.sparse.csgraph import dijkstra

    allowed = patch.mask if within is None else (patch.mask & within)
    dist = np.full(patch.shape, np.inf)
    src = np.asarray(sources, dtype=int).reshape(-1, 2)
    src = src[allowed[src[:, 0], src[:, 1]]]
    if src.size == 0:
        return dist
    graph, node = _grid_graph(patch, allowed)
    dist[allowed] = dijkstra(graph, indices=node[src[:, 0], src[:, 1]], min_only=True,
                             limit=limit)
    return dist


@dataclass
class BlowupSelection:
    """Argmax bookkeeping for h(q) = |sigma(q)| * d(q, boundary of D)."""

    q_n: tuple          # (iy, ix) grid node
    lambda_n: float     # |sigma| at q_n
    r_n: float          # intrinsic distance of q_n to the disk boundary
    h_max: float


def blowup_select(patch: GraphPatch, center: tuple, radius: float,
                  sigma_field: Optional[np.ndarray] = None) -> BlowupSelection:
    """Maximize h = |sigma| * d(., boundary of the intrinsic disk D(center, radius)).

    `center` is a grid node (iy, ix).  Ties break toward the lowest
    row-major node index.  `sigma_field` overrides the patch's own |sigma|
    (useful for synthetic fields).

    Every step runs on the grid box of int(radius/h) + 2 nodes around the
    center, so a blow-up costs O(disk), not O(patch).  An 8-neighbour step
    is at least h long in the plane and its secant edge is no shorter, so
    a node more than int(radius/h) steps away is farther than `radius`.
    One more node absorbs the rounding of the summed edge lengths and one
    more gives each disk node its 8 neighbours, so the distances, the disk
    boundary, the jets of |sigma| and the argmax are those of the whole
    patch, bit for bit.  The center call stops at `radius`, which leaves
    the distance of every disk node as it is."""
    iy0, ix0 = patch.in_domain_node(center, "blow-up center")
    if not radius >= 0.0:
        raise ValueError("intrinsic disk is empty")
    k = int(min(radius / patch.h, max(patch.shape))) + 2
    y0, x0 = max(iy0 - k, 0), max(ix0 - k, 0)
    box = (slice(y0, iy0 + k + 1), slice(x0, ix0 + k + 1))
    crop = GraphPatch(patch.x0 + x0 * patch.h, patch.y0 + y0 * patch.h, patch.h,
                      patch.mask[box], patch.values[box])

    d_center = intrinsic_distances(crop, [(iy0 - y0, ix0 - x0)], limit=radius)
    in_disk = crop.mask & (d_center <= radius)
    # the disk's boundary: its nodes with a neighbour outside it or off the grid
    d_bd = intrinsic_distances(crop, np.argwhere(in_disk & ~interior_of(in_disk)), within=in_disk)
    sigma = second_fundamental_norm_field(crop) if sigma_field is None else np.asarray(sigma_field, dtype=float)[box]
    with np.errstate(invalid="ignore"):
        hfun = np.where(in_disk & np.isfinite(sigma) & np.isfinite(d_bd), sigma * d_bd, -np.inf)
    flat = int(np.argmax(hfun))
    qy, qx = divmod(flat, crop.shape[1])
    if not np.isfinite(hfun[qy, qx]):
        raise ValueError("h-function is nowhere finite on the disk")
    return BlowupSelection((qy + y0, qx + x0), float(sigma[qy, qx]), float(d_bd[qy, qx]),
                           float(hfun[qy, qx]))
