"""The linearized Weingarten operator on graph patches.

For a normal variation p + tau*phi*N of a surface satisfying H = g(H^2-K),
the curvature rates are 2 H'(0) = Lap(phi) + (4H^2-2K) phi and
K'(0) = div(T1 grad phi) + 2HK phi, with T1 = 2H*Id - S.  The linearized
operator combines them:

    L_g[phi] = ((1 - 2 g g')/2) Lap(phi) + g' div(T1 grad phi) + q phi,
    q = 2 g^2 (1 - 2 g g') - (1 - 4 g g') K,

with g, g' read at H^2 - K.  On a vertical cylinder of radius r0 (so
2*H0 = 1/r0) the operator has constant coefficients A, B, C in the flat
cylinder coordinates, and the product of boundary-vanishing cosines is an
eigenfunction whose sign threshold -A (pi/2L)^2 - B (pi/2r)^2 + C decides
when L_g[phi] > 0.

Everything here is realized in the graph chart with centered differences;
the finite-difference variation path and the formula path agree to
O(tau^2 + h^2) and are exercised against each other in the tests.

`uniform_ellipticity_lambda` bounds the linearization's principal symbol
[[F_r, F_s/2], [F_s/2, F_t]] from below over a compact `ThetaBox` of jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EllipticityError, RelationError
from .grid import GraphPatch, jet_fields
from .jets import mean_gauss, residual_fields, stencil_jets
from .relation import RelationSpec, certify_ellipticity, g_of

DEFAULT_MU0 = 10.0       # default l1 radius of the compact jet box


# ---------------------------------------------------------------------------
# Discrete intrinsic operators in the graph chart
# ---------------------------------------------------------------------------

def _ddx(a: np.ndarray, h: float) -> np.ndarray:
    out = np.full_like(a, np.nan)
    out[:, 1:-1] = (a[:, 2:] - a[:, :-2]) / (2.0 * h)
    return out


def _ddy(a: np.ndarray, h: float) -> np.ndarray:
    out = np.full_like(a, np.nan)
    out[1:-1, :] = (a[2:, :] - a[:-2, :]) / (2.0 * h)
    return out


def _metric_pieces(patch: GraphPatch):
    p, q, r, s, t = jet_fields(patch)
    w2 = 1.0 + p * p + q * q
    W = np.sqrt(w2)
    g11i = (1.0 + q * q) / w2
    g12i = -p * q / w2
    g22i = (1.0 + p * p) / w2
    return p, q, r, s, t, W, g11i, g12i, g22i


def laplace_beltrami(patch: GraphPatch, phi: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami of phi in the induced graph metric, two-stage
    centered differences; valid two rings inside the interior."""
    h = patch.h
    _, _, _, _, _, W, g11i, g12i, g22i = _metric_pieces(patch)
    phix, phiy = _ddx(phi, h), _ddy(phi, h)
    fx = W * (g11i * phix + g12i * phiy)
    fy = W * (g12i * phix + g22i * phiy)
    with np.errstate(invalid="ignore"):
        return (_ddx(fx, h) + _ddy(fy, h)) / W


def div_t1_grad(patch: GraphPatch, phi: np.ndarray) -> np.ndarray:
    """div(T1 grad phi) with T1 = 2H*Id - S in the graph chart."""
    h = patch.h
    p, q, r, s, t, W, g11i, g12i, g22i = _metric_pieces(patch)
    H, _ = mean_gauss(p, q, r, s, t)
    phix, phiy = _ddx(phi, h), _ddy(phi, h)
    gradx = g11i * phix + g12i * phiy
    grady = g12i * phix + g22i * phiy
    Sxx = (g11i * r + g12i * s) / W
    Sxy = (g11i * s + g12i * t) / W
    Syx = (g12i * r + g22i * s) / W
    Syy = (g12i * s + g22i * t) / W
    Vx = (2.0 * H - Sxx) * gradx - Sxy * grady
    Vy = -Syx * gradx + (2.0 * H - Syy) * grady
    with np.errstate(invalid="ignore"):
        return (_ddx(W * Vx, h) + _ddy(W * Vy, h)) / W


def variation_rhs_fields(patch: GraphPatch, phi: np.ndarray):
    """Formula path: (2*H'(0), K'(0)) as fields,
    Lap(phi) + (4H^2-2K) phi and div(T1 grad phi) + 2HK phi."""
    p, q, r, s, t = jet_fields(patch)
    H, K = mean_gauss(p, q, r, s, t)
    two_hp = laplace_beltrami(patch, phi) + (4.0 * H * H - 2.0 * K) * phi
    kp = div_t1_grad(patch, phi) + 2.0 * H * K * phi
    return two_hp, kp


# ---------------------------------------------------------------------------
# Finite-difference variation path
# ---------------------------------------------------------------------------

def _curvatures_and_normal(X: np.ndarray):
    """(H, K, Xu x Xv) of the parametrized patch X by the jet stencil with
    unit spacing at the interior nodes; NaN on the outer ring."""
    ny, nx = X.shape[:2]
    Xu, Xv, Xuu, Xuv, Xvv = stencil_jets(X, 1.0, np.arange(1, ny - 1)[:, None],
                                         np.arange(1, nx - 1))
    n = np.cross(Xu, Xv)
    with np.errstate(invalid="ignore"):
        nn = n / np.linalg.norm(n, axis=-1, keepdims=True)
        E = np.einsum("...k,...k->...", Xu, Xu)
        F = np.einsum("...k,...k->...", Xu, Xv)
        G = np.einsum("...k,...k->...", Xv, Xv)
        L = np.einsum("...k,...k->...", Xuu, nn)
        M = np.einsum("...k,...k->...", Xuv, nn)
        N = np.einsum("...k,...k->...", Xvv, nn)
        det = E * G - F * F
        H = (L * G - 2.0 * M * F + N * E) / (2.0 * det)
        K = (L * N - M * M) / det
    ring = ((1, 1), (1, 1))
    return (np.pad(H, ring, constant_values=np.nan), np.pad(K, ring, constant_values=np.nan),
            np.pad(n, ring + ((0, 0),), constant_values=np.nan))


def _varied_curvatures(patch: GraphPatch, phi: np.ndarray, tau_step: float) -> list:
    """[(H, K) at +tau, (H, K) at -tau] of the normal variations
    u +- tau*phi*N.  Raises when a varied surface stops being a graph
    (normal step too large for the patch's curvature)."""
    p, q, _, _, _ = jet_fields(patch)
    W = np.sqrt(1.0 + p * p + q * q)
    X, Y = patch.xy()
    base = np.stack([X, Y, patch.values], axis=-1)
    normal = np.stack([-p / W, -q / W, 1.0 / W], axis=-1)
    out = []
    for sign in (+1.0, -1.0):
        H, K, n = _curvatures_and_normal(base + sign * tau_step * phi[..., None] * normal)
        if np.any(np.isfinite(H) & (n[..., 2] <= 0.0)):
            raise ValueError("normal variation leaves graph form; reduce tau_step")
        out.append((H, K))
    return out


def variation_derivatives(patch: GraphPatch, phi: np.ndarray, tau_step: float):
    """(dH/dtau, dK/dtau) fields of the normal variation u + tau*phi*N by
    centered differences in tau; NaN outside the doubly-interior region.

    Raises when the varied surface stops being a graph (normal step too
    large for the patch's curvature)."""
    (H1, K1), (H0, K0) = _varied_curvatures(patch, phi, tau_step)
    return (H1 - H0) / (2.0 * tau_step), (K1 - K0) / (2.0 * tau_step)


# ---------------------------------------------------------------------------
# The linearized operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderOperator:
    """Constant-coefficient form A phi_ss + B phi_tt + C phi of L_g on a
    vertical cylinder of radius r0 (2*H0 = 1/r0), with C = 4*A*H0^2."""

    A: float
    B: float
    C: float
    H0: float
    r0: float


def cylinder_operator(rel: RelationSpec, r0: float) -> CylinderOperator:
    """Constants of L_g on the cylinder of radius r0; rejects when the
    cylinder does not satisfy the relation (|g(H0^2) - H0| > 1e-10), and
    when it is not elliptic there (4 H0^2 g'(H0^2)^2 >= 1: A or B <= 0)."""
    if not 0.0 < r0 < math.inf:
        raise ValueError(f"cylinder radius 'r0' must be finite and > 0, got {r0!r}")
    g = g_of(rel)
    H0 = 1.0 / (2.0 * r0)
    gv = float(g(H0 * H0))
    if abs(gv - H0) > 1e-10:
        raise RelationError(
            f"cylinder of radius {r0} does not satisfy the relation: g(H0^2) = {gv:.12g} "
            f"but H0 = {H0:.12g}")
    gp = float(g.derivative(H0 * H0))
    if not math.isfinite(gp):
        raise RelationError("g is not differentiable at the cylinder state")
    symbol = 4.0 * H0 * H0 * gp * gp
    if symbol >= 1.0:
        raise EllipticityError(f"cylinder of radius {r0} is not elliptic: "
                               f"4 H0^2 g'(H0^2)^2 = {symbol:.12g} >= 1")
    A = 0.5 * (1.0 - 2.0 * H0 * gp)
    B = A + 2.0 * H0 * gp
    C = 4.0 * A * H0 * H0
    return CylinderOperator(A, B, C, H0, r0)


def perturbation_threshold(op: CylinderOperator, L: float, r: float) -> float:
    """-A (pi/2L)^2 - B (pi/2r)^2 + C; positive means L_g[phi] > 0 inside
    [-L, L] x [-r, r] for phi = cos(pi s/2L) cos(pi t/2r)."""
    for key, value in (("L", L), ("r", r)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"box half-size {key!r} must be finite and > 0, got {value!r}")
    return -op.A * (math.pi / (2.0 * L)) ** 2 - op.B * (math.pi / (2.0 * r)) ** 2 + op.C


# ---------------------------------------------------------------------------
# Compact jet box and uniform ellipticity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaBox:
    """Compact jet set {p^2+q^2 <= slope_bound, |p|+|q|+|r|+|s|+|t| <= l1_bound}."""

    slope_bound: float = 9.0 / 4.0
    l1_bound: float = DEFAULT_MU0

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """count x 5 array of jets drawn inside the box (not exactly uniform;
        adequate for infimum estimation)."""
        out = np.empty((count, 5))
        got = 0
        while got < count:
            n = count - got
            ang = rng.uniform(0.0, 2.0 * math.pi, n)
            rad = np.sqrt(rng.uniform(0.0, 1.0, n)) * math.sqrt(self.slope_bound)
            p, q = rad * np.cos(ang), rad * np.sin(ang)
            rem = self.l1_bound - np.abs(p) - np.abs(q)
            ok = rem > 0.0
            if not np.any(ok):
                continue
            p, q, rem = p[ok], q[ok], rem[ok]
            y = rng.uniform(-1.0, 1.0, (p.size, 3))
            l1 = np.sum(np.abs(y), axis=1)
            l1[l1 == 0.0] = 1.0
            scale = rem * rng.uniform(0.0, 1.0, p.size) ** (1.0 / 3.0) / l1
            block = np.column_stack([p, q, y * scale[:, None]])
            take = min(block.shape[0], count - got)
            out[got:got + take] = block[:take]
            got += take
        return out


def uniform_ellipticity_lambda(rel: RelationSpec) -> float:
    """Infimum over sampled jets of the smallest eigenvalue of the
    second-order symbol [[F_r, F_s/2], [F_s/2, F_t]]: the origin jet and
    10,000 jets of the default `ThetaBox`, drawn with seed 0.
    Positive for uniformly elliptic relations; a non-positive result raises."""
    report = certify_ellipticity(rel)
    if report.uniform_constant_Lambda is None:
        raise EllipticityError("uniform_ellipticity_lambda needs a uniformly elliptic relation")
    g = g_of(rel)
    jets = np.vstack([np.zeros(5), ThetaBox().sample(10_000, np.random.default_rng(0))])
    _, grads = residual_fields(g, *(jets[:, i] for i in range(5)), with_gradient=True)
    Fr, Fs, Ft = grads[2], grads[3], grads[4]
    mid = 0.5 * (Fr + Ft)
    rad = np.sqrt((0.5 * (Fr - Ft)) ** 2 + (0.5 * Fs) ** 2)
    lam = float(np.min(mid - rad))
    if lam <= 0.0:
        raise EllipticityError(
            f"second-order symbol loses definiteness (min eigenvalue {lam:.3e}) "
            "for a relation certified uniformly elliptic")
    return lam
