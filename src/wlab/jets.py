"""Pointwise evaluation on second-order jets of a graph z = u(x, y).

A jet (p, q, r, s, t) packs the first and second derivatives of u at a
point.  This module holds the one curvature kernel every other module
calls: the 9-point stencil that reads jets off a grid, mean, Gauss and
principal curvatures of the graph there (upward unit normal), t = H^2 - K,
g and g' at that t, the residual of a Weingarten relation and its first
derivatives, and the eigenvalues of the quadratic form of
(1+p^2+q^2)^2 * (H^2 - K) in (r, s, t) with the quartic discriminant
underneath them.  Of the package it imports only `errors`.

Clamp rule: H^2 - K = ((k1 - k2)/2)^2 is never negative for a jet, so a
negative value is roundoff, whose size scales with H^2 + |K|.  `g_at` reads
g at t = max(H^2 - K, 0) (`h2_minus_k`); no absolute tolerance is
involved, which keeps the residual closed under rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Jet2:
    """Second-order jet (p, q, r, s, t) of a graph function."""

    p: float
    q: float
    r: float
    s: float
    t: float

    def __post_init__(self):
        for name in ("p", "q", "r", "s", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"jet component {name} is not finite")


def stencil_jets(u: np.ndarray, h: float, iy: np.ndarray, ix: np.ndarray):
    """(p, q, r, s, t) of the gridded function u (spacing h) at the nodes
    (iy, ix), by centered differences on the 9-point stencil; every node
    needs its 8 neighbours inside u."""
    p = (u[iy, ix + 1] - u[iy, ix - 1]) / (2 * h)
    q = (u[iy + 1, ix] - u[iy - 1, ix]) / (2 * h)
    r = (u[iy, ix + 1] - 2 * u[iy, ix] + u[iy, ix - 1]) / h ** 2
    t = (u[iy + 1, ix] - 2 * u[iy, ix] + u[iy - 1, ix]) / h ** 2
    s = (u[iy + 1, ix + 1] - u[iy + 1, ix - 1] - u[iy - 1, ix + 1] + u[iy - 1, ix - 1]) / (4 * h ** 2)
    return p, q, r, s, t


def mean_gauss(p, q, r, s, t):
    """H and K of the graph with upward normal; accepts scalars or arrays."""
    p, q, r, s, t = (np.asarray(v, dtype=float) for v in (p, q, r, s, t))
    w2 = 1.0 + p * p + q * q
    H = ((1.0 + q * q) * r - 2.0 * p * q * s + (1.0 + p * p) * t) / (2.0 * w2 ** 1.5)
    K = (r * t - s * s) / (w2 * w2)
    return H, K


def principal_curvatures(p, q, r, s, t):
    """(k1, k2), k1 >= k2, of the graph with upward normal: the eigenvalues of
    C^-1 II C^-T for the Cholesky factor C of the first fundamental form, whose
    half difference, unlike sqrt(H^2 - K), does not cancel at an umbilic."""
    p, q, r, s, t = (np.asarray(v, dtype=float) for v in (p, q, r, s, t))
    a = 1.0 + p * p
    w2 = a + q * q
    m = p * q / a                # C21 / C11
    s11 = r / (np.sqrt(w2) * a)
    s12 = (s - m * r) / w2
    s22 = (t - m * (2.0 * s - m * r)) * a / w2 ** 1.5
    mid = 0.5 * (s11 + s22)
    rad = np.hypot(0.5 * (s11 - s22), s12)
    return mid + rad, mid - rad


def curvatures_of_jet(j: Jet2):
    """(H, K) at a single jet."""
    H, K = mean_gauss(j.p, j.q, j.r, j.s, j.t)
    return float(H), float(K)


def jet_partials(p, q, r, s, t):
    """Analytic first partials of H and K in the five jet components.

    Returns (dH, dK), each a tuple of five arrays ordered (p, q, r, s, t).
    """
    p, q, r, s, t = (np.asarray(v, dtype=float) for v in (p, q, r, s, t))
    w2 = 1.0 + p * p + q * q
    num = (1.0 + q * q) * r - 2.0 * p * q * s + (1.0 + p * p) * t
    detr = r * t - s * s
    H_p = (-1.5 * p * num + (p * t - q * s) * w2) / w2 ** 2.5
    H_q = (-1.5 * q * num + (q * r - p * s) * w2) / w2 ** 2.5
    H_r = (1.0 + q * q) / (2.0 * w2 ** 1.5)
    H_s = -p * q / w2 ** 1.5
    H_t = (1.0 + p * p) / (2.0 * w2 ** 1.5)
    K_p = -4.0 * p * detr / w2 ** 3
    K_q = -4.0 * q * detr / w2 ** 3
    K_r = t / w2 ** 2
    K_s = -2.0 * s / w2 ** 2
    K_t = r / w2 ** 2
    return (H_p, H_q, H_r, H_s, H_t), (K_p, K_q, K_r, K_s, K_t)


def h2_minus_k(H, K):
    """t = H^2 - K clamped at 0 (see the module docstring); NaN passes through."""
    return np.maximum(H * H - K, 0.0)


def g_at(g, H, K, derivative: bool = False):
    """g(t), and g'(t) when `derivative` is set, at t = h2_minus_k(H, K).

    NaN curvatures give NaN.  A t outside g's domain raises DomainError
    whose `index` is the position of the first offender in H."""
    t = np.asarray(h2_minus_k(H, K))
    ok = ~np.isnan(t)

    def at(fn):
        out = np.full(t.shape, np.nan)
        try:
            out[ok] = fn(t[ok])
        except DomainError as exc:
            index = np.unravel_index(np.flatnonzero(ok)[exc.index[0]], t.shape)
            raise DomainError(f"relation domain violated: H^2-K = {float(t[index]):.6g}",
                              index) from None
        return out

    return (at(g), at(g.derivative)) if derivative else at(g)


def residual_fields(g, p, q, r, s, t, with_gradient: bool = False):
    """Vectorized Weingarten residual H - g(H^2-K) and, optionally, its
    analytic gradient in the jet components.  `g` is a ScalarFunction."""
    H, K = mean_gauss(p, q, r, s, t)
    if not with_gradient:
        return H - g_at(g, H, K)
    gv, gp = g_at(g, H, K, derivative=True)
    dH, dK = jet_partials(p, q, r, s, t)
    grads = tuple(dH[i] - gp * (2.0 * H * dH[i] - dK[i]) for i in range(5))
    return H - gv, grads


# ---------------------------------------------------------------------------
# Spectral quantities of the second-order symbol
# ---------------------------------------------------------------------------

def q4(x, y):
    """Quartic discriminant under the eigenvalue formula, expanded form."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (x ** 4 + x ** 3 * (8.0 * y - 4.0) + 2.0 * x * x * y * (14.0 + 9.0 * y)
            + (y * y - 2.0 * y - 2.0) ** 2 + 4.0 * x * (2.0 + 10.0 * y + 7.0 * y * y + 2.0 * y ** 3))


def q4_rewritten(x, y):
    """Same polynomial as a square plus a manifestly nonnegative remainder."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = x + y
    return (u * u - 2.0 * u - 2.0) ** 2 + 4.0 * x * y * (10.0 + x * x + 10.0 * y + y * y + x * (10.0 + 3.0 * y))


def h2k_eigenvalues(p, q):
    """Eigenvalues (lam1^2, lam2^2, 0) of the quadratic form of
    (1+p^2+q^2)^2 * (H^2-K) in (r, s, t), by the closed formula."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    x, y = p * p, q * q
    w2 = 1.0 + x + y
    base = 6.0 + x * x + 6.0 * y + y * y + x * (6.0 + 4.0 * y)
    root = np.sqrt(q4(x, y))
    lam1 = (base + root) / (8.0 * w2)
    lam2 = (base - root) / (8.0 * w2)
    return lam1, lam2, np.zeros_like(lam1)
