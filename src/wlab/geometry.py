"""Exact and ODE-generated test surfaces.

Parallel (offset) surfaces transform principal curvatures by the Mobius map
k -> k/(1 - a*k); conjugating a relation by that map gives the relation its
offsets satisfy.  Rotational profiles are generated by integrating the
relation's first-order system in arclength: the meridian curvature is the
tangent-angle rate and the parallel curvature is sin(theta)/r, and the
relation ties one to the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DomainError, RelationError
from .relation import (CMC, FForm, LinearWeingarten, RelationSpec, SampledHermite,
                       _linear_coefficients, f_function, g_to_f)
from .solver import GraphPatch, jet_fields

POLE_GUARD = 1.0e-9
AXIS_RADIUS = 1.0e-6
DEFAULT_STEP = 1.0e-3
PERIOD_TOL = 1.0e-4      # miss distance of a phase-space return in detect_period


@dataclass(frozen=True)
class CurvaturePair:
    """Ordered principal curvature pair, k1 >= k2."""

    k1: float
    k2: float

    def __post_init__(self):
        if self.k2 > self.k1:
            hi, lo = self.k2, self.k1
            object.__setattr__(self, "k1", hi)
            object.__setattr__(self, "k2", lo)


@dataclass(frozen=True)
class ParallelParams:
    """Offset distance with its curvature-avoidance margin: every curvature
    sample must keep |k - t0| >= epsilon, t0 = 1/a, for the offset at
    distance a to be immersed and complete."""

    a: float
    epsilon: float

    def __post_init__(self):
        if self.a == 0.0:
            raise RelationError("parallel offset distance must be nonzero")
        if self.epsilon <= 0.0:
            raise RelationError("regularity margin epsilon must be positive")

    @property
    def t0(self) -> float:
        return 1.0 / self.a

    def admissible(self, ks) -> bool:
        """Whether every curvature in the (N, 2) array `ks` keeps the margin."""
        ks = np.asarray(ks, dtype=float)
        return bool(np.all(np.abs(ks - self.t0) >= self.epsilon))


def f_a(t, a: float):
    """Mobius curvature transform t / (1 - a*t), inverse f_a(., -a); a t at
    the pole raises DomainError whose `index` is the first offender in t."""
    t = np.asarray(t, dtype=float)
    den = 1.0 - a * t
    bad = np.abs(den) <= POLE_GUARD * (1.0 + np.abs(a * t))
    if np.any(bad):
        index = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise DomainError(f"curvature transform pole: 1 - a*t vanishes (a={a})", index)
    return t / den


def parallel_curvatures(pair: CurvaturePair, a: float):
    """Principal curvatures of the offset at distance a, reordered, together
    with the metric degeneration factors (1 - a*k)^2 aligned to the output
    components."""
    out = []
    for name, k in (("k1", pair.k1), ("k2", pair.k2)):
        try:
            kt = float(f_a(k, a))
        except DomainError:
            raise DomainError(f"offset pole at principal curvature {name} = {k}") from None
        den = 1.0 - a * k
        out.append((kt, den * den))
    out.sort(key=lambda kv: -kv[0])
    new_pair = CurvaturePair(out[0][0], out[1][0])
    return new_pair, (out[0][1], out[1][1])


def conjugate_relation(rel: RelationSpec, a: float) -> RelationSpec:
    """Relation satisfied by parallel surfaces at distance a.

    In principal-curvature form this is the Mobius conjugation
    f -> F_a o f o F_{-a}.  Linear relations stay linear: conjugating the
    2x2 matrix [[-alpha, delta], [beta, alpha]] by [[1,0],[-a,1]] on the
    left and [[1,0],[a,1]] on the right reads off the new coefficients
    (the quantity alpha^2 + beta*delta is the matrix determinant up to sign
    and is preserved exactly).
    """
    if a == 0.0:
        return rel
    lin = _linear_coefficients(rel)
    if lin is not None:
        al, be, de = lin
        M = np.array([[-al, de], [be, al]])
        L = np.array([[1.0, 0.0], [-a, 1.0]])
        R = np.array([[1.0, 0.0], [a, 1.0]])
        Mt = L @ M @ R
        al2, be2, de2 = -Mt[0, 0], Mt[1, 0], Mt[0, 1]
        if be2 < 0.0 or (be2 == 0.0 and al2 < 0.0):
            al2, be2, de2 = -al2, -be2, -de2
        if abs(be2) < 1e-14 * max(abs(al2), 1.0):
            return CMC(de2 / (2.0 * al2))
        return LinearWeingarten(float(al2), float(be2), float(de2))

    f = f_function(rel)
    if f is None:
        f = g_to_f(rel).f
    if isinstance(f, SampledHermite):
        xs = f.breakpoints
    else:
        dom = f.domain
        lo = dom.lo if math.isfinite(dom.lo) else -50.0
        hi = dom.hi if math.isfinite(dom.hi) else 50.0
        xs = np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 2001)
    ys = np.asarray(f(xs), dtype=float)
    dys = np.asarray(f.derivative(xs), dtype=float)
    try:
        xt, yt = f_a(np.column_stack([xs, ys]), a).T
    except DomainError as exc:
        raise RelationError(
            f"conjugation pole on the sampled domain near x = {xs[exc.index[0]]:.9g}") from None
    # d/dx F_a(x) = 1/(1-a x)^2; chain rule along the parametrization by x
    dxt = 1.0 / (1.0 - a * xs) ** 2
    dyt = dys / (1.0 - a * ys) ** 2
    if not (np.all(np.diff(xt) > 0) or np.all(np.diff(xt) < 0)):
        raise RelationError("sampled domain crosses the conjugation pole; shrink the grid")
    order = np.argsort(xt)
    return FForm(SampledHermite(xt[order], yt[order], (dyt / dxt)[order]))


# ---------------------------------------------------------------------------
# Rotational profiles
# ---------------------------------------------------------------------------

@dataclass
class ProfileCurve:
    """Arclength-sampled rotational profile (r, z, theta) with curvatures.

    kappa_m is the meridian curvature (theta'), kappa_p = sin(theta)/r the
    parallel one; the generating relation enforces kappa_m = f(kappa_p)."""

    s: np.ndarray
    r: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    kappa_m: np.ndarray
    kappa_p: np.ndarray
    reason: str = "s_max"      # s_max | axis_contact | domain_exit

    def __len__(self) -> int:
        return self.s.size

    def save_csv(self, path):
        rows = np.column_stack([self.s, self.r, self.z, self.theta, self.kappa_m, self.kappa_p])
        np.savetxt(path, rows, delimiter=",", header="s,r,z,theta,kappa_m,kappa_p", comments="")


def rotational_profile(rel: RelationSpec, seed: tuple, step: float = DEFAULT_STEP,
                       s_max: float = 10.0) -> ProfileCurve:
    """Integrate r' = cos(theta), z' = sin(theta), theta' = f(sin(theta)/r)
    by the classical fixed-step fourth-order scheme.

    The state is held in Python floats, and each step's end-point evaluation
    is reused as the next step's first stage, so n steps call f 4n + 1
    times, once per stage.  Stops at s_max, at axis contact (r < 1e-6), or
    when sin(theta)/r leaves the domain of f; the truncated curve records
    the reason.
    """
    f = f_function(rel)
    if f is None:
        f = g_to_f(rel).f

    def rhs(r, th):
        """(kappa_m, kappa_p) at the state; kappa_m is theta'.  A kappa_p
        outside I_f raises f's DomainError."""
        if r < AXIS_RADIUS:
            raise _AxisContact()
        kp = math.sin(th) / r
        return float(f(kp)), kp

    r, z, th = (float(v) for v in seed)
    try:
        km, kp = rhs(r, th)
    except (_AxisContact, DomainError) as exc:
        raise RelationError(f"profile seed is not integrable: {exc}") from exc
    n_steps = max(int(math.ceil(s_max / step)), 1)
    half, sixth = 0.5 * step, step / 6.0
    out = [(0.0, r, z, th, km, kp)]
    reason = "s_max"
    try:
        for k in range(n_steps):
            t2 = th + half * km
            m2, _ = rhs(r + half * math.cos(th), t2)
            t3 = th + half * m2
            m3, _ = rhs(r + half * math.cos(t2), t3)
            t4 = th + step * m3
            m4, _ = rhs(r + step * math.cos(t3), t4)
            r = r + sixth * (math.cos(th) + 2.0 * math.cos(t2) + 2.0 * math.cos(t3) + math.cos(t4))
            z = z + sixth * (math.sin(th) + 2.0 * math.sin(t2) + 2.0 * math.sin(t3) + math.sin(t4))
            th = th + sixth * (km + 2.0 * m2 + 2.0 * m3 + m4)
            km, kp = rhs(r, th)
            out.append(((k + 1) * step, r, z, th, km, kp))
    except _AxisContact:
        reason = "axis_contact"
    except DomainError:
        reason = "domain_exit"
    return ProfileCurve(*np.array(out).T, reason)


class _AxisContact(Exception):
    pass


def detect_period(profile: ProfileCurve) -> Optional[float]:
    """First return time of (r, theta) to its initial value.

    Scans for a local minimum of the phase distance after the trajectory has
    left the initial neighborhood, then refines it with a parabolic fit.  A
    minimum is a return when the fitted miss distance is below PERIOD_TOL plus
    half the phase distance travelled in one sample step: the fit's error
    grows with the step and the phase speed, so a fixed tolerance rejects
    true returns at coarse steps.  Returns None when no return is found.
    """
    d2 = (profile.r - profile.r[0]) ** 2 + (profile.theta - profile.theta[0]) ** 2
    leave = math.sqrt(float(np.max(d2))) * 0.25
    if leave <= PERIOD_TOL:
        return None
    left = False
    for k in range(1, len(d2) - 1):
        if not left:
            left = d2[k] > leave * leave
            continue
        if d2[k] <= d2[k - 1] and d2[k] <= d2[k + 1] and d2[k] < leave * leave * 0.25:
            den = d2[k + 1] - 2.0 * d2[k] + d2[k - 1]
            shift = 0.0 if den <= 0 else 0.5 * (d2[k - 1] - d2[k + 1]) / den
            ds = profile.s[k + 1] - profile.s[k]
            s_star = profile.s[k] + shift * ds
            d_min = d2[k] - 0.25 * (d2[k - 1] - d2[k + 1]) * shift
            step_travel = math.sqrt(max(den, 0.0) / 2.0)   # phase speed * step
            if d_min < (PERIOD_TOL + 0.5 * step_travel) ** 2:
                return float(s_star)
            left = False  # spurious shallow minimum; keep scanning
    return None


def offset_profile(profile: ProfileCurve, a: float,
                   params: Optional[ParallelParams] = None) -> ProfileCurve:
    """Geometric offset of a rotational profile along its surface normal.

    The normal of the profile plane is (-sin(theta), cos(theta)); offsetting
    keeps theta and transforms both curvatures by k -> k/(1 - a*k).
    """
    if params is not None:
        if abs(params.a - a) > 1e-15:
            raise RelationError("params.a disagrees with the offset distance")
        if not params.admissible(np.column_stack([profile.kappa_m, profile.kappa_p])):
            raise DomainError("curvature samples violate the |k - t0| >= epsilon margin")
    try:
        km, kp = f_a(profile.kappa_m, a), f_a(profile.kappa_p, a)
    except DomainError:
        raise DomainError("offset pole along the profile") from None
    r_new = profile.r - a * np.sin(profile.theta)
    z_new = profile.z + a * np.cos(profile.theta)
    # ds' = (1 - a*kappa_m) ds along the offset curve
    ds = np.diff(profile.s)
    fac = 1.0 - a * profile.kappa_m
    s_new = np.concatenate([[0.0], np.cumsum(0.5 * (fac[:-1] + fac[1:]) * ds)])
    return ProfileCurve(s_new, r_new, z_new, profile.theta.copy(), km, kp, profile.reason)


def angle_function(obj: Union[GraphPatch, ProfileCurve]):
    """Vertical component of the unit normal.

    Graphs use the upward normal, nu = 1/sqrt(1+p^2+q^2) > 0 (NaN off the
    interior); profiles use the rotational normal, nu = cos(theta)."""
    if isinstance(obj, GraphPatch):
        p, q, _, _, _ = jet_fields(obj)
        with np.errstate(invalid="ignore"):
            return 1.0 / np.sqrt(1.0 + p * p + q * q)
    if isinstance(obj, ProfileCurve):
        return np.cos(obj.theta)
    raise TypeError(f"angle_function expects a GraphPatch or ProfileCurve, got {type(obj)!r}")
