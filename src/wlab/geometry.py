"""Exact and ODE-generated test surfaces.

Offsetting by a maps principal curvatures by k -> k/(1 - a*k) (`f_a`);
conjugating a relation by that map gives the relation the offsets satisfy.
Rotational profiles integrate the relation's first-order system in
arclength: the meridian curvature is the tangent-angle rate, the parallel
curvature is sin(theta)/r, and the relation ties one to the other.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DomainError, RelationError
from .grid import GraphPatch, jet_fields
from .relation import (CMC, FForm, LinearWeingarten, RelationSpec, SampledHermite, f_function,
                       g_to_f, linear_coefficients)

POLE_GUARD = 1.0e-9
AXIS_RADIUS = 1.0e-6
DEFAULT_STEP = 1.0e-3
DEFAULT_S_MAX = 10.0
MAX_PROFILE_STEPS = 1_000_000   # ceil(s_max / step) above this is rejected before integrating
PERIOD_TOL = 1.0e-4      # miss distance of a phase-space return in detect_period


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


def parallel_curvatures(pairs, a: float):
    """Principal curvatures of the offsets at distance a of N curvature pairs.

    `pairs` is an (N, 2) array of (k1, k2) rows in any order within a row; a
    single [k1, k2] is one row.  Returns two (N, 2) arrays: the offset
    curvatures, each row ordered k1 >= k2, and the metric degeneration
    factors (1 - a*k)^2 aligned to them.  A curvature on the pole raises
    DomainError naming its column (k1 or k2) and its row.
    """
    ks = np.atleast_2d(np.asarray(pairs, dtype=float))
    try:
        kt = f_a(ks, a)
    except DomainError as exc:
        row, col = exc.index
        raise DomainError(f"offset pole at principal curvature k{col + 1} = {ks[row, col]} "
                          f"(pair {row})", exc.index) from None
    den = 1.0 - a * ks
    order = np.argsort(-kt, axis=1, kind="stable")
    return np.take_along_axis(kt, order, 1), np.take_along_axis(den * den, order, 1)


def conjugate_relation(rel: RelationSpec, a: float) -> RelationSpec:
    """Relation satisfied by parallel surfaces at distance a.

    In principal-curvature form this is the Mobius conjugation
    f -> F_a o f o F_{-a}.  A linear relation, or an f-form whose f is
    exactly one's `f_function`, stays linear: conjugating the matrix
    [[-alpha, delta], [beta, alpha]] of f by [[1,0],[-a,1]] on the left and
    [[1,0],[a,1]] on the right reads off the new coefficients.  The
    similarity keeps the eigenvalues +-sqrt(alpha^2 + beta*delta), and with
    them the discriminant and the canonical fixed point, the one on +sqrt:
    the result's canonical branch holds F_a of the input's umbilic for
    either sign of beta'.  It is CMC when beta' is within rounding of the sum
    that forms it, at every length scale.  Any other f is sampled and mapped by F_a.
    """
    if a == 0.0:
        return rel
    lin = linear_coefficients(rel)
    if lin is not None:
        al, be, de = lin
        al2 = al - a * de
        be2 = be + a * (al + al2)
        # strict: an overflowed beta' stays linear, and LinearWeingarten rejects it
        if abs(be2) < 1e-14 * (abs(be) + abs(a) * (abs(al) + abs(al2))):
            return CMC(de / (2.0 * al2))
        return LinearWeingarten(al2, be2, de)

    f = f_function(rel) or g_to_f(rel).f
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
    # slope of x -> (F_a(x), F_a(f(x))) by the chain rule, d/dx F_a(x) = 1/(1-a x)^2
    slope = dys * ((1.0 - a * xs) / (1.0 - a * ys)) ** 2
    # F_a increases on each side of its pole, so the conjugate is a relation
    # only while the samples x and their values f(x) stay on one side of it;
    # a crossing in x is named before one in f(x)
    side = 1.0 - a * np.column_stack([xs, ys]) > 0.0
    cross = np.argwhere((side[1:] != side[:-1]).T)
    if cross.size:
        col, k = cross[0] + (0, 1)
        raise RelationError(
            f"conjugation by a = {a:.9g} crosses the pole {('x', 'f(x)')[col]} = 1/a = "
            f"{1.0 / a:.9g}: the first sample past it is x = {xs[k]:.9g}, f(x) = {ys[k]:.9g}")
    return FForm(SampledHermite(xt, yt, slope))


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


def rotational_profile(rel: RelationSpec, seed: tuple, step: float = DEFAULT_STEP,
                       s_max: float = DEFAULT_S_MAX) -> ProfileCurve:
    """Integrate r' = cos(theta), z' = sin(theta), theta' = f(sin(theta)/r)
    by the classical fixed-step fourth-order scheme.

    The state is held in Python floats, and each step's end-point evaluation
    is reused as the next step's first stage, so n steps call f 4n + 1
    times, once per stage, and take one sine and one cosine per stage.
    Stops at s_max, at axis contact (a stage radius below 1e-6), or when
    sin(theta)/r leaves the domain of f; the truncated curve records the
    reason.  The step and s_max must be finite and positive, and s_max / step
    at most MAX_PROFILE_STEPS.
    """
    if not (math.isfinite(step) and step > 0.0 and math.isfinite(s_max) and s_max > 0.0):
        raise ValueError(f"profile needs a finite step > 0 and s_max > 0, got {step!r}, {s_max!r}")
    if s_max / step > MAX_PROFILE_STEPS:
        raise ValueError(f"profile of s_max / step = {s_max / step:.6g} steps exceeds "
                         f"{MAX_PROFILE_STEPS}")
    f = f_function(rel) or g_to_f(rel).f
    r, z, th = (float(v) for v in seed)
    if r < AXIS_RADIUS:
        raise RelationError(f"profile seed is not integrable: r = {r!r} is on the axis")
    s1, c1 = math.sin(th), math.cos(th)
    kp = s1 / r
    try:
        km = float(f(kp))
    except DomainError as exc:
        raise RelationError(f"profile seed is not integrable: {exc}") from exc
    n_steps = int(math.ceil(s_max / step))
    half, sixth = 0.5 * step, step / 6.0
    # each sample is a row of six float64s, 48 bytes, read without a copy
    out = array.array("d", (0.0, r, z, th, km, kp))
    reason = "s_max"
    # stage j is at radius rj and angle tj, with sj, cj = sin(tj), cos(tj) and
    # kappa_m = mj; the step's first stage is the state itself, (s1, c1, km)
    try:
        for k in range(n_steps):
            r2, t2 = r + half * c1, th + half * km
            if r2 < AXIS_RADIUS:
                raise _AxisContact
            s2, c2 = math.sin(t2), math.cos(t2)
            m2 = float(f(s2 / r2))
            r3, t3 = r + half * c2, th + half * m2
            if r3 < AXIS_RADIUS:
                raise _AxisContact
            s3, c3 = math.sin(t3), math.cos(t3)
            m3 = float(f(s3 / r3))
            r4, t4 = r + step * c3, th + step * m3
            if r4 < AXIS_RADIUS:
                raise _AxisContact
            s4, c4 = math.sin(t4), math.cos(t4)
            m4 = float(f(s4 / r4))
            r = r + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            z = z + sixth * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            th = th + sixth * (km + 2.0 * m2 + 2.0 * m3 + m4)
            if r < AXIS_RADIUS:
                raise _AxisContact
            s1, c1 = math.sin(th), math.cos(th)
            kp = s1 / r
            km = float(f(kp))
            out.extend(((k + 1) * step, r, z, th, km, kp))
    except _AxisContact:
        reason = "axis_contact"
    except DomainError:
        reason = "domain_exit"
    return ProfileCurve(*np.frombuffer(out).reshape(-1, 6).T, reason)


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


def offset_profile(profile: ProfileCurve, a: float) -> ProfileCurve:
    """Geometric offset of a rotational profile along its surface normal.

    The normal of the profile plane is (-sin(theta), cos(theta)); offsetting
    keeps theta and transforms both curvatures by k -> k/(1 - a*k).
    """
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
