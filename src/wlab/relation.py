"""Curvature relations for elliptic Weingarten surfaces.

A relation can be given in mean/Gauss form ``H = g(H**2 - K)`` (a scalar
function ``g`` on ``[0, inf)``) or in principal-curvature form
``k2 = f(k1)`` (a decreasing involution ``f`` on an interval ``I_f``).
This module represents both forms, converts between them, rescales them,
and certifies ellipticity (``4*t*g'(t)**2 < 1``), uniform ellipticity,
minimal type and the boundedness of the two branches ``t +- g(t**2)``.

All certification is performed on a finite sampling grid; a relation that
passes is "grid-elliptic" and the report records the grid used.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, EllipticityError, RelationError

DEFAULT_T_MAX = 1.0e4
DEFAULT_SAMPLES = 10_000
SYMMETRY_TOL = 1.0e-8           # |f(f(x)) - x| on sampled grids
MONOTONE_MARGIN = 1.0e-12       # strict monotonicity margin for branch checks
MINIMAL_TOL = 1.0e-10           # |g(0)| below this counts as minimal type
UNIFORM_MARGIN = 1.0e-3         # sup 4t g'^2 <= 1 - margin to declare uniform
_BOUNDED_TAIL_TOL = 0.05        # tail-flatness threshold for branch boundedness
DOMAIN_TOL = 1.0e-12            # slack of the domain check on scalar-function arguments


@dataclass(frozen=True)
class Interval:
    """A (possibly half-infinite) interval of the real line."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise RelationError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x, tol: float = 0.0):
        x = np.asarray(x, dtype=float)
        return (x >= self.lo - tol) & (x <= self.hi + tol)

    def to_json(self) -> list:
        enc = lambda v: v if math.isfinite(v) else ("inf" if v > 0 else "-inf")
        return [enc(self.lo), enc(self.hi)]

    @staticmethod
    def from_json(obj) -> "Interval":
        return Interval(float(obj[0]), float(obj[1]))


FULL_LINE = Interval(-math.inf, math.inf)
HALF_LINE = Interval(0.0, math.inf)

# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------

def _build_constant(p):
    c = float(p["value"])
    return ((lambda x: c, lambda x: np.full_like(x, c)),
            (lambda x: 0.0, np.zeros_like))


def _build_affine(p):
    a, b = float(p["intercept"]), float(p["slope"])
    value = lambda x: a + b * x
    return (value, value), (lambda x: b, lambda x: np.full_like(x, b))


def _build_mobius(p):
    # (delta - alpha*x) / (alpha + beta*x); derivative -(alpha^2+beta*delta)/(alpha+beta*x)^2
    al, be, de = float(p["alpha"]), float(p["beta"]), float(p["delta"])
    disc = al * al + be * de
    value = lambda x: (de - al * x) / (al + be * x)
    deriv = lambda x: -disc / ((al + be * x) * (al + be * x))
    return (value, value), (deriv, deriv)


def _build_sqrt_offset(p):
    # scale*sqrt(x + offset) + shift; derivative diverges at x = -offset
    c, e, d = float(p["scale"]), float(p["offset"]), float(p["shift"])

    def deriv(x):
        with np.errstate(divide="ignore"):
            return c / (2.0 * np.sqrt(x + e))

    return ((lambda x: c * math.sqrt(x + e) + d, lambda x: c * np.sqrt(x + e) + d),
            (lambda x: c / (2.0 * math.sqrt(x + e)), deriv))


# name -> params -> (value, derivative), each a pair (float path, array path)
_CLOSED_FORMS = {"constant": _build_constant, "affine": _build_affine,
                 "mobius": _build_mobius, "sqrt_offset": _build_sqrt_offset}


def _evaluate(domain: Interval, paths, x, what: str):
    """The one evaluation rule of every scalar function.  x must lie in
    `domain` up to DOMAIN_TOL, else DomainError naming `what` has the first
    offender as its `index`.  `paths` is the pair (float path, array path)
    of one expression in one operation order, so both give the same bits:
    an in-domain Python float takes the float path, with float arithmetic
    and `math`, and anything else (arrays, numpy scalars) the numpy one, as
    does a float the float path cannot take (a zero divisor or a negative
    root at a domain end, where numpy returns inf or nan)."""
    if type(x) is float and domain.lo - DOMAIN_TOL <= x <= domain.hi + DOMAIN_TOL:
        try:
            return paths[0](x)
        except (ArithmeticError, ValueError):
            return paths[1](np.asarray(x, dtype=float))
    x = np.asarray(x, dtype=float)
    bad = ~domain.contains(x, tol=DOMAIN_TOL)
    if np.any(bad):
        index = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise DomainError(
            f"{what} evaluated at {x[index]:.17g} outside domain "
            f"[{domain.lo:g}, {domain.hi:g}] ({np.count_nonzero(bad)} offending points)", index)
    return paths[1](x)


class _Evaluated:
    """Calls of a scalar function: `_evaluate` on its `_value` or `_deriv`."""

    def __call__(self, x):
        return _evaluate(self.domain, self._value, x, self._what)

    def derivative(self, x):
        return _evaluate(self.domain, self._deriv, x, self._what + " derivative")


@dataclass(frozen=True, eq=False)
class ClosedForm(_Evaluated):
    """A named analytic scalar function with parameters."""

    name: str
    params: dict
    domain: Interval = HALF_LINE

    def __post_init__(self):
        if self.name not in _CLOSED_FORMS:
            raise RelationError(f"unknown closed form {self.name!r}")
        value, deriv = _CLOSED_FORMS[self.name](self.params)
        object.__setattr__(self, "_value", value)
        object.__setattr__(self, "_deriv", deriv)
        object.__setattr__(self, "_what", f"closed form {self.name!r}")

    def to_json(self) -> dict:
        return {"kind": "closed", "name": self.name, "params": dict(self.params),
                "domain": self.domain.to_json()}


def _piecewise_cubic(xs: np.ndarray, coef: np.ndarray) -> tuple:
    """(float path, array path) of the piecewise polynomial that is
    sum_k coef[k, i] * s**(3-k), s = x - xs[i], on [xs[i], xs[i+1]); the last
    interval is closed, and the end cubics extend past both ends.

    The sum runs as scipy's PPoly does: ((c3 + c2*s) + c1*s**2) + c0*(s**2*s),
    with the powers by repeated multiplication; a float finds its interval
    by bisection on a list, an array by `searchsorted`.  The float path's
    lists (about 4.5 MB at 20k breakpoints) are made by its first call, so
    a function evaluated only on arrays never holds them."""
    last = xs.size - 2
    xl = rows = None

    def on_float(v):
        nonlocal xl, rows
        if xl is None:
            xl, rows = xs.tolist(), coef.T.tolist()
        i = bisect.bisect_right(xl, v) - 1
        i = 0 if i < 0 else (last if i > last else i)
        c0, c1, c2, c3 = rows[i]
        s = v - xl[i]
        s2 = s * s
        return ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)

    def on_array(v):
        i = np.clip(np.searchsorted(xs, v, "right") - 1, 0, last)
        c0, c1, c2, c3 = coef[:, i]
        s = v - xs[i]
        s2 = s * s
        return ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)

    return on_float, on_array


@dataclass(frozen=True, eq=False)
class SampledHermite(_Evaluated):
    """C1 cubic Hermite interpolant through (breakpoints, values, derivatives).

    The domain is [breakpoints[0], breakpoints[-1]], under the same rule for
    a Python float and for an array: evaluation outside it, beyond
    DOMAIN_TOL, raises DomainError, and within DOMAIN_TOL of an end the end
    cubic is evaluated, as a closed form evaluates its formula there.  The
    cubics have scipy's CubicHermiteSpline coefficients and are summed in
    its order, so values and derivatives equal its bits."""

    breakpoints: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    domain: Interval = field(init=False)

    def __post_init__(self):
        xs = np.asarray(self.breakpoints, dtype=float)
        ys = np.asarray(self.values, dtype=float)
        dys = np.asarray(self.derivatives, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or ys.shape != xs.shape or dys.shape != xs.shape:
            raise RelationError("SampledHermite needs three equal-length 1-d arrays")
        if not np.all(np.diff(xs) > 0):
            raise RelationError("SampledHermite breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys)) and np.all(np.isfinite(dys))):
            # a ValueError, as scipy's spline raised here: the CLI exits 1 on it
            raise ValueError("SampledHermite needs finite breakpoints, values and derivatives")
        object.__setattr__(self, "breakpoints", xs)
        object.__setattr__(self, "values", ys)
        object.__setattr__(self, "derivatives", dys)
        object.__setattr__(self, "domain", Interval(float(xs[0]), float(xs[-1])))
        dx = np.diff(xs)
        slope = np.diff(ys) / dx
        w = (dys[:-1] + dys[1:] - 2.0 * slope) / dx
        c0, c1, c2 = w / dx, (slope - dys[:-1]) / dx - w, dys[:-1]
        # scipy's sums start from 0.0, which turns a constant term -0.0 into
        # 0.0, so no sum is -0.0; the derivative is scipy's (3 c0, 2 c1, c2)
        # with a zero cubic term, whose +-0.0 then changes no bit
        value = np.stack([c0, c1, c2, ys[:-1] + 0.0])
        deriv = np.stack([np.zeros_like(c0), 3.0 * c0, 2.0 * c1, c2 + 0.0])
        object.__setattr__(self, "_value", _piecewise_cubic(xs, value))
        object.__setattr__(self, "_deriv", _piecewise_cubic(xs, deriv))
        object.__setattr__(self, "_what", "sampled function")

    def to_json(self) -> dict:
        return {"kind": "hermite", "x": self.breakpoints.tolist(),
                "y": self.values.tolist(), "dy": self.derivatives.tolist()}


ScalarFunction = Union[ClosedForm, SampledHermite]


def _finite(params: dict, key: str) -> float:
    """params[key] as a float; ValueError naming `key` unless it is finite
    (the CLI exits 1 on it)."""
    value = float(params[key])
    if not math.isfinite(value):
        raise ValueError(f"relation parameter {key!r} must be finite, got {value!r}")
    return value


def scalar_function_from_json(obj: dict) -> ScalarFunction:
    """The scalar function a JSON object describes; ValueError (the CLI's
    exit 1) when it is no object or names no known kind or closed form."""
    if not isinstance(obj, dict):
        raise ValueError(f"relation 'function' must be a JSON object, got {obj!r}")
    if obj.get("kind") == "closed":
        if obj.get("name") not in _CLOSED_FORMS:
            raise ValueError(f"unknown closed form {obj.get('name')!r}")
        params = dict(obj["params"])
        for key in params:
            _finite(params, key)
        return ClosedForm(obj["name"], params, Interval.from_json(obj["domain"]))
    if obj.get("kind") == "hermite":
        return SampledHermite(np.asarray(obj["x"]), np.asarray(obj["y"]), np.asarray(obj["dy"]))
    raise ValueError(f"unknown scalar function kind {obj.get('kind')!r}")


# ---------------------------------------------------------------------------
# Relation variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMC:
    """Constant mean curvature relation H = h0."""

    h0: float


@dataclass(frozen=True)
class LinearWeingarten:
    """Linear relation 2*alpha*H + beta*K = delta with alpha^2 + beta*delta > 0.

    The triple is kept as given.  For either sign of beta the canonical
    principal-curvature component is the branch of
    ``(delta - alpha*x)/(alpha + beta*x)`` through the fixed point
    ``(-alpha + sqrt(alpha^2 + beta*delta))/beta``; (-alpha, -beta, -delta)
    is the same equation on its other branch.
    """

    alpha: float
    beta: float
    delta: float

    def __post_init__(self):
        for name in ("alpha", "beta", "delta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.discriminant < math.inf:
            raise RelationError(f"linear Weingarten coefficients ({self.alpha}, {self.beta}, "
                                f"{self.delta}) violate finite alpha^2 + beta*delta > 0")

    @property
    def discriminant(self) -> float:
        return self.alpha * self.alpha + self.beta * self.delta


@dataclass(frozen=True)
class GForm:
    """Relation given as H = g(H^2 - K)."""

    g: ScalarFunction


@dataclass(frozen=True)
class FForm:
    """Relation given as k2 = f(k1), f decreasing with f(f(x)) = x."""

    f: ScalarFunction


RelationSpec = Union[CMC, LinearWeingarten, GForm, FForm]


def relation_to_json(rel: RelationSpec) -> dict:
    if isinstance(rel, CMC):
        return {"kind": "cmc", "h0": rel.h0}
    if isinstance(rel, LinearWeingarten):
        return {"kind": "linear", "alpha": rel.alpha, "beta": rel.beta, "delta": rel.delta}
    if isinstance(rel, GForm):
        return {"kind": "g", "function": rel.g.to_json()}
    if isinstance(rel, FForm):
        return {"kind": "f", "function": rel.f.to_json()}
    raise RelationError(f"not a relation: {rel!r}")


def relation_from_json(obj: dict) -> RelationSpec:
    """The relation a JSON object describes.  Its kind must be known and its
    numeric parameters finite (ValueError otherwise); a domain end may be
    "inf" or "-inf"."""
    kind = obj.get("kind")
    if kind == "cmc":
        return CMC(_finite(obj, "h0"))
    if kind == "linear":
        return LinearWeingarten(*(_finite(obj, k) for k in ("alpha", "beta", "delta")))
    if kind == "g":
        return GForm(scalar_function_from_json(obj["function"]))
    if kind == "f":
        return FForm(scalar_function_from_json(obj["function"]))
    raise ValueError(f"unknown relation kind {kind!r}")


def linear_coefficients(rel: RelationSpec) -> Optional[tuple]:
    """(alpha, beta, delta) of 2*alpha*H + beta*K = delta for CMC (1, 0, 2*h0),
    linear relations, an f-form (constant g-form) whose f (g) is exactly the
    `f_function` (`g_of`) of the linear relation its parameters name, and a
    g-form c*sqrt(t + e) + d, c = +-1, on [0, inf) as (-c*d, c, c*(e - d^2)); None otherwise."""
    if isinstance(rel, CMC):
        return 1.0, 0.0, 2.0 * rel.h0
    if isinstance(rel, LinearWeingarten):
        return rel.alpha, rel.beta, rel.delta
    fn = rel.f if isinstance(rel, FForm) else rel.g
    if not isinstance(fn, ClosedForm):
        return None
    p, form = fn.params, (type(rel), fn.name)
    try:
        if form == (FForm, "affine"):
            lin = CMC(0.5 * float(p["intercept"]))
        elif form == (FForm, "mobius"):
            lin = LinearWeingarten(p["alpha"], p["beta"], p["delta"])
        elif form == (GForm, "constant"):
            lin = CMC(float(p["value"]))
        elif form == (GForm, "sqrt_offset") and abs(float(p["scale"])) == 1.0:
            c, e, d = (float(p[k]) for k in ("scale", "offset", "shift"))
            lin = LinearWeingarten(-c * d, c, c * (e - d * d))
            return linear_coefficients(lin) if fn.domain == HALF_LINE else None
        else:
            return None
    except RelationError:       # alpha^2 + beta*delta <= 0
        return None
    same = f_function(lin) if form[0] is FForm else g_of(lin)
    return linear_coefficients(lin) if same.to_json() == fn.to_json() else None


def g_of(rel: RelationSpec) -> ScalarFunction:
    """The g of H = g(H^2-K) for any relation; f-form relations that are not
    linear are converted by sampling (`f_to_g`)."""
    if isinstance(rel, GForm):
        return rel.g
    lin = linear_coefficients(rel)
    if lin is not None:
        al, be, de = lin
        if be == 0.0:
            return ClosedForm("constant", {"value": de / (2.0 * al)}, HALF_LINE)
        # solve beta*H^2 + 2*alpha*H - (delta + beta*t) = 0 for H, branch through the
        # canonical fixed point: g(t) = sign(beta)*sqrt(t + disc/beta^2) - alpha/beta
        c, e = math.copysign(1.0, be), (al * al + be * de) / (be * be)
        return ClosedForm("sqrt_offset", {"scale": c, "offset": e, "shift": -al / be}, HALF_LINE)
    return f_to_g(rel).g


def f_function(rel: RelationSpec) -> Optional[ScalarFunction]:
    """The f of k2 = f(k1), when it exists in closed form (None for a g-form
    that is not linear); a linear relation's is the half-line on its fixed
    point's side of the pole."""
    if isinstance(rel, FForm):
        return rel.f
    lin = linear_coefficients(rel)
    if lin is None:
        return None
    al, be, de = lin
    if be == 0.0:
        return ClosedForm("affine", {"intercept": de / al, "slope": -1.0}, FULL_LINE)
    pole = -al / be
    return ClosedForm("mobius", {"alpha": al, "beta": be, "delta": de},
                      Interval(pole, math.inf) if be > 0.0 else Interval(-math.inf, pole))


def rescale_relation(rel: RelationSpec, lam: float) -> RelationSpec:
    """Relation satisfied by the rescaled surface lam * surface:
    G(t) = g(lam^2 t) / lam.  Preserves the uniform ellipticity constant.
    An f-form is rescaled only when it is exactly a linear relation's f,
    and stays an f-form: that of the rescaled linear relation."""
    if lam <= 0.0:
        raise ValueError("rescaling factor must be positive")
    if isinstance(rel, CMC):
        return CMC(rel.h0 / lam)
    if isinstance(rel, LinearWeingarten):
        return LinearWeingarten(rel.alpha, lam * rel.beta, rel.delta / lam)
    if isinstance(rel, GForm):
        g = rel.g
        if isinstance(g, ClosedForm):
            if g.name == "constant":
                return GForm(ClosedForm("constant", {"value": float(g.params["value"]) / lam},
                                        g.domain))
            if g.name == "sqrt_offset":
                c, e, d = (float(g.params[k]) for k in ("scale", "offset", "shift"))
                return GForm(ClosedForm("sqrt_offset",
                                        {"scale": c, "offset": e / lam ** 2, "shift": d / lam},
                                        g.domain))
        if isinstance(g, SampledHermite):
            return GForm(SampledHermite(g.breakpoints / lam ** 2, g.values / lam,
                                        g.derivatives * lam))
        raise RelationError(f"cannot rescale g of kind {type(g).__name__}/{getattr(g, 'name', '')}")
    lin = linear_coefficients(rel)
    if lin is None:
        raise RelationError("rescale_relation needs a relation in g form or a linear f-form")
    al, be, de = lin
    linear = CMC(de / (2.0 * al)) if be == 0.0 else LinearWeingarten(al, be, de)
    return FForm(f_function(rescale_relation(linear, lam)))


def default_t_grid(t_max: float = DEFAULT_T_MAX, samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Certification grid on [0, t_max]: zero plus log-spaced samples."""
    if not (t_max > 0.0 and samples >= 2):
        raise EllipticityError(f"bad certification grid t_max={t_max} samples={samples}")
    return np.concatenate([[0.0], np.logspace(-8, math.log10(t_max), samples - 1)])


# ---------------------------------------------------------------------------
# Ellipticity report
# ---------------------------------------------------------------------------

@dataclass
class EllipticityReport:
    is_elliptic: bool
    sup_4tgp2: float
    uniform_constant_Lambda: Optional[float]
    f_slope_bounds: Optional[tuple]
    umbilical_alpha: Optional[float]
    minimal_type: bool
    If_domain: Interval
    bounded_branch: str            # t_plus_g_bounded | t_minus_g_bounded | neither
    orientation_flipped: bool = False
    grid: dict = field(default_factory=dict)


def _slope_bounds_from_sup(sup: float) -> tuple:
    # |2 sqrt(t) g'| <= u  <=>  -f' in [(1-u)/(1+u), (1+u)/(1-u)] over both branches
    u = math.sqrt(max(sup, 0.0))
    if u >= 1.0:
        return (0.0, math.inf)
    lo = (1.0 - u) / (1.0 + u)
    return (lo, 1.0 / lo)


def _branch_tail_bounded(branch_vals: Callable[[float], float], t_hi: float) -> bool:
    # heuristic: a monotone branch is called bounded if it moves less than
    # _BOUNDED_TAIL_TOL between t_hi/4 and t_hi (sqrt-type growth moves O(sqrt(t_hi)))
    try:
        v1, v2 = branch_vals(t_hi / 4.0), branch_vals(t_hi)
    except (DomainError, OverflowError):
        return False
    return abs(v2 - v1) < max(_BOUNDED_TAIL_TOL, 1e-3 * abs(v2))


def _classify_branches_g(g: ScalarFunction, t_hi: float) -> tuple:
    """(bounded_branch, If_domain) for a relation given by g."""
    if isinstance(g, ClosedForm):
        if g.name == "constant":
            return "neither", FULL_LINE
        if g.name == "sqrt_offset":
            c = float(g.params["scale"])
            d = float(g.params["shift"])
            if abs(abs(c) - 1.0) < 1e-14:
                # c = +1: g - sqrt(t) -> d; c = -1: g + sqrt(t) -> d
                if c > 0:
                    return "t_minus_g_bounded", Interval(d, math.inf)
                return "t_plus_g_bounded", Interval(-math.inf, d)
            return "neither", FULL_LINE  # both branches diverge (|c| > 1 is not elliptic)
    # sampled or unrecognized closed form: tail heuristic
    t_hi = min(t_hi, g.domain.hi if math.isfinite(g.domain.hi) else t_hi)
    minus_bounded = _branch_tail_bounded(lambda t: float(g(t)) - math.sqrt(t), t_hi)
    plus_bounded = _branch_tail_bounded(lambda t: float(g(t)) + math.sqrt(t), t_hi)
    if minus_bounded and not plus_bounded:
        a = float(g(t_hi)) - math.sqrt(t_hi)
        return "t_minus_g_bounded", Interval(a, math.inf)
    if plus_bounded and not minus_bounded:
        b = float(g(t_hi)) + math.sqrt(t_hi)
        return "t_plus_g_bounded", Interval(-math.inf, b)
    return "neither", FULL_LINE


def _grid_in_domain(t_grid: np.ndarray, domain: Interval) -> np.ndarray:
    keep = t_grid[(t_grid >= max(domain.lo, 0.0)) & (t_grid <= domain.hi)]
    extra = [v for v in (max(domain.lo, 0.0), domain.hi) if math.isfinite(v)]
    return np.unique(np.concatenate([keep, np.asarray(extra)])) if extra else np.unique(keep)


def certify_ellipticity(rel: RelationSpec, t_grid: Optional[np.ndarray] = None, *,
                        t_max: float = DEFAULT_T_MAX,
                        samples: int = DEFAULT_SAMPLES) -> EllipticityReport:
    """Certify ellipticity of a relation on a finite grid.

    For g-side relations this samples ``4 t g'(t)^2`` on ``t_grid`` (default:
    0 plus log-spaced points up to ``t_max``).  For f-side relations the same
    quantity is recovered from the slope ``-f'`` through
    ``u = (1 - (-f'))/(1 + (-f'))`` and ``4 t g'^2 = u^2`` on min(samples,
    4000) x points, which ``grid.n`` counts; they read only t_max of a grid.
    """
    if t_grid is not None:
        t_grid = np.asarray(t_grid, dtype=float)
        if t_grid.size == 0:
            raise EllipticityError("empty certification grid")
        t_max = float(np.max(t_grid))
        if t_max <= 0.0:
            raise EllipticityError("certification grid needs T_max > 0")
    elif not (t_max > 0.0 and samples >= 2):    # what default_t_grid checks, for either form
        raise EllipticityError(f"bad certification grid t_max={t_max} samples={samples}")

    if not isinstance(rel, FForm):
        if t_grid is None:
            t_grid = default_t_grid(t_max, samples)
        grid_info = {"t_max": float(t_max), "n": int(t_grid.size)}
        g = g_of(rel)
        ts = _grid_in_domain(t_grid, g.domain)
        try:
            dg = np.asarray(g.derivative(ts), dtype=float)
        except DomainError as exc:
            raise EllipticityError(f"relation derivative evaluation failed: {exc}") from exc
        with np.errstate(invalid="ignore"):
            su = 4.0 * ts * dg * dg
        finite = np.isfinite(su)
        if not np.any(finite):
            raise EllipticityError("no finite samples of 4 t g'(t)^2 on the grid")
        sup = float(np.max(su[finite]))
        is_elliptic = sup < 1.0 and bool(np.all(finite | (ts == 0.0)))
        alpha_raw = _signed_umbilic(rel)
        bounded, If_dom = _classify_branches_g(g, float(ts[-1]) if ts[-1] > 0 else t_max)
    else:
        f = rel.f
        xs = _fform_sample_grid(f, t_max, min(samples, 4000))
        grid_info = {"t_max": float(t_max), "n": int(xs.size)}
        try:
            df = np.asarray(f.derivative(xs), dtype=float)
            fx = np.asarray(f(xs), dtype=float)
        except DomainError as exc:
            raise EllipticityError(f"relation evaluation failed: {exc}") from exc
        _check_involution(f, xs, fx)
        m = -df
        is_elliptic = bool(np.all(m > 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (1.0 - m) / (1.0 + m)
        u = np.where(m > 0.0, u, 1.0)
        sup = float(np.max(u * u))
        alpha_raw = _signed_umbilic(rel, xs, fx)
        bounded, If_dom = _classify_branches_f(f, xs, fx)

    minimal = alpha_raw is not None and abs(alpha_raw) <= MINIMAL_TOL
    flipped = alpha_raw is not None and alpha_raw < -MINIMAL_TOL
    uniform = sup if (is_elliptic and sup <= 1.0 - UNIFORM_MARGIN) else None
    slopes = _slope_bounds_from_sup(sup) if is_elliptic else None
    return EllipticityReport(
        is_elliptic=is_elliptic,
        sup_4tgp2=min(sup, 1.0) if not is_elliptic else sup,
        uniform_constant_Lambda=uniform,
        f_slope_bounds=slopes,
        umbilical_alpha=None if alpha_raw is None else abs(alpha_raw),
        minimal_type=minimal,
        If_domain=If_dom,
        bounded_branch=bounded,
        orientation_flipped=flipped,
        grid=grid_info,
    )


def _fform_sample_grid(f: ScalarFunction, t_max: float, n: int) -> np.ndarray:
    """Sample grid over I_f covering pair separations up to 2*sqrt(t_max)."""
    dom = f.domain
    margin = 1e-9
    if math.isfinite(dom.lo):
        lo = dom.lo + margin * max(1.0, abs(dom.lo))
    else:
        lo = -2.0 * math.sqrt(t_max)
    if math.isfinite(dom.hi):
        hi = dom.hi - margin * max(1.0, abs(dom.hi))
    else:
        hi = 2.0 * math.sqrt(t_max)
    if not lo < hi:
        raise EllipticityError(f"cannot sample f on domain [{dom.lo}, {dom.hi}]")
    # cluster toward finite endpoints, where f blows up
    u = np.linspace(0.0, 1.0, max(n, 8))
    w = u * u * (3.0 - 2.0 * u)  # smoothstep: denser near both ends
    return lo + (hi - lo) * w


def _check_involution(f: ScalarFunction, xs: np.ndarray, fx: np.ndarray):
    inside = f.domain.contains(fx, tol=0.0)
    if not np.any(inside):
        raise RelationError("f never maps the sampled grid back into its own domain")
    ffx = np.asarray(f(fx[inside]), dtype=float)
    err = np.abs(ffx - xs[inside])
    scale = 1.0 + np.abs(xs[inside])
    worst = int(np.argmax(err / scale))
    if err[worst] > SYMMETRY_TOL * scale[worst]:
        raise RelationError(
            f"f is not an involution: |f(f(x))-x| = {err[worst]:.3e} at x = {xs[inside][worst]:.9g}")


def _fform_fixed_point(f: ScalarFunction, xs: np.ndarray, fx: np.ndarray) -> Optional[float]:
    """Root of f(x) - x (decreasing, hence unique) by bisection on the samples."""
    d = fx - xs
    sign = np.sign(d)
    idx = np.nonzero(sign[:-1] * sign[1:] <= 0.0)[0]
    if idx.size == 0:
        return None
    a, b = float(xs[idx[0]]), float(xs[idx[0] + 1])
    for _ in range(200):
        m = 0.5 * (a + b)
        if float(f(m)) - m > 0.0:
            a = m
        else:
            b = m
        if b - a < 1e-15 * (1.0 + abs(a)):
            break
    return 0.5 * (a + b)


def _classify_branches_f(f: ScalarFunction, xs: np.ndarray, fx: np.ndarray) -> tuple:
    dom = f.domain
    if isinstance(f, ClosedForm):
        if math.isfinite(dom.lo) and not math.isfinite(dom.hi):
            return "t_minus_g_bounded", Interval(dom.lo, math.inf)
        if math.isfinite(dom.hi) and not math.isfinite(dom.lo):
            return "t_plus_g_bounded", Interval(-math.inf, dom.hi)
        return "neither", FULL_LINE
    # sampled function: the window edges are grid artifacts, so decide from
    # quarter-point tail flatness (sqrt-type growth moves O(sqrt(x)) there)
    feval = lambda x: float(f(x))
    # f -> a at +inf bounds I_f below; f -> b at -inf bounds it above
    lo_bounded = xs[-1] > 1.0 and xs[0] < xs[-1] / 4.0 and _branch_tail_bounded(feval, xs[-1])
    hi_bounded = xs[0] < -1.0 and xs[-1] > xs[0] / 4.0 and _branch_tail_bounded(feval, xs[0])
    if lo_bounded and not hi_bounded:
        return "t_minus_g_bounded", Interval(feval(xs[-1]), math.inf)
    if hi_bounded and not lo_bounded:
        return "t_plus_g_bounded", Interval(-math.inf, feval(xs[0]))
    return "neither", FULL_LINE


# ---------------------------------------------------------------------------
# Form conversions
# ---------------------------------------------------------------------------

def g_to_f(rel: RelationSpec, t_grid: Optional[np.ndarray] = None) -> FForm:
    """Convert a g-side relation to a sampled f with f(f(x)) = x.

    The graph of f is the union of the two branches (g(t) -+ sqrt(t),
    g(t) +- sqrt(t)); ellipticity makes g(t) + sqrt(t) strictly increasing
    and g(t) - sqrt(t) strictly decreasing, which is verified here.
    """
    if isinstance(rel, FForm):
        raise RelationError("g_to_f needs a relation with a g form")
    g = g_of(rel)
    if t_grid is None:
        t_grid = default_t_grid()
    ts = _grid_in_domain(np.asarray(t_grid, dtype=float), g.domain)
    gv = np.asarray(g(ts), dtype=float)
    dg = np.asarray(g.derivative(ts), dtype=float)
    rt = np.sqrt(ts)
    x_up, y_up = gv + rt, gv - rt

    pos = ts > 0.0
    if not np.all(np.isfinite(dg[pos])):
        raise EllipticityError("g' is not finite on the conversion grid")
    up_steps = np.diff(x_up)
    dn_steps = np.diff(y_up)
    if not (np.all(up_steps > MONOTONE_MARGIN) and np.all(dn_steps < -MONOTONE_MARGIN)):
        raise EllipticityError(
            "branch monotonicity fails: relation is not elliptic on the grid")

    u = 2.0 * rt * np.where(pos, dg, 0.0)     # 2 sqrt(t) g', 0 at the umbilic t = 0
    slope_up = (u - 1.0) / (u + 1.0)          # df/dx on the increasing branch
    slope_dn = (u + 1.0) / (u - 1.0)          # reciprocal, on the decreasing branch

    xs = np.concatenate([y_up[::-1], x_up])
    ys = np.concatenate([x_up[::-1], y_up])
    dys = np.concatenate([slope_dn[::-1], slope_up])
    # at t = 0 both branches meet, and the mask drops the umbilic's second copy
    keep = np.concatenate([[True], np.diff(xs) > MONOTONE_MARGIN])
    return FForm(SampledHermite(xs[keep], ys[keep], dys[keep]))


def f_to_g(rel: RelationSpec) -> GForm:
    """Convert an f-side relation to a sampled g via t = (x-f(x))^2/4,
    g(t) = (x+f(x))/2; duplicate t from symmetric pairs collapse."""
    f = f_function(rel)
    if f is None:
        raise RelationError("f_to_g needs a relation with an f form")
    xs = _fform_sample_grid(f, DEFAULT_T_MAX, 4000)
    # reach t = 0: cluster samples around the fixed point f(a) = a
    alpha = _fform_fixed_point(f, xs, np.asarray(f(xs), dtype=float))
    if alpha is not None:
        spread = alpha + np.concatenate([[0.0], np.logspace(-8, 0, 60),
                                         -np.logspace(-8, 0, 60)])
        xs = np.concatenate([xs, spread[f.domain.contains(spread)]])
    xs = np.unique(xs)
    fx = np.asarray(f(xs), dtype=float)
    df = np.asarray(f.derivative(xs), dtype=float)
    if not np.all(df < 0.0):
        bad = xs[df >= 0.0][0]
        raise EllipticityError(f"f is not strictly decreasing at x = {bad:.9g}")
    _check_involution(f, xs, fx)

    ts = 0.25 * (xs - fx) ** 2
    gs = 0.5 * (xs + fx)
    with np.errstate(divide="ignore", invalid="ignore"):
        dgs = (1.0 + df) / ((xs - fx) * (1.0 - df))

    order = np.argsort(ts, kind="stable")
    ts, gs, dgs = ts[order], gs[order], dgs[order]
    keep = np.concatenate([[True], np.diff(ts) > 1e-12 * (1.0 + ts[1:])])
    ts, gs, dgs = ts[keep], gs[keep], dgs[keep]
    # near the umbilic (x - f(x) -> 0) the chain-rule derivative is 0/0;
    # replace non-finite entries by one-sided extrapolation from the data
    bad = ~np.isfinite(dgs)
    if np.any(bad):
        good = np.nonzero(~bad)[0]
        if good.size < 2:
            raise RelationError("too few usable samples to build g")
        dgs[bad] = np.interp(ts[bad], ts[good], dgs[good])
    if ts.size < 2:
        raise RelationError("the x samples give fewer than two distinct t samples")
    return GForm(SampledHermite(ts, gs, dgs))


def _signed_umbilic(rel: RelationSpec, xs: Optional[np.ndarray] = None,
                    fx: Optional[np.ndarray] = None) -> Optional[float]:
    """Signed umbilical value: g(0) (None off g's domain), or for f-form
    relations the fixed point of f bracketed on the samples (xs, fx = f(xs))."""
    if not isinstance(rel, FForm):
        try:
            return float(g_of(rel)(0.0))
        except DomainError:
            return None
    if xs is None:
        xs = _fform_sample_grid(rel.f, DEFAULT_T_MAX, 4000)
        fx = np.asarray(rel.f(xs), dtype=float)
    return _fform_fixed_point(rel.f, xs, fx)


def umbilical_constant(rel: RelationSpec) -> Optional[float]:
    """The value a with f(a) = a (equivalently g(0) = a), reported >= 0 per the
    orientation convention; None when the fixed point is outside I_f.  Equals
    `certify_ellipticity(rel).umbilical_alpha` at the default grid."""
    a = _signed_umbilic(rel)
    return None if a is None else abs(a)
