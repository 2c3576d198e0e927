"""Gridded graphs z = u(x, y) and the Dirichlet problem for the Weingarten
graph PDE, solved by damped Newton iteration on a 9-point stencil.

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

Rectangle domains carry Dirichlet values on the outer node ring.  Disk
domains are masked out of a uniform grid, and the in-domain ring next to the
circle ("cut" nodes) is tied to the boundary data by the rule of
`GraphPatch._build_disk_ties`.

Also here: the norm of the second fundamental form per node, the intrinsic
h-function maximizer used by blow-up arguments (h = |sigma| * distance to
the boundary of an intrinsic disk), and the joint rescaling of patches and
relations that leaves h invariant.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from .errors import DomainError, RelationError
from .jets import mean_gauss, residual_fields, stencil_jets
from .relation import (CMC, ClosedForm, FForm, GForm, LinearWeingarten, RelationSpec,
                       SampledHermite, _linear_coefficients, f_function, g_of)

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
MAX_GRID_NODES = 2_000_000    # a grid of more nodes is rejected before it is allocated

BoundaryData = Union[float, Callable[[np.ndarray, np.ndarray], np.ndarray]]

_NEIGHBORS8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
_DY, _DX = np.array(_NEIGHBORS8).T
# (dy, dx) of the 9-point stencil, in the order of the coefficients in _System.jacobian
_STENCIL9 = [(0, 1), (0, -1), (1, 0), (-1, 0), (0, 0), (1, 1), (-1, -1), (1, -1), (-1, 1)]


def _as_bc(bc: BoundaryData) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    if callable(bc):
        return bc
    c = float(bc)
    return lambda x, y: np.full_like(np.asarray(x, dtype=float), c)


@dataclass
class GraphPatch:
    """A gridded graph over a rectangle or a disk mask.

    values[iy, ix] holds u at (x0 + ix*h, y0 + iy*h); nodes outside the
    domain mask are NaN.  Interior nodes have the full 9-point stencil
    inside the mask; the remaining in-domain nodes carry boundary data.
    """

    x0: float
    y0: float
    h: float
    mask: np.ndarray
    values: np.ndarray
    disk_spec: Optional[tuple] = None   # (cx, cy, radius)
    # cut-node interpolation ties (disk domains): parallel arrays
    tie_node: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=int))
    tie_inner: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=int))
    tie_tau: np.ndarray = field(default_factory=lambda: np.empty(0))
    tie_len: np.ndarray = field(default_factory=lambda: np.empty(0))
    tie_bc: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.values = np.asarray(self.values, dtype=float)
        if self.mask.shape != self.values.shape:
            raise ValueError("mask and values must have the same shape")
        self.values = np.where(self.mask, self.values, np.nan)

    @property
    def shape(self) -> tuple:
        return self.mask.shape

    @property
    def kind(self) -> str:
        return "rectangle" if self.disk_spec is None else "disk"

    def axes(self):
        """Grid coordinates (x of each column, y of each row)."""
        ny, nx = self.shape
        return self.x0 + self.h * np.arange(nx), self.y0 + self.h * np.arange(ny)

    def xy(self):
        return np.meshgrid(*self.axes())

    def interior_mask(self) -> np.ndarray:
        return _interior(self.mask)

    def boundary_mask(self) -> np.ndarray:
        return self.mask & ~self.interior_mask()

    def in_domain_node(self, node, what: str) -> tuple:
        """(iy, ix) of `node` as ints; ValueError naming `what` unless it is
        two integers (numpy integers too, a bool is none) naming a grid node
        inside the domain mask."""
        if not (len(node) == 2 and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                                       for v in node)):
            raise ValueError(f"{what} {node!r} is not two integer grid indices")
        iy, ix = (int(v) for v in node)
        ny, nx = self.shape
        if not (0 <= iy < ny and 0 <= ix < nx) or not self.mask[iy, ix]:
            raise ValueError(f"{what} ({iy}, {ix}) is not an in-domain node")
        return iy, ix

    def copy(self) -> "GraphPatch":
        return GraphPatch(self.x0, self.y0, self.h, self.mask.copy(), self.values.copy(),
                          self.disk_spec, self.tie_node.copy(), self.tie_inner.copy(),
                          self.tie_tau.copy(), self.tie_len.copy(), self.tie_bc.copy())

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rectangle(bounds: tuple, h: float, boundary: BoundaryData = 0.0,
                  init: BoundaryData = 0.0) -> "GraphPatch":
        """Uniform grid over [x_min, x_max] x [y_min, y_max] (snapped to h)."""
        x_min, x_max, y_min, y_max = (float(v) for v in bounds)
        if not (math.isfinite(h) and h > 0.0):
            raise ValueError(f"grid step h must be finite and positive, got {h!r}")
        # min() keeps int() off an infinite quotient; such a grid fails the bound
        nx, ny = (int(round(min((hi - lo) / h, MAX_GRID_NODES))) + 1
                  for lo, hi in ((x_min, x_max), (y_min, y_max)))
        if nx < 3 or ny < 3:
            raise ValueError("rectangle patch needs at least 3 nodes per side")
        _check_nodes(h, nx * ny)
        mask = np.ones((ny, nx), dtype=bool)
        patch = GraphPatch(x_min, y_min, h, mask, np.zeros((ny, nx)))
        X, Y = patch.xy()
        patch.values = np.asarray(_as_bc(init)(X, Y), dtype=float).copy()
        ring = patch.boundary_mask()
        patch.values[ring] = np.asarray(_as_bc(boundary)(X, Y), dtype=float)[ring]
        return patch

    @staticmethod
    def disk(center: tuple, radius: float, h: float, boundary: BoundaryData = 0.0,
             init: BoundaryData = 0.0) -> "GraphPatch":
        """Masked disk domain with the center snapped onto a grid node; its
        cut nodes are tied to the circle by `_build_disk_ties`."""
        cx, cy = (float(v) for v in center)
        if not (math.isfinite(h) and h > 0.0):
            raise ValueError(f"grid step h must be finite and positive, got {h!r}")
        n = int(math.ceil(min(radius / h, MAX_GRID_NODES)))
        x0, y0 = cx - n * h, cy - n * h
        size = 2 * n + 1
        _check_nodes(h, size * size)
        mask = np.zeros((size, size), dtype=bool)
        patch = GraphPatch(x0, y0, h, mask, np.zeros((size, size)), (cx, cy, radius))
        X, Y = patch.xy()
        rho2 = (X - cx) ** 2 + (Y - cy) ** 2
        patch.mask = rho2 <= radius * radius * (1.0 + 1e-12)
        patch.values = np.where(patch.mask, np.asarray(_as_bc(init)(X, Y), dtype=float), np.nan)
        patch._build_disk_ties(_as_bc(boundary))
        return patch

    def _build_disk_ties(self, bc: Callable):
        """Tie the cut nodes (in-domain but not interior) to the circle.

        A direction (dy, dx) of `_NEIGHBORS8` is a candidate for a cut node
        when the next node that way is outside the mask, the node opposite
        (the inner node) is inside, and the ray that way meets the circle at
        a distance tau with -1e-12 step <= tau <= step (1 + 1e-9), step being
        the length h |(dx, dy)| of one grid step.  If a candidate has tau < 0,
        the last such one in `_NEIGHBORS8` order wins, else the first with the
        least tau: a scan in that order that takes a candidate whose tau is
        below max(best tau, 0).  The node is tied by u = w u_inner + (1 - w)
        bc(b), w = tau / (tau + step), at the crossing b with tau clamped at
        0, and seeded with bc(b); this linear interpolation keeps the scheme
        second order.  A cut node without a candidate (an isolated sliver) is
        pinned to bc at the radially nearest circle point.
        """
        cx, cy, R = self.disk_spec
        cut = np.argwhere(self.boundary_mask())
        iy, ix = cut.T
        px = self.x0 + ix * self.h - cx
        py = self.y0 + iy * self.h - cy
        # (cut node, direction) lookups in the mask padded by one outside node
        inside = np.pad(self.mask, 1)
        oy, ox = iy[:, None] + 1, ix[:, None] + 1
        hyp = np.hypot(_DX, _DY)
        step, ux, uy = self.h * hyp, _DX / hyp, _DY / hyp
        pd = px[:, None] * ux + py[:, None] * uy
        disc = pd * pd - (px * px + py * py - R * R)[:, None]
        with np.errstate(invalid="ignore"):
            tau = -pd + np.sqrt(disc)
        cand = (~inside[oy + _DY, ox + _DX] & inside[oy - _DY, ox - _DX]
                & ~(disc < 0.0) & ~(tau < -1e-12 * step) & ~(tau > step * (1.0 + 1e-9)))
        neg = cand & (tau < 0.0)
        best = np.where(neg.any(axis=1), len(_NEIGHBORS8) - 1 - np.argmax(neg[:, ::-1], axis=1),
                        np.argmin(np.where(cand, tau, np.inf), axis=1))
        tied = cand.any(axis=1)
        k = best[tied]
        t = np.maximum(tau[tied, k], 0.0)
        self.tie_node = cut[tied]
        self.tie_inner = self.tie_node - np.column_stack([_DY[k], _DX[k]])
        self.tie_tau = t
        self.tie_len = step[k]
        self.tie_bc = np.asarray(bc(cx + px[tied] + t * ux[k], cy + py[tied] + t * uy[k]),
                                 dtype=float)
        # seed cut values from the boundary data so the initial guess is usable
        self.values[iy[tied], ix[tied]] = self.tie_bc
        # math.hypot: np.hypot rounds about one point in 500 differently
        spx, spy = px[~tied], py[~tied]
        rho = np.fromiter(map(math.hypot, spx.tolist(), spy.tolist()), float, spx.size)
        scale = np.divide(R, rho, out=np.ones_like(rho), where=rho > 0)
        self.values[iy[~tied], ix[~tied]] = bc(cx + spx * scale, cy + spy * scale)

    # -- I/O ---------------------------------------------------------------

    def save(self, csv_path, header_path):
        """Write `x,y,u` rows of the masked nodes (row-major) by `write_csv`
        and a JSON header.

        The text files are the patch.  Beside the CSV goes `<csv stem>.bin`,
        read by `load` in one piece: a first line of 8 hex digits, the
        `zlib.crc32` of every byte after it; a second line of compact JSON
        with sorted keys (x0, y0, h, kind, disk, the SHA-256 of the CSV and
        header bytes just written, and `[name, dtype.str, shape]` of each
        array); then the raw C-order bytes of mask, values and the five tie
        arrays.  Nothing in it depends on the clock, so a rerun writes the
        same bytes."""
        ny, nx = self.shape
        xs, ys = self.axes()
        iy, ix = np.nonzero(self.mask)
        write_csv(csv_path, "x,y,u", [xs[ix], ys[iy], self.values[iy, ix]])
        chars = np.where(self.mask, b"1", b"0").tobytes().decode()
        disk = list(self.disk_spec) if self.disk_spec else None
        hdr = {
            "x0": self.x0, "y0": self.y0, "h": self.h, "shape": list(self.shape),
            "kind": self.kind, "disk": disk,
            "mask": [chars[i:i + nx] for i in range(0, ny * nx, nx)],
            "tie_node": self.tie_node.tolist(), "tie_inner": self.tie_inner.tolist(),
            "tie_tau": self.tie_tau.tolist(), "tie_len": self.tie_len.tolist(),
            "tie_bc": self.tie_bc.tolist(),
        }
        with open(header_path, "w") as fh:
            fh.write(json.dumps(hdr, sort_keys=True))
        arrays = [getattr(self, k) for k in _BINARY_ARRAYS]
        meta = {"x0": self.x0, "y0": self.y0, "h": self.h, "kind": self.kind, "disk": disk,
                "csv_sha256": _sha256(csv_path), "header_sha256": _sha256(header_path),
                "arrays": [[k, a.dtype.str, list(a.shape)]
                           for k, a in zip(_BINARY_ARRAYS, arrays)]}
        body = b"".join([json.dumps(meta, sort_keys=True, separators=(",", ":")).encode(), b"\n",
                         *(a.tobytes() for a in arrays)])
        with open(_binary_path(csv_path), "wb") as fh:
            fh.write(b"%08x\n" % zlib.crc32(body))
            fh.write(body)

    @staticmethod
    def load(csv_path, header_path) -> "GraphPatch":
        """Read a patch written by `save`; a CSV whose row count is not the
        mask's node count raises ValueError.

        The `.bin` beside the CSV is read in one go and used only when its
        CRC matches its bytes and the digests it holds are those of the CSV
        and header bytes; each array is then a copy of its slice.  A
        missing, short, garbled or stale binary (an old `.npz` is not read),
        or text edited after `save`, falls back to parsing the text, which
        gives the same patch."""
        try:
            with open(_binary_path(csv_path), "rb") as fh:
                blob = fh.read()
            if blob[:9] == b"%08x\n" % zlib.crc32(memoryview(blob)[9:]):
                end = blob.index(b"\n", 9) + 1
                meta = json.loads(blob[9:end])
                if (meta["csv_sha256"] == _sha256(csv_path)
                        and meta["header_sha256"] == _sha256(header_path)):
                    arrays = {}
                    for name, dtype, shape in meta["arrays"]:
                        dtype, count = np.dtype(dtype), math.prod(shape)
                        arrays[name] = np.frombuffer(blob, dtype, count, end).reshape(shape).copy()
                        end += dtype.itemsize * count
                    if end == len(blob):
                        return GraphPatch(meta["x0"], meta["y0"], meta["h"], arrays["mask"],
                                          arrays["values"],
                                          tuple(meta["disk"]) if meta["disk"] else None,
                                          *(arrays[k] for k in _TIE_FIELDS))
        except _UNREADABLE_BINARY:
            pass
        with open(header_path) as fh:
            hdr = json.load(fh)
        rows = hdr["mask"]
        mask = (np.frombuffer("".join(rows).encode(), dtype=np.uint8)
                == ord("1")).reshape(len(rows), -1)
        u = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=2, ndmin=1)
        values = np.full(mask.shape, np.nan)
        values[mask] = u
        return GraphPatch(hdr["x0"], hdr["y0"], hdr["h"], mask, values,
                          tuple(hdr["disk"]) if hdr["disk"] else None,
                          np.asarray(hdr["tie_node"], dtype=int).reshape(-1, 2),
                          np.asarray(hdr["tie_inner"], dtype=int).reshape(-1, 2),
                          np.asarray(hdr["tie_tau"], dtype=float),
                          np.asarray(hdr["tie_len"], dtype=float),
                          np.asarray(hdr["tie_bc"], dtype=float))


def _interior(mask: np.ndarray) -> np.ndarray:
    """The nodes of `mask` whose 8 neighbours are all in it (none on the
    grid's edge)."""
    inner = np.zeros_like(mask)
    inner[1:-1, 1:-1] = mask[1:-1, 1:-1]
    ny, nx = mask.shape
    for dy, dx in _NEIGHBORS8:
        inner[1:-1, 1:-1] &= mask[1 + dy:ny - 1 + dy, 1 + dx:nx - 1 + dx]
    return inner


def _check_nodes(h: float, nodes: int):
    if nodes > MAX_GRID_NODES:
        raise ValueError(f"grid step h = {h!r} is too fine: the grid would have more than "
                         f"{MAX_GRID_NODES} nodes")


_TIE_FIELDS = ("tie_node", "tie_inner", "tie_tau", "tie_len", "tie_bc")
_BINARY_ARRAYS = ("mask", "values") + _TIE_FIELDS
# what reading the binary raises when it is missing or unreadable (OSError),
# or when a file whose CRC matches is not one `save` wrote: bad JSON or
# dtype, a missing key, a value of the wrong type, or arrays that overrun
# the file
_UNREADABLE_BINARY = (OSError, ValueError, TypeError, KeyError)


def _binary_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".bin")


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_csv(path, header: str, columns):
    """Write `header` and one comma-separated row per entry of the equal-length
    float `columns`, each entry written as its `repr`, the shortest decimal
    that parses back to the same double.

    orjson prints the same shortest digits (Ryu) for CSV_BLOCK rows at a
    time; three rewrites of its layout give `repr`'s text: a sign and two
    digits in every exponent, `d.ddde-05` for its `0.0000ddd` and the
    `repr` of each non-finite value for its `null`."""
    import orjson

    table = np.column_stack(columns).astype(float, copy=False)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, len(table), CSV_BLOCK):
            block = table[start:start + CSV_BLOCK]
            rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
            # a separator on both sides of every token, so each pattern sees it whole
            text = b"\n" + rows.replace(b"],[", b"\n") + b"\n"
            text = _EXP_POSITIVE.sub(rb"e+\1", text)
            text = _EXP_ONE_DIGIT.sub(rb"e-0\1\2", text)
            if b"0.0000" in text:
                text = _FIXED_E_MINUS_5.sub(rb"\1\2.\3e-05", text).replace(b".e-05", b"e-05")
            special = block[~np.isfinite(block)]
            if special.size:
                parts = text.split(b"null")
                text = b"".join(p + repr(v).encode() for p, v in zip(parts, special.tolist()))
                text += parts[-1]
            fh.write(memoryview(text)[:-1])
        fh.write(b"\n")


# rows per orjson call in write_csv: the text rewritten at once stays in
# cache, which makes a 205,861-row patch faster to write than in one piece
CSV_BLOCK = 1024
# Ryu's exponent (e16, e-7) has no '+' and no zero padding, and it prints
# values in [1e-5, 1e-4) as 0.0000ddd where `repr` switches to d.ddde-05;
# the separator before 0.0000 keeps 10.00001 out
_EXP_POSITIVE = re.compile(rb"e(\d)")
_EXP_ONE_DIGIT = re.compile(rb"e-(\d)([,\n])")
_FIXED_E_MINUS_5 = re.compile(rb"([,\n-])0\.0000(\d)(\d*)")


# ---------------------------------------------------------------------------
# Jets and residuals on the grid
# ---------------------------------------------------------------------------

def jet_fields(patch: GraphPatch):
    """(p, q, r, s, t) arrays at interior nodes, NaN elsewhere."""
    iy, ix = np.nonzero(patch.interior_mask())
    out = np.full((5,) + patch.shape, np.nan)
    out[:, iy, ix] = stencil_jets(patch.values, patch.h, iy, ix)
    return tuple(out)


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

    def to_json(self) -> dict:
        residual = None if math.isnan(self.residual_sup) else self.residual_sup
        return {"status": self.status, "residual_sup": residual,
                "iterations": self.iterations, "history": self.history}


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
    lengths are filled from padded slices in `_NEIGHBORS8` order and then
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
    for k, (dy, dx) in enumerate(_NEIGHBORS8):
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

    def to_json(self) -> dict:
        return {"q_n": list(self.q_n), "lambda_n": self.lambda_n,
                "r_n": self.r_n, "h_max": self.h_max}


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
    d_bd = intrinsic_distances(crop, np.argwhere(in_disk & ~_interior(in_disk)), within=in_disk)
    sigma = second_fundamental_norm_field(crop) if sigma_field is None else np.asarray(sigma_field, dtype=float)[box]
    with np.errstate(invalid="ignore"):
        hfun = np.where(in_disk & np.isfinite(sigma) & np.isfinite(d_bd), sigma * d_bd, -np.inf)
    flat = int(np.argmax(hfun))
    qy, qx = divmod(flat, crop.shape[1])
    if not np.isfinite(hfun[qy, qx]):
        raise ValueError("h-function is nowhere finite on the disk")
    return BlowupSelection((qy + y0, qx + x0), float(sigma[qy, qx]), float(d_bd[qy, qx]),
                           float(hfun[qy, qx]))


# ---------------------------------------------------------------------------
# Blow-up rescalings
# ---------------------------------------------------------------------------

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
    lin = _linear_coefficients(rel)
    if lin is None:
        raise RelationError("rescale_relation needs a relation in g form or a linear f-form")
    al, be, de = lin
    linear = CMC(de / (2.0 * al)) if be == 0.0 else LinearWeingarten(al, be, de)
    return FForm(f_function(rescale_relation(linear, lam)))


def rescale_patch(patch: GraphPatch, lam: float) -> GraphPatch:
    """Scale coordinates and heights by lam; |sigma| scales by 1/lam and the
    Weingarten residual under the jointly rescaled relation by 1/lam."""
    if lam <= 0.0:
        raise ValueError("rescaling factor must be positive")
    disk = None
    if patch.disk_spec is not None:
        cx, cy, R = patch.disk_spec
        disk = (cx * lam, cy * lam, R * lam)
    return GraphPatch(patch.x0 * lam, patch.y0 * lam, patch.h * lam, patch.mask.copy(),
                      patch.values * lam, disk,
                      patch.tie_node.copy(), patch.tie_inner.copy(),
                      patch.tie_tau * lam, patch.tie_len * lam, patch.tie_bc * lam)
