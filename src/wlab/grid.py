"""Gridded graphs z = u(x, y) over rectangles and disk masks, their saved
artifacts, and `write_csv`, the writer of every CSV artifact.

Rectangle domains carry Dirichlet values on the outer node ring.  Disk
domains are masked out of a uniform grid, and the in-domain ring next to the
circle ("cut" nodes) is tied to the boundary data by the rule of
`GraphPatch._build_disk_ties`.  Also here: the jets of a patch at its
interior nodes and its rescaling.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .jets import stencil_jets

MAX_GRID_NODES = 2_000_000    # a grid of more nodes is rejected before it is allocated

BoundaryData = Union[float, Callable[[np.ndarray, np.ndarray], np.ndarray]]

# (dy, dx) of the 8 grid neighbours, in the order the disk ties and the blow-up graph scan them
NEIGHBORS8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
_DY, _DX = np.array(NEIGHBORS8).T


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
        return interior_of(self.mask)

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

        A direction (dy, dx) of `NEIGHBORS8` is a candidate for a cut node
        when the next node that way is outside the mask, the node opposite
        (the inner node) is inside, and the ray that way meets the circle at
        a distance tau with -1e-12 step <= tau <= step (1 + 1e-9), step being
        the length h |(dx, dy)| of one grid step.  If a candidate has tau < 0,
        the last such one in `NEIGHBORS8` order wins, else the first with the
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
        best = np.where(neg.any(axis=1), len(NEIGHBORS8) - 1 - np.argmax(neg[:, ::-1], axis=1),
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


def interior_of(mask: np.ndarray) -> np.ndarray:
    """The nodes of `mask` whose 8 neighbours are all in it (none on the
    grid's edge)."""
    inner = np.zeros_like(mask)
    inner[1:-1, 1:-1] = mask[1:-1, 1:-1]
    ny, nx = mask.shape
    for dy, dx in NEIGHBORS8:
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
# Jets and rescaling
# ---------------------------------------------------------------------------

def jet_fields(patch: GraphPatch):
    """(p, q, r, s, t) arrays at interior nodes, NaN elsewhere."""
    iy, ix = np.nonzero(patch.interior_mask())
    out = np.full((5,) + patch.shape, np.nan)
    out[:, iy, ix] = stencil_jets(patch.values, patch.h, iy, ix)
    return tuple(out)


def rescale_patch(patch: GraphPatch, lam: float) -> GraphPatch:
    """Scale coordinates and heights by lam; |sigma| scales by 1/lam and the
    Weingarten residual under the relation `rescale_relation` gives by 1/lam."""
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
