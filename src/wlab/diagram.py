"""Curvature-diagram analysis.

A curvature diagram is the multiset of principal-curvature pairs
(k1, k2), k1 >= k2, attained by a surface.  This module classifies
diagrams against the quasiconformality inequality
k1^2 + k2^2 <= 2*gamma*k1*k2, converts between the gamma constant and the
Beltrami bound mu, computes the wedge of boundary slopes, and builds
empirical diagrams from triangle meshes by quadric fitting.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import MeshError
from .jets import principal_curvatures

ZERO_TOL = 1.0e-13          # absolute tolerance for "exactly zero" curvature
FIT_COND_LIMIT = 1.0e8      # quadric fits above this condition number are skipped
FIT_BLOCK = 1024            # vertices per batched quadric fit; bounds the working arrays
_INDEX_TAIL = re.compile(r"(?<=\S)/\S*")   # the '/j/k' of an OBJ face token 'i/j/k'
_NOT_INDEX = re.compile(r"[^\s0-9]")       # a character outside unsigned decimal indices


@dataclass
class CurvatureDiagram:
    """Multiset of ordered principal-curvature pairs with a provenance tag."""

    samples: np.ndarray                     # (N, 2), k1 >= k2 per row
    source: str = "synthetic"               # mesh | synthetic
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=float).reshape(-1, 2)
        swap = a[:, 0] < a[:, 1]
        a[swap] = a[swap][:, ::-1]
        self.samples = a

    def __len__(self) -> int:
        return self.samples.shape[0]


# ---------------------------------------------------------------------------
# Quasiconformality classification
# ---------------------------------------------------------------------------

def mu_gamma(mu: float) -> float:
    """gamma = (mu^2 + 1)/(mu^2 - 1) <= -1 for mu in [0, 1)."""
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"mu must lie in [0, 1), got {mu}")
    return (mu * mu + 1.0) / (mu * mu - 1.0)


def gamma_mu(gamma: float) -> float:
    """Inverse of mu_gamma on the branch gamma <= -1."""
    if gamma > -1.0:
        raise ValueError(f"gamma must be <= -1, got {gamma}")
    return math.sqrt(max((gamma + 1.0) / (gamma - 1.0), 0.0))


def gamma_to_wedge(gamma: float) -> tuple:
    """Boundary slopes m = gamma +- sqrt(gamma^2 - 1) of the wedge where the
    quasiconformality inequality is an equality; m1 <= m2 < 0, m1*m2 = 1."""
    if gamma > -1.0:
        raise ValueError(f"gamma must be <= -1, got {gamma}")
    root = math.sqrt(max(gamma * gamma - 1.0, 0.0))
    return (gamma - root, gamma + root)


@dataclass
class QCReport:
    classification: str                      # plane_like | negative_branch | positive_branch | infeasible
    gamma_star: Optional[float] = None
    mu: Optional[float] = None
    wedge_slopes: Optional[tuple] = None
    worst_sample: Optional[tuple] = None     # offending pair when infeasible


def qc_classify(d: CurvatureDiagram) -> QCReport:
    """Tightest single-constant classification of the inequality
    k1^2 + k2^2 <= 2*gamma*k1*k2 over the diagram.

    Samples with k1*k2 < 0 require gamma <= ratio <= -1, samples with
    k1*k2 > 0 require gamma >= ratio >= 1, flat umbilics (both curvatures
    zero within 1e-13) are compatible with every branch, and a sample with
    exactly one vanishing curvature admits no gamma at all.  Mixing the two
    strict branches is infeasible.
    """
    if len(d) == 0:
        raise ValueError("cannot classify an empty diagram")
    k1, k2 = d.samples[:, 0], d.samples[:, 1]
    z1, z2 = np.abs(k1) <= ZERO_TOL, np.abs(k2) <= ZERO_TOL
    neutral = z1 & z2
    lonely_zero = z1 ^ z2
    if np.any(lonely_zero):
        idx = int(np.argmax(lonely_zero))
        return QCReport("infeasible", worst_sample=(float(k1[idx]), float(k2[idx])))
    live = ~neutral
    prod = k1 * k2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (k1 * k1 + k2 * k2) / (2.0 * prod)
    neg = live & (prod < 0.0)
    pos = live & (prod > 0.0)
    if np.any(neg) and np.any(pos):
        idx = int(np.argmax(pos))
        return QCReport("infeasible", worst_sample=(float(k1[idx]), float(k2[idx])))
    negative = bool(np.any(neg))
    if not (negative or np.any(pos)):
        return QCReport("plane_like")
    # mu of each pair, free of the cancellation in gamma -+ 1 near |gamma| = 1;
    # gamma* is the ratio of the pair whose mu is largest
    idx = np.flatnonzero(neg if negative else pos)
    sums, diffs = np.abs(k1[idx] + k2[idx]), np.abs(k1[idx] - k2[idx])
    mus = sums / diffs if negative else diffs / sums
    i = idx[int(np.argmax(mus))]
    gamma, mu = float(ratio[i]), float(np.max(mus))
    if negative:
        wedge = tuple(sorted((float(k2[i] / k1[i]), float(k1[i] / k2[i]))))
        return QCReport("negative_branch", gamma_star=gamma, mu=mu, wedge_slopes=wedge)
    return QCReport("positive_branch", gamma_star=gamma, mu=mu)


# ---------------------------------------------------------------------------
# Triangle meshes
# ---------------------------------------------------------------------------

@dataclass
class TriMesh:
    vertices: np.ndarray       # (N, 3)
    faces: np.ndarray          # (M, 3) int
    ignored_records: int = 0

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        try:
            self.faces = np.asarray(self.faces, dtype=int).reshape(-1, 3)
        except OverflowError:
            raise MeshError("face index out of range") from None
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise MeshError("face index out of range")
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            raise MeshError(f"non-finite coordinate at vertex {int(np.argmin(finite)) + 1}, "
                            "vertices numbered from 1 as in OBJ")


def load_obj(path) -> TriMesh:
    """Minimal OBJ reader: 'v' and triangular 'f' records only; anything else
    is ignored and counted.  Vertex indices are 1-based, 'i/j/k' forms allowed.

    One pass sorts the lines into records, and numpy parses the vertex and
    face records in bulk.  Its parsers round decimals as float() does and
    accept no token that float() or int() would reject.  A file they do not
    take whole is read again by `_load_obj_lines`, which raises the MeshError
    of its first bad line.  That covers files with a face that is not a
    triangle, an index that is zero, signed or non-ASCII, and coordinates
    that only float() reads, such as '1_0'.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    vertex, face, ignored = [], [], 0
    for line in lines:
        parts = line.split(None, 1)
        if not parts or parts[0][0] == "#":
            continue
        if parts[0] == "v":
            vertex.append(line)
        elif parts[0] == "f":
            # a bare 'f' leaves a blank line, which loadtxt skips: one row short
            face.append(parts[1] if len(parts) > 1 else "")
        else:
            ignored += 1
    indices = "\n".join(face)
    if "/" in indices:
        indices = _INDEX_TAIL.sub("", indices)
    if vertex and face and not _NOT_INDEX.search(indices):
        try:
            verts = np.loadtxt(vertex, usecols=(1, 2, 3), comments=None, ndmin=2)
            faces = np.loadtxt(io.StringIO(indices), dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if faces.shape == (len(face), 3) and faces.min() > 0:
                return TriMesh(verts, faces - 1, ignored)
    return _load_obj_lines(lines)


def _load_obj_lines(lines: list) -> TriMesh:
    """`load_obj` record by record, in file order."""
    verts, faces, ignored = [], [], 0
    for ln, line in enumerate(lines, 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshError(f"line {ln}: vertex needs 3 coordinates")
            try:
                verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
            except ValueError as exc:
                raise MeshError(f"line {ln}: bad vertex coordinate") from exc
        elif parts[0] == "f":
            idx = []
            for tok in parts[1:]:
                head = tok.split("/")[0]
                try:
                    v = int(head)
                except ValueError as exc:
                    raise MeshError(f"line {ln}: bad face index {tok!r}") from exc
                if v <= 0:
                    raise MeshError(f"line {ln}: only positive face indices are supported")
                idx.append(v - 1)
            if len(idx) == 3:
                faces.append(idx)
            else:
                ignored += 1
        else:
            ignored += 1
    if not verts or not faces:
        raise MeshError("OBJ contains no usable triangles")
    return TriMesh(np.asarray(verts), np.asarray(faces), ignored)


def _mesh_topology(mesh: TriMesh):
    """Boundary-vertex mask and vertex adjacency (CSR, symmetric) of the mesh.

    Raises MeshError at the first directed edge, in face order, that an
    earlier face already has: the mesh is inconsistently oriented there.
    This also rejects every non-manifold edge, since the third face on an
    edge repeats one of the two directions before it.
    """
    # scipy is imported here and in mesh_diagram, not with the module, so
    # that a diagram of curvature pairs never loads it
    import scipy.sparse as sp

    nv = len(mesh.vertices)
    u = mesh.faces.ravel()
    v = mesh.faces[:, [1, 2, 0]].ravel()
    directed = u * nv + v
    order = np.argsort(directed, kind="stable")
    repeat = order[1:][directed[order[1:]] == directed[order[:-1]]]
    if repeat.size:
        e = int(repeat.min())
        raise MeshError(f"inconsistent orientation at edge ({u[e] + 1}, {v[e] + 1}), "
                        "vertices numbered from 1 as in OBJ")
    keys, counts = np.unique(np.minimum(u, v) * nv + np.maximum(u, v), return_counts=True)
    boundary = np.zeros(nv, dtype=bool)
    once = keys[counts == 1]
    boundary[once // nv] = True
    boundary[once % nv] = True
    ends = (np.concatenate([u, v]), np.concatenate([v, u]))
    adjacency = sp.csr_matrix((np.ones(2 * u.size), ends), shape=(nv, nv))
    return boundary, adjacency


def _vertex_normals(mesh: TriMesh) -> np.ndarray:
    """Unit area-weighted vertex normals; zero where the faces around a
    vertex have no area."""
    V, Fc = mesh.vertices, mesh.faces
    fn = np.cross(V[Fc[:, 1]] - V[Fc[:, 0]], V[Fc[:, 2]] - V[Fc[:, 0]])  # 2*area*normal
    corners = Fc.T.ravel()       # each face's first corners, then its second, then its third
    normals = np.column_stack([np.bincount(corners, np.tile(fn[:, c], 3), minlength=len(V))
                               for c in range(3)])
    norm = np.linalg.norm(normals, axis=1, keepdims=True)
    norm[norm == 0.0] = 1.0
    return normals / norm


def _ring_fits(A: np.ndarray, z: np.ndarray) -> tuple:
    """Least-squares solutions of the stacked fits A c = z, A of shape
    (b, m, 5) with m >= 5, and the mask of the fits whose condition number
    is at most FIT_COND_LIMIT: (ok, coefficients).

    One QR of [A | z] gives A's triangle T and Q^T z, and one back
    substitution of T X = [Q^T z | I] gives the coefficients and T^-1.
    ||T||_F ||T^-1||_F bounds cond_2(T) = cond_2(A) from above, so a fit it
    clears is within the limit; the few it does not clear take the exact
    singular-value test of T, and a fit whose T is not finite fails.  Every
    kept fit takes its coefficients from the back substitution: T is
    triangular, so np.linalg.solve would factor it as itself and repeat the
    same steps up to rounding.
    """
    R = np.linalg.qr(np.concatenate([A, z[..., None]], axis=-1), mode="r")
    T = R[:, :5, :5]
    X = np.concatenate([R[:, :5, 5:], np.broadcast_to(np.eye(5), T.shape)], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(4, -1, -1):
            X[:, i] -= np.einsum("bj,bjk->bk", T[:, i, i + 1:], X[:, i + 1:])
            X[:, i] /= T[:, i, i, None]
        bound = np.sqrt(np.einsum("bij,bij->b", T, T)
                        * np.einsum("bij,bij->b", X[..., 1:], X[..., 1:]))  # Frobenius norms
    ok = bound <= FIT_COND_LIMIT
    doubt = np.flatnonzero(~ok)
    doubt = doubt[np.isfinite(T[doubt]).all(axis=(1, 2))]
    if doubt.size:
        sv = np.linalg.svd(T[doubt], compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            ok[doubt] = (sv[:, -1] > 0.0) & (sv[:, 0] / sv[:, -1] <= FIT_COND_LIMIT)
    return ok, X[:, :, 0]


def mesh_diagram(mesh: TriMesh) -> CurvatureDiagram:
    """Per-vertex principal curvatures by a least-squares quadric fit over the
    2-ring in the tangent frame of the area-weighted vertex normal.

    Boundary vertices are skipped; fits with design condition number above
    1e8 or a non-finite design, fewer than 5 usable neighbors or a zero
    normal (faces of no area) are skipped and counted in diagram.notes.
    Curvature signs follow the mesh orientation: the normal defined by the
    face winding is the graph's upward axis.

    The 2-rings are the off-diagonal nonzeros of A + A^2 for the vertex
    adjacency A.  Vertices are fitted FIT_BLOCK at a time: each ring is
    padded to the block's largest ring with copies of the vertex itself,
    whose zero rows change neither the condition number nor the
    least-squares solution, and `_ring_fits` solves the block.
    """
    import scipy.sparse as sp

    boundary, adjacency = _mesh_topology(mesh)
    normals = _vertex_normals(mesh)
    V = mesh.vertices
    nv = len(V)
    rings = adjacency + adjacency @ adjacency
    rings = (rings - sp.diags(rings.diagonal())).tocsr()
    rings.eliminate_zeros()
    sizes = np.diff(rings.indptr)
    fit = ~boundary & (sizes >= 5) & normals.any(axis=1)
    skipped_degenerate = int(np.count_nonzero(~boundary & ~fit))

    pairs = []
    candidates = np.flatnonzero(fit)
    for start in range(0, candidates.size, FIT_BLOCK):
        block = candidates[start:start + FIT_BLOCK]
        width = int(sizes[block].max())
        slot = np.arange(width)
        real = slot < sizes[block][:, None]
        ring = np.repeat(block[:, None], width, axis=1)
        ring[real] = rings.indices[(rings.indptr[block][:, None] + slot)[real]]
        n = normals[block]
        ref = np.where((np.abs(n[:, 0]) < 0.9)[:, None], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        e1 = np.cross(n, ref)
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 = np.cross(n, e1)
        d = V[ring] - V[block][:, None, :]
        x, y, zn = np.einsum("bmk,bjk->jbm", d, np.stack([e1, e2, n], axis=1))
        A = np.stack([x, y, 0.5 * x * x, x * y, 0.5 * y * y], axis=-1)
        ok, coef = _ring_fits(A, zn)
        skipped_degenerate += int(np.count_nonzero(~ok))
        pairs.append(np.column_stack(principal_curvatures(*coef[ok].T)))
    pairs = np.concatenate([np.empty((0, 2))] + pairs)
    if not len(pairs):
        raise MeshError("no vertex produced a usable curvature fit")
    return CurvatureDiagram(pairs, "mesh",
                            {"skipped_boundary": int(np.count_nonzero(boundary)),
                             "skipped_degenerate": skipped_degenerate,
                             "ignored_records": mesh.ignored_records,
                             "vertices": nv})
