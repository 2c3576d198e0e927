"""Shared fixtures: analytic test surfaces, mesh builders, stencil helpers."""

import json
import math

import numpy as np
import pytest

from wlab.diagram import TriMesh
from wlab.grid import GraphPatch


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def report_json(payload):
    """`payload`, result records and all, as a report holds it after its JSON
    round trip through the CLI's report encoder."""
    from wlab.cli import _encode
    return json.loads(json.dumps(payload, default=_encode))


# ---------------------------------------------------------------------------
# Analytic surfaces as graph patches
# ---------------------------------------------------------------------------

def cap_exact(H0):
    """Lower spherical cap of mean curvature +H0 (upward normal), zero on
    the unit circle."""
    Rs = 1.0 / H0

    def u(x, y):
        return np.sqrt(Rs * Rs - 1.0) - np.sqrt(Rs * Rs - x * x - y * y)

    return u


def sphere_patch(h, half_width=0.3):
    patch = GraphPatch.rectangle((-half_width, half_width, -half_width, half_width), h)
    X, Y = patch.xy()
    patch.values = -np.sqrt(1.0 - X ** 2 - Y ** 2)
    return patch


def cylinder_patch(h, half_width=0.4, length=1.0, r0=1.0):
    patch = GraphPatch.rectangle((-half_width, half_width, 0.0, length), h)
    X, Y = patch.xy()
    patch.values = -np.sqrt(r0 * r0 - X ** 2) + 0.0 * Y
    return patch


def plane_patch(h):
    return GraphPatch.rectangle((0.0, 1.0, 0.0, 1.0), h)


def quartic_bump(X, Y, cx, cy, rad):
    """C^3 compactly supported bump with moderate derivatives."""
    rr = ((X - cx) ** 2 + (Y - cy) ** 2) / rad ** 2
    return np.where(rr < 1.0, (1.0 - rr) ** 4, 0.0)


def centered_bump(patch, rel_radius=0.4):
    X, Y = patch.xy()
    return quartic_bump(X, Y, 0.5 * (X.min() + X.max()), 0.5 * (Y.min() + Y.max()),
                        rel_radius * (X.max() - X.min()))


# ---------------------------------------------------------------------------
# Five-point stencils (fourth-order accurate)
# ---------------------------------------------------------------------------

def d1_5pt(f, h):
    out = np.full_like(np.asarray(f, dtype=float), np.nan)
    out[2:-2] = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12.0 * h)
    return out


def d2_5pt(f, h):
    out = np.full_like(np.asarray(f, dtype=float), np.nan)
    out[2:-2] = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) / (12.0 * h ** 2)
    return out


def planar_curvature_5pt(r, z, h):
    """Signed curvature of the parametrized planar curve (r(s), z(s)) with
    respect to the left normal of the tangent, by fourth-order stencils."""
    rp, zp = d1_5pt(r, h), d1_5pt(z, h)
    rpp, zpp = d2_5pt(r, h), d2_5pt(z, h)
    speed = np.sqrt(rp * rp + zp * zp)
    return (rp * zpp - zp * rpp) / speed ** 3


def shape_operator_pairs(p, q, r, s, t) -> np.ndarray:
    """Reference principal curvatures of graph jets, one (k1, k2) row each,
    k1 >= k2: the eigenvalues of I^-1 II by numpy's general eigensolver,
    with no square root of H^2 - K."""
    first = np.stack([1.0 + p * p, p * q, p * q, 1.0 + q * q], axis=-1).reshape(-1, 2, 2)
    second = np.stack([r, s, s, t], axis=-1).reshape(-1, 2, 2)
    second /= np.sqrt(1.0 + p * p + q * q)[:, None, None]
    k = np.linalg.eigvals(np.linalg.solve(first, second)).real
    return -np.sort(-k, axis=1)


# ---------------------------------------------------------------------------
# Triangle meshes (canonical test surfaces carry their inner orientation,
# which makes sphere and cylinder curvatures positive)
# ---------------------------------------------------------------------------

def make_icosphere(radius=2.0, subdiv=4, inward=True) -> TriMesh:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [(-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
             (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
             (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1)]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    V = [np.asarray(v, dtype=float) for v in verts]
    V = [v / np.linalg.norm(v) for v in V]
    F = list(faces)
    for _ in range(subdiv):
        cache = {}
        F2 = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = V[i] + V[j]
                V.append(m / np.linalg.norm(m))
                cache[key] = len(V) - 1
            return cache[key]

        for a, b, c in F:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            F2 += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        F = F2
    V = np.asarray(V) * radius
    F = np.asarray(F, dtype=int)
    if inward:
        F = F[:, ::-1]
    return TriMesh(V, F)


def make_cylinder_mesh(radius=1.0, height=1.5, nth=64, nz=24, inward=True) -> TriMesh:
    th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
    zz = np.linspace(0.0, height, nz)
    V = np.array([(radius * math.cos(t), radius * math.sin(t), z) for z in zz for t in th])

    def vid(iz, it):
        return iz * nth + (it % nth)

    F = []
    for iz in range(nz - 1):
        for it in range(nth):
            a, b = vid(iz, it), vid(iz, it + 1)
            c, d = vid(iz + 1, it), vid(iz + 1, it + 1)
            F += [(a, b, d), (a, d, c)]
    F = np.asarray(F, dtype=int)
    if inward:
        F = F[:, ::-1]
    return TriMesh(V, F)


def make_flat_mesh(n=12, extent=1.0) -> TriMesh:
    xs, ys = np.meshgrid(np.linspace(0.0, extent, n), np.linspace(0.0, extent, n))
    V = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(n * n)])
    F = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            F += [(a, a + 1, a + n + 1), (a, a + n + 1, a + n)]
    return TriMesh(V, np.asarray(F, dtype=int))


def write_obj(mesh: TriMesh, path):
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
