"""Curvature-diagram classification and mesh tests."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (make_cylinder_mesh, make_flat_mesh, make_icosphere, report_json,
                      shape_operator_pairs, write_obj)
from wlab import diagram
from wlab.diagram import (FIT_BLOCK, FIT_COND_LIMIT, CurvatureDiagram, QCReport, TriMesh,
                          _vertex_normals, gamma_mu, gamma_to_wedge, load_obj, mesh_diagram,
                          mu_gamma, qc_classify, _load_obj_lines)
from wlab.errors import MeshError
from wlab.jets import mean_gauss
from wlab.relation import ClosedForm, GForm, certify_ellipticity


class TestClassification:
    def test_minimal_diagram(self, rng):
        k = rng.uniform(0.1, 4.0, 200)
        rep = qc_classify(CurvatureDiagram(np.column_stack([k, -k])))
        assert rep.classification == "negative_branch"
        assert rep.gamma_star == pytest.approx(-1.0, abs=1e-12)
        assert rep.mu == pytest.approx(0.0, abs=1e-12)

    def test_umbilic_positive(self):
        rep = qc_classify(CurvatureDiagram(np.array([[1.0, 1.0]])))
        assert rep.classification == "positive_branch"
        assert rep.gamma_star == 1.0

    def test_two_minus_one(self):
        rep = qc_classify(CurvatureDiagram(np.array([[2.0, -1.0]])))
        assert rep.classification == "negative_branch"
        assert rep.gamma_star == pytest.approx(-1.25)
        # brute-force feasibility over a gamma grid
        gammas = np.linspace(-5.0, -1.0, 2001)
        feasible = gammas[5.0 <= 2.0 * gammas * -2.0]
        assert feasible.max() == pytest.approx(-1.25, abs=1e-3)

    def test_cylinder_pair_infeasible(self):
        rep = qc_classify(CurvatureDiagram(np.array([[2.0, 0.0]])))
        assert rep.classification == "infeasible"
        assert rep.worst_sample == (2.0, 0.0)

    def test_mixed_branches_infeasible(self):
        rep = qc_classify(CurvatureDiagram(np.array([[2.0, -1.0], [1.0, 0.5]])))
        assert rep.classification == "infeasible"

    def test_flat_umbilics_are_neutral(self):
        rep = qc_classify(CurvatureDiagram(np.array([[2.0, -1.0], [0.0, 0.0], [1e-14, -1e-14]])))
        assert rep.classification == "negative_branch"

    def test_all_flat_is_plane_like(self):
        rep = qc_classify(CurvatureDiagram(np.zeros((5, 2))))
        assert rep.classification == "plane_like"
        assert rep.gamma_star is None

    def test_every_sample_satisfies_inequality_at_gamma_star(self, rng):
        k1 = rng.uniform(0.2, 3.0, 500)
        k2 = -rng.uniform(0.2, 3.0, 500)
        rep = qc_classify(CurvatureDiagram(np.column_stack([k1, k2])))
        assert rep.classification == "negative_branch" and rep.gamma_star <= -1.0
        lhs = k1 ** 2 + k2 ** 2
        rhs = 2.0 * rep.gamma_star * k1 * k2
        assert np.all(lhs <= rhs * (1.0 + 1e-12))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-6, 1e6))
    def test_scale_covariance(self, lam):
        d = CurvatureDiagram(np.array([[2.0, -1.0], [1.5, -0.3], [0.7, -0.7]]))
        r1, r2 = qc_classify(d), qc_classify(CurvatureDiagram(d.samples * lam))
        assert r1.classification == r2.classification
        assert r2.gamma_star == pytest.approx(r1.gamma_star, rel=1e-9)

    def test_empty_diagram_rejected(self):
        with pytest.raises(ValueError):
            qc_classify(CurvatureDiagram(np.empty((0, 2))))

    def test_uniformly_elliptic_minimal_samples_negative_branch(self):
        # composite check: relation-satisfying samples of a uniformly
        # elliptic minimal-type class classify with gamma* <= -1
        rel = GForm(ClosedForm("sqrt_offset", {"scale": 0.5, "offset": 1.0, "shift": -0.5}))
        rep = certify_ellipticity(rel)
        assert rep.uniform_constant_Lambda is not None and rep.minimal_type
        ts = np.logspace(-6, 3, 400)
        g = rel.g
        pairs = np.column_stack([np.asarray(g(ts)) + np.sqrt(ts),
                                 np.asarray(g(ts)) - np.sqrt(ts)])
        out = qc_classify(CurvatureDiagram(pairs))
        assert out.classification == "negative_branch"
        assert out.gamma_star <= -1.0


def exact_qc(samples):
    """(gamma*, mu, wedge) of the float pairs in exact arithmetic: mu is
    |k1 -+ k2| / |k1 +- k2| at its largest, and the wedge the sorted
    k2/k1, k1/k2 of that pair on the negative branch (None on the positive)."""
    pairs = [(Fraction(a), Fraction(b)) for a, b in samples]
    negative = pairs[0][0] * pairs[0][1] < 0
    mu, a, b = max((abs(a + b) / abs(a - b) if negative else abs(a - b) / abs(a + b), a, b)
                   for a, b in pairs)
    return (a * a + b * b) / (2 * a * b), mu, tuple(sorted((b / a, a / b))) if negative else None


def assert_relative(value, exact, tol=1e-15):
    assert abs(Fraction(value) - exact) <= tol * abs(exact), (value, float(exact))


class TestNearTheLimit:
    """mu and the wedge keep their digits where gamma* is within rounding of
    +-1, next to an umbilic or a minimal pair."""

    @pytest.mark.parametrize("pair", [(1.0, -(1.0 - 1e-7)), (1.0, -(1.0 - 1e-9)),
                                      (1.0, 1.0 - 1e-9)],
                             ids=["minimal_1e-7", "minimal_1e-9", "umbilic_1e-9"])
    def test_pair(self, pair):
        rep = qc_classify(CurvatureDiagram(np.array([pair])))
        gamma, mu, wedge = exact_qc([pair])
        assert rep.classification == ("negative_branch" if wedge else "positive_branch")
        assert_relative(rep.gamma_star, gamma)
        assert_relative(rep.mu, mu)
        if wedge:
            for got, want in zip(rep.wedge_slopes, wedge):
                assert_relative(got, want)

    def test_icosphere(self):
        d = mesh_diagram(make_icosphere(1.3, 4))
        rep = qc_classify(d)
        gamma, mu, _ = exact_qc(d.samples.tolist())
        assert rep.classification == "positive_branch"
        assert_relative(rep.gamma_star, gamma)
        assert_relative(rep.mu, mu)


class TestGammaMu:
    def test_endpoints(self):
        assert mu_gamma(0.0) == -1.0
        assert gamma_mu(-1.0) == 0.0

    def test_minus_two(self):
        assert mu_gamma(1.0 / math.sqrt(3.0)) == pytest.approx(-2.0, abs=1e-14)
        assert gamma_mu(-2.0) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)

    def test_roundtrip_grid(self):
        # mu in (0, ~0.005) cannot round-trip through a double gamma at 1e-14:
        # gamma = -1 - 2 mu^2 + ... stores the mu^2 digits six decades down
        mus = np.concatenate([[0.0], np.linspace(0.01, 0.999, 500)])
        for mu in mus:
            assert gamma_mu(mu_gamma(float(mu))) == pytest.approx(float(mu), abs=1e-14)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            mu_gamma(1.0)
        with pytest.raises(ValueError):
            gamma_mu(-0.5)


class TestWedge:
    def test_double_root(self):
        assert gamma_to_wedge(-1.0) == (-1.0, -1.0)

    def test_minus_two(self):
        m1, m2 = gamma_to_wedge(-2.0)
        assert m1 == pytest.approx(-2.0 - math.sqrt(3.0), abs=1e-12)
        assert m2 == pytest.approx(-2.0 + math.sqrt(3.0), abs=1e-12)
        # boundary samples satisfy equality in the quasiconformality inequality
        for m in (m1, m2):
            assert 1.0 + m * m == pytest.approx(2.0 * (-2.0) * m, abs=1e-10)

    def test_product_is_one(self, rng):
        for gamma in -1.0 - rng.exponential(1.0, 1000):
            m1, m2 = gamma_to_wedge(float(gamma))
            assert m1 * m2 == pytest.approx(1.0, abs=1e-12)
            assert m1 <= m2 < 0.0

    def test_rejects_wrong_branch(self):
        with pytest.raises(ValueError):
            gamma_to_wedge(0.5)

    def test_consistency_with_classification(self, rng):
        gamma = -2.5
        m1, m2 = gamma_to_wedge(gamma)
        ms = rng.uniform(m1 + 1e-6, m2 - 1e-6, 400)
        xs = rng.uniform(0.1, 5.0, 400)
        d = CurvatureDiagram(np.column_stack([xs, ms * xs]))
        rep = qc_classify(d)
        assert rep.classification == "negative_branch"
        assert rep.gamma_star >= gamma - 1e-10


class TestMeshes:
    def test_icosphere_cluster(self):
        d = mesh_diagram(make_icosphere(2.0, 4))
        assert np.max(np.abs(d.samples - 0.5)) / 0.5 < 0.05
        assert qc_classify(d).classification == "positive_branch"

    def test_flat_mesh_cluster(self):
        d = mesh_diagram(make_flat_mesh(12))
        assert np.max(np.abs(d.samples)) < 1e-6

    def test_cylinder_cluster(self):
        d = mesh_diagram(make_cylinder_mesh())
        assert np.max(np.abs(d.samples[:, 0] - 1.0)) < 0.05
        assert np.max(np.abs(d.samples[:, 1])) < 0.05

    def test_outward_orientation_flips_sign(self):
        d = mesh_diagram(make_icosphere(2.0, 3, inward=False))
        assert np.max(np.abs(d.samples + 0.5)) / 0.5 < 0.05

    def test_boundary_vertices_skipped(self):
        d = mesh_diagram(make_flat_mesh(8))
        assert d.notes["skipped_boundary"] == 4 * 8 - 4

    def test_obj_roundtrip(self, tmp_path):
        mesh = make_icosphere(1.0, 2)
        path = tmp_path / "ico.obj"
        write_obj(mesh, path)
        back = load_obj(path)
        assert np.allclose(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)

    def test_obj_ignores_unknown_records(self, tmp_path):
        path = tmp_path / "mesh.obj"
        path.write_text("vn 0 0 1\nv 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\n"
                        "f 1 2 3\nf 2 4 3\nf 1 2 3 4\nusemtl stuff\n")
        mesh = load_obj(path)
        assert mesh.ignored_records == 3
        assert mesh.faces.shape == (2, 3)

    def test_obj_parse_failure(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0\nf 1 2 3\n")
        with pytest.raises(MeshError):
            load_obj(path)

    def test_non_manifold_rejected(self):
        V = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]], dtype=float)
        F = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        with pytest.raises(MeshError, match="non-manifold|orientation"):
            mesh_diagram(TriMesh(V, F))

    def test_inconsistent_orientation_rejected(self):
        V = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        F = np.array([[0, 1, 2], [1, 3, 2]])   # consistent
        mesh_diagram_ok = True
        try:
            mesh_diagram(TriMesh(V, F))
        except MeshError as exc:
            mesh_diagram_ok = "usable" in str(exc)  # all-boundary is fine to reject
        assert mesh_diagram_ok
        F_bad = np.array([[0, 1, 2], [1, 2, 3]])   # edge (1,2) traversed twice same way
        with pytest.raises(MeshError, match="orientation"):
            mesh_diagram(TriMesh(V, F_bad))

    def test_zero_area_fan_is_skipped(self):
        grid, lump = make_flat_mesh(8), make_flat_mesh(5)
        # the 5 x 5 grid collapsed to one point: every normal of it is zero
        mesh = TriMesh(np.vstack([grid.vertices, 0.0 * lump.vertices + 3.0]),
                       np.vstack([grid.faces, lump.faces + 64]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # skipped before it makes a NaN frame
            d = mesh_diagram(mesh)
        assert d.notes["skipped_boundary"] == (4 * 8 - 4) + (4 * 5 - 4)
        assert d.notes["skipped_degenerate"] == 9
        assert np.array_equal(d.samples, mesh_diagram(grid).samples)

    def test_overflowing_fits_are_skipped(self):
        # the squared ring coordinates of the second sphere overflow
        a = make_icosphere(1.0, 2)
        n = len(a.vertices)
        with np.errstate(over="ignore", invalid="ignore"):
            d = mesh_diagram(TriMesh(np.vstack([a.vertices, 1e160 * a.vertices]),
                                     np.vstack([a.faces, a.faces + n])))
        assert d.notes["skipped_degenerate"] == n
        assert np.array_equal(d.samples, mesh_diagram(a).samples)

    def test_mesh_of_no_area_has_no_fit(self):
        sphere = make_icosphere(1.0, 2)
        with pytest.raises(MeshError, match="^no vertex produced a usable curvature fit$"):
            mesh_diagram(TriMesh(0.0 * sphere.vertices, sphere.faces))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_rejected(self, bad):
        V = make_icosphere(1.0, 1).vertices
        V[[5, 9], 2] = bad
        with pytest.raises(MeshError, match=r"^non-finite coordinate at vertex 6, "
                                            r"vertices numbered from 1 as in OBJ$"):
            TriMesh(V, make_icosphere(1.0, 1).faces)

    def test_vertex_normals_sum_as_add_at(self):
        mesh = perturbed_icosphere(4)
        V, Fc = mesh.vertices, mesh.faces
        fn = np.cross(V[Fc[:, 1]] - V[Fc[:, 0]], V[Fc[:, 2]] - V[Fc[:, 0]])
        summed = np.zeros_like(V)
        for k in range(3):
            np.add.at(summed, Fc[:, k], fn)
        expected = summed / np.linalg.norm(summed, axis=1, keepdims=True)
        assert np.array_equal(_vertex_normals(mesh).view(np.int64), expected.view(np.int64))


# a file read whole by numpy: comments, blank and whitespace-only lines,
# leading whitespace, tabs, CRLF, extra tokens, 'i/j/k' and 'i//k' face
# tokens, unknown records and no newline at the end
OBJ_RECORDS = ("# a comment\r\n#tight comment\r\n\r\n   \t\r\nmtllib m.mtl\r\no thing\r\n"
               "v 0 0 0\r\n  v\t1.5 0 -0\r\nv 0 1e0 0 1.0 extra\r\nv 1 1 0.25 # c\r\n"
               "vn 0 0 1\r\nvt 0.5 0.5\r\nusemtl stuff\r\n"
               "f 1/1/1 2/2/1 3/3/1\r\n\tf 2//1 4//1 3//1  \r\nf 1/ 2 4\t\r\ns off")
OBJ_RECORDS_MESH = (np.array([[0, 0, 0], [1.5, 0, -0.0], [0, 1, 0], [1, 1, 0.25]]),
                    np.array([[0, 1, 2], [1, 3, 2], [0, 1, 3]]), 6)
HEAD = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"


def _line_loop_fails(lines):
    raise AssertionError("the record-by-record reader ran")


class TestObjReader:
    """load_obj reads well-formed files in bulk and everything else record by
    record; both give the TriMesh and the first MeshError of the file order."""

    def read(self, tmp_path, text):
        path = tmp_path / "mesh.obj"
        with open(path, "w", newline="") as fh:     # writes CRLF as given
            fh.write(text)
        return load_obj(path)

    def assert_mesh(self, mesh, vertices, faces, ignored):
        assert mesh.vertices.dtype == np.float64 and mesh.faces.dtype == np.int_
        assert np.array_equal(mesh.vertices.view(np.int64), np.asarray(vertices, float).view(np.int64))
        assert np.array_equal(mesh.faces, faces)
        assert mesh.ignored_records == ignored

    def test_records_in_bulk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diagram, "_load_obj_lines", _line_loop_fails)
        self.assert_mesh(self.read(tmp_path, OBJ_RECORDS), *OBJ_RECORDS_MESH)

    def test_bulk_equals_record_loop(self, tmp_path):
        for text in (OBJ_RECORDS, HEAD + "f 1 2 3\n", OBJ_RECORDS.replace("\r\n", "\n")):
            mesh = self.read(tmp_path, text)
            ref = _load_obj_lines((tmp_path / "mesh.obj").read_text().split("\n"))
            self.assert_mesh(mesh, ref.vertices, ref.faces, ref.ignored_records)

    @pytest.mark.parametrize("tail, faces, ignored", [
        ("f 1 2 3\nf 1 2 3 4\n", [[0, 1, 2]], 1),          # a quad is ignored
        ("f\nf 1 2 3\n", [[0, 1, 2]], 1),                   # so is a bare 'f'
        ("f 1 2\nf 3 2 1\n", [[2, 1, 0]], 1),
        ("f +1 02 3/x\n", [[0, 1, 2]], 0),                  # int() reads these
        ("f 1_0 2 3\n" + "v 0 0 0\n" * 7, [[9, 1, 2]], 0),
        ("f \u0661 2 3\n", [[0, 1, 2]], 0),
    ])
    def test_records_that_need_the_loop(self, tmp_path, tail, faces, ignored):
        mesh = self.read(tmp_path, HEAD + tail)
        assert np.array_equal(mesh.faces, faces) and mesh.ignored_records == ignored

    def test_coordinates_only_float_reads(self, tmp_path):
        mesh = self.read(tmp_path, "v 1_0 \u0662 -0.25\n" + HEAD + "f 2 3 4\n")
        assert mesh.vertices[0].tolist() == [10.0, 2.0, -0.25]

    @pytest.mark.parametrize("text, message", [
        (HEAD + "v 0 0\nf 1 2 3\n", "line 4: vertex needs 3 coordinates"),
        (HEAD + "v\nf 1 2 3\n", "line 4: vertex needs 3 coordinates"),
        ("v 0 x 0\n" + HEAD + "f 1 2 3\n", "line 1: bad vertex coordinate"),
        (HEAD + "v 0 0 0x1\nf 1 2 3\n", "line 4: bad vertex coordinate"),
        (HEAD + "v 0 #0 0\nf 1 2 3\n", "line 4: bad vertex coordinate"),
        (HEAD + "f 1 a 3\n", "line 4: bad face index 'a'"),
        (HEAD + "f 1 /2 3\n", "line 4: bad face index '/2'"),
        (HEAD + "f 1 2 3.0\n", "line 4: bad face index '3.0'"),
        (HEAD + "f 1 2 3 # c\n", "line 4: bad face index '#'"),
        (HEAD + "f 1 2 0\n", "line 4: only positive face indices are supported"),
        (HEAD + "f -1 2 3\n", "line 4: only positive face indices are supported"),
        (HEAD + "f 1 2 3 -1\n", "line 4: only positive face indices are supported"),
        # the first bad line in file order, and the first bad token in a line
        (HEAD + "f 1 2 3\n\nf 1 2 x\nv 0 0\n", "line 6: bad face index 'x'"),
        (HEAD + "v 0 0\nf 1 2 x\n", "line 4: vertex needs 3 coordinates"),
        (HEAD + "f x -1 3\n", "line 4: bad face index 'x'"),
        (HEAD + "f -1 x 3\n", "line 4: only positive face indices are supported"),
        ("f 1 2 3\r\nv 0 0\r\n", "line 2: vertex needs 3 coordinates"),
        (HEAD, "OBJ contains no usable triangles"),
        (HEAD + "f 1 2 3 4\n", "OBJ contains no usable triangles"),
        ("f 1 2 3\n", "OBJ contains no usable triangles"),
        ("", "OBJ contains no usable triangles"),
        (HEAD + "f 1 2 4\n", "face index out of range"),
        (HEAD + "v nan 0 0\nf 1 2 3\n",
         "non-finite coordinate at vertex 4, vertices numbered from 1 as in OBJ"),
        ("v 0 0 0\nv 1 inf 0\n" + HEAD + "f 1 3 4\n",
         "non-finite coordinate at vertex 2, vertices numbered from 1 as in OBJ"),
        # beyond int64: the record loop reads it, the array of faces cannot hold it
        (HEAD + "f 1 2 99999999999999999999\n", "face index out of range"),
    ])
    def test_first_error(self, tmp_path, text, message):
        with pytest.raises(MeshError) as info:
            self.read(tmp_path, text)
        assert str(info.value) == message

    def test_coordinates_round_as_float(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(diagram, "_load_obj_lines", _line_loop_fails)
        x = rng.standard_normal(3000) * 10.0 ** rng.integers(-320, 300, 3000)
        x[:6] = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1]
        faces = "f 1 2 3\n"
        for fmt in (repr, "{:.17g}".format, "{:.6e}".format):
            tokens = [fmt(float(v)) for v in x]
            text = "".join(f"v {a} {b} {c}\n" for a, b, c in zip(*[iter(tokens)] * 3)) + faces
            mesh = self.read(tmp_path, text)
            exact = np.array([float(t) for t in tokens]).reshape(-1, 3)
            assert np.array_equal(mesh.vertices.view(np.int64), exact.view(np.int64))

    def test_icosphere_in_bulk(self, tmp_path, monkeypatch):
        mesh = make_icosphere(1.3, 3)
        write_obj(mesh, tmp_path / "ico.obj")
        ref = load_obj(tmp_path / "ico.obj")
        monkeypatch.setattr(diagram, "_load_obj_lines", _line_loop_fails)
        self.assert_mesh(load_obj(tmp_path / "ico.obj"), ref.vertices, ref.faces, 0)


def quadric_graph_mesh(n, a, b, extent=0.5) -> TriMesh:
    """The graph z = (a x^2 + b y^2)/2 over an n x n grid, upward winding."""
    flat = make_flat_mesh(n, 2.0 * extent)
    x, y = flat.vertices[:, 0] - extent, flat.vertices[:, 1] - extent
    return TriMesh(np.column_stack([x, y, 0.5 * (a * x * x + b * y * y)]), flat.faces)


def perturbed_icosphere(subdiv=3, seed=1) -> TriMesh:
    """An icosphere of radius 1.7 whose vertices are moved by normal noise of
    0.008, about 3 % of an edge at subdivision 3."""
    mesh = make_icosphere(1.7, subdiv)
    noise = np.random.default_rng(seed).normal(scale=0.008, size=mesh.vertices.shape)
    return TriMesh(mesh.vertices + noise, mesh.faces)


def condition_straddle_mesh() -> TriMesh:
    """Sixteen 5 x 5 quadric graphs shrunk by 1e-8 ... 1e-6: their ring
    designs have condition numbers from about 1e7 to 2e9, on both sides of
    FIT_COND_LIMIT and many within a factor 5 below it."""
    graph = quadric_graph_mesh(5, 1.3, -0.6)
    n = len(graph.vertices)
    scales = np.logspace(-8.0, -6.0, 16)
    return TriMesh(np.vstack([s * graph.vertices for s in scales]),
                   np.vstack([graph.faces + k * n for k in range(len(scales))]))


def face_order_topology_error(faces):
    """Message of the first bad edge in face order, or None: the edge
    bookkeeping loop that the sorted-key check in _mesh_topology replaced."""
    undirected, directed = {}, set()
    for a, b, c in faces:
        for u, v in ((a, b), (b, c), (c, a)):
            if (u, v) in directed:
                return (f"inconsistent orientation at edge ({u + 1}, {v + 1}), "
                        "vertices numbered from 1 as in OBJ")
            directed.add((u, v))
            key = (min(u, v), max(u, v))
            undirected[key] = undirected.get(key, 0) + 1
            if undirected[key] > 2:
                return f"non-manifold edge ({key[0]}, {key[1]})"
    return None


def reference_designs(mesh):
    """Reference: the per-vertex loop that mesh_diagram replaced, up to its
    fit.  Yields the design A and right side z of each interior vertex in
    vertex order, or None for a 2-ring of fewer than 5 vertices."""
    V, nv = mesh.vertices, len(mesh.vertices)
    neighbors = [set() for _ in range(nv)]
    edges = {}
    for a, b, c in mesh.faces:
        neighbors[a].update((b, c))
        neighbors[b].update((a, c))
        neighbors[c].update((a, b))
        for u, v in ((a, b), (b, c), (c, a)):
            edges[min(u, v), max(u, v)] = edges.get((min(u, v), max(u, v)), 0) + 1
    boundary = {w for key, count in edges.items() if count == 1 for w in key}
    normals = _vertex_normals(mesh)
    for vi in sorted(set(range(nv)) - boundary):
        ring = set(neighbors[vi])
        for w in list(ring):
            ring.update(neighbors[w])
        ring.discard(vi)
        ring = np.fromiter(ring, dtype=int)
        if ring.size < 5:
            yield None
            continue
        n = normals[vi]
        ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = np.cross(n, ref)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        d = V[ring] - V[vi]
        x, y = d @ e1, d @ e2
        yield np.column_stack([x, y, 0.5 * x * x, x * y, 0.5 * y * y]), d @ n


def per_vertex_coefficients(mesh):
    """Reference: the per-vertex SVD condition test and lstsq fit that
    mesh_diagram replaced.  Returns the jet (p, q, r, s, t) of each fitted
    vertex in vertex order, one row each, and the number of interior
    vertices skipped as degenerate."""
    fits, skipped = [], 0
    for design in reference_designs(mesh):
        if design is None:
            skipped += 1
            continue
        A, z = design
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] <= 0.0 or sv[0] / sv[-1] > FIT_COND_LIMIT:
            skipped += 1
            continue
        fits.append(np.linalg.lstsq(A, z, rcond=None)[0])
    return np.array(fits).reshape(-1, 5), skipped


def per_vertex_fits(mesh):
    """(H, K) of each `per_vertex_coefficients` fit, one row each, and the
    number of vertices skipped."""
    coef, skipped = per_vertex_coefficients(mesh)
    return np.column_stack(mean_gauss(*coef.T)), skipped


FIT_MESHES = [make_icosphere(1.7, 3), quadric_graph_mesh(21, 2.0, -0.5),
              make_cylinder_mesh(nth=24, nz=8), perturbed_icosphere(), make_icosphere(2.0, 4),
              make_icosphere(2.0, 5), condition_straddle_mesh()]


def design_conditions(mesh) -> np.ndarray:
    """cond_2 of each interior design of at least 5 rows, in vertex order."""
    sv = [np.linalg.svd(A, compute_uv=False) for A, _ in filter(None, reference_designs(mesh))]
    return np.array([s[0] / s[-1] for s in sv])


class TestBatchedFits:
    def test_quadric_graph_over_several_blocks(self):
        a, b = 1.2, -0.7
        mesh = quadric_graph_mesh(49, a, b)
        d = mesh_diagram(mesh)
        assert d.notes["skipped_degenerate"] == 0
        assert len(d) == 47 * 47 > 2 * FIT_BLOCK
        grid = mesh.vertices[:, :2].reshape(49, 49, 2)[1:-1, 1:-1].reshape(-1, 2)
        H, K = mean_gauss(a * grid[:, 0], b * grid[:, 1], a, 0.0, b)
        root = np.sqrt(H * H - K)
        err = np.max(np.abs(d.samples - np.column_stack([H + root, H - root])), axis=1)
        err = err.reshape(47, 47)
        # full 2-rings fit to O(h^2); rings cut by the boundary to O(h)
        assert err[1:-1, 1:-1].max() < 2e-4
        assert err.max() < 2e-2
        # the vertex at the origin sees the quadric's own curvatures
        np.testing.assert_allclose(d.samples[47 * 23 + 23], [a, b], rtol=1e-4)

    # H and K of the fits; the pairs are held to the fits' shape operator in
    # the next test, since at an umbilic H +- sqrt(H^2 - K) turns differences
    # of 1e-14 in H and K into 1e-8 in k1 and k2
    @pytest.mark.parametrize("mesh", FIT_MESHES)
    def test_agrees_with_the_per_vertex_loop(self, mesh):
        d = mesh_diagram(mesh)
        fits, skipped = per_vertex_fits(mesh)
        H, K = fits.T
        assert d.notes["skipped_degenerate"] == skipped
        scale = H * H + np.abs(K)
        np.testing.assert_allclose(d.samples.mean(axis=1), H, rtol=1e-12, atol=0)
        assert np.max(np.abs(d.samples.prod(axis=1) - K) / scale) < 1e-12
        root = np.sqrt(np.maximum(H * H - K, 0.0))
        got, want = qc_classify(d), qc_classify(CurvatureDiagram(np.column_stack([H + root, H - root])))
        assert got.classification == want.classification
        assert got.gamma_star == pytest.approx(want.gamma_star, rel=1e-12, abs=0)

    @pytest.mark.parametrize("mesh", FIT_MESHES + [make_icosphere(1.3, 4)])
    def test_pairs_are_the_shape_operator_eigenvalues(self, mesh):
        coef, _ = per_vertex_coefficients(mesh)
        ref = shape_operator_pairs(*coef.T)
        err = np.max(np.abs(mesh_diagram(mesh).samples - ref), axis=1)
        assert np.max(err / np.max(np.abs(ref), axis=1)) < 1e-12

    def test_pairs_agree_off_the_umbilics(self):
        mesh = perturbed_icosphere()
        fits, _ = per_vertex_fits(mesh)
        H, K = fits.T
        root = np.sqrt(np.maximum(H * H - K, 0.0))
        ref = np.column_stack([H + root, H - root])
        assert np.max(np.abs(mesh_diagram(mesh).samples - ref)) / np.max(np.abs(ref)) < 1e-12

    def test_condition_limit_straddle(self, monkeypatch):
        mesh = condition_straddle_mesh()
        conds = design_conditions(mesh)
        limit = FIT_COND_LIMIT
        assert np.count_nonzero(conds > limit) and np.count_nonzero(conds <= limit / 5)
        assert np.count_nonzero((conds > limit / 5) & (conds <= limit)) >= 20
        exact = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            out = svd(a, *args, **kwargs)
            exact.append(out[:, 0] / out[:, -1])
            return out

        monkeypatch.setattr(np.linalg, "svd", spy)
        d = mesh_diagram(mesh)
        monkeypatch.undo()
        # the exact test saw fits on both sides of the limit; the bound cleared the rest
        exact = np.concatenate(exact)
        assert np.count_nonzero(exact <= limit) and np.count_nonzero(exact > limit)
        assert exact.size < conds.size
        assert d.notes["skipped_degenerate"] == np.count_nonzero(conds > limit)
        assert len(d) == np.count_nonzero(conds <= limit)

    def test_small_and_collinear_rings_are_counted(self):
        grid = make_flat_mesh(12)
        # a closed tetrahedron: every 2-ring has 3 vertices
        tet_v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float) + 5.0
        tet_f = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
        # a 5 x 5 grid squeezed to width 1e-10: its 9 interior rings are collinear
        thin = make_flat_mesh(5)
        thin_v = thin.vertices * [1.0, 1e-10, 1.0] + [0.0, 10.0, 0.0]
        V = np.vstack([grid.vertices, tet_v, thin_v])
        F = np.vstack([grid.faces, tet_f + 144, thin.faces + 148])
        d = mesh_diagram(TriMesh(V, F))
        assert d.notes["skipped_boundary"] == (4 * 12 - 4) + (4 * 5 - 4)
        assert d.notes["skipped_degenerate"] == 4 + 9
        assert len(d) == 10 * 10

    def test_first_bad_edge_in_face_order(self):
        V = np.zeros((8, 3))
        # {0, 1} is on three faces; (2, 0) repeats a direction before (0, 1) does
        F = np.array([[0, 1, 2], [2, 1, 3], [1, 0, 4], [2, 0, 5], [0, 1, 6], [1, 2, 7]])
        assert face_order_topology_error(F) == ("inconsistent orientation at edge (3, 1), "
                                                "vertices numbered from 1 as in OBJ")
        with pytest.raises(MeshError, match=r"^inconsistent orientation at edge \(3, 1\), "
                                            r"vertices numbered from 1 as in OBJ$"):
            mesh_diagram(TriMesh(V, F))

    def test_topology_errors_match_the_face_order_loop(self, rng):
        for _ in range(200):
            F = np.array([rng.choice(7, 3, replace=False) for _ in range(rng.integers(2, 12))])
            expected = face_order_topology_error(F)
            if expected is None:
                continue
            with pytest.raises(MeshError) as info:
                mesh_diagram(TriMesh(rng.normal(size=(7, 3)), F))
            assert str(info.value) == expected


def test_report_json():
    rep = QCReport("negative_branch", -1.5, 0.3, (-2.0, -0.5))
    blob = report_json(rep)
    assert blob["classification"] == "negative_branch"
    assert blob["wedge_slopes"] == [-2.0, -0.5]
