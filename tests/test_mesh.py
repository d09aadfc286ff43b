import numpy as np
import pytest

from cutrom import build_background_mesh, build_face_table
from cutrom.mesh import element_areas, p1_gradients, vertex_to_elements


def test_unit_box_single_cell():
    mesh = build_background_mesh((0.0, 0.0), (1.0, 1.0), 1.0)
    assert mesh.n_cells == (1, 1)
    assert mesh.n_elements == 2
    assert mesh.dof_count == 4


def test_unit_box_half_h():
    mesh = build_background_mesh((0.0, 0.0), (1.0, 1.0), 0.5)
    assert mesh.n_cells == (2, 2)
    assert mesh.n_elements == 8
    assert mesh.dof_count == 9


def test_benchmark_box_counts(bench_mesh):
    # ceil(2.6 / 0.09) = 29 cells per side
    assert bench_mesh.n_cells == (29, 29)
    assert bench_mesh.n_elements == 1682
    assert bench_mesh.dof_count == 900
    side = 2.6 / 29
    assert bench_mesh.h == pytest.approx(np.hypot(side, side))


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_background_mesh((0, 0), (1, 1), 0.0)
    with pytest.raises(ValueError):
        build_background_mesh((0, 0), (1, 1), -0.1)
    with pytest.raises(ValueError):
        build_background_mesh((1, 0), (0, 1), 0.5)


def test_elements_tile_box(bench_mesh):
    areas = element_areas(bench_mesh)
    assert np.all(areas > 0.0)
    assert np.all(bench_mesh.elements >= 0)
    assert np.all(bench_mesh.elements < bench_mesh.dof_count)
    box_area = 2.6 * 2.6
    assert abs(areas.sum() - box_area) <= 1e-12 * box_area


def test_deterministic_construction():
    a = build_background_mesh((-0.3, -0.3), (2.3, 2.3), 0.09)
    b = build_background_mesh((-0.3, -0.3), (2.3, 2.3), 0.09)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.elements, b.elements)


def test_face_table_single_cell():
    mesh = build_background_mesh((0.0, 0.0), (1.0, 1.0), 1.0)
    ft = build_face_table(mesh)
    assert ft.n_faces == 5
    assert int((ft.face_right >= 0).sum()) == 1


def test_face_table_two_by_two():
    mesh = build_background_mesh((0.0, 0.0), (1.0, 1.0), 0.5)
    ft = build_face_table(mesh)
    assert ft.n_faces == 16
    assert int((ft.face_right >= 0).sum()) == 8


@pytest.mark.parametrize("h", [1.0, 0.5, 1 / 6, 0.3])
def test_face_numbering_is_first_appearance(h):
    # facet ids fix the order in which ghost terms accumulate
    mesh = build_background_mesh((0.0, 0.0), (1.0, 1.0), h)
    index, faces, left, right = {}, [], [], []
    e2f = np.empty((mesh.n_elements, 3), dtype=np.int64)
    for e, (a, b, c) in enumerate(mesh.elements):
        for k, edge in enumerate(((a, b), (b, c), (c, a))):
            key = (min(edge), max(edge))
            if key not in index:
                index[key] = len(faces)
                faces.append(key)
                left.append(e)
                right.append(-1)
            else:
                right[index[key]] = e
            e2f[e, k] = index[key]
    ft = build_face_table(mesh)
    assert np.array_equal(ft.faces, faces)
    assert np.array_equal(ft.face_left, left)
    assert np.array_equal(ft.face_right, right)
    assert np.array_equal(ft.element_to_faces, e2f)


def test_face_handshake_identity(bench_mesh, bench_faces):
    incidences = (bench_faces.face_right >= 0).sum() + bench_faces.n_faces
    assert incidences == 3 * bench_mesh.n_elements
    assert np.all(bench_faces.face_left != bench_faces.face_right)


def test_interior_faces_share_exactly_their_vertices(bench_mesh, bench_faces):
    inter = np.flatnonzero(bench_faces.face_right >= 0)
    for f in inter[::97]:
        left = set(bench_mesh.elements[bench_faces.face_left[f]])
        right = set(bench_mesh.elements[bench_faces.face_right[f]])
        assert left & right == set(bench_faces.faces[f])


def test_element_to_faces_consistent(bench_mesh, bench_faces):
    for e in range(0, bench_mesh.n_elements, 211):
        dofs = set(bench_mesh.elements[e])
        for f in bench_faces.element_to_faces[e]:
            assert set(bench_faces.faces[f]) <= dofs


def test_p1_gradients_partition_of_unity(bench_mesh):
    grads = p1_gradients(bench_mesh)
    assert np.abs(grads.sum(axis=1)).max() < 1e-12
    # gradient of hat i dotted with edge to vertex i equals 1
    coords = bench_mesh.element_coords()
    for i in range(3):
        other = coords[:, (i + 1) % 3]
        delta = coords[:, i] - other
        val = np.einsum("ed,ed->e", grads[:, i], delta)
        assert np.allclose(val, 1.0, atol=1e-12)


def test_vertex_to_elements_roundtrip(bench_mesh):
    indptr, elems = vertex_to_elements(bench_mesh)
    for v in range(0, bench_mesh.dof_count, 83):
        incident = elems[indptr[v]:indptr[v + 1]]
        assert np.all(np.any(bench_mesh.elements[incident] == v, axis=1))
        expected = np.flatnonzero(np.any(bench_mesh.elements == v, axis=1))
        assert np.array_equal(np.sort(incident), expected)
