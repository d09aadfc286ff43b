"""The cut-only assembly against the all-active pass it replaces.

``AssemblyContext.assemble`` clips and streams only the cut elements and
takes the INSIDE elements' contributions from values precomputed once; the
result must be bitwise that of one stream pass over every active element.
"""

import numpy as np
import pytest

from cutrom import AssemblyContext, LevelSetSquare, build_background_mesh, \
    build_face_table, classify_elements, square_poisson
from cutrom.levelset import CUT, cut_candidates, snap_values, \
    subset_geometry
from cutrom.pipeline import CENTER
from oracles import all_active_assemble, bitwise_equal, reduced_snap_values, \
    reference_subset_geometry

# the grid-aligned mu = 0.5 (exact zero vertex values at h = 0.2, which
# count as outside), the seed-310 training mu, and three seeded random values
GRID_MUS = (0.4, 0.4034487, 0.45, 0.4805, 0.5,
            *np.random.default_rng(11).uniform(0.4, 0.5, 3).tolist())


def _assert_bitwise_all_active(ctx, mus):
    mesh, ft = ctx.mesh, ctx.face_table
    for mu in mus:
        geom = classify_elements(mesh, ft, LevelSetSquare(mu, CENTER))
        ops = ctx.assemble(geom)
        ref = all_active_assemble(ctx, geom)
        for got, comp in ((ops.a_values, "A"), (ops.m_values, "M"),
                          (ops.b, "b"), (ops.c, "c")):
            assert bitwise_equal(got, ref[comp]), (comp, mu)
        assert np.array_equal(
            ops.active_dofs, np.unique(mesh.elements[geom.active_elements]))


def test_cut_only_assembly_is_the_all_active_pass(default_problem):
    (_, _, _, ctx, _), _ = default_problem
    _assert_bitwise_all_active(ctx, GRID_MUS)


def test_cut_only_assembly_is_the_all_active_pass_coarse(coarse_problem):
    ctx = coarse_problem["ctx"]
    mesh = ctx.mesh
    # at h = 0.2 the square at mu = 0.5 sits on mesh lines, so cut
    # elements have exact zero vertex values, whose crossings give
    # sub-triangles and chords of zero weight
    geom = classify_elements(mesh, ctx.face_table, LevelSetSquare(0.5, CENTER))
    vals = snap_values(geom.levelset(mesh.vertices)[mesh.elements])
    assert np.any(vals[geom.classification == CUT] == 0.0)
    _assert_bitwise_all_active(ctx, GRID_MUS)


def test_assembly_with_no_cut_element():
    # every element INSIDE: the assembly is the cached values alone
    mesh = build_background_mesh((0.0, 0.0), (1.0, 1.0), 0.34)
    ctx = AssemblyContext(mesh, build_face_table(mesh), square_poisson())
    _assert_bitwise_all_active(ctx, (10.0,))


def _nonzero_nodes(parent, points, weights, *more):
    """The nodes of nonzero weight, sorted by parent, then point and
    weight: the scalar clipper keeps no zero-weight node and walks an
    element's vertices in their own order."""
    keep = weights != 0.0
    parent, points, weights = parent[keep], points[keep], weights[keep]
    order = np.lexsort((weights, points[:, 1], points[:, 0], parent))
    return [a[order] for a in (parent, points, weights,
                               *(m[keep] for m in more))]


def _assert_same_nodes(got, ref, names, mu):
    """Bitwise the same nodes: in the same order where ``got`` has no
    zero-weight node, else the same nonzero-weight nodes per element."""
    got_cols = [getattr(got, name) for name in names]
    ref_cols = [getattr(ref, name) for name in names]
    if np.all(got_cols[2] != 0.0):
        pairs = zip(got_cols, ref_cols)
    else:
        pairs = zip(_nonzero_nodes(*got_cols), _nonzero_nodes(*ref_cols))
    for name, (a, b) in zip(names, pairs):
        assert bitwise_equal(a, b), (mu, name)


def _assert_subset_geometry_is_the_reference(mesh):
    cand = np.flatnonzero(cut_candidates(mesh, 0.4, 0.5, CENTER))
    subsets = (np.arange(mesh.n_elements), cand, cand[::7])
    interior = ("iq_parent", "iq_points", "iq_weights")
    boundary = ("bq_parent", "bq_points", "bq_weights", "bq_normals")
    for mu in GRID_MUS:
        ls = LevelSetSquare(mu, CENTER)
        for elems in subsets:
            got = subset_geometry(mesh, ls, elems)
            ref = reference_subset_geometry(mesh, ls, elems)
            assert np.array_equal(got.elems, ref.elems)
            assert np.array_equal(got.classification, ref.classification)
            assert bitwise_equal(got.clipped_area, ref.clipped_area), mu
            _assert_same_nodes(got, ref, interior, mu)
            _assert_same_nodes(got, ref, boundary, mu)
            # without the interior rule the rest is unchanged
            bare = subset_geometry(mesh, ls, elems, interior=False)
            assert bare.iq_parent.size == bare.iq_weights.size == 0
            assert bitwise_equal(bare.clipped_area, ref.clipped_area), mu
            _assert_same_nodes(bare, ref, boundary, mu)


def test_subset_geometry_is_the_reference(default_problem):
    (mesh, *_), _ = default_problem
    _assert_subset_geometry_is_the_reference(mesh)


def test_subset_geometry_is_the_reference_coarse(coarse_problem):
    _assert_subset_geometry_is_the_reference(coarse_problem["mesh"])


@pytest.mark.parametrize("scale", [1e-14, 1.0, 3.0, 1e6])
def test_snap_values_matches_the_reduction_form(scale):
    rng = np.random.default_rng(4)
    vals = scale * rng.standard_normal((4000, 3))
    # values at the snap threshold, signed zeros, ties of the local scale
    vals[::7, 0] = 1e-12 * np.abs(vals[::7, 1])
    vals[::11, 1] = -0.0
    vals[::13, 2] = 0.0
    vals[::17] = vals[::17, :1]
    vals[::19, 2] = -1e-12 * scale
    got = snap_values(vals)
    assert bitwise_equal(got, reduced_snap_values(vals))
    assert bitwise_equal(snap_values(vals[5]), reduced_snap_values(vals[5]))


def test_snap_values_matches_the_reduction_form_on_mesh_values(
        coarse_problem, bench_mesh):
    for mesh in (coarse_problem["mesh"], bench_mesh):
        for mu in GRID_MUS:
            raw = LevelSetSquare(mu, CENTER)(mesh.vertices)[mesh.elements]
            assert bitwise_equal(snap_values(raw), reduced_snap_values(raw))
