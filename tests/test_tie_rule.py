"""One state per mu at the mesh-aligned parameters.

A parameter is mesh-aligned when a side of the square passes through mesh
vertices; their level-set values snap to zero there, and a zero counts as
outside.  The state at such a mu, and at every mu within the snap distance
above it, is then the limit from below.
"""

import numpy as np

from cutrom import LevelSetSquare, assemble_kkt, classify_elements, \
    relative_error, rom_solve, solve_kkt
from cutrom.pipeline import CENTER
from oracles import mesh_aligned_mus

BELOW = 1e-12     # off the mesh line, on the side of the limit from below
IN_SNAP = 3e-13   # above the mesh line, within the snap distance


def _truth(ctx, geom, alpha):
    return solve_kkt(assemble_kkt(ctx.assemble(geom), alpha))


def test_mesh_aligned_mu_takes_the_state_from_below(default_problem):
    (mesh, ft, case, ctx, _), _ = default_problem
    aligned = mesh_aligned_mus(mesh)
    assert len(aligned) == {29: 2, 116: 5}[mesh.n_cells[0]]
    for mu in aligned:
        below = classify_elements(mesh, ft, LevelSetSquare(mu - BELOW, CENTER))
        at = classify_elements(mesh, ft, LevelSetSquare(mu, CENTER))
        for geom in (at, classify_elements(
                mesh, ft, LevelSetSquare(mu + IN_SNAP, CENTER))):
            assert np.array_equal(geom.classification, below.classification)
            assert np.array_equal(geom.cut_elements, below.cut_elements)
            assert np.array_equal(geom.ghost_facets, below.ghost_facets)
        sol, ref = _truth(ctx, at, case.alpha), _truth(ctx, below, case.alpha)
        for new, old in zip((sol.y, sol.u, sol.p), (ref.y, ref.u, ref.p)):
            assert np.abs(new - old).max() <= 1e-10 * np.abs(old).max(), mu


def test_rom_error_at_mesh_aligned_mu(paper_rom):
    ctx, rom = paper_rom
    for mu in mesh_aligned_mus(ctx.mesh):
        errs = []
        for m in (mu, mu - BELOW):
            ops = ctx.assemble(classify_elements(
                ctx.mesh, ctx.face_table, LevelSetSquare(m, CENTER)))
            full = solve_kkt(assemble_kkt(ops, rom.alpha))
            errs.append(relative_error(full, rom_solve(rom, m), ops.M)[0])
        assert np.all(errs[0] <= 2.0 * errs[1]), (mu, errs)


def test_no_active_dof_has_an_empty_mass_row(default_problem, coarse_problem):
    # random mu and every mesh-aligned one, on it and just off it, within
    # the range of the context
    offsets = (0.0, -1e-10, 1e-10, -BELOW, BELOW, -IN_SNAP, IN_SNAP)
    for ctx in (coarse_problem["ctx"], default_problem[0][3]):
        mus = [*np.random.default_rng(3).uniform(0.4, 0.5, 10),
               *(mu + d for mu in mesh_aligned_mus(ctx.mesh) for d in offsets)]
        for mu in (mu for mu in mus if 0.4 <= mu <= 0.5):
            ops = ctx.assemble(classify_elements(
                ctx.mesh, ctx.face_table, LevelSetSquare(mu, CENTER)))
            assert np.all(ops.M.diagonal()[ops.active_dofs] > 0.0), mu
