import numpy as np
import pytest
import scipy.sparse as sp

from cutrom import ParametricOperators, RunConfig, assemble_kkt, \
    assemble_operators, solve_kkt
from cutrom.kkt import RESIDUAL_TOL
from cutrom.pipeline import CENTER, build_problem
from cutrom.errors import NumericalError
from oracles import bitwise_equal, cost_value, real_condensed_solve, \
    sliced_condensed


def _toy_ops(n=1, b=0.0, c=0.0, active=None):
    eye = sp.identity(n, format="csr")
    active = np.arange(n) if active is None else np.asarray(active)
    return ParametricOperators(mu=0.0, A=eye.copy(), M=eye.copy(),
                               b=np.full(n, b), c=np.full(n, c),
                               active_dofs=active,
                               a_values=np.ones(n), m_values=np.ones(n))


def test_identity_zero_rhs():
    sol = solve_kkt(assemble_kkt(_toy_ops(3), alpha=1.0))
    assert np.all(sol.y == 0) and np.all(sol.u == 0) and np.all(sol.p == 0)


def test_hand_solved_scalar_system():
    # rows give y + p = 1, u - p = 0, y - u = 0  ->  y = u = p = 1/2
    sol = solve_kkt(assemble_kkt(_toy_ops(1, b=1.0, c=0.0), alpha=1.0))
    assert sol.y[0] == pytest.approx(0.5, abs=1e-14)
    assert sol.u[0] == pytest.approx(0.5, abs=1e-14)
    assert sol.p[0] == pytest.approx(0.5, abs=1e-14)


def test_inactive_dofs_pinned_to_zero():
    n = 4
    eye = sp.identity(n, format="csr").tolil()
    for k in (1, 3):
        eye[k, k] = 0.0
    ops = ParametricOperators(mu=0.0, A=eye.tocsr(), M=eye.tocsr(),
                              b=np.array([1.0, 0, 2.0, 0]),
                              c=np.zeros(n), active_dofs=np.array([0, 2]),
                              a_values=np.zeros(1), m_values=np.zeros(1))
    sol = solve_kkt(assemble_kkt(ops, alpha=1.0))
    for k in (1, 3):
        assert sol.y[k] == 0.0 and sol.u[k] == 0.0 and sol.p[k] == 0.0
    assert sol.y[0] == pytest.approx(0.5)


def test_dimension_mismatch():
    ops = _toy_ops(2)
    ops.b = np.zeros(3)
    with pytest.raises(ValueError):
        assemble_kkt(ops, alpha=1.0)


@pytest.fixture(scope="module")
def solved(coarse_problem):
    ctx = coarse_problem["ctx"]
    alpha = coarse_problem["case"].alpha
    out = []
    rng = np.random.default_rng(5)
    for mu in rng.uniform(0.4, 0.5, 6):
        ops = assemble_operators(ctx, float(mu))
        system = assemble_kkt(ops, alpha)
        out.append((ops, system, solve_kkt(system)))
    return out


def test_residual_and_optimality(solved):
    for ops, system, sol in solved:
        x = sol.stacked()
        res = np.linalg.norm(system.matrix @ x - system.rhs) \
            / np.linalg.norm(system.rhs)
        assert res <= 1e-9
        alpha = 1e-4
        gap = np.linalg.norm(alpha * (ops.M @ sol.u) - ops.M @ sol.p)
        scale = np.linalg.norm(ops.M @ sol.u) + np.linalg.norm(ops.M @ sol.p)
        assert gap <= 1e-8 * (scale + 1e-30)
        # u = p / alpha on the active set
        assert np.allclose(sol.u[ops.active_dofs],
                           sol.p[ops.active_dofs] / alpha,
                           rtol=1e-8, atol=1e-12)


def test_solve_time_recorded(solved):
    assert all(sol.solve_time > 0 for _, _, sol in solved)


def test_large_alpha_approaches_uncontrolled_state(coarse_problem):
    ctx = coarse_problem["ctx"]
    ops = assemble_operators(ctx, 0.44)
    sol = solve_kkt(assemble_kkt(ops, alpha=1e6))
    m_norm_u = np.sqrt(sol.u @ (ops.M @ sol.u))
    assert m_norm_u <= 1e-5

    # oracle: state equation with the control switched off
    n = ops.A.shape[0]
    mask = np.ones(n, dtype=bool)
    mask[ops.active_dofs] = False
    reg = (ops.A + sp.diags(mask.astype(float))).tocsc()
    y_unc = sp.linalg.spsolve(reg, ops.c)
    denom = np.linalg.norm(y_unc)
    assert np.linalg.norm(sol.y - y_unc) <= 1e-4 * denom


def test_control_norm_decreases_with_alpha(coarse_problem):
    ctx = coarse_problem["ctx"]
    ops = assemble_operators(ctx, 0.46)
    norms = []
    for alpha in (1e-4, 1e-2, 1.0):
        sol = solve_kkt(assemble_kkt(ops, alpha))
        norms.append(np.sqrt(sol.u @ (ops.M @ sol.u)))
    assert norms[0] > norms[1] > norms[2]


def test_cost_self_consistency(coarse_problem):
    ctx = coarse_problem["ctx"]
    ops = assemble_operators(ctx, 0.43)
    sol_a = solve_kkt(assemble_kkt(ops, alpha=1e-4))
    sol_b = solve_kkt(assemble_kkt(ops, alpha=1e-2))
    j_at_own = cost_value(ops, sol_a.y, sol_a.u, 1e-4)
    j_at_other = cost_value(ops, sol_b.y, sol_b.u, 1e-4)
    assert j_at_own <= j_at_other + 1e-14


def test_symmetric_data_gives_symmetric_solution(bench_mesh, bench_faces):
    # point reflection through (1, 1) maps the mesh onto itself; with data
    # invariant under it the solution fields inherit the symmetry
    from cutrom import AssemblyContext, ProblemCase

    case = ProblemCase(
        name="symmetric",
        f=lambda p: (p[:, 0] - 1) * (p[:, 1] - 1) + 1.0,
        y_d=lambda p: np.ones(p.shape[0]),
        g_D=None, alpha=1e-4, gamma_D=10.0, gamma_1=0.1)
    ctx = AssemblyContext(bench_mesh, bench_faces, case)
    ops = assemble_operators(ctx, 0.457)
    sol = solve_kkt(assemble_kkt(ops, ctx.case.alpha))

    nx, ny = bench_mesh.n_cells
    ix = np.arange(bench_mesh.dof_count) % (nx + 1)
    iy = np.arange(bench_mesh.dof_count) // (nx + 1)
    perm = (ny - iy) * (nx + 1) + (nx - ix)
    assert np.allclose(bench_mesh.vertices[perm],
                       2.0 - bench_mesh.vertices, atol=1e-12)
    for field in (sol.y, sol.u, sol.p):
        scale = np.abs(field).max()
        assert np.abs(field[perm] - field).max() <= 1e-8 * scale


def test_boundary_aligned_with_grid_is_solvable(coarse_problem):
    # at h = 0.2 the square of half side 0.5 lies exactly on mesh lines:
    # the zero-vertex cut elements carry active DOFs with empty mass rows,
    # whose free control components must be pinned rather than blow up
    ctx = coarse_problem["ctx"]
    ops = assemble_operators(ctx, 0.5)
    diag = ops.M.diagonal()
    assert np.any(diag[ops.active_dofs] == 0.0)
    sol = solve_kkt(assemble_kkt(ops, 1e-4))
    free = ops.active_dofs[diag[ops.active_dofs] == 0.0]
    assert np.all(sol.u[free] == 0.0)


def test_deterministic_solve(coarse_problem):
    ctx = coarse_problem["ctx"]
    ops = assemble_operators(ctx, 0.472)
    a = solve_kkt(assemble_kkt(ops, 1e-4))
    b = solve_kkt(assemble_kkt(ops, 1e-4))
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.p, b.p)


def test_near_empty_mass_row_gives_bounded_control():
    # at the default resolution this mu puts an active mass diagonal near
    # 1e-24; an LU of the pinned 3N system gives max|u| of about 2e9 here
    cfg = RunConfig()
    ctx = build_problem(cfg)[3]
    ops = assemble_operators(ctx, 0.4034487, CENTER)
    sol = solve_kkt(assemble_kkt(ops, cfg.alpha))
    assert np.all(np.isfinite(sol.u))
    assert np.abs(sol.u).max() <= 100.0


def test_control_is_scaled_adjoint_bitwise(solved, coarse_problem):
    alpha = coarse_problem["case"].alpha
    for ops, _, sol in solved:
        active = ops.active_dofs[ops.M.diagonal()[ops.active_dofs] != 0.0]
        assert np.array_equal(sol.u[active], sol.p[active] / alpha)


def test_pinned_3n_system_is_solved(solved):
    for _, system, sol in solved:
        n = system.n
        assert system.matrix.shape == (3 * n, 3 * n)
        assert system.rhs.shape == (3 * n,)
        res = np.linalg.norm(system.matrix @ sol.stacked() - system.rhs) \
            / np.linalg.norm(system.rhs)
        assert res <= 1e-12
        # the block-row check agrees with the oracle up to rounding
        assert abs(sol.residual - res) <= 1e-13


def test_residual_recorded(solved):
    assert all(0.0 <= sol.residual <= RESIDUAL_TOL for _, _, sol in solved)


def _assert_same_csc(new, old):
    assert new.format == "csc" and new.has_canonical_format
    assert new.dtype == np.complex128
    old = old.copy()
    old.sum_duplicates()  # canonical order; explicit zeros are kept
    assert new.shape == old.shape
    assert np.array_equal(new.indptr, old.indptr)
    assert np.array_equal(new.indices, old.indices)
    # signed zeros of the real part may differ
    assert np.array_equal(new.data.real, old.data.real)
    assert bitwise_equal(new.data.imag, old.data.imag)


def test_condensed_matrix_matches_block_build(default_problem):
    # the direct build equals M_aa + i sqrt(alpha) A_aa built by slicing,
    # explicit zeros (pattern entries of elements outside the domain)
    # included
    (_, _, case, ctx, _), mus = default_problem
    zeros = 0
    for mu in (*mus, 0.4805):
        ops = assemble_operators(ctx, mu, CENTER)
        K = assemble_kkt(ops, case.alpha).condensed
        _assert_same_csc(K, sliced_condensed(ops, case.alpha))
        zeros += np.count_nonzero(K.data == 0.0)
    assert zeros > 0


def test_condensed_matrix_of_hand_built_operators():
    # DOF 1 inactive; an explicit zero at (0, 2) and an entry at (0, 1)
    # that leaves with the inactive column
    n = 4
    mat = sp.csr_matrix((np.array([1.0, 0.5, 0.0, 1.0, 1.0]),
                         np.array([0, 1, 2, 2, 3]),
                         np.array([0, 3, 3, 4, 5])), shape=(n, n))
    pinned = ParametricOperators(mu=0.0, A=mat, M=mat.copy(),
                                 b=np.zeros(n), c=np.zeros(n),
                                 active_dofs=np.array([0, 2, 3]),
                                 a_values=np.zeros(1), m_values=np.zeros(1))
    for ops in (_toy_ops(1), _toy_ops(3), pinned):
        for alpha in (1.0, 1e-4, 3.0):
            K = assemble_kkt(ops, alpha).condensed
            _assert_same_csc(K, sliced_condensed(ops, alpha))
    assert K.shape == (3, 3) and K.nnz == 4
    assert np.count_nonzero(K.data == 0.0) == 1


def test_condensed_system_is_complex_of_active_size(solved):
    for ops, system, _ in solved:
        na = ops.active_dofs.size
        assert system.condensed.shape == (na, na)
        assert system.condensed.dtype == np.complex128
        assert system.condensed_rhs.shape == (na,)
        assert system.condensed_rhs.dtype == np.complex128


def _assert_matches_real_solve(ops, alpha):
    sol = solve_kkt(assemble_kkt(ops, alpha))
    for new, old in zip((sol.y, sol.u, sol.p),
                        real_condensed_solve(ops, alpha)):
        assert np.abs(new - old).max() <= 1e-10 * np.abs(old).max()


def test_complex_solve_matches_real_condensed_solve(default_problem):
    # default config at h = 0.09 and h = 0.0225, the seed-310 mu included
    (_, _, case, ctx, _), mus = default_problem
    assert 0.4034487 in mus
    for mu in mus:
        _assert_matches_real_solve(assemble_operators(ctx, mu, CENTER),
                                   case.alpha)


def test_complex_solve_matches_real_condensed_solve_coarse(coarse_problem):
    # mu = 0.5 lies on mesh lines at h = 0.2: free controls
    ctx, alpha = coarse_problem["ctx"], coarse_problem["case"].alpha
    for mu in (0.4, 0.4034487, 0.45, 0.5):
        _assert_matches_real_solve(assemble_operators(ctx, mu, CENTER),
                                   alpha)


@pytest.mark.parametrize("alpha", [0.0, -1e-4, float("nan"), float("inf")])
def test_bad_alpha_rejected(alpha):
    with pytest.raises(ValueError, match="alpha"):
        assemble_kkt(_toy_ops(2), alpha)


def test_nonsymmetric_stiffness_fails_loudly():
    # the complex system assumes A = A^T; the 3N residual check, which
    # uses A^T, catches a stiffness matrix that is not
    A = sp.csr_matrix(np.array([[2.0, 0.5], [0.0, 2.0]]))
    ops = ParametricOperators(mu=0.0, A=A, M=sp.identity(2, format="csr"),
                              b=np.ones(2), c=np.ones(2),
                              active_dofs=np.arange(2),
                              a_values=np.zeros(1), m_values=np.zeros(1))
    with pytest.raises(NumericalError, match="residual"):
        solve_kkt(assemble_kkt(ops, alpha=1.0))
