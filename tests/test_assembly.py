import numpy as np
import pytest
import scipy.sparse as sp

from cutrom import AssemblyContext, LevelSetSquare, ProblemCase, \
    assemble_operators, box_mass_matrix, build_background_mesh, \
    build_face_table, classify_elements, square_poisson
from cutrom.errors import PatternOverflowError
from cutrom.pipeline import CENTER
from oracles import bitwise_equal, coo_assemble


def _constant_case(f=0.0, y_d=0.0, g_D=None, **kw):
    params = dict(alpha=1e-4, gamma_D=10.0, gamma_1=0.1)
    params.update(kw)
    return ProblemCase(
        name="test", f=lambda p: np.full(p.shape[0], f),
        y_d=lambda p: np.full(p.shape[0], y_d),
        g_D=None if g_D is None else (lambda p: np.full(p.shape[0], g_D)),
        **params)


@pytest.fixture(scope="module")
def assembled(coarse_problem):
    ctx = coarse_problem["ctx"]
    ops = assemble_operators(ctx, 0.45)
    return ctx, ops


def test_matrix_symmetry(assembled):
    _, ops = assembled
    for mat in (ops.A, ops.M):
        scale = np.abs(mat.data).max()
        assert np.abs(mat - mat.T).max() <= 1e-12 * scale


def test_mass_partition_of_unity(assembled, coarse_problem):
    _, ops = assembled
    mesh = coarse_problem["mesh"]
    ft = coarse_problem["face_table"]
    one = np.ones(mesh.dof_count)
    geom = classify_elements(mesh, ft, LevelSetSquare(0.45))
    assert one @ (ops.M @ one) == pytest.approx(geom.interior_weight_sum,
                                                rel=1e-12)
    assert np.all(ops.M.data >= -1e-15)


def test_mass_total_at_benchmark_resolution(bench_mesh, bench_faces):
    ctx = AssemblyContext(bench_mesh, bench_faces, square_poisson())
    ops = assemble_operators(ctx, 0.45)
    one = np.ones(bench_mesh.dof_count)
    exact = 4 * 0.45 ** 2
    assert abs(one @ (ops.M @ one) - exact) <= 0.02 * exact


def test_mass_positive_semidefinite(assembled, rng):
    _, ops = assembled
    for _ in range(10):
        v = rng.standard_normal(ops.M.shape[0])
        assert v @ (ops.M @ v) >= -1e-12


def test_ghost_term_vanishes_on_constants(coarse_problem):
    # the gradient-jump of any constant is zero: each facet block
    # annihilates the all-ones vector over its six local DOFs
    ctx = coarse_problem["ctx"]
    ones6 = np.ones(6)
    faces = np.arange(ctx.face_table.faces.shape[0])
    residual = np.abs(ctx.ghost_blocks(faces) @ ones6).max()
    assert residual <= 1e-12


def test_uncut_configuration_is_plain_poisson():
    # a level-set so large that every element is interior: no Nitsche
    # segments, no ghost facets, so row sums of the stiffness vanish
    mesh = build_background_mesh((0.0, 0.0), (1.0, 1.0), 0.34)
    ft = build_face_table(mesh)
    case = square_poisson()
    ctx = AssemblyContext(mesh, ft, case)
    geom = classify_elements(mesh, ft, LevelSetSquare(10.0, center=(0.5, 0.5)))
    assert geom.cut_elements.size == 0
    A = ctx.assemble(geom).A
    assert np.abs(A @ np.ones(mesh.dof_count)).max() <= 1e-12


def _sympy_cut_unit_square(case):
    """Exact stiffness and Dirichlet-data vector for the unit-box mesh cut
    by the square of half side 0.5 centered at the origin.

    Both triangles are cut; the interpolant zero lines are x = 1/2 on the
    lower triangle and y = 1/2 on the upper one, and the diagonal is the
    single ghost facet.  Everything is integrated symbolically.
    """
    import sympy as spy

    x, y, t = spy.symbols("x y t")
    h = spy.sqrt(2)
    gd = spy.Rational(10)
    g1 = spy.Rational(1, 10)

    # global DOFs: 0 = (0,0), 1 = (1,0), 2 = (0,1), 3 = (1,1)
    hats_t1 = {0: 1 - x, 1: x - y, 3: y}
    hats_t2 = {0: 1 - y, 3: x, 2: y - x}
    grads = {name: (spy.diff(f, x), spy.diff(f, y))
             for name, f in [("t1_%d" % k, v) for k, v in hats_t1.items()]
             + [("t2_%d" % k, v) for k, v in hats_t2.items()]}

    A = spy.zeros(4, 4)
    c = spy.zeros(4, 1)

    # clipped areas: triangles ((0,0),(1/2,0),(1/2,1/2)) and mirrored
    area = spy.Rational(1, 8)
    for hats, tag in ((hats_t1, "t1"), (hats_t2, "t2")):
        for i, fi in hats.items():
            for j, fj in hats.items():
                gi = grads[f"{tag}_{i}"]
                gj = grads[f"{tag}_{j}"]
                A[i, j] += (gi[0] * gj[0] + gi[1] * gj[1]) * area

    # Nitsche terms on the two chords
    def nitsche(hats, tag, seg, normal):
        nonlocal A, c
        for i, fi in hats.items():
            fi_s = fi.subs(seg)
            dfi = grads[f"{tag}_{i}"][0] * normal[0] \
                + grads[f"{tag}_{i}"][1] * normal[1]
            for j, fj in hats.items():
                fj_s = fj.subs(seg)
                dfj = grads[f"{tag}_{j}"][0] * normal[0] \
                    + grads[f"{tag}_{j}"][1] * normal[1]
                term = gd / h * fi_s * fj_s - fi_s * dfj - dfi * fj_s
                A[i, j] += spy.integrate(term, (t, 0, spy.Rational(1, 2)))
            c[i] += spy.integrate(gd / h * fi_s + dfi,
                                  (t, 0, spy.Rational(1, 2)))

    nitsche(hats_t1, "t1", {x: spy.Rational(1, 2), y: t}, (1, 0))
    nitsche(hats_t2, "t2", {x: t, y: spy.Rational(1, 2)}, (0, 1))

    # ghost penalty on the diagonal: n = (1,-1)/sqrt(2), length sqrt(2)
    n = (1 / spy.sqrt(2), -spy.Rational(1) / spy.sqrt(2))
    dofs = [0, 1, 3, 0, 3, 2]
    jumps = []
    for k, i in enumerate(dofs):
        tag = "t1" if k < 3 else "t2"
        g = grads[f"{tag}_{i}"]
        sign = 1 if k < 3 else -1
        jumps.append(sign * (g[0] * n[0] + g[1] * n[1]))
    for a, ia in enumerate(dofs):
        for b, ib in enumerate(dofs):
            A[ia, ib] += g1 * h * spy.sqrt(2) * jumps[a] * jumps[b]

    return (np.array(A.evalf(17), dtype=float),
            np.array(c.evalf(17), dtype=float).ravel())


def test_cut_element_matches_symbolic_integration():
    mesh = build_background_mesh((0.0, 0.0), (1.0, 1.0), 1.0)
    ft = build_face_table(mesh)
    case = _constant_case(f=0.0, y_d=0.0, g_D=1.0)
    ctx = AssemblyContext(mesh, ft, case)
    geom = classify_elements(mesh, ft, LevelSetSquare(0.5, center=(0.0, 0.0)))
    assert geom.cut_elements.size == 2
    assert geom.ghost_facets.size == 1
    ops = ctx.assemble(geom)

    A_exact, c_exact = _sympy_cut_unit_square(case)
    assert np.abs(ops.A.toarray() - A_exact).max() <= 1e-12
    assert np.abs(ops.c - c_exact).max() <= 1e-12


def test_rhs_target_zero_and_mass_consistency(coarse_problem):
    mesh = coarse_problem["mesh"]
    ft = coarse_problem["face_table"]
    geom = classify_elements(mesh, ft, LevelSetSquare(0.45))
    zero = AssemblyContext(mesh, ft, _constant_case(y_d=0.0)).assemble(geom)
    assert np.all(zero.b == 0.0)
    unit = AssemblyContext(mesh, ft, _constant_case(y_d=1.0)).assemble(geom)
    assert np.allclose(unit.b, unit.M @ np.ones(mesh.dof_count), atol=1e-13)


def test_rhs_forcing_zero_and_unit(coarse_problem):
    mesh = coarse_problem["mesh"]
    ft = coarse_problem["face_table"]
    geom = classify_elements(mesh, ft, LevelSetSquare(0.45))
    zero = AssemblyContext(mesh, ft, _constant_case(f=0.0)).assemble(geom)
    assert np.all(zero.c == 0.0)
    unit = AssemblyContext(mesh, ft, _constant_case(f=1.0)).assemble(geom)
    assert np.allclose(unit.c, unit.M @ np.ones(mesh.dof_count), atol=1e-13)


def test_moment_sums_against_monte_carlo(bench_mesh, bench_faces):
    # sums of the moment vectors are integrals of y_d and f over the square;
    # the target integrates to zero by antisymmetry about x = 1, so its
    # check uses the Monte Carlo standard error instead of a relative bound
    case = square_poisson()
    ctx = AssemblyContext(bench_mesh, bench_faces, case)
    ops = assemble_operators(ctx, 0.45)
    area = (2 * 0.45) ** 2
    rng = np.random.default_rng(42)
    pts = rng.uniform(1 - 0.45, 1 + 0.45, size=(1_000_000, 2))

    yd = case.y_d(pts)
    mc_b = yd.mean() * area
    se_b = yd.std() * area / np.sqrt(pts.shape[0])
    assert abs(ops.b.sum() - mc_b) <= 0.01 * abs(mc_b) + 4 * se_b

    fv = case.f(pts)
    mc_c = fv.mean() * area            # exact value 0.81, far from zero
    assert abs(ops.c.sum() - mc_c) <= 0.01 * abs(mc_c)


def test_coercivity_proxy(assembled, rng):
    _, ops = assembled
    n = ops.A.shape[0]
    active = ops.active_dofs
    one = np.zeros(n)
    one[active] = 1.0
    m_one = ops.M @ one
    denom = one @ m_one
    for _ in range(20):
        v = np.zeros(n)
        v[active] = rng.standard_normal(active.size)
        v -= one * ((m_one @ v) / denom)
        assert v @ (ops.A @ v) > 0.0


def test_ghost_penalty_locality(assembled, coarse_problem):
    # DOFs that share no element and no possible ghost facet stay uncoupled
    ctx, ops = assembled
    mesh = coarse_problem["mesh"]
    A = ops.A.toarray()
    pat = set(zip(ctx.pattern_A.rows.tolist(), ctx.pattern_A.cols.tolist()))
    nz = np.argwhere(A != 0.0)
    assert {(int(i), int(j)) for i, j in nz} <= pat


def test_nitsche_penalty_monotonicity(coarse_problem, rng):
    mesh = coarse_problem["mesh"]
    ft = coarse_problem["face_table"]
    geom = classify_elements(mesh, ft, LevelSetSquare(0.45))
    a10 = AssemblyContext(mesh, ft, _constant_case(gamma_D=10.0)).assemble(geom)
    a20 = AssemblyContext(mesh, ft, _constant_case(gamma_D=20.0)).assemble(geom)
    sub = geom.active
    bdofs = np.unique(mesh.elements[sub.elems[sub.bq_parent]])
    for _ in range(5):
        v = np.zeros(mesh.dof_count)
        v[bdofs] = rng.standard_normal(bdofs.size)
        assert v @ (a20.A @ v) > v @ (a10.A @ v)


def test_pattern_nesting_and_order(assembled):
    ctx, _ = assembled
    keys_a = set(ctx.pattern_A.keys.tolist())
    keys_m = set(ctx.pattern_M.keys.tolist())
    assert keys_m <= keys_a
    assert np.all(np.diff(ctx.pattern_A.keys) > 0)
    assert np.all(np.diff(ctx.pattern_M.keys) > 0)


def test_pattern_overflow_outside_declared_range(coarse_problem):
    mesh = coarse_problem["mesh"]
    ft = coarse_problem["face_table"]
    ctx = AssemblyContext(mesh, ft, square_poisson(), mu_range=(0.40, 0.42))
    assemble_operators(ctx, 0.41)  # inside the range: fine
    # mu = 0.5 puts the square's sides on mesh lines at h = 0.2; its state
    # is the limit from below, whose elements are those of the range
    assemble_operators(ctx, 0.50)
    with pytest.raises(PatternOverflowError):
        assemble_operators(ctx, 0.51)
    # above the range an active element has no precomputed values, below
    # it a ghost facet lies outside the pattern; either is named
    for mu, what in ((0.51, "element"), (0.29, "ghost facet")):
        geom = classify_elements(mesh, ft, LevelSetSquare(mu))
        with pytest.raises(PatternOverflowError, match=rf"{what} \d+ "):
            ctx.assemble(geom)
    with pytest.raises(PatternOverflowError, match=r"ghost facet \d+ "):
        ctx.assemble_component(classify_elements(
            mesh, ft, LevelSetSquare(0.29)), "A")


def test_box_mass_matrix_exact(bench_mesh):
    W = box_mass_matrix(bench_mesh)
    one = np.ones(bench_mesh.dof_count)
    assert one @ (W @ one) == pytest.approx(2.6 * 2.6, rel=1e-12)
    assert np.abs(W - W.T).max() == 0.0


def _assert_matches_coo(ctx, geom):
    ops = ctx.assemble(geom)
    ref = coo_assemble(ctx, geom)
    for got, comp in ((ops.a_values, "A"), (ops.m_values, "M"),
                      (ops.b, "b"), (ops.c, "c")):
        assert bitwise_equal(got, ref[comp]), comp
    for comp in ("A", "M", "b", "c"):
        got = ctx.assemble_component(geom, comp)
        if comp in ("A", "M"):
            got = got.data
        ref = coo_assemble(ctx, geom, frozenset((comp,)))[comp]
        assert bitwise_equal(got, ref), comp


def test_assembly_matches_coo_scatter(default_problem):
    # offsets from the element and facet tables with np.bincount give the
    # values of a searched COO stream scattered with np.add.at, bitwise
    (mesh, ft, _, ctx, _), mus = default_problem
    for mu in mus:
        _assert_matches_coo(ctx, classify_elements(
            mesh, ft, LevelSetSquare(mu, CENTER)))


def test_assembly_with_dirichlet_data_matches_coo_scatter(bench_mesh,
                                                          bench_faces):
    # g_D adds Nitsche terms to c after the interior ones
    case = ProblemCase(name="test", f=lambda p: p[:, 0] - p[:, 1],
                       y_d=lambda p: np.cos(p[:, 1]),
                       g_D=lambda p: np.sin(3.0 * p[:, 0]) + p[:, 1],
                       alpha=1e-4, gamma_D=10.0, gamma_1=0.1)
    ctx = AssemblyContext(bench_mesh, bench_faces, case, (0.4, 0.5), CENTER)
    for mu in (0.4, 0.4034487, 0.4571):
        _assert_matches_coo(ctx, classify_elements(
            bench_mesh, bench_faces, LevelSetSquare(mu, CENTER)))


def test_block_offsets_locate_block_entries(coarse_problem):
    ctx = coarse_problem["ctx"]
    el = ctx.mesh.elements
    n = ctx.mesh.dof_count
    keys = (el[:, :, None] * n + el[:, None, :]).reshape(-1, 9)
    for comp, pattern in (("A", ctx.pattern_A), ("M", ctx.pattern_M)):
        assert np.array_equal(pattern.keys[ctx.elem_offsets[comp]], keys)
    faces = np.arange(ctx.face_table.faces.shape[0])
    off = ctx.ghost_offsets(faces)
    inside = off[:, 0] < ctx.pattern_A.nnz
    d6 = ctx.face_dofs6[faces[inside]]
    keys6 = (d6[:, :, None] * n + d6[:, None, :]).reshape(-1, 36)
    assert np.array_equal(ctx.pattern_A.keys[off[inside]], keys6)
    assert np.all(off[~inside] == ctx.pattern_A.nnz)
    assert inside.any() and not inside.all()


def test_operators_vanish_outside_the_ever_active_set(default_problem):
    # snapshots and bases keep only the ever-active rows; every other
    # operator entry and solution value must be exactly zero
    from cutrom import assemble_kkt, solve_kkt

    (mesh, ft, case, ctx, _), mus = default_problem
    assert ctx.ever_active.size < mesh.dof_count
    assert ctx.kept["A"].size < ctx.pattern_A.nnz
    for mu in mus:
        ops = ctx.assemble(classify_elements(mesh, ft,
                                             LevelSetSquare(mu, CENTER)))
        assert np.all(np.isin(ops.active_dofs, ctx.ever_active)), mu
        sol = solve_kkt(assemble_kkt(ops, case.alpha))
        for comp, values in (("A", ops.a_values), ("M", ops.m_values),
                             ("b", ops.b), ("c", ops.c), ("y", sol.y),
                             ("u", sol.u), ("p", sol.p)):
            outside = np.ones(values.size, dtype=bool)
            outside[ctx.kept.get(comp, ctx.ever_active)] = False
            assert np.all(values[outside] == 0.0), (comp, mu)
