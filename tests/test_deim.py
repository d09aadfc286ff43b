import numpy as np
import pytest

from cutrom import assemble_operators, box_mass_matrix, build_reduced_mesh, \
    deim_basis, deim_select, spectral_norm, training_sweep
from cutrom.deim import OperatorSnapshots, PartialAssembler, \
    model_from_snapshots, truncate_model
from cutrom.errors import NumericalError
from cutrom.mesh import vertex_to_elements
from oracles import projector_apply


def _vector_snaps(values):
    values = np.asarray(values, dtype=float)
    return OperatorSnapshots("b", np.arange(values.shape[1], dtype=float),
                             values)


def test_rank_one_family():
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal(50)
    thetas = rng.uniform(0.5, 2.0, 12)
    snaps = _vector_snaps(np.outer(a0, thetas))
    basis = deim_basis(snaps)
    assert basis.m == 1
    u = basis.U[:, 0]
    assert abs(abs(u @ a0) / np.linalg.norm(a0) - 1.0) <= 1e-12


def test_affine_two_term_family():
    rng = np.random.default_rng(1)
    a1 = rng.standard_normal(80)
    a2 = rng.standard_normal(80)
    th = rng.uniform(-1, 1, size=(2, 20))
    snaps = _vector_snaps(np.outer(a1, th[0]) + np.outer(a2, th[1]))
    basis = deim_basis(snaps)
    assert basis.m == 2
    indices, projector = deim_select(basis.U[:, :2])
    # any member of the family is reconstructed exactly from its 2 entries
    fresh = 0.3 * a1 - 1.7 * a2
    recon = projector @ fresh[indices]
    assert np.abs(recon - fresh).max() <= 1e-11 * np.abs(fresh).max()


def test_dimension_is_numerical_rank():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((60, 3))
    coeff = rng.standard_normal((3, 15))
    basis = deim_basis(_vector_snaps(base @ coeff))
    assert basis.m == 3


def test_select_unit_vector():
    u = np.zeros((7, 1))
    u[3, 0] = 1.0
    indices, projector = deim_select(u)
    assert list(indices) == [3]
    assert projector[3, 0] == pytest.approx(1.0)


def test_select_identity_columns():
    U = np.eye(6)[:, :2]
    indices, projector = deim_select(U)
    assert list(indices) == [0, 1]
    assert np.array_equal(projector, U)


def test_select_tie_breaks_to_lowest_index():
    u = np.zeros((5, 1))
    u[1, 0] = 0.5
    u[4, 0] = -0.5
    indices, _ = deim_select(u)
    assert indices[0] == 1


def test_interpolation_identity(rng):
    U, _ = np.linalg.qr(rng.standard_normal((40, 6)))
    indices, projector = deim_select(U)
    assert np.unique(indices).size == 6
    assert np.abs(projector[indices] - np.eye(6)).max() <= 1e-12
    for j in range(6):
        recon = projector @ U[indices, j]
        assert np.abs(recon - U[:, j]).max() <= 1e-12


def test_select_truncates_rank_deficient_basis():
    U = np.zeros((10, 3))
    U[0, 0] = 1.0
    U[1, 1] = 1.0
    U[:, 2] = U[:, 0]  # dependent: residual vanishes
    with pytest.warns(UserWarning):
        indices, projector = deim_select(U)
    assert indices.size == 2


@pytest.fixture(scope="module")
def operator_snaps(coarse_problem):
    params = np.linspace(0.4, 0.5, 16)
    return training_sweep(params, coarse_problem["ctx"],
                          coarse_problem["W"])[1]


def test_snapshot_structure(operator_snaps, coarse_problem):
    # rows are the kept entries: ever-active DOFs, and pattern entries
    # with an ever-active row and column
    ctx = coarse_problem["ctx"]
    n_kept = ctx.ever_active.size
    assert operator_snaps["b"].values.shape[0] == n_kept
    assert operator_snaps["c"].values.shape[0] == n_kept
    for comp, pattern in (("A", ctx.pattern_A), ("M", ctx.pattern_M)):
        kept = ctx.kept[comp]
        assert operator_snaps[comp].values.shape[0] == kept.size
        assert np.all(np.isin(pattern.rows[kept], ctx.ever_active))
        assert np.all(np.isin(pattern.cols[kept], ctx.ever_active))
    assert set(ctx.pattern_M.keys.tolist()) <= set(ctx.pattern_A.keys.tolist())


def test_identical_parameters_give_identical_columns(coarse_problem):
    snaps = training_sweep([0.43, 0.43], coarse_problem["ctx"],
                           coarse_problem["W"])[1]
    for comp in "AMbc":
        v = snaps[comp].values
        assert np.array_equal(v[:, 0], v[:, 1])


def test_reduced_mesh_diagonal_entry(coarse_problem):
    mesh = coarse_problem["mesh"]
    ctx = coarse_problem["ctx"]
    indptr, v2e = vertex_to_elements(mesh)
    v = mesh.dof_count // 2 + 3
    elements, facets = build_reduced_mesh(np.array([[v, v]]), ctx, "M")
    assert np.array_equal(elements, v2e[indptr[v]:indptr[v + 1]])
    assert facets.size == 0


def test_reduced_mesh_ghost_only_pair(coarse_problem):
    # apex DOFs across an interior face share no element; the covering
    # facet and both neighbors must be pulled in
    mesh = coarse_problem["mesh"]
    ctx = coarse_problem["ctx"]
    ft = coarse_problem["face_table"]
    f = int(np.flatnonzero(ft.face_right >= 0)[10])
    left, right = ft.face_left[f], ft.face_right[f]
    shared = set(ft.faces[f])
    i = (set(mesh.elements[left]) - shared).pop()
    j = (set(mesh.elements[right]) - shared).pop()
    elements, facets = build_reduced_mesh(np.array([[i, j]]), ctx, "A")
    assert f in set(facets.tolist())
    assert {int(left), int(right)} <= set(elements.tolist())
    with pytest.raises(NumericalError):
        build_reduced_mesh(np.array([[i, j]]), ctx, "M")


def test_reduced_mesh_uncoverable_pair(coarse_problem):
    mesh = coarse_problem["mesh"]
    ctx = coarse_problem["ctx"]
    with pytest.raises(NumericalError):
        build_reduced_mesh(np.array([[0, mesh.dof_count - 1]]), ctx, "A")


@pytest.fixture(scope="module")
def deim_models(operator_snaps, coarse_problem):
    ctx = coarse_problem["ctx"]
    models = {}
    for comp in "AMbc":
        basis = deim_basis(operator_snaps[comp])
        models[comp] = model_from_snapshots(basis, basis.m,
                                            operator_snaps[comp], ctx)
    return models


def test_reduced_mesh_nested_in_dimension(deim_models, coarse_problem):
    ctx = coarse_problem["ctx"]
    model = deim_models["A"]
    prev: set = set()
    for m in range(1, model.m + 1):
        sub = truncate_model(model, m, ctx)
        current = set(sub.reduced_elements.tolist())
        assert prev <= current
        prev = current


def test_indices_distinct_and_facet_free_vectors(deim_models,
                                                 coarse_problem):
    mesh = coarse_problem["mesh"]
    indptr, v2e = vertex_to_elements(mesh)
    for comp, model in deim_models.items():
        assert np.unique(model.indices).size == model.m
        if comp in ("b", "c"):
            assert model.reduced_facets.size == 0
            support = np.unique(np.concatenate(
                [v2e[indptr[v]:indptr[v + 1]] for v in model.indices]))
            assert np.array_equal(model.reduced_elements, support)


def test_training_reconstruction_exact(deim_models, operator_snaps,
                                       coarse_problem):
    # rank basis: every training operator lies in the interpolation span.
    # The stiffness, mass and forcing families are piecewise polynomial in
    # the parameter and exactly low rank; the target-moment family is
    # transcendental, so its tail sits below the fp64 eigenvalue noise
    # floor and caps the reachable accuracy near 1e-8.
    ctx = coarse_problem["ctx"]
    mu = float(operator_snaps["A"].params[7])
    ops = assemble_operators(ctx, mu)
    exact = {"A": ops.a_values, "M": ops.m_values, "b": ops.b, "c": ops.c}
    tol = {"A": 1e-10, "M": 1e-10, "b": 1e-7, "c": 1e-10}
    for comp, model in deim_models.items():
        asm = PartialAssembler(model, ctx)
        vals = projector_apply(asm, asm.theta(mu))
        scale = np.abs(exact[comp]).max()
        assert np.abs(vals - exact[comp]).max() <= tol[comp] * scale


def test_selected_entries_bitwise_exact(deim_models, coarse_problem):
    ctx = coarse_problem["ctx"]
    for mu in (0.4123, 0.4571, 0.4998):
        ops = assemble_operators(ctx, mu)
        exact = {"A": ops.a_values, "M": ops.m_values, "b": ops.b,
                 "c": ops.c}
        for comp, model in deim_models.items():
            asm = PartialAssembler(model, ctx)
            theta = asm.theta(mu)
            ref = exact[comp][model.indices]
            assert np.array_equal(theta, ref)


def test_truncated_theta_is_prefix_of_fused_theta(paper_rom):
    # greedy indices are nested, so a model truncated to m modes selects the
    # first m indices, and its partial assembly gives the first m entries of
    # the stored model's part of the fused theta; the online report reads
    # every DEIM error and reduced solve from that one theta
    ctx, rom = paper_rom
    fused = rom.assembler
    mus = (0.4, 0.5, 0.4034487,
           *np.random.default_rng(9).uniform(0.4, 0.5, 3).tolist())
    parts = [dict(zip("AMbc", np.split(fused.theta(mu), fused.offsets[1:-1])))
             for mu in mus]
    for comp, model in rom.deim.items():
        for m in range(1, model.m):
            sub = truncate_model(model, m, ctx)
            assert np.array_equal(sub.indices, model.indices[:m]), (comp, m)
            asm = PartialAssembler(sub, ctx)
            for mu, part in zip(mus, parts):
                assert np.array_equal(asm.theta(mu), part[comp][:m]), \
                    (comp, m, mu)


def test_truncated_table_is_prefix_of_fused_table(paper_rom):
    # a truncated model reads the first columns of its component's table,
    # and they evaluate to the same bits as those columns of the fused one
    ctx, rom = paper_rom
    edges = rom.table.edges
    mus = (*np.random.default_rng(10).uniform(0.4, 0.5, 3),
           edges[1] + 1e-6)
    fused = [dict(zip("AMbc", rom.theta(float(mu)))) for mu in mus]
    for comp, model in rom.deim.items():
        for m in (1, model.m // 2, model.m):
            sub = truncate_model(model, m, ctx)
            assert np.array_equal(sub.table.coefs,
                                  model.table.coefs[:, :, :m])
            for mu, parts in zip(mus, fused):
                assert np.array_equal(sub.table(float(mu)),
                                      parts[comp][:m]), (comp, m, mu)


def test_theta_outside_range_is_partial_assembly(paper_rom):
    ctx, rom = paper_rom
    asm = PartialAssembler([rom.deim[c] for c in "AMbc"], ctx)
    lo, hi = ctx.mu_range
    for mu in (lo - 0.005, hi + 0.005):
        assert rom.table(mu) is None
        assert np.array_equal(np.concatenate(rom.theta(mu)), asm.theta(mu))


def test_theta_table_degree_cap_raises(paper_rom, monkeypatch):
    # b, with its sine target, needs degree 8 to 10; a cap of 6 must fail
    # the check against partial assembly instead of storing a worse table
    import cutrom.deim as deim

    ctx, rom = paper_rom
    monkeypatch.setattr(deim, "FIRST_DEGREE", 4)
    monkeypatch.setattr(deim, "THETA_DEGREE_CAP", 6)
    with pytest.raises(NumericalError, match="at degree 6"):
        deim.build_theta_table([rom.deim[c] for c in "AMbc"], ctx)


def test_error_decay_with_dimension(deim_models, coarse_problem):
    ctx = coarse_problem["ctx"]
    mus = np.linspace(0.403, 0.497, 7)
    exact = {mu: assemble_operators(ctx, float(mu)) for mu in mus}
    for comp, model in deim_models.items():
        means = []
        for m in range(1, model.m + 1):
            sub = truncate_model(model, m, ctx)
            asm = PartialAssembler(sub, ctx)
            errs = []
            for mu in mus:
                ops = exact[mu]
                ref = {"A": ops.A, "M": ops.M, "b": ops.b, "c": ops.c}[comp]
                rec = asm.reconstruct(float(mu))
                if comp in ("A", "M"):
                    errs.append(spectral_norm(rec - ref)
                                / spectral_norm(ref))
                else:
                    errs.append(np.linalg.norm(rec - ref)
                                / np.linalg.norm(ref))
            means.append(np.mean(errs))
        for a, b in zip(means, means[1:]):
            assert b <= 1.1 * a + 1e-14


def test_reduced_mesh_size_at_benchmark_resolution(bench_mesh, bench_faces):
    # a 5-mode stiffness model covers a handful of small patches around
    # the boundary variation band (tens of elements, not hundreds)
    from cutrom import AssemblyContext, square_poisson

    ctx = AssemblyContext(bench_mesh, bench_faces, square_poisson(),
                          mu_range=(0.4, 0.5))
    params = np.linspace(0.4, 0.5, 20)
    snaps = training_sweep(params, ctx, box_mass_matrix(bench_mesh))[1]
    basis = deim_basis(snaps["A"])
    model = model_from_snapshots(basis, min(5, basis.m), snaps["A"], ctx)
    assert 6 <= model.reduced_elements.size <= 150
    assert 6 <= model.reduced_facets.size <= 250
    single = model_from_snapshots(basis, 1, snaps["A"], ctx)
    assert single.reduced_elements.size <= model.reduced_elements.size


def test_spectral_norm_against_dense(rng):
    a = rng.standard_normal((40, 40))
    import scipy.sparse as sp
    est = spectral_norm(sp.csr_matrix(a))
    ref = np.linalg.norm(a, 2)
    assert est == pytest.approx(ref, rel=1e-6)
