import numpy as np
import pytest
import scipy.sparse as sp

from cutrom import aggregate_basis, assemble_kkt, assemble_operators, \
    pod_basis, precompute_reduced_terms, relative_error, rom_solve, \
    sample_parameters, solve_kkt
from cutrom.deim import deim_basis, model_from_snapshots
from cutrom.errors import NumericalError
from cutrom.pipeline import training_sweep
from cutrom.pod import AggregatedBasis
from cutrom.rom import _dense_solve, assemble_reduced_system
from oracles import bitwise_equal, direct_projection, \
    reduced_blocks_from_exact


@pytest.fixture(scope="module")
def rom_setup(coarse_problem):
    ctx = coarse_problem["ctx"]
    W = coarse_problem["W"]
    mesh = coarse_problem["mesh"]
    params = sample_parameters(0.4, 0.5, 24, seed=77)
    snaps, opsnaps = training_sweep(params, ctx, W)
    pod = {v: pod_basis(getattr(snaps, f"S_{v}"), W, 1e-5, min_stored=15)
           for v in ("y", "u", "p")}
    basis = aggregate_basis(pod["y"].vectors[:, :pod["y"].retained],
                            pod["u"].vectors[:, :pod["u"].retained],
                            pod["p"].vectors[:, :pod["p"].retained], W,
                            ctx.ever_active, mesh.dof_count)
    models = {}
    for comp in "AMbc":
        db = deim_basis(opsnaps[comp])
        models[comp] = model_from_snapshots(db, db.m, opsnaps[comp], ctx)
    rom = precompute_reduced_terms(basis, models, ctx, ctx.case.alpha)
    return {"ctx": ctx, "basis": basis, "models": models, "rom": rom,
            "params": params, "pod": pod, "snaps": snaps, "W": W}


def test_bypass_matches_direct_projection(rom_setup):
    ctx = rom_setup["ctx"]
    basis = rom_setup["basis"]
    for mu in (0.405, 0.428, 0.451, 0.474, 0.497):
        ops = assemble_operators(ctx, mu)
        K, rhs = assemble_reduced_system(
            *reduced_blocks_from_exact(basis, ops), ctx.case.alpha)
        K_ref, rhs_ref = direct_projection(basis, ops, ctx.case.alpha)
        assert np.abs(K - K_ref).max() <= 1e-10
        assert np.abs(rhs - rhs_ref).max() <= 1e-10


def test_rom_close_to_full_on_training_parameters(rom_setup):
    ctx = rom_setup["ctx"]
    rom = rom_setup["rom"]
    for mu in rom_setup["params"][3:20:6]:
        ops = assemble_operators(ctx, float(mu))
        full = solve_kkt(assemble_kkt(ops, ctx.case.alpha))
        sol = rom_solve(rom, float(mu))
        errs, flags = relative_error(full, sol, ops.M)
        assert not flags.any()
        assert np.all(errs <= 1e-2)


def test_full_rank_basis_reproduces_full_solution(rom_setup):
    # eps = 0 bases and exact operators: training solutions lie in the
    # reduced space, so the Galerkin solution lifts back to the full one.
    # The method-of-snapshots basis carries the sqrt(machine-eps) noise of
    # the correlation eigensolve (span accuracy ~1e-9), which the operator
    # norm and the reduced inverse amplify to ~1e-7; that floor, not the
    # projection, limits the reachable agreement.
    ctx = rom_setup["ctx"]
    W = rom_setup["W"]
    snaps = rom_setup["snaps"]
    pod0 = {v: pod_basis(getattr(snaps, f"S_{v}"), W, eps=0.0)
            for v in ("y", "u", "p")}
    basis = aggregate_basis(pod0["y"].vectors[:, :pod0["y"].retained],
                            pod0["u"].vectors[:, :pod0["u"].retained],
                            pod0["p"].vectors[:, :pod0["p"].retained], W,
                            ctx.ever_active, ctx.mesh.dof_count)
    mu = float(rom_setup["params"][5])
    ops = assemble_operators(ctx, mu)
    full = solve_kkt(assemble_kkt(ops, ctx.case.alpha))
    K, rhs = assemble_reduced_system(
        *reduced_blocks_from_exact(basis, ops), ctx.case.alpha)
    x = np.linalg.solve(K, rhs)
    y, u, p = basis.lift(*basis.split(x))
    scale = max(np.abs(full.y).max(), np.abs(full.u).max(),
                np.abs(full.p).max())
    assert np.abs(y - full.y).max() <= 1e-6 * scale
    assert np.abs(u - full.u).max() <= 1e-6 * scale
    assert np.abs(p - full.p).max() <= 1e-6 * scale


def test_identity_basis_terms_equal_projector_columns(rom_setup):
    ctx = rom_setup["ctx"]
    models = rom_setup["models"]
    dofs = ctx.ever_active
    eye = np.eye(dofs.size)
    ident = AggregatedBasis(eye, eye, dofs, ctx.mesh.dof_count)
    rom = precompute_reduced_terms(ident, models, ctx, ctx.case.alpha)
    model = models["A"]
    for j in (0, model.m - 1):
        full = ctx.pattern_A.csr_with_values(
            ctx.expand("A", model.projector[:, j]))
        dense = full[dofs][:, dofs].toarray()
        assert np.abs(rom.A_terms[j] - dense).max() <= 1e-14
    vec = models["b"].projector[:, 0]
    assert np.abs(rom.b_terms[0] - vec).max() <= 1e-14


def test_reduced_optimality_row(rom_setup):
    rom = rom_setup["rom"]
    alpha = rom.alpha
    sol = rom_solve(rom, 0.433)
    th_m = rom.assemblers["M"].theta(0.433)
    M_u = np.tensordot(th_m, rom.M_u_terms, axes=1)
    M_uyp = np.tensordot(th_m, rom.M_uyp_terms, axes=1)
    resid = alpha * (M_u @ sol.u_N) - M_uyp @ sol.p_N
    scale = np.linalg.norm(alpha * (M_u @ sol.u_N)) \
        + np.linalg.norm(M_uyp @ sol.p_N) + 1e-30
    assert np.linalg.norm(resid) <= 1e-8 * scale


def test_relative_error_identity_and_flags(rom_setup):
    ctx = rom_setup["ctx"]
    mu = 0.46
    ops = assemble_operators(ctx, mu)
    full = solve_kkt(assemble_kkt(ops, ctx.case.alpha))

    class Lifted:
        pass

    same = Lifted()
    same.mu = mu
    same.y, same.u, same.p = full.y, full.u, full.p
    errs, flags = relative_error(full, same, ops.M)
    assert np.all(errs == 0.0) and not flags.any()

    zero_full = type(full)(np.zeros_like(full.y), full.u, full.p,
                           mu, 0.0)
    errs, flags = relative_error(zero_full, same, ops.M)
    assert flags[0] and errs[0] > 0.0
    assert np.all(errs >= 0.0)


def test_relative_error_guards(rom_setup):
    ctx = rom_setup["ctx"]
    rom = rom_setup["rom"]
    ops = assemble_operators(ctx, 0.42)
    full = solve_kkt(assemble_kkt(ops, ctx.case.alpha))
    unlifted = rom_solve(rom, 0.42, lift=False)
    assert unlifted.y is None
    with pytest.raises(ValueError):
        relative_error(full, unlifted, ops.M)
    other = rom_solve(rom, 0.43)
    with pytest.raises(ValueError):
        relative_error(full, other, ops.M)


def test_singular_reduced_system_reports_pivot():
    with pytest.raises(NumericalError, match="pivot"):
        _dense_solve(np.zeros((4, 4)), np.zeros(4), mu=0.4)


def test_rom_solution_timings_present(rom_setup):
    sol = rom_solve(rom_setup["rom"], 0.466)
    for key in ("theta", "form", "solve", "lift", "total_excl_lift"):
        assert sol.timings[key] >= 0.0
    rom = rom_setup["rom"]
    assert rom.A_terms.shape[0] + rom.M_yp_terms.shape[0] == \
        rom_setup["models"]["A"].m + rom_setup["models"]["M"].m
    assert rom.b_terms.shape[0] + rom.c_terms.shape[0] == \
        rom_setup["models"]["b"].m + rom_setup["models"]["c"].m


def test_online_cost_independent_of_mesh_size():
    # quadrupling the mesh at fixed reduced dimensions changes the online
    # solve time by well under 2x
    from cutrom import RunConfig
    from cutrom.pipeline import build_problem, training_sweep

    roms = {}
    for h in (0.2, 0.1):
        cfg = RunConfig(h_target=h, seed=31)
        mesh, ft, case, ctx, W = build_problem(cfg)
        params = sample_parameters(0.4, 0.5, 15, seed=31)
        snaps, opsnaps = training_sweep(params, ctx, W)
        pod = {v: pod_basis(getattr(snaps, f"S_{v}"), W, 1e-5, min_stored=5)
               for v in ("y", "u", "p")}
        basis = aggregate_basis(pod["y"].truncated(5), pod["u"].truncated(5),
                                pod["p"].truncated(5), W, ctx.ever_active,
                                mesh.dof_count)
        models = {}
        for comp in "AMbc":
            db = deim_basis(opsnaps[comp])
            models[comp] = model_from_snapshots(db, min(5, db.m),
                                                opsnaps[comp], ctx)
        roms[h] = precompute_reduced_terms(basis, models, ctx, case.alpha)
    # both sizes timed interleaved, so that load changes hit them alike
    samples = {h: [] for h in roms}
    for rom in roms.values():
        rom_solve(rom, 0.45)            # warm caches and lazy allocations
    for _ in range(11):
        for h, rom in roms.items():
            samples[h].append(rom_solve(rom, 0.45).timings["total_excl_lift"])
    times = {h: float(np.median(t)) for h, t in samples.items()}
    ratio = times[0.1] / times[0.2]
    assert ratio < 2.0, times


def test_lifted_fields_live_in_basis_ranges(rom_setup):
    # W and the basis rows are the ever-active DOFs; the lift is exactly
    # zero on every other DOF
    rom = rom_setup["rom"]
    basis = rom_setup["basis"]
    W = rom_setup["W"]
    sol = rom_solve(rom, 0.481)
    outside = np.ones(basis.n, dtype=bool)
    outside[basis.dofs] = False
    assert outside.any()
    for field, V in ((sol.y, basis.V_yp), (sol.u, basis.V_u),
                     (sol.p, basis.V_yp)):
        assert field.shape == (basis.n,)
        assert np.all(field[outside] == 0.0)
        kept = field[basis.dofs]
        proj = V @ (V.T @ (W @ kept))
        assert np.abs(kept - proj).max() <= 1e-10 * max(
            1.0, np.abs(kept).max())


def test_fused_theta_is_exact(paper_rom):
    # one pass over the union of the reduced meshes gives, per component,
    # the entries of a full assembly and of the component's own pass
    ctx, rom = paper_rom
    fused = rom.assembler
    models = [rom.deim[c] for c in "AMbc"]
    assert np.array_equal(fused.elems, np.unique(np.concatenate(
        [m.reduced_elements for m in models])))
    assert np.array_equal(fused.facets, rom.deim["A"].reduced_facets)
    rng = np.random.default_rng(8)
    for mu in (0.4, 0.5, 0.4034487, *rng.uniform(0.4, 0.5, 4)):
        ops = assemble_operators(ctx, float(mu))
        exact = {"A": ops.a_values, "M": ops.m_values, "b": ops.b,
                 "c": ops.c}
        parts = np.split(fused.theta(float(mu)), fused.offsets[1:-1])
        for comp, model, part in zip("AMbc", models, parts):
            assert np.array_equal(part, exact[comp][model.indices]), \
                (comp, mu)
            assert np.array_equal(part, rom.assemblers[comp].theta(mu))


def test_rom_solve_assembles_only_next_to_breakpoints(paper_rom,
                                                      monkeypatch):
    # the table serves every parameter but those within the band of an
    # interval edge and those outside the range, where one fused partial
    # assembly runs
    import cutrom.deim
    from cutrom import AssemblyContext
    from cutrom.deim import BREAKPOINT_BAND

    calls = {"subset_geometry": 0, "streams": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cutrom.deim, "subset_geometry", counted(
        "subset_geometry", cutrom.deim.subset_geometry))
    monkeypatch.setattr(AssemblyContext, "streams",
                        counted("streams", AssemblyContext.streams))
    _, rom = paper_rom
    edges = rom.table.edges
    assert edges.size > 2       # an interior breakpoint at h = 0.09
    for mu, expected in ((0.447, 0), (edges[1], 1),
                         (edges[1] + 0.5 * BREAKPOINT_BAND, 1),
                         (edges[1] + 2 * BREAKPOINT_BAND, 0),
                         (edges[0], 1), (edges[-1] - 1e-6, 0),
                         (edges[-1] + 0.01, 1)):
        calls.update(subset_geometry=0, streams=0)
        sol = rom_solve(rom, float(mu))
        assert calls == {"subset_geometry": expected,
                         "streams": expected}, mu
        assert {"theta", "form", "solve", "lift"} <= set(sol.timings)


def test_theta_band_around_interval_edges(paper_rom):
    # a mu within the snap distance above an edge takes the state of the
    # interval below: inside the band the ROM reads partial assembly, the
    # same bits; just outside it the table agrees to 1e-12
    from cutrom.deim import theta_deviation

    _, rom = paper_rom
    asm, edges = rom.assembler, rom.table.edges
    for edge in edges:
        for mu in (edge, edge - 1e-13, edge + 1e-13):
            assert rom.table(float(mu)) is None
            assert bitwise_equal(np.concatenate(rom.theta(float(mu))),
                                 asm.theta(float(mu))), mu
        for mu in (edge - 2e-9, edge + 2e-9):
            # the table serves both sides of an interior edge
            assert (rom.table(float(mu)) is None) \
                == (mu < edges[0] or mu > edges[-1])
            dev = theta_deviation(np.concatenate(rom.theta(float(mu))),
                                  asm.theta(float(mu)), asm.offsets)
            assert dev <= 1e-12, (mu, dev)


def test_rom_builds_assemblers_on_first_read(paper_rom, monkeypatch):
    # a ROM over models that carry their table builds no table and no
    # partial assembler until one is read
    import cutrom.rom

    ctx, rom = paper_rom
    monkeypatch.setattr(cutrom.rom, "with_theta_table", None)
    fresh = precompute_reduced_terms(rom.basis, rom.deim, ctx, rom.alpha)
    rom_solve(fresh, 0.447)
    assert "assembler" not in vars(fresh) and "assemblers" not in vars(fresh)
    assert set(fresh.assemblers) == set("AMbc")
    assert np.array_equal(fresh.assemblers["M"].theta(0.447),
                          rom.assemblers["M"].theta(0.447))


def test_pivot_ratio_of_reduced_solve(rom_setup):
    x, ratio = _dense_solve(np.diag([1.0, 4.0, 2.0]), np.ones(3), mu=0.4)
    assert np.array_equal(x, [1.0, 0.25, 0.5]) and ratio == 0.25
    sol = rom_solve(rom_setup["rom"], 0.452)
    assert 0.0 < sol.pivot_ratio <= 1.0
