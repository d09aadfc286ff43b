import numpy as np
import pytest

from cutrom import AssemblyContext, RunConfig, box_mass_matrix, \
    build_background_mesh, build_face_table, square_poisson
from cutrom.pipeline import build_problem


@pytest.fixture(scope="session")
def bench_mesh():
    """Background mesh at the benchmark resolution."""
    return build_background_mesh((-0.3, -0.3), (2.3, 2.3), 0.09)


@pytest.fixture(scope="session")
def bench_faces(bench_mesh):
    return build_face_table(bench_mesh)


@pytest.fixture(scope="session")
def coarse_problem():
    """Small problem (h = 0.2) shared by the slower module tests."""
    cfg = RunConfig(h_target=0.2, m_train=20, seed=11)
    mesh, face_table, case, ctx, W = build_problem(cfg)
    return {"cfg": cfg, "mesh": mesh, "face_table": face_table,
            "case": case, "ctx": ctx, "W": W}


@pytest.fixture(scope="session", params=[0.09, 0.0225],
                ids=["N900", "N13689"])
def default_problem(request):
    """The default configuration at the paper and the benchmark mesh size,
    with the parameters the old-path oracle checks run at."""
    mus = (0.4, 0.5, 0.4034487,
           *np.random.default_rng(8).uniform(0.4, 0.5, 3).tolist())
    return build_problem(RunConfig(h_target=request.param)), mus


@pytest.fixture(scope="session")
def paper_rom():
    """ROM at the paper resolution from 30 training parameters; at h = 0.09,
    mu = 0.4034487 puts a side of the square almost on a mesh line."""
    from cutrom import aggregate_basis, deim_basis, pod_basis, \
        precompute_reduced_terms, sample_parameters, training_sweep
    from cutrom.deim import build_theta_table, model_from_snapshots

    cfg = RunConfig(h_target=0.09, seed=5)
    mesh, ft, case, ctx, W = build_problem(cfg)
    params = sample_parameters(0.4, 0.5, 30, seed=5)
    snaps, opsnaps = training_sweep(params, ctx, W)
    pod = {v: pod_basis(getattr(snaps, f"S_{v}"), W, 1e-5)
           for v in ("y", "u", "p")}
    basis = aggregate_basis(*(pod[v].truncated(pod[v].retained)
                              for v in ("y", "u", "p")), W, ctx.ever_active,
                            mesh.dof_count)
    models = {}
    for comp in "AMbc":
        db = deim_basis(opsnaps[comp])
        models[comp] = model_from_snapshots(db, db.m, opsnaps[comp], ctx)
    table = build_theta_table(list(models.values()), ctx)
    return ctx, precompute_reduced_terms(basis, models, table, ctx,
                                         case.alpha)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
