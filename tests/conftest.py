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


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
