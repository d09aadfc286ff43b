import numpy as np
import pytest
import scipy.sparse as sp

from cutrom import aggregate_basis, assemble_operators, pod_basis, \
    sample_parameters, training_sweep
from cutrom.pod import energy_cutoff


def test_sample_endpoints_only():
    s = sample_parameters(0.4, 0.5, 2, seed=1)
    assert np.array_equal(s, [0.4, 0.5])


def test_sample_deterministic():
    a = sample_parameters(0.4, 0.5, 25, seed=9)
    b = sample_parameters(0.4, 0.5, 25, seed=9)
    assert np.array_equal(a, b)


def test_sample_uniform_properties():
    s = sample_parameters(0.4, 0.5, 370, seed=3)
    assert s.size == 370
    assert s.min() == 0.4 and s.max() == 0.5
    assert np.all((s >= 0.4) & (s <= 0.5))
    assert np.unique(np.round(s, 6)).size >= 300
    assert np.all(np.diff(s) > 0)


def test_sample_count_error():
    with pytest.raises(ValueError):
        sample_parameters(0.4, 0.5, 1, seed=0)
    with pytest.raises(ValueError):
        sample_parameters(0.5, 0.4, 10, seed=0)


def _diag_w(n):
    return sp.identity(n, format="csr")


def test_pod_rank_one():
    rng = np.random.default_rng(0)
    s = rng.standard_normal(40)
    S = np.column_stack([2.0 * s, -1.0 * s, 0.5 * s])
    W = _diag_w(40)
    basis = pod_basis(S, W, eps=1e-8)
    assert basis.retained == 1
    direction = basis.vectors[:, 0]
    assert abs(abs(direction @ s) / np.linalg.norm(s) - 1.0) <= 1e-12
    # trace identity: sum of eigenvalues = mean squared W-norm of columns
    assert basis.eigenvalues.sum() == pytest.approx(
        np.mean(np.sum(S * S, axis=0)), rel=1e-10)


def test_pod_eps_zero_gives_numerical_rank():
    rng = np.random.default_rng(1)
    base = rng.standard_normal((30, 2))
    coeffs = rng.standard_normal((2, 6))
    basis = pod_basis(base @ coeffs, _diag_w(30), eps=0.0)
    assert basis.retained == 2


def test_pod_energy_thresholds():
    # two W-orthogonal columns with W-norms 2 and 1: eigenvalues are
    # proportional to {4, 1}, the leading energy fraction is 4/5
    S = np.zeros((10, 2))
    S[0, 0] = 2.0
    S[1, 1] = 1.0
    W = _diag_w(10)
    assert pod_basis(S, W, eps=0.19).retained == 2
    assert pod_basis(S, W, eps=0.21).retained == 1


def test_energy_cutoff_direct():
    lam = np.array([4.0, 1.0]) / 2.0
    assert energy_cutoff(lam, 0.19) == 2
    assert energy_cutoff(lam, 0.21) == 1
    assert energy_cutoff(lam, 0.0) == 2


def test_pod_all_zero_snapshots():
    with pytest.warns(UserWarning):
        basis = pod_basis(np.zeros((20, 4)), _diag_w(20), eps=1e-6)
    assert basis.retained == 0
    assert basis.vectors.shape == (20, 0)


@pytest.fixture(scope="module")
def snapshot_set(coarse_problem):
    params = sample_parameters(0.4, 0.5, 14, seed=2)
    return training_sweep(params, coarse_problem["ctx"],
                          coarse_problem["W"])[0]


def test_snapshots_zero_on_inactive(snapshot_set, coarse_problem):
    # snapshot rows are the ever-active DOFs
    ctx = coarse_problem["ctx"]
    for k, mu in enumerate(snapshot_set.params):
        ops = assemble_operators(ctx, float(mu))
        mask = ~np.isin(ctx.ever_active, ops.active_dofs)
        assert np.all(snapshot_set.S_y[mask, k] == 0.0)
        assert np.all(snapshot_set.S_u[mask, k] == 0.0)


def test_single_parameter_snapshot(coarse_problem):
    from cutrom import assemble_kkt, solve_kkt

    ctx = coarse_problem["ctx"]
    snaps = training_sweep([0.44], ctx, coarse_problem["W"])[0]
    ops = assemble_operators(ctx, 0.44)
    sol = solve_kkt(assemble_kkt(ops, coarse_problem["case"].alpha))
    assert np.array_equal(snaps.S_y[:, 0], sol.y[ctx.ever_active])
    assert np.array_equal(snaps.S_p[:, 0], sol.p[ctx.ever_active])


def test_duplicate_parameter_gives_identical_columns(coarse_problem):
    snaps = training_sweep([0.45, 0.45], coarse_problem["ctx"],
                           coarse_problem["W"])[0]
    assert np.array_equal(snaps.S_y[:, 0], snaps.S_y[:, 1])
    assert np.array_equal(snaps.S_u[:, 0], snaps.S_u[:, 1])


def test_pod_orthonormal_and_sorted(snapshot_set, coarse_problem):
    W = coarse_problem["W"]
    for S in (snapshot_set.S_y, snapshot_set.S_u, snapshot_set.S_p):
        basis = pod_basis(S, W, eps=1e-5, min_stored=10)
        V = basis.vectors
        gram = V.T @ (W @ V)
        assert np.abs(gram - np.eye(V.shape[1])).max() <= 1e-10
        lam = basis.eigenvalues
        assert np.all(np.diff(lam) <= 1e-30)
        assert np.all(lam >= 0.0)
        assert lam.size == S.shape[1]
        assert lam.sum() == pytest.approx(
            np.mean([c @ (W @ c) for c in S.T]), rel=1e-10)


def test_projection_optimality(snapshot_set, coarse_problem, rng):
    # retained leading directions beat any same-width eigvector subset
    W = coarse_problem["W"]
    S = snapshot_set.S_y
    m = S.shape[1]
    basis = pod_basis(S, W, eps=0.0)
    k = min(4, basis.retained)
    V = basis.vectors[:, :k]
    C = (S.T @ (W @ S)) / m
    lam, X = np.linalg.eigh((C + C.T) / 2)
    lam, X = lam[::-1], X[:, ::-1]
    pos = lam > lam[0] * 1e-12
    dirs = (S @ X[:, pos]) / np.sqrt(m * lam[pos])

    def proj_err(vecs, s):
        d = s - vecs @ (vecs.T @ (W @ s))
        return np.sqrt(d @ (W @ d))

    s = S[:, 3]
    best = proj_err(V, s)
    for _ in range(5):
        pick = rng.choice(dirs.shape[1], size=k, replace=False)
        assert best <= proj_err(dirs[:, pick], s) + 1e-12


def test_aggregate_drops_duplicates(snapshot_set, coarse_problem):
    W = coarse_problem["W"]
    by = pod_basis(snapshot_set.S_y, W, eps=1e-5)
    bu = pod_basis(snapshot_set.S_u, W, eps=1e-5)
    Vy = by.vectors[:, :by.retained]
    agg = aggregate_basis(Vy, bu.vectors[:, :bu.retained], Vy, W,
                          coarse_problem["ctx"].ever_active,
                          coarse_problem["mesh"].dof_count)
    assert agg.n_yp == Vy.shape[1]


def test_aggregate_orthogonal_inputs(coarse_problem):
    W = coarse_problem["W"]
    n = W.shape[0]
    Va = np.zeros((n, 2))
    Vb = np.zeros((n, 2))
    Va[0, 0] = Va[1, 1] = 1.0
    Vb[2, 0] = Vb[3, 1] = 1.0
    agg = aggregate_basis(Va, Va, Vb, W, coarse_problem["ctx"].ever_active,
                          coarse_problem["mesh"].dof_count)
    assert agg.n_yp == 4


def test_block_basis_orthonormal(snapshot_set, coarse_problem):
    W = coarse_problem["W"]
    bases = {v: pod_basis(getattr(snapshot_set, f"S_{v}"), W, 1e-5)
             for v in ("y", "u", "p")}
    agg = aggregate_basis(bases["y"].vectors[:, :bases["y"].retained],
                          bases["u"].vectors[:, :bases["u"].retained],
                          bases["p"].vectors[:, :bases["p"].retained], W,
                          coarse_problem["ctx"].ever_active,
                          coarse_problem["mesh"].dof_count)
    Vb = agg.block_matrix()
    W3 = sp.block_diag([W, W, W], format="csr")
    gram = (Vb.T @ (W3 @ Vb)).toarray()
    assert gram.shape == (2 * agg.n_yp + agg.n_u,) * 2
    assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-10
