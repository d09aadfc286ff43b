"""Acceptance suite: every criterion runs at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The main bundle works at the benchmark resolution (h = 0.09,
120 training parameters, 30 unseen test parameters); the timing criterion
uses a finer mesh so that both solver and assembly run in their asymptotic
regime.
"""

import time

import numpy as np
import pytest

from cutrom import LevelSetSquare, RunConfig, aggregate_basis, assemble_kkt, \
    assemble_operators, classify_elements, precompute_reduced_terms, \
    relative_error, rom_solve, solve_kkt, spectral_norm
from cutrom.deim import PartialAssembler, truncate_model
from cutrom.pipeline import MODES_SWEEP, build_problem, median_time, \
    run_offline, run_online, sample_test_parameters
from cutrom.pod import energy_cutoff
from cutrom.rom import assemble_reduced_system
from oracles import direct_projection, reduced_blocks_from_exact

SEED = 20240


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} {detail}".rstrip())
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """Offline bundle at the benchmark resolution plus cached test solves."""
    out = tmp_path_factory.mktemp("accept")
    cfg = RunConfig(h_target=0.09, m_train=120, m_test=30, seed=SEED,
                    eps_pod=1e-5, eps_deim=0.0, pod_store=40,
                    out_dir=str(out))
    t0 = time.perf_counter()
    bundle = run_offline(cfg)
    offline_seconds = time.perf_counter() - t0

    mus = sample_test_parameters(cfg)
    ops, fulls = [], []
    for mu in mus:
        o = assemble_operators(bundle.ctx, float(mu))
        ops.append(o)
        fulls.append(solve_kkt(assemble_kkt(o, cfg.alpha)))
    return {"cfg": cfg, "bundle": bundle, "mus": mus, "ops": ops,
            "fulls": fulls, "offline_seconds": offline_seconds}


def test_criterion_1_geometry_consistency(bench):
    mesh = bench["bundle"].mesh
    ft = bench["bundle"].face_table
    rng = np.random.default_rng(SEED + 1)
    t0 = time.perf_counter()
    area_ok = True
    per_errs = []
    worst_area = 0.0
    for mu in rng.uniform(0.4, 0.5, 20):
        geom = classify_elements(mesh, ft, LevelSetSquare(float(mu)))
        a_err = abs(geom.interior_weight_sum - 4 * mu * mu) / (4 * mu * mu)
        worst_area = max(worst_area, a_err)
        area_ok &= a_err <= 0.02
        per_errs.append(abs(geom.boundary_weight_sum - 8 * mu) / (8 * mu))
    elapsed = time.perf_counter() - t0
    mean_per = float(np.mean(per_errs))
    ok = area_ok and mean_per <= 0.02 and elapsed < 10.0
    _report(1, ok,
            f"area worst {worst_area:.4f} <= 0.02 each; perimeter mean "
            f"{mean_per:.4f} <= 0.02 (per-mu worst {max(per_errs):.4f}); "
            f"{elapsed:.1f}s < 10s")


def test_criterion_2_kkt_optimality(bench):
    ctx = bench["bundle"].ctx
    alpha = bench["cfg"].alpha
    rng = np.random.default_rng(SEED + 2)
    t0 = time.perf_counter()
    worst_gap = worst_res = 0.0
    for mu in rng.uniform(0.4, 0.5, 10):
        o = assemble_operators(ctx, float(mu))
        system = assemble_kkt(o, alpha)
        sol = solve_kkt(system)
        gap = np.linalg.norm(alpha * (o.M @ sol.u) - o.M @ sol.p)
        scale = np.linalg.norm(o.M @ sol.u) + np.linalg.norm(o.M @ sol.p) \
            + 1e-30
        res = np.linalg.norm(system.matrix @ sol.stacked() - system.rhs) \
            / (np.linalg.norm(system.rhs) + 1e-30)
        worst_gap = max(worst_gap, gap / scale)
        worst_res = max(worst_res, res)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-8 and worst_res <= 1e-9 and elapsed < 30.0
    _report(2, ok, f"optimality gap {worst_gap:.2e} <= 1e-8; residual "
                   f"{worst_res:.2e} <= 1e-9; {elapsed:.1f}s < 30s")


def test_criterion_3_deim_interpolation_exactness(bench):
    bundle = bench["bundle"]
    worst = 0.0
    for o in bench["ops"][:10]:
        exact = {"A": o.a_values, "M": o.m_values, "b": o.b, "c": o.c}
        for comp, model in bundle.deim_models.items():
            asm = bundle.rom.assemblers[comp]
            recon = asm.projector_apply(asm.theta(o.mu))
            recon_sel = recon[model.indices]
            ref = exact[comp][model.indices]
            scale = np.abs(ref).max() + 1e-300
            worst = max(worst, float(np.abs(recon_sel - ref).max() / scale))
    _report(3, worst <= 1e-12,
            f"reconstruction matches full assembly at all selected indices "
            f"to {worst:.2e} <= 1e-12 (10 unseen mu, all four components)")


def test_criterion_4_deim_accuracy(bench):
    bundle = bench["bundle"]
    t0 = time.perf_counter()
    tol = {"A": 0.05, "M": 5e-3, "b": 5e-3, "c": 5e-3}
    want = {"A": 30, "M": 10, "b": 10, "c": 10}
    means = {}
    dims = {}
    for comp, model in bundle.deim_models.items():
        m = min(want[comp], model.m)   # operator family rank caps m
        dims[comp] = m
        sub = truncate_model(model, m, bundle.ctx)
        asm = PartialAssembler(sub, bundle.ctx)
        errs = []
        for o in bench["ops"]:
            exact = {"A": o.A, "M": o.M, "b": o.b, "c": o.c}[comp]
            rec = asm.reconstruct(o.mu)
            if comp in ("A", "M"):
                errs.append(spectral_norm(rec - exact)
                            / spectral_norm(exact))
            else:
                errs.append(np.linalg.norm(rec - exact)
                            / np.linalg.norm(exact))
        means[comp] = float(np.mean(errs))
    sweep_seconds = time.perf_counter() - t0
    ok = all(means[c] <= tol[c] for c in means) \
        and bench["offline_seconds"] <= 900 and sweep_seconds <= 120
    detail = "; ".join(f"{c}: {means[c]:.2e} <= {tol[c]:g} at m={dims[c]}"
                       for c in ("A", "M", "b", "c"))
    _report(4, ok, detail + f"; offline {bench['offline_seconds']:.0f}s, "
                            f"sweep {sweep_seconds:.0f}s")


def test_criterion_5_rom_error_decay(bench):
    bundle = bench["bundle"]
    cfg = bench["cfg"]
    table = {}
    for k in MODES_SWEEP:
        basis_k = aggregate_basis(bundle.pod["y"].truncated(k),
                                  bundle.pod["u"].truncated(k),
                                  bundle.pod["p"].truncated(k), bundle.W,
                                  bundle.ctx.ever_active,
                                  bundle.mesh.dof_count)
        rom_k = precompute_reduced_terms(basis_k, bundle.deim_models,
                                         bundle.ctx, cfg.alpha)
        errs = np.zeros((len(bench["mus"]), 3))
        for i, mu in enumerate(bench["mus"]):
            sol = rom_solve(rom_k, float(mu))
            errs[i], _ = relative_error(bench["fulls"][i], sol,
                                        bench["ops"][i].M)
        table[k] = errs.mean(axis=0)
    ok_level = np.all(table[9] <= 2e-2)
    ok_start = np.all(table[1] > 0.1)
    ok_monotone = all(np.all(table[b] <= 1.1 * table[a])
                      for a, b in zip(MODES_SWEEP, MODES_SWEEP[1:]))
    ok = bool(ok_level and ok_start and ok_monotone)
    _report(5, ok,
            f"k=9 errors {np.round(table[9], 5)} <= 2e-2; k=1 "
            f"{np.round(table[1], 3)} > 0.1; non-increasing (10% ripple) "
            f"over k={MODES_SWEEP}")


def test_criterion_6_oracle_equivalence(bench):
    bundle = bench["bundle"]
    cfg = bench["cfg"]
    worst = 0.0
    for o in bench["ops"][:5]:
        K, rhs = assemble_reduced_system(
            *reduced_blocks_from_exact(bundle.basis, o), cfg.alpha)
        K_ref, rhs_ref = direct_projection(bundle.basis, o, cfg.alpha)
        worst = max(worst, float(np.abs(K - K_ref).max()),
                    float(np.abs(rhs - rhs_ref).max()))
    _report(6, worst <= 1e-10,
            f"block projection vs whole-system projection: {worst:.2e} "
            f"<= 1e-10 entrywise (5 mu)")


def test_criterion_7_pod_spectra(bench):
    bundle = bench["bundle"]
    ok = True
    details = []
    for var in ("y", "u", "p"):
        basis = bundle.pod[var]
        lam = basis.eigenvalues
        ok &= bool(np.all(np.diff(lam) <= 1e-30))
        S = getattr(bundle.snapshots, f"S_{var}")
        trace = np.mean([c @ (bundle.W @ c) for c in S.T])
        ok &= abs(lam.sum() - trace) <= 1e-10 * trace
        ok &= 5 <= basis.retained <= 80
        details.append(f"{var}: N={basis.retained}")
    _report(7, ok, ", ".join(details) + " all in [5, 80]; spectra sorted; "
                                        "trace identity to 1e-10")


@pytest.fixture(scope="module")
def speed_setup(tmp_path_factory):
    out = tmp_path_factory.mktemp("speed")
    cfg = RunConfig(h_target=0.0225, m_train=25, m_test=5, seed=SEED,
                    eps_pod=1e-5, eps_deim=1e-10, pod_store=20,
                    out_dir=str(out))
    bundle = run_offline(cfg)
    return cfg, bundle


def _paired_medians(slow_fn, fast_fn, repeats=11):
    """Interleaved timing so load changes hit both paths alike."""
    slow_fn(), fast_fn()        # warm caches and lazy allocations
    slow, fast = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        slow_fn()
        t1 = time.perf_counter()
        fast_fn()
        t2 = time.perf_counter()
        slow.append(t1 - t0)
        fast.append(t2 - t1)
    return float(np.median(slow)), float(np.median(fast))


def test_criterion_8_speedups(speed_setup):
    cfg, bundle = speed_setup
    rom = bundle.rom
    mu0 = 0.4437
    assert bundle.mesh.dof_count >= 900
    assert rom.reduced_dim <= 133
    m_a = bundle.deim_models["A"].m
    assert m_a <= 30

    ops0 = assemble_operators(bundle.ctx, mu0)
    t_solve, t_rom = _paired_medians(
        lambda: solve_kkt(assemble_kkt(ops0, cfg.alpha)),
        lambda: rom_solve(rom, mu0, lift=False))

    m_a = min(10, m_a)
    model_a = truncate_model(bundle.deim_models["A"], m_a, bundle.ctx)
    asm = PartialAssembler(model_a, bundle.ctx)
    t_full_a, t_recon = _paired_medians(
        lambda: bundle.ctx.assemble_component(
            classify_elements(bundle.mesh, bundle.face_table,
                              LevelSetSquare(mu0)), "A"),
        lambda: asm.reconstruct(mu0))
    rom_speedup = t_solve / t_rom
    deim_speedup = t_full_a / t_recon
    ok = rom_speedup >= 3.0 and deim_speedup >= 5.0
    _report(8, ok,
            f"N={bundle.mesh.dof_count}, dim={rom.reduced_dim}, m_A={m_a}: "
            f"ROM solve {rom_speedup:.1f}x >= 3x; DEIM A reconstruction "
            f"{deim_speedup:.1f}x >= 5x")


def test_supplemental_reference_parameter_error_magnitude(bench):
    # reported reference point: relative errors a few 1e-3; require the
    # same order of magnitude on this mesh
    bundle = bench["bundle"]
    mu0 = 0.4757
    ops = assemble_operators(bundle.ctx, mu0)
    full = solve_kkt(assemble_kkt(ops, bench["cfg"].alpha))
    sol = rom_solve(bundle.rom, mu0)
    errs, _ = relative_error(full, sol, ops.M)
    assert np.all(errs <= 0.04), errs


def test_criterion_9_reproducibility(tmp_path_factory):
    reports = []
    for tag in ("r1", "r2"):
        out = tmp_path_factory.mktemp(tag)
        cfg = RunConfig(h_target=0.18, m_train=25, m_test=8, seed=SEED,
                        pod_store=15, out_dir=str(out))
        run_offline(cfg)
        run_online(cfg)
        blobs = {}
        for name in ("offline_summary.csv", "online_errors.csv",
                     "deim_errors.csv", "modes_sweep.csv"):
            blobs[name] = (out / name).read_bytes()
        reports.append(blobs)
    same = all(reports[0][n] == reports[1][n] for n in reports[0])
    _report(9, same, "two offline+online runs produced byte-identical "
                     "error reports (timings excluded)")
