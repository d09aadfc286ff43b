import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cutrom import RunConfig, load_bundle, run_offline, run_online, \
    run_verify, sample_parameters
from cutrom.pipeline import sample_test_parameters
from cutrom.cli import main as cli_main
from cutrom.deim import truncate_model
from cutrom.errors import ConfigError
from cutrom.pod import energy_cutoff
from cutrom.storage import load_index_list, load_matrix, read_csv, \
    save_index_list, save_matrix
from oracles import reselect_deim_model

TINY = dict(h_target=0.3, m_train=5, m_test=4, seed=5, pod_store=5)


def _write_cfg(path: Path, **kw) -> Path:
    cfg_path = path / "run.cfg"
    lines = [f"{k} = {v}" for k, v in kw.items()]
    cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg_path


@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg = RunConfig(**TINY, out_dir=str(out))
    t0 = time.perf_counter()
    bundle = run_offline(cfg)
    elapsed = time.perf_counter() - t0
    return {"cfg": cfg, "out": out, "bundle": bundle, "elapsed": elapsed}


def test_tiny_offline_completes_quickly(tiny_bundle):
    assert tiny_bundle["elapsed"] < 30.0
    # exactly these files: the aggregated basis, the reduced terms and the
    # DEIM projectors and reduced meshes are derived on load, and no lock
    # or stray write is left behind
    expected = {"config.resolved", "mesh_fingerprint.txt", "manifest.json",
                "offline_summary.csv", "offline_timings.csv",
                "params_train.romb", "pod_retained.txt", "deim_theta.romb",
                "deim_theta_edges.romb"}
    expected |= {f"snap_{v}.romb" for v in "yup"}
    expected |= {f"pod_{kind}_{v}.romb" for kind in ("basis", "eigs")
                 for v in "yup"}
    expected |= {f"deim_{c}_{part}" for c in "AMbc"
                 for part in ("U.romb", "eigs.romb", "indices.txt")}
    assert len(expected) == 30
    assert {p.name for p in tiny_bundle["out"].iterdir()} == expected


def test_retained_dims_match_energy_criterion(tiny_bundle):
    # self-consistency: recompute the cutoff from the persisted spectrum
    out = tiny_bundle["out"]
    cfg = tiny_bundle["cfg"]
    from cutrom.storage import load_index_list
    retained = load_index_list(out / "pod_retained.txt")
    for k, var in enumerate("yup"):
        lam = load_matrix(out / f"pod_eigs_{var}.romb").ravel()
        assert retained[k] == min(
            energy_cutoff(lam, cfg.eps_pod),
            tiny_bundle["bundle"].pod[var].stored) \
            or retained[k] == energy_cutoff(lam, cfg.eps_pod)


def test_offline_rerun_identical_summaries(tmp_path):
    cfg_a = RunConfig(**TINY, out_dir=str(tmp_path / "a"))
    cfg_b = RunConfig(**TINY, out_dir=str(tmp_path / "b"))
    run_offline(cfg_a)
    run_offline(cfg_b)
    a = (tmp_path / "a" / "offline_summary.csv").read_bytes()
    b = (tmp_path / "b" / "offline_summary.csv").read_bytes()
    assert a == b


def test_bundle_roundtrip(tiny_bundle):
    bundle = load_bundle(tiny_bundle["out"])
    ref = tiny_bundle["bundle"]
    assert np.array_equal(bundle.params, ref.params)
    assert np.array_equal(bundle.basis.V_yp, ref.basis.V_yp)
    assert np.array_equal(bundle.basis.V_u, ref.basis.V_u)
    assert bundle.basis.V_u.flags.c_contiguous
    for comp in "AMbc":
        assert np.array_equal(bundle.deim_models[comp].indices,
                              ref.deim_models[comp].indices)
        assert np.array_equal(bundle.deim_models[comp].projector,
                              ref.deim_models[comp].projector)
    assert np.array_equal(bundle.rom.A_terms, ref.rom.A_terms)


def test_built_and_reloaded_bundle_agree_bitwise(tiny_bundle):
    # one projector layout: a model gives the same bits whether the offline
    # run returned it or it was read back
    from cutrom import rom_solve

    built = tiny_bundle["bundle"]
    loaded = load_bundle(tiny_bundle["out"], tiny_bundle["cfg"])
    for mu in (0.4137, 0.4521, 0.4986):
        for comp, model in built.deim_models.items():
            other = loaded.deim_models[comp]
            assert model.projector.flags.c_contiguous
            theta = built.rom.assemblers[comp].theta(mu)
            a = model.interpolate(theta, built.ctx)
            b = other.interpolate(theta, loaded.ctx)
            if comp in "AM":
                assert np.array_equal(a.indptr, b.indptr)
                assert np.array_equal(a.indices, b.indices)
                a, b = a.data, b.data
            assert np.array_equal(a, b), (comp, mu)
        sa, sb = rom_solve(built.rom, mu), rom_solve(loaded.rom, mu)
        for name in ("y_N", "u_N", "p_N", "y", "u", "p"):
            assert np.array_equal(getattr(sa, name), getattr(sb, name)), name


def test_bundle_without_theta_table_exits_2(tiny_bundle, tmp_path, capsys):
    # a bundle without its theta table fails the load of the snapshots
    # stage, which stores the DEIM models, with the rerun hint
    import shutil

    out = tmp_path / "old"
    shutil.copytree(tiny_bundle["out"], out)
    (out / "deim_theta_edges.romb").unlink()
    (out / "deim_theta.romb").unlink()
    cfg_path = _write_cfg(tmp_path, **TINY, out_dir=str(out))
    assert cli_main(["online", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "stage 'snapshots'" in err \
        and "rerun offline with 'snapshots'" in err
    cfg_path = _write_cfg(tmp_path, **TINY, out_dir=str(out),
                          stages="snapshots")
    assert cli_main(["offline", "--config", str(cfg_path)]) == 0
    # the rerun dropped the record of pod, which reads snapshots
    assert cli_main(["online", "--config", str(cfg_path)]) == 2
    assert "stage 'pod'" in capsys.readouterr().err
    cfg_path = _write_cfg(tmp_path, **TINY, out_dir=str(out), stages="pod")
    assert cli_main(["offline", "--config", str(cfg_path)]) == 0
    assert cli_main(["online", "--config", str(cfg_path)]) == 0


def test_truncation_bitwise_equals_reselection(tiny_bundle):
    # greedy step l reads only the first l modes, so the first m stored
    # indices are the ones a selection on the first m modes returns, with
    # the same projector and reduced mesh
    ctx = tiny_bundle["bundle"].ctx
    for comp, model in tiny_bundle["bundle"].deim_models.items():
        for m in range(1, model.m + 1):
            got = truncate_model(model, m, ctx)
            ref = reselect_deim_model(model, m, ctx)
            for name in ("indices", "projector", "reduced_elements",
                         "reduced_facets"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), \
                    (comp, m, name)


def _corrupt(kind, U, idx, kept, size):
    """A component's U and indices with one kind of corruption; ``kept``
    are its ever-active entries among ``size`` offsets (DOFs for b, c)."""
    U, idx = U.copy(), idx.copy()
    if kind == "index_out_of_range":
        idx[0] = 999999
    elif kind == "index_repeated":
        idx[-1] = idx[0]
    elif kind == "index_off_ever_active":
        idx[0] = np.setdiff1d(np.arange(size), kept)[0]
    elif kind == "basis_rows":
        U = U[1:]
    elif kind == "basis_modes":
        U = U[:, :-1]
    else:       # two equal rows of U at the indices: P^T U is singular
        rows = np.searchsorted(kept, idx)
        U[rows[1]] = U[rows[0]]
    return U, idx


@pytest.mark.parametrize("comp,kind", [
    ("A", "index_out_of_range"), ("M", "index_repeated"),
    ("b", "index_off_ever_active"), ("c", "basis_rows"),
    ("A", "basis_modes"), ("M", "basis_singular")])
def test_corrupt_deim_files_exit_2(tiny_bundle, tmp_path, capsys, comp,
                                   kind):
    # the load derives every model from its U and indices and rejects
    # files they do not fit, so online and verify end in a config error
    import shutil

    out = tmp_path / "b"
    shutil.copytree(tiny_bundle["out"], out)
    ctx = tiny_bundle["bundle"].ctx
    size = ctx.mesh.dof_count if comp in "bc" else ctx.patterns[comp].nnz
    assert tiny_bundle["bundle"].deim_models[comp].m >= 2
    U, idx = _corrupt(kind, load_matrix(out / f"deim_{comp}_U.romb"),
                      load_index_list(out / f"deim_{comp}_indices.txt"),
                      ctx.kept[comp], size)
    save_matrix(out / f"deim_{comp}_U.romb", U)
    save_index_list(out / f"deim_{comp}_indices.txt", idx)
    cfg_path = _write_cfg(tmp_path, **TINY, out_dir=str(out))
    for command in ("online", "verify"):
        assert cli_main([command, "--config", str(cfg_path)]) == 2, command
        err = capsys.readouterr().err
        assert "stage 'snapshots'" in err and "DEIM" in err \
            and f" of {comp} " in err, (command, err)


def test_bundle_with_stored_projectors_loads_the_same(tiny_bundle, tmp_path):
    # bundles of earlier builds also stored each model's projector and
    # reduced mesh; the load derives the same bits from U and the indices,
    # and a rebuild of the snapshots stage deletes the stored copies
    import shutil

    from cutrom import rom_solve

    out = tmp_path / "b"
    shutil.copytree(tiny_bundle["out"], out)
    fresh = {p.name for p in out.iterdir()}
    built = tiny_bundle["bundle"]
    for comp, model in built.deim_models.items():
        save_matrix(out / f"deim_{comp}_proj.romb", model.projector)
        save_index_list(out / f"deim_{comp}_elements.txt",
                        model.reduced_elements)
        save_index_list(out / f"deim_{comp}_facets.txt",
                        model.reduced_facets)
    assert len({p.name for p in out.iterdir()} - fresh) == 12
    loaded = load_bundle(out, tiny_bundle["cfg"])
    for comp, model in built.deim_models.items():
        for name in ("U", "indices", "projector", "reduced_elements",
                     "reduced_facets", "eigenvalues"):
            a, b = getattr(model, name), getattr(loaded.deim_models[comp],
                                                 name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (comp, name)
    for name in ("A_terms", "M_yp_terms", "M_u_terms", "M_uyp_terms",
                 "b_terms", "c_terms"):
        assert np.array_equal(getattr(built.rom, name),
                              getattr(loaded.rom, name)), name
    edges = built.rom.table.edges
    for mu in (0.4137, 0.4521, 0.4986, edges[1] + 1e-10):
        sa, sb = rom_solve(built.rom, mu), rom_solve(loaded.rom, mu)
        for name in ("y_N", "u_N", "p_N", "y", "u", "p"):
            assert np.array_equal(getattr(sa, name), getattr(sb, name)), \
                (mu, name)
    run_offline(RunConfig(**{**TINY, "stages": "snapshots"},
                          out_dir=str(out)))
    assert {p.name for p in out.iterdir()} == fresh


def test_stale_bundle_detected(tiny_bundle, tmp_path):
    out = tiny_bundle["out"]
    text = (out / "config.resolved").read_text()
    (out / "config.resolved").write_text(
        text.replace("h_target = 0.3", "h_target = 0.25"))
    try:
        with pytest.raises(ConfigError, match="fingerprint"):
            load_bundle(out)
    finally:
        (out / "config.resolved").write_text(text)


def test_lock_of_exited_process_is_reclaimed(tmp_path):
    out = tmp_path / "b"
    out.mkdir()
    child = subprocess.run([sys.executable, "-c",
                            "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    (out / ".lock").write_text(child.stdout, encoding="ascii")
    assert _cli(tmp_path, "offline", out) == 0
    assert not (out / ".lock").exists()


def test_lock_of_live_process_is_held(tmp_path, capsys):
    out = tmp_path / "b"
    out.mkdir()
    (out / ".lock").write_text(f"{os.getpid()}\n", encoding="ascii")
    assert _cli(tmp_path, "offline", out) == 2
    assert f"PID {os.getpid()}" in capsys.readouterr().err
    assert (out / ".lock").read_text(encoding="ascii") == f"{os.getpid()}\n"
    assert not (out / "manifest.json").exists()


def test_output_lock(tiny_bundle):
    out = tiny_bundle["out"]
    (out / ".lock").touch()
    try:
        with pytest.raises(ConfigError, match="locked"):
            run_offline(tiny_bundle["cfg"])
    finally:
        (out / ".lock").unlink()


def test_online_reports(tiny_bundle):
    out = tiny_bundle["out"]
    cfg = tiny_bundle["cfg"]
    snap_mtime = (out / "snap_y.romb").stat().st_mtime_ns
    summary = run_online(cfg)
    # online never regenerates snapshots
    assert (out / "snap_y.romb").stat().st_mtime_ns == snap_mtime
    for name in ("online_errors.csv", "deim_errors.csv", "modes_sweep.csv",
                 "timings.csv"):
        assert (out / name).is_file()
    header, rows = read_csv(out / "online_errors.csv")
    assert header[:4] == ["mu", "err_y", "err_u", "err_p"]
    assert len(rows) == cfg.m_test

    # error columns reproduce the library computation exactly
    from cutrom import assemble_kkt, assemble_operators, relative_error, \
        rom_solve, solve_kkt
    bundle = load_bundle(out)
    mu = float(rows[0][0])
    ops = assemble_operators(bundle.ctx, mu)
    full = solve_kkt(assemble_kkt(ops, cfg.alpha))
    sol = rom_solve(bundle.rom, mu)
    errs, _ = relative_error(full, sol, ops.M)
    for k in range(3):
        assert abs(float(rows[0][1 + k]) - errs[k]) <= 1e-14


def test_deim_at_rank_keeps_modes_sweep_decaying(tmp_path):
    # every DEIM dimension is the numerical rank of its operator snapshots,
    # and with it the k=25 row of modes_sweep.csv is no worse than the k=15
    # one; DEIM models cut below that rank met the richer k=25 basis and
    # made it worse (up to 54 times at the default config, 2.7 times here,
    # the cheapest variant of it where the cut showed)
    out = tmp_path / "b"
    cfg = RunConfig(m_train=120, m_test=10, out_dir=str(out))
    run_offline(cfg)
    run_online(cfg)
    _, rows = read_csv(out / "offline_summary.csv")
    dims = {comp: int(v) for rec, comp, _, v in rows if rec == "deim_dim"}
    for comp, m in dims.items():
        lam = np.array([float(v) for rec, c, _, v in rows
                        if rec == "deim_eigenvalue" and c == comp])
        assert m == np.sum(lam > lam[0] * lam.size * np.finfo(float).eps)
    assert set(dims) == set("AMbc")
    _, rows = read_csv(out / "modes_sweep.csv")
    errs = {int(k): [float(e) for e in row] for k, _, *row in rows}
    assert all(a <= b for a, b in zip(errs[25], errs[15])), errs


def test_deim_sweep_row_of_model_dimension_is_main_loop_mean(tiny_bundle,
                                                             monkeypatch):
    # the deim_errors.csv row at a model's own dimension is the mean of its
    # online_errors.csv column, not a second reconstruction
    from cutrom import pipeline

    out = tiny_bundle["out"]
    dims = {c: m.m for c, m in tiny_bundle["bundle"].deim_models.items()}
    monkeypatch.setattr(pipeline, "DEIM_SWEEP", tuple(set(dims.values())))
    truncated = []
    monkeypatch.setattr(pipeline, "truncate_model",
                        lambda model, m, *a: truncated.append(m))
    run_online(tiny_bundle["cfg"])
    header, rows = read_csv(out / "online_errors.csv")
    _, deim_rows = read_csv(out / "deim_errors.csv")
    checked = set()
    for comp, m, value in deim_rows:
        if int(m) == dims[comp]:
            col = header.index(f"deim_err_{comp}")
            assert float(value) == float(np.mean(
                [float(row[col]) for row in rows])), comp
            checked.add(comp)
    assert checked == set(dims) and truncated == []


def test_deim_dims_above_stored_dimension_exit_2(tiny_bundle, tmp_path,
                                                 capsys, monkeypatch):
    from cutrom import pipeline

    stored = tiny_bundle["bundle"].deim_models["A"].m
    cfg_path = _write_cfg(tmp_path, **TINY, out_dir=str(tiny_bundle["out"]))
    assembled = []
    monkeypatch.setattr(pipeline, "assemble_operators",
                        lambda *a, **k: assembled.append(a))
    assert cli_main(["online", "--config", str(cfg_path), "--deim-dims",
                     f"{stored + 1},1,1,1"]) == 2
    err = capsys.readouterr().err
    assert f"{stored + 1} modes of A" in err and f"is {stored}" in err
    assert assembled == []


@pytest.mark.parametrize("override", [False, True],
                         ids=["stored", "deim_dims"])
def test_report_deim_errors_match_per_model_reconstruction(
        tiny_bundle, tmp_path, override):
    # every DEIM error of the report is read from one fused theta per test
    # parameter; one reconstruct per component, dimension and parameter
    # gives the same bytes, also under --deim-dims with one dimension at
    # its stored value
    import shutil

    from oracles import report_deim_errors

    out = tmp_path / "copy"
    shutil.copytree(tiny_bundle["out"], out)
    # loaded as run_online loads it: the projectors an offline run returns
    # are in Fortran order and their products round differently
    bundle = load_bundle(out, tiny_bundle["cfg"])
    stored = {c: model.m for c, model in bundle.deim_models.items()}
    dims = None
    if override:
        dims = {c: max(m - 1, 1) for c, m in stored.items()}
        dims["A"] = stored["A"]
        assert dims != stored
    result = run_online(tiny_bundle["cfg"], out, deim_dims=dims)
    columns, deim_rows = report_deim_errors(bundle, result["test_params"],
                                            dims)
    header, rows = read_csv(out / "online_errors.csv")
    for comp in "AMbc":
        col = header.index(f"deim_err_{comp}")
        assert [float(row[col]) for row in rows] == columns[comp], comp
    _, csv_rows = read_csv(out / "deim_errors.csv")
    assert [(c, int(m), float(v)) for c, m, v in csv_rows] == deim_rows


def test_online_assembles_only_in_timed_reconstructs(tiny_bundle,
                                                     monkeypatch):
    # the report reads every theta from the stored table: partial assembly
    # runs only in the timing report's reconstruct calls of each component,
    # and loading the bundle runs none
    from cutrom import pipeline
    from cutrom.deim import PartialAssembler

    calls = []
    theta = PartialAssembler.theta
    monkeypatch.setattr(PartialAssembler, "theta",
                        lambda self, mu: calls.append(mu) or theta(self, mu))
    load_bundle(tiny_bundle["out"], tiny_bundle["cfg"])
    assert calls == []
    reconstruct = PartialAssembler.reconstruct
    timed = []
    monkeypatch.setattr(PartialAssembler, "reconstruct",
                        lambda self, mu: timed.append(len(calls))
                        or reconstruct(self, mu))
    run_online(tiny_bundle["cfg"])
    assert len(calls) == len(timed) == 4 * pipeline.TIMING_REPEATS
    # each call came from the reconstruct that was entered just before it
    assert timed == list(range(len(calls)))


def test_online_deterministic(tiny_bundle, tmp_path):
    cfg = tiny_bundle["cfg"]
    out = tiny_bundle["out"]
    run_online(cfg)
    first = {n: (out / n).read_bytes()
             for n in ("online_errors.csv", "deim_errors.csv",
                       "modes_sweep.csv")}
    run_online(cfg)
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_online_overrides(tiny_bundle):
    cfg = tiny_bundle["cfg"]
    summary = run_online(cfg, modes=2, deim_dims={"A": 2, "M": 2,
                                                  "b": 2, "c": 2})
    assert summary["errors"]


def test_parameter_streams_disjoint():
    cfg = RunConfig(seed=123, m_test=10_000, m_train=10_000)
    train = sample_parameters(cfg.mu_min, cfg.mu_max, cfg.m_train, cfg.seed)
    test = sample_test_parameters(cfg)
    both = np.concatenate([train, test])
    order = np.argsort(both)
    gaps = np.diff(both[order])
    labels = (np.arange(both.size) >= train.size)[order]
    same_pair = (gaps <= 1e-12) & (labels[:-1] != labels[1:])
    assert not np.any(same_pair)


def test_smoke_mid_resolution(tmp_path):
    # mid-size end-to-end: all optimality residuals are checked internally
    cfg = RunConfig(h_target=0.18, m_train=50, m_test=3, seed=21,
                    pod_store=10, out_dir=str(tmp_path / "mid"))
    run_offline(cfg)
    summary = run_online(cfg)
    errs = np.array([row[1:4] for row in summary["errors"]], dtype=float)
    assert np.all(errs < 0.05)


def test_stage_selectors_reuse_artifacts(tmp_path):
    out = tmp_path / "staged"
    base = dict(TINY, out_dir=str(out))
    run_offline(RunConfig(**{**base, "stages": "snapshots"}))
    # the training sweep's operator snapshots give the DEIM models
    assert (out / "snap_y.romb").is_file()
    assert (out / "deim_A_U.romb").is_file()
    assert not (out / "pod_basis_y.romb").exists()
    mtimes = {name: (out / name).stat().st_mtime_ns
              for name in ("snap_y.romb", "deim_A_U.romb")}
    run_offline(RunConfig(**{**base, "stages": "pod"}))
    assert {name: (out / name).stat().st_mtime_ns
            for name in mtimes} == mtimes
    assert (out / "pod_basis_y.romb").is_file()
    # the staged bundle is equivalent to a single-shot run
    staged = load_bundle(out)
    full = run_offline(RunConfig(**TINY, out_dir=str(tmp_path / "oneshot")))
    assert np.array_equal(staged.basis.V_yp, full.basis.V_yp)
    assert np.array_equal(staged.rom.A_terms, full.rom.A_terms)


def test_verify_passes_on_bundle(tiny_bundle):
    checks = run_verify(tiny_bundle["cfg"])
    failed = [c for c in checks if not c[1]]
    assert not failed, failed
    table = tiny_bundle["bundle"].rom.table
    (detail,) = [d for name, _, d in checks
                 if name == "theta_table_matches_partial_assembly"]
    assert detail.endswith(f"over {table.edges.size - 1} intervals at "
                           f"degree {table.degree}")
    # at h = 0.3 a side of the square passes through vertices at mu = 13/30
    (detail,) = [d for name, _, d in checks
                 if name == "geometry_mesh_aligned_mu"]
    assert detail.startswith("mu=0.4333333: classification equals ")
    assert detail.endswith(" 0 empty active mass rows")


def test_verify_skips_mesh_aligned_check_without_aligned_mu(tmp_path):
    cfg = RunConfig(**{**TINY, "mu_min": 0.44, "mu_max": 0.45},
                    out_dir=str(tmp_path / "bundle"))
    run_offline(cfg)
    checks = run_verify(cfg)
    assert all(ok for _, ok, _ in checks)
    assert ("geometry_mesh_aligned_mu", True,
            "skipped: no mesh-aligned mu in [0.44, 0.45]") in checks


def test_verify_fails_on_rom_that_misses_its_snapshots(tmp_path, capsys):
    # doubled state snapshots leave the stored POD bases, and so the ROM,
    # as they were: only the snapshot check can see the mismatch
    out = tmp_path / "bundle"
    cfg_path = _write_cfg(tmp_path, **TINY, out_dir=str(out))
    assert cli_main(["offline", "--config", str(cfg_path)]) == 0
    save_matrix(out / "snap_y.romb", 2.0 * load_matrix(out / "snap_y.romb"))
    capsys.readouterr()
    assert cli_main(["verify", "--config", str(cfg_path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if not line.startswith("PASS ")]
    assert len(lines) > 1 and len(failed) == 1
    assert failed[0].startswith("FAIL rom_reproduces_training_snapshots ")


def test_mu_range_must_fit_box():
    # reach = mu_max + one cell layer = 0.5 + 0.2 exceeds the box margin
    cfg = RunConfig(box_min_x=0.35, box_min_y=0.35, box_max_x=1.65,
                    box_max_y=1.65, h_target=0.2)
    with pytest.raises(ConfigError, match="does not fit"):
        from cutrom.pipeline import build_problem
        build_problem(cfg)


def test_cli_roundtrip(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, h_target=0.3, m_train=4, m_test=2,
                          seed=3, pod_store=4,
                          out_dir=str(tmp_path / "cli_out"))
    assert cli_main(["offline", "--config", str(cfg_path)]) == 0
    assert cli_main(["online", "--config", str(cfg_path)]) == 0
    assert cli_main(["verify", "--config", str(cfg_path)]) == 0
    assert cli_main(["report", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "offline summary" in out
    assert "online errors" in out
    assert "ever_active_dofs" in out and "ever_active_entries      A" in out


def test_cli_error_codes(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert cli_main(["offline", "--config", str(missing)]) == 2
    cfg_path = _write_cfg(tmp_path, h_target=0.3, m_train=4, m_test=2,
                          seed=3, out_dir=str(tmp_path / "x"))
    assert cli_main(["online", "--config", str(cfg_path)]) == 2  # no bundle
    bad = _write_cfg(tmp_path / "..", h_target=0.3) if False else None
    assert cli_main(["online", "--config", str(cfg_path),
                     "--deim-dims", "1,2"]) == 2
    assert cli_main(["online", "--config", str(cfg_path),
                     "--deim-dims", "a,b,c,d"]) == 2
    capsys.readouterr()
    for k in ("0", "-1"):
        assert cli_main(["online", "--config", str(cfg_path),
                         "--modes", k]) == 2
        assert "--modes" in capsys.readouterr().err
    assert cli_main(["offline", "--config", str(cfg_path),
                     "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    for key, value in (("case", "nope"), ("mu_min", "0"), ("seed", "-1"),
                       ("box_min_x", "3.0"), ("eps_deim", "1e-10"),
                       ("stages", "deim")):
        bad = _write_cfg(tmp_path, h_target=0.3, m_train=4, m_test=2,
                         out_dir=str(tmp_path / "bad"), **{key: value})
        assert cli_main(["offline", "--config", str(bad)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


def test_cli_seed_override(tmp_path):
    cfg_path = _write_cfg(tmp_path, h_target=0.3, m_train=4, m_test=2,
                          seed=3, pod_store=4,
                          out_dir=str(tmp_path / "s"))
    assert cli_main(["offline", "--config", str(cfg_path),
                     "--seed", "99"]) == 0
    cfg_text = (tmp_path / "s" / "config.resolved").read_text()
    assert "seed = 99" in cfg_text


RERUN = dict(h_target=0.3, m_train=8, m_test=2, seed=5, pod_store=5)


def _cli(tmp_path, command, out, **kw):
    cfg_path = _write_cfg(tmp_path, **{**RERUN, "out_dir": str(out), **kw})
    return cli_main([command, "--config", str(cfg_path)])


def test_pod_rerun_serves_online_at_once(tmp_path):
    out = tmp_path / "b"
    assert _cli(tmp_path, "offline", out) == 0
    assert _cli(tmp_path, "offline", out, stages="pod", eps_pod=1e-2) == 0
    assert _cli(tmp_path, "online", out, eps_pod=1e-2) == 0
    oneshot = tmp_path / "oneshot"
    assert _cli(tmp_path, "offline", oneshot, eps_pod=1e-2) == 0
    staged, ref = load_bundle(out), load_bundle(oneshot)
    assert staged.rom.A_terms.shape == ref.rom.A_terms.shape
    assert np.array_equal(staged.rom.A_terms, ref.rom.A_terms)


def test_snapshot_rerun_with_new_seed_is_rejected_online(tmp_path, capsys):
    out = tmp_path / "b"
    assert _cli(tmp_path, "offline", out) == 0
    assert _cli(tmp_path, "offline", out, stages="snapshots", seed=15) == 0
    capsys.readouterr()
    assert _cli(tmp_path, "online", out, seed=15) == 2
    assert "'pod'" in capsys.readouterr().err
    assert _cli(tmp_path, "online", out) == 2


def test_deim_rerun_against_other_seed_writes_nothing(tmp_path, capsys):
    out = tmp_path / "b"
    assert _cli(tmp_path, "offline", out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert _cli(tmp_path, "offline", out, stages="pod", seed=6) == 2
    err = capsys.readouterr().err
    assert "'snapshots'" in err and "seed=5" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_format_2_manifest_is_rejected(tmp_path, capsys):
    # format 2 stored every row of the snapshots and bases; format 3 cut
    # the DEIM models below the rank of the operator snapshots; format 4
    # stored a theta table per component
    import json

    out = tmp_path / "b"
    assert _cli(tmp_path, "offline", out) == 0
    path = out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for fmt in (2, 3, 4):
        path.write_text(json.dumps({**manifest, "format": fmt}),
                        encoding="utf-8")
        capsys.readouterr()
        assert _cli(tmp_path, "online", out) == 2
        assert f"outdated format {fmt}" in capsys.readouterr().err
        assert _cli(tmp_path, "verify", out) == 2
        assert _cli(tmp_path, "offline", out, stages="pod") == 2
    assert _cli(tmp_path, "offline", out) == 0
    assert _cli(tmp_path, "online", out) == 0


def test_format_1_manifest_is_rejected(tmp_path, capsys):
    # format 1 had no stage records
    out = tmp_path / "b"
    assert _cli(tmp_path, "offline", out) == 0
    (out / "manifest.json").write_text('{"format": 1}\n', encoding="utf-8")
    capsys.readouterr()
    assert _cli(tmp_path, "online", out) == 2
    assert "outdated format 1" in capsys.readouterr().err
    assert _cli(tmp_path, "verify", out) == 2
    assert _cli(tmp_path, "offline", out, stages="pod") == 2
    assert _cli(tmp_path, "offline", out) == 0
    assert _cli(tmp_path, "online", out) == 0


@pytest.mark.parametrize("seed", [2304, 2337, 2401])
def test_reduced_solve_drops_directions_off_the_active_mesh(tmp_path, seed):
    # at these seeds the modes_sweep ROMs with every stored POD mode have
    # state/adjoint directions whose lift vanishes on the active mesh of a
    # test parameter, and their reduced system is singular; the solve
    # drops those directions, as the truth solve pins inactive DOFs
    out = tmp_path / "b"
    cfg_path = _write_cfg(tmp_path, h_target=0.3, m_train=8, m_test=2,
                          seed=seed, out_dir=str(out))
    for command in ("offline", "online", "verify"):
        assert cli_main([command, "--config", str(cfg_path)]) == 0, command
    _, rows = read_csv(out / "timings.csv")
    assert int(dict(rows)["rom_deflated_dims_max"]) > 0
    # the rows with every stored mode are no worse than the k=5 row
    _, rows = read_csv(out / "modes_sweep.csv")
    errs = {int(k): [float(e) for e in row] for k, _, *row in rows}
    assert all(a <= b for a, b in zip(errs[25], errs[5])), errs


def test_benchmark_trace_sites_exist():
    # perfbench wraps these attributes by name; each must still exist
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, _name, _hook in tracing.targets():
        assert attr in vars(owner), (owner, attr)


def test_benchmark_read_contract(coarse_problem, tiny_bundle):
    # perfbench/workloads.py and perfbench/tracing.py read these names
    from cutrom import kkt, pipeline, rom

    assert len(pipeline.build_problem(coarse_problem["cfg"])) == 5
    ops = pipeline.assemble_operators(coarse_problem["ctx"], 0.45)
    n = ops.A.shape[0]
    system = kkt.assemble_kkt(ops, coarse_problem["case"].alpha)
    assert system.matrix.shape == (3 * n, 3 * n)
    assert system.rhs.shape == (3 * n,)
    assert system.active_dofs.size > 0
    sol = kkt.solve_kkt(system)
    assert sol.solve_time > 0.0 and sol.mu == 0.45
    assert sol.stacked().shape == (3 * n,)
    timings = rom.rom_solve(tiny_bundle["bundle"].rom, 0.45).timings
    assert {"form", "solve", "lift"} <= set(timings)


def test_full_residual_in_timings(tiny_bundle):
    from cutrom.kkt import RESIDUAL_TOL

    run_online(tiny_bundle["cfg"])
    _, rows = read_csv(tiny_bundle["out"] / "timings.csv")
    values = dict(rows)
    assert 0.0 <= float(values["full_residual_max"]) <= RESIDUAL_TOL


def test_rerun_drops_records_of_removed_stages(tmp_path):
    # records of stages that no longer exist ('rom', 'deim') are dropped
    # when a rerun rewrites the manifest
    import json

    out = tmp_path / "b"
    assert _cli(tmp_path, "offline", out) == 0
    path = out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for gone in ("rom", "deim"):
        manifest["stages"][gone] = dict(manifest["stages"]["pod"])
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert _cli(tmp_path, "offline", out, stages="pod") == 0
    stages = json.loads(path.read_text(encoding="utf-8"))["stages"]
    assert set(stages) == {"snapshots", "pod"}


def test_rebuild_in_place_deletes_files_of_earlier_formats(tmp_path):
    # a format-4 directory held one theta table per component; before
    # format 2 the pod stage stored the aggregated basis and a 'rom' stage
    # the reduced terms.  Rebuilding the stage that replaced them deletes
    # them, and nothing else.
    out = tmp_path / "b"
    assert _cli(tmp_path, "offline", out) == 0
    fresh = {p.name for p in out.iterdir()}
    theta = [f"deim_{c}_theta.romb" for c in "AMbc"]
    derived = ["basis_vyp.romb", "basis_vu.romb",
               *(f"rom_{t}_terms.romb"
                 for t in ("a", "myp", "mu", "muyp", "b", "c"))]
    for name in theta + derived:
        save_matrix(out / name, np.zeros((1, 1)))
    assert _cli(tmp_path, "offline", out, stages="pod") == 0
    assert {p.name for p in out.iterdir()} == fresh | set(theta)
    assert _cli(tmp_path, "offline", out) == 0
    assert {p.name for p in out.iterdir()} == fresh
    assert _cli(tmp_path, "online", out) == 0


def test_artifact_io_goes_through_pipeline_namespace(tmp_path, monkeypatch):
    # the benchmark traces storage calls at these names; every artifact
    # written or read must pass through them
    from cutrom import pipeline

    seen = []
    for name in ("save_matrix", "save_index_list", "load_matrix",
                 "load_index_list"):
        def spy(path, *args, fn=getattr(pipeline, name)):
            seen.append(Path(path).name)
            return fn(path, *args)
        monkeypatch.setattr(pipeline, name, spy)
    out = tmp_path / "b"
    run_offline(RunConfig(**TINY, out_dir=str(out)))
    artifacts = {p.name for p in out.iterdir() if p.suffix == ".romb"
                 or p.name.startswith(("pod_", "deim_"))}
    assert set(seen) == artifacts
    seen.clear()
    load_bundle(out)
    assert set(seen) == artifacts


def test_rom_pivot_ratio_in_timings(tiny_bundle):
    run_online(tiny_bundle["cfg"])
    _, rows = read_csv(tiny_bundle["out"] / "timings.csv")
    values = dict(rows)
    assert 0.0 < float(values["rom_pivot_ratio_min"]) <= 1.0
    assert "full_residual_max" in values


def test_kkt_form_and_lu_in_timings(tiny_bundle):
    run_online(tiny_bundle["cfg"])
    _, rows = read_csv(tiny_bundle["out"] / "timings.csv")
    values = {name: float(value) for name, value in rows}
    assert values["full_kkt_form"] > 0.0 and values["full_lu"] > 0.0


def test_theta_table_shape_in_timings(tiny_bundle):
    run_online(tiny_bundle["cfg"])
    _, rows = read_csv(tiny_bundle["out"] / "timings.csv")
    values = {name: float(value) for name, value in rows}
    table = tiny_bundle["bundle"].rom.table
    assert values["theta_table_intervals"] == table.edges.size - 1 >= 1
    assert values["theta_table_degree"] == table.degree
