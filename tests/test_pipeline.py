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
from cutrom.errors import ConfigError
from cutrom.pod import energy_cutoff
from cutrom.storage import load_matrix, read_csv

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
    out = tiny_bundle["out"]
    expected = ["config.resolved", "mesh_fingerprint.txt",
                "params_train.romb", "snap_y.romb", "snap_u.romb",
                "snap_p.romb", "manifest.json", "offline_summary.csv"]
    expected += [f"pod_basis_{v}.romb" for v in "yup"]
    expected += [f"deim_{c}_{part}" for c in "AMbc"
                 for part in ("U.romb", "proj.romb", "indices.txt",
                              "elements.txt", "facets.txt")]
    for name in expected:
        assert (out / name).is_file(), name
    # the aggregated basis and the reduced terms are derived on load
    assert not list(out.glob("basis_v*")) and not list(out.glob("rom_*"))
    assert not (out / ".lock").exists()


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
    assert (out / "snap_y.romb").is_file()
    assert not (out / "pod_basis_y.romb").exists()
    snap_mtime = (out / "snap_y.romb").stat().st_mtime_ns
    run_offline(RunConfig(**{**base, "stages": "pod,deim"}))
    assert (out / "snap_y.romb").stat().st_mtime_ns == snap_mtime
    assert (out / "deim_A_proj.romb").is_file()
    # the staged bundle is equivalent to a single-shot run
    staged = load_bundle(out)
    full = run_offline(RunConfig(**TINY, out_dir=str(tmp_path / "oneshot")))
    assert np.array_equal(staged.basis.V_yp, full.basis.V_yp)
    assert np.array_equal(staged.rom.A_terms, full.rom.A_terms)


def test_verify_passes_on_bundle(tiny_bundle):
    checks = run_verify(tiny_bundle["cfg"])
    failed = [c for c in checks if not c[1]]
    assert not failed, failed


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
    for key, value in (("case", "nope"), ("mu_min", "0")):
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
    assert _cli(tmp_path, "offline", out, stages="snapshots,pod",
                seed=15) == 0
    capsys.readouterr()
    assert _cli(tmp_path, "online", out, seed=15) == 2
    assert "'deim'" in capsys.readouterr().err
    assert _cli(tmp_path, "online", out) == 2


def test_deim_rerun_against_other_seed_writes_nothing(tmp_path, capsys):
    out = tmp_path / "b"
    assert _cli(tmp_path, "offline", out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert _cli(tmp_path, "offline", out, stages="deim", seed=6) == 2
    err = capsys.readouterr().err
    assert "'snapshots'" in err and "seed=5" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_format_2_manifest_is_rejected(tmp_path):
    # format 2 stored every row of the snapshots and bases
    import json

    out = tmp_path / "b"
    assert _cli(tmp_path, "offline", out) == 0
    path = out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**manifest, "format": 2}), encoding="utf-8")
    assert _cli(tmp_path, "online", out) == 2
    assert _cli(tmp_path, "verify", out) == 2
    assert _cli(tmp_path, "offline", out, stages="pod") == 2
    assert _cli(tmp_path, "offline", out) == 0
    assert _cli(tmp_path, "online", out) == 0


def test_format_1_manifest_is_rejected(tmp_path):
    out = tmp_path / "b"
    assert _cli(tmp_path, "offline", out) == 0
    (out / "manifest.json").write_text('{"format": 1}\n', encoding="utf-8")
    assert _cli(tmp_path, "online", out) == 2
    assert _cli(tmp_path, "verify", out) == 2
    assert _cli(tmp_path, "offline", out, stages="pod") == 2
    assert _cli(tmp_path, "offline", out) == 0
    assert _cli(tmp_path, "online", out) == 0


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
    # a record of a stage that no longer exists ('rom') is dropped when a
    # rerun rewrites the manifest
    import json

    out = tmp_path / "b"
    assert _cli(tmp_path, "offline", out) == 0
    path = out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["stages"]["rom"] = dict(manifest["stages"]["pod"])
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert _cli(tmp_path, "offline", out, stages="pod") == 0
    stages = json.loads(path.read_text(encoding="utf-8"))["stages"]
    assert "rom" not in stages
    assert set(stages) == {"snapshots", "pod", "deim"}


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
