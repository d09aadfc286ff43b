"""Offline/online orchestration, artifact bundle and CSV reports.

The offline run persists the outputs of its stages: the mesh is replayed
from the resolved config (and checked against a fingerprint), the POD bases
and interpolation data are stored in the matrix container format, and the
aggregated basis and reduced terms are derived from them on every load.
Snapshots, bases and W hold the rows of the ever-active DOFs and entries
only (``AssemblyContext.ever_active`` and ``.kept``); the context of the
config is the one source of that layout, and of the patterns and cut
candidates the DEIM stage reads.
Online runs solve full and reduced models on a fresh test sample and emit
deterministic error reports; timings go to their own file so that error
CSVs are byte-identical across runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .assembly import AssemblyContext, assemble_operators, \
    box_mass_matrix, get_case
from .deim import COMPONENTS, DeimModel, OperatorSnapshots, \
    PartialAssembler, deim_basis, model_from_snapshots, spectral_norm, \
    truncate_model
from .errors import ConfigError, NumericalError
from .kkt import assemble_kkt, solve_kkt
# cut_candidates is not called here; perfbench/tracing.py wraps it by name
from .levelset import LevelSetSquare, classify_elements, cut_candidates
from .mesh import BackgroundMesh, build_background_mesh, build_face_table
from .pod import AggregatedBasis, PodBasis, SnapshotSet, aggregate_basis, \
    pod_basis, sample_parameters
from .rom import RomModel, precompute_reduced_terms, relative_error, rom_solve
from .storage import STAGES, RunConfig, config_echo, load_index_list, \
    load_matrix, parse_config, save_index_list, save_matrix, \
    selected_stages, write_csv

CENTER = (1.0, 1.0)
MODES_SWEEP = (1, 2, 3, 5, 9, 15, 25)
DEIM_SWEEP = (1, 2, 5, 10, 15, 20, 25, 30, 35, 40)
TIMING_REPEATS = 11
MANIFEST_FORMAT = 3
VARS = ("y", "u", "p")


def median_time(fn, repeats: int = TIMING_REPEATS) -> float:
    """Median wall-clock of repeated calls (robust against scheduler noise)."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def _live_lock_owner(path: Path) -> str | None:
    """Holder of an existing lock, or None when its recorded process is
    gone; an empty or unreadable lock counts as held."""
    try:
        pid = int(path.read_text(encoding="ascii"))
    except (OSError, ValueError):
        return "another run"
    if pid <= 0:
        return "another run"
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return None
    except PermissionError:      # alive, owned by another user
        pass
    return f"another run (PID {pid})"


@contextmanager
def _output_lock(out: Path):
    """Exclusive ownership of the output directory while writing.

    The lock file holds the owner's PID.  A lock whose process no longer
    exists is removed and taken over once.
    """
    path = out / ".lock"
    for attempt in range(2):
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            owner = _live_lock_owner(path)
            if attempt or owner is not None:
                owner = owner or "another run"
                raise ConfigError(f"output directory is locked by {owner}: "
                                  f"{path}") from None
            path.unlink(missing_ok=True)
    try:
        try:
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        finally:
            os.close(fd)
        yield
    finally:
        path.unlink(missing_ok=True)


def mesh_fingerprint(mesh: BackgroundMesh) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(mesh.vertices).tobytes())
    digest.update(np.ascontiguousarray(mesh.elements).tobytes())
    return digest.hexdigest()


def build_problem(cfg: RunConfig):
    """Mesh, adjacency, case and assembly context of a configuration."""
    mesh = build_background_mesh((cfg.box_min_x, cfg.box_min_y),
                                 (cfg.box_max_x, cfg.box_max_y),
                                 cfg.h_target)
    nx, ny = mesh.n_cells
    layer = max((cfg.box_max_x - cfg.box_min_x) / nx,
                (cfg.box_max_y - cfg.box_min_y) / ny)
    reach = cfg.mu_max + layer
    if not (cfg.box_min_x < CENTER[0] - reach
            and cfg.box_max_x > CENTER[0] + reach
            and cfg.box_min_y < CENTER[1] - reach
            and cfg.box_max_y > CENTER[1] + reach):
        raise ConfigError(
            "mu_max square plus one mesh layer does not fit in the box")
    face_table = build_face_table(mesh)
    case = get_case(cfg.case, alpha=cfg.alpha, gamma_D=cfg.gamma_d,
                    gamma_1=cfg.gamma_1)
    ctx = AssemblyContext(mesh, face_table, case,
                          mu_range=(cfg.mu_min, cfg.mu_max), center=CENTER)
    dofs = ctx.ever_active
    W = box_mass_matrix(mesh)[dofs][:, dofs]
    return mesh, face_table, case, ctx, W


@dataclass
class OfflineBundle:
    cfg: RunConfig
    mesh: BackgroundMesh
    ctx: AssemblyContext
    W: sp.csr_matrix
    params: np.ndarray
    snapshots: SnapshotSet
    pod: dict[str, PodBasis]
    basis: AggregatedBasis
    deim_models: dict[str, DeimModel]
    rom: RomModel

    @property
    def face_table(self):
        return self.ctx.face_table


def training_sweep(params, ctx: AssemblyContext, W):
    """One assembly+solve pass that feeds both snapshot families, kept on
    the ever-active DOFs and entries."""
    params = np.asarray(params, dtype=float)
    kept, dofs = ctx.kept, ctx.ever_active
    S = {var: np.zeros((dofs.size, params.size)) for var in VARS}
    vals = {comp: np.zeros((kept[comp].size, params.size))
            for comp in COMPONENTS}
    for k, mu in enumerate(params):
        ops = assemble_operators(ctx, float(mu), CENTER)
        for comp, v in zip(COMPONENTS, (ops.a_values, ops.m_values, ops.b,
                                        ops.c)):
            vals[comp][:, k] = v[kept[comp]]
        try:
            sol = solve_kkt(assemble_kkt(ops, ctx.case.alpha))
        except NumericalError as exc:
            raise NumericalError(f"offline solve failed at mu={mu}") from exc
        for var in VARS:
            S[var][:, k] = getattr(sol, var)[dofs]
    snaps = SnapshotSet(params, *(S[var] for var in VARS))
    opsnaps = {comp: OperatorSnapshots(comp, params, vals[comp])
               for comp in COMPONENTS}
    return snaps, opsnaps


# Stage steps.  Each works on the run state, a dict holding cfg, ctx and W
# plus the results of the stages built or loaded so far; build and load
# return the entries they add to it.

def _snapshots_build(s):
    cfg = s["cfg"]
    params = sample_parameters(cfg.mu_min, cfg.mu_max, cfg.m_train, cfg.seed)
    snaps, opsnaps = training_sweep(params, s["ctx"], s["W"])
    return {"params": params, "snapshots": snaps, "opsnaps": opsnaps}


def _snapshots_save(out: Path, s) -> None:
    save_matrix(out / "params_train.romb", s["params"])
    for var in VARS:
        save_matrix(out / f"snap_{var}.romb",
                    getattr(s["snapshots"], f"S_{var}"))


def _snapshots_load(out: Path, s):
    params = load_matrix(out / "params_train.romb").ravel()
    return {"params": params,
            "snapshots": SnapshotSet(params, *(
                load_matrix(out / f"snap_{var}.romb") for var in VARS))}


def _pod_build(s):
    cfg, W = s["cfg"], s["W"]
    return {"pod": {var: pod_basis(getattr(s["snapshots"], f"S_{var}"), W,
                                   cfg.eps_pod, min_stored=cfg.pod_store)
                    for var in VARS}}


def _pod_save(out: Path, s) -> None:
    pod = s["pod"]
    for var in VARS:
        save_matrix(out / f"pod_basis_{var}.romb", pod[var].vectors)
        save_matrix(out / f"pod_eigs_{var}.romb", pod[var].eigenvalues)
    save_index_list(out / "pod_retained.txt", [pod[v].retained for v in VARS])


def _pod_load(out: Path, s):
    retained = load_index_list(out / "pod_retained.txt")
    pod = {var: PodBasis(load_matrix(out / f"pod_basis_{var}.romb"),
                         load_matrix(out / f"pod_eigs_{var}.romb").ravel(),
                         int(retained[k]), s["cfg"].eps_pod)
           for k, var in enumerate(VARS)}
    return {"pod": pod}


def _deim_build(s):
    cfg, ctx = s["cfg"], s["ctx"]
    # without a snapshots build in this run, the sweep is repeated for the
    # operator snapshots and its solutions are discarded
    opsnaps = s.get("opsnaps") or training_sweep(s["params"], ctx, s["W"])[1]
    models = {}
    for comp in COMPONENTS:
        dbasis = deim_basis(opsnaps[comp], cfg.eps_deim)
        models[comp] = model_from_snapshots(dbasis, dbasis.m, opsnaps[comp],
                                            ctx)
    return {"deim_models": models}


def _deim_save(out: Path, s) -> None:
    for comp, model in s["deim_models"].items():
        save_matrix(out / f"deim_{comp}_U.romb", model.U)
        save_matrix(out / f"deim_{comp}_proj.romb", model.projector)
        save_matrix(out / f"deim_{comp}_eigs.romb", model.eigenvalues)
        save_index_list(out / f"deim_{comp}_indices.txt", model.indices)
        save_index_list(out / f"deim_{comp}_elements.txt",
                        model.reduced_elements)
        save_index_list(out / f"deim_{comp}_facets.txt",
                        model.reduced_facets)


def _deim_load(out: Path, s):
    models = {}
    for comp in COMPONENTS:
        models[comp] = DeimModel(
            comp, load_matrix(out / f"deim_{comp}_U.romb"),
            load_index_list(out / f"deim_{comp}_indices.txt"),
            load_matrix(out / f"deim_{comp}_proj.romb"),
            load_index_list(out / f"deim_{comp}_elements.txt"),
            load_index_list(out / f"deim_{comp}_facets.txt"),
            load_matrix(out / f"deim_{comp}_eigs.romb").ravel())
    return {"deim_models": models}


class _Stage(NamedTuple):
    reads: tuple[str, ...]     # stages whose results the build step uses
    keys: tuple[str, ...]      # RunConfig keys the build step uses
    build: Callable
    save: Callable
    load: Callable


STAGE_TABLE = dict(zip(STAGES, (
    _Stage((), ("box_min_x", "box_min_y", "box_max_x", "box_max_y",
                "h_target", "mu_min", "mu_max", "alpha", "gamma_d",
                "gamma_1", "case", "m_train", "seed"),
           _snapshots_build, _snapshots_save, _snapshots_load),
    _Stage(("snapshots",), ("eps_pod", "pod_store"),
           _pod_build, _pod_save, _pod_load),
    _Stage(("snapshots",), ("eps_deim",), _deim_build, _deim_save, _deim_load),
)))


def _aggregated(pod: dict[str, PodBasis], ctx: AssemblyContext, W,
                k: int | None = None):
    """State/adjoint aggregation of the first k stored modes per variable
    (those with fewer use all they have); by default the retained modes."""
    return aggregate_basis(*(pod[v].truncated(pod[v].retained if k is None
                                              else k) for v in VARS), W,
                           ctx.ever_active, ctx.mesh.dof_count)


def _stage_config(cfg: RunConfig, name: str) -> dict:
    """Config values used by a stage and every stage upstream of it."""
    keys, pending = set(), [name]
    while pending:
        stage = STAGE_TABLE[pending.pop()]
        keys.update(stage.keys)
        pending.extend(stage.reads)
    return {k: repr(v) if isinstance(v, float) else v
            for k, v in sorted((k, getattr(cfg, k)) for k in keys)}


def _stage_records(out: Path) -> dict:
    """Per-stage config records of the bundle in ``out``."""
    path = out / "manifest.json"
    if not path.is_file():
        raise ConfigError(f"no offline bundle in {out}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: unreadable manifest: {exc}") from exc
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ConfigError(f"{path}: outdated format {manifest.get('format')}"
                          "; rerun offline with stages = all")
    return manifest["stages"]


def _plan(cfg: RunConfig, out: Path, selected: set[str]):
    """Stages to load for a run that builds ``selected``, and the records
    that stay valid.  Each stage to load must be recorded with the values
    ``cfg`` has, else ConfigError; with nothing selected, all are loaded.
    """
    replaced = set()
    for name, stage in STAGE_TABLE.items():
        if name in selected or replaced.intersection(stage.reads):
            replaced.add(name)
    records = {} if replaced == set(STAGES) else _stage_records(out)
    # records of names that are no longer stages are dropped as well
    records = {k: v for k, v in records.items()
               if k in STAGE_TABLE and k not in replaced}
    inputs = [name for name in STAGES if name not in selected and (
        not selected or any(name in STAGE_TABLE[s].reads for s in selected))]
    for name in inputs:
        record = records.get(name, {})
        diff = [f"{k}={record.get(k)} (config has {v})"
                for k, v in _stage_config(cfg, name).items()
                if record.get(k) != v]
        if diff:
            why = f"was built with {', '.join(diff)}" if name in records \
                else "is missing (never built, or dropped by a rerun)"
            raise ConfigError(f"stage '{name}' in {out} {why}; rerun "
                              f"offline with '{name}' in stages")
    return inputs, records


def _walk(cfg: RunConfig, ctx: AssemblyContext, W, out: Path,
          selected: set[str], inputs: list[str]):
    """Build and save the selected stages and load the inputs, in order.

    Returns the bundle of everything built, loaded or derived and the
    build times.
    """
    state, timings = {"cfg": cfg, "ctx": ctx, "W": W}, []
    for name, stage in STAGE_TABLE.items():
        if name in selected:
            t0 = time.perf_counter()
            state.update(stage.build(state))
            timings.append((name, time.perf_counter() - t0))
            stage.save(out, state)
        elif name in inputs:
            try:
                state.update(stage.load(out, state))
            except (OSError, ValueError) as exc:
                raise ConfigError(f"stage '{name}' in {out} is unreadable "
                                  f"({exc}); rerun offline with '{name}' "
                                  f"in stages") from exc
    if "pod" in state:
        state["basis"] = _aggregated(state["pod"], ctx, W)
        if "deim_models" in state:
            state["rom"] = precompute_reduced_terms(
                state["basis"], state["deim_models"], ctx, cfg.alpha)
    get = state.get
    return OfflineBundle(cfg, ctx.mesh, ctx, W, get("params"),
                         get("snapshots"), get("pod"), get("basis"),
                         get("deim_models"), get("rom")), timings


def _write_manifest(out: Path, records: dict) -> None:
    manifest = {"format": MANIFEST_FORMAT, "stages": records}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def run_offline(cfg: RunConfig, out_dir=None) -> OfflineBundle:
    """Execute the selected offline stages and persist the bundle."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    selected = selected_stages(cfg)
    mesh, face_table, case, ctx, W = build_problem(cfg)

    with _output_lock(out):
        inputs, records = _plan(cfg, out, selected)
        # replaced stages leave the manifest before their files change
        _write_manifest(out, records)
        bundle, timings = _walk(cfg, ctx, W, out, selected, inputs)

        (out / "config.resolved").write_text(config_echo(cfg),
                                             encoding="utf-8")
        (out / "mesh_fingerprint.txt").write_text(
            f"{mesh.n_cells[0]} {mesh.n_cells[1]} {mesh.n_elements} "
            f"{mesh.dof_count}\n{mesh_fingerprint(mesh)}\n", encoding="utf-8")
        records.update({name: _stage_config(cfg, name) for name in selected})
        _write_manifest(out, records)
        _write_offline_summary(out, bundle)
        write_csv(out / "offline_timings.csv", ["stage", "seconds"], timings)
    return bundle


def _write_offline_summary(out: Path, bundle: OfflineBundle) -> None:
    pod, deim_models, ctx = bundle.pod, bundle.deim_models, bundle.ctx
    rows = [("ever_active_dofs", "-", 0, ctx.ever_active.size)]
    rows += [("ever_active_entries", comp, 0, ctx.kept[comp].size)
             for comp in ("A", "M")]
    if pod is not None:
        for var in VARS:
            rows.append(("pod_retained", var, 0, pod[var].retained))
        for var in VARS:
            for i, v in enumerate(pod[var].eigenvalues):
                rows.append(("pod_eigenvalue", var, i, v))
    if deim_models is not None:
        for comp, model in deim_models.items():
            rows.append(("deim_dim", comp, 0, model.m))
            rows.append(("reduced_mesh_elements", comp, 0,
                         model.reduced_elements.size))
            rows.append(("reduced_mesh_facets", comp, 0,
                         model.reduced_facets.size))
            for i, v in enumerate(model.eigenvalues):
                rows.append(("deim_eigenvalue", comp, i, v))
    if bundle.basis is not None:
        rows.append(("reduced_dim", "rom", 0, bundle.basis.reduced_dim))
    write_csv(out / "offline_summary.csv",
              ["record", "component", "index", "value"], rows)


def load_bundle(out_dir, cfg: RunConfig | None = None) -> OfflineBundle:
    """Load every stage of a bundle; each must match ``cfg`` (by default
    the stored config), from which the mesh is replayed."""
    out = Path(out_dir)
    if cfg is None:
        cfg = parse_config(out / "config.resolved")
    mesh, face_table, case, ctx, W = build_problem(cfg)
    recorded = out / "mesh_fingerprint.txt"
    if not recorded.is_file():
        raise ConfigError(f"no offline bundle in {out}")
    if recorded.read_text().split()[-1:] != [mesh_fingerprint(mesh)]:
        raise ConfigError("mesh fingerprint mismatch; bundle is stale")
    return _walk(cfg, ctx, W, out, set(), _plan(cfg, out, set())[0])[0]


def sample_test_parameters(cfg: RunConfig) -> np.ndarray:
    """Fresh test sample from a stream disjoint from the training stream."""
    rng = np.random.default_rng([cfg.seed, 1])
    return np.sort(rng.uniform(cfg.mu_min, cfg.mu_max, cfg.m_test))


def _norm(comp: str, x) -> float:
    """2-norm of a matrix component, Euclidean norm of a vector one."""
    return spectral_norm(x) if comp in ("A", "M") \
        else float(np.linalg.norm(x))


def _component_error(model: DeimModel, assembler: PartialAssembler,
                     mu: float, exact, exact_norm: float) -> float:
    return _norm(model.component, assembler.reconstruct(mu) - exact) \
        / exact_norm


def _exact_component(ops, comp: str):
    return {"A": ops.A, "M": ops.M, "b": ops.b, "c": ops.c}[comp]


def run_online(cfg: RunConfig, out_dir=None, modes: int | None = None,
               deim_dims: dict[str, int] | None = None) -> dict:
    """Full-vs-ROM assessment on a fresh test sample; writes the reports."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    bundle = load_bundle(out, cfg)
    ctx = bundle.ctx

    rom = bundle.rom
    if modes is not None or deim_dims:
        models = {comp: truncate_model(model, deim_dims[comp], ctx)
                  if comp in (deim_dims or {}) else model
                  for comp, model in bundle.deim_models.items()}
        basis = bundle.basis if modes is None \
            else _aggregated(bundle.pod, ctx, bundle.W, modes)
        rom = precompute_reduced_terms(basis, models, ctx, cfg.alpha)

    mus = sample_test_parameters(cfg)
    full_solutions = []
    all_ops = []
    error_rows = []
    norms = {comp: [] for comp in COMPONENTS}   # exact-operator norms
    comp_errors = {comp: [] for comp in COMPONENTS}
    pivot_ratios = []
    for mu in mus:
        ops = assemble_operators(ctx, float(mu), CENTER)
        full = solve_kkt(assemble_kkt(ops, cfg.alpha))
        sol = rom_solve(rom, float(mu))
        pivot_ratios.append(sol.pivot_ratio)
        errs, _ = relative_error(full, sol, ops.M)
        for comp, model in rom.deim.items():
            exact = _exact_component(ops, comp)
            norms[comp].append(_norm(comp, exact))
            comp_errors[comp].append(_component_error(
                model, rom.assemblers[comp], float(mu), exact,
                norms[comp][-1]))
        error_rows.append((mu, *errs,
                           *(comp_errors[c][-1] for c in COMPONENTS)))
        full_solutions.append(full)
        all_ops.append(ops)

    with _output_lock(out):
        write_csv(out / "online_errors.csv",
                  ["mu", "err_y", "err_u", "err_p", "deim_err_A",
                   "deim_err_M", "deim_err_b", "deim_err_c"], error_rows)

        deim_rows = _deim_sweep(bundle, rom, all_ops, mus, norms, comp_errors)
        write_csv(out / "deim_errors.csv",
                  ["component", "m", "mean_rel_error"], deim_rows)

        sweep_rows = _modes_sweep(bundle, full_solutions, all_ops, mus)
        write_csv(out / "modes_sweep.csv",
                  ["modes_per_variable", "reduced_dim", "mean_err_y",
                   "mean_err_u", "mean_err_p"], sweep_rows)

        timing_rows = _timing_report(bundle, rom, mus[0])
        timing_rows.append(("full_residual_max",
                            max(full.residual for full in full_solutions)))
        timing_rows.append(("rom_pivot_ratio_min", min(pivot_ratios)))
        write_csv(out / "timings.csv", ["name", "value"], timing_rows)

    return {"test_params": mus, "errors": error_rows, "deim": deim_rows,
            "modes": sweep_rows, "timings": dict(timing_rows)}


def _deim_sweep(bundle: OfflineBundle, rom: RomModel, all_ops, mus, norms,
                errors):
    """Mean reconstruction error per component over a grid of dimensions.

    ``norms`` and ``errors`` hold the exact-operator norms and the errors
    of ``rom.deim`` per component and test parameter; the row of each
    component's own dimension is the mean of its errors.
    """
    rows = []
    for comp in COMPONENTS:
        model = bundle.deim_models[comp]
        exact = [_exact_component(ops, comp) for ops in all_ops]
        for m in DEIM_SWEEP:
            if m > model.m:
                continue
            if m == rom.deim[comp].m:
                errs = errors[comp]
            else:
                sub = truncate_model(model, m, bundle.ctx)
                asm = PartialAssembler(sub, bundle.ctx)
                errs = [_component_error(sub, asm, float(mu), e, nz)
                        for mu, e, nz in zip(mus, exact, norms[comp])]
            rows.append((comp, m, float(np.mean(errs))))
    return rows


def _modes_sweep(bundle: OfflineBundle, full_solutions, all_ops, mus):
    """Error decay versus per-variable POD truncation, DEIM dims fixed."""
    rows = []
    for k in MODES_SWEEP:
        # variables with fewer stored modes than k use all they have
        basis_k = _aggregated(bundle.pod, bundle.ctx, bundle.W, k)
        rom_k = precompute_reduced_terms(basis_k, bundle.deim_models,
                                         bundle.ctx, bundle.cfg.alpha)
        errs = np.zeros((len(mus), 3))
        for i, mu in enumerate(mus):
            sol = rom_solve(rom_k, float(mu))
            errs[i], _ = relative_error(full_solutions[i], sol, all_ops[i].M)
        mean = errs.mean(axis=0)
        rows.append((k, basis_k.reduced_dim, mean[0], mean[1], mean[2]))
    return rows


def _timing_report(bundle: OfflineBundle, rom: RomModel, mu0: float):
    """Median-of-repeats timings of every online phase at one parameter."""
    ctx = bundle.ctx
    cfg = bundle.cfg
    mu0 = float(mu0)

    ops0 = assemble_operators(ctx, mu0, CENTER)
    t_full_asm = median_time(lambda: assemble_operators(ctx, mu0, CENTER))
    t_full_solve = median_time(
        lambda: solve_kkt(assemble_kkt(ops0, cfg.alpha)))
    t_kkt_form = median_time(lambda: assemble_kkt(ops0, cfg.alpha))
    system0 = assemble_kkt(ops0, cfg.alpha)
    t_lu = float(np.median([solve_kkt(system0).solve_time
                            for _ in range(TIMING_REPEATS)]))

    rom_solve(rom, mu0)  # warm-up
    runs = [rom_solve(rom, mu0).timings for _ in range(TIMING_REPEATS)]
    rom_t = {k: float(np.median([r[k] for r in runs])) for k in runs[0]}

    rows = [
        ("dofs", bundle.mesh.dof_count),
        ("reduced_dim", rom.reduced_dim),
        ("full_assembly", t_full_asm),
        ("full_solve", t_full_solve),
        ("full_kkt_form", t_kkt_form),
        ("full_lu", t_lu),
        ("rom_theta", rom_t["theta"]),
        ("rom_form", rom_t["form"]),
        ("rom_solve", rom_t["solve"]),
        ("rom_lift", rom_t["lift"]),
        ("rom_total_excl_lift", rom_t["total_excl_lift"]),
        ("speedup_solver", t_full_solve / (rom_t["form"] + rom_t["solve"])),
        ("speedup_excl_lift", t_full_solve / rom_t["total_excl_lift"]),
        ("speedup_with_assembly",
         (t_full_asm + t_full_solve) / rom_t["total_excl_lift"]),
    ]
    for comp, model in rom.deim.items():
        asm = rom.assemblers[comp]
        t_comp_full = median_time(
            lambda: ctx.assemble_component(
                classify_elements(bundle.mesh, bundle.face_table,
                                  LevelSetSquare(mu0, CENTER)), comp))
        t_comp_rom = median_time(lambda: asm.reconstruct(mu0))
        rows.append((f"deim_m_{comp}", model.m))
        rows.append((f"full_component_{comp}", t_comp_full))
        rows.append((f"deim_reconstruct_{comp}", t_comp_rom))
        rows.append((f"deim_speedup_{comp}", t_comp_full / t_comp_rom))
    return rows


def run_verify(cfg: RunConfig, out_dir=None):
    """Invariant suite over a persisted bundle; returns (name, ok, detail)."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    bundle = load_bundle(out, cfg)
    checks = []

    nx, ny = bundle.mesh.n_cells
    cell = max((cfg.box_max_x - cfg.box_min_x) / nx,
               (cfg.box_max_y - cfg.box_min_y) / ny)
    sample = np.linspace(cfg.mu_min, cfg.mu_max, 5)
    area_errs, per_errs = [], []
    for mu in sample:
        geom = classify_elements(bundle.mesh, bundle.face_table,
                                 LevelSetSquare(float(mu), CENTER))
        area_errs.append(abs(geom.interior_weight_sum - 4 * mu * mu)
                         / (4 * mu * mu))
        per_errs.append(abs(geom.boundary_weight_sum - 8 * mu) / (8 * mu))
        ok = np.all(geom.active.iq_weights >= 0.0) \
            and set(geom.cut_elements) <= set(geom.active_elements)
        checks.append((f"geometry_structure_mu_{mu:.3f}", bool(ok), ""))
    if cell <= 0.1:
        # accuracy figures hold at the benchmark resolution and finer
        checks.append(("geometry_area_2pc", max(area_errs) <= 0.02,
                       f"max rel err {max(area_errs):.3e}"))
        checks.append(("geometry_perimeter_mean_2pc",
                       float(np.mean(per_errs)) <= 0.02,
                       f"mean rel err {np.mean(per_errs):.3e}"))

    W = bundle.W
    for var in ("y", "u", "p"):
        V = bundle.pod[var].vectors
        gram = V.T @ (W @ V)
        dev = float(np.max(np.abs(gram - np.eye(V.shape[1]))))
        checks.append((f"pod_orthonormal_{var}", dev <= 1e-10,
                       f"max deviation {dev:.3e}"))
    lam_ok = all(np.all(np.diff(bundle.pod[v].eigenvalues) <= 1e-30)
                 for v in ("y", "u", "p"))
    checks.append(("pod_eigenvalues_sorted", lam_ok, ""))

    Vb = bundle.basis.block_matrix()
    W3 = sp.block_diag([W, W, W], format="csr")
    gram = (Vb.T @ (W3 @ Vb)).toarray()
    dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    checks.append(("aggregated_orthonormal", dev <= 1e-10,
                   f"max deviation {dev:.3e}"))

    for comp, model in bundle.deim_models.items():
        ident = model.projector[np.searchsorted(bundle.ctx.kept[comp],
                                                model.indices)]
        dev = float(np.max(np.abs(ident - np.eye(model.m))))
        checks.append((f"deim_projector_identity_{comp}", dev <= 1e-12,
                       f"max deviation {dev:.3e}"))
        distinct = np.unique(model.indices).size == model.m
        checks.append((f"deim_indices_distinct_{comp}", distinct, ""))
    return checks
