"""The three benchmark workloads and their correctness gates.

Every workload is a closed loop with one client: the next call starts only
after the previous one has returned.  The parameter values and the
generated config come from the seed alone.  Correctness gates run outside
the timed region; a failed gate marks its operation failed, and a
``NumericalError`` raised by the program fails the operation it came from.

online-queries
    One offline bundle at h=0.0225 (N=13689) is built and loaded during
    set-up, then ``rom_solve`` with lift runs over seeded parameters.  This
    is the deployed online path; DEIM partial assembly dominates it and no
    sparse LU or full assembly runs in the timed loop.
truth-solves
    The full-order chain classify -> assemble -> KKT formation -> sparse LU
    at the same N, over seeded parameters.  Sparse LU dominates and no DEIM
    code runs, so its p50 over the online p50 is the ROM speed-up.
paper-pipeline
    ``cutrom offline``, ``online`` and ``verify`` through ``cutrom.cli.main``
    at the paper resolution (h=0.09, N=900, default config with the seed
    set), into a fresh directory on every repetition.  It is the only
    workload that runs POD, DEIM selection, the reduced-term projection,
    artifact storage and the report's ``spectral_norm``.
"""

from __future__ import annotations

import contextlib
import io
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cutrom import LevelSetSquare, RunConfig, assemble_operators, \
    relative_error
from cutrom import cli, kkt, levelset, pipeline
from cutrom import rom as rom_module
from cutrom.errors import NumericalError
from cutrom.pipeline import CENTER

import tracing
from calibration import REFERENCE_S, Calibration

clock = time.perf_counter

MU_MIN, MU_MAX = RunConfig.mu_min, RunConfig.mu_max
# the deployed online model is fixed; the seed varies only the queries
TRAIN_SEED = RunConfig.seed
SETUP_REPEATS = 3          # set-up runs per process; setup_s is their median
WARMUP_CALLS = 20          # discarded calls that end each set-up
# operations re-checked against the full-order model, as many as the
# package's acceptance criteria 2 and 5 check
GATE_SOLVES, GATE_QUERIES = 10, 30
# acceptance levels of the package's own tests: criterion 2 (optimality
# gap, residual), 3 (theta exact at the DEIM indices) and 5 (mean ROM
# error of each variable over the checked parameters)
GAP_TOL, RESIDUAL_TOL, THETA_TOL, ROM_MEAN_ERR_TOL = 1e-8, 1e-9, 1e-12, 2e-2

# config overrides per workload: the measured sizes and a smoke size that
# runs every code path in seconds
FULL = {"online-queries": {"h_target": 0.0225, "m_train": 50},
        "truth-solves": {"h_target": 0.0225},
        "paper-pipeline": {}}
SMOKE = {"online-queries": {"h_target": 0.2, "m_train": 20},
         "truth-solves": {"h_target": 0.2},
         "paper-pipeline": {"h_target": 0.2, "m_train": 20, "m_test": 3}}
# a tiny pipeline that loads every lazy import and LAPACK routine once
WARMUP_PIPELINE = {"h_target": 0.3, "m_train": 8, "m_test": 2}

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms"}
# seconds of operations between two calibrations of the machine's speed
WINDOW_S = 1.0

PER_LAYER = {f"{layer}.self_ms": "ms" for layer in tracing.LAYERS}
PER_LAYER.update({
    "trace.op_ms": "ms", "trace.overhead_ms": "ms", "trace.overhead_pct": "%",
    "trace.accounted_pct": "%", "trace.spans_per_op": "count",
    "rom.err_max": "ratio",
    # online-queries
    "deim.theta_ms": "ms", "deim.theta_self_ms": "ms",
    "levelset.subset_geometry_ms": "ms", "assembly.streams_ms": "ms",
    "rom.form_ms": "ms", "rom.solve_ms": "ms", "rom.lift_ms": "ms",
    "deim.theta_calls": "count", "deim.reduced_elements": "count",
    "rom.reduced_dim": "count", "pipeline.load_bundle_s": "s",
    "deim.theta_share_pct": "%",
    # truth-solves
    "levelset.classify_ms": "ms", "assembly.assemble_ms": "ms",
    "kkt.form_ms": "ms", "kkt.lu_ms": "ms", "kkt.check_ms": "ms",
    "kkt.system_nnz": "count", "kkt.system_rows": "count",
    "kkt.active_dofs": "count", "kkt.lu_share_pct": "%",
    # paper-pipeline, offline command
    "cli.offline_s": "s", "cli.report_s": "s", "cli.verify_s": "s",
    "mesh.build_s": "s", "pipeline.training_sweep_s": "s",
    "assembly.assemble_s": "s", "kkt.form_s": "s", "kkt.lu_s": "s",
    "pod.basis_s": "s", "pod.aggregate_s": "s", "deim.basis_s": "s",
    "deim.select_s": "s", "deim.reduced_mesh_s": "s",
    "rom.precompute_s": "s", "storage.write_s": "s",
    "storage.bytes_written": "B",
    # paper-pipeline, online (report) command
    "storage.read_s": "s", "storage.bytes_read": "B",
    "deim.spectral_norm_s": "s", "deim.spectral_norm_calls": "count",
    "deim.reconstruct_s": "s", "deim.select_report_s": "s",
    "rom.precompute_report_s": "s", "rom.query_s": "s",
    "kkt.lu_report_s": "s", "deim.spectral_norm_share_pct": "%",
})


@dataclass
class Op:
    seconds: float         # wall time
    traced: bool
    ok: bool = True
    ref_seconds: float = 0.0   # wall time at the calibration's reference speed


@dataclass
class Outcome:
    """What one workload run measured."""

    ops: list[Op]
    setup_s: float
    peak_rss_mb: float
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    def times(self, traced=None) -> list[float]:
        return [op.seconds for op in self.ops
                if traced is None or op.traced == traced]

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.times())

    def end_to_end(self) -> dict[str, float]:
        """Set-up and median operation time at the reference speed, memory."""
        p50 = np.median([op.ref_seconds for op in self.ops])
        return {"setup_s": self.setup_s, "peak_rss_mb": self.peak_rss_mb,
                "op_p50_ms": 1e3 * float(p50)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(kind, seconds, tracer, calib, call, keep):
    """Call ``call(i)`` back to back until ``seconds`` have passed.

    Only ``call`` is timed; ``keep(i, result)`` stores what the gates need
    and returns whether the output passed its per-operation check.  With
    ``calib``, the machine's speed is measured again after every
    ``WINDOW_S`` seconds of operations, and the window's operations get
    their reference time from the mean speed before and after it.  With a
    tracer, every other operation is traced, so the untraced ones in
    between give the tracing overhead on the same inputs and machine state.
    """
    sites = tracing.targets() if tracer is not None else None
    ops = []
    window, filled = 0, 0.0
    before = calib.measure() if calib is not None else None
    deadline = clock() + seconds
    i = 0
    while clock() < deadline:
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.op = f"{kind}-{i}"
            tracer.install(sites)
        t0 = clock()
        try:
            if traced:
                with tracer.span(f"bench.{kind}"):
                    result = call(i)
            else:
                result = call(i)
            ok = True
        except NumericalError as exc:
            result, ok = exc, False
        elapsed = clock() - t0
        if traced:
            tracer.uninstall()
        ops.append(Op(elapsed, traced, ok and keep(i, result)))
        filled += elapsed
        i += 1
        if calib is not None and filled >= WINDOW_S:
            before = _set_reference(ops[window:], before, calib)
            window, filled = len(ops), 0.0
    if calib is not None and window < len(ops):
        _set_reference(ops[window:], before, calib)
    return ops


def _set_reference(window, before, calib) -> float:
    after = calib.measure()
    scale = REFERENCE_S / ((before + after) / 2)
    for op in window:
        op.ref_seconds = op.seconds * scale
    return after


@contextlib.contextmanager
def traced_setup(tracer):
    if tracer is None:
        yield
        return
    tracer.op = "setup"
    tracer.install(tracing.targets())
    try:
        yield
    finally:
        tracer.uninstall()


def mu_stream(seed: int, stream: int, count: int) -> np.ndarray:
    return np.random.default_rng([seed, stream]).uniform(MU_MIN, MU_MAX,
                                                         count)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _median_ms(values) -> float:
    return 1e3 * _median(values)


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def common_layers(outcome: Outcome, view: tracing.TraceView,
                  ops: list[str]) -> dict[str, float]:
    """Self time per layer, its accounting, and the tracing overhead."""
    n = len(ops)
    selfs = view.layer_self(ops)
    out = {f"{layer}.self_ms": 1e3 * s / n for layer, s in selfs.items()}
    op_s = sum(selfs.values()) / n
    out["trace.op_ms"] = 1e3 * op_s
    out["trace.accounted_pct"] = 100.0 * (1.0 - selfs["bench"] / n / op_s)
    # in reference time where the run calibrated, so that the machine's
    # changes of speed do not swamp the overhead
    traced, untraced = (
        _median([op.ref_seconds or op.seconds for op in outcome.ops
                 if op.traced == flag]) for flag in (True, False))
    untraced = untraced or traced
    out["trace.overhead_ms"] = 1e3 * (traced - untraced)
    out["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    wanted = set(ops)
    out["trace.spans_per_op"] = sum(rec[tracing.OP] in wanted
                                    for rec in view.spans) / n
    return out


def traced_ops(ops: list[Op], kind: str) -> list[str]:
    return [f"{kind}-{i}" for i, op in enumerate(ops) if op.traced]


def rom_error_gate(errors) -> tuple[float, bool]:
    """Largest ROM error, and whether the criterion 5 gate passed.

    The gate is on the mean over the checked parameters of each variable's
    error.  Single parameters where the square's sides nearly align with
    mesh lines reach errors of 0.1-0.2, so a per-parameter bound would fail
    on them while the mean stays at the criterion's level; the largest
    error is reported so that they show.
    """
    table = np.asarray(errors, dtype=float).reshape(-1, 3)
    if not table.size:
        return float("nan"), False
    return float(table.max()), bool(np.all(table.mean(axis=0)
                                           <= ROM_MEAN_ERR_TOL))


# ---------------------------------------------------------------------------
# online-queries

def online_queries(seed, seconds, tracer, work: Path, sizes=FULL):
    cfg = RunConfig(seed=TRAIN_SEED, **sizes["online-queries"])
    out = work / "bundle"
    warm = np.linspace(MU_MIN, MU_MAX, WARMUP_CALLS)
    calib = Calibration()

    def load():
        bundle = pipeline.load_bundle(out)
        for mu in warm:
            rom_module.rom_solve(bundle.rom, float(mu))
        return bundle

    loads = []
    with traced_setup(tracer):
        _, build_s = calib.timed(lambda: pipeline.run_offline(cfg, out))
        for _ in range(SETUP_REPEATS):
            bundle, seconds_k = calib.timed(load)
            loads.append(seconds_k)
    setup_s = build_s + statistics.median(loads)
    model = bundle.rom

    mus = mu_stream(seed, 1, 1 << 20)
    coefs = {}

    def call(i):
        return rom_module.rom_solve(model, float(mus[i]))

    def keep(i, sol):
        x = np.concatenate((sol.y_N, sol.u_N, sol.p_N))
        coefs[i] = x
        return bool(np.all(np.isfinite(x)) and np.all(np.isfinite(sol.y)))

    ops = closed_loop("query", seconds, tracer, calib, call, keep)
    outcome = Outcome(ops, setup_s, peak_rss_mb())

    # gates: the first operations again, against the full-order model
    errors = {}
    for j in sorted(coefs)[:GATE_QUERIES]:
        mu = float(mus[j])
        try:
            ops_j = assemble_operators(bundle.ctx, mu, CENTER)
            full = kkt.solve_kkt(kkt.assemble_kkt(ops_j, cfg.alpha))
            sol = rom_module.rom_solve(model, mu)
        except NumericalError:
            ops[j].ok = False
            continue
        errors[j], _ = relative_error(full, sol, ops_j.M)
        same = np.array_equal(
            np.concatenate((sol.y_N, sol.u_N, sol.p_N)), coefs[j])
        exact = {"A": ops_j.a_values, "M": ops_j.m_values, "b": ops_j.b,
                 "c": ops_j.c}
        theta_dev = 0.0
        for comp, dmodel in model.deim.items():
            ref = exact[comp][dmodel.indices]
            theta = model.assemblers[comp].theta(mu)
            theta_dev = max(theta_dev, float(np.abs(theta - ref).max()
                                             / (np.abs(ref).max() + 1e-300)))
        if not (same and theta_dev <= THETA_TOL):
            ops[j].ok = False
    err_max, mean_ok = rom_error_gate(list(errors.values()))
    if not mean_ok:
        for j in errors:
            ops[j].ok = False

    q50, q99 = np.percentile(outcome.times(traced=False)
                             or outcome.times(), [50, 99]) * 1e3
    outcome.named = {
        "query_p50_ms": (float(q50), "ms"), "query_p99_ms": (float(q99), "ms"),
        "queries_per_s": (outcome.ops_per_s(), "1/s"),
        "rom_err_max": (err_max, "ratio")}

    if tracer is not None:
        view = tracing.TraceView(tracer)
        names = traced_ops(ops, "query")
        layers = common_layers(outcome, view, names)
        ms = _median_ms
        theta = view.durations(names, "deim.theta")
        layers.update({
            "deim.theta_ms": ms(theta),
            "deim.theta_self_ms": ms(view.self_durations(names, "deim.theta")),
            "levelset.subset_geometry_ms":
                ms(view.durations(names, "levelset.subset_geometry")),
            "assembly.streams_ms": ms(view.durations(names,
                                                     "assembly.streams")),
            "rom.form_ms": ms(view.counted(names, "rom.form_s")),
            "rom.solve_ms": ms(view.counted(names, "rom.solve_s")),
            "rom.lift_ms": ms(view.counted(names, "rom.lift_s")),
            "deim.theta_calls": _median(view.calls(names, "deim.theta")),
            "deim.reduced_elements": sum(m.reduced_elements.size
                                         for m in model.deim.values()),
            "rom.reduced_dim": model.reduced_dim,
            "pipeline.load_bundle_s": _median(
                view.each("setup", "pipeline.load_bundle")),
            "deim.theta_share_pct": 1e5 * _mean(theta) / layers["trace.op_ms"],
            "rom.err_max": err_max,
        })
        outcome.layers = layers
    return outcome


# ---------------------------------------------------------------------------
# truth-solves

def truth_solves(seed, seconds, tracer, work: Path, sizes=FULL):
    cfg = RunConfig(**sizes["truth-solves"])
    calib = Calibration()

    def build():
        problem = pipeline.build_problem(cfg)
        for mu in (MU_MIN, MU_MAX):
            kkt.solve_kkt(kkt.assemble_kkt(
                assemble_operators(problem[3], mu, CENTER), cfg.alpha))
        return problem

    times = []
    with traced_setup(tracer):
        for _ in range(SETUP_REPEATS):
            problem, seconds_k = calib.timed(build)
            times.append(seconds_k)
    mesh, face_table, _case, ctx, _W = problem

    mus = mu_stream(seed, 2, 1 << 16)
    kept = {}

    def call(i):
        mu = float(mus[i])
        geom = levelset.classify_elements(mesh, face_table,
                                          LevelSetSquare(mu, CENTER))
        ops = ctx.assemble(geom)
        return kkt.solve_kkt(kkt.assemble_kkt(ops, cfg.alpha))

    def keep(i, sol):
        if len(kept) < GATE_SOLVES:
            kept[i] = sol
        return True

    ops = closed_loop("solve", seconds, tracer, calib, call, keep)
    outcome = Outcome(ops, statistics.median(times), peak_rss_mb())

    # gates (criterion 2): optimality gap and 3N residual of kept solutions
    for j, sol in kept.items():
        o = assemble_operators(ctx, sol.mu, CENTER)
        system = kkt.assemble_kkt(o, cfg.alpha)
        gap = np.linalg.norm(cfg.alpha * (o.M @ sol.u) - o.M @ sol.p) \
            / (np.linalg.norm(o.M @ sol.u) + np.linalg.norm(o.M @ sol.p)
               + 1e-30)
        res = np.linalg.norm(system.matrix @ sol.stacked() - system.rhs) \
            / (np.linalg.norm(system.rhs) + 1e-30)
        if not (gap <= GAP_TOL and res <= RESIDUAL_TOL):
            ops[j].ok = False

    t50, t90 = np.percentile(outcome.times(traced=False)
                             or outcome.times(), [50, 90]) * 1e3
    outcome.named = {
        "truth_p50_ms": (float(t50), "ms"), "truth_p90_ms": (float(t90), "ms"),
        "truth_solves_per_s": (outcome.ops_per_s(), "1/s")}

    if tracer is not None:
        view = tracing.TraceView(tracer)
        names = traced_ops(ops, "solve")
        layers = common_layers(outcome, view, names)
        ms = _median_ms
        lu = view.counted(names, "kkt.lu_s")
        solve = view.durations(names, "kkt.solve_kkt")
        layers.update({
            "levelset.classify_ms":
                ms(view.durations(names, "levelset.classify_elements")),
            "assembly.assemble_ms": ms(view.durations(names,
                                                      "assembly.assemble")),
            "kkt.form_ms": ms(view.durations(names, "kkt.assemble_kkt")),
            "kkt.lu_ms": ms(lu),
            "kkt.check_ms": ms([s - t for s, t in zip(solve, lu)]),
            "kkt.system_nnz": _median(view.counted(names, "kkt.system_nnz")),
            "kkt.system_rows": _median(view.counted(names,
                                                    "kkt.system_rows")),
            "kkt.active_dofs": _median(view.counted(names,
                                                    "kkt.active_dofs")),
            "kkt.lu_share_pct": 1e5 * _mean(lu) / layers["trace.op_ms"],
        })
        outcome.layers = layers
    return outcome


# ---------------------------------------------------------------------------
# paper-pipeline

COMMANDS = ("offline", "online", "verify")


def _config_text(seed: int, overrides: dict) -> str:
    lines = [f"seed = {seed}"]
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    return "\n".join(lines) + "\n"


def _run_cli(config: Path, out: Path, tracer=None, calib=None):
    """The three commands in-process.

    Returns the exit codes, the seconds of each command, their reference
    seconds (with ``calib``, which is measured between the commands) and
    the output of ``verify``.
    """
    codes, secs, refs = [], [], []
    text = ""
    before = calib.measure() if calib is not None else None
    for cmd in COMMANDS:
        buf = io.StringIO()
        span = tracer.span(f"cli.{cmd}") if tracer is not None \
            else contextlib.nullcontext()
        t0 = clock()
        with span, contextlib.redirect_stdout(buf):
            codes.append(cli.main([cmd, "--config", str(config),
                                   "--out", str(out)]))
        secs.append(clock() - t0)
        text = buf.getvalue()
        if calib is not None:
            after = calib.measure()
            refs.append(secs[-1] * REFERENCE_S / ((before + after) / 2))
            before = after
    return codes, secs, refs, text


def _csv_rom_errors(csv_path: Path) -> list[list[float]]:
    header, *rows = csv_path.read_text().splitlines()
    cols = [header.split(",").index(c) for c in ("err_y", "err_u", "err_p")]
    return [[float(row.split(",")[c]) for c in cols] for row in rows]


def paper_pipeline(seed, seconds, tracer, work: Path, sizes=FULL):
    warm_cfg = work / "warmup.cfg"
    warm_cfg.write_text(_config_text(seed, WARMUP_PIPELINE))
    calib = Calibration()
    times = []
    with traced_setup(tracer):
        for k in range(SETUP_REPEATS):
            (codes, _, _, _), seconds_k = calib.timed(
                lambda: _run_cli(warm_cfg, work / f"warmup{k}"))
            times.append(seconds_k)
            if any(codes):
                raise RuntimeError(f"warm-up pipeline exited with {codes}")

    config = work / "pipeline.cfg"
    config.write_text(_config_text(seed, sizes["paper-pipeline"]))
    out = work / "rep"
    stages = []        # (seconds, reference seconds) of each rep's commands
    reference = {}

    def call(i):
        # a traced run reports no end-to-end metric, so it does not
        # calibrate inside its ops
        if tracer is not None:
            return _run_cli(config, out, tracer if tracer.active else None)
        return _run_cli(config, out, calib=calib)

    def keep(i, result):
        codes, secs, refs, verify_text = result
        stages.append((secs, refs))
        ok = not any(codes) and "PASS" in verify_text \
            and "FAIL" not in verify_text
        if ok:
            errors = (out / "online_errors.csv").read_bytes()
            if "csv" not in reference:
                reference["csv"] = errors
                reference["err"], reference["mean_ok"] = rom_error_gate(
                    _csv_rom_errors(out / "online_errors.csv"))
            ok = errors == reference["csv"] and reference["mean_ok"]
        shutil.rmtree(out)
        return ok

    # the speed is measured between the commands of a repetition, and the
    # op time leaves those measurements out
    ops = closed_loop("rep", seconds, tracer, None, call, keep)
    for op, (secs, refs) in zip(ops, stages):
        op.seconds, op.ref_seconds = sum(secs), sum(refs)
    outcome = Outcome(ops, statistics.median(times), peak_rss_mb())
    untraced = [s for op, (s, _) in zip(ops, stages) if not op.traced] \
        or [s for s, _ in stages]
    outcome.named = {
        "offline_s": (_median([s[0] for s in untraced]), "s"),
        "report_s": (_median([s[1] for s in untraced]), "s"),
        "verify_s": (_median([s[2] for s in untraced]), "s"),
        "rom_err_max": (reference.get("err", float("nan")), "ratio")}

    if tracer is not None:
        view = tracing.TraceView(tracer)
        names = traced_ops(ops, "rep")
        layers = common_layers(outcome, view, names)

        def total(phase, *span_names):
            per_op = [sum(v) for v in zip(*(view.durations(names, n, phase)
                                            for n in span_names))]
            return _median(per_op)

        def counted(phase, name):
            return _median(view.counted(names, name, phase))

        off, rep = "cli.offline", "cli.online"
        report_s = total(None, rep)
        layers.update({
            "cli.offline_s": total(None, off),
            "cli.report_s": report_s,
            "cli.verify_s": total(None, "cli.verify"),
            "mesh.build_s": total(off, "mesh.build_background_mesh",
                                  "mesh.build_face_table"),
            "pipeline.training_sweep_s": total(off, "pipeline.training_sweep"),
            "assembly.assemble_s": total(off, "assembly.assemble"),
            "kkt.form_s": total(off, "kkt.assemble_kkt"),
            "kkt.lu_s": counted(off, "kkt.lu_s"),
            "pod.basis_s": total(off, "pod.pod_basis"),
            "pod.aggregate_s": total(off, "pod.aggregate_basis"),
            "deim.basis_s": total(off, "deim.deim_basis"),
            "deim.select_s": total(off, "deim.deim_select"),
            "deim.reduced_mesh_s": total(off, "deim.build_reduced_mesh"),
            "rom.precompute_s": total(off, "rom.precompute_reduced_terms"),
            "storage.write_s": total(off, "storage.save_matrix",
                                     "storage.save_index_list",
                                     "storage.write_csv"),
            "storage.bytes_written": counted(off, "storage.bytes_written"),
            "pipeline.load_bundle_s": total(rep, "pipeline.load_bundle"),
            "storage.read_s": total(rep, "storage.load_matrix",
                                    "storage.load_index_list",
                                    "storage.parse_config"),
            "storage.bytes_read": counted(rep, "storage.bytes_read"),
            "deim.spectral_norm_s": total(rep, "deim.spectral_norm"),
            "deim.spectral_norm_calls": _median(
                view.calls(names, "deim.spectral_norm")),
            "deim.reconstruct_s": total(rep, "deim.reconstruct"),
            "deim.select_report_s": total(rep, "deim.deim_select"),
            "rom.precompute_report_s": total(rep,
                                             "rom.precompute_reduced_terms"),
            "rom.query_s": total(rep, "rom.rom_solve"),
            "kkt.lu_report_s": counted(rep, "kkt.lu_s"),
            "deim.spectral_norm_share_pct":
                100.0 * total(rep, "deim.spectral_norm") / report_s,
            "rom.err_max": reference.get("err", 0.0),
        })
        outcome.layers = layers
    return outcome


WORKLOADS = {"online-queries": online_queries,
             "truth-solves": truth_solves,
             "paper-pipeline": paper_pipeline}
