"""In-memory span recorder for calls into cutrom's public functions.

A span is taken by replacing a function or method at the name its caller
looks up (``cutrom.pipeline.spectral_norm``, ``AssemblyContext.streams``),
so nothing under ``src/`` is edited.  Each span records its name, start,
end, parent span and the id of the operation (one query, one solve or one
pipeline repetition) it belongs to.  Counts are recorded against the span
that is open when they are taken.  Everything stays in memory until
``dump`` writes it out once, at the end of a run.

The layer of a span is the part of its name before the first dot; it is
the package module whose function was called, or ``bench`` for the
harness's own root span of an operation.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("bench", "cli", "pipeline", "storage", "mesh", "levelset",
          "assembly", "kkt", "pod", "deim", "rom")

NAME, START, END, PARENT, OP = range(5)


def _file_bytes(key):
    def hook(result, args):
        return [(key, os.path.getsize(args[0]))]
    return hook


def _kkt_counts(system, args):
    return [("kkt.system_nnz", system.matrix.nnz),
            ("kkt.system_rows", system.matrix.shape[0]),
            ("kkt.active_dofs", system.active_dofs.size)]


def _lu_time(solution, args):
    return [("kkt.lu_s", solution.solve_time)]


def _rom_phases(solution, args):
    return [(f"rom.{phase}_s", solution.timings[phase])
            for phase in ("form", "solve", "lift")]


def targets():
    """(owner, attribute, span name, count hook) for every traced call site.

    Each function is wrapped under every module name its callers use, so a
    call is traced whichever module makes it.
    """
    from cutrom import assembly, cli, deim, kkt, levelset, pipeline, rom

    read = _file_bytes("storage.bytes_read")
    written = _file_bytes("storage.bytes_written")
    sites = [
        (cli, "run_offline", "pipeline.run_offline", None),
        (cli, "run_online", "pipeline.run_online", None),
        (cli, "run_verify", "pipeline.run_verify", None),
        (cli, "parse_config", "storage.parse_config", read),
        (pipeline, "run_offline", "pipeline.run_offline", None),
        (pipeline, "load_bundle", "pipeline.load_bundle", None),
        (pipeline, "training_sweep", "pipeline.training_sweep", None),
        (pipeline, "parse_config", "storage.parse_config", read),
        (pipeline, "save_matrix", "storage.save_matrix", written),
        (pipeline, "save_index_list", "storage.save_index_list", written),
        (pipeline, "write_csv", "storage.write_csv", written),
        (pipeline, "load_matrix", "storage.load_matrix", read),
        (pipeline, "load_index_list", "storage.load_index_list", read),
        (pipeline, "build_background_mesh", "mesh.build_background_mesh",
         None),
        (pipeline, "build_face_table", "mesh.build_face_table", None),
        (pipeline, "cut_candidates", "levelset.cut_candidates", None),
        (pipeline, "classify_elements", "levelset.classify_elements", None),
        (levelset, "classify_elements", "levelset.classify_elements", None),
        (levelset, "subset_geometry", "levelset.subset_geometry", None),
        (deim, "subset_geometry", "levelset.subset_geometry", None),
        (pipeline, "box_mass_matrix", "assembly.box_mass_matrix", None),
        (pipeline, "assemble_operators", "assembly.assemble_operators",
         None),
        (pipeline, "assemble_kkt", "kkt.assemble_kkt", _kkt_counts),
        (kkt, "assemble_kkt", "kkt.assemble_kkt", _kkt_counts),
        (pipeline, "solve_kkt", "kkt.solve_kkt", _lu_time),
        (kkt, "solve_kkt", "kkt.solve_kkt", _lu_time),
        (pipeline, "sample_parameters", "pod.sample_parameters", None),
        (pipeline, "pod_basis", "pod.pod_basis", None),
        (pipeline, "aggregate_basis", "pod.aggregate_basis", None),
        (pipeline, "deim_basis", "deim.deim_basis", None),
        (pipeline, "model_from_snapshots", "deim.model_from_snapshots",
         None),
        (pipeline, "truncate_model", "deim.truncate_model", None),
        (pipeline, "spectral_norm", "deim.spectral_norm", None),
        (deim, "deim_select", "deim.deim_select", None),
        (deim, "build_reduced_mesh", "deim.build_reduced_mesh", None),
        (pipeline, "precompute_reduced_terms",
         "rom.precompute_reduced_terms", None),
        (pipeline, "rom_solve", "rom.rom_solve", _rom_phases),
        (rom, "rom_solve", "rom.rom_solve", _rom_phases),
        (pipeline, "relative_error", "rom.relative_error", None),
        (assembly.AssemblyContext, "__init__", "assembly.context_init",
         None),
        (assembly.AssemblyContext, "streams", "assembly.streams", None),
        (assembly.AssemblyContext, "assemble", "assembly.assemble", None),
        (assembly.AssemblyContext, "assemble_component",
         "assembly.assemble_component", None),
        (deim.PartialAssembler, "theta", "deim.theta", None),
        (deim.PartialAssembler, "reconstruct", "deim.reconstruct", None),
    ]
    return sites


class Tracer:
    """Spans and counts of one run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, op]
        self.counts: list[tuple] = []        # (name, value, span, op)
        self.op = "setup"
        self._stack = [-1]
        self._patches: list[tuple] = []

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1], self.op]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                for key, value in hook(result, args):
                    self.count(key, value)
            return result
        return traced

    def install(self, sites) -> None:
        """Wrap every call site; ``uninstall`` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, hook in sites:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, hook))
            self._patches.append((owner, attr, original))

    @property
    def active(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself (operation roots, CLI calls)."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1], self.op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts.append((name, float(value), self._stack[-1], self.op))

    def dump(self, path, meta: dict) -> None:
        """Write the run's record: one JSON line of metadata, then spans."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": rec[NAME],
                                     "start": rec[START], "end": rec[END],
                                     "parent": rec[PARENT],
                                     "op": rec[OP]}) + "\n")
            for name, value, sid, op in self.counts:
                fh.write(json.dumps({"count": name, "value": value,
                                     "span": sid, "op": op}) + "\n")


class TraceView:
    """Per-operation sums over a finished trace.

    ``phase`` restricts a sum to spans below the harness span of that name
    (``cli.offline``, ``cli.online``, ``cli.verify``).
    """

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.counts = tracer.counts
        # parents are appended before their children, so one pass suffices
        self.phase = []
        for rec in self.spans:
            inherited = self.phase[rec[PARENT]] if rec[PARENT] >= 0 else None
            self.phase.append(rec[NAME] if rec[NAME].startswith("cli.")
                              else inherited)

    def durations(self, ops, name, phase=None) -> list[float]:
        """Total seconds in spans called ``name``, one entry per op."""
        total = dict.fromkeys(ops, 0.0)
        for sid, rec in enumerate(self.spans):
            if rec[NAME] == name and rec[OP] in total \
                    and (phase is None or self.phase[sid] == phase):
                total[rec[OP]] += rec[END] - rec[START]
        return list(total.values())

    def each(self, op, name) -> list[float]:
        """Seconds of every span called ``name`` in one op."""
        return [rec[END] - rec[START] for rec in self.spans
                if rec[NAME] == name and rec[OP] == op]

    def calls(self, ops, name) -> list[int]:
        total = dict.fromkeys(ops, 0)
        for rec in self.spans:
            if rec[NAME] == name and rec[OP] in total:
                total[rec[OP]] += 1
        return list(total.values())

    def counted(self, ops, name, phase=None) -> list[float]:
        """Sum of the values counted as ``name``, one entry per op."""
        total = dict.fromkeys(ops, 0.0)
        for cname, value, sid, op in self.counts:
            if cname == name and op in total \
                    and (phase is None
                         or (sid >= 0 and self.phase[sid] == phase)):
                total[op] += value
        return list(total.values())

    def self_durations(self, ops, name) -> list[float]:
        """Seconds in spans called ``name`` minus their children, per op."""
        selfs = self._self_times()
        total = dict.fromkeys(ops, 0.0)
        for sid, rec in enumerate(self.spans):
            if rec[NAME] == name and rec[OP] in total:
                total[rec[OP]] += selfs[sid]
        return list(total.values())

    def layer_self(self, ops) -> dict[str, float]:
        """Self time per layer summed over ``ops``, in seconds.

        The sum over layers equals the summed duration of the ops' root
        spans, because every instant of a span belongs to exactly one of
        the span and its children.
        """
        selfs = self._self_times()
        wanted = set(ops)
        total = dict.fromkeys(LAYERS, 0.0)
        for sid, rec in enumerate(self.spans):
            if rec[OP] in wanted:
                layer = rec[NAME].split(".", 1)[0]
                total[layer] = total.get(layer, 0.0) + selfs[sid]
        return total

    def _self_times(self) -> list[float]:
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - child[sid]
                for sid, rec in enumerate(self.spans)]
