"""Artifact persistence: matrix container, config files, CSV reports.

The matrix container is deliberately minimal so that round trips are
bitwise exact on any platform: magic "ROMB", u32 version, u64 rows, u64
cols, then row-major float64, all little-endian.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .assembly import CASES
from .errors import ConfigError

MAGIC = b"ROMB"
VERSION = 1
# offline stages in build order; 'stages' selects a subset of them
STAGES = ("snapshots", "pod")


def save_matrix(path, matrix: np.ndarray) -> None:
    arr = np.asarray(matrix, dtype="<f8")
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("container stores two-dimensional arrays")
    arr = np.ascontiguousarray(arr)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
        fh.write(arr.data)      # the array's own buffer, no bytes copy


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(4 + 4 + 16)
        if len(head) < 24 or head[:4] != MAGIC:
            raise ConfigError(f"{path}: not a matrix container")
        (version,) = struct.unpack("<I", head[4:8])
        if version != VERSION:
            raise ConfigError(f"{path}: unsupported container version "
                              f"{version}")
        rows, cols = struct.unpack("<QQ", head[8:24])
        expected = rows * cols * 8
        size = os.fstat(fh.fileno()).st_size - len(head)
        if size != expected:
            raise ConfigError(f"{path}: truncated container "
                              f"({size} of {expected} payload bytes)")
        # read straight into the result, checked against short reads
        arr = np.empty((rows, cols), dtype="<f8")
        got = fh.readinto(arr.reshape(-1).view(np.uint8))
    if got != expected:
        raise ConfigError(f"{path}: truncated container "
                          f"({got} of {expected} payload bytes)")
    return arr


def save_index_list(path, values) -> None:
    arr = np.asarray(values, dtype=np.int64).ravel()
    with open(path, "w", newline="\n") as fh:
        for v in arr:
            fh.write(f"{int(v)}\n")


def load_index_list(path) -> np.ndarray:
    with open(path) as fh:
        vals = [int(line) for line in fh if line.strip()]
    return np.asarray(vals, dtype=np.int64)


def write_csv(path, header, rows) -> None:
    """Deterministic CSV: '.' decimals, shortest float repr, LF endings."""
    def cell(x) -> str:
        if isinstance(x, (float, np.floating)):
            return repr(float(x))
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return str(x)

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(x) for x in row) + "\n")


def read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


@dataclass
class RunConfig:
    """Resolved configuration of one offline/online run."""

    box_min_x: float = -0.3
    box_min_y: float = -0.3
    box_max_x: float = 2.3
    box_max_y: float = 2.3
    h_target: float = 0.09
    mu_min: float = 0.4
    mu_max: float = 0.5
    alpha: float = 1e-4
    gamma_d: float = 10.0
    gamma_1: float = 0.1
    m_train: int = 370
    m_test: int = 30
    seed: int = 20240
    eps_pod: float = 1e-5
    pod_store: int = 40
    case: str = "square_poisson"
    out_dir: str = "rom_out"
    stages: str = "all"

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config(path) -> RunConfig:
    """Flat key=value file; '#' starts a comment; unknown keys are errors."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        ftype = _FIELD_TYPES[key]
        try:
            if ftype in ("float", float):
                values[key] = float(value)
            elif ftype in ("int", int):
                values[key] = int(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: "
                              f"{value!r}") from exc
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.case not in CASES:
        raise ConfigError(f"unknown case {cfg.case!r}; available: "
                          + ",".join(sorted(CASES)))
    if not 0 < cfg.mu_min < cfg.mu_max:
        raise ConfigError("need 0 < mu_min < mu_max")
    if not (cfg.box_min_x < cfg.box_max_x and cfg.box_min_y < cfg.box_max_y):
        raise ConfigError("need box_min_x < box_max_x and "
                          "box_min_y < box_max_y")
    if cfg.h_target <= 0:
        raise ConfigError("h_target must be positive")
    if cfg.m_train < 2:
        raise ConfigError("m_train must be at least 2")
    if cfg.m_test < 1:
        raise ConfigError("m_test must be at least 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if min(cfg.alpha, cfg.gamma_d, cfg.gamma_1) <= 0:
        raise ConfigError("alpha, gamma_d, gamma_1 must be positive")
    if not 0 <= cfg.eps_pod < 1:
        raise ConfigError("eps_pod must lie in [0, 1)")
    selected_stages(cfg)


def selected_stages(cfg: RunConfig) -> set[str]:
    if cfg.stages == "all":
        return set(STAGES)
    chosen = {s.strip() for s in cfg.stages.split(",") if s.strip()}
    if not chosen or not chosen <= set(STAGES):
        raise ConfigError("stages must be 'all' or a subset of "
                          + ",".join(STAGES))
    return chosen


def config_echo(cfg: RunConfig) -> str:
    lines = [f"{key} = {value}" for key, value in cfg.as_dict().items()]
    return "\n".join(lines) + "\n"
