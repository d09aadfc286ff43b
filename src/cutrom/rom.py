"""Reduced optimality system: offline projection and online solves.

Offline, every interpolation mode of the stiffness and mass families is
projected once onto the aggregated basis; online, a new parameter value
only requires the interpolation coefficients (from partial assembly on the
reduced meshes), a weighted sum of the precomputed small matrices and one
dense solve.  Nothing in the online path scales with the full-order
dimension.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import AssemblyContext
from .deim import COMPONENTS, DeimModel, PartialAssembler
from .errors import NumericalError
from .kkt import FullSolution
from .pod import AggregatedBasis

PIVOT_TOL = 1e-14


@dataclass
class RomModel:
    """Precomputed reduced terms plus the online assemblers: one per
    component, and ``assembler`` for all four in one pass."""

    basis: AggregatedBasis
    alpha: float
    A_terms: np.ndarray            # (m_A, n_yp, n_yp)
    M_yp_terms: np.ndarray         # (m_M, n_yp, n_yp)
    M_u_terms: np.ndarray          # (m_M, n_u, n_u)
    M_uyp_terms: np.ndarray        # (m_M, n_u, n_yp)
    b_terms: np.ndarray            # (m_b, n_yp)
    c_terms: np.ndarray            # (m_c, n_yp)
    deim: dict[str, DeimModel]
    assemblers: dict[str, PartialAssembler]
    assembler: PartialAssembler    # models in COMPONENTS order

    @property
    def reduced_dim(self) -> int:
        return self.basis.reduced_dim


@dataclass
class RomSolution:
    mu: float
    y_N: np.ndarray
    u_N: np.ndarray
    p_N: np.ndarray
    y: Optional[np.ndarray]
    u: Optional[np.ndarray]
    p: Optional[np.ndarray]
    timings: dict[str, float] = field(default_factory=dict)
    pivot_ratio: float = float("nan")   # min / max |diag(LU)|


def precompute_reduced_terms(basis: AggregatedBasis,
                             deim_models: dict[str, DeimModel],
                             ctx: AssemblyContext, alpha: float) -> RomModel:
    """Project every interpolation term onto the aggregated basis.

    Terms are the columns of the oblique projector U (P^T U)^-1, so the
    online coefficients are the raw interpolated entries; this absorbs the
    m x m interpolation solve into the offline stage without changing the
    assembled reduced system.
    """
    Vyp = basis.V_yp
    Vu = basis.V_u

    def matrix_modes(model: DeimModel):
        # kept pattern entries laid out on the ever-active DOFs, which are
        # the basis rows
        for j in range(model.m):
            yield ctx.kept_matrix(model.component, model.projector[:, j])

    mA = deim_models["A"].m
    mM = deim_models["M"].m
    A_terms = np.empty((mA, basis.n_yp, basis.n_yp))
    for j, Uj in enumerate(matrix_modes(deim_models["A"])):
        A_terms[j] = Vyp.T @ (Uj @ Vyp)
    M_yp = np.empty((mM, basis.n_yp, basis.n_yp))
    M_u = np.empty((mM, basis.n_u, basis.n_u))
    M_uyp = np.empty((mM, basis.n_u, basis.n_yp))
    for j, Wj in enumerate(matrix_modes(deim_models["M"])):
        M_yp[j] = Vyp.T @ (Wj @ Vyp)
        M_u[j] = Vu.T @ (Wj @ Vu)
        M_uyp[j] = Vu.T @ (Wj.T @ Vyp)
    b_terms = deim_models["b"].projector.T @ Vyp
    c_terms = deim_models["c"].projector.T @ Vyp

    assemblers = {comp: PartialAssembler(model, ctx)
                  for comp, model in deim_models.items()}
    assembler = PartialAssembler([deim_models[c] for c in COMPONENTS], ctx)
    return RomModel(basis, alpha, A_terms, M_yp, M_u, M_uyp,
                    b_terms, c_terms, dict(deim_models), assemblers,
                    assembler)


def assemble_reduced_system(A_r, M_yp_r, M_u_r, M_uyp_r, b_r, c_r,
                            alpha: float):
    """Dense reduced saddle-point system from its component blocks."""
    nyp = A_r.shape[0]
    nu = M_u_r.shape[0]
    dim = 2 * nyp + nu
    K = np.zeros((dim, dim))
    K[:nyp, :nyp] = M_yp_r
    K[:nyp, nyp + nu:] = A_r.T
    K[nyp:nyp + nu, nyp:nyp + nu] = alpha * M_u_r
    K[nyp:nyp + nu, nyp + nu:] = -M_uyp_r
    K[nyp + nu:, :nyp] = A_r
    K[nyp + nu:, nyp:nyp + nu] = -M_uyp_r.T
    rhs = np.concatenate([b_r, np.zeros(nu), c_r])
    return K, rhs


def _dense_solve(K: np.ndarray, rhs: np.ndarray, mu: float):
    """Solution and pivot ratio min / max |diag(LU)| of the reduced system."""
    with warnings.catch_warnings():
        # the pivot check below reports singularity with more context
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(K)
    diag = np.abs(np.diag(lu))
    scale = diag.max() if diag.size else 0.0
    if scale == 0.0 or diag.min() <= PIVOT_TOL * scale:
        raise NumericalError(
            f"singular reduced system at mu={mu}: smallest pivot "
            f"{diag.min():.3e} at position {int(np.argmin(diag))}")
    return sla.lu_solve((lu, piv), rhs), float(diag.min() / scale)


def rom_solve(model: RomModel, mu: float, lift: bool = True) -> RomSolution:
    """Online reduced solve; wall-clock per phase is recorded."""
    t0 = time.perf_counter()
    th_A, th_M, th_b, th_c = model.assembler.split(
        model.assembler.theta(mu))
    t1 = time.perf_counter()
    A_r = np.tensordot(th_A, model.A_terms, axes=1)
    M_yp_r = np.tensordot(th_M, model.M_yp_terms, axes=1)
    M_u_r = np.tensordot(th_M, model.M_u_terms, axes=1)
    M_uyp_r = np.tensordot(th_M, model.M_uyp_terms, axes=1)
    b_r = th_b @ model.b_terms
    c_r = th_c @ model.c_terms
    K, rhs = assemble_reduced_system(A_r, M_yp_r, M_u_r, M_uyp_r,
                                     b_r, c_r, model.alpha)
    t2 = time.perf_counter()
    x, pivot_ratio = _dense_solve(K, rhs, mu)
    t3 = time.perf_counter()
    y_N, u_N, p_N = model.basis.split(x)
    y = u = p = None
    if lift:
        y, u, p = model.basis.lift(y_N, u_N, p_N)
    t4 = time.perf_counter()
    timings = {"theta": t1 - t0, "form": t2 - t1, "solve": t3 - t2,
               "lift": t4 - t3, "total_excl_lift": t3 - t0}
    return RomSolution(mu, y_N, u_N, p_N, y, u, p, timings, pivot_ratio)


def relative_error(full: FullSolution, rom: RomSolution,
                   M_mu: sp.csr_matrix):
    """Relative M-norm errors of (state, control, adjoint).

    A vanishing denominator switches that component to the absolute norm
    and raises its flag.
    """
    if rom.y is None:
        raise ValueError("rom solution was not lifted")
    if rom.mu != full.mu:
        raise ValueError("solutions belong to different parameter values")
    errs = np.zeros(3)
    flags = np.zeros(3, dtype=bool)
    for k, (w_full, w_rom) in enumerate(((full.y, rom.y), (full.u, rom.u),
                                         (full.p, rom.p))):
        d = w_full - w_rom
        num = np.sqrt(max(d @ (M_mu @ d), 0.0))
        den = np.sqrt(max(w_full @ (M_mu @ w_full), 0.0))
        if den == 0.0:
            errs[k] = num
            flags[k] = True
        else:
            errs[k] = num / den
    return errs, flags
