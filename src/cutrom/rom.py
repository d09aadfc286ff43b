"""Reduced optimality system: offline projection and online solves.

Offline, every interpolation mode of the stiffness and mass families is
projected once onto the aggregated basis; online, a new parameter value
only requires the interpolation coefficients (read from the theta table
of the DEIM models' entries, by partial assembly on the reduced meshes
next to a breakpoint), one matrix-vector product of the coefficients with
each family's flattened terms, a finiteness check, and one dense solve by
LAPACK getrf and getrs with a pivot check between them.  Nothing in the
online path scales with the full-order dimension.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs

from .assembly import AssemblyContext
from .deim import COMPONENTS, DeimModel, PartialAssembler, ThetaTable
from .errors import NumericalError
from .kkt import FullSolution
from .pod import AggregatedBasis

PIVOT_TOL = 1e-14


@dataclass
class RomModel:
    """Precomputed reduced terms, the fused theta table of the DEIM models
    and, built on first read, their partial assemblers: one per component,
    and ``assembler`` for all four in one pass."""

    basis: AggregatedBasis
    alpha: float
    A_terms: np.ndarray            # (m_A, n_yp, n_yp)
    M_yp_terms: np.ndarray         # (m_M, n_yp, n_yp)
    M_u_terms: np.ndarray          # (m_M, n_u, n_u)
    M_uyp_terms: np.ndarray        # (m_M, n_u, n_yp)
    b_terms: np.ndarray            # (m_b, n_yp)
    c_terms: np.ndarray            # (m_c, n_yp)
    deim: dict[str, DeimModel]
    table: ThetaTable              # columns in COMPONENTS order
    ctx: AssemblyContext

    @property
    def reduced_dim(self) -> int:
        return self.basis.reduced_dim

    @cached_property
    def assemblers(self) -> dict[str, PartialAssembler]:
        return {comp: PartialAssembler(model, self.ctx)
                for comp, model in self.deim.items()}

    @cached_property
    def assembler(self) -> PartialAssembler:
        return PartialAssembler([self.deim[c] for c in COMPONENTS], self.ctx)

    @cached_property
    def _slices(self) -> list[slice]:
        ends = np.cumsum([self.deim[c].m for c in COMPONENTS]).tolist()
        return [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]

    def theta(self, mu: float) -> list[np.ndarray]:
        """Selected entries of A, M, b and c at mu, one array per component:
        from the table, or by the fused partial assembly outside the range
        and next to a breakpoint."""
        theta = self.table(mu)
        if theta is None:
            theta = self.assembler.theta(mu)
        return [theta[s] for s in self._slices]


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
    deflated_dims: int = 0              # directions dropped by the solve


def precompute_reduced_terms(basis: AggregatedBasis,
                             deim_models: dict[str, DeimModel],
                             table: ThetaTable, ctx: AssemblyContext,
                             alpha: float) -> RomModel:
    """Project every interpolation term onto the aggregated basis.

    Terms are the columns of the oblique projector U (P^T U)^-1, so the
    online coefficients are the raw interpolated entries; this absorbs the
    m x m interpolation solve into the offline stage without changing the
    assembled reduced system.  ``table`` holds theta of the models'
    entries, in ``COMPONENTS`` order.
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

    return RomModel(basis, alpha, A_terms, M_yp, M_u, M_uyp,
                    b_terms, c_terms, dict(deim_models), table, ctx)


def _combine(theta: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_j theta_j terms[j] as one GEMV over the flattened terms, the
    product ``np.tensordot(theta, terms, axes=1)`` runs without its
    wrapper."""
    return (theta @ terms.reshape(terms.shape[0], -1)).reshape(
        terms.shape[1:])


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
    """Solution and pivot ratio min / max |diag(LU)| of the reduced system:
    LAPACK getrf, the pivot check, then getrs."""
    lu, piv, _ = dgetrf(K)
    diag = np.abs(lu.diagonal())
    smallest, scale = diag.min(), diag.max()
    if smallest <= PIVOT_TOL * scale:
        raise NumericalError(
            f"singular reduced system at mu={mu}: smallest pivot "
            f"{smallest:.3e} at position {int(np.argmin(diag))}")
    return dgetrs(lu, piv, rhs)[0], float(smallest / scale)


def _reduced_solve(K: np.ndarray, rhs: np.ndarray, mu: float,
                   model: RomModel, th_M: np.ndarray):
    """``_dense_solve``; a singular system is solved again on the directions
    where the reduced mass blocks do not vanish (the reduced form of the
    truth solve's pinning of inactive DOFs), and the number of dropped
    directions is returned too.  A direction whose lift vanishes on the
    active mesh has zero mass.  The sum of m mass terms rounds by at most
    m eps sum_j |theta_j| ||terms_j|| and the n x n eigensolve adds n eps
    times its norm, so by Weyl's inequality an eigenvalue below (m + n)
    eps sum_j |theta_j| ||terms_j||_F is zero to working precision."""
    try:
        return (*_dense_solve(K, rhs, mu), 0)
    except NumericalError:
        keep = []
        for terms in (model.M_yp_terms, model.M_u_terms):
            lam, Q = np.linalg.eigh(_combine(th_M, terms))
            noise = (th_M.size + lam.size) * np.finfo(float).eps \
                * (np.abs(th_M) @ np.linalg.norm(terms, axis=(1, 2)))
            keep.append(Q[:, lam > noise])
    T = sla.block_diag(keep[0], keep[1], keep[0])
    x, pivot_ratio = _dense_solve(T.T @ K @ T, T.T @ rhs, mu)
    return T @ x, pivot_ratio, K.shape[0] - T.shape[1]


def rom_solve(model: RomModel, mu: float, lift: bool = True) -> RomSolution:
    """Online reduced solve: ``RomModel.theta``, then ``rom_solve_theta``;
    wall-clock per phase is recorded."""
    t0 = time.perf_counter()
    thetas = model.theta(mu)
    t1 = time.perf_counter()
    sol = rom_solve_theta(model, mu, thetas, lift)
    sol.timings["theta"] = t1 - t0
    sol.timings["total_excl_lift"] += t1 - t0
    return sol


def rom_solve_theta(model: RomModel, mu: float, thetas,
                    lift: bool = True) -> RomSolution:
    """Reduced solve from the selected entries of A, M, b and c: one array
    per component, as long as its ``model.deim`` model; the timings have
    no ``theta`` phase."""
    t1 = time.perf_counter()
    th_A, th_M, th_b, th_c = thetas
    K, rhs = assemble_reduced_system(
        _combine(th_A, model.A_terms), _combine(th_M, model.M_yp_terms),
        _combine(th_M, model.M_u_terms), _combine(th_M, model.M_uyp_terms),
        th_b @ model.b_terms, th_c @ model.c_terms, model.alpha)
    if not (np.isfinite(K).all() and np.isfinite(rhs).all()):
        # a non-finite theta_j reaches every entry of its family's blocks
        raise NumericalError(f"non-finite reduced system at mu={mu}")
    t2 = time.perf_counter()
    x, pivot_ratio, deflated = _reduced_solve(K, rhs, mu, model, th_M)
    t3 = time.perf_counter()
    y_N, u_N, p_N = model.basis.split(x)
    y = u = p = None
    if lift:
        y, u, p = model.basis.lift(y_N, u_N, p_N)
    t4 = time.perf_counter()
    timings = {"form": t2 - t1, "solve": t3 - t2, "lift": t4 - t3,
               "total_excl_lift": t3 - t1}
    return RomSolution(mu, y_N, u_N, p_N, y, u, p, timings, pivot_ratio,
                       deflated)


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
