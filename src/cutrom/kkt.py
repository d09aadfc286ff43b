"""Optimality system of the control problem and its direct solve.

The first-order conditions couple state, control and adjoint into one
3N x 3N saddle-point system

    [ M   0   A^T ] [y]   [b]
    [ 0  aM  -M^T ] [u] = [0]
    [ A  -M    0  ] [p]   [c]

whose rows at DOFs outside the active mesh are pinned to zero.  On the
active DOFs the control row gives u = p/a, which leaves the state/adjoint
rows M_aa y + A_aa^T p = b_a and A_aa y - M_aa p / a = c_a.  The stiffness
matrix is symmetric (diffusion, symmetric Nitsche terms, ghost penalty),
so with s = sqrt(a) these two real rows are the real and imaginary parts
of one complex-symmetric system of n_active rows

    (M_aa + i s A_aa) w = b_a + i s c_a,    w = y_a - i p_a / s,

which is nonsingular whenever A_aa is positive definite.  The solve
factors it, sets y = Re w, p = -s Im w and u = p/a on the active DOFs and
0 outside them; the matrix is built in one CSC construction from the CSR
arrays of the active rows of M and A.  A nonsymmetric A breaks this
equivalence; the residual check below, which uses A^T, then fails.  The
pinned 3N system stays available as ``KktSystem.matrix`` and ``.rhs``,
built on first access, and the solve checks its residual one block row at
a time without forming it.

The LU uses a symmetric fill-reducing ordering (minimum degree on the
pattern of K + K^T) and takes every pivot on the diagonal, with no row
interchanges.  This is sound: the Hermitian part of -iK is s A_aa, which
is symmetric positive definite, so x^H (-i P^T K P) x has a positive real
part for every x != 0 and every permutation P.  Every principal submatrix
of every symmetric permutation of K is therefore nonsingular, and an LU
without pivoting exists in exact arithmetic (Axelsson & Kucherov, Numer.
Linear Algebra Appl. 7, 2000, for the complex form).  Every active element
has a positive clipped area (a vertex value snapped to zero counts as
outside, see ``levelset``), so no active DOF has an empty mass row and M_aa
is positive definite too; Higham (Math. Comp. 67, 1998) then bounds the
growth factor.  A clipped area can still be tiny, so the 3N residual check
stays the guard against a growth the bound allows.  An exactly zero pivot
(an empty row) is reported by SuperLU and raised as a ``NumericalError``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ParametricOperators
from .errors import NumericalError

RESIDUAL_TOL = 1e-9


@dataclass
class KktSystem:
    ops: ParametricOperators
    alpha: float
    condensed: sp.csc_matrix       # n_active x n_active, complex128
    condensed_rhs: np.ndarray      # (n_active,), complex128

    @property
    def n(self) -> int:
        return self.ops.A.shape[0]

    @property
    def mu(self) -> float:
        return self.ops.mu

    @property
    def active_dofs(self) -> np.ndarray:
        return self.ops.active_dofs

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The pinned 3N x 3N system (unit rows at inactive DOFs), of which
        the condensed solve is the exact solution."""
        ops, n = self.ops, self.n
        big = sp.bmat([[ops.M, None, ops.A.T],
                       [None, self.alpha * ops.M, -ops.M.T],
                       [ops.A, -ops.M, None]], format="csr")
        mask = np.ones(n, dtype=bool)
        mask[self.active_dofs] = False
        inactive = np.flatnonzero(mask)
        diag = np.zeros(3 * n)
        for k in range(3):
            diag[k * n + inactive] = 1.0
        return (big + sp.diags(diag)).tocsr()

    @functools.cached_property
    def rhs(self) -> np.ndarray:
        """Right-hand side of the pinned 3N system."""
        active, n = self.active_dofs, self.n
        rhs = np.zeros(3 * n)
        rhs[active] = self.ops.b[active]
        rhs[2 * n + active] = self.ops.c[active]
        return rhs


@dataclass
class FullSolution:
    y: np.ndarray
    u: np.ndarray
    p: np.ndarray
    mu: float
    solve_time: float
    # relative residual of the 3N system; nan where no solve computed it
    residual: float = float("nan")

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.y, self.u, self.p])


def _active_entries(mat: sp.csr_matrix, active: np.ndarray,
                    local: np.ndarray):
    """Local (row, col, value) of the stored entries (explicit zeros too)
    in active rows and columns; ``local`` maps other DOFs to -1."""
    start = mat.indptr[active]
    count = mat.indptr[active + 1] - start
    pos = np.arange(count.sum()) + np.repeat(start + count - count.cumsum(),
                                             count)
    cols = local[mat.indices[pos]]
    keep = cols >= 0
    rows = np.repeat(np.arange(active.size, dtype=local.dtype), count)
    return rows[keep], cols[keep], mat.data[pos][keep]


def assemble_kkt(ops: ParametricOperators, alpha: float) -> KktSystem:
    """Form the complex-symmetric condensed system on the active DOFs."""
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    n = ops.A.shape[0]
    if ops.M.shape != (n, n) or ops.b.shape != (n,) or ops.c.shape != (n,):
        raise ValueError("inconsistent operator dimensions")
    active = ops.active_dofs
    na = active.size
    s = np.sqrt(alpha)
    # int32 indices let the sparse constructor skip downcast scans
    local = np.full(n, -1, dtype=np.int32)
    local[active] = np.arange(na)
    mi, mj, mv = _active_entries(ops.M, active, local)
    ai, aj, av = _active_entries(ops.A, active, local)
    # M_aa + i s A_aa; the constructor sums the entries both patterns share
    K = sp.csc_matrix(
        (np.concatenate([mv, 1j * (s * av)]),
         (np.concatenate([mi, ai]), np.concatenate([mj, aj]))),
        shape=(na, na))
    rhs = ops.b[active] + 1j * (s * ops.c[active])
    return KktSystem(ops, alpha, K, rhs)


def _residual(system: KktSystem, y, u, p) -> float:
    """Relative residual of the pinned 3N system, one block row at a time."""
    ops, rhs = system.ops, system.rhs
    lhs = np.concatenate([ops.M @ y + ops.A.T @ p,
                          system.alpha * (ops.M @ u) - ops.M.T @ p,
                          ops.A @ y - ops.M @ u])
    return float(np.linalg.norm(lhs - rhs) / (np.linalg.norm(rhs) + 1e-30))


def solve_kkt(system: KktSystem) -> FullSolution:
    """Sparse LU solve of the condensed system (symmetric ordering,
    diagonal pivots) with a check of the relative residual of the 3N
    system."""
    t0 = time.perf_counter()
    try:
        lu = spla.splu(system.condensed, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        w = lu.solve(system.condensed_rhs)
    except RuntimeError as exc:  # SuperLU reports the failing pivot
        raise NumericalError(
            f"singular optimality system at mu={system.mu}: {exc}") from exc
    solve_time = time.perf_counter() - t0

    active, n = system.active_dofs, system.n
    y, u, p = np.zeros(n), np.zeros(n), np.zeros(n)
    y[active] = w.real
    p[active] = -np.sqrt(system.alpha) * w.imag
    u[active] = p[active] / system.alpha
    res = _residual(system, y, u, p)
    if not res <= RESIDUAL_TOL:
        raise NumericalError(
            f"optimality solve at mu={system.mu} has residual {res:.3e}")
    return FullSolution(y, u, p, system.mu, solve_time, res)
