"""Training samples and proper orthogonal decomposition.

Bases are extracted with the method of snapshots: the M x M correlation
matrix C = S^T W S / M is diagonalized and the basis vectors are the
snapshot combinations S x_i / sqrt(M lambda_i), which are W-orthonormal.
W is the mass matrix of the full background box, a fixed SPD inner product
that is well defined for snapshots extended by zero outside their active
mesh.  Snapshots, bases and W are kept on the ever-active DOFs only (see
``AssemblyContext``); every other row of a snapshot is exactly zero, so
inner products and bases are those of the full rows, and a lift scatters
back to full-length vectors.

State and adjoint modes are merged into one aggregated space used for both
trial and test blocks of the reduced optimality system.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError

DUPLICATE_TOL = 1e-12
DROP_TOL = 1e-10   # rank-revealing column drop in the aggregation
# eigenvalues this far below the leading one are Gram-matrix noise, not
# recoverable snapshot directions; they are never stored as basis vectors
NOISE_REL = 1e-12


def sample_parameters(lo: float, hi: float, count: int,
                      seed: int) -> np.ndarray:
    """Sorted uniform sample that always contains both endpoints.

    Reproducible from the seed; duplicate draws (within 1e-12) are redrawn
    deterministically.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if count < 2:
        raise ValueError("count must be at least 2 to include the endpoints")
    rng = np.random.default_rng(seed)
    values = [lo, hi]
    while len(values) < count:
        draw = float(rng.uniform(lo, hi))
        if min(abs(draw - v) for v in values) > DUPLICATE_TOL:
            values.append(draw)
    return np.sort(np.asarray(values))


@dataclass
class SnapshotSet:
    """Solution snapshots of the optimality system over a training sample."""

    params: np.ndarray             # (M,) sorted
    S_y: np.ndarray                # (n_dofs, M) on the ever-active DOFs
    S_u: np.ndarray
    S_p: np.ndarray


@dataclass
class PodBasis:
    """Truncated basis with the full eigenvalue record.

    ``vectors`` may hold more columns than ``retained`` so that reports can
    re-truncate without recomputing snapshots; the energy criterion selects
    the first ``retained`` of them.
    """

    vectors: np.ndarray            # (n_dofs, n_stored)
    eigenvalues: np.ndarray        # (M,) non-increasing, clipped at zero
    retained: int
    tolerance: float

    @property
    def stored(self) -> int:
        return self.vectors.shape[1]

    def truncated(self, k: int) -> np.ndarray:
        return self.vectors[:, :min(k, self.stored)]


def energy_cutoff(eigenvalues: np.ndarray, eps: float) -> int:
    """Minimal k with sum(lambda[:k]) >= (1 - eps) * sum(lambda)."""
    total = float(np.sum(eigenvalues))
    if total <= 0.0:
        return 0
    frac = np.cumsum(eigenvalues) / total
    k = int(np.searchsorted(frac, (1.0 - eps) - 1e-15) + 1)
    return min(k, eigenvalues.size)


def _w_orthonormalize(V: np.ndarray, W: sp.csr_matrix,
                      drop_tol: float = 0.0):
    """Modified Gram-Schmidt in the W inner product (two passes per column).

    Columns whose residual W-norm falls below ``drop_tol`` are dropped.
    Returns the orthonormalized matrix and the kept column indices.
    """
    cols: list[np.ndarray] = []
    wcols: list[np.ndarray] = []
    kept: list[int] = []
    for j in range(V.shape[1]):
        v = V[:, j].copy()
        for _ in range(2):
            for q, wq in zip(cols, wcols):
                v -= (wq @ v) * q
        wv = W @ v
        norm = np.sqrt(max(v @ wv, 0.0))
        if norm <= drop_tol:
            continue
        v /= norm
        cols.append(v)
        wcols.append(W @ v)
        kept.append(j)
    if not cols:
        return np.zeros((V.shape[0], 0)), []
    return np.column_stack(cols), kept


def pod_basis(S: np.ndarray, W: sp.csr_matrix, eps: float,
              min_stored: int = 0) -> PodBasis:
    """Method-of-snapshots basis, W-orthonormal, truncated by energy.

    Zero (and numerically negligible) eigenvalues are never retained.  A
    final Gram-Schmidt polish keeps the basis W-orthonormal also when the
    trailing retained eigenvalues sit close to the noise floor of the
    correlation matrix.
    """
    S = np.asarray(S, dtype=float)
    m = S.shape[1]
    C = (S.T @ (W @ S)) / m
    C = 0.5 * (C + C.T)
    lam, X = np.linalg.eigh(C)
    lam = lam[::-1]
    X = X[:, ::-1]
    lam = np.maximum(lam, 0.0)
    if lam.size == 0 or lam[0] <= 0.0:
        warnings.warn("all-zero snapshot matrix; empty basis")
        return PodBasis(np.zeros((S.shape[0], 0)), lam, 0, eps)

    floor = m * np.finfo(float).eps
    rank_tol = lam[0] * (floor if eps == 0.0 else max(floor, NOISE_REL))
    n_pos = int(np.sum(lam > rank_tol))
    retained = min(energy_cutoff(lam, eps), n_pos)
    n_store = min(max(retained, min_stored), n_pos)

    vec = S @ X[:, :n_store]
    vec /= np.sqrt(m * lam[:n_store])
    vec, kept = _w_orthonormalize(vec, W, drop_tol=0.0)
    if len(kept) < n_store:
        # only reachable through severe cancellation; keep a valid basis
        retained = min(retained, vec.shape[1])
    return PodBasis(vec, lam, retained, eps)


@dataclass
class AggregatedBasis:
    """Joint state/adjoint space plus the control space.

    The reduced solution blocks are ordered (state, control, adjoint) with
    the state and adjoint blocks both spanned by ``V_yp``.
    """

    V_yp: np.ndarray               # (n_dofs, n_yp)
    V_u: np.ndarray                # (n_dofs, n_u)
    dofs: np.ndarray               # (n_dofs,) ascending DOF ids
    n: int                         # full-order DOF count

    @property
    def n_yp(self) -> int:
        return self.V_yp.shape[1]

    @property
    def n_u(self) -> int:
        return self.V_u.shape[1]

    @property
    def reduced_dim(self) -> int:
        return 2 * self.n_yp + self.n_u

    def block_matrix(self) -> sp.csr_matrix:
        """The (3 n_dofs) x reduced_dim block-diagonal basis."""
        return sp.block_diag(
            [sp.csr_matrix(self.V_yp), sp.csr_matrix(self.V_u),
             sp.csr_matrix(self.V_yp)], format="csr")

    def split(self, x: np.ndarray):
        nyp, nu = self.n_yp, self.n_u
        return x[:nyp], x[nyp:nyp + nu], x[nyp + nu:]

    def lift(self, y_N, u_N, p_N):
        """Full-length fields, zero outside ``dofs``.

        Only the DOFs of the active mesh at mu carry the reduced solution.
        The lift is zero outside the ever-active set ``dofs``, but on the
        ever-active DOFs outside the active mesh at mu it returns the POD
        modes extrapolated there, where the truth solution is zero.  At
        the default config and mu = 0.4 those 96 DOFs hold all of the
        W-norm difference from the truth solution, 0.18 / 0.064 / 0.65 of
        the W-norm of y / u / p, while the M(mu)-norm errors are at most
        8e-4.  Compare lifted fields in the M(mu) norm of the active mesh,
        as ``relative_error`` does, or restrict them to its DOFs.
        """
        full = np.zeros((3, self.n))
        full[0, self.dofs] = self.V_yp @ y_N
        full[1, self.dofs] = self.V_u @ u_N
        full[2, self.dofs] = self.V_yp @ p_N
        return tuple(full)


def aggregate_basis(V_y: np.ndarray, V_u: np.ndarray, V_p: np.ndarray,
                    W: sp.csr_matrix, dofs: np.ndarray,
                    n: int) -> AggregatedBasis:
    """Concatenate state and adjoint modes and re-orthonormalize in W.

    Columns that become linearly dependent after projection (norm below
    1e-10) are dropped; a complete rank collapse is an error.  The rows are
    the DOFs ``dofs`` of the ``n`` full-order DOFs.
    """
    merged = np.concatenate([V_y, V_p], axis=1)
    V_yp, kept = _w_orthonormalize(merged, W, drop_tol=DROP_TOL)
    if V_yp.shape[1] == 0:
        raise NumericalError("state/adjoint aggregation lost all columns")
    # a column slice of stored modes is strided; the lift is faster on a
    # contiguous copy
    return AggregatedBasis(V_yp, np.ascontiguousarray(V_u, dtype=float),
                           dofs, n)
