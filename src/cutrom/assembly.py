"""CutFEM assembly of the parameter-dependent operators.

For each parameter value the stiffness matrix (diffusion + Nitsche boundary
terms + ghost penalty), the mass matrix and the two right-hand-side vectors
are assembled on the fixed background DOF numbering.  Rows and columns of
inactive DOFs are identically zero; regularization happens downstream in the
optimality-system solver.

All operators live on fixed union sparsity patterns so that value arrays of
different parameter values are directly comparable, which is what the
hyper-reduction stage needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError, PatternOverflowError
from .levelset import CutGeometry, SubsetGeometry
from .mesh import BackgroundMesh, FaceTable, element_areas, p1_gradients

Field = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProblemCase:
    """Data of the tracking-type control problem on the cut domain."""

    name: str
    f: Field                      # distributed forcing
    y_d: Field                    # target state
    g_D: Optional[Field]          # Dirichlet data; None means homogeneous
    alpha: float                  # control regularization weight
    gamma_D: float                # Nitsche penalty
    gamma_1: float                # ghost penalty

    def __post_init__(self):
        if min(self.alpha, self.gamma_D, self.gamma_1) <= 0.0:
            raise ValueError("alpha, gamma_D and gamma_1 must be positive")


def square_poisson(alpha: float = 1e-4, gamma_D: float = 10.0,
                   gamma_1: float = 0.1) -> ProblemCase:
    """Built-in benchmark: f = x*y, y_d = sin(pi x) cos(pi x) / (2 pi)."""
    return ProblemCase(
        name="square_poisson",
        f=lambda p: p[:, 0] * p[:, 1],
        y_d=lambda p: np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 0])
        / (2.0 * np.pi),
        g_D=None,
        alpha=alpha, gamma_D=gamma_D, gamma_1=gamma_1)


CASES: dict[str, Callable[..., ProblemCase]] = {
    "square_poisson": square_poisson,
}


def get_case(name: str, **overrides) -> ProblemCase:
    if name not in CASES:
        raise KeyError(f"unknown problem case {name!r}; "
                       f"available: {sorted(CASES)}")
    return CASES[name](**overrides)


class SparsityPattern:
    """Fixed union pattern of a sparse operator family.

    Entries are stored lexicographically by (row, col), which coincides with
    ascending vectorization index row * n + col.
    """

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray):
        keys = rows.astype(np.int64) * n + cols.astype(np.int64)
        keys = np.unique(keys)
        self.n = n
        self.rows = (keys // n).astype(np.int64)
        self.cols = (keys % n).astype(np.int64)
        self.keys = keys
        counts = np.bincount(self.rows, minlength=n)
        # int32 index arrays let the sparse constructor skip downcast scans
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self.indices = self.cols.astype(np.int32)

    @property
    def nnz(self) -> int:
        return self.keys.size

    def offsets_for(self, rows, cols) -> np.ndarray:
        """Pattern offsets of the given entries; raises on entries outside."""
        keys = np.asarray(rows, dtype=np.int64) * self.n \
            + np.asarray(cols, dtype=np.int64)
        off = np.searchsorted(self.keys, keys)
        bad = (off >= self.nnz) | (self.keys[np.minimum(off, self.nnz - 1)]
                                   != keys)
        if np.any(bad):
            k = int(np.flatnonzero(bad)[0])
            raise PatternOverflowError(
                f"entry ({int(np.asarray(rows).ravel()[k])}, "
                f"{int(np.asarray(cols).ravel()[k])}) outside union pattern")
        return off

    def csr_with_values(self, values: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((values, self.indices, self.indptr),
                             shape=(self.n, self.n))

    def vec_indices(self) -> np.ndarray:
        """1-based stacked index N*(i-1)+j of each pattern entry."""
        return self.rows * self.n + self.cols + 1


def build_mass_pattern(mesh: BackgroundMesh) -> SparsityPattern:
    """DOF pairs sharing an element."""
    el = mesh.elements
    rows = np.repeat(el, 3, axis=1).ravel()
    cols = np.tile(el, (1, 3)).ravel()
    return SparsityPattern(mesh.dof_count, rows, cols)


def build_stiffness_pattern(mesh: BackgroundMesh, face_table: FaceTable,
                            ghost_candidates=None) -> SparsityPattern:
    """Element-sharing pairs plus couplings across possible ghost facets.

    ``ghost_candidates`` marks the elements that can be cut somewhere in
    the parameter range; facets with no candidate side can never carry a
    jump term and are left out.  Without the mask every interior face
    counts (safe for any range).
    """
    el = mesh.elements
    parts_r = [np.repeat(el, 3, axis=1).ravel()]
    parts_c = [np.tile(el, (1, 3)).ravel()]
    keep = face_table.face_right >= 0
    if ghost_candidates is not None:
        right = np.maximum(face_table.face_right, 0)
        keep = keep & (ghost_candidates[face_table.face_left]
                       | ghost_candidates[right])
    dofs6 = np.concatenate([el[face_table.face_left[keep]],
                            el[face_table.face_right[keep]]], axis=1)
    parts_r.append(np.repeat(dofs6, 6, axis=1).ravel())
    parts_c.append(np.tile(dofs6, (1, 6)).ravel())
    return SparsityPattern(mesh.dof_count,
                           np.concatenate(parts_r), np.concatenate(parts_c))


def box_mass_matrix(mesh: BackgroundMesh) -> sp.csr_matrix:
    """Exact P1 mass matrix of the full background box (SPD)."""
    areas = np.abs(element_areas(mesh))
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    vals = areas[:, None, None] * local
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    m = sp.coo_matrix((vals.ravel(), (rows, cols)),
                      shape=(mesh.dof_count, mesh.dof_count))
    return m.tocsr()


@dataclass
class ParametricOperators:
    """Operators of one parameter value on the fixed patterns."""

    mu: float
    A: sp.csr_matrix
    M: sp.csr_matrix
    b: np.ndarray
    c: np.ndarray
    active_dofs: np.ndarray
    a_values: np.ndarray           # aligned with the stiffness pattern
    m_values: np.ndarray           # aligned with the mass pattern


@dataclass
class _Streams:
    """Raw COO contribution streams of one assembly pass."""

    rows_a: np.ndarray
    cols_a: np.ndarray
    vals_a: np.ndarray
    rows_m: np.ndarray
    cols_m: np.ndarray
    vals_m: np.ndarray
    b: np.ndarray
    c: np.ndarray


class AssemblyContext:
    """Mesh- and case-level precomputations shared by all parameter values.

    The ghost-penalty facet blocks are parameter independent for P1 (the
    gradient jumps are elementwise constant), so each facet's 6x6 block is
    precomputed once and only gathered online.
    """

    def __init__(self, mesh: BackgroundMesh, face_table: FaceTable,
                 case: ProblemCase, mu_range: tuple[float, float] | None = None,
                 center=(1.0, 1.0)):
        self.mesh = mesh
        self.face_table = face_table
        self.case = case
        self.mu_range = mu_range
        self.h = mesh.h
        self.grads = p1_gradients(mesh)                    # (ne, 3, 2)
        self.centroids = mesh.element_coords().mean(axis=1)

        fv = mesh.vertices[face_table.faces]               # (nf, 2, 2)
        tang = fv[:, 1] - fv[:, 0]
        self.face_len = np.hypot(tang[:, 0], tang[:, 1])
        normal = np.column_stack([tang[:, 1], -tang[:, 0]])
        self.face_normal = normal / self.face_len[:, None]

        inter = face_table.face_right >= 0
        left = face_table.face_left
        right = np.where(inter, face_table.face_right, left)
        self.face_dofs6 = np.concatenate(
            [mesh.elements[left], mesh.elements[right]], axis=1)
        jl = np.einsum("fid,fd->fi", self.grads[left], self.face_normal)
        jr = np.einsum("fid,fd->fi", self.grads[right], self.face_normal)
        jump = np.concatenate([jl, -jr], axis=1)           # (nf, 6)
        scale = case.gamma_1 * self.h * self.face_len
        self.ghost_blocks = scale[:, None, None] \
            * np.einsum("fi,fj->fij", jump, jump)
        self.ghost_blocks[~inter] = 0.0

        ghost_cand = None
        if mu_range is not None:
            from .levelset import cut_candidates
            ghost_cand = cut_candidates(mesh, mu_range[0], mu_range[1],
                                        center)
        self.pattern_A = build_stiffness_pattern(mesh, face_table, ghost_cand)
        self.pattern_M = build_mass_pattern(mesh)

    # -- contribution streams -------------------------------------------
    def streams(self, sub: SubsetGeometry, ghost_facets,
                need=frozenset(("A", "M", "b", "c"))) -> _Streams:
        """COO contributions of the given element subset and ghost facets.

        Category order (diffusion, Nitsche, ghost) and ascending parents
        keep per-entry accumulation order identical between a full pass and
        any subset pass, so shared entries agree bitwise.  ``need`` limits
        the work to the requested components.
        """
        mesh = self.mesh
        n = mesh.dof_count
        case = self.case
        ge = sub.elems                                    # global ids
        dofs = mesh.elements[ge]                          # (k, 3)
        grads = self.grads[ge]
        cent = self.centroids[ge]
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0)

        rows_a, cols_a, vals_a = [empty_i], [empty_i], [empty_f]
        if "A" in need:
            # diffusion: constant gradients, so only the clipped area matters
            diff = np.einsum("kid,kjd->kij", grads, grads) \
                * sub.clipped_area[:, None, None]
            rows_a = [np.repeat(dofs, 3, axis=1).ravel()]
            cols_a = [np.tile(dofs, (1, 3)).ravel()]
            vals_a = [diff.ravel()]

        rows_m = cols_m = empty_i
        vals_m = empty_f
        b = np.zeros(n)
        c = np.zeros(n)
        if need & {"M", "b", "c"}:
            # interior quadrature values of the hat functions
            lam_i = (1.0 / 3.0) + np.einsum(
                "qid,qd->qi", grads[sub.iq_parent],
                sub.iq_points - cent[sub.iq_parent])
            wl = sub.iq_weights[:, None] * lam_i
            iq_dofs = dofs[sub.iq_parent]
            if "M" in need:
                mass = np.einsum("qi,qj->qij", wl, lam_i)
                rows_m = np.repeat(iq_dofs, 3, axis=1).ravel()
                cols_m = np.tile(iq_dofs, (1, 3)).ravel()
                vals_m = mass.ravel()
            if "b" in need:
                np.add.at(b, iq_dofs, wl * case.y_d(sub.iq_points)[:, None])
            if "c" in need:
                np.add.at(c, iq_dofs, wl * case.f(sub.iq_points)[:, None])

        boundary_needed = ("A" in need) or \
            ("c" in need and case.g_D is not None)
        if sub.bq_weights.size and boundary_needed:
            bp = sub.bq_parent
            gb = grads[bp]
            lam_b = (1.0 / 3.0) + np.einsum("qid,qd->qi", gb,
                                            sub.bq_points - cent[bp])
            dn = np.einsum("qid,qd->qi", gb, sub.bq_normals)
            gdh = case.gamma_D / self.h
            if "A" in need:
                w = sub.bq_weights[:, None, None]
                nitsche = w * (gdh * np.einsum("qi,qj->qij", lam_b, lam_b)
                               - np.einsum("qi,qj->qij", lam_b, dn)
                               - np.einsum("qi,qj->qij", dn, lam_b))
                bdofs = dofs[bp]
                rows_a.append(np.repeat(bdofs, 3, axis=1).ravel())
                cols_a.append(np.tile(bdofs, (1, 3)).ravel())
                vals_a.append(nitsche.ravel())
            if "c" in need and case.g_D is not None:
                gd = case.g_D(sub.bq_points)
                data = (sub.bq_weights * gd)[:, None] * (gdh * lam_b + dn)
                np.add.at(c, dofs[bp], data)

        if "A" in need:
            ghost_facets = np.sort(np.asarray(ghost_facets, dtype=np.int64))
            if ghost_facets.size:
                d6 = self.face_dofs6[ghost_facets]
                rows_a.append(np.repeat(d6, 6, axis=1).ravel())
                cols_a.append(np.tile(d6, (1, 6)).ravel())
                vals_a.append(self.ghost_blocks[ghost_facets].ravel())

        return _Streams(np.concatenate(rows_a), np.concatenate(cols_a),
                        np.concatenate(vals_a), rows_m, cols_m, vals_m, b, c)

    def assemble_component(self, geom: CutGeometry, component: str):
        """Full assembly of one component only (timing baseline)."""
        st = self.streams(geom.active, geom.ghost_facets,
                          need=frozenset((component,)))
        if component == "b":
            return st.b
        if component == "c":
            return st.c
        if component == "A":
            values = np.zeros(self.pattern_A.nnz)
            np.add.at(values,
                      self.pattern_A.offsets_for(st.rows_a, st.cols_a),
                      st.vals_a)
            return self.pattern_A.csr_with_values(values)
        values = np.zeros(self.pattern_M.nnz)
        np.add.at(values, self.pattern_M.offsets_for(st.rows_m, st.cols_m),
                  st.vals_m)
        return self.pattern_M.csr_with_values(values)

    # -- full assembly ---------------------------------------------------
    def assemble(self, geom: CutGeometry) -> ParametricOperators:
        if geom.active_elements.size == 0:
            raise NumericalError(
                f"empty active mesh at mu={geom.levelset.mu}")
        st = self.streams(geom.active, geom.ghost_facets)
        a_values = np.zeros(self.pattern_A.nnz)
        np.add.at(a_values, self.pattern_A.offsets_for(st.rows_a, st.cols_a),
                  st.vals_a)
        m_values = np.zeros(self.pattern_M.nnz)
        np.add.at(m_values, self.pattern_M.offsets_for(st.rows_m, st.cols_m),
                  st.vals_m)
        return ParametricOperators(
            mu=geom.levelset.mu,
            A=self.pattern_A.csr_with_values(a_values),
            M=self.pattern_M.csr_with_values(m_values),
            b=st.b, c=st.c,
            active_dofs=geom.active_dofs,
            a_values=a_values, m_values=m_values)


def assemble_operators(ctx: AssemblyContext, mu: float,
                       center=(1.0, 1.0)) -> ParametricOperators:
    """Classify and assemble everything for one parameter value."""
    from .levelset import LevelSetSquare, classify_elements
    geom = classify_elements(ctx.mesh, ctx.face_table,
                             LevelSetSquare(mu, center))
    return ctx.assemble(geom)
