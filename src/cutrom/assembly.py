"""CutFEM assembly of the parameter-dependent operators.

For each parameter value the stiffness matrix (diffusion + Nitsche boundary
terms + ghost penalty), the mass matrix and the two right-hand-side vectors
are assembled on the fixed background DOF numbering.  Rows and columns of
inactive DOFs are identically zero; regularization happens downstream in the
optimality-system solver.

All operators live on fixed union sparsity patterns so that value arrays of
different parameter values are directly comparable, which is what the
hyper-reduction stage needs.  The pattern offsets of every element and
ghost-facet block are computed once with the patterns, so an assembly makes
values only and scatters them with ``np.bincount`` (adds in input order).

Only the cut elements depend on the parameter.  The context computes once
the values every element that can be active has when it is INSIDE (its
diffusion block and the M, b and c values at its three midpoint-rule
points, kept per point, not summed), and ``assemble`` clips and streams
the cut elements only.  It merges both into the stream order of a pass
over all active elements (ascending element, then diffusion, Nitsche,
ghost).  A stream value is computed from its own element's data alone, so
a cached value is the one such a pass makes; and since ``np.bincount``
adds in stream order, every entry is bitwise that pass's.
``assemble_component`` is that pass for one component, from scratch: the
full assembly a DEIM reconstruction is timed against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import levelset
from .errors import NumericalError, PatternOverflowError
from .levelset import CUT, CutGeometry, SubsetGeometry, cut_candidates, \
    inside_geometry, outside_elements
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
    """Fixed union pattern of the DOF pairs within (count, s) local blocks.

    Entries are stored lexicographically by (row, col), which coincides with
    ascending vectorization index row * n + col.  ``block_offsets[k]`` holds
    the offsets of ``blocks[k]``'s entries, (count, s*s) in row-major order.
    """

    def __init__(self, n: int, blocks):
        blocks = [np.asarray(d, dtype=np.int64) for d in blocks]
        keys = np.concatenate([(d[:, :, None] * n + d[:, None, :]).ravel()
                               for d in blocks])
        keys, inverse = np.unique(keys, return_inverse=True)
        self.n = n
        self.rows = keys // n
        self.cols = keys % n
        self.keys = keys
        sizes = np.cumsum([d.size * d.shape[1] for d in blocks])[:-1]
        self.block_offsets = [
            part.reshape(d.shape[0], d.shape[1] ** 2)
            for part, d in zip(np.split(inverse.ravel(), sizes), blocks)]
        counts = np.bincount(self.rows, minlength=n)
        # int32 index arrays let the sparse constructor skip downcast scans
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self.indices = self.cols.astype(np.int32)

    @property
    def nnz(self) -> int:
        return self.keys.size

    def csr_with_values(self, values: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((values, self.indices, self.indptr),
                             shape=(self.n, self.n))


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
    """Contribution values of one assembly pass, in stream order.

    ``vals_a`` holds the diffusion, Nitsche and ghost blocks, ``vals_m`` a
    block per interior point, and ``vec[comp]`` the (DOFs, values) parts of
    b and c: the interior points' (k, 3) values, then the boundary terms.
    """

    vals_a: np.ndarray
    vals_m: np.ndarray
    vec: dict
    n: int

    def vector(self, comp: str) -> np.ndarray:
        """The b or c vector of the pass."""
        return _scatter(self.vec[comp], self.n)


def _csr_index(rows: np.ndarray, cols: np.ndarray, n: int):
    """CSR column indices, row pointers and size of n x n entries given in
    (row, col) order."""
    counts = np.bincount(rows, minlength=n)
    return (cols.astype(np.int32),
            np.concatenate([[0], np.cumsum(counts)]).astype(np.int32), n)


def _scatter(parts, n: int) -> np.ndarray:
    """Length-n sum of (DOFs, values) parts; ``np.bincount`` adds in input
    order, like sequential scatter-adds."""
    if not parts:
        return np.zeros(n)
    dofs, vals = zip(*parts)
    return np.bincount(np.concatenate([d.ravel() for d in dofs]),
                       np.concatenate([v.ravel() for v in vals]),
                       minlength=n)


class AssemblyContext:
    """Mesh- and case-level precomputations shared by all parameter values.

    The ghost-penalty facet blocks are parameter independent for P1 (the
    gradient jumps are elementwise constant), so the 6x6 block of each facet
    in the stiffness pattern is precomputed once and only gathered online
    (``ghost_blocks``), and so are the pattern offsets of every element's
    3x3 block (``elem_offsets``) and facet's 6x6 block (``ghost_offsets``).

    The context is the one owner of the layout that follows from the mesh
    and the parameter range; the snapshot, DEIM and online stages read it
    here.  ``patterns[component]`` is the union pattern of A or M (None
    for b and c), and ``cut_candidate`` marks the elements that can be cut
    in the range (every element without a range), ``pattern_facets`` the
    interior faces with such a side.  By monotonicity of the level-set
    family in mu, no element outside the square at mu_max is ever active,
    so only the DOFs of the other elements (``ever_active``, ascending)
    can be nonzero in a solution, b or c, and only the pattern entries
    with both row and column among them in A or M.
    ``kept[component]`` holds these entries as ascending offsets into the
    component's values (pattern offsets for A and M, DOF ids for b and c);
    without a parameter range every DOF is kept.  ``expand``,
    ``kept_matrix`` and ``full_matrix`` lay out values given at ``kept``.

    For the elements that can be active (all without a range) the context
    keeps the stream values they have when INSIDE (``_inside``, rows
    found through ``_slot``), so ``assemble`` streams only the cut
    elements; an active element outside that set (a parameter above the
    declared range) raises ``PatternOverflowError``.
    """

    def __init__(self, mesh: BackgroundMesh, face_table: FaceTable,
                 case: ProblemCase, mu_range: tuple[float, float] | None = None,
                 center=(1.0, 1.0)):
        self.mesh = mesh
        self.face_table = face_table
        self.case = case
        self.mu_range = mu_range
        self.center = center
        self.h = mesh.h
        self.grads = p1_gradients(mesh)                    # (ne, 3, 2)
        self.centroids = mesh.element_coords().mean(axis=1)

        inter = face_table.face_right >= 0
        left = face_table.face_left
        right = np.where(inter, face_table.face_right, left)
        self.face_dofs6 = np.concatenate(
            [mesh.elements[left], mesh.elements[right]], axis=1)

        # faces that can carry a jump term: with a side that can be cut in
        # the parameter range, or every interior face without a range
        cand = reach = np.ones(mesh.n_elements, dtype=bool)
        if mu_range is not None:
            cand = cut_candidates(mesh, *mu_range, center)
            reach = ~outside_elements(mesh, mu_range[1], center)
        self.cut_candidate = cand
        self.pattern_facets = faces = np.flatnonzero(
            inter & (cand[left] | cand[right]))
        n = mesh.dof_count
        self.pattern_A = SparsityPattern(
            n, [mesh.elements, self.face_dofs6[faces]])
        self.pattern_M = SparsityPattern(n, [mesh.elements])
        self.patterns = {"A": self.pattern_A, "M": self.pattern_M,
                         "b": None, "c": None}
        elem_a, ghost = self.pattern_A.block_offsets
        self.elem_offsets = {"A": elem_a,
                             "M": self.pattern_M.block_offsets[0]}
        # one row per face in the pattern, then a row for the rest: offsets
        # nnz and a zero block
        self._ghost_table = np.vstack(
            [ghost, np.full((1, 36), self.pattern_A.nnz)])
        self._ghost_row = np.full(face_table.faces.shape[0], faces.size)
        self._ghost_row[faces] = np.arange(faces.size)
        fv = mesh.vertices[face_table.faces[faces]]        # (k, 2, 2)
        tang = fv[:, 1] - fv[:, 0]
        face_len = np.hypot(tang[:, 0], tang[:, 1])
        normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / face_len[:, None]
        jl = np.einsum("fid,fd->fi", self.grads[left[faces]], normal)
        jr = np.einsum("fid,fd->fi", self.grads[right[faces]], normal)
        jump = np.concatenate([jl, -jr], axis=1)           # (k, 6)
        scale = case.gamma_1 * self.h * face_len
        self._ghost_blocks = np.zeros((faces.size + 1, 6, 6))
        self._ghost_blocks[:-1] = scale[:, None, None] \
            * np.einsum("fi,fj->fij", jump, jump)

        # the ever-active set: DOFs of the elements not outside at mu_max,
        # and the pattern entries with both row and column among them
        local = np.full(n, -1)
        local[mesh.elements[reach]] = 0
        self.ever_active = np.flatnonzero(local == 0)
        n_kept = self.ever_active.size
        local[self.ever_active] = np.arange(n_kept)
        self.kept = {"b": self.ever_active, "c": self.ever_active}
        # CSR index arrays of the kept entries: on the ever-active block
        # and in the full numbering
        self._kept_csr, self._full_csr = {}, {}
        for comp, pattern in (("A", self.pattern_A), ("M", self.pattern_M)):
            rows, cols = local[pattern.rows], local[pattern.cols]
            kept = np.flatnonzero((rows >= 0) & (cols >= 0))
            self.kept[comp] = kept
            self._kept_csr[comp] = _csr_index(rows[kept], cols[kept], n_kept)
            self._full_csr[comp] = _csr_index(pattern.rows[kept],
                                              pattern.cols[kept], n)

        # INSIDE stream values of the elements that can be active; _slot
        # holds their row (-1 for the other elements)
        reach = np.flatnonzero(reach)
        self._slot = np.full(mesh.n_elements, -1)
        self._slot[reach] = np.arange(reach.size)
        self._coords = mesh.element_coords(reach)
        st = self.streams(inside_geometry(reach, self._coords), ())
        self._inside = {"A": st.vals_a.reshape(-1, 9),
                        "M": st.vals_m.reshape(-1, 9),
                        "b": st.vec["b"][0][1], "c": st.vec["c"][0][1]}

    def kept_matrix(self, component: str, values) -> sp.csr_matrix:
        """Ever-active block of the A or M component from its values at
        ``kept[component]``."""
        indices, indptr, n = self._kept_csr[component]
        return sp.csr_matrix((values, indices, indptr), shape=(n, n))

    def full_matrix(self, component: str, values) -> sp.csr_matrix:
        """The A or M component with ``values`` at ``kept[component]``,
        storing those entries only: the other pattern entries are zero for
        every parameter of the range."""
        indices, indptr, n = self._full_csr[component]
        return sp.csr_matrix((values, indices, indptr), shape=(n, n))

    def expand(self, component: str, values) -> np.ndarray:
        """Full pattern values (or DOF vector) of values at
        ``kept[component]``."""
        pattern = self.patterns[component]
        full = np.zeros(self.mesh.dof_count if pattern is None
                        else pattern.nnz)
        full[self.kept[component]] = values
        return full

    def ghost_offsets(self, facets) -> np.ndarray:
        """Stiffness-pattern offsets of the facets' 6x6 ghost blocks,
        (k, 36); ``pattern_A.nnz`` for a facet outside the pattern."""
        return self._ghost_table[self._ghost_row[facets]]

    def ghost_blocks(self, facets) -> np.ndarray:
        """The facets' 6x6 ghost-penalty blocks, (k, 6, 6); zero for a
        facet outside the pattern."""
        return self._ghost_blocks[self._ghost_row[facets]]

    # -- contribution streams -------------------------------------------
    def streams(self, sub: SubsetGeometry, ghost_facets,
                need=frozenset(("A", "M", "b", "c"))) -> _Streams:
        """Contribution values of an element subset and ascending ghost
        facets; their offsets come from the element and facet tables.

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

        vals_a = [np.zeros(0)]
        if "A" in need:
            # diffusion: constant gradients, so only the clipped area matters
            diff = np.einsum("kid,kjd->kij", grads, grads) \
                * sub.clipped_area[:, None, None]
            vals_a = [diff.ravel()]

        vals_m = np.zeros(0)
        vec = {"b": [], "c": []}                # (DOFs, values) parts
        if need & {"M", "b", "c"}:
            # interior quadrature values of the hat functions
            lam_i = (1.0 / 3.0) + np.einsum(
                "qid,qd->qi", grads[sub.iq_parent],
                sub.iq_points - cent[sub.iq_parent])
            wl = sub.iq_weights[:, None] * lam_i
            iq_dofs = dofs[sub.iq_parent]
            if "M" in need:
                vals_m = np.einsum("qi,qj->qij", wl, lam_i).ravel()
            for comp, field in (("b", case.y_d), ("c", case.f)):
                if comp in need:
                    vec[comp].append((iq_dofs,
                                      wl * field(sub.iq_points)[:, None]))

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
                vals_a.append(nitsche.ravel())
            if "c" in need and case.g_D is not None:
                gd = case.g_D(sub.bq_points)
                data = (sub.bq_weights * gd)[:, None] * (gdh * lam_b + dn)
                vec["c"].append((dofs[bp], data))

        if "A" in need and len(ghost_facets):
            vals_a.append(self.ghost_blocks(ghost_facets).ravel())

        return _Streams(np.concatenate(vals_a), vals_m, vec, n)

    # -- full assembly ---------------------------------------------------
    def _ghost_offsets(self, geom: CutGeometry) -> np.ndarray:
        """Offsets of the ghost blocks; raises on a facet outside the
        pattern (a parameter outside the declared range)."""
        ghost = self.ghost_offsets(geom.ghost_facets)
        outside = geom.ghost_facets[ghost[:, 0] == self.pattern_A.nnz]
        if outside.size:
            raise PatternOverflowError(
                f"ghost facet {int(outside[0])} at mu={geom.levelset.mu}"
                " outside union pattern")
        return ghost

    def assemble_component(self, geom: CutGeometry, component: str):
        """One component assembled from scratch: every active element
        clipped and streamed, no precomputed INSIDE values.

        This is the full assembly that a DEIM reconstruction is timed
        against (acceptance criterion 8 and the timing report), and its
        values are bitwise those of ``assemble``.
        """
        sub = geom.active
        st = self.streams(sub, geom.ghost_facets, frozenset((component,)))
        if component in ("b", "c"):
            return st.vector(component)
        elem = self.elem_offsets[component][sub.elems]
        if component == "M":
            return self.pattern_M.csr_with_values(np.bincount(
                elem[sub.iq_parent].ravel(), st.vals_m,
                minlength=self.pattern_M.nnz))
        offsets = np.concatenate([elem.ravel(), elem[sub.bq_parent].ravel(),
                                  self._ghost_offsets(geom).ravel()])
        return self.pattern_A.csr_with_values(np.bincount(
            offsets, st.vals_a, minlength=self.pattern_A.nnz))

    def assemble(self, geom: CutGeometry) -> ParametricOperators:
        """All operators: the cached INSIDE values merged with the streams
        of the cut elements.

        Raises ``PatternOverflowError`` on an active element or a ghost
        facet the context has no values or offsets for (a parameter
        outside the declared range).
        """
        active = geom.active_elements
        if active.size == 0:
            raise NumericalError(
                f"empty active mesh at mu={geom.levelset.mu}")
        slot = self._slot[active]
        if slot.min() < 0:
            raise PatternOverflowError(
                f"active element {int(active[np.argmin(slot)])} at "
                f"mu={geom.levelset.mu} outside the elements of "
                f"mu_range={self.mu_range}")
        cut = geom.classification[active] == CUT
        # through the module, so that a traced subset_geometry is seen
        sub = levelset.subset_geometry(self.mesh, geom.levelset,
                                       geom.cut_elements,
                                       coords=self._coords[slot[cut]])
        st = self.streams(sub, geom.ghost_facets)

        # merged streams take their rows from the cached INSIDE rows
        # followed by the cut elements' rows; per element for A, per
        # interior point (three per INSIDE element) for M, b and c
        n_rows = self._inside["A"].shape[0]
        elem_rows = slot.copy()
        elem_rows[cut] = n_rows + np.arange(sub.elems.size)
        n_pts = np.full(active.size, 3)
        n_pts[cut] = np.bincount(sub.iq_parent, minlength=sub.elems.size)
        at_cut = np.repeat(cut, n_pts)
        pt_rows = np.empty(at_cut.size, dtype=np.int64)
        pt_rows[~at_cut] = (3 * slot[~cut, None] + np.arange(3)).ravel()
        pt_rows[at_cut] = 3 * n_rows + np.arange(sub.iq_parent.size)
        parent = np.repeat(active, n_pts)

        def merged(comp, cut_rows, rows):
            return np.take(np.concatenate([self._inside[comp], cut_rows]),
                           rows, axis=0).ravel()

        elem = self.elem_offsets["A"]
        n_cut = 9 * sub.elems.size
        a_values = np.bincount(
            np.concatenate([np.take(elem, active, axis=0).ravel(),
                            elem[sub.elems[sub.bq_parent]].ravel(),
                            self._ghost_offsets(geom).ravel()]),
            np.concatenate([
                merged("A", st.vals_a[:n_cut].reshape(-1, 9), elem_rows),
                st.vals_a[n_cut:]]),
            minlength=self.pattern_A.nnz)
        m_values = np.bincount(
            np.take(self.elem_offsets["M"], parent, axis=0).ravel(),
            merged("M", st.vals_m.reshape(-1, 9), pt_rows),
            minlength=self.pattern_M.nnz)
        dofs = np.take(self.mesh.elements, parent, axis=0)
        b, c = (_scatter([(dofs, merged(comp, st.vec[comp][0][1], pt_rows)),
                          *st.vec[comp][1:]], self.mesh.dof_count)
                for comp in ("b", "c"))
        return ParametricOperators(
            mu=geom.levelset.mu,
            A=self.pattern_A.csr_with_values(a_values),
            M=self.pattern_M.csr_with_values(m_values),
            b=b, c=c, active_dofs=geom.active_dofs,
            a_values=a_values, m_values=m_values)


def assemble_operators(ctx: AssemblyContext, mu: float,
                       center=(1.0, 1.0)) -> ParametricOperators:
    """Classify and assemble everything for one parameter value."""
    from .levelset import LevelSetSquare, classify_elements
    geom = classify_elements(ctx.mesh, ctx.face_table,
                             LevelSetSquare(mu, center))
    return ctx.assemble(geom)
