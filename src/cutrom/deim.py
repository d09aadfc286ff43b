"""Hyper-reduction of the four parameter-dependent operators.

The stiffness and mass matrices are vectorized on their fixed union
patterns (stacked index N*(i-1)+j) and, together with the two right-hand
side vectors, compressed by a POD in the Euclidean inner product.  Only the
entries that can be nonzero (``AssemblyContext.kept``) are stored as rows
of the snapshots and bases; interpolation indices stay offsets into the
full pattern or DOF range.  A greedy procedure picks one interpolation
entry per basis column, nested in the number of columns.  The modes and
entries fix the oblique projector and a small reduced mesh that covers
exactly the selected entries, on which a partial assembly recovers them at
a cost independent of the full-order dimension.  Between the breakpoints
of the level-set family on the reduced meshes the selected entries are
smooth in the parameter, so the offline stage tabulates them as Chebyshev
series (``ThetaTable``); online, a query reads the table and assembles
only next to a breakpoint.

The layout all of this lives on (patterns, kept rows, the elements that
can be cut) follows from the mesh and the parameter range and is owned by
the ``AssemblyContext``; snapshots and models hold only their own data and
take the context where they need the layout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .assembly import AssemblyContext
from .errors import NumericalError
from .levelset import GHOST_PAIR, LevelSetSquare, subset_geometry

COMPONENTS = ("A", "M", "b", "c")


@dataclass
class OperatorSnapshots:
    """Vectorized operator values over the training sample.

    Matrix components live on their union pattern, vector components on the
    DOF range; ``values`` holds the entries at ``AssemblyContext.kept``
    (ascending offsets into the pattern or DOF range), one column per
    parameter.
    """

    component: str
    params: np.ndarray
    values: np.ndarray                      # (n_kept, M)


@dataclass
class DeimBasis:
    """Euclidean POD of an operator snapshot family."""

    U: np.ndarray                  # (n_rows, m)
    eigenvalues: np.ndarray        # (M,) non-increasing

    @property
    def m(self) -> int:
        """Numerical rank of the snapshots."""
        return self.U.shape[1]


def deim_basis(snaps: OperatorSnapshots) -> DeimBasis:
    """Method of snapshots in the Euclidean inner product, truncated at the
    numerical rank of the family: every mode with lambda > lambda_0 M eps
    (M snapshots, eps the machine epsilon).

    Between breakpoints the operator entries are polynomials in mu, or for
    b an entire function (see the comment on theta tables below), so each
    family has a finite numerical rank.  Below lambda_0 M eps the Gram
    matrix S^T S / M holds only the rounding of its M-term inner products,
    and a mode there carries nothing of the family; a cut above it leaves
    directions of the operators out of every model.
    """
    S = snaps.values
    m_snap = S.shape[1]
    if m_snap < 1:
        raise ValueError("need at least one operator snapshot")
    C = (S.T @ S) / m_snap
    C = 0.5 * (C + C.T)
    lam, X = np.linalg.eigh(C)
    lam = np.maximum(lam[::-1], 0.0)
    X = X[:, ::-1]
    if lam[0] <= 0.0:
        raise NumericalError(
            f"component {snaps.component}: all snapshots are zero")

    m = int(np.sum(lam > lam[0] * m_snap * np.finfo(float).eps))
    U = S @ X[:, :m]
    U /= np.sqrt(m_snap * lam[:m])
    # Gram-Schmidt polish: trailing modes sit near the eigensolver noise floor
    for j in range(m):
        v = U[:, j]
        for _ in range(2):
            v -= U[:, :j] @ (U[:, :j].T @ v)
        U[:, j] = v / np.linalg.norm(v)
    return DeimBasis(U, lam)


def deim_select(U: np.ndarray) -> np.ndarray:
    """Greedy interpolation indices, rows of U.

    The first index maximizes |u_1|; each next one maximizes the residual of
    interpolating u_l at the indices found so far.  Ties resolve to the
    lowest index.  Step l reads only the first l columns, so the indices
    are nested: those of U[:, :m] are the first m of U's.  A residual that
    vanishes before all columns are used truncates the basis with a warning.
    """
    indices = [int(np.argmax(np.abs(U[:, 0])))]
    for ell in range(1, U.shape[1]):
        coef = np.linalg.solve(U[indices, :ell], U[indices, ell])
        r = U[:, ell] - U[:, :ell] @ coef
        pick = int(np.argmax(np.abs(r)))
        if r[pick] == 0.0:
            warnings.warn(
                f"rank-deficient interpolation basis truncated at {ell}")
            break
        indices.append(pick)
    return np.array(indices, dtype=np.int64)


def build_reduced_mesh(indices: np.ndarray, ctx: AssemblyContext,
                       component: str):
    """Smallest element set whose partial assembly covers the selected
    offsets ``indices`` (DOF ids for b and c).

    An element joins when its row of ``ctx.elem_offsets[component]`` (of
    ``mesh.elements`` for b and c) holds a selected offset.  For A, an
    offset that no element holds pulls in the pattern facet whose
    ``ctx.ghost_offsets`` row holds it, and every pattern facet of an
    included element joins with both its neighbors, so the online jump
    terms are complete for any parameter value of the range.
    """
    ft = ctx.face_table
    indices = np.asarray(indices, dtype=np.int64)
    vector = component in ("b", "c")
    table = ctx.mesh.elements if vector else ctx.elem_offsets[component]
    size = ctx.mesh.dof_count if vector else ctx.patterns[component].nnz
    # one flag per offset, and one for the offset size, which no entry has
    unheld = np.zeros(size + 1, dtype=bool)
    unheld[indices] = True
    elements = np.flatnonzero(unheld[table].any(axis=1))
    unheld[table[elements]] = False
    facets = np.zeros(0, dtype=np.int64)
    if component == "A":
        pattern = ctx.pattern_facets
        hit = pattern[unheld[ctx.ghost_offsets(pattern)].any(axis=1)]
        elements = np.union1d(elements, np.concatenate(
            [ft.face_left[hit], ft.face_right[hit]]))
        facets = np.intersect1d(ft.element_to_faces[elements], pattern)
        elements = np.union1d(elements, np.concatenate(
            [ft.face_left[facets], ft.face_right[facets]]))
        unheld[ctx.ghost_offsets(facets)] = False
    if unheld.any():
        raise NumericalError(f"{component} entries {np.flatnonzero(unheld)}"
                             " are held by no element or facet")
    return elements, facets


@dataclass
class DeimModel:
    """Everything the online stage needs for one operator component.

    ``U`` and ``projector`` hold the rows ``AssemblyContext.kept`` of the
    full pattern or DOF range; ``indices`` are full offsets (DOF ids for b
    and c).
    """

    component: str
    U: np.ndarray                  # (n_kept, m)
    indices: np.ndarray            # (m,) offsets into the pattern / DOFs
    projector: np.ndarray          # (n_kept, m) = U (P^T U)^-1
    reduced_elements: np.ndarray
    reduced_facets: np.ndarray
    eigenvalues: np.ndarray

    @property
    def m(self) -> int:
        return self.indices.size

    def interpolate(self, theta: np.ndarray, ctx: AssemblyContext):
        """Full interpolatory reconstruction from the entries ``theta`` at
        the indices: a matrix storing the kept entries, or a full-length
        vector."""
        values = self.projector @ theta
        if self.component in ("b", "c"):
            return ctx.expand(self.component, values)
        return ctx.full_matrix(self.component, values)


def make_deim_model(component: str, U: np.ndarray, indices: np.ndarray,
                    eigenvalues, ctx: AssemblyContext) -> DeimModel:
    """The one constructor of ``DeimModel``: U's first ``len(indices)`` modes
    at ``indices`` (full offsets), with the projector and reduced mesh they
    fix.  ValueError unless the indices are distinct kept entries and U has
    a row per kept entry and a mode per index; NumericalError for a P^T U
    that is singular in float64."""
    kept, indices = ctx.kept[component], np.asarray(indices, dtype=np.int64)
    rows = np.minimum(np.searchsorted(kept, indices), kept.size - 1)
    if np.unique(indices).size < indices.size or (kept[rows] != indices).any():
        raise ValueError(f"DEIM indices of {component} are not distinct "
                         "ever-active entries")
    if U.shape[0] != kept.size or U.shape[1] < indices.size:
        raise ValueError(f"DEIM basis of {component} has shape {U.shape}, "
                         f"not ({kept.size}, >= {indices.size})")
    U = np.ascontiguousarray(U[:, :indices.size])
    B = U[rows]
    if not np.linalg.cond(B) < 1 / np.finfo(float).eps:
        raise NumericalError(f"DEIM system of {component} is singular")
    # C order: products with it then round the same however U was laid out
    projector = np.ascontiguousarray(np.linalg.solve(B.T, U.T).T)
    elements, facets = build_reduced_mesh(indices, ctx, component)
    return DeimModel(component, U, indices, projector, elements, facets,
                     np.asarray(eigenvalues, dtype=float))


def model_from_snapshots(basis: DeimBasis, m: int, snaps: OperatorSnapshots,
                         ctx: AssemblyContext) -> DeimModel:
    """The model of the first m modes at their greedy indices."""
    indices = ctx.kept[snaps.component][deim_select(basis.U[:, :m])]
    return make_deim_model(snaps.component, basis.U, indices,
                           basis.eigenvalues, ctx)


def truncate_model(model: DeimModel, m: int,
                   ctx: AssemblyContext) -> DeimModel:
    """The model of the first m stored modes (m <= model.m): greedy indices
    are nested, so it interpolates at the model's first m indices."""
    return make_deim_model(model.component, model.U, model.indices[:m],
                           model.eigenvalues, ctx)


class PartialAssembler:
    """Online partial assembly over the union of the models' reduced meshes.

    One pass (subset classification, clipping, contribution streams) serves
    every model.  Precomputed slot maps send each stream entry of a local
    element or facet block to its interpolation slot, or to a dummy slot
    when the entry is not selected, so the cost scales with the reduced
    meshes and not with the mesh size.  ``theta`` returns the models'
    entries concatenated in model order.
    """

    def __init__(self, models, ctx: AssemblyContext):
        self.models = (models,) if isinstance(models, DeimModel) \
            else tuple(models)
        self.ctx = ctx
        self.offsets = np.cumsum([0] + [m.m for m in self.models])
        self.need = frozenset(m.component for m in self.models)
        self.elems = np.unique(np.concatenate(
            [m.reduced_elements for m in self.models]))
        self.facets = np.unique(np.concatenate(
            [m.reduced_facets for m in self.models]))
        self.coords = ctx.mesh.element_coords(self.elems)
        ft = ctx.face_table
        # local positions of each facet's two neighbours
        self.sides = np.searchsorted(self.elems, np.stack(
            [ft.face_left[self.facets], ft.face_right[self.facets]]))
        ghost = ctx.ghost_offsets(self.facets)

        def slots(model: DeimModel):
            comp = model.component
            if comp in ("b", "c"):
                return model.indices
            # slot of each pattern offset: its position among the model's
            # selected entries, m where not selected (and for nnz)
            slot = np.full(ctx.patterns[comp].nnz + 1, model.m)
            slot[model.indices] = np.arange(model.m)
            return (slot[ctx.elem_offsets[comp][self.elems]],
                    slot[ghost] if comp == "A" else None)

        self.slots = [slots(model) for model in self.models]

    def theta(self, mu: float) -> np.ndarray:
        """Selected operator entries, identical to a full assembly there.

        ``np.bincount`` adds in input order, so every entry accumulates its
        contributions in the order of a full assembly.
        """
        ctx = self.ctx
        sub = subset_geometry(ctx.mesh, LevelSetSquare(mu, ctx.center),
                              self.elems, coords=self.coords,
                              interior=bool(self.need & {"M", "b", "c"}))
        cls = sub.classification[self.sides]
        ghost = GHOST_PAIR[3 * cls[0] + cls[1]]
        st = ctx.streams(sub, self.facets[ghost], need=self.need)
        theta = np.empty(self.offsets[-1])
        for model, slots, lo, hi in zip(self.models, self.slots,
                                        self.offsets, self.offsets[1:]):
            if model.component in ("b", "c"):
                theta[lo:hi] = st.vector(model.component)[slots]
                continue
            elem, facet = slots
            if model.component == "A":
                # stream order: diffusion, Nitsche, ghost
                idx = np.concatenate([elem.ravel(),
                                      elem[sub.bq_parent].ravel(),
                                      facet[ghost].ravel()])
                vals = st.vals_a
            else:
                idx, vals = elem[sub.iq_parent].ravel(), st.vals_m
            theta[lo:hi] = np.bincount(idx, weights=vals,
                                       minlength=model.m + 1)[:model.m]
        return theta

    def reconstruct(self, mu: float):
        """``DeimModel.interpolate`` of a one-model assembler's theta."""
        (model,) = self.models
        return model.interpolate(self.theta(mu), self.ctx)


# Theta tables.  The level set is phi_0 - 2 mu (``LevelSetSquare``), so
# every vertex value, and with it every crossing point, is affine in mu.
# A vertex value vanishes at mu = phi_0 / 2, its breakpoint; between two
# consecutive breakpoints of the reduced meshes' vertices the
# classification, the ghost facets and the clipping topology are fixed, and
# every selected entry is a polynomial in mu (A cubic, M quartic, c of
# degree 6) or, for b with its sine target, an entire function.

# breakpoints closer than this are one (they differ by rounding); within
# it of an interval edge theta comes from partial assembly, because a vertex
# value snapped to zero counts as outside (``SNAP_REL``): a mu up to the
# snap distance above an edge takes the state of the interval below, not
# the one the table fits above it
BREAKPOINT_BAND = 1e-9
# the first Chebyshev degree tried, and the step to the next: degree 10
# met THETA_TABLE_TOL for all four components at h = 0.09 and 0.0225
FIRST_DEGREE, DEGREE_STEP = 10, 2
# largest Chebyshev degree a table may need.  The polynomial entries need
# at most 6.  An entry of b is the integral of y_d = sin(2 pi x) / (4 pi)
# times a hat over pieces whose vertices move with unit speed, so its
# mu-derivatives grow at most like (2 pi)^n times a polynomial of degree
# <= 4; the Chebyshev coefficients of such a function on an interval of
# half-width r decay like 2 (pi r)^n / n!, which at r = 0.05 (the default
# range as a single interval) falls below eps at n = 11.  With 4 for the
# polynomial factor and one step to spare: 16.  A family that needs more
# is not what this table models, and the build raises.
THETA_DEGREE_CAP = 16
# largest deviation from partial assembly at the check points, relative to
# each component's largest entry there: 1e-2 of the 1e-12 bound that
# acceptance criterion 3 and ``verify`` set on the table path, and above
# the rounding of theta itself, which no degree removes (up to 2.2e-14 at
# h = 0.0225 for degrees 8 to 16)
THETA_TABLE_TOL = 1e-13


@dataclass
class ThetaTable:
    """Selected entries as Chebyshev series in mu, one per interval.

    The intervals lie between ``edges``: the parameter range's ends and the
    breakpoints in between.  ``coefs[k, j]`` is the coefficient of T_j on
    interval k, mapped to [-1, 1], for every column (entry).
    """

    edges: np.ndarray      # (n + 1,) ascending
    coefs: np.ndarray      # (n, degree + 1, columns)

    @property
    def degree(self) -> int:
        return self.coefs.shape[1] - 1

    def columns(self, index) -> ThetaTable:
        """The table of the columns ``index`` (an index array)."""
        return ThetaTable(self.edges, self.coefs[:, :, index])

    def evaluate(self, mu: float, k: int) -> np.ndarray:
        """The series of interval k at mu.  Chebyshev's recurrence runs
        elementwise, so any column subset gives the same bits."""
        lo, hi = self.edges[k], self.edges[k + 1]
        return chebyshev.chebval((2.0 * mu - lo - hi) / (hi - lo),
                                 self.coefs[k])

    def __call__(self, mu: float) -> np.ndarray | None:
        """Theta at mu, or None outside the range and within
        ``BREAKPOINT_BAND`` of an edge (the range's ends count as edges,
        as they may be breakpoints too)."""
        edges = self.edges
        k = int(np.searchsorted(edges, mu))   # edges[k-1] < mu <= edges[k]
        if k == 0 or k == edges.size or mu - edges[k - 1] <= BREAKPOINT_BAND \
                or edges[k] - mu <= BREAKPOINT_BAND:
            return None
        return self.evaluate(mu, k - 1)


def _interval_edges(asm: PartialAssembler) -> np.ndarray:
    """Interval edges of a table for the assembler's reduced meshes: the
    range's ends and the breakpoints strictly between them."""
    lo, hi = asm.ctx.mu_range
    phi0 = LevelSetSquare(0.0, asm.ctx.center)(asm.coords.reshape(-1, 2))
    mus = np.unique(phi0) / 2.0
    mus = mus[(mus > lo + BREAKPOINT_BAND) & (mus < hi - BREAKPOINT_BAND)]
    mus = mus[np.diff(mus, prepend=lo) > BREAKPOINT_BAND]
    return np.concatenate([[lo], mus, [hi]])


def theta_deviation(values, ref, offsets) -> float:
    """Largest deviation of ``values`` from ``ref``, relative to each
    component's (offsets) largest entry of ``ref``."""
    return max(float(np.abs(values[lo:hi] - ref[lo:hi]).max()
                     / (np.abs(ref[lo:hi]).max() + 1e-300))
               for lo, hi in zip(offsets, offsets[1:]))


def build_theta_table(models, ctx: AssemblyContext) -> ThetaTable:
    """Chebyshev table of the fused theta of ``models`` over the range.

    On every interval between breakpoints, theta is interpolated at the
    degree + 1 Chebyshev points (first kind, so no node sits on an edge)
    and checked against partial assembly at three extrema of T_(degree+1),
    where the first neglected term peaks: the outermost two and the middle
    one.  The degree rises from ``FIRST_DEGREE`` until every check point
    meets ``THETA_TABLE_TOL``; past ``THETA_DEGREE_CAP`` the build raises
    ``NumericalError``.
    """
    asm = PartialAssembler(models, ctx)
    edges = _interval_edges(asm)
    width = np.diff(edges)
    for degree in range(FIRST_DEGREE, THETA_DEGREE_CAP + 1, DEGREE_STEP):
        nodes = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
        checks = np.cos(np.pi * np.array([1, (degree + 1) // 2, degree])
                        / (degree + 1))
        vander = chebyshev.chebvander(nodes, degree)
        table = ThetaTable(edges, np.empty((width.size, degree + 1,
                                            asm.offsets[-1])))
        worst = 0.0
        for k in range(width.size):
            mid, half = edges[k] + 0.5 * width[k], 0.5 * width[k]
            values = np.array([asm.theta(mid + half * t) for t in nodes])
            table.coefs[k] = np.linalg.solve(vander, values)
            for t in checks:
                mu = mid + half * t
                worst = max(worst, theta_deviation(
                    table.evaluate(mu, k), asm.theta(mu), asm.offsets))
        if worst <= THETA_TABLE_TOL:
            return table
    raise NumericalError(
        f"theta table: deviation {worst:.2e} from partial assembly at "
        f"degree {degree} exceeds {THETA_TABLE_TOL:.0e}")


def spectral_norm(mat, iters: int = 120) -> float:
    """Deterministic power-iteration estimate of the matrix 2-norm."""
    n = mat.shape[1]
    v = np.full(n, 1.0 / np.sqrt(n))
    last = 0.0
    mat_t = mat.T
    for _ in range(iters):
        w = mat_t @ (mat @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(nw - last) <= 1e-13 * max(nw, 1e-300):
            last = nw
            break
        last = nw
    return float(np.sqrt(last))
