"""Hyper-reduction of the four parameter-dependent operators.

The stiffness and mass matrices are vectorized on their fixed union
patterns (stacked index N*(i-1)+j) and, together with the two right-hand
side vectors, compressed by a POD in the Euclidean inner product.  Only the
entries that can be nonzero (``AssemblyContext.kept``) are stored as rows
of the snapshots and bases; interpolation indices stay offsets into the
full pattern or DOF range.  A greedy
procedure picks one interpolation entry per basis column; online, the
operators are recovered from a partial assembly on a small reduced mesh
that covers exactly the selected entries, at a cost independent of the
full-order dimension.

The layout all of this lives on (patterns, kept rows, the elements that
can be cut) follows from the mesh and the parameter range and is owned by
the ``AssemblyContext``; snapshots and models hold only their own data and
take the context where they need the layout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import AssemblyContext
from .errors import NumericalError
from .levelset import GHOST_PAIR, LevelSetSquare, subset_geometry
from .mesh import vertex_to_elements

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

    U: np.ndarray                  # (n_rows, n_stored)
    eigenvalues: np.ndarray        # (M,) non-increasing
    m: int                         # energy cutoff at the build tolerance
    tolerance: float


def deim_basis(snaps: OperatorSnapshots, eps: float,
               min_stored: int = 0) -> DeimBasis:
    """Method of snapshots in the Euclidean inner product."""
    from .pod import energy_cutoff

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

    rank_tol = lam[0] * m_snap * np.finfo(float).eps
    n_pos = int(np.sum(lam > rank_tol))
    m = min(energy_cutoff(lam, eps), n_pos)
    n_store = min(max(m, min_stored), n_pos)
    U = S @ X[:, :n_store]
    U /= np.sqrt(m_snap * lam[:n_store])
    # Gram-Schmidt polish: trailing modes sit near the eigensolver noise floor
    for j in range(n_store):
        v = U[:, j]
        for _ in range(2):
            v -= U[:, :j] @ (U[:, :j].T @ v)
        U[:, j] = v / np.linalg.norm(v)
    return DeimBasis(U, lam, m, eps)


def deim_select(U: np.ndarray):
    """Greedy interpolation indices and the oblique projector U (P^T U)^-1.

    The first index maximizes |u_1|; each next one maximizes the residual of
    interpolating u_l at the indices found so far.  Ties resolve to the
    lowest index.  A residual that vanishes before all columns are used
    truncates the basis with a warning.
    """
    n, m = U.shape
    indices = np.empty(m, dtype=np.int64)
    indices[0] = int(np.argmax(np.abs(U[:, 0])))
    used = 1
    for ell in range(1, m):
        sub = U[indices[:used], :used]
        coef = np.linalg.solve(sub, U[indices[:used], ell])
        r = U[:, ell] - U[:, :used] @ coef
        pick = int(np.argmax(np.abs(r)))
        if r[pick] == 0.0:
            warnings.warn(
                f"rank-deficient interpolation basis truncated at {used}")
            break
        indices[ell] = pick
        used += 1
    indices = indices[:used]
    B = U[indices, :used]
    if not np.all(np.isfinite(np.linalg.cond(B))):
        raise NumericalError("interpolation system is singular")
    projector = np.linalg.solve(B.T, U[:, :used].T).T
    return indices, projector


def build_reduced_mesh(pairs: np.ndarray, ctx: AssemblyContext,
                       component: str):
    """Smallest element set whose partial assembly covers all entries.

    An element joins when its DOF set contains both indices of a selected
    pair (or the single index for vector components).  For the stiffness
    component, pairs coupled only through a gradient-jump facet pull in
    that facet with both its neighbors, and every potential ghost facet of
    an included element (one with a side in ``ctx.cut_candidate``) is
    recorded with its across-facet neighbor so the online jump terms are
    complete for any parameter value of the range.
    """
    mesh, face_table = ctx.mesh, ctx.face_table
    indptr, v2e = vertex_to_elements(mesh)

    def elems_of(v: int) -> np.ndarray:
        return v2e[indptr[v]:indptr[v + 1]]

    elements: set[int] = set()
    facets: set[int] = set()
    pairs = np.atleast_1d(np.asarray(pairs, dtype=np.int64))

    if component in ("b", "c") or pairs.ndim == 1:
        for i in pairs.ravel():
            covering = elems_of(int(i))
            if covering.size == 0:
                raise NumericalError(
                    f"selected DOF {i} is covered by no element")
            elements.update(int(e) for e in covering)
    else:
        interior = face_table.face_right >= 0
        for i, j in pairs:
            common = np.intersect1d(elems_of(int(i)), elems_of(int(j)))
            if common.size:
                elements.update(int(e) for e in common)
                continue
            if component != "A":
                raise NumericalError(
                    f"pair ({i}, {j}) shares no element (pattern bug)")
            near = np.unique(np.concatenate([elems_of(int(i)),
                                             elems_of(int(j))]))
            cand = np.unique(face_table.element_to_faces[near].ravel())
            cand = cand[interior[cand]]
            hit = cand[np.any(ctx.face_dofs6[cand] == i, axis=1)
                       & np.any(ctx.face_dofs6[cand] == j, axis=1)]
            if hit.size == 0:
                raise NumericalError(
                    f"pair ({i}, {j}) is covered by no element or facet")
            facets.update(int(f) for f in hit)
            elements.update(int(e) for e in face_table.face_left[hit])
            elements.update(int(e) for e in face_table.face_right[hit])

    if component == "A":
        for e in sorted(elements):
            for f in face_table.element_to_faces[e]:
                left, right = face_table.face_left[f], face_table.face_right[f]
                if right < 0:
                    continue
                if ctx.cut_candidate[left] or ctx.cut_candidate[right]:
                    facets.add(int(f))
                    elements.add(int(left))
                    elements.add(int(right))

    return (np.array(sorted(elements), dtype=np.int64),
            np.array(sorted(facets), dtype=np.int64))


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


def make_deim_model(U: np.ndarray, eigenvalues: np.ndarray, m: int,
                    component: str, ctx: AssemblyContext) -> DeimModel:
    """Select indices for the first m modes and detect the reduced mesh."""
    m = min(m, U.shape[1])
    local, projector = deim_select(U[:, :m])
    indices = ctx.kept[component][local]
    pattern = ctx.patterns[component]
    # DOF pairs of the selected matrix entries; DOFs for the vectors
    pairs = indices if pattern is None else \
        np.column_stack([pattern.rows[indices], pattern.cols[indices]])
    elements, facets = build_reduced_mesh(pairs, ctx, component)
    return DeimModel(component, U[:, :indices.size].copy(), indices,
                     projector, elements, facets,
                     np.asarray(eigenvalues, dtype=float))


def model_from_snapshots(basis: DeimBasis, m: int, snaps: OperatorSnapshots,
                         ctx: AssemblyContext) -> DeimModel:
    return make_deim_model(basis.U, basis.eigenvalues, m, snaps.component,
                           ctx)


def truncate_model(model: DeimModel, m: int,
                   ctx: AssemblyContext) -> DeimModel:
    """Rebuild a model from the first m stored modes (m <= model.m)."""
    return make_deim_model(model.U, model.eigenvalues, m, model.component,
                           ctx)


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

    def split(self, theta: np.ndarray) -> list[np.ndarray]:
        """Per-model views of a concatenated theta."""
        return np.split(theta, self.offsets[1:-1])

    def reconstruct(self, mu: float):
        """Full interpolatory reconstruction of a one-model assembler: a
        matrix storing the model's kept entries, or a full-length vector."""
        (model,) = self.models
        theta = self.theta(mu)
        if model.component in ("b", "c"):
            return self.projector_apply(theta)
        return self.ctx.full_matrix(model.component,
                                    model.projector @ theta)

    def projector_apply(self, theta: np.ndarray) -> np.ndarray:
        """Full pattern values (or DOF vector) interpolated from theta."""
        (model,) = self.models
        return self.ctx.expand(model.component, model.projector @ theta)


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
