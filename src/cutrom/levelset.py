"""Parametrized level-set geometry on the fixed background mesh.

The domain is the square of half side ``mu`` centered at ``center``; its
level-set function is

    phi(x, y) = |x-cx| + |y-cy| + ||x-cx| - |y-cy|| - 2*mu
              = 2*max(|x-cx|, |y-cy|) - 2*mu,

negative inside, zero on the boundary.  Geometry is approximated per
element by the linear interpolant of the vertex values of phi: elements are
classified by vertex signs, cut elements are clipped against the
interpolant's zero line, and the boundary rule lives on that chord.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import BackgroundMesh, FaceTable

INSIDE = np.int8(0)
OUTSIDE = np.int8(1)
CUT = np.int8(2)

# vertex values closer to zero than SNAP_REL * local scale are treated as
# exact zeros, so crossings snap to vertices instead of creating slivers
SNAP_REL = 1e-12

_GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


@dataclass(frozen=True)
class LevelSetSquare:
    """Axis-aligned square of half side ``mu`` (the max-norm ball)."""

    mu: float
    center: tuple[float, float] = (1.0, 1.0)

    def __call__(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        ax = np.abs(p[..., 0] - self.center[0])
        ay = np.abs(p[..., 1] - self.center[1])
        return ax + ay + np.abs(ax - ay) - 2.0 * self.mu


def eval_levelset(ls: LevelSetSquare, point) -> float | np.ndarray:
    """Evaluate the level-set; negative inside, zero on the boundary."""
    out = ls(point)
    return float(out) if np.ndim(out) == 0 else out


def snap_values(vals: np.ndarray) -> np.ndarray:
    """Zero out vertex values indistinguishable from the boundary."""
    vals = np.array(vals, dtype=float, copy=True)
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=-1, keepdims=True))
    vals[np.abs(vals) < SNAP_REL * scale] = 0.0
    return vals


def _tri_area(p0, p1, p2) -> float:
    return 0.5 * ((p1[0] - p0[0]) * (p2[1] - p0[1])
                  - (p2[0] - p0[0]) * (p1[1] - p0[1]))


def _clip_polygon(coords: np.ndarray, vals: np.ndarray):
    """Clip one triangle against the zero line of its linear interpolant.

    Handles all sign patterns including exact zeros.  Returns
    (sub_triangles, chord) where sub_triangles is a list of (3, 2) arrays
    covering the region {interpolant <= 0} and chord is the pair of zero-line
    endpoints, or None when the zero set is degenerate or the region empty.
    """
    neg = vals < 0.0
    pos = vals > 0.0
    if not pos.any():
        subs = [coords] if neg.any() else []
        chord = None
        if neg.sum() == 1 and (vals == 0.0).sum() == 2:
            z = np.flatnonzero(vals == 0.0)
            chord = (coords[z[0]], coords[z[1]])
        return subs, chord
    if not neg.any():
        return [], None

    poly: list[np.ndarray] = []
    cut_pts: list[np.ndarray] = []
    for k in range(3):
        i, j = k, (k + 1) % 3
        if vals[i] <= 0.0:
            poly.append(coords[i])
            if vals[i] == 0.0:
                cut_pts.append(coords[i])
        if vals[i] * vals[j] < 0.0:
            t = vals[i] / (vals[i] - vals[j])
            pc = coords[i] + t * (coords[j] - coords[i])
            poly.append(pc)
            cut_pts.append(pc)

    subs = [np.array([poly[0], poly[k], poly[k + 1]])
            for k in range(1, len(poly) - 1)]
    chord = None
    if len(cut_pts) == 2:
        a, b = cut_pts
        if (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 > 0.0:
            chord = (a, b)
    return subs, chord


_NEXT_VERTEX = np.array([1, 2, 0])


def _midpoint_rule(tris: np.ndarray):
    """Degree-2 rule on triangles (n, 3, 2): edge midpoints, weight area/3."""
    d1 = tris[:, 1] - tris[:, 0]
    d2 = tris[:, 2] - tris[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    mids = 0.5 * (tris + tris[:, _NEXT_VERTEX])         # (n, 3, 2)
    w = np.repeat(area / 3.0, 3)
    return mids.reshape(-1, 2), w


def _segment_rule(a: np.ndarray, b: np.ndarray):
    """2-point Gauss points and weights on segments a->b, shapes (n, 2)."""
    pts = np.empty((a.shape[0], 2, 2))
    for k, t in enumerate(_GAUSS2):
        pts[:, k] = a + t * (b - a)
    length = np.hypot(*(b - a).T)
    w = np.repeat(0.5 * length, 2)
    return pts.reshape(-1, 2), w


def interior_quadrature(coords, vals):
    """Quadrature (points, weights) for {interpolant < 0} on one triangle.

    Full degree-2 rule for uncut triangles; on cut triangles the clipped
    sub-polygon is fan-triangulated and the rule applied per piece.  Weights
    sum to the clipped area exactly.
    """
    coords = np.asarray(coords, dtype=float)
    vals = snap_values(np.asarray(vals, dtype=float))
    subs, _ = _clip_polygon(coords, vals)
    if not subs:
        return np.zeros((0, 2)), np.zeros(0)
    pts, w = _midpoint_rule(np.asarray(subs))
    keep = np.repeat([abs(_tri_area(*s)) > 0.0 for s in subs], 3)
    return pts[keep], w[keep]


def boundary_quadrature(coords, vals):
    """2-point Gauss rule (points, weights, normals) on the zero-line chord.

    Empty when the chord is degenerate.  The normal is the normalized
    interpolant gradient, which points out of the negative region.
    """
    coords = np.asarray(coords, dtype=float)
    vals = snap_values(np.asarray(vals, dtype=float))
    _, chord = _clip_polygon(coords, vals)
    if chord is None:
        return np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2))
    a, b = chord
    pts, w = _segment_rule(a[None, :], b[None, :])
    g = _interpolant_gradients(coords[None], vals[None])[0]
    n = g / np.linalg.norm(g)
    return pts, w, np.broadcast_to(n, (2, 2)).copy()


def _interpolant_gradients(coords: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Gradient of the linear interpolant per triangle, (n, 2)."""
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    f1 = vals[:, 1] - vals[:, 0]
    f2 = vals[:, 2] - vals[:, 0]
    gx = (f1 * d2[:, 1] - f2 * d1[:, 1]) / det
    gy = (f2 * d1[:, 0] - f1 * d2[:, 0]) / det
    return np.column_stack([gx, gy])


@dataclass
class SubsetGeometry:
    """Classification and cut-cell quadrature for a subset of elements.

    Local element indices (``*_parent``) refer to positions in ``elems``.
    """

    elems: np.ndarray              # (k,) global element ids, ascending
    classification: np.ndarray    # (k,) INSIDE / OUTSIDE / CUT
    clipped_area: np.ndarray      # (k,) area of {interpolant < 0} per element
    iq_parent: np.ndarray         # (nq,) local parent of interior points
    iq_points: np.ndarray         # (nq, 2)
    iq_weights: np.ndarray        # (nq,)
    bq_parent: np.ndarray         # (nb,) local parent of boundary points
    bq_points: np.ndarray         # (nb, 2)
    bq_weights: np.ndarray        # (nb,)
    bq_normals: np.ndarray        # (nb, 2)


def subset_geometry(mesh: BackgroundMesh, ls, elems,
                    coords: np.ndarray | None = None) -> SubsetGeometry:
    """Classify and build quadratures for the given elements only.

    Vectorized over the generic sign patterns; the rare configurations with
    exact zero vertex values fall back to the scalar clipper.  ``coords``
    may pass precomputed element vertex coordinates for the same (sorted)
    element list.
    """
    elems = np.sort(np.asarray(elems, dtype=np.int64))
    if coords is None:
        coords = mesh.element_coords(elems)                 # (k, 3, 2)
    vals = snap_values(ls(coords.reshape(-1, 2)).reshape(-1, 3))

    neg = vals < 0.0
    pos = vals > 0.0
    zero = vals == 0.0
    nneg = neg.sum(axis=1)
    npos = pos.sum(axis=1)
    nzero = zero.sum(axis=1)

    cls = np.full(elems.shape[0], CUT, dtype=np.int8)
    cls[nneg == 3] = INSIDE
    cls[npos == 3] = OUTSIDE

    clipped = np.zeros(elems.shape[0])
    iq_parent: list[np.ndarray] = []
    iq_points: list[np.ndarray] = []
    iq_weights: list[np.ndarray] = []
    bq_parent: list[np.ndarray] = []
    bq_points: list[np.ndarray] = []
    bq_weights: list[np.ndarray] = []
    bq_normals: list[np.ndarray] = []

    inside_idx = np.flatnonzero(cls == INSIDE)
    if inside_idx.size:
        tris = coords[inside_idx]
        pts, w = _midpoint_rule(tris)
        iq_parent.append(np.repeat(inside_idx, 3))
        iq_points.append(pts)
        iq_weights.append(w)
        d1 = tris[:, 1] - tris[:, 0]
        d2 = tris[:, 2] - tris[:, 0]
        clipped[inside_idx] = 0.5 * np.abs(d1[:, 0] * d2[:, 1]
                                           - d1[:, 1] * d2[:, 0])

    generic = np.flatnonzero((cls == CUT) & (nzero == 0))
    if generic.size:
        gcoords = coords[generic]
        gvals = vals[generic]
        one_neg = nneg[generic] == 1
        apex = np.where(one_neg,
                        np.argmax(gvals < 0.0, axis=1),
                        np.argmax(gvals > 0.0, axis=1))
        ia, ib, ic = apex, (apex + 1) % 3, (apex + 2) % 3
        rows = np.arange(generic.size)
        A = gcoords[rows, ia]
        B = gcoords[rows, ib]
        C = gcoords[rows, ic]
        fa = gvals[rows, ia]
        fb = gvals[rows, ib]
        fc = gvals[rows, ic]
        pab = A + (fa / (fa - fb))[:, None] * (B - A)
        pac = A + (fa / (fa - fc))[:, None] * (C - A)

        corner = np.stack([A, pab, pac], axis=1)            # one_neg case
        quad1 = np.stack([pab, B, C], axis=1)               # two_neg case
        quad2 = np.stack([pab, C, pac], axis=1)
        two = ~one_neg
        subs = np.concatenate([corner[one_neg], quad1[two], quad2[two]])
        parents = np.concatenate([generic[one_neg], generic[two],
                                  generic[two]])
        order = np.argsort(parents, kind="stable")
        subs = subs[order]
        parents = parents[order]

        pts, w = _midpoint_rule(subs)
        iq_parent.append(np.repeat(parents, 3))
        iq_points.append(pts)
        iq_weights.append(w)
        # zero at the generic elements so far; bincount adds in input order
        clipped += np.bincount(
            parents, 0.5 * np.abs((subs[:, 1, 0] - subs[:, 0, 0])
                                  * (subs[:, 2, 1] - subs[:, 0, 1])
                                  - (subs[:, 2, 0] - subs[:, 0, 0])
                                  * (subs[:, 1, 1] - subs[:, 0, 1])),
            minlength=clipped.size)

        spts, sw = _segment_rule(pab, pac)
        grad = _interpolant_gradients(gcoords, gvals)
        nrm = grad / np.linalg.norm(grad, axis=1, keepdims=True)
        bq_parent.append(np.repeat(generic, 2))
        bq_points.append(spts)
        bq_weights.append(sw)
        bq_normals.append(np.repeat(nrm, 2, axis=0))

    special = np.flatnonzero((cls == CUT) & (nzero > 0))
    for li in special:
        subs, chord = _clip_polygon(coords[li], vals[li])
        if subs:
            tris = np.asarray(subs)
            good = np.array([abs(_tri_area(*s)) > 0.0 for s in subs])
            tris = tris[good]
            if tris.size:
                pts, w = _midpoint_rule(tris)
                iq_parent.append(np.full(pts.shape[0], li, dtype=np.int64))
                iq_points.append(pts)
                iq_weights.append(w)
                clipped[li] = np.sum(w)
        if chord is not None and (vals[li] < 0.0).any():
            a, b = chord
            spts, sw = _segment_rule(a[None], b[None])
            g = _interpolant_gradients(coords[li][None], vals[li][None])[0]
            nn = g / np.linalg.norm(g)
            bq_parent.append(np.full(2, li, dtype=np.int64))
            bq_points.append(spts)
            bq_weights.append(sw)
            bq_normals.append(np.broadcast_to(nn, (2, 2)).copy())

    def _cat(parts, shape):
        return (np.concatenate(parts) if parts
                else np.zeros(shape))

    geo = SubsetGeometry(
        elems=elems,
        classification=cls,
        clipped_area=clipped,
        iq_parent=_cat(iq_parent, (0,)).astype(np.int64),
        iq_points=_cat(iq_points, (0, 2)),
        iq_weights=_cat(iq_weights, (0,)),
        bq_parent=_cat(bq_parent, (0,)).astype(np.int64),
        bq_points=_cat(bq_points, (0, 2)),
        bq_weights=_cat(bq_weights, (0,)),
        bq_normals=_cat(bq_normals, (0, 2)),
    )
    # deterministic global ordering: interior/boundary points sorted by parent
    io = np.argsort(geo.iq_parent, kind="stable")
    geo.iq_parent = geo.iq_parent[io]
    geo.iq_points = geo.iq_points[io]
    geo.iq_weights = geo.iq_weights[io]
    bo = np.argsort(geo.bq_parent, kind="stable")
    geo.bq_parent = geo.bq_parent[bo]
    geo.bq_points = geo.bq_points[bo]
    geo.bq_weights = geo.bq_weights[bo]
    geo.bq_normals = geo.bq_normals[bo]
    return geo


@dataclass
class CutGeometry:
    """Full-mesh classification, cut quadratures and ghost facet set."""

    mesh: BackgroundMesh
    face_table: FaceTable
    levelset: LevelSetSquare
    classification: np.ndarray     # (n_elements,)
    active_elements: np.ndarray    # INSIDE or CUT
    cut_elements: np.ndarray
    active_dofs: np.ndarray        # ascending DOF ids of active elements
    ghost_facets: np.ndarray       # face indices
    active: SubsetGeometry         # quadrature data over active_elements

    @property
    def interior_weight_sum(self) -> float:
        return float(np.sum(self.active.iq_weights))

    @property
    def boundary_weight_sum(self) -> float:
        return float(np.sum(self.active.bq_weights))


def classify_elements(mesh: BackgroundMesh, face_table: FaceTable,
                      ls: LevelSetSquare) -> CutGeometry:
    """Tag all elements against the level-set and collect ghost facets.

    Ghost facets are the interior faces with both incident elements active
    and at least one of them cut; faces on the boundary of the active
    submesh (and of the box) are excluded.
    """
    vals = snap_values(ls(mesh.vertices)[mesh.elements])
    nneg = (vals < 0.0).sum(axis=1)
    npos = (vals > 0.0).sum(axis=1)
    cls = np.full(mesh.n_elements, CUT, dtype=np.int8)
    cls[nneg == 3] = INSIDE
    cls[npos == 3] = OUTSIDE

    active_elements = np.flatnonzero(cls != OUTSIDE)
    cut_elements = np.flatnonzero(cls == CUT)
    active_dofs = np.unique(mesh.elements[active_elements])

    interior = face_table.face_right >= 0
    cl = cls[face_table.face_left]
    cr = np.where(interior, cls[np.maximum(face_table.face_right, 0)], OUTSIDE)
    both_active = interior & (cl != OUTSIDE) & (cr != OUTSIDE)
    ghost = np.flatnonzero(both_active & ((cl == CUT) | (cr == CUT)))

    active = subset_geometry(mesh, ls, active_elements)
    return CutGeometry(mesh, face_table, ls, cls, active_elements,
                       cut_elements, active_dofs, ghost, active)


def cut_candidates(mesh: BackgroundMesh, mu_min: float, mu_max: float,
                   center=(1.0, 1.0)) -> np.ndarray:
    """Elements that can be cut for some mu in [mu_min, mu_max].

    Uses monotonicity of the level-set family in mu: an element stays
    outside for the whole range iff it is outside at mu_max, and inside iff
    it is inside at mu_min.
    """
    v_lo = snap_values(LevelSetSquare(mu_min, center)(mesh.vertices)[mesh.elements])
    always_inside = (v_lo < 0.0).all(axis=1)
    return ~(always_inside | outside_elements(mesh, mu_max, center))


def outside_elements(mesh: BackgroundMesh, mu: float,
                     center=(1.0, 1.0)) -> np.ndarray:
    """Elements classified OUTSIDE at mu; by monotonicity in mu, at mu_max
    these are the elements that stay outside for the whole range."""
    vals = LevelSetSquare(mu, center)(mesh.vertices)[mesh.elements]
    return (snap_values(vals) > 0.0).all(axis=1)
