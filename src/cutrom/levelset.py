"""Parametrized level-set geometry on the fixed background mesh.

The domain is the square of half side ``mu`` centered at ``center``; its
level-set function is

    phi(x, y) = |x-cx| + |y-cy| + ||x-cx| - |y-cy|| - 2*mu
              = 2*max(|x-cx|, |y-cy|) - 2*mu,

negative inside, zero on the boundary.  Geometry is approximated per
element by the linear interpolant of the vertex values of phi: elements are
classified by vertex signs, cut elements are clipped against the
interpolant's zero line, and the boundary rule lives on that chord.

``classify_elements`` makes one sign pass over the whole mesh and builds no
quadrature: a truth assembly clips only the cut elements and takes the
INSIDE elements' contributions from its context, so the active-set
quadrature (``CutGeometry.active``) is built on first read only, for
checks such as the area and perimeter consistency.  An element's
quadrature depends on its own vertex values only, so it comes out bitwise
the same in any subset pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import BackgroundMesh, FaceTable

INSIDE = np.int8(0)
OUTSIDE = np.int8(1)
CUT = np.int8(2)

# vertex values closer to zero than SNAP_REL * local scale are treated as
# exact zeros, so crossings snap to vertices instead of creating slivers
SNAP_REL = 1e-12

_GAUSS2 = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


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


def snap_values(vals: np.ndarray) -> np.ndarray:
    """Zero out vertex values indistinguishable from the boundary.

    The last axis holds an element's three vertex values; their local
    scale is the largest magnitude, and at least 1.
    """
    vals = np.array(vals, dtype=float, copy=True)
    mag = np.abs(vals)
    scale = np.maximum(np.maximum(mag[..., 0], mag[..., 1]),
                       np.maximum(mag[..., 2], 1.0))
    vals[mag < SNAP_REL * scale[..., None]] = 0.0
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
    d = b - a
    pts = a[:, None] + _GAUSS2[:, None] * d[:, None]
    w = np.repeat(0.5 * np.hypot(d[:, 0], d[:, 1]), 2)
    return pts.reshape(-1, 2), w


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


def inside_geometry(elems: np.ndarray, coords: np.ndarray) -> SubsetGeometry:
    """Quadrature of the given elements as INSIDE elements: the whole
    triangle's rule, as ``subset_geometry`` builds it, and no boundary."""
    pts, w = _midpoint_rule(coords)
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    k = elems.size
    return SubsetGeometry(
        elems=elems, classification=np.full(k, INSIDE), clipped_area=area,
        iq_parent=np.repeat(np.arange(k), 3), iq_points=pts, iq_weights=w,
        bq_parent=np.zeros(0, dtype=np.int64), bq_points=np.zeros((0, 2)),
        bq_weights=np.zeros(0), bq_normals=np.zeros((0, 2)))


# an element's vertex order rotated to start at vertex 0, 1 or 2
_ROTATE = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
# sub-triangles as rows into (apex, next, last, p_next, p_last), where
# p_next and p_last are the crossings on the edges from the apex: the
# whole triangle, the corner cut off at a lone negative apex, and the two
# triangles of the quadrilateral left by a lone positive apex
_SUB_VERTICES = np.array([[0, 1, 2], [0, 3, 4], [3, 1, 2], [3, 2, 4]])
# the sub-triangles of an INSIDE element, a lone negative apex and a lone
# positive one (-1: none)
_CASE_SUBS = np.array([[0, -1], [1, -1], [2, 3]])


def subset_geometry(mesh: BackgroundMesh, ls, elems,
                    coords: np.ndarray | None = None,
                    interior: bool = True) -> SubsetGeometry:
    """Classify and build quadratures for the given elements only.

    Vectorized over INSIDE elements and the generic sign patterns of cut
    ones; the rare configurations with exact zero vertex values fall back
    to the scalar clipper.  ``coords`` may pass precomputed element vertex
    coordinates for the same (sorted) element list.  ``interior=False``
    leaves the interior rule empty (the clipped areas and the boundary
    rule are all a stiffness matrix needs).
    """
    elems = np.sort(np.asarray(elems, dtype=np.int64))
    if coords is None:
        coords = mesh.element_coords(elems)                 # (k, 3, 2)
    vals = snap_values(ls(coords.reshape(-1, 2)).reshape(-1, 3))

    neg = vals < 0.0
    nneg = neg.sum(axis=1)
    npos = (vals > 0.0).sum(axis=1)
    cls = np.full(elems.shape[0], CUT, dtype=np.int8)
    cls[nneg == 3] = INSIDE
    cls[npos == 3] = OUTSIDE
    has_zero = (vals == 0.0).any(axis=1)
    generic = (cls == CUT) & ~has_zero

    # INSIDE and generic cut elements, their vertices rotated to start at
    # the lone vertex of a cut one (the negative one when it is alone);
    # INSIDE ones keep their order
    clip = np.flatnonzero((cls == INSIDE) | generic)
    one_neg = nneg[clip] == 1
    rot = _ROTATE[np.argmax(neg[clip] == one_neg[:, None], axis=1)]
    tri = coords[clip[:, None], rot]                        # (c, 3, 2)
    f = vals[clip[:, None], rot]
    cut = np.flatnonzero(generic[clip])
    fa = f[cut, :1]
    apex = tri[cut, :1]
    crossing = apex + (fa / (fa - f[cut, 1:]))[:, :, None] \
        * (tri[cut, 1:] - apex)                             # (g, 2, 2)
    points = np.empty((clip.size, 5, 2))
    points[:, :3] = tri
    points[cut, 3:] = crossing

    # sub-triangles in ascending element order
    case = np.zeros(clip.size, dtype=np.int64)
    case[cut] = 2 - one_neg[cut]
    sub_case = _CASE_SUBS[case]
    sub_of = np.nonzero(sub_case >= 0)[0]
    subs = points[sub_of[:, None], _SUB_VERTICES[sub_case[sub_case >= 0]]]
    parents = clip[sub_of]
    # bincount adds in input order (and gives integers when empty)
    clipped = np.bincount(
        parents, 0.5 * np.abs((subs[:, 1, 0] - subs[:, 0, 0])
                              * (subs[:, 2, 1] - subs[:, 0, 1])
                              - (subs[:, 2, 0] - subs[:, 0, 0])
                              * (subs[:, 1, 1] - subs[:, 0, 1])),
        minlength=elems.size).astype(float, copy=False)

    bq_elems = clip[cut]
    spts, sw = _segment_rule(crossing[:, 0], crossing[:, 1])
    grad = _interpolant_gradients(coords[bq_elems], vals[bq_elems])
    nrm = grad / np.linalg.norm(grad, axis=1, keepdims=True)
    iq = [(np.repeat(parents, 3), *_midpoint_rule(subs))] if interior \
        else [(np.zeros(0, dtype=np.int64), np.zeros((0, 2)), np.zeros(0))]
    bq = [(np.repeat(bq_elems, 2), spts, sw, np.repeat(nrm, 2, axis=0))]

    special = np.flatnonzero((cls == CUT) & has_zero)
    for li in special:
        subs, chord = _clip_polygon(coords[li], vals[li])
        if subs:
            tris = np.asarray(subs)
            good = np.array([abs(_tri_area(*s)) > 0.0 for s in subs])
            tris = tris[good]
            if tris.size:
                pts, w = _midpoint_rule(tris)
                if interior:
                    iq.append((np.full(pts.shape[0], li, dtype=np.int64),
                               pts, w))
                clipped[li] = np.sum(w)
        if chord is not None and (vals[li] < 0.0).any():
            a, b = chord
            spts, sw = _segment_rule(a[None], b[None])
            g = _interpolant_gradients(coords[li][None], vals[li][None])[0]
            nn = g / np.linalg.norm(g)
            bq.append((np.full(2, li, dtype=np.int64), spts, sw,
                       np.broadcast_to(nn, (2, 2)).copy()))

    def by_parent(parts):
        """Concatenated parts, stably sorted by parent when the scalar
        clipper added any."""
        cols = [np.concatenate(c) for c in zip(*parts)]
        if len(parts) > 1:
            order = np.argsort(cols[0], kind="stable")
            cols = [c[order] for c in cols]
        return cols

    iq_parent, iq_points, iq_weights = by_parent(iq)
    bq_parent, bq_points, bq_weights, bq_normals = by_parent(bq)
    return SubsetGeometry(
        elems=elems, classification=cls, clipped_area=clipped,
        iq_parent=iq_parent, iq_points=iq_points, iq_weights=iq_weights,
        bq_parent=bq_parent, bq_points=bq_points, bq_weights=bq_weights,
        bq_normals=bq_normals)


@dataclass
class CutGeometry:
    """Full-mesh classification and ghost facet set of one parameter."""

    mesh: BackgroundMesh
    face_table: FaceTable
    levelset: LevelSetSquare
    classification: np.ndarray     # (n_elements,)
    active_elements: np.ndarray    # INSIDE or CUT
    cut_elements: np.ndarray
    active_dofs: np.ndarray        # ascending DOF ids of active elements
    ghost_facets: np.ndarray       # face indices

    @cached_property
    def active(self) -> SubsetGeometry:
        """Quadrature data over ``active_elements``, built on first read."""
        return subset_geometry(self.mesh, self.levelset, self.active_elements)

    @property
    def interior_weight_sum(self) -> float:
        return float(np.sum(self.active.iq_weights))

    @property
    def boundary_weight_sum(self) -> float:
        return float(np.sum(self.active.bq_weights))


# ghost facet per (left, right) class pair, indexed by 3 * left + right
GHOST_PAIR = np.zeros(9, dtype=bool)
GHOST_PAIR[[3 * INSIDE + CUT, 3 * CUT + INSIDE, 3 * CUT + CUT]] = True


def classify_elements(mesh: BackgroundMesh, face_table: FaceTable,
                      ls: LevelSetSquare) -> CutGeometry:
    """Tag all elements against the level-set and collect ghost facets.

    Ghost facets are the interior faces with both incident elements active
    and at least one of them cut; faces on the boundary of the active
    submesh (and of the box) are excluded.  No quadrature is built.
    """
    vals = snap_values(ls(mesh.vertices)[mesh.elements])
    neg = vals < 0.0
    pos = vals > 0.0
    cls = np.full(mesh.n_elements + 1, CUT, dtype=np.int8)
    cls[:-1][neg[:, 0] & neg[:, 1] & neg[:, 2]] = INSIDE
    cls[:-1][pos[:, 0] & pos[:, 1] & pos[:, 2]] = OUTSIDE
    # the extra last entry stands for the missing neighbour (index -1) of
    # a box boundary face
    cls[-1] = OUTSIDE

    ghost = np.flatnonzero(GHOST_PAIR[3 * cls[face_table.face_left]
                                       + cls[face_table.face_right]])
    cls = cls[:-1]
    active_elements = np.flatnonzero(cls != OUTSIDE)
    cut_elements = np.flatnonzero(cls == CUT)
    mark = np.zeros(mesh.dof_count, dtype=bool)
    mark[mesh.elements[active_elements]] = True
    return CutGeometry(mesh, face_table, ls, cls, active_elements,
                       cut_elements, np.flatnonzero(mark), ghost)


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
