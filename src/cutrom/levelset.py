"""Parametrized level-set geometry on the fixed background mesh.

The domain is the square of half side ``mu`` centered at ``center``; its
level-set function is

    phi(x, y) = |x-cx| + |y-cy| + ||x-cx| - |y-cy|| - 2*mu
              = 2*max(|x-cx|, |y-cy|) - 2*mu,

negative inside, zero on the boundary.  Geometry is approximated per
element by the linear interpolant of the vertex values of phi: elements are
classified by vertex signs (a value snapped to zero counts as outside),
cut elements are clipped against the interpolant's zero line, and the
boundary rule lives on that chord.

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
# exact zeros, so crossings snap to vertices instead of creating slivers.
# A zero counts as outside: INSIDE means three negative values, OUTSIDE
# three non-negative ones, so a mesh-aligned mu (a side of the square
# through vertices) and every mu within the snap distance above it take
# the state of the limit from below, and every active element has a
# positive clipped area
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
    """Zero out vertex values indistinguishable from the boundary; the
    classification counts such a zero as outside (``SNAP_REL``).

    The last axis holds an element's three vertex values; their local
    scale is the largest magnitude, and at least 1.
    """
    vals = np.array(vals, dtype=float, copy=True)
    mag = np.abs(vals)
    scale = np.maximum(np.maximum(mag[..., 0], mag[..., 1]),
                       np.maximum(mag[..., 2], 1.0))
    vals[mag < SNAP_REL * scale[..., None]] = 0.0
    return vals


def element_states(vals: np.ndarray) -> np.ndarray:
    """INSIDE (all three snapped vertex values negative), OUTSIDE (all
    non-negative: a zero counts as outside) or CUT, per row of (k, 3)."""
    neg = vals < 0.0
    # column by column: cheaper than a reduction over the short last axis
    return np.where(neg[:, 0] & neg[:, 1] & neg[:, 2], INSIDE,
                    np.where(neg[:, 0] | neg[:, 1] | neg[:, 2], CUT, OUTSIDE))


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
# triangles of the quadrilateral left by a lone non-negative apex (of zero
# area when the apex value is zero)
_SUB_VERTICES = np.array([[0, 1, 2], [0, 3, 4], [3, 1, 2], [3, 2, 4]])
# the sub-triangles of an INSIDE element, a lone negative apex and a lone
# non-negative one (-1: none)
_CASE_SUBS = np.array([[0, -1], [1, -1], [2, 3]])


def subset_geometry(mesh: BackgroundMesh, ls, elems,
                    coords: np.ndarray | None = None,
                    interior: bool = True) -> SubsetGeometry:
    """Classify and build quadratures for the given elements only.

    A vertex value snapped to zero counts as outside, so a cut element has
    one vertex on one side of the zero line and two on the other.  A zero
    vertex then gives a crossing at t = 0 or 1: a sub-triangle of zero
    area or a chord of zero length, with zero weights, which is the limit
    of the state just below a mesh-aligned mu.  ``coords`` may pass
    precomputed element vertex coordinates for the same (sorted) element
    list.  ``interior=False`` leaves the interior rule empty (the clipped
    areas and the boundary rule are all a stiffness matrix needs).
    """
    elems = np.sort(np.asarray(elems, dtype=np.int64))
    if coords is None:
        coords = mesh.element_coords(elems)                 # (k, 3, 2)
    vals = snap_values(ls(coords.reshape(-1, 2)).reshape(-1, 3))

    neg = vals < 0.0
    cls = element_states(vals)

    # active elements, the vertices of a cut one rotated to start at its
    # lone vertex (negative, or the one of the other sign); INSIDE ones
    # keep their order
    clip = np.flatnonzero(cls != OUTSIDE)
    one_neg = neg[clip].sum(axis=1) == 1
    rot = _ROTATE[np.argmax(neg[clip] == one_neg[:, None], axis=1)]
    tri = coords[clip[:, None], rot]                        # (c, 3, 2)
    f = vals[clip[:, None], rot]
    cut = np.flatnonzero(cls[clip] == CUT)
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
    if not interior:
        subs, parents = subs[:0], parents[:0]
    iq_points, iq_weights = _midpoint_rule(subs)
    return SubsetGeometry(
        elems=elems, classification=cls, clipped_area=clipped,
        iq_parent=np.repeat(parents, 3), iq_points=iq_points,
        iq_weights=iq_weights,
        bq_parent=np.repeat(bq_elems, 2), bq_points=spts, bq_weights=sw,
        bq_normals=np.repeat(nrm, 2, axis=0))


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
    # the extra last entry stands for the missing neighbour (index -1) of
    # a box boundary face
    cls = np.append(element_states(vals), OUTSIDE)
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
    v_lo = LevelSetSquare(mu_min, center)(mesh.vertices)[mesh.elements]
    return (element_states(snap_values(v_lo)) != INSIDE) \
        & ~outside_elements(mesh, mu_max, center)


def outside_elements(mesh: BackgroundMesh, mu: float,
                     center=(1.0, 1.0)) -> np.ndarray:
    """Elements classified OUTSIDE at mu; by monotonicity in mu, at mu_max
    these are the elements that stay outside for the whole range."""
    vals = LevelSetSquare(mu, center)(mesh.vertices)[mesh.elements]
    return element_states(snap_values(vals)) == OUTSIDE
