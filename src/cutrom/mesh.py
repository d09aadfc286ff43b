"""Fixed structured background mesh of the embedding box.

Every parametrized domain configuration is immersed in the same box, so the
triangulation (and hence the DOF numbering) never changes between parameter
values.  Cells of a regular grid are split into two triangles along the
bottom-left to top-right diagonal; P1 degrees of freedom coincide with the
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BackgroundMesh:
    """Structured triangulation of the rectangle [box_min, box_max]."""

    box_min: np.ndarray          # (2,)
    box_max: np.ndarray          # (2,)
    h_target: float              # requested mesh size
    vertices: np.ndarray         # (n_vertices, 2)
    elements: np.ndarray         # (n_elements, 3) vertex indices, ccw
    n_cells: tuple[int, int]     # grid cells per axis
    h: float                     # actual mesh size: max element diameter

    @property
    def dof_count(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def element_coords(self, elems=None) -> np.ndarray:
        """Vertex coordinates per element, shape (n, 3, 2)."""
        if elems is None:
            return self.vertices[self.elements]
        return self.vertices[self.elements[np.asarray(elems, dtype=int)]]


@dataclass(frozen=True)
class FaceTable:
    """Undirected faces (edges) of the mesh with element adjacency.

    ``face_right`` is -1 on the box boundary; interior faces have two
    distinct incident elements.
    """

    faces: np.ndarray             # (n_faces, 2) vertex pairs, low index first
    face_left: np.ndarray         # (n_faces,)
    face_right: np.ndarray        # (n_faces,) or -1
    element_to_faces: np.ndarray  # (n_elements, 3)

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]


def build_background_mesh(box_min, box_max, h_target: float) -> BackgroundMesh:
    """Build the criss-cross grid with ceil(L/h) cells per axis.

    Each cell is split along its main (bottom-left to top-right) diagonal,
    so a grid of nx*ny cells yields 2*nx*ny triangles and
    (nx+1)*(ny+1) vertices.
    """
    box_min = np.asarray(box_min, dtype=float)
    box_max = np.asarray(box_max, dtype=float)
    if box_min.shape != (2,) or box_max.shape != (2,):
        raise ValueError("box corners must be 2D points")
    if not np.all(box_max > box_min):
        raise ValueError("degenerate box: box_max must dominate box_min")
    if not h_target > 0.0:
        raise ValueError("h_target must be positive")

    lengths = box_max - box_min
    nx = int(np.ceil(lengths[0] / h_target))
    ny = int(np.ceil(lengths[1] / h_target))

    ix = np.arange(nx + 1, dtype=float)
    iy = np.arange(ny + 1, dtype=float)
    xs = box_min[0] + lengths[0] * (ix / nx)
    ys = box_min[1] + lengths[1] * (iy / ny)
    # vertex id = iy * (nx + 1) + ix  (x fastest)
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    jx, jy = np.meshgrid(np.arange(nx), np.arange(ny))
    jx = jx.ravel()
    jy = jy.ravel()
    v00 = jy * (nx + 1) + jx
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])   # below the diagonal
    upper = np.column_stack([v00, v11, v01])   # above the diagonal
    elements = np.empty((2 * nx * ny, 3), dtype=np.int64)
    elements[0::2] = lower
    elements[1::2] = upper

    dx = lengths[0] / nx
    dy = lengths[1] / ny
    h = float(np.hypot(dx, dy))  # hypotenuse is the largest diameter

    return BackgroundMesh(box_min, box_max, float(h_target), vertices,
                          elements, (nx, ny), h)


def build_face_table(mesh: BackgroundMesh) -> FaceTable:
    """Enumerate undirected faces and their incident elements.

    Faces are ordered deterministically by first appearance while walking
    elements in index order; the first incident element is the left one.
    """
    # edge k of element e is row 3e+k: (a,b), (b,c), (c,a)
    p = mesh.elements.ravel()
    q = mesh.elements[:, [1, 2, 0]].ravel()
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    _, first, inverse = np.unique(lo * mesh.dof_count + hi,
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    face_of = rank[inverse.ravel()]
    starts = first[order]
    right = np.full(order.size, -1, dtype=np.int64)
    # an edge row that is not its face's first belongs to the second element
    second = np.flatnonzero(starts[face_of] != np.arange(p.size))
    right[face_of[second]] = second // 3
    return FaceTable(np.column_stack([lo[starts], hi[starts]]), starts // 3,
                     right, face_of.reshape(-1, 3))


def element_areas(mesh: BackgroundMesh) -> np.ndarray:
    """Signed areas; positive for the ccw element orientation."""
    p = mesh.element_coords()
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def p1_gradients(mesh: BackgroundMesh) -> np.ndarray:
    """Constant gradients of the three hat functions per element, (n, 3, 2).

    grad[e, i] is the gradient on element e of the basis function that is 1
    at local vertex i and 0 at the other two.
    """
    p = mesh.element_coords()
    area2 = 2.0 * element_areas(mesh)
    grads = np.empty((mesh.n_elements, 3, 2))
    for i in range(3):
        opp1 = p[:, (i + 1) % 3]
        opp2 = p[:, (i + 2) % 3]
        # rotate the opposite edge by 90 degrees
        grads[:, i, 0] = opp1[:, 1] - opp2[:, 1]
        grads[:, i, 1] = opp2[:, 0] - opp1[:, 0]
    grads /= area2[:, None, None]
    return grads

