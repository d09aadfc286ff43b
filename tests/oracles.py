"""Reference computations that only the tests use."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutrom import AggregatedBasis, AssemblyContext, ParametricOperators, \
    assemble_operators
from cutrom.deim import DeimModel, PartialAssembler, build_reduced_mesh, \
    deim_select, spectral_norm, truncate_model
from cutrom.errors import NumericalError, PatternOverflowError
from cutrom.levelset import CUT, INSIDE, OUTSIDE, SNAP_REL, LevelSetSquare, \
    SubsetGeometry, _interpolant_gradients, _midpoint_rule, _segment_rule, \
    snap_values


def eval_levelset(ls: LevelSetSquare, point) -> float | np.ndarray:
    """Evaluate the level-set; negative inside, zero on the boundary."""
    out = ls(point)
    return float(out) if np.ndim(out) == 0 else out


def mesh_aligned_mus(mesh, lo=0.4, hi=0.5, center=(1.0, 1.0)) -> list:
    """The mu in [lo, hi] that put the square's left side (and, by the
    mesh's symmetry, the others) through mesh vertices."""
    return [float(mu) for mu in center[0] - np.unique(mesh.vertices[:, 0])
            if lo <= mu <= hi]


def reduced_snap_values(vals) -> np.ndarray:
    """``snap_values`` with the local scale as a reduction over the last
    axis."""
    vals = np.array(vals, dtype=float, copy=True)
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=-1, keepdims=True))
    vals[np.abs(vals) < SNAP_REL * scale] = 0.0
    return vals


def _tri_area(p0, p1, p2) -> float:
    return 0.5 * ((p1[0] - p0[0]) * (p2[1] - p0[1])
                  - (p2[0] - p0[0]) * (p1[1] - p0[1]))


def _clip_polygon(coords: np.ndarray, vals: np.ndarray):
    """Clip one triangle against the zero line of its linear interpolant.

    Handles all sign patterns including exact zeros, one vertex and one
    edge at a time.  Returns (sub_triangles, chord) where sub_triangles is
    a list of (3, 2) arrays covering the region {interpolant <= 0} and
    chord is the pair of zero-line endpoints, or None when the zero set is
    degenerate or the region empty.
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


def full_rows(basis: AggregatedBasis, V: np.ndarray) -> np.ndarray:
    """Basis columns extended by zero to all N DOFs."""
    out = np.zeros((basis.n, V.shape[1]))
    out[basis.dofs] = V
    return out


def reduced_blocks_from_exact(basis: AggregatedBasis,
                              ops: ParametricOperators):
    """Blocks of the reduced system with the hyper-reduction bypassed."""
    Vyp, Vu = full_rows(basis, basis.V_yp), full_rows(basis, basis.V_u)
    return (Vyp.T @ (ops.A @ Vyp),
            Vyp.T @ (ops.M @ Vyp),
            Vu.T @ (ops.M @ Vu),
            Vu.T @ (ops.M.T @ Vyp),
            Vyp.T @ ops.b,
            Vyp.T @ ops.c)


def direct_projection(basis: AggregatedBasis, ops: ParametricOperators,
                      alpha: float):
    """Project the assembled 3N x 3N system in one piece."""
    n = ops.A.shape[0]
    big = sp.bmat([[ops.M, None, ops.A.T],
                   [None, alpha * ops.M, -ops.M.T],
                   [ops.A, -ops.M, None]], format="csr")
    V = sp.block_diag([sp.csr_matrix(full_rows(basis, V_k))
                       for V_k in (basis.V_yp, basis.V_u, basis.V_yp)],
                      format="csr")
    K = (V.T @ (big @ V)).toarray()
    rhs = V.T @ np.concatenate([ops.b, np.zeros(n), ops.c])
    return K, rhs


def cost_value(ops: ParametricOperators, y: np.ndarray, u: np.ndarray,
               alpha: float) -> float:
    """Quadratic cost up to the constant ||y_d||^2 term.

    The constant does not affect comparisons between feasible candidates of
    the same parameter value.
    """
    return float(0.5 * y @ (ops.M @ y) - y @ ops.b
                 + 0.5 * alpha * u @ (ops.M @ u))


def bitwise_equal(a, b) -> bool:
    """Same shape and the same bits in every float64 entry."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def offsets_for(pattern, rows, cols) -> np.ndarray:
    """Pattern offsets of the given entries by binary search; raises on
    entries outside the pattern."""
    keys = np.asarray(rows, dtype=np.int64) * pattern.n \
        + np.asarray(cols, dtype=np.int64)
    off = np.searchsorted(pattern.keys, keys)
    bad = (off >= pattern.nnz) \
        | (pattern.keys[np.minimum(off, pattern.nnz - 1)] != keys)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise PatternOverflowError(
            f"entry ({int(rows[k])}, {int(cols[k])}) outside union pattern")
    return off


def coo_streams(ctx: AssemblyContext, sub, ghost_facets,
                need=frozenset(("A", "M", "b", "c"))):
    """COO contribution streams (rows, cols, values) of A and M, and b, c
    scattered with ``np.add.at``: assembly by explicit index arrays."""
    mesh, case = ctx.mesh, ctx.case
    n = mesh.dof_count
    ge = sub.elems
    dofs = mesh.elements[ge]
    grads = ctx.grads[ge]
    cent = ctx.centroids[ge]

    def block(d):
        s = d.shape[1]
        return np.repeat(d, s, axis=1).ravel(), np.tile(d, (1, s)).ravel()

    rows_a, cols_a, vals_a = [], [], []
    if "A" in need:
        diff = np.einsum("kid,kjd->kij", grads, grads) \
            * sub.clipped_area[:, None, None]
        r, c = block(dofs)
        rows_a, cols_a, vals_a = [r], [c], [diff.ravel()]

    rows_m = cols_m = np.zeros(0, dtype=np.int64)
    vals_m = np.zeros(0)
    b, c = np.zeros(n), np.zeros(n)
    if need & {"M", "b", "c"}:
        lam_i = (1.0 / 3.0) + np.einsum(
            "qid,qd->qi", grads[sub.iq_parent],
            sub.iq_points - cent[sub.iq_parent])
        wl = sub.iq_weights[:, None] * lam_i
        iq_dofs = dofs[sub.iq_parent]
        if "M" in need:
            rows_m, cols_m = block(iq_dofs)
            vals_m = np.einsum("qi,qj->qij", wl, lam_i).ravel()
        if "b" in need:
            np.add.at(b, iq_dofs, wl * case.y_d(sub.iq_points)[:, None])
        if "c" in need:
            np.add.at(c, iq_dofs, wl * case.f(sub.iq_points)[:, None])

    if sub.bq_weights.size and (
            "A" in need or ("c" in need and case.g_D is not None)):
        bp = sub.bq_parent
        gb = grads[bp]
        lam_b = (1.0 / 3.0) + np.einsum("qid,qd->qi", gb,
                                        sub.bq_points - cent[bp])
        dn = np.einsum("qid,qd->qi", gb, sub.bq_normals)
        gdh = case.gamma_D / ctx.h
        if "A" in need:
            w = sub.bq_weights[:, None, None]
            nitsche = w * (gdh * np.einsum("qi,qj->qij", lam_b, lam_b)
                           - np.einsum("qi,qj->qij", lam_b, dn)
                           - np.einsum("qi,qj->qij", dn, lam_b))
            r, cc = block(dofs[bp])
            rows_a.append(r)
            cols_a.append(cc)
            vals_a.append(nitsche.ravel())
        if "c" in need and case.g_D is not None:
            gd = case.g_D(sub.bq_points)
            np.add.at(c, dofs[bp],
                      (sub.bq_weights * gd)[:, None] * (gdh * lam_b + dn))

    if "A" in need and len(ghost_facets):
        facets = np.sort(np.asarray(ghost_facets, dtype=np.int64))
        r, cc = block(ctx.face_dofs6[facets])
        rows_a.append(r)
        cols_a.append(cc)
        vals_a.append(ctx.ghost_blocks(facets).ravel())

    cat = (lambda parts, dtype: np.concatenate(parts) if parts
           else np.zeros(0, dtype=dtype))
    return {"A": (cat(rows_a, np.int64), cat(cols_a, np.int64),
                  cat(vals_a, float)),
            "M": (rows_m, cols_m, vals_m), "b": b, "c": c}


def _segment_rule_loop(a, b):
    """2-point Gauss rule on segments a->b, one Gauss point at a time."""
    pts = np.empty((a.shape[0], 2, 2))
    gauss = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
    for k, t in enumerate(gauss):
        pts[:, k] = a + t * (b - a)
    return pts.reshape(-1, 2), np.repeat(0.5 * np.hypot(*(b - a).T), 2)


def reference_subset_geometry(mesh, ls, elems) -> SubsetGeometry:
    """``subset_geometry`` in an earlier form: INSIDE elements, cut elements
    without zero vertex values (corner, then the two quadrilateral halves,
    by sign case) and scalar-clipped ones built apart, then stably sorted
    by parent.  A zero vertex value counts as outside, and the scalar
    clipper keeps no sub-triangle of zero area and no chord of zero
    length."""
    elems = np.sort(np.asarray(elems, dtype=np.int64))
    coords = mesh.element_coords(elems)
    vals = snap_values(ls(coords.reshape(-1, 2)).reshape(-1, 3))
    nneg = (vals < 0.0).sum(axis=1)
    nzero = (vals == 0.0).sum(axis=1)
    cls = np.full(elems.shape[0], CUT, dtype=np.int8)
    cls[nneg == 3] = INSIDE
    cls[nneg == 0] = OUTSIDE
    clipped = np.zeros(elems.shape[0])
    iq, bq = [], []

    inside = np.flatnonzero(cls == INSIDE)
    tris = coords[inside]
    pts, w = _midpoint_rule(tris)
    iq.append((np.repeat(inside, 3), pts, w))
    d1 = tris[:, 1] - tris[:, 0]
    d2 = tris[:, 2] - tris[:, 0]
    clipped[inside] = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    generic = np.flatnonzero((cls == CUT) & (nzero == 0))
    gcoords, gvals = coords[generic], vals[generic]
    one_neg = nneg[generic] == 1
    ia = np.where(one_neg, np.argmax(gvals < 0.0, axis=1),
                  np.argmax(gvals > 0.0, axis=1))
    ib, ic = (ia + 1) % 3, (ia + 2) % 3
    rows = np.arange(generic.size)
    A, B, C = gcoords[rows, ia], gcoords[rows, ib], gcoords[rows, ic]
    fa, fb, fc = gvals[rows, ia], gvals[rows, ib], gvals[rows, ic]
    pab = A + (fa / (fa - fb))[:, None] * (B - A)
    pac = A + (fa / (fa - fc))[:, None] * (C - A)
    two = ~one_neg
    subs = np.concatenate([np.stack([A, pab, pac], axis=1)[one_neg],
                           np.stack([pab, B, C], axis=1)[two],
                           np.stack([pab, C, pac], axis=1)[two]])
    parents = np.concatenate([generic[one_neg], generic[two], generic[two]])
    order = np.argsort(parents, kind="stable")
    subs, parents = subs[order], parents[order]
    pts, w = _midpoint_rule(subs)
    iq.append((np.repeat(parents, 3), pts, w))
    clipped += np.bincount(
        parents, 0.5 * np.abs((subs[:, 1, 0] - subs[:, 0, 0])
                              * (subs[:, 2, 1] - subs[:, 0, 1])
                              - (subs[:, 2, 0] - subs[:, 0, 0])
                              * (subs[:, 1, 1] - subs[:, 0, 1])),
        minlength=clipped.size)
    spts, sw = _segment_rule_loop(pab, pac)
    grad = _interpolant_gradients(gcoords, gvals)
    nrm = grad / np.linalg.norm(grad, axis=1, keepdims=True)
    bq.append((np.repeat(generic, 2), spts, sw, np.repeat(nrm, 2, axis=0)))

    for li in np.flatnonzero((cls == CUT) & (nzero > 0)):
        subs, chord = _clip_polygon(coords[li], vals[li])
        tris = np.asarray([s for s in subs if abs(_tri_area(*s)) > 0.0])
        if tris.size:
            pts, w = _midpoint_rule(tris)
            iq.append((np.full(pts.shape[0], li), pts, w))
            clipped[li] = np.sum(w)
        if chord is not None and (vals[li] < 0.0).any():
            spts, sw = _segment_rule_loop(chord[0][None], chord[1][None])
            g = _interpolant_gradients(coords[li][None], vals[li][None])[0]
            bq.append((np.full(2, li), spts, sw,
                       np.tile(g / np.linalg.norm(g), (2, 1))))

    def by_parent(parts):
        cols = [np.concatenate(c) for c in zip(*parts)]
        order = np.argsort(cols[0], kind="stable")
        return [c[order] for c in cols]

    iq_parent, iq_points, iq_weights = by_parent(iq)
    bq_parent, bq_points, bq_weights, bq_normals = by_parent(bq)
    return SubsetGeometry(elems, cls, clipped, iq_parent, iq_points,
                          iq_weights, bq_parent, bq_points, bq_weights,
                          bq_normals)


def all_active_assemble(ctx: AssemblyContext, geom,
                        need=frozenset("AMbc")) -> dict:
    """Pattern values of A and M and the vectors b, c from one stream pass
    over the whole active set, with its quadrature built by clipping
    every active element."""
    sub = geom.active
    st = ctx.streams(sub, geom.ghost_facets, need)
    out = {comp: st.vector(comp) for comp in need & {"b", "c"}}
    if "A" in need:
        elem = ctx.elem_offsets["A"][sub.elems]
        ghost = ctx.ghost_offsets(geom.ghost_facets)
        offsets = np.concatenate([elem.ravel(), elem[sub.bq_parent].ravel(),
                                  ghost.ravel()])
        out["A"] = np.bincount(offsets, st.vals_a,
                               minlength=ctx.pattern_A.nnz)
    if "M" in need:
        elem = ctx.elem_offsets["M"][sub.elems]
        out["M"] = np.bincount(elem[sub.iq_parent].ravel(), st.vals_m,
                               minlength=ctx.pattern_M.nnz)
    return out


def coo_scatter(pattern, rows, cols, vals) -> np.ndarray:
    """Pattern values of a COO stream, searched and added one by one."""
    values = np.zeros(pattern.nnz)
    np.add.at(values, offsets_for(pattern, rows, cols), vals)
    return values


def coo_assemble(ctx: AssemblyContext, geom, need=frozenset("AMbc")):
    """Pattern values of A and M and the vectors b, c of a full pass."""
    st = coo_streams(ctx, geom.active, geom.ghost_facets, need)
    out = {"b": st["b"], "c": st["c"]}
    if "A" in need:
        out["A"] = coo_scatter(ctx.pattern_A, *st["A"])
    if "M" in need:
        out["M"] = coo_scatter(ctx.pattern_M, *st["M"])
    return out


def bmat_condensed(ops: ParametricOperators, alpha: float) -> sp.csc_matrix:
    """Real condensed system [[M_aa, A_aa^T], [A_aa, -M_aa/alpha]] of
    2 n_active rows from sliced submatrices and a block matrix."""
    active = ops.active_dofs
    M_aa = ops.M[active][:, active]
    A_aa = ops.A[active][:, active]
    return sp.bmat([[M_aa, A_aa.T], [A_aa, -M_aa / alpha]], format="csc")


def real_condensed_solve(ops: ParametricOperators, alpha: float):
    """(y, u, p) from a sparse LU of the real condensed system; every
    component outside the active mesh is 0."""
    active, n = ops.active_dofs, ops.A.shape[0]
    rhs = np.concatenate([ops.b[active], ops.c[active]])
    x = spla.splu(bmat_condensed(ops, alpha)).solve(rhs)
    y, u, p = np.zeros(n), np.zeros(n), np.zeros(n)
    y[active] = x[:active.size]
    p[active] = x[active.size:]
    u[active] = p[active] / alpha
    return y, u, p


def sliced_condensed(ops: ParametricOperators, alpha: float) -> sp.csc_matrix:
    """Complex condensed system M_aa + i sqrt(alpha) A_aa from sliced
    submatrices, explicit zeros kept."""
    active = ops.active_dofs
    M_aa = ops.M[active][:, active].tocoo()
    A_aa = ops.A[active][:, active].tocoo()
    data = np.concatenate([M_aa.data.astype(complex),
                           1j * np.sqrt(alpha) * A_aa.data])
    return sp.csc_matrix(
        (data, (np.concatenate([M_aa.row, A_aa.row]),
                np.concatenate([M_aa.col, A_aa.col]))), shape=M_aa.shape)


def vertex_to_elements(mesh) -> tuple[np.ndarray, np.ndarray]:
    """CSR-style adjacency: elements incident to each vertex.

    Returns (indptr, elems) so that elems[indptr[v]:indptr[v+1]] lists the
    elements containing vertex v, in ascending order.
    """
    flat = mesh.elements.ravel()
    order = np.argsort(flat, kind="stable")
    elems = order // 3
    counts = np.bincount(flat, minlength=mesh.dof_count)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return indptr.astype(np.int64), elems.astype(np.int64)


def pair_reduced_mesh(pairs: np.ndarray, ctx: AssemblyContext,
                      component: str):
    """``build_reduced_mesh`` from the DOF pairs of the selected entries
    (DOFs for b and c), one pair at a time through the vertex-to-element
    adjacency.

    An element joins when its DOF set contains both indices of a pair.  A
    stiffness pair coupled only through a gradient-jump facet pulls in that
    facet with both its neighbors, and every potential ghost facet of an
    included element (one with a side in ``ctx.cut_candidate``) is
    recorded with its across-facet neighbor.
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


def offset_pairs(ctx: AssemblyContext, component: str, offsets):
    """DOF pairs of pattern offsets of A or M; the DOFs for b and c."""
    pattern = ctx.patterns[component]
    if pattern is None:
        return np.asarray(offsets)
    return np.column_stack([pattern.rows[offsets], pattern.cols[offsets]])


def reselect_deim_model(model: DeimModel, m: int,
                        ctx: AssemblyContext) -> DeimModel:
    """``truncate_model`` by selecting again: the greedy run on the first m
    modes, the oblique projector solved from those modes at its indices,
    and the reduced mesh of those indices."""
    U = model.U[:, :m]
    local = deim_select(U)
    B = U[local, :local.size]
    projector = np.ascontiguousarray(
        np.linalg.solve(B.T, U[:, :local.size].T).T)
    indices = ctx.kept[model.component][local]
    elements, facets = build_reduced_mesh(indices, ctx, model.component)
    return DeimModel(model.component, U[:, :local.size].copy(), indices,
                     projector, elements, facets, model.eigenvalues)


def projector_apply(asm: PartialAssembler, theta) -> np.ndarray:
    """Full pattern values (or DOF vector) interpolated from the theta of a
    one-model assembler."""
    (model,) = asm.models
    return asm.ctx.expand(model.component, model.projector @ theta)


def report_deim_errors(bundle, mus, deim_dims=None):
    """The DEIM errors of ``run_online`` through each truncated model's own
    theta (its columns of the bundle's table, or its ``PartialAssembler``
    next to a breakpoint) and ``interpolate``, per component and
    dimension: the ``deim_err_*`` columns (a list per component) and the
    ``deim_errors.csv`` rows.  The row of the ROM's own dimension is the
    mean of its column."""
    from cutrom.pipeline import COMPONENTS, DEIM_SWEEP

    ctx, dims = bundle.ctx, deim_dims or {}
    ops = [assemble_operators(ctx, float(mu)) for mu in mus]
    start = dict(zip(COMPONENTS, np.cumsum(
        [0] + [bundle.deim_models[c].m for c in COMPONENTS])))

    def errors(model):
        table = bundle.rom.table.columns(start[model.component]
                                         + np.arange(model.m))
        errs = []
        for mu, o in zip(mus, ops):
            exact = {"A": o.A, "M": o.M, "b": o.b, "c": o.c}[model.component]
            theta = table(float(mu))
            if theta is None:
                theta = PartialAssembler(model, ctx).theta(float(mu))
            diff = model.interpolate(theta, ctx) - exact
            if model.component in ("A", "M"):
                errs.append(spectral_norm(diff) / spectral_norm(exact))
            else:
                errs.append(float(np.linalg.norm(diff))
                            / float(np.linalg.norm(exact)))
        return errs

    columns, rows = {}, []
    for comp, model in bundle.deim_models.items():
        own = truncate_model(model, dims[comp], ctx) if comp in dims \
            else model
        columns[comp] = errors(own)
        for m in DEIM_SWEEP:
            if m <= model.m:
                errs = columns[comp] if m == own.m \
                    else errors(truncate_model(model, m, ctx))
                rows.append((comp, m, float(np.mean(errs))))
    return columns, rows


def reference_rom_solve(model, mu: float):
    """``rom_solve`` through ``np.split``, ``np.tensordot`` and
    ``scipy.linalg.lu_factor``/``lu_solve``, with the same pivot check and
    deflated retry: the reduced coefficients, the lifted fields, the pivot
    ratio and the number of dropped directions."""
    import warnings

    import scipy.linalg as sla

    from cutrom.rom import PIVOT_TOL, assemble_reduced_system

    theta = model.table(mu)
    if theta is None:
        theta = model.assembler.theta(mu)
    th_A, th_M, th_b, th_c = np.split(
        theta, np.cumsum([model.deim[c].m for c in "AMb"]))
    K, rhs = assemble_reduced_system(
        np.tensordot(th_A, model.A_terms, axes=1),
        np.tensordot(th_M, model.M_yp_terms, axes=1),
        np.tensordot(th_M, model.M_u_terms, axes=1),
        np.tensordot(th_M, model.M_uyp_terms, axes=1),
        th_b @ model.b_terms, th_c @ model.c_terms, model.alpha)

    def dense_solve(K, rhs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(K)
        diag = np.abs(np.diag(lu))
        scale = diag.max()
        if scale == 0.0 or diag.min() <= PIVOT_TOL * scale:
            raise NumericalError(f"singular reduced system at mu={mu}")
        return sla.lu_solve((lu, piv), rhs), float(diag.min() / scale)

    try:
        x, ratio = dense_solve(K, rhs)
        dropped = 0
    except NumericalError:
        keep = []
        for terms in (model.M_yp_terms, model.M_u_terms):
            lam, Q = np.linalg.eigh(np.tensordot(th_M, terms, axes=1))
            noise = (th_M.size + lam.size) * np.finfo(float).eps \
                * (np.abs(th_M) @ np.linalg.norm(terms, axis=(1, 2)))
            keep.append(Q[:, lam > noise])
        T = sla.block_diag(keep[0], keep[1], keep[0])
        x, ratio = dense_solve(T.T @ K @ T, T.T @ rhs)
        x, dropped = T @ x, K.shape[0] - T.shape[1]
    y_N, u_N, p_N = model.basis.split(x)
    return (y_N, u_N, p_N, *model.basis.lift(y_N, u_N, p_N), ratio, dropped)
