"""Reference computations that only the tests use."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutrom import AggregatedBasis, AssemblyContext, ParametricOperators
from cutrom.errors import PatternOverflowError
from cutrom.levelset import CUT, INSIDE, OUTSIDE, SNAP_REL, LevelSetSquare, \
    SubsetGeometry, _clip_polygon, _interpolant_gradients, _midpoint_rule, \
    _segment_rule, _tri_area, snap_values


def eval_levelset(ls: LevelSetSquare, point) -> float | np.ndarray:
    """Evaluate the level-set; negative inside, zero on the boundary."""
    out = ls(point)
    return float(out) if np.ndim(out) == 0 else out


def reduced_snap_values(vals) -> np.ndarray:
    """``snap_values`` with the local scale as a reduction over the last
    axis."""
    vals = np.array(vals, dtype=float, copy=True)
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=-1, keepdims=True))
    vals[np.abs(vals) < SNAP_REL * scale] = 0.0
    return vals


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
    """``subset_geometry`` in its earlier form: INSIDE elements, generic cut
    elements (corner, then the two quadrilateral halves, by sign case) and
    scalar-clipped ones built apart, then stably sorted by parent."""
    elems = np.sort(np.asarray(elems, dtype=np.int64))
    coords = mesh.element_coords(elems)
    vals = snap_values(ls(coords.reshape(-1, 2)).reshape(-1, 3))
    nneg = (vals < 0.0).sum(axis=1)
    nzero = (vals == 0.0).sum(axis=1)
    cls = np.full(elems.shape[0], CUT, dtype=np.int8)
    cls[nneg == 3] = INSIDE
    cls[(vals > 0.0).sum(axis=1) == 3] = OUTSIDE
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
    """(y, u, p) from a sparse LU of the real condensed system; free
    controls and every component outside the active mesh are 0."""
    active, n = ops.active_dofs, ops.A.shape[0]
    rhs = np.concatenate([ops.b[active], ops.c[active]])
    x = spla.splu(bmat_condensed(ops, alpha)).solve(rhs)
    y, u, p = np.zeros(n), np.zeros(n), np.zeros(n)
    y[active] = x[:active.size]
    p[active] = x[active.size:]
    u[active] = p[active] / alpha
    u[active[ops.M.diagonal()[active] == 0.0]] = 0.0
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
