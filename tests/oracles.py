"""Reference computations that only the tests use."""

import numpy as np
import scipy.sparse as sp

from cutrom import AggregatedBasis, AssemblyContext, ParametricOperators
from cutrom.errors import PatternOverflowError


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
        vals_a.append(ctx.ghost_blocks[facets].ravel())

    cat = (lambda parts, dtype: np.concatenate(parts) if parts
           else np.zeros(0, dtype=dtype))
    return {"A": (cat(rows_a, np.int64), cat(cols_a, np.int64),
                  cat(vals_a, float)),
            "M": (rows_m, cols_m, vals_m), "b": b, "c": c}


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
    """Condensed system [[M_aa, A_aa^T], [A_aa, -M_aa/alpha]] from sliced
    submatrices and a block matrix."""
    active = ops.active_dofs
    M_aa = ops.M[active][:, active]
    A_aa = ops.A[active][:, active]
    return sp.bmat([[M_aa, A_aa.T], [A_aa, -M_aa / alpha]], format="csc")
