"""Dense reference routes for the Hecke layer, used only as test oracles.

These are the straightforward versions of what modrep.hecke computes by
index arithmetic and weight blocks: operators built by looping over the basis,
every product taken on full matrices, and generalized eigenspaces as kernels
of (m - a)^dim. They cost O(dim^3) per product; keep them to dim <= 256.
"""

import numpy as np

from modrep import VerificationError, rank_mod_p
from modrep.hecke import mat_eye, mat_mul, mat_pow


def loop_matrix_unit_action(i, j, factors, space, p):
    dim = space.dim
    m = np.zeros((dim, dim), dtype=np.int64)
    for col in range(dim):
        t = space.tuple_of(col)
        for a in factors:
            if t[a - 1] == j - 1:
                row = space.index_of(t[:a - 1] + (i - 1,) + t[a:])
                m[row, col] += 1
    return m % p


def loop_swap_slots(a, b, space):
    dim = space.dim
    m = np.zeros((dim, dim), dtype=np.int64)
    for col in range(dim):
        t = list(space.tuple_of(col))
        t[a - 1], t[b - 1] = t[b - 1], t[a - 1]
        m[space.index_of(tuple(t)), col] = 1
    return m


def dense_casimir(factors, space, p):
    factors = sorted(set(factors))
    m = np.zeros((space.dim, space.dim), dtype=np.int64)
    for i in range(1, space.n + 1) if factors else ():
        for j in range(1, space.n + 1):
            m = (m + mat_mul(loop_matrix_unit_action(i, j, factors, space, p),
                             loop_matrix_unit_action(j, i, factors, space, p), p)) % p
    return m


def dense_tensor_casimir(a, factors, space, p):
    factors = sorted(set(factors))
    m = np.zeros((space.dim, space.dim), dtype=np.int64)
    for i in range(1, space.n + 1) if factors else ():
        for j in range(1, space.n + 1):
            m = (m + mat_mul(loop_matrix_unit_action(i, j, [a], space, p),
                             loop_matrix_unit_action(j, i, factors, space, p), p)) % p
    return m


def dense_eigenspaces(m, p):
    """Kernel dimension of (m - a)^dim for every a in F_p."""
    m = np.asarray(m, dtype=np.int64) % p
    dim = m.shape[0]
    out = {a: dim - rank_mod_p(mat_pow((m - a * mat_eye(dim)) % p, dim, p), p)
           for a in range(p)}
    if sum(out.values()) != dim:
        raise VerificationError("spectrum not inside F_p")
    return out


def dense_hecke_report(xs, ts, p):
    """The six relation families checked on full matrices, in report order."""
    N = len(xs)
    eye = mat_eye(xs[0].shape[0])
    report = []

    def x(i):
        return xs[i - 1]

    def t(i):
        return ts[i - 1]

    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            if not np.array_equal(mat_mul(x(i), x(j), p), mat_mul(x(j), x(i), p)):
                report.append(f"X{i} X{j} != X{j} X{i}")
    for i in range(1, N):
        if not np.array_equal(mat_mul(t(i), t(i), p), eye):
            report.append(f"T{i}^2 != 1")
    for i in range(1, N):
        for j in range(i + 2, N):
            if not np.array_equal(mat_mul(t(i), t(j), p), mat_mul(t(j), t(i), p)):
                report.append(f"T{i} T{j} != T{j} T{i}")
    for i in range(1, N - 1):
        lhs = mat_mul(mat_mul(t(i), t(i + 1), p), t(i), p)
        rhs = mat_mul(mat_mul(t(i + 1), t(i), p), t(i + 1), p)
        if not np.array_equal(lhs, rhs):
            report.append(f"T{i} T{i+1} T{i} != T{i+1} T{i} T{i+1}")
    for i in range(1, N):
        lhs = (mat_mul(t(i), x(i + 1), p) - mat_mul(x(i), t(i), p)) % p
        if not np.array_equal(lhs, eye):
            report.append(f"T{i} X{i+1} - X{i} T{i} != 1")
    for i in range(1, N):
        for j in range(1, N + 1):
            if j - i in (0, 1):
                continue
            if not np.array_equal(mat_mul(t(i), x(j), p), mat_mul(x(j), t(i), p)):
                report.append(f"T{i} X{j} != X{j} T{i}")
    return report
