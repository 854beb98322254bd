"""Exact operators on tensor powers of the tautological module over F_p.

The basis of the D-fold tensor power of an n-dimensional space is the
lexicographically ordered list of index tuples, so every matrix built here
is reproducible bit for bit. Entries live in [0, p). Operators are built by
index arithmetic on the basis tuples, and a matrix unit applied on the left
is a row gather, since at one slot it is an injective partial map.

Every X_i and T_i is a sum of slot permutations, so it preserves the weight
spaces: the sets of basis tuples with the same multiset of entries. The
relation suite and the eigenspace dimensions therefore work block by block,
on the connected components of the operators' joint support
(support_blocks), which for these operators are exactly the weight spaces.
Block products go through float64 BLAS, exact because every accumulated
value is an integer below 2^53 (checked), and are reduced mod p afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import InputError, VerificationError
from .weights import (
    add_box,
    addable_boxes,
    normalize_partition,
    partitions_of,
    require_prime,
)
from .characters import dimension, weyl_character


@dataclass(frozen=True)
class TensorSpace:
    """The D-fold tensor power of F^n with its fixed lexicographic basis."""
    n: int
    factors: int

    def __post_init__(self):
        if self.n < 1 or self.factors < 0:
            raise InputError(f"bad tensor space ({self.n}, {self.factors})")

    @property
    def dim(self) -> int:
        return self.n ** self.factors

    def tuple_of(self, idx: int) -> tuple[int, ...]:
        """Basis tuple (0-based entries) at a lexicographic position."""
        digits = []
        for _ in range(self.factors):
            idx, r = divmod(idx, self.n)
            digits.append(r)
        return tuple(reversed(digits))

    def index_of(self, t) -> int:
        idx = 0
        for d in t:
            idx = idx * self.n + d
        return idx


def _require_p3(p):
    require_prime(p)
    if p < 3:
        raise InputError("operators on tensor powers need p >= 3")
    return p


def mat_eye(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.int64)


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product mod p of two matrices."""
    # float64 BLAS is exact as long as every accumulated value stays below
    # 2^53; entries are < p, so the inner dimension bounds the products
    if a.shape[1] * (p - 1) ** 2 >= 2 ** 53:
        raise InputError(f"matrix product of inner dimension {a.shape[1]} "
                         f"mod {p} would overflow exact float64 accumulation")
    c = np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return c % p


def mat_pow(m: np.ndarray, k: int, p: int) -> np.ndarray:
    result = mat_eye(m.shape[0])
    base = np.asarray(m, dtype=np.int64) % p
    while k:
        if k & 1:
            result = mat_mul(result, base, p)
        base = mat_mul(base, base, p)
        k >>= 1
    return result


def support_blocks(mats) -> list[np.ndarray]:
    """Connected components of the union of the supports of square matrices
    of one size, each a sorted index array, in order of their first index.

    Every matrix of the list is block diagonal in these blocks, whatever its
    entries. For the operators on a tensor power they are the weight spaces
    (basis tuples with the same multiset of entries), since every X_i and
    T_i is a sum of slot permutations."""
    mats = [np.asarray(m) for m in mats]
    dim = mats[0].shape[0]
    adj = np.zeros((dim, dim), dtype=bool)
    for m in mats:
        adj |= m != 0
    adj |= adj.T
    seen = np.zeros(dim, dtype=bool)
    blocks = []
    for start in range(dim):
        if seen[start]:
            continue
        frontier = np.zeros(dim, dtype=bool)
        frontier[start] = True
        comp = frontier.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~comp
            comp |= frontier
        seen |= comp
        blocks.append(np.flatnonzero(comp))
    return blocks


# Blocks are multiplied in groups of up to this total size, since one
# product per group costs less than one per block below it. Relation suites
# with one OpenBLAS thread on a 2-vCPU VM: dim 16 took 0.3 ms as one group
# against 0.8 ms in 5 blocks; dim 256 took 6.1 ms in 10 groups against
# 11.3 ms in 35 blocks, and 7.9 and 7.2 ms with group sizes 16 and 64.
_GROUP_SIZE = 32


def _block_groups(blocks) -> list[np.ndarray]:
    """Unions of blocks, taken in order of size, of total size at most
    _GROUP_SIZE or a single larger block; every matrix that is block
    diagonal in the blocks is block diagonal in the groups."""
    groups, current = [], []
    for blk in sorted(blocks, key=len):
        if current and sum(map(len, current)) + blk.size > _GROUP_SIZE:
            groups.append(np.concatenate(current))
            current = []
        current.append(blk)
    groups.append(np.concatenate(current))
    return groups


def _check_factors(factors, space, allow_empty=False):
    factors = sorted(set(factors))
    if not factors and not allow_empty:
        raise InputError("factor set must be nonempty")
    if factors and (factors[0] < 1 or factors[-1] > space.factors):
        raise InputError(f"slots {factors} out of range 1..{space.factors}")
    return factors


def _stride(a: int, space: TensorSpace) -> int:
    """Index step of changing the entry at 1-based slot a by one."""
    return space.n ** (space.factors - a)


def _slot_entries(a: int, space: TensorSpace) -> np.ndarray:
    """The (0-based) entry at slot a of every basis tuple, in basis order."""
    return np.arange(space.dim) // _stride(a, space) % space.n


def matrix_unit_action(i: int, j: int, factors, space: TensorSpace, p: int) -> np.ndarray:
    """Sum over the given 1-based slots of the matrix unit E_ij applied at
    that slot, identity elsewhere."""
    require_prime(p)
    if not (1 <= i <= space.n and 1 <= j <= space.n):
        raise InputError(f"matrix unit indices ({i},{j}) out of range 1..{space.n}")
    factors = _check_factors(factors, space)
    m = np.zeros((space.dim, space.dim), dtype=np.int64)
    for a in factors:
        cols = np.flatnonzero(_slot_entries(a, space) == j - 1)
        m[cols + (i - j) * _stride(a, space), cols] += 1
    if len(factors) >= p:  # an entry counts slots, so is below p otherwise
        m %= p
    return m


def _add_left_unit(out, i: int, j: int, factors, space: TensorSpace, m) -> None:
    """out += (E_ij spread over the slots) @ m, by row gathers: at one slot
    E_ij is an injective partial map on basis tuples, sending the tuple with
    j at that slot to the one with i there."""
    for a in factors:
        rows = np.flatnonzero(_slot_entries(a, space) == i - 1)
        out[rows] += m[rows + (j - i) * _stride(a, space)]


def casimir(factors, space: TensorSpace, p: int) -> np.ndarray:
    """The quadratic Casimir sum of E_ij E_ji acting on the given slots
    through the Leibniz rule; the empty slot set gives the zero matrix."""
    _require_p3(p)
    factors = _check_factors(factors, space, allow_empty=True)
    dim = space.dim
    m = np.zeros((dim, dim), dtype=np.int64)
    if not factors:
        return m
    for i in range(1, space.n + 1):
        for j in range(1, space.n + 1):
            _add_left_unit(m, i, j, factors, space,
                           matrix_unit_action(j, i, factors, space, p))
    return m % p


def casimir_normal_ordered(factors, space: TensorSpace, p: int) -> np.ndarray:
    """The rewritten Casimir 2*sum_{i>j} E_ij E_ji + sum_i E_ii (E_ii + n+1-2i);
    must agree with casimir() as a matrix."""
    _require_p3(p)
    factors = _check_factors(factors, space, allow_empty=True)
    dim = space.dim
    m = np.zeros((dim, dim), dtype=np.int64)
    if not factors:
        return m
    n = space.n
    for i in range(1, n + 1):
        for j in range(1, i):
            _add_left_unit(m, i, j, factors, space,
                           2 * matrix_unit_action(j, i, factors, space, p))
    for i in range(1, n + 1):
        eii = matrix_unit_action(i, i, factors, space, p)
        _add_left_unit(m, i, i, factors, space, eii + (n + 1 - 2 * i) * mat_eye(dim))
    return m % p


def tensor_casimir(a: int, factors, space: TensorSpace, p: int) -> np.ndarray:
    """Sum over i,j of E_ij at slot a composed with E_ji spread over the
    given slots; the slot a must not occur among them."""
    _require_p3(p)
    factors = _check_factors(factors, space, allow_empty=True)
    if not (1 <= a <= space.factors):
        raise InputError(f"slot {a} out of range 1..{space.factors}")
    if a in factors:
        raise InputError(f"slot {a} overlaps the factor set {factors}")
    dim = space.dim
    m = np.zeros((dim, dim), dtype=np.int64)
    if not factors:
        return m
    for i in range(1, space.n + 1):
        for j in range(1, space.n + 1):
            _add_left_unit(m, i, j, [a], space,
                           matrix_unit_action(j, i, factors, space, p))
    return m % p


def swap_slots(a: int, b: int, space: TensorSpace, p: int) -> np.ndarray:
    """Permutation matrix exchanging two tensor slots."""
    require_prime(p)
    _check_factors([a, b], space)
    cols = np.arange(space.dim)
    shift = ((_slot_entries(b, space) - _slot_entries(a, space))
             * (_stride(a, space) - _stride(b, space)))
    m = np.zeros((space.dim, space.dim), dtype=np.int64)
    m[cols + shift, cols] = 1
    return m


def build_Xi(i: int, N: int, d: int, n: int, p: int) -> np.ndarray:
    """The i-th polynomial generator on the N+d slot space: the tensor
    Casimir at slot N-i+1 paired with every slot to its right (the module
    occupies the last d slots)."""
    if not 1 <= i <= N:
        raise InputError(f"index {i} out of range 1..{N}")
    space = TensorSpace(n, N + d)
    a = N - i + 1
    return tensor_casimir(a, range(a + 1, N + d + 1), space, p)


def build_Ti(i: int, N: int, d: int, n: int, p: int) -> np.ndarray:
    """The i-th swap generator: exchange slots N-i and N-i+1."""
    if not 1 <= i <= N - 1:
        raise InputError(f"index {i} out of range 1..{N - 1}")
    _require_p3(p)
    return swap_slots(N - i, N - i + 1, TensorSpace(n, N + d), p)


def verify_hecke_relations(n: int, N: int, d: int, p: int,
                           xs=None, ts=None) -> list[str]:
    """Check all six defining relation families as exact matrix identities
    over F_p; return the list of violations (empty on success). xs and ts
    may be supplied to test the checker itself against corrupted operators.

    All operators are block diagonal in the components of their joint
    support (support_blocks: the weight spaces, for the real operators), so
    the families are checked on the diagonal blocks, merged into groups of
    up to _GROUP_SIZE, and a relation is reported when it fails on any
    group."""
    _require_p3(p)
    if N < 1 or d < 0:
        raise InputError(f"bad shape N={N}, d={d}")
    if xs is None:
        xs = [build_Xi(i, N, d, n, p) for i in range(1, N + 1)]
    if ts is None:
        ts = [build_Ti(i, N, d, n, p) for i in range(1, N)]
    groups = _block_groups(support_blocks(list(xs) + list(ts)))

    def diagonal(m):
        return [m[np.ix_(g, g)] for g in groups]

    xs = [diagonal(m) for m in xs]
    ts = [diagonal(m) for m in ts]
    eye = [mat_eye(g.size) for g in groups]
    report = []

    def x(i):
        return xs[i - 1]

    def t(i):
        return ts[i - 1]

    def mul(a, b):
        return [mat_mul(u, v, p) for u, v in zip(a, b)]

    def equal(a, b):
        return all(map(np.array_equal, a, b))

    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            if not equal(mul(x(i), x(j)), mul(x(j), x(i))):
                report.append(f"X{i} X{j} != X{j} X{i}")
    for i in range(1, N):
        if not equal(mul(t(i), t(i)), eye):
            report.append(f"T{i}^2 != 1")
    for i in range(1, N):
        for j in range(i + 2, N):
            if not equal(mul(t(i), t(j)), mul(t(j), t(i))):
                report.append(f"T{i} T{j} != T{j} T{i}")
    for i in range(1, N - 1):
        lhs = mul(mul(t(i), t(i + 1)), t(i))
        rhs = mul(mul(t(i + 1), t(i)), t(i + 1))
        if not equal(lhs, rhs):
            report.append(f"T{i} T{i+1} T{i} != T{i+1} T{i} T{i+1}")
    for i in range(1, N):
        lhs = [(u - v) % p for u, v in zip(mul(t(i), x(i + 1)), mul(x(i), t(i)))]
        if not equal(lhs, eye):
            report.append(f"T{i} X{i+1} - X{i} T{i} != 1")
    for i in range(1, N):
        for j in range(1, N + 1):
            if j - i in (0, 1):
                continue
            if not equal(mul(t(i), x(j)), mul(x(j), t(i))):
                report.append(f"T{i} X{j} != X{j} T{i}")
    return report


def verify_flip_identity(n: int, p: int) -> bool:
    """The tensor Casimir on two bare slots equals the slot swap."""
    space = TensorSpace(n, 2)
    return np.array_equal(tensor_casimir(1, [2], space, p),
                          swap_slots(1, 2, space, p))


def verify_casimir_coproduct(a: int, factors, space: TensorSpace, p: int) -> bool:
    """Casimir of the union minus the two parts equals twice the tensor
    Casimir pairing slot a with the factor set."""
    factors = _check_factors(factors, space, allow_empty=True)
    lhs = (casimir([a] + factors, space, p)
           - casimir([a], space, p)
           - casimir(factors, space, p)) % p
    return np.array_equal(lhs, (2 * tensor_casimir(a, factors, space, p)) % p)


# ---------------------------------------------------------------------------
# generalized eigenspaces against the combinatorial prediction

def rank_mod_p(m: np.ndarray, p: int) -> int:
    """Row-reduction rank over F_p (deterministic pivoting). Entries are
    int64 while (p-1)^2 fits, Python integers beyond."""
    require_prime(p)
    a = np.array(m, dtype=np.int64 if (p - 1) ** 2 < 2 ** 63 else object) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = None
        for rr in range(r, rows):
            if a[rr, c]:
                piv = rr
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        below = np.nonzero(a[r + 1:, c])[0]
        if below.size:
            idx = below + r + 1
            a[idx] = (a[idx] - np.outer(a[idx, c], a[r])) % p
        r += 1
        if r == rows:
            break
    return r


# Eigenspace dimensions are listed for every residue mod p, so memory grows
# linearly with p: at p = 1000003, eigendims on the 1-square tower took 1.7 s
# and 214 MB peak RSS as text, 3.3 s and 456 MB as JSON (about 400 bytes per
# residue). The bound keeps a listing within about half a GB; a 64-bit prime
# would otherwise exhaust memory.
_MAX_LISTED_P = 10 ** 6


def _require_listable_p(p):
    require_prime(p)
    if p > _MAX_LISTED_P:
        raise InputError(f"eigenspace dimensions are listed for every residue "
                         f"mod p, so p must be at most {_MAX_LISTED_P}, got {p}")
    return p


def generalized_eigenspaces(m: np.ndarray, p: int) -> dict[int, int]:
    """Dimension of the generalized a-eigenspace of m for every a in F_p,
    summed over the blocks of support_blocks([m]).

    Raises VerificationError when the dimensions do not exhaust the space,
    which would mean an eigenvalue outside the prime field."""
    _require_listable_p(p)
    m = np.asarray(m, dtype=np.int64) % p
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"matrix must be square, got shape {m.shape}")
    dim = m.shape[0]
    out = dict.fromkeys(range(p), 0)
    for blk in support_blocks([m]):
        sub = m[np.ix_(blk, blk)]
        found = 0
        for a in range(p):
            if found == blk.size:  # eigenspaces of distinct a are independent
                break
            # (sub - a)^size has the generalized a-eigenspace as its kernel
            pw = mat_pow((sub - a * mat_eye(blk.size)) % p, blk.size, p)
            k = blk.size - rank_mod_p(pw, p)
            out[a] += k
            found += k
    if sum(out.values()) != dim:
        raise VerificationError(
            f"generalized eigenspace dimensions sum to {sum(out.values())}, "
            f"expected {dim}: spectrum not inside F_{p}")
    return out


def syt_count(shape) -> int:
    """Number of standard tableaux of the shape, by the hook length product."""
    shape = normalize_partition(shape)
    if not shape:
        return 1
    conj = [sum(1 for part in shape if part > c) for c in range(shape[0])]
    denom = 1
    for r, width in enumerate(shape):
        for c in range(width):
            denom *= (width - c) + (conj[c] - r) - 1
    return factorial(sum(shape)) // denom


def predicted_F_alpha_dims(n: int, d: int, p: int) -> dict[int, int]:
    """Combinatorial prediction for the residue blocks of the tensor-with-V
    operator on V tensor V^(tensor d): sum over partitions of d with at most
    n rows of (standard tableau count) times (tableau dimension of the grown
    shape), keyed by the added box residue."""
    _require_listable_p(p)
    out = {a: 0 for a in range(p)}
    for lam in partitions_of(d, max_rows=n):
        f_lam = syt_count(lam)
        for row, col in addable_boxes(lam, max_rows=n):
            mu = add_box(lam, (row, col))
            padded = mu + (0,) * (n - len(mu))
            out[(col - row) % p] += f_lam * dimension(weyl_character(padded, n))
    return out


def x_on_module_tower(n: int, d: int, p: int) -> np.ndarray:
    """The tensor Casimir pairing one new V slot with a d-fold tensor power
    of V: the operator whose residue blocks predicted_F_alpha_dims predicts."""
    return build_Xi(1, 1, d, n, p)


def matrix_to_json_obj(m: np.ndarray, p: int) -> dict:
    m = np.asarray(m, dtype=np.int64) % p
    return {"p": p, "dims": list(m.shape), "entries": [int(x) for x in m.ravel()]}
