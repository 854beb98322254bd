import random
from math import comb, factorial

import numpy as np
import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from modrep import (
    InputError,
    TensorSpace,
    VerificationError,
    build_Ti,
    build_Xi,
    casimir,
    casimir_normal_ordered,
    generalized_eigenspaces,
    matrix_to_json_obj,
    matrix_unit_action,
    predicted_F_alpha_dims,
    rank_mod_p,
    swap_slots,
    syt_count,
    tensor_casimir,
    verify_casimir_coproduct,
    verify_flip_identity,
    verify_hecke_relations,
    x_on_module_tower,
)
from modrep import hecke
from modrep.hecke import _block_groups, mat_eye, mat_mul, mat_pow, support_blocks


def test_tensor_space_basis_order():
    space = TensorSpace(3, 2)
    assert space.dim == 9
    assert space.tuple_of(0) == (0, 0)
    assert space.tuple_of(5) == (1, 2)
    for idx in range(space.dim):
        assert space.index_of(space.tuple_of(idx)) == idx


def test_matrix_unit_on_single_factor():
    space = TensorSpace(2, 1)
    e12 = matrix_unit_action(1, 2, [1], space, 3)
    assert e12.tolist() == [[0, 1], [0, 0]]  # sends v_2 to v_1
    e11 = matrix_unit_action(1, 1, [1], space, 3)
    assert e11.tolist() == [[1, 0], [0, 0]]


def test_matrix_unit_diagonal_marks_tuples():
    space = TensorSpace(2, 2)
    m = matrix_unit_action(1, 1, [2], space, 5)
    diag = [m[k, k] for k in range(space.dim)]
    assert diag == [1 if space.tuple_of(k)[1] == 0 else 0 for k in range(space.dim)]
    assert np.count_nonzero(m - np.diag(diag)) == 0


def test_matrix_unit_leibniz():
    space = TensorSpace(2, 3)
    both = matrix_unit_action(1, 2, [1, 2], space, 5)
    assert np.array_equal(
        both, (matrix_unit_action(1, 2, [1], space, 5)
               + matrix_unit_action(1, 2, [2], space, 5)) % 5)


def test_matrix_unit_validation():
    space = TensorSpace(2, 2)
    with pytest.raises(InputError):
        matrix_unit_action(3, 1, [1], space, 5)
    with pytest.raises(InputError):
        matrix_unit_action(1, 1, [3], space, 5)
    with pytest.raises(InputError):
        matrix_unit_action(1, 1, [], space, 5)


def test_casimir_on_tautological_module():
    for n in (1, 2, 3):
        for p in (3, 5):
            space = TensorSpace(n, 1)
            assert np.array_equal(casimir([1], space, p), (n % p) * mat_eye(n) % p)


def test_casimir_empty_factor_set_is_zero():
    space = TensorSpace(2, 2)
    assert not casimir([], space, 3).any()


def test_casimir_two_forms_agree():
    for p in (3, 5):
        for n in (2, 3):
            for D in (1, 2, 3):
                space = TensorSpace(n, D)
                factors = list(range(1, D + 1))
                assert np.array_equal(casimir(factors, space, p),
                                      casimir_normal_ordered(factors, space, p))


def test_flip_identity():
    for n in (2, 3, 4):
        for p in (3, 5):
            assert verify_flip_identity(n, p)


def test_tensor_casimir_empty_set():
    space = TensorSpace(3, 2)
    assert not tensor_casimir(1, [], space, 3).any()


def test_tensor_casimir_overlap_rejected():
    space = TensorSpace(2, 2)
    with pytest.raises(InputError):
        tensor_casimir(1, [1, 2], space, 3)


def test_casimir_coproduct():
    for p in (3, 5):
        for n in (2, 3):
            for D in (2, 3):
                space = TensorSpace(n, D)
                assert verify_casimir_coproduct(1, range(2, D + 1), space, p)


def test_build_Xi_edge_cases():
    assert not build_Xi(1, 1, 0, 2, 3).any()  # nothing to pair with
    space = TensorSpace(2, 2)
    assert np.array_equal(build_Xi(2, 2, 0, 2, 3), swap_slots(1, 2, space, 3))


def test_Xi_is_sum_of_transpositions():
    # with no module slots, X_i is a Jucys-Murphy style sum of swaps
    for n in (2, 3):
        for N in (2, 3):
            p = 5
            space = TensorSpace(n, N)
            for i in range(1, N + 1):
                a = N - i + 1
                expected = np.zeros((space.dim, space.dim), dtype=np.int64)
                for k in range(a + 1, N + 1):
                    expected = (expected + swap_slots(a, k, space, p)) % p
                assert np.array_equal(build_Xi(i, N, 0, n, p), expected)


def test_build_Ti_properties():
    for n in (2, 3):
        p = 3
        for N, d in ((2, 0), (2, 1), (3, 0)):
            for i in range(1, N):
                t = build_Ti(i, N, d, n, p)
                assert np.array_equal(mat_mul(t, t, p), mat_eye(n ** (N + d)))
                assert set(np.unique(t)) <= {0, 1}
                assert (t.sum(axis=0) == 1).all() and (t.sum(axis=1) == 1).all()
    assert np.array_equal(build_Ti(1, 2, 0, 2, 3),
                          swap_slots(1, 2, TensorSpace(2, 2), 3))


def test_verify_hecke_small():
    assert verify_hecke_relations(2, 2, 1, 3) == []
    assert verify_hecke_relations(3, 3, 0, 5) == []


def test_hecke_checker_sensitivity():
    n, N, d, p = 2, 2, 1, 3
    xs = [build_Xi(i, N, d, n, p) for i in range(1, N + 1)]
    ts = [build_Ti(i, N, d, n, p) for i in range(1, N)]
    # shifting a single X breaks the mixed relation
    dim = n ** (N + d)
    bad = [xs[0].copy(), xs[1].copy()]
    bad[0] = (bad[0] + mat_eye(dim)) % p
    report = verify_hecke_relations(n, N, d, p, xs=bad, ts=ts)
    assert any("T1 X2 - X1 T1" in line for line in report)
    # shifting every X by the same constant is an automorphism of the
    # presentation: nothing breaks
    shifted = [(x + mat_eye(dim)) % p for x in xs]
    assert verify_hecke_relations(n, N, d, p, xs=shifted, ts=ts) == []


def test_rank_mod_p():
    assert rank_mod_p(np.array([[1, 2], [2, 4]]), 5) == 1
    assert rank_mod_p(np.array([[1, 2], [2, 4]]), 3) == 1
    assert rank_mod_p(np.array([[3, 0], [0, 3]]), 3) == 0
    assert rank_mod_p(mat_eye(4), 7) == 4


def _sympy_rank(rows, p):
    field = GF(p)
    return DomainMatrix([[field(int(v)) for v in row] for row in rows],
                        (len(rows), len(rows[0])), field).rank()


@pytest.mark.parametrize("p", (4294967311, 2 ** 61 - 1, 2 ** 64 - 59))
def test_rank_mod_p_large_prime(p):
    # int64 products of residues overflow for p > 2^31.5; the result must
    # still be exact
    rng = random.Random(p)
    for _ in range(20):
        rows = [[rng.randrange(p) for _ in range(6)] for _ in range(5)]
        c = [rng.randrange(p) for _ in range(5)]
        rows.append([sum(ci * row[k] for ci, row in zip(c, rows)) % p for k in range(6)])
        assert rank_mod_p(np.array(rows, dtype=object), p) == _sympy_rank(rows, p) == 5
        rows = [[rng.randrange(p) for _ in range(6)] for _ in range(6)]
        assert rank_mod_p(np.array(rows, dtype=object), p) == _sympy_rank(rows, p)


def _weight_spaces(space):
    """Basis indices grouped by the multiset of entries of their tuples."""
    groups = {}
    for idx in range(space.dim):
        groups.setdefault(tuple(sorted(space.tuple_of(idx))), []).append(idx)
    return sorted(groups.values())


@pytest.mark.parametrize("n,N,d", ((2, 2, 1), (3, 2, 0), (2, 4, 1), (3, 3, 1), (4, 2, 1),
                                   (3, 1, 2), (3, 3, 3)))
def test_support_blocks_are_weight_spaces(n, N, d):
    p = 3
    ops = ([build_Xi(i, N, d, n, p) for i in range(1, N + 1)]
           + [build_Ti(i, N, d, n, p) for i in range(1, N)])
    blocks = support_blocks(ops)
    D = N + d
    assert [blk.tolist() for blk in blocks] == _weight_spaces(TensorSpace(n, D))
    assert len(blocks) == comb(D + n - 1, n - 1)
    parts = [D // n + (k < D % n) for k in range(n)]
    central = factorial(D) // np.prod([factorial(k) for k in parts])
    assert max(blk.size for blk in blocks) == central
    # every operator is block diagonal: no entry joins two blocks
    label = np.empty(n ** D, dtype=int)
    for k, blk in enumerate(blocks):
        label[blk] = k
    for m in ops:
        rows, cols = np.nonzero(m)
        assert (label[rows] == label[cols]).all()


def test_support_blocks_of_weight_729():
    # the dim-729 tower of the benchmark: 28 weight spaces, the largest 90
    blocks = support_blocks([x_on_module_tower(3, 5, 3)])
    assert len(blocks) == 28 and max(blk.size for blk in blocks) == 90


@pytest.mark.parametrize("n,D", ((2, 3), (2, 6), (3, 5), (4, 4)))
def test_block_groups_partition_the_blocks(n, D):
    blocks = support_blocks([build_Xi(1, 1, D - 1, n, 3)])
    groups = _block_groups(blocks)
    assert sorted(np.concatenate(groups).tolist()) == list(range(n ** D))
    owner = {int(i): k for k, blk in enumerate(blocks) for i in blk}
    for g in groups:
        members = {owner[int(i)] for i in g}
        # whole blocks only, and a group over the size limit is one block
        assert sum(blocks[k].size for k in members) == g.size
        assert g.size <= hecke._GROUP_SIZE or len(members) == 1


@pytest.mark.parametrize("n,N,d", ((2, 3, 1), (3, 2, 0), (2, 4, 2), (3, 3, 1)))
def test_relation_suite_multiplies_square_groups(n, N, d, monkeypatch):
    # every product is a square 2-D group product (so a product count of
    # 2*s^3 flops each is exact), and a suite of dim <= the group size is
    # checked on full matrices
    shapes = []

    def recording_mul(a, b, p):
        shapes.append((a.shape, b.shape))
        return mat_mul(a, b, p)

    monkeypatch.setattr(hecke, "mat_mul", recording_mul)
    assert verify_hecke_relations(n, N, d, 3) == []
    dim = n ** (N + d)
    assert shapes and all(len(a) == 2 and a[0] == a[1] and a == b for a, b in shapes)
    if dim <= hecke._GROUP_SIZE:
        assert {a for a, _ in shapes} == {(dim, dim)}
    else:
        assert max(a[0] for a, _ in shapes) < dim


def test_mat_pow():
    m = np.array([[1, 1], [0, 1]], dtype=np.int64)
    assert np.array_equal(mat_pow(m, 5, 3), np.array([[1, 2], [0, 1]]))
    assert np.array_equal(mat_pow(m, 0, 3), mat_eye(2))


def test_generalized_eigenspaces_flip():
    space = TensorSpace(2, 2)
    flip = swap_slots(1, 2, space, 3)
    assert generalized_eigenspaces(flip, 3) == {0: 0, 1: 3, 2: 1}


def test_generalized_eigenspaces_zero_matrix():
    assert generalized_eigenspaces(np.zeros((4, 4), dtype=np.int64), 5) == {
        0: 4, 1: 0, 2: 0, 3: 0, 4: 0}


def test_generalized_eigenspaces_nilpotent_blocks():
    m = np.array([[2, 1, 0], [0, 2, 0], [0, 0, 1]], dtype=np.int64)
    assert generalized_eigenspaces(m, 3) == {0: 0, 1: 1, 2: 2}


def test_generalized_eigenspaces_detects_outside_spectrum():
    # x^2 = -1 has no root mod 3, so this matrix has no eigenvalues in F_3
    m = np.array([[0, 1], [-1, 0]], dtype=np.int64)
    with pytest.raises(VerificationError):
        generalized_eigenspaces(m, 3)


def test_listed_residues_are_bounded():
    # 1000003 is a prime above the bound: refused before any dict of
    # residues is built
    with pytest.raises(InputError):
        generalized_eigenspaces(np.zeros((1, 1), dtype=np.int64), 1000003)
    with pytest.raises(InputError):
        predicted_F_alpha_dims(2, 1, 1000003)


def test_syt_count():
    assert syt_count(()) == 1
    assert syt_count((3,)) == 1
    assert syt_count((2, 1)) == 2
    assert syt_count((2, 2)) == 2
    assert syt_count((3, 2)) == 5
    assert syt_count((2, 2, 1)) == 5


def test_predicted_dims_examples():
    assert predicted_F_alpha_dims(3, 1, 3) == {0: 0, 1: 6, 2: 3}
    for n in (2, 3):
        for p in (3, 5):
            expected = {a: 0 for a in range(p)}
            expected[0] = n
            assert predicted_F_alpha_dims(n, 0, p) == expected


def test_eigenspaces_match_prediction_small():
    for p in (3, 5):
        for n in (2, 3):
            for d in (0, 1, 2):
                m = x_on_module_tower(n, d, p)
                assert generalized_eigenspaces(m, p) == predicted_F_alpha_dims(n, d, p)


def test_matrix_json():
    m = np.array([[0, 1], [2, 0]], dtype=np.int64)
    assert matrix_to_json_obj(m, 3) == {"p": 3, "dims": [2, 2],
                                        "entries": [0, 1, 2, 0]}
