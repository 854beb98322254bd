"""Property tests: each block-wise or vectorised Hecke route against its
dense oracle in hecke_oracle.py, on random inputs of dim <= 256."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modrep import (
    TensorSpace,
    VerificationError,
    build_Ti,
    build_Xi,
    casimir,
    generalized_eigenspaces,
    matrix_unit_action,
    swap_slots,
    tensor_casimir,
    verify_hecke_relations,
)
from modrep.hecke import support_blocks

from hecke_oracle import (
    dense_casimir,
    dense_eigenspaces,
    dense_hecke_report,
    dense_tensor_casimir,
    loop_matrix_unit_action,
    loop_swap_slots,
)

PROPERTY = settings(max_examples=60, deadline=None)
PRIMES = st.sampled_from((3, 5, 7))


@st.composite
def spaces(draw, max_dim=81):
    n = draw(st.integers(1, 4))
    factors = draw(st.integers(1, 4))
    while n ** factors > max_dim:
        factors -= 1
    return TensorSpace(n, factors)


@st.composite
def slot_sets(draw, space):
    return draw(st.sets(st.integers(1, space.factors), min_size=1))


@PROPERTY
@given(data=st.data(), p=PRIMES)
def test_matrix_unit_action_matches_loop(data, p):
    space = data.draw(spaces())
    i = data.draw(st.integers(1, space.n))
    j = data.draw(st.integers(1, space.n))
    factors = data.draw(slot_sets(space))
    assert np.array_equal(matrix_unit_action(i, j, factors, space, p),
                          loop_matrix_unit_action(i, j, factors, space, p))


@PROPERTY
@given(data=st.data())
def test_swap_slots_matches_loop(data):
    space = data.draw(spaces())
    a = data.draw(st.integers(1, space.factors))
    b = data.draw(st.integers(1, space.factors))
    assert np.array_equal(swap_slots(a, b, space, 3), loop_swap_slots(a, b, space))


@PROPERTY
@given(data=st.data(), p=PRIMES)
def test_casimirs_match_dense(data, p):
    space = data.draw(spaces())
    factors = data.draw(st.sets(st.integers(1, space.factors)))
    assert np.array_equal(casimir(factors, space, p), dense_casimir(factors, space, p))
    a = data.draw(st.integers(1, space.factors))
    factors.discard(a)
    assert np.array_equal(tensor_casimir(a, factors, space, p),
                          dense_tensor_casimir(a, factors, space, p))


def _eigen_routes(m, p):
    """Both routes' answers, or VerificationError from both."""
    try:
        expected = dense_eigenspaces(m, p)
    except VerificationError:
        with pytest.raises(VerificationError):
            generalized_eigenspaces(m, p)
        return None
    assert generalized_eigenspaces(m, p) == expected
    return expected


@st.composite
def block_matrices(draw, p):
    """A random matrix mod p that is block diagonal after a random
    permutation of the basis (one block: no structure at all)."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    dim = sum(sizes)
    m = np.zeros((dim, dim), dtype=np.int64)
    start = 0
    for s in sizes:
        entries = draw(st.lists(st.integers(0, p - 1), min_size=s * s, max_size=s * s))
        m[start:start + s, start:start + s] = np.array(entries).reshape(s, s)
        start += s
    perm = np.array(draw(st.permutations(range(dim))))
    return m[np.ix_(perm, perm)]


@PROPERTY
@given(data=st.data(), p=st.sampled_from((2, 3, 5)))
def test_generalized_eigenspaces_match_dense(data, p):
    _eigen_routes(data.draw(block_matrices(p)), p)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_generalized_eigenspaces_outside_spectrum(p):
    # companion matrix of an irreducible quadratic over F_p, inside a
    # larger block structure: both routes must refuse
    c = next(c for c in range(1, p) if all((x * x + c) % p for x in range(p)))
    m = np.zeros((5, 5), dtype=np.int64)
    m[0, 1], m[1, 0] = 1, -c % p
    m[2:, 2:] = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]
    assert _eigen_routes(m, p) is None


@st.composite
def tower_shapes(draw):
    # dims 8..81; from 64 up the suite runs on several block groups
    n, N, d = draw(st.sampled_from(((2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 3, 2),
                                    (3, 3, 0), (2, 2, 3), (4, 2, 1), (2, 4, 2),
                                    (3, 3, 1))))
    return n, N, d, draw(st.sampled_from((3, 5)))


@PROPERTY
@given(shape=tower_shapes(), data=st.data())
def test_relation_report_on_corrupted_operators(shape, data):
    n, N, d, p = shape
    dim = n ** (N + d)
    xs = [build_Xi(i, N, d, n, p) for i in range(1, N + 1)]
    ts = [build_Ti(i, N, d, n, p) for i in range(1, N)]
    ops = xs + ts
    for _ in range(data.draw(st.integers(0, 3))):
        m = ops[data.draw(st.integers(0, len(ops) - 1))]
        r, c = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
        m[r, c] = (m[r, c] + data.draw(st.integers(1, p - 1))) % p
    assert verify_hecke_relations(n, N, d, p, xs=xs, ts=ts) == dense_hecke_report(xs, ts, p)


@pytest.mark.parametrize("n,N,d,rows", (
    # basis 0 is (0,0,0,0), basis 1 is (0,0,0,1): the one-group dim-16 tower
    (2, 3, 1, (0, 1)),
    # (0,0,0,1,1,1) and (0,0,1,1,1,1): weight blocks of sizes 20 and 15,
    # in different groups of the dim-64 tower
    (2, 4, 2, (0b000111, 0b001111)),
))
def test_relation_report_with_entry_outside_weight_blocks(n, N, d, rows):
    p = 3
    xs = [build_Xi(i, N, d, n, p) for i in range(1, N + 1)]
    ts = [build_Ti(i, N, d, n, p) for i in range(1, N)]
    space = TensorSpace(n, N + d)
    r, c = rows
    assert sorted(space.tuple_of(r)) != sorted(space.tuple_of(c))
    xs[1][r, c] = 1
    assert len(support_blocks(xs + ts)) < len(support_blocks(
        [build_Xi(i, N, d, n, p) for i in range(1, N + 1)] + ts))
    report = verify_hecke_relations(n, N, d, p, xs=xs, ts=ts)
    assert report and report == dense_hecke_report(xs, ts, p)
