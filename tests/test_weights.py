import itertools
import random
import time

import pytest
import sympy

from modrep import (
    InputError,
    addable_boxes,
    addable_rows,
    add_box,
    beta_to_weight,
    box_content,
    dominance_leq,
    dominant_weights,
    format_int_tuple,
    is_dominant,
    is_prime,
    normalize_partition,
    parse_int_tuple,
    partitions_of,
    partitions_up_to,
    removable_boxes,
    removable_rows,
    remove_box,
    require_prime,
    shift_row,
    weight_to_beta,
)

BIG = (18, 16, 15, 15, 12, 7, 7, 5, 0, -4, -8, -12, -15, -19)


def test_dominance_examples():
    assert dominance_leq((1, 1, 0), (2, 0, 0))
    assert not dominance_leq((2, 0, 0), (1, 1, 0))
    for chi in [(0,), (3, 1), BIG]:
        assert dominance_leq(chi, chi)


def test_dominance_needs_equal_totals():
    assert not dominance_leq((0, 0), (1, 0))


def test_dominance_length_mismatch():
    with pytest.raises(InputError):
        dominance_leq((1, 0), (1, 0, 0))


def test_dominance_is_partial_order():
    # reflexive, antisymmetric, transitive on all weights with entries in
    # [-2, 2]; comparability needs equal totals, so group by the sum
    for n in (2, 3, 4):
        by_sum = {}
        for w in itertools.product(range(-2, 3), repeat=n):
            by_sum.setdefault(sum(w), []).append(w)
        for group in by_sum.values():
            below = {w: frozenset(v for v in group if dominance_leq(v, w))
                     for w in group}
            for w in group:
                assert w in below[w]
                for v in below[w]:
                    if w in below[v]:
                        assert v == w
                    assert below[v] <= below[w]


def test_is_dominant():
    assert is_dominant(BIG)
    assert not is_dominant((0, 1))
    assert is_dominant((0, 0, 0))


def test_addable_removable_rows_on_big_weight():
    assert addable_rows(BIG) == {1, 2, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14}
    assert removable_rows(BIG) == {1, 2, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14}


def test_addable_removable_rows_small():
    assert addable_rows((0, 0, 0, 0)) == {1}
    assert addable_rows((3, 2, 1)) == {1, 2, 3}
    assert removable_rows((0, 0, 0)) == {3}
    assert removable_rows((1, 1)) == {2}


def test_rows_match_dominance_exhaustively():
    for n in range(1, 6):
        for lam in dominant_weights(n, 0, 4):
            plus = addable_rows(lam)
            minus = removable_rows(lam)
            for i in range(1, n + 1):
                assert (i in plus) == is_dominant(shift_row(lam, i, +1))
                assert (i in minus) == is_dominant(shift_row(lam, i, -1))


def test_non_dominant_rejected():
    with pytest.raises(InputError):
        addable_rows((0, 1))
    with pytest.raises(InputError):
        removable_rows((0, 1))
    with pytest.raises(InputError):
        weight_to_beta((0, 1))


def test_box_content():
    assert box_content((1, 1)) == 0
    assert box_content((2, 1)) == -1
    for k in range(1, 7):
        assert box_content((1, k)) == k - 1


def test_addable_boxes_examples():
    assert addable_boxes((1,), alpha=1, p=3, max_rows=5) == [(1, 2)]
    assert addable_boxes((), alpha=0, p=3) == [(1, 1)]
    assert addable_boxes((1,), alpha=0, p=3) == []


def test_removable_boxes():
    assert removable_boxes((2, 1)) == [(1, 2), (2, 1)]
    assert removable_boxes((2, 2)) == [(2, 2)]
    assert removable_boxes(()) == []


def test_max_rows_cap():
    assert addable_boxes((2, 1), max_rows=2) == [(1, 3), (2, 2)]
    assert addable_boxes((2, 1)) == [(1, 3), (2, 2), (3, 1)]


def test_diagonal_count():
    # one more addable than removable box, for every shape
    for lam in partitions_up_to(10):
        assert len(addable_boxes(lam)) == len(removable_boxes(lam)) + 1


def test_add_remove_box_roundtrip():
    for lam in partitions_up_to(8):
        for b in addable_boxes(lam):
            assert remove_box(add_box(lam, b), b) == lam
        for b in removable_boxes(lam):
            assert add_box(remove_box(lam, b), b) == lam


def test_weight_to_beta_big():
    assert weight_to_beta(BIG) == (18, 15, 13, 12, 8, 2, 1, -2, -8, -13, -18, -23, -27, -32)
    assert weight_to_beta((0, 0, 0)) == (0, -1, -2)
    assert weight_to_beta((2, 0, 0)) == (2, -1, -2)


def test_beta_roundtrip():
    for n in (1, 2, 3, 4):
        for lam in dominant_weights(n, -3, 3):
            beta = weight_to_beta(lam)
            assert len(set(beta)) == n
            assert beta_to_weight(beta) == lam


def test_beta_to_weight_rejects_non_decreasing():
    with pytest.raises(InputError):
        beta_to_weight((1, 1))


def test_partition_normalization():
    assert normalize_partition((3, 2, 0, 0)) == (3, 2)
    with pytest.raises(InputError):
        normalize_partition((1, 2))
    with pytest.raises(InputError):
        normalize_partition((1, -1))


def test_partitions_of():
    assert list(partitions_of(4, max_rows=2)) == [(4,), (3, 1), (2, 2)]
    assert sum(1 for _ in partitions_of(8)) == 22
    assert list(partitions_of(0)) == [()]


def test_prime_validation():
    require_prime(2)
    require_prime(13)
    for bad in (0, 1, 4, 6, 9, -3, "5"):
        with pytest.raises(InputError):
            require_prime(bad)


CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161)
# strong pseudoprimes to several of the first prime bases at once
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051)


def test_is_prime_against_sympy():
    rng = random.Random(20260)
    samples = [rng.randrange(2 ** 64) for _ in range(3000)]
    samples += [rng.randrange(2 ** 64) | 1 for _ in range(3000)]
    samples += list(range(-3, 2000))
    for k in samples:
        assert is_prime(k) == sympy.isprime(k), k


def test_is_prime_rejects_carmichael_and_pseudoprimes():
    for k in CARMICHAEL + STRONG_PSEUDOPRIMES:
        assert not sympy.isprime(k)
        assert not is_prime(k), k
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59)
    assert not is_prime(2 ** 64 - 1)


def test_primality_range():
    with pytest.raises(InputError):
        is_prime(2 ** 64)
    with pytest.raises(InputError):
        require_prime(2 ** 89 - 1)


def test_require_large_prime_is_fast():
    t0 = time.perf_counter()
    assert require_prime(10 ** 18 + 3) == 10 ** 18 + 3
    assert time.perf_counter() - t0 < 1.0


def test_parse_format_roundtrip():
    assert parse_int_tuple("18,16,-4") == (18, 16, -4)
    assert parse_int_tuple("") == ()
    assert format_int_tuple((18, 16, -4)) == "18,16,-4"
    assert format_int_tuple(()) == "0"
    with pytest.raises(InputError):
        parse_int_tuple("1,x")
