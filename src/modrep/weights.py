"""GL_n weight and partition combinatorics.

Weights are integer n-tuples with the dominance partial order. Partitions
are weakly decreasing tuples of nonnegative integers with trailing zeros
stripped, drawn as Young diagrams in English convention (row 1 on top).
A box in row x and column y (both 1-based) has content y - x; residues
are contents reduced modulo a prime p.

Everything here is a pure function over immutable tuples.
"""

from __future__ import annotations

import itertools

from .errors import InputError

Weight = tuple[int, ...]
Partition = tuple[int, ...]
Box = tuple[int, int]


# ---------------------------------------------------------------------------
# primes and parsing

# Miller-Rabin with the first twelve primes as bases has no strong
# pseudoprime below 3.18 * 10^23 (Sorenson and Webster 2015), so it decides
# primality exactly on the supported range p < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_MODULUS = 2 ** 64


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p < 2^64; larger p
    raise InputError."""
    if p <= _MR_BASES[-1]:
        return p in _MR_BASES
    if p >= _MAX_MODULUS:
        raise InputError(f"primality is only decided below 2^64, got {p}")
    for q in _MR_BASES:
        if p % q == 0:
            return False
    if p < 41 * 41:  # a composite below 41^2 has a prime factor up to 37
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _MR_BASES:
        x = pow(q, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise InputError(f"modulus must be a prime >= 2, got {p!r}")
    return p


def parse_int_tuple(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list such as '18,16,-4'."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse integer tuple from {text!r}") from exc


def format_int_tuple(t) -> str:
    """Inverse of parse_int_tuple; the empty tuple prints as '0'."""
    return ",".join(str(x) for x in t) if t else "0"


# ---------------------------------------------------------------------------
# weights and dominance

def is_dominant(w) -> bool:
    """True iff the entries are weakly decreasing."""
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def require_dominant(w) -> Weight:
    w = tuple(w)
    if not w:
        raise InputError("weight must have positive length")
    if not is_dominant(w):
        raise InputError(f"weight {w} is not dominant")
    return w


def dominance_leq(a, b) -> bool:
    """Dominance order: every partial sum of a is at most that of b and the
    totals agree."""
    if len(a) != len(b):
        raise InputError(f"weights have different lengths: {len(a)} vs {len(b)}")
    if not a:
        raise InputError("weights must have positive length")
    sa = sb = 0
    for k in range(len(a) - 1):
        sa += a[k]
        sb += b[k]
        if sa > sb:
            return False
    return sa + a[-1] == sb + b[-1]


def shift_row(w, row: int, delta: int) -> Weight:
    """Return w with the entry at the given 1-based row changed by delta."""
    return tuple(x + delta if k == row - 1 else x for k, x in enumerate(w))


def addable_rows(lam) -> set[int]:
    """Rows i (1-based) where one box can be added leaving the weight dominant:
    row 1, plus every i with lam[i-1] > lam[i]."""
    lam = require_dominant(lam)
    rows = {1}
    rows.update(i + 1 for i in range(1, len(lam)) if lam[i - 1] > lam[i])
    return rows


def removable_rows(lam) -> set[int]:
    """Rows i where one box can be removed leaving the weight dominant: every
    i < n with lam[i] > lam[i+1], plus row n (GL weights may go negative)."""
    lam = require_dominant(lam)
    n = len(lam)
    rows = {n}
    rows.update(i + 1 for i in range(n - 1) if lam[i] > lam[i + 1])
    return rows


def dominant_weights(n: int, lo: int, hi: int):
    """All dominant length-n weights with entries in [lo, hi]."""
    yield from itertools.combinations_with_replacement(range(hi, lo - 1, -1), n)


# ---------------------------------------------------------------------------
# partitions

def normalize_partition(parts) -> Partition:
    parts = tuple(int(x) for x in parts)
    if any(x < 0 for x in parts):
        raise InputError(f"partition parts must be nonnegative: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise InputError(f"partition parts must be weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def partition_size(lam) -> int:
    return sum(lam)


def partitions_of(d: int, max_rows: int | None = None):
    """Yield all partitions of d, optionally with at most max_rows rows."""
    rows_cap = d if max_rows is None else max_rows

    def gen(rem, maxpart, rows):
        if rem == 0:
            yield ()
            return
        if rows == 0 or maxpart == 0:
            return
        for first in range(min(rem, maxpart), 0, -1):
            for rest in gen(rem - first, first, rows - 1):
                yield (first,) + rest

    yield from gen(d, d, rows_cap)


def partitions_up_to(max_size: int, max_rows: int | None = None):
    for d in range(max_size + 1):
        yield from partitions_of(d, max_rows)


# ---------------------------------------------------------------------------
# boxes, contents, residues

def box_content(box: Box) -> int:
    row, col = box
    return col - row


def addable_boxes(lam, alpha: int | None = None, p: int | None = None,
                  max_rows: int | None = None) -> list[Box]:
    """Boxes that can be added to the diagram, listed top row first.

    With alpha given (and p prime), keep only boxes of content alpha mod p.
    With max_rows given, only allow results with at most that many rows.
    """
    lam = normalize_partition(lam)
    if alpha is not None:
        require_prime(p)
    limit = len(lam) + 1 if max_rows is None else min(len(lam) + 1, max_rows)
    out = []
    for i in range(1, limit + 1):
        cur = lam[i - 1] if i <= len(lam) else 0
        if i >= 2 and lam[i - 2] <= cur:
            continue
        box = (i, cur + 1)
        if alpha is None or (box_content(box) - alpha) % p == 0:
            out.append(box)
    return out


def removable_boxes(lam, alpha: int | None = None, p: int | None = None) -> list[Box]:
    """Boxes whose removal leaves a diagram, listed top row first; same
    residue filter as addable_boxes."""
    lam = normalize_partition(lam)
    if alpha is not None:
        require_prime(p)
    out = []
    for i in range(1, len(lam) + 1):
        nxt = lam[i] if i < len(lam) else 0
        if lam[i - 1] > nxt:
            box = (i, lam[i - 1])
            if alpha is None or (box_content(box) - alpha) % p == 0:
                out.append(box)
    return out


def add_box(lam, box: Box) -> Partition:
    i = box[0]
    parts = list(lam) + [0] * max(0, i - len(lam))
    if parts[i - 1] + 1 != box[1]:
        raise InputError(f"box {box} is not addable to {lam}")
    parts[i - 1] += 1
    return normalize_partition(parts)


def remove_box(lam, box: Box) -> Partition:
    i = box[0]
    if i > len(lam) or lam[i - 1] != box[1]:
        raise InputError(f"box {box} is not removable from {lam}")
    parts = list(lam)
    parts[i - 1] -= 1
    return normalize_partition(parts)


# ---------------------------------------------------------------------------
# the strictly decreasing coordinate dictionary

def weight_to_beta(lam) -> tuple[int, ...]:
    """Dominant weight -> strictly decreasing tuple (lam_i + 1 - i)."""
    lam = require_dominant(lam)
    return tuple(x - k for k, x in enumerate(lam))


def beta_to_weight(beta) -> Weight:
    """Inverse of weight_to_beta on strictly decreasing tuples."""
    beta = tuple(beta)
    if not beta:
        raise InputError("beta tuple must have positive length")
    if any(beta[i] <= beta[i + 1] for i in range(len(beta) - 1)):
        raise InputError(f"beta tuple must be strictly decreasing: {beta}")
    return tuple(x + k for k, x in enumerate(beta))
