"""The numpy min-distance decoder against the pure-Python Gray walk it replaced."""

from itertools import product
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmac import core
from sigmac.core import (
    DEFAULT_U_LIMIT,
    InfoVector,
    SignatureMatrix,
    decode_min_distance,
    encode,
)
from sigmac.errors import AmbiguousDecoding, CapacityError


def _column_support(matrix: SignatureMatrix) -> list[list[tuple[int, int]]]:
    rows = matrix.rows
    k = matrix.k
    return [[(i, rows[i][j]) for i in range(k) if rows[i][j]]
            for j in range(matrix.n)]


def reference_decode(y: Sequence[int], matrix: SignatureMatrix, t: int,
                     limit: int | None = None) -> InfoVector:
    """Oracle: the Gray-code walk over all 2^n candidates, one column per step."""
    n, k = matrix.n, matrix.k
    if len(y) != k:
        raise ValueError(f"received word length {len(y)} != k = {k}")
    budget = DEFAULT_U_LIMIT if limit is None else limit
    if n > budget:
        raise CapacityError(f"n={n} exceeds the 2^n decoding limit ({budget})")
    support = _column_support(matrix)
    u = [0] * n
    diff = list(y)
    nonzero = sum(1 for v in diff if v)
    best = nonzero
    best_u = tuple(u)
    ties = 1
    within_budget = 1 if nonzero <= t else 0
    for counter in range(1, 1 << n):
        j = (counter & -counter).bit_length() - 1
        u[j] ^= 1
        step = 1 if u[j] else -1
        for i, v in support[j]:
            w = diff[i]
            nv = w - step * v
            if w == 0:
                nonzero += 1
            elif nv == 0:
                nonzero -= 1
            diff[i] = nv
        if nonzero < best:
            best = nonzero
            best_u = tuple(u)
            ties = 1
        elif nonzero == best:
            ties += 1
        if nonzero <= t:
            within_budget += 1
    if ties > 1:
        raise AmbiguousDecoding(
            f"{ties} candidates at minimum distance {best}"
        )
    if within_budget > 1:
        raise AmbiguousDecoding(
            f"{within_budget} candidates within the error budget t={t}"
        )
    return best_u


def outcome(decode, y, matrix, t, limit=None):
    """The decoded vector, or the type and text of the failure raised or given."""
    try:
        result = decode(y, matrix, t, limit)
    except (ValueError, CapacityError, AmbiguousDecoding) as exc:
        return type(exc), str(exc)
    if isinstance(result, AmbiguousDecoding):
        return type(result), str(result)
    return result


def decode_one(y, matrix, t, limit=None):
    """decode_min_distance on the batch of one word y: that word's outcome."""
    return decode_min_distance([y], matrix, t, limit)[0]


def identity(n: int) -> SignatureMatrix:
    return SignatureMatrix(
        q=2, rows=tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


@st.composite
def decode_cases(draw):
    """(received words, matrix, t): codewords with a few entries changed.

    Every word goes through the one matrix object, so all but the first meet
    it warm; now and then a word has the wrong length.
    """
    q = draw(st.integers(2, 4))
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 10))
    entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=k, max_size=k))
    matrix = SignatureMatrix(q=q, rows=tuple(tuple(r) for r in rows))
    cap = n * (q - 1)
    # An in-range value, an offset error, or a value no M u can equal.
    replacement = st.one_of(
        st.integers(0, cap),
        st.sampled_from([-1, -5, cap + 1, cap + 7, 10**30, -10**30]),
    )
    words = []
    for _ in range(draw(st.integers(1, 4))):
        u = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        y = list(encode(matrix, u))
        for i in draw(st.lists(st.integers(0, k - 1), max_size=3)):
            if draw(st.booleans()):
                y[i] += draw(st.integers(-3, 3))
            else:
                y[i] = draw(replacement)
        if draw(st.integers(0, 9)) == 0:
            y = y[1:] if draw(st.booleans()) else y + [0]
        words.append(tuple(y))
    return words, matrix, draw(st.integers(0, 3))


DUPLICATED = SignatureMatrix(q=2, rows=((1, 1),))
HUGE_Q = SignatureMatrix(q=2**64, rows=((2**63, 1), (5, 2**64 - 1)))


# The block size crosses the minimum, its ties and the within-budget count
# over block boundaries: at 1 every left half is a block of its own.  The
# example matrices are module objects, so they stay warm from one block
# size to the next.
@pytest.mark.parametrize("block", [core.DECODE_BLOCK, 64, 1])
@settings(max_examples=150, deadline=None)
@given(case=decode_cases())
@example(case=([(1,), (0,)], DUPLICATED, 0))           # tie at the minimum, twice
@example(case=([(1, 1), (1, 2), (0, 1)],
               SignatureMatrix(q=2, rows=((1, 1, 0), (0, 1, 1))), 0))
@example(case=([(1, 0), (1, 1), (0, 0, 0)], identity(2), 1))  # 3 within t
@example(case=([(-1, 10**30, 2), (1, 1, 1)], identity(3), 3))  # below 0, far above n(q-1)
@example(case=([(2, 5, 0), (0, 1, 0)], identity(3), 0))        # above n(q-1)
@example(case=([(2**63, 5), (3, 3), (2**63 + 1, 2**64)], HUGE_Q, 0))  # beyond int64
def test_engine_matches_reference(block, case):
    words, matrix, t = case
    with mock.patch.object(core, "DECODE_BLOCK", block):
        got = [outcome(decode_one, y, matrix, t) for y in words]
    assert got == [outcome(reference_decode, y, matrix, t) for y in words]
    for result in got:
        if not isinstance(result[0], type):
            assert all(type(bit) is int for bit in result)


def test_engine_checks_match_reference():
    m = identity(4)
    for y, limit in (((0, 0, 0), None), ((0, 0, 0, 0), 3), ((0, 0, 0, 0), -1)):
        got = outcome(decode_one, y, m, 0, limit)
        assert got[0] in (ValueError, CapacityError)
        assert got == outcome(reference_decode, y, m, 0, limit)


def test_half_tables_are_built_once_per_matrix():
    # one build tabulates two halves
    first, second = identity(6), identity(6)
    with mock.patch.object(core, "_digit_sums", wraps=core._digit_sums) as sums:
        for u in product((0, 1), repeat=6):
            assert decode_min_distance([encode(first, u)], first, 0) == [u]
        tables = first._half_tables
        assert sums.call_count == 2
        assert decode_min_distance([(1, 0, 1, 0, 0, 1)], second, 0) == [(1, 0, 1, 0, 0, 1)]
        assert sums.call_count == 4 and first._half_tables is tables
    assert not tables.left.flags.writeable and not tables.right.flags.writeable


def test_checks_come_before_the_tables():
    wide = SignatureMatrix(q=2, rows=((1,) * (DEFAULT_U_LIMIT + 1),))
    narrow = identity(4)
    with mock.patch.object(core, "_digit_sums") as sums:
        for y, matrix, limit in (((0,), wide, None), ((0, 0, 0, 0), narrow, 3),
                                 ((0, 0, 0), narrow, None)):
            with pytest.raises((CapacityError, ValueError)):
                decode_min_distance([y], matrix, 0, limit)
    sums.assert_not_called()
    assert "_half_tables" not in wide.__dict__ and "_half_tables" not in narrow.__dict__


def test_an_empty_batch_builds_no_tables():
    # simulate checks a code's 2^n budget by decoding an empty batch
    matrix = identity(4)
    assert decode_min_distance([], matrix, 0) == []
    assert "_half_tables" not in matrix.__dict__


def test_the_2n_budget_comes_before_the_batch():
    """A malformed batch on a matrix over the 2^n limit is refused for the limit."""
    from sigmac.constructions import PlainCode

    wide = SignatureMatrix(q=2, rows=((1,) * (DEFAULT_U_LIMIT + 1),))
    # a bare word, a word of the wrong length, ragged words, a 3-D array
    for words in ((0,), [(0, 0)], [(0,), (0, 0)], [[[0]]]):
        with pytest.raises(CapacityError):
            decode_min_distance(words, wide, 0)
        with pytest.raises(CapacityError):
            PlainCode(wide, 0, {}).decode_batch(words, 0)


@st.composite
def encode_cases(draw):
    """(matrix, u) with entries up to 2^70 and, often, the all-zero u."""
    q = draw(st.sampled_from([2, 3, 2**63 + 1, 2**70]))
    n = draw(st.integers(1, 8))
    entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=1, max_size=8))
    u = draw(st.one_of(st.just([0] * n), st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return SignatureMatrix(q=q, rows=tuple(tuple(r) for r in rows)), tuple(u)


@settings(max_examples=100, deadline=None)
@given(case=encode_cases())
@example(case=(HUGE_Q, (0, 0)))
@example(case=(HUGE_Q, (1, 1)))
def test_encode_matches_row_sums(case):
    matrix, u = case
    got = encode(matrix, u)
    assert got == tuple(sum(row[j] for j in range(matrix.n) if u[j]) for row in matrix.rows)
    assert all(type(v) is int for v in got)
