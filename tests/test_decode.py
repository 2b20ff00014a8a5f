"""The numpy min-distance decoder against the pure-Python Gray walk it replaced."""

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
        raise CapacityError(
            f"n={n} exceeds the 2^n decoding limit ({budget}); "
            f"raise the limit argument to override"
        )
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
    """The decoded vector, or the type and text of the exception raised."""
    try:
        return decode(y, matrix, t, limit)
    except (ValueError, CapacityError, AmbiguousDecoding) as exc:
        return type(exc), str(exc)


def identity(n: int) -> SignatureMatrix:
    return SignatureMatrix(
        q=2, rows=tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


@st.composite
def decode_cases(draw):
    """(received word, matrix, t): a codeword with a few entries changed."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 10))
    entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=k, max_size=k))
    matrix = SignatureMatrix(q=q, rows=tuple(tuple(r) for r in rows))
    u = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    y = list(encode(matrix, u))
    cap = n * (q - 1)
    # An in-range value, an offset error, or a value no M u can equal.
    replacement = st.one_of(
        st.integers(0, cap),
        st.sampled_from([-1, -5, cap + 1, cap + 7, 10**30, -10**30, 0.5, float(cap)]),
    )
    for i in draw(st.lists(st.integers(0, k - 1), max_size=3)):
        if draw(st.booleans()):
            y[i] += draw(st.integers(-3, 3))
        else:
            y[i] = draw(replacement)
    return tuple(y), matrix, draw(st.integers(0, 3))


DUPLICATED = SignatureMatrix(q=2, rows=((1, 1),))
HUGE_Q = SignatureMatrix(q=2**64, rows=((2**63, 1), (5, 2**64 - 1)))


# The block size crosses the minimum, its ties and the within-budget count
# over block boundaries: at 1 every left half is a block of its own.
@pytest.mark.parametrize("block", [core.DECODE_BLOCK, 64, 1])
@settings(max_examples=150, deadline=None)
@given(case=decode_cases())
@example(case=((1,), DUPLICATED, 0))                   # tie at the minimum
@example(case=((1, 1), SignatureMatrix(q=2, rows=((1, 1, 0), (0, 1, 1))), 0))
@example(case=((1, 0), identity(2), 1))                # unique minimum, 3 within t
@example(case=((-1, 10**30, 2), identity(3), 3))       # below 0 and far above n(q-1)
@example(case=((2, 1.5, 0), identity(3), 0))           # above n(q-1), non-integer
@example(case=((2**63, 5), HUGE_Q, 0))                 # entries beyond int64
@example(case=((3, 3), HUGE_Q, 0))
def test_engine_matches_reference(block, case):
    y, matrix, t = case
    with mock.patch.object(core, "DECODE_BLOCK", block):
        got = outcome(decode_min_distance, y, matrix, t)
    assert got == outcome(reference_decode, y, matrix, t)
    if not isinstance(got[0], type):
        assert all(type(bit) is int for bit in got)


def test_engine_checks_match_reference():
    m = identity(4)
    for y, limit in (((0, 0, 0), None), ((0, 0, 0, 0), 3), ((0, 0, 0, 0), -1)):
        got = outcome(decode_min_distance, y, m, 0, limit)
        assert got[0] in (ValueError, CapacityError)
        assert got == outcome(reference_decode, y, m, 0, limit)
