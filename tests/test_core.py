"""Channel model and verifier against brute-force pair enumeration."""

import importlib
import json
import random
import sys
import tracemalloc
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmac import core
from sigmac.core import (
    RANDOM_ERRORS,
    WORST_CASE_ERRORS,
    SignatureMatrix,
    adversarial_witness,
    apply_errors,
    at_most,
    decode_min_distance,
    encode,
    min_distinguishing_weight,
    simulate_round,
    tolerates,
)
from sigmac.errors import AmbiguousDecoding, CapacityError


def random_matrix(rng, q, n, k) -> SignatureMatrix:
    return SignatureMatrix(
        q=q, rows=tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)))


def pairwise_d_min(matrix: SignatureMatrix) -> int:
    """Oracle: min distance over all 2^n (2^n - 1) / 2 pairs of activity vectors.

    Uses numpy matrix products, a path fully independent of the Gray-coded
    sign-pattern enumeration under test.
    """
    us = np.array(list(product((0, 1), repeat=matrix.n)), dtype=np.int64)
    m = np.array(matrix.rows, dtype=np.int64)
    words = us @ m.T
    dists = (words[:, None, :] != words[None, :, :]).sum(axis=2)
    upper = np.triu_indices(len(us), k=1)
    return int(dists[upper].min())


def identity(n: int) -> SignatureMatrix:
    return SignatureMatrix(
        q=2, rows=tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def test_matrix_validation():
    with pytest.raises(ValueError):
        SignatureMatrix(q=1, rows=((0,),))
    with pytest.raises(ValueError):
        SignatureMatrix(q=2, rows=((0, 2),))
    with pytest.raises(ValueError):
        SignatureMatrix(q=2, rows=((0, 1), (0,)))
    # entries and q must be Python ints: no floats, bools or strings
    for q, rows in ((3, ((1.5, True),)), (3, ((1, True),)), (3, (("1", 0),)),
                    (3.0, ((1, 0),)), (True, ((0, 1),))):
        with pytest.raises(ValueError):
            SignatureMatrix(q=q, rows=rows)
    m = SignatureMatrix(q=3, rows=((0, 1, 2),))
    assert m.k == 1 and m.n == 3 and m.column(2) == (2,)


def test_matrix_json_round_trip():
    m = SignatureMatrix(q=3, rows=((0, 1, 2, 0, 1), (2, 2, 0, 1, 0)))
    blob = core.dumps_canonical(m.to_json())
    again = SignatureMatrix.from_json(json.loads(blob))
    assert again == m
    bad = m.to_json()
    bad["rows"][0][0] = 9
    with pytest.raises(ValueError):
        SignatureMatrix.from_json(bad)


def test_encode_examples():
    m = identity(2)
    assert encode(m, (1, 0)) == (1, 0)
    assert encode(m, (0, 0)) == (0, 0)
    m = SignatureMatrix(q=3, rows=((1, 2), (2, 1)))
    assert encode(m, (1, 1)) == (3, 3)
    with pytest.raises(ValueError):
        encode(m, (1, 0, 1))
    with pytest.raises(ValueError):
        encode(m, (2, 0))


def test_encode_linearity_on_disjoint_supports():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, rng.choice([2, 3, 4]), 6, 5)
        bits = [rng.randint(0, 2) for _ in range(6)]  # 0: neither, 1: u1, 2: u2
        u1 = tuple(1 if b == 1 else 0 for b in bits)
        u2 = tuple(1 if b == 2 else 0 for b in bits)
        both = tuple(x | y for x, y in zip(u1, u2))
        y1, y2 = encode(m, u1), encode(m, u2)
        assert tuple(a + b for a, b in zip(y1, y2)) == encode(m, both)


def test_apply_errors():
    assert apply_errors((1, 0), {}) == (1, 0)
    assert apply_errors((1, 0), {0: -5}) == (-4, 0)
    assert apply_errors((3, 3), {1: 2}) == (3, 5)
    with pytest.raises(ValueError):
        apply_errors((1, 0), {2: 1})
    with pytest.raises(ValueError):
        apply_errors((1, 0), {0: 0})


def test_min_distinguishing_weight_basics():
    report = min_distinguishing_weight(identity(3))
    assert report.d_min == 1
    assert report.z_count_checked == 3 ** 3 - 1
    duplicated = SignatureMatrix(q=2, rows=((1, 1), (0, 0)))
    assert min_distinguishing_weight(duplicated).d_min == 0


def test_min_distinguishing_weight_matches_pair_oracle():
    rng = random.Random(5)
    for _ in range(200):
        q = rng.choice([2, 3])
        n = rng.randint(2, 8)
        k = rng.randint(1, 6)
        m = random_matrix(rng, q, n, k)
        assert min_distinguishing_weight(m).d_min == pairwise_d_min(m)


def test_witness_z_achieves_d_min():
    rng = random.Random(6)
    for _ in range(100):
        m = random_matrix(rng, rng.choice([2, 3]), rng.randint(2, 6), rng.randint(1, 6))
        report = min_distinguishing_weight(m)
        z = report.witness_z
        assert any(z)
        weight = sum(
            1 for row in m.rows
            if sum(row[j] * z[j] for j in range(m.n) if z[j]) != 0)
        assert weight == report.d_min


def test_capacity_limit():
    m = identity(4)
    with pytest.raises(CapacityError):
        min_distinguishing_weight(m, limit=3)
    with pytest.raises(CapacityError):
        decode_min_distance([(0, 0, 0, 0)], m, 0, limit=3)


def test_tolerates():
    assert tolerates(identity(3), 0)
    assert not tolerates(identity(3), 1)
    with pytest.raises(ValueError):
        tolerates(identity(3), -1)


@pytest.fixture(scope="module")
def oracles():
    """benchmarks/oracles.py, imported read-only (no bytecode written there)."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("oracles")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag


def weight(matrix: SignatureMatrix, z) -> int:
    """wt(M z) in Python integers."""
    return sum(1 for row in matrix.rows if sum(v * s for v, s in zip(row, z)))


def check_threshold_answers(matrix: SignatureMatrix, d_min: int) -> None:
    """at_most(w) for every w in 0..k+1 against a known d_min."""
    for w in range(matrix.k + 2):
        z = at_most(matrix, w)
        assert (z is None) == (d_min > w), (w, d_min, z)
        if z is not None:
            assert len(z) == matrix.n and any(z) and set(z) <= {-1, 0, 1}
            assert weight(matrix, z) <= w
            assert at_most(matrix, w) == z


@st.composite
def small_matrices(draw):
    # 2^62 makes n (q - 1) pass 2^63 from n = 3, where at_most's tables
    # hold Python integers.
    q = draw(st.sampled_from([2, 3, 4, 2 ** 62]))
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return SignatureMatrix(q=q, rows=tuple(map(tuple, rows)))


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_at_most_matches_the_walk_and_the_oracle(oracles, matrix):
    d_min = min_distinguishing_weight(matrix).d_min
    if matrix.q <= 4:  # the oracle holds entries in int32
        assert oracles.d_min(matrix.rows) == d_min
    check_threshold_answers(matrix, d_min)


@pytest.mark.parametrize("q, rows", [
    (3, ((0,), (2,))),                    # n = 1
    (2, ((0,),)),                         # n = 1, k = 1, zero column
    (3, ((1, 2, 2, 1),)),                 # k = 1
    (4, ((0, 0, 0), (0, 0, 0))),          # all zero: every z has weight 0
    (2 ** 62, ((2 ** 62 - 1, 1, 0), (0, 2 ** 62 - 1, 2 ** 62 - 1))),
])
def test_at_most_edge_cases(q, rows):
    matrix = SignatureMatrix(q=q, rows=rows)
    check_threshold_answers(matrix, min_distinguishing_weight(matrix).d_min)


def test_at_most_arguments():
    matrix = identity(4)
    # w >= k: any nonzero z qualifies
    assert at_most(matrix, 4) == at_most(matrix, 9) == (1, 0, 0, 0)
    for bad in (-1, 1.0, "2"):
        with pytest.raises(ValueError):
            at_most(matrix, bad)
    # The walk's 3^n limit and text, checked before any work, even for w >= k
    with pytest.raises(CapacityError) as walk:
        min_distinguishing_weight(matrix, limit=3)
    for w in (0, 9):
        with pytest.raises(CapacityError) as threshold:
            at_most(matrix, w, limit=3)
        assert str(threshold.value) == str(walk.value)
    assert at_most(matrix, 0, limit=4) is None


# One block of at_most's join holds DECODE_BLOCK // k pairs, two k-column
# int64 arrays of 8 MB each.  Joining all 3^12 pairs of the zero-row group
# below at once would take 89 MB per array.
PEAK_BOUND = 40 << 20


def peak_bytes(call):
    """call()'s result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_at_most_memory_is_bounded_by_blocks():
    # 16 row groups of 1-2 rows, 45,000 to 630,000 collisions each; the
    # witness proves d_min <= w, the walk's verdict
    matrix = random_matrix(random.Random(1), 3, 14, 20)
    z, peak = peak_bytes(lambda: at_most(matrix, 15))
    assert peak < PEAK_BOUND
    assert any(z) and weight(matrix, z) <= 15
    # the first group's 7 rows are zero, so all 3^12 pairs collide on it
    rows = ((0,) * 12,) * 7 + random_matrix(random.Random(4), 3, 12, 14).rows
    matrix = SignatureMatrix(q=3, rows=rows)
    z, peak = peak_bytes(lambda: at_most(matrix, 2))
    assert peak < PEAK_BOUND
    assert z is None and min_distinguishing_weight(matrix).d_min > 2


def test_decode_identity():
    m = identity(2)
    assert decode_min_distance([(1, 1)], m, 0) == [(1, 1)]
    assert decode_min_distance([(1, 0)], m, 0) == [(1, 0)]


def test_decode_round_trip_exhaustive():
    # Exhaustive (u, error support), error values cycling over {-2,-1,1,2},
    # on verified-tolerant matrices.
    rng = random.Random(13)
    values = [-2, -1, 1, 2]
    cases = 0
    for q, n, k, t in [(3, 4, 7, 1), (3, 2, 8, 2), (2, 3, 8, 1), (3, 6, 8, 1)]:
        matrix = None
        while matrix is None:
            cand = random_matrix(rng, q, n, k)
            if min_distinguishing_weight(cand).d_min >= 2 * t + 1:
                matrix = cand
        for u in product((0, 1), repeat=n):
            clean = encode(matrix, u)
            for size in range(t + 1):
                for support in combinations(range(k), size):
                    errors = {pos: values[(cases + i) % 4]
                              for i, pos in enumerate(support)}
                    received = apply_errors(clean, errors)
                    assert decode_min_distance([received], matrix, t) == [u]
                    cases += 1
    # 16*8 + 4*37 + 8*9 + 64*9 support/vector combinations across the codes
    assert cases == 924


def test_decode_ambiguity_is_raised():
    duplicated = SignatureMatrix(q=2, rows=((1, 1),))
    # (1,0) and (0,1) explain y = (1,) equally well
    [outcome] = decode_min_distance([(1,)], duplicated, 0)
    assert isinstance(outcome, AmbiguousDecoding)


def test_adversarial_witness_examples():
    w = adversarial_witness(identity(2), 1)
    assert w is not None
    y1 = apply_errors(encode(identity(2), w.u1), w.e1)
    y2 = apply_errors(encode(identity(2), w.u2), w.e2)
    assert y1 == y2
    assert adversarial_witness(identity(2), 0) is None
    duplicated = SignatureMatrix(q=2, rows=((1, 1), (1, 1)))
    w = adversarial_witness(duplicated, 0)
    assert w is not None and not w.e1 and not w.e2


def test_adversarial_witness_iff_not_tolerant():
    rng = random.Random(17)
    for _ in range(80):
        m = random_matrix(rng, rng.choice([2, 3]), rng.randint(2, 6), rng.randint(1, 7))
        for t in range(3):
            witness = adversarial_witness(m, t)
            assert (witness is None) == tolerates(m, t)
            if witness is not None:
                assert len(witness.e1) <= t and len(witness.e2) <= t
                assert witness.u1 != witness.u2
                y1 = apply_errors(encode(m, witness.u1), witness.e1)
                y2 = apply_errors(encode(m, witness.u2), witness.e2)
                assert y1 == y2


def test_simulate_round_deterministic_and_safe():
    rng = random.Random(23)
    matrix = None
    while matrix is None:
        cand = random_matrix(rng, 3, 4, 8)
        if tolerates(cand, 1):
            matrix = cand
    u = (1, 0, 1, 0)
    [first] = simulate_round(matrix, [u], 1, RANDOM_ERRORS, seed=[99])
    [second] = simulate_round(matrix, [u], 1, RANDOM_ERRORS, seed=[99])
    assert first == second
    assert first.success and len(first.errors) == 1
    # t = 0 always succeeds in any mode
    assert simulate_round(matrix, [u], 0, RANDOM_ERRORS, seed=[1])[0].success
    assert simulate_round(matrix, [u], 0, WORST_CASE_ERRORS, seed=[1])[0].success
    for seed in range(200):
        assert simulate_round(matrix, [u], 1, RANDOM_ERRORS, seed=[seed])[0].success


def test_simulate_round_worst_case_failure():
    [record] = simulate_round(identity(3), [(1, 1, 0)], 1, WORST_CASE_ERRORS, seed=[0])
    assert not record.success


def test_simulate_round_given_witness_skips_the_walk(monkeypatch):
    matrix = identity(3)
    [found] = simulate_round(matrix, [(1, 1, 0)], 0, WORST_CASE_ERRORS, seed=[3])
    walks = []
    monkeypatch.setattr(core, "adversarial_witness",
                        lambda *args: walks.append(args))
    # None is adversarial_witness's answer for a tolerant matrix, not "find it"
    [given] = simulate_round(matrix, [(1, 1, 0)], 0, WORST_CASE_ERRORS, seed=[3],
                             witness=None)
    assert given == found and given.note.startswith("no adversarial witness")
    assert walks == []


def test_simulate_round_bad_mode():
    with pytest.raises(ValueError):
        simulate_round(identity(2), [(1, 0)], 0, "gaussian", seed=[0])
