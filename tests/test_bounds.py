"""Bound evaluators against high-precision reference arithmetic."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from sigmac import bounds
from sigmac.bounds import (
    ConstantT,
    LinearTau,
    achievable_random,
    bound_table,
    bound_table_csv,
    converse_binary,
    explicit_rs_length,
    kronecker_length,
    max_correctable_fraction,
    pairwise_counting_check,
)
from sigmac.core import SignatureMatrix


def reference_converse(n, tau=None, t=None):
    with mpmath.workdps(50):
        log_n = mpmath.log(n, 2)
        if tau is not None:
            return float(2 * n / ((1 - mpmath.mpf(tau)) * log_n))
        return float(2 * n / log_n + t * (1 + 4 / log_n))


def reference_random(n, q, tau=None, t=None):
    with mpmath.workdps(50):
        denom = mpmath.log(n, 2) + (q - 1) * mpmath.log(mpmath.pi / 2, 2)
        base = 2 * n * mpmath.log(3, 2) / denom
        if tau is not None:
            return float(base / (1 - 2 * mpmath.mpf(tau)))
        return float(base + 2 * t + 1)


def test_converse_binary_values():
    assert converse_binary(2 ** 10, ConstantT(0)) == pytest.approx(204.8)
    # t = 0 and tau = 0 coincide
    assert converse_binary(2 ** 10, ConstantT(0)) == converse_binary(2 ** 10, LinearTau(0.0))
    assert converse_binary(2 ** 10, LinearTau(1.0)) == math.inf
    for n in (2 ** 10, 2 ** 14, 100):
        for t in (0, 3, 10):
            got = converse_binary(n, ConstantT(t))
            assert got == pytest.approx(reference_converse(n, t=t), rel=1e-12)
        for tau in (0.0, 0.1, 0.5):
            got = converse_binary(n, LinearTau(tau))
            assert got == pytest.approx(reference_converse(n, tau=tau), rel=1e-12)
    with pytest.raises(ValueError):
        converse_binary(1, ConstantT(0))
    with pytest.raises(ValueError):
        converse_binary(1024, LinearTau(1.5))


def test_max_correctable_fraction():
    assert max_correctable_fraction(2) == Fraction(1, 4)
    assert max_correctable_fraction(3) == Fraction(1, 3)
    previous = Fraction(0)
    for q in range(2, 50):
        value = max_correctable_fraction(q)
        assert previous < value < Fraction(1, 2)
        previous = value
    with pytest.raises(ValueError):
        max_correctable_fraction(1)


def test_achievable_random_values():
    for n in (2 ** 10, 2 ** 14):
        for q in (2, 3, 5):
            for tau in (0.0, 0.1):
                got = achievable_random(n, q, LinearTau(tau))
                assert got == pytest.approx(reference_random(n, q, tau=tau), rel=1e-12)
            for t in (0, 2):
                got = achievable_random(n, q, ConstantT(t))
                assert got == pytest.approx(reference_random(n, q, t=t), rel=1e-12)
    # monotone increasing in tau below the threshold
    values = [achievable_random(512, 3, LinearTau(tau))
              for tau in (0.0, 0.1, 0.2, 0.3)]
    assert values == sorted(values) and len(set(values)) == len(values)
    with pytest.raises(ValueError):
        achievable_random(512, 3, LinearTau(Fraction(1, 3)))


def test_explicit_rs_and_kronecker_lengths():
    n = 2 ** 10
    value = explicit_rs_length(n, ConstantT(2))
    assert value == pytest.approx(2 * n / 10 + 2 * 2 * 11)  # q_RS = 1031, 11 bits
    assert explicit_rs_length(n, LinearTau(0.4)) == math.inf
    assert kronecker_length(n) == pytest.approx(8 * 2 * math.log2(3) * n / math.log2(10))
    assert kronecker_length(2) == math.inf


@pytest.mark.parametrize("evaluate, name", [
    (lambda big: converse_binary(big, ConstantT(1)), "n"),
    (lambda big: achievable_random(big, 2, ConstantT(1)), "n"),
    (lambda big: achievable_random(16, big, ConstantT(1)), "q"),
    (lambda big: explicit_rs_length(big, ConstantT(1)), "n"),
    (lambda big: kronecker_length(big), "n"),
    (lambda big: ConstantT(big), "t"),
])
def test_an_input_past_the_largest_float_is_refused_by_name(evaluate, name):
    with pytest.raises(ValueError) as refused:
        evaluate(10 ** 400)
    assert str(refused.value) == f"{name} is too large for the floating-point length bounds"


def test_inputs_up_to_the_largest_float_give_numbers_not_overflows():
    # every input is scaled as a float, so 2t, 2n and their sums reach inf, not an OverflowError
    t, n = ConstantT(10 ** 308), 10 ** 308
    assert converse_binary(16, t) == achievable_random(16, 2, t) == math.inf
    assert explicit_rs_length(16, t) == math.inf
    assert achievable_random(n, 2, ConstantT(0)) == math.inf
    assert converse_binary(n, ConstantT(0)) == pytest.approx(2 * 1e308 / math.log2(1e308))
    with pytest.raises(ValueError, match="^n is too large: the field needs a prime above n, "
                                         "beyond the exact primality test$"):
        explicit_rs_length(n, ConstantT(0))


def test_pairwise_counting_identity_examples():
    identity2 = SignatureMatrix(q=2, rows=((1, 0), (0, 1)))
    check = pairwise_counting_check(identity2, Fraction(0))
    assert check.identity_holds
    assert check.pairwise_sum == 2 == check.row_census_sum
    flat = SignatureMatrix(q=3, rows=((2, 2, 2), (1, 1, 1)))
    check = pairwise_counting_check(flat, Fraction(0))
    assert check.pairwise_sum == 0
    assert not check.inequality_holds  # 0 < 0 is false


def test_pairwise_counting_identity_random():
    rng = random.Random(8)
    for _ in range(150):
        q = rng.randint(2, 4)
        n = rng.randint(2, 8)
        k = rng.randint(1, 8)
        matrix = SignatureMatrix(
            q=q, rows=tuple(tuple(rng.randrange(q) for _ in range(n))
                            for _ in range(k)))
        check = pairwise_counting_check(matrix, Fraction(1, 10))
        assert check.identity_holds
        # cross-check the pairwise sum by definition
        direct = 0
        for a in range(n):
            for b in range(a + 1, n):
                direct += sum(1 for row in matrix.rows if row[a] != row[b])
        assert check.pairwise_sum == direct


def test_bound_table_and_csv():
    reports = bound_table([2 ** 10, 2 ** 12], [2, 3], LinearTau(0.0))
    assert len(reports) == 4
    for r in reports:
        assert r.omitted_terms
        assert r.nonexistence_threshold < Fraction(1, 2)
        # at these sizes the converse stays below the random achievability
        assert r.converse_binary_k < r.achievable_random_k
    csv = bound_table_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0] == bounds.CSV_HEADER
    assert len(lines) == 5
    assert lines[1].startswith("1024,2,linear-tau,")
    assert bound_table([], [2], ConstantT(0)) == []
    single = bound_table([64], [4], ConstantT(1))
    assert len(single) == 1
    blob = single[0].to_json()
    assert blob["nonexistence_threshold"] == [3, 8]
    assert blob["omitted_terms"]


def test_small_n_inconsistency_is_flagged():
    # tiny n, large q: dropped O(.) terms dominate and the binary converse
    # crosses above the q-ary achievability value
    reports = bound_table([4], [5], ConstantT(0))
    assert reports[0].inconsistent_at_scale
    assert not bound_table([1024], [2], ConstantT(0))[0].inconsistent_at_scale
