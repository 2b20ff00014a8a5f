"""Triangle coefficients against independent polynomial/enumeration oracles."""

from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmac import cli, pascal
from sigmac.errors import NoCentralCoefficient, SigmacError

# Rows frozen from the standard q=2 and q=3 triangles.
BINARY_ROWS = [
    [1],
    [1, 1],
    [1, 2, 1],
    [1, 3, 3, 1],
    [1, 4, 6, 4, 1],
    [1, 5, 10, 10, 5, 1],
    [1, 6, 15, 20, 15, 6, 1],
]
TERNARY_ROWS = [
    [1],
    [1, 1, 1],
    [1, 2, 3, 2, 1],
    [1, 3, 6, 7, 6, 3, 1],
    [1, 4, 10, 16, 19, 16, 10, 4, 1],
    [1, 5, 15, 30, 45, 51, 45, 30, 15, 5, 1],
]


def expand_polynomial_power(q: int, n: int) -> list[int]:
    """Coefficients of (1 + x + ... + x^(q-1))^n by direct multiplication.

    Independent oracle: never touches the recurrence under test.
    """
    coeffs = [1]
    base = [1] * q
    for _ in range(n):
        out = [0] * (len(coeffs) + q - 1)
        for i, a in enumerate(coeffs):
            for j in range(q):
                out[i + j] += a
        coeffs = out
    return coeffs


def zero_dot_bruteforce(q: int, w_plus: int, w_minus: int) -> Fraction:
    """Enumerate all q^(w+ + w-) rows and count the orthogonal ones."""
    hits = 0
    for values in product(range(q), repeat=w_plus + w_minus):
        if sum(values[:w_plus]) == sum(values[w_plus:]):
            hits += 1
    return Fraction(hits, q ** (w_plus + w_minus))


def reference_convolution(q: int, n: int, j: int) -> pascal.ConvolutionCheck:
    """check_convolution_identity as first written: fresh rows, index loop."""
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    lhs = pascal.coefficient(q, (n - j) * (q - 1), 2 * n)
    upper, other = pascal.row(q, n - j), pascal.row(q, n + j)
    rhs = sum(other[k] * upper[k] for k in range(len(upper)))
    return pascal.ConvolutionCheck(lhs == rhs, lhs, rhs)


def reference_dominance(q: int, n: int, j: int) -> pascal.DominanceCheck:
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    lhs = sum(c * c for c in pascal.row(q, n))
    short, other = pascal.row(q, n - j), pascal.row(q, n + j)
    rhs = sum(other[k] * short[k] for k in range(len(short)))
    return pascal.DominanceCheck(lhs >= rhs, lhs == rhs, lhs, rhs)


def reference_zero_dot(q: int, w_plus: int, w_minus: int) -> Fraction:
    lo, hi = sorted((w_plus, w_minus))
    short, other = pascal.row(q, lo), pascal.row(q, hi)
    numerator = sum(other[k] * short[k] for k in range(len(short)))
    return Fraction(numerator, q ** (w_plus + w_minus))


def test_frozen_rows_match():
    for n, expected in enumerate(BINARY_ROWS):
        assert pascal.row(2, n) == expected
    for n, expected in enumerate(TERNARY_ROWS):
        assert pascal.row(3, n) == expected


def test_rows_match_polynomial_expansion():
    for q in range(2, 7):
        for n in range(13):
            assert pascal.row(q, n) == expand_polynomial_power(q, n)


def test_row_sums_and_symmetry():
    for q in range(2, 7):
        for n in range(13):
            r = pascal.row(q, n)
            assert len(r) == n * (q - 1) + 1
            assert sum(r) == q ** n
            assert r == r[::-1]


def test_coefficient_examples_and_out_of_range():
    assert pascal.coefficient(3, 4, 4) == 19
    assert pascal.coefficient(2, 3, 6) == 20
    assert pascal.coefficient(5, -1, 3) == 0
    assert pascal.coefficient(2, 7, 6) == 0
    with pytest.raises(ValueError):
        pascal.coefficient(1, 0, 0)
    with pytest.raises(ValueError):
        pascal.coefficient(3, 0, -1)


def test_quaternary_row_three():
    # (1+x+x^2+x^3)^3 expanded by the oracle
    expected = expand_polynomial_power(4, 3)
    assert expected == [1, 3, 6, 10, 12, 12, 10, 6, 3, 1]
    assert pascal.row(4, 3) == expected
    assert sum(pascal.row(4, 3)) == 64


def test_central_coefficient():
    assert pascal.central_coefficient(3, 4) == 19
    assert pascal.central_coefficient(2, 6) == 20
    with pytest.raises(NoCentralCoefficient):
        pascal.central_coefficient(2, 1)
    for q in range(2, 7):
        for n in range(13):
            if (n * (q - 1)) % 2 == 0:
                assert pascal.central_coefficient(q, n) == max(pascal.row(q, n))


def test_convolution_identity_examples():
    check = pascal.check_convolution_identity(3, 2, 1)
    assert check.holds and check.lhs == 10 and check.rhs == 1 * 1 + 3 * 1 + 6 * 1
    check = pascal.check_convolution_identity(3, 2, 0)
    assert check.holds and check.lhs == 19
    assert pascal.check_convolution_identity(4, 5, 2).holds
    with pytest.raises(ValueError):
        pascal.check_convolution_identity(3, 2, 3)


def test_convolution_identity_sweep():
    for q in range(2, 6):
        for n in range(11):
            for j in range(n + 1):
                assert pascal.check_convolution_identity(q, n, j).holds


def test_dominance():
    check = pascal.check_dominance(3, 2, 0)
    assert check.holds and check.equal and check.lhs == 19
    check = pascal.check_dominance(3, 2, 1)
    assert check.holds and not check.equal and check.lhs == 19 and check.rhs == 10
    check = pascal.check_dominance(2, 6, 3)
    assert check.holds and not check.equal
    for q in range(2, 6):
        for n in range(9):
            for j in range(n + 1):
                check = pascal.check_dominance(q, n, j)
                assert check.holds
                assert check.equal == (j == 0)


def test_multinomial():
    assert pascal.multinomial([2, 1, 1]) == 12
    assert pascal.multinomial([0, 0, 5]) == 1
    assert pascal.multinomial([3, 3]) == 20 == pascal.coefficient(2, 3, 6)
    assert pascal.multinomial([1, 1]) == 2
    with pytest.raises(ValueError):
        pascal.multinomial([2, -1])


def test_multinomial_bound_examples():
    # 2 <= (1/sqrt(2*pi)) * 2^2.5 ~ 2.26
    assert pascal.check_multinomial_bound([1, 1])
    # single part: both sides equal
    assert pascal.check_multinomial_bound([5])
    assert pascal.check_multinomial_bound([4, 4, 4])
    assert pascal.check_multinomial_bound([0, 3, 0, 2])
    with pytest.raises(ValueError):
        pascal.check_multinomial_bound([])
    with pytest.raises(ValueError):
        pascal.check_multinomial_bound([0, 0])


def test_multinomial_bound_sweep():
    for length in range(1, 5):
        for parts in product(range(1, 7), repeat=length):
            assert pascal.check_multinomial_bound(list(parts)), parts


def mpmath_multinomial_bound(counts: list[int]) -> bool:
    """check_multinomial_bound as first written, at adaptive mpmath precision."""
    parts = [a for a in counts if a != 0]
    m = len(parts)
    total = sum(parts)
    coef = pascal.multinomial(parts)
    lhs_int = coef * coef * (2 ** (m - 1))
    for a in parts:
        lhs_int *= a ** (2 * a + 1)
    rhs_int = total ** (2 * total + 1)
    if m == 1:
        return lhs_int <= rhs_int
    prec = max(lhs_int.bit_length(), rhs_int.bit_length()) + 64
    with mpmath.workprec(prec):
        lhs = mpmath.mpf(lhs_int) * mpmath.pi ** (m - 1)
        return lhs <= mpmath.mpf(rhs_int) * (1 + pascal.GUARD_BAND)


def test_sqrt_central_bound_holds_up_to_q_27():
    """The range check_central_bounds' docstring states: the sqrt bound holds at q <= 27
    for n <= 60, fails at q = 28 only at n = 2, and at some n <= 5 for q = 29..40."""
    def failures(q, nmax):
        return [n for n in range(1, nmax + 1) if n * (q - 1) % 2 == 0
                and not pascal.check_central_bounds(q, n).sqrt_bound]

    assert all(failures(q, 60) == [] for q in range(2, 28))
    assert failures(28, 60) == [2]
    assert all(failures(q, 5) for q in range(29, 41))
    check = pascal.check_central_bounds(31, 1)
    assert check.central == 1 and check.power_bound and not check.sqrt_bound


def mpmath_central_sqrt_bound(q: int, n: int) -> bool:
    """The sqrt bound of check_central_bounds as first written."""
    central = pascal.central_coefficient(q, n)
    lhs_int = central * central * n
    rhs_int = q ** (2 * n + 2) * 2 ** (q - 1)
    prec = max(lhs_int.bit_length(), rhs_int.bit_length()) + 64
    with mpmath.workprec(prec):
        ratio = mpmath.e / (mpmath.e - 1)
        lhs = mpmath.mpf(lhs_int) * mpmath.pi ** (q - 1)
        rhs = mpmath.mpf(rhs_int) * ratio * ratio / 4
        return bool(lhs <= rhs * (1 + pascal.GUARD_BAND))


def reference_multinomial_bound(counts: list[int]) -> bool:
    """check_multinomial_bound as written before its one-pass form: via multinomial()."""
    parts = [a for a in counts if a != 0]
    if not parts:
        raise ValueError("need at least one positive part")
    m = len(parts)
    total = sum(parts)
    coef = pascal.multinomial(parts)
    lhs = coef * coef * 2 ** (m - 1)
    for a in parts:
        lhs *= a ** (2 * a + 1)
    return pascal._at_most(lhs, m - 1, total ** (2 * total + 1))


def test_one_pass_multinomial_bound_matches_the_reference(monkeypatch):
    # The bound holds for every composition, so a verdict alone would not
    # tell a wrong lhs apart: the integers each check hands to _at_most are
    # compared too.  The reference strips zeros and multiplies, so what it
    # decides depends only on the multiset of nonzero parts: it runs once
    # per multiset, and the one-pass check on every composition.
    decided = [None]  # the last call's arguments and verdict
    at_most = pascal._at_most

    def recording_at_most(*args):
        decided[0] = (args, at_most(*args))
        return decided[0][1]

    monkeypatch.setattr(pascal, "_at_most", recording_at_most)
    reference: dict[tuple[int, ...], tuple] = {}
    compositions = 0
    for length in range(1, 6):
        for parts in product(range(13), repeat=length):
            compositions += 1
            key = tuple(sorted(a for a in parts if a))
            if not key:
                for check in (pascal.check_multinomial_bound, reference_multinomial_bound):
                    with pytest.raises(ValueError):
                        check(list(parts))
                continue
            if key not in reference:
                reference_multinomial_bound(list(key))
                reference[key] = decided[0]
            assert pascal.check_multinomial_bound(list(parts)) == reference[key][1], parts
            assert decided[0] == reference[key], parts
    assert (compositions, len(reference)) == (sum(13 ** n for n in range(1, 6)), 6187)
    for bad in ([-1], [0, 2, -3]):
        with pytest.raises(ValueError, match="nonnegative"):
            pascal.check_multinomial_bound(bad)


def test_brackets_strictly_enclose_pi_and_e():
    with mpmath.workdps(60):
        for (low, high), constant in ((pascal._PI, mpmath.pi), (pascal._E, mpmath.e)):
            assert high == low + 1
            assert low < constant * 10 ** 40 < high


def test_bound_verdicts_match_mpmath():
    multinomial_cases = [list(parts) for length in range(1, 6)
                         for parts in product(range(1, 8), repeat=length)]
    central_cases = [(q, n) for q in range(2, 12) for n in range(1, 90)
                     if (n * (q - 1)) % 2 == 0]
    assert (len(multinomial_cases), len(central_cases)) == (19607, 665)
    for parts in multinomial_cases:
        assert pascal.check_multinomial_bound(parts) == mpmath_multinomial_bound(parts), parts
    for q, n in central_cases:
        assert pascal.check_central_bounds(q, n).sqrt_bound == \
            mpmath_central_sqrt_bound(q, n), (q, n)


def test_at_most_fails_and_refuses_inside_the_brackets():
    # pi > 3 and (e/(e-1))^2 = 2.5027 < 51/20, both far outside the band
    assert not pascal._at_most(1, 1, 3)
    assert not pascal._at_most(51, 0, 20, 2)
    assert pascal._at_most(5, 0, 2, 2)
    # rhs * (1 + GUARD_BAND) / lhs is pi at its low end, so the true pi
    # fails the bound but the low end passes it
    num, den = pascal.GUARD_BAND.as_integer_ratio()
    with pytest.raises(SigmacError):
        pascal._at_most(10 ** 40 * (den + num), 1, pascal._PI[0] * den)
    # lhs / (rhs * (1 + GUARD_BAND)) is e/(e-1) at e's low end
    e_low = pascal._E[0]
    with pytest.raises(SigmacError):
        pascal._at_most(e_low * (den + num), 0, (e_low - 10 ** 40) * den, 1)


def test_central_bounds():
    check = pascal.check_central_bounds(3, 4)
    assert check.power_bound and check.sqrt_bound and check.central == 19
    assert pascal.check_central_bounds(3, 2).central == 3
    check = pascal.check_central_bounds(2, 10)
    assert check.central == 252 and check.power_bound  # 252 <= 512
    for q in range(2, 7):
        for n in range(1, 21):
            if (n * (q - 1)) % 2 == 0:
                check = pascal.check_central_bounds(q, n)
                assert check.power_bound, (q, n)
                assert check.sqrt_bound, (q, n)


def test_zero_dot_probability_examples():
    # exact: a float 0.5 would pass the comparison below
    assert type(pascal.zero_dot_probability(2, 1, 1)) is Fraction
    assert pascal.zero_dot_probability(2, 1, 1) == Fraction(1, 2)
    assert pascal.zero_dot_probability(3, 1, 1) == Fraction(1, 3)
    assert pascal.zero_dot_probability(3, 2, 0) == Fraction(1, 9)
    with pytest.raises(ValueError):
        pascal.zero_dot_probability(3, 0, 0)


def test_zero_dot_probability_matches_enumeration():
    for q in (2, 3, 4):
        for w_plus in range(0, 5):
            for w_minus in range(0, 5):
                if w_plus + w_minus == 0 or w_plus + w_minus > 8:
                    continue
                got = pascal.zero_dot_probability(q, w_plus, w_minus)
                assert got == zero_dot_bruteforce(q, w_plus, w_minus)


def test_zero_dot_probability_balanced_is_largest():
    for q in (2, 3, 4):
        for total in range(1, 11):
            balanced = pascal.zero_dot_probability(q, (total + 1) // 2, total // 2)
            for a in range(total + 1):
                value = pascal.zero_dot_probability(q, a, total - a)
                assert value <= balanced
                assert value <= Fraction(1, q)


def test_row_store_is_shared_and_never_mutated():
    # a row handed out is a copy: changing it leaves the stored row intact
    handed_out = pascal.row(3, 8)
    assert handed_out == expand_polynomial_power(3, 8)
    handed_out[4] = -1
    assert pascal.row(3, 8) == expand_polynomial_power(3, 8)
    assert pascal.coefficient(3, 4, 8) == expand_polynomial_power(3, 8)[4]
    assert pascal._stored_row(3, 8) is pascal._stored_row(3, 8)
    for bad in ((1, 0), (0, 3), (3, -1)):
        with pytest.raises(ValueError):
            pascal.row(*bad)
        with pytest.raises(ValueError):
            pascal.coefficient(bad[0], 0, bad[1])
    # an out-of-range k is 0 before any row is built
    pascal._rows.pop(11, None)
    assert pascal.coefficient(11, 500, 4) == 0 and 11 not in pascal._rows
    with pytest.raises(ValueError):
        pascal.check_dominance(1, 2, 1)


def test_stored_rows_keep_each_distinct_value_once():
    for q in range(2, 9):
        for n in range(41):
            stored = pascal._stored_row(q, n)
            size = len(stored)
            assert stored == expand_polynomial_power(q, n), (q, n)
            # the two halves of the palindrome share their int objects
            assert all(stored[k] is stored[size - 1 - k] for k in range(size)), (q, n)
            assert len({id(c) for c in stored}) <= (size + 1) // 2, (q, n)


CALLS = {
    "convolution": (pascal.check_convolution_identity, reference_convolution),
    "dominance": (pascal.check_dominance, reference_dominance),
    "zero-dot": (pascal.zero_dot_probability, reference_zero_dot),
}


@settings(max_examples=200, deadline=None)
@given(calls=st.lists(st.tuples(st.sampled_from(sorted(CALLS)), st.integers(2, 8),
                                st.integers(0, 40), st.integers(0, 40)), max_size=12))
# the same rows under two alphabets, and both orders of one pair of weights
@example(calls=[("convolution", 2, 5, 2), ("convolution", 3, 5, 2), ("dominance", 2, 5, 2)])
@example(calls=[("zero-dot", 3, 3, 7), ("zero-dot", 3, 7, 3), ("zero-dot", 4, 3, 7)])
@example(calls=[("dominance", 5, 6, 1), ("dominance", 5, 6, 2), ("dominance", 6, 6, 2)])
def test_checks_match_the_reference_in_any_call_order(calls):
    for name, q, n, b in calls:
        check, reference = CALLS[name]
        # a sweep's j runs over 0..n; the zero-dot weights are any pair but (0, 0)
        args = (q, n, b % (n + 1)) if name != "zero-dot" else (q, n, b if n or b else 1)
        assert check(*args) == reference(*args), (name, args)


def test_a_repeated_sweep_computes_every_row_product_again(capsys):
    # one product per row pair: per (q, n), the n + 1 cross sums of rows
    # n - j and n + j, the j = 0 one being row n's square sum
    qmax, nmax = 4, 8
    per_sweep = (qmax - 1) * (nmax + 1) * (nmax + 2) // 2
    pascal._row_product.cache_clear()
    products = []
    for _ in range(2):
        before = pascal._row_product.cache_info().misses
        assert cli.main(["pascal", "--identity-sweep", "--qmax", str(qmax),
                         "--nmax", str(nmax)]) == 0
        products.append(pascal._row_product.cache_info().misses - before)
    assert products == [per_sweep, per_sweep]
    assert pascal._row_product.cache_info().currsize <= 2
    capsys.readouterr()


def test_a_corrupted_stored_entry_fails_the_sweep(capsys, monkeypatch):
    # Rows 0..6 of q=3 hold every row a sweep to nmax 3 reads.  Raising
    # C(3; 1, 3) from 3 to 103, one side of its mirrored pair with k=5,
    # breaks the cross sum of rows 1 and 3 (110 against C(3; 2, 4) = 10,
    # and above row 2's square sum 19) and the square sum of row 3
    # (10741 against C(3; 6, 6) = 141); no other (q, n, j) reads that entry.
    rows = [list(r) for r in (pascal._stored_row(3, n) for n in range(7))]
    rows[3][1] = 103
    pascal._row_product.cache_clear()
    monkeypatch.setitem(pascal._rows, 3, rows)
    try:
        code = cli.main(["pascal", "--identity-sweep", "--qmax", "3", "--nmax", "3"])
    finally:
        pascal._row_product.cache_clear()  # no product of the corrupted rows outlives the test
    assert code == 1
    assert capsys.readouterr() == (
        "identity sweep: 824 checks, 3 failures\n",
        "FAIL convolution q=3 n=2 j=1: 10 != 110\n"
        "FAIL dominance q=3 n=2 j=1\n"
        "FAIL convolution q=3 n=3 j=0: 141 != 10741\n")
    monkeypatch.undo()
    assert pascal._stored_row(3, 3) == TERNARY_ROWS[3]
    assert cli.main(["pascal", "--identity-sweep", "--qmax", "3", "--nmax", "3"]) == 0
    assert capsys.readouterr().out == "identity sweep: 824 checks, 0 failures\n"
