"""Exact arithmetic on q-ary generalized Pascal triangles.

The n-th row of the q-ary triangle holds the coefficients of
(1 + x + x^2 + ... + x^(q-1))^n, so it has n(q-1)+1 entries, sums to q^n,
and obeys the recurrence

    C(q; k, n) = sum_{j=0}^{q-1} C(q; k-j, n-1)

with out-of-range terms taken as 0.  For q = 2 this is the ordinary
binomial triangle.  All coefficients are exact Python integers; the
probabilities derived from them are exact rationals.  The two analytic
bounds (the multinomial bound and the central-coefficient bound) involve
pi and e; they are decided in integers against 40-digit brackets of both
constants, with a relative guard band before a violation is declared.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import NoCentralCoefficient, SigmacError

# Relative slack applied before declaring an analytic bound violated.  The
# brackets below leave no room for a false alarm from rounding; the band
# keeps each verdict what it was when the bounds were decided in floating point.
GUARD_BAND = 1e-9
_GUARD_NUM, _GUARD_DEN = GUARD_BAND.as_integer_ratio()

# floor and ceil of 10^40 * pi and of 10^40 * e
_PI = (31415926535897932384626433832795028841971, 31415926535897932384626433832795028841972)
_E = (27182818284590452353602874713526624977572, 27182818284590452353602874713526624977573)


def _at_most(lhs: int, pi_power: int, rhs: int, e_power: int = 0) -> bool:
    """Decide lhs * pi^pi_power <= rhs * (e/(e-1))^e_power * (1 + GUARD_BAND).

    With pi = P/10^40 and e = E/10^40, so e/(e-1) = E/(E - 10^40), this
    compares integers.  It holds if it holds at the brackets' unfavourable
    ends (pi high, e high), fails if it fails at their favourable ends (pi
    low, e low), and raises SigmacError if the two disagree.
    """
    lhs *= _GUARD_DEN
    right = rhs * (_GUARD_DEN + _GUARD_NUM) * 10 ** (40 * pi_power)
    (pi_low, pi_high), (e_low, e_high) = _PI, _E
    if lhs * pi_high ** pi_power * (e_high - 10 ** 40) ** e_power <= right * e_high ** e_power:
        return True
    if lhs * pi_low ** pi_power * (e_low - 10 ** 40) ** e_power > right * e_low ** e_power:
        return False
    raise SigmacError("an analytic bound lies within the 40-digit brackets of pi and e")


# Rows of each q-ary triangle computed so far, by q.  Rows are only ever
# appended and never mutated, so they are kept for the life of the process
# and _stored_row hands them out without copying.
_rows: dict[int, list[list[int]]] = {}


def _check_row(q: int, n: int) -> None:
    if q < 2:
        raise ValueError(f"alphabet size q must be >= 2, got {q}")
    if n < 0:
        raise ValueError(f"row index must be >= 0, got {n}")
    if n * (q - 1) >= sys.maxsize:
        raise ValueError("row n of the q-ary triangle has n*(q-1) + 1 entries, "
                         "more than a list can hold")


def _next_row(prev: list[int], q: int) -> list[int]:
    # Sliding window over the q parents of each entry,
    # new[k] = new[k-1] + prev[k] - prev[k-q], run over the first half only:
    # the row is a palindrome, so the second half holds the same int objects
    # in reverse order.
    size = len(prev) + q - 1
    half = (size + 1) // 2
    entering = prev[:half] + [0] * (half - len(prev))
    leaving = itertools.chain(itertools.repeat(0, q), prev)
    first = list(itertools.accumulate(map(operator.sub, entering, leaving)))
    return first + first[:size - half][::-1]


def _stored_row(q: int, n: int) -> list[int]:
    """Row n >= 0 itself, grown on demand; callers must not mutate it."""
    rows = _rows.get(q)
    if rows is None:
        _check_row(q, n)
        rows = _rows[q] = [[1]]
    while n >= len(rows):
        rows.append(_next_row(rows[-1], q))
    return rows[n]


@functools.lru_cache(maxsize=2)
def _row_product(q: int, a: int, b: int) -> int:
    """sum_k C(q; k, a) * C(q; k, b), read from the stored rows in place.

    Callers pass a <= b, so the sum runs over the shorter row a.  The memo
    holds two sums: enough for an identity sweep, which asks for the cross
    sum of rows n-j and n+j twice (convolution, then dominance) and for the
    square sum of row n once per j, and small enough that nothing builds up
    over a sweep.
    """
    return sum(map(operator.mul, _stored_row(q, a), _stored_row(q, b)))


def coefficient(q: int, k: int, n: int) -> int:
    """Coefficient of x^k in (1 + x + ... + x^(q-1))^n.

    Returns 0 when k lies outside [0, n(q-1)], matching the implicit
    zero-padding of the recurrence.  Raises ValueError for q < 2 or n < 0.
    """
    _check_row(q, n)
    if k < 0 or k > n * (q - 1):
        return 0
    return _stored_row(q, n)[k]


def row(q: int, n: int) -> list[int]:
    """The full n-th row, as a fresh list; length n(q-1)+1, entries summing to q^n."""
    _check_row(q, n)
    return list(_stored_row(q, n))


def central_coefficient(q: int, n: int) -> int:
    """The middle entry of row n, its maximum.

    Exists only when n(q-1) is even, i.e. unless n is odd and q is even;
    otherwise NoCentralCoefficient is raised.
    """
    width = n * (q - 1)
    if width % 2 != 0:
        raise NoCentralCoefficient(
            f"row n={n} of the {q}-ary triangle has an even number of entries"
        )
    return coefficient(q, width // 2, n)


class ConvolutionCheck(NamedTuple):
    holds: bool
    lhs: int
    rhs: int


def check_convolution_identity(q: int, n: int, j: int) -> ConvolutionCheck:
    """Check C(q; (n-j)(q-1), 2n) == sum_k C(q; k, n+j) * C(q; k, n-j).

    The identity comes from splitting (1+...+x^(q-1))^(2n) into the product
    of the (n+j)-th and (n-j)-th powers and reading off one coefficient via
    row symmetry.  It must always hold; a False result signals a bug in the
    coefficient computation, so this doubles as a self-test.
    """
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    lhs = _stored_row(q, 2 * n)[(n - j) * (q - 1)]
    rhs = _row_product(q, n - j, n + j)
    return ConvolutionCheck(lhs == rhs, lhs, rhs)


class DominanceCheck(NamedTuple):
    holds: bool
    equal: bool
    lhs: int
    rhs: int


def check_dominance(q: int, n: int, j: int) -> DominanceCheck:
    """Compare sum_k C(q; k, n)^2 against sum_k C(q; k, n+j)*C(q; k, n-j).

    The squared sum dominates, with equality exactly at j = 0 (both sides
    then equal the central coefficient of row 2n).
    """
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    # The cross sum first: a sweep has just computed it for the convolution
    # check, and the square sum, used last, then stays in the memo for j+1.
    rhs = _row_product(q, n - j, n + j)
    lhs = _row_product(q, n, n)
    return DominanceCheck(lhs >= rhs, lhs == rhs, lhs, rhs)


def multinomial(counts: list[int]) -> int:
    """Exact multinomial (sum counts)! / prod(count_i!)."""
    if any(a < 0 for a in counts):
        raise ValueError("multinomial parts must be nonnegative")
    total = sum(counts)
    result = math.factorial(total)
    for a in counts:
        result //= math.factorial(a)
    return result


def check_multinomial_bound(counts: list[int]) -> bool:
    """Check the Stirling-type upper bound on a multinomial.

    With A = sum of the (positive) parts a_1..a_m, verifies

        multinomial <= (2*pi)^(-(m-1)/2) * A^(A+1/2) / prod a_i^(a_i+1/2).

    Zero parts are stripped first since they leave the multinomial
    unchanged.  Squaring both sides turns everything except pi^(m-1) into
    exact integers; a violation is declared only beyond GUARD_BAND.
    """
    parts = [a for a in counts if a != 0]
    if not parts:
        raise ValueError("need at least one positive part")
    if any(a < 0 for a in parts):
        raise ValueError("multinomial parts must be nonnegative")
    m = len(parts)
    total = sum(parts)
    # bound  <=>  multinomial^2 * 2^(m-1) * prod a_i^(2a_i+1) * pi^(m-1) <= A^(2A+1),
    # with multinomial^2 = A!^2 / (prod a_i!)^2, a whole number
    factorials = math.prod(map(math.factorial, parts))
    lhs = (math.factorial(total) ** 2 << (m - 1)) \
        * math.prod(a ** (2 * a + 1) for a in parts) // (factorials * factorials)
    return _at_most(lhs, m - 1, total ** (2 * total + 1))


class CentralBoundsCheck(NamedTuple):
    power_bound: bool   # central <= q^(n-1)
    sqrt_bound: bool    # central <= q^(n+1) / sqrt(n) * c_q
    central: int


def check_central_bounds(q: int, n: int) -> CentralBoundsCheck:
    """Check both upper bounds on the central coefficient of row n.

    The first bound (central <= q^(n-1)) is exact integer arithmetic.  The
    second (central <= q^(n+1)/sqrt(n) * c_q, with
    c_q = 1/2 (2/pi)^((q-1)/2) e/(e-1)) is checked by squaring, which
    leaves pi^(q-1) and (e/(e-1))^2 as the only irrational factors.

    Checked at every q <= 27 and n <= 60, the second bound holds; it fails at
    q = 28, n = 2 and at some n <= 5 for each q from 29 to 40 (q = 31, n = 1:
    central 1, bound about 0.87), as c_q falls geometrically in q.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    central = central_coefficient(q, n)
    power_bound = central <= q ** (n - 1)
    # squared form: central^2 * n * pi^(q-1) <= q^(2n+2) * (1/2)^2 * 2^(q-1) * (e/(e-1))^2
    sqrt_bound = _at_most(4 * central * central * n, q - 1, q ** (2 * n + 2) * 2 ** (q - 1), 2)
    return CentralBoundsCheck(power_bound, sqrt_bound, central)


def zero_dot_probability(q: int, w_plus: int, w_minus: int) -> Fraction:
    """Exact probability that a random q-ary row is orthogonal to a sign pattern.

    For a row r drawn uniformly from {0,...,q-1}^(w_plus+w_minus), this is
    the probability that the sum over the w_plus "+1" coordinates equals the
    sum over the w_minus "-1" coordinates.  The numerator counts, via the
    convolution identity, the pairs of partial sums that coincide:
    sum_k C(q; k, w_plus) * C(q; k, w_minus).  The denominator is
    q^(w_plus + w_minus).  Requires w_plus + w_minus >= 1.
    """
    if w_plus < 0 or w_minus < 0:
        raise ValueError("weights must be nonnegative")
    if w_plus + w_minus == 0:
        raise ValueError("need w_plus + w_minus >= 1")
    numerator = _row_product(q, *sorted((w_plus, w_minus)))
    return Fraction(numerator, q ** (w_plus + w_minus))
