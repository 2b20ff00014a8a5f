"""Closed-form length bounds and the pairwise-distance counting check.

All logarithms are base 2.  Every evaluator returns only the closed-form
leading terms; the asymptotic correction terms that the underlying analysis
absorbs into O(.) notation are not computable from their statements, so
each report lists them explicitly in `omitted_terms` instead of silently
dropping them.  Small-n comparisons between converse and achievability
columns are therefore indicative only, and rows where they cross are
flagged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .core import SignatureMatrix
from .linear import smallest_prime_above

LOG2_3 = math.log2(3.0)
LOG2_PI_HALF = math.log2(math.pi / 2.0)


def _float(name: str, value: int) -> float:
    """An input as a float before it is scaled, so a sum or product past the largest
    float is inf; an input past it is refused by name, without its digits."""
    if value > sys.float_info.max:
        raise ValueError(f"{name} is too large for the floating-point length bounds")
    return float(value)


@dataclass(frozen=True)
class ConstantT:
    """Error budget fixed at t symbols, independent of the code length."""
    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be >= 0")
        _float("t", self.t)

    def describe(self) -> tuple[str, float]:
        return "constant-t", float(self.t)


@dataclass(frozen=True)
class LinearTau:
    """Error budget growing linearly with the code length: t = tau * k.

    tau may be a float or an exact Fraction; exact values make the
    nonexistence-threshold comparison exact.
    """
    tau: object

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")

    def describe(self) -> tuple[str, float]:
        return "linear-tau", float(self.tau)


TMode = Union[ConstantT, LinearTau]

CONVERSE_OMITTED = "O(n*log(log(n))/log(n)^2) subtracted term"
RANDOM_OMITTED = "O(n/(log(n)*(q+log(n)))) added term"
RS_OMITTED = "O(n*log(log(n))/log(n)^2) term inside k_lin"
KRONECKER_OMITTED = "constant-factor slack of k = O(n/log(log(n)))"


def converse_binary(n: int, t_mode: TMode) -> float:
    """Lower bound on the length of any binary signature code.

    Constant budget: 2n/log(n) + t*(1 + 4/log(n)).  Linear budget tau:
    2n/((1-tau)*log(n)), diverging (inf) as tau -> 1.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    log_n = math.log2(n)
    if isinstance(t_mode, ConstantT):
        return 2 * _float("n", n) / log_n + t_mode.t * (1 + 4 / log_n)
    if t_mode.tau > 1:
        raise ValueError("tau must be <= 1 for the converse")
    if t_mode.tau == 1:
        return math.inf
    return 2 * _float("n", n) / ((1 - float(t_mode.tau)) * log_n)


def max_correctable_fraction(q: int) -> Fraction:
    """No q-ary signature code corrects more than this fraction of its length."""
    if q < 2:
        raise ValueError("need q >= 2")
    return Fraction(q - 1, 2 * q)


@dataclass(frozen=True)
class PairwiseCountingCheck:
    identity_holds: bool      # column-pair sum equals the row-census form
    inequality_holds: bool    # C(n,2) * 2*tau*k < pairwise sum
    pairwise_sum: int
    row_census_sum: int
    threshold: Fraction


def pairwise_counting_check(matrix: SignatureMatrix, tau) -> PairwiseCountingCheck:
    """Double-counting identity behind the nonexistence bound.

    Sums wt(column_i - column_j) over all unordered column pairs two ways:
    directly, and per row as (1/2) * sum_l w_l * (n - w_l) where w_l counts
    the occurrences of symbol l in the row.  The two must match exactly.
    Also evaluates whether C(n,2) * (2 * tau * k) stays below that sum,
    which any code tolerating tau*k errors must satisfy.
    """
    n, k, q = matrix.n, matrix.k, matrix.q
    cols = [matrix.column(j) for j in range(n)]
    pairwise = 0
    for a in range(n):
        ca = cols[a]
        for b in range(a + 1, n):
            cb = cols[b]
            pairwise += sum(1 for x, y in zip(ca, cb) if x != y)
    census_double = 0
    for row in matrix.rows:
        counts = [0] * q
        for v in row:
            counts[v] += 1
        census_double += n * n - sum(w * w for w in counts)
    assert census_double % 2 == 0
    census = census_double // 2
    tau = Fraction(tau)
    threshold = Fraction(n * (n - 1), 2) * 2 * tau * k
    return PairwiseCountingCheck(
        identity_holds=pairwise == census,
        inequality_holds=threshold < pairwise,
        pairwise_sum=pairwise,
        row_census_sum=census,
        threshold=threshold,
    )


def achievable_random(n: int, q: int, t_mode: TMode) -> float:
    """Length at which a random q-ary matrix succeeds (leading terms only).

    Constant budget: 2n*log(3)/(log(n) + (q-1)*log(pi/2)) + 2t + 1.
    Linear budget: 2n*log(3)/((1-2*tau)*(log(n) + (q-1)*log(pi/2))),
    valid for tau < (q-1)/(2q); beyond that no code of any length exists.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if q < 2:
        raise ValueError("need q >= 2")
    denom = math.log2(n) + _float("q", q - 1) * LOG2_PI_HALF
    base = 2 * _float("n", n) * LOG2_3 / denom
    if isinstance(t_mode, ConstantT):
        return base + 2 * float(t_mode.t) + 1
    limit = max_correctable_fraction(q)
    if Fraction(t_mode.tau) >= limit:
        raise ValueError(
            f"tau={t_mode.tau} reaches the nonexistence threshold "
            f"(q-1)/(2q) = {limit}: no such code exists"
        )
    return base / (1 - 2 * float(t_mode.tau))


def explicit_rs_length(n: int, t_mode: TMode) -> float:
    """Formula-level length of the RS-augmented construction (binary base).

    k_lin is taken at its leading term 2n/log(n); each corrected error costs
    2*ceil(log2(q_RS)) parity-bit rows with q_RS the smallest prime above n.
    Under a linear budget the length solves k = k_lin + 2*tau*k*B, which
    diverges once 2*tau*B >= 1 (the construction targets small t).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k_lin = 2 * _float("n", n) / math.log2(n)
    try:
        bit_width = smallest_prime_above(n).bit_length()
    except ValueError:
        raise ValueError("n is too large: the field needs a prime above n, "
                         "beyond the exact primality test") from None
    if isinstance(t_mode, ConstantT):
        return k_lin + 2 * float(t_mode.t) * bit_width
    scale = 1 - 2 * float(t_mode.tau) * bit_width
    if scale <= 0:
        return math.inf
    return k_lin / scale


def kronecker_length(n: int, c1: int = 2) -> float:
    """Formula-level length 8*c1*log(3)*n / log(log(n)) of the concatenated code."""
    if n < 2:
        raise ValueError("need n >= 2")
    loglog = math.log2(math.log2(n))
    if loglog <= 0:
        return math.inf
    return 8 * c1 * LOG2_3 * _float("n", n) / loglog


@dataclass(frozen=True)
class BoundReport:
    n: int
    q: int
    mode: str
    param: float
    converse_binary_k: float
    nonexistence_threshold: Fraction
    achievable_random_k: float
    explicit_rs_k: float
    kronecker_k: float
    omitted_terms: tuple[str, ...]
    inconsistent_at_scale: bool = False

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "mode": self.mode,
            "param": self.param,
            "converse_binary_k": self.converse_binary_k,
            "nonexistence_threshold": [self.nonexistence_threshold.numerator,
                                       self.nonexistence_threshold.denominator],
            "achievable_random_k": self.achievable_random_k,
            "explicit_rs_k": self.explicit_rs_k,
            "kronecker_k": self.kronecker_k,
            "omitted_terms": list(self.omitted_terms),
            "inconsistent_at_scale": self.inconsistent_at_scale,
        }


CSV_HEADER = "n,q,mode,param,converse_k,random_k,explicit_rs_k,kronecker_k,threshold"


def bound_table(n_range: Sequence[int], q_range: Sequence[int],
                t_mode: TMode) -> list[BoundReport]:
    """Evaluate every bound on the (n, q) grid.

    Rows where the converse exceeds an achievability value are flagged as
    inconsistent at this scale; that is expected for small n because the
    omitted O(.) terms are not negligible there.
    """
    reports = []
    mode, param = t_mode.describe()
    for n in n_range:
        for q in q_range:
            conv = converse_binary(n, t_mode)
            ach = achievable_random(n, q, t_mode)
            rs = explicit_rs_length(n, t_mode)
            kron = kronecker_length(n)
            finite = [v for v in (ach, rs, kron) if math.isfinite(v)]
            reports.append(BoundReport(
                n=n, q=q, mode=mode, param=param,
                converse_binary_k=conv,
                nonexistence_threshold=max_correctable_fraction(q),
                achievable_random_k=ach,
                explicit_rs_k=rs,
                kronecker_k=kron,
                omitted_terms=(CONVERSE_OMITTED, RANDOM_OMITTED,
                               RS_OMITTED, KRONECKER_OMITTED),
                inconsistent_at_scale=any(conv > v for v in finite),
            ))
    return reports


def bound_table_csv(reports: Sequence[BoundReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        thr = r.nonexistence_threshold
        lines.append(
            f"{r.n},{r.q},{r.mode},{r.param!r},{r.converse_binary_k!r},"
            f"{r.achievable_random_k!r},{r.explicit_rs_k!r},{r.kronecker_k!r},"
            f"{thr.numerator}/{thr.denominator}"
        )
    return "\n".join(lines) + "\n"
