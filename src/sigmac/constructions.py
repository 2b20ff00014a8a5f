"""Signature-code constructions and their matched decoders.

Three families, in increasing ambition:

* rs_augment: a noiseless-case base matrix whose columns are extended with
  Reed-Solomon parity symbols, bit-expanded into extra binary rows.  Each
  channel error corrupts at most one RS symbol, so 2t parity symbols repair
  t errors.  Best for small, constant t.

* construct_random: sample k x n matrices at the planned length until one
  passes the exact distinguishing-weight verifier.  Handles error budgets
  growing linearly with the length.

* kronecker pipeline: a small inner signature matrix M found by search,
  composed with a binary outer code G as G^T (x) M.  Decoding lifts each
  inner row through the outer code (bit-plane decoding), then fixes the at
  most t_inner untrusted rows per block of users by the min-distance search
  that decodes a plain matrix, run on M.

Every family, and PlainCode for a plain matrix, has the same members:
`matrix` (the k x n channel matrix), `design_t` (its error budget),
`decode_batch(words, t, limit_u)` (the matched decoder) and `to_json` /
`from_json`, whose envelope holds every parameter the code is rebuilt from.
Decoding takes a batch, a 2-D array or a list of equal-length received
words, and gives one outcome per word: the activity vector, or the
AmbiguousDecoding/DecodingFailure of that word.  One word y is the batch [y].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .bounds import ConstantT, TMode, achievable_random, max_correctable_fraction
from .core import (
    SignatureMatrix,
    _check_u_limit,
    _digit_sums,
    _int_dtype,
    _integer_batch,
    _min_distance_search,
    at_most,
    decode_min_distance,
    derive_seed,
    dumps_canonical,
    min_distinguishing_weight,
)
from .errors import AmbiguousDecoding, ConstructionFailure, DecodingFailure
from .linear import (
    MR_EXACT_BELOW,
    BinaryLinearCode,
    RSCodec,
    build_outer_code,
    integer_lift_decode,
    repetition_code,
    rs_decode,
    smallest_prime_above,
)

# Single-draw acceptance rate >= 50% was measured over 100 seeds at these
# lengths; see the calibration test in the acceptance suite.
CALIBRATED_RANDOM_K = {(8, 3, 1): 12}
# construct_random lengthens k after each run of this many rejected draws.
RANDOM_BATCH = 25
# find_inner_matrix refuses a search costing more than this many
# candidates x sign patterns x rows.  At the largest q it admits for each
# (p, s), a whole space took, on a 2-vCPU Xeon, at most 0.5 s for p >= 2
# but 2.8 s for (2, 9, 2), and at most 6 s for p = 1, s >= 2, as for
# (1, 2, 38729) and (1, 12, 2); (p, s, q) = (3, 5, 3) costs 5.2e9 and took
# 0.3 s.  At p = s = 1 the second candidate, (1), is always a hit.
INNER_SEARCH_BUDGET = 6 * 10 ** 9
# Sign-pattern weights find_inner_matrix holds in one block: bounds its
# memory independently of the space, at a few bytes a weight, or about 30
# where a block's rows are single entries of a q above the block (p = s = 1).
INNER_BLOCK = 1 << 22


def construct_trivial(n: int) -> SignatureMatrix:
    """The n x n identity: uniquely decodable on the noiseless channel."""
    if n < 1:
        raise ValueError("need n >= 1")
    rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return SignatureMatrix(q=2, rows=rows)


def _as_stated(code, obj: dict):
    """`code`, if its envelope equals `obj` on every key it writes."""
    rebuilt = code.to_json()
    stated = {key: obj[key] for key in rebuilt if key in obj}
    if dumps_canonical(stated) != dumps_canonical(rebuilt):
        wrong = [key for key in sorted(rebuilt) if key not in stated
                 or dumps_canonical(stated[key]) != dumps_canonical(rebuilt[key])]
        raise ValueError(f"does not match the code rebuilt from the envelope: {', '.join(wrong)}")
    return code


@dataclass(frozen=True)
class PlainCode:
    """A matrix decoded by minimum distance: kinds trivial, random, noiseless, matrix.

    `record` keeps the envelope's other fields (kind, seed, d_min, a random
    search's attempts and lengths) as written.
    """

    matrix: SignatureMatrix
    design_t: int
    record: dict

    def decode_batch(self, words, t: int, limit_u: int | None = None) -> list:
        """decode_min_distance of the batch at budget t, which checks the 2^n limit limit_u first."""
        return decode_min_distance(words, self.matrix, t, limit_u)

    def to_json(self) -> dict:
        return {**self.record, "design_t": self.design_t, "matrix": self.matrix.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "PlainCode":
        matrix = SignatureMatrix.from_json(obj["matrix"] if "matrix" in obj else obj)
        record = {key: value for key, value in obj.items() if key not in ("design_t", "matrix")}
        if "design_t" not in obj:
            return cls(matrix, 0, record)
        # Only the file vouches for a plain matrix's budget; a simulate in
        # worst-case mode also checks it against the verifier's witness.
        t, d_min = obj["design_t"], obj.get("d_min")
        if type(t) is not int or not 0 <= t <= matrix.k:
            raise ValueError(f"design_t {t!r} is not an int in [0, k = {matrix.k}]")
        if d_min is not None and type(d_min) is not int:
            raise ValueError(f"d_min {d_min!r} is not an int")
        if d_min is not None and d_min < 2 * t + 1:
            raise ValueError(f"d_min {d_min} is below 2 * design_t + 1 = {2 * t + 1}")
        return cls(matrix, t, record)


class AugmentedCode:
    """A base matrix plus bit-expanded Reed-Solomon parity rows.

    The extended matrix, `matrix`, stacks the k_lin base rows on top of
    2t * bit_width binary rows; parity symbol j of column i occupies rows
    k_lin + j*bit_width .. k_lin + (j+1)*bit_width - 1 in little-endian bit
    order.
    """

    def __init__(self, base: SignatureMatrix, matrix: SignatureMatrix,
                 t: int, codec: RSCodec, bit_width: int):
        self.base = base
        self.matrix = matrix
        self.t = t
        self.codec = codec
        self.q_rs = codec.p
        self.bit_width = bit_width
        self._base_is_identity = (
            base.k == base.n
            and all(base.rows[i][j] == (1 if i == j else 0)
                    for i in range(base.k) for j in range(base.n))
        )

    design_t = property(lambda self: self.t)

    @property
    def rows_added(self) -> int:
        return 2 * self.t * self.bit_width

    def decode_batch(self, words, t: int, limit_u: int | None = None) -> list:
        """rs_augmented_decode of the batch at its own t; checks a non-identity base's 2^n limit."""
        if not self._base_is_identity:
            _check_u_limit(self.base.n, limit_u)
        return rs_augmented_decode(self, words)

    def to_json(self) -> dict:
        return {
            "kind": "rs_augmented",
            "design_t": self.t,
            "base": self.base.to_json(),
            "extended": self.matrix.to_json(),
            "t": self.t,
            "q_rs": self.q_rs,
            "bit_width": self.bit_width,
            "rows_added": self.rows_added,
            "nominal_rows_2t_log_n": round(2 * self.t * math.log2(self.base.n), 6)
            if self.base.n > 1 else 0.0,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AugmentedCode":
        """Rebuild from the base and t; every other stated field must match."""
        base = SignatureMatrix.from_json(obj["base"])
        rows, t = SignatureMatrix.from_json(obj["extended"]).k, obj["t"]
        # Rebuilding takes time growing with t, so the file's size bounds t first.
        if type(t) is not int or not 1 <= t <= (rows - base.k) // 2:
            raise ValueError(f"t {t!r} is not an int in [1, {(rows - base.k) // 2}]")
        return _as_stated(rs_augment(base, t), obj)


def rs_augment(base: SignatureMatrix, t: int) -> AugmentedCode:
    """Extend a noiseless-case base so that t output errors become correctable.

    The field must exceed every uncorrupted channel value n*(q-1), so data
    symbols reduce faithfully mod q_RS, and must offer k_lin + 2t distinct
    evaluation points; q_RS is the smallest prime satisfying both.  Each of
    the 2t parity symbols per column is appended as bit_width binary rows.
    """
    import numpy as np

    if t < 1:
        raise ValueError("t must be >= 1; use the base matrix directly for t = 0")
    k_lin = base.k
    n_rs = k_lin + 2 * t
    if n_rs > MR_EXACT_BELOW:
        raise ValueError("t is too large: the field needs a prime above k + 2t - 1, "
                         "beyond the exact primality test")
    value_cap = base.n * (base.q - 1)
    q_rs = smallest_prime_above(max(value_cap, n_rs - 1))
    bit_width = q_rs.bit_length()
    codec = RSCodec(q_rs, n_rs=n_rs, k_rs=k_lin)
    # Each base column is a message: an int below q <= q_RS, as rs_encode would check.
    symbols = codec._parities(np.array(base.rows).T)
    bits = symbols[:, :, None] >> np.arange(bit_width).astype(symbols.dtype) & 1
    parity_rows = bits.reshape(base.n, 2 * t * bit_width).T.tolist()
    extended = SignatureMatrix(q=base.q, rows=base.rows + tuple(map(tuple, parity_rows)))
    return AugmentedCode(base, extended, t, codec, bit_width)


def rs_augmented_decode(code: AugmentedCode, y) -> list:
    """Recover the activity vector from an output with at most t errors.

    Data symbols are the first k_lin positions reduced mod q_RS; each parity
    symbol is reassembled from its bit rows and reduced likewise (integer
    column sums commute with the reduction because the code is linear over
    F_q_RS).  One channel error touches at most one RS symbol, so RS
    decoding returns the exact noiseless word, which the base then inverts;
    a base other than the identity by a 2^n search within no budget of its
    own (AugmentedCode.decode_batch checks the caller's).

    `y` is a batch: a 2-D array with one received word per row, or a list
    of equal-length words.  The result is a list with one outcome per word:
    the activity vector, or the DecodingFailure/AmbiguousDecoding of that
    word.
    """
    import numpy as np

    k_lin = code.base.k
    words = _integer_batch(y, code.matrix.k)
    if words.shape[1] != code.matrix.k:
        raise ValueError(f"word length {words.shape[1]} != extended k = {code.matrix.k}")
    q_rs, width = code.q_rs, code.bit_width
    # A parity symbol sums `width` bit rows scaled by 1 .. 2^(width - 1).
    largest = max(-int(words.min()), int(words.max()), 1) if len(words) else 1
    words = words.astype(_int_dtype(largest * ((1 << width) - 1)), copy=False)
    bits = words[:, k_lin:].reshape(len(words), 2 * code.t, width)
    scales = np.array([1 << b for b in range(width)], dtype=words.dtype)
    symbols = np.concatenate((words[:, :k_lin], bits @ scales), axis=1) % q_rs
    outcomes = rs_decode(code.codec, symbols)
    recovered = [i for i, word in enumerate(outcomes) if isinstance(word, list)]
    if code._base_is_identity:
        for i in recovered:
            word = outcomes[i]
            outcomes[i] = tuple(word) if all(v in (0, 1) for v in word) else \
                DecodingFailure("recovered word is not an activity vector")
    elif recovered:
        base_words = [outcomes[i] for i in recovered]
        for i, vector in zip(recovered, decode_min_distance(base_words, code.base, 0,
                                                             code.base.n)):
            outcomes[i] = vector
    return outcomes


def plan_random_length(n: int, q: int, t_mode: TMode) -> int:
    """Code length k at which random search is expected to succeed.

    Constant t: the smallest integer strictly above the closed-form value;
    linear tau: the smallest integer at least the closed-form value.  The
    unstated O(.) correction is excluded (bounds.RANDOM_OMITTED names it);
    construct_random compensates by escalating k when attempts exhaust.
    """
    value = achievable_random(n, q, t_mode)
    if math.isinf(value):
        raise ValueError("n or t is too large: the planned length is past the largest float")
    if isinstance(t_mode, ConstantT):
        k = math.floor(value) + 1
    else:
        k = math.ceil(value)
    return max(k, 1)


@dataclass(frozen=True)
class RandomConstruction:
    matrix: SignatureMatrix
    t: int
    seed: int
    attempts: int
    k: int
    d_min: int
    planned_k: int
    escalations: int

    def to_json(self) -> dict:
        return {
            "kind": "random",
            "design_t": self.t,
            "matrix": self.matrix.to_json(),
            "seed": self.seed,
            "attempts": self.attempts,
            "k": self.k,
            "d_min": self.d_min,
            "planned_k": self.planned_k,
            "escalations": self.escalations,
        }


def construct_random(n: int, q: int, t: int, seed: int,
                     max_attempts: int = 100,
                     k_override: int | None = None,
                     limit: int | None = None) -> RandomConstruction:
    """Sample uniform k x n matrices until one verifiably tolerates t errors.

    Acceptance is exact, never by formula trust: a draw is rejected as soon
    as core.at_most finds a nonzero z with wt(M z) <= 2t, and the one draw
    it finds none for (d_min >= 2t + 1) is walked by
    min_distinguishing_weight once, for the d_min it records.  After each
    fully failed batch of RANDOM_BATCH draws the length grows by 5% (at
    least one row), when another draw follows.  Deterministic: attempt i
    uses the child seed (seed, i).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    planned = k_override if k_override is not None \
        else plan_random_length(n, q, ConstantT(t))
    k = planned
    escalations = 0
    for attempt in range(1, max_attempts + 1):
        rng = random.Random(derive_seed(seed, "random-matrix", attempt))
        rows = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(k))
        matrix = SignatureMatrix(q=q, rows=rows)
        if at_most(matrix, 2 * t, limit) is None:
            return RandomConstruction(matrix=matrix, t=t, seed=seed, attempts=attempt,
                                      k=k, d_min=min_distinguishing_weight(matrix, limit).d_min,
                                      planned_k=planned, escalations=escalations)
        if attempt % RANDOM_BATCH == 0 and attempt < max_attempts:
            k = max(k + 1, math.ceil(k * 1.05))
            escalations += 1
    raise ConstructionFailure(
        f"no {k}x{n} matrix with d_min >= {2 * t + 1} found in {max_attempts} "
        f"attempts ({escalations} length escalations from {planned})",
        attempts=max_attempts,
    )


@dataclass(frozen=True)
class InnerSearchResult:
    matrix: SignatureMatrix
    checked: int


def _inner_distances(p: int, s: int, q: int):
    """Yield the d_min of every p x s matrix over q, in product order, a block at a time.

    Candidate c has as rows the base-q^s digits of c, most significant
    first, and wt(M z) counts its rows with row . z != 0.  -z has the
    weight of z, so one sign pattern of each +-z pair is kept, and a
    candidate's weights are the sums of its rows' entries in the row table
    [row . z != 0].  No block holds more than about INNER_BLOCK weights.
    """
    import numpy as np

    values = np.min_scalar_type(-1 - s * (q - 1))   # holds every row . z and its negation
    weight = np.min_scalar_type(p)
    signs = _digit_sums(np.eye(s, dtype=values), (-1, 0, 1))[(3 ** s + 1) // 2:]
    width = len(signs)
    per = max(1, INNER_BLOCK // width)              # candidates, or rows, a block holds
    # Row i of `products` holds row . z for the row whose last `low` entries
    # are the digits of i, and whose other entries are 0.
    low = s
    while q ** low > per:
        low -= 1
    # With no column, _digit_sums reads no digit; range(q) would be a q-entry array.
    products = _digit_sums(signs[:, s - low:][:, ::-1].T, range(q) if low else ())
    if low == s:
        # The row table fits a block.  The last rows of a candidate take all
        # their values in turn, so their weights are stacked once, by
        # broadcasting, into `tail`, and each block adds a run of heads to it.
        table = np.ascontiguousarray((products != 0).T, dtype=weight)     # pattern x row
        tail, ones = table, 1
        while ones < p and tail.shape[1] * q ** s <= per:
            tail = (tail[:, :, None] + table[:, None, :]).reshape(width, -1)
            ones += 1
        heads, step = q ** (s * (p - ones)), max(1, per // tail.shape[1])
        for start in range(0, heads, step):
            index = np.arange(start, min(start + step, heads))
            head = np.zeros((width, len(index)), weight)
            for i in range(p - ones):
                head += table[:, index // q ** (s * i) % q ** s]
            yield (head[:, :, None] + tail[:, None, :]).min(axis=0).ravel()
        return
    # One row's table spans blocks: a block is a run of `step` leads, a
    # row's first s - low entries, each with every value of its last low
    # entries, after the same p - 1 rows.
    lows = np.ascontiguousarray(products.T)         # pattern x row
    columns = np.ascontiguousarray(signs.T)         # row j: entry j's sign in each pattern
    leads, step = q ** (s - low), max(1, per // len(products))
    for head in product(range(q), repeat=s * (p - 1)):
        rows = np.array(head, dtype=values).reshape(p - 1, s)
        base = (rows @ columns != 0).sum(axis=0, dtype=weight)[:, None, None]
        for start in range(0, leads, step):
            index = np.arange(start, min(start + step, leads))
            shift = np.zeros((width, len(index)), values)
            for j, column in enumerate(columns[:s - low]):
                shift += column[:, None] * (index // q ** (s - low - 1 - j) % q).astype(values)
            yield (np.not_equal(lows[:, None, :], -shift[:, :, None]) + base).min(axis=0).ravel()


def find_inner_matrix(p: int, s: int, q: int, t_inner: int) -> InnerSearchResult:
    """Find a p x s matrix with d_min >= 2*t_inner + 1, verified exactly.

    Takes all q^(p*s) candidate matrices in row-major order, so the search
    is its own existence proof: exhausting the space proves emptiness.  A
    search whose cost, q^(p*s) candidates x (3^s - 1)/2 sign patterns x p
    rows, is above INNER_SEARCH_BUDGET is refused before it starts, and so
    is a target no p-row matrix reaches: wt(M z) <= p, so d_min <= p.
    """
    if p < 1 or s < 1:
        raise ValueError("need p >= 1 and s >= 1")
    target = 2 * t_inner + 1
    # The cost is at least q and, as q >= 2, at least 2^(p*s): either check
    # refuses a large q or p*s before a power is formed.
    budget = INNER_SEARCH_BUDGET
    if p * s > budget.bit_length() or q > budget \
            or (space := q ** (p * s)) * (3 ** s - 1) // 2 * p > budget:
        raise ValueError(f"the inner search's q^(p*s) candidates x (3^s - 1)/2 sign patterns "
                         f"x p rows exceed its budget {budget}; choose a smaller --q, --p or --s")
    if target > p:
        raise ValueError(f"--inner-t must be at most (p - 1) // 2 = {(p - 1) // 2}, as d_min <= p")
    import numpy as np

    checked = 0
    for distances in _inner_distances(p, s, q):
        hits = np.flatnonzero(distances >= target)
        if hits.size:
            checked += int(hits[0]) + 1
            entries = [(checked - 1) // q ** e % q for e in range(p * s - 1, -1, -1)]
            rows = tuple(tuple(entries[i * s:(i + 1) * s]) for i in range(p))
            return InnerSearchResult(SignatureMatrix(q=q, rows=rows), checked)
        checked += len(distances)
    raise ConstructionFailure(
        f"exhausted all {space} candidate {p}x{s} matrices over q={q}: "
        f"none reaches d_min >= {target}",
        attempts=space,
    )


def plan_epsilon_split(q: int, epsilon) -> tuple[Fraction, Fraction]:
    """Split a target slack epsilon into the inner and outer slacks.

    Solves ((q-1)/(2q) - eps1) * (1/4 - eps2/2) = (q-1)/(8q) - epsilon with
    eps2 = min(1/8, epsilon*4q/(q-1)).  Exact rational arithmetic; rejects
    any epsilon for which eps1 would leave the feasible range (that happens
    for epsilon <= (q-1)/(32q) as well as epsilon >= (q-1)/(8q)).
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    quarter_fraction = max_correctable_fraction(q) / 4     # (q-1)/(8q)
    target = quarter_fraction - eps
    if target <= 0:
        raise ValueError(
            f"epsilon = {eps} >= (q-1)/(8q) = {quarter_fraction}: "
            f"no positive error budget remains"
        )
    eps2 = min(Fraction(1, 8), eps * 4 * q / (q - 1))
    factor = Fraction(1, 4) - eps2 / 2
    eps1 = max_correctable_fraction(q) - target / factor
    if eps1 <= 0:
        raise ValueError(
            f"epsilon split failed: eps1 = {eps1} <= 0 "
            f"(epsilon must exceed (q-1)/(32q) = {quarter_fraction / 4})"
        )
    return eps1, eps2


class KroneckerCode:
    """Outer binary code composed with an inner signature matrix.

    The composed matrix, `matrix`, is G^T (x) M: outer row a contributes p
    rows, whose block j equals G[j][a] * M.  Row i of M therefore shows up at
    global positions a*p + i, which is how the decoder regroups the output.
    """

    def __init__(self, inner: SignatureMatrix, outer: BinaryLinearCode,
                 matrix: SignatureMatrix, t_inner: int,
                 eps1: Optional[Fraction] = None, eps2: Optional[Fraction] = None):
        self.inner = inner
        self.outer = outer
        self.matrix = matrix
        self.t_inner = t_inner
        self.eps1 = eps1
        self.eps2 = eps2

    @property
    def p(self) -> int:
        return self.inner.k

    @property
    def s(self) -> int:
        return self.inner.n

    @property
    def r(self) -> int:
        return self.outer.K

    @property
    def lift_threshold(self) -> int:
        """A lifted row is certainly correct below this many of its errors."""
        return math.ceil(self.outer.design_distance / 2)

    @property
    def certified_budget(self) -> int:
        """Largest total error weight for which decoding provably succeeds.

        At most floor(budget / lift_threshold) rows can reach the threshold,
        and the per-block search fixes up to t_inner untrusted rows.
        """
        return self.lift_threshold * (self.t_inner + 1) - 1

    design_t = certified_budget

    def decode_batch(self, words, t: int, limit_u: int | None = None) -> list:
        """kronecker_decode of the batch, which needs no 2^n search and corrects up to design_t."""
        return kronecker_decode(self, words)

    @property
    def asymptotic_budget(self) -> Optional[int]:
        """floor(((q-1)/(8q) - epsilon) * k), when the slacks are recorded."""
        if self.eps1 is None or self.eps2 is None:
            return None
        q = self.inner.q
        per_k = (max_correctable_fraction(q) - self.eps1) * (Fraction(1, 4) - self.eps2 / 2)
        return math.floor(per_k * self.matrix.k)

    def to_json(self) -> dict:
        return {
            "kind": "kronecker",
            "design_t": self.certified_budget,
            "inner": self.inner.to_json(),
            "outer": self.outer.to_json(),
            "composed": self.matrix.to_json(),
            "t_inner": self.t_inner,
            "eps1": None if self.eps1 is None else str(self.eps1),
            "eps2": None if self.eps2 is None else str(self.eps2),
            "p": self.p,
            "s": self.s,
            "r": self.r,
            "certified_budget": self.certified_budget,
            "asymptotic_budget": self.asymptotic_budget,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "KroneckerCode":
        """Re-verify both factors, which the certified budget trusts, and recompose.

        Every other field the envelope states must match the rebuilt code.
        """
        inner = SignatureMatrix.from_json(obj["inner"])
        outer = BinaryLinearCode.from_json(obj["outer"])
        t_inner = obj["t_inner"]
        if (type(t_inner) is not int or t_inner < 0
                or min_distinguishing_weight(inner).d_min < 2 * t_inner + 1):
            raise ValueError(f"inner matrix does not tolerate t_inner = {t_inner!r}")
        if outer.min_distance() < outer.design_distance:
            raise ValueError(f"outer code distance is below its stated D = {outer.design_distance}")
        code = kronecker_compose(
            outer, inner, t_inner=t_inner,
            eps1=None if obj.get("eps1") is None else Fraction(obj["eps1"]),
            eps2=None if obj.get("eps2") is None else Fraction(obj["eps2"]),
        )
        return _as_stated(code, obj)


def kronecker_compose(outer: BinaryLinearCode, inner: SignatureMatrix,
                      t_inner: int = 0,
                      eps1: Optional[Fraction] = None,
                      eps2: Optional[Fraction] = None) -> KroneckerCode:
    """Compose G^T (x) M into a (N*p) x (K*s) signature matrix.

    Entries stay within {0,...,q-1} because the outer generator is binary:
    each block is either a copy of M or all zeros.
    """
    rows = tuple(tuple(v * gain for gain in column for v in inner_row)
                 for column in zip(*outer.generator) for inner_row in inner.rows)
    composed = SignatureMatrix(q=inner.q, rows=rows)
    return KroneckerCode(inner, outer, composed, t_inner, eps1, eps2)


def kronecker_decode(code: KroneckerCode, b) -> list:
    """Rows-then-blocks decoding of the composed code.

    Step 1 lifts each inner row index i: the subsequence (b[a*p+i])_a equals
    G^T w + e restricted to that row's errors, where w collects M_row_i
    applied to each user block; integer lifting recovers w whenever the
    row's error weight stays below half the outer distance, and produces an
    untrusted vector otherwise.  Step 2 searches each user block for the bit
    pattern whose inner image differs from the lifted values in the fewest
    rows: core's min-distance search over M, with no budget of its own; at
    most t_inner untrusted rows are outvoted.  Ties mean the error budget
    was exceeded and give AmbiguousDecoding.

    `b` is a batch: a 2-D array with one received word per row, or a list of
    equal-length words.  All rows of all words are lifted by one
    integer_lift_decode call, and all blocks of all words searched by one
    call of the search; the result is a list with one outcome per word: the
    activity vector, or the AmbiguousDecoding of that word.
    """
    p, s, r = code.p, code.s, code.r
    n_outer = code.outer.N
    words = _integer_batch(b, n_outer * p)
    if words.shape[1] != n_outer * p:
        raise ValueError(f"word length {words.shape[1]} != k = {n_outer * p}")
    count = len(words)
    # Row (word, i) of the segments holds b[a*p + i] over a.
    segments = words.reshape(count, n_outer, p).transpose(0, 2, 1).reshape(count * p, n_outer)
    lifted = integer_lift_decode(code.outer, segments, s * (code.inner.q - 1))
    # Row (word, j) of the targets holds block j's lifted value for each row
    # of M; a value above s(q-1) matches no image.
    targets = lifted.reshape(count, p, r).transpose(0, 2, 1).reshape(count * r, p)
    vectors, lows, ties, _ = _min_distance_search(targets, code.inner, -1)
    outcomes = []
    for bits, low, tied in zip(vectors.reshape(count, r * s).tolist(),
                               lows.reshape(count, r).tolist(),
                               (ties > 1).reshape(count, r).tolist()):
        j = tied.index(True) if any(tied) else None
        outcomes.append(tuple(bits) if j is None else AmbiguousDecoding(
            f"block {j}: tie at {low[j]} mismatched rows (error budget exceeded)"))
    return outcomes


def build_kronecker(q: int, epsilon, p: int, s: int, r: int, seed: int = 0,
                    outer_kind: str = "search",
                    t_inner: int | None = None,
                    c1: int | None = None) -> KroneckerCode:
    """Plan slacks, find the inner matrix, build the outer code, and compose.

    Desk-scale instances pick (p, s, r) directly; the asymptotic sizing
    formulas degenerate at small n.  t_inner defaults to the planned value
    floor(((q-1)/(2q) - eps1) * p) and may be overridden when the searched
    inner matrix supports more.
    """
    eps1, eps2 = plan_epsilon_split(q, epsilon)
    if t_inner is None:
        t_inner = math.floor((max_correctable_fraction(q) - eps1) * p)
    if t_inner < 0:
        raise ValueError(f"t_inner must be >= 0, got {t_inner}")
    inner = find_inner_matrix(p, s, q, t_inner)
    if outer_kind == "repetition":
        if r != 1:
            raise ValueError("a repetition outer code requires r = 1")
        width = c1 if c1 is not None else math.ceil(Fraction(2) / (1 + 2 * eps2))
        outer = repetition_code(width)
    elif outer_kind == "search":
        outer = build_outer_code(r, eps2, seed=derive_seed(seed, "outer"))
    else:
        raise ValueError(f"unknown outer code kind {outer_kind!r}")
    return kronecker_compose(outer, inner.matrix, t_inner=t_inner,
                             eps1=eps1, eps2=eps2)


FAMILIES = {"rs_augmented": AugmentedCode, "kronecker": KroneckerCode,
            "trivial": PlainCode, "random": PlainCode, "noiseless": PlainCode,
            "matrix": PlainCode}


def load_artifact(obj: dict):
    """Rebuild a code from its JSON envelope; ValueError if it does not load.

    CapacityError instead when a check would walk 3^n patterns above the
    default limit.
    """
    if not isinstance(obj, dict):
        raise ValueError("an artifact must be a JSON object")
    kind = obj.get("kind")
    family = FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None:
        raise ValueError(f"unknown artifact kind {kind!r}")
    try:
        return family.from_json(obj)
    except (LookupError, TypeError, ArithmeticError) as exc:
        raise ValueError(f"malformed {kind} envelope: {type(exc).__name__}: {exc}") from exc
