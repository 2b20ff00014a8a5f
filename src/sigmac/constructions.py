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
  most t_inner untrusted rows by exhaustive search per block of users.

Every family, and PlainCode for a plain matrix, has the same members:
`matrix` (the k x n channel matrix), `design_t` (its error budget),
`decode_batch(words, t, limit_u)` (the matched decoder, one outcome per
received word), `decoder(t, limit_u)` (the same on one word) and `to_json` /
`from_json`, whose envelope holds every parameter the code is rebuilt from.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from typing import Optional

from .bounds import ConstantT, TMode, achievable_random, max_correctable_fraction
from .core import (
    SignatureMatrix,
    _as_batch,
    _check_u_limit,
    _integer_batch,
    _is_batch,
    _unwrap,
    decode_min_distance,
    derive_seed,
    dumps_canonical,
    min_distinguishing_weight,
)
from .errors import AmbiguousDecoding, ConstructionFailure, DecodingFailure
from .linear import (
    BinaryLinearCode,
    PrimeField,
    RSCodec,
    build_outer_code,
    integer_lift_decode,
    repetition_code,
    rs_decode,
    rs_encode,
    smallest_prime_above,
)

# Single-draw acceptance rate >= 50% was measured over 100 seeds at these
# lengths; see the calibration test in the acceptance suite.
CALIBRATED_RANDOM_K = {(8, 3, 1): 12}
# construct_random lengthens k after each run of this many rejected draws.
RANDOM_BATCH = 25
# find_inner_matrix walks at most this many candidates.  Since q >= 2 and
# p >= 1, it keeps s <= 18, inside the verifier's default 3^n limit.
INNER_SEARCH_SPACE = 300_000


def construct_trivial(n: int) -> SignatureMatrix:
    """The n x n identity: uniquely decodable on the noiseless channel."""
    if n < 1:
        raise ValueError("need n >= 1")
    rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return SignatureMatrix(q=2, rows=rows)


def _decode_one(code, word, t: int, limit_u: int | None):
    """`code.decode_batch` on one word: its activity vector, or its failure raised."""
    return _unwrap(code.decode_batch([word], t, limit_u)[0])


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
        """decode_min_distance at budget t, within the 2^n limit limit_u."""
        return decode_min_distance(_as_batch(words, self.matrix.k), self.matrix, t, limit_u)

    def decoder(self, t: int, limit_u: int | None = None):
        _check_u_limit(self.matrix.n, limit_u)
        return partial(_decode_one, self, t=t, limit_u=limit_u)

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
        self.q_rs = codec.field.p
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
        """rs_augmented_decode (its own t); checks a non-identity base's 2^n search."""
        if not self._base_is_identity:
            _check_u_limit(self.base.n, limit_u)
        return rs_augmented_decode(self, _as_batch(words, self.matrix.k))

    def decoder(self, t: int, limit_u: int | None = None):
        if not self._base_is_identity:
            _check_u_limit(self.base.n, limit_u)
        return partial(_decode_one, self, t=t, limit_u=limit_u)

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
        # Rebuilding takes time quadratic in t, so the file's size bounds t first.
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
    if t < 1:
        raise ValueError("t must be >= 1; use the base matrix directly for t = 0")
    k_lin = base.k
    n_rs = k_lin + 2 * t
    value_cap = base.n * (base.q - 1)
    q_rs = smallest_prime_above(max(value_cap, n_rs - 1))
    bit_width = q_rs.bit_length()
    codec = RSCodec(PrimeField(q_rs), n_rs=n_rs, k_rs=k_lin)
    parity_rows = [[0] * base.n for _ in range(2 * t * bit_width)]
    for col in range(base.n):
        column = [base.rows[i][col] for i in range(k_lin)]
        codeword = rs_encode(codec, column)
        for j, symbol in enumerate(codeword[k_lin:]):
            for b in range(bit_width):
                parity_rows[j * bit_width + b][col] = (symbol >> b) & 1
    extended = SignatureMatrix(
        q=base.q,
        rows=base.rows + tuple(tuple(r) for r in parity_rows),
    )
    return AugmentedCode(base, extended, t, codec, bit_width)


def rs_augmented_decode(code: AugmentedCode, y):
    """Recover the activity vector from an output with at most t errors.

    Data symbols are the first k_lin positions reduced mod q_RS; each parity
    symbol is reassembled from its bit rows and reduced likewise (integer
    column sums commute with the reduction because the code is linear over
    F_q_RS).  One channel error touches at most one RS symbol, so RS
    decoding returns the exact noiseless word, which the base then inverts;
    a base other than the identity by a 2^n search within no budget of its
    own (AugmentedCode.decoder checks the caller's).

    `y` may also be a 2-D array with one received word per row.  The result
    is then a list with one outcome per row: the activity vector, or the
    DecodingFailure/AmbiguousDecoding of that word.
    """
    import numpy as np

    k_lin = code.base.k
    batch = _is_batch(y)
    length = y.shape[1] if batch else len(y)
    if length != code.matrix.k:
        raise ValueError(f"word length {length} != extended k = {code.matrix.k}")
    words = _integer_batch(y if batch else [y], length)
    q_rs, width = code.q_rs, code.bit_width
    # A parity symbol sums bit rows scaled by up to 2^(width - 1).
    if words.dtype != object and len(words) and (
            width >= 62 or max(-int(words.min()), int(words.max())) >> (62 - width)):
        words = words.astype(object)
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
        base_words = _as_batch([outcomes[i] for i in recovered], k_lin)
        for i, vector in zip(recovered, decode_min_distance(base_words, code.base, 0,
                                                             code.base.n)):
            outcomes[i] = vector
    return outcomes if batch else _unwrap(outcomes[0])


def plan_random_length(n: int, q: int, t_mode: TMode) -> int:
    """Code length k at which random search is expected to succeed.

    Constant t: the smallest integer strictly above the closed-form value;
    linear tau: the smallest integer at least the closed-form value.  The
    unstated O(.) correction is excluded (bounds.RANDOM_OMITTED names it);
    construct_random compensates by escalating k when attempts exhaust.
    """
    value = achievable_random(n, q, t_mode)
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

    Acceptance is by the exact verifier (d_min >= 2t + 1), never by formula
    trust.  After each fully failed batch of RANDOM_BATCH draws the length
    grows by 5% (at least one row).  Deterministic: attempt i uses the child
    seed (seed, i).
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
        report = min_distinguishing_weight(matrix, limit)
        if report.d_min >= 2 * t + 1:
            return RandomConstruction(matrix=matrix, t=t, seed=seed, attempts=attempt,
                                      k=k, d_min=report.d_min, planned_k=planned,
                                      escalations=escalations)
        if attempt % RANDOM_BATCH == 0:
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


def find_inner_matrix(p: int, s: int, q: int, t_inner: int) -> InnerSearchResult:
    """Find a p x s matrix with d_min >= 2*t_inner + 1, verified exactly.

    Walks all q^(p*s) candidate matrices in row-major order, so the search
    is its own existence proof: exhausting the space proves emptiness.  A
    space above INNER_SEARCH_SPACE is refused before the walk.
    """
    if p < 1 or s < 1:
        raise ValueError("need p >= 1 and s >= 1")
    target = 2 * t_inner + 1
    space = q ** (p * s)
    if space > INNER_SEARCH_SPACE:
        raise ValueError(
            f"q^(p*s) = {space} exceeds the exhaustive budget {INNER_SEARCH_SPACE}; "
            f"choose a smaller --p or --s"
        )
    for checked, entries in enumerate(product(range(q), repeat=p * s), 1):
        rows = tuple(entries[i * s:(i + 1) * s] for i in range(p))
        matrix = SignatureMatrix(q=q, rows=rows)
        if min_distinguishing_weight(matrix).d_min >= target:
            return InnerSearchResult(matrix, checked)
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

    @cached_property
    def _block_images(self):
        """Every bit pattern of a user block (2^s x s) and its image under M (2^s x p)."""
        import numpy as np

        patterns = np.array(list(product((0, 1), repeat=self.inner.n)), dtype=np.int64)
        return patterns, patterns @ np.array(self.inner.rows, dtype=np.int64).T

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
        """kronecker_decode, which needs no 2^n search and corrects up to design_t."""
        return kronecker_decode(self, _as_batch(words, self.matrix.k))

    def decoder(self, t: int, limit_u: int | None = None):
        return partial(_decode_one, self, t=t, limit_u=limit_u)

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
    rows = []
    for a in range(outer.N):
        gains = [outer.generator[j][a] for j in range(outer.K)]
        for i in range(inner.k):
            inner_row = inner.rows[i]
            row = []
            for g in gains:
                row.extend(v * g for v in inner_row)
            rows.append(tuple(row))
    composed = SignatureMatrix(q=inner.q, rows=tuple(rows))
    return KroneckerCode(inner, outer, composed, t_inner, eps1, eps2)


def kronecker_decode(code: KroneckerCode, b):
    """Rows-then-blocks decoding of the composed code.

    Step 1 lifts each inner row index i: the subsequence (b[a*p+i])_a equals
    G^T w + e restricted to that row's errors, where w collects M_row_i
    applied to each user block; integer lifting recovers w whenever the
    row's error weight stays below half the outer distance, and produces an
    untrusted vector otherwise.  Step 2 searches each user block for the bit
    pattern whose inner image differs from the lifted values in the fewest
    rows; at most t_inner untrusted rows are outvoted.  Ties mean the error
    budget was exceeded and raise AmbiguousDecoding.

    `b` may also be a 2-D array with one received word per row.  All rows of
    all words are then lifted by one integer_lift_decode call and every
    block searched at once; the result is a list with one outcome per row:
    the activity vector, or the AmbiguousDecoding of that word.
    """
    p, s, r = code.p, code.s, code.r
    n_outer = code.outer.N
    batch = _is_batch(b)
    length = b.shape[1] if batch else len(b)
    if length != n_outer * p:
        raise ValueError(f"word length {length} != k = {n_outer * p}")
    words = _integer_batch(b if batch else [b], length)
    count = len(words)
    # Row (word, i) of the segments holds b[a*p + i] over a.
    segments = words.reshape(count, n_outer, p).transpose(0, 2, 1).reshape(count * p, n_outer)
    lifted = integer_lift_decode(code.outer, segments, s * (code.inner.q - 1))
    targets = lifted.reshape(count, p, r).transpose(0, 2, 1)
    patterns, images = code._block_images
    # Mismatched rows of every block of every word against every image.
    dist = (targets[:, :, None, :] != images).sum(axis=3)
    best = dist.argmin(axis=2)
    low = dist.min(axis=2)
    tied = (dist == low[:, :, None]).sum(axis=2) > 1
    outcomes = []
    for bits, ties, lows in zip(patterns[best].reshape(count, r * s).tolist(),
                                tied.tolist(), low.tolist()):
        if any(ties):
            j = ties.index(True)
            outcomes.append(AmbiguousDecoding(
                f"block {j}: tie at {lows[j]} mismatched rows (error budget exceeded)"))
        else:
            outcomes.append(tuple(bits))
    return outcomes if batch else _unwrap(outcomes[0])


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
