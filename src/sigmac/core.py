"""Adder-channel model, signature verification, and generic decoding.

A signature matrix M is a k x n matrix over {0,...,q-1}; column j is the
codeword user j transmits when active.  The channel output for an activity
vector u in {0,1}^n is the integer (not modular) sum M u, and an adversary
may add an arbitrary integer error vector of Hamming weight at most t.

The central quantity is the distinguishing weight

    d_min(M) = min over nonzero z in {-1,0,1}^n of wt(M z),

because M u1 + e1 = M u2 + e2 with wt(e_i) <= t and u1 != u2 is possible
exactly when some z = u1 - u2 has wt(M z) <= 2t.  Hence M tolerates t
errors iff d_min >= 2t + 1.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .errors import AmbiguousDecoding, CapacityError, DecodingFailure

# Hard enumeration caps: verification walks 3^n sign patterns, decoding 2^n
# activity vectors.  A call's `limit` argument overrides them; otherwise they
# are read at the call, and every 2^n search is checked by _check_u_limit.
DEFAULT_Z_LIMIT = 18
DEFAULT_U_LIMIT = 24
# Row comparisons the decoder holds at once, k per candidate; bounds its
# memory independently of n.
DECODE_BLOCK = 1 << 20

InfoVector = tuple[int, ...]        # entries in {0,1}, one per user
ChannelWord = tuple[int, ...]       # length k, unbounded integers
ErrorPattern = Mapping[int, int]    # position -> nonzero value


def derive_seed(seed: int, *labels) -> int:
    """Stable child seed from a master seed and a component/counter path."""
    text = str(seed) + "".join(f"|{part}" for part in labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class SignatureMatrix:
    """k x n query matrix over {0,...,q-1}; column j is user j's codeword."""

    q: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.q) is not int or self.q < 2:
            raise ValueError(f"alphabet size q must be an int >= 2, got {self.q!r}")
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(self.rows[0])
        for r in self.rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            for v in r:
                if type(v) is not int or not 0 <= v < self.q:
                    raise ValueError(f"entry {v!r} is not an int in [0, {self.q - 1}]")

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> tuple[int, ...]:
        return self._columns[j]

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.rows))

    @cached_property
    def _half_tables(self) -> "_HalfTables":
        """decode_min_distance's matrix-only part, built on its first use."""
        import numpy as np

        cap = self.n * (self.q - 1)
        dtype = np.min_scalar_type(-1 - cap)
        columns = np.array(self.rows, dtype=dtype).T
        h = self.n // 2
        left, right = (np.ascontiguousarray(_subset_sums(half).T)
                       for half in (columns[:h], columns[h:]))
        left.flags.writeable = right.flags.writeable = False
        return _HalfTables(cap, dtype, h, left, right)

    def to_json(self) -> dict:
        return {"q": self.q, "k": self.k, "n": self.n,
                "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "SignatureMatrix":
        m = cls(q=obj["q"], rows=tuple(tuple(r) for r in obj["rows"]))
        if m.k != obj["k"] or m.n != obj["n"]:
            raise ValueError("declared shape does not match rows")
        return m


def dumps_canonical(obj) -> str:
    """Bit-exact JSON encoding used for every serialized artifact."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@dataclass(frozen=True)
class VerificationReport:
    d_min: int
    witness_z: tuple[int, ...]
    z_count_checked: int


def _check_info_vector(u: Sequence[int], n: int) -> None:
    if len(u) != n:
        raise ValueError(f"activity vector length {len(u)} != n = {n}")
    if any(b not in (0, 1) for b in u):
        raise ValueError("activity vector entries must be 0 or 1")


def encode(matrix: SignatureMatrix, u: Sequence[int]) -> ChannelWord:
    """Noiseless channel output M u over the integers."""
    _check_info_vector(u, matrix.n)
    active = [column for column, b in zip(matrix._columns, u) if b]
    if not active:
        return (0,) * matrix.k
    return tuple(map(sum, zip(*active)))


def apply_errors(y: Sequence[int], errors: ErrorPattern) -> ChannelWord:
    """Add a sparse integer error pattern; values are unrestricted in magnitude."""
    out = list(y)
    for pos, val in errors.items():
        if not 0 <= pos < len(out):
            raise ValueError(f"error position {pos} outside word of length {len(out)}")
        if val == 0:
            raise ValueError("error values must be nonzero")
        out[pos] += val
    return tuple(out)


def _column_support(matrix: SignatureMatrix) -> list[list[tuple[int, int]]]:
    rows = matrix.rows
    k = matrix.k
    return [[(i, rows[i][j]) for i in range(k) if rows[i][j]]
            for j in range(matrix.n)]


def min_distinguishing_weight(matrix: SignatureMatrix,
                              limit: int | None = None) -> VerificationReport:
    """Exact d_min by walking all 3^n - 1 nonzero sign patterns.

    The walk is a loopless reflected ternary Gray code, so consecutive
    patterns differ by +-1 in one coordinate and M z is updated in place at
    the cost of that column's support.  Stops early once a weight-0 pattern
    is found (no smaller value exists).
    """
    n, k = matrix.n, matrix.k
    budget = DEFAULT_Z_LIMIT if limit is None else limit
    if n > budget:
        raise CapacityError(f"n={n} exceeds the 3^n enumeration limit ({budget})")
    support = _column_support(matrix)
    # Start at z = (-1,...,-1), i.e. all digits 0 with z_j = digit_j - 1.
    y = [-sum(r) for r in matrix.rows]
    nonzero = sum(1 for v in y if v)
    digits = [0] * n
    focus = list(range(n + 1))
    direction = [1] * n
    ones = 0                       # digits equal to 1; z == 0 iff ones == n
    best = nonzero
    witness = tuple(-1 for _ in range(n))
    checked = 1
    while best > 0:
        j = focus[0]
        focus[0] = 0
        if j == n:
            break
        step = direction[j]
        old = digits[j]
        new = old + step
        digits[j] = new
        if new == 0 or new == 2:
            direction[j] = -step
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1
        if old == 1:
            ones -= 1
        elif new == 1:
            ones += 1
        for i, v in support[j]:
            w = y[i]
            nv = w + step * v
            if w == 0:
                nonzero += 1
            elif nv == 0:
                nonzero -= 1
            y[i] = nv
        if ones != n:
            checked += 1
            if nonzero < best:
                best = nonzero
                witness = tuple(d - 1 for d in digits)
    return VerificationReport(d_min=best, witness_z=witness, z_count_checked=checked)


def tolerates(matrix: SignatureMatrix, t: int, limit: int | None = None) -> bool:
    """True iff M corrects any t adversarial output errors (d_min >= 2t+1)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return min_distinguishing_weight(matrix, limit).d_min >= 2 * t + 1


def _check_u_limit(n: int, limit: int | None) -> None:
    """Raise CapacityError when a 2^n search over n columns exceeds `limit`.

    A `limit` of None stands for DEFAULT_U_LIMIT, read at the call.
    """
    budget = DEFAULT_U_LIMIT if limit is None else limit
    if n > budget:
        raise CapacityError(f"n={n} exceeds the 2^n decoding limit ({budget})")


def _received_symbol(value, cap: int) -> int:
    """`value` as an int in [0, cap], or -1 when it equals no such int.

    Every entry of M u lies in [0, cap], so a value outside that range (a
    negative one, one above cap, a non-integer) matches no candidate, and -1
    stands for all of them without overflowing a fixed-width array.
    """
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return -1
    return whole if whole == value and 0 <= whole <= cap else -1


def _is_batch(y) -> bool:
    """True for a 2-D array: a batch of received words, one per row."""
    return getattr(y, "ndim", 1) == 2


def _as_batch(words, length: int):
    """`words`, a 2-D array or a sequence of equal-length words, as a 2-D array.

    Integer entries are held as int64 where numpy infers an integer type;
    any other entry (a float, an int beyond 64 bits, which numpy would round
    to a float) keeps its Python value in an object array.  `length` is the
    row length of an empty batch.
    """
    # Imported here, not with the module: only decoding needs numpy, and its
    # import costs a fresh process about 0.15 s.
    import numpy as np

    if _is_batch(words):
        batch = words
    else:
        words = list(words)
        if len({len(word) for word in words}) > 1:
            raise ValueError("received words differ in length")
        if not words:
            return np.zeros((0, length), dtype=np.int64)
        batch = np.array(words)
        if batch.dtype.kind not in "bi":
            return np.array(words, dtype=object)
    return batch.astype(np.int64 if batch.dtype.kind in "bi" else object, copy=False)


def _integer_batch(words, length: int):
    """_as_batch for the decoders that do integer arithmetic on every entry.

    A float or any other non-integer entry raises ValueError: truncated, it
    would decode as a nearby integer the channel never sent.  The entries of
    an object batch become Python ints, which numpy integers mixed in with
    them would not be.
    """
    import numpy as np

    batch = _as_batch(words, length)
    if batch.dtype != object:
        return batch
    values = batch.ravel().tolist()
    for value in values:
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"received entry {value!r} is not an integer")
    return np.array([int(value) for value in values], dtype=object).reshape(batch.shape)


def _unwrap(outcome):
    """A batch-of-one outcome as a one-word call gives it: returned or raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class _HalfTables(NamedTuple):
    """The part of decode_min_distance's search that depends only on M."""

    cap: int        # every entry of M u lies in [0, cap]
    dtype: object   # narrowest type holding [-1 - cap, cap]; object if none does
    h: int          # split point: u = (a, b) with a over columns 0..h-1
    left: object    # k x 2^h array, column a holds M_A a
    right: object   # k x 2^(n-h) array, column b holds M_B b


def _subset_sums(columns):
    """Row a holds the sum of the columns j whose bit j is set in a."""
    import numpy as np

    sums = np.zeros((1, columns.shape[1]), dtype=columns.dtype)
    for column in columns:
        sums = np.concatenate((sums, sums + column))
    return sums


def _received_symbols(words, cap: int, dtype):
    """Received words (a 2-D array or a list of words) as _received_symbol rows in `dtype`."""
    import numpy as np

    if getattr(words, "dtype", None) is not None and words.dtype.kind in "iu":
        whole = (words >= 0) & (words <= cap)
        symbols = np.where(whole, words, 0).astype(dtype)
        symbols[~whole] = -1
        return symbols
    # An int already in [0, cap] is its own symbol; only the rest, such as
    # floats and values an error pushed out of range, need _received_symbol.
    batch = _is_batch(words)
    symbols = np.array([[v if type(v) is int and 0 <= v <= cap else _received_symbol(v, cap)
                         for v in word] for word in (words.tolist() if batch else words)],
                       dtype=dtype)
    return symbols.reshape(words.shape) if batch else symbols


def _min_distance_search(received, matrix: SignatureMatrix, t: int) -> list:
    """decode_min_distance's outcomes for a batch of received symbol rows.

    Left halves are compared with every right half for a slice of words at
    once, about DECODE_BLOCK row comparisons per block: many words per block
    when one word's 2^n candidates fit, else one word and a few left halves.
    """
    import numpy as np

    cap, dtype, h, left_sums, right = matrix._half_tables
    words, k = received.shape
    halves, width = left_sums.shape[1], right.shape[1]
    if k * halves * width <= DECODE_BLOCK:
        word_step, step = DECODE_BLOCK // (k * halves * width), halves
    else:
        word_step, step = 1, max(1, DECODE_BLOCK // (k * width))
    count_type = np.min_scalar_type(k)
    # u = (a, b) with index = a * 2^(n-h) + b, each half low bit first.
    n = matrix.n
    shifts = np.concatenate((np.arange(n - h, n), np.arange(n - h)))
    outcomes = []
    for first in range(0, words, word_step):
        left = received[first:first + word_step, :, None] - left_sums
        size = len(left)
        best, ties, within_budget, best_index = [k + 1] * size, [0] * size, [0] * size, [0] * size
        for start in range(0, halves, step):
            differs = left[:, :, start:start + step, None] != right[:, None, :]
            weight = np.add.reduce(differs.view(np.uint8), axis=1, dtype=count_type)
            weight = weight.reshape(size, -1)
            # Each word's row of weights is reduced as that word alone would
            # be; count_nonzero of a row is several times faster than a sum
            # along the axis of the block.
            for w, (row, index) in enumerate(zip(weight, weight.argmin(axis=1).tolist())):
                low = int(row[index])
                if low < best[w]:
                    best[w], ties[w], best_index[w] = low, 0, start * width + index
                if low == best[w]:
                    ties[w] += int(np.count_nonzero(row == low))
                if t >= 0:
                    within_budget[w] += int(np.count_nonzero(row <= min(t, k)))
        vectors = ((np.array(best_index)[:, None] >> shifts) & 1).tolist()
        for vector, count, low, close in zip(vectors, ties, best, within_budget):
            if count > 1:
                outcomes.append(AmbiguousDecoding(f"{count} candidates at minimum distance {low}"))
            elif close > 1:
                outcomes.append(AmbiguousDecoding(
                    f"{close} candidates within the error budget t={t}"))
            else:
                outcomes.append(tuple(vector))
    return outcomes


def decode_min_distance(y, matrix: SignatureMatrix, t: int,
                        limit: int | None = None):
    """Return the activity vector u minimizing wt(y - M u).

    Searches all 2^n candidates by meeting in the middle: with the columns
    split at h = n // 2, candidate u = (a, b) has weight equal to the number
    of rows where (y - M_A a) and M_B b differ.  Both halves are tabulated
    once per matrix and kept on it; the weights are taken in blocks of about
    DECODE_BLOCK row comparisons.  When the matrix tolerates t errors and at
    most t positions were corrupted, the minimizer is unique and equals the
    transmitted vector.  A tie at the minimum, or a second candidate within
    distance t, raises AmbiguousDecoding instead of silently picking one.

    `y` may also be a 2-D array with one received word per row.  The result
    is then a list with one outcome per row: the activity vector, or the
    AmbiguousDecoding the word alone would raise.
    """
    n, k = matrix.n, matrix.k
    batch = _is_batch(y)
    length = y.shape[1] if batch else len(y)
    if length != k:
        raise ValueError(f"received word length {length} != k = {k}")
    _check_u_limit(n, limit)
    tables = matrix._half_tables
    received = _received_symbols(y if batch else [y], tables.cap, tables.dtype)
    outcomes = _min_distance_search(received, matrix, t)
    return outcomes if batch else _unwrap(outcomes[0])


@dataclass(frozen=True)
class AdversarialWitness:
    """A concrete confusion: M u1 + e1 == M u2 + e2 with wt(e_i) <= t."""

    u1: InfoVector
    u2: InfoVector
    e1: dict[int, int]
    e2: dict[int, int]


def adversarial_witness(matrix: SignatureMatrix, t: int,
                        limit: int | None = None) -> Optional[AdversarialWitness]:
    """Split a low-weight sign pattern into an explicit confusion, if one exists.

    Returns None exactly when tolerates(matrix, t).  Otherwise takes a
    nonzero z with wt(M z) <= 2t, writes z = u1 - u2 with binary u1, u2, and
    spreads the difference M z over two error vectors of weight <= t each.
    """
    report = min_distinguishing_weight(matrix, limit)
    if report.d_min >= 2 * t + 1:
        return None
    z = report.witness_z
    u1 = tuple(1 if v == 1 else 0 for v in z)
    u2 = tuple(1 if v == -1 else 0 for v in z)
    mz = [sum(row[j] * z[j] for j in range(matrix.n) if z[j]) for row in matrix.rows]
    supp = [i for i, v in enumerate(mz) if v]
    cut = len(supp) // 2
    e2 = {i: mz[i] for i in supp[:cut]}
    e1 = {i: -mz[i] for i in supp[cut:]}
    y1 = apply_errors(encode(matrix, u1), e1)
    y2 = apply_errors(encode(matrix, u2), e2)
    assert y1 == y2, "witness construction must produce a collision"
    return AdversarialWitness(u1, u2, e1, e2)


RANDOM_ERRORS = "random-positions-random-values"
WORST_CASE_ERRORS = "worst-case-from-witness"


@dataclass(frozen=True)
class TrialRecord:
    success: bool
    transmitted: InfoVector
    decoded: Optional[InfoVector]
    errors: dict[int, int]
    note: str = ""


def _draw_error_pattern(matrix: SignatureMatrix, t: int, seed: int) -> dict[int, int]:
    """t positions, each hit by a nonzero value drawn from [-n(q-1), n(q-1)]."""
    rng = random.Random(derive_seed(seed, "simulate"))
    span = matrix.n * (matrix.q - 1)
    errors = {}
    for pos in sorted(rng.sample(range(matrix.k), t)):
        val = 0
        while val == 0:
            val = rng.randint(-span, span)
        errors[pos] = val
    return errors


# Default of simulate_round's witness: find it in the round.  None cannot
# mean that, because None is what adversarial_witness returns when the
# matrix tolerates t.
_FIND_WITNESS = object()


def simulate_round(matrix: SignatureMatrix, u, t: int, error_mode: str, seed,
                   decode_batch: Callable | None = None,
                   witness: Optional[AdversarialWitness] = _FIND_WITNESS):
    """One encode / corrupt / decode round, deterministic given the seed.

    In random mode, exactly t positions are hit with values drawn uniformly
    from [-n(q-1), n(q-1)] minus {0}.  In worst-case mode the transmitted
    vector and errors come from adversarial_witness; when no witness exists
    (the matrix tolerates t) the round falls back to a random draw and notes
    that.  A caller running many rounds passes adversarial_witness(matrix, t)
    as `witness`, None included, so that the 3^n walk runs once; left out,
    it runs here, within the default limit.

    `u` may also be a 2-D array with one activity vector per row and `seed`
    a sequence with one seed per row; the rounds then run as one chunk and
    the result is a list of records.  Each round draws its errors from its
    own seed, so a round's record does not depend on the chunk it ran in.
    The chunk is encoded by one matrix product and decoded by one call of
    `decode_batch`, which maps a 2-D array of received words to one outcome
    per word (the decoded vector, or the AmbiguousDecoding/DecodingFailure
    of that word), as a code's decode_batch does.  The default is
    minimum-distance decoding at budget t, within the default 2^n limit.
    """
    import numpy as np

    chunk = _is_batch(u)
    if chunk:
        if u.shape[1] != matrix.n:
            raise ValueError(f"activity vector length {u.shape[1]} != n = {matrix.n}")
        if ((u != 0) & (u != 1)).any():
            raise ValueError("activity vector entries must be 0 or 1")
        if len(seed) != len(u):
            raise ValueError(f"{len(seed)} seeds for {len(u)} rounds")
        vectors, seeds = [tuple(row) for row in u.tolist()], seed
    else:
        _check_info_vector(u, matrix.n)
        vectors, seeds = [tuple(u)], [seed]
    if t < 0 or t > matrix.k:
        raise ValueError(f"need 0 <= t <= k, got t={t}")
    note, transmitted, errors = "", vectors, None
    if error_mode == WORST_CASE_ERRORS:
        if witness is _FIND_WITNESS:
            witness = adversarial_witness(matrix, t)
        if witness is None:
            note = "no adversarial witness exists at this budget; random draw used"
        else:
            transmitted = [witness.u1] * len(vectors)
            errors = [dict(witness.e1) for _ in seeds]
    elif error_mode != RANDOM_ERRORS:
        raise ValueError(f"unknown error mode {error_mode!r}")
    if errors is None:
        errors = [_draw_error_pattern(matrix, t, s) for s in seeds]
    # Entries of M u and error values both lie within n(q-1) in magnitude.
    dtype = np.int64 if 2 * matrix.n * (matrix.q - 1) < 1 << 62 else object
    received = np.array(transmitted, dtype=dtype).reshape(len(vectors), matrix.n) \
        @ np.array(matrix.rows, dtype=dtype).T
    hits = [(i, pos, val) for i, pattern in enumerate(errors) for pos, val in pattern.items()]
    if hits:
        rounds, positions, values = zip(*hits)
        received[rounds, positions] += np.array(values, dtype=dtype)
    decode = decode_batch or (lambda words: decode_min_distance(words, matrix, t))
    records = []
    for sent, pattern, decoded in zip(transmitted, errors, decode(received)):
        if isinstance(decoded, (AmbiguousDecoding, DecodingFailure)):
            records.append(TrialRecord(False, sent, None, pattern,
                                       note=f"{type(decoded).__name__}: {decoded}"))
        else:
            records.append(TrialRecord(decoded == sent, sent, decoded, pattern, note=note))
    return records if chunk else records[0]
