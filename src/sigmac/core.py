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
        return tuple(row[j] for row in self.rows)

    @cached_property
    def _half_tables(self) -> "_HalfTables":
        """The min-distance search's matrix-only part, built on its first use."""
        import numpy as np

        cap = self.n * (self.q - 1)
        # Narrower than _int_dtype's: every entry meets 2^n candidates.
        dtype = np.min_scalar_type(-1 - cap)
        columns = np.array(self.rows, dtype=dtype).T
        h = self.n // 2
        left, right = (np.ascontiguousarray(_digit_sums(half, (0, 1)).T)
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


def encode(matrix: SignatureMatrix, u: Sequence[int]) -> ChannelWord:
    """Noiseless channel output M u over the integers."""
    bits = _activity_vectors([u], matrix.n)[0].tolist()
    return tuple(sum(v for v, b in zip(row, bits) if b) for row in matrix.rows)


def apply_errors(y: Sequence[int], errors: ErrorPattern) -> ChannelWord:
    """Add a sparse integer error pattern; values are unrestricted in magnitude."""
    out = _integer_batch([y], len(y))[0].tolist()
    positions, values = _integer_batch([list(errors), list(errors.values())], len(errors)).tolist()
    for pos, val in zip(positions, values):
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


def _check_z_limit(n: int, limit: int | None) -> None:
    """Raise CapacityError when a 3^n search over n columns exceeds `limit`.

    A `limit` of None stands for DEFAULT_Z_LIMIT, read at the call.
    """
    budget = DEFAULT_Z_LIMIT if limit is None else limit
    if n > budget:
        raise CapacityError(f"n={n} exceeds the 3^n enumeration limit ({budget})", "z")


def min_distinguishing_weight(matrix: SignatureMatrix,
                              limit: int | None = None) -> VerificationReport:
    """Exact d_min by walking all 3^n - 1 nonzero sign patterns.

    The walk is a loopless reflected ternary Gray code, so consecutive
    patterns differ by +-1 in one coordinate and M z is updated in place at
    the cost of that column's support.  Stops early once a weight-0 pattern
    is found (no smaller value exists).
    """
    n, k = matrix.n, matrix.k
    _check_z_limit(n, limit)
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


def _int_dtype(bound: int):
    """int64 if no integer an array step forms exceeds `bound` in magnitude, else object."""
    import numpy as np

    return np.int64 if bound < 1 << 63 else object


def _digit_sums(columns, digits):
    """Row i holds sum_j digits[i_j] * columns[j] (one column per row of `columns`).

    i_j is digit j of i in base len(digits), least significant first.  With
    digits (-1, 0, 1) over h columns, the all-zero pattern is row (3^h - 1) // 2.
    """
    import numpy as np

    width = columns.shape[1]
    sums = np.zeros((1, width), dtype=columns.dtype)
    # steps[j] holds digit * column j, one row per digit.
    steps = np.multiply.outer(np.array(digits, dtype=columns.dtype), columns).transpose(1, 0, 2)
    for step in steps:
        sums = (step[:, None] + sums).reshape(-1, width)
    return sums


def _sign_pattern(index: int, length: int) -> list[int]:
    """The sign pattern at row `index` of a (-1, 0, 1) _digit_sums over `length` columns."""
    return [index // 3 ** j % 3 - 1 for j in range(length)]


# Odd multipliers of at_most's join keys, one per row: a key is a linear
# hash modulo 2^64, so a pattern pair that cancels on a group of rows always
# has opposite keys there, and a pair whose keys merely coincide is caught
# when its full weight is counted.
_KEY_STEP = 0x9E3779B97F4A7C15


def at_most(matrix: SignatureMatrix, w: int,
            limit: int | None = None) -> Optional[tuple[int, ...]]:
    """A nonzero z in {-1,0,1}^n with wt(M z) <= w, or None when none exists.

    Exact: None means d_min > w, as the 3^n walk of min_distinguishing_weight
    would find, at about 3^(n/2) table entries.  The k rows are split into
    w + 1 groups; if wt(M z) <= w, then M z is zero on every row of some
    group G (pigeonhole).  With the columns split at h = n // 2, z = (a, b)
    and M z = M_A a + M_B b, so for each G the patterns a and b with
    M_{G,A} a = -M_{G,B} b are found by a sorted join of the two half
    tables, and only those pairs get their full weight counted, in blocks of
    about DECODE_BLOCK row comparisons (Stern's row split joined with
    Horowitz-Sahni meet in the middle).  Every nonzero z qualifies when
    w >= k.  The same z comes back on every call with the same matrix and w.
    """
    if not isinstance(w, numbers.Integral) or w < 0:
        raise ValueError(f"w must be an integer >= 0, got {w!r}")
    n, k = matrix.n, matrix.k
    _check_z_limit(n, limit)
    if w >= k:
        return (1,) + (0,) * (n - 1)
    import numpy as np

    # Entries of M z lie within n(q-1) in magnitude, as do their pair sums.
    dtype = _int_dtype(n * (matrix.q - 1))
    columns = np.array(matrix.rows, dtype=dtype).T
    h = n // 2
    left, right = (_digit_sums(half, (-1, 0, 1)) for half in (columns[:h], columns[h:]))
    zero = ((3 ** h - 1) // 2, (3 ** (n - h) - 1) // 2)
    left_mod, right_mod = (table.view(np.uint64) if dtype is np.int64
                           else (table % (1 << 64)).astype(np.uint64) for table in (left, right))
    multipliers = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_KEY_STEP) | np.uint64(1)
    step = max(1, DECODE_BLOCK // k)
    for group in np.array_split(np.arange(k), w + 1):
        left_keys = left_mod[:, group] @ multipliers[group]
        # M z is zero on G iff left[a, G] == -right[b, G], so a's key is -(b's key).
        wanted = np.uint64(0) - right_mod[:, group] @ multipliers[group]
        order = np.argsort(wanted, kind="stable")
        wanted = wanted[order]
        first = np.searchsorted(wanted, left_keys, "left")
        counts = np.searchsorted(wanted, left_keys, "right") - first
        ends = np.cumsum(counts)
        total = int(ends[-1])
        # Pairs are numbered left pattern by left pattern; pair p is match
        # p - (ends[a] - counts[a]) of its left pattern a.
        for start in range(0, total, step):
            pairs = np.arange(start, min(start + step, total))
            a = np.searchsorted(ends, pairs, "right")
            b = order[first[a] + pairs - (ends[a] - counts[a])]
            sums = left[a]
            sums += right[b]
            light = (np.count_nonzero(sums, axis=1) <= w) & ((a != zero[0]) | (b != zero[1]))
            hits = np.flatnonzero(light)
            if hits.size:
                i = hits[0]
                return tuple(_sign_pattern(int(a[i]), h) + _sign_pattern(int(b[i]), n - h))
    return None


def tolerates(matrix: SignatureMatrix, t: int, limit: int | None = None) -> bool:
    """True iff M corrects any t adversarial output errors (d_min >= 2t+1)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return at_most(matrix, 2 * t, limit) is None


def _check_u_limit(n: int, limit: int | None) -> None:
    """Raise CapacityError when a 2^n search over n columns exceeds `limit`.

    A `limit` of None stands for DEFAULT_U_LIMIT, read at the call.
    """
    budget = DEFAULT_U_LIMIT if limit is None else limit
    if n > budget:
        raise CapacityError(f"n={n} exceeds the 2^n decoding limit ({budget})", "u")


_NOT_A_BATCH = "a batch of words is expected: a 2-D array or a list of words; one word y is [y]"


def _integer_batch(words, length: int):
    """`words`, a 2-D array or a sequence of equal-length words, as a 2-D integer array.

    Every word, vector, error value and message the channel model takes in
    is read here.  Entries are held as int64 where numpy infers an integer
    type, and as Python ints in an object array otherwise (an int beyond 64
    bits, which numpy would round to a float).  Any other entry raises
    ValueError: a float or a string is no symbol the channel sends, and
    truncated it would decode as a nearby integer.  `length` is the row
    length of an empty batch.  One bare word, a 1-D array or a sequence of
    entries, raises ValueError: a single word y is the batch [y].
    """
    # Imported here, not with the module: only decoding needs numpy, and its
    # import costs a fresh process about 0.15 s.
    import numpy as np

    if hasattr(words, "ndim"):
        if words.ndim != 2:
            raise ValueError(_NOT_A_BATCH)
        batch = words
    else:
        words = list(words)
        try:
            lengths = {len(word) for word in words}
        except TypeError:
            raise ValueError(_NOT_A_BATCH) from None
        if len(lengths) > 1:
            raise ValueError("received words differ in length")
        if not words:
            return np.zeros((0, length), dtype=np.int64)
        batch = np.array(words)
        if batch.dtype.kind not in "bi":
            batch = np.array(words, dtype=object)
    if batch.dtype.kind in "bi":
        return batch.astype(np.int64, copy=False)
    values = batch.ravel().tolist()
    for value in values:
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"received entry {value!r} is not an integer")
    return np.array([int(value) for value in values], dtype=object).reshape(batch.shape)


def _activity_vectors(u, n: int):
    """`u`, a batch of activity vectors, read by _integer_batch; each must be in {0,1}^n."""
    batch = _integer_batch(u, n)
    if batch.shape[1] != n:
        raise ValueError(f"activity vector length {batch.shape[1]} != n = {n}")
    if ((batch != 0) & (batch != 1)).any():
        raise ValueError("activity vector entries must be 0 or 1")
    return batch


class _HalfTables(NamedTuple):
    """The part of the min-distance search that depends only on M."""

    cap: int        # every entry of M u lies in [0, cap]
    dtype: object   # narrowest type holding [-1 - cap, cap]; object if none does
    h: int          # split point: u = (a, b) with a over columns 0..h-1
    left: object    # k x 2^h array, column a holds M_A a
    right: object   # k x 2^(n-h) array, column b holds M_B b


def _received_symbols(words, cap: int, dtype):
    """An integer batch of received words in `dtype`, each entry outside [0, cap] as -1.

    Every entry of M u lies in [0, cap], so a value outside it (a negative
    one, one above cap) matches no candidate, and -1 stands for all of them
    without overflowing a fixed-width array.
    """
    import numpy as np

    return np.where((words >= 0) & (words <= cap), words, -1).astype(dtype)


def _min_distance_search(received, matrix: SignatureMatrix, t: int):
    """Each received word's nearest image M u, and how many u come as near.

    `received` holds k-entry integer words, one per row.  Returns four
    arrays, one entry per word: the u with the fewest mismatched rows (the
    first in index order) as a row of bits, that count, how many u reach
    it, and how many lie within t (none when t < 0).  A block of about
    DECODE_BLOCK row comparisons holds as many words as fit whole, else one
    word and as many left halves as fit, and is reduced for all its words
    at once.
    """
    import numpy as np

    words, k = received.shape
    if not words:  # simulate's 2^n budget check: an empty batch builds no tables
        return np.zeros((0, matrix.n), dtype=np.int64), *np.zeros((3, 0), dtype=np.int64)
    cap, dtype, h, left_sums, right = matrix._half_tables
    halves, width = left_sums.shape[1], right.shape[1]
    word_step = max(1, DECODE_BLOCK // (k * halves * width))
    step = max(1, DECODE_BLOCK // (k * width * word_step))
    count_type = np.min_scalar_type(k)

    def row_counts(hits):
        # Few entries are true: finding them beats summing rows; one row is counted whole.
        return np.count_nonzero(hits) if len(hits) == 1 else \
            np.bincount(np.flatnonzero(hits) // hits.shape[1], minlength=len(hits))

    # Row i of M first: a block's weights then add up k whole slabs.
    by_row = np.ascontiguousarray(_received_symbols(received, cap, dtype).T)
    blocks = range(0, halves, step)
    # Per block and word: the least count, its first index, the ties and those within t.
    found = np.zeros((4, len(blocks), words), dtype=np.int64)
    lows, indices, ties, close = found
    for first in range(0, words, word_step):
        rows = slice(first, first + word_step)
        left = by_row[:, rows, None] - left_sums[:, None, :]
        for block, start in enumerate(blocks):
            differs = left[:, :, start:start + step, None] != right[:, None, None, :]
            weight = np.add.reduce(differs.view(np.uint8), axis=0, dtype=count_type)
            weight = weight.reshape(left.shape[1], -1)
            index = weight.argmin(axis=1)
            low = weight[np.arange(len(weight)), index]
            lows[block, rows], indices[block, rows] = low, start * width + index
            ties[block, rows] = row_counts(weight == low[:, None])
            if t >= 0:
                close[block, rows] = row_counts(weight <= min(t, k))
    # A word's first minimizer lies in the first block reaching its least count.
    best, best_index = found[:2, lows.argmin(axis=0), np.arange(words)]
    ties = (ties * (lows == best)).sum(axis=0)
    # u = (a, b) with index = a * 2^(n-h) + b, each half low bit first.
    n = matrix.n
    shifts = np.concatenate((np.arange(n - h, n), np.arange(n - h)))
    return (best_index[:, None] >> shifts) & 1, best, ties, close.sum(axis=0)


def decode_min_distance(words, matrix: SignatureMatrix, t: int,
                        limit: int | None = None) -> list:
    """For each received word y, the activity vector u minimizing wt(y - M u).

    `words` is a batch: a 2-D array with one received word per row, or a
    list of equal-length words.  The result holds one outcome per word: its
    activity vector, or AmbiguousDecoding for a tie at the minimum or a
    second candidate within distance t.  When the matrix tolerates t errors
    and at most t positions of a word were corrupted, the minimizer is
    unique and equals the transmitted vector.

    Searches all 2^n candidates by meeting in the middle: with the columns
    split at h = n // 2, candidate u = (a, b) has weight equal to the number
    of rows where (y - M_A a) and M_B b differ.  Both halves are tabulated
    once per matrix and kept on it; the weights are taken in blocks of about
    DECODE_BLOCK row comparisons.  n is checked against `limit` (None stands
    for DEFAULT_U_LIMIT) before any word is read.
    """
    n, k = matrix.n, matrix.k
    _check_u_limit(n, limit)
    batch = _integer_batch(words, k)
    if batch.shape[1] != k:
        raise ValueError(f"received word length {batch.shape[1]} != k = {k}")
    nearest = _min_distance_search(batch, matrix, t)
    return [AmbiguousDecoding(f"{count} candidates at minimum distance {low}") if count > 1
            else AmbiguousDecoding(f"{near} candidates within the error budget t={t}") if near > 1
            else tuple(vector) for vector, low, count, near in zip(*(a.tolist() for a in nearest))]


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
                   witness: Optional[AdversarialWitness] = _FIND_WITNESS) -> list:
    """Encode / corrupt / decode rounds, one TrialRecord per row of `u`.

    `u` is a batch of activity vectors (a 2-D array, or a list of
    equal-length vectors) and `seed` holds one seed per vector.  Each round
    draws its errors from its own seed, so its record does not depend on
    the batch it ran in.  In random mode, exactly t positions are hit with
    values drawn uniformly from [-n(q-1), n(q-1)] minus {0}.  In worst-case
    mode the transmitted vector and errors come from adversarial_witness;
    when no witness exists (the matrix tolerates t) the round falls back to
    a random draw and notes that.  A caller running many batches passes
    adversarial_witness(matrix, t) as `witness`, None included, so that the
    3^n walk runs once; left out, it runs here, within the default limit.

    The rounds are encoded by one matrix product and decoded by one call of
    `decode_batch`, which maps a 2-D array of received words to one outcome
    per word (the decoded vector, or the AmbiguousDecoding/DecodingFailure
    of that word), as a code's decode_batch does.  The default is
    minimum-distance decoding at budget t, within the default 2^n limit.
    """
    import numpy as np

    u = _activity_vectors(u, matrix.n)
    if len(seed) != len(u):
        raise ValueError(f"{len(seed)} seeds for {len(u)} rounds")
    if t < 0 or t > matrix.k:
        raise ValueError(f"need 0 <= t <= k, got t={t}")
    note, transmitted, errors = "", [tuple(row) for row in u.tolist()], None
    if error_mode == WORST_CASE_ERRORS:
        if witness is _FIND_WITNESS:
            witness = adversarial_witness(matrix, t)
        if witness is None:
            note = "no adversarial witness exists at this budget; random draw used"
        else:
            transmitted = [witness.u1] * len(u)
            errors = [dict(witness.e1) for _ in seed]
    elif error_mode != RANDOM_ERRORS:
        raise ValueError(f"unknown error mode {error_mode!r}")
    if errors is None:
        errors = [_draw_error_pattern(matrix, t, s) for s in seed]
    # Entries of M u and error values both lie within n(q-1) in magnitude.
    dtype = _int_dtype(2 * matrix.n * (matrix.q - 1))
    received = np.array(transmitted, dtype=dtype).reshape(len(u), matrix.n) \
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
    return records
