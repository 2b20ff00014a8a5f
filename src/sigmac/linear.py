"""Component codes: prime-field Reed-Solomon and small binary linear codes.

The RS codec is systematic over a prime field F_p with evaluation points
0..n-1: the first k points carry the message, the parities are the
interpolating polynomial's values at the remaining points.  Decoding is by
syndromes against parity checks the codec builds on its first decode.

The binary side provides [N, K, D] codes with exactly verified minimum
distance (exhaustive over the 2^K codewords at desk scale), their nearest
codewords by bit mask, and the integer-lift decoder that recovers a bounded
nonnegative integer vector w from G^T w + e by repeated bit-plane decoding.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .core import _int_dtype, _integer_batch, derive_seed
from .errors import ConstructionFailure, DecodingFailure


# Miller-Rabin with the primes up to 41 as bases has no strong pseudoprime
# below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981

# BinaryLinearCode.min_distance walks 2^K codewords; an outer code read from
# an artifact is untrusted, so K is capped to bound the work it can ask for.
MAX_EXHAUSTIVE_K = 20
# build_outer_code's random generators: per length multiplier, and in all.
OUTER_ATTEMPTS_PER_C1 = 200
OUTER_ATTEMPTS = 5000


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError where it is not exact."""
    if m >= MR_EXACT_BELOW:
        raise ValueError(f"{m} is too large to test for primality "
                         f"(the exact test stops at {MR_EXACT_BELOW})")
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def smallest_prime_above(m: int) -> int:
    """Smallest prime strictly greater than m (Bertrand: at most 2m for m >= 1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    p = m + 1
    while not is_prime(p):
        p += 1
    return p


def _solve_mod(systems, p: int):
    """Solutions of a batch of square systems over F_p, and which are nonsingular.

    `systems` is an m x s x (s+1) array of augmented rows; Gauss-Jordan
    elimination runs on all m at once.  A singular system has no pivot in
    some column, and its row of the solutions is left meaningless.
    """
    import numpy as np

    systems = systems.copy()
    count, size = systems.shape[:2]
    nonsingular = np.ones(count, dtype=bool)
    every = np.arange(count)
    for c in range(size):
        # The first row at or below c with a nonzero entry in column c.
        pivot = c + (systems[:, c:, c] != 0).argmax(axis=1)
        pivot_rows = systems[every, pivot]
        nonsingular &= pivot_rows[:, c] != 0
        systems[every, pivot] = systems[:, c]
        inverses = [pow(v, p - 2, p) for v in pivot_rows[:, c].tolist()]
        systems[:, c] = pivot_rows * np.array(inverses, dtype=systems.dtype)[:, None] % p
        factors = systems[:, :, c:c + 1].copy()
        factors[:, c] = 0
        systems = (systems - factors * systems[:, c:c + 1]) % p
    return systems[:, :, size], nonsingular


class RSCodec:
    """Systematic [n_rs, k_rs, n_rs - k_rs + 1] Reed-Solomon code over F_p.

    Its parity table and check weights both come from one table of factorials mod p.
    """

    def __init__(self, p: int, n_rs: int, k_rs: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 1 <= k_rs <= n_rs:
            raise ValueError(f"need 1 <= k_rs <= n_rs, got k={k_rs}, n={n_rs}")
        if n_rs > p:
            raise ValueError(f"n_rs={n_rs} exceeds the field size {p}: "
                             "not enough distinct evaluation points")
        import numpy as np

        self.p, self.n_rs, self.k_rs = p, n_rs, k_rs
        n, k = n_rs, k_rs
        # m! and 1/m! for m < n, none of them 0 since n <= p; then 1/m = (m-1)!/m!.
        fact = list(itertools.accumulate(range(1, n), lambda a, m: a * m % p, initial=1))
        inv = list(itertools.accumulate(range(n - 1, 0, -1), lambda a, m: a * m % p,
                                        initial=pow(fact[-1], p - 2, p)))[::-1]
        fact, inv = np.array(fact, dtype=self._dtype), np.array(inv, dtype=self._dtype)
        reciprocal = fact[:-1] * inv[1:] % p  # reciprocal[m - 1] = 1/m
        signed = inv.copy()  # signed[m] = (-1)^m / m!
        signed[1::2] = (p - signed[1::2]) % p
        # Message point i's basis polynomial prod_{m != i} (x - m)/(i - m) is
        # x!/((x-k)! (x-i)) / ((-1)^(k-1-i) i! (k-1-i)!); _parity[i, x - k] is its value at x.
        basis = inv[:k] * signed[k - 1::-1] % p
        offsets = np.arange(k, n) - np.arange(k)[:, None]  # x - i
        falling = fact[k:] * inv[:n - k] % p  # x!/(x-k)!
        self._parity = basis[:, None] * reciprocal[offsets - 1] % p * falling % p
        # The checks are sum_i v_i i^l c_i = 0 for l < n - k, where sum_i v_i g(i), with
        # v_i = 1/prod_{j != i} (i - j) = 1/((-1)^(n-1-i) i! (n-1-i)!), is the leading
        # coefficient of g's interpolant: 0 whenever deg g <= n - 2.
        self._weights = inv * signed[::-1] % p

    @property
    def d_rs(self) -> int:
        return self.n_rs - self.k_rs + 1

    @property
    def radius(self) -> int:
        return (self.n_rs - self.k_rs) // 2

    @cached_property
    def _dtype(self):
        """The width of every sum the codec forms: at most n_rs products below p^2."""
        return _int_dtype(self.p ** 2 * self.n_rs)

    def _parities(self, messages):
        """The systematic encoder: parity symbols of a batch of checked messages, one row each."""
        return messages.astype(self._dtype) @ self._parity % self.p

    @cached_property
    def _check_array(self):
        """The parity checks as an (n_rs - k_rs) x n_rs array, built on the first decode."""
        import numpy as np

        checks = np.empty((self.n_rs - self.k_rs, self.n_rs), dtype=self._dtype)
        checks[:1] = self._weights
        points = np.arange(self.n_rs, dtype=self._dtype)
        for l in range(1, len(checks)):
            checks[l] = checks[l - 1] * points % self.p
        return checks


def _check_field(codec: RSCodec, words) -> None:
    """Refuse a batch read by core._integer_batch that holds an entry outside F_p."""
    p = codec.p
    if len(words) and (words.min() < 0 or words.max() >= p):
        raise ValueError(f"element {words[(words < 0) | (words >= p)][0]} outside F_{p}")


def rs_encode(codec: RSCodec, message: Sequence[int]) -> list[int]:
    """Systematic codeword: the message followed by n_rs - k_rs parity symbols."""
    words = _integer_batch([message], codec.k_rs)
    if words.shape[1] != codec.k_rs:
        raise ValueError(f"message length {words.shape[1]} != k_rs = {codec.k_rs}")
    _check_field(codec, words)
    return words[0].tolist() + codec._parities(words)[0].tolist()


def rs_decode(codec: RSCodec, received) -> list:
    """Syndrome decoding of up to t = floor((n_rs - k_rs)/2) symbol errors.

    Peterson-Gorenstein-Zierler: for r = c + e the syndromes are
    S_l = sum over error positions j of v_j e_j x_j^l.  The error locator
    sigma(z) = prod_j (z - x_j), monic of degree nu, satisfies
    sum_m sigma_m S_(l+m) = 0 for every l, and the nu x nu Hankel matrix
    (S_(l+m)) is nonsingular when nu is the number of errors and singular
    above it.  The largest nonsingular nu <= t gives the locator, whose roots
    among the evaluation points (0 included) are the error positions; the
    first nu parity checks then give the error values.  A corrected word
    counts only if it passes every parity check, so the answer is the
    unique codeword within the radius, or DecodingFailure when there is none.

    `received` is a batch: a 2-D array with one word per row, or a list of
    equal-length words.  Every step runs on all words at once, and the
    result is a list with one outcome per word: its message, or its
    DecodingFailure.
    """
    import numpy as np

    n, k = codec.n_rs, codec.k_rs
    words = _integer_batch(received, n)
    if words.shape[1] != n:
        raise ValueError(f"received length {words.shape[1]} != n_rs = {n}")
    _check_field(codec, words)
    if not len(words):  # simulate's 2^n budget check: an empty batch builds no checks
        return []
    p = codec.p
    words = words.astype(codec._dtype)
    checks = codec._check_array
    syndromes = words @ checks.T % p
    outcomes: list = [None] * len(words)
    corrupted = syndromes.any(axis=1)
    for i in np.flatnonzero(~corrupted).tolist():
        outcomes[i] = words[i, :k].tolist()
    pending = np.flatnonzero(corrupted)
    # The largest nu whose Hankel system is nonsingular, word by word.
    for nu in range(codec.radius, 0, -1):
        if not len(pending):
            break
        # Row l of a word's system: S_l .. S_(l+nu-1) and then -S_(l+nu).
        hankel = syndromes[pending][:, np.arange(nu)[:, None] + np.arange(nu + 1)]
        hankel[:, :, nu] = -hankel[:, :, nu] % p
        locators, found = _solve_mod(hankel, p)
        if found.any():
            _correct(codec, words, syndromes, pending[found], locators[found], outcomes)
        pending = pending[~found]
    for i in pending.tolist():
        outcomes[i] = DecodingFailure(
            "no error locator of degree at most the radius fits the syndromes")
    return outcomes


def _correct(codec: RSCodec, words, syndromes, rows, locators, outcomes) -> None:
    """rs_decode's last steps for the words `rows`, whose locators have one degree."""
    import numpy as np

    n, k, p = codec.n_rs, codec.k_rs, codec.p
    nu = locators.shape[1]
    points = np.arange(n, dtype=codec._dtype)
    value = np.ones((len(rows), n), dtype=codec._dtype)
    for c in range(nu - 1, -1, -1):
        value = (value * points + locators[:, c:c + 1]) % p
    roots = value == 0
    found = roots.sum(axis=1)
    for i, count in zip(rows[found != nu].tolist(), found[found != nu].tolist()):
        outcomes[i] = DecodingFailure(
            f"error locator of degree {nu} has {count} roots among the evaluation points")
    rows, roots = rows[found == nu], roots[found == nu]
    positions = np.nonzero(roots)[1].reshape(len(rows), nu)
    checks = codec._check_array
    system = np.concatenate((checks[np.arange(nu)[:, None], positions[:, None, :]],
                             syndromes[rows, :nu, None]), axis=2)
    values, _ = _solve_mod(system, p)
    corrected = words[rows]
    hit = np.arange(len(rows))[:, None]
    corrected[hit, positions] = (corrected[hit, positions] - values) % p
    failed = (corrected @ checks.T % p).any(axis=1)
    for i, word, bad in zip(rows.tolist(), corrected[:, :k].tolist(), failed.tolist()):
        outcomes[i] = DecodingFailure(
            f"word corrected at {nu} positions fails the parity checks") if bad else word


@dataclass(frozen=True)
class BinaryLinearCode:
    """[N, K, D] binary code given by a K x N generator; D is the design distance.

    The true minimum distance can be computed exhaustively (2^K codewords);
    constructions verify it is >= D before returning a code.
    """

    generator: tuple[tuple[int, ...], ...]
    design_distance: int
    seed: int | None = None

    def __post_init__(self):
        if not self.generator or not self.generator[0]:
            raise ValueError("generator must be nonempty")
        width = len(self.generator[0])
        for r in self.generator:
            if len(r) != width or any(b not in (0, 1) for b in r):
                raise ValueError("generator rows must be equal-length bit vectors")

    @property
    def N(self) -> int:
        return len(self.generator[0])

    @property
    def K(self) -> int:
        return len(self.generator)

    @cached_property
    def _row_masks(self) -> tuple[int, ...]:
        return tuple(sum(bit << i for i, bit in enumerate(row)) for row in self.generator)

    @cached_property
    def _nearest(self) -> dict[int, tuple[tuple[int, ...], int, int, bool]]:
        """_nearest_codeword's answers by received bit mask, as decoding meets them."""
        return {}

    def min_distance(self) -> int:
        """Exact minimum distance by Gray-code enumeration of all codewords.

        Taken over the nonzero messages, so a generator of rank below K,
        whose kernel holds a nonzero message, has distance 0.
        """
        if self.K > MAX_EXHAUSTIVE_K:
            raise ValueError(f"K={self.K} too large for exhaustive distance")
        return min(map(int.bit_count, _gray_codewords(self._row_masks)))

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "K": self.K,
            "D": self.design_distance,
            "seed": self.seed,
            "generator_rows": ["".join(str(b) for b in row) for row in self.generator],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BinaryLinearCode":
        gen = tuple(tuple(int(ch) for ch in row) for row in obj["generator_rows"])
        code = cls(generator=gen, design_distance=obj["D"], seed=obj.get("seed"))
        if code.N != obj["N"] or code.K != obj["K"]:
            raise ValueError("declared shape does not match generator rows")
        return code


def _gray_codewords(masks: Sequence[int]):
    """The codeword mask of each nonzero message in Gray-code order.

    The i-th (from 1) is the message i ^ (i >> 1), whose bit j selects masks[j].
    """
    codeword = 0
    for counter in range(1, 1 << len(masks)):
        codeword ^= masks[(counter & -counter).bit_length() - 1]
        yield codeword


def repetition_code(n_bits: int) -> BinaryLinearCode:
    """The [n, 1, n] repetition code."""
    if n_bits < 1:
        raise ValueError("need at least one bit")
    if n_bits > sys.maxsize:
        raise ValueError("--c1 is too large: a tuple cannot hold a repetition code that long")
    return BinaryLinearCode(generator=((1,) * n_bits,), design_distance=n_bits)


def build_outer_code(r: int, epsilon2, seed: int = 0) -> BinaryLinearCode:
    """Find an [c1*r, r, >= ceil((1/2 - epsilon2) * c1*r)] binary code.

    c1 starts at ceil(2 / (1 + 2*epsilon2)) and is raised after each
    OUTER_ATTEMPTS_PER_C1 seeded random generator matrices that fail the
    exact distance check, OUTER_ATTEMPTS in all.  The target is at least 1,
    so the check also rejects a generator of rank below r.  r = 1
    deterministically yields the all-ones (repetition) generator.  The seed
    of the successful attempt is recorded on the returned code.
    """
    if r < 1:
        raise ValueError("dimension r must be >= 1")
    eps = Fraction(epsilon2)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError(f"epsilon2 must lie in (0, 1/2), got {epsilon2}")
    first_c1 = math.ceil(Fraction(2) / (1 + 2 * eps))
    for c1 in range(first_c1, first_c1 + OUTER_ATTEMPTS // OUTER_ATTEMPTS_PER_C1):
        n_bits = c1 * r
        target = math.ceil((Fraction(1, 2) - eps) * n_bits)
        if r == 1:
            return BinaryLinearCode(generator=((1,) * n_bits,),
                                    design_distance=target, seed=seed)
        for local in range(OUTER_ATTEMPTS_PER_C1):
            attempt_seed = derive_seed(seed, "outer-code", c1, local)
            rng = random.Random(attempt_seed)
            gen = tuple(tuple(rng.randint(0, 1) for _ in range(n_bits))
                        for _ in range(r))
            code = BinaryLinearCode(generator=gen, design_distance=target,
                                    seed=attempt_seed)
            if code.min_distance() >= target:
                return code
    raise ConstructionFailure(
        f"no [{n_bits}, {r}] generator with distance target found",
        attempts=OUTER_ATTEMPTS,
    )


def _nearest_codeword(code: BinaryLinearCode,
                      target: int) -> tuple[tuple[int, ...], int, int, bool]:
    """(message, codeword mask, distance, tie?) of the closest codeword to a bit mask.

    The first codeword at the least distance in Gray-code order wins.  Each
    mask is walked once per code object; later calls read code._nearest.
    """
    known = code._nearest.get(target)
    if known is not None:
        return known
    best, best_cw, best_dist, tie = 0, 0, target.bit_count(), False
    for i, cw in enumerate(_gray_codewords(code._row_masks), 1):
        dist = (cw ^ target).bit_count()
        if dist < best_dist:
            best, best_cw, best_dist, tie = i, cw, dist, False
        elif dist == best_dist:
            tie = True
    message = tuple((best ^ best >> 1) >> j & 1 for j in range(code.K))
    answer = code._nearest[target] = (message, best_cw, best_dist, tie)
    return answer


def integer_lift_decode(code: BinaryLinearCode, y, w_max: int):
    """Recover w in {0..w_max}^K from y = G^T w + e with wt(e) < D/2.

    Bit-plane lifting: in each of bit_length(w_max) rounds the parity of y
    is a codeword of the message w mod 2 corrupted only inside supp(e), so a
    half-distance decode yields that bit plane; subtracting G^T (w mod 2)
    and halving reduces to the same problem for floor(w/2).  If the error
    weight exceeds the radius the output is arbitrary and the caller must
    treat it as untrusted (ties are then resolved to the first codeword
    found instead of failing).

    `y` is a batch: a 2-D array with one word per row, or a list of
    equal-length words.  The planes of all words are taken at once, each
    distinct parity pattern is decoded once, and the result is a 2-D array
    with one w per word.
    """
    import numpy as np

    values = _integer_batch(y, code.N)
    if values.shape[1] != code.N:
        raise ValueError(f"word length {values.shape[1]} != N = {code.N}")
    if w_max < 0:
        raise ValueError("w_max must be >= 0")
    planes = w_max.bit_length()
    w = np.zeros((len(values), code.K), dtype=_int_dtype((1 << planes) - 1))
    # Bit i of a word's parity pattern is the parity of its entry i.
    weights = np.array([1 << i for i in range(code.N)], dtype=_int_dtype((1 << code.N) - 1))
    generator = np.array(code.generator, dtype=np.int64)
    for plane in range(planes):
        patterns, which = np.unique((values & 1) @ weights, return_inverse=True)
        messages = np.array([_nearest_codeword(code, pattern)[0]
                             for pattern in patterns.tolist()], dtype=np.int64)
        bits = messages.reshape(len(patterns), code.K)[which.reshape(-1)]
        w += bits.astype(w.dtype) << plane
        values = (values - bits @ generator) >> 1
    return w
