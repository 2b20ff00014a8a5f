"""Component codes: prime-field Reed-Solomon and small binary linear codes.

The RS codec is systematic over a prime field F_p with evaluation points
0..n-1: the first k points carry the message, the parities are the
interpolating polynomial's values at the remaining points.  Decoding is by
syndromes against parity checks the codec builds once.

The binary side provides [N, K, D] codes with exactly verified minimum
distance (exhaustive over the 2^K codewords at desk scale), their nearest
codewords by bit mask, and the integer-lift decoder that recovers a bounded
nonnegative integer vector w from G^T w + e by repeated bit-plane decoding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .core import _integer_batch, _is_batch, _unwrap, derive_seed
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


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


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
    """Systematic [n_rs, k_rs, n_rs - k_rs + 1] Reed-Solomon code over F_p."""

    def __init__(self, prime_field: PrimeField, n_rs: int, k_rs: int):
        if not 1 <= k_rs <= n_rs:
            raise ValueError(f"need 1 <= k_rs <= n_rs, got k={k_rs}, n={n_rs}")
        if n_rs > prime_field.p:
            raise ValueError(
                f"n_rs={n_rs} exceeds the field size {prime_field.p}: "
                f"not enough distinct evaluation points"
            )
        self.field = prime_field
        self.n_rs = n_rs
        self.k_rs = k_rs
        p = prime_field.p
        # Lagrange preprocessing: parity_matrix[i][j] is the value at parity
        # point k_rs+j of the basis polynomial that is 1 at message point i.
        self._parity_matrix = []
        for i in range(k_rs):
            denom = 1
            for m in range(k_rs):
                if m != i:
                    denom = (denom * (i - m)) % p
            inv_denom = pow(denom, p - 2, p)
            vals = []
            for xp in range(k_rs, n_rs):
                num = 1
                for m in range(k_rs):
                    if m != i:
                        num = (num * (xp - m)) % p
                vals.append((num * inv_denom) % p)
            self._parity_matrix.append(vals)
        # Parity checks: sum_i v_i x_i^l c_i = 0 for l < n_rs - k_rs, where
        # v_i = 1 / prod_{j != i} (x_i - x_j), because sum_i v_i g(x_i) is the
        # leading coefficient of g's interpolant, 0 whenever deg g <= n_rs - 2.
        weights = []
        for i in range(n_rs):
            denom = 1
            for j in range(n_rs):
                if j != i:
                    denom = (denom * (i - j)) % p
            weights.append(pow(denom, p - 2, p))
        self._checks = [[v * pow(x, l, p) % p for x, v in enumerate(weights)]
                        for l in range(n_rs - k_rs)]

    @property
    def d_rs(self) -> int:
        return self.n_rs - self.k_rs + 1

    @property
    def radius(self) -> int:
        return (self.n_rs - self.k_rs) // 2

    def _check_elements(self, vec: Sequence[int]):
        p = self.field.p
        for v in vec:
            if not 0 <= v < p:
                raise ValueError(f"element {v} outside F_{p}")

    @cached_property
    def _dtype(self):
        """int64 where every syndrome sum, n_rs products below p^2, fits; else object."""
        import numpy as np

        return np.int64 if self.field.p ** 2 * self.n_rs < 1 << 63 else object

    @cached_property
    def _check_array(self):
        """The parity checks as an (n_rs - k_rs) x n_rs array."""
        import numpy as np

        return np.array(self._checks, dtype=self._dtype).reshape(-1, self.n_rs)


def rs_encode(codec: RSCodec, message: Sequence[int]) -> list[int]:
    """Systematic codeword: the message followed by n_rs - k_rs parity symbols."""
    if len(message) != codec.k_rs:
        raise ValueError(f"message length {len(message)} != k_rs = {codec.k_rs}")
    codec._check_elements(message)
    p = codec.field.p
    parities = []
    for j in range(codec.n_rs - codec.k_rs):
        acc = 0
        for i, m in enumerate(message):
            if m:
                acc += m * codec._parity_matrix[i][j]
        parities.append(acc % p)
    return list(message) + parities


def rs_decode(codec: RSCodec, received):
    """Syndrome decoding of up to t = floor((n_rs - k_rs)/2) symbol errors.

    Peterson-Gorenstein-Zierler: for r = c + e the syndromes are
    S_l = sum over error positions j of v_j e_j x_j^l.  The error locator
    sigma(z) = prod_j (z - x_j), monic of degree nu, satisfies
    sum_m sigma_m S_(l+m) = 0 for every l, and the nu x nu Hankel matrix
    (S_(l+m)) is nonsingular when nu is the number of errors and singular
    above it.  The largest nonsingular nu <= t gives the locator, whose roots
    among the evaluation points (0 included) are the error positions; the
    first nu parity checks then give the error values.  The corrected word
    is returned only if it passes every parity check, so the answer is the
    unique codeword within the radius; DecodingFailure is raised when there
    is none.

    `received` may also be a 2-D array with one word per row.  Every step
    then runs on all words at once, and the result is a list with one
    outcome per row: the message, or the DecodingFailure of that word.
    """
    import numpy as np

    n, k = codec.n_rs, codec.k_rs
    batch = _is_batch(received)
    length = received.shape[1] if batch else len(received)
    if length != n:
        raise ValueError(f"received length {length} != n_rs = {n}")
    words = _integer_batch(received if batch else [received], n)
    p = codec.field.p
    if len(words) and (words.min() < 0 or words.max() >= p):
        raise ValueError(f"element {words[(words < 0) | (words >= p)][0]} outside F_{p}")
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
    return outcomes if batch else _unwrap(outcomes[0])


def _correct(codec: RSCodec, words, syndromes, rows, locators, outcomes) -> None:
    """rs_decode's last steps for the words `rows`, whose locators have one degree."""
    import numpy as np

    n, k, p = codec.n_rs, codec.k_rs, codec.field.p
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
        masks = self._row_masks
        cw = 0
        best = self.N + 1
        for counter in range(1, 1 << self.K):
            j = (counter & -counter).bit_length() - 1
            cw ^= masks[j]
            w = cw.bit_count()
            if w < best:
                best = w
        return best

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


def repetition_code(n_bits: int) -> BinaryLinearCode:
    """The [n, 1, n] repetition code."""
    if n_bits < 1:
        raise ValueError("need at least one bit")
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
    masks = code._row_masks
    msg = [0] * code.K
    cw = 0
    best_msg = tuple(msg)
    best_cw = 0
    best_dist = (cw ^ target).bit_count()
    tie = False
    for counter in range(1, 1 << code.K):
        j = (counter & -counter).bit_length() - 1
        msg[j] ^= 1
        cw ^= masks[j]
        dist = (cw ^ target).bit_count()
        if dist < best_dist:
            best_msg, best_cw, best_dist, tie = tuple(msg), cw, dist, False
        elif dist == best_dist:
            tie = True
    answer = code._nearest[target] = (best_msg, best_cw, best_dist, tie)
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

    `y` may also be a 2-D array with one word per row; the planes of all
    words are then taken at once, each distinct parity pattern is decoded
    once, and the result is a 2-D array with one w per row.
    """
    import numpy as np

    batch = _is_batch(y)
    length = y.shape[1] if batch else len(y)
    if length != code.N:
        raise ValueError(f"word length {length} != N = {code.N}")
    if w_max < 0:
        raise ValueError("w_max must be >= 0")
    values = _integer_batch(y if batch else [y], code.N)
    planes = w_max.bit_length()
    w = np.zeros((len(values), code.K), dtype=np.int64 if planes < 63 else object)
    # Bit i of a word's parity pattern is the parity of its entry i.
    weights = np.array([1 << i for i in range(code.N)],
                       dtype=np.int64 if code.N < 63 else object)
    generator = np.array(code.generator, dtype=np.int64)
    for plane in range(planes):
        patterns, which = np.unique((values & 1) @ weights, return_inverse=True)
        messages = np.array([_nearest_codeword(code, pattern)[0]
                             for pattern in patterns.tolist()], dtype=np.int64)
        bits = messages.reshape(len(patterns), code.K)[which.reshape(-1)]
        w += bits.astype(w.dtype) << plane
        values = (values - bits @ generator) >> 1
    return w if batch else tuple(w[0].tolist())
