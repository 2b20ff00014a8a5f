"""Reed-Solomon and binary-code components against independent oracles."""

import json
import math
import random
from itertools import combinations, product
from typing import Sequence

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import per_word
from sigmac.core import dumps_canonical
from sigmac.errors import AmbiguousDecoding, DecodingFailure
from sigmac.linear import (
    MR_EXACT_BELOW,
    BinaryLinearCode,
    _nearest_codeword,
    RSCodec,
    build_outer_code,
    integer_lift_decode,
    is_prime,
    repetition_code,
    rs_decode,
    rs_encode,
    smallest_prime_above,
)


def test_is_prime_against_sympy():
    for m in range(0, 2000):
        assert is_prime(m) == sympy.isprime(m), m


def test_is_prime_against_trial_division():
    for m in range(100_000):
        assert is_prime(m) == (m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))), m


# Carmichael numbers, strong pseudoprimes to the bases 2, 3, 5, 7 and to
# every prime up to 23, and the least one to every prime up to 37.
@pytest.mark.parametrize("m", [561, 41041, 3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_is_prime_rejects_pseudoprimes(m):
    assert not sympy.isprime(m)
    assert not is_prime(m)


def test_is_prime_is_exact_up_to_its_bound():
    below = sympy.prevprime(MR_EXACT_BELOW)
    assert is_prime(below) and not is_prime(below + 2)
    for m in (MR_EXACT_BELOW, MR_EXACT_BELOW + 1, 2 ** 100):
        with pytest.raises(ValueError, match="too large"):
            is_prime(m)
    with pytest.raises(ValueError):
        smallest_prime_above(MR_EXACT_BELOW - 1)
    # trial division took hours on this one
    assert smallest_prime_above(4 * (2**61 - 1)) == sympy.nextprime(4 * (2**61 - 1))


def test_smallest_prime_above():
    assert smallest_prime_above(10) == 11
    assert smallest_prime_above(1) == 2
    assert smallest_prime_above(13) == 17
    for m in range(1, 500):
        p = smallest_prime_above(m)
        assert sympy.isprime(p) and p > m
        assert p <= 2 * m  # Bertrand's guarantee
        assert not any(sympy.isprime(x) for x in range(m + 1, p))


def test_rs_codec_refuses_a_field_size_that_is_not_prime():
    assert RSCodec(7, n_rs=7, k_rs=3).p == 7
    with pytest.raises(ValueError, match="^8 is not prime$"):
        RSCodec(8, n_rs=7, k_rs=3)


def test_rs_codec_shape_constraints():
    with pytest.raises(ValueError):
        RSCodec(3, n_rs=4, k_rs=2)  # only 3 evaluation points exist
    with pytest.raises(ValueError):
        RSCodec(7, n_rs=3, k_rs=4)
    codec = RSCodec(7, n_rs=7, k_rs=3)
    assert codec.d_rs == 5 and codec.radius == 2


def test_rs_encode_systematic_and_linear():
    codec = RSCodec(11, n_rs=7, k_rs=3)
    # f(x) = x + 1 interpolates (0,1),(1,2),(2,3); parities are f(3..6)
    assert rs_encode(codec, [1, 2, 3]) == [1, 2, 3, 4, 5, 6, 7]
    assert rs_encode(codec, [0, 0, 0]) == [0] * 7
    degenerate = RSCodec(11, n_rs=3, k_rs=3)
    assert rs_encode(degenerate, [4, 9, 2]) == [4, 9, 2]
    with pytest.raises(ValueError):
        rs_encode(codec, [1, 2])
    with pytest.raises(ValueError):
        rs_encode(codec, [1, 2, 11])


def test_rs_mds_distance_exhaustive():
    # every pair of distinct messages differs in >= n_rs - k_rs + 1 positions
    for p, n, k in [(7, 6, 2), (11, 8, 3), (17, 6, 4), (13, 5, 1)]:
        codec = RSCodec(p, n_rs=n, k_rs=k)
        words = [rs_encode(codec, list(m)) for m in product(range(p), repeat=k)]
        if len(words) > 400:
            rng = random.Random(p)
            words = rng.sample(words, 400)
        d = codec.d_rs
        for a, b in combinations(words, 2):
            dist = sum(1 for x, y in zip(a, b) if x != y)
            assert dist >= d


def test_rs_decode_within_radius():
    codec = RSCodec(11, n_rs=7, k_rs=3)
    msg = [5, 0, 9]
    clean = rs_encode(codec, msg)
    assert rs_decode(codec, [clean]) == [msg]
    rng = random.Random(3)
    for _ in range(400):
        m = [rng.randrange(11) for _ in range(3)]
        word = rs_encode(codec, m)
        for pos in rng.sample(range(7), rng.randint(0, 2)):
            word[pos] = (word[pos] + rng.randint(1, 10)) % 11
        assert rs_decode(codec, [word]) == [m]


# -- test-only oracles: nearest codewords by brute force ----------------------

def rs_decode_bruteforce(codec: RSCodec, received: Sequence[int],
                         budget: int = 200_000) -> list[int]:
    """Independent nearest-codeword oracle over all p^k_rs messages.

    The codewords are tabulated as combinations mod p of the k_rs systematic
    basis codewords, in the message order of product(range(p), repeat=k_rs),
    so the first message at the minimum distance is the one returned.
    """
    p, k = codec.p, codec.k_rs
    if p ** k > budget:
        raise ValueError("message space too large for brute force")
    per_word.check_elements(codec, received)
    symbols = np.arange(p, dtype=np.int32)[:, None]
    codewords = np.zeros((1, codec.n_rs), dtype=np.int32)
    for i in range(k):
        basis = np.array(rs_encode(codec, [int(j == i) for j in range(k)]), dtype=np.int32)
        codewords = ((codewords[:, None, :] + symbols * basis) % p).reshape(-1, codec.n_rs)
    dist = np.count_nonzero(codewords != np.array(received), axis=1)
    best = int(dist.argmin())
    if np.count_nonzero(dist == dist[best]) > 1:
        raise DecodingFailure(f"tie at distance {dist[best]}")
    return [int(v) for v in codewords[best, :k]]


def encode_bits(code: BinaryLinearCode, message: Sequence[int]) -> tuple[int, ...]:
    """The codeword of `message`: the XOR of the generator rows it selects."""
    if len(message) != code.K:
        raise ValueError(f"message length {len(message)} != K = {code.K}")
    out = [0] * code.N
    for j, bit in enumerate(message):
        if bit:
            row = code.generator[j]
            for i in range(code.N):
                out[i] ^= row[i]
    return tuple(out)


def binary_half_distance_decode(code: BinaryLinearCode,
                                bits: Sequence[int]) -> tuple[int, ...]:
    """Nearest codeword by brute force; raises AmbiguousDecoding on a tie."""
    if len(bits) != code.N:
        raise ValueError(f"word length {len(bits)} != N = {code.N}")
    target = sum((1 if b else 0) << i for i, b in enumerate(bits))
    _, cw, dist, tie = _nearest_codeword(code, target)
    if tie:
        raise AmbiguousDecoding(f"tie at distance {dist}: outside decoding radius")
    return tuple((cw >> i) & 1 for i in range(code.N))


def test_rs_decode_single_error_small_code():
    codec = RSCodec(11, n_rs=4, k_rs=2)
    msg = [3, 7]
    word = rs_encode(codec, msg)
    for pos in range(4):
        for delta in range(1, 11):
            corrupted = list(word)
            corrupted[pos] = (corrupted[pos] + delta) % 11
            assert rs_decode(codec, [corrupted]) == [msg]
            assert rs_decode_bruteforce(codec, corrupted) == msg


def test_rs_decode_agrees_with_bruteforce():
    rng = random.Random(29)
    for p, n, k in [(7, 5, 2), (11, 6, 3), (11, 4, 2)]:
        codec = RSCodec(p, n_rs=n, k_rs=k)
        for _ in range(150):
            msg = [rng.randrange(p) for _ in range(k)]
            word = rs_encode(codec, msg)
            for pos in rng.sample(range(n), codec.radius):
                word[pos] = (word[pos] + rng.randint(1, p - 1)) % p
            assert rs_decode(codec, [word]) == [rs_decode_bruteforce(codec, word)] == [msg]


# -- Berlekamp-Welch, the decoder rs_decode replaced, kept as its oracle ----

def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_divmod(num, den, p):
    """Quotient and remainder of polynomials with ascending coefficients."""
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    rem = [c % p for c in num]
    while rem and rem[-1] == 0:
        rem.pop()
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(len(rem) - len(den) + 1, 0)
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        factor = (rem[-1] * inv_lead) % p
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def _nullspace_vector(rows, ncols, p):
    """Some nonzero kernel vector of the row system, or None if full rank."""
    rows = [r[:] for r in rows]
    pivot_cols = []
    rank = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        base = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                ri = rows[i]
                rows[i] = [(ri[j] - f * base[j]) % p for j in range(ncols)]
        pivot_cols.append(c)
        rank += 1
        if rank == len(rows):
            break
    in_pivots = set(pivot_cols)
    free = [c for c in range(ncols) if c not in in_pivots]
    if not free:
        return None
    sol = [0] * ncols
    f0 = free[0]
    sol[f0] = 1
    for i, c in enumerate(pivot_cols):
        sol[c] = (-rows[i][f0]) % p
    return sol


def berlekamp_welch_decode(codec, received):
    """Berlekamp-Welch decoding of up to floor((n_rs - k_rs)/2) symbol errors.

    Finds polynomials Q (deg <= t + k - 1) and E (deg <= t, nonzero) with
    Q(x_i) = r_i E(x_i) at every point, divides, and verifies the resulting
    codeword lies within the radius.  Raises DecodingFailure otherwise.
    """
    n, k = codec.n_rs, codec.k_rs
    if len(received) != n:
        raise ValueError(f"received length {len(received)} != n_rs = {n}")
    per_word.check_elements(codec, received)
    p = codec.p
    t = codec.radius
    # x_i^l table for the Berlekamp-Welch system.
    max_deg = max(t + k - 1, t, 0)
    powers = [[pow(x, l, p) for l in range(max_deg + 1)] for x in range(n)]
    nq = t + k          # number of Q coefficients
    ncols = nq + t + 1
    rows = []
    for i in range(n):
        pw = powers[i]
        r = received[i]
        row = [pw[l] for l in range(nq)]
        row += [(-r * pw[l]) % p for l in range(t + 1)]
        rows.append(row)
    sol = _nullspace_vector(rows, ncols, p)
    if sol is None:
        raise DecodingFailure("no rational interpolation exists")
    q_poly = sol[:nq]
    e_poly = sol[nq:]
    if not any(e_poly):
        raise DecodingFailure("degenerate error locator")
    f_poly, rem = _poly_divmod(q_poly, e_poly, p)
    if any(rem):
        raise DecodingFailure("interpolation ratio is not a polynomial")
    if len(f_poly) > k:
        raise DecodingFailure("message polynomial degree too large")
    codeword = [_poly_eval(f_poly, x, p) for x in range(n)]
    mismatches = sum(1 for a, b in zip(received, codeword) if a != b)
    if mismatches > t:
        raise DecodingFailure(f"{mismatches} mismatches exceed radius {t}")
    return codeword[:k]


def outcome(decode, *args):
    """What a decoder returns, or the type of the decoding error it raises or gives."""
    try:
        result = decode(*args)
    except (AmbiguousDecoding, DecodingFailure) as exc:
        return type(exc)
    return type(result) if isinstance(result, (AmbiguousDecoding, DecodingFailure)) else result


def rs_decode_one(codec: RSCodec, word: Sequence[int]):
    """rs_decode on the batch of one word: that word's outcome."""
    return rs_decode(codec, [word])[0]


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(PRIMES + (101, 2**31 - 1, 2**61 - 1)), n=st.integers(1, 24),
       k=st.integers(1, 24))
@example(p=2**61 - 1, n=12, k=5)  # object arrays: p^2 n is past 2^63
@example(p=23, n=23, k=1)         # every point of the field
def test_rs_codec_tables_match_the_textbook_products(p, n, k):
    """The factorial-built parity table and check array, entry for entry."""
    n = min(n, p)
    k = min(k, n)
    codec = RSCodec(p, n_rs=n, k_rs=k)
    assert (codec._dtype is object) == (p * p * n >= 2**63)
    assert codec._parity.tolist() == per_word.lagrange_parities(p, n, k)
    assert codec._check_array.tolist() == per_word.parity_checks(p, n, k)


@st.composite
def rs_cases(draw):
    """(codec, received): a codeword with up to radius + 2 symbols changed.

    n_rs - k_rs runs over 0..7, so the radius over 0..3 with both parities
    of the redundancy; position 0 (evaluation point 0) is hit as often as
    any other, and a word with no change has all syndromes zero.
    """
    p = draw(st.sampled_from(PRIMES))
    redundancy = draw(st.integers(0, min(7, p - 1)))
    k = draw(st.integers(1, p - redundancy))
    codec = RSCodec(p, n_rs=k + redundancy, k_rs=k)
    word = rs_encode(codec, draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k)))
    positions = draw(st.lists(st.integers(0, codec.n_rs - 1), unique=True,
                              max_size=codec.radius + 2))
    for pos in positions:
        word[pos] = (word[pos] + draw(st.integers(1, p - 1))) % p
    return codec, word


def _codec(p, n, k):
    return RSCodec(p, n_rs=n, k_rs=k)


@settings(max_examples=400, deadline=None)
@given(case=rs_cases())
@example(case=(_codec(11, 9, 5), [3, 0, 0, 0, 0, 0, 0, 0, 0]))      # one error at point 0
@example(case=(_codec(11, 9, 5), [3, 4, 0, 0, 0, 0, 0, 0, 0]))      # two, one at point 0
@example(case=(_codec(13, 12, 8), rs_encode(_codec(13, 12, 8), [1, 2, 3, 4, 5, 6, 7, 8])))
@example(case=(_codec(7, 7, 2), [0, 0, 0, 1, 2, 0, 0]))            # odd n - k
@example(case=(_codec(5, 5, 5), [1, 2, 3, 4, 0]))                  # radius 0, no checks
@example(case=(_codec(5, 5, 4), [1, 0, 0, 0, 0]))                  # radius 0, one check
@example(case=(_codec(5, 4, 1), [0, 0, 1, 2]))        # located and corrected, not a codeword
@example(case=(_codec(5, 5, 1), [0, 0, 1, 2, 3]))     # the same with n - k even
def test_rs_decode_matches_berlekamp_welch(case):
    codec, word = case
    assert outcome(rs_decode_one, codec, word) == outcome(berlekamp_welch_decode, codec, word)


@settings(max_examples=60, deadline=None)
@given(case=rs_cases())
@example(case=(_codec(11, 9, 3), [5, 0, 0, 0, 0, 0, 0, 0, 0]))
@example(case=(_codec(23, 9, 3), [1, 1, 1, 1, 0, 0, 0, 0, 0]))     # radius + 1 errors
@example(case=(_codec(5, 5, 1), [0, 0, 1, 2, 3]))
def test_rs_decode_matches_bruteforce(case):
    codec, word = case
    assume(codec.p ** codec.k_rs <= 200_000)
    got = outcome(rs_decode_one, codec, word)
    assert got == outcome(berlekamp_welch_decode, codec, word)
    nearest = outcome(rs_decode_bruteforce, codec, word)
    if got is DecodingFailure:
        # no codeword within the radius: the nearest one, if unique, is farther
        if nearest is not DecodingFailure:
            codeword = rs_encode(codec, nearest)
            assert sum(a != b for a, b in zip(codeword, word)) > codec.radius
    else:
        assert nearest == got


def test_rs_decode_beyond_radius_flags_or_misdecodes():
    # radius + 1 adversarial errors: the decoder may fail or land on a wrong
    # codeword, but must never silently return a non-codeword answer.
    codec = RSCodec(11, n_rs=6, k_rs=2)
    other = rs_encode(codec, [4, 4])
    word = rs_encode(codec, [1, 9])
    hybrid = other[:3] + word[3:]  # 3 = radius + 1 positions from another codeword
    [got] = rs_decode(codec, [hybrid])
    if not isinstance(got, DecodingFailure):
        cw = rs_encode(codec, got)
        assert sum(1 for a, b in zip(cw, hybrid) if a != b) <= codec.radius


def test_binary_code_basics():
    code = BinaryLinearCode(generator=((1, 0, 1, 0), (0, 1, 0, 1)),
                            design_distance=2)
    assert code.N == 4 and code.K == 2
    assert code.min_distance() == 2
    # a nonzero message that maps to the zero codeword is at distance 0
    for rank_deficient in (((1, 0, 1, 0),) * 2, ((0, 0, 0, 0),)):
        assert BinaryLinearCode(rank_deficient, design_distance=2).min_distance() == 0
    assert encode_bits(code, (1, 1)) == (1, 1, 1, 1)
    blob = dumps_canonical(code.to_json())
    assert BinaryLinearCode.from_json(json.loads(blob)) == code
    with pytest.raises(ValueError):
        BinaryLinearCode(generator=((1, 2),), design_distance=1)


def test_repetition_code():
    code = repetition_code(5)
    assert code.N == 5 and code.K == 1 and code.design_distance == 5
    assert code.min_distance() == 5


def test_build_outer_code_r1_is_repetition():
    code = build_outer_code(1, "1/8", seed=0)
    assert code.K == 1
    assert set(code.generator[0]) == {1}
    assert code.min_distance() == code.N >= code.design_distance


@pytest.mark.parametrize("r", [4, 8])
def test_build_outer_code_verified_distance(r):
    code = build_outer_code(r, "1/8", seed=1)
    n_bits = code.N
    target = -((1 - 2 * (1 / 8)) / 2 * n_bits // -1)  # ceil((1/2 - eps2) * N)
    assert code.design_distance == int(target)
    assert code.min_distance() >= code.design_distance > 0   # so of rank r
    assert code.N % r == 0  # N = c1 * r


def test_build_outer_code_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        build_outer_code(2, 0)
    with pytest.raises(ValueError):
        build_outer_code(2, "1/2")
    with pytest.raises(ValueError):
        build_outer_code(0, "1/8")


def test_build_outer_code_deterministic():
    a = build_outer_code(6, "1/8", seed=42)
    b = build_outer_code(6, "1/8", seed=42)
    assert a == b


def test_half_distance_decode():
    code = build_outer_code(4, "1/8", seed=1)
    radius = (code.min_distance() - 1) // 2
    rng = random.Random(4)
    for _ in range(200):
        msg = tuple(rng.randint(0, 1) for _ in range(code.K))
        word = list(encode_bits(code, msg))
        for pos in rng.sample(range(code.N), rng.randint(0, radius)):
            word[pos] ^= 1
        assert binary_half_distance_decode(code, word) == encode_bits(code, msg)
    clean = encode_bits(code, (1, 0, 1, 1))
    assert binary_half_distance_decode(code, clean) == clean


def test_half_distance_decode_tie_is_ambiguous():
    code = repetition_code(2)
    with pytest.raises(AmbiguousDecoding):
        binary_half_distance_decode(code, (1, 0))


def test_integer_lift_repetition_example():
    code = repetition_code(5)
    y = [3, 3, 3, 3, 3]
    y[1] += 7
    assert integer_lift_decode(code, [y], 3).tolist() == [[3]]
    assert integer_lift_decode(code, [[0] * 5], 3).tolist() == [[0]]
    assert integer_lift_decode(code, [[2] * 5], 2).tolist() == [[2]]


def test_integer_lift_binary_case_is_codeword_decoding():
    code = build_outer_code(4, "1/8", seed=1)
    rng = random.Random(9)
    for _ in range(100):
        w = tuple(rng.randint(0, 1) for _ in range(code.K))
        y = [sum(code.generator[j][i] * w[j] for j in range(code.K))
             for i in range(code.N)]
        assert integer_lift_decode(code, [y], 1).tolist() == [list(w)]


def lift_bruteforce(code, y, w_max):
    best, best_dist, tie = None, None, False
    for w in product(range(w_max + 1), repeat=code.K):
        image = [sum(code.generator[j][i] * w[j] for j in range(code.K))
                 for i in range(code.N)]
        dist = sum(1 for a, b in zip(image, y) if a != b)
        if best_dist is None or dist < best_dist:
            best, best_dist, tie = w, dist, False
        elif dist == best_dist:
            tie = True
    return best, tie


def find_binary_code(n_bits, k_bits, d_target, seed=0):
    """Seeded random search for an [n, k, >= d] generator, distance verified."""
    rng = random.Random(seed)
    while True:
        gen = tuple(tuple(rng.randint(0, 1) for _ in range(n_bits))
                    for _ in range(k_bits))
        code = BinaryLinearCode(generator=gen, design_distance=d_target)
        if code.min_distance() >= d_target > 0:
            return code


def test_integer_lift_exhaustive_small_grid():
    # [12, 4, >=5] code; every w in {0..7}^4, error supports of weight
    # < D/2 with values cycling over {-3..3}\{0}.  The 8^4-candidate brute
    # oracle is sampled (it costs ~200k operations per call).
    code = find_binary_code(12, 4, 5, seed=2)
    d = code.min_distance()
    max_errors = (d - 1) // 2
    assert max_errors >= 1
    values = [-3, -2, -1, 1, 2, 3]
    rng = random.Random(31)
    counter = 0
    for index, w in enumerate(product(range(8), repeat=4)):
        clean = [sum(code.generator[j][i] * w[j] for j in range(4))
                 for i in range(code.N)]
        support = tuple(rng.sample(range(code.N), rng.randint(0, max_errors)))
        y = list(clean)
        for pos in support:
            y[pos] += values[counter % 6]
            counter += 1
        got = integer_lift_decode(code, [y], 7).tolist()
        assert got == [list(w)], (w, support, got)
        if index % 64 == 0:
            oracle, tie = lift_bruteforce(code, y, 7)
            assert not tie and oracle == w


def reflected_gray(bits: int) -> list[int]:
    """Messages 0 .. 2^bits - 1 as bit masks in reflected Gray-code order."""
    order = [0]
    for j in range(bits):
        order += [m | 1 << j for m in reversed(order)]
    return order


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gray_walk_matches_brute_force(data):
    """min_distance and _nearest_codeword: the first codeword in Gray order wins."""
    n_bits = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * n_bits), min_size=1, max_size=4))
    code = BinaryLinearCode(generator=tuple(rows), design_distance=1)
    messages = [tuple(m >> j & 1 for j in range(code.K)) for m in reflected_gray(code.K)]
    codewords = [sum(b << i for i, b in enumerate(encode_bits(code, m))) for m in messages]
    assert code.min_distance() == min(cw.bit_count() for cw in codewords[1:])
    for target in range(1 << n_bits):
        dists = [(cw ^ target).bit_count() for cw in codewords]
        first = dists.index(min(dists))
        assert _nearest_codeword(code, target) == \
            (messages[first], codewords[first], dists[first], dists.count(dists[first]) > 1)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_memoised_lift_matches_a_fresh_one(data):
    n_bits = data.draw(st.integers(1, 7))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * n_bits), min_size=1, max_size=3))
    code = BinaryLinearCode(generator=tuple(rows), design_distance=1)
    w_max = data.draw(st.integers(0, 7))
    words = data.draw(st.lists(st.lists(st.integers(-3, 3 * w_max + 3), min_size=n_bits,
                                        max_size=n_bits), max_size=30))
    for y in words + words:
        fresh = BinaryLinearCode(generator=code.generator, design_distance=1)
        assert integer_lift_decode(code, [y], w_max).tolist() == \
            integer_lift_decode(fresh, [y], w_max).tolist()
    # every bit pattern, ties included, in a drawn order, after the lifts above
    for target in data.draw(st.permutations(range(1 << n_bits))):
        fresh = BinaryLinearCode(generator=code.generator, design_distance=1)
        assert _nearest_codeword(code, target) == _nearest_codeword(fresh, target)
        bits = [(target >> i) & 1 for i in range(n_bits)]
        assert (outcome(binary_half_distance_decode, code, bits)
                == outcome(binary_half_distance_decode, fresh, bits))
    assert len(code._nearest) == 1 << n_bits


def test_integer_lift_validation():
    code = repetition_code(3)
    with pytest.raises(ValueError):
        integer_lift_decode(code, [[1, 2]], 3)
    with pytest.raises(ValueError):
        integer_lift_decode(code, [[1, 2, 3]], -1)
