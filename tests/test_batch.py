"""Batch decoding and the chunked simulate loop against the per-word code they replaced.

Every family's `decode_batch` must give, word for word, what its per-word
decoder in `per_word.py` returns or raises (type and text), for batches of
0, 1, an odd number and more than one simulate chunk of words.  `simulate`
must print, byte for byte, what a round-at-a-time loop prints.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_word
from sigmac import cli
from sigmac import constructions as cons
from sigmac.core import SignatureMatrix, encode
from sigmac.errors import AmbiguousDecoding, DecodingFailure
from sigmac.linear import (
    BinaryLinearCode,
    PrimeField,
    RSCodec,
    integer_lift_decode,
    rs_decode,
    rs_encode,
)

CHUNK = cli.SIMULATE_CHUNK
BATCH_SIZES = [0, 1, 7, CHUNK + 1]


def as_outcome(result):
    """A batch outcome in per_word.outcome's form."""
    if isinstance(result, (AmbiguousDecoding, DecodingFailure)):
        return type(result), str(result)
    return result


def per_word_outcomes(decode, words):
    return [per_word.outcome(decode, word) for word in words]


def noisy_words(rng, matrix, count, errors, values):
    """`count` codewords of `matrix`, each with up to `errors` entries changed."""
    words = []
    for _ in range(count):
        word = list(encode(matrix, [rng.randint(0, 1) for _ in range(matrix.n)]))
        for pos in rng.sample(range(matrix.k), rng.randint(0, min(errors, matrix.k))):
            change = rng.choice(values)
            word[pos] = change(word[pos]) if callable(change) else change
        words.append(tuple(word))
    return words


def random_matrix(rng, q, k, n):
    return SignatureMatrix(q=q, rows=tuple(tuple(rng.randrange(q) for _ in range(n))
                                           for _ in range(k)))


# -- plain codes: decode_min_distance ----------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.sampled_from(BATCH_SIZES),
       q=st.sampled_from([2, 3, 4, 2**40, 2**62]), n=st.integers(1, 7),
       k=st.integers(1, 8), t=st.integers(-1, 3), as_array=st.booleans())
def test_plain_batch_matches_per_word(seed, size, q, n, k, t, as_array):
    rng = random.Random(seed)
    matrix = random_matrix(rng, q, k, n)
    cap = n * (q - 1)
    # An offset error, or a value no M u can equal: negative, above
    # n(q-1), beyond 64 bits or not an integer.
    values = [lambda v: v + rng.randint(-3, 3), lambda v: v + 1,
              -1, cap + 1, 10**30, -10**30, 0.5, float(cap)]
    words = noisy_words(rng, matrix, size, 3, values)
    code = cons.PlainCode(matrix, 0, {"kind": "matrix"})
    batch = cons._as_batch(words, k) if as_array else words
    got = [as_outcome(o) for o in code.decode_batch(batch, t)]
    assert got == per_word_outcomes(per_word.decoder(code, t), words)
    for result in got:
        if not isinstance(result[0], type):
            assert all(type(bit) is int for bit in result)


def test_plain_batch_of_huge_entries_uses_python_ints():
    matrix = SignatureMatrix(q=2**64, rows=((2**63, 1), (5, 2**64 - 1), (1, 0)))
    assert matrix._half_tables.dtype == object
    words = [encode(matrix, u) for u in ((0, 0), (1, 0), (0, 1), (1, 1))]
    assert cons.PlainCode(matrix, 0, {}).decode_batch(words, 0) == \
        [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_batch_checks_word_length():
    code = cons.PlainCode(SignatureMatrix(q=2, rows=((1, 0), (0, 1))), 0, {})
    with pytest.raises(ValueError, match="received word length 3 != k = 2"):
        code.decode_batch([(0, 0, 0)], 0)
    with pytest.raises(ValueError, match="differ in length"):
        code.decode_batch([(0, 0), (0, 0, 0)], 0)


# -- Reed-Solomon: rs_decode and rs_augmented_decode ---------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.sampled_from(BATCH_SIZES),
       p=st.sampled_from([11, 13, 101, 2**31 - 1, 2**61 - 1]), k=st.integers(1, 4),
       t=st.integers(1, 3))
def test_rs_decode_batch_matches_per_word(seed, size, p, k, t):
    rng = random.Random(seed)
    codec = RSCodec(PrimeField(p), n_rs=k + 2 * t, k_rs=k)
    assert (codec._dtype is object) == (p * p * codec.n_rs >= 2**63)
    words = []
    for _ in range(size):
        # A codeword (zero syndromes) plus symbol errors up to two past the radius.
        word = rs_encode(codec, [rng.randrange(p) for _ in range(k)])
        for pos in rng.sample(range(codec.n_rs), rng.randint(0, t + 2)):
            word[pos] = rng.randrange(p)
        words.append(word)
    got = [as_outcome(o) for o in rs_decode(codec, cons._as_batch(words, codec.n_rs))]
    assert got == [per_word.outcome(lambda w: per_word.rs_decode(codec, w), w) for w in words]


def rs_codes():
    identity = cons.construct_trivial
    return [
        cons.rs_augment(identity(3), 1),
        cons.rs_augment(identity(5), 2),
        # a base other than the identity, decoded by the 2^n search
        cons.rs_augment(SignatureMatrix(q=2, rows=((1, 1, 0), (0, 1, 1), (1, 0, 1))), 1),
        # q_RS near 2^32, so p^2 n_rs passes 2^63 and RS runs on Python ints
        cons.rs_augment(SignatureMatrix(q=2**31, rows=((2**31 - 1, 5), (3, 2**30))), 1),
    ]


RS_CODES = rs_codes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.sampled_from(BATCH_SIZES),
       which=st.integers(0, len(RS_CODES) - 1), extra=st.integers(0, 2))
def test_rs_augmented_batch_matches_per_word(seed, size, which, extra):
    rng = random.Random(seed)
    code = RS_CODES[which]
    big = code.q_rs
    values = [lambda v: v + rng.randint(-big, big), lambda v: v - 1, 10**30, -(2**70)]
    words = noisy_words(rng, code.matrix, size, code.t + extra, values)
    if which == len(RS_CODES) - 1:
        assert code.codec._dtype is object
    got = [as_outcome(o) for o in code.decode_batch(words, code.t)]
    assert got == per_word_outcomes(per_word.decoder(code, code.t), words)


# -- Kronecker: integer_lift_decode and kronecker_decode -----------------------

@st.composite
def kronecker_codes(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    q, p, s = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    r, n_bits = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    outer = BinaryLinearCode(generator=tuple(tuple(rng.randint(0, 1) for _ in range(n_bits))
                                             for _ in range(r)), design_distance=1)
    return cons.kronecker_compose(outer, random_matrix(rng, q, p, s), t_inner=0)


@settings(max_examples=40, deadline=None)
@given(code=kronecker_codes(), seed=st.integers(0, 2**32),
       size=st.sampled_from(BATCH_SIZES), errors=st.integers(0, 4))
def test_kronecker_batch_matches_per_word(code, seed, size, errors):
    rng = random.Random(seed)
    values = [lambda v: v + rng.randint(-4, 4), lambda v: v + 1, 2**70, -5]
    words = noisy_words(rng, code.matrix, size, errors, values)
    got = [as_outcome(o) for o in code.decode_batch(words, code.design_t)]
    assert got == per_word_outcomes(per_word.decoder(code, code.design_t), words)


@settings(max_examples=40, deadline=None)
@given(code=kronecker_codes(), seed=st.integers(0, 2**32),
       size=st.sampled_from(BATCH_SIZES), w_max=st.sampled_from([0, 1, 5, 2**63]))
def test_integer_lift_batch_matches_per_word(code, seed, size, w_max):
    rng = random.Random(seed)
    outer = code.outer
    words = [tuple(rng.choice([rng.randint(-9, 9), 2**64 + 3]) for _ in range(outer.N))
             for _ in range(size)]
    got = integer_lift_decode(outer, cons._as_batch(words, outer.N), w_max)
    assert got.shape == (size, outer.K)
    assert [tuple(row) for row in got.tolist()] == \
        [per_word.integer_lift_decode(outer, word, w_max) for word in words]


@pytest.mark.parametrize("entry", [1.0, 2.5, float("nan")])
def test_structured_decoders_reject_non_integer_entries(entry):
    """A float would be truncated to a symbol the channel never sent."""
    rs = RS_CODES[0]
    kron = cons.kronecker_compose(
        BinaryLinearCode(generator=((1, 1, 1),), design_distance=3),
        SignatureMatrix(q=2, rows=((1, 0), (1, 1))), t_inner=0)
    calls = [
        (lambda word: rs.decode_batch([word], rs.t), rs.matrix.k),
        (lambda word: cons.rs_augmented_decode(rs, word), rs.matrix.k),
        (lambda word: kron.decode_batch([word], 0), kron.matrix.k),
        (lambda word: cons.kronecker_decode(kron, word), kron.matrix.k),
        (lambda word: rs_decode(rs.codec, word), rs.codec.n_rs),
        (lambda word: integer_lift_decode(kron.outer, word, 2), kron.outer.N),
    ]
    for decode, length in calls:
        for pos in (0, length - 1):
            word = [0] * length
            word[pos] = entry
            with pytest.raises(ValueError, match="is not an integer"):
                decode(word)


def test_numpy_integers_in_an_object_batch_are_integers():
    import numpy as np

    code = RS_CODES[0]
    clean = encode(code.matrix, (1, 0, 1))
    word = [np.int64(v) for v in clean[:-1]] + [2**70 + clean[-1]]
    assert code.decode_batch([clean, word], code.t) == [(1, 0, 1), (1, 0, 1)]


# -- simulate: chunked rounds against one round at a time ---------------------

@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    work = tmp_path_factory.mktemp("artifacts")
    built = {}
    for name, argv in (
        ("random", ["--method", "random", "--q", "3", "--n", "8", "--t", "1", "--k", "12",
                    "--seed", "7"]),
        ("rs", ["--method", "rs-augment", "--n", "5", "--t", "2"]),
        ("kronecker", ["--method", "kronecker", "--q", "3", "--epsilon", "1/16", "--p", "3",
                       "--s", "2", "--inner-t", "1", "--r", "3", "--seed", "5"]),
    ):
        built[name] = work / f"{name}.json"
        assert cli.main(["construct", *argv, "--out", str(built[name])]) == 0
    return built


def run_both(capsys, argv):
    capsys.readouterr()
    got = (cli.main(argv), *capsys.readouterr())
    want = (per_word.simulate_reference(argv), *capsys.readouterr())
    return got, want


@pytest.mark.parametrize("name", ["random", "rs", "kronecker"])
@pytest.mark.parametrize("mode", ["random-positions-random-values", "worst-case-from-witness"])
def test_simulate_matches_round_at_a_time(artifacts, capsys, name, mode):
    for rounds in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3):
        argv = ["simulate", "--in", str(artifacts[name]), "--rounds", str(rounds),
                "--seed", str(rounds + 11), "--error-mode", mode]
        got, want = run_both(capsys, argv)
        assert got == want, rounds
        assert got[0] == 0


@pytest.mark.parametrize("name, t", [("random", "8"), ("rs", "4"), ("kronecker", "9")])
@pytest.mark.parametrize("mode", ["random-positions-random-values", "worst-case-from-witness"])
def test_simulate_over_budget_matches_round_at_a_time(artifacts, capsys, name, t, mode):
    for rounds in (CHUNK - 1, 2 * CHUNK + 3):
        argv = ["simulate", "--in", str(artifacts[name]), "--rounds", str(rounds),
                "--t", t, "--seed", "3", "--error-mode", mode]
        got, want = run_both(capsys, argv)
        assert got == want, rounds
        # failed rounds print their first ten lines, then the summary
        assert got[0] == 1 and got[2].count("\n") == 10
