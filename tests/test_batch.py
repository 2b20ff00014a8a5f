"""Batch decoding and the chunked simulate loop against the per-word code they replaced.

Every family's `decode_batch` must give, word for word, what its per-word
decoder in `per_word.py` returns or raises (type and text), for batches of
0, 1, an odd number and more than one simulate chunk of words.  `simulate`
must print, byte for byte, what a round-at-a-time loop prints.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_word
from sigmac import cli
from sigmac import constructions as cons
from sigmac import core, linear
from sigmac.core import SignatureMatrix, encode
from sigmac.errors import AmbiguousDecoding, CapacityError, DecodingFailure
from sigmac.linear import (
    BinaryLinearCode,
    RSCodec,
    integer_lift_decode,
    repetition_code,
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
    # n(q-1) or beyond 64 bits.
    values = [lambda v: v + rng.randint(-3, 3), lambda v: v + 1,
              -1, cap + 1, 10**30, -10**30]
    words = noisy_words(rng, matrix, size, 3, values)
    code = cons.PlainCode(matrix, 0, {"kind": "matrix"})
    batch = core._integer_batch(words, k) if as_array else words
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
    codec = RSCodec(p, n_rs=k + 2 * t, k_rs=k)
    assert (codec._dtype is object) == (p * p * codec.n_rs >= 2**63)
    words = []
    for _ in range(size):
        # A codeword (zero syndromes) plus symbol errors up to two past the radius.
        word = rs_encode(codec, [rng.randrange(p) for _ in range(k)])
        for pos in rng.sample(range(codec.n_rs), rng.randint(0, t + 2)):
            word[pos] = rng.randrange(p)
        words.append(word)
    got = [as_outcome(o) for o in rs_decode(codec, core._integer_batch(words, codec.n_rs))]
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


# Row 0 of the inner matrix cannot tell u = (1, 0) from (0, 1), and s(q - 1)
# is 2.  The first two words below lift to the blocks (1, 0, 0), a three-way
# tie at 1, and (3, 1, 1), decoded as (1, 1) from a value above s(q - 1), in
# either order; the third to (0, 0, 0) and (3, 1, 1), without a tie.
TIED_KRONECKER = cons.kronecker_compose(
    BinaryLinearCode(generator=((1, 0, 1), (0, 1, 1)), design_distance=1),
    SignatureMatrix(q=2, rows=((1, 1), (1, 0), (0, 1))), t_inner=0)
TIED_WORDS = [(1, 0, 0, 3, 1, 1, 4, 1, 1), (3, 1, 1, 1, 0, 0, 4, 1, 1),
              (0, 0, 0, 3, 1, 1, 3, 1, 1)]


# The block size crosses a word's blocks and their ties over the engine's
# block boundaries: at 1, every left half of the inner search is a block.
@pytest.mark.parametrize("block", [core.DECODE_BLOCK, 64, 1])
@settings(max_examples=40, deadline=None)
@given(code=kronecker_codes(), seed=st.integers(0, 2**32), errors=st.integers(0, 4))
@example(code=TIED_KRONECKER, seed=0, errors=0)
def test_kronecker_search_matches_per_word_at_any_block(block, code, seed, errors):
    rng = random.Random(seed)
    values = [lambda v: v + rng.randint(-4, 4), lambda v: v + 1, 2**70, -5]
    words = noisy_words(rng, code.matrix, 7, errors, values)
    if code is TIED_KRONECKER:
        words += TIED_WORDS
    with mock.patch.object(core, "DECODE_BLOCK", block):
        got = [as_outcome(o) for o in code.decode_batch(words, code.design_t)]
    assert got == per_word_outcomes(per_word.decoder(code, code.design_t), words)


def test_tied_kronecker_words():
    tie = "block {}: tie at 1 mismatched rows (error budget exceeded)"
    assert [as_outcome(o) for o in TIED_KRONECKER.decode_batch(TIED_WORDS, 0)] == [
        (AmbiguousDecoding, tie.format(0)), (AmbiguousDecoding, tie.format(1)),
        (0, 0, 1, 1)]


@settings(max_examples=40, deadline=None)
@given(code=kronecker_codes(), seed=st.integers(0, 2**32),
       size=st.sampled_from(BATCH_SIZES), w_max=st.sampled_from([0, 1, 5, 2**63]))
def test_integer_lift_batch_matches_per_word(code, seed, size, w_max):
    rng = random.Random(seed)
    outer = code.outer
    words = [tuple(rng.choice([rng.randint(-9, 9), 2**64 + 3]) for _ in range(outer.N))
             for _ in range(size)]
    got = integer_lift_decode(outer, core._integer_batch(words, outer.N), w_max)
    assert got.shape == (size, outer.K)
    assert [tuple(row) for row in got.tolist()] == \
        [per_word.integer_lift_decode(outer, word, w_max) for word in words]


TINY_KRONECKER = cons.kronecker_compose(
    BinaryLinearCode(generator=((1, 1, 1),), design_distance=3),
    SignatureMatrix(q=2, rows=((1, 0), (1, 1))), t_inner=0)


PLAIN = cons.PlainCode(SignatureMatrix(q=2, rows=((1, 0, 1), (0, 1, 1))), 0, {})


# Every decoder of a batch, and simulate_round, with the length of its words.
BATCH_CALLS = {
    "PlainCode.decode_batch": (lambda words: PLAIN.decode_batch(words, 0), 2),
    "AugmentedCode.decode_batch": (lambda words: RS_CODES[0].decode_batch(words, 1),
                                   RS_CODES[0].matrix.k),
    "KroneckerCode.decode_batch": (lambda words: TINY_KRONECKER.decode_batch(words, 0),
                                   TINY_KRONECKER.matrix.k),
    "decode_min_distance": (lambda words: core.decode_min_distance(words, PLAIN.matrix, 0), 2),
    "rs_decode": (lambda words: rs_decode(RS_CODES[0].codec, words), RS_CODES[0].codec.n_rs),
    "integer_lift_decode": (lambda words: integer_lift_decode(TINY_KRONECKER.outer, words, 2),
                            TINY_KRONECKER.outer.N),
    "rs_augmented_decode": (lambda words: cons.rs_augmented_decode(RS_CODES[0], words),
                            RS_CODES[0].matrix.k),
    "kronecker_decode": (lambda words: cons.kronecker_decode(TINY_KRONECKER, words),
                         TINY_KRONECKER.matrix.k),
    "simulate_round": (lambda words: core.simulate_round(
        PLAIN.matrix, words, 0, core.RANDOM_ERRORS, seed=[0] * len(words)), 3),
}


@pytest.mark.parametrize("name", list(BATCH_CALLS))
@pytest.mark.parametrize("as_array", [False, True], ids=["tuple", "array"])
def test_a_bare_word_is_not_a_batch(name, as_array):
    """One word y is the batch [y]; alone, it is refused, not read as len(y) words."""
    call, length = BATCH_CALLS[name]
    word = (1,) + (0,) * (length - 1)
    with pytest.raises(ValueError, match="a batch of words is expected"):
        call(np.array(word) if as_array else word)
    assert len(call([word])) == 1


@pytest.mark.parametrize("name", list(BATCH_CALLS))
def test_an_empty_batch_gives_no_outcomes(name):
    call, _ = BATCH_CALLS[name]
    assert len(call([])) == 0


# The entry points that read one activity vector, word, error pattern or RS
# message, with the length of what each reads.
SINGLE_CALLS = {
    "encode": (lambda u: encode(PLAIN.matrix, u), 3),
    "apply_errors word": (lambda y: core.apply_errors(y, {0: 1}), 3),
    "apply_errors values": (lambda values: core.apply_errors((0, 0, 0), dict(zip((0, 2), values))),
                            2),
    "apply_errors positions": (lambda positions: core.apply_errors(
        (0, 0, 0), dict.fromkeys(positions, 1)), 2),
    "rs_encode": (lambda message: rs_encode(RS_CODES[0].codec, message), RS_CODES[0].codec.k_rs),
}


@pytest.mark.parametrize("entry", [1.0, 2.5, float("nan"), "a", None], ids=repr)
@pytest.mark.parametrize("name", [*BATCH_CALLS, *SINGLE_CALLS])
def test_every_reader_refuses_a_non_integer_entry(name, entry):
    """A float would be truncated to a symbol the channel never sent, or match nothing."""
    call, length = {**BATCH_CALLS, **SINGLE_CALLS}[name]
    for pos in (0, length - 1):
        word = [0] * length
        word[pos] = entry
        with pytest.raises(ValueError) as refused:
            call([word] if name in BATCH_CALLS else word)
        assert str(refused.value) == f"received entry {entry!r} is not an integer"


@settings(max_examples=100, deadline=None)
@given(cap=st.one_of(st.integers(0, 300), st.integers(0, 2**70)),
       kind=st.sampled_from(["int64", "uint64", "object"]), data=st.data())
def test_received_symbols_match_the_per_entry_rule(cap, kind, data):
    """The one vectorised step equals the per-entry rule on every batch the reader gives."""
    low, high = {"int64": (-2**63, 2**63 - 1), "uint64": (0, 2**64 - 1),
                 "object": (-2**100, 2**100)}[kind]
    edges = [v for v in (-10**30, -1, 0, cap, cap + 1, 10**30, low, high) if low <= v <= high]
    entries = st.one_of(st.integers(low, high), st.integers(-2, cap + 2).filter(
        lambda v: low <= v <= high), st.sampled_from(edges))
    width = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=4))
    batch = np.array(rows, dtype={"int64": np.int64, "uint64": np.uint64,
                                  "object": object}[kind]).reshape(len(rows), width)
    dtype = np.min_scalar_type(-1 - cap)     # as SignatureMatrix._half_tables takes it
    symbols = core._received_symbols(core._integer_batch(batch, width), cap, dtype)
    assert symbols.dtype == dtype
    assert symbols.tolist() == [[per_word.received_symbol(v, cap) for v in row] for row in rows]


def test_decode_batch_checks_the_2n_limit_before_any_word():
    # the 3 columns of the plain matrix, and of the RS code's base
    for code in (PLAIN, RS_CODES[2]):
        for words in ([], [(0,)], (0, 1)):
            with pytest.raises(CapacityError, match=r"n=3 exceeds the 2\^n decoding limit \(2\)"):
                code.decode_batch(words, 0, 2)


def test_an_empty_batch_of_64_bit_parity_symbols():
    # q_RS = 2^61 - 1 makes each parity symbol 64 bit rows wide
    code = cons.rs_augment(SignatureMatrix(q=2**61, rows=cons.construct_trivial(4).rows), 1)
    assert code.bit_width == 64
    assert code.decode_batch([], code.t) == []


def test_an_empty_batch_builds_no_check_array():
    # simulate checks a code's 2^n budget by decoding an empty batch
    code = cons.rs_augment(cons.construct_trivial(3), 2)
    assert code.decode_batch([], code.t) == [] and rs_decode(code.codec, []) == []
    assert "_check_array" not in code.codec.__dict__


def test_numpy_integers_in_an_object_batch_are_integers():
    code = RS_CODES[0]
    clean = encode(code.matrix, (1, 0, 1))
    word = [np.int64(v) for v in clean[:-1]] + [2**70 + clean[-1]]
    assert code.decode_batch([clean, word], code.t) == [(1, 0, 1), (1, 0, 1)]


# -- integer width: both sides of core._int_dtype at every site ----------------

def chosen_widths(module, call):
    """call()'s result and the dtypes `module`'s _int_dtype chose for it, in order."""
    chosen, rule = [], core._int_dtype

    def spy(bound):
        chosen.append(rule(bound))
        return chosen[-1]

    with mock.patch.object(module, "_int_dtype", spy):
        return call(), chosen


def test_int_dtype_is_int64_below_2_to_the_63():
    assert core._int_dtype(0) is core._int_dtype(2**63 - 1) is np.int64
    assert core._int_dtype(2**63) is core._int_dtype(2**70) is object


@pytest.mark.parametrize("q, rows, width", [
    (3, ((1, 2, 0), (2, 1, 1)), np.int64),
    # n(q - 1) = 2^63 - 2, which the pair (1, 1) sums to on row 0
    (2**62, ((2**62 - 1, 2**62 - 1), (0, 0)), np.int64),
    (2**62, ((2**62 - 1, 1, 0), (0, 2**62 - 1, 2**62 - 1)), object),
])
def test_at_most_width(q, rows, width):
    matrix = SignatureMatrix(q=q, rows=rows)
    d_min = core.min_distinguishing_weight(matrix).d_min
    for w in range(matrix.k):
        z, chosen = chosen_widths(core, lambda: core.at_most(matrix, w))
        assert chosen == [width] and (z is None) == (d_min > w)
        if z is not None:
            assert sum(1 for row in rows if sum(v * s for v, s in zip(row, z))) <= w


@pytest.mark.parametrize("a, width", [(5, np.int64), (2**61 - 1, np.int64), (2**61, object)])
def test_simulate_round_width(a, width):
    # each user's column three times over, so d_min = 3; a received entry
    # reaches 2 n (q - 1) = 4a in magnitude
    matrix = SignatureMatrix(q=a + 1, rows=((a, 0), (0, a)) * 3)
    us = [(u1, u2) for u1 in (0, 1) for u2 in (0, 1)] * 8
    records, chosen = chosen_widths(core, lambda: core.simulate_round(
        matrix, us, 1, core.RANDOM_ERRORS, seed=list(range(len(us)))))
    assert chosen == [width] and all(record.success for record in records)


@pytest.mark.parametrize("p, width", [(11, np.int64), (2**61 - 1, object)])
def test_rs_decode_width(p, width):
    """One width, chosen with the codec, serves its tables, encoding and decoding."""
    word = rs_encode(RSCodec(p, n_rs=4, k_rs=2), [3, 7])
    word[2] = (word[2] + 1) % p
    outcomes, chosen = chosen_widths(
        linear, lambda: rs_decode(RSCodec(p, n_rs=4, k_rs=2), [word]))
    assert chosen == [width] and outcomes == [[3, 7]]


@pytest.mark.parametrize("n_bits, value, widths", [
    (3, 5, [np.int64, np.int64]),
    (3, 2**63 - 1, [np.int64, np.int64]),
    (3, 2**63, [object, np.int64]),
    (63, 5, [np.int64, np.int64]),
    (64, 5, [np.int64, object]),
])
def test_integer_lift_widths(n_bits, value, widths):
    # w, then the parity-pattern weights 2^0 .. 2^(N - 1)
    code = repetition_code(n_bits)
    words = [(value,) * n_bits, (0,) * n_bits]
    w, chosen = chosen_widths(linear, lambda: integer_lift_decode(code, words, value))
    assert chosen == widths and w.tolist() == [[value], [0]]


# At most 2^63 - 1 in magnitude once the 3 bit rows of a parity symbol are summed.
EDGE = (2**63 - 1) // 7


@pytest.mark.parametrize("entry, width", [(1, np.int64), (EDGE, np.int64),
                                          (EDGE + 1, object), (2**70, object)])
def test_rs_augmented_width(entry, width):
    code = RS_CODES[0]
    assert code.bit_width == 3
    word = list(encode(code.matrix, (1, 0, 1)))
    word[-1] = entry  # the top bit row of the last parity symbol
    outcomes, chosen = chosen_widths(cons, lambda: code.decode_batch([word], code.t))
    assert chosen == [width] and outcomes == [(1, 0, 1)]


# The image of u = (1, 1) under the inner row is 2^63 + 1.
BEYOND_INT64 = SignatureMatrix(q=2**62 + 2, rows=((2**62 + 1, 2**62),))


def test_kronecker_images_beyond_int64():
    us = [(0, 0), (1, 0), (0, 1), (1, 1)]
    code = cons.kronecker_compose(repetition_code(3), BEYOND_INT64, t_inner=0)
    assert code.decode_batch([encode(code.matrix, u) for u in us], 0) == us
    records = core.simulate_round(code.matrix, us, 0, core.RANDOM_ERRORS, seed=[0] * 4,
                                  decode_batch=lambda batch: code.decode_batch(batch, 0))
    assert [(record.success, record.decoded) for record in records] == \
        [(True, u) for u in us]


@pytest.mark.parametrize("inner, width", [(TINY_KRONECKER.inner, np.int8),
                                          (BEYOND_INT64, object)])
def test_kronecker_images_width(inner, width):
    """The inner images are the inner matrix's half tables, in the type they choose."""
    us = [(0, 0), (1, 0), (0, 1), (1, 1)]
    inner = SignatureMatrix(q=inner.q, rows=inner.rows)   # a fresh one: no tables yet
    code = cons.kronecker_compose(repetition_code(3), inner, t_inner=0)
    words = [encode(code.matrix, u) for u in us]
    assert "_half_tables" not in inner.__dict__
    assert code.decode_batch(words, 0) == us
    assert inner.__dict__["_half_tables"].dtype == width


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
