"""The per-word decoders and simulate loop that the batch code replaced.

Each function here decodes one received word the way sigmac did before it
decoded whole batches, and `simulate_reference` runs `sigmac simulate` one
round at a time through them.  The tests use them as oracles: a batch must
give, word for word, the vector these return or the exception they raise.
"""

import json
import random
import sys
from pathlib import Path
from typing import Sequence

from sigmac import constructions as cons
from sigmac import core
from sigmac.core import (
    InfoVector,
    SignatureMatrix,
    _check_u_limit,
    _received_symbol,
    apply_errors,
    encode,
)
from sigmac.errors import AmbiguousDecoding, DecodingFailure
from sigmac.linear import BinaryLinearCode, RSCodec, _nearest_codeword


def decode_min_distance(y: Sequence[int], matrix: SignatureMatrix, t: int,
                        limit: int | None = None) -> InfoVector:
    """The meet-in-the-middle search on one word, a block of left halves at a time."""
    import numpy as np

    n, k = matrix.n, matrix.k
    if len(y) != k:
        raise ValueError(f"received word length {len(y)} != k = {k}")
    _check_u_limit(n, limit)
    cap, dtype, h, left_sums, right = matrix._half_tables
    received = np.array([v if type(v) is int and 0 <= v <= cap else _received_symbol(v, cap)
                         for v in y], dtype=dtype)
    left = received[:, None] - left_sums
    width = right.shape[1]
    step = max(1, core.DECODE_BLOCK // (k * width))
    count_type = np.min_scalar_type(k)
    best, ties, within_budget, best_index = k + 1, 0, 0, 0
    for start in range(0, left.shape[1], step):
        differs = left[:, start:start + step, None] != right[:, None, :]
        weight = np.add.reduce(differs.view(np.uint8), axis=0, dtype=count_type)
        index = int(weight.argmin())
        low = int(weight.flat[index])
        if low < best:
            best, ties, best_index = low, 0, start * width + index
        if low == best:
            ties += int(np.count_nonzero(weight == low))
        if t >= 0:
            within_budget += int(np.count_nonzero(weight <= min(t, k)))
    if ties > 1:
        raise AmbiguousDecoding(f"{ties} candidates at minimum distance {best}")
    if within_budget > 1:
        raise AmbiguousDecoding(f"{within_budget} candidates within the error budget t={t}")
    a, b = divmod(best_index, width)
    return tuple((a >> j) & 1 for j in range(h)) + tuple((b >> j) & 1 for j in range(n - h))


def _solve_mod(rows: list[list[int]], p: int) -> list[int] | None:
    """Solution of a square system over F_p given as augmented rows, or None if singular."""
    size = len(rows)
    for c in range(size):
        pivot = next((i for i in range(c, size) if rows[i][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        base = rows[c] = [v * inv % p for v in rows[c]]
        for i in range(size):
            f = rows[i][c]
            if i != c and f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], base)]
    return [row[size] for row in rows]


def _syndromes(codec: RSCodec, word: Sequence[int]) -> list[int]:
    p = codec.field.p
    return [sum(h * c for h, c in zip(row, word)) % p for row in codec._checks]


def rs_decode(codec: RSCodec, received: Sequence[int]) -> list[int]:
    """Peterson-Gorenstein-Zierler on one word, in Python integers."""
    n, k = codec.n_rs, codec.k_rs
    if len(received) != n:
        raise ValueError(f"received length {len(received)} != n_rs = {n}")
    codec._check_elements(received)
    p = codec.field.p
    syndromes = _syndromes(codec, received)
    if not any(syndromes):
        return list(received[:k])
    for nu in range(codec.radius, 0, -1):
        locator = _solve_mod([syndromes[l:l + nu] + [-syndromes[l + nu] % p]
                              for l in range(nu)], p)
        if locator is not None:
            break
    else:
        raise DecodingFailure("no error locator of degree at most the radius fits the syndromes")
    locator.append(1)
    positions = []
    for x in range(n):
        acc = 0
        for c in reversed(locator):
            acc = (acc * x + c) % p
        if acc == 0:
            positions.append(x)
    if len(positions) != nu:
        raise DecodingFailure(
            f"error locator of degree {nu} has {len(positions)} roots among the evaluation points")
    values = _solve_mod([[codec._checks[l][j] for j in positions] + [syndromes[l]]
                         for l in range(nu)], p)
    corrected = list(received)
    for j, e in zip(positions, values):
        corrected[j] = (corrected[j] - e) % p
    if any(_syndromes(codec, corrected)):
        raise DecodingFailure(f"word corrected at {nu} positions fails the parity checks")
    return corrected[:k]


def rs_augmented_decode(code: cons.AugmentedCode, y: Sequence[int]) -> InfoVector:
    """Symbol assembly in Python, then the per-word RS and base decoders."""
    k_lin = code.base.k
    if len(y) != code.matrix.k:
        raise ValueError(f"word length {len(y)} != extended k = {code.matrix.k}")
    q_rs = code.q_rs
    width = code.bit_width
    symbols = [y[j] % q_rs for j in range(k_lin)]
    for j in range(2 * code.t):
        acc = 0
        offset = k_lin + j * width
        for b in range(width):
            acc += y[offset + b] << b
        symbols.append(acc % q_rs)
    word = rs_decode(code.codec, symbols)
    if code._base_is_identity:
        if any(v not in (0, 1) for v in word):
            raise DecodingFailure("recovered word is not an activity vector")
        return tuple(word)
    return decode_min_distance(tuple(word), code.base, 0, code.base.n)


def integer_lift_decode(code: BinaryLinearCode, y: Sequence[int],
                        w_max: int) -> tuple[int, ...]:
    """Bit-plane lifting of one word, a Python list per plane."""
    if len(y) != code.N:
        raise ValueError(f"word length {len(y)} != N = {code.N}")
    if w_max < 0:
        raise ValueError("w_max must be >= 0")
    gen = code.generator
    values = list(y)
    w = [0] * code.K
    for plane in range(w_max.bit_length()):
        target = sum((v & 1) << i for i, v in enumerate(values))
        msg, _, _, _ = _nearest_codeword(code, target)
        active = [j for j in range(code.K) if msg[j]]
        for j in active:
            w[j] += 1 << plane
        if active:
            image = map(sum, zip(*(gen[j] for j in active)))
            values = [(v - g) >> 1 for v, g in zip(values, image)]
        else:
            values = [v >> 1 for v in values]
    return tuple(w)


def kronecker_decode(code: cons.KroneckerCode, b: Sequence[int]) -> InfoVector:
    """Lift each inner row, then search each user block image by image."""
    from itertools import product

    p, s, r = code.p, code.s, code.r
    n_outer = code.outer.N
    if len(b) != n_outer * p:
        raise ValueError(f"word length {len(b)} != k = {n_outer * p}")
    w_max = s * (code.inner.q - 1)
    lifted = [integer_lift_decode(code.outer, [b[a * p + i] for a in range(n_outer)], w_max)
              for i in range(p)]
    images = [(bits, tuple(sum(v for v, bit in zip(row, bits) if bit) for row in code.inner.rows))
              for bits in product((0, 1), repeat=s)]
    result: list[int] = []
    for j in range(r):
        target = tuple(lifted[i][j] for i in range(p))
        best_bits, best_dist, tie = None, p + 1, False
        for bits, image in images:
            dist = sum(1 for x, y in zip(target, image) if x != y)
            if dist < best_dist:
                best_bits, best_dist, tie = bits, dist, False
            elif dist == best_dist:
                tie = True
        if tie:
            raise AmbiguousDecoding(
                f"block {j}: tie at {best_dist} mismatched rows (error budget exceeded)")
        result.extend(best_bits)
    return tuple(result)


def decoder(code, t: int, limit_u: int | None = None):
    """The per-word decoder of any code family, as `code.decoder` once returned it."""
    if isinstance(code, cons.PlainCode):
        _check_u_limit(code.matrix.n, limit_u)
        return lambda word: decode_min_distance(word, code.matrix, t, limit_u)
    if isinstance(code, cons.AugmentedCode):
        if not code._base_is_identity:
            _check_u_limit(code.base.n, limit_u)
        return lambda word: rs_augmented_decode(code, word)
    return lambda word: kronecker_decode(code, word)


def outcome(decode, word):
    """What one decode gives: the vector, or the type and text of the decoding failure."""
    try:
        return decode(word)
    except (AmbiguousDecoding, DecodingFailure) as exc:
        return type(exc), str(exc)


def simulate_reference(argv: list[str]) -> int:
    """`sigmac simulate` one round at a time, each decoded by the per-word decoder.

    Takes the options the tests use (--in, --rounds, --t, --seed,
    --error-mode) and writes what the command writes: the first ten failed
    rounds on stderr, then the summary line on stdout.
    """
    args = dict(zip(argv[1::2], argv[2::2]))
    code = cons.load_artifact(json.loads(Path(args["--in"]).read_text()))
    matrix = code.matrix
    t = code.design_t if "--t" not in args else int(args["--t"])
    seed, rounds = int(args["--seed"]), int(args["--rounds"])
    mode = args.get("--error-mode", core.RANDOM_ERRORS)
    decode = decoder(code, t)
    witness = core.adversarial_witness(matrix, t) if mode == core.WORST_CASE_ERRORS else None
    failures = 0
    for index in range(rounds):
        u_rng = random.Random(core.derive_seed(seed, "activity", index))
        u = tuple(u_rng.randint(0, 1) for _ in range(matrix.n))
        note, transmitted = "", u
        if mode == core.WORST_CASE_ERRORS and witness is not None:
            transmitted, errors = witness.u1, dict(witness.e1)
        else:
            if mode == core.WORST_CASE_ERRORS:
                note = "no adversarial witness exists at this budget; random draw used"
            errors = core._draw_error_pattern(matrix, t, core.derive_seed(seed, "round", index))
        received = apply_errors(encode(matrix, transmitted), errors)
        try:
            decoded = decode(received)
            success = decoded == transmitted
        except (AmbiguousDecoding, DecodingFailure) as exc:
            decoded, success, note = None, False, f"{type(exc).__name__}: {exc}"
        if not success:
            failures += 1
            if failures <= 10:
                print(f"round {index}: transmitted={transmitted} decoded={decoded} "
                      f"errors={errors} {note}", file=sys.stderr)
    print(f"simulate: rounds={rounds} t={t} mode={mode} failures={failures}")
    return 0 if failures == 0 else 1
