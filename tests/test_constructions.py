"""Construction pipelines, their decoders, and cross-checks between them."""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import inner_reference
from random_reference import construct_random_reference
from sigmac import cli
from sigmac import constructions as cons
from sigmac.bounds import ConstantT, LinearTau, achievable_random, max_correctable_fraction
from sigmac.core import (
    SignatureMatrix,
    apply_errors,
    decode_min_distance,
    dumps_canonical,
    encode,
    min_distinguishing_weight,
    tolerates,
)
from sigmac.errors import ConstructionFailure
from sigmac.linear import BinaryLinearCode, repetition_code, rs_encode


def test_construct_trivial():
    m = cons.construct_trivial(1)
    assert m.rows == ((1,),)
    m = cons.construct_trivial(3)
    assert m.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert tolerates(m, 0)
    with pytest.raises(ValueError):
        cons.construct_trivial(0)


def test_rs_augment_requires_positive_t():
    with pytest.raises(ValueError):
        cons.rs_augment(cons.construct_trivial(2), 0)


def test_rs_augment_shapes():
    # I_2, t=1: max clean value 2, need 4 evaluation points -> q_RS = 5,
    # 3 bits per symbol, 2 parity symbols -> 6 extra rows.
    code = cons.rs_augment(cons.construct_trivial(2), 1)
    assert (code.q_rs, code.bit_width) == (5, 3)
    assert code.matrix.k == 2 + 2 * 1 * 3 and code.matrix.n == 2
    assert code.matrix.rows[:2] == code.base.rows
    assert all(v in (0, 1) for row in code.matrix.rows[2:] for v in row)
    assert code.rows_added == 6
    # field always covers both the channel values and the evaluation points
    for n in range(1, 6):
        for t in (1, 2):
            c = cons.rs_augment(cons.construct_trivial(n), t)
            assert c.q_rs > n * (c.base.q - 1)
            assert c.q_rs >= c.base.k + 2 * t
            assert c.matrix.k == c.base.k + 2 * t * c.bit_width


def test_rs_augment_parity_bits_encode_column_symbols():
    code = cons.rs_augment(cons.construct_trivial(3), 1)
    for col in range(3):
        column = [code.base.rows[i][col] for i in range(3)]
        symbols = rs_encode(code.codec, column)[3:]
        for j, symbol in enumerate(symbols):
            bits = [code.matrix.rows[3 + j * code.bit_width + b][col]
                    for b in range(code.bit_width)]
            assert sum(bit << b for b, bit in enumerate(bits)) == symbol


def test_rs_augment_at_a_large_t_encodes_without_building_the_checks():
    # n_rs = 4003: the parity table costs O(k_rs (n_rs - k_rs)), and the
    # (n_rs - k_rs) x n_rs check array waits for the first decode.
    start = time.perf_counter()
    code = cons.rs_augment(cons.construct_trivial(3), 2000)
    assert time.perf_counter() - start < 5
    assert code.codec.n_rs == 4003 and "_check_array" not in vars(code.codec)
    column = [1, 0, 0]
    symbols = [sum(code.matrix.rows[3 + j * code.bit_width + b][0] << b
                   for b in range(code.bit_width)) for j in range(4000)]
    assert rs_encode(code.codec, column) == column + symbols
    assert "_check_array" not in vars(code.codec)


def test_rs_augmented_decode_clean_and_single_big_error():
    code = cons.rs_augment(cons.construct_trivial(4), 1)
    u = (1, 0, 1, 1)
    y = encode(code.matrix, u)
    assert cons.rs_augmented_decode(code, [y]) == [u]
    assert cons.rs_augmented_decode(code, [apply_errors(y, {0: -9})]) == [u]


def test_rs_augmented_decode_vs_min_distance_oracle():
    rng = random.Random(3)
    code = cons.rs_augment(cons.construct_trivial(4), 1)
    for trial in range(200):
        u = tuple(rng.randint(0, 1) for _ in range(4))
        y = encode(code.matrix, u)
        pos = rng.randrange(code.matrix.k)
        val = rng.choice([v for v in range(-7, 8) if v != 0])
        received = apply_errors(y, {pos: val})
        assert cons.rs_augmented_decode(code, [received]) == [u]
        assert decode_min_distance([received], code.matrix, 1) == [u]


def test_rs_augmented_decode_errors_in_distinct_parity_symbols():
    code = cons.rs_augment(cons.construct_trivial(3), 2)
    k_lin, width = 3, code.bit_width
    rng = random.Random(5)
    for trial in range(100):
        u = tuple(rng.randint(0, 1) for _ in range(3))
        y = encode(code.matrix, u)
        symbols = rng.sample(range(4), 2)  # two of the 2t = 4 parity symbols
        errors = {}
        for j in symbols:
            bit_row = k_lin + j * width + rng.randrange(width)
            errors[bit_row] = rng.choice([-3, -1, 1, 2, 5])
        assert cons.rs_augmented_decode(code, [apply_errors(y, errors)]) == [u]


def test_rs_augment_round_trip_exhaustive_tiny():
    # full value exhaustion on the smallest instances
    for n, t in [(1, 1), (2, 1), (2, 2)]:
        code = cons.rs_augment(cons.construct_trivial(n), t)
        k = code.matrix.k
        values = [v for v in range(-code.q_rs, code.q_rs + 1) if v != 0]
        for u in product((0, 1), repeat=n):
            clean = encode(code.matrix, u)
            assert cons.rs_augmented_decode(code, [clean]) == [u]
            # Every corrupted word of this u, decoded as one batch.
            words = [apply_errors(clean, dict(zip(support, vals)))
                     for size in range(1, t + 1)
                     for support in combinations(range(k), size)
                     for vals in product(values, repeat=size)]
            assert cons.rs_augmented_decode(code, np.array(words)) == [u] * len(words)


def test_rs_augment_extended_matrix_tolerates_t():
    for n, t in [(2, 1), (3, 1), (3, 2), (4, 1)]:
        code = cons.rs_augment(cons.construct_trivial(n), t)
        assert tolerates(code.matrix, t)


def test_augmented_code_json_round_trip():
    code = cons.rs_augment(cons.construct_trivial(3), 1)
    blob = dumps_canonical(code.to_json())
    loaded = cons.AugmentedCode.from_json(json.loads(blob))
    u = (1, 1, 0)
    y = apply_errors(encode(loaded.matrix, u), {2: 4})
    assert cons.rs_augmented_decode(loaded, [y]) == [u]
    assert dumps_canonical(loaded.to_json()) == blob
    tampered = json.loads(blob)
    tampered["extended"]["rows"][3][0] ^= 1
    with pytest.raises(ValueError):
        cons.AugmentedCode.from_json(tampered)
    # a narrower bit width would regroup the parity rows into wrong symbols
    tampered = json.loads(blob)
    tampered["bit_width"] -= 1
    with pytest.raises(ValueError):
        cons.AugmentedCode.from_json(tampered)


def test_plan_random_length():
    # ceil(2*1024*log2(3) / (10 + log2(pi/2)))
    assert cons.plan_random_length(1024, 2, LinearTau(0.0)) == 305
    # constant-0 and linear-0 leading terms differ by the +2t+1 = +1 shift
    constant = achievable_random(1024, 2, ConstantT(0))
    assert constant == pytest.approx(achievable_random(1024, 2, LinearTau(0.0)) + 1)
    assert cons.plan_random_length(1024, 2, ConstantT(0)) == math.floor(constant) + 1
    # monotone increasing in tau, up to the nonexistence threshold
    previous = 0.0
    for tau in [0.0, 0.1, 0.2, 0.3, 0.33]:
        value = achievable_random(256, 3, LinearTau(tau))
        assert value > previous
        assert cons.plan_random_length(256, 3, LinearTau(tau)) == math.ceil(value)
        previous = value
    with pytest.raises(ValueError):
        cons.plan_random_length(256, 3, LinearTau(Fraction(1, 3)))
    with pytest.raises(ValueError):
        cons.plan_random_length(256, 2, LinearTau(0.25))


def test_construct_random_deterministic_and_verified():
    a = cons.construct_random(6, 3, 1, seed=11, k_override=10)
    b = cons.construct_random(6, 3, 1, seed=11, k_override=10)
    assert a.matrix == b.matrix and a.attempts == b.attempts
    assert a.d_min >= 3
    assert tolerates(a.matrix, 1)
    # serialized round trip reproduces d_min bit-exactly
    blob = dumps_canonical(a.to_json())
    loaded = SignatureMatrix.from_json(json.loads(blob)["matrix"])
    assert min_distinguishing_weight(loaded).d_min == a.d_min


def test_construct_random_t0_has_distinct_nonzero_columns():
    res = cons.construct_random(4, 3, 0, seed=2, k_override=3)
    cols = [res.matrix.column(j) for j in range(4)]
    assert len(set(cols)) == 4
    assert all(any(c) for c in cols)


def test_construct_random_exhausts_and_escalates():
    with pytest.raises(ConstructionFailure) as info:
        cons.construct_random(8, 2, 2, seed=0, k_override=2,
                              max_attempts=cons.RANDOM_BATCH + 5)
    assert info.value.attempts == cons.RANDOM_BATCH + 5
    assert "escalation" in str(info.value)


@pytest.mark.parametrize("max_attempts, k, escalations", [(25, 6, 0), (100, 9, 3)])
def test_construct_random_failure_names_the_last_length_drawn(max_attempts, k, escalations):
    """k grows after a failed batch only when another draw follows."""
    with pytest.raises(ConstructionFailure) as info:
        cons.construct_random(6, 2, 3, 1, max_attempts=max_attempts, k_override=6)
    assert str(info.value) == (f"no {k}x6 matrix with d_min >= 7 found in {max_attempts} "
                               f"attempts ({escalations} length escalations from 6)")


# (n, q, t, k, max_attempts), 44 seeds each: mostly first draws; the
# calibrated length; frequent rejections; success after one or more
# escalations; a first batch rejected without a join (2t >= k), then a
# failure; a failure after escalating.
PARITY_CASES = [(6, 3, 1, 10, 100), (8, 3, 1, 12, 100), (6, 3, 1, 7, 100),
                (6, 2, 1, 8, 100), (5, 4, 2, 4, 40), (5, 2, 1, 5, 30)]


@pytest.mark.parametrize("n, q, t, k, max_attempts", PARITY_CASES)
def test_construct_random_matches_the_walk_only_reference(tmp_path, capsys,
                                                          n, q, t, k, max_attempts):
    out = tmp_path / "r.json"
    for seed in range(44):
        args = dict(max_attempts=max_attempts, k_override=k)
        argv = ["construct", "--method", "random", "--q", str(q), "--n", str(n),
                "--t", str(t), "--k", str(k), "--seed", str(seed),
                "--max-attempts", str(max_attempts), "--out", str(out)]
        try:
            want = construct_random_reference(n, q, t, seed, **args)
        except ConstructionFailure as failure:
            with pytest.raises(ConstructionFailure) as got:
                cons.construct_random(n, q, t, seed, **args)
            assert (got.value.attempts, str(got.value)) == (failure.attempts, str(failure))
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == (
                f"construction failed after {failure.attempts} attempts: {failure}\n")
            continue
        assert cons.construct_random(n, q, t, seed, **args) == want
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert out.read_text() == dumps_canonical({**want.to_json(), "seed": seed})


def test_construct_random_walks_only_the_accepted_draw(monkeypatch):
    walked = []

    def walk(matrix, limit=None):
        walked.append(matrix)
        return min_distinguishing_weight(matrix, limit)

    monkeypatch.setattr(cons, "min_distinguishing_weight", walk)
    result = cons.construct_random(6, 2, 1, seed=3, k_override=8)
    assert result.attempts > 1
    assert walked == [result.matrix]


def test_find_inner_matrix_exhaustive():
    result = cons.find_inner_matrix(3, 2, 3, 1)
    assert result.matrix.rows == ((1, 2), (1, 2), (1, 2))
    assert min_distinguishing_weight(result.matrix).d_min >= 3
    assert result.checked <= 3 ** 6


def test_find_inner_matrix_t0():
    result = cons.find_inner_matrix(2, 2, 2, 0)
    assert min_distinguishing_weight(result.matrix).d_min >= 1


def test_find_inner_matrix_emptiness_proof():
    # a 3x2 binary matrix correcting 1 error would beat the (q-1)/(2q)
    # fraction; the exhaustive search must prove none exists
    with pytest.raises(ConstructionFailure) as info:
        cons.find_inner_matrix(3, 2, 2, 1)
    assert info.value.attempts == 2 ** 6


def stacked_distances(p, s, q):
    return np.concatenate(list(cons._inner_distances(p, s, q)))


# The last four are edge shapes: one row, one column, q = 2, and one row
# over q = 7, whose row table, in a small block, spans runs of leads.
@pytest.mark.parametrize("p, s, q", [(2, 3, 3), (2, 2, 4), (3, 2, 3),
                                     (1, 3, 3), (3, 1, 2), (2, 2, 2), (1, 2, 7)])
# 1 << 22 is the default; the small blocks split the row table, down to one row a block.
@pytest.mark.parametrize("block", [1 << 22, 300, 60, 40, 8, 1])
def test_stacked_distances_match_walk(monkeypatch, p, s, q, block):
    monkeypatch.setattr(cons, "INNER_BLOCK", block)
    walked = [min_distinguishing_weight(m).d_min for m in inner_reference.candidates(p, s, q)]
    assert stacked_distances(p, s, q).tolist() == walked


@pytest.mark.parametrize("p, s, q, t_inner", [
    (3, 2, 3, 1), (2, 2, 2, 0), (3, 1, 2, 1), (5, 2, 2, 1), (4, 2, 3, 1), (3, 2, 2, 1),
])
def test_find_inner_matrix_matches_walk(p, s, q, t_inner):
    try:
        expected = inner_reference.find_inner_matrix_reference(p, s, q, t_inner)
    except ConstructionFailure as failure:
        with pytest.raises(ConstructionFailure) as info:
            cons.find_inner_matrix(p, s, q, t_inner)
        assert (info.value.attempts, str(info.value)) == (failure.attempts, str(failure))
    else:
        assert cons.find_inner_matrix(p, s, q, t_inner) == expected


def test_find_inner_matrix_one_row_above_a_block():
    # q > INNER_BLOCK: the row table spans blocks, and the second row, (1), is a hit
    q = cons.INNER_BLOCK + 1
    assert cons.find_inner_matrix(1, 1, q, 0) == cons.InnerSearchResult(
        SignatureMatrix(q=q, rows=((1,),)), 2)


TERNARY_3X4 = (3, 4, 3)     # 531,441 candidates, above the walk's old 300,000


def test_stacked_search_ternary_3x4():
    distances = stacked_distances(*TERNARY_3X4)
    assert np.bincount(distances).tolist() == [228_009, 301_152, 2_280]
    assert [int(np.argmax(distances >= d)) + 1 for d in (1, 2)] == [451, 36_501]
    assert cons.find_inner_matrix(*TERNARY_3X4, t_inner=0).checked == 451
    with pytest.raises(ConstructionFailure) as info:
        cons.find_inner_matrix(*TERNARY_3X4, t_inner=1)
    assert info.value.attempts == 3 ** 12


def test_stacked_search_memory_is_bounded(monkeypatch):
    """Peak below two blocks, where the whole space's weights would take 21 MB."""
    import tracemalloc

    whole = 3 ** 12 * (3 ** 4 - 1) // 2
    assert 2 * cons.INNER_BLOCK < whole
    tracemalloc.start()
    try:
        distances = stacked_distances(*TERNARY_3X4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cons.INNER_BLOCK
    # a block of 4096 weights holds the 81 candidates that differ in their last row
    monkeypatch.setattr(cons, "INNER_BLOCK", 1 << 12)
    assert np.array_equal(stacked_distances(*TERNARY_3X4), distances)
    assert cons.find_inner_matrix(*TERNARY_3X4, t_inner=0).checked == 451


def test_plan_epsilon_split():
    eps1, eps2 = cons.plan_epsilon_split(3, Fraction(1, 16))
    assert (eps1, eps2) == (Fraction(2, 9), Fraction(1, 8))
    # recomposition gives back the target slack exactly
    target = (max_correctable_fraction(3) - eps1) * (Fraction(1, 4) - eps2 / 2)
    assert target == Fraction(2, 24) - Fraction(1, 16)
    with pytest.raises(ValueError):
        cons.plan_epsilon_split(3, Fraction(1, 100))
    with pytest.raises(ValueError):
        cons.plan_epsilon_split(3, Fraction(1, 12))
    with pytest.raises(ValueError):
        cons.plan_epsilon_split(3, 0)


def test_kronecker_compose_repetition_stacks_inner():
    inner = SignatureMatrix(q=3, rows=((1, 2), (0, 1)))
    outer = repetition_code(3)
    code = cons.kronecker_compose(outer, inner)
    assert code.matrix.rows == inner.rows * 3
    assert code.matrix.k == 3 * 2 and code.matrix.n == 2


def test_kronecker_compose_block_structure():
    from sigmac.linear import BinaryLinearCode
    inner = SignatureMatrix(q=3, rows=((1, 2), (2, 0)))
    gen = ((1, 0, 1, 1), (0, 1, 1, 0))
    outer = BinaryLinearCode(generator=gen, design_distance=2)
    code = cons.kronecker_compose(outer, inner)
    composed = code.matrix
    assert composed.k == outer.N * inner.k and composed.n == outer.K * inner.n
    for a in range(outer.N):
        for j in range(outer.K):
            block = [composed.rows[a * inner.k + i][j * inner.n:(j + 1) * inner.n]
                     for i in range(inner.k)]
            if gen[j][a]:
                assert tuple(block) == inner.rows
            else:
                assert all(v == 0 for row in block for v in row)


def kronecker_fixture():
    inner = cons.find_inner_matrix(3, 2, 3, 1).matrix
    return cons.kronecker_compose(repetition_code(6), inner, t_inner=1)


def test_kronecker_budgets():
    code = kronecker_fixture()
    assert code.lift_threshold == 3
    assert code.certified_budget == 5
    assert code.matrix.k == 18 and code.matrix.n == 2


def test_kronecker_decode_clean():
    code = kronecker_fixture()
    for v in product((0, 1), repeat=code.matrix.n):
        assert cons.kronecker_decode(code, [encode(code.matrix, v)]) == [v]


def test_kronecker_decode_one_row_fully_corrupted():
    # all errors land on one inner row index, exceeding the lift threshold
    # there; the per-block search outvotes that single untrusted row
    code = kronecker_fixture()
    v = (1, 0)
    clean = encode(code.matrix, v)
    p = code.p
    for inner_row in range(p):
        positions = [a * p + inner_row for a in range(5)]
        errors = {pos: 7 for pos in positions[:code.certified_budget]}
        assert cons.kronecker_decode(code, [apply_errors(clean, errors)]) == [v]


def test_kronecker_decode_random_full_budget():
    code = kronecker_fixture()
    rng = random.Random(77)
    k = code.matrix.k
    for trial in range(500):
        v = tuple(rng.randint(0, 1) for _ in range(code.matrix.n))
        clean = encode(code.matrix, v)
        support = rng.sample(range(k), code.certified_budget)
        errors = {pos: rng.choice([-3, -2, -1, 1, 2, 3]) for pos in support}
        assert cons.kronecker_decode(code, [apply_errors(clean, errors)]) == [v]


def test_kronecker_json_round_trip():
    code = kronecker_fixture()
    blob = dumps_canonical(code.to_json())
    loaded = cons.KroneckerCode.from_json(json.loads(blob))
    assert loaded.matrix == code.matrix
    assert loaded.certified_budget == code.certified_budget
    v = (0, 1)
    y = apply_errors(encode(loaded.matrix, v), {0: 9, 7: -2})
    assert cons.kronecker_decode(loaded, [y]) == [v]
    tampered = json.loads(blob)
    tampered["composed"]["rows"][0][0] = 2
    with pytest.raises(ValueError):
        cons.KroneckerCode.from_json(tampered)
    # either edit would raise the certified budget above what the code corrects
    tampered = json.loads(blob)
    tampered["t_inner"] = 3
    with pytest.raises(ValueError, match="t_inner"):
        cons.KroneckerCode.from_json(tampered)
    tampered = json.loads(blob)
    tampered["outer"]["D"] = 7
    with pytest.raises(ValueError, match="outer code distance"):
        cons.KroneckerCode.from_json(tampered)


def test_a_rank_deficient_outer_code_does_not_load():
    # Two equal generator rows: the composed matrix has two equal user
    # blocks, so its d_min is 0, whatever D the envelope states.
    twice = BinaryLinearCode(generator=((1,) * 6,) * 2, design_distance=6)
    code = cons.kronecker_compose(twice, kronecker_fixture().inner, t_inner=1)
    assert code.design_t == 5 and min_distinguishing_weight(code.matrix).d_min == 0
    with pytest.raises(ValueError, match="outer code distance"):
        cons.load_artifact(json.loads(dumps_canonical(code.to_json())))


def test_build_kronecker_end_to_end():
    code = cons.build_kronecker(3, Fraction(1, 16), p=3, s=2, r=1, seed=5,
                                outer_kind="repetition", t_inner=1, c1=6)
    assert code.eps1 == Fraction(2, 9) and code.eps2 == Fraction(1, 8)
    assert code.asymptotic_budget is not None
    assert code.matrix.k == 18
    searched = cons.build_kronecker(3, Fraction(1, 16), p=3, s=2, r=2, seed=5,
                                    outer_kind="search", t_inner=1)
    assert searched.matrix.n == 4
    assert searched.outer.min_distance() >= searched.outer.design_distance
    v = (1, 0, 0, 1)
    y = encode(searched.matrix, v)
    assert cons.kronecker_decode(searched, [y]) == [v]
    with pytest.raises(ValueError):
        cons.build_kronecker(3, Fraction(1, 16), p=3, s=2, r=2,
                             outer_kind="repetition")


def test_no_construction_beats_the_converse():
    # The finite-n form of the counting converse: a code tolerating t errors
    # keeps C(n,2)*2t strictly below the pairwise column-distance sum.  (The
    # bare (q-1)/(2q) threshold only binds asymptotically; at n = 2 the sum
    # carries an extra n/(n-1) factor, so realized tolerances may sit above
    # it there.)
    from sigmac.bounds import pairwise_counting_check
    produced = [
        (cons.construct_random(6, 3, 1, seed=1, k_override=10).matrix, 1),
        (cons.rs_augment(cons.construct_trivial(3), 1).matrix, 1),
        (kronecker_fixture().matrix, kronecker_fixture().certified_budget),
    ]
    for matrix, design_t in produced:
        max_tolerable_t = (min_distinguishing_weight(matrix).d_min - 1) // 2
        assert max_tolerable_t >= design_t
        for t in (design_t, max_tolerable_t):
            check = pairwise_counting_check(matrix, Fraction(t, matrix.k))
            assert check.identity_holds and check.inequality_holds
    # at moderate size the asymptotic threshold does hold for the designs
    random_code = cons.construct_random(8, 3, 1, seed=3, k_override=12)
    assert Fraction(1, random_code.k) <= max_correctable_fraction(3)


def test_load_artifact_dispatch():
    code = cons.rs_augment(cons.construct_trivial(2), 1)
    assert isinstance(cons.load_artifact(code.to_json()), cons.AugmentedCode)
    kron = kronecker_fixture()
    assert isinstance(cons.load_artifact(kron.to_json()), cons.KroneckerCode)
    matrix = cons.construct_trivial(2)
    env = {"kind": "trivial", "matrix": matrix.to_json()}
    assert cons.load_artifact(env).matrix == matrix
    with pytest.raises(ValueError):
        cons.load_artifact({"kind": "mystery"})


@pytest.mark.parametrize("design_t, d_min, message", [
    (1.0, 3, "design_t 1.0 is not an int in [0, k = 2]"),
    (3, None, "design_t 3 is not an int in [0, k = 2]"),
    (1, 3.0, "d_min 3.0 is not an int"),
    (1, 2, "d_min 2 is below 2 * design_t + 1 = 3"),
])
def test_load_artifact_checks_a_stated_design_t(design_t, d_min, message):
    env = {"kind": "random", "matrix": cons.construct_trivial(2).to_json(),
           "design_t": design_t, "d_min": d_min}
    with pytest.raises(ValueError) as info:
        cons.load_artifact(env)
    assert str(info.value) == message
    env["design_t"], env["d_min"] = 0, 1
    assert cons.load_artifact(env).matrix == cons.construct_trivial(2)


def test_rs_loader_bounds_t_by_the_file_before_rebuilding(monkeypatch):
    # Rebuilding takes time growing with t: a t that the stated extended rows
    # cannot hold is rejected without it.
    envelope = cons.rs_augment(cons.construct_trivial(3), 1).to_json()    # 9 rows

    def rebuild(base, t):
        raise AssertionError(f"rebuilt at t = {t!r}")

    monkeypatch.setattr(cons, "rs_augment", rebuild)
    for t in (10**6, 4, 0, -1, 1.0, True, "1", None):
        with pytest.raises(ValueError, match=r"is not an int in \[1, 3\]"):
            cons.load_artifact({**envelope, "t": t})


# -- every field an envelope writes is checked on load -----------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.fractions().map(str),
    lambda part: st.lists(part, max_size=3) | st.dictionaries(st.text(max_size=3), part,
                                                              max_size=3),
    max_leaves=6)


@st.composite
def edited(draw, value):
    """A JSON value other than `value`: any value, or `value` with one part changed."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        part = draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                    else range(len(value))))
        copy = json.loads(json.dumps(value))
        copy[part] = draw(edited(value[part]))
        return copy
    if type(value) is int and draw(st.booleans()):
        return value + draw(st.integers(-3, 3).filter(bool))
    other = draw(JSON_VALUES)
    assume(dumps_canonical(other) != dumps_canonical(value))
    return other


STRUCTURED_ENVELOPES = [json.loads(dumps_canonical(code.to_json())) for code in (
    cons.rs_augment(cons.construct_trivial(3), 1),
    cons.rs_augment(SignatureMatrix(q=3, rows=((1, 2, 0, 1), (0, 1, 2, 2))), 2),
    kronecker_fixture(),
    cons.build_kronecker(3, Fraction(1, 16), p=3, s=2, r=2, seed=5, t_inner=1),
)]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_single_key_edit_is_rejected(data):
    envelope = data.draw(st.sampled_from(STRUCTURED_ENVELOPES))
    key = data.draw(st.sampled_from(sorted(envelope)))
    edit = {**envelope, key: data.draw(edited(envelope[key]))}
    if data.draw(st.integers(0, 9)) == 0:
        del edit[key]                         # a missing key is an edit too
    try:
        code = cons.load_artifact(edit)
    except ValueError:
        return
    # A Kronecker envelope states its slacks and its outer code's seed and D
    # without what they were derived from (epsilon, the search), so the
    # rebuilt code takes them as read: the slacks reach only
    # asymptotic_budget, D only the lift threshold ceil(D/2), the seed
    # nothing.  An edit that moves none of these loads, and changes nothing
    # the decoder trusts.
    original = cons.load_artifact(envelope)
    assert envelope["kind"] == "kronecker" and key in ("eps1", "eps2", "outer")
    assert (code.matrix, code.design_t, code.asymptotic_budget) == \
        (original.matrix, original.design_t, original.asymptotic_budget)


@pytest.mark.parametrize("index, key, value", [
    (0, "t", True), (0, "q_rs", 5.0), (0, "base", None), (1, "design_t", 2.0),
    (2, "t_inner", True), (2, "eps1", "1/0"), (2, "eps2", []), (2, "outer", {"D": 6}),
])
def test_edits_to_another_type_are_rejected(index, key, value):
    # True == 1 and 5.0 == 5 in Python, but not in the envelope's JSON
    with pytest.raises(ValueError):
        cons.load_artifact({**STRUCTURED_ENVELOPES[index], key: value})


# -- each family's decoder against minimum-distance decoding -----------------

def matrices(q, max_k, max_n):
    """Strategy: a q-ary matrix of at most max_k x max_n."""
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, q - 1)] * n), min_size=1, max_size=max_k)
    ).map(lambda rows: SignatureMatrix(q=q, rows=tuple(rows)))


@st.composite
def corrupted(draw, matrix, budget):
    """(transmitted u, M u plus an error of weight <= budget)."""
    u = tuple(draw(st.lists(st.integers(0, 1), min_size=matrix.n, max_size=matrix.n)))
    most = min(budget, matrix.k)
    weight = most - draw(st.integers(0, most))      # the full budget is drawn first
    positions = draw(st.permutations(range(matrix.k)))[:weight]
    values = st.one_of(st.integers(1, 40), st.integers(-40, -1),
                       st.sampled_from([-10**12, 10**12]))
    return u, apply_errors(encode(matrix, u), {pos: draw(values) for pos in positions})


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rs_augmented_decode_is_min_distance_decoding(data):
    q = data.draw(st.integers(2, 3))
    base = data.draw(st.one_of(st.integers(1, 5).map(cons.construct_trivial),
                               matrices(q, 4, 4)))
    assume(min_distinguishing_weight(base).d_min >= 1)   # noiseless-decodable
    t = data.draw(st.integers(1, 2))
    code = cons.rs_augment(base, t)
    u, y = data.draw(corrupted(code.matrix, t))
    assert cons.rs_augmented_decode(code, [y]) == decode_min_distance([y], code.matrix, t) == [u]


def with_true_distance(generator):
    code = BinaryLinearCode(generator=tuple(generator), design_distance=1)
    return BinaryLinearCode(generator=code.generator, design_distance=code.min_distance())


@st.composite
def random_outer_codes(draw):
    """A full-rank binary code with K <= 2, its design distance its true distance."""
    n_bits = 6 - draw(st.integers(0, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 1)] * n_bits), min_size=1, max_size=2))
    code = with_true_distance(rows)
    assume(code.min_distance() > 0)   # full rank
    return code


# Outer codes of distance 3 to 6, so that budgets reach 3 to 5.
OUTER_CODES = (
    repetition_code(6),
    with_true_distance([(1, 1, 1, 1, 0, 0), (0, 0, 1, 1, 1, 1)]),
    with_true_distance([(1, 1, 1, 0, 0), (0, 0, 1, 1, 1)]),
    with_true_distance([(1, 1, 0, 1, 0, 0), (0, 1, 1, 0, 1, 0), (1, 0, 1, 0, 0, 1)]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kronecker_decode_is_min_distance_decoding(data):
    q = data.draw(st.integers(2, 3))
    # (p, s, q) shapes for which the search finds d_min >= 3, so t_inner = 1
    searched = st.sampled_from([(3, 2, 3), (3, 1, 2), (5, 2, 2)]).map(
        lambda shape: cons.find_inner_matrix(*shape, t_inner=1).matrix)
    inner = data.draw(st.one_of(searched, matrices(q, 4, 3)))
    d_inner = min_distinguishing_weight(inner).d_min
    assume(d_inner >= 1)
    outer = data.draw(st.one_of(st.sampled_from(OUTER_CODES), random_outer_codes(),
                                st.integers(1, 5).map(repetition_code)))
    t_inner = data.draw(st.integers(0, (d_inner - 1) // 2).map(lambda t: (d_inner - 1) // 2 - t))
    code = cons.kronecker_compose(outer, inner, t_inner=t_inner)
    budget = code.certified_budget
    u, y = data.draw(corrupted(code.matrix, budget))
    assert cons.kronecker_decode(code, [y]) == decode_min_distance([y], code.matrix, budget) \
        == [u]
