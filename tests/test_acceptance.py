"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  Expensive shared artifacts (the calibrated random
matrices, the fixed concatenated-code instances) are memoized at module
scope so the converse cross-check can reuse them.
"""

import functools
import json
import math
import time
from fractions import Fraction
from itertools import combinations, product

import mpmath
import numpy as np

from sigmac import cli
from sigmac import constructions as cons
from sigmac import pascal
from sigmac.core import (
    RANDOM_ERRORS,
    SignatureMatrix,
    apply_errors,
    encode,
    min_distinguishing_weight,
    simulate_round,
    tolerates,
)
from sigmac.errors import ConstructionFailure
from sigmac.linear import repetition_code

CALIBRATED_K = cons.CALIBRATED_RANDOM_K[(8, 3, 1)]


def report(criterion: int, elapsed: float, budget: float, detail: str):
    print(f"\ncriterion {criterion}: PASS ({elapsed:.2f}s / budget {budget:.0f}s) "
          f"- {detail}")
    assert elapsed < budget, f"criterion {criterion} exceeded its runtime budget"


def expand_polynomial_power(q: int, n: int) -> list[int]:
    coeffs = [1]
    for _ in range(n):
        out = [0] * (len(coeffs) + q - 1)
        for i, a in enumerate(coeffs):
            for j in range(q):
                out[i + j] += a
        coeffs = out
    return coeffs


def error_value_assignments(size: int, values: list[int], exhaustive: bool):
    """Value tuples for an error support of the given size.

    Exhaustive mode yields the full |values|^size product.  Rotation mode
    yields |values| tuples arranged so every value still appears at every
    support position exactly once across the sweep.
    """
    if size == 0:
        yield ()
        return
    if exhaustive:
        yield from product(values, repeat=size)
        return
    m = len(values)
    stride = max(1, m // 2 - 1)
    for i in range(m):
        yield tuple(values[(i + j * stride) % m] for j in range(size))


# --- shared fixtures (memoized; construction cost only) --------------------

@functools.lru_cache(maxsize=None)
def rs_instances() -> tuple:
    out = []
    for n in range(1, 6):
        for t in (1, 2):
            out.append(cons.rs_augment(cons.construct_trivial(n), t))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def accepted_random_matrices() -> tuple:
    accepted = []
    for seed in range(100):
        try:
            result = cons.construct_random(8, 3, 1, seed=seed, max_attempts=1,
                                           k_override=CALIBRATED_K)
            accepted.append(result)
        except ConstructionFailure:
            pass
    return tuple(accepted)


@functools.lru_cache(maxsize=None)
def kronecker_instances() -> tuple:
    inner = cons.find_inner_matrix(3, 2, 3, 1).matrix
    primary = cons.kronecker_compose(repetition_code(6), inner, t_inner=1,
                                     eps1=Fraction(2, 9), eps2=Fraction(1, 8))
    secondary = cons.build_kronecker(3, Fraction(1, 16), p=3, s=2, r=2,
                                     seed=5, outer_kind="search", t_inner=1)
    return primary, secondary


# --- criteria ---------------------------------------------------------------

def test_criterion_1_pascal_exactness():
    start = time.perf_counter()
    for q in range(2, 7):
        for n in range(13):
            assert pascal.row(q, n) == expand_polynomial_power(q, n)
    binary = [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1], [1, 4, 6, 4, 1],
              [1, 5, 10, 10, 5, 1], [1, 6, 15, 20, 15, 6, 1]]
    ternary = [[1], [1, 1, 1], [1, 2, 3, 2, 1], [1, 3, 6, 7, 6, 3, 1],
               [1, 4, 10, 16, 19, 16, 10, 4, 1],
               [1, 5, 15, 30, 45, 51, 45, 30, 15, 5, 1]]
    for n, expected in enumerate(binary):
        assert pascal.row(2, n) == expected
    for n, expected in enumerate(ternary):
        assert pascal.row(3, n) == expected
    assert pascal.coefficient(3, 4, 4) == 19
    check = pascal.check_convolution_identity(3, 2, 1)
    assert check.holds and check.lhs == 10 == 1 * 1 + 3 * 1 + 6 * 1
    report(1, time.perf_counter() - start, 1.0,
           "rows q=2..6 n<=12 match polynomial expansion; printed rows verbatim")


def test_criterion_2_identity_sweeps():
    start = time.perf_counter()
    checks = 0
    for q in range(2, 6):
        for n in range(11):
            for j in range(n + 1):
                conv = pascal.check_convolution_identity(q, n, j)
                assert conv.holds, (q, n, j)
                dom = pascal.check_dominance(q, n, j)
                assert dom.holds and dom.equal == (j == 0), (q, n, j)
                checks += 2
            if n >= 1 and (n * (q - 1)) % 2 == 0:
                cb = pascal.check_central_bounds(q, n)
                assert cb.power_bound and cb.sqrt_bound, (q, n)
                checks += 1
    for length in range(1, 6):
        for parts in product(range(1, 7), repeat=length):
            assert pascal.check_multinomial_bound(list(parts)), parts
            checks += 1
    report(2, time.perf_counter() - start, 10.0,
           f"{checks} identity/bound checks, zero violations")


def test_criterion_3_verifier_oracle_equivalence():
    start = time.perf_counter()
    import random
    rng = random.Random(2024)
    trials = 0
    while trials < 500:
        q = rng.choice([2, 3])
        n = rng.randint(2, 8)
        k = rng.randint(1, 6)
        matrix = SignatureMatrix(
            q=q, rows=tuple(tuple(rng.randrange(q) for _ in range(n))
                            for _ in range(k)))
        us = np.array(list(product((0, 1), repeat=n)), dtype=np.int64)
        words = us @ np.array(matrix.rows, dtype=np.int64).T
        dists = (words[:, None, :] != words[None, :, :]).sum(axis=2)
        oracle = int(dists[np.triu_indices(len(us), k=1)].min())
        assert min_distinguishing_weight(matrix).d_min == oracle
        trials += 1
    report(3, time.perf_counter() - start, 30.0,
           f"{trials} random matrices: sign-pattern d_min == pairwise brute force")


def test_criterion_4_rs_round_trip():
    start = time.perf_counter()
    decodes = 0
    for code in rs_instances():
        n, t = code.base.n, code.t
        extended = code.matrix
        k = extended.k
        values = [v for v in range(-code.q_rs, code.q_rs + 1) if v != 0]
        exhaustive_values = (t == 1) or (n <= 2)
        assert tolerates(extended, t)
        for u in product((0, 1), repeat=n):
            clean = encode(extended, u)
            for size in range(t + 1):
                for support in combinations(range(k), size):
                    for vals in error_value_assignments(size, values,
                                                        exhaustive_values):
                        received = apply_errors(clean, dict(zip(support, vals)))
                        assert cons.rs_augmented_decode(code, received) == u, (
                            n, t, u, support, vals)
                        decodes += 1
    report(4, time.perf_counter() - start, 120.0,
           f"{decodes} decodes over bases I_1..I_5, t<=2: all recovered; "
           f"extended matrices pass the sign-pattern tolerance check")


def test_criterion_5_random_construction():
    start = time.perf_counter()
    accepted = accepted_random_matrices()
    assert len(accepted) >= 50, (
        f"only {len(accepted)}/100 seeds accepted at calibrated k={CALIBRATED_K}")
    for result in accepted:
        assert result.d_min >= 3
        matrix = result.matrix
        for round_index in range(1000):
            import random
            u_rng = random.Random((result.seed << 16) ^ round_index)
            u = tuple(u_rng.randint(0, 1) for _ in range(matrix.n))
            record = simulate_round(matrix, u, 1, RANDOM_ERRORS,
                                    seed=round_index * 100003 + result.seed)
            assert record.success, (result.seed, round_index, record)
    report(5, time.perf_counter() - start, 120.0,
           f"{len(accepted)}/100 seeds accepted at k={CALIBRATED_K}; "
           f"{len(accepted)}x1000 adversarial rounds, zero failures")


def test_criterion_6_kronecker_pipeline():
    start = time.perf_counter()
    primary, secondary = kronecker_instances()
    # primary: p=3, s=2, q=3, repetition [6,1,6] outer, certified budget 5
    assert primary.certified_budget == 5
    k = primary.matrix.k
    values = [-3, -2, -1, 1, 2, 3]
    decodes = 0
    for v in product((0, 1), repeat=primary.matrix.n):
        clean = encode(primary.matrix, v)
        for size in range(primary.certified_budget + 1):
            for support in combinations(range(k), size):
                for vals in error_value_assignments(size, values, size <= 2):
                    received = apply_errors(clean, dict(zip(support, vals)))
                    got = cons.kronecker_decode(primary, received)
                    assert got == v, (v, support, vals, got)
                    decodes += 1
    # secondary: searched [4,2,>=2] outer over r=2 blocks, budget 1,
    # swept fully
    budget = secondary.certified_budget
    k2 = secondary.matrix.k
    for v in product((0, 1), repeat=secondary.matrix.n):
        clean = encode(secondary.matrix, v)
        for size in range(budget + 1):
            for support in combinations(range(k2), size):
                for vals in product(values, repeat=size):
                    received = apply_errors(clean, dict(zip(support, vals)))
                    assert cons.kronecker_decode(secondary, received) == v
                    decodes += 1
    report(6, time.perf_counter() - start, 300.0,
           f"{decodes} decodes at or below the design budgets, zero failures")


def test_criterion_7_converse_empirically():
    start = time.perf_counter()
    # exhaustive search over all binary matrices with n = 2, k <= 4
    max_d_min = {}
    for k in range(1, 5):
        best = 0
        for bits in product((0, 1), repeat=2 * k):
            rows = tuple((bits[2 * i], bits[2 * i + 1]) for i in range(k))
            matrix = SignatureMatrix(q=2, rows=rows)
            d = min_distinguishing_weight(matrix).d_min
            best = max(best, d)
            t_max = (d - 1) // 2
            assert Fraction(t_max, k) <= Fraction(1, 4), (rows, d)
        max_d_min[k] = best
        assert best <= k / 2 + 1  # d_min > k/2 + 1 would imply t/k > 1/4
    print(f"\n  max d_min per k over all q=2, n=2 matrices: {max_d_min}")
    # no construction used by criteria 4-6 exceeds (q-1)/(2q) at its design t
    for code in rs_instances():
        assert Fraction(code.t, code.matrix.k) <= Fraction(
            code.matrix.q - 1, 2 * code.matrix.q)
    for result in accepted_random_matrices():
        assert Fraction(1, result.k) <= Fraction(2, 6)
    for kron in kronecker_instances():
        assert Fraction(kron.certified_budget, kron.matrix.k) <= Fraction(2, 6)
    report(7, time.perf_counter() - start, 60.0,
           f"exhaustive n=2 k<=4 binary search: t/k never exceeds 1/4 "
           f"(max d_min per k: {max_d_min}); all built codes respect the threshold")


def test_criterion_8_bound_tables(tmp_path):
    elapsed = 0.0
    for tau in ("0", "0.1"):
        out = tmp_path / f"bounds-{tau}.json"
        start = time.perf_counter()
        code = cli.main(["bounds", "--n", "1024,16384", "--q", "2,3,5",
                         "--tau", tau, "--format", "json", "--out", str(out)])
        elapsed += time.perf_counter() - start
        assert code == 0
        reports = json.loads(out.read_text())["reports"]
        assert len(reports) == 6
        for row in reports:
            n, q = row["n"], row["q"]
            with mpmath.workdps(50):
                log_n = mpmath.log(n, 2)
                ref_conv = 2 * n / ((1 - mpmath.mpf(tau)) * log_n)
                denom = log_n + (q - 1) * mpmath.log(mpmath.pi / 2, 2)
                ref_rand = (2 * n * mpmath.log(3, 2) / denom
                            / (1 - 2 * mpmath.mpf(tau)))
                assert abs(row["converse_binary_k"] - ref_conv) <= 1e-9 * ref_conv
                assert abs(row["achievable_random_k"] - ref_rand) <= 1e-9 * ref_rand
            assert row["omitted_terms"]
    report(8, elapsed, 1.0,
           "closed forms for n in {2^10, 2^14}, q in {2,3,5}, tau in {0, 0.1} "
           "match 50-digit references to 1e-9; omitted terms listed")


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    pairs = []
    for name, argv in [
        ("random", ["construct", "--method", "random", "--q", "3", "--n", "8",
                    "--t", "1", "--seed", "7", "--k", str(CALIBRATED_K)]),
        ("rs", ["construct", "--method", "rs-augment", "--n", "4", "--t", "2",
                "--seed", "7"]),
        ("kron", ["construct", "--method", "kronecker", "--q", "3",
                  "--epsilon", "1/16", "--p", "3", "--s", "2", "--r", "1",
                  "--outer", "repetition", "--c1", "6", "--inner-t", "1",
                  "--seed", "7"]),
        ("bounds", ["bounds", "--n", "1024,16384", "--q", "2,3", "--tau", "0.1",
                    "--format", "csv"]),
    ]:
        a = tmp_path / f"{name}-a.out"
        b = tmp_path / f"{name}-b.out"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), name
        pairs.append(name)
    first = cons.construct_random(8, 3, 1, seed=42, k_override=CALIBRATED_K)
    second = cons.construct_random(8, 3, 1, seed=42, k_override=CALIBRATED_K)
    assert first.matrix == second.matrix and first.attempts == second.attempts
    report(9, time.perf_counter() - start, 60.0,
           f"byte-identical artifacts on repeat for {pairs}")
