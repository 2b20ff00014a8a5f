"""Independent oracles for the benchmark's output checks.

None of these call into sigmac: d_min is recomputed by a numpy brute force
over every sign pattern, triangle rows by Kronecker substitution into one
big-integer power, and the identity-sweep size by counting its grid.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 15


def d_min(rows) -> int:
    """min over nonzero z in {-1,0,1}^n of the number of nonzero entries of M z.

    Patterns are the base-3 digits (minus one) of 0 .. 3^n - 1, taken in
    chunks so memory stays small; the all-zero pattern is skipped.
    """
    m = np.asarray(rows, dtype=np.int32)
    n = m.shape[1]
    powers = 3 ** np.arange(n, dtype=np.int64)
    zero = (3 ** n - 1) // 2
    best = m.shape[0]
    for lo in range(0, 3 ** n, _CHUNK):
        index = np.arange(lo, min(lo + _CHUNK, 3 ** n), dtype=np.int64)
        index = index[index != zero]
        z = (index[:, None] // powers % 3 - 1).astype(np.int32)
        best = min(best, int(np.count_nonzero(z @ m.T, axis=1).min()))
    return best


def triangle_rows(q: int, nmax: int):
    """Yield (n, coefficients of (1 + x + ... + x^(q-1))^n) for n = 0..nmax.

    Evaluates the polynomial at x = 2^B for a B wider than every
    coefficient (each is below q^nmax), so the big integer P(2^B)^n holds
    the coefficients as disjoint B-bit fields.  P(2^B)^n is built up by one
    multiplication per row.
    """
    width = (q ** nmax).bit_length() // 8 + 1
    shift = 8 * width
    base = sum(1 << (shift * i) for i in range(q))
    power = 1
    for n in range(nmax + 1):
        size = n * (q - 1) + 1
        raw = power.to_bytes(size * width, "little")
        power *= base
        yield n, [int.from_bytes(raw[i * width:(i + 1) * width], "little")
                  for i in range(size)]


def table_mismatch(path, q_values, nmax: int) -> str | None:
    """Compare a `pascal --table` CSV against triangle_rows, line by line."""
    with open(path) as handle:
        if handle.readline() != "q,n,k,coefficient\n":
            return "bad CSV header"
        for q in q_values:
            for n, coefficients in triangle_rows(q, nmax):
                for k, c in enumerate(coefficients):
                    line = handle.readline()
                    if line != f"{q},{n},{k},{c}\n":
                        return f"q={q} n={n} k={k}: got {line.strip()!r}, expected {c}"
        if handle.readline():
            return "trailing lines after the last row"
    return None


def sweep_check_count(qmax: int, nmax: int) -> int:
    """Checks `pascal --identity-sweep` runs over its grid.

    Per (q, n): a convolution and a dominance check for each j in 0..n, and
    a central-bound check when n >= 1 and n(q-1) is even; then one
    multinomial check per composition of length 1..4 with parts in 1..5.
    """
    count = 0
    for q in range(2, qmax + 1):
        for n in range(nmax + 1):
            count += 2 * (n + 1)
            if n >= 1 and n * (q - 1) % 2 == 0:
                count += 1
    return count + sum(5 ** length for length in range(1, 5))
