"""Whole-space inner searches that the branch-and-bound one replaced.

`find_inner_matrix_reference` runs the 3^s walk of
`min_distinguishing_weight` on every p x s candidate in
`itertools.product` order, as `find_inner_matrix` did before it computed
every candidate's d_min in numpy.  The tests use it as the oracle: both
must return the same matrix and count, or fail after the same attempts
with the same message.

`stacked_distances` is the numpy kernel that came between them: the d_min
of every candidate, in product order, as sums of the rows' entries in the
row table [row . z != 0].  The whole-space histograms the README cites are
counted from it.
"""

from itertools import product

import numpy as np

from sigmac.constructions import InnerSearchResult
from sigmac.core import SignatureMatrix, _digit_sums, min_distinguishing_weight
from sigmac.errors import ConstructionFailure


def candidates(p: int, s: int, q: int):
    """Every p x s matrix over q, in product order."""
    for entries in product(range(q), repeat=p * s):
        yield SignatureMatrix(q=q, rows=tuple(entries[i * s:(i + 1) * s] for i in range(p)))


def find_inner_matrix_reference(p: int, s: int, q: int, t_inner: int) -> InnerSearchResult:
    target = 2 * t_inner + 1
    for checked, matrix in enumerate(candidates(p, s, q), 1):
        if min_distinguishing_weight(matrix).d_min >= target:
            return InnerSearchResult(matrix, checked)
    raise ConstructionFailure(
        f"exhausted all {q}^{p * s} candidate {p}x{s} matrices over q={q}: "
        f"none reaches d_min >= {target}",
        attempts=q ** (p * s),
    )


def stacked_distances(p: int, s: int, q: int):
    """The d_min of every p x s matrix over q, in product order."""
    values = np.min_scalar_type(-1 - s * (q - 1))
    # one sign pattern of each +-z pair, and row i of `table` holds the
    # base-q digits of i, most significant first, against each of them
    signs = _digit_sums(np.eye(s, dtype=values), (-1, 0, 1))[(3 ** s + 1) // 2:]
    table = (_digit_sums(signs[:, ::-1].T, range(q)) != 0).astype(np.min_scalar_type(p))
    weights = np.zeros((1, len(signs)), table.dtype)
    for _ in range(p):
        weights = (weights[:, None, :] + table[None, :, :]).reshape(-1, len(signs))
    return weights.min(axis=1)
