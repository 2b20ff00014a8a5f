"""The walk-only inner search that the stacked one replaced.

`find_inner_matrix_reference` runs the 3^s walk of
`min_distinguishing_weight` on every p x s candidate in
`itertools.product` order, as `find_inner_matrix` did before it computed
every candidate's d_min in numpy blocks.  It takes the same shapes the
stacked search admits.  The tests use it as the oracle: both must return
the same matrix and count, or fail after the same attempts with the same
message.
"""

from itertools import product

from sigmac.constructions import InnerSearchResult
from sigmac.core import SignatureMatrix, min_distinguishing_weight
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
    space = q ** (p * s)
    raise ConstructionFailure(
        f"exhausted all {space} candidate {p}x{s} matrices over q={q}: "
        f"none reaches d_min >= {target}",
        attempts=space,
    )
