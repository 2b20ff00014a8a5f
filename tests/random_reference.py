"""The walk-only random construction that the threshold check replaced.

`construct_random_reference` accepts or rejects every draw by the full 3^n
walk of `min_distinguishing_weight`, as `construct_random` did before it
rejected draws through `core.at_most`.  It lengthens k only when another
draw follows, as `construct_random` does now.  The tests use it as the
oracle: both must return the same record, or fail after the same attempts
with the same message.
"""

import math
import random

from sigmac.bounds import ConstantT
from sigmac.constructions import RANDOM_BATCH, RandomConstruction, plan_random_length
from sigmac.core import SignatureMatrix, derive_seed, min_distinguishing_weight
from sigmac.errors import ConstructionFailure


def construct_random_reference(n: int, q: int, t: int, seed: int,
                               max_attempts: int = 100,
                               k_override: int | None = None,
                               limit: int | None = None) -> RandomConstruction:
    if t < 0:
        raise ValueError("t must be >= 0")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    planned = k_override if k_override is not None \
        else plan_random_length(n, q, ConstantT(t))
    k = planned
    escalations = 0
    for attempt in range(1, max_attempts + 1):
        rng = random.Random(derive_seed(seed, "random-matrix", attempt))
        rows = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(k))
        matrix = SignatureMatrix(q=q, rows=rows)
        report = min_distinguishing_weight(matrix, limit)
        if report.d_min >= 2 * t + 1:
            return RandomConstruction(matrix=matrix, t=t, seed=seed, attempts=attempt,
                                      k=k, d_min=report.d_min, planned_k=planned,
                                      escalations=escalations)
        if attempt % RANDOM_BATCH == 0 and attempt < max_attempts:
            k = max(k + 1, math.ceil(k * 1.05))
            escalations += 1
    raise ConstructionFailure(
        f"no {k}x{n} matrix with d_min >= {2 * t + 1} found in {max_attempts} "
        f"attempts ({escalations} length escalations from {planned})",
        attempts=max_attempts,
    )
