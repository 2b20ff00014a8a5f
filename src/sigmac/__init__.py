"""Signature codes for the noisy integer-adder multiple access channel.

A signature matrix assigns each of n users a column over {0,...,q-1}; the
channel emits the integer sum of the active users' columns, possibly with
up to t adversarially corrupted positions.  This package provides exact
combinatorics for the q-ary generalized Pascal triangle, verified code
constructions with their decoders, brute-force correctness oracles, and
evaluators for the known converse and achievability length bounds.
"""

from .core import (
    SignatureMatrix,
    VerificationReport,
    adversarial_witness,
    apply_errors,
    at_most,
    decode_min_distance,
    encode,
    min_distinguishing_weight,
    simulate_round,
    tolerates,
)
from .errors import (
    AmbiguousDecoding,
    CapacityError,
    ConstructionFailure,
    DecodingFailure,
    NoCentralCoefficient,
    SigmacError,
)

__version__ = "0.1.0"

__all__ = [
    "SignatureMatrix",
    "VerificationReport",
    "adversarial_witness",
    "apply_errors",
    "at_most",
    "decode_min_distance",
    "encode",
    "min_distinguishing_weight",
    "simulate_round",
    "tolerates",
    "AmbiguousDecoding",
    "CapacityError",
    "ConstructionFailure",
    "DecodingFailure",
    "NoCentralCoefficient",
    "SigmacError",
    "__version__",
]
