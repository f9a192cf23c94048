"""Coherent-feedback SLH networks: composition, amplifier elimination,
Lindblad dynamics, and nonclassicality observables."""

from .algebra import (
    ModeRegistry,
    OperatorExpr,
    adjoint,
    commutator,
    is_hermitian,
)
from .network import (
    AmplifierParams,
    DissipationChannel,
    EffectiveModel,
    FeedbackLoopSpec,
    SLHTriple,
    amplifier_slh,
    compose_loop_full,
    cross_kerr_coefficient,
    eliminate_amplifier,
    gamma_a_from_circuit,
    high_gain_limit,
    kerr_coefficients,
    quartic_coefficients,
    series_product,
)

__all__ = [
    "ModeRegistry",
    "OperatorExpr",
    "adjoint",
    "commutator",
    "is_hermitian",
    "AmplifierParams",
    "DissipationChannel",
    "EffectiveModel",
    "FeedbackLoopSpec",
    "SLHTriple",
    "amplifier_slh",
    "compose_loop_full",
    "cross_kerr_coefficient",
    "eliminate_amplifier",
    "gamma_a_from_circuit",
    "high_gain_limit",
    "kerr_coefficients",
    "quartic_coefficients",
    "series_product",
]
