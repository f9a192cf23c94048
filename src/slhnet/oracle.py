"""Independent validation of amplifier elimination.

Simulates the *full* loop composite with the amplifier mode retained as a
Fock mode and a vacuum bath on the single network output, reduces to the
plant by partial trace, and measures the trace distance to the eliminated
model's prediction.  Sweeping the timescale separation ``kappa / gamma``
at fixed squeezing ``r0`` quantifies the adiabatic approximation error.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import blas
from .lindblad import (
    DensityMatrix,
    NumericalFailure,
    build_liouvillian,
    integrate,
    partial_trace,
    trace_distance,
)
from .network import (
    AmplifierParams,
    DissipationChannel,
    EffectiveModel,
    FeedbackLoopSpec,
    compose_loop_full,
    eliminate_amplifier,
)

log = logging.getLogger(__name__)

# Amplifier-mode truncation adequate for r0 <= 1 (squeezed fluctuations of
# at most sinh(1)^2 ~ 1.4 photons plus small coherent displacement).
AMP_TRUNCATION = 20


def full_loop_simulate(
    spec: FeedbackLoopSpec,
    rho_plant0: DensityMatrix,
    t_grid,
    amp_dim: int = AMP_TRUNCATION,
    stats: dict | None = None,
) -> list[DensityMatrix]:
    """Evolve the plant (+ amplifier in vacuum) under the full composite.

    Returns the plant-reduced states along ``t_grid``; a reduced state whose
    trace drifts by more than 1e-9 or whose Hermiticity is lost beyond 1e-10
    raises NumericalFailure.  ``stats`` is passed on to ``integrate``.
    """
    composite = compose_loop_full(spec, amp_dim)
    big = composite.registry
    model = EffectiveModel(
        H_eff=composite.H,
        channels=(DissipationChannel(op=composite.L),),
        registry=big,
    )
    liou = build_liouvillian(model)

    amp_vac = DensityMatrix.vacuum(amp_dim)
    joint0 = DensityMatrix(np.kron(rho_plant0.mat, amp_vac.mat))
    joint = integrate(liou, joint0, t_grid, stats=stats)

    dims = big.dims
    plant_axes = tuple(range(len(dims) - 1))
    out = []
    for st in joint:
        red = partial_trace(st.mat, dims, plant_axes)
        tr = np.trace(red).real
        if abs(tr - 1.0) > 1e-9:
            raise NumericalFailure(f"reduced state trace drift {tr - 1:.2e}")
        herm = np.max(np.abs(red - red.conj().T))
        if herm > 1e-10:
            raise NumericalFailure(
                f"reduced state hermiticity loss {herm:.2e}")
        out.append(DensityMatrix(0.5 * (red + red.conj().T)))
    return out


@dataclass(frozen=True)
class EliminationErrorRow:
    kappa_over_gamma: float
    trace_distance: float
    integrator_stats: dict  # the full loop's, from ``integrate``


@dataclass(frozen=True)
class EliminationErrorReport:
    rows: tuple[EliminationErrorRow, ...]
    probe_time: float
    verdict: str  # "monotone", "non-monotone", or "insufficient"
    eliminated_stats: dict  # the eliminated model's, from ``integrate``

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(r.trace_distance for r in self.rows)


def elimination_error(
    spec: FeedbackLoopSpec,
    kappa_over_gamma: tuple[float, ...] = (10.0, 30.0, 100.0),
    gamma_ref: float = 1.0,
    rho_plant0: DensityMatrix | None = None,
    amp_dim: int = AMP_TRUNCATION,
) -> EliminationErrorReport:
    """Adiabatic-error sweep at fixed ``r0``.

    For each ratio, the amplifier linewidth is set to
    ``kappa = ratio * gamma_ref`` with the pump rescaled so ``r0`` (hence
    the eliminated model) is unchanged; the full-reduced and eliminated
    evolutions are compared at ``probe_time = 3 / gamma_ref``, three slow
    relaxation times.  The verdict reports whether the error shrinks
    monotonically with increasing timescale separation.  The sweep runs on
    one OpenBLAS thread (``blas.single_thread``).
    """
    probe_time = 3.0 / gamma_ref
    if rho_plant0 is None:
        rho_plant0 = DensityMatrix.vacuum(int(np.prod(spec.registry.dims)))
    t_grid = [0.0, probe_time]

    eliminated_stats: dict = {}
    rows = []
    with blas.single_thread():
        liou_red = build_liouvillian(eliminate_amplifier(spec))
        rho_model = integrate(liou_red, rho_plant0, t_grid,
                              stats=eliminated_stats)[-1]
        for ratio in kappa_over_gamma:
            kappa = ratio * gamma_ref
            amp = AmplifierParams(kappa=kappa,
                                  xi=kappa * math.tanh(spec.amp.r0 / 2.0))
            spec_k = dataclasses.replace(spec, amp=amp)
            stats: dict = {}
            rho_full = full_loop_simulate(
                spec_k, rho_plant0, t_grid, amp_dim=amp_dim, stats=stats
            )[-1]
            dist = trace_distance(rho_full.mat, rho_model.mat)
            rows.append(EliminationErrorRow(kappa_over_gamma=ratio,
                                            trace_distance=dist,
                                            integrator_stats=stats))
            log.info("kappa/gamma=%g: trace distance %.4g", ratio, dist)

    if len(rows) < 2:
        verdict = "insufficient"
    elif all(
        b.trace_distance < a.trace_distance for a, b in zip(rows, rows[1:])
    ):
        verdict = "monotone"
    else:
        verdict = "non-monotone"
    return EliminationErrorReport(
        rows=tuple(rows), probe_time=probe_time, verdict=verdict,
        eliminated_stats=eliminated_stats,
    )
