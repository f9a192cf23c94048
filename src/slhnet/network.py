"""Composition of single-channel coherent-feedback networks.

This module represents open quantum systems as SLH-style triples
``(theta, L, H)`` where the scattering matrix of the single channel is the
phase ``exp(i*theta)``, ``L`` is the collapse operator and ``H`` the
Hamiltonian.  It provides

* the series product (Gough & James, IEEE TAC 54, 2530 (2009)),
* a degenerate parametric amplifier component and the full composite of a
  feedback loop routed through it,
* adiabatic elimination of the amplifier mode, yielding an effective plant
  model with a feedback-induced Hamiltonian, a classical drive term and a
  single Bogoliubov-mixed vacuum dissipation channel,
* the algebraic high-gain limit of that model, and
* closed-form coefficient formulas for the Kerr, cross-Kerr and quartic
  oscillator models engineered from such loops.

All frequencies are angular (rad / microsecond when used with the
integration engine).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .algebra import ModeRegistry, OperatorExpr, is_hermitian

_HERM_TOL_INPUT = 1e-12
_HERM_TOL_EFFECTIVE = 1e-10


class NetworkError(ValueError):
    """Raised for invalid network specifications or failed internal checks."""


# ---------------------------------------------------------------------------
# Dissipation channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipationChannel:
    """A single Lindblad channel into a vacuum bath: operator and a rate.

    The total damping rate is ``rate_prefactor`` (the operator itself may
    carry additional scale).  A squeezed input, such as the amplifier's
    noise, enters as a Bogoliubov-mixed operator (see
    :func:`eliminate_amplifier`).
    """

    op: OperatorExpr
    rate_prefactor: float = 1.0

    def __post_init__(self):
        if self.rate_prefactor <= 0:
            raise NetworkError("channel rate_prefactor must be positive")


# ---------------------------------------------------------------------------
# SLH triple
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SLHTriple:
    """Single-channel system ``(S, L, H)`` with ``S = exp(i * theta)``.

    The scattering phase is stored as the real angle ``theta`` so that
    repeated composition accumulates phases without unimodularity drift.
    """

    theta: float
    L: OperatorExpr
    H: OperatorExpr

    def __post_init__(self):
        if self.L.registry is not self.H.registry:
            raise NetworkError("L and H must share one mode registry")
        if not is_hermitian(self.H, _HERM_TOL_INPUT):
            raise NetworkError("H must be Hermitian (tolerance 1e-12)")

    @property
    def registry(self) -> ModeRegistry:
        return self.L.registry

    @property
    def scattering(self) -> complex:
        return cmath.exp(1j * self.theta)


def series_product(g1: SLHTriple, g2: SLHTriple) -> SLHTriple:
    """Feed the output of ``g1`` into the input of ``g2``.

    The composite is ``(theta1 + theta2, L2 + e^{i theta2} L1,
    H1 + H2 + (i/2)(L1^dag e^{-i theta2} L2 - L2^dag e^{i theta2} L1))``.
    """
    if g1.registry is not g2.registry:
        raise NetworkError("series product requires a shared mode registry")
    s2 = cmath.exp(1j * g2.theta)
    l1d = g1.L.adjoint()
    l2d = g2.L.adjoint()
    h_int = 0.5j * (l1d * g2.L * s2.conjugate() - l2d * g1.L * s2)
    return SLHTriple(
        theta=g1.theta + g2.theta,
        L=g2.L + s2 * g1.L,
        H=g1.H + g2.H + h_int,
    )


# ---------------------------------------------------------------------------
# Amplifier parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplifierParams:
    """Degenerate parametric amplifier: linewidth ``kappa``, pump ``xi``.

    Derived quantities: squeezing parameter ``r0 = ln((kappa + xi) /
    (kappa - xi))`` and power gain ``G0 = cosh(r0)^2``.
    Requires ``0 <= xi < kappa`` with a guard band ``(kappa - xi) / kappa
    >= 1e-6`` away from the instability threshold.

    :meth:`from_gain` keeps the gain it was given as ``declared_G0``, and
    ``G0`` returns it exactly (``cosh(r0)^2`` reads 99.99999999999997 for
    100).  Nothing else sets it, so it always matches ``kappa`` and ``xi``.
    """

    kappa: float
    xi: float
    declared_G0: float | None = field(default=None, init=False)

    def __post_init__(self):
        if self.kappa <= 0:
            raise NetworkError("amplifier kappa must be positive")
        if self.xi < 0:
            raise NetworkError("amplifier xi must be non-negative")
        if self.xi >= self.kappa:
            raise NetworkError("amplifier requires xi < kappa (stability)")
        if (self.kappa - self.xi) / self.kappa < 1e-6:
            raise NetworkError(
                "amplifier operating point too close to threshold: "
                "(kappa - xi) / kappa < 1e-6"
            )

    @classmethod
    def from_gain(cls, G0: float, kappa: float = 1.0) -> "AmplifierParams":
        """Build parameters realizing power gain ``G0 >= 1``."""
        if G0 < 1.0:
            raise NetworkError("power gain G0 must be >= 1")
        r0 = math.acosh(math.sqrt(G0))
        amp = cls(kappa=kappa, xi=kappa * math.tanh(r0 / 2.0))
        object.__setattr__(amp, "declared_G0", G0)
        return amp

    @property
    def r0(self) -> float:
        return math.log((self.kappa + self.xi) / (self.kappa - self.xi))

    @property
    def G0(self) -> float:
        if self.declared_G0 is not None:
            return self.declared_G0
        return math.cosh(self.r0) ** 2


# ---------------------------------------------------------------------------
# Feedback loop specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeedbackLoopSpec:
    """One coherent-feedback loop through a parametric amplifier.

    The field leaves the plant via ``L``, acquires the in-loop phase
    ``theta``, drives the amplifier (linewidth ``amp.kappa``, pump
    ``amp.xi``, coherent displacement amplitude ``A`` at phase ``phi``),
    and returns to the plant via the upstream coupling ``L_f``.  All
    operators act on plant modes only; the amplifier mode is internal.
    """

    plant_H: OperatorExpr
    theta: float
    L: OperatorExpr
    L_f: OperatorExpr
    amp: AmplifierParams
    A: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        reg = self.plant_H.registry
        if self.L.registry is not reg or self.L_f.registry is not reg:
            raise NetworkError("plant_H, L and L_f must share one registry")
        if not is_hermitian(self.plant_H, _HERM_TOL_INPUT):
            raise NetworkError("plant_H must be Hermitian")
        if self.A < 0:
            raise NetworkError("drive amplitude A must be >= 0")

    @property
    def registry(self) -> ModeRegistry:
        return self.plant_H.registry


# ---------------------------------------------------------------------------
# Effective model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveModel:
    """Plant-only model after amplifier elimination."""

    H_eff: OperatorExpr
    channels: tuple[DissipationChannel, ...]
    registry: ModeRegistry

    def __post_init__(self):
        if not is_hermitian(self.H_eff, _HERM_TOL_EFFECTIVE):
            raise NetworkError("H_eff failed hermiticity check (1e-10)")
        for ch in self.channels:
            if ch.op.registry is not self.registry:
                raise NetworkError("channel operator on wrong registry")


# ---------------------------------------------------------------------------
# Full composite (amplifier retained)
# ---------------------------------------------------------------------------

def _extend_registry(reg: ModeRegistry, dim: int) -> ModeRegistry:
    """The plant registry with an amplifier mode of truncation ``dim``
    appended, labelled ``c`` unless a plant mode already is (then ``c_``,
    ``c__``, ...)."""
    label = "c"
    while label in reg.labels:
        label += "_"
    return ModeRegistry(tuple(zip(reg.labels, reg.dims)) + ((label, dim),))


def _lift(x: OperatorExpr, big: ModeRegistry) -> OperatorExpr:
    """Re-express a plant operator on an extended registry (extra modes
    appended, identity on them)."""
    pad = len(big) - len(x.registry)
    terms = {m + ((0, 0),) * pad: c for m, c in x.terms.items()}
    return OperatorExpr(big, terms)


def amplifier_slh(
    amp: AmplifierParams,
    A: float,
    phi: float,
    registry: ModeRegistry,
) -> SLHTriple:
    """SLH triple of the driven degenerate parametric amplifier on the
    last mode ``c`` of ``registry``.

    ``(0, sqrt(kappa) c, (i xi / 4)(c^dag^2 - c^2)
    + sqrt(kappa) A (e^{i phi} c + c^dag e^{-i phi}))``.
    """
    label = registry.labels[-1]
    c = OperatorExpr.annihilation(registry, label)
    cd = OperatorExpr.creation(registry, label)
    sqk = math.sqrt(amp.kappa)
    h_pump = 0.25j * amp.xi * (cd * cd - c * c)
    h_drive = sqk * A * (cmath.exp(1j * phi) * c + cmath.exp(-1j * phi) * cd)
    return SLHTriple(theta=0.0, L=sqk * c, H=h_pump + h_drive)


def compose_loop_full(spec: FeedbackLoopSpec, amp_dim: int) -> SLHTriple:
    """Full loop composite with the amplifier mode retained.

    Chains plant output coupling -> amplifier -> plant return coupling via
    the series product.  The result lives on the plant registry extended by
    the amplifier mode (truncation ``amp_dim``), appended last.
    """
    big = _extend_registry(spec.registry, amp_dim)
    h_plant = _lift(spec.plant_H, big)
    l_out = _lift(spec.L, big)
    l_ret = _lift(spec.L_f, big)
    zero = OperatorExpr.zero(big)

    g_out = SLHTriple(theta=spec.theta, L=l_out, H=h_plant)
    g_amp = amplifier_slh(spec.amp, spec.A, spec.phi, big)
    g_ret = SLHTriple(theta=spec.theta, L=l_ret, H=zero)
    return series_product(series_product(g_out, g_amp), g_ret)


def _compose_loop_direct(spec: FeedbackLoopSpec,
                         big: ModeRegistry) -> SLHTriple:
    """Directly expanded loop composite (independent of series chaining),
    with the amplifier on the last mode of ``big``; the reference the tests
    hold :func:`compose_loop_full` to."""
    s = cmath.exp(1j * spec.theta)
    sqk = math.sqrt(spec.amp.kappa)
    label = big.labels[-1]
    c = OperatorExpr.annihilation(big, label)
    cd = OperatorExpr.creation(big, label)
    h = _lift(spec.plant_H, big)
    l_out = _lift(spec.L, big)
    l_ret = _lift(spec.L_f, big)
    h_c = 0.25j * spec.amp.xi * (cd * cd - c * c) + sqk * spec.A * (
        cmath.exp(1j * spec.phi) * c + cmath.exp(-1j * spec.phi) * cd
    )
    h_tot = (
        h
        + h_c
        + 0.5j * sqk * (l_out.adjoint() * c - cd * l_out)
        + 0.5j * (
            (l_out.adjoint() + sqk * cd) * l_ret * s.conjugate()
            - l_ret.adjoint() * (l_out + sqk * c) * s
        )
    )
    l_tot = l_ret + s * (sqk * c + l_out)
    return SLHTriple(theta=2.0 * spec.theta, L=l_tot, H=h_tot)


# ---------------------------------------------------------------------------
# Amplifier elimination
# ---------------------------------------------------------------------------

def _eliminated_model(spec: FeedbackLoopSpec, ch: float, sh: float,
                      beta: complex) -> EffectiveModel:
    """The eliminated model for Bogoliubov cosh/sinh weights ``ch``/``sh``
    of the amplifier and the steady coherent amplitude ``beta`` injected by
    the classical drive (see :func:`eliminate_amplifier`)."""
    s = cmath.exp(1j * spec.theta)
    L = spec.L
    Lf = spec.L_f
    p = s * (ch * L + sh * L.adjoint())
    h_fb = 0.5j * (Lf.adjoint() * p - p.adjoint() * Lf)
    h_drive = 1j * (
        beta.conjugate() * s.conjugate() * Lf - beta * s * Lf.adjoint()
    )
    theta_op = L - ch * s.conjugate() * Lf + sh * s * Lf.adjoint()
    channels: tuple[DissipationChannel, ...] = ()
    if not theta_op.is_zero:
        channels = (DissipationChannel(op=theta_op),)
    return EffectiveModel(H_eff=spec.plant_H + h_fb + h_drive,
                          channels=channels, registry=spec.registry)


def eliminate_amplifier(spec: FeedbackLoopSpec) -> EffectiveModel:
    """Adiabatically eliminate the fast amplifier mode.

    Valid when the amplifier linewidth dominates every plant rate.  The
    returned model has

    * ``H_eff = plant_H + H_fb + H_drive`` with the feedback Hamiltonian
      ``H_fb = (i/2)(L_f^dag P - P^dag L_f)``, ``P = e^{i theta}
      (cosh(r0) L + sinh(r0) L^dag)`` — the returning field carries the
      amplified/conjugated plant coupling;
    * a classical drive ``H_drive = i(conj(beta) e^{-i theta} L_f
      - beta e^{i theta} L_f^dag)`` from the displaced amplifier steady
      state, ``beta = -A [(1 + e^{r0}) sin(phi) + i (1 + e^{-r0})
      cos(phi)]``;
    * one vacuum dissipation channel with operator ``Theta = L
      - cosh(r0) e^{-i theta} L_f + sinh(r0) e^{i theta} L_f^dag``: the
      loop coherently cancels part of the downstream coupling and mixes in
      the conjugate of the upstream one.
    """
    r0 = spec.amp.r0
    beta = -spec.A * (
        (1.0 + math.exp(r0)) * math.sin(spec.phi)
        + 1j * (1.0 + math.exp(-r0)) * math.cos(spec.phi)
    )
    return _eliminated_model(spec, math.cosh(r0), math.sinh(r0), beta)


def high_gain_limit(spec: FeedbackLoopSpec) -> EffectiveModel:
    """Algebraic high-gain limit of :func:`eliminate_amplifier`.

    Replaces both Bogoliubov weights by ``sqrt(G0)`` and keeps only the
    leading drive response, so the engineered Hamiltonian appears at a
    single overall scale ``sqrt(G0)``.
    """
    g = math.sqrt(spec.amp.G0)
    beta = -spec.A * (2.0 * g * math.sin(spec.phi) + 1j * math.cos(spec.phi))
    return _eliminated_model(spec, g, g, beta)


# ---------------------------------------------------------------------------
# Closed-form engineered coefficients
# ---------------------------------------------------------------------------

def kerr_coefficients(G0: float, gamma_a: float, A_T: float):
    """Self-Kerr loop: returns ``(delta, chi)``.

    ``chi = 2 sqrt(G0) gamma_a`` is the Kerr coefficient and
    ``delta = 2 A_T sqrt(G0 gamma_a)`` the drive-induced frequency shift,
    so the oscillator runs at ``omega_a - delta``.
    """
    if G0 < 1.0 or gamma_a < 0 or A_T < 0:
        raise NetworkError("kerr_coefficients needs G0 >= 1, rates >= 0")
    delta = 2.0 * A_T * math.sqrt(G0 * gamma_a)
    chi = 2.0 * math.sqrt(G0) * gamma_a
    return delta, chi


def cross_kerr_coefficient(G0: float, gamma_a: float, gamma_b: float) -> float:
    """Cross-Kerr coefficient ``chi_ab = 2 sqrt(G0 gamma_a gamma_b)``."""
    if G0 < 1.0 or gamma_a < 0 or gamma_b < 0:
        raise NetworkError("cross_kerr needs G0 >= 1, rates >= 0")
    return 2.0 * math.sqrt(G0 * gamma_a * gamma_b)


@dataclass(frozen=True)
class QuarticCoefficients:
    """Coefficients of ``H = omega_a n + sum_k chi_k x^k`` plus the induced
    second-loop parameters that keep the quadratic terms balanced."""

    chi1: float
    chi2: float
    chi3: float
    chi4: float
    G2: float
    A2: float


def quartic_coefficients(
    G1: float,
    G3: float,
    gamma: float,
    gamma1: float,
    gamma2: float,
    gamma3: float,
    A1: float,
    A3: float,
    A4: float,
) -> QuarticCoefficients:
    """Closed-form coefficients of the quartic-potential construction.

    Three loops (downstream couplings ``sqrt(gamma) x^2``; upstream
    couplings ``sqrt(gamma1) n``, ``sqrt(gamma2) a^dag^2``,
    ``sqrt(gamma3) x``) plus a direct linear drive give

    ``chi1 = A4 sqrt(2 gamma)``,
    ``chi2 = 4 A1 sqrt(G1 gamma1) - 2 A3 sqrt(G3 gamma3)``,
    ``chi3 = 2 sqrt(G3 gamma gamma3)``,
    ``chi4 = 2 sqrt(G1 gamma gamma1)``.

    The second loop must run at ``G2 = G1 gamma1 / gamma2`` with drive
    ``A2 = A1 sqrt(gamma2 / gamma1)`` so its quadratic output matches the
    first loop's.
    """
    for name, v in [
        ("G1", G1), ("G3", G3), ("gamma", gamma), ("gamma1", gamma1),
        ("gamma2", gamma2), ("gamma3", gamma3), ("A1", A1), ("A3", A3),
        ("A4", A4),
    ]:
        if v < 0:
            raise NetworkError(f"{name} must be >= 0")
    if G1 < 1.0 or G3 < 1.0:
        raise NetworkError("gains must be >= 1")
    if gamma1 == 0.0 and gamma2 > 0.0:
        raise NetworkError(
            "gamma1 = 0 with gamma2 > 0 leaves the matched second-loop "
            "drive A2 undefined"
        )
    chi1 = A4 * math.sqrt(2.0 * gamma)
    chi2 = 4.0 * A1 * math.sqrt(G1 * gamma1) - 2.0 * A3 * math.sqrt(G3 * gamma3)
    chi3 = 2.0 * math.sqrt(G3 * gamma * gamma3)
    chi4 = 2.0 * math.sqrt(G1 * gamma * gamma1)
    if gamma2 > 0.0:
        G2 = G1 * gamma1 / gamma2
        A2 = A1 * math.sqrt(gamma2 / gamma1) if gamma1 > 0 else 0.0
    else:
        G2 = 0.0
        A2 = 0.0
    return QuarticCoefficients(chi1=chi1, chi2=chi2, chi3=chi3, chi4=chi4,
                               G2=G2, A2=A2)


def gamma_a_from_circuit(eta_T: float, eta_in: float, Phi0: float) -> float:
    """Transmon coupling rate from circuit parameters:
    ``gamma_a = pi^6 eta_T^4 eta_in^2 / Phi0^6``."""
    if eta_T < 0 or eta_in < 0:
        raise NetworkError("eta_T and eta_in must be >= 0")
    if Phi0 <= 0:
        raise NetworkError("Phi0 must be positive")
    return math.pi ** 6 * eta_T ** 4 * eta_in ** 2 / Phi0 ** 6
