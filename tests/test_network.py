"""Network composition, amplifier elimination, and closed-form couplings."""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
from pathlib import Path

import pytest

import slhnet
from slhnet.algebra import ModeRegistry, OperatorExpr
from slhnet.netlist import parse
from slhnet.network import (
    AmplifierParams,
    FeedbackLoopSpec,
    NetworkError,
    SLHTriple,
    _compose_loop_direct,
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
from slhnet.pipeline import loop_spec

TWO_PI = 2.0 * math.pi
REG = ModeRegistry((("a", 10),))
A_OP = OperatorExpr.annihilation(REG, "a")
N_OP = OperatorExpr.number(REG, "a")
X_OP = OperatorExpr.position(REG, "a")
ORACLE_NET = parse(
    (Path(__file__).resolve().parent.parent / "netlists" / "oracle_linear.net")
    .read_text()
)


def random_operator(rng, registry=REG, max_degree=2):
    terms = {}
    labels_n = len(registry)
    for _ in range(rng.randint(1, 3)):
        mono = tuple(
            (rng.randint(0, max_degree), rng.randint(0, max_degree))
            for _ in range(labels_n)
        )
        terms[mono] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return OperatorExpr(registry, terms)


def random_triple(rng):
    h = random_operator(rng)
    return SLHTriple(
        theta=rng.uniform(-math.pi, math.pi),
        L=random_operator(rng),
        H=h + h.adjoint(),
    )


class TestSeriesProduct:
    def test_associativity_random_triples(self):
        rng = random.Random(7)
        for _ in range(20):
            g1, g2, g3 = (random_triple(rng) for _ in range(3))
            left = series_product(series_product(g1, g2), g3)
            right = series_product(g1, series_product(g2, g3))
            assert abs(left.theta - right.theta) < 1e-12
            assert (left.L - right.L).max_coeff() < 1e-11
            assert (left.H - right.H).max_coeff() < 1e-11

    def test_phase_only_factor_is_identity_like(self):
        rng = random.Random(3)
        g = random_triple(rng)
        ident = SLHTriple(theta=0.0, L=OperatorExpr.zero(REG),
                          H=OperatorExpr.zero(REG))
        comp = series_product(ident, g)
        assert (comp.L - g.L).max_coeff() < 1e-14
        assert (comp.H - g.H).max_coeff() < 1e-14


class TestAmplifierParameters:
    def test_identities_random(self):
        rng = random.Random(2024)
        for _ in range(200):
            kappa = rng.uniform(0.5, 50.0)
            xi = kappa * rng.uniform(0.01, 0.95)
            amp = AmplifierParams(kappa=kappa, xi=xi)
            r0 = math.log((kappa + xi) / (kappa - xi))
            assert abs(amp.r0 - r0) < 1e-12 * max(1.0, abs(r0))
            assert abs(amp.G0 - math.cosh(r0) ** 2) < 1e-9 * amp.G0

    def test_from_gain_round_trip(self):
        for g0 in (1.0, 2.0, 100.0, 1000.0):
            amp = AmplifierParams.from_gain(g0, kappa=3.0)
            assert abs(amp.G0 - g0) < 1e-9 * max(g0, 1.0)

    def test_from_gain_keeps_the_declared_gain(self):
        """G0 is the gain from_gain was given, not cosh(r0)^2 of the pump
        that realizes it; only from_gain sets it, and a new pump drops it."""
        amp = AmplifierParams.from_gain(100.0)
        assert (amp.G0, amp.declared_G0) == (100.0, 100.0)
        assert math.cosh(amp.r0) ** 2 == 99.99999999999997
        assert AmplifierParams(amp.kappa, amp.xi).declared_G0 is None
        moved = dataclasses.replace(amp, kappa=2.0, xi=2.0 * amp.xi)
        assert moved.declared_G0 is None
        assert moved.G0 == math.cosh(amp.r0) ** 2
        with pytest.raises(TypeError):
            AmplifierParams(kappa=1.0, xi=0.5, declared_G0=9.0)

    def test_overpumped_rejected(self):
        with pytest.raises(NetworkError):
            AmplifierParams(kappa=1.0, xi=1.0)
        with pytest.raises(NetworkError):
            AmplifierParams(kappa=1.0, xi=1.5)

    def test_gain_below_unity_rejected(self):
        with pytest.raises(NetworkError):
            AmplifierParams.from_gain(0.5)


def kerr_loop_spec(G0=100.0, gamma_a=TWO_PI, A=0.0, kappa=200.0):
    amp = AmplifierParams.from_gain(G0, kappa=kappa)
    c = math.sqrt(gamma_a)
    return FeedbackLoopSpec(
        plant_H=OperatorExpr.zero(REG),
        theta=-math.pi / 2,
        L=c * N_OP,
        L_f=c * N_OP,
        amp=amp,
        A=A,
        phi=0.0,
    )


class TestHighGainLimit:
    def test_kerr_loop_nonlinearity_coefficient(self):
        G0, gamma_a = 100.0, TWO_PI * 1.0
        m = high_gain_limit(kerr_loop_spec(G0, gamma_a))
        chi = m.H_eff.coefficient(((2, 2),)).real
        assert abs(chi - 2.0 * math.sqrt(G0) * gamma_a) < 1e-9 * chi

    def test_cross_kerr_loop_coefficient(self):
        reg2 = ModeRegistry((("a", 6), ("b", 6)))
        G0, ga, gb = 100.0, TWO_PI, TWO_PI
        spec = FeedbackLoopSpec(
            plant_H=OperatorExpr.zero(reg2),
            theta=-math.pi / 2,
            L=math.sqrt(ga) * OperatorExpr.number(reg2, "a"),
            L_f=math.sqrt(gb) * OperatorExpr.number(reg2, "b"),
            amp=AmplifierParams.from_gain(G0, kappa=100.0),
            A=0.0,
            phi=0.0,
        )
        m = high_gain_limit(spec)
        coeff = m.H_eff.coefficient(((1, 1), (1, 1))).real
        want = cross_kerr_coefficient(G0, ga, gb)
        assert abs(coeff - want) < 1e-9 * want

    def test_converges_to_exact_elimination(self):
        """The simplified high-gain form approaches the exact eliminated
        Hamiltonian as the gain grows (relative deviation ~ 1/sqrt(G0))."""
        rel = []
        for g0 in (1e2, 1e4, 1e6):
            spec = kerr_loop_spec(G0=g0, A=0.3)
            exact = eliminate_amplifier(spec)
            hg = high_gain_limit(spec)
            num = (exact.H_eff - hg.H_eff).max_coeff()
            den = max(exact.H_eff.max_coeff(), 1e-30)
            rel.append(num / den)
        assert rel[0] < 5e-2
        assert rel[1] < 5e-3
        assert rel[2] < 5e-4
        assert rel[0] > rel[1] > rel[2]


class TestEliminateAmplifier:
    def test_passive_loop_reduction(self):
        """With the pump off the amplifier is a pass-through cavity: one
        vacuum channel L - e^{-i theta} L_f and the feedback Hamiltonian."""
        amp = AmplifierParams(kappa=80.0, xi=0.0)
        theta, phi, amp_A = 0.7, 1.1, 0.4
        spec = FeedbackLoopSpec(
            plant_H=N_OP,
            theta=theta,
            L=A_OP,
            L_f=0.5 * X_OP,
            amp=amp,
            A=amp_A,
            phi=phi,
        )
        m = eliminate_amplifier(spec)
        s = cmath.exp(1j * theta)
        assert len(m.channels) == 1
        theta_op = m.channels[0].op
        want = spec.L - s.conjugate() * spec.L_f
        assert (theta_op - want).max_coeff() < 1e-12

        p = s * spec.L
        h_fb = 0.5j * (spec.L_f.adjoint() * p - p.adjoint() * spec.L_f)
        beta = -amp_A * (2.0 * math.sin(phi) + 2.0j * math.cos(phi))
        h_drive = 1j * (
            beta.conjugate() * s.conjugate() * spec.L_f
            - beta * s * spec.L_f.adjoint()
        )
        want_h = spec.plant_H + h_fb + h_drive
        assert (m.H_eff - want_h).max_coeff() < 1e-12

    def test_channel_is_bogoliubov_normalized(self):
        """The upstream feed enters the vacuum channel with cosh/sinh
        weights; their squares must differ by exactly one."""
        for g0 in (2.0, 10.0, 400.0):
            amp = AmplifierParams.from_gain(g0, kappa=50.0)
            ch, sh = math.cosh(amp.r0), math.sinh(amp.r0)
            assert abs(ch * ch - sh * sh - 1.0) < 1e-9

    def test_matches_full_composition_hamiltonian_structure(self):
        """The chained series products equal the directly expanded loop
        composite in H, L and the scattering phase: on a generic loop, on
        the oracle_linear.net loop, and on a loop with a complex plant H
        and complex couplings at a phase away from the real axis."""
        specs = (
            FeedbackLoopSpec(
                plant_H=2.0 * N_OP, theta=0.3, L=A_OP, L_f=0.5 * X_OP,
                amp=AmplifierParams(kappa=40.0, xi=10.0), A=0.25, phi=0.9,
            ),
            loop_spec(ORACLE_NET.loops[0], ORACLE_NET.plant_H),
            FeedbackLoopSpec(
                plant_H=0.7 * N_OP + (0.3 - 0.4j) * A_OP * A_OP
                + (0.3 + 0.4j) * A_OP.adjoint() * A_OP.adjoint(),
                theta=-2.1, L=(0.8 + 0.6j) * A_OP + 0.2 * N_OP,
                L_f=(0.1 - 0.3j) * A_OP.adjoint(),
                amp=AmplifierParams.from_gain(5.0, kappa=30.0),
                A=0.4, phi=-1.2,
            ),
        )
        for spec in specs:
            comp = compose_loop_full(spec, amp_dim=8)
            assert len(comp.registry) == 2
            ref = _compose_loop_direct(spec, comp.registry)
            assert (comp.H - ref.H).max_coeff() <= 1e-12
            assert (comp.L - ref.L).max_coeff() <= 1e-12
            assert abs(comp.theta - ref.theta) <= 1e-12
            # the composite is a legal SLH triple with hermitian H
            assert (comp.H - comp.H.adjoint()).max_coeff() < 1e-10

    def test_drive_displacement_closed_form(self):
        """beta = -A[(1+e^{r0}) sin(phi) + i (1+e^{-r0}) cos(phi)] is the
        steady amplifier output amplitude; check it against the linear
        steady state of the pumped cavity."""
        kappa, g0, amp_A, phi = 60.0, 9.0, 0.7, 0.4
        amp = AmplifierParams.from_gain(g0, kappa=kappa)
        r0, xi = amp.r0, amp.xi
        # steady state of d<c>/dt with pump xi and drive sqrt(kappa) A:
        # ((kappa - xi)/2) u = -sqrt(kappa) A sin(phi)
        # ((kappa + xi)/2) v = -sqrt(kappa) A cos(phi)
        u = -math.sqrt(kappa) * amp_A * math.sin(phi) / ((kappa - xi) / 2)
        v = -math.sqrt(kappa) * amp_A * math.cos(phi) / ((kappa + xi) / 2)
        beta_ref = math.sqrt(kappa) * complex(u, v)
        beta = -amp_A * (
            (1.0 + math.exp(r0)) * math.sin(phi)
            + 1j * (1.0 + math.exp(-r0)) * math.cos(phi)
        )
        assert abs(beta - beta_ref) < 1e-10 * max(abs(beta), 1.0)

    def test_amplifier_slh_is_legal_triple(self):
        amp = AmplifierParams(kappa=30.0, xi=12.0)
        reg = ModeRegistry((("c", 8),))
        g = amplifier_slh(amp, 0.5, 0.2, reg)
        assert (g.H - g.H.adjoint()).max_coeff() < 1e-10


class TestClosedFormCouplings:
    def test_kerr_frequencies(self):
        gamma_a = TWO_PI * 1.0
        a_t = math.sqrt(576.0 * TWO_PI)
        delta, chi = kerr_coefficients(100.0, gamma_a, a_t)
        assert abs(chi / TWO_PI - 20.0) < 1e-9
        assert abs(delta / TWO_PI - 480.0) < 1e-9

    def test_cross_kerr_value(self):
        chi = cross_kerr_coefficient(100.0, TWO_PI, TWO_PI)
        assert abs(chi / TWO_PI - 20.0) < 1e-9

    def test_quartic_coefficient_table(self):
        gam = TWO_PI
        qc = quartic_coefficients(
            G1=1000.0, G3=1000.0, gamma=gam,
            gamma1=gam, gamma2=gam, gamma3=gam,
            A1=math.sqrt(40.0 * TWO_PI),
            A3=math.sqrt(152.1 * TWO_PI),
            A4=math.sqrt(200.0 * TWO_PI),
        )
        assert abs(qc.chi1 / TWO_PI - 20.0) < 1e-9
        assert abs(qc.chi2 / TWO_PI - 20.0) < 1e-6
        assert abs(qc.chi3 / TWO_PI - 2.0 * math.sqrt(1000.0)) < 1e-9
        assert abs(qc.chi4 / TWO_PI - 2.0 * math.sqrt(1000.0)) < 1e-9
        # balanced quadratic partner
        assert abs(qc.G2 - 1000.0) < 1e-9
        assert abs(qc.A2 - math.sqrt(40.0 * TWO_PI)) < 1e-12

    def test_quartic_partner_scaling(self):
        gam = TWO_PI
        qc = quartic_coefficients(
            G1=1000.0, G3=1000.0, gamma=gam,
            gamma1=gam, gamma2=4.0 * gam, gamma3=gam,
            A1=1.0, A3=1.0, A4=0.0,
        )
        assert abs(qc.G2 - 250.0) < 1e-9
        assert abs(qc.A2 - 2.0) < 1e-12

    def test_quartic_zero_primary_rate_rejected(self):
        with pytest.raises(NetworkError):
            quartic_coefficients(
                G1=10.0, G3=10.0, gamma=1.0,
                gamma1=0.0, gamma2=1.0, gamma3=1.0,
                A1=0.0, A3=0.0, A4=0.0,
            )

    def test_circuit_rate_formula(self):
        eta_t, eta_in, phi0 = 0.8, 0.9, 1.3
        want = math.pi ** 6 * eta_t ** 4 * eta_in ** 2 / phi0 ** 6
        assert abs(gamma_a_from_circuit(eta_t, eta_in, phi0) - want) < 1e-12


class TestQuarticOperatorIdentity:
    def test_number_position_mixing(self):
        """n x^2 + x^2 n + a^2 x^2 + x^2 ad^2 = 2 x^4 + x^2 exactly; the
        cancellation behind assembling a pure quartic from x^2 couplings."""
        reg = ModeRegistry((("a", 12),))
        a = OperatorExpr.annihilation(reg, "a")
        ad = a.adjoint()
        n = ad * a
        x = OperatorExpr.position(reg, "a")
        x2 = x * x
        lhs = n * x2 + x2 * n + a * a * x2 + x2 * (ad * ad)
        rhs = 2.0 * (x2 * x2) + x2
        assert (lhs - rhs).max_coeff() < 1e-12


def test_every_package_export_resolves():
    """``from slhnet import *`` fails on a stale name in ``__all__``."""
    missing = [name for name in slhnet.__all__ if not hasattr(slhnet, name)]
    assert missing == []
    assert len(set(slhnet.__all__)) == len(slhnet.__all__)
