"""Nonclassicality diagnostics against analytic references: Fano factor,
stationary g2 by quantum regression, and Hilbert-Schmidt non-Gaussianity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from slhnet.algebra import ModeRegistry, OperatorExpr
from slhnet.lindblad import (
    DensityMatrix,
    PhysicsValidationError,
    build_liouvillian,
    steady_state,
    trace_distance,
)
from slhnet.network import DissipationChannel, EffectiveModel
from slhnet.observables import (
    MomentSet,
    _displacement,
    _squeeze,
    fano_factor,
    g2,
    gaussian_reference,
    moments,
    non_gaussianity,
)

from .conftest import assert_close_matrices


def driven_cavity(dim: int, eps: float, gamma: float):
    """Damped cavity with a resonant drive; its steady state is the coherent
    state with amplitude 2*eps/gamma."""
    reg = ModeRegistry((("a", dim),))
    a = OperatorExpr.annihilation(reg, "a")
    model = EffectiveModel(
        H_eff=1j * (eps * a.adjoint() - eps * a),
        channels=(DissipationChannel(op=a, rate_prefactor=gamma),),
        registry=reg,
    )
    return model, reg


class TestMomentSet:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(PhysicsValidationError, match="symmetric"):
            MomentSet(mean=(0.0, 0.0), cov=np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_rejects_covariance_below_uncertainty_floor(self):
        with pytest.raises(PhysicsValidationError, match="uncertainty"):
            MomentSet(mean=(0.0, 0.0), cov=0.3 * np.eye(2))

    def test_vacuum_moments(self):
        ms = moments(DensityMatrix.vacuum(10).mat)
        assert abs(ms.mean[0]) < 1e-12 and abs(ms.mean[1]) < 1e-12
        assert_close_matrices(ms.cov, 0.5 * np.eye(2), 1e-12, "vacuum cov")

    def test_coherent_moments(self):
        alpha = 0.7 - 0.4j
        ms = moments(DensityMatrix.coherent(30, alpha).mat)
        assert abs(ms.mean[0] - math.sqrt(2) * alpha.real) < 1e-9
        assert abs(ms.mean[1] - math.sqrt(2) * alpha.imag) < 1e-9
        assert_close_matrices(ms.cov, 0.5 * np.eye(2), 1e-9, "coherent cov")

    def test_fock_one_moments(self):
        ms = moments(DensityMatrix.fock(10, 1).mat)
        assert_close_matrices(ms.cov, 1.5 * np.eye(2), 1e-12, "fock-1 cov")

    def test_squeezed_vacuum_moments(self):
        r, d = 0.3, 30
        S = _squeeze(d, r)
        vac = DensityMatrix.vacuum(d).mat
        ms = moments(DensityMatrix(S @ vac @ S.conj().T).mat)
        expected = np.diag([math.exp(-2 * r) / 2, math.exp(2 * r) / 2])
        assert_close_matrices(ms.cov, expected, 1e-10, "squeezed cov")


class TestFanoFactor:
    def test_coherent_state_is_poissonian(self):
        rho = DensityMatrix.coherent(30, math.sqrt(2.0))
        assert abs(fano_factor(rho.mat) - 1.0) < 1e-3

    def test_fock_state_has_zero_variance(self):
        assert fano_factor(DensityMatrix.fock(10, 2).mat) == 0.0

    def test_thermal_state_is_super_poissonian(self):
        # variance nbar(nbar+1) over mean nbar gives F = nbar + 1
        assert abs(fano_factor(DensityMatrix.thermal(30, 1.0).mat) - 2.0) < 1e-3

    def test_vacuum_is_undefined(self):
        assert math.isnan(fano_factor(DensityMatrix.vacuum(5).mat))

    def test_unresolved_mean_is_undefined(self):
        """At <n> <= 1e-12 the variance over the mean is a ratio of rounding
        errors, not a property of the state."""
        rho = np.diag([1.0, 0.0, 1e-20, 0.0]).astype(complex)
        assert math.isnan(fano_factor(rho))  # the ratio would read 2.0
        rho[2, 2] = 1e-10
        assert fano_factor(rho) == pytest.approx(2.0, rel=1e-9)

    def test_mixtures_of_coherent_states_never_sub_poissonian(self):
        rng = np.random.default_rng(22)
        dim = 30
        for _ in range(25):
            m = rng.integers(2, 4)
            w = rng.random(m)
            w /= w.sum()
            rho = np.zeros((dim, dim), dtype=complex)
            for j in range(m):
                amp = (rng.random() * 1.6 + 0.2) * np.exp(
                    2j * np.pi * rng.random()
                )
                rho += w[j] * DensityMatrix.coherent(dim, amp).mat
            assert fano_factor(DensityMatrix(rho).mat) >= 1.0 - 1e-6


class TestG2:
    def test_coherent_steady_state_is_flat_at_one(self):
        model, reg = driven_cavity(25, eps=0.5, gamma=1.0)
        liou = build_liouvillian(model)
        rho_ss = steady_state(liou)
        taus = list(np.linspace(0.0, 4.0, 9))
        vals = g2(liou, rho_ss, taus, reg.dims)
        assert all(abs(v - 1.0) < 1e-3 for v in vals)
        assert all(v >= 0.0 for v in vals)

    def test_single_photon_cannot_pair(self):
        model, reg = driven_cavity(10, eps=0.0, gamma=1.0)
        vals = g2(build_liouvillian(model), DensityMatrix.fock(10, 1),
                  [0.0, 0.3], reg.dims)
        assert abs(vals[0]) < 1e-12

    def test_undefined_at_zero_mean_photon_number(self):
        model, reg = driven_cavity(10, eps=0.0, gamma=1.0)
        with pytest.raises(PhysicsValidationError, match="zero mean"):
            g2(build_liouvillian(model), DensityMatrix.vacuum(10),
               [0.0, 0.5], reg.dims)

    def test_delay_grid_must_start_at_zero(self):
        """g2(0) is read at the grid's first point, so a grid that starts
        later is rejected, as ``integrate`` rejects it."""
        model, reg = driven_cavity(10, eps=0.0, gamma=1.0)
        with pytest.raises(ValueError, match="start at 0"):
            g2(build_liouvillian(model), DensityMatrix.fock(10, 1),
               [0.5, 1.0], reg.dims)

    def test_thermal_bunching_at_zero_delay(self):
        """g2(0) = <ad ad a a>/<n>^2 = 2 for thermal light."""
        dim = 30
        reg = ModeRegistry((("a", dim),))
        a = OperatorExpr.annihilation(reg, "a")
        nbar = 0.8
        model = EffectiveModel(
            H_eff=OperatorExpr.zero(reg),
            channels=(
                DissipationChannel(op=a, rate_prefactor=nbar + 1.0),
                DissipationChannel(op=a.adjoint(), rate_prefactor=nbar),
            ),
            registry=reg,
        )
        liou = build_liouvillian(model)
        rho_ss = steady_state(liou)
        vals = g2(liou, rho_ss, [0.0, 2.0], reg.dims)
        assert abs(vals[0] - 2.0) < 1e-6
        # correlations decay towards the coherent plateau at long delay
        assert vals[1] < vals[0]

    def test_rejects_multimode_models(self):
        reg = ModeRegistry((("a", 4), ("b", 4)))
        a = OperatorExpr.annihilation(reg, "a")
        model = EffectiveModel(
            H_eff=OperatorExpr.zero(reg),
            channels=(DissipationChannel(op=a, rate_prefactor=1.0),),
            registry=reg,
        )
        rho = DensityMatrix(np.kron(
            DensityMatrix.fock(4, 1).mat, DensityMatrix.vacuum(4).mat
        ))
        with pytest.raises(PhysicsValidationError, match="single-mode"):
            g2(build_liouvillian(model), rho, [0.0, 1.0], reg.dims)


class TestGaussianReference:
    def test_squeezed_vacuum_is_a_fixed_point(self):
        r, d = 0.3, 30
        S = _squeeze(d, r)
        rho = DensityMatrix(S @ DensityMatrix.vacuum(d).mat @ S.conj().T)
        sigma = gaussian_reference(rho.mat)
        assert trace_distance(sigma.mat, rho.mat) < 1e-6

    def test_vacuum_is_a_fixed_point(self):
        sigma = gaussian_reference(DensityMatrix.vacuum(12).mat)
        assert trace_distance(sigma.mat, DensityMatrix.vacuum(12).mat) < 1e-9

    def test_fock_one_maps_to_unit_thermal(self):
        d = 30
        sigma = gaussian_reference(DensityMatrix.fock(d, 1).mat)
        ms = moments(sigma.mat)
        assert_close_matrices(ms.cov, 1.5 * np.eye(2), 1e-6, "thermal cov")
        # diagonal thermal profile p_n ~ (nbar/(nbar+1))^n with nbar = 1
        pops = np.diag(sigma.mat).real
        q = 0.5 ** np.arange(d)
        q /= q.sum()
        assert np.max(np.abs(pops - q)) < 1e-6

    def test_reports_unrepresentable_moments(self):
        # a hot thermal state cannot be rebuilt faithfully at tiny truncation
        with pytest.raises(PhysicsValidationError, match="self-check"):
            gaussian_reference(DensityMatrix.thermal(6, 2.0).mat)


class TestNonGaussianity:
    def test_gaussian_states_score_zero(self):
        for rho in (
            DensityMatrix.vacuum(20),
            DensityMatrix.coherent(30, 0.9),
            DensityMatrix.thermal(40, 0.7),
        ):
            assert non_gaussianity(rho.mat) < 1e-6

    def test_fock_one_matches_direct_evaluation(self):
        """Reference for |1><1| is the unit-mean thermal state; the measure
        is recomputed here with raw matrix arithmetic."""
        d = 30
        val = non_gaussianity(DensityMatrix.fock(d, 1).mat)
        q = 0.5 ** np.arange(d)
        q /= q.sum()
        rho = np.zeros((d, d))
        rho[1, 1] = 1.0
        sigma = np.diag(q)
        diff = rho - sigma
        oracle = 0.5 * np.trace(diff @ diff).real / np.trace(rho @ rho).real
        assert abs(val - oracle) < 1e-9
        assert abs(val - 5.0 / 12.0) < 1e-6

    def test_reference_outputs_score_zero(self):
        for rho in (
            DensityMatrix.fock(30, 1),
            DensityMatrix(
                0.6 * DensityMatrix.vacuum(30).mat
                + 0.4 * DensityMatrix.fock(30, 2).mat
            ),
        ):
            sigma = gaussian_reference(rho.mat)
            assert non_gaussianity(sigma.mat) < 1e-6

    def test_displacement_leaves_measure_unchanged(self):
        d = 40
        rho = DensityMatrix(
            0.6 * DensityMatrix.vacuum(d).mat
            + 0.4 * DensityMatrix.fock(d, 1).mat
        )
        D = _displacement(d, 0.3 + 0.2j)
        shifted = DensityMatrix(D @ rho.mat @ D.conj().T)
        assert abs(non_gaussianity(rho.mat) - non_gaussianity(shifted.mat)) < 1e-8

    def test_single_mode_bound_on_random_states(self):
        rng = np.random.default_rng(21)
        d = 30
        for _ in range(40):
            psi = (rng.normal(size=d) + 1j * rng.normal(size=d)) * np.exp(
                -1.0 * np.arange(d)
            )
            psi /= np.linalg.norm(psi)
            val = non_gaussianity(DensityMatrix(np.outer(psi, psi.conj())).mat)
            assert 0.0 <= val <= 0.5 + 1e-6
