"""Co-simulation checks: the full plant-plus-amplifier composite against the
eliminated single-mode model, plus the error-sweep harness around them."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import slhnet.oracle
from slhnet.algebra import ModeRegistry, OperatorExpr
from slhnet.cli import main
from slhnet.lindblad import (
    DensityMatrix,
    NumericalFailure,
    build_liouvillian,
    integrate,
    to_matrix,
    trace_distance,
)
from slhnet.network import (
    AmplifierParams,
    FeedbackLoopSpec,
    eliminate_amplifier,
)
from slhnet.oracle import elimination_error, full_loop_simulate

DIM = 8
REG = ModeRegistry((("a", DIM),))
A_OP = OperatorExpr.annihilation(REG, "a")


def linear_loop(kappa: float) -> FeedbackLoopSpec:
    """Damped linear plant feeding back through its position quadrature,
    with the amplifier held at squeezing parameter r0 = 0.5."""
    return FeedbackLoopSpec(
        plant_H=0.8 * A_OP.adjoint() * A_OP,
        theta=0.3,
        L=A_OP,
        L_f=0.5 * math.sqrt(0.5) * (A_OP + A_OP.adjoint()),
        amp=AmplifierParams(kappa=kappa, xi=kappa * math.tanh(0.25)),
    )


class TestFullLoopSimulate:
    def test_decoupled_limit_is_unitary_plant_evolution(self):
        """With no pump, no drive and no couplings the plant precesses
        freely while the amplifier sits in vacuum."""
        omega, alpha = 0.8, 0.6
        spec = FeedbackLoopSpec(
            plant_H=omega * A_OP.adjoint() * A_OP,
            theta=0.0,
            L=OperatorExpr.zero(REG),
            L_f=OperatorExpr.zero(REG),
            amp=AmplifierParams(kappa=5.0, xi=0.0),
        )
        t_grid = [0.0, 0.7, 1.9]
        red = full_loop_simulate(
            spec, DensityMatrix.coherent(DIM, alpha), t_grid, amp_dim=6
        )
        for t, st in zip(t_grid, red):
            ref = DensityMatrix.coherent(DIM, alpha * np.exp(-1j * omega * t))
            assert trace_distance(st.mat, ref.mat) < 1e-6

    def test_reduced_states_stay_physical(self):
        spec = linear_loop(kappa=10.0)
        red = full_loop_simulate(
            spec, DensityMatrix.coherent(DIM, 0.6), [0.0, 0.5], amp_dim=10
        )
        for st in red:
            assert abs(np.trace(st.mat).real - 1.0) < 1e-9
            assert np.max(np.abs(st.mat - st.mat.conj().T)) < 1e-10

    def test_fast_amplifier_matches_eliminated_mean_occupation(self):
        """At a hundredfold timescale separation the reduced mean photon
        number follows the eliminated model to within five percent."""
        spec = linear_loop(kappa=100.0)
        rho0 = DensityMatrix.coherent(DIM, 0.6)
        t_grid = [0.0, 1.0, 3.0]
        red = full_loop_simulate(spec, rho0, t_grid, amp_dim=10)
        liou = build_liouvillian(eliminate_amplifier(spec))
        ref = integrate(liou, rho0, t_grid)
        nmat = to_matrix(A_OP.adjoint() * A_OP, REG)
        for full_st, red_st in zip(red[1:], ref[1:]):
            n_full = np.trace(nmat @ full_st.mat).real
            n_red = np.trace(nmat @ red_st.mat).real
            assert abs(n_full - n_red) <= 0.05 * max(n_red, 1e-12)


# a one-loop oracle sweep small enough for the CLI (amplifier truncation 20)
ORACLE_NET = (
    "mode.a = 3\nloop.fb.theta = 0.3\n"
    "loop.fb.L = sqrt(1.0 rad_per_us) * a@a\n"
    "loop.fb.L_f = 0.5 * sqrt(0.5 rad_per_us) * (a@a + ad@a)\n"
    "loop.fb.G0 = 2.0\nrun.task = oracle-sweep\n"
)


def distort_reduced_states(monkeypatch, distort) -> None:
    """Apply ``distort`` to every plant-reduced state of the oracle."""
    exact = slhnet.oracle.partial_trace
    monkeypatch.setattr(slhnet.oracle, "partial_trace",
                        lambda *args: distort(exact(*args)))


def skew(red: np.ndarray, size: float) -> np.ndarray:
    """``red`` plus ``size`` above the diagonal: Hermiticity lost by size."""
    return red + size * np.triu(np.ones_like(red), 1)


class TestReducedStateChecks:
    """A reduced composite state that drifts is a numerical failure."""

    @pytest.mark.parametrize("distort,message", [
        (lambda red: (1.0 + 2e-9) * red, "reduced state trace drift 2.00e-09"),
        (lambda red: skew(red, 2e-10),
         "reduced state hermiticity loss 2.00e-10"),
    ])
    def test_drift_beyond_threshold_raises(self, monkeypatch, distort,
                                           message):
        distort_reduced_states(monkeypatch, distort)
        with pytest.raises(NumericalFailure, match=message):
            full_loop_simulate(linear_loop(10.0), DensityMatrix.vacuum(DIM),
                               [0.0, 0.5], amp_dim=4)

    def test_drift_within_threshold_passes(self, monkeypatch):
        distort_reduced_states(
            monkeypatch, lambda red: skew((1.0 + 5e-10) * red, 5e-11))
        states = full_loop_simulate(linear_loop(10.0),
                                    DensityMatrix.vacuum(DIM), [0.0, 0.5],
                                    amp_dim=4)
        assert len(states) == 2

    def test_oracle_sweep_drift_is_exit_four(self, tmp_path, capsys,
                                             monkeypatch):
        distort_reduced_states(monkeypatch, lambda red: 1.01 * red)
        nl = tmp_path / "in.net"
        nl.write_text(ORACLE_NET)
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert ("numerical failure: reduced state trace drift 1.00e-02"
                in capsys.readouterr().err)

    def test_oracle_sweep_records_its_work(self, tmp_path, capsys):
        """The manifest lists the eliminated model's integration and, per
        ratio, the full loop's: method, products, steps, propagated
        coordinates and error estimate."""
        nl = tmp_path / "in.net"
        nl.write_text(ORACLE_NET)
        assert main(["--netlist", str(nl), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        stats = manifest["integrator_stats"]
        fields = {"method", "rhs_evaluations", "steps", "propagated_dim",
                  "error_estimate"}
        assert [r["kappa_over_gamma"] for r in stats["full_loop"]] == [
            10.0, 30.0, 100.0]
        for rec in [stats["eliminated"], *stats["full_loop"]]:
            assert fields <= set(rec)
            assert rec["method"] == "krylov"
            assert rec["rhs_evaluations"] > 0 and rec["steps"] > 0
            assert 0 <= rec["error_estimate"] <= rec["tolerance"]
        assert stats["eliminated"]["propagated_dim"] <= 3 * 3
        # plant 3 x amplifier 20: the composite has at most 60^2 coordinates
        assert all(0 < r["propagated_dim"] <= 60 * 60
                   for r in stats["full_loop"])


class TestEliminationError:
    def test_error_shrinks_with_timescale_separation(self):
        rep = elimination_error(
            linear_loop(10.0), kappa_over_gamma=(10.0, 30.0), amp_dim=10
        )
        assert rep.verdict == "monotone"
        assert rep.distances[1] < rep.distances[0]
        assert all(d > 0 for d in rep.distances)
        assert rep.probe_time == pytest.approx(3.0)

    def test_single_ratio_is_insufficient(self):
        rep = elimination_error(
            linear_loop(10.0), kappa_over_gamma=(10.0,), amp_dim=10
        )
        assert rep.verdict == "insufficient"
        assert len(rep.rows) == 1

    def test_sweep_is_deterministic(self):
        kwargs = dict(kappa_over_gamma=(10.0, 30.0), amp_dim=10)
        r1 = elimination_error(linear_loop(10.0), **kwargs)
        r2 = elimination_error(linear_loop(10.0), **kwargs)
        assert r1.distances == r2.distances
        assert r1.verdict == r2.verdict

    def test_plant_mode_named_like_the_amplifier(self):
        """The amplifier mode takes a label no plant mode uses, so a plant
        mode named c gives the distances of the same loop on a mode a."""
        def distances(label: str) -> tuple[float, ...]:
            reg = ModeRegistry(((label, 4),))
            a = OperatorExpr.annihilation(reg, label)
            spec = FeedbackLoopSpec(
                plant_H=0.8 * a.adjoint() * a, theta=0.3, L=a,
                L_f=0.5 * math.sqrt(0.5) * (a + a.adjoint()),
                amp=AmplifierParams(kappa=10.0, xi=10.0 * math.tanh(0.25)),
            )
            return elimination_error(
                spec, kappa_over_gamma=(10.0, 30.0), amp_dim=5
            ).distances

        on_c = distances("c")
        assert all(d > 0 for d in on_c)
        assert on_c == distances("a")

    def test_rows_record_scaled_linewidths(self):
        """Each row is the full loop at linewidth kappa = ratio * gamma_ref,
        at the same r0, against the eliminated model at 3 / gamma_ref."""
        gamma_ref, t_grid, rho0 = 2.0, [0.0, 1.5], DensityMatrix.vacuum(DIM)
        rep = elimination_error(
            linear_loop(10.0), kappa_over_gamma=(10.0, 30.0),
            gamma_ref=gamma_ref, amp_dim=10,
        )
        assert [r.kappa_over_gamma for r in rep.rows] == [10.0, 30.0]
        model_stats = {}
        model = integrate(build_liouvillian(eliminate_amplifier(
            linear_loop(10.0))), rho0, t_grid, stats=model_stats)[-1]
        assert rep.eliminated_stats == model_stats
        for row in rep.rows:
            full_stats = {}
            full = full_loop_simulate(
                linear_loop(row.kappa_over_gamma * gamma_ref), rho0, t_grid,
                amp_dim=10, stats=full_stats,
            )[-1]
            assert row.trace_distance == pytest.approx(
                trace_distance(full.mat, model.mat), rel=1e-6)
            assert row.integrator_stats == full_stats


class TestFixedSqueezingInvariance:
    def test_eliminated_model_depends_only_on_squeezing_parameter(self):
        """Scaling the amplifier linewidth at fixed r0 must leave every
        coefficient of the eliminated model unchanged."""
        slow = linear_loop(kappa=10.0)
        fast = linear_loop(kappa=100.0)
        assert abs(slow.amp.r0 - fast.amp.r0) < 1e-12
        m_slow = eliminate_amplifier(slow)
        m_fast = eliminate_amplifier(fast)
        assert (m_slow.H_eff - m_fast.H_eff).max_coeff() < 1e-12
        assert len(m_slow.channels) == len(m_fast.channels) == 1
        diff = m_slow.channels[0].op - m_fast.channels[0].op
        assert diff.max_coeff() < 1e-12
