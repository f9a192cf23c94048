"""Netlist text format: grammar, diagnostics, unit handling, and the
canonical-formatter round trip."""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import given, settings

from slhnet.algebra import ModeRegistry, OperatorExpr
from slhnet.netlist import (
    Netlist,
    NetlistParseError,
    StateSpec,
    Task,
    format_netlist,
    format_operator,
    parse,
)

from .conftest import operator_exprs

NETLIST_DIR = Path(__file__).resolve().parent.parent / "netlists"

KERR_TEXT = """
# single self-Kerr loop
mode.a = 12

loop.k.theta = 0.5 * pi
loop.k.L     = sqrt(1.0 MHz_over_2pi) * ad@a * a@a
loop.k.L_f   = sqrt(1.0 MHz_over_2pi) * ad@a * a@a
loop.k.G0    = 100.0
loop.k.A     = sqrt(576.0 MHz_over_2pi)
loop.k.phi   = 0.0

run.task = kerr-coeffs
"""


def diagnostics_of(text: str):
    with pytest.raises(NetlistParseError) as exc:
        parse(text)
    return exc.value.diagnostics


class TestParsing:
    def test_single_loop_kerr_netlist(self):
        net = parse(KERR_TEXT)
        assert net.registry.labels == ("a",)
        assert net.registry.dims == (12,)
        assert len(net.loops) == 1
        loop = net.loops[0]
        assert loop.theta == pytest.approx(math.pi / 2)
        assert loop.amp.G0 == pytest.approx(100.0)
        assert loop.A == pytest.approx(math.sqrt(576.0 * 2 * math.pi))
        reg = net.registry
        a = OperatorExpr.annihilation(reg, "a")
        want = math.sqrt(2 * math.pi) * a.adjoint() * a
        assert (loop.L - want).max_coeff() < 1e-12
        assert loop.L == loop.L_f
        assert net.run.task is Task.KERR_COEFFS

    def test_plant_only_closed_system(self):
        net = parse("mode.a = 8\nplant.H = 2.0 rad_per_us * ad@a * a@a\n")
        assert net.loops == ()
        assert net.losses == ()
        assert not net.has_drive
        assert net.run.task is Task.EVOLVE

    def test_frequency_unit_conversion(self):
        net = parse("mode.a = 4\nplant.H = 1.0 MHz_over_2pi * ad@a * a@a\n")
        reg = net.registry
        n = OperatorExpr.number(reg, "a")
        assert (net.plant_H - 2 * math.pi * n).max_coeff() < 1e-12

    def test_time_unit_conversion(self):
        net = parse("mode.a = 4\nrun.t_max = 60 ns\n")
        assert net.run.t_max == pytest.approx(0.06)

    def test_pi_constant_in_scalars(self):
        net = parse(
            "mode.a = 4\nloop.q.theta = -0.5 * pi\nloop.q.L = a@a\n"
            "loop.q.L_f = a@a\nloop.q.G0 = 4.0\n"
        )
        assert net.loops[0].theta == pytest.approx(-math.pi / 2)

    def test_initial_state_forms(self):
        net = parse("mode.a = 8\nrun.initial_state = fock:3\n")
        assert net.run.initial_state == StateSpec("fock", n=3)
        net = parse("mode.a = 8\nrun.initial_state = coherent:0.5+0.25j\n")
        st = net.run.initial_state
        assert st.kind == "coherent"
        assert st.alpha == pytest.approx(0.5 + 0.25j)


class TestDiagnostics:
    def test_malformed_operator_names_position(self):
        text = "mode.a = 4\nplant.H = a@a + *\n"
        diags = diagnostics_of(text)
        assert len(diags) == 1
        assert diags[0].line == 2
        assert "unexpected token '*'" in diags[0].message
        assert diags[0].col == 17

    def test_unknown_mode_label_in_operator(self):
        diags = diagnostics_of("mode.a = 4\nplant.H = ad@b * a@b\n")
        assert any("unknown mode label 'b'" in d.message for d in diags)

    def test_missing_unit_suffix(self):
        diags = diagnostics_of(
            "mode.a = 4\nloop.q.theta = 0.0\nloop.q.L = a@a\n"
            "loop.q.L_f = a@a\nloop.q.kappa = 10.0\nloop.q.xi = 1.0\n"
        )
        assert any("unit suffix missing" in d.message for d in diags)

    def test_unknown_unit_suffix(self):
        diags = diagnostics_of("mode.a = 4\nbath.loss.a = 1.0 GHz\n")
        assert any("unknown unit suffix 'GHz'" in d.message for d in diags)

    def test_duplicate_key_reports_first_line(self):
        diags = diagnostics_of(
            "mode.a = 4\nplant.H = a@a\nplant.H = ad@a\n"
        )
        assert len(diags) == 1
        assert diags[0].line == 3
        assert "duplicate key" in diags[0].message
        assert "line 2" in diags[0].message

    def test_gain_point_must_be_exclusive(self):
        diags = diagnostics_of(
            "mode.a = 4\nloop.q.theta = 0.0\nloop.q.L = a@a\n"
            "loop.q.L_f = a@a\nloop.q.kappa = 10.0 rad_per_us\n"
            "loop.q.xi = 1.0 rad_per_us\nloop.q.G0 = 100.0\n"
        )
        assert any("exactly one of" in d.message for d in diags)

    def test_gain_point_required(self):
        diags = diagnostics_of(
            "mode.a = 4\nloop.q.theta = 0.0\nloop.q.L = a@a\n"
            "loop.q.L_f = a@a\n"
        )
        assert any("exactly one of" in d.message for d in diags)

    def test_kappa_needs_xi(self):
        diags = diagnostics_of(
            "mode.a = 4\nloop.q.theta = 0.0\nloop.q.L = a@a\n"
            "loop.q.L_f = a@a\nloop.q.kappa = 10.0 rad_per_us\n"
        )
        assert any("both kappa and xi" in d.message for d in diags)

    def test_amplifier_stability_guard_surfaces(self):
        diags = diagnostics_of(
            "mode.a = 4\nloop.q.theta = 0.0\nloop.q.L = a@a\n"
            "loop.q.L_f = a@a\nloop.q.kappa = 1.0 rad_per_us\n"
            "loop.q.xi = 2.0 rad_per_us\n"
        )
        assert any("xi < kappa" in d.message for d in diags)

    def test_drive_phase_range(self):
        diags = diagnostics_of(
            "mode.a = 4\nloop.q.theta = 0.0\nloop.q.L = a@a\n"
            "loop.q.L_f = a@a\nloop.q.G0 = 4.0\nloop.q.phi = 4.0\n"
        )
        assert any("phi must lie" in d.message for d in diags)

    def test_fock_level_outside_truncation(self):
        diags = diagnostics_of("mode.a = 4\nrun.initial_state = fock:7\n")
        assert any("outside first-mode truncation" in d.message
                   for d in diags)

    def test_unknown_task_lists_options(self):
        diags = diagnostics_of("mode.a = 4\nrun.task = wibble\n")
        assert any(
            "unknown task 'wibble'" in d.message and "nongauss" in d.message
            for d in diags
        )

    def test_unknown_run_field(self):
        diags = diagnostics_of("mode.a = 4\nrun.compensate_linear = true\n")
        assert any("unknown run field 'compensate_linear'" in d.message
                   for d in diags)

    def test_no_modes(self):
        diags = diagnostics_of("plant.H = 1.0\n")
        assert any("no modes declared" in d.message for d in diags)

    def test_truncation_validation(self):
        diags = diagnostics_of("mode.a = one\n")
        assert any("truncation must be an integer" in d.message
                   for d in diags)
        diags = diagnostics_of("mode.a = 1\n")
        assert any("truncation must be >= 2" in d.message for d in diags)

    def test_multiple_errors_collected_in_one_pass(self):
        text = (
            "mode.a = 4\n"
            "plant.H = a@zzz\n"
            "bath.loss.a = 3.0\n"
            "run.task = wibble\n"
        )
        diags = diagnostics_of(text)
        assert len(diags) == 3
        assert [d.line for d in diags] == [2, 3, 4]

    def test_line_without_assignment(self):
        diags = diagnostics_of("mode.a = 4\nthis is not a pair\n")
        assert any("expected 'key = value'" in d.message for d in diags)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        ["kerr_sec4.net", "cross_kerr_sec4.net", "quartic_sec5.net",
         "oracle_linear.net"],
    )
    def test_shipped_netlists_round_trip(self, name):
        text = (NETLIST_DIR / name).read_text()
        net = parse(text)
        canon = format_netlist(net)
        net2 = parse(canon)
        assert net2 == net
        assert format_netlist(net2) == canon

    def test_shipped_netlists_declare_expected_tasks(self):
        tasks = {
            "kerr_sec4.net": Task.KERR_COEFFS,
            "cross_kerr_sec4.net": Task.KERR_COEFFS,
            "quartic_sec5.net": Task.NONGAUSS,
            "oracle_linear.net": Task.ORACLE_SWEEP,
        }
        for name, task in tasks.items():
            net = parse((NETLIST_DIR / name).read_text())
            assert net.run.task is task, name

    @settings(max_examples=60, deadline=None)
    @given(operator_exprs(ModeRegistry((("a", 6), ("b", 5))), max_degree=2))
    def test_operator_formatter_round_trips(self, x):
        text = f"mode.a = 6\nmode.b = 5\nplant.H = {format_operator(x)}\n"
        net = parse(text)
        assert net.plant_H == x
