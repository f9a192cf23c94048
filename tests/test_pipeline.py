"""The paper's loop templates: which model a netlist builds, and the
messages of the template checks of the coefficient tasks and of the Sec. 5
synthesis."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

from slhnet.algebra import OperatorExpr
from slhnet.cli import main
from slhnet.lindblad import PhysicsValidationError
from slhnet.netlist import parse
from slhnet.network import DissipationChannel, high_gain_limit
from slhnet.pipeline import build_model, loop_spec, run

NETLIST_DIR = Path(__file__).resolve().parent.parent / "netlists"
KERR = (NETLIST_DIR / "kerr_sec4.net").read_text()
CROSS_KERR = (NETLIST_DIR / "cross_kerr_sec4.net").read_text()
QUARTIC = (NETLIST_DIR / "quartic_sec5.net").read_text()
TWO_PI = 2.0 * math.pi

QUARTIC_COEFFS = QUARTIC.replace("run.task = nongauss",
                                 "run.task = quartic-coeffs")
# loop q3 couples downstream at 1.1 MHz_over_2pi, the others at 1.0
Q3_FASTER = "loop.q3.L     = sqrt(1.1 MHz_over_2pi)"
Q3_L = "loop.q3.L     = sqrt(1.0 MHz_over_2pi)"
DRIVE_LINES = ("drive.A   = sqrt(200 MHz_over_2pi)\n"
               "drive.phi = -0.5 * pi\n")


def without(text: str, prefix: str) -> str:
    """``text`` without the lines that start with ``prefix``."""
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if not ln.startswith(prefix))


def replaced(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new)


class TestKerrTemplates:
    def test_second_loop_is_rejected(self):
        text = KERR + ("loop.j.theta = 0\nloop.j.L = ad@a * a@a\n"
                       "loop.j.L_f = ad@a * a@a\nloop.j.G0 = 4\n")
        with pytest.raises(PhysicsValidationError,
                           match=r"kerr-coeffs needs exactly one loop "
                                 r"\(netlist declares 2\)"):
            run(parse(text))

    def test_three_modes_are_rejected(self):
        text = replaced(KERR, "mode.a = 30\n", "mode.a = 30\nmode.b = 4\n"
                        "mode.c = 4\n")
        with pytest.raises(PhysicsValidationError,
                           match="kerr-coeffs needs a single plant mode"):
            run(parse(text))

    def test_self_kerr_upstream_off_template(self):
        text = replaced(KERR, "loop.k.L_f = sqrt(1.0 MHz_over_2pi) * ad@a * a@a",
                        "loop.k.L_f = sqrt(1.0 MHz_over_2pi) * (a@a + ad@a)")
        with pytest.raises(PhysicsValidationError,
                           match=r"loop 'k' \(line \d+\): kerr-coeffs expects "
                                 r"L and L_f proportional to ad@m \* a@m"):
            run(parse(text))

    def test_negative_coupling_is_off_template(self):
        """The template's coupling is a real, non-negative sqrt(rate)."""
        text = replaced(KERR, "loop.k.L   = sqrt(1.0 MHz_over_2pi)",
                        "loop.k.L   = -sqrt(1.0 MHz_over_2pi)")
        with pytest.raises(PhysicsValidationError, match="kerr-coeffs expects"):
            run(parse(text))

    def test_cross_kerr_upstream_on_the_same_mode(self):
        text = replaced(CROSS_KERR,
                        "loop.x.L_f = sqrt(1.0 MHz_over_2pi) * ad@b * a@b",
                        "loop.x.L_f = sqrt(1.0 MHz_over_2pi) * ad@a * a@a")
        with pytest.raises(PhysicsValidationError,
                           match=r"loop 'x' \(line \d+\): cross-Kerr expects "
                                 "L and L_f proportional to the number "
                                 "operators of the two distinct modes"):
            run(parse(text))

    def test_cross_kerr_without_a_loop(self):
        with pytest.raises(PhysicsValidationError,
                           match="cross-Kerr extraction needs one loop and "
                                 "exactly two modes"):
            run(parse(without(CROSS_KERR, "loop.")))

    def test_cross_kerr_reads_either_orientation(self):
        """L on b and L_f on a is the same template with the modes swapped."""
        text = replaced(CROSS_KERR, "loop.x.L   = sqrt(1.0 MHz_over_2pi) * ad@a"
                        " * a@a", "loop.x.L   = sqrt(4.0 MHz_over_2pi) * ad@b"
                        " * a@b")
        text = replaced(text, "loop.x.L_f = sqrt(1.0 MHz_over_2pi) * ad@b * a@b",
                        "loop.x.L_f = sqrt(1.0 MHz_over_2pi) * ad@a * a@a")
        res = run(parse(text)).results
        assert res["gamma_a_rad_us"] == pytest.approx(4.0 * TWO_PI, rel=1e-12)
        assert res["gamma_b_rad_us"] == pytest.approx(TWO_PI, rel=1e-12)
        assert res["chi_cross_MHz"] == pytest.approx(40.0, rel=1e-12)


class TestQuarticTemplate:
    @pytest.mark.parametrize("old,new,message", [
        (Q3_L, Q3_FASTER,
         r"loop 'q3' \(line \d+\): downstream rate 6\.91\d* differs from the "
         r"first loop's 6\.28\d*"),
        ("loop.q2.L_f   = sqrt(1.0 MHz_over_2pi) * ad@a^2",
         "loop.q2.L_f   = sqrt(1.0 MHz_over_2pi) * ad@a * a@a",
         r"loop 'q2' \(line \d+\): duplicate upstream coupling type 'n'"),
        ("loop.q2.L_f   = sqrt(1.0 MHz_over_2pi) * ad@a^2",
         "loop.q2.L_f   = sqrt(1.0 MHz_over_2pi) * a@a^2",
         r"loop 'q2' \(line \d+\): upstream coupling must be proportional to "
         r"ad\*a, ad\^2, or x"),
        ("loop.q1.L     = sqrt(1.0 MHz_over_2pi) * (sqrt(0.5) * (a@a + ad@a))^2",
         "loop.q1.L     = sqrt(1.0 MHz_over_2pi) * ad@a * a@a",
         r"loop 'q1' \(line \d+\): quartic synthesis expects every downstream "
         r"coupling proportional to x\^2"),
        ("mode.a = 50\n", "mode.a = 50\nmode.b = 4\n",
         "quartic synthesis needs a single mode"),
    ])
    def test_quartic_coeffs_names_the_failed_check(self, old, new, message):
        with pytest.raises(PhysicsValidationError, match=message):
            run(parse(replaced(QUARTIC_COEFFS, old, new)))

    @pytest.mark.parametrize("loop", ["loop.q1.", "loop.q3."])
    def test_quartic_coeffs_needs_the_quartic_and_cubic_loops(self, loop):
        with pytest.raises(PhysicsValidationError,
                           match="quartic synthesis needs at least the ad\\*a "
                                 "and x loops"):
            run(parse(without(QUARTIC_COEFFS, loop)))

    def test_quartic_coeffs_reads_the_shipped_template(self):
        res = run(parse(QUARTIC_COEFFS)).results
        assert res["chi_MHz"] == pytest.approx(
            [20.0, 20.0, 2.0 * math.sqrt(1000.0), 2.0 * math.sqrt(1000.0)],
            rel=1e-9)
        assert res["induced_G2"] == pytest.approx(1000.0, rel=1e-9)

    @pytest.mark.parametrize("text", [QUARTIC, QUARTIC_COEFFS],
                             ids=["nongauss", "quartic-coeffs"])
    def test_mismatched_partner_loop(self, text):
        """Both tasks that read the template check the partner loop."""
        text = replaced(text, "loop.q2.G0    = 1000", "loop.q2.G0    = 900")
        with pytest.raises(PhysicsValidationError,
                           match="declared quadratic-partner loop is "
                                 "mismatched: needs G0 = 1000 and A = "):
            run(parse(text, {"mode.a": 12}))

    def test_optional_partner_loop(self):
        """Without the ad^2 loop the synthesis assumes the matched partner."""
        built = build_model(parse(without(QUARTIC, "loop.q2."),
                                  {"mode.a": 12}))
        assert built.kind == "quartic-synthesis"
        assert built.info["coefficients"]["G2"] == pytest.approx(1000.0)
        assert built.info["extraction"]["loop2_declared"] is None

    @pytest.mark.parametrize("drive", [True, False])
    def test_malformed_quartic_is_exit_three(self, tmp_path, capsys, drive):
        """A netlist with the Sec. 5 signature (every L ~ x^2, the ad*a and x
        loops present) is the quartic template: a downstream rate that
        differs is reported as such, not built as another model."""
        text = replaced(QUARTIC, Q3_L, Q3_FASTER).replace("mode.a = 50",
                                                          "mode.a = 12")
        if not drive:
            text = replaced(text, DRIVE_LINES, "")
        nl = tmp_path / "in.net"
        nl.write_text(text)
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert re.search(r"physics validation error: loop 'q3' \(line \d+\): "
                         r"downstream rate 6\.91\d* differs", err)


class TestPerLoopHighGain:
    def assert_loop_by_loop(self, net, built):
        assert built.kind == "high-gain"
        zero = OperatorExpr.zero(net.registry)
        h = net.plant_H
        channels = [DissipationChannel(OperatorExpr.annihilation(
            net.registry, label), rate) for label, rate in net.losses]
        for lp in net.loops:
            m = high_gain_limit(loop_spec(lp, zero))
            h = h + m.H_eff
            channels.extend(m.channels)
        assert built.model.H_eff == h
        assert built.model.channels == tuple(channels)
        assert [d["ident"] for d in built.info["loops"]] == [
            lp.ident for lp in net.loops]

    def test_kerr_loop_at_high_gain(self):
        net = parse(replaced(KERR, "run.task = kerr-coeffs",
                             "run.task = steady\nrun.high_gain = true"),
                    {"mode.a": 8})
        self.assert_loop_by_loop(net, build_model(net))

    @pytest.mark.parametrize("edit", [
        # q1 no longer couples downstream through x^2
        lambda t: replaced(t, "loop.q1.L     = sqrt(1.0 MHz_over_2pi) * "
                           "(sqrt(0.5) * (a@a + ad@a))^2",
                           "loop.q1.L     = sqrt(1.0 MHz_over_2pi) * a@a"),
        # no cubic (x) loop
        lambda t: without(t, "loop.q3."),
    ])
    def test_loops_without_the_quartic_signature(self, edit):
        """Without the Sec. 5 signature, high gain reduces loop by loop."""
        net = parse(edit(replaced(QUARTIC, DRIVE_LINES, "")), {"mode.a": 12})
        self.assert_loop_by_loop(net, build_model(net))

    def test_model_info_records_the_declared_gain(self):
        """A G0 loop records the G0 it declares, not the one its pump
        parameters realize to rounding (99.99999999999997)."""
        net = parse(replaced(KERR, "run.task = kerr-coeffs",
                             "run.task = steady"))
        assert build_model(net).info["loops"][0]["G0"] == 100.0

    def test_quartic_loops_at_finite_gain_are_eliminated(self):
        net = parse(replaced(QUARTIC, DRIVE_LINES, "").replace(
            "run.high_gain = true", "run.high_gain = false"), {"mode.a": 12})
        built = build_model(net)
        assert built.kind == "eliminated"
        assert len(built.info["loops"]) == 3
