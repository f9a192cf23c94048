"""Command-line driver: artifacts, determinism, unit identities, exit codes,
sweeps, and overrides."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import slhnet.lindblad
import slhnet.pipeline
from slhnet.cli import main
from slhnet.lindblad import (
    NumericalFailure,
    PhysicsValidationError,
    build_liouvillian,
    to_coords,
)
from slhnet.netlist import parse
from slhnet.pipeline import build_model, override_key

NETLIST_DIR = Path(__file__).resolve().parent.parent / "netlists"
TWO_PI = 2.0 * math.pi

EVOLVE_NET = """
mode.a = 10
plant.H = 0.5 rad_per_us * ad@a * a@a
bath.loss.a = 1.0 rad_per_us
run.task = evolve
run.t_max = 0.5 us
run.n_points = 5
run.initial_state = coherent:0.5
"""

PUMPED_NET = """
mode.a = 14
loop.p.theta = pi
loop.p.L   = a@a
loop.p.L_f = sqrt(0.2) * a@a
loop.p.G0  = 2.0
loop.p.A   = 0.4
loop.p.phi = 0.0
run.task = steady
run.t_max = 3.0 us
run.n_points = 7
"""

# a Kerr oscillator whose Hamiltonian spread (110 rad/us at d = 12) exceeds
# the dissipative bound (11 rad/us): ``integrate`` takes the Chebyshev path
KERR_NONGAUSS_NET = """
mode.a = 12
plant.H = 1.0 rad_per_us * ad@a^2 * a@a^2
bath.loss.a = 0.5 rad_per_us
run.task = nongauss
run.t_max = 0.5 us
run.n_points = 6
run.initial_state = coherent:0.5
"""

KERR_G2_NET = """
mode.a = 12
plant.H = 1.0 rad_per_us * ad@a^2 * a@a^2 + 0.5 rad_per_us * (a@a + ad@a)
bath.loss.a = 0.5 rad_per_us
run.task = g2
run.t_max = 2.0 us
run.n_points = 5
"""

# a free mode a beside a driven lossy mode b: the drive fills b's 4 levels,
# so the leak check names b, while a keeps its coherent number statistics
# (<n> = 0.25, Fano = 1)
TWO_MODE_NET = """
mode.a = 10
mode.b = 4
plant.H = 1.0 rad_per_us * ad@a * a@a + 2.0 rad_per_us * (a@b + ad@b)
bath.loss.b = 0.5 rad_per_us
run.task = evolve
run.t_max = 1.0 us
run.n_points = 11
run.initial_state = coherent:0.5
"""

LOSSY_STEADY_NET = """
mode.a = {dim}
bath.loss.a = 1.0 rad_per_us
run.task = steady
"""

# a coherent steady state with |alpha| = 4 cannot fit in 6 Fock levels; g2
# runs no Gaussian-reference check, so only the leak check sees it
UNDER_TRUNCATED_NET = """
mode.a = 6
plant.H = 2.0 rad_per_us * (a@a + ad@a)
bath.loss.a = 1.0 rad_per_us
run.task = g2
run.t_max = 1.0 us
run.n_points = 3
"""


def assert_generator_stats(stats: dict, text: str) -> None:
    """The recorded size of R is that of the run's model, rebuilt."""
    net = parse(text)
    R = build_liouvillian(build_model(net).model, net.registry).R
    assert stats["generator_nnz"] == R.nnz > 0
    n = R.shape[0]
    assert stats["generator_bytes"] == (
        R.data.itemsize * R.nnz + R.indices.itemsize * R.nnz
        + R.indptr.itemsize * (n + 1)
    )


def write_net(tmp_path: Path, text: str, name: str = "in.net") -> Path:
    p = tmp_path / name
    p.write_text(text)
    return p


def run_cli(tmp_path: Path, text: str, *extra: str, sub: str = "out") -> Path:
    nl = write_net(tmp_path, text)
    outdir = tmp_path / sub
    rc = main(["--netlist", str(nl), "--out", str(outdir), *extra])
    assert rc == 0
    return outdir


class TestArtifacts:
    def test_evolve_writes_table_summary_and_manifest(self, tmp_path, capsys):
        out = run_cli(tmp_path, EVOLVE_NET)
        capsys.readouterr()
        csv = (out / "evolve.csv").read_text()
        assert csv.startswith("# manifest_hash=")
        lines = csv.strip().splitlines()
        assert lines[1] == "t_us,mean_n,fano,delta"
        assert len(lines) == 2 + 5
        assert "np.float64" not in csv
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["task"] == "evolve"
        assert manifest["leak_report"]["within_threshold"] is True
        assert manifest["integrator_stats"]["method"] == "RK45"
        assert (out / "summary.txt").exists()

    def test_table_hash_ties_to_manifest(self, tmp_path, capsys):
        import hashlib

        out = run_cli(tmp_path, EVOLVE_NET)
        capsys.readouterr()
        head = (out / "evolve.csv").read_text().splitlines()[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert head == f"# manifest_hash={manifest['content_hash']}"
        scrubbed = {k: v for k, v in manifest.items()
                    if k not in ("timestamp", "content_hash")}
        blob = json.dumps(scrubbed, sort_keys=True, default=str)
        assert manifest["content_hash"] == hashlib.sha256(
            blob.encode()
        ).hexdigest()

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        out1 = run_cli(tmp_path, EVOLVE_NET, sub="out1")
        out2 = run_cli(tmp_path, EVOLVE_NET, sub="out2")
        capsys.readouterr()
        assert (out1 / "evolve.csv").read_bytes() == (
            out2 / "evolve.csv"
        ).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["content_hash"] == m2["content_hash"]

    def test_json_format_maps_nan_to_null(self, tmp_path, capsys):
        # a lossy cavity starting in vacuum keeps zero occupation, so the
        # Fano column is undefined at every point
        text = EVOLVE_NET.replace("coherent:0.5", "vacuum")
        out = run_cli(tmp_path, text, "--format", "json")
        capsys.readouterr()
        payload = json.loads((out / "evolve.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert payload["manifest_hash"] == manifest["content_hash"]
        assert payload["columns"] == ["t_us", "mean_n", "fano", "delta"]
        assert all(row[2] is None for row in payload["rows"])

    def test_steady_task_outputs(self, tmp_path, capsys):
        out = run_cli(tmp_path, PUMPED_NET)
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        res = manifest["results"]
        assert res["mean_n"] > 0.05
        assert res["delta"] < 1e-9  # linear loop: Gaussian steady state
        assert manifest["model_kind"] == "eliminated"
        rows = (out / "steady.csv").read_text().strip().splitlines()
        assert rows[1] == "mean_n,fano,delta,purity"
        stats = manifest["integrator_stats"]
        assert stats["method"] == "sparse-shift-invert"
        assert stats["residual"] < 1e-9
        assert stats["lambda2_abs"] > 0.0
        assert_generator_stats(stats, PUMPED_NET)
        again = run_cli(tmp_path, PUMPED_NET, sub="again")
        capsys.readouterr()
        assert (json.loads((again / "manifest.json").read_text())["content_hash"]
                == manifest["content_hash"])

    def test_g2_task_outputs(self, tmp_path, capsys):
        text = PUMPED_NET.replace("run.task = steady", "run.task = g2")
        out = run_cli(tmp_path, text)
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        res = manifest["results"]
        assert res["g2_0"] > 0
        assert res["steady_mean_n"] > 0.05
        stats = manifest["integrator_stats"]
        assert stats["method"] == "regression+RK45"
        assert stats["rhs_evaluations"] > 0
        assert stats["steady_state"]["method"] == "sparse-shift-invert"
        assert_generator_stats(stats, text)
        assert_generator_stats(stats["steady_state"], text)
        again = run_cli(tmp_path, text, sub="again")
        capsys.readouterr()
        assert (json.loads((again / "manifest.json").read_text())["content_hash"]
                == manifest["content_hash"])
        csv = (out / "g2.csv").read_text().strip().splitlines()
        assert csv[1] == "tau_us,tau_over_taustar,g2"
        # tau normalization column is tau divided by the declared tau_star
        first = csv[2].split(",")
        tau, norm = float(first[0]), float(first[1])
        assert norm == pytest.approx(tau / res["tau_star_us"], abs=1e-12)

    def test_hamiltonian_dominated_g2_reports_chebyshev(self, tmp_path, capsys):
        out = run_cli(tmp_path, KERR_G2_NET)
        capsys.readouterr()
        stats = json.loads((out / "manifest.json").read_text())["integrator_stats"]
        assert stats["method"] == "regression+chebyshev"
        assert stats["hamiltonian_spread"] > stats["dissipative_bound"]
        assert stats["steady_state"]["method"] == "sparse-shift-invert"

    def test_chebyshev_runs_are_byte_identical(self, tmp_path, capsys):
        out1 = run_cli(tmp_path, KERR_NONGAUSS_NET, sub="out1")
        out2 = run_cli(tmp_path, KERR_NONGAUSS_NET, sub="out2")
        capsys.readouterr()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["integrator_stats"]["method"] == "chebyshev"
        assert m1["content_hash"] == m2["content_hash"]
        assert ((out1 / "nongauss.csv").read_bytes()
                == (out2 / "nongauss.csv").read_bytes())

    def test_two_mode_evolve_reduces_each_mode(self, tmp_path, capsys):
        """<n> and Fano describe the first mode; the leak check reads every
        mode and names the worst."""
        out = run_cli(tmp_path, TWO_MODE_NET)
        err = capsys.readouterr().err
        lines = (out / "evolve.csv").read_text().strip().splitlines()
        assert lines[1] == "t_us,mean_n,fano,delta"
        rows = [[float(v) for v in ln.split(",")] for ln in lines[2:]]
        assert len(rows) == 11
        for _, mean_n, fano, _ in rows:
            assert abs(mean_n - 0.25) < 1e-9
            assert abs(fano - 1.0) < 1e-9
        report = json.loads((out / "manifest.json").read_text())["leak_report"]
        assert report["within_threshold"] is False
        assert abs(report["max_leak"] - 0.7529) < 1e-4
        warning = [ln for ln in err.splitlines() if ln.startswith("warning:")]
        assert len(warning) == 1
        assert "mode b (truncation 4)" in warning[0]


class TestUnitIdentities:
    def test_kerr_summary_dual_units_agree(self, tmp_path, capsys):
        nl = NETLIST_DIR / "kerr_sec4.net"
        outdir = tmp_path / "out"
        rc = main(["--netlist", str(nl), "--out", str(outdir)])
        capsys.readouterr()
        assert rc == 0
        pat = re.compile(
            r"^\s+(\w+): (\S+) rad/us = (\S+) MHz_over_2pi$"
        )
        found = 0
        for line in (outdir / "summary.txt").read_text().splitlines():
            m = pat.match(line)
            if not m:
                continue
            found += 1
            rad, mhz = float(m.group(2)), float(m.group(3))
            assert abs(rad - mhz * TWO_PI) <= 1e-12 * max(abs(rad), 1.0)
        assert found >= 4

    def test_kerr_table_dual_unit_columns_agree(self, tmp_path, capsys):
        nl = NETLIST_DIR / "kerr_sec4.net"
        outdir = tmp_path / "out"
        rc = main(["--netlist", str(nl), "--out", str(outdir)])
        capsys.readouterr()
        assert rc == 0
        lines = (outdir / "kerr-coeffs.csv").read_text().strip().splitlines()
        assert lines[1] == "quantity,rad_per_us,MHz_over_2pi"
        table = {}
        for line in lines[2:]:
            name, rad, mhz = line.split(",")
            rad, mhz = float(rad), float(mhz)
            assert abs(rad - mhz * TWO_PI) <= 1e-12 * max(abs(rad), 1.0)
            table[name] = mhz
        assert table["chi"] == pytest.approx(20.0, rel=1e-9)
        assert table["omega_a_minus_delta"] == pytest.approx(20.0, rel=1e-9)


class TestExitCodes:
    def test_parse_error_is_exit_two(self, tmp_path, capsys):
        nl = write_net(tmp_path, "mode.a = 4\nplant.H = a@nope\n")
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown mode label 'nope'" in err
        assert "line 2" in err

    def test_unreadable_netlist_is_exit_two(self, tmp_path, capsys):
        rc = main(["--netlist", str(tmp_path / "missing.net"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "cannot read netlist" in capsys.readouterr().err

    def test_physics_validation_is_exit_three(self, tmp_path, capsys):
        text = (
            "mode.a = 4\nmode.b = 4\nbath.loss.a = 1.0 rad_per_us\n"
            "run.task = g2\n"
        )
        nl = write_net(tmp_path, text)
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "physics validation error" in capsys.readouterr().err

    def test_numerical_failure_is_exit_four(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalFailure("steady-state candidate has vanishing trace")

        monkeypatch.setattr(slhnet.pipeline, "steady_state", fail)
        nl = write_net(tmp_path, LOSSY_STEADY_NET.format(dim=10))
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:steady-state residual")
    def test_negative_steady_population_is_exit_four(self, tmp_path, capsys,
                                                     monkeypatch):
        x = to_coords(np.diag([1.001, 0.0, 0.0, -1e-3]))

        def eigs(*args, **kwargs):
            return np.array([0.0, -1.0]), np.stack([x, 0 * x], axis=1)

        monkeypatch.setattr(slhnet.lindblad.spla, "eigs", eigs)
        nl = write_net(tmp_path, LOSSY_STEADY_NET.format(dim=4))
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert ("numerical failure: negative population -1.000e-03 at "
                "steady state" in capsys.readouterr().err)

    @pytest.mark.parametrize("dim", [50, 121])
    def test_lossy_cavity_steady_state_is_vacuum(self, tmp_path, capsys, dim):
        out = run_cli(tmp_path, LOSSY_STEADY_NET.format(dim=dim))
        assert "warning" not in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["mean_n"] < 1e-9
        assert manifest["integrator_stats"]["method"] == "sparse-shift-invert"
        assert manifest["leak_report"]["within_threshold"] is True
        assert "warning" not in (out / "summary.txt").read_text()

    def test_failed_truncation_check_is_reported(self, tmp_path, capsys):
        """A failed leak check keeps exit 0 and the manifest, and says so on
        stderr and in summary.txt."""
        out = run_cli(tmp_path, UNDER_TRUNCATED_NET)
        err = capsys.readouterr().err
        report = json.loads((out / "manifest.json").read_text())["leak_report"]
        assert report["within_threshold"] is False
        assert set(report) == {"max_leak", "threshold", "within_threshold"}
        warning = [ln for ln in err.splitlines() if ln.startswith("warning:")]
        assert len(warning) == 1
        assert f"Fock leak {report['max_leak']:.3g}" in warning[0]
        assert "threshold 1e-06" in warning[0]
        assert "mode a (truncation 6)" in warning[0]
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[-1] == warning[0]

    def test_bad_truncation_override_is_exit_three(self, tmp_path, capsys):
        nl = write_net(tmp_path, EVOLVE_NET)
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o"),
                   "--truncation-override", "1"])
        assert rc == 3
        capsys.readouterr()

    def test_bad_sweep_syntax_is_exit_three(self, tmp_path, capsys):
        nl = write_net(tmp_path, EVOLVE_NET)
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o"),
                   "--sweep", "bath.loss.a=nonsense"])
        assert rc == 3
        capsys.readouterr()


class TestOverridesAndSweeps:
    def test_truncation_override_recorded(self, tmp_path, capsys):
        out = run_cli(tmp_path, EVOLVE_NET, "--truncation-override", "14")
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved"]["modes"] == [
            {"label": "a", "truncation": 14}
        ]

    def test_sweep_fans_out_subdirectories(self, tmp_path, capsys):
        nl = write_net(tmp_path, EVOLVE_NET)
        outdir = tmp_path / "sweep"
        rc = main(["--netlist", str(nl), "--out", str(outdir),
                   "--sweep", "bath.loss.a=0.5:1.5:2"])
        capsys.readouterr()
        assert rc == 0
        subs = sorted(p.name for p in outdir.iterdir())
        assert subs == ["bath_loss_a=0.5", "bath_loss_a=1.5"]
        for name, rate in (("bath_loss_a=0.5", 0.5), ("bath_loss_a=1.5", 1.5)):
            manifest = json.loads(
                (outdir / name / "manifest.json").read_text()
            )
            assert manifest["resolved"]["losses"] == [
                {"mode": "a", "rate_rad_us": rate}
            ]
            assert (outdir / name / "evolve.csv").exists()

    def test_override_rejects_unknown_key(self):
        net = parse(EVOLVE_NET)
        with pytest.raises(PhysicsValidationError, match="does not support"):
            override_key(net, "plant.H", 1.0)


class TestModelAssembly:
    def test_engineered_quartic_template_recognized(self):
        net = parse((NETLIST_DIR / "quartic_sec5.net").read_text())
        built = build_model(net)
        assert built.kind == "quartic-synthesis"
        chi = built.info["coefficients"]
        assert chi["chi1"] / TWO_PI == pytest.approx(20.0, rel=1e-9)
        assert chi["chi2"] / TWO_PI == pytest.approx(20.0, rel=1e-9)
        assert chi["chi3"] / TWO_PI == pytest.approx(
            2.0 * math.sqrt(1000.0), rel=1e-9
        )
        assert chi["chi4"] / TWO_PI == pytest.approx(
            2.0 * math.sqrt(1000.0), rel=1e-9
        )
        # the quadratic partner loop is induced by the quartic one
        assert chi["G2"] == pytest.approx(1000.0, rel=1e-9)

    def test_quartic_drive_must_sit_on_position_quadrature(self):
        net = parse((NETLIST_DIR / "quartic_sec5.net").read_text())
        bad = override_key(net, "drive.phi", 0.0)
        with pytest.raises(PhysicsValidationError, match="phi = -pi/2"):
            build_model(bad)

    def test_direct_drive_requires_quartic_template(self):
        text = PUMPED_NET + "drive.A = 1.0\ndrive.phi = 0.0\n"
        with pytest.raises(PhysicsValidationError, match="drive"):
            build_model(parse(text))

    def test_closed_system_has_no_channels(self):
        net = parse("mode.a = 6\nplant.H = 1.0 rad_per_us * ad@a * a@a\n")
        built = build_model(net)
        assert built.kind == "closed"
        assert built.model.channels == ()
