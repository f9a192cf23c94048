"""Command-line driver: artifacts, determinism, unit identities, exit codes,
sweeps, and overrides."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
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
from slhnet.netlist import NetlistParseError, format_netlist, parse
from slhnet.pipeline import build_model

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

SQUEEZED_G2_NET = """
mode.a = 12
plant.H = 0.25 rad_per_us * (ad@a^2 + a@a^2)
bath.loss.a = 2.0 rad_per_us
run.task = g2
run.t_max = 2.0 us
run.n_points = 5
"""

# a weakly driven cavity with a strong Kerr term: photon blockade admits
# one photon at a time (g2(0) = 0.0019)
BLOCKADE_G2_NET = """
mode.a = 8
plant.H = 20.0 rad_per_us * ad@a^2 * a@a^2 + 0.5 rad_per_us * (a@a + ad@a)
bath.loss.a = 1.0 rad_per_us
run.task = g2
run.t_max = 5.0 us
run.n_points = 50
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

# a driven Kerr oscillator whose states stay adequately truncated (Fock
# leak below 1e-19) while the Gaussian reference's moment self-check fails:
# fano reports no delta and must not run that check; nongauss must
KERR_FANO_NET = """
mode.a = 16
plant.H = 5.0 rad_per_us * ad@a^2 * a@a^2 + 1.0 rad_per_us * (a@a + ad@a)
bath.loss.a = 0.5 rad_per_us
run.task = fano
run.t_max = 0.5 us
run.n_points = 21
run.initial_state = coherent:0.5
"""

# a weakly driven lossy Kerr oscillator on a 120-point grid: the Krylov path
# reads most grid points off the basis of a longer step
DRIVEN_G2_NET = """
mode.a = 8
plant.H = 0.2 rad_per_us * ad@a^2 * a@a^2 + 0.6 rad_per_us * (a@a + ad@a)
bath.loss.a = 2.0 rad_per_us
run.task = g2
run.t_max = 3.0 us
run.n_points = 120
"""

# a one-loop netlist at a (kappa, xi) operating point
KX_NET = """
mode.a = 6
loop.p.theta = 0.3
loop.p.L   = a@a
loop.p.L_f = sqrt(0.5) * (a@a + ad@a)
loop.p.kappa = 10.0 rad_per_us
loop.p.xi = 2.0 rad_per_us
run.task = steady
"""

LOSSY_STEADY_NET = """
mode.a = {dim}
bath.loss.a = 1.0 rad_per_us
run.task = steady
"""

# a driven lossy cavity: a coherent steady state with alpha = -2ic
COHERENT_STEADY_NET = """
mode.a = {dim}
plant.H = {c} rad_per_us * (a@a + ad@a)
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
    R = build_liouvillian(build_model(net).model).R
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
    """Run the CLI on ``text``.  The manifest records the netlist that ran
    as canonical text: it parses back to that netlist (``text``, unless an
    override changed it) and formats to itself."""
    nl = write_net(tmp_path, text)
    outdir = tmp_path / sub
    rc = main(["--netlist", str(nl), "--out", str(outdir), *extra])
    assert rc == 0
    resolved = json.loads((outdir / "manifest.json").read_text())["resolved"]
    assert format_netlist(parse(resolved)) == resolved
    if "--truncation-override" not in extra:
        assert parse(resolved) == parse(text)
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
        assert manifest["integrator_stats"]["method"] == "krylov"
        assert (out / "summary.txt").exists()

    def test_table_hash_ties_to_manifest(self, tmp_path, capsys):
        import hashlib

        out = run_cli(tmp_path, EVOLVE_NET)
        capsys.readouterr()
        head = (out / "evolve.csv").read_text().splitlines()[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert head == f"# manifest_hash={manifest['content_hash']}"
        scrubbed = {k: v for k, v in manifest.items()
                    if k not in ("timestamp", "blas_threads", "content_hash")}
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

    def test_fock_initial_state(self, tmp_path, capsys):
        """fock:n starts in |n><n|: <n> = n and Fano = 0 at t = 0, and the
        record names the state, so replaying it runs the same netlist."""
        text = EVOLVE_NET.replace("coherent:0.5", "fock:3").replace(
            "run.task = evolve", "run.task = fano")
        out = run_cli(tmp_path, text, "--format", "json")
        capsys.readouterr()
        payload = json.loads((out / "fano.json").read_text())
        assert payload["columns"] == ["t_us", "fano", "mean_n"]
        assert payload["rows"][0] == [0.0, 0.0, 3.0]
        resolved = json.loads((out / "manifest.json").read_text())["resolved"]
        assert "run.initial_state = fock:3" in resolved.splitlines()

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
        assert stats["method"] == "regression+krylov"
        assert stats["rhs_evaluations"] > 0
        # a driven model's seed a rho_ss ad reaches every coordinate
        assert stats["propagated_dim"] == 14 ** 2
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

    @pytest.mark.parametrize("text,overrides,antibunched", [
        # a two-photon drive on a lossy cavity: squeezed-vacuum bunching,
        # g2 falling from zero delay
        (SQUEEZED_G2_NET, {}, False),
        # the shipped Sec. 5 oscillator: bunched light whose g2 still rises
        # after zero delay
        ((NETLIST_DIR / "quartic_sec5.net").read_text().replace(
            "run.task = nongauss", "run.task = g2"),
         {"mode.a": 16, "run.n_points": 40}, True),
    ], ids=["squeezed", "quartic_sec5"])
    def test_bunched_light_is_not_sub_poissonian(self, text, overrides,
                                                 antibunched):
        """sub_poissonian is g2(0) < 1; antibunched is g2 rising from zero
        delay.  Bunched light is never the first, and may be the second."""
        res = slhnet.pipeline.run(parse(text, overrides)).results
        assert res["g2_0"] > 1.5
        assert res["sub_poissonian"] is False
        assert res["antibunched"] is antibunched

    def test_photon_blockade_is_sub_poissonian_and_antibunched(self):
        res = slhnet.pipeline.run(parse(BLOCKADE_G2_NET)).results
        assert res["g2_0"] < 0.01
        assert res["sub_poissonian"] is True
        assert res["antibunched"] is True

    @pytest.mark.parametrize("text,sub_poissonian", [
        # the blockade cavity at 12 levels, where every check passes (at 8
        # the Gaussian reference's self-check fails): Fano 0.667
        (BLOCKADE_G2_NET.replace("mode.a = 8", "mode.a = 12"), True),
        # squeezed vacuum at 16 levels: bunched, Fano 1.83
        (SQUEEZED_G2_NET.replace("mode.a = 12", "mode.a = 16"), False),
    ], ids=["blockade", "squeezed"])
    def test_steady_sub_poissonian_is_fano_below_one(self, tmp_path, capsys,
                                                     text, sub_poissonian):
        """For one mode Fano = 1 + <n>(g2(0) - 1), so steady's Fano < 1 and
        g2's g2(0) < 1 are the same flag."""
        out = run_cli(tmp_path, text.replace("run.task = g2",
                                             "run.task = steady"))
        assert capsys.readouterr().err == ""
        manifest = json.loads((out / "manifest.json").read_text())
        res = manifest["results"]
        assert manifest["leak_report"]["within_threshold"] is True
        assert res["sub_poissonian"] is sub_poissonian
        assert (res["fano"] < 1.0) is sub_poissonian
        g = slhnet.pipeline.run(parse(text)).results
        assert g["sub_poissonian"] is sub_poissonian
        assert res["fano"] == pytest.approx(
            1.0 + res["mean_n"] * (g["g2_0"] - 1.0), rel=1e-12)

    @pytest.mark.parametrize("dim,c", [(12, 0.5), (10, 0.4)])
    def test_truncated_coherent_state_meets_the_moment_check(self, tmp_path,
                                                             capsys, dim, c):
        """Leaks 1.1e-7 and 3.9e-7 pass the truncation check.  The Gaussian
        reference of the coherent state then misses the uncertainty floor by
        rounding; its 1e-6 moment self-check judges it, and passes.  Its 1 -
        Fano (4.5e-7, 9.4e-7) is inside that resolution: not flagged."""
        out = run_cli(tmp_path, COHERENT_STEADY_NET.format(dim=dim, c=c))
        assert capsys.readouterr().err == ""
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["leak_report"]["within_threshold"] is True
        res = manifest["results"]
        assert res["mean_n"] == pytest.approx(4.0 * c * c, rel=1e-6)
        assert 0.0 < 1.0 - res["fano"] < slhnet.lindblad.LEAK_THRESHOLD
        assert res["sub_poissonian"] is False

    def test_under_truncated_coherent_state_fails_the_moment_check(
            self, tmp_path, capsys):
        """At leak 9.9e-6 the moment self-check fails, and says so."""
        nl = write_net(tmp_path, COHERENT_STEADY_NET.format(dim=10, c=0.5))
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert re.fullmatch(
            r"physics validation error: gaussian reference self-check "
            r"failed: moment deviation 9\.\d\de-06 \(truncation 10 too small "
            r"for these moments\?\)\n", capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dim", [14, 20])
    def test_coherent_light_is_not_sub_poissonian(self, dim):
        """Both tasks flag 1 - Fano only above the leak threshold.  At 14
        levels the truncation leaves Fano - 1 = -4.2e-9; at 20, rounding
        leaves g2(0) - 1 = -6.7e-16."""
        text = COHERENT_STEADY_NET.format(dim=dim, c=0.5)
        assert slhnet.pipeline.run(parse(text)).results[
            "sub_poissonian"] is False
        g = slhnet.pipeline.run(parse(text.replace(
            "run.task = steady",
            "run.task = g2\nrun.t_max = 1 us\nrun.n_points = 3"))).results
        assert g["g2_0"] < 1.0
        assert g["sub_poissonian"] is False

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

    def test_krylov_g2_runs_are_byte_identical(self, tmp_path, capsys):
        out1 = run_cli(tmp_path, DRIVEN_G2_NET, sub="out1")
        out2 = run_cli(tmp_path, DRIVEN_G2_NET, sub="out2")
        capsys.readouterr()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        stats = m1["integrator_stats"]
        assert stats["method"] == "regression+krylov"
        assert stats["steps"] < 119
        assert stats["propagated_dim"] == 8 ** 2
        assert m1["content_hash"] == m2["content_hash"]
        assert ((out1 / "g2.csv").read_bytes()
                == (out2 / "g2.csv").read_bytes())

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

    def test_unit_on_a_pure_number_is_exit_two(self, tmp_path, capsys):
        """A frequency suffix on the in-loop phase is an error, not a factor
        of 2 pi."""
        nl = write_net(tmp_path, KX_NET.replace(
            "loop.p.theta = 0.3", "loop.p.theta = 0.3 MHz_over_2pi"))
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ("line 3, col 20: unit suffix 'MHz_over_2pi' on a pure number "
                "(this value takes no unit)\n") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unreadable_netlist_is_exit_two(self, tmp_path, capsys):
        rc = main(["--netlist", str(tmp_path / "missing.net"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "cannot read netlist" in capsys.readouterr().err

    def test_physics_validation_is_exit_three(self, tmp_path, capsys):
        """A run that fails writes nothing, not even its output directory."""
        text = (
            "mode.a = 4\nmode.b = 4\nbath.loss.a = 1.0 rad_per_us\n"
            "run.task = g2\n"
        )
        nl = write_net(tmp_path, text)
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "physics validation error: g2 task supports single-mode "
            "netlists\n")
        assert not (tmp_path / "o").exists()

    def test_fano_skips_the_gaussian_reference(self, tmp_path, capsys):
        """fano reports no delta, so the Gaussian reference's self-check
        cannot stop it; nongauss on the same model still exits 3."""
        out = run_cli(tmp_path, KERR_FANO_NET)
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["leak_report"]["within_threshold"] is True
        assert set(manifest["results"]) == {
            "final_t_us", "final_mean_n", "final_fano"}
        lines = (out / "fano.csv").read_text().strip().splitlines()
        assert lines[1] == "t_us,fano,mean_n"
        assert len(lines) == 2 + 21
        text = KERR_FANO_NET.replace("run.task = fano", "run.task = nongauss")
        nl = write_net(tmp_path, text, name="nongauss.net")
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "ng")])
        assert rc == 3
        assert "moment deviation" in capsys.readouterr().err

    def test_numerical_failure_is_exit_four(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalFailure("steady-state candidate has vanishing trace")

        monkeypatch.setattr(slhnet.pipeline, "steady_state", fail)
        nl = write_net(tmp_path, LOSSY_STEADY_NET.format(dim=10))
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        # the vacuum's <n> is rounding noise (1.2e-20 at 50 levels, < 0 at
        # 121), so its Fano is undefined: not sub-Poissonian
        assert math.isnan(manifest["results"]["fano"])
        assert manifest["results"]["sub_poissonian"] is False
        assert manifest["integrator_stats"]["method"] == "sparse-shift-invert"
        assert manifest["leak_report"]["within_threshold"] is True
        assert "warning" not in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("dim", [50, 121])
    def test_g2_of_the_vacuum_is_undefined(self, tmp_path, capsys, dim):
        """The lossy cavity's vacuum has a rounding-noise <n> (1.2e-20 at 50
        levels, < 0 at 121): g2 has no seed to renormalize."""
        nl = write_net(tmp_path, LOSSY_STEADY_NET.format(dim=dim).replace(
            "run.task = steady", "run.task = g2"))
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert ("g2 undefined at zero mean photon number"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

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
        resolved = parse(manifest["resolved"])
        assert resolved.registry.dims == (14,)
        assert resolved == parse(EVOLVE_NET, {"mode.a": 14})

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
            resolved = parse(manifest["resolved"])
            assert resolved.losses == (("a", rate),)
            assert resolved == parse(EVOLVE_NET, {"bath.loss.a": rate})
            assert (outdir / name / "evolve.csv").exists()

    def test_g0_sweep_point_records_the_declared_gain(self, tmp_path,
                                                      capsys):
        """A G0 loop is recorded with the G0 it ran at, exactly, and with no
        kappa or xi: replaying the record runs the same point."""
        outdir = tmp_path / "sweep"
        text = (NETLIST_DIR / "kerr_sec4.net").read_text()
        rc = main(["--netlist", str(NETLIST_DIR / "kerr_sec4.net"),
                   "--out", str(outdir), "--sweep", "loop.k.G0=50:100:2"])
        capsys.readouterr()
        assert rc == 0
        for g0 in (50.0, 100.0):
            manifest = json.loads(
                (outdir / f"loop_k_G0={g0:g}" / "manifest.json").read_text())
            resolved = manifest["resolved"]
            loop_lines = [ln for ln in resolved.splitlines()
                          if ln.startswith("loop.k.")]
            assert f"loop.k.G0 = {g0!r}" in loop_lines
            assert not [ln for ln in loop_lines
                        if ln.startswith(("loop.k.kappa", "loop.k.xi"))]
            assert parse(resolved) == parse(text, {"loop.k.G0": g0})
            assert format_netlist(parse(resolved)) == resolved
            assert manifest["results"]["G0"] == g0

    def test_sweep_values_sharing_a_directory_are_exit_three(self, tmp_path,
                                                             capsys):
        """Directory names keep 9 significant digits: values that agree to
        them would overwrite each other, so none runs."""
        outdir = tmp_path / "sweep"
        rc = main(["--netlist", str(NETLIST_DIR / "kerr_sec4.net"),
                   "--out", str(outdir),
                   "--sweep", "loop.k.theta=1:1.0000000001:3"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == (
            "physics validation error: --sweep values 1.0 and 1.00000000005 "
            "share the output directory loop_k_theta=1 (names keep 9 "
            "significant digits)\n")
        assert not outdir.exists()

    def test_override_rejects_unknown_key(self):
        with pytest.raises(NetlistParseError, match="unknown key 'drive.B'"):
            parse(EVOLVE_NET, {"drive.B": 1.0})
        with pytest.raises(NetlistParseError,
                           match="operator expression, found a number"):
            parse(EVOLVE_NET, {"plant.H": 1.0})

    @pytest.mark.parametrize("key,value,bound", [
        ("run.t_max", 0.0, "be positive"),
        ("run.t_max", -0.5, "be positive"),
        ("run.t_max", math.nan, "finite value"),
        ("bath.loss.a", -1.0, "non-negative value"),
        ("bath.loss.b", 1.0, "unknown mode label 'b'"),
        ("loop.p.phi", 3.2, r"lie in \[-pi, pi\]"),
        ("loop.p.phi", -3.2, r"lie in \[-pi, pi\]"),
        ("loop.p.A", -0.1, "non-negative value"),
        ("drive.A", -0.1, "non-negative value"),
    ])
    def test_override_keeps_the_parser_bounds(self, key, value, bound):
        """A swept value is held to the bound the parser puts on its key."""
        with pytest.raises(NetlistParseError, match=bound):
            parse(PUMPED_NET, {key: value})

    @pytest.mark.parametrize("key,value,check", [
        ("mode.a", 4.5, "truncation must be an integer"),
        ("mode.a", 1, "truncation must be >= 2"),
        ("run.n_points", 2.5, "n_points must be an integer"),
        ("run.initial_state", 0.0, "unknown initial_state"),
        ("run.task", 1.0, "unknown task"),
        ("loop.p.L_f", 0.5, "operator expression, found a number"),
        ("loop.p.G0", 0.5, "G0 must be >= 1"),
        ("loop.p.theta", math.inf, "finite value"),
        ("loop.p.kappa", 10.0, "exactly one of"),
        ("loop.q.G0", 2.0, "loop 'q' missing field"),
    ])
    def test_override_meets_the_checks_of_a_written_value(self, key, value,
                                                           check):
        with pytest.raises(NetlistParseError, match=check):
            parse(PUMPED_NET, {key: value})

    def test_override_accepts_the_bounds_themselves(self):
        net = parse(PUMPED_NET, {"loop.p.phi": math.pi})
        assert net.loops[0].phi == math.pi
        assert parse(PUMPED_NET, {"bath.loss.a": 0.0}).losses == (("a", 0.0),)

    def test_override_replaces_or_adds_the_key(self):
        """An override parses as the same value written in the netlist."""
        written = EVOLVE_NET.replace("0.5 us", "0.25 us").replace(
            "mode.a = 10", "mode.a = 6") + "drive.A = 0.2\ndrive.phi = 0.5\n"
        assert parse(EVOLVE_NET, {"run.t_max": 0.25, "mode.a": 6,
                                  "drive.A": 0.2, "drive.phi": 0.5}
                     ) == parse(written)

    def test_g0_override_replaces_the_operating_point(self):
        """Overriding G0 drops the loop's kappa and xi: the result equals
        the same loop written with that G0 (and the default kappa)."""
        written = KX_NET.replace("loop.p.kappa = 10.0 rad_per_us\n", "").replace(
            "loop.p.xi = 2.0 rad_per_us\n", "loop.p.G0 = 2.0\n")
        net = parse(KX_NET, {"loop.p.G0": 2.0})
        assert net == parse(written)
        assert net.loops[0].amp.declared_G0 == 2.0
        assert net.loops[0].amp.kappa == 1.0
        assert net.loops[0].amp.G0 == pytest.approx(2.0, rel=1e-12)

    def test_truncation_override_below_the_fock_level_is_exit_three(
            self, tmp_path, capsys):
        text = EVOLVE_NET.replace("coherent:0.5", "fock:5")
        nl = write_net(tmp_path, text)
        rc = main(["--netlist", str(nl), "--out", str(tmp_path / "o"),
                   "--truncation-override", "4"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("physics validation error: mode.a = 4: ")
        assert "fock level 5 outside first-mode truncation 4" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sweep", ["run.t_max=0:1:2",
                                       "bath.loss.a=-1:0:2",
                                       "loop.p.phi=0:4:2"])
    def test_out_of_bounds_sweep_is_exit_three(self, tmp_path, capsys, sweep):
        """Rejected before any point runs: no subdirectory, no traceback."""
        nl = write_net(tmp_path, PUMPED_NET)
        outdir = tmp_path / "sweep"
        rc = main(["--netlist", str(nl), "--out", str(outdir),
                   "--sweep", sweep])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("physics validation error: ")
        assert not outdir.exists()


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

    @pytest.mark.parametrize("task", ["nongauss", "quartic-coeffs"])
    def test_quartic_drive_must_sit_on_position_quadrature(self, task):
        """The coefficient task checks the template as the model task does."""
        text = (NETLIST_DIR / "quartic_sec5.net").read_text().replace(
            "run.task = nongauss", f"run.task = {task}")
        bad = parse(text, {"drive.phi": 0.0, "mode.a": 12})
        with pytest.raises(PhysicsValidationError, match="phi = -pi/2"):
            slhnet.pipeline.run(bad)

    def test_direct_drive_requires_quartic_template(self):
        text = PUMPED_NET + "drive.A = 1.0\ndrive.phi = 0.0\n"
        with pytest.raises(PhysicsValidationError, match="drive"):
            build_model(parse(text))

    def test_closed_system_has_no_channels(self):
        net = parse("mode.a = 6\nplant.H = 1.0 rad_per_us * ad@a * a@a\n")
        built = build_model(net)
        assert built.kind == "closed"
        assert built.model.channels == ()


class TestImportCost:
    def test_cli_import_skips_ode_and_optimization_modules(self):
        """Every run pays the import of ``slhnet.cli`` before it parses its
        netlist; ``scipy.integrate``, ``scipy.optimize`` and
        ``scipy.sparse.csgraph`` are not needed by any task and must not be
        part of it, and ``scipy.special`` loads only when the Chebyshev
        path plans its expansion."""
        src = str(Path(slhnet.lindblad.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys, slhnet.cli; print(' '.join(sorted(m for m in "
                "('scipy.integrate', 'scipy.optimize', 'scipy.special', "
                "'scipy.sparse.csgraph') if m in sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == ""
