"""Seeded inputs of the three benchmark workloads.

Each workload is a list of operations over netlists generated here from
the workload seed.  The shipped example parameters are jittered within
ranges that keep every workload in its regime (same truncations, same
stiffness to a few percent, same solver branches) and keep every check in
``reference.py`` valid.  The physical parameters behind each netlist are
returned alongside it so the checks can recompute their references
without the package.

Frequencies are in MHz (nu = omega / 2 pi) as written in the netlists;
times in microseconds.  This module imports neither ``slhnet`` nor numpy.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("quartic-transient", "stationary", "oracle-sweep")

# Time step of netlists/quartic_sec5.net: 0.06 us over 400 points.
QUARTIC_DT_US = 0.06 / 399
# 66 shipped steps (0.0099 us) cover the non-Gaussianity peak near 0.005 us.
QUARTIC_STEPS = 66
STEADY_DIMS = (36, 48, 80)  # both sides of lindblad.DENSE_STEADY_DIM = 40
G2_DIM = 30
ORACLE_PLANT_DIM = 8
ORACLE_AMP_DIM = 12
ORACLE_RATIOS = (10.0, 30.0, 100.0)


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * rng.uniform(1.0 - rel, 1.0 + rel)


def quartic_params(rng: random.Random) -> dict:
    """Sec. 5 engineered quartic oscillator around the shipped numbers."""
    p = {
        "nu_a": 100.0,
        "loss": _jitter(rng, 0.3, 0.10),
        "gamma": 1.0,
        "gamma1": 1.0,
        "gamma3": 1.0,
        "G1": _jitter(rng, 1000.0, 0.03),
        "G3": _jitter(rng, 1000.0, 0.03),
        "A1_sq": _jitter(rng, 40.0, 0.03),
        "A4_sq": _jitter(rng, 200.0, 0.05),
    }
    # chi2 = 4 sqrt(A1^2 G1 gamma1) - 2 sqrt(A3^2 G3 gamma3) is a near
    # cancellation (800 - 780 MHz), so the cubic loop's drive A3 is solved
    # from a target chi2 instead of being jittered itself.
    chi2 = _jitter(rng, 20.0, 0.10)
    lead = 4.0 * math.sqrt(p["A1_sq"] * p["G1"] * p["gamma1"])
    p["A3_sq"] = ((lead - chi2) / 2.0) ** 2 / (p["G3"] * p["gamma3"])
    return p


def quartic_netlist(p: dict, dim: int, run_block: str) -> str:
    # The quadratic-partner loop q2 is matched to q1 (gamma2 = gamma1 gives
    # G2 = G1 and A2 = A1), which the model builder checks.
    return f"""\
mode.a = {dim}
plant.H = {p['nu_a']!r} MHz_over_2pi * ad@a * a@a
bath.loss.a = {p['loss']!r} MHz_over_2pi

loop.q1.theta = -0.5 * pi
loop.q1.L     = sqrt({p['gamma']!r} MHz_over_2pi) * (sqrt(0.5) * (a@a + ad@a))^2
loop.q1.L_f   = sqrt({p['gamma1']!r} MHz_over_2pi) * ad@a * a@a
loop.q1.G0    = {p['G1']!r}
loop.q1.A     = sqrt({p['A1_sq']!r} MHz_over_2pi)
loop.q1.phi   = 0

loop.q2.theta = -0.5 * pi
loop.q2.L     = sqrt({p['gamma']!r} MHz_over_2pi) * (sqrt(0.5) * (a@a + ad@a))^2
loop.q2.L_f   = sqrt({p['gamma1']!r} MHz_over_2pi) * ad@a^2
loop.q2.G0    = {p['G1']!r}
loop.q2.A     = sqrt({p['A1_sq']!r} MHz_over_2pi)
loop.q2.phi   = 0

loop.q3.theta = -0.5 * pi
loop.q3.L     = sqrt({p['gamma']!r} MHz_over_2pi) * (sqrt(0.5) * (a@a + ad@a))^2
loop.q3.L_f   = sqrt({p['gamma3']!r} MHz_over_2pi) * sqrt(0.5) * (a@a + ad@a)
loop.q3.G0    = {p['G3']!r}
loop.q3.A     = sqrt({p['A3_sq']!r} MHz_over_2pi)
loop.q3.phi   = -pi

drive.A   = sqrt({p['A4_sq']!r} MHz_over_2pi)
drive.phi = -0.5 * pi

run.high_gain = true
run.initial_state = vacuum
{run_block}"""


def kerr_drive_params(rng: random.Random) -> dict:
    """Self-Kerr loop plus a driven linear loop, both eliminated exactly.

    The linear loop damps at about (sqrt(gamma_d) - sqrt(G0_d gamma_f))^2
    - (G0_d - 1) gamma_f ~ 1.4 MHz; the slowest Liouvillian rate stays
    above 5.5 /us over the jitter, so g2 has relaxed to 1 (within e^-10)
    over the last tenth of ``tau_max``.
    """
    return {
        "dim": G2_DIM,
        "nu_a": _jitter(rng, 0.5, 0.10),
        "gamma_k": _jitter(rng, 0.02, 0.05),
        "G0_k": _jitter(rng, 25.0, 0.05),
        "theta_k": -0.5 * math.pi,
        "gamma_d": _jitter(rng, 4.0, 0.02),
        "gamma_f": 0.25,
        "G0_d": _jitter(rng, 2.0, 0.02),
        "theta_d": 0.0,
        "A_sq": _jitter(rng, 1.0, 0.10),
        "phi": 0.0,
        "tau_max": 2.0,
        "n_points": 200,
    }


def kerr_drive_netlist(p: dict) -> str:
    return f"""\
mode.a = {p['dim']}
plant.H = {p['nu_a']!r} MHz_over_2pi * ad@a * a@a

loop.k.theta = {p['theta_k']!r}
loop.k.L     = sqrt({p['gamma_k']!r} MHz_over_2pi) * ad@a * a@a
loop.k.L_f   = sqrt({p['gamma_k']!r} MHz_over_2pi) * ad@a * a@a
loop.k.G0    = {p['G0_k']!r}

loop.d.theta = {p['theta_d']!r}
loop.d.L     = sqrt({p['gamma_d']!r} MHz_over_2pi) * a@a
loop.d.L_f   = sqrt({p['gamma_f']!r} MHz_over_2pi) * a@a
loop.d.G0    = {p['G0_d']!r}
loop.d.A     = sqrt({p['A_sq']!r} MHz_over_2pi)
loop.d.phi   = {p['phi']!r}

run.task = g2
run.high_gain = false
run.t_max = {p['tau_max']!r} us
run.n_points = {p['n_points']}
run.tau_star = 0.1 us
"""


def oracle_params(rng: random.Random) -> dict:
    """netlists/oracle_linear.net with a jittered feedback phase, return
    coupling and squeezing; the amplifier linewidth is set per ratio."""
    return {
        "plant_dim": ORACLE_PLANT_DIM,
        "amp_dim": ORACLE_AMP_DIM,
        "ratios": list(ORACLE_RATIOS),
        "theta": _jitter(rng, 0.3, 0.10),
        "f_scale": _jitter(rng, 0.5, 0.05),
        "r0": _jitter(rng, 0.5, 0.05),
    }


def oracle_netlist(p: dict) -> str:
    kappa = 10.0
    xi = kappa * math.tanh(p["r0"] / 2.0)
    return f"""\
mode.a = {p['plant_dim']}
loop.fb.theta = {p['theta']!r}
loop.fb.L     = sqrt(1.0 rad_per_us) * a@a
loop.fb.L_f   = {p['f_scale']!r} * sqrt(0.5 rad_per_us) * (a@a + ad@a)
loop.fb.kappa = {kappa!r} rad_per_us
loop.fb.xi    = {xi!r} rad_per_us
run.task = oracle-sweep
run.initial_state = vacuum
"""


def generate(workload: str, seed: int) -> list[dict]:
    """Operations of one round: name, kind, netlist text and parameters."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "quartic-transient":
        p = quartic_params(rng)
        steps = QUARTIC_STEPS
        run = (f"run.task = nongauss\nrun.t_max = {steps * QUARTIC_DT_US!r} us\n"
               f"run.n_points = {steps + 1}\n")
        p = dict(p, dim=30, t_max=steps * QUARTIC_DT_US, n_points=steps + 1)
        return [{"name": "quartic", "kind": "cli", "check": "transient",
                 "params": p, "netlist": quartic_netlist(p, 30, run)}]
    if workload == "stationary":
        p = quartic_params(rng)
        ops = [{"name": f"steady-d{d}", "kind": "cli", "check": "steady",
                "params": dict(p, dim=d),
                "netlist": quartic_netlist(p, d, "run.task = steady\n")}
               for d in STEADY_DIMS]
        g = kerr_drive_params(rng)
        ops.append({"name": "g2-kerr-drive", "kind": "cli", "check": "g2",
                    "params": g,
                    "netlist": kerr_drive_netlist(g)})
        return ops
    p = oracle_params(rng)
    return [{"name": "oracle", "kind": "oracle", "check": "oracle", "params": p,
             "netlist": oracle_netlist(p)}]
