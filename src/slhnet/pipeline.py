"""Netlist to results: model building and the task runners.

``run(net) -> Result`` executes the run block of a parsed netlist.  It
builds the model the netlist describes (the eliminated or high-gain loop
models, or the closed-form quartic oscillator), runs the task and returns
its table (``columns``, ``rows``), headline ``results``, the built model,
solver statistics, the truncation check and any warning notes.  It reads
and writes no files; ``cli`` turns a ``Result`` into artifacts.  It does
not transform netlists: overridden and swept keys go through
``netlist.parse``, which holds them to its bounds.

Each reported state (a trajectory point or a steady state) is reduced
once, to one matrix per mode (``_mode_matrices``).  The leak check reads
every mode's matrix; <n>, Fano and delta read the first mode's.

The paper's loop templates are matched by one rule, ``_sqrt_rate``: a
coupling is sqrt(rate) times a template operator, sqrt(rate) real and
non-negative.  ``kerr-coeffs`` reads the self-Kerr or cross-Kerr template
(Sec. 4) and evaluates the closed forms.  ``extract_quartic`` classifies a
netlist against the quartic template (Sec. 5): it has the template's
signature when every loop couples downstream through x^2 and the a^dag a
and x loops are among them, and a netlist with it must pass every other
check of the template.  ``quartic-coeffs`` needs that signature; with
``run.high_gain`` a netlist that has it is synthesized as the quartic
oscillator.  Any other netlist is reduced loop by loop
(``eliminate_amplifier``, or ``high_gain_limit`` with ``run.high_gain``).
``oracle-sweep`` checks the amplifier elimination against the full loop.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import blas
from .algebra import OperatorExpr
from .lindblad import (
    LEAK_THRESHOLD,
    STEADY_RESIDUAL,
    DensityMatrix,
    PhysicsValidationError,
    build_liouvillian,
    fock_leak,
    integrate,
    partial_trace,
    steady_state,
)
from .netlist import LoopDecl, Netlist, Task
from .network import (
    DissipationChannel,
    EffectiveModel,
    FeedbackLoopSpec,
    NetworkError,
    cross_kerr_coefficient,
    eliminate_amplifier,
    high_gain_limit,
    kerr_coefficients,
    quartic_coefficients,
)
from .observables import fano_factor, g2, mean_n, non_gaussianity
from .oracle import elimination_error

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Loop templates
# ---------------------------------------------------------------------------

def _sqrt_rate(x: OperatorExpr, template: OperatorExpr):
    """The real, non-negative sqrt(rate) with x == sqrt(rate) * template
    (1e-12 relative), else None."""
    if x.is_zero:
        return 0.0
    mono = min(template.terms)
    num = x.terms.get(mono)
    if num is None:
        return None
    c = num / template.terms[mono]
    if (x - c * template).max_coeff() > 1e-12 * max(x.max_coeff(), 1.0):
        return None
    if abs(c.imag) > 1e-12 * max(abs(c), 1.0) or c.real < 0:
        return None
    return c.real


def loop_spec(lp: LoopDecl, plant_H: OperatorExpr) -> FeedbackLoopSpec:
    """The feedback loop a netlist loop declares, around ``plant_H``."""
    return FeedbackLoopSpec(
        plant_H=plant_H, theta=lp.theta, L=lp.L, L_f=lp.L_f,
        amp=lp.amp, A=lp.A, phi=lp.phi,
    )


def extract_quartic(net: Netlist) -> dict | str:
    """Classify the loops against the engineered quartic oscillator (Sec. 5).

    Every loop couples downstream through x^2 at one rate gamma; the
    upstream coupling identifies the loop: a^dag a (quartic), a^dag^2
    (quadratic partner, optional), x (cubic).  The direct drive entry
    supplies the linear term.

    The template's signature is one mode, every L proportional to x^2 and
    the a^dag a and x loops among them.  A netlist without it returns the
    first failed check's message, in loop order; one with it returns the
    keyword arguments of ``quartic_coefficients``, or raises
    PhysicsValidationError with the first failed check among the others: a
    downstream rate that differs, a duplicate or an unknown upstream
    coupling, a direct drive off the position quadrature (phi = -pi/2), or
    a declared a^dag^2 partner whose G0 and A do not balance the a^dag a
    loop.
    """
    if len(net.registry) != 1:
        return "quartic synthesis needs a single mode"
    label = net.registry.labels[0]
    reg = net.registry
    x_op = OperatorExpr.position(reg, label)
    x2 = x_op * x_op
    ad = OperatorExpr.creation(reg, label)
    upstream = (("n", OperatorExpr.number(reg, label)), ("ad2", ad * ad),
                ("x", x_op))

    gamma = error = None
    signature = True
    found: dict[str, tuple[LoopDecl, float]] = {}
    for lp in net.loops:
        where = f"loop {lp.ident!r} (line {lp.line}): "
        cl = _sqrt_rate(lp.L, x2)
        if cl is None:
            signature = False
            error = error or (where + "quartic synthesis expects every "
                              "downstream coupling proportional to x^2")
            continue
        g = cl * cl
        if gamma is None:
            gamma = g
        elif abs(g - gamma) > 1e-9 * max(gamma, 1.0):
            error = error or (where + f"downstream rate {g:.6g} differs "
                              f"from the first loop's {gamma:.6g}")
        for name, tmpl in upstream:
            cf = _sqrt_rate(lp.L_f, tmpl)
            if cf is not None and cf > 0:
                if name in found:
                    error = error or (where + "duplicate upstream coupling "
                                      f"type {name!r}")
                found.setdefault(name, (lp, cf * cf))
                break
        else:
            error = error or (where + "upstream coupling must be "
                              "proportional to ad*a, ad^2, or x")
    if not (signature and "n" in found and "x" in found):
        return error or "quartic synthesis needs at least the ad*a and x loops"
    if error:
        raise PhysicsValidationError(error)
    if net.drive_A > 0 and (
        abs(net.drive_phi + math.pi / 2) > 1e-9
    ):
        raise PhysicsValidationError(
            "the direct drive line must run at phi = -pi/2 (position-"
            f"quadrature drive); declared phi = {net.drive_phi!r}"
        )
    lp1, gamma1 = found["n"]
    lp3, gamma3 = found["x"]
    # without a partner loop, the matched one at the same upstream rate
    lp2, gamma2 = found.get("ad2", (None, gamma1))
    q = dict(gamma=gamma, G1=lp1.amp.G0, G3=lp3.amp.G0, gamma1=gamma1,
             gamma2=gamma2, gamma3=gamma3, A1=lp1.A, A3=lp3.A, A4=net.drive_A)
    if lp2 is not None:
        qc = quartic_coefficients(**q)
        g2d, a2d = lp2.amp.G0, lp2.A
        if abs(g2d - qc.G2) > 1e-6 * max(qc.G2, 1.0) or (
            abs(a2d - qc.A2) > 1e-6 * max(qc.A2, 1.0)
        ):
            raise PhysicsValidationError(
                "declared quadratic-partner loop is mismatched: needs "
                f"G0 = {qc.G2:.9g} and A = {qc.A2:.9g} to balance the "
                "ad*a loop (declared "
                f"G0 = {g2d:.9g}, A = {a2d:.9g})"
            )
    return q


# ---------------------------------------------------------------------------
# Netlist -> model
# ---------------------------------------------------------------------------

def _loss_channels(net: Netlist) -> list[DissipationChannel]:
    out = []
    for label, rate in net.losses:
        if rate <= 0:
            continue
        out.append(
            DissipationChannel(
                op=OperatorExpr.annihilation(net.registry, label),
                rate_prefactor=rate,
            )
        )
    return out


@dataclass(frozen=True)
class BuiltModel:
    model: EffectiveModel
    kind: str  # "closed" | "eliminated" | "high-gain" | "quartic-synthesis"
    info: dict


def synthesize_quartic(net: Netlist, q: dict) -> BuiltModel:
    """Engineered-oscillator model from the closed-form coefficients.

    The high-gain limit of the multi-loop construction is, by design, the
    polynomial Hamiltonian sum_k chi_k x^k; this synthesizes it directly
    from the loop parameters ``q`` that ``extract_quartic`` read off ``net``
    and attaches the declared loss channels.
    """
    qc = quartic_coefficients(**q)
    label = net.registry.labels[0]
    x_op = OperatorExpr.position(net.registry, label)
    h = net.plant_H
    if qc.chi1:
        h = h + qc.chi1 * x_op
    h = h + qc.chi2 * (x_op * x_op)
    h = h + qc.chi3 * (x_op * x_op * x_op)
    h = h + qc.chi4 * (x_op * x_op * x_op * x_op)
    model = EffectiveModel(
        H_eff=h,
        channels=tuple(_loss_channels(net)),
        registry=net.registry,
    )
    info = {
        # the partner loop is checked, not used: recorded as null
        "extraction": {**q, "loop2_declared": None},
        "coefficients": dataclasses.asdict(qc),
    }
    return BuiltModel(model=model, kind="quartic-synthesis", info=info)


def build_model(net: Netlist) -> BuiltModel:
    """Assemble the simulation model a netlist describes: with
    ``run.high_gain``, the quartic oscillator when the loops have the Sec. 5
    template's signature (``extract_quartic``); else the loops reduced one
    by one."""
    if net.loops and net.run.high_gain:
        q = extract_quartic(net)
        if not isinstance(q, str):
            return synthesize_quartic(net, q)
    if net.drive_A != 0:
        raise PhysicsValidationError(
            "drive.A / drive.phi describe the direct classical drive line "
            "of the engineered-quartic template; per-loop drives are "
            "loop.<id>.A and loop.<id>.phi"
        )
    channels = _loss_channels(net)
    if not net.loops:
        model = EffectiveModel(
            H_eff=net.plant_H,
            channels=tuple(channels),
            registry=net.registry,
        )
        return BuiltModel(model=model, kind="closed", info={})

    h = net.plant_H
    reduce_op = high_gain_limit if net.run.high_gain else eliminate_amplifier
    zero = OperatorExpr.zero(net.registry)
    per_loop = []
    for lp in net.loops:
        spec = loop_spec(lp, zero)
        try:
            m = reduce_op(spec)
        except (NetworkError, PhysicsValidationError) as e:
            raise type(e)(f"loop {lp.ident!r} (line {lp.line}): {e}")
        h = h + m.H_eff
        channels.extend(m.channels)
        per_loop.append({"ident": lp.ident, "r0": lp.amp.r0,
                         "G0": lp.amp.G0})
    model = EffectiveModel(
        H_eff=h, channels=tuple(channels), registry=net.registry
    )
    kind = "high-gain" if net.run.high_gain else "eliminated"
    return BuiltModel(model=model, kind=kind, info={"loops": per_loop})


def _initial_state(net: Netlist) -> DensityMatrix:
    dims = net.registry.dims
    st = net.run.initial_state
    if st.kind == "vacuum":
        first = DensityMatrix.vacuum(dims[0])
    elif st.kind == "fock":
        first = DensityMatrix.fock(dims[0], st.n)
    else:
        first = DensityMatrix.coherent(dims[0], st.alpha)
    mat = first.mat
    for d in dims[1:]:
        mat = np.kron(mat, DensityMatrix.vacuum(d).mat)
    return DensityMatrix(mat)


# ---------------------------------------------------------------------------
# Task runners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Result:
    """What one run produced: the task's table, its headline ``results``,
    and, for the model tasks, the built model, the solver statistics, the
    truncation check and the warnings of failed adequacy checks; and the
    OpenBLAS thread count of each bundled copy (None when none is found)."""

    columns: tuple[str, ...]
    rows: list[tuple]
    results: dict
    built: BuiltModel | None = None
    integrator_stats: dict | None = None
    leak_report: dict | None = None
    notes: tuple[str, ...] = ()
    blas_threads: dict | None = None


def _mode_matrices(st: DensityMatrix, dims) -> list[np.ndarray]:
    """One matrix per mode of a reported state; a one-mode state is its own."""
    if len(dims) == 1:
        return [st.mat]
    return [partial_trace(st.mat, dims, (k,)) for k in range(len(dims))]


def _leak_check(net: Netlist, leaks: list[float]):
    """Truncation check of the per-mode ``leaks`` of the state with the
    largest leak, and on failure a warning naming the worst mode:
    ``(leak_report, notes)``."""
    k = int(np.argmax(leaks))
    leak = leaks[k]
    report = {"max_leak": leak, "threshold": LEAK_THRESHOLD,
              "within_threshold": leak < LEAK_THRESHOLD}
    if leak < LEAK_THRESHOLD:
        return report, ()
    return report, (
        f"warning: truncation check failed: Fock leak {leak:.3g} exceeds "
        f"threshold {LEAK_THRESHOLD:g} in mode {net.registry.labels[k]} "
        f"(truncation {net.registry.dims[k]})",
    )


def _residual_check(steady_stats: dict) -> tuple[str, ...]:
    """The warning of a steady state whose residual missed its target."""
    if steady_stats["residual_within_target"]:
        return ()
    return (
        f"warning: steady-state check failed: residual "
        f"{steady_stats['residual']:.3g} exceeds target {STEADY_RESIDUAL:g}",
    )


def _freq_row(name: str, value_rad_us: float):
    return (name, value_rad_us, value_rad_us / TWO_PI)


def _run_time_series(net: Netlist) -> Result:
    """evolve / fano / nongauss share one trajectory pipeline; only evolve
    and nongauss report delta, so only they run the Gaussian reference."""
    built = build_model(net)
    liou = build_liouvillian(built.model)
    rho0 = _initial_state(net)
    t_grid = list(np.linspace(0.0, net.run.t_max, net.run.n_points))
    stats: dict = {}
    states = integrate(liou, rho0, t_grid, stats=stats)
    task = net.run.task
    leaks = []
    recs = []
    for t, st in zip(t_grid, states):
        mats = _mode_matrices(st, net.registry.dims)
        leaks.append([fock_leak(m) for m in mats])
        recs.append((t, mean_n(mats[0]), fano_factor(mats[0]),
                     None if task is Task.FANO else non_gaussianity(mats[0])))
    report, notes = _leak_check(net, max(leaks, key=max))
    results = {
        "final_t_us": t_grid[-1],
        "final_mean_n": recs[-1][1],
        "final_fano": recs[-1][2],
    }
    if task is Task.FANO:
        columns = ("t_us", "fano", "mean_n")
        rows = [(t, f, n) for (t, n, f, d) in recs]
        return Result(columns, rows, results, built, stats, report, notes)
    if task is Task.NONGAUSS:
        columns = ("t_us", "delta", "fano", "mean_n")
        rows = [(t, d, f, n) for (t, n, f, d) in recs]
    else:
        columns = ("t_us", "mean_n", "fano", "delta")
        rows = [(t, n, f, d) for (t, n, f, d) in recs]
    peak_idx = max(range(len(recs)), key=lambda k: recs[k][3])
    results.update(
        final_delta=recs[-1][3],
        peak_delta=recs[peak_idx][3],
        peak_delta_t_us=t_grid[peak_idx],
    )
    return Result(columns, rows, results, built, stats, report, notes)


def _run_steady(net: Netlist) -> Result:
    built = build_model(net)
    liou = build_liouvillian(built.model)
    stats: dict = {}
    rho = steady_state(liou, stats=stats)
    mats = _mode_matrices(rho, net.registry.dims)
    f = fano_factor(mats[0])
    delta = non_gaussianity(mats[0])
    nbar = mean_n(mats[0])
    purity = float(np.trace(rho.mat @ rho.mat).real)
    report, notes = _leak_check(net, [fock_leak(m) for m in mats])
    notes += _residual_check(stats)
    results = {"mean_n": nbar, "fano": f,
               "sub_poissonian": 1.0 - f > LEAK_THRESHOLD,
               "delta": delta, "purity": purity}
    columns = ("mean_n", "fano", "delta", "purity")
    rows = [(nbar, f, delta, purity)]
    return Result(columns, rows, results, built, stats, report, notes)


def _run_g2(net: Netlist) -> Result:
    if len(net.registry) != 1:
        raise PhysicsValidationError("g2 task supports single-mode netlists")
    built = build_model(net)
    dims = net.registry.dims
    liou = build_liouvillian(built.model)
    steady_stats: dict = {}
    rho = steady_state(liou, stats=steady_stats)
    taus = list(np.linspace(0.0, net.run.t_max, net.run.n_points))
    stats: dict = {}
    vals = g2(liou, rho, taus, dims, stats=stats)
    tau_star = net.run.tau_star
    columns = ("tau_us", "tau_over_taustar", "g2")
    rows = [(t, t / tau_star, v) for t, v in zip(taus, vals)]
    report, notes = _leak_check(net, [fock_leak(rho.mat)])
    notes += _residual_check(steady_stats)
    stats = {**stats, "method": "regression+" + stats["method"],
             "steady_state": steady_stats}
    nbar = mean_n(rho.mat)
    results = {
        "g2_0": vals[0],
        "g2_max": max(vals),
        "g2_max_tau_us": taus[int(np.argmax(vals))],
        "antibunched": max(vals[1:]) > vals[0] if len(vals) > 1 else False,
        # <n>(1 - g2(0)) is 1 - Fano: the flag and margin of steady's
        "sub_poissonian": nbar * (1.0 - vals[0]) > LEAK_THRESHOLD,
        "steady_mean_n": nbar,
        "tau_star_us": tau_star,
    }
    return Result(columns, rows, results, built, stats, report, notes)


_COEFF_COLUMNS = ("quantity", "rad_per_us", "MHz_over_2pi")


def _run_kerr_coeffs(net: Netlist) -> Result:
    """The Sec. 4 templates: one mode with L and L_f proportional to its
    number operator (self-Kerr), or two modes with L on one mode's number
    operator and L_f on the other's (cross-Kerr n_a n_b)."""
    lp = net.loops[0] if len(net.loops) == 1 else None
    n_ops = [OperatorExpr.number(net.registry, l) for l in net.registry.labels]
    if len(n_ops) == 2:
        if lp is None:
            raise PhysicsValidationError(
                "cross-Kerr extraction needs one loop and exactly two modes"
            )
        for i, j in ((0, 1), (1, 0)):
            cl, cf = _sqrt_rate(lp.L, n_ops[i]), _sqrt_rate(lp.L_f, n_ops[j])
            if cl is not None and cf is not None:
                break
        else:
            raise PhysicsValidationError(
                f"loop {lp.ident!r} (line {lp.line}): cross-Kerr expects L "
                "and L_f proportional to the number operators of the two "
                "distinct modes"
            )
        G0 = lp.amp.G0
        chi = cross_kerr_coefficient(G0, cl * cl, cf * cf)
        return Result(_COEFF_COLUMNS, [_freq_row("chi_cross", chi)], {
            "chi_cross_rad_us": chi,
            "chi_cross_MHz": chi / TWO_PI,
            "G0": G0,
            "gamma_a_rad_us": cl * cl,
            "gamma_b_rad_us": cf * cf,
        })
    if lp is None:
        raise PhysicsValidationError(
            "kerr-coeffs needs exactly one loop "
            f"(netlist declares {len(net.loops)})"
        )
    if len(n_ops) != 1:
        raise PhysicsValidationError("kerr-coeffs needs a single plant mode")
    cl, cf = _sqrt_rate(lp.L, n_ops[0]), _sqrt_rate(lp.L_f, n_ops[0])
    if cl is None or cf is None:
        raise PhysicsValidationError(
            f"loop {lp.ident!r} (line {lp.line}): kerr-coeffs expects "
            "L and L_f proportional to ad@m * a@m with real coefficients"
        )
    G0, gamma_a = lp.amp.G0, cl * cf
    omega_a = net.plant_H.coefficient(((1, 1),)).real
    delta, chi = kerr_coefficients(G0, gamma_a, lp.A)
    rows = [
        _freq_row("chi", chi),
        _freq_row("delta", delta),
        _freq_row("omega_a", omega_a),
        _freq_row("omega_a_minus_delta", omega_a - delta),
    ]
    return Result(_COEFF_COLUMNS, rows, {
        "chi_rad_us": chi,
        "delta_rad_us": delta,
        "omega_a_minus_delta_rad_us": omega_a - delta,
        "chi_MHz": chi / TWO_PI,
        "omega_a_minus_delta_MHz": (omega_a - delta) / TWO_PI,
        "G0": G0,
        "gamma_a_rad_us": gamma_a,
    })


def _run_quartic_coeffs(net: Netlist) -> Result:
    q = extract_quartic(net)
    if isinstance(q, str):
        raise PhysicsValidationError(q)
    qc = quartic_coefficients(**q)
    chis = (qc.chi1, qc.chi2, qc.chi3, qc.chi4)
    rows = [_freq_row(f"chi{k}", c) for k, c in enumerate(chis, start=1)]
    return Result(_COEFF_COLUMNS, rows, {
        "chi_rad_us": list(chis),
        "chi_MHz": [c / TWO_PI for c in chis],
        "induced_G2": qc.G2,
        "induced_A2": qc.A2,
    })


def _run_oracle_sweep(net: Netlist) -> Result:
    if len(net.loops) != 1:
        raise PhysicsValidationError(
            "oracle-sweep needs exactly one loop "
            f"(netlist declares {len(net.loops)})"
        )
    lp = net.loops[0]
    gamma_ref = max(
        (abs(c) for c in lp.L.terms.values()), default=0.0
    ) ** 2
    if gamma_ref <= 0:
        raise PhysicsValidationError(
            f"loop {lp.ident!r} (line {lp.line}): oracle-sweep needs a "
            "nonzero downstream coupling to set the slow timescale"
        )
    report = elimination_error(
        loop_spec(lp, net.plant_H), (10.0, 30.0, 100.0), gamma_ref=gamma_ref,
        rho_plant0=_initial_state(net),
    )
    rows = [(r.kappa_over_gamma, r.trace_distance) for r in report.rows]
    stats = {
        "eliminated": report.eliminated_stats,
        "full_loop": [{"kappa_over_gamma": r.kappa_over_gamma,
                       **r.integrator_stats} for r in report.rows],
    }
    return Result(("kappa_over_gamma", "trace_distance"), rows, {
        "verdict": report.verdict,
        "probe_time_us": report.probe_time,
        "distances": list(report.distances),
    }, integrator_stats=stats)


_TASKS = {
    Task.EVOLVE: _run_time_series,
    Task.FANO: _run_time_series,
    Task.NONGAUSS: _run_time_series,
    Task.STEADY: _run_steady,
    Task.G2: _run_g2,
    Task.KERR_COEFFS: _run_kerr_coeffs,
    Task.QUARTIC_COEFFS: _run_quartic_coeffs,
    Task.ORACLE_SWEEP: _run_oracle_sweep,
}


def run(net: Netlist) -> Result:
    """Build the netlist's model when its task needs one and run the task,
    on one OpenBLAS thread (``blas.single_thread``); ``blas_threads`` is
    the count each bundled copy ran with."""
    with blas.single_thread() as threads:
        res = _TASKS[net.run.task](net)
    return dataclasses.replace(res, blas_threads=threads)
