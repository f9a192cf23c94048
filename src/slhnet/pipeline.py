"""Netlist to results: model building and the task runners.

``run(net) -> Result`` executes the run block of a parsed netlist.  It
builds the model the netlist describes (the eliminated or high-gain loop
models, or the closed-form quartic oscillator), runs the task and returns
its table (``columns``, ``rows``), headline ``results``, the built model,
solver statistics, the truncation check and any warning notes.  It reads
and writes no files; ``cli`` turns a ``Result`` into artifacts.

Each reported state (a trajectory point or a steady state) is reduced
once, to one matrix per mode (``_mode_matrices``).  The leak check reads
every mode's matrix; <n>, Fano and delta read the first mode's.

The coefficient tasks read the paper's closed forms off the loop
templates (``extract_kerr``, ``extract_cross_kerr``, ``extract_quartic``);
``oracle-sweep`` checks the amplifier elimination against the full loop.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .algebra import ModeRegistry, OperatorExpr
from .lindblad import (
    LEAK_THRESHOLD,
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
    AmplifierParams,
    Bath,
    DissipationChannel,
    EffectiveModel,
    FeedbackLoopSpec,
    NetworkError,
    QuarticCoefficients,
    cross_kerr_coefficient,
    eliminate_amplifier,
    high_gain_limit,
    kerr_coefficients,
    quartic_coefficients,
)
from .observables import fano_factor, g2, non_gaussianity
from .oracle import elimination_error

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Loop templates
# ---------------------------------------------------------------------------

def _fit_scalar_multiple(x: OperatorExpr, template: OperatorExpr):
    """Return c with x == c * template (1e-12 relative), else None."""
    if template.is_zero:
        return 0.0 if x.is_zero else None
    if x.is_zero:
        return 0.0
    mono = next(iter(sorted(template.terms)))
    denom = template.terms[mono]
    num = x.terms.get(mono)
    if num is None:
        return None
    c = num / denom
    resid = (x - c * template).max_coeff()
    if resid > 1e-12 * max(x.max_coeff(), 1.0):
        return None
    return c


def _positive_rate_fit(x: OperatorExpr, template: OperatorExpr):
    """Fit x == sqrt(rate) * template with real non-negative sqrt(rate)."""
    c = _fit_scalar_multiple(x, template)
    if c is None:
        return None
    if abs(c.imag) > 1e-12 * max(abs(c), 1.0) or c.real < 0:
        return None
    return c.real


def _loop_G0(lp: LoopDecl) -> float:
    """Declared gain when given, else the one the pump parameters realize."""
    return lp.g0_declared if lp.gain_mode == "G0" else lp.amp.G0


def loop_spec(lp: LoopDecl, plant_H: OperatorExpr) -> FeedbackLoopSpec:
    """The feedback loop a netlist loop declares, around ``plant_H``."""
    return FeedbackLoopSpec(
        plant_H=plant_H, theta=lp.theta, L=lp.L, L_f=lp.L_f,
        amp=lp.amp, A=lp.A, phi=lp.phi,
    )


@dataclass(frozen=True)
class KerrExtraction:
    omega_a: float
    gamma_a: float
    G0: float
    A_T: float


def extract_kerr(net: Netlist) -> KerrExtraction:
    """Read the self-Kerr loop template: L and L_f proportional to a^dag a."""
    if len(net.loops) != 1:
        raise PhysicsValidationError(
            "kerr-coeffs needs exactly one loop "
            f"(netlist declares {len(net.loops)})"
        )
    if len(net.registry) != 1:
        raise PhysicsValidationError("kerr-coeffs needs a single plant mode")
    lp = net.loops[0]
    label = net.registry.labels[0]
    n_op = OperatorExpr.number(net.registry, label)
    cl = _positive_rate_fit(lp.L, n_op)
    cf = _positive_rate_fit(lp.L_f, n_op)
    if cl is None or cf is None:
        raise PhysicsValidationError(
            f"loop {lp.ident!r} (line {lp.line}): kerr-coeffs expects "
            "L and L_f proportional to ad@m * a@m with real coefficients"
        )
    wa = net.plant_H.coefficient(((1, 1),))
    return KerrExtraction(
        omega_a=wa.real, gamma_a=cl * cf, G0=_loop_G0(lp), A_T=lp.A
    )


@dataclass(frozen=True)
class CrossKerrExtraction:
    gamma_a: float
    gamma_b: float
    G0: float


def extract_cross_kerr(net: Netlist) -> CrossKerrExtraction:
    """Two-mode template: L on one mode's number operator, L_f on the
    other's; the loop then imprints a cross-Kerr n_a n_b interaction."""
    if len(net.loops) != 1 or len(net.registry) != 2:
        raise PhysicsValidationError(
            "cross-Kerr extraction needs one loop and exactly two modes"
        )
    lp = net.loops[0]
    n_ops = [
        OperatorExpr.number(net.registry, l) for l in net.registry.labels
    ]
    for i, j in ((0, 1), (1, 0)):
        cl = _positive_rate_fit(lp.L, n_ops[i])
        cf = _positive_rate_fit(lp.L_f, n_ops[j])
        if cl is not None and cf is not None:
            return CrossKerrExtraction(
                gamma_a=cl * cl, gamma_b=cf * cf, G0=_loop_G0(lp)
            )
    raise PhysicsValidationError(
        f"loop {lp.ident!r} (line {lp.line}): cross-Kerr expects L and L_f "
        "proportional to the number operators of the two distinct modes"
    )


@dataclass(frozen=True)
class QuarticExtraction:
    gamma: float
    G1: float
    G3: float
    gamma1: float
    gamma2: float
    gamma3: float
    A1: float
    A3: float
    A4: float
    loop2_declared: tuple[float, float] | None  # (G2, A2) as written

    def coefficients(self) -> QuarticCoefficients:
        return quartic_coefficients(
            G1=self.G1, G3=self.G3, gamma=self.gamma, gamma1=self.gamma1,
            gamma2=self.gamma2, gamma3=self.gamma3,
            A1=self.A1, A3=self.A3, A4=self.A4,
        )


def extract_quartic(net: Netlist) -> QuarticExtraction:
    """Classify loops of the engineered quartic oscillator.

    Every loop couples downstream through x^2; the upstream coupling
    identifies the loop: a^dag a (quartic), a^dag^2 (quadratic partner,
    optional), x (cubic).  The direct drive entry supplies the linear term.
    """
    if len(net.registry) != 1:
        raise PhysicsValidationError("quartic synthesis needs a single mode")
    label = net.registry.labels[0]
    reg = net.registry
    x_op = OperatorExpr.position(reg, label)
    x2 = x_op * x_op
    n_op = OperatorExpr.number(reg, label)
    ad2 = OperatorExpr.creation(reg, label)
    ad2 = ad2 * ad2

    gamma = None
    found: dict[str, tuple[LoopDecl, float]] = {}
    for lp in net.loops:
        cl = _positive_rate_fit(lp.L, x2)
        if cl is None:
            raise PhysicsValidationError(
                f"loop {lp.ident!r} (line {lp.line}): quartic synthesis "
                "expects every downstream coupling proportional to x^2"
            )
        g = cl * cl
        if gamma is None:
            gamma = g
        elif abs(g - gamma) > 1e-9 * max(gamma, 1.0):
            raise PhysicsValidationError(
                f"loop {lp.ident!r} (line {lp.line}): downstream rate "
                f"{g:.6g} differs from the first loop's {gamma:.6g}"
            )
        for name, tmpl in (("n", n_op), ("ad2", ad2), ("x", x_op)):
            cf = _positive_rate_fit(lp.L_f, tmpl)
            if cf is not None and cf > 0:
                if name in found:
                    raise PhysicsValidationError(
                        f"loop {lp.ident!r} (line {lp.line}): duplicate "
                        f"upstream coupling type {name!r}"
                    )
                found[name] = (lp, cf * cf)
                break
        else:
            raise PhysicsValidationError(
                f"loop {lp.ident!r} (line {lp.line}): upstream coupling "
                "must be proportional to ad*a, ad^2, or x"
            )
    if gamma is None or "n" not in found or "x" not in found:
        raise PhysicsValidationError(
            "quartic synthesis needs at least the ad*a and x loops"
        )
    lp1, gamma1 = found["n"]
    lp3, gamma3 = found["x"]
    loop2_declared = None
    gamma2 = gamma1  # matched partner default: same upstream rate scale
    if "ad2" in found:
        lp2, gamma2 = found["ad2"]
        loop2_declared = (_loop_G0(lp2), lp2.A)
    return QuarticExtraction(
        gamma=gamma,
        G1=_loop_G0(lp1),
        G3=_loop_G0(lp3),
        gamma1=gamma1,
        gamma2=gamma2,
        gamma3=gamma3,
        A1=lp1.A,
        A3=lp3.A,
        A4=net.drive_A,
        loop2_declared=loop2_declared,
    )


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
                bath=Bath.vacuum(),
                rate_prefactor=rate,
            )
        )
    return out


@dataclass(frozen=True)
class BuiltModel:
    model: EffectiveModel
    kind: str  # "closed" | "eliminated" | "high-gain" | "quartic-synthesis"
    info: dict


def synthesize_quartic(net: Netlist, q: QuarticExtraction) -> BuiltModel:
    """Engineered-oscillator model from the closed-form coefficients.

    The high-gain limit of the multi-loop construction is, by design, the
    polynomial Hamiltonian sum_k chi_k x^k; this synthesizes it directly
    from the loop parameters ``q`` read off ``net`` and attaches the
    declared loss channels.
    """
    if net.has_drive and net.drive_A > 0 and (
        abs(net.drive_phi + math.pi / 2) > 1e-9
    ):
        raise PhysicsValidationError(
            "the direct drive line must run at phi = -pi/2 (position-"
            f"quadrature drive); declared phi = {net.drive_phi!r}"
        )
    qc = q.coefficients()
    if q.loop2_declared is not None:
        g2d, a2d = q.loop2_declared
        if abs(g2d - qc.G2) > 1e-6 * max(qc.G2, 1.0) or (
            abs(a2d - qc.A2) > 1e-6 * max(qc.A2, 1.0)
        ):
            raise PhysicsValidationError(
                "declared quadratic-partner loop is mismatched: needs "
                f"G0 = {qc.G2:.9g} and A = {qc.A2:.9g} to balance the "
                "ad*a loop (declared "
                f"G0 = {g2d:.9g}, A = {a2d:.9g})"
            )
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
        "extraction": dataclasses.asdict(
            dataclasses.replace(q, loop2_declared=None)
        ),
        "coefficients": dataclasses.asdict(qc),
    }
    return BuiltModel(model=model, kind="quartic-synthesis", info=info)


def build_model(net: Netlist) -> BuiltModel:
    """Assemble the simulation model a netlist describes."""
    if net.loops and net.run.high_gain:
        try:
            q = extract_quartic(net)
        except PhysicsValidationError:
            q = None
        if q is not None:
            return synthesize_quartic(net, q)
    if net.has_drive and net.drive_A != 0:
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
        per_loop.append({"ident": lp.ident, "r0": lp.amp.r0, "G0": lp.amp.G0})
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
    truncation check and the warnings of failed adequacy checks."""

    columns: tuple[str, ...]
    rows: list[tuple]
    results: dict
    built: BuiltModel | None = None
    integrator_stats: dict | None = None
    leak_report: dict | None = None
    notes: tuple[str, ...] = ()


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


def _mean_n(rho: np.ndarray) -> float:
    return float(np.diag(rho).real @ np.arange(rho.shape[0]))


def _freq_row(name: str, value_rad_us: float):
    return (name, value_rad_us, value_rad_us / TWO_PI)


def _run_time_series(net: Netlist) -> Result:
    """evolve / fano / nongauss share one trajectory pipeline."""
    built = build_model(net)
    liou = build_liouvillian(built.model, net.registry)
    rho0 = _initial_state(net)
    t_grid = list(np.linspace(0.0, net.run.t_max, net.run.n_points))
    stats: dict = {}
    states = integrate(liou, rho0, t_grid, stats=stats)
    leaks = []
    recs = []
    for t, st in zip(t_grid, states):
        mats = _mode_matrices(st, net.registry.dims)
        leaks.append([fock_leak(m) for m in mats])
        recs.append((t, _mean_n(mats[0]), fano_factor(mats[0]),
                     non_gaussianity(mats[0])))
    task = net.run.task
    if task is Task.FANO:
        columns = ("t_us", "fano", "mean_n")
        rows = [(t, f, n) for (t, n, f, d) in recs]
    elif task is Task.NONGAUSS:
        columns = ("t_us", "delta", "fano", "mean_n")
        rows = [(t, d, f, n) for (t, n, f, d) in recs]
    else:
        columns = ("t_us", "mean_n", "fano", "delta")
        rows = [(t, n, f, d) for (t, n, f, d) in recs]
    peak_idx = max(range(len(recs)), key=lambda k: recs[k][3])
    report, notes = _leak_check(net, max(leaks, key=max))
    results = {
        "final_t_us": t_grid[-1],
        "final_mean_n": recs[-1][1],
        "final_fano": recs[-1][2],
        "final_delta": recs[-1][3],
        "peak_delta": recs[peak_idx][3],
        "peak_delta_t_us": t_grid[peak_idx],
    }
    return Result(columns, rows, results, built, stats, report, notes)


def _run_steady(net: Netlist) -> Result:
    built = build_model(net)
    liou = build_liouvillian(built.model, net.registry)
    stats: dict = {}
    rho = steady_state(liou, stats=stats)
    mats = _mode_matrices(rho, net.registry.dims)
    f = fano_factor(mats[0])
    delta = non_gaussianity(mats[0])
    nbar = _mean_n(mats[0])
    purity = float(np.trace(rho.mat @ rho.mat).real)
    report, notes = _leak_check(net, [fock_leak(m) for m in mats])
    results = {"mean_n": nbar, "fano": f, "delta": delta, "purity": purity}
    columns = ("mean_n", "fano", "delta", "purity")
    rows = [(nbar, f, delta, purity)]
    return Result(columns, rows, results, built, stats, report, notes)


def _run_g2(net: Netlist) -> Result:
    built = build_model(net)
    if len(net.registry) != 1:
        raise PhysicsValidationError("g2 task supports single-mode netlists")
    dims = net.registry.dims
    liou = build_liouvillian(built.model, net.registry)
    steady_stats: dict = {}
    rho = steady_state(liou, stats=steady_stats)
    taus = list(np.linspace(0.0, net.run.t_max, net.run.n_points))
    stats: dict = {}
    vals = g2(liou, rho, taus, dims, stats=stats)
    tau_star = net.run.tau_star
    columns = ("tau_us", "tau_over_taustar", "g2")
    rows = [(t, t / tau_star, v) for t, v in zip(taus, vals)]
    report, notes = _leak_check(net, [fock_leak(rho.mat)])
    stats = {**stats, "method": "regression+" + stats["method"],
             "steady_state": steady_stats}
    results = {
        "g2_0": vals[0],
        "g2_max": max(vals),
        "g2_max_tau_us": taus[int(np.argmax(vals))],
        "antibunched": max(vals[1:]) > vals[0] if len(vals) > 1 else False,
        "steady_mean_n": _mean_n(rho.mat),
        "tau_star_us": tau_star,
    }
    return Result(columns, rows, results, built, stats, report, notes)


_COEFF_COLUMNS = ("quantity", "rad_per_us", "MHz_over_2pi")


def _run_kerr_coeffs(net: Netlist) -> Result:
    if len(net.registry) == 2:
        ck = extract_cross_kerr(net)
        chi = cross_kerr_coefficient(ck.G0, ck.gamma_a, ck.gamma_b)
        return Result(_COEFF_COLUMNS, [_freq_row("chi_cross", chi)], {
            "chi_cross_rad_us": chi,
            "chi_cross_MHz": chi / TWO_PI,
            "G0": ck.G0,
            "gamma_a_rad_us": ck.gamma_a,
            "gamma_b_rad_us": ck.gamma_b,
        })
    k = extract_kerr(net)
    delta, chi = kerr_coefficients(k.G0, k.gamma_a, k.A_T)
    rows = [
        _freq_row("chi", chi),
        _freq_row("delta", delta),
        _freq_row("omega_a", k.omega_a),
        _freq_row("omega_a_minus_delta", k.omega_a - delta),
    ]
    return Result(_COEFF_COLUMNS, rows, {
        "chi_rad_us": chi,
        "delta_rad_us": delta,
        "omega_a_minus_delta_rad_us": k.omega_a - delta,
        "chi_MHz": chi / TWO_PI,
        "omega_a_minus_delta_MHz": (k.omega_a - delta) / TWO_PI,
        "G0": k.G0,
        "gamma_a_rad_us": k.gamma_a,
    })


def _run_quartic_coeffs(net: Netlist) -> Result:
    qc = extract_quartic(net).coefficients()
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
    return Result(("kappa_over_gamma", "trace_distance"), rows, {
        "verdict": report.verdict,
        "probe_time_us": report.probe_time,
        "distances": list(report.distances),
    })


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
    """Build the netlist's model when its task needs one and run the task."""
    return _TASKS[net.run.task](net)


# ---------------------------------------------------------------------------
# Netlist transforms
# ---------------------------------------------------------------------------

def retruncate(net: Netlist, trunc: int) -> Netlist:
    """Rebuild the netlist with every mode truncated to ``trunc`` levels."""
    reg = ModeRegistry(tuple((l, trunc) for l in net.registry.labels))

    def move(x: OperatorExpr) -> OperatorExpr:
        return OperatorExpr(reg, dict(x.terms))

    loops = tuple(
        dataclasses.replace(lp, L=move(lp.L), L_f=move(lp.L_f))
        for lp in net.loops
    )
    return dataclasses.replace(
        net, registry=reg, plant_H=move(net.plant_H), loops=loops
    )


def override_key(net: Netlist, key: str, value: float) -> Netlist:
    """Set one numeric netlist key (canonical units: rad/us, us, raw)."""
    parts = key.split(".")
    if len(parts) == 3 and parts[0] == "loop":
        ident, fld = parts[1], parts[2]
        loops = []
        hit = False
        for lp in net.loops:
            if lp.ident != ident:
                loops.append(lp)
                continue
            hit = True
            if fld in ("theta", "phi", "A"):
                loops.append(dataclasses.replace(lp, **{fld: value}))
            elif fld == "G0":
                loops.append(dataclasses.replace(
                    lp,
                    amp=AmplifierParams.from_gain(value, lp.amp.kappa),
                    gain_mode="G0", g0_declared=value,
                ))
            else:
                raise PhysicsValidationError(
                    f"--sweep does not support loop field {fld!r}"
                )
        if not hit:
            raise PhysicsValidationError(f"no loop {ident!r} to sweep")
        return dataclasses.replace(net, loops=tuple(loops))
    if key == "run.t_max":
        return dataclasses.replace(
            net, run=dataclasses.replace(net.run, t_max=value)
        )
    if key == "drive.A":
        return dataclasses.replace(net, drive_A=value, has_drive=True)
    if key == "drive.phi":
        return dataclasses.replace(net, drive_phi=value, has_drive=True)
    if len(parts) == 3 and parts[0] == "bath" and parts[1] == "loss":
        label = parts[2]
        losses = tuple(
            (l, value if l == label else r) for l, r in net.losses
        )
        if label not in dict(net.losses):
            losses = losses + ((label, value),)
        return dataclasses.replace(net, losses=losses)
    raise PhysicsValidationError(f"--sweep does not support key {key!r}")
