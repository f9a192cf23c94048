"""Command-line driver: run netlists, emit CSV/JSON artifacts and summaries.

Per run the output directory receives

* ``<task>.csv`` (or ``.json`` with ``--format json``): the task's data
  table, first column ``t_us``/``tau_us`` for time series, with a
  ``# manifest_hash=...`` header line tying it to the manifest;
* ``manifest.json``: resolved parameters, truncation-leak report,
  integrator statistics, results, content hash and timestamp;
* ``summary.txt``: the effective model pretty-printed with every
  coefficient in both rad/us and MHz (frequency nu = omega / 2 pi)
  plus headline results, and a warning line when the truncation check
  failed (the same line also goes to stderr).

Exit codes: 0 success, 2 parse error, 3 physics validation error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import datetime
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import ModeRegistry, OperatorExpr
from .lindblad import (
    LEAK_THRESHOLD,
    DensityMatrix,
    NumericalFailure,
    PhysicsValidationError,
    build_liouvillian,
    fock_leak,
    integrate,
    partial_trace,
    steady_state,
)
from .netlist import (
    LoopDecl,
    Netlist,
    NetlistParseError,
    Task,
    format_operator,
    parse,
)
from .network import (
    Bath,
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
from .observables import fano_factor, g2, non_gaussianity
from .oracle import elimination_error

TWO_PI = 2.0 * math.pi
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PHYSICS = 3
EXIT_NUMERICS = 4


# ---------------------------------------------------------------------------
# Netlist -> model
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


def _quartic_template_matches(net: Netlist) -> bool:
    try:
        extract_quartic(net)
        return True
    except PhysicsValidationError:
        return False


@dataclass(frozen=True)
class BuiltModel:
    model: EffectiveModel
    kind: str  # "closed" | "eliminated" | "high-gain" | "quartic-synthesis"
    info: dict


def synthesize_quartic(net: Netlist) -> BuiltModel:
    """Engineered-oscillator model from the closed-form coefficients.

    The high-gain limit of the multi-loop construction is, by design, the
    polynomial Hamiltonian sum_k chi_k x^k; this synthesizes it directly
    from the loop parameters and attaches the declared loss channels.
    """
    q = extract_quartic(net)
    if net.has_drive and net.drive_A > 0 and (
        abs(net.drive_phi + math.pi / 2) > 1e-9
    ):
        raise PhysicsValidationError(
            "the direct drive line must run at phi = -pi/2 (position-"
            f"quadrature drive); declared phi = {net.drive_phi!r}"
        )
    qc = quartic_coefficients(
        G1=q.G1, G3=q.G3, gamma=q.gamma,
        gamma1=q.gamma1, gamma2=q.gamma2, gamma3=q.gamma3,
        A1=q.A1, A3=q.A3, A4=q.A4,
    )
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
    if not net.run.compensate_linear and qc.chi1:
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
        "linear_term_compensated": net.run.compensate_linear,
    }
    return BuiltModel(model=model, kind="quartic-synthesis", info=info)


def build_model(net: Netlist) -> BuiltModel:
    """Assemble the simulation model a netlist describes."""
    if net.loops and net.run.high_gain and _quartic_template_matches(net):
        return synthesize_quartic(net)
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
    per_loop = []
    for lp in net.loops:
        spec = FeedbackLoopSpec(
            plant_H=OperatorExpr.zero(net.registry),
            theta=lp.theta,
            L=lp.L,
            L_f=lp.L_f,
            amp=lp.amp,
            A=lp.A,
            phi=lp.phi,
        )
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
# Artifact emission
# ---------------------------------------------------------------------------

def _norm_cell(v, json_safe: bool = False):
    """Coerce numpy scalars to plain Python so emission is library-agnostic."""
    if isinstance(v, np.floating):
        v = float(v)
    elif isinstance(v, np.integer):
        v = int(v)
    if json_safe and isinstance(v, float) and math.isnan(v):
        return None
    return v


def _fmt_cell(v) -> str:
    v = _norm_cell(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _content_hash(manifest: dict) -> str:
    scrubbed = {k: v for k, v in manifest.items()
                if k not in ("timestamp", "content_hash")}
    blob = json.dumps(scrubbed, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_table(path: Path, columns, rows, manifest_hash: str,
                 fmt: str) -> None:
    if fmt == "json":
        payload = {
            "manifest_hash": manifest_hash,
            "columns": list(columns),
            "rows": [[_norm_cell(v, json_safe=True) for v in row] for row in rows],
        }
        path.with_suffix(".json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        return
    lines = [f"# manifest_hash={manifest_hash}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    path.with_suffix(".csv").write_text("\n".join(lines) + "\n")


def _dual_unit_lines(x: OperatorExpr) -> list[str]:
    """Per-term table: coefficient in rad/us and MHz (nu = omega/2pi)."""
    if x.is_zero:
        return ["  (zero)"]
    from .netlist import _fmt_complex_plain  # canonical complex formatting

    lines = []
    for mono, coeff in x.iter_terms():
        ops = []
        for (p, qq), label in zip(mono, x.registry.labels):
            if p:
                ops.append(f"ad@{label}" + (f"^{p}" if p > 1 else ""))
            if qq:
                ops.append(f"a@{label}" + (f"^{qq}" if qq > 1 else ""))
        name = " ".join(ops) if ops else "1"
        mhz = coeff / TWO_PI
        lines.append(
            f"  {_fmt_complex_plain(coeff):>28} rad/us"
            f"  = {_fmt_complex_plain(mhz):>28} MHz_over_2pi   {name}"
        )
    return lines


def _model_summary(built: BuiltModel) -> str:
    out = [f"model: {built.kind}", "H_eff:"]
    out.extend(_dual_unit_lines(built.model.H_eff))
    if built.model.channels:
        out.append("dissipation channels:")
        for ch in built.model.channels:
            out.append(
                f"  rate {ch.rate_prefactor!r} /us, bath {ch.bath.kind.value}:"
                f" {format_operator(ch.op)}"
            )
    else:
        out.append("dissipation channels: none (closed system)")
    return "\n".join(out)


def _freq_row(name: str, value_rad_us: float):
    return (name, value_rad_us, value_rad_us / TWO_PI)


# ---------------------------------------------------------------------------
# Task runners
# ---------------------------------------------------------------------------

def _leak_report(manifest, notes, leak, rho, net) -> None:
    """Record the truncation check of the state ``rho`` with the largest
    leak; on failure add a warning naming the worst mode to ``notes``."""
    manifest["leak_report"] = {"max_leak": leak, "threshold": LEAK_THRESHOLD,
                               "within_threshold": leak < LEAK_THRESHOLD}
    if leak < LEAK_THRESHOLD:
        return
    dims = net.registry.dims
    per_mode = [fock_leak(partial_trace(rho, dims, (k,)), (d,))
                for k, d in enumerate(dims)]
    k = int(np.argmax(per_mode))
    notes.append(
        f"warning: truncation check failed: Fock leak {leak:.3g} exceeds "
        f"threshold {LEAK_THRESHOLD:g} in mode {net.registry.labels[k]} "
        f"(truncation {dims[k]})"
    )


def _run_time_series(net, built, outdir, fmt, manifest, notes):
    """evolve / fano / nongauss share one trajectory pipeline."""
    liou = build_liouvillian(built.model, net.registry)
    rho0 = _initial_state(net)
    t_grid = list(np.linspace(0.0, net.run.t_max, net.run.n_points))
    stats: dict = {}
    states = integrate(liou, rho0, t_grid, stats=stats)
    dims = net.registry.dims
    leaks = []
    recs = []
    for t, st in zip(t_grid, states):
        leaks.append(fock_leak(st.mat, dims))
        f = fano_factor(st, dims, 0)
        delta = non_gaussianity(st, dims, 0)
        nbar = _mean_n(st, dims)
        recs.append((t, nbar, f, delta))
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
    manifest["integrator_stats"] = stats
    worst = int(np.argmax(leaks))
    _leak_report(manifest, notes, leaks[worst], states[worst].mat, net)
    manifest["results"] = {
        "final_t_us": t_grid[-1],
        "final_mean_n": recs[-1][1],
        "final_fano": recs[-1][2],
        "final_delta": recs[-1][3],
        "peak_delta": recs[peak_idx][3],
        "peak_delta_t_us": t_grid[peak_idx],
    }
    return columns, rows


def _mean_n(st: DensityMatrix, dims) -> float:
    red = st.mat if len(dims) == 1 else partial_trace(st.mat, dims, (0,))
    return float(np.diag(red).real @ np.arange(red.shape[0]))


def _run_steady(net, built, outdir, fmt, manifest, notes):
    liou = build_liouvillian(built.model, net.registry)
    stats: dict = {}
    rho = steady_state(liou, stats=stats)
    dims = net.registry.dims
    f = fano_factor(rho, dims, 0)
    delta = non_gaussianity(rho, dims, 0)
    nbar = _mean_n(rho, dims)
    purity = float(np.trace(rho.mat @ rho.mat).real)
    leak = fock_leak(rho.mat, dims)
    manifest["integrator_stats"] = stats
    _leak_report(manifest, notes, leak, rho.mat, net)
    manifest["results"] = {
        "mean_n": nbar, "fano": f, "delta": delta, "purity": purity,
    }
    columns = ("mean_n", "fano", "delta", "purity")
    rows = [(nbar, f, delta, purity)]
    return columns, rows


def _run_g2(net, built, outdir, fmt, manifest, notes):
    if len(net.registry) != 1:
        raise PhysicsValidationError("g2 task supports single-mode netlists")
    liou = build_liouvillian(built.model, net.registry)
    steady_stats: dict = {}
    rho = steady_state(liou, stats=steady_stats)
    taus = list(np.linspace(0.0, net.run.t_max, net.run.n_points))
    stats: dict = {}
    vals = g2(built.model, rho, taus, net.registry, stats=stats)
    tau_star = net.run.tau_star
    columns = ("tau_us", "tau_over_taustar", "g2")
    rows = [(t, t / tau_star, v) for t, v in zip(taus, vals)]
    leak = fock_leak(rho.mat, net.registry.dims)
    manifest["integrator_stats"] = {**stats, "method": "regression+RK45",
                                    "steady_state": steady_stats}
    _leak_report(manifest, notes, leak, rho.mat, net)
    manifest["results"] = {
        "g2_0": vals[0],
        "g2_max": max(vals),
        "g2_max_tau_us": taus[int(np.argmax(vals))],
        "antibunched": max(vals[1:]) > vals[0] if len(vals) > 1 else False,
        "steady_mean_n": _mean_n(rho, net.registry.dims),
        "tau_star_us": tau_star,
    }
    return columns, rows


def _run_kerr_coeffs(net, built, outdir, fmt, manifest):
    columns = ("quantity", "rad_per_us", "MHz_over_2pi")
    if len(net.registry) == 2:
        ck = extract_cross_kerr(net)
        chi = cross_kerr_coefficient(ck.G0, ck.gamma_a, ck.gamma_b)
        rows = [_freq_row("chi_cross", chi)]
        manifest["results"] = {
            "chi_cross_rad_us": chi,
            "chi_cross_MHz": chi / TWO_PI,
            "G0": ck.G0,
            "gamma_a_rad_us": ck.gamma_a,
            "gamma_b_rad_us": ck.gamma_b,
        }
        return columns, rows
    k = extract_kerr(net)
    delta, chi = kerr_coefficients(k.G0, k.gamma_a, k.A_T)
    rows = [
        _freq_row("chi", chi),
        _freq_row("delta", delta),
        _freq_row("omega_a", k.omega_a),
        _freq_row("omega_a_minus_delta", k.omega_a - delta),
    ]
    manifest["results"] = {
        "chi_rad_us": chi,
        "delta_rad_us": delta,
        "omega_a_minus_delta_rad_us": k.omega_a - delta,
        "chi_MHz": chi / TWO_PI,
        "omega_a_minus_delta_MHz": (k.omega_a - delta) / TWO_PI,
        "G0": k.G0,
        "gamma_a_rad_us": k.gamma_a,
    }
    return columns, rows


def _run_quartic_coeffs(net, built, outdir, fmt, manifest):
    q = extract_quartic(net)
    qc = quartic_coefficients(
        G1=q.G1, G3=q.G3, gamma=q.gamma, gamma1=q.gamma1,
        gamma2=q.gamma2, gamma3=q.gamma3, A1=q.A1, A3=q.A3, A4=q.A4,
    )
    columns = ("quantity", "rad_per_us", "MHz_over_2pi")
    rows = [
        _freq_row("chi1", qc.chi1),
        _freq_row("chi2", qc.chi2),
        _freq_row("chi3", qc.chi3),
        _freq_row("chi4", qc.chi4),
    ]
    manifest["results"] = {
        "chi_rad_us": [qc.chi1, qc.chi2, qc.chi3, qc.chi4],
        "chi_MHz": [c / TWO_PI for c in
                    (qc.chi1, qc.chi2, qc.chi3, qc.chi4)],
        "induced_G2": qc.G2,
        "induced_A2": qc.A2,
    }
    return columns, rows


def _run_oracle_sweep(net, built, outdir, fmt, manifest):
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
    spec = FeedbackLoopSpec(
        plant_H=net.plant_H, theta=lp.theta, L=lp.L, L_f=lp.L_f,
        amp=lp.amp, A=lp.A, phi=lp.phi,
    )
    report = elimination_error(
        spec, (10.0, 30.0, 100.0), gamma_ref=gamma_ref,
        rho_plant0=_initial_state(net),
    )
    columns = ("kappa_over_gamma", "trace_distance")
    rows = [(r.kappa_over_gamma, r.trace_distance) for r in report.rows]
    manifest["results"] = {
        "verdict": report.verdict,
        "probe_time_us": report.probe_time,
        "distances": list(report.distances),
    }
    return columns, rows


_MODEL_TASKS = {
    Task.EVOLVE: _run_time_series,
    Task.FANO: _run_time_series,
    Task.NONGAUSS: _run_time_series,
    Task.STEADY: _run_steady,
    Task.G2: _run_g2,
}
_COEFF_TASKS = {
    Task.KERR_COEFFS: _run_kerr_coeffs,
    Task.QUARTIC_COEFFS: _run_quartic_coeffs,
    Task.ORACLE_SWEEP: _run_oracle_sweep,
}


def run_netlist(net: Netlist, outdir: Path, fmt: str = "csv",
                seed: int | None = None,
                source_text: str | None = None,
                quiet: bool = False) -> dict:
    """Execute a parsed netlist's run block; returns the manifest."""
    outdir.mkdir(parents=True, exist_ok=True)
    task = net.run.task
    manifest: dict = {
        "task": task.value,
        "seed": seed,
        "netlist_sha256": hashlib.sha256(
            (source_text or "").encode()
        ).hexdigest() if source_text else None,
        "resolved": _resolved_params(net),
    }

    built = None
    notes: list[str] = []  # failed adequacy checks: stderr and summary.txt
    if task in _MODEL_TASKS:
        built = build_model(net)
        manifest["model_kind"] = built.kind
        manifest["model_info"] = built.info
        columns, rows = _MODEL_TASKS[task](net, built, outdir, fmt, manifest,
                                           notes)
    else:
        columns, rows = _COEFF_TASKS[task](net, built, outdir, fmt, manifest)
    for note in notes:
        print(note, file=sys.stderr)

    manifest["content_hash"] = _content_hash(manifest)
    _write_table(outdir / task.value, columns, rows,
                 manifest["content_hash"], fmt)

    summary_lines = [f"task: {task.value}"]
    if built is not None:
        summary_lines.append(_model_summary(built))
    if task in (Task.KERR_COEFFS, Task.QUARTIC_COEFFS):
        summary_lines.append("coefficients:")
        for nm, rad_us, mhz in rows:
            summary_lines.append(
                f"  {nm:>22}: {rad_us!r} rad/us = {mhz!r} MHz_over_2pi"
            )
    summary_lines.append(
        "results: "
        + json.dumps(manifest.get("results", {}), sort_keys=True)
    )
    summary_lines.extend(notes)
    summary = "\n".join(summary_lines) + "\n"
    (outdir / "summary.txt").write_text(summary)
    if not quiet:
        sys.stdout.write(summary)

    manifest["timestamp"] = datetime.datetime.now(
        datetime.timezone.utc
    ).isoformat()
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    )
    return manifest


def _resolved_params(net: Netlist) -> dict:
    return {
        "modes": [
            {"label": l, "truncation": d}
            for l, d in zip(net.registry.labels, net.registry.dims)
        ],
        "plant_H": format_operator(net.plant_H),
        "losses": [
            {"mode": l, "rate_rad_us": r} for l, r in net.losses
        ],
        "loops": [
            {
                "ident": lp.ident,
                "theta": lp.theta,
                "L": format_operator(lp.L),
                "L_f": format_operator(lp.L_f),
                "kappa_rad_us": lp.amp.kappa,
                "xi_rad_us": lp.amp.xi,
                "r0": lp.amp.r0,
                "G0": lp.amp.G0,
                "A": lp.A,
                "phi": lp.phi,
            }
            for lp in net.loops
        ],
        "drive": (
            {"A": net.drive_A, "phi": net.drive_phi}
            if net.has_drive else None
        ),
        "run": {
            "task": net.run.task.value,
            "t_max_us": net.run.t_max,
            "n_points": net.run.n_points,
            "initial_state": str(net.run.initial_state),
            "compensate_linear": net.run.compensate_linear,
            "high_gain": net.run.high_gain,
            "tau_star_us": net.run.tau_star,
        },
    }


# ---------------------------------------------------------------------------
# Overrides and sweeps
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
                from .network import AmplifierParams

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


def _parse_sweep(arg: str):
    try:
        key, rng = arg.split("=", 1)
        lo, hi, n = rng.split(":")
        return key.strip(), float(lo), float(hi), int(n)
    except ValueError:
        raise PhysicsValidationError(
            f"--sweep expects key=lo:hi:n, got {arg!r}"
        )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="slhnet",
        description="Compose coherent-feedback networks, eliminate the "
        "amplifier, integrate the master equation, and report "
        "nonclassicality observables.",
    )
    p.add_argument("--netlist", required=True, help="netlist file path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sweep", default=None, metavar="key=lo:hi:n",
                   help="fan out runs over a numeric netlist key "
                   "(values in canonical units: rad/us, us, raw)")
    p.add_argument("--truncation-override", type=int, default=None,
                   help="replace every mode truncation")
    p.add_argument("--seed", type=int, default=None,
                   help="reserved; pipeline is deterministic "
                   "(recorded in the manifest)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        text = Path(args.netlist).read_text()
    except OSError as e:
        print(f"error: cannot read netlist: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        net = parse(text)
    except NetlistParseError as e:
        for d in e.diagnostics:
            print(f"{args.netlist}:{d}", file=sys.stderr)
        return EXIT_PARSE

    try:
        if args.truncation_override is not None:
            if args.truncation_override < 2:
                raise PhysicsValidationError(
                    "--truncation-override must be >= 2"
                )
            net = retruncate(net, args.truncation_override)

        outdir = Path(args.out)
        if args.sweep is None:
            run_netlist(net, outdir, fmt=args.format, seed=args.seed,
                        source_text=text)
            return EXIT_OK

        key, lo, hi, n = _parse_sweep(args.sweep)
        if n < 1:
            raise PhysicsValidationError("--sweep needs n >= 1")
        values = list(np.linspace(lo, hi, n))
        nets = [(v, override_key(net, key, float(v))) for v in values]

        def one(pair):
            v, nv = pair
            sub = outdir / f"{key.replace('.', '_')}={v:.9g}"
            run_netlist(nv, sub, fmt=args.format, seed=args.seed,
                        source_text=text, quiet=True)
            return sub

        with concurrent.futures.ThreadPoolExecutor(
            max_workers=min(8, len(nets))
        ) as ex:
            for sub in ex.map(one, nets):
                print(f"wrote {sub}")
        return EXIT_OK
    except (PhysicsValidationError, NetworkError) as e:
        print(f"physics validation error: {e}", file=sys.stderr)
        return EXIT_PHYSICS
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
