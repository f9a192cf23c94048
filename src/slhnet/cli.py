"""Command-line entry point: arguments in, artifacts out.

``slhnet --netlist FILE --out DIR`` parses the netlist, applies
``--truncation-override`` and, with ``--sweep key=lo:hi:n``, runs one point
per value into ``DIR/<key>=<value>`` (one after another, in sweep order).
The model building and the tasks are ``pipeline.run``; per run the output
directory receives

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
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .algebra import OperatorExpr, format_complex, format_operator
from .lindblad import NumericalFailure, PhysicsValidationError
from .netlist import Netlist, NetlistParseError, Task, parse
from .network import NetworkError
# build_model is bound here too: callers, and the benchmark's tracer,
# resolve it as slhnet.cli.build_model
from .pipeline import BuiltModel, build_model, override_key, retruncate, run

TWO_PI = 2.0 * math.pi
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PHYSICS = 3
EXIT_NUMERICS = 4


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
            f"  {format_complex(coeff):>28} rad/us"
            f"  = {format_complex(mhz):>28} MHz_over_2pi   {name}"
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


def run_netlist(net: Netlist, outdir: Path, fmt: str = "csv",
                source_text: str | None = None,
                quiet: bool = False) -> dict:
    """Execute a parsed netlist's run block; returns the manifest."""
    outdir.mkdir(parents=True, exist_ok=True)
    task = net.run.task
    manifest: dict = {
        "task": task.value,
        "netlist_sha256": hashlib.sha256(
            source_text.encode()
        ).hexdigest() if source_text else None,
        "resolved": _resolved_params(net),
    }

    res = run(net)
    if res.built is not None:
        manifest["model_kind"] = res.built.kind
        manifest["model_info"] = res.built.info
    if res.integrator_stats is not None:
        manifest["integrator_stats"] = res.integrator_stats
    if res.leak_report is not None:
        manifest["leak_report"] = res.leak_report
    manifest["results"] = res.results
    for note in res.notes:
        print(note, file=sys.stderr)

    manifest["content_hash"] = _content_hash(manifest)
    _write_table(outdir / task.value, res.columns, res.rows,
                 manifest["content_hash"], fmt)

    summary_lines = [f"task: {task.value}"]
    if res.built is not None:
        summary_lines.append(_model_summary(res.built))
    if task in (Task.KERR_COEFFS, Task.QUARTIC_COEFFS):
        summary_lines.append("coefficients:")
        for nm, rad_us, mhz in res.rows:
            summary_lines.append(
                f"  {nm:>22}: {rad_us!r} rad/us = {mhz!r} MHz_over_2pi"
            )
    summary_lines.append(
        "results: " + json.dumps(res.results, sort_keys=True)
    )
    summary_lines.extend(res.notes)
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
            "high_gain": net.run.high_gain,
            "tau_star_us": net.run.tau_star,
        },
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_sweep(arg: str):
    try:
        key, rng = arg.split("=", 1)
        lo, hi, n = rng.split(":")
        return key.strip(), float(lo), float(hi), int(n)
    except ValueError:
        raise PhysicsValidationError(
            f"--sweep expects key=lo:hi:n, got {arg!r}"
        )


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
            run_netlist(net, outdir, fmt=args.format, source_text=text)
            return EXIT_OK

        key, lo, hi, n = _parse_sweep(args.sweep)
        if n < 1:
            raise PhysicsValidationError("--sweep needs n >= 1")
        values = list(np.linspace(lo, hi, n))
        nets = [(v, override_key(net, key, float(v))) for v in values]
        for v, nv in nets:
            sub = outdir / f"{key.replace('.', '_')}={v:.9g}"
            run_netlist(nv, sub, fmt=args.format, source_text=text,
                        quiet=True)
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
