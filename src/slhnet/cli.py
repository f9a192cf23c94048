"""Command-line entry point: arguments in, artifacts out.

``slhnet --netlist FILE --out DIR`` parses the netlist and runs its task.
Two options set netlist keys through the parser, so a set value meets the
bounds of a written one:

* ``--truncation-override N`` sets every ``mode.<label>`` to N;
* ``--sweep key=lo:hi:n`` runs one point per value of any numeric netlist
  key, in canonical units (rad/us, us, raw), into ``DIR/<key>=<value>``
  (the value to 9 significant digits), one after another in sweep order.

Every point is parsed before any runs; a value the parser rejects, or two
values that share a directory name, exit 3.
The model building and the tasks are ``pipeline.run``; per run the output
directory receives

* ``<task>.csv`` (or ``.json`` with ``--format json``): the task's data
  table, first column ``t_us``/``tau_us`` for time series, with a
  ``# manifest_hash=...`` header line tying it to the manifest;
* ``manifest.json``: under ``resolved``, the netlist the run used
  (overrides and sweep values set) as canonical netlist text
  (``netlist.format_netlist``), which ``netlist.parse`` reads back to the
  same ``Netlist``; then the truncation-leak report, integrator
  statistics, results, content hash and timestamp, and ``blas_threads``,
  the OpenBLAS thread count each bundled copy (numpy's, scipy's) ran
  with, or null when none was found (``blas.single_thread``).  Like the
  timestamp, ``blas_threads`` stays outside the content hash: the count
  changes no recorded value;
* ``summary.txt``: the effective model pretty-printed with every
  coefficient in both rad/us and MHz (frequency nu = omega / 2 pi)
  plus headline results, and a warning line when the truncation check
  or a steady state's residual check failed (the same line also goes to
  stderr).

The ``g2`` task reports two distinct properties of the steady-state light
(Zou & Mandel, PRA 41, 475 (1990)): ``sub_poissonian``, photon counts
narrower than Poisson, and ``antibunched``, max g2(tau > 0) > g2(0), g2
rising from zero delay.  Bunched light (g2(0) > 1) can be antibunched.
``sub_poissonian`` is 1 - Fano > 1e-6, the leak threshold, below which
truncation and rounding decide the sign; ``g2`` tests <n>(1 - g2(0)),
which is 1 - Fano for one mode.  Fano is NaN, not sub-Poissonian, at
<n> <= 1e-12, where it would be a ratio of rounding errors.

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

from .algebra import (
    OperatorExpr,
    format_complex,
    format_operator,
    monomial_factors,
)
from .lindblad import NumericalFailure, PhysicsValidationError
from .netlist import Netlist, NetlistParseError, Task, format_netlist, parse
from .network import NetworkError
# build_model is bound here too: callers, and the benchmark's tracer,
# resolve it as slhnet.cli.build_model
from .pipeline import BuiltModel, build_model, run

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
                if k not in ("timestamp", "blas_threads", "content_hash")}
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
        name = " ".join(monomial_factors(mono, x.registry.labels)) or "1"
        lines.append(
            f"  {format_complex(coeff):>28} rad/us"
            f"  = {format_complex(coeff / TWO_PI):>28} MHz_over_2pi   {name}"
        )
    return lines


def _model_summary(built: BuiltModel) -> str:
    out = [f"model: {built.kind}", "H_eff:"]
    out.extend(_dual_unit_lines(built.model.H_eff))
    if built.model.channels:
        out.append("dissipation channels:")
        for ch in built.model.channels:
            out.append(
                f"  rate {ch.rate_prefactor!r} /us, bath vacuum:"
                f" {format_operator(ch.op)}"
            )
    else:
        out.append("dissipation channels: none (closed system)")
    return "\n".join(out)


def run_netlist(net: Netlist, outdir: Path, fmt: str = "csv",
                source_text: str | None = None,
                quiet: bool = False) -> dict:
    """Execute a parsed netlist's run block; returns the manifest.  A run
    that raises writes nothing, ``outdir`` included."""
    task = net.run.task
    manifest: dict = {
        "task": task.value,
        "netlist_sha256": hashlib.sha256(
            source_text.encode()
        ).hexdigest() if source_text else None,
        "resolved": format_netlist(net),
    }

    res = run(net)
    outdir.mkdir(parents=True, exist_ok=True)
    if res.built is not None:
        manifest["model_kind"] = res.built.kind
        manifest["model_info"] = res.built.info
    if res.integrator_stats is not None:
        manifest["integrator_stats"] = res.integrator_stats
    if res.leak_report is not None:
        manifest["leak_report"] = res.leak_report
    manifest["results"] = res.results
    manifest["blas_threads"] = res.blas_threads
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


def _parse_with(text: str, overrides: dict) -> Netlist:
    """The netlist with ``overrides`` set; a value out of its key's bounds
    is a physics validation error."""
    try:
        return parse(text, overrides)
    except NetlistParseError as e:
        given = ", ".join(f"{k} = {v!r}" for k, v in overrides.items())
        raise PhysicsValidationError(f"{given}: {e}") from None


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
                   help="fan out runs over any numeric netlist key (values "
                   "in canonical units: rad/us, us, raw), each held to the "
                   "parser's bounds on that key")
    p.add_argument("--truncation-override", type=int, default=None,
                   help="set every mode.<label> to this truncation")
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
        base = {}
        if args.truncation_override is not None:
            base = {f"mode.{l}": args.truncation_override
                    for l in net.registry.labels}
        outdir = Path(args.out)
        if args.sweep is None:
            points = [(outdir, base)]
        else:
            key, lo, hi, n = _parse_sweep(args.sweep)
            if n < 1:
                raise PhysicsValidationError("--sweep needs n >= 1")
            points = [
                (outdir / f"{key.replace('.', '_')}={v:.9g}",
                 {**base, key: float(v)})
                for v in np.linspace(lo, hi, n)
            ]
            # the values are monotone, so equal names are neighbours
            for (sa, a), (sb, b) in zip(points, points[1:]):
                if sa == sb:
                    raise PhysicsValidationError(
                        f"--sweep values {a[key]!r} and {b[key]!r} share the "
                        f"output directory {sa.name} (names keep 9 "
                        "significant digits)"
                    )
        nets = [(sub, _parse_with(text, ov) if ov else net)
                for sub, ov in points]
        for sub, nv in nets:
            run_netlist(nv, sub, fmt=args.format, source_text=text,
                        quiet=args.sweep is not None)
            if args.sweep is not None:
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
