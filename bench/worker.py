"""One workload in one fresh process: the process whose memory is measured.

Runs whole rounds of the workload's operations until the next round would
end after ``--seconds``, and at least one round.  With ``--trace 1`` the
rounds after the first alternate traced and untraced, at least one of
each, so both are compared warm.  Writes each operation's outputs under
``--out`` and a JSON record of the rounds to ``--record``.  Correctness is
checked afterwards by ``run.py``, outside this process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import slhnet.cli
from slhnet import netlist, network, oracle
from slhnet.lindblad import DensityMatrix

from tracer import Tracer


def blas_threads():
    """OpenBLAS thread count from the library numpy loaded, if it says."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (AttributeError, OSError):
                continue
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
    }


def run_cli(op: dict, out: Path) -> None:
    rc = slhnet.cli.main(["--netlist", op["netlist"], "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"slhnet exited with code {rc}")


def run_oracle(op: dict, out: Path) -> None:
    """Elimination-error sweep through the library (the CLI fixes the
    amplifier truncation at 20)."""
    p = op["params"]
    net = netlist.parse(Path(op["netlist"]).read_text())
    lp = net.loops[0]
    spec = network.FeedbackLoopSpec(
        plant_H=net.plant_H, theta=lp.theta, L=lp.L, L_f=lp.L_f,
        amp=lp.amp, A=lp.A, phi=lp.phi,
    )
    report = oracle.elimination_error(
        spec, tuple(p["ratios"]), gamma_ref=1.0,
        rho_plant0=DensityMatrix.vacuum(net.registry.dims[0]),
        amp_dim=p["amp_dim"],
    )
    out.mkdir(parents=True, exist_ok=True)
    (out / "oracle.json").write_text(json.dumps({
        "ratios": [r.kappa_over_gamma for r in report.rows],
        "distances": list(report.distances),
        "verdict": report.verdict,
    }))


RUNNERS = {"cli": run_cli, "oracle": run_oracle}


def run_round(ops: list[dict], out: Path) -> dict:
    results = []
    t0 = time.perf_counter()
    c0 = time.process_time()
    for op in ops:
        error = None
        t_op = time.perf_counter()
        try:
            RUNNERS[op["kind"]](op, out / op["name"])
        except Exception:
            error = traceback.format_exc(limit=3)
        results.append({"name": op["name"], "error": error,
                        "wall_s": time.perf_counter() - t_op})
    return {"wall_s": time.perf_counter() - t0,
            "cpu_s": time.process_time() - c0, "ops": results}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", required=True, help="JSON list of operations")
    ap.add_argument("--out", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ops = json.loads(Path(args.ops).read_text())
    out = Path(args.out)
    tracer = Tracer() if args.trace else None
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            tracer.byte_counts.clear()
            first = len(tracer.spans)
        rec = run_round(ops, out / f"round{len(rounds)}")
        rec["traced"] = traced
        if traced:
            tracer.uninstall()
            rec["layers"] = tracer.summarize(first, len(tracer.spans))
            rec["layers"]["bytes"] = dict(tracer.byte_counts)
        rounds.append(rec)
        longest = max(r["wall_s"] for r in rounds)
        done_min = len(rounds) >= (3 if tracer is not None else 1)
        if done_min and time.perf_counter() - start + longest > args.seconds:
            break

    record = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
    }
    if tracer is not None:
        tracer.write(out / "spans.json.gz")
    Path(args.record).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
