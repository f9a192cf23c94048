"""Benchmark of ``slhnet``: three workloads, timed end to end and per module.

    python3 bench/run.py --workload quartic-transient --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Generates the workload's netlists from
the seed, times a fresh process importing the package (``setup_s``), runs
the operations in one fresh worker process (``wall_s``, ``peak_rss_mb``),
then checks every output against references computed here with numpy and
scipy alone.  ``--trace 1`` instead runs a cold untraced round, then
traced and warm untraced rounds in turn, and reports the per-layer metrics
of ``BENCHMARK.json``.  The last line of
standard output is the result as JSON; the full record, environment
included, goes to ``.bench_out/<workload>-seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from reference import CHECKS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_RUNS = 5
SETUP_TIMEOUT_S = 20
WORKER_TIMEOUT_S = 150


def package_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing the package."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import slhnet.cli"], env=env,
                       check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(rounds: list[dict], spec: list[dict]) -> dict:
    """Per-layer metrics from the traced rounds, by metric-name suffix:
    ``.s`` median self time, ``.calls``/``.rhs_evals``/``.bytes`` counts of
    one round (they repeat exactly), ``trace.overhead_s`` the median traced
    round minus the median warm untraced round (the first round is cold)."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds[1:] if not r["traced"]]
    layers = [r["layers"] for r in traced]
    out = {}
    for m in spec:
        name = m["name"]
        span, _, kind = name.rpartition(".")
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(r["wall_s"] for r in plain))
        elif name == "trace.spans":
            value = sum(layers[0]["calls"].values())
        elif kind == "s":
            value = statistics.median(lay["self_s"].get(span, 0.0) for lay in layers)
        elif kind == "calls":
            value = layers[0]["calls"].get(span, 0)
        elif kind == "rhs_evals":
            value = layers[0]["rhs_evals"]
        elif kind == "bytes":
            value = layers[0]["bytes"].get(span, 0)
        else:
            raise ValueError(f"no rule for per-layer metric {name!r}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "slhnet" / "__init__.py").is_file():
        print(f"error: no slhnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "inputs").mkdir(parents=True)
    ops = generate(args.workload, args.seed)
    worker_ops = []
    for op in ops:
        path = out / "inputs" / f"{op['name']}.net"
        path.write_text(op["netlist"])
        worker_ops.append(dict(op, netlist=str(path)))
    (out / "ops.json").write_text(json.dumps(worker_ops, indent=1))

    env = package_env()
    setup_s = measure_setup(env)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--ops", str(out / "ops.json"),
         "--out", str(out), "--record", str(out / "worker.json"),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads((out / "worker.json").read_text())

    # Checks run here, outside the measured worker process.
    refs = {op["name"]: CHECKS[op["check"]](op) for op in ops}
    attempted = failed = wrong = 0
    failures = []
    for k, rnd in enumerate(record["rounds"]):
        for res in rnd["ops"]:
            attempted += 1
            errors = ([res["error"]] if res["error"]
                      else refs[res["name"]].check(out / f"round{k}" / res["name"]))
            if errors:
                failed += 1
                wrong += res["error"] is None
                failures.append({"round": k, "op": res["name"], "errors": errors})

    if args.trace:
        metrics = layer_metrics(record["rounds"], spec["per_layer"])
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in record["rounds"]),
            "setup_s": setup_s,
            "peak_rss_mb": record["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": record["environment"],
        "setup_s": setup_s, "round_wall_s": [r["wall_s"] for r in record["rounds"]],
        "round_cpu_s": [r["cpu_s"] for r in record["rounds"]],
        "failures": failures, "result": result,
    }, indent=1))
    for f in failures:
        print(f"FAILED round {f['round']} {f['op']}: {f['errors'][0]}", file=sys.stderr)
    env_rec = record["environment"]
    print(f"{args.workload} seed={args.seed} rounds={len(record['rounds'])} "
          + " ".join(f"{k}={v}" for k, v in env_rec.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
