"""The benchmark's span tracer (``bench/tracer.py``) still finds every name
it wraps: a name moved out of the module the tracer resolves it in fails
here instead of only under ``bench/run.py --trace 1``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import slhnet.cli
import slhnet.pipeline

from .test_cli import EVOLVE_NET, run_cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_cli_run(tmp_path, capsys):
    build_model = slhnet.cli.build_model
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        run_cli(tmp_path, EVOLVE_NET)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    layers = tracer.summarize(0, len(tracer.spans))
    calls = layers["calls"]
    assert calls["cli.run_netlist"] == 1
    assert calls["cli.build_model"] == 1
    assert calls["lindblad.build_liouvillian"] == 1
    assert calls["lindblad.integrate"] == 1
    assert layers["rhs_evals"] > 0
    assert slhnet.cli.build_model is build_model
    assert slhnet.pipeline.build_model is build_model
