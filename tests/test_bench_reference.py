"""The benchmark's external check of the propagator, as a test: the seed-1
``quartic-transient`` operation of ``bench/workloads.py`` runs through
``cli.main``, and ``bench/reference.py`` compares its table with a
numpy/scipy ``expm_multiply`` propagation made without ``slhnet``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from slhnet.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartic_transient_matches_reference(tmp_path, capsys):
    (op,) = load("workloads").generate("quartic-transient", 1)
    netlist = tmp_path / "quartic.net"
    netlist.write_text(op["netlist"])
    out = tmp_path / "out"
    assert main(["--netlist", str(netlist), "--out", str(out)]) == 0
    capsys.readouterr()
    assert load("reference").QuarticTransient(op).check(out) == []
