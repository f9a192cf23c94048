"""The OpenBLAS thread policy: one thread in each bundled copy inside
slhnet's calls, the caller's counts outside them, and a user's own setting
kept."""

from __future__ import annotations

import json

import pytest

from slhnet import blas
from slhnet.cli import main

pytestmark = pytest.mark.skipif(not blas.bundled(),
                                reason="no bundled OpenBLAS found")

STEADY_NET = """
mode.a = 6
plant.H = 0.5 rad_per_us * ad@a^2 * a@a^2
bath.loss.a = 1.0 rad_per_us
run.task = steady
"""


def counts() -> dict:
    return {name: get() for name, (get, _) in blas.bundled().items()}


@pytest.fixture
def caller_counts(monkeypatch):
    """Two threads in every copy and no user setting, for the test only."""
    for key in blas.USER_SETTINGS:
        monkeypatch.delenv(key, raising=False)
    before = counts()
    for _, set_ in blas.bundled().values():
        set_(2)
    assert counts() == {name: 2 for name in before}
    yield counts()
    for name, (_, set_) in blas.bundled().items():
        set_(before[name])


def run_cli(tmp_path, sub: str) -> dict:
    nl = tmp_path / "in.net"
    nl.write_text(STEADY_NET)
    assert main(["--netlist", str(nl), "--out", str(tmp_path / sub)]) == 0
    return json.loads((tmp_path / sub / "manifest.json").read_text())


def test_one_thread_inside_and_the_callers_counts_after(caller_counts):
    with blas.single_thread() as threads:
        assert threads == counts() == {name: 1 for name in caller_counts}
    assert counts() == caller_counts
    with pytest.raises(RuntimeError):
        with blas.single_thread():
            raise RuntimeError
    assert counts() == caller_counts


def test_nested_entry_restores_the_callers_counts(caller_counts):
    ones = {name: 1 for name in caller_counts}
    with blas.single_thread():
        with blas.single_thread() as inner:
            assert inner == ones
        assert counts() == ones
    assert counts() == caller_counts


@pytest.mark.parametrize("key", blas.USER_SETTINGS)
def test_a_user_setting_is_kept(caller_counts, monkeypatch, tmp_path,
                                capsys, key):
    monkeypatch.setenv(key, "2")
    with blas.single_thread() as threads:
        assert threads == counts() == caller_counts
    assert run_cli(tmp_path, "o")["blas_threads"] == caller_counts


def test_blas_threads_stay_outside_the_content_hash(caller_counts,
                                                    monkeypatch, tmp_path,
                                                    capsys):
    one = run_cli(tmp_path, "one")
    assert counts() == caller_counts
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    two = run_cli(tmp_path, "two")
    assert one["blas_threads"] == {name: 1 for name in caller_counts}
    assert two["blas_threads"] == caller_counts
    assert one["content_hash"] == two["content_hash"]
    assert one["results"] == two["results"]
