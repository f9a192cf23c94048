"""Checks of the workloads' outputs against computations made apart from
``slhnet``, with numpy and scipy alone, from the generated parameters.

* Quartic oscillator: H = omega n + sum_k chi_k x^k with the paper's
  closed-form chi_k (Sec. 5), each x^k normal-ordered and then truncated
  (the convention ``slhnet.lindblad.to_matrix`` states), plus loss D[a];
  propagated with ``expm_multiply`` and compared in <n> and Fano.
* Steady states: sparse solve of L rho = 0 with one row replaced by the
  trace condition; compared in <n>, Fano and purity.
* g2 on the Kerr + drive loops: the adiabatically eliminated model written
  with matrices; g2(0) against its steady state, and g2(tau) -> 1 at long
  delays.
* Oracle: trace distances in (0, 1), falling monotonically with kappa/gamma
  and scaling like the first-order O(gamma/kappa) elimination error.

Every check returns a list of failure messages (empty when it passes).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, spsolve

TWO_PI = 2.0 * math.pi
RTOL = 1e-6  # the package integrates at rtol 1e-8, atol 1e-10
G2_TAIL_TOL = 1e-3
# log-log slope of distance against kappa/gamma; first order means -1
SLOPE_RANGE = (-1.3, -0.7)


def annihilation(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex)


def normal_ordered_x_power(k: int, d: int) -> np.ndarray:
    """Truncation of :x^k: expanded by Wick's theorem, x = (a + a^dag)/sqrt 2.

    (a + a^dag)^k = sum_m k!/(m! (k-2m)! 2^m) :(a + a^dag)^(k-2m):, each
    contraction of a before a^dag giving 1.
    """
    a = annihilation(d)
    ad = a.conj().T
    out = np.zeros((d, d), dtype=complex)
    for m in range(k // 2 + 1):
        n = k - 2 * m
        w = math.factorial(k) / (math.factorial(m) * math.factorial(n) * 2 ** m)
        for p in range(n + 1):
            out += (w * math.comb(n, p)
                    * np.linalg.matrix_power(ad, p) @ np.linalg.matrix_power(a, n - p))
    return out / 2 ** (k / 2)


def quartic_chi(p: dict) -> list[float]:
    """chi_1..chi_4 in rad/us from the closed forms of paper Sec. 5."""
    mhz = [
        math.sqrt(p["A4_sq"] * 2.0 * p["gamma"]),
        4.0 * math.sqrt(p["A1_sq"] * p["G1"] * p["gamma1"])
        - 2.0 * math.sqrt(p["A3_sq"] * p["G3"] * p["gamma3"]),
        2.0 * math.sqrt(p["G3"] * p["gamma"] * p["gamma3"]),
        2.0 * math.sqrt(p["G1"] * p["gamma"] * p["gamma1"]),
    ]
    return [TWO_PI * c for c in mhz]


def liouvillian(H: np.ndarray, channels) -> sp.csr_matrix:
    """Generator on row-major vec(rho): vec(A rho B) = (A kron B^T) vec(rho)."""
    d = H.shape[0]
    eye = sp.identity(d, dtype=complex, format="csr")
    Hs = sp.csr_matrix(H)
    L = -1j * (sp.kron(Hs, eye) - sp.kron(eye, Hs.T))
    for rate, op in channels:
        c = sp.csr_matrix(op)
        cdc = (c.conj().T @ c).tocsr()
        L = L + rate * (sp.kron(c, c.conj()) - 0.5 * sp.kron(cdc, eye)
                        - 0.5 * sp.kron(eye, cdc.T))
    return sp.csr_matrix(L)


def quartic_model(p: dict) -> sp.csr_matrix:
    d = p["dim"]
    a = annihilation(d)
    H = TWO_PI * p["nu_a"] * (a.conj().T @ a)
    for k, chi in enumerate(quartic_chi(p), start=1):
        H = H + chi * normal_ordered_x_power(k, d)
    return liouvillian(H, [(TWO_PI * p["loss"], a)])


def steady(L: sp.csr_matrix, d: int) -> np.ndarray:
    A = L.tolil()
    A[0, :] = np.eye(d, dtype=complex).ravel()  # trace row
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    rho = spsolve(A.tocsc(), b).reshape(d, d)
    return 0.5 * (rho + rho.conj().T)


def photon_stats(rho: np.ndarray) -> tuple[float, float]:
    n = np.arange(rho.shape[0], dtype=float)
    pops = np.diag(rho).real
    mean = float(n @ pops)
    if mean <= 0:
        return mean, math.nan
    return mean, (float((n * n) @ pops) - mean * mean) / mean


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with path.open() as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return {c: np.array([float(r[i]) for r in rows[1:]])
            for i, c in enumerate(rows[0])}


def _close(name: str, got, want, rtol=RTOL, atol=1e-12) -> list[str]:
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    both_nan = np.isnan(got) & np.isnan(want)
    bad = ~both_nan & ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if not bad.any():
        return []
    i = int(np.argmax(bad))
    return [f"{name}[{i}] = {float(got[i])!r}, reference {float(want[i])!r}"]


class QuarticTransient:
    """Reference for the ``nongauss`` trajectory from vacuum."""

    def __init__(self, op: dict):
        p = op["params"]
        d = p["dim"]
        self.t = np.linspace(0.0, p["t_max"], p["n_points"])
        v0 = np.zeros(d * d, dtype=complex)
        v0[0] = 1.0
        vecs = expm_multiply(quartic_model(p), v0, start=0.0,
                             stop=self.t[-1], num=len(self.t), endpoint=True)
        stats = [photon_stats(v.reshape(d, d)) for v in vecs]
        self.mean = np.array([s[0] for s in stats])
        self.fano = np.array([s[1] for s in stats])

    def check(self, out: Path) -> list[str]:
        tab = read_csv(out / "nongauss.csv")
        errs = _close("t_us", tab["t_us"], self.t)
        errs += _close("mean_n", tab["mean_n"], self.mean, atol=1e-9)
        errs += _close("fano", tab["fano"], self.fano)
        delta = tab["delta"]
        if not np.all((delta >= 0) & (delta <= 1)):
            errs.append(f"delta outside [0, 1]: {delta.min()!r}..{delta.max()!r}")
        return errs


class SteadyState:
    def __init__(self, op: dict):
        p = op["params"]
        rho = steady(quartic_model(p), p["dim"])
        self.mean, self.fano = photon_stats(rho)
        self.purity = float(np.trace(rho @ rho).real)

    def check(self, out: Path) -> list[str]:
        tab = read_csv(out / "steady.csv")
        errs = []
        for col, want in (("mean_n", self.mean), ("fano", self.fano),
                          ("purity", self.purity)):
            errs += _close(col, tab[col], want)
        if not 0.0 <= tab["delta"][0] <= 1.0:
            errs.append(f"delta {tab['delta'][0]!r} outside [0, 1]")
        return errs


def _sqrt_rate(mhz: float) -> float:
    return math.sqrt(TWO_PI * mhz)


def eliminated_loop(L, Lf, theta, G0, A, phi):
    """Adiabatically eliminated feedback loop as matrices: (H, Theta).

    H = (i/2)(Lf^dag P - P^dag Lf) + i(conj(beta) e^{-i theta} Lf
    - beta e^{i theta} Lf^dag), P = e^{i theta}(cosh r L + sinh r L^dag),
    Theta = L - cosh r e^{-i theta} Lf + sinh r e^{i theta} Lf^dag, with
    G0 = cosh^2 r and beta = -A[(1 + e^r) sin phi + i (1 + e^-r) cos phi].
    """
    r = math.acosh(math.sqrt(G0))
    ch, sh = math.cosh(r), math.sinh(r)
    s = np.exp(1j * theta)
    beta = -A * ((1 + math.exp(r)) * math.sin(phi)
                 + 1j * (1 + math.exp(-r)) * math.cos(phi))
    Ld, Lfd = L.conj().T, Lf.conj().T
    P = s * (ch * L + sh * Ld)
    H = 0.5j * (Lfd @ P - P.conj().T @ Lf)
    H = H + 1j * (np.conj(beta) * np.conj(s) * Lf - beta * s * Lfd)
    theta_op = L - ch * np.conj(s) * Lf + sh * s * Lfd
    return H, theta_op


class KerrDriveG2:
    def __init__(self, op: dict):
        p = op["params"]
        d = p["dim"]
        a = annihilation(d)
        n = a.conj().T @ a
        Hk, Tk = eliminated_loop(_sqrt_rate(p["gamma_k"]) * n,
                                 _sqrt_rate(p["gamma_k"]) * n,
                                 p["theta_k"], p["G0_k"], 0.0, 0.0)
        Hd, Td = eliminated_loop(_sqrt_rate(p["gamma_d"]) * a,
                                 _sqrt_rate(p["gamma_f"]) * a,
                                 p["theta_d"], p["G0_d"],
                                 _sqrt_rate(p["A_sq"]), p["phi"])
        H = TWO_PI * p["nu_a"] * n + Hk + Hd
        rho = steady(liouvillian(H, [(1.0, Tk), (1.0, Td)]), d)
        nbar = float(np.trace(n @ rho).real)
        a2 = a @ a
        self.g2_0 = float(np.trace(a2.conj().T @ a2 @ rho).real) / nbar ** 2

    def check(self, out: Path) -> list[str]:
        tab = read_csv(out / "g2.csv")
        errs = _close("g2(0)", tab["g2"][0], self.g2_0)
        tail = tab["g2"][-max(1, len(tab["g2"]) // 10):]
        dev = float(np.max(np.abs(tail - 1.0)))
        if dev > G2_TAIL_TOL:
            errs.append(f"g2(tau) has not relaxed to 1 at long tau: |g2-1| = {dev:.3g}")
        return errs


class OracleSweep:
    def __init__(self, op: dict):
        self.ratios = op["params"]["ratios"]

    def check(self, out: Path) -> list[str]:
        res = json.loads((out / "oracle.json").read_text())
        dist = np.array(res["distances"])
        errs = []
        if res["ratios"] != self.ratios:
            errs.append(f"ratios {res['ratios']} != {self.ratios}")
        if not np.all((dist > 0) & (dist < 1)):
            errs.append(f"distances outside (0, 1): {dist.tolist()}")
            return errs
        if not np.all(np.diff(dist) < 0):
            errs.append(f"distances not falling with kappa/gamma: {dist.tolist()}")
        slopes = np.diff(np.log(dist)) / np.diff(np.log(self.ratios))
        lo, hi = SLOPE_RANGE
        if not np.all((slopes >= lo) & (slopes <= hi)):
            errs.append(f"log-log slopes {slopes.tolist()} outside [{lo}, {hi}]")
        return errs


CHECKS = {"transient": QuarticTransient, "steady": SteadyState,
          "g2": KerrDriveG2, "oracle": OracleSweep}
