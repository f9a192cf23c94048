"""Nonclassicality diagnostics: Fano factor, steady-state g2 via quantum
regression, and non-Gaussianity against a moment-matched Gaussian reference.

``moments``, ``fano_factor``, ``gaussian_reference`` and
``non_gaussianity`` take one mode's density matrix as an ndarray; a caller
with a joint state reduces it first (``lindblad.partial_trace``)."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .lindblad import (
    DensityMatrix,
    PhysicsValidationError,
    annihilation_matrix,
    integrate,
)

log = logging.getLogger(__name__)

MEAN_N_FLOOR = 1e-12  # the propagators' tolerance: a smaller <n> is noise


@dataclass(frozen=True)
class MomentSet:
    """First and second quadrature moments, x = (a + ad)/sqrt(2)."""

    mean: tuple[float, float]
    cov: np.ndarray  # 2x2 symmetric

    def __post_init__(self):
        c = np.asarray(self.cov, dtype=float)
        if c.shape != (2, 2) or abs(c[0, 1] - c[1, 0]) > 1e-9:
            raise PhysicsValidationError("covariance must be 2x2 symmetric")
        if np.linalg.det(c) < 0.25 - 1e-9:
            raise PhysicsValidationError(
                f"covariance below uncertainty floor: det={np.linalg.det(c):.6g}"
            )


def moments(rho: np.ndarray) -> MomentSet:
    """Quadrature mean and symmetrized covariance of one mode's matrix."""
    return MomentSet(*_raw_moments(rho))


def _raw_moments(rho: np.ndarray) -> tuple[tuple[float, float], np.ndarray]:
    """Quadrature mean and covariance from <a>, <a^2>, <ad a> and <a ad>,
    read off rho's diagonals in O(d).  <a ad> is that of the truncated
    matrices, diag(1, ..., d-1, 0), which x @ x and p @ p contain."""
    n = np.arange(rho.shape[0], dtype=float)
    pops = np.diagonal(rho).real
    a1 = complex(np.sqrt(n[1:]) @ np.diagonal(rho, -1))
    a2 = complex(np.sqrt(n[1:-1] * n[2:]) @ np.diagonal(rho, -2))
    nn = float(n @ pops)
    aad = float(n[1:] @ pops[:-1])
    ex = math.sqrt(2) * a1.real
    ep = math.sqrt(2) * a1.imag
    xx = 0.5 * (nn + aad) + a2.real - ex * ex
    pp = 0.5 * (nn + aad) - a2.real - ep * ep
    xp = a2.imag - ex * ep
    return (ex, ep), np.array([[xx, xp], [xp, pp]])


def fano_factor(rho: np.ndarray) -> float:
    """Photon-number variance over mean of one mode's matrix; NaN at a mean
    of ``MEAN_N_FLOOR`` or below (undefined, or not resolved)."""
    n = np.arange(rho.shape[0], dtype=float)
    pops = np.diag(rho).real
    mean = float(n @ pops)
    if mean <= MEAN_N_FLOOR:
        return math.nan
    var = float((n * n) @ pops) - mean * mean
    return var / mean


def g2(liou, rho_ss: DensityMatrix, tau_grid, dims,
       stats: dict | None = None) -> list[float]:
    """Stationary g2(tau) by quantum regression.

    The seed a rho_ss ad is renormalized, evolved under the model's
    Liouvillian ``liou``, and probed with the number operator; g2(0) =
    <ad ad a a>/<ad a>^2 emerges at the first grid point.  ``tau_grid``
    starts at 0 and increases strictly, as ``integrate`` requires; another
    grid raises ValueError.  ``dims`` are the model's mode truncations (one
    mode only).  ``stats`` is passed on to ``integrate``.  A mean <n> of
    ``MEAN_N_FLOOR`` or below is rejected: the renormalized seed would be
    rounding noise.
    """
    d = liou.dim
    if rho_ss.dim != d:
        raise PhysicsValidationError("steady state dimension mismatch with model")
    if len(dims) != 1:
        raise PhysicsValidationError("g2 supports single-mode models")
    a = annihilation_matrix(d)
    nmat = a.conj().T @ a
    nbar = float(np.trace(nmat @ rho_ss.mat).real)
    if nbar <= MEAN_N_FLOOR:
        raise PhysicsValidationError("g2 undefined at zero mean photon number")
    seed = a @ rho_ss.mat @ a.conj().T
    seed = 0.5 * (seed + seed.conj().T)
    seed_tr = float(np.trace(seed).real)  # equals nbar
    sigma0 = DensityMatrix(seed / seed_tr)
    states = integrate(liou, sigma0, tau_grid, stats=stats)
    out = []
    for st in states:
        val = float(np.trace(nmat @ st.mat).real) * seed_tr / (nbar * nbar)
        out.append(val)
    return out


def _displacement(d: int, alpha: complex) -> np.ndarray:
    a = annihilation_matrix(d)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def _squeeze(d: int, zeta: complex) -> np.ndarray:
    a = annihilation_matrix(d)
    return expm(0.5 * (np.conj(zeta) * (a @ a) - zeta * (a.conj().T @ a.conj().T)))


def gaussian_reference(rho: np.ndarray) -> DensityMatrix:
    """Displaced squeezed thermal state matching the first/second moments of
    one mode's matrix.

    One-mode normal form: nu = sqrt(det cov) fixes the thermal occupancy
    nbar = nu - 1/2, the principal-axis ratio fixes the squeeze magnitude,
    and the principal angle fixes the squeeze phase.
    """
    d = rho.shape[0]
    ms = moments(rho)
    V = ms.cov
    nu = math.sqrt(max(np.linalg.det(V), 0.25))
    nbar = max(nu - 0.5, 0.0)
    w, vecs = np.linalg.eigh(V)  # ascending: w[0] squeezed axis
    r = 0.25 * math.log(w[1] / w[0]) if w[0] > 0 else 0.0
    # angle of the low-variance principal axis in the (x, p) plane
    psi = math.atan2(vecs[1, 0], vecs[0, 0])
    alpha = (ms.mean[0] + 1j * ms.mean[1]) / math.sqrt(2)
    base = DensityMatrix.thermal(d, nbar).mat
    S = _squeeze(d, r * np.exp(2j * psi))
    Dm = _displacement(d, alpha)
    U = Dm @ S
    sigma = U @ base @ U.conj().T
    sigma = 0.5 * (sigma + sigma.conj().T)
    sigma /= np.trace(sigma).real
    out = DensityMatrix(sigma)
    # unfloored: a sigma truncation pushes below the floor is judged here
    mean2, cov2 = _raw_moments(out.mat)
    dev = max(
        abs(mean2[0] - ms.mean[0]),
        abs(mean2[1] - ms.mean[1]),
        float(np.max(np.abs(cov2 - ms.cov))),
    )
    if dev > 1e-6:
        # moments beyond truncation reach cannot be matched; surface it
        raise PhysicsValidationError(
            f"gaussian reference self-check failed: moment deviation {dev:.2e} "
            f"(truncation {d} too small for these moments?)"
        )
    return out


def non_gaussianity(rho: np.ndarray) -> float:
    """Hilbert-Schmidt non-Gaussianity tr[(rho-sigma)^2/2]/tr[rho^2] of one
    mode's matrix, in [0,1]."""
    sigma = gaussian_reference(rho).mat
    diff = rho - sigma
    # tr(AB) = vdot(A, B) for Hermitian A and B
    num = 0.5 * float(np.vdot(diff, diff).real)
    den = float(np.vdot(rho, rho).real)
    val = num / den
    if val < 0 or val > 1:
        log.info("clamping non-Gaussianity %.3e to [0,1]", val)
    return min(max(val, 0.0), 1.0)
