"""Nonclassicality diagnostics: Fano factor, steady-state g2 via quantum
regression, and non-Gaussianity against a moment-matched Gaussian reference.

``mean_n``, ``moments``, ``fano_factor``, ``gaussian_reference`` and
``non_gaussianity`` take one mode's density matrix as an ndarray; a caller
with a joint state reduces it first (``lindblad.partial_trace``).  The
Gaussian reference's displacement and squeeze factors come from one
eigendecomposition per truncation of each fixed generator
(``_generator_eigenbases``), not from a matrix exponential per state."""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .lindblad import (
    DensityMatrix,
    PhysicsValidationError,
    annihilation_matrix,
    integrate,
    thermal_populations,
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


def mean_n(rho: np.ndarray) -> float:
    """Mean photon number <ad a> of one mode's matrix, read off its
    diagonal in O(d)."""
    return float(np.arange(rho.shape[0], dtype=float) @ np.diagonal(rho).real)


def fano_factor(rho: np.ndarray) -> float:
    """Photon-number variance over mean of one mode's matrix; NaN at a mean
    of ``MEAN_N_FLOOR`` or below (undefined, or not resolved)."""
    mean = mean_n(rho)
    if mean <= MEAN_N_FLOOR:
        return math.nan
    n = np.arange(rho.shape[0], dtype=float)
    var = float((n * n) @ np.diagonal(rho).real) - mean * mean
    return var / mean


def g2(liou, rho_ss: DensityMatrix, tau_grid, dims,
       stats: dict | None = None) -> list[float]:
    """Stationary g2(tau) by quantum regression.

    The seed a rho_ss ad is renormalized, evolved under the model's
    Liouvillian ``liou``, and probed by its mean <n> (``mean_n``); g2(0) =
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
    nbar = mean_n(rho_ss.mat)
    if nbar <= MEAN_N_FLOOR:
        raise PhysicsValidationError("g2 undefined at zero mean photon number")
    seed = a @ rho_ss.mat @ a.conj().T
    seed = 0.5 * (seed + seed.conj().T)
    seed_tr = float(np.trace(seed).real)  # equals nbar
    sigma0 = DensityMatrix(seed / seed_tr)
    states = integrate(liou, sigma0, tau_grid, stats=stats)
    return [mean_n(st.mat) * seed_tr / (nbar * nbar) for st in states]


@functools.lru_cache(maxsize=8)
def _generator_eigenbases(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigendecompositions (mu, W) of the Hermitian -i(ad - a) and
    -i(a^2 - ad^2)/2 at truncation d, read-only because they are shared."""
    a = annihilation_matrix(d)
    ad = a.conj().T
    out = []
    for h in (-1j * (ad - a), -0.5j * (a @ a - ad @ ad)):
        mu, W = np.linalg.eigh(h)
        mu.flags.writeable = False
        W.flags.writeable = False
        out.append((mu, W))
    return tuple(out)


def _rotated_exp(mu: np.ndarray, W: np.ndarray, r: float, phi: float) -> np.ndarray:
    """R^dag exp(i r H) R for H = W diag(mu) W^dag and R = diag(e^{-i phi n});
    exactly the identity at r = 0, as ``expm`` of a zero generator is."""
    if r == 0:
        return np.eye(len(mu), dtype=complex)
    A = (W * np.exp(1j * r * mu)) @ W.conj().T
    ph = np.exp(1j * phi * np.arange(len(mu)))
    return (ph[:, None] * A) * ph.conj()


def _displacement(d: int, alpha: complex) -> np.ndarray:
    """exp(alpha ad - conj(alpha) a) at truncation d: with alpha = r e^{i phi},
    the generator is r R^dag (ad - a) R, R = diag(e^{-i phi n})."""
    mu, W = _generator_eigenbases(d)[0]
    return _rotated_exp(mu, W, abs(alpha), np.angle(alpha))


def _squeeze(d: int, zeta: complex) -> np.ndarray:
    """exp((conj(zeta) a^2 - zeta ad^2)/2) at truncation d: with zeta =
    r e^{2i phi}, the generator is r R^dag (a^2 - ad^2)/2 R."""
    mu, W = _generator_eigenbases(d)[1]
    return _rotated_exp(mu, W, abs(zeta), 0.5 * np.angle(zeta))


def gaussian_reference(rho: np.ndarray) -> DensityMatrix:
    """Displaced squeezed thermal state matching the first/second moments of
    one mode's matrix.

    One-mode normal form: nu = sqrt(det cov) fixes the thermal occupancy
    nbar = nu - 1/2, the principal-axis ratio fixes the squeeze magnitude,
    and the principal angle fixes the squeeze phase.  With U = D S, sigma =
    U diag(p) U^dag for the thermal populations p; D and S come from the
    truncation's cached eigenbases, so no matrix exponential is taken.
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
    U = _displacement(d, alpha) @ _squeeze(d, r * np.exp(2j * psi))
    sigma = (U * thermal_populations(d, nbar)) @ U.conj().T
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
