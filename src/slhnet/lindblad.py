"""Truncated-Fock-space realization of effective models: operator matrices,
the master-equation generator in jump form (every channel, squeezed baths
included, as vacuum-form jump operators), time integration, and sparse
steady states.

Integration and steady states work on real coordinates: a Hermitian rho is
carried as x = vec(Re rho + Im rho), a real vector of length d^2 (row-major
vec).  The map is orthogonal, so ||x||_2 = ||rho||_F, and every rho rebuilt
from a real x is exactly Hermitian.  On these coordinates the generator is
one real sparse matrix R (see ``Liouvillian``).

``integrate`` picks its propagator from a bound on the numerical range of
R (``Liouvillian.range_box``): a Chebyshev expansion of exp(R dt) with a
certified degree when the Hamiltonian part dominates, RK45 otherwise.  Both
apply R only through ``Liouvillian.apply``."""
from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy import sparse, special
from scipy.integrate import solve_ivp
from scipy.sparse import linalg as spla

from .algebra import ModeRegistry, OperatorExpr

log = logging.getLogger(__name__)

ATOL = 1e-10
RTOL = 1e-8
DENSE_DIM_CAP = 120
DIM_CAP = 4096
CLIP_FLOOR = -1e-8
ABORT_FLOOR = -1e-7
LEAK_THRESHOLD = 1e-6
# certified bound on each Chebyshev sub-step's truncation error, relative to
# ||x||_2, and the Crouzeix-Palencia constant ||f(A)|| <= (1 + sqrt 2) max_W |f|
CHEBYSHEV_TOL = 1e-12
CROUZEIX_PALENCIA = 1.0 + math.sqrt(2.0)
# log of the largest growth rho^K (1 + sqrt(2K)) whose rounding, at machine
# epsilon, still stays within CHEBYSHEV_TOL (see ``_chebyshev_plan``)
LOG_ROUNDING_BUDGET = math.log(
    CHEBYSHEV_TOL / (CROUZEIX_PALENCIA * float(np.finfo(float).eps)))


class PhysicsValidationError(ValueError):
    """Model or state violates a physical precondition."""


class NumericalFailure(RuntimeError):
    """Integration or linear algebra failed beyond recoverable tolerance."""


def annihilation_matrix(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def to_matrix(x: OperatorExpr, registry: ModeRegistry) -> np.ndarray:
    """Fock-basis matrix of a normal-ordered polynomial.

    Tensor-product order follows the registry; annihilation carries sqrt(n)
    on the first superdiagonal of each mode factor.
    """
    dims = registry.dims
    total = int(np.prod(dims))
    if total > DIM_CAP:
        raise PhysicsValidationError(
            f"total Hilbert dimension {total} exceeds cap {DIM_CAP}"
        )
    out = np.zeros((total, total), dtype=complex)
    singles = [annihilation_matrix(d) for d in dims]
    for mono, coeff in x.terms.items():
        factors = []
        for (p, q), a in zip(mono, singles):
            ad = a.conj().T
            factors.append(np.linalg.matrix_power(ad, p) @ np.linalg.matrix_power(a, q))
        m = factors[0]
        for f in factors[1:]:
            m = np.kron(m, f)
        out += coeff * m
    return out


def partial_trace(rho: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all modes not in keep; keep order follows original order."""
    n = len(dims)
    keep = tuple(sorted(keep))
    resh = rho.reshape(dims + dims)
    # pair up traced-out axes
    traced = [i for i in range(n) if i not in keep]
    for off, ax in enumerate(traced):
        resh = np.trace(resh, axis1=ax - off, axis2=ax - off + n - off)
        n -= 1
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return resh.reshape(d, d)


def trace_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    sv = np.linalg.svd(r1 - r2, compute_uv=False)
    return float(0.5 * np.sum(sv))


@dataclass
class DensityMatrix:
    """Validated truncated-Fock density matrix.  A caller that has already
    diagonalized ``mat`` passes its smallest eigenvalue as ``min_eig``."""

    mat: np.ndarray
    min_eig: InitVar[float | None] = None

    def __post_init__(self, min_eig: float | None = None):
        self.mat = np.asarray(self.mat, dtype=complex)
        d = self.mat.shape[0]
        if self.mat.shape != (d, d):
            raise PhysicsValidationError("density matrix must be square")
        herm = np.max(np.abs(self.mat - self.mat.conj().T))
        if herm > 1e-10:
            raise PhysicsValidationError(f"density matrix not Hermitian: max dev {herm:.2e}")
        tr = np.trace(self.mat).real
        if abs(tr - 1.0) > 1e-8:
            raise PhysicsValidationError(f"trace {tr!r} deviates from 1 beyond 1e-8")
        if min_eig is None:
            min_eig = float(np.linalg.eigvalsh(self.mat)[0])
        if min_eig < CLIP_FLOOR:
            raise PhysicsValidationError(f"negative eigenvalue {min_eig:.2e} below floor")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @staticmethod
    def vacuum(dim: int) -> "DensityMatrix":
        m = np.zeros((dim, dim), dtype=complex)
        m[0, 0] = 1.0
        return DensityMatrix(m)

    @staticmethod
    def fock(dim: int, n: int) -> "DensityMatrix":
        m = np.zeros((dim, dim), dtype=complex)
        m[n, n] = 1.0
        return DensityMatrix(m)

    @staticmethod
    def coherent(dim: int, alpha: complex) -> "DensityMatrix":
        ns = np.arange(dim)
        logfact = np.cumsum(np.log(np.maximum(ns, 1)))
        amps = np.exp(-abs(alpha) ** 2 / 2) * np.power(alpha, ns) / np.exp(logfact / 2)
        amps /= np.linalg.norm(amps)  # truncation renormalization
        return DensityMatrix(np.outer(amps, amps.conj()))

    @staticmethod
    def thermal(dim: int, nbar: float) -> "DensityMatrix":
        if nbar <= 0:
            return DensityMatrix.vacuum(dim)
        pops = (nbar / (1 + nbar)) ** np.arange(dim) / (1 + nbar)
        pops /= pops.sum()
        return DensityMatrix(np.diag(pops).astype(complex))


def squeezed_jumps(Lmat: np.ndarray, N: float, M: complex) -> list[np.ndarray]:
    """Jump operators C_m with D_s[L] = sum_m D[C_m] for a squeezed bath.

    D_s[L]rho = (N+1) D[L]rho + N D[Ld]rho
                + conj(M) (L rho L - (L^2 rho + rho L^2)/2)
                + M (Ld rho Ld - (Ld^2 rho + rho Ld^2)/2)
    has coefficient matrix G = [[N+1, conj(M)], [M, N]] over (L, Ld); with
    G = U diag(g) U^dag, C_m = sqrt(g_m) (U_0m L + U_1m Ld), dropping g_m = 0.
    """
    if abs(M) ** 2 > N * (N + 1) + 1e-9:
        raise PhysicsValidationError(
            f"unphysical squeezed bath: |M|^2={abs(M)**2:.6g} > N(N+1)={N*(N+1):.6g}"
        )
    g, U = np.linalg.eigh([[N + 1, np.conj(M)], [M, N]])
    Ld = Lmat.conj().T
    return [np.sqrt(gm) * (U[0, m] * Lmat + U[1, m] * Ld)
            for m, gm in enumerate(g) if gm > 0.0]


def to_coords(rho: np.ndarray) -> np.ndarray:
    """Real coordinates x = vec(Re rho + Im rho) of a Hermitian rho."""
    return (rho.real + rho.imag).ravel()


def from_coords(x: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian rho = ((1+i) M + (1-i) M^T) / 2 with M = x.reshape(d, d)."""
    m = x.reshape(d, d)
    return 0.5 * (m + m.T) + 0.5j * (m - m.T)


def _real_generator(K: np.ndarray, jumps) -> sparse.csr_matrix:
    """R = Re S + (Im S) P for S = K (x) 1 + 1 (x) conj(K) + sum C (x) conj(C),
    with P the vec-transpose permutation, from real Kronecker products:

        R = A + B P,  A = Kr (x) 1 + 1 (x) Kr + sum_C [Cr (x) Cr + Ci (x) Ci],
                      B = Ki (x) 1 - 1 (x) Ki + sum_C [Ci (x) Cr - Cr (x) Ci].

    Since (X (x) Y) P = P (Y (x) X), B P = -P B: a row permutation, which
    keeps every row's column indices sorted.
    """
    d = K.shape[0]
    eye = sparse.identity(d, format="csr")

    def kron(X, Y):
        return sparse.kron(X, Y, format="csr")

    def split(X):
        return sparse.csr_matrix(X.real), sparse.csr_matrix(X.imag)

    Kr, Ki = split(K)
    Cs = [split(C) for C in jumps]
    # P B first, so that B is freed before A is built
    B = kron(Ki, eye) - kron(eye, Ki)
    for Cr, Ci in Cs:
        B = B + kron(Ci, Cr) - kron(Cr, Ci)
    PB = B[np.arange(d * d).reshape(d, d).T.ravel()]
    del B
    A = kron(Kr, eye) + kron(eye, Kr)
    for Cr, Ci in Cs:
        A = A + kron(Cr, Cr) + kron(Ci, Ci)
    R = A - PB
    R.sort_indices()
    return R


@dataclass
class Liouvillian:
    """Master-equation generator in jump form: with jump operators C (rates
    folded in) and K = -iH - sum C^dag C / 2,

        L rho = K rho + rho K^dag + sum_C C rho C^dag.

    ``R`` is L on the real coordinates of the module docstring: the real
    sparse d^2 x d^2 matrix with to_coords(L rho) = R @ to_coords(rho),
    assembled once (``_real_generator``).  ``apply`` is R @ x, the one
    product with R that ``integrate`` makes, whichever propagator runs.  The
    complex superoperator S on vec(rho) stays available as a reference
    (``superoperator``, ``as_dense``).
    """

    Hmat: np.ndarray
    jumps: list = field(default_factory=list)
    dim: int = field(init=False)
    K: np.ndarray = field(init=False, repr=False)
    R: sparse.csr_matrix = field(init=False, repr=False)
    _dense: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.dim = self.Hmat.shape[0]
        self.K = -1j * np.asarray(self.Hmat, dtype=complex)
        for C in self.jumps:
            self.K -= 0.5 * (C.conj().T @ C)
        self.R = _real_generator(self.K, self.jumps)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """L on real coordinates: to_coords(L rho) for x = to_coords(rho)."""
        return self.R @ x

    def range_box(self) -> tuple[float, float]:
        """(spread(H), delta) with W(R) inside |Re z| <= delta,
        |Im z| <= spread(H) + delta, from d x d quantities only.

        R = R_H + R_D.  R_H is real skew with ||R_H||_2 = E_max - E_min;
        ||R_D||_2 <= delta = ||sum C^dag C||_2 + sum ||C||_2^2, from the
        terms K_D (x) 1, 1 (x) conj(K_D) and C (x) conj(C) of S.
        """
        energies = np.linalg.eigvalsh(self.Hmat)
        spread = float(energies[-1] - energies[0])
        if not self.jumps:
            return spread, 0.0
        gram = [C.conj().T @ C for C in self.jumps]
        delta = float(np.linalg.eigvalsh(sum(gram))[-1]
                      + sum(np.linalg.eigvalsh(g)[-1] for g in gram))
        return spread, delta

    def generator_stats(self) -> dict:
        """Stored entries of R and the bytes of its data, indices and indptr."""
        R = self.R
        return {
            "generator_nnz": int(R.nnz),
            "generator_bytes": int(R.data.nbytes + R.indices.nbytes
                                   + R.indptr.nbytes),
        }

    def superoperator(self) -> sparse.csr_matrix:
        """S = K (x) 1 + 1 (x) conj(K) + sum C (x) conj(C), so that
        S @ vec(rho) = vec(apply(rho)) for row-major vec."""
        eye = sparse.identity(self.dim, dtype=complex, format="coo")
        K = sparse.coo_matrix(self.K)
        S = sparse.kron(K, eye) + sparse.kron(eye, K.conj())
        for C in self.jumps:
            Cs = sparse.coo_matrix(C)
            S = S + sparse.kron(Cs, Cs.conj())
        return sparse.csr_matrix(S, dtype=complex)

    def as_dense(self) -> np.ndarray:
        if self._dense is None:
            d = self.dim
            if d > DENSE_DIM_CAP:
                raise NumericalFailure(
                    f"dense superoperator at dim={d} would be {d*d}x{d*d}; refusing"
                )
            self._dense = self.superoperator().toarray()
        return self._dense


def build_liouvillian(model, registry: ModeRegistry) -> Liouvillian:
    """Assemble the generator of an EffectiveModel over a registry."""
    from .network import BathKind  # cycle-free: network imports algebra only

    Hmat = to_matrix(model.H_eff, registry)
    dim = Hmat.shape[0]
    if dim * dim > DIM_CAP * DIM_CAP:
        raise PhysicsValidationError("Liouvillian dimension cap exceeded")
    herm = np.max(np.abs(Hmat - Hmat.conj().T)) if dim else 0.0
    if herm > 1e-9:
        raise PhysicsValidationError(f"H_eff matrix not Hermitian: {herm:.2e}")
    jumps = []
    for ch in model.channels:
        Lmat = np.sqrt(ch.rate_prefactor) * to_matrix(ch.op, registry)
        if ch.bath.kind is BathKind.VACUUM:
            jumps.append(Lmat)
        else:
            jumps.extend(squeezed_jumps(Lmat, ch.bath.N, ch.bath.M))
    return Liouvillian(Hmat=Hmat, jumps=jumps)


def _validate_evolved(rho: np.ndarray, where: str) -> DensityMatrix:
    """Checks a state rebuilt by ``from_coords`` (Hermitian by construction);
    ``where`` names it in the messages ("t=0.5", "steady state")."""
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-8:
        raise NumericalFailure(f"trace drift {tr - 1:.3e} at {where}")
    w = np.linalg.eigvalsh(rho)
    if w[0] < ABORT_FLOOR:
        raise NumericalFailure(
            f"negative population {w[0]:.3e} at {where}; truncation inadequate"
        )
    if w[0] < CLIP_FLOOR:
        log.info("clipped eigenvalue floor %.3e at %s", w[0], where)
        return DensityMatrix(_clip_to_psd(rho), min_eig=0.0)
    return DensityMatrix(rho, min_eig=float(w[0]))


def _clip_to_psd(rho: np.ndarray) -> np.ndarray:
    """Project roundoff-scale negatives away and renormalize."""
    wc, v = np.linalg.eigh(rho)
    wc = np.clip(wc, 0.0, None)
    rho = (v * wc) @ v.conj().T
    return rho / np.trace(rho).real


def integrate(
    liou: Liouvillian, rho0: DensityMatrix, t_grid, stats: dict | None = None
) -> list[DensityMatrix]:
    """Evolve rho0 along t_grid (strictly increasing from 0) on the real
    coordinates x' = R x.

    With (spread, delta) = ``liou.range_box()``, a Hamiltonian-dominated
    generator (spread > delta) is propagated by ``_chebyshev``, to a
    certified truncation error of at most CHEBYSHEV_TOL per sub-step; any
    other by RK45 at ATOL / RTOL, whose steps an almost imaginary spectrum
    would make tiny.  If ``stats`` is given, it receives the method, its
    work counters, the range box and the size of R.
    """
    t_grid = list(t_grid)
    if t_grid[0] != 0 or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly increasing and start at 0")
    spread, delta = liou.range_box()
    x0 = to_coords(rho0.mat)
    if spread > delta:
        xs, work = _chebyshev(liou, x0, t_grid, spread, delta)
    else:
        xs, work = _rk45(liou, x0, t_grid)
    if stats is not None:
        stats.update(work, hamiltonian_spread=spread, dissipative_bound=delta,
                     **liou.generator_stats())
    return [_validate_evolved(from_coords(x, liou.dim), f"t={t:g}")
            for x, t in zip(xs, t_grid)]


def _rk45(liou, x0, t_grid) -> tuple[np.ndarray, dict]:
    # solve_ivp's solver is left in a reference cycle through rhs: drop the
    # generator from it so it is not kept until the next full collection
    gen = [liou]

    def rhs(t, y):
        return gen[0].apply(y)

    try:
        sol = solve_ivp(rhs, (0.0, t_grid[-1]), x0, t_eval=t_grid,
                        method="RK45", atol=ATOL, rtol=RTOL)
    finally:
        gen.clear()
    if not sol.success:
        raise NumericalFailure(f"integrator failed: {sol.message}")
    return sol.y.T, dict(method="RK45", rhs_evaluations=int(sol.nfev),
                         accepted_points=int(sol.t.size), atol=ATOL, rtol=RTOL)


def _chebyshev(liou, x0, t_grid, spread, delta) -> tuple[list, dict]:
    """Tal-Ezer & Kosloff propagation with A = R / c, c = spread + delta.

    W(A) lies in the box |Re z| <= delta / c, |Im z| <= 1, so with z = i w,
    exp(l A) = J_0(l) + sum_k 2 J_k(l) i^k T_k(-i A), l = c dt, and
    phi_k = i^k T_k(-i A) v obeys the real recurrence
    phi_{k+1} = (2/c) R phi_k + phi_{k-1}.  The box lies inside the
    Bernstein ellipse E_rho through its corner 1 + i delta / c, where
    |T_k| <= rho^k, so by Crouzeix-Palencia (SIAM J. Matrix Anal. Appl. 38,
    649 (2017)) dropping the terms k >= K costs at most
    (1 + sqrt 2) sum_{k>=K} 2 |J_k(l)| rho^k (``_degree``).
    """
    c = spread + delta
    eps = delta / c
    log_rho = math.acosh((eps + math.sqrt(4.0 + eps * eps)) / 2.0)
    x = x0
    xs = [x]
    products = substeps = degree = 0
    bound = 0.0
    plans: dict = {}  # grid spacings repeat, up to rounding
    for t0, t1 in zip(t_grid, t_grid[1:]):
        ell = c * (t1 - t0)
        if ell not in plans:
            plans[ell] = _chebyshev_plan(ell, log_rho)
        m, coef, err = plans[ell]
        for _ in range(m):
            x = _chebyshev_step(liou, x, coef, c)
        xs.append(x)
        products += m * (len(coef) - 1)
        substeps += m
        degree = max(degree, len(coef) - 1)
        bound += m * err
    return xs, dict(method="chebyshev", rhs_evaluations=products,
                    steps=len(t_grid) - 1, substeps=substeps, degree=degree,
                    tolerance=CHEBYSHEV_TOL, truncation_bound=bound)


def _chebyshev_step(liou, x, coef, c) -> np.ndarray:
    """sum_k coef[k] phi_k with phi_0 = x: len(coef) - 1 products with R."""
    y = coef[0] * x
    if len(coef) > 1:
        prev, cur = x, liou.apply(x) / c
        y += coef[1] * cur
        for ck in coef[2:]:
            prev, cur = cur, (2.0 / c) * liou.apply(cur) + prev
            y += ck * cur
    return y


def _degree(ell: float, log_rho: float) -> tuple[int, float]:
    """Smallest K with (1 + sqrt 2) sum_{k>=K} 2 |J_k(ell)| rho^k <= TOL,
    and that bound.

    The sum runs to n = e ell rho / 2 + 60 with |J_k| from ``jv``.  Where
    ``jv`` underflows (k > ell), Kapteyn's inequality (DLMF 10.14.8)
    |J_k(k z)| <= (z e^s / (1 + s))^k, s = sqrt(1 - z^2), or
    |J_k(ell)| <= (ell/2)^k / k!, whichever is smaller, stands in.  The
    latter also closes the sum past n: with y = ell rho / 2 <= (n + 2) / 2
    its terms fall at least by half each, so they add up to at most
    4 y^(n+1) / (n+1)!.  Everything is summed in logarithms, so a large
    rho^ell cannot overflow.
    """
    log_y = math.log(ell / 2.0) + log_rho
    n = int(math.e * math.exp(log_y)) + 60
    k = np.arange(n + 1)
    jk = np.abs(special.jv(k, ell))
    z = ell / np.maximum(k, ell)  # Kapteyn needs k >= ell; else |J_k| <= 1
    root = np.sqrt(1.0 - z * z)
    kapteyn = k * (np.log(z) + root - np.log1p(root))
    factorial = k * math.log(ell / 2.0) - special.gammaln(k + 1)
    log_j = np.where(jk > 1e-280, np.log(np.maximum(jk, 1e-300)),
                     np.minimum(kapteyn, factorial))
    log_terms = math.log(2.0) + log_j + k * log_rho
    log_rest = math.log(4.0) + (n + 1) * log_y - math.lgamma(n + 2)
    log_tails = np.logaddexp(np.logaddexp.accumulate(log_terms[::-1])[::-1],
                             log_rest)
    log_bounds = math.log(CROUZEIX_PALENCIA) + log_tails
    K = int(np.argmax(log_bounds <= math.log(CHEBYSHEV_TOL)))
    return K, math.exp(log_bounds[K])


def _chebyshev_plan(ell: float, log_rho: float) -> tuple[int, np.ndarray, float]:
    """(m, coefficients, bound) of an interval ell = c dt cut into m equal
    sub-steps, with m minimizing the products m K(ell / m) among the stable
    counts from the fewest, m_lo, to 2 m_lo.

    A sub-step is stable when the rounding of its sum stays within the
    tolerance: ||phi_k|| <= (1 + sqrt 2) rho^k ||x|| (Crouzeix-Palencia
    again) and sum_{k<K} |c_k| <= 1 + sqrt(2 K), since J_0^2 + 2 sum_k J_k^2
    = 1, so the kept terms are summed to about
    eps (1 + sqrt 2) rho^K (1 + sqrt(2 K)).  A long interval has to be cut:
    rho^ell grows without limit, and with it both that rounding and the
    degree per unit of ell.  Since K(l) > l, no count below
    ell log_rho / LOG_ROUNDING_BUDGET is stable; m_lo is found from there
    by doubling and bisection.
    """
    degree = functools.cache(lambda m: _degree(ell / m, log_rho)[0])

    def stable(m: int) -> bool:
        K = degree(m)
        return K * log_rho + math.log1p(math.sqrt(2 * K)) <= LOG_ROUNDING_BUDGET

    lo = hi = max(1, math.ceil(ell * log_rho / LOG_ROUNDING_BUDGET))
    while not stable(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stable(mid):
            hi = mid
        else:
            lo = mid
    m = min(range(hi, 2 * hi + 1), key=lambda j: (j * degree(j), j))
    K, err = _degree(ell / m, log_rho)
    coef = special.jv(np.arange(K), ell / m)
    coef[1:] *= 2.0
    return m, coef, err


def steady_state(liou: Liouvillian, stats: dict | None = None) -> DensityMatrix:
    """Kernel of the real generator R by ARPACK shift-invert.

    The shift sigma = +1e-9 ||R||_1 keeps R - sigma regular, since no
    eigenvalue of a Lindbladian (R has the spectrum of S) has a positive
    real part.  A second eigenvalue within 1e-9 ||R||_1 of zero means
    several steady states.  The state passes the checks of an integrated
    one (``_validate_evolved``): a population below ABORT_FLOOR raises
    NumericalFailure.  ``stats``, if given, receives the method,
    |lambda_2|, ||R x||_2 = ||L rho||_F and the size of R.
    """
    d = liou.dim
    R = liou.R
    scale = spla.norm(R, 1) or 1.0
    sigma = 1e-9 * scale
    # a fixed start vector keeps the result, and so the manifests, reproducible
    v0 = np.random.default_rng(0).standard_normal(d * d)
    w, v = spla.eigs(R, k=2, sigma=sigma, which="LM", v0=v0)
    order = np.argsort(np.abs(w))
    lam2 = float(abs(w[order[1]]))
    if lam2 < 1e-9 * scale:
        raise PhysicsValidationError(
            "degenerate Liouvillian kernel: multiple steady states"
        )
    # a real eigenvalue of a real matrix has a real eigenvector
    x = v[:, order[0]].real
    tr = np.trace(x.reshape(d, d))  # tr M = tr rho
    if abs(tr) < 1e-12:
        raise NumericalFailure("steady-state candidate has vanishing trace")
    x = x / tr
    res = float(np.linalg.norm(liou.apply(x)))
    if res > 1e-9:
        warnings.warn(f"steady-state residual {res:.2e} above target")
    if stats is not None:
        stats.update(method="sparse-shift-invert", lambda2_abs=lam2, residual=res,
                     **liou.generator_stats())
    return _validate_evolved(from_coords(x, d), "steady state")


def fock_leak(rho: np.ndarray) -> float:
    """Top-two-level population of one mode's matrix, floored at 0
    (truncation adequacy probe)."""
    return max(0.0, float(np.diag(rho).real[-2:].sum()))
