"""Truncated-Fock-space realization of effective models: operator matrices,
the master-equation generator in jump form (one jump operator per vacuum
channel), time integration, and sparse steady states.

Integration and steady states work on real coordinates: a Hermitian rho is
carried as x = vec(Re rho + Im rho), a real vector of length d^2 (row-major
vec).  The map is orthogonal, so ||x||_2 = ||rho||_F, and every rho rebuilt
from a real x is exactly Hermitian.  On these coordinates the generator is
one real sparse matrix R (see ``Liouvillian``).

``integrate`` computes exp(R t) x directly, since R is linear and does not
depend on time.  It picks its propagator from a bound on the numerical
range of R (``Liouvillian.range_box``): a Chebyshev expansion of exp(R dt)
with a certified degree when the Hamiltonian part dominates, an adaptive
Arnoldi (Krylov) exponential with an a posteriori error estimate
otherwise.  Both apply R only through ``Liouvillian.apply``.

Both also run on the coordinates that x0 can reach alone.  A coordinate
that R's sparsity graph does not reach from the support of x0 stays exactly
0 in exp(R t) x0, since R maps the span of the reachable coordinates into
itself; R's pattern holds no rounding residue (``_real_generator``) that
would connect the rest.  So ``integrate`` propagates on the principal
submatrix of R over the reachable set and scatters the results back.  Its
numerical range lies inside that of R, so the range box, and with it the
Chebyshev certificate and the Krylov norm bound, stay valid.  Weak
symmetries (Buca & Prosen, New J. Phys. 14, 073007 (2012)) show up this
way without any analysis: a linear loop started in vacuum stays in its
total-parity block, half of the coordinates, and a Fock state under an
undriven Kerr loss model keeps to its populations."""
from __future__ import annotations

import copy
import logging
import math
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.linalg.blas import daxpy
from scipy.sparse import linalg as spla
from scipy.sparse._sparsetools import csr_matvec

from .algebra import ModeRegistry, OperatorExpr

log = logging.getLogger(__name__)

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
# Arnoldi basis size and the bound on the Krylov path's local error estimates,
# relative to ||x||_2 and per unit of the fraction of t_grid a step covers;
# a product R v_j whose part orthogonal to the basis is below BREAKDOWN_TOL
# of its norm, i.e. rounding, ends the basis as invariant under R.  A larger
# basis admits longer steps but costs more Gram-Schmidt per vector; at
# n = 9216, 36 and 40 were the fastest of {30, 36, 40, 45, 50} (CHANGES.md,
# "Longest Krylov steps on a basis of 40")
KRYLOV_BASIS = 40
KRYLOV_TOL = 1e-12
BREAKDOWN_TOL = 1e-12
# entries of R at most PRUNE_TOL max|R| are rounding residue (``_real_generator``)
PRUNE_TOL = float(np.finfo(float).eps)
# shift-invert Arnoldi of ``steady_state``: the basis size and ARPACK's
# relative tolerance on the Ritz values.  lambda_2 feeds only the
# degenerate-kernel check, so it need not reach machine precision; of the
# (basis, tolerance) pairs that kept the seed-1 stationary benchmark's
# lambda_2 within 1e-4 of its tol = 0 value, (10, 1e-6) made the fewest
# solves: 18 / 11 / 11 / 17 at d = 36 / 48 / 80 and the g2 model at d = 30,
# where ARPACK's default (20, 0) makes 21 / 21 / 21 / 37 (CHANGES.md,
# "Steady states on one owned factorization").  Whatever the tolerance, the
# kernel vector's residual ||R x||_2 (tr rho = 1) is checked against
# STEADY_RESIDUAL.
STEADY_BASIS = 10
STEADY_TOL = 1e-6
STEADY_RESIDUAL = 1e-9


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
        # each check passes only a number inside its bound, so NaN fails it;
        # a non-finite entry makes herm NaN or inf
        herm = np.max(np.abs(self.mat - self.mat.conj().T))
        if not herm <= 1e-10:
            raise PhysicsValidationError(
                f"density matrix not Hermitian or not finite: max dev {herm:.2e}")
        tr = np.trace(self.mat).real
        if not abs(tr - 1.0) <= 1e-8:
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
        if alpha == 0:
            return DensityMatrix.vacuum(dim)
        ns = np.arange(dim)
        # log |alpha^n / sqrt(n!)|, shifted to a largest amplitude of 1 so
        # that no power or factorial overflows; e^{-|alpha|^2/2} cancels in
        # the truncation renormalization
        log_amp = ns * math.log(abs(alpha)) - 0.5 * np.cumsum(np.log(np.maximum(ns, 1)))
        amps = np.exp(log_amp - log_amp.max() + 1j * np.angle(alpha) * ns)
        amps /= np.linalg.norm(amps)  # truncation renormalization
        return DensityMatrix(np.outer(amps, amps.conj()))

    @staticmethod
    def thermal(dim: int, nbar: float) -> "DensityMatrix":
        return DensityMatrix(np.diag(thermal_populations(dim, nbar)).astype(complex))


def thermal_populations(dim: int, nbar: float) -> np.ndarray:
    """Bose-Einstein populations of mean nbar, renormalized over dim
    levels; the vacuum's at nbar <= 0."""
    if nbar <= 0:
        pops = np.zeros(dim)
        pops[0] = 1.0
        return pops
    pops = (nbar / (1 + nbar)) ** np.arange(dim) / (1 + nbar)
    return pops / pops.sum()


def to_coords(rho: np.ndarray) -> np.ndarray:
    """Real coordinates x = vec(Re rho + Im rho) of a Hermitian rho."""
    return (rho.real + rho.imag).ravel()


def from_coords(x: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian rho = ((1+i) M + (1-i) M^T) / 2 with M = x.reshape(d, d)."""
    m = x.reshape(d, d)
    return 0.5 * (m + m.T) + 0.5j * (m - m.T)


def _superoperator(K: np.ndarray, jumps) -> sparse.csr_matrix:
    """S = K (x) 1 + 1 (x) conj(K) + sum C (x) conj(C), so that
    S @ vec(rho) = vec(L rho) for row-major vec."""
    eye = sparse.identity(K.shape[0], dtype=complex, format="csr")
    Ks = sparse.csr_matrix(K)
    S = (sparse.kron(Ks, eye, format="csr")
         + sparse.kron(eye, Ks.conj(), format="csr"))
    for C in jumps:
        Cs = sparse.csr_matrix(C)
        S = S + sparse.kron(Cs, Cs.conj(), format="csr")
    return S


def _real_generator(K: np.ndarray, jumps) -> sparse.csr_matrix:
    """R = Re S + (Im S) P for S = ``_superoperator(K, jumps)``, with P the
    vec-transpose permutation.  Right-multiplying by P relabels column
    (i, j) as (j, i); P is an involution, so (Im S) P keeps S's rows and
    takes its column indices through P.

    Entries of at most PRUNE_TOL max|R| are dropped.  They are rounding
    residue: parts of K that cancel to rounding (1e-17 against O(1)
    entries), which the Kronecker products spread over d rows each.  Each
    one is below the rounding unit of R's largest entry, so dropping them
    changes R by no more than rounding its entries does.
    """
    d = K.shape[0]
    S = _superoperator(K, jumps)
    re, im = S.data.real.copy(), S.data.imag.copy()
    indices, indptr = S.indices, S.indptr
    del S  # before the sum, whose operands and result would raise the peak
    n = d * d
    P = np.arange(n, dtype=indices.dtype).reshape(d, d).T.ravel()
    R = (sparse.csr_matrix((re, indices, indptr), shape=(n, n))
         + sparse.csr_matrix((im, P[indices], indptr), shape=(n, n)))
    del re, im, indices, indptr  # before the pruning's temporaries
    if R.nnz:
        size = np.abs(R.data)
        R.data[size <= PRUNE_TOL * size.max()] = 0.0
        R.eliminate_zeros()
    R.sort_indices()
    return R


def _is_coords(v, n: int) -> bool:
    """Whether v is a 1-D float64 array of length n."""
    return isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == (n,)


@dataclass
class Liouvillian:
    """Master-equation generator in jump form: with jump operators C (rates
    folded in) and K = -iH - sum C^dag C / 2,

        L rho = K rho + rho K^dag + sum_C C rho C^dag.

    ``R`` is L on the real coordinates of the module docstring: the real
    sparse d^2 x d^2 matrix with to_coords(L rho) = R @ to_coords(rho),
    assembled once (``_real_generator``).  ``apply`` is R @ x, fresh or
    added into a buffer: the one product with R that ``integrate`` makes,
    whichever propagator runs.  R is the real form of the complex
    superoperator S on vec(rho) (``superoperator``, ``as_dense``), and is
    read off it.
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

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """L on real coordinates: to_coords(L rho) for x = to_coords(rho).

        With ``out``, R @ x is added into ``out`` in place and ``out`` is
        returned; without, a fresh R @ x is returned.  Both call scipy's CSR
        kernel ``csr_matvec``, the routine that ``R @ x`` itself runs, so
        apply(x) is bit-identical to R @ x.  The kernel is called directly
        because the public product takes no output buffer, and its dispatch
        adds a third of the kernel's time on a d = 30 quartic generator
        (R @ x 12.2 us, the kernel 9.0 us; 2 vCPUs, numpy 2.4, scipy 1.17).
        The kernel writes through raw pointers, so an x or out that is not a
        1-D float64 array of R's length, or an out that is not C-contiguous,
        raises ValueError.
        """
        R = self.R
        n = R.shape[0]
        if not _is_coords(x, n):
            raise ValueError(f"x must be a 1-D float64 array of length {n}")
        if out is None:
            out = np.zeros(n)
        elif not (_is_coords(out, n) and out.flags.c_contiguous):
            raise ValueError(
                f"out must be a C-contiguous 1-D float64 array of length {n}")
        csr_matvec(n, n, R.indptr, R.indices, R.data, x, out)
        return out

    def restricted(self, keep: np.ndarray) -> "Liouvillian":
        """This generator on the coordinates ``keep`` (sorted indices) alone:
        R becomes its principal submatrix R[keep, keep].  Only ``R``, and so
        ``apply``, changes; the d x d fields stay those of the full model,
        whose range box bounds the submatrix's numerical range too."""
        sub = copy.copy(self)
        sub.R = self.R[keep][:, keep]
        return sub

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
        """The complex S with S @ vec(rho) = vec(L rho) for row-major vec
        (``_superoperator``), rebuilt on each call."""
        return _superoperator(self.K, self.jumps)

    def as_dense(self) -> np.ndarray:
        if self._dense is None:
            d = self.dim
            if d > DENSE_DIM_CAP:
                raise NumericalFailure(
                    f"dense superoperator at dim={d} would be {d*d}x{d*d}; refusing"
                )
            self._dense = self.superoperator().toarray()
        return self._dense


def build_liouvillian(model) -> Liouvillian:
    """Assemble the generator of an EffectiveModel over its registry: one
    jump operator sqrt(rate) L per channel."""
    Hmat = to_matrix(model.H_eff, model.registry)
    herm = np.max(np.abs(Hmat - Hmat.conj().T))
    if herm > 1e-9:
        raise PhysicsValidationError(f"H_eff matrix not Hermitian: {herm:.2e}")
    jumps = [np.sqrt(ch.rate_prefactor) * to_matrix(ch.op, model.registry)
             for ch in model.channels]
    return Liouvillian(Hmat=Hmat, jumps=jumps)


def _validate_evolved(rho: np.ndarray, where: str) -> DensityMatrix:
    """Checks a state rebuilt by ``from_coords`` (Hermitian by construction);
    ``where`` names it in the messages ("t=0.5", "steady state")."""
    tr = np.trace(rho).real
    if not abs(tr - 1.0) <= 1e-8:  # NaN fails too
        raise NumericalFailure(f"trace drift {tr - 1:.3e} at {where}")
    w = np.linalg.eigvalsh(rho)
    if not w[0] >= ABORT_FLOOR:
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
    certified truncation error of at most CHEBYSHEV_TOL per sub-step; on an
    almost imaginary spectrum it needs fewer products than a Krylov basis.
    Any other generator is propagated by ``_krylov``, whose accepted steps'
    local error estimates add up to at most KRYLOV_TOL (recorded as
    ``error_estimate``).

    Either one propagates only the coordinates that R's sparsity graph
    reaches from the support of x0 (``_reachable``), on the principal
    submatrix of R over them; every other coordinate of exp(R t) x0 is
    exactly 0 (module docstring).  When every coordinate is reachable, R
    itself is used.  If ``stats`` is given, it receives the method, its
    work counters, the range box, the number of propagated coordinates
    (``propagated_dim``) and the size of R.
    """
    t_grid = list(t_grid)
    if t_grid[0] != 0 or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly increasing and start at 0")
    spread, delta = liou.range_box()
    x0 = to_coords(rho0.mat)
    keep = _reachable(liou.R, x0)
    sub = liou if keep.size == x0.size else liou.restricted(keep)
    propagate = _chebyshev if spread > delta else _krylov
    xs, work = propagate(sub, x0[keep], t_grid, spread, delta)
    if stats is not None:
        stats.update(work, hamiltonian_spread=spread, dissipative_bound=delta,
                     propagated_dim=int(keep.size), **liou.generator_stats())
    x = np.zeros_like(x0)  # from_coords copies, so one buffer serves all
    states = []
    for x_keep, t in zip(xs, t_grid):
        x[keep] = x_keep
        states.append(_validate_evolved(from_coords(x, liou.dim), f"t={t:g}"))
    return states


def _reachable(R: sparse.csr_matrix, x0: np.ndarray) -> np.ndarray:
    """Sorted indices of the coordinates that R's sparsity graph reaches
    from the support of x0: the support grown by the rows of R's entries in
    its columns until nothing is added.  R maps their span into itself.
    The products run on R's pattern with unit entries, so no cancellation
    can hide an entry."""
    pattern = sparse.csr_matrix((np.ones_like(R.data), R.indices, R.indptr),
                                shape=R.shape)
    seen = x0 != 0
    front = seen
    while front.any():
        front = (pattern @ front.astype(float) > 0) & ~seen
        seen |= front
    return np.flatnonzero(seen)


def _krylov(liou, x0, t_grid, spread, delta) -> tuple[list, dict]:
    """Adaptive Arnoldi propagation (Saad, SIAM J. Numer. Anal. 29, 209
    (1992); Sidje, ACM TOMS 24, 130 (1998)).

    From x, k <= m = min(KRYLOV_BASIS, n) products with R build an
    orthonormal basis V_k with R V_k = V_k H_k + h_{k+1,k} v_{k+1} e_k^T,
    and exp(R s) x ~ beta V_k exp(s H_k) e_1, beta = ||x||_2, for every s
    up to the step h.  Saad's estimate of the local error is
    beta |[exp(h Hbar)]_{k+1,1}| with Hbar = [[H_k, 0], [h_{k+1,k} e_k^T, 0]].
    A step passes when the estimate is at most KRYLOV_TOL beta h / T, so the
    accepted estimates add up to at most KRYLOV_TOL max beta, and
    beta = ||rho||_F <= tr rho = 1.  Each basis is used for the longest step
    it admits (``_longest_step``): trials of h on the same basis cost one
    small expm each and no products with R.  A happy breakdown
    (h_{k+1,k} ~ 0) makes the basis invariant under R; the step then runs
    to T.  The first trial h follows Expokit from the norm bound
    c = spread + delta; each later basis starts from the step its
    predecessor took.

    A grid point inside a step at t + s is read off the basis as
    beta V_k u with u = exp(s H_k) e_1.  Each such point advances the
    previous one's u (e_1 at t) by exp(Delta H_k), Delta its distance from
    that point; the exponential is reused while Delta agrees with the one
    it was computed for to 4 eps T, so a uniform grid pays at most two
    expm per step and any other grid one per point.
    """
    T = t_grid[-1]
    eps = np.finfo(float).eps
    n = x0.size
    m = min(KRYLOV_BASIS, n)
    c = spread + delta
    # Expokit's first step, with its constant ((m+1)/e)^(m+1) sqrt(2 pi (m+1))
    log_fact = ((m + 1) * (math.log(m + 1) - 1.0)
                + 0.5 * math.log(2 * math.pi * (m + 1)))
    h = math.exp((log_fact + math.log(KRYLOV_TOL / 4.0)) / m) / c if c > 0 else T
    V = np.empty((m + 1, n))
    Hbar = np.zeros((m + 1, m + 1))
    x = x0
    xs = [x]
    i = 1
    t = 0.0
    work = dict(rhs_evaluations=0, steps=0, rejected=0, expm_evaluations=0)
    error = 0.0
    while t < T:
        beta = math.sqrt(x @ x)
        V[0] = x / beta
        Hbar[:] = 0.0
        k, happy = m, False
        for j in range(m):
            w = liou.apply(V[j])
            work["rhs_evaluations"] += 1
            scale = math.sqrt(w @ w)
            basis = V[:j + 1]
            for _ in range(2):  # classical Gram-Schmidt, reorthogonalized once
                coef = basis @ w
                w -= coef @ basis
                Hbar[:j + 1, j] += coef
            Hbar[j + 1, j] = hnorm = math.sqrt(w @ w)
            if hnorm <= BREAKDOWN_TOL * scale:
                k, happy = j + 1, True
                break
            V[j + 1] = w / hnorm
        remaining = T - t
        h, F, est = _longest_step(
            Hbar[:k + 1, :k + 1], beta, KRYLOV_TOL * beta / T, t,
            remaining if happy else min(h, remaining), remaining, work)
        t_new = T if h == remaining else t + h
        u, s, advance = np.eye(k)[:, 0], t, None
        while i < len(t_grid) and t_grid[i] < t_new:
            if advance is None or abs(t_grid[i] - s - dt) > 4.0 * eps * T:
                dt = t_grid[i] - s
                advance = expm(dt * Hbar[:k, :k])
                work["expm_evaluations"] += 1
            u, s = advance @ u, t_grid[i]
            xs.append(beta * (u @ V[:k]))
            i += 1
        x = beta * (F[:k, 0] @ V[:k])
        if i < len(t_grid) and t_grid[i] == t_new:
            xs.append(x)
            i += 1
        t = t_new
        work["steps"] += 1
        error += est
    return xs, dict(method="krylov", **work, basis=m, tolerance=KRYLOV_TOL,
                    error_estimate=error)


def _longest_step(Hbar, beta, rate, t, h, remaining, work) -> tuple:
    """(s, exp(s Hbar), estimate) for the longest step s <= remaining, to
    within one bisection, whose estimate beta |[exp(s Hbar)]_{k+1,1}| is at
    most rate s.

    A trial at h that passes doubles until one fails or reaches
    ``remaining``; one that fails halves until one passes.  The bracket is
    then bisected once.  Each trial is one expm of the (k+1) x (k+1) Hbar;
    ``work`` counts them (``expm_evaluations``) and the failed ones
    (``rejected``).  Halving to nothing at t raises NumericalFailure.
    """
    k = Hbar.shape[0] - 1

    def trial(s):
        F = expm(s * Hbar)
        est = beta * abs(float(F[k, 0]))
        work["expm_evaluations"] += 1
        if est <= rate * s:
            return s, F, est
        work["rejected"] += 1
        return None

    good, bad = trial(h), None
    while good is None:
        bad, h = h, 0.5 * h
        if t + h == t:
            raise NumericalFailure(f"Krylov step underflow at t={t:g}")
        good = trial(h)
    while bad is None and good[0] < remaining:
        h = min(2.0 * good[0], remaining)
        longer = trial(h)
        if longer is None:
            bad = h
        else:
            good = longer
    if bad is not None:
        good = trial(0.5 * (good[0] + bad)) or good
    return good


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

    The recurrence runs in place on a copy of ``liou`` whose R is (2/c) R
    (``liou`` itself is not touched): phi_{k+1} = apply(phi_k, out=phi_{k-1})
    overwrites phi_{k-1}, and the sum accumulates by daxpy, so a product
    allocates nothing (``_chebyshev_step``).

    Grid spacings that differ by rounding share one plan: the current plan,
    made for ell_plan, is reused while |ell - ell_plan| <= 4 eps c T,
    T = t_grid[-1], the rule ``_krylov`` applies to its advance exponential.
    A step then advances by ell_plan / c, which is at most 4 eps T from the
    length of its interval.
    """
    c = spread + delta
    ratio = delta / c
    log_rho = math.acosh((ratio + math.sqrt(4.0 + ratio * ratio)) / 2.0)
    scaled = copy.copy(liou)
    scaled.R = liou.R * (2.0 / c)
    same_plan = 4.0 * float(np.finfo(float).eps) * c * t_grid[-1]
    x = x0
    xs = [x]
    products = substeps = degree = 0
    bound = 0.0
    plan_ell = None
    for t0, t1 in zip(t_grid, t_grid[1:]):
        ell = c * (t1 - t0)
        if plan_ell is None or abs(ell - plan_ell) > same_plan:
            plan_ell = ell
            m, coef, err = _chebyshev_plan(ell, log_rho)
        for _ in range(m):
            x = _chebyshev_step(scaled, x, coef)
        xs.append(x)
        products += m * (len(coef) - 1)
        substeps += m
        degree = max(degree, len(coef) - 1)
        bound += m * err
    return xs, dict(method="chebyshev", rhs_evaluations=products,
                    steps=len(t_grid) - 1, substeps=substeps, degree=degree,
                    tolerance=CHEBYSHEV_TOL, truncation_bound=bound)


def _chebyshev_step(scaled, x, coef) -> np.ndarray:
    """sum_k coef[k] phi_k with phi_0 = x, for ``scaled`` whose R is (2/c) R:
    len(coef) - 1 products, each added in place into the buffer of
    phi_{k-1}.  x is not overwritten."""
    y = coef[0] * x
    if len(coef) > 1:
        cur = scaled.apply(x)
        cur *= 0.5  # phi_1 = R x / c
        prev = x.copy()
        y = daxpy(cur, y, a=coef[1])
        for ck in coef[2:]:
            prev, cur = cur, scaled.apply(cur, out=prev)
            y = daxpy(cur, y, a=ck)
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
    from scipy import special  # about 0.1 s; only the Chebyshev path needs it

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
    """(m, coefficients, bound) of an interval ell = c dt cut into the
    fewest m equal sub-steps that are stable.

    A sub-step is stable when the rounding of its sum stays within the
    tolerance: ||phi_k|| <= (1 + sqrt 2) rho^k ||x|| (Crouzeix-Palencia
    again) and sum_{k<K} |c_k| <= 1 + sqrt(2 K), since J_0^2 + 2 sum_k J_k^2
    = 1, so the kept terms are summed to about
    eps (1 + sqrt 2) rho^K (1 + sqrt(2 K)).  A long interval has to be cut:
    rho^ell grows without limit, and with it both that rounding and the
    degree per unit of ell.  Since K(l) > l, no count below
    ell log_rho / LOG_ROUNDING_BUDGET is stable; m is found from there by
    doubling and bisection.  Larger counts lower the degree per sub-step
    but seldom the products m K(ell / m): on sampled intervals up to
    ell = 3e4 the cheapest count up to 2 m saved at most 0.2 %.
    """
    from scipy import special

    def stable(m: int) -> bool:
        K = _degree(ell / m, log_rho)[0]
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
    m = hi
    K, err = _degree(ell / m, log_rho)
    coef = special.jv(np.arange(K), ell / m)
    coef[1:] *= 2.0
    return m, coef, err


def steady_state(liou: Liouvillian, stats: dict | None = None) -> DensityMatrix:
    """Kernel of the real generator R by ARPACK shift-invert Arnoldi (mode 3;
    Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998).

    The shift sigma = +1e-9 ||R||_1 keeps R - sigma regular, since no
    eigenvalue of a Lindbladian (R has the spectrum of S) has a positive
    real part.  R - sigma is factored once here (``splu``, CSC), and every
    Arnoldi step is one solve with that factor.  ARPACK runs on a basis of
    min(STEADY_BASIS, d^2) vectors to the relative tolerance STEADY_TOL on
    its Ritz values, not to machine precision, so lambda_2 is reported to
    about that precision: a Ritz residual bounds an eigenvalue's error only
    up to its condition number, and on the seed-1 d = 80 benchmark model
    lambda_2 is 3.8e-5 relative from its tol = 0 value.  That is ample for
    the one check it feeds: a second eigenvalue within 1e-9 ||R||_1 of zero
    means several steady states.

    A non-finite eigenpair raises NumericalFailure.  The kernel vector,
    normalized to tr rho = 1, should meet ||R x||_2 <= STEADY_RESIDUAL; a
    larger residual is recorded, not raised.  The state passes the checks of
    an integrated one (``_validate_evolved``): a population below
    ABORT_FLOOR raises NumericalFailure.

    ``stats``, if given, receives the method, |lambda_2| and the tolerance
    it was converged to, the residual ||R x||_2 = ||L rho||_F and whether it
    met STEADY_RESIDUAL, the number of solves and the basis size, the
    stored entries of the factor L + U and their bytes, and the size of R.
    The entries are SuperLU's own count, since the CSC copies ``lu.L`` and
    ``lu.U`` would add 41 MB to the peak memory of a d = 80 steady state.
    The bytes count a float64 value and an int32 row index per entry and no
    column pointers; L's supernodes share their row indices, so SuperLU
    keeps fewer.
    """
    d = liou.dim
    R = liou.R
    n = d * d
    scale = spla.norm(R, 1) or 1.0
    sigma = 1e-9 * scale
    lu = spla.splu((R - sigma * sparse.identity(n, format="csr")).tocsc())
    solves = 0

    def solve(b):
        nonlocal solves
        solves += 1
        return lu.solve(b)

    # ARPACK takes k + 1 < basis <= n, here 4 <= basis <= d^2
    basis = min(STEADY_BASIS, n)
    # a fixed start vector keeps the result, and so the manifests, reproducible
    v0 = np.random.default_rng(0).standard_normal(n)
    w, v = spla.eigs(R, k=2, sigma=sigma, which="LM", v0=v0, ncv=basis,
                     tol=STEADY_TOL,
                     OPinv=spla.LinearOperator((n, n), matvec=solve,
                                               dtype=float))
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise NumericalFailure(
            "shift-invert eigensolve returned a non-finite eigenpair")
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
    if stats is not None:
        stats.update(method="sparse-shift-invert", lambda2_abs=lam2,
                     arpack_tol=STEADY_TOL, arpack_basis=basis, solves=solves,
                     residual=res, residual_within_target=res <= STEADY_RESIDUAL,
                     factor_nnz=lu.nnz, factor_bytes=lu.nnz * (8 + 4),
                     **liou.generator_stats())
    return _validate_evolved(from_coords(x, d), "steady state")


def fock_leak(rho: np.ndarray) -> float:
    """Top-two-level population of one mode's matrix, floored at 0
    (truncation adequacy probe)."""
    return max(0.0, float(np.diag(rho).real[-2:].sum()))
