"""Fock-space realization, dissipators, Liouvillian assembly, integration,
and steady states, checked against closed-form moment dynamics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from slhnet import lindblad
from slhnet.algebra import ModeRegistry, OperatorExpr
from slhnet.lindblad import (
    DensityMatrix,
    Liouvillian,
    NumericalFailure,
    PhysicsValidationError,
    annihilation_matrix,
    build_liouvillian,
    fock_leak,
    from_coords,
    integrate,
    partial_trace,
    steady_state,
    to_coords,
    to_matrix,
    trace_distance,
)
from slhnet.network import (
    AmplifierParams,
    DissipationChannel,
    EffectiveModel,
    FeedbackLoopSpec,
    compose_loop_full,
    eliminate_amplifier,
    high_gain_limit,
)

from .conftest import assert_close_matrices


def single_mode(dim: int) -> tuple[ModeRegistry, OperatorExpr]:
    reg = ModeRegistry((("a", dim),))
    return reg, OperatorExpr.annihilation(reg, "a")


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def act(liou: Liouvillian, rho: np.ndarray) -> np.ndarray:
    """L rho through the real coordinates that ``apply`` works on."""
    return from_coords(liou.apply(to_coords(rho)), liou.dim)


class TestMatrixRealization:
    def test_annihilation_ladder_entries(self):
        reg, a = single_mode(3)
        expected = np.array(
            [[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]], dtype=complex
        )
        assert_close_matrices(to_matrix(a, reg), expected, 1e-15, "ladder")

    def test_number_operator_diagonal(self):
        reg, a = single_mode(4)
        n = a.adjoint() * a
        assert_close_matrices(
            to_matrix(n, reg), np.diag([0.0, 1.0, 2.0, 3.0]), 1e-15, "number"
        )

    def test_number_squared_diagonal(self):
        reg, a = single_mode(4)
        n = a.adjoint() * a
        assert_close_matrices(
            to_matrix(n * n, reg), np.diag([0.0, 1.0, 4.0, 9.0]), 1e-15, "n^2"
        )

    def test_two_mode_tensor_order_follows_registry(self):
        reg = ModeRegistry((("a", 2), ("b", 3)))
        n_a = OperatorExpr.number(reg, "a")
        n_b = OperatorExpr.number(reg, "b")
        eye2, eye3 = np.eye(2), np.eye(3)
        assert_close_matrices(
            to_matrix(n_a, reg), np.kron(np.diag([0.0, 1.0]), eye3), 1e-15,
            "first mode slow index",
        )
        assert_close_matrices(
            to_matrix(n_b, reg), np.kron(eye2, np.diag([0.0, 1.0, 2.0])),
            1e-15, "second mode fast index",
        )

    def test_dimension_cap_enforced(self):
        """Two modes of 65 levels (4225 > DIM_CAP = 4096): ``to_matrix``
        refuses them, and so ``build_liouvillian`` refuses the model before
        it assembles a generator."""
        reg = ModeRegistry((("a", 65), ("b", 65)))
        n_a = OperatorExpr.number(reg, "a")
        with pytest.raises(PhysicsValidationError, match="exceeds cap"):
            to_matrix(n_a, reg)
        model = EffectiveModel(H_eff=n_a, channels=(), registry=reg)
        with pytest.raises(PhysicsValidationError, match="exceeds cap"):
            build_liouvillian(model)


def zero_hamiltonian(dim: int) -> np.ndarray:
    return np.zeros((dim, dim), dtype=complex)


def vacuum_dissipator_reference(L: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[L]rho written out term by term."""
    Ld = L.conj().T
    return L @ rho @ Ld - 0.5 * (Ld @ L @ rho + rho @ Ld @ L)


def squeezed_dissipator_reference(L, N, M, rho):
    """The four-term squeezed-bath dissipator D_s[L]rho."""
    Ld = L.conj().T
    L2, Ld2 = L @ L, Ld @ Ld
    return (
        (N + 1) * vacuum_dissipator_reference(L, rho)
        + N * vacuum_dissipator_reference(Ld, rho)
        + np.conj(M) * (L @ rho @ L - 0.5 * (L2 @ rho + rho @ L2))
        + M * (Ld @ rho @ Ld - 0.5 * (Ld2 @ rho + rho @ Ld2))
    )


def squeezed_channels(op: OperatorExpr, N: float, M: complex, rate: float):
    """Vacuum channels whose dissipators add up to the squeezed-bath
    dissipator rate D_s[L] of ``squeezed_dissipator_reference``, L = ``op``.

    D_s has the coefficient matrix G = [[N+1, conj(M)], [M, N]] over
    (L, L^dag); with G = U diag(g) U^dag it is sum_m D[C_m] for the
    Bogoliubov operators C_m = sqrt(g_m) (U_0m L + U_1m L^dag), g_m > 0.
    """
    g, U = np.linalg.eigh([[N + 1, np.conj(M)], [M, N]])
    return tuple(
        DissipationChannel(
            op=math.sqrt(gm) * (U[0, m] * op + U[1, m] * op.adjoint()),
            rate_prefactor=rate,
        )
        for m, gm in enumerate(g) if gm > 0.0
    )


class TestDissipators:
    def test_single_photon_decay_action(self):
        gamma = 0.7
        L = math.sqrt(gamma) * annihilation_matrix(3)
        rho1 = DensityMatrix.fock(3, 1).mat
        out = act(Liouvillian(zero_hamiltonian(3), jumps=[L]), rho1)
        expected = gamma * (DensityMatrix.fock(3, 0).mat - rho1)
        assert_close_matrices(out, expected, 1e-14, "decay")

    def test_zero_operator_gives_zero_map(self):
        rng = np.random.default_rng(3)
        liou = Liouvillian(zero_hamiltonian(4), jumps=[np.zeros((4, 4))])
        out = act(liou, random_density(4, rng))
        assert np.max(np.abs(out)) == 0.0

    def test_vacuum_dissipator_traceless(self):
        rng = np.random.default_rng(4)
        L = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        liou = Liouvillian(zero_hamiltonian(5), jumps=[L])
        for _ in range(20):
            out = act(liou, random_density(5, rng))
            assert abs(np.trace(out)) < 1e-12


def squeezed_cavity_liouvillian(dim: int, gamma: float, N: float, M: complex):
    """Single lossy mode relaxing into a squeezed bath, H = 0."""
    reg, a = single_mode(dim)
    model = EffectiveModel(
        H_eff=OperatorExpr.zero(reg),
        channels=squeezed_channels(a, N, M, gamma),
        registry=reg,
    )
    return build_liouvillian(model)


def driven_squeezed_model(dim: int = 6, damping: float = 1.0):
    """A Kerr oscillator with a drive, a vacuum channel and the Bogoliubov
    channels of a squeezed bath on the same mode, with the parameters of
    each part.

    At d = 6 the spread of H is 7.96 against a dissipative bound of 16.5
    times ``damping``: ``integrate`` runs the Krylov propagator at damping 1
    and the Chebyshev propagator at damping 0.1."""
    reg, a = single_mode(dim)
    n = a.adjoint() * a
    N, M = 0.6, 0.3 - 0.4j
    rate_v, rate_s = 0.7 * damping, 0.45 * damping
    model = EffectiveModel(
        H_eff=0.8 * n + 0.15 * n * n + 0.25 * (a + a.adjoint()),
        channels=(DissipationChannel(op=a, rate_prefactor=rate_v),)
        + squeezed_channels(a, N, M, rate_s),
        registry=reg,
    )
    return reg, model, (N, M, rate_v, rate_s)


def stiff_composite(amp_dim: int = 8) -> Liouvillian:
    """The full loop of a plant of 4 levels fed back through an amplifier of
    ``amp_dim`` levels, at kappa / gamma = 100 and squeezing r0 = 0.5: a
    small copy (d = 32 at the default 8) of the oracle's stiffest composite,
    with rounding-level parts in K.  Registry order: plant, then amplifier."""
    reg, a = single_mode(4)
    spec = FeedbackLoopSpec(
        plant_H=0.8 * a.adjoint() * a,
        theta=0.3,
        L=a,
        L_f=0.5 * math.sqrt(0.5) * (a + a.adjoint()),
        amp=AmplifierParams(kappa=100.0, xi=100.0 * math.tanh(0.25)),
    )
    comp = compose_loop_full(spec, amp_dim)
    return build_liouvillian(EffectiveModel(
        H_eff=comp.H, channels=(DissipationChannel(op=comp.L),),
        registry=comp.registry,
    ))


def lossy_kerr(dim: int, drive: float) -> Liouvillian:
    """A Kerr oscillator with loss, driven at amplitude ``drive``."""
    reg, a = single_mode(dim)
    n = a.adjoint() * a
    return build_liouvillian(EffectiveModel(
        H_eff=0.8 * n + 0.15 * n * n + drive * (a + a.adjoint()),
        channels=(DissipationChannel(op=a, rate_prefactor=0.7),),
        registry=reg,
    ))


def expm_orders(monkeypatch) -> list:
    """Records the order of every matrix that ``lindblad`` exponentiates:
    on the Krylov path, k + 1 for a step trial's Hbar and k for an interior
    grid point's H_k."""
    orders = []
    expm = lindblad.expm

    def counted(a):
        orders.append(a.shape[0])
        return expm(a)

    monkeypatch.setattr(lindblad, "expm", counted)
    return orders


def assert_matches_stepwise_expm_multiply(liou, rho0, t_grid, states):
    """The states match expm_multiply on the full R, interval by interval,
    to 1e-10."""
    x = to_coords(rho0.mat)
    for t0, t1, st in zip(t_grid, t_grid[1:], states[1:]):
        x = expm_multiply(liou.R * (t1 - t0), x)
        assert np.max(np.abs(to_coords(st.mat) - x)) < 1e-10


class TestJumpForm:
    def test_superoperator_matches_jump_form(self):
        """S vec(x) = vec(K x + x K^dag + sum C x C^dag), x not Hermitian."""
        reg, model, _ = driven_squeezed_model()
        liou = build_liouvillian(model)
        S = liou.superoperator()
        K = liou.K
        rng = np.random.default_rng(21)
        for _ in range(5):
            x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            want = K @ x + x @ K.conj().T
            for C in liou.jumps:
                want += C @ x @ C.conj().T
            assert_close_matrices(
                (S @ x.ravel()).reshape(6, 6), want, 1e-13, "S vec"
            )

    def test_apply_matches_sparse_superoperator(self):
        """R to_coords(rho) rebuilds S vec(rho) on Hermitian rho."""
        reg, model, _ = driven_squeezed_model()
        liou = build_liouvillian(model)
        S = liou.superoperator()
        rng = np.random.default_rng(23)
        for _ in range(5):
            rho = random_density(6, rng)
            assert_close_matrices(
                (S @ rho.ravel()).reshape(6, 6), act(liou, rho), 1e-13, "R"
            )

    def test_apply_matches_four_term_dissipator(self):
        reg, model, (N, M, rate_v, rate_s) = driven_squeezed_model()
        liou = build_liouvillian(model)
        H = to_matrix(model.H_eff, reg)
        L = annihilation_matrix(6)
        rng = np.random.default_rng(22)
        for _ in range(5):
            rho = random_density(6, rng)
            want = (
                -1j * (H @ rho - rho @ H)
                + rate_v * vacuum_dissipator_reference(L, rho)
                + rate_s * squeezed_dissipator_reference(L, N, M, rho)
            )
            assert_close_matrices(act(liou, rho), want, 1e-13, "D_s")
            assert_close_matrices(
                (liou.superoperator() @ rho.ravel()).reshape(6, 6), want,
                1e-13, "S D_s",
            )

    def check_against_exact_propagator(self, damping, method, tol):
        """``integrate`` against expm(S t) vec(rho0) on a non-uniform grid."""
        reg, model, _ = driven_squeezed_model(damping=damping)
        liou = build_liouvillian(model)
        S = liou.superoperator().toarray()
        rho0 = DensityMatrix.coherent(6, 0.6 - 0.3j)
        t_grid = [0.0, 0.2, 0.9, 2.5, 6.0]
        stats: dict = {}
        states = integrate(liou, rho0, t_grid, stats=stats)
        assert stats["method"] == method
        for t, st in zip(t_grid, states):
            exact = (expm(S * t) @ rho0.mat.ravel()).reshape(6, 6)
            assert np.max(np.abs(st.mat - exact)) < tol

    def test_integrate_matches_exact_propagator(self):
        """The Krylov path, its local error estimates held to 1e-12."""
        self.check_against_exact_propagator(1.0, "krylov", 1e-10)

    def test_chebyshev_matches_exact_propagator(self):
        """The Chebyshev path, certified to 1e-12 per sub-step."""
        self.check_against_exact_propagator(0.1, "chebyshev", 1e-10)

    def check_products_go_through_apply(self, monkeypatch, damping, method):
        """The benchmark's tracer counts right-hand sides as the calls of
        ``Liouvillian.apply`` made by ``integrate``."""
        reg, model, _ = driven_squeezed_model(damping=damping)
        liou = build_liouvillian(model)
        calls = []
        apply = Liouvillian.apply

        def counted(self, x):
            calls.append(1)
            return apply(self, x)

        monkeypatch.setattr(Liouvillian, "apply", counted)
        stats: dict = {}
        integrate(liou, DensityMatrix.coherent(6, 0.5), [0.0, 1.0, 3.0],
                  stats=stats)
        assert stats["method"] == method
        assert stats["rhs_evaluations"] > 0
        assert len(calls) == stats["rhs_evaluations"]

    def test_every_rhs_evaluation_goes_through_apply(self, monkeypatch):
        self.check_products_go_through_apply(monkeypatch, 1.0, "krylov")

    def test_every_chebyshev_product_goes_through_apply(self, monkeypatch):
        self.check_products_go_through_apply(monkeypatch, 0.1, "chebyshev")

    @pytest.mark.parametrize("dim", [2, 4])
    def test_happy_breakdown_is_exact(self, dim):
        """With n = d^2 below the basis size, the Arnoldi basis becomes
        invariant under R within n products, so one step reaches the end of
        the grid, and every grid point is exact to 1e-12."""
        reg, model, _ = driven_squeezed_model(dim=dim)
        liou = build_liouvillian(model)
        S = liou.superoperator().toarray()
        rho0 = DensityMatrix.coherent(dim, 0.3 + 0.2j)
        t_grid = [0.0, 0.5, 3.0, 20.0]
        stats: dict = {}
        states = integrate(liou, rho0, t_grid, stats=stats)
        assert stats["method"] == "krylov"
        assert stats["steps"] == 1
        assert stats["rhs_evaluations"] <= dim * dim
        for t, st in zip(t_grid, states):
            exact = (expm(S * t) @ rho0.mat.ravel()).reshape(dim, dim)
            assert np.max(np.abs(st.mat - exact)) < 1e-12

    def test_dense_grid_matches_stepwise_expm_multiply(self, monkeypatch):
        """201 grid points, most of them inside a Krylov step and read off
        its basis, against expm_multiply interval by interval.  The grid is
        uniform, so its interior points cost at most two expm of the 40 x 40
        H_k per step: the first point's, and exp(spacing H_k) for the
        rest."""
        reg, model, _ = driven_squeezed_model(dim=8)
        liou = build_liouvillian(model)
        rho0 = DensityMatrix.coherent(8, 0.6 - 0.3j)
        t_grid = np.linspace(0.0, 5.0, 201)
        orders = expm_orders(monkeypatch)
        stats: dict = {}
        states = integrate(liou, rho0, t_grid, stats=stats)
        assert stats["method"] == "krylov"
        assert len(orders) == stats["expm_evaluations"]
        assert set(orders) == {lindblad.KRYLOV_BASIS, lindblad.KRYLOV_BASIS + 1}
        assert (orders.count(lindblad.KRYLOV_BASIS) <= 2 * stats["steps"]
                < len(t_grid) - 2)
        assert_matches_stepwise_expm_multiply(liou, rho0, t_grid, states)

    def test_non_uniform_grid_pays_one_expm_per_interior_point(
            self, monkeypatch):
        """On a grid whose spacings differ beyond rounding, every interior
        point costs its own expm of H_k, and the states still match
        expm_multiply."""
        reg, model, _ = driven_squeezed_model(dim=8)
        liou = build_liouvillian(model)
        rho0 = DensityMatrix.coherent(8, 0.6 - 0.3j)
        t_grid = 5.0 * np.linspace(0.0, 1.0, 201) ** 1.2
        orders = expm_orders(monkeypatch)
        stats: dict = {}
        states = integrate(liou, rho0, t_grid, stats=stats)
        assert set(orders) == {lindblad.KRYLOV_BASIS, lindblad.KRYLOV_BASIS + 1}
        assert orders.count(lindblad.KRYLOV_BASIS) == len(t_grid) - 2
        assert_matches_stepwise_expm_multiply(liou, rho0, t_grid, states)

    def test_krylov_records_its_steps(self):
        """The manifest fields of the Krylov path, and the range box that
        chose it.  At d = 8 (n = 64) the basis has its full size."""
        reg, model, _ = driven_squeezed_model(dim=8)
        liou = build_liouvillian(model)
        stats: dict = {}
        integrate(liou, DensityMatrix.vacuum(8), [0.0, 0.5, 1.0, 4.0],
                  stats=stats)
        spread, delta = liou.range_box()
        assert stats["hamiltonian_spread"] == spread <= delta
        assert stats["dissipative_bound"] == delta
        assert stats["basis"] == lindblad.KRYLOV_BASIS
        assert stats["steps"] >= 1
        assert 0 < stats["rhs_evaluations"] <= stats["basis"] * (
            stats["steps"] + stats["rejected"])
        # one passing trial per step, every failed one, the interior points
        assert stats["expm_evaluations"] >= stats["steps"] + stats["rejected"]
        assert 0.0 <= stats["error_estimate"] <= stats["tolerance"] == 1e-12

    def test_rejected_steps_reuse_their_basis(self):
        """An understated norm bound makes the first step far too long: the
        error estimate rejects it, and the shorter retries cost no products
        with R.  The states still match expm(S t) to 1e-10.  At d = 8
        (n = 64) the basis does not become invariant under R."""
        reg, model, _ = driven_squeezed_model(dim=8)
        liou = build_liouvillian(model)
        S = liou.superoperator().toarray()
        rho0 = DensityMatrix.coherent(8, 0.6 - 0.3j)
        t_grid = [0.0, 0.2, 0.9, 2.5, 6.0]
        xs, work = lindblad._krylov(liou, to_coords(rho0.mat), t_grid,
                                    0.0, 1e-3)
        assert work["rejected"] > 0
        assert work["rhs_evaluations"] <= work["basis"] * work["steps"]
        assert work["error_estimate"] <= work["tolerance"]
        for t, x in zip(t_grid, xs):
            exact = (expm(S * t) @ rho0.mat.ravel()).reshape(8, 8)
            assert np.max(np.abs(from_coords(x, 8) - exact)) < 1e-10

    def test_stiff_composite_takes_the_longest_steps(self):
        """On a stiff composite each basis serves the longest step its error
        estimate admits: 15 steps, where the controller h min(2, 0.9 (bound
        / est)^(1/m)) took 19 on a basis of 40 and 30 on a basis of 30.  The
        states match expm_multiply interval by interval to 1e-10."""
        liou = stiff_composite()
        rho0 = DensityMatrix.vacuum(32)
        t_grid = np.linspace(0.0, 3.0, 7)
        stats: dict = {}
        states = integrate(liou, rho0, t_grid, stats=stats)
        assert stats["method"] == "krylov"
        assert stats["steps"] <= 16
        assert stats["expm_evaluations"] >= stats["steps"] + stats["rejected"]
        assert 0.0 < stats["error_estimate"] <= stats["tolerance"]
        assert_matches_stepwise_expm_multiply(liou, rho0, t_grid, states)

    def test_pruned_generator_matches_unpruned(self, monkeypatch):
        """R drops the composite's rounding residue, entries of at most
        eps max|R|, and its products stay within 1e-15 max|R| ||x|| of the
        unpruned R.  A generator without residue keeps every entry."""
        pruned = stiff_composite().R
        reg, a = single_mode(8)
        n = a.adjoint() * a
        kerr = EffectiveModel(
            H_eff=0.8 * n + 0.15 * n * n + 0.25 * (a + a.adjoint()),
            channels=(DissipationChannel(op=a, rate_prefactor=0.7),),
            registry=reg,
        )
        kept = build_liouvillian(kerr).R.nnz
        monkeypatch.setattr(lindblad, "PRUNE_TOL", 0.0)
        full = stiff_composite().R
        assert build_liouvillian(kerr).R.nnz == kept
        scale = np.abs(full.data).max()
        assert pruned.nnz < full.nnz
        assert np.abs((full - pruned).data).max() <= np.finfo(float).eps * scale
        rng = np.random.default_rng(31)
        for _ in range(3):
            x = rng.standard_normal(full.shape[0])
            assert (np.linalg.norm(pruned @ x - full @ x)
                    <= 1e-15 * scale * np.linalg.norm(x))

    @pytest.mark.parametrize("damping", [1.0, 0.1, None])
    def test_range_box_contains_numerical_range(self, damping):
        """W(R) lies in |Re z| <= delta, |Im z| <= spread(H) + delta: the
        spectra of the Hermitian and skew-Hermitian parts of R do.  Without
        channels (damping None), R = R_H and ||R_H||_2 = spread(H)."""
        reg, model, _ = driven_squeezed_model(damping=damping or 1.0)
        if damping is None:
            model = EffectiveModel(H_eff=model.H_eff, channels=(), registry=reg)
        liou = build_liouvillian(model)
        spread, delta = liou.range_box()
        R = liou.R.toarray()
        re = np.linalg.eigvalsh((R + R.T) / 2)
        im = np.linalg.eigvalsh((R - R.T) / 2j)
        assert max(-re[0], re[-1]) <= delta + 1e-12
        assert max(-im[0], im[-1]) <= spread + delta + 1e-12
        if damping is None:
            assert delta == 0.0
            assert im[-1] == pytest.approx(spread, rel=1e-12)

    def test_chebyshev_records_its_plan(self):
        """The manifest fields of the Chebyshev path, and the range box
        that chose it."""
        reg, model, _ = driven_squeezed_model(damping=0.1)
        liou = build_liouvillian(model)
        stats: dict = {}
        integrate(liou, DensityMatrix.vacuum(6), [0.0, 0.5, 1.0, 4.0],
                  stats=stats)
        spread, delta = liou.range_box()
        assert stats["hamiltonian_spread"] == spread > delta
        assert stats["dissipative_bound"] == delta
        assert stats["steps"] == 3
        assert stats["substeps"] >= 3
        assert stats["rhs_evaluations"] <= stats["substeps"] * stats["degree"]
        assert 0.0 < stats["truncation_bound"] <= (
            stats["substeps"] * stats["tolerance"])

    @pytest.mark.parametrize("loss", [0.0, 1e-3])
    def test_long_interval_terminates(self, loss):
        """One grid interval of c dt = 2.5e4, in at most 1.5 x 2.5e4
        products with R: one step when closed (rho = 1), cut into sub-steps
        when the weak loss makes rho^(c dt) about e^476, and within 1e-10 of
        expm(S t) either way."""
        reg, a = single_mode(8)
        n = a.adjoint() * a
        channels = (DissipationChannel(op=a, rate_prefactor=loss),) if loss else ()
        model = EffectiveModel(
            H_eff=2.0 * n + 0.5 * n * n + 0.3 * (a + a.adjoint()),
            channels=channels, registry=reg,
        )
        liou = build_liouvillian(model)
        spread, delta = liou.range_box()
        t_end = 2.5e4 / (spread + delta)
        rho0 = DensityMatrix.coherent(8, 0.5)
        stats: dict = {}
        final = integrate(liou, rho0, [0.0, t_end], stats=stats)[-1]
        assert stats["rhs_evaluations"] <= 1.5 * 2.5e4
        assert stats["method"] == "chebyshev"
        assert (stats["substeps"] > 1) == (loss > 0)
        S = liou.superoperator().toarray()
        exact = (expm(S * t_end) @ rho0.mat.ravel()).reshape(8, 8)
        assert np.max(np.abs(final.mat - exact)) < 1e-10


class TestReachableCoordinates:
    """``integrate`` propagates only the coordinates that R's sparsity graph
    reaches from the support of x0, and gives the full propagation's
    states."""

    def test_linear_loop_keeps_to_its_parity_block(self):
        """A linear loop (plant 4 x amplifier 6, kappa / gamma = 100) started
        in vacuum reaches exactly the coordinates whose row and column have
        the same total parity (-1)^(n_a + n_c): half of them.  Every other
        coordinate stays exactly 0."""
        liou = stiff_composite(amp_dim=6)
        d = liou.dim
        rho0 = DensityMatrix.vacuum(d)
        parity = np.add.outer(np.arange(4), np.arange(6)).ravel() % 2
        off_block = (parity[:, None] != parity[None, :]).ravel()
        assert np.array_equal(lindblad._reachable(liou.R, to_coords(rho0.mat)),
                              np.flatnonzero(~off_block))
        t_grid = np.linspace(0.0, 3.0, 7)
        stats: dict = {}
        states = integrate(liou, rho0, t_grid, stats=stats)
        assert stats["method"] == "krylov"
        assert stats["propagated_dim"] == d * d // 2
        for st in states:
            assert not to_coords(st.mat)[off_block].any()
        assert_matches_stepwise_expm_multiply(liou, rho0, t_grid, states)

    def test_driven_cavity_reaches_every_coordinate(self):
        liou = lossy_kerr(8, drive=0.25)
        rho0 = DensityMatrix.vacuum(8)
        assert np.array_equal(lindblad._reachable(liou.R, to_coords(rho0.mat)),
                              np.arange(64))
        stats: dict = {}
        integrate(liou, rho0, [0.0, 1.0], stats=stats)
        assert stats["propagated_dim"] == 64

    def test_fock_state_keeps_to_its_populations(self):
        """|3><3| under an undriven lossy Kerr oscillator reaches only the
        populations of |0> to |3>: a U(1) block of 4 coordinates, propagated
        by the Chebyshev path."""
        liou = lossy_kerr(8, drive=0.0)
        rho0 = DensityMatrix.fock(8, 3)
        assert np.array_equal(lindblad._reachable(liou.R, to_coords(rho0.mat)),
                              9 * np.arange(4))
        t_grid = np.linspace(0.0, 2.0, 5)
        stats: dict = {}
        states = integrate(liou, rho0, t_grid, stats=stats)
        assert stats["method"] == "chebyshev"
        assert stats["propagated_dim"] == 4
        assert_matches_stepwise_expm_multiply(liou, rho0, t_grid, states)

    @pytest.mark.parametrize("case", ["composite", "fock", "driven"])
    def test_every_product_goes_through_apply(self, monkeypatch, case):
        """``Liouvillian.apply`` makes every product, restricted or not, so
        a counter on it (as the benchmark's tracer keeps) reads
        ``rhs_evaluations``; each product is on the propagated coordinates."""
        if case == "composite":
            liou, rho0 = stiff_composite(amp_dim=6), DensityMatrix.vacuum(24)
        elif case == "fock":
            liou, rho0 = lossy_kerr(8, drive=0.0), DensityMatrix.fock(8, 3)
        else:
            liou, rho0 = lossy_kerr(8, drive=0.25), DensityMatrix.vacuum(8)
        sizes = []
        apply = Liouvillian.apply

        def counted(self, x):
            sizes.append(x.size)
            return apply(self, x)

        monkeypatch.setattr(Liouvillian, "apply", counted)
        stats: dict = {}
        integrate(liou, rho0, np.linspace(0.0, 1.0, 5), stats=stats)
        assert len(sizes) == stats["rhs_evaluations"] > 0
        assert set(sizes) == {stats["propagated_dim"]}


class TestRealCoordinates:
    def test_round_trip_preserves_state_and_norm(self):
        rng = np.random.default_rng(31)
        for d in (1, 2, 5, 9):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = g + g.conj().T
            x = to_coords(rho)
            assert x.dtype == np.float64 and x.shape == (d * d,)
            assert_close_matrices(from_coords(x, d), rho, 1e-15, "round trip")
            assert abs(np.linalg.norm(x) - np.linalg.norm(rho)) < 1e-12

    def test_rebuilt_state_is_exactly_hermitian(self):
        rng = np.random.default_rng(32)
        for d in (2, 5, 9):
            rho = from_coords(rng.normal(size=d * d), d)
            assert np.array_equal(rho, rho.conj().T)

    def test_generator_storage(self):
        """R is canonical CSR with contiguous float64 data: the fast matvec."""
        reg, model, _ = driven_squeezed_model()
        liou = build_liouvillian(model)
        R = liou.R
        assert R.shape == (36, 36)
        assert R.has_sorted_indices
        assert R.data.dtype == np.float64
        assert R.data.flags.c_contiguous
        stats = liou.generator_stats()
        assert stats["generator_nnz"] == R.nnz
        assert stats["generator_bytes"] == (
            R.data.nbytes + R.indices.nbytes + R.indptr.nbytes
        )


class TestSqueezedBathMoments:
    """Second moments against the closed-form solution of the two-variable
    moment system d<n>/dt = gamma (N - <n>), d<a^2>/dt = -gamma (<a^2> + M)."""

    @pytest.mark.parametrize(
        "N,M,dim",
        [
            (0.8, 0.6 + 0.2j, 30),
            (0.4, 0.312j, 30),
            (1.5, -0.9 + 1.1j, 44),
        ],
    )
    def test_steady_second_moments(self, N, M, dim):
        liou = squeezed_cavity_liouvillian(dim, 1.3, N, M)
        rho = steady_state(liou).mat
        a = annihilation_matrix(dim)
        mean_n = np.trace(a.conj().T @ a @ rho).real
        mean_a2 = complex(np.trace(a @ a @ rho))
        assert abs(mean_n - N) < 2e-4
        assert abs(mean_a2 - (-M)) < 2e-4

    def test_transient_second_moments(self):
        N, M, gamma, dim = 0.8, 0.6 + 0.2j, 1.3, 30
        liou = squeezed_cavity_liouvillian(dim, gamma, N, M)
        rho0 = DensityMatrix.coherent(dim, 0.7 + 0.3j)
        a = annihilation_matrix(dim)
        nmat = a.conj().T @ a
        n0 = np.trace(nmat @ rho0.mat).real
        a20 = complex(np.trace(a @ a @ rho0.mat))
        t_grid = [0.0, 0.4, 1.1, 2.5]
        for t, st in zip(t_grid, integrate(liou, rho0, t_grid)):
            decay = math.exp(-gamma * t)
            n_pred = N + (n0 - N) * decay
            a2_pred = -M + (a20 + M) * decay
            assert abs(np.trace(nmat @ st.mat).real - n_pred) < 1e-5
            assert abs(complex(np.trace(a @ a @ st.mat)) - a2_pred) < 1e-5


class TestLiouvillianAssembly:
    def test_hamiltonian_only_commutator_spectrum(self):
        dim = 4
        reg, a = single_mode(dim)
        omega = 0.9
        model = EffectiveModel(
            H_eff=omega * a.adjoint() * a, channels=(), registry=reg
        )
        liou = build_liouvillian(model)
        w = np.linalg.eigvals(liou.as_dense())
        expected = [
            -1j * omega * (j - k) for j in range(dim) for k in range(dim)
        ]
        got = sorted(w, key=lambda z: (z.imag, z.real))
        expected = sorted(expected, key=lambda z: (z.imag, z.real))
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-10

    def test_trace_annihilation_random_states(self):
        dim = 6
        reg, a = single_mode(dim)
        model = EffectiveModel(
            H_eff=0.4 * a.adjoint() * a + 0.2 * (a + a.adjoint()),
            channels=(DissipationChannel(op=a, rate_prefactor=0.8),)
            + squeezed_channels(a, 0.5, 0.4j, 0.3),
            registry=reg,
        )
        liou = build_liouvillian(model)
        rng = np.random.default_rng(7)
        for _ in range(25):
            rho = random_density(dim, rng)
            assert abs(np.trace(act(liou, rho))) < 1e-9 * np.linalg.norm(rho)

    def test_diagonal_hamiltonian_freezes_populations(self):
        """A Kerr-type Hamiltonian is diagonal in the Fock basis, so photon
        number populations can only move through dissipation channels."""
        dim = 8
        reg, a = single_mode(dim)
        n = a.adjoint() * a
        model = EffectiveModel(H_eff=0.5 * n + 0.2 * n * n, channels=(),
                               registry=reg)
        liou = build_liouvillian(model)
        rng = np.random.default_rng(8)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        rho0 = DensityMatrix(np.outer(psi, psi.conj()))
        states = integrate(liou, rho0, [0.0, 0.7, 2.1])
        for st in states:
            assert np.max(
                np.abs(np.diag(st.mat) - np.diag(rho0.mat))
            ) < 1e-8

    def test_rejects_non_hermitian_hamiltonian_matrix(self):
        reg, a = single_mode(4)
        model = EffectiveModel.__new__(EffectiveModel)
        object.__setattr__(model, "H_eff", a)
        object.__setattr__(model, "channels", ())
        object.__setattr__(model, "registry", reg)
        with pytest.raises(PhysicsValidationError, match="Hermitian"):
            build_liouvillian(model)


class TestEliminationConsistency:
    def test_finite_gain_agrees_with_high_gain_limit(self):
        """At power gain 100 the finite-gain and limiting models of the same
        loop must relax to nearby steady states."""
        dim = 20
        reg, a = single_mode(dim)
        spec = FeedbackLoopSpec(
            plant_H=0.3 * a.adjoint() * a,
            theta=math.pi,
            L=a,
            L_f=math.sqrt(0.1) * a,
            amp=AmplifierParams.from_gain(100.0),
        )
        rho_fin = steady_state(build_liouvillian(eliminate_amplifier(spec)))
        rho_lim = steady_state(build_liouvillian(high_gain_limit(spec)))
        assert fock_leak(rho_fin.mat) < 1e-4
        assert trace_distance(rho_fin.mat, rho_lim.mat) < 0.05


class TestIntegration:
    def test_zero_generator_keeps_state_constant(self):
        dim = 5
        liou = Liouvillian(zero_hamiltonian(dim))
        rho0 = DensityMatrix.coherent(dim, 0.4)
        for st in integrate(liou, rho0, [0.0, 1.0, 3.0]):
            assert_close_matrices(st.mat, rho0.mat, 1e-9, "constant")

    def test_pure_decay_matches_exponential(self):
        dim, gamma = 6, 0.9
        reg, a = single_mode(dim)
        model = EffectiveModel(
            H_eff=OperatorExpr.zero(reg),
            channels=(DissipationChannel(op=a, rate_prefactor=gamma),),
            registry=reg,
        )
        liou = build_liouvillian(model)
        nmat = to_matrix(a.adjoint() * a, reg)
        t_grid = [0.0, 1.0, 2.5, 5.0 / gamma]
        states = integrate(liou, DensityMatrix.fock(dim, 1), t_grid)
        for t, st in zip(t_grid, states):
            got = np.trace(nmat @ st.mat).real
            want = math.exp(-gamma * t)
            assert abs(got - want) < 1e-6 * want

    def test_rejects_grid_not_starting_at_zero(self):
        dim = 3
        liou = Liouvillian(zero_hamiltonian(dim))
        with pytest.raises(ValueError, match="start at 0"):
            integrate(liou, DensityMatrix.vacuum(dim), [0.5, 1.0])

    def test_rejects_non_increasing_grid(self):
        dim = 3
        liou = Liouvillian(zero_hamiltonian(dim))
        with pytest.raises(ValueError, match="increasing"):
            integrate(liou, DensityMatrix.vacuum(dim), [0.0, 1.0, 1.0])

    def test_positivity_and_hermiticity_along_random_runs(self):
        """Evolved states stay physically valid from random pure states."""
        dim = 6
        reg, a = single_mode(dim)
        n = a.adjoint() * a
        model = EffectiveModel(
            H_eff=0.5 * n + 0.11 * n * n + 0.3 * (a + a.adjoint()),
            channels=(DissipationChannel(op=a, rate_prefactor=0.6),),
            registry=reg,
        )
        liou = build_liouvillian(model)
        rng = np.random.default_rng(11)
        for _ in range(200):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            rho0 = DensityMatrix(np.outer(psi, psi.conj()))
            for st in integrate(liou, rho0, [0.0, 0.8, 2.0]):
                assert np.linalg.eigvalsh(st.mat)[0] >= -1e-7
                assert np.max(np.abs(st.mat - st.mat.conj().T)) < 1e-9
                assert abs(np.trace(st.mat).real - 1.0) < 1e-8


class TestSteadyState:
    def test_damped_cavity_relaxes_to_vacuum(self):
        dim = 7
        reg, a = single_mode(dim)
        model = EffectiveModel(
            H_eff=1.1 * a.adjoint() * a,
            channels=(DissipationChannel(op=a, rate_prefactor=0.8),),
            registry=reg,
        )
        rho = steady_state(build_liouvillian(model))
        assert trace_distance(rho.mat, DensityMatrix.vacuum(dim).mat) < 1e-9

    @pytest.mark.parametrize("dim", [50, 121])
    def test_pure_decay_relaxes_to_vacuum(self, dim):
        """H = 0 makes the kernel exact; the shift keeps S - sigma regular."""
        reg, a = single_mode(dim)
        model = EffectiveModel(
            H_eff=OperatorExpr.zero(reg),
            channels=(DissipationChannel(op=a, rate_prefactor=1.0),),
            registry=reg,
        )
        stats: dict = {}
        rho = steady_state(build_liouvillian(model), stats=stats)
        assert trace_distance(rho.mat, DensityMatrix.vacuum(dim).mat) < 1e-9
        assert stats["method"] == "sparse-shift-invert"
        assert stats["residual"] < 1e-9
        assert stats["lambda2_abs"] > 0.1

    def test_steady_state_equals_long_time_limit(self):
        N, M, gamma, dim = 0.8, 0.6 + 0.2j, 1.3, 25
        liou = squeezed_cavity_liouvillian(dim, gamma, N, M)
        rho_ss = steady_state(liou)
        rho_t = integrate(
            liou, DensityMatrix.vacuum(dim), [0.0, 50.0 / gamma]
        )[-1]
        assert trace_distance(rho_ss.mat, rho_t.mat) < 1e-6

    def test_degenerate_kernel_reported(self):
        """A closed (Hamiltonian-only) generator preserves every Fock
        population separately, so its kernel is not one-dimensional."""
        dim = 4
        reg, a = single_mode(dim)
        model = EffectiveModel(
            H_eff=0.7 * a.adjoint() * a, channels=(), registry=reg
        )
        with pytest.raises(PhysicsValidationError, match="degenerate"):
            steady_state(build_liouvillian(model))

    @pytest.mark.parametrize("dim,loss", [(4, 1e-12), (50, None), (50, 1e-12)])
    def test_unresolved_kernel_reported(self, dim, loss):
        """No channel, or a loss below 1e-9 of ||S||_1, leaves the kernel
        degenerate to working precision."""
        reg, a = single_mode(dim)
        n = a.adjoint() * a
        channels = () if loss is None else (
            DissipationChannel(op=a, rate_prefactor=loss),
        )
        model = EffectiveModel(H_eff=0.7 * n + 0.05 * n * n,
                               channels=channels, registry=reg)
        with pytest.raises(PhysicsValidationError, match="degenerate"):
            steady_state(build_liouvillian(model))

    def test_zero_generator_reported_degenerate(self):
        with pytest.raises(PhysicsValidationError, match="degenerate"):
            steady_state(Liouvillian(zero_hamiltonian(5)))


class TestDiagnostics:
    def test_fock_leak_single_mode(self):
        pops = np.array([0.9, 0.06, 0.03, 0.007, 0.003])
        rho = np.diag(pops).astype(complex)
        assert abs(fock_leak(rho) - 0.01) < 1e-12

    def test_fock_leak_two_modes_reports_worst(self):
        pa = np.diag([0.97, 0.02, 0.01]).astype(complex)
        pb = np.diag([0.995, 0.004, 0.001]).astype(complex)
        rho = np.kron(pa, pb)
        leaks = [fock_leak(partial_trace(rho, (3, 3), (k,))) for k in (0, 1)]
        assert abs(leaks[0] - 0.03) < 1e-12
        assert abs(leaks[1] - 0.005) < 1e-12

    def test_partial_trace_consistency(self):
        rng = np.random.default_rng(12)
        rho_a = random_density(3, rng)
        rho_b = random_density(4, rng)
        joint = np.kron(rho_a, rho_b)
        assert_close_matrices(
            partial_trace(joint, (3, 4), (0,)), rho_a, 1e-12, "keep first"
        )
        assert_close_matrices(
            partial_trace(joint, (3, 4), (1,)), rho_b, 1e-12, "keep second"
        )

    def test_small_negative_eigenvalue_is_clipped(self, caplog):
        """An eigenvalue between ABORT_FLOOR and CLIP_FLOOR is projected
        away: the state comes back PSD with trace 1."""
        rho = np.diag([1.0 + 5e-8, -5e-8]).astype(complex)
        with caplog.at_level("INFO", logger="slhnet.lindblad"):
            st = lindblad._validate_evolved(rho, "t=1")
        assert "clipped eigenvalue floor" in caplog.text
        assert np.linalg.eigvalsh(st.mat)[0] >= 0.0
        assert np.trace(st.mat).real == pytest.approx(1.0, abs=1e-15)
        assert_close_matrices(st.mat, np.diag([1.0, 0.0]), 1e-15, "clipped")

    def test_dense_representation_guard(self):
        dim = 130
        liou = Liouvillian(zero_hamiltonian(dim))
        with pytest.raises(NumericalFailure, match="refusing"):
            liou.as_dense()
