"""Fock-space realization, dissipators, Liouvillian assembly, integration,
and steady states, checked against closed-form moment dynamics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm

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
    squeezed_jumps,
    steady_state,
    to_coords,
    to_matrix,
    trace_distance,
)
from slhnet.network import (
    AmplifierParams,
    Bath,
    DissipationChannel,
    EffectiveModel,
    FeedbackLoopSpec,
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
        reg = ModeRegistry((("a", 70), ("b", 70)))
        with pytest.raises(PhysicsValidationError, match="cap"):
            to_matrix(OperatorExpr.number(reg, "a"), reg)


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

    def test_squeezed_reduces_to_vacuum_at_zero_bath(self):
        rng = np.random.default_rng(5)
        L = annihilation_matrix(6)
        rho = random_density(6, rng)
        jumps = squeezed_jumps(L, 0.0, 0.0)
        assert len(jumps) == 1
        assert_close_matrices(
            act(Liouvillian(zero_hamiltonian(6), jumps=jumps), rho),
            act(Liouvillian(zero_hamiltonian(6), jumps=[L]), rho),
            1e-14,
            "N=M=0 reduction",
        )

    def test_squeezed_rejects_unphysical_bath(self):
        L = annihilation_matrix(4)
        with pytest.raises(PhysicsValidationError, match="unphysical"):
            squeezed_jumps(L, 0.5, 1.2)

    def test_squeezed_dissipator_traceless(self):
        rng = np.random.default_rng(6)
        L = annihilation_matrix(6)
        liou = Liouvillian(zero_hamiltonian(6), jumps=squeezed_jumps(L, 0.8, 0.6 + 0.2j))
        for _ in range(20):
            out = act(liou, random_density(6, rng))
            assert abs(np.trace(out)) < 1e-12


def squeezed_cavity_liouvillian(dim: int, gamma: float, N: float, M: complex):
    """Single lossy mode relaxing into a squeezed bath, H = 0."""
    reg, a = single_mode(dim)
    model = EffectiveModel(
        H_eff=OperatorExpr.zero(reg),
        channels=(
            DissipationChannel(
                op=a, bath=Bath.squeezed(N, M), rate_prefactor=gamma
            ),
        ),
        registry=reg,
    )
    return build_liouvillian(model, reg)


def driven_squeezed_model(dim: int = 6, damping: float = 1.0):
    """A Kerr oscillator with a drive, a vacuum channel and a squeezed
    channel on the same mode, with the reference matrices of each part.

    At d = 6 the spread of H is 7.96 against a dissipative bound of 16.5
    times ``damping``: ``integrate`` runs RK45 at damping 1 and the
    Chebyshev propagator at damping 0.1."""
    reg, a = single_mode(dim)
    n = a.adjoint() * a
    N, M = 0.6, 0.3 - 0.4j
    rate_v, rate_s = 0.7 * damping, 0.45 * damping
    model = EffectiveModel(
        H_eff=0.8 * n + 0.15 * n * n + 0.25 * (a + a.adjoint()),
        channels=(
            DissipationChannel(op=a, rate_prefactor=rate_v),
            DissipationChannel(
                op=a, bath=Bath.squeezed(N, M), rate_prefactor=rate_s
            ),
        ),
        registry=reg,
    )
    return reg, model, (N, M, rate_v, rate_s)


class TestJumpForm:
    def test_superoperator_matches_jump_form(self):
        """S vec(x) = vec(K x + x K^dag + sum C x C^dag), x not Hermitian."""
        reg, model, _ = driven_squeezed_model()
        liou = build_liouvillian(model, reg)
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
        liou = build_liouvillian(model, reg)
        S = liou.superoperator()
        rng = np.random.default_rng(23)
        for _ in range(5):
            rho = random_density(6, rng)
            assert_close_matrices(
                (S @ rho.ravel()).reshape(6, 6), act(liou, rho), 1e-13, "R"
            )

    def test_apply_matches_four_term_dissipator(self):
        reg, model, (N, M, rate_v, rate_s) = driven_squeezed_model()
        liou = build_liouvillian(model, reg)
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
        liou = build_liouvillian(model, reg)
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
        """RK45 at rtol 1e-8 / atol 1e-10."""
        self.check_against_exact_propagator(1.0, "RK45", 1e-7)

    def test_chebyshev_matches_exact_propagator(self):
        """The Chebyshev path, certified to 1e-12 per sub-step."""
        self.check_against_exact_propagator(0.1, "chebyshev", 1e-10)

    def check_products_go_through_apply(self, monkeypatch, damping, method):
        """The benchmark's tracer counts right-hand sides as the calls of
        ``Liouvillian.apply`` made by ``integrate``."""
        reg, model, _ = driven_squeezed_model(damping=damping)
        liou = build_liouvillian(model, reg)
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
        self.check_products_go_through_apply(monkeypatch, 1.0, "RK45")

    def test_every_chebyshev_product_goes_through_apply(self, monkeypatch):
        self.check_products_go_through_apply(monkeypatch, 0.1, "chebyshev")

    @pytest.mark.parametrize("damping", [1.0, 0.1, None])
    def test_range_box_contains_numerical_range(self, damping):
        """W(R) lies in |Re z| <= delta, |Im z| <= spread(H) + delta: the
        spectra of the Hermitian and skew-Hermitian parts of R do.  Without
        channels (damping None), R = R_H and ||R_H||_2 = spread(H)."""
        reg, model, _ = driven_squeezed_model(damping=damping or 1.0)
        if damping is None:
            model = EffectiveModel(H_eff=model.H_eff, channels=(), registry=reg)
        liou = build_liouvillian(model, reg)
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
        liou = build_liouvillian(model, reg)
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
        liou = build_liouvillian(model, reg)
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
        liou = build_liouvillian(model, reg)
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
        liou = build_liouvillian(model, reg)
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
            channels=(
                DissipationChannel(op=a, rate_prefactor=0.8),
                DissipationChannel(
                    op=a, bath=Bath.squeezed(0.5, 0.4j), rate_prefactor=0.3
                ),
            ),
            registry=reg,
        )
        liou = build_liouvillian(model, reg)
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
        liou = build_liouvillian(model, reg)
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
            build_liouvillian(model, reg)


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
        rho_fin = steady_state(build_liouvillian(eliminate_amplifier(spec), reg))
        rho_lim = steady_state(build_liouvillian(high_gain_limit(spec), reg))
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
        liou = build_liouvillian(model, reg)
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
        liou = build_liouvillian(model, reg)
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
        rho = steady_state(build_liouvillian(model, reg))
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
        rho = steady_state(build_liouvillian(model, reg), stats=stats)
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
            steady_state(build_liouvillian(model, reg))

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
            steady_state(build_liouvillian(model, reg))

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

    def test_dense_representation_guard(self):
        dim = 130
        liou = Liouvillian(zero_hamiltonian(dim))
        with pytest.raises(NumericalFailure, match="refusing"):
            liou.as_dense()
