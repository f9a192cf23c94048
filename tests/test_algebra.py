"""Operator-algebra laws, checked symbolically and against matrices."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from slhnet.algebra import (
    ModeRegistry,
    OperatorExpr,
    RegistryMismatch,
    adjoint,
    commutator,
    is_hermitian,
)
from slhnet.lindblad import to_matrix

from .conftest import assert_close_matrices, operator_exprs

REG = ModeRegistry((("a", 7), ("b", 6)))
DIM = 7 * 6


def mat(x: OperatorExpr) -> np.ndarray:
    return to_matrix(x, REG)


class TestCanonicalCommutator:
    def test_a_adjoint_a_commutator(self):
        a = OperatorExpr.annihilation(REG, "a")
        comm = commutator(a, a.adjoint())
        assert comm == OperatorExpr.identity(REG)

    def test_cross_mode_operators_commute(self):
        a = OperatorExpr.annihilation(REG, "a")
        bd = OperatorExpr.creation(REG, "b")
        assert commutator(a, bd).is_zero

    def test_number_operator_normal_order(self):
        a = OperatorExpr.annihilation(REG, "a")
        n = a.adjoint() * a
        # a a^dag = a^dag a + 1
        assert a * a.adjoint() == n + OperatorExpr.identity(REG)


@pytest.mark.filterwarnings("ignore:operator polynomial degree")
class TestMatrixRealization:
    """The symbolic algebra must track truncated-matrix arithmetic.

    Products are compared on the lower Fock block untouched by the
    truncation edge: applying an operator of degree d can reach at most d
    levels above, so states below dim - (deg1 + deg2) evolve exactly.
    """

    @settings(max_examples=60, deadline=None)
    @given(operator_exprs(REG), operator_exprs(REG))
    def test_product_homomorphism_on_interior_block(self, x, y):
        prod = mat(x * y)
        ref = mat(x) @ mat(y)
        guard = x.degree() + y.degree()
        keep_a = max(REG.dims[0] - guard, 0)
        keep_b = max(REG.dims[1] - guard, 0)
        mask = np.zeros(REG.dims, dtype=bool)
        mask[:keep_a, :keep_b] = True
        cols = mask.ravel()
        assert_close_matrices(
            prod[:, cols], ref[:, cols], 1e-10, "interior product block"
        )

    @settings(max_examples=60, deadline=None)
    @given(operator_exprs(REG), operator_exprs(REG))
    def test_addition_homomorphism(self, x, y):
        assert_close_matrices(mat(x + y), mat(x) + mat(y), 1e-10, "sum")

    @settings(max_examples=60, deadline=None)
    @given(operator_exprs(REG))
    def test_adjoint_matches_conjugate_transpose(self, x):
        assert_close_matrices(
            mat(adjoint(x)), mat(x).conj().T, 1e-10, "adjoint"
        )


@pytest.mark.filterwarnings("ignore:operator polynomial degree")
class TestAlgebraLaws:
    @settings(max_examples=40, deadline=None)
    @given(operator_exprs(REG), operator_exprs(REG), operator_exprs(REG))
    def test_associativity(self, x, y, z):
        left = (x * y) * z
        right = x * (y * z)
        dev = (left - right).max_coeff()
        scale = max(x.max_coeff() * y.max_coeff() * z.max_coeff(), 1.0)
        assert dev <= 1e-9 * scale

    @settings(max_examples=40, deadline=None)
    @given(operator_exprs(REG), operator_exprs(REG))
    def test_adjoint_antihomomorphism(self, x, y):
        dev = (adjoint(x * y) - adjoint(y) * adjoint(x)).max_coeff()
        scale = max(x.max_coeff() * y.max_coeff(), 1.0)
        assert dev <= 1e-10 * scale

    @settings(max_examples=40, deadline=None)
    @given(operator_exprs(REG))
    def test_hermitian_symmetrization(self, x):
        assert is_hermitian(x + adjoint(x), tol=1e-9)
        assert is_hermitian(1j * (x - adjoint(x)), tol=1e-9)


class TestRegistryGuards:
    def test_cross_registry_arithmetic_rejected(self):
        other = ModeRegistry((("a", 7),))
        x = OperatorExpr.annihilation(REG, "a")
        y = OperatorExpr.annihilation(other, "a")
        with pytest.raises(RegistryMismatch):
            _ = x + y

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            OperatorExpr.annihilation(REG, "zz")

    def test_position_quadrature_variance(self):
        # vacuum <x^2> = 1/2 under x = (a + a^dag)/sqrt(2)
        x = OperatorExpr.position(REG, "a")
        m = mat(x * x)
        assert abs(m[0, 0] - 0.5) < 1e-12
