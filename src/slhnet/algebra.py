"""Exact normal-ordered polynomial algebra for bosonic mode operators.

Expressions are finite complex-coefficient sums of normal-ordered monomials
ad^p a^q over a fixed registry of modes.  All arithmetic is exact up to the
coefficient drop tolerance; multiplication rewrites to normal order via the
canonical commutation relation [a, ad] = 1 applied per mode.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator

DROP_TOL = 1e-14
DEGREE_WARN = 8


class RegistryMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ModeRegistry:
    """Ordered set of bosonic modes; order fixes tensor-product layout."""

    modes: tuple[tuple[str, int], ...]

    def __init__(self, modes):
        entries = tuple((str(lbl), int(dim)) for lbl, dim in modes)
        labels = [lbl for lbl, _ in entries]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels in {labels}")
        for lbl, dim in entries:
            if dim < 2:
                raise ValueError(f"mode {lbl!r}: truncation_dim must be >= 2, got {dim}")
        object.__setattr__(self, "modes", entries)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.modes)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.modes)

    def index(self, label: str) -> int:
        for k, (lbl, _) in enumerate(self.modes):
            if lbl == label:
                return k
        raise KeyError(f"unknown mode label {label!r}; registered: {list(self.labels)}")

    def __len__(self) -> int:
        return len(self.modes)


# A monomial is a tuple of (p, q) per registered mode, p creation power,
# q annihilation power, normal order ad^p a^q implied.
Monomial = tuple[tuple[int, int], ...]


def _check_same_registry(x: "OperatorExpr", y: "OperatorExpr") -> None:
    if x.registry is not y.registry and x.registry != y.registry:
        raise RegistryMismatch("operands built over different mode registries")


def _mono_degree(m: Monomial) -> int:
    return sum(p + q for p, q in m)


@dataclass(frozen=True)
class OperatorExpr:
    """Immutable normal-ordered operator polynomial over a ModeRegistry."""

    registry: ModeRegistry
    terms: dict[Monomial, complex] = field(default_factory=dict)

    def __post_init__(self):
        # Components below DROP_TOL are flushed, not just whole coefficients:
        # the text grammar can only express a real/imaginary part as its own
        # additive atom, so sub-threshold parts would not survive a
        # serialization round trip.
        cleaned = {}
        for m, c in self.terms.items():
            c = complex(c)
            re = c.real if abs(c.real) > DROP_TOL else 0.0
            im = c.imag if abs(c.imag) > DROP_TOL else 0.0
            if re != 0.0 or im != 0.0:
                cleaned[m] = complex(re, im)
        object.__setattr__(self, "terms", cleaned)
        if cleaned and max(_mono_degree(m) for m in cleaned) > DEGREE_WARN:
            warnings.warn(
                f"operator polynomial degree exceeds {DEGREE_WARN}; "
                "downstream truncated-matrix realizations may be inaccurate",
                stacklevel=2,
            )

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(registry: ModeRegistry) -> "OperatorExpr":
        return OperatorExpr(registry, {})

    @staticmethod
    def identity(registry: ModeRegistry, coeff: complex = 1.0) -> "OperatorExpr":
        m = tuple((0, 0) for _ in range(len(registry)))
        return OperatorExpr(registry, {m: complex(coeff)})

    @staticmethod
    def annihilation(registry: ModeRegistry, label: str) -> "OperatorExpr":
        k = registry.index(label)
        m = tuple((0, 1) if i == k else (0, 0) for i in range(len(registry)))
        return OperatorExpr(registry, {m: 1.0})

    @staticmethod
    def creation(registry: ModeRegistry, label: str) -> "OperatorExpr":
        k = registry.index(label)
        m = tuple((1, 0) if i == k else (0, 0) for i in range(len(registry)))
        return OperatorExpr(registry, {m: 1.0})

    @staticmethod
    def number(registry: ModeRegistry, label: str) -> "OperatorExpr":
        k = registry.index(label)
        m = tuple((1, 1) if i == k else (0, 0) for i in range(len(registry)))
        return OperatorExpr(registry, {m: 1.0})

    @staticmethod
    def position(registry: ModeRegistry, label: str) -> "OperatorExpr":
        """Normalized position quadrature (ad + a)/sqrt(2)."""
        c = 1.0 / math.sqrt(2.0)
        a = OperatorExpr.annihilation(registry, label)
        ad = OperatorExpr.creation(registry, label)
        return (a + ad) * c

    # -- inspection ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((_mono_degree(m) for m in self.terms), default=0)

    def coefficient(self, mono: Monomial) -> complex:
        return self.terms.get(tuple(tuple(pq) for pq in mono), 0.0)

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def iter_terms(self) -> Iterator[tuple[Monomial, complex]]:
        return iter(sorted(self.terms.items()))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = OperatorExpr.identity(self.registry, other)
        _check_same_registry(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) + c
        return OperatorExpr(self.registry, out)

    __radd__ = __add__

    def __neg__(self):
        return OperatorExpr(self.registry, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = OperatorExpr.identity(self.registry, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return OperatorExpr(
                self.registry, {m: c * other for m, c in self.terms.items()}
            )
        _check_same_registry(self, other)
        out: dict[Monomial, complex] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                for mono, w in _normal_order_product(m1, m2):
                    key = mono
                    out[key] = out.get(key, 0.0) + c1 * c2 * w
        return OperatorExpr(self.registry, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def adjoint(self) -> "OperatorExpr":
        out: dict[Monomial, complex] = {}
        for m, c in self.terms.items():
            # (ad^p a^q)^dagger = ad^q a^p per mode; reorder not needed since
            # distinct modes commute and each factor stays normal-ordered
            key = tuple((q, p) for p, q in m)
            out[key] = out.get(key, 0.0) + c.conjugate()
        return OperatorExpr(self.registry, out)

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.registry == other.registry and self.terms == other.terms

    def __hash__(self):
        return hash((self.registry, tuple(sorted(self.terms.items(), key=str))))

    def __repr__(self):
        return f"OperatorExpr({format_operator(self)})"


def _normal_order_product(m1: Monomial, m2: Monomial):
    """All normal-ordered monomials of (ad^p1 a^q1)(ad^p2 a^q2) with weights.

    Per mode, a^q ad^p = sum_k k! C(p,k) C(q,k) ad^(p-k) a^(q-k); the k-sums
    of independent modes multiply out.
    """
    per_mode = []
    for (p1, q1), (p2, q2) in zip(m1, m2):
        opts = []
        for k in range(min(q1, p2) + 1):
            w = math.factorial(k) * math.comb(p2, k) * math.comb(q1, k)
            opts.append(((p1 + p2 - k, q1 + q2 - k), float(w)))
        per_mode.append(opts)
    results = [((), 1.0)]
    for opts in per_mode:
        results = [
            (mono + (pq,), w * w2) for mono, w in results for pq, w2 in opts
        ]
    return results


# -- module-level operation names ------------------------------------------
def adjoint(x: OperatorExpr) -> OperatorExpr:
    return x.adjoint()


def commutator(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
    return x * y - y * x


def is_hermitian(x: OperatorExpr, tol: float = 1e-12) -> bool:
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return (x - x.adjoint()).max_coeff() <= tol


# -- canonical text (the netlist grammar; parse(format(x)) == x) -----------
def format_complex(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return f"{z.imag!r}j"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _fmt_coeff(c: complex) -> str:
    if c.imag == 0.0:
        if math.copysign(1.0, c.real) < 0:
            return f"({c.real!r})"
        return repr(c.real)
    return f"({format_complex(c)})"


def monomial_factors(mono, labels) -> list[str]:
    """Operator factors of a normal-ordered monomial: ``ad@a^2``, ``a@b``."""
    factors = []
    for (p, q), label in zip(mono, labels):
        for name, k in ((f"ad@{label}", p), (f"a@{label}", q)):
            if k:
                factors.append(name + (f"^{k}" if k > 1 else ""))
    return factors


def format_operator(x: OperatorExpr) -> str:
    """Canonical text of an operator over its registry (rad/us units)."""
    if x.is_zero:
        return "0.0"
    return " + ".join(
        " * ".join([_fmt_coeff(coeff),
                    *monomial_factors(mono, x.registry.labels)])
        for mono, coeff in x.iter_terms()
    )
