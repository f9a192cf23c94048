"""Textual netlist format for feedback-loop networks.

Line-oriented ``dotted.key = value`` syntax, ``#`` comments.  Keys:

* ``mode.<label> = <int>`` — declare a plant mode and its Fock truncation.
* ``plant.H = <operator expr>`` — plant Hamiltonian (optional, default 0).
* ``bath.loss.<label> = <rate>`` — intrinsic photon loss on a mode.
* ``loop.<id>.<field>`` — one amplification-feedback loop; fields
  ``theta`` (in-loop phase, rad), ``L`` / ``L_f`` (downstream / upstream
  coupling operators), operating point as either ``kappa`` and ``xi``
  (rates) or ``G0`` (dimensionless gain), optional ``A`` (coherent drive
  amplitude, sqrt-rate) and ``phi`` (drive phase in [-pi, pi]).
* ``drive.A`` / ``drive.phi`` — direct classical drive entry (a fourth
  amplitude/phase pair that is not a full loop); ``drive.phi`` needs
  ``drive.A``.
* ``run.<field>`` — task block: ``task`` (evolve | steady | g2 | fano |
  nongauss | kerr-coeffs | quartic-coeffs | oracle-sweep), ``t_max``
  (time), ``n_points`` (int), ``initial_state`` (``vacuum``, ``fock:n``,
  ``coherent:z``), flag ``high_gain``, and optional ``tau_star`` (time
  normalization for g2 output).  Any other run field is a parse error.

Expression grammar (shared by every scalar, time and operator value):
``+ - * ^``, ``sqrt()``, ``pi``, parentheses, real/imaginary literals
(``2.5``, ``0.5j``), mode operators ``a@label`` / ``ad@label``.  The kind
of a key (``_KEYS``) fixes the unit suffixes its numbers take:

* rate, a frequency suffix required: ``bath.loss.*``, ``kappa``, ``xi``;
* sqrt-rate, a frequency suffix allowed: ``loop.*.A`` and ``drive.A``
  (``sqrt(40 MHz_over_2pi)``); operator values too;
* pure number, no suffix: ``theta``, ``phi``, ``G0``, ``drive.phi`` and
  the ``z`` of ``coherent:z``;
* time, ``us`` (native) or ``ns`` required: ``run.t_max``, ``run.tau_star``
  (``60 ns``, ``2 * 30 ns``).

A frequency is ``MHz_over_2pi`` (converted by 2*pi) or ``rad_per_us``
(native).  All stored values are angular rad/us (times in us), and every
scalar must be finite.

``parse(text, overrides)`` sets keys to numbers in those canonical units
(rad/us, us, raw), replacing the written value or adding the key.  A number
needs no unit suffix but meets every other check a written value meets; an
operator-valued key rejects one.  Overriding ``loop.<id>.G0`` drops that
loop's ``kappa`` and ``xi``: a loop has one operating point.
"""

from __future__ import annotations

import cmath
import enum
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional

from .algebra import ModeRegistry, OperatorExpr, format_complex, format_operator
from .network import AmplifierParams, NetworkError

TWO_PI = 2.0 * math.pi
DEFAULT_TAU_STAR_US = 2e-4  # 0.2 ns

FREQ_UNITS = {"MHz_over_2pi": TWO_PI, "rad_per_us": 1.0}
TIME_UNITS = {"us": 1.0, "ns": 1e-3}


class Task(enum.Enum):
    EVOLVE = "evolve"
    STEADY = "steady"
    G2 = "g2"
    FANO = "fano"
    NONGAUSS = "nongauss"
    KERR_COEFFS = "kerr-coeffs"
    QUARTIC_COEFFS = "quartic-coeffs"
    ORACLE_SWEEP = "oracle-sweep"


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self):
        return f"line {self.line}, col {self.col}: {self.message}"


class NetlistParseError(ValueError):
    """Carries every diagnostic collected while parsing one netlist."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__(
            "\n".join(str(d) for d in self.diagnostics) or "parse error"
        )


@dataclass(frozen=True)
class StateSpec:
    kind: str  # "vacuum" | "fock" | "coherent"
    n: int = 0
    alpha: complex = 0.0

    def __str__(self):
        if self.kind == "vacuum":
            return "vacuum"
        if self.kind == "fock":
            return f"fock:{self.n}"
        return f"coherent:{format_complex(self.alpha)}"


@dataclass(frozen=True)
class LoopDecl:
    ident: str
    theta: float
    L: OperatorExpr
    L_f: OperatorExpr
    amp: AmplifierParams  # a written G0 is amp.declared_G0
    A: float = 0.0
    phi: float = 0.0
    # first declaration line; error anchoring only, not part of AST identity
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class RunBlock:
    task: Task = Task.EVOLVE
    t_max: float = 1.0
    n_points: int = 100
    initial_state: StateSpec = field(default_factory=lambda: StateSpec("vacuum"))
    high_gain: bool = False
    tau_star: float = DEFAULT_TAU_STAR_US


@dataclass(frozen=True)
class Netlist:
    registry: ModeRegistry
    plant_H: OperatorExpr
    loops: tuple[LoopDecl, ...]
    losses: tuple[tuple[str, float], ...]  # (mode label, rate)
    drive_A: float = 0.0
    drive_phi: float = 0.0
    run: RunBlock = field(default_factory=RunBlock)


# ---------------------------------------------------------------------------
# Expression tokenizer / recursive-descent evaluator
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?j?)
  | (?P<op>ad@[A-Za-z_]\w*|a@[A-Za-z_]\w*)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<punct>[()+\-*^])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    col: int


class _ExprError(ValueError):
    def __init__(self, col, message):
        self.col = col
        self.message = message
        super().__init__(message)


def _tokenize(text: str, col0: int):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise _ExprError(col0 + pos, f"unexpected character {text[pos]!r}")
        if m.lastgroup != "ws":
            toks.append(_Tok(m.lastgroup, m.group(), col0 + pos))
        pos = m.end()
    return toks


class _ExprParser:
    """Evaluates an expression directly to an OperatorExpr over a registry.

    Scalars are represented as identity multiples.  Literals may carry a
    suffix from ``units`` (name -> factor); ``unit_seen`` records whether
    any did (used to enforce the mandatory-suffix rule on dimensioned keys).
    """

    def __init__(self, toks, registry: ModeRegistry, end_col: int,
                 units: Mapping[str, float]):
        self.toks = toks
        self.i = 0
        self.reg = registry
        self.end_col = end_col
        self.units = units
        self.unit_seen = False

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise _ExprError(self.end_col, "unexpected end of expression")
        self.i += 1
        return t

    def expect_punct(self, ch: str):
        t = self.next()
        if t.kind != "punct" or t.text != ch:
            raise _ExprError(t.col, f"expected {ch!r}, found {t.text!r}")

    def parse(self) -> OperatorExpr:
        v = self.expr()
        t = self.peek()
        if t is not None:
            raise _ExprError(t.col, f"trailing input at {t.text!r}")
        return v

    def expr(self) -> OperatorExpr:
        neg = False
        t = self.peek()
        if t and t.kind == "punct" and t.text == "-":
            self.next()
            neg = True
        v = self.term()
        if neg:
            v = -v
        while True:
            t = self.peek()
            if t and t.kind == "punct" and t.text in "+-":
                self.next()
                rhs = self.term()
                v = v + rhs if t.text == "+" else v - rhs
            else:
                return v

    def term(self) -> OperatorExpr:
        v = self.power()
        while True:
            t = self.peek()
            if t and t.kind == "punct" and t.text == "*":
                self.next()
                v = v * self.power()
            else:
                return v

    def power(self) -> OperatorExpr:
        base = self.atom()
        t = self.peek()
        if t and t.kind == "punct" and t.text == "^":
            self.next()
            e = self.next()
            if e.kind != "num" or not e.text.isdigit():
                raise _ExprError(
                    e.col if e else self.end_col,
                    "exponent must be a non-negative integer",
                )
            n = int(e.text)
            v = OperatorExpr.identity(self.reg)
            for _ in range(n):
                v = v * base
            return v
        return base

    def atom(self) -> OperatorExpr:
        t = self.next()
        if t.kind == "num":
            if t.text.endswith("j"):
                val = complex(0.0, float(t.text[:-1]))
            else:
                val = complex(float(t.text), 0.0)
            nxt = self.peek()
            if nxt and nxt.kind == "name" and nxt.text in self.units:
                self.next()
                val *= self.units[nxt.text]
                self.unit_seen = True
            elif nxt and nxt.kind == "name":
                raise _ExprError(nxt.col, (
                    f"unknown unit suffix {nxt.text!r} "
                    f"(expected one of {sorted(self.units)})" if self.units
                    else f"unit suffix {nxt.text!r} on a pure number (this "
                    "value takes no unit)"))
            return OperatorExpr.identity(self.reg, val)
        if t.kind == "op":
            kind, label = t.text.split("@", 1)
            if label not in self.reg.labels:
                raise _ExprError(t.col, f"unknown mode label {label!r}")
            if kind == "a":
                return OperatorExpr.annihilation(self.reg, label)
            return OperatorExpr.creation(self.reg, label)
        if t.kind == "name" and t.text == "pi":
            return OperatorExpr.identity(self.reg, complex(math.pi, 0.0))
        if t.kind == "name" and t.text == "sqrt":
            self.expect_punct("(")
            inner = self.expr()
            self.expect_punct(")")
            val = _as_scalar(inner)
            if val is None:
                raise _ExprError(
                    t.col, "sqrt() argument must be a scalar expression"
                )
            return OperatorExpr.identity(self.reg, _csqrt(val))
        if t.kind == "punct" and t.text == "(":
            inner = self.expr()
            self.expect_punct(")")
            return inner
        raise _ExprError(t.col, f"unexpected token {t.text!r}")


def _csqrt(z: complex) -> complex:
    if z.imag == 0.0 and z.real >= 0.0:
        return complex(math.sqrt(z.real), 0.0)
    return cmath.sqrt(z)


def _as_scalar(x: OperatorExpr) -> Optional[complex]:
    """Identity-multiple value of x, or None if it has operator content."""
    if x.is_zero:
        return 0.0
    ident = tuple((0, 0) for _ in range(len(x.registry)))
    if set(x.terms) == {ident}:
        return complex(x.terms[ident])
    return None


# ---------------------------------------------------------------------------
# Netlist parser
# ---------------------------------------------------------------------------

_KEY_RE = re.compile(r"^[A-Za-z_][\w.\-]*$")
_LABEL_RE = re.compile(r"^[A-Za-z_]\w*$")


class _Bound(NamedTuple):
    holds: Callable[[object], bool]
    message: str  # formatted with the key's name


_NONNEG = _Bound(lambda v: v >= 0, "expected a non-negative value")
_POSITIVE = _Bound(lambda v: v > 0, "{name} must be positive")
_PHASE = _Bound(lambda v: -math.pi <= v <= math.pi,
                "{name} must lie in [-pi, pi]")
_AT_LEAST_2 = _Bound(lambda n: n >= 2, "{name} must be >= 2")

# The unit suffixes of each kind of expression, and whether it needs one.
_UNITS: dict[str, tuple[Mapping[str, float], bool]] = {
    "rate": (FREQ_UNITS, True),
    "sqrt_rate": (FREQ_UNITS, False),  # sqrt(40 MHz_over_2pi)
    "number": ({}, False),
    "time": (TIME_UNITS, True),
    "operator": (FREQ_UNITS, False),
}

# Every key: its kind (those in _UNITS are expressions) and the bound its
# value must meet.  '*' stands for a mode label (mode.*, bath.loss.*) or a
# loop id (loop.*).
_KEYS: dict[str, tuple[str, Optional[_Bound]]] = {
    "mode.*": ("count", _AT_LEAST_2),
    "plant.H": ("operator", None),
    "bath.loss.*": ("rate", _NONNEG),
    "loop.*.theta": ("number", None),
    "loop.*.L": ("operator", None),
    "loop.*.L_f": ("operator", None),
    "loop.*.kappa": ("rate", _NONNEG),
    "loop.*.xi": ("rate", _NONNEG),
    "loop.*.G0": ("number", None),
    "loop.*.A": ("sqrt_rate", _NONNEG),
    "loop.*.phi": ("number", _PHASE),
    "drive.A": ("sqrt_rate", _NONNEG),
    "drive.phi": ("number", None),
    "run.task": ("task", None),
    "run.t_max": ("time", _POSITIVE),
    "run.n_points": ("count", _AT_LEAST_2),
    "run.initial_state": ("state", None),  # coherent:<z> is a number
    "run.high_gain": ("flag", None),
    "run.tau_star": ("time", _POSITIVE),
}


def _strip_comment(line: str) -> str:
    k = line.find("#")
    return line if k < 0 else line[:k]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.diags: list[Diagnostic] = []
        # key, value (text, or an override number), line, value column
        self.pairs: list[tuple[str, str | float, int, int]] = []
        self.lines: dict[str, int] = {}  # key -> its line

    def err(self, line: int, col: int, msg: str):
        self.diags.append(Diagnostic(line, col, msg))

    # -- pass 1: split into key/value pairs -----------------------------
    def split_lines(self, overrides: Mapping[str, float]):
        pending = dict(overrides)
        # an overridden G0 is the loop's one operating point
        dropped = {f"loop.{k.split('.')[1]}.{f}"
                   for k in pending if re.fullmatch(r"loop\.[^.]+\.G0", k)
                   for f in ("kappa", "xi")}
        lines = self.text.splitlines()
        for lineno, raw in enumerate(lines, start=1):
            body = _strip_comment(raw)
            if not body.strip():
                continue
            if "=" not in body:
                self.err(lineno, 1, "expected 'key = value'")
                continue
            key_part, val_part = body.split("=", 1)
            key = key_part.strip()
            if not key or not _KEY_RE.match(key):
                self.err(lineno, 1 + len(key_part) - len(key_part.lstrip()),
                         f"invalid key {key!r}")
                continue
            if key in dropped:
                continue
            vcol = len(key_part) + 2 + (len(val_part) - len(val_part.lstrip()))
            value = pending.pop(key) if key in pending else val_part.strip()
            if value == "":  # an override of 0 is a value
                self.err(lineno, vcol, f"missing value for {key!r}")
                continue
            if key in self.lines:
                self.err(lineno, 1,
                         f"duplicate key {key!r} (first at line "
                         f"{self.lines[key]})")
                continue
            self.lines[key] = lineno
            self.pairs.append((key, value, lineno, vcol))
        # keys the text does not set follow its last line, as 'key = value'
        for lineno, (key, value) in enumerate(pending.items(),
                                              start=len(lines) + 1):
            if not _KEY_RE.match(key):
                self.err(lineno, 1, f"invalid key {key!r}")
                continue
            self.lines[key] = lineno
            self.pairs.append((key, value, lineno, len(key) + 4))

    # -- pass 2: evaluate each key by its entry in _KEYS --------------------
    def eval_expr(self, value, registry, lineno: int, vcol: int,
                  kind: str = "operator") -> Optional[OperatorExpr]:
        if not isinstance(value, str):
            self.err(lineno, vcol,
                     "expected an operator expression, found a number")
            return None
        units, unit_required = _UNITS[kind]
        try:
            toks = _tokenize(value, vcol)
            p = _ExprParser(toks, registry, vcol + len(value), units)
            out = p.parse()
        except _ExprError as e:
            self.err(lineno, e.col, e.message)
            return None
        if unit_required and not p.unit_seen:
            self.err(lineno, vcol,
                     "unit suffix missing on dimensioned quantity "
                     f"(use {' or '.join(units)})")
            return None
        return out

    def eval_scalar(self, value, registry, lineno, vcol, kind: str
                    ) -> Optional[float]:
        if isinstance(value, str):
            x = self.eval_expr(value, registry, lineno, vcol, kind)
            if x is None:
                return None
            v = _as_scalar(x)
            if v is None:
                self.err(lineno, vcol,
                         "expected a scalar value, found operators")
                return None
        else:
            v = complex(value)
        if not cmath.isfinite(v):
            self.err(lineno, vcol, "expected a finite value")
            return None
        if abs(v.imag) > 1e-12 * max(1.0, abs(v)):
            self.err(lineno, vcol, "expected a real value")
            return None
        return v.real

    def evaluate(self, key, value, registry, lineno, vcol):
        """The value of ``key`` as its table entry reads it, or None after a
        diagnostic."""
        parts = key.split(".")
        wild = [".".join(parts[:i] + ["*"] + parts[i + 1:])
                for i in range(1, len(parts))]
        entry = next((_KEYS[k] for k in (key, *wild) if k in _KEYS), None)
        if parts[0] == "mode" and (entry is None
                                   or not _LABEL_RE.match(parts[1])):
            self.err(lineno, 1, f"bad mode declaration key {key!r}")
            return None
        if entry is None:  # a loop.<id>.<field> or run.<field> names its field
            field_of = {"loop": 3, "run": 2}.get(parts[0]) == len(parts)
            self.err(lineno, 1, f"unknown {parts[0]} field {parts[-1]!r}"
                     if field_of else f"unknown key {key!r}")
            return None
        if parts[0] == "bath" and parts[2] not in registry.labels:
            self.err(lineno, 1, f"unknown mode label {parts[2]!r}")
            return None
        kind, bound = entry
        name = "truncation" if parts[0] == "mode" else parts[-1]
        if kind == "operator":
            return self.eval_expr(value, registry, lineno, vcol)
        if kind in _UNITS:
            v = self.eval_scalar(value, registry, lineno, vcol, kind)
        elif kind == "count":
            try:
                v = _as_int(value)
            except ValueError:
                self.err(lineno, vcol, f"{name} must be an integer")
                return None
        elif kind == "task":
            try:
                v = Task(value)
            except ValueError:
                names = ", ".join(t.value for t in Task)
                self.err(lineno, vcol,
                         f"unknown task {value!r} (expected one of: {names})")
                return None
        elif kind == "state":
            v = self._parse_state(value, registry, lineno, vcol)
        elif value in ("true", "false"):  # a flag
            v = value == "true"
        else:
            self.err(lineno, vcol, f"{name} must be true or false")
            return None
        if v is not None and bound is not None and not bound.holds(v):
            self.err(lineno, vcol, bound.message.format(name=name))
            return None
        return v

    # -- pass 3: assemble ------------------------------------------------
    def build(self) -> Optional[Netlist]:
        # modes first: every other key is read over their registry
        dims: dict[str, int] = {}
        others = []
        for key, value, lineno, vcol in self.pairs:
            if key.split(".")[0] != "mode":
                others.append((key, value, lineno, vcol))
                continue
            trunc = self.evaluate(key, value, None, lineno, vcol)
            if trunc is not None:
                dims[key[5:]] = trunc
        if not dims:
            self.err(1, 1, "no modes declared (need at least one mode.<label>)")
            return None
        registry = ModeRegistry(tuple(dims.items()))

        values: dict[str, object] = {}
        loop_lines: dict[str, int] = {}  # loop id -> its first line
        for key, value, lineno, vcol in others:
            parts = key.split(".")
            if parts[0] == "loop" and len(parts) == 3:
                loop_lines.setdefault(parts[1], lineno)
            v = self.evaluate(key, value, registry, lineno, vcol)
            if v is not None:
                values[key] = v

        if "drive.phi" in values and "drive.A" not in self.lines:
            self.err(self.lines["drive.phi"], 1, "drive.phi without drive.A: "
                     "the direct drive line needs its amplitude")
        loops = []
        for ident in sorted(loop_lines, key=_loop_sort_key):
            prefix = f"loop.{ident}."
            fields = {k[len(prefix):]: v for k, v in values.items()
                      if k.startswith(prefix)}
            written = {k[len(prefix):] for k in self.lines
                       if k.startswith(prefix)}
            loop = self._assemble_loop(ident, fields, written,
                                       loop_lines[ident])
            if loop is not None:
                loops.append(loop)

        if self.diags:
            return None
        return Netlist(
            registry=registry,
            plant_H=values.get("plant.H", OperatorExpr.zero(registry)),
            loops=tuple(loops),
            losses=tuple((k[10:], v) for k, v in values.items()
                         if k.startswith("bath.loss.")),
            drive_A=values.get("drive.A", 0.0),
            drive_phi=values.get("drive.phi", 0.0),
            run=RunBlock(**{k[4:]: v for k, v in values.items()
                            if k.startswith("run.")}),
        )

    def _assemble_loop(self, ident, fields, written, line):
        """The loop from its evaluated ``fields``.  The field checks read
        ``written``, every field the text sets: a written field that did
        not evaluate already has its diagnostic, and is not missing."""
        missing = [k for k in ("theta", "L", "L_f") if k not in written]
        if missing:
            self.err(line, 1,
                     f"loop {ident!r} missing field(s): {', '.join(missing)}")
            return None
        has_kx = "kappa" in written or "xi" in written
        if has_kx == ("G0" in written):
            self.err(line, 1,
                     f"loop {ident!r} needs exactly one of (kappa, xi) or G0")
            return None
        if has_kx and not {"kappa", "xi"} <= written:
            self.err(line, 1, f"loop {ident!r} needs both kappa and xi")
            return None
        try:
            if has_kx:
                amp = AmplifierParams(fields["kappa"], fields["xi"])
            else:
                amp = AmplifierParams.from_gain(fields["G0"])
        except KeyError:  # a rejected operating point has its diagnostic
            return None
        except NetworkError as e:
            self.err(line, 1, f"loop {ident!r}: {e}")
            return None
        if not written <= fields.keys():  # so has any other rejected field
            return None
        return LoopDecl(
            ident=ident,
            theta=fields["theta"],
            L=fields["L"],
            L_f=fields["L_f"],
            amp=amp,
            A=fields.get("A", 0.0),
            phi=fields.get("phi", 0.0),
            line=line,
        )

    def _parse_state(self, value, registry, lineno, vcol):
        value = str(value)  # a number override names no state
        if value == "vacuum":
            return StateSpec("vacuum")
        if value.startswith("fock:"):
            try:
                n = int(value[5:])
            except ValueError:
                self.err(lineno, vcol, "fock:<n> needs an integer n")
                return None
            if n < 0 or n >= registry.dims[0]:
                self.err(lineno, vcol,
                         f"fock level {n} outside first-mode truncation "
                         f"{registry.dims[0]}")
                return None
            return StateSpec("fock", n=n)
        if value.startswith("coherent:"):
            lit = value[9:]
            x = self.eval_expr(lit, registry, lineno, vcol + 9, "number")
            if x is None:
                return None
            z = _as_scalar(x)
            if z is None:
                self.err(lineno, vcol + 9, "coherent:<z> needs a scalar")
                return None
            if not cmath.isfinite(z):
                self.err(lineno, vcol + 9, "expected a finite value")
                return None
            return StateSpec("coherent", alpha=z)
        self.err(lineno, vcol,
                 f"unknown initial_state {value!r} "
                 "(vacuum | fock:<n> | coherent:<z>)")
        return None


def _loop_sort_key(ident: str):
    return (0, int(ident)) if ident.isdigit() else (1, ident)


def _as_int(value) -> int:
    """A written integer, or an integral override number."""
    if not isinstance(value, str) and not float(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def parse(text: str, overrides: Mapping[str, float] | None = None) -> Netlist:
    """Parse netlist text, with ``overrides`` set (see the module
    docstring); raises NetlistParseError with all diagnostics."""
    p = _Parser(text)
    p.split_lines(overrides or {})
    net = p.build()
    if net is None or p.diags:
        raise NetlistParseError(p.diags or
                                [Diagnostic(1, 1, "empty netlist")])
    return net


# ---------------------------------------------------------------------------
# Canonical formatter (round-trip: parse(format(n)) == n)
# ---------------------------------------------------------------------------

def format_netlist(net: Netlist) -> str:
    """Canonical netlist text; parsing it reproduces the same AST.  Each
    run's ``manifest.json`` records its netlist in this form."""
    out = []
    for label, dim in zip(net.registry.labels, net.registry.dims):
        out.append(f"mode.{label} = {dim}")
    out.append(f"plant.H = {format_operator(net.plant_H)}")
    for label, rate in net.losses:
        out.append(f"bath.loss.{label} = {rate!r} rad_per_us")
    for lp in net.loops:
        p = f"loop.{lp.ident}"
        out.append(f"{p}.theta = {lp.theta!r}")
        out.append(f"{p}.L = {format_operator(lp.L)}")
        out.append(f"{p}.L_f = {format_operator(lp.L_f)}")
        if lp.amp.declared_G0 is None:
            out.append(f"{p}.kappa = {lp.amp.kappa!r} rad_per_us")
            out.append(f"{p}.xi = {lp.amp.xi!r} rad_per_us")
        else:
            out.append(f"{p}.G0 = {lp.amp.declared_G0!r}")
        if lp.A:
            out.append(f"{p}.A = {lp.A!r}")
        if lp.phi:
            out.append(f"{p}.phi = {lp.phi!r}")
    if net.drive_A or net.drive_phi:
        out.append(f"drive.A = {net.drive_A!r}")
        out.append(f"drive.phi = {net.drive_phi!r}")
    r = net.run
    out.append(f"run.task = {r.task.value}")
    out.append(f"run.t_max = {r.t_max!r} us")
    out.append(f"run.n_points = {r.n_points}")
    out.append(f"run.initial_state = {r.initial_state}")
    out.append(f"run.high_gain = {'true' if r.high_gain else 'false'}")
    out.append(f"run.tau_star = {r.tau_star!r} us")
    return "\n".join(out) + "\n"
