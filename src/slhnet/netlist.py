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
  amplitude/phase pair that is not a full loop).
* ``run.<field>`` — task block: ``task`` (evolve | steady | g2 | fano |
  nongauss | kerr-coeffs | quartic-coeffs | oracle-sweep), ``t_max``
  (time), ``n_points`` (int), ``initial_state`` (``vacuum``, ``fock:n``,
  ``coherent:z``), flag ``high_gain``, and optional ``tau_star`` (time
  normalization for g2 output).  Any other run field is a parse error.

Expression grammar (shared by scalar and operator values): ``+ - * ^``,
``sqrt()``, parentheses, real/imaginary literals (``2.5``, ``0.5j``), mode
operators ``a@label`` / ``ad@label``.  Numbers may carry a frequency unit
suffix, ``MHz_over_2pi`` (converted by 2*pi) or ``rad_per_us`` (native);
the dimensioned scalar keys (``kappa``, ``xi``, ``bath.loss.*``,
``t_max``, ``tau_star``) require one.  All stored values are angular
rad/us (times in us).
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from typing import Optional

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
    amp: AmplifierParams
    gain_mode: str  # "kappa_xi" | "G0"
    g0_declared: float = 0.0  # raw G0 literal (exact round-trip)
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
    has_drive: bool = False
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

    Scalars are represented as identity multiples; ``unit_seen`` records
    whether any literal carried a frequency-unit suffix (used to enforce
    the mandatory-suffix rule on dimensioned keys).
    """

    def __init__(self, toks, registry: ModeRegistry, end_col: int):
        self.toks = toks
        self.i = 0
        self.reg = registry
        self.end_col = end_col
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
            if nxt and nxt.kind == "name" and nxt.text in FREQ_UNITS:
                self.next()
                val *= FREQ_UNITS[nxt.text]
                self.unit_seen = True
            elif nxt and nxt.kind == "name":
                raise _ExprError(
                    nxt.col,
                    f"unknown unit suffix {nxt.text!r} "
                    f"(expected one of {sorted(FREQ_UNITS)})",
                )
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
    import cmath

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


def _strip_comment(line: str) -> str:
    k = line.find("#")
    return line if k < 0 else line[:k]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.diags: list[Diagnostic] = []
        self.pairs: list[tuple[str, str, int, int]] = []  # key, val, line, vcol
        self.seen_keys: dict[str, int] = {}

    def err(self, line: int, col: int, msg: str):
        self.diags.append(Diagnostic(line, col, msg))

    # -- pass 1: split into key/value pairs -----------------------------
    def split_lines(self):
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
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
            vcol = len(key_part) + 2 + (len(val_part) - len(val_part.lstrip()))
            value = val_part.strip()
            if not value:
                self.err(lineno, vcol, f"missing value for {key!r}")
                continue
            if key in self.seen_keys:
                self.err(lineno, 1,
                         f"duplicate key {key!r} (first at line "
                         f"{self.seen_keys[key]})")
                continue
            self.seen_keys[key] = lineno
            self.pairs.append((key, value, lineno, vcol))

    # -- helpers ---------------------------------------------------------
    def eval_expr(self, value: str, registry, lineno: int, vcol: int,
                  want_unit: bool = False) -> Optional[OperatorExpr]:
        try:
            toks = _tokenize(value, vcol)
            p = _ExprParser(toks, registry, vcol + len(value))
            out = p.parse()
        except _ExprError as e:
            self.err(lineno, e.col, e.message)
            return None
        if want_unit and not p.unit_seen:
            self.err(lineno, vcol,
                     "unit suffix missing on dimensioned quantity "
                     "(use MHz_over_2pi or rad_per_us)")
            return None
        return out

    def eval_scalar(self, value, registry, lineno, vcol, want_unit=False,
                    real=True, nonneg=False) -> Optional[complex]:
        x = self.eval_expr(value, registry, lineno, vcol, want_unit)
        if x is None:
            return None
        v = _as_scalar(x)
        if v is None:
            self.err(lineno, vcol, "expected a scalar value, found operators")
            return None
        if real and abs(v.imag) > 1e-12 * max(1.0, abs(v)):
            self.err(lineno, vcol, "expected a real value")
            return None
        if nonneg and v.real < 0:
            self.err(lineno, vcol, "expected a non-negative value")
            return None
        return v

    def eval_time(self, value: str, lineno: int, vcol: int) -> Optional[float]:
        m = re.match(r"^([0-9.eE+\-]+)\s*([A-Za-z_]\w*)$", value)
        if not m:
            self.err(lineno, vcol,
                     "expected '<number> <unit>' with unit us or ns "
                     "(unit suffix mandatory on times)")
            return None
        try:
            num = float(m.group(1))
        except ValueError:
            self.err(lineno, vcol, f"bad number {m.group(1)!r}")
            return None
        unit = m.group(2)
        if unit not in TIME_UNITS:
            self.err(lineno, vcol + len(m.group(1)),
                     f"unknown time unit {unit!r} (expected us or ns)")
            return None
        return num * TIME_UNITS[unit]

    # -- pass 2: assemble ------------------------------------------------
    def build(self) -> Optional[Netlist]:
        mode_decls: list[tuple[str, int, int]] = []  # label, trunc, line
        others = []
        for key, value, lineno, vcol in self.pairs:
            parts = key.split(".")
            if parts[0] == "mode":
                if len(parts) != 2 or not _LABEL_RE.match(parts[1]):
                    self.err(lineno, 1, f"bad mode declaration key {key!r}")
                    continue
                try:
                    trunc = int(value)
                except ValueError:
                    self.err(lineno, vcol, f"truncation must be an integer")
                    continue
                if trunc < 2:
                    self.err(lineno, vcol, "truncation must be >= 2")
                    continue
                mode_decls.append((parts[1], trunc, lineno))
            else:
                others.append((parts, value, lineno, vcol))

        if not mode_decls:
            self.err(1, 1, "no modes declared (need at least one mode.<label>)")
            return None
        labels = [l for l, _, _ in mode_decls]
        for lab, _, ln in mode_decls:
            if labels.count(lab) > 1:
                self.err(ln, 1, f"duplicate mode label {lab!r}")
                return None
        registry = ModeRegistry(tuple((l, t) for l, t, _ in mode_decls))

        plant_H = OperatorExpr.zero(registry)
        losses: list[tuple[str, float]] = []
        loop_fields: dict[str, dict] = {}
        loop_lines: dict[str, int] = {}
        drive_A = drive_phi = None
        run_fields: dict[str, object] = {}

        for parts, value, lineno, vcol in others:
            head = parts[0]
            if head == "plant" and parts[1:] == ["H"]:
                x = self.eval_expr(value, registry, lineno, vcol)
                if x is not None:
                    plant_H = x
            elif head == "bath" and len(parts) == 3 and parts[1] == "loss":
                label = parts[2]
                if label not in registry.labels:
                    self.err(lineno, 1, f"unknown mode label {label!r}")
                    continue
                v = self.eval_scalar(value, registry, lineno, vcol,
                                     want_unit=True, nonneg=True)
                if v is not None:
                    losses.append((label, v.real))
            elif head == "loop" and len(parts) == 3:
                ident, fld = parts[1], parts[2]
                loop_lines.setdefault(ident, lineno)
                fields = loop_fields.setdefault(ident, {})
                self._loop_field(fields, fld, value, registry, lineno, vcol)
            elif head == "drive" and len(parts) == 2 and parts[1] in ("A", "phi"):
                if parts[1] == "A":
                    v = self.eval_scalar(value, registry, lineno, vcol,
                                         nonneg=True)
                    if v is not None:
                        drive_A = v.real
                else:
                    v = self.eval_scalar(value, registry, lineno, vcol)
                    if v is not None:
                        drive_phi = v.real
            elif head == "run" and len(parts) == 2:
                self._run_field(run_fields, parts[1], value, registry,
                                lineno, vcol)
            else:
                self.err(lineno, 1, f"unknown key {'.'.join(parts)!r}")

        loops = []
        for ident in sorted(loop_fields, key=_loop_sort_key):
            loop = self._assemble_loop(ident, loop_fields[ident],
                                       loop_lines[ident], registry)
            if loop is not None:
                loops.append(loop)

        run = self._assemble_run(run_fields, registry)
        if self.diags:
            return None
        return Netlist(
            registry=registry,
            plant_H=plant_H,
            loops=tuple(loops),
            losses=tuple(losses),
            drive_A=drive_A if drive_A is not None else 0.0,
            drive_phi=drive_phi if drive_phi is not None else 0.0,
            has_drive=drive_A is not None,
            run=run,
        )

    def _loop_field(self, fields, fld, value, registry, lineno, vcol):
        if fld in ("theta", "phi"):
            v = self.eval_scalar(value, registry, lineno, vcol)
            if v is not None:
                fields[fld] = v.real
                if fld == "phi" and not (-math.pi <= v.real <= math.pi):
                    self.err(lineno, vcol, "phi must lie in [-pi, pi]")
        elif fld in ("L", "L_f"):
            x = self.eval_expr(value, registry, lineno, vcol)
            if x is not None:
                fields[fld] = x
        elif fld in ("kappa", "xi"):
            v = self.eval_scalar(value, registry, lineno, vcol,
                                 want_unit=True, nonneg=True)
            if v is not None:
                fields[fld] = v.real
        elif fld == "G0":
            v = self.eval_scalar(value, registry, lineno, vcol)
            if v is not None:
                fields["G0"] = v.real
        elif fld == "A":
            v = self.eval_scalar(value, registry, lineno, vcol, nonneg=True)
            if v is not None:
                fields["A"] = v.real
        else:
            self.err(lineno, 1, f"unknown loop field {fld!r}")

    def _assemble_loop(self, ident, fields, line, registry):
        missing = [k for k in ("theta", "L", "L_f") if k not in fields]
        if missing:
            self.err(line, 1,
                     f"loop {ident!r} missing field(s): {', '.join(missing)}")
            return None
        has_kx = "kappa" in fields or "xi" in fields
        has_g = "G0" in fields
        if has_kx == has_g:
            self.err(line, 1,
                     f"loop {ident!r} needs exactly one of (kappa, xi) or G0")
            return None
        g0_declared = 0.0
        try:
            if has_kx:
                if "kappa" not in fields or "xi" not in fields:
                    self.err(line, 1,
                             f"loop {ident!r} needs both kappa and xi")
                    return None
                amp = AmplifierParams(fields["kappa"], fields["xi"])
                gain_mode = "kappa_xi"
            else:
                g0_declared = fields["G0"]
                amp = AmplifierParams.from_gain(g0_declared)
                gain_mode = "G0"
        except NetworkError as e:
            self.err(line, 1, f"loop {ident!r}: {e}")
            return None
        return LoopDecl(
            ident=ident,
            theta=fields["theta"],
            L=fields["L"],
            L_f=fields["L_f"],
            amp=amp,
            gain_mode=gain_mode,
            g0_declared=g0_declared,
            A=fields.get("A", 0.0),
            phi=fields.get("phi", 0.0),
            line=line,
        )

    def _run_field(self, run_fields, fld, value, registry, lineno, vcol):
        if fld == "task":
            try:
                run_fields["task"] = Task(value)
            except ValueError:
                names = ", ".join(t.value for t in Task)
                self.err(lineno, vcol,
                         f"unknown task {value!r} (expected one of: {names})")
        elif fld in ("t_max", "tau_star"):
            v = self.eval_time(value, lineno, vcol)
            if v is not None:
                if v <= 0:
                    self.err(lineno, vcol, f"{fld} must be positive")
                else:
                    run_fields[fld] = v
        elif fld == "n_points":
            try:
                n = int(value)
            except ValueError:
                self.err(lineno, vcol, "n_points must be an integer")
                return
            if n < 2:
                self.err(lineno, vcol, "n_points must be >= 2")
            else:
                run_fields["n_points"] = n
        elif fld == "initial_state":
            st = self._parse_state(value, registry, lineno, vcol)
            if st is not None:
                run_fields["initial_state"] = st
        elif fld == "high_gain":
            if value not in ("true", "false"):
                self.err(lineno, vcol, f"{fld} must be true or false")
            else:
                run_fields[fld] = value == "true"
        else:
            self.err(lineno, 1, f"unknown run field {fld!r}")

    def _parse_state(self, value, registry, lineno, vcol):
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
            x = self.eval_expr(lit, registry, lineno, vcol + 9)
            if x is None:
                return None
            z = _as_scalar(x)
            if z is None:
                self.err(lineno, vcol + 9, "coherent:<z> needs a scalar")
                return None
            return StateSpec("coherent", alpha=z)
        self.err(lineno, vcol,
                 f"unknown initial_state {value!r} "
                 "(vacuum | fock:<n> | coherent:<z>)")
        return None

    def _assemble_run(self, run_fields, registry) -> RunBlock:
        return RunBlock(
            task=run_fields.get("task", Task.EVOLVE),
            t_max=run_fields.get("t_max", 1.0),
            n_points=run_fields.get("n_points", 100),
            initial_state=run_fields.get("initial_state", StateSpec("vacuum")),
            high_gain=run_fields.get("high_gain", False),
            tau_star=run_fields.get("tau_star", DEFAULT_TAU_STAR_US),
        )


def _loop_sort_key(ident: str):
    return (0, int(ident)) if ident.isdigit() else (1, ident)


def parse(text: str) -> Netlist:
    """Parse netlist text; raises NetlistParseError with all diagnostics."""
    p = _Parser(text)
    p.split_lines()
    net = p.build()
    if net is None or p.diags:
        raise NetlistParseError(p.diags or
                                [Diagnostic(1, 1, "empty netlist")])
    return net


# ---------------------------------------------------------------------------
# Canonical formatter (round-trip: parse(format(n)) == n)
# ---------------------------------------------------------------------------

def format_netlist(net: Netlist) -> str:
    """Canonical netlist text; parsing it reproduces the same AST."""
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
        if lp.gain_mode == "kappa_xi":
            out.append(f"{p}.kappa = {lp.amp.kappa!r} rad_per_us")
            out.append(f"{p}.xi = {lp.amp.xi!r} rad_per_us")
        else:
            out.append(f"{p}.G0 = {lp.g0_declared!r}")
        if lp.A:
            out.append(f"{p}.A = {lp.A!r}")
        if lp.phi:
            out.append(f"{p}.phi = {lp.phi!r}")
    if net.has_drive:
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
