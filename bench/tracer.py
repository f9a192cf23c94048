"""Span tracing of calls into ``slhnet`` from outside the package.

``Tracer.install`` replaces each traced function in every ``slhnet`` module
that binds it (``cli.integrate``, ``observables.integrate`` and
``oracle.integrate`` are separate bindings of one function) and each traced
method on its class; ``uninstall`` puts the originals back.  Spans are kept
in memory as ``(name, start_ns, end_ns, parent)`` and summarised per round.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# Module-level functions, by the module that defines them.
FUNCTIONS = (
    ("netlist", "parse"),
    ("cli", "run_netlist"),
    ("cli", "build_model"),
    ("network", "compose_loop_full"),
    ("network", "eliminate_amplifier"),
    ("lindblad", "to_matrix"),
    ("lindblad", "build_liouvillian"),
    ("lindblad", "integrate"),
    ("lindblad", "steady_state"),
    ("lindblad", "fock_leak"),
    ("lindblad", "partial_trace"),
    ("lindblad", "trace_distance"),
    ("observables", "fano_factor"),
    ("observables", "non_gaussianity"),
    ("observables", "g2"),
    ("oracle", "elimination_error"),
    ("oracle", "full_loop_simulate"),
)

AS_DENSE = "lindblad.Liouvillian.as_dense"
# Methods: (module, class, attribute, span name).  DensityMatrix is timed
# through __post_init__, its per-state validation.
METHODS = (
    ("lindblad", "Liouvillian", "apply", "lindblad.Liouvillian.apply"),
    ("lindblad", "Liouvillian", "as_dense", AS_DENSE),
    ("lindblad", "DensityMatrix", "__post_init__", "lindblad.DensityMatrix"),
    ("algebra", "OperatorExpr", "__mul__", "algebra.OperatorExpr.mul"),
)


def _dense_bytes(liou) -> int:
    """Bytes the dense superoperator allocates on this call (0 if cached)."""
    return 0 if liou._dense is not None else 16 * liou.dim ** 4


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.byte_counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_bytes = _dense_bytes if name == AS_DENSE else None
        byte_counts = self.byte_counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_bytes is not None:
                byte_counts[name] += count_bytes(args[0])
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return traced

    def install(self) -> None:
        mods = {k[len("slhnet."):]: m for k, m in sys.modules.items()
                if k.startswith("slhnet.") and m is not None}
        for modname, attr in FUNCTIONS:
            orig = getattr(mods[modname], attr)
            wrapped = self._wrap(f"{modname}.{attr}", orig)
            for owner in list(mods.values()) + [sys.modules["slhnet"]]:
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        self._saved.append((owner, key, orig))
                        setattr(owner, key, wrapped)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(mods[modname], clsname)
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def summarize(self, first: int, last: int) -> dict:
        """Calls, total and self time per span name over spans[first:last].

        Self time is a span's duration minus that of its direct children.
        ``rhs_evals`` counts ``Liouvillian.apply`` calls made directly by
        ``integrate``: one per right-hand-side evaluation of the solver.
        """
        calls = defaultdict(int)
        total = defaultdict(int)
        child = defaultdict(int)
        rhs = 0
        for name, t0, t1, parent in self.spans[first:last]:
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= first:
                child[parent] += t1 - t0
                if (name == "lindblad.Liouvillian.apply"
                        and self.spans[parent][0] == "lindblad.integrate"):
                    rhs += 1
        self_ns = defaultdict(int)
        for i, (name, t0, t1, _) in enumerate(self.spans[first:last], first):
            self_ns[name] += (t1 - t0) - child.get(i, 0)
        return {
            "calls": dict(calls),
            "total_s": {k: v * 1e-9 for k, v in total.items()},
            "self_s": {k: v * 1e-9 for k, v in self_ns.items()},
            "rhs_evals": rhs,
        }

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], t0, t1, p] for n, t0, t1, p in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "fields": ["name", "start_ns", "end_ns",
                                                  "parent"], "spans": rows}, fh)
