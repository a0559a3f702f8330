"""Outside-in tracing of gsfit's layers for the benchmark's traced run.

The tracer replaces public functions of `gsfit.expr`, `oracle`, `detect`,
`fit`, `assemble` and `bench` with timing wrappers. Callers inside gsfit
look these functions up as module or class attributes at call time, so a
replaced attribute is seen by every caller. Each wrapper opens a span on a
stack; when the span closes, its duration is added to the span's own
totals and to the child time of the enclosing span, which gives self time
as duration minus child time. Nothing under `src/` is changed, and
`uninstall` puts every original back.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import gsfit.assemble as asm
import gsfit.bench as bench
import gsfit.detect as det
import gsfit.expr as ex
import gsfit.fit as ft
import gsfit.oracle as orc

import numpy as np

# Innermost enclosing span that decides which stage an oracle evaluation
# belongs to. Every evaluation of a run falls under exactly one of them.
_STAGE_OF_SPAN = {
    "detect": "detect",
    "assemble.sweep": "sweep",
    "assemble.sample": "sample",
}


class Stat:
    __slots__ = ("calls", "s", "child_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.s - self.child_s


class Tracer:
    """Span totals and counters for one traced pass over a workload."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []      # [span name, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _close(self, name: str, dt: float, child_s: float) -> None:
        st = self.stat(name)
        st.calls += 1
        st.s += dt
        st.child_s += child_s
        if self._stack:
            self._stack[-1][1] += dt

    def _enclosing(self, names) -> str | None:
        for frame in reversed(self._stack):
            if frame[0] in names:
                return frame[0]
        return None

    # -- installation --------------------------------------------------

    def _replace(self, owners, attr: str, make):
        """Replace `attr` on every owner by make(original); remember undo."""
        orig = getattr(owners[0], attr)
        new = functools.wraps(orig)(make(orig))
        for owner in owners:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def _span(self, owners, attr: str, name, after=None):
        """Wrap `attr` in a span; `name` is a string or a callable giving one."""
        tracer = self

        def make(orig):
            def wrapper(*args, **kwargs):
                span = name() if callable(name) else name
                frame = [span, 0.0]
                tracer._stack.append(frame)
                t0 = perf_counter()
                try:
                    out = orig(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    tracer._stack.pop()
                    tracer._close(span, dt, frame[1])
                if after is not None:
                    after(args, out)
                return out

            return wrapper

        self._replace(owners, attr, make)

    def _count_objective(self, owners, attr: str):
        """Count and time each call of the objective passed to `attr`.

        A full span per objective call would cost more than the objective
        itself on the cheap skeletons, so each call only bumps a counter
        and a clock sum; the sum is charged to the enclosing span (the
        LDSE run) once, when `attr` returns.
        """
        tracer = self
        st = self.stat("fit.objective")

        def make(orig):
            def wrapper(objective, *args, **kwargs):
                def counted(x):
                    t0 = perf_counter()
                    v = objective(x)
                    st.s += perf_counter() - t0
                    st.calls += 1
                    return v

                before = st.s
                try:
                    return orig(counted, *args, **kwargs)
                finally:
                    tracer._stack[-1][1] += st.s - before

            return wrapper

        self._replace(owners, attr, make)

    def install(self) -> "Tracer":
        counts = self.counts

        def after_oracle(args, vals):
            rows = len(vals)
            counts["oracle.evals"] += rows
            counts["oracle.nan"] += int(np.count_nonzero(~np.isfinite(vals)))
            stage = _STAGE_OF_SPAN.get(self._enclosing(_STAGE_OF_SPAN), "unattributed")
            counts[f"oracle.evals.{stage}"] += rows

        def after_expr(args, vals):
            counts["expr.eval.rows"] += len(vals)

        def after_factor(args, model):
            counts["fit.factor.converged"] += int(model.converged)

        def after_basis(args, terms):
            counts["assemble.basis.terms"] += len(terms)

        def slice_name():
            # the same isolate_* functions serve detection and the factor
            # sweeps of assembly; the enclosing span tells them apart
            return "assemble.sweep" if self._enclosing(("assemble",)) else "detect.slice"

        self._span([ex, bench], "parse", "expr.parse")
        self._span([ex.Expr], "eval_batch", "expr.eval", after_expr)
        self._span([orc.Oracle], "eval_batch", "oracle", after_oracle)
        self._span([orc.Oracle], "sample", "assemble.sample")
        self._span([det], "detect_structure", "detect")
        self._span([det], "interaction_graph", "detect.graph")
        self._span([det], "repeated_vars", "detect.peel")
        self._span([det], "minimal_blocks", "detect.blocks")
        self._span([det], "factor_partition", "detect.partition")
        self._span([det], "isolate_psi_data", slice_name)
        self._span([det], "isolate_omega_data", slice_name)
        self._span([ft], "fit_factor", "fit.factor", after_factor)
        self._count_objective([ft], "ldse_minimize")
        self._span([ft], "ldse_minimize", "fit.ldse")
        self._span([asm], "assemble_and_validate", "assemble")
        self._span([asm], "fit_structure_factors", "assemble.attempt")
        self._span([asm], "build_basis", "assemble.basis", after_basis)
        self._span([asm], "least_squares", "assemble.lstsq")
        self._span([asm.BasisTerm], "evaluate", "assemble.term")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
