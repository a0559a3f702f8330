"""Workloads, timed passes, correctness checks and metrics of the benchmark.

One pipeline run at a time in one process: a closed loop with a single
client, each run starting when the previous one has returned. The
benchmark never uses `run_suite(parallel=True)`. That pool sizes itself
from `os.cpu_count()` with up to 8 workers, so on a shared 2-core machine
it would measure the scheduler and the other tenants rather than gsfit.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import gsfit.bench as bench

from speed import Speedometer
from tracer import Tracer

# Acceptance tolerance on the validation MSE; run_case's default.
TOL_TARGET = 1e-6

# Distance between the base seeds of a case's runs. Neighbouring per-case
# seeds tend to need the same number of assembly retries (case 9 at
# suite seeds 11-13 and 21-23 retried 2-3 times each), so a case's runs
# take their seeds from bases this far apart rather than from one block.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[int, ...]
    seeds_per_case: int
    detect_only: bool

    def jobs(self, seed: int) -> list[tuple[int, int]]:
        """(case, seed) pairs of one pass: the suite's first seed for the
        case at each of the bases seed, seed + SEED_STRIDE, ..."""
        return [
            (no, bench.suite_seeds(seed + SEED_STRIDE * j, no, 1)[0])
            for no in self.cases
            for j in range(self.seeds_per_case)
        ]


# Shares are from traced runs at seed 0 on a 2-core sandbox; see README.md.
WORKLOADS = {
    # Full pipeline on cases 1-10, three seeds each (35-55 s). Loads the
    # fit layer: LDSE is 93% of the time, over 925k objective calls, and
    # every factor is accepted early in its skeleton stream. Detection is
    # 1.6%. Fit and assembly optimisations show here. Case 9 needs 0-3
    # assembly retries depending on its seed (0 at 59% of seeds); each
    # retry costs 2692 evaluations and about 2.7 s. Three seeds a case,
    # not two, keep the pass totals of different workload seeds within
    # their bounds.
    "fit-suite": Workload("fit-suite", tuple(range(1, 11)), 3, False),
    # Detection only on cases 1-11, twenty seeds each (220 runs, 3-5 s).
    # Bypasses the fit layer entirely, so a fit-only change must leave it
    # unchanged. interaction_graph is 73% of the time and Oracle.eval_batch
    # 52%, at 7.3 points per call: detect, oracle and expr batching show
    # here. The only workload with ten runs beyond its p95.
    "detect-sweep": Workload("detect-sweep", tuple(range(1, 12)), 20, True),
    # Full pipeline on the stream-function demo (case 11), one seed
    # (30-40 s). Loads the fit layer on its exhaustive path: assembly burns
    # all three retries (20 factor fits, 184 LDSE runs, about 1M objective
    # calls) and validation still fails. A gain on the early-accept path
    # that costs the exhaustive path shows here.
    "stream-demo": Workload("stream-demo", (11,), 1, False),
}

CASE_NUMBERS = tuple(range(1, 12))

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_cal": "cal",
    "oracle_evals": "count",
    "structure_rate": "share",
    "peak_rss_mb": "MB",
}

# Printed on the detail line only: unsteady between seeds, not defined on
# every workload, or zero on a healthy run (see README.md).
DETAIL_UNITS = {
    "wall_s": "s",
    "run_s.p50": "s",
    "run_s.p95": "s",
    "success_rate": "share",
    "error_rate": "share",
}

PER_LAYER_UNITS = {
    "fit.factor.calls": "count",
    "fit.factor.s": "s",
    "fit.factor.self_s": "s",
    "fit.factor.converged_share": "share",
    "fit.ldse.calls": "count",
    "fit.ldse.s": "s",
    "fit.ldse.self_s": "s",
    "fit.objective.calls": "count",
    "fit.objective.s": "s",
    "fit.objective.us_per_call": "us",
    "detect.s": "s",
    "detect.graph.calls": "count",
    "detect.graph.s": "s",
    "detect.peel.s": "s",
    "detect.blocks.self_s": "s",
    "detect.partition.calls": "count",
    "detect.partition.s": "s",
    "detect.slice.calls": "count",
    "detect.slice.s": "s",
    "oracle.calls": "count",
    "oracle.evals": "count",
    "oracle.s": "s",
    "oracle.rows_per_call": "rows/call",
    "oracle.nan_share": "share",
    "oracle.evals.detect": "count",
    "oracle.evals.sweep": "count",
    "oracle.evals.sample": "count",
    "expr.eval.calls": "count",
    "expr.eval.rows": "count",
    "expr.eval.s": "s",
    "expr.parse.s": "s",
    "assemble.s": "s",
    "assemble.attempts": "count",
    "assemble.retry_share": "share",
    "assemble.sweep.calls": "count",
    "assemble.sweep.s": "s",
    "assemble.basis.terms": "count",
    "assemble.term.calls": "count",
    "assemble.term.s": "s",
    "assemble.lstsq.s": "s",
    "assemble.self_s": "s",
    **{f"bench.case{no}.s": "s" for no in CASE_NUMBERS},
    **{f"bench.case{no}.evals": "count" for no in CASE_NUMBERS},
    "trace.overhead_share": "share",
}


@dataclass
class Pass:
    """One pass over a workload's jobs, in job order."""

    speed: Speedometer | None = None
    tracer: Tracer | None = None
    reports: list = field(default_factory=list)
    run_s: list = field(default_factory=list)
    spans: list = field(default_factory=list)    # (start, end) of each run

    @property
    def wall_s(self) -> float:
        """Time to complete all runs of the pass."""
        return sum(self.run_s)

    @property
    def wall_cal(self) -> float:
        """The same time in reference-kernel durations (see speed.py)."""
        return sum(s / self.speed.kernel_s(*span) for s, span in zip(self.run_s, self.spans))

    def _paused_s(self) -> float:
        return self.speed.paused_s if self.speed else 0.0

    def run(self, no: int, seed: int, detect_only: bool) -> None:
        paused0 = self._paused_s()
        if self.tracer is not None:
            self.tracer.install()
        try:
            t0 = perf_counter()
            report = bench.run_case(no, seed, detect_only=detect_only)
            t1 = perf_counter()
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        # speed samples taken during the run are not the run's time
        self.run_s.append(t1 - t0 - (self._paused_s() - paused0))
        self.spans.append((t0, t1))
        self.reports.append(report)


def run_passes(jobs, detect_only: bool, seconds: float,
               traced: bool = False) -> tuple[list[Pass], list[Pass]]:
    """Whole passes until `seconds` have been measured; (untraced, traced).

    A pass is never cut short, so every count in it is exact. Untraced-only
    passes sample machine speed (speed.py). With `traced`, each job also
    runs under a tracer right after its untraced run (right before it, on
    every other job), so that both runs see the same machine load and the
    overhead share compares like with like; no speed samples are taken
    then, as they would land inside the traced spans.
    """
    speed = None if traced else Speedometer()
    untraced: list[Pass] = []
    traced_passes: list[Pass] = []
    with speed or contextlib.nullcontext():
        t0 = perf_counter()
        while not untraced or perf_counter() - t0 < seconds:
            u = Pass(speed)
            t = Pass(tracer=Tracer()) if traced else None
            for k, (no, seed) in enumerate(jobs):
                for p in ((u, t) if k % 2 == 0 else (t, u)):
                    if p is not None:
                        p.run(no, seed, detect_only)
            untraced.append(u)
            if t is not None:
                traced_passes.append(t)
    return untraced, traced_passes


# --------------------------------------------------------------------------
# correctness


def structure_matches(report) -> tuple[bool, bool, bool]:
    """Recompute the match flags from the reported structure and the table."""
    spec = bench.get_case(report.no)
    s = report.structure
    if s is None:
        return False, False, False
    factors = sum(len(b["psi_factors"]) + len(b["omega_factors"]) for b in s["blocks"])
    return (
        tuple(s["repeated"]) == spec.expected_repeated,
        len(s["blocks"]) == spec.expected_blocks,
        factors == spec.expected_factors,
    )


def check_report(report, detect_only: bool) -> list[str]:
    """Disagreements between a report's flags and an independent check."""
    problems = []
    where = f"case {report.no} seed {report.seed}"
    flags = (report.match_repeated, report.match_blocks, report.match_factors)
    if flags != structure_matches(report):
        problems.append(f"{where}: structure flags {flags} disagree with the case table")
    if report.model is None:
        if report.success:
            problems.append(f"{where}: success without a model")
        if not detect_only and report.error is None:
            problems.append(f"{where}: full run returned no model and no error")
    else:
        ok = bool(report.val_mse <= TOL_TARGET)
        if report.success != ok or report.model["success"] != ok:
            problems.append(
                f"{where}: success flag {report.success} but val MSE {report.val_mse:.3e}"
            )
    return problems


def check_repeats(passes: list[Pass]) -> list[str]:
    """Every (case, seed) gives the same canonical report in every pass."""
    problems = []
    first = passes[0].reports
    for k, p in enumerate(passes[1:], start=1):
        for a, b in zip(first, p.reports):
            if a.canonical_json() != b.canonical_json():
                problems.append(
                    f"case {a.no} seed {a.seed}: canonical report differs in pass {k}"
                )
    return problems


def canonical_digest(p: Pass) -> str:
    h = hashlib.sha256()
    for r in p.reports:
        h.update(r.canonical_json().encode())
    return h.hexdigest()


def check_trace(p: Pass) -> list[str]:
    """Stage split of oracle evaluations is exhaustive and exact."""
    c = p.tracer.counts
    total = sum(r.oracle_evals for r in p.reports)
    staged = c["oracle.evals.detect"] + c["oracle.evals.sweep"] + c["oracle.evals.sample"]
    problems = []
    if c["oracle.evals.unattributed"]:
        problems.append(f"{c['oracle.evals.unattributed']} oracle evaluations outside any stage")
    if not staged == c["oracle.evals"] == total:
        problems.append(
            f"stage evaluations {staged}, traced {c['oracle.evals']}, reported {total}"
        )
    if all(r.error is None for r in p.reports):
        detect = sum(r.detect_evals for r in p.reports)
        if detect != c["oracle.evals.detect"]:
            problems.append(
                f"detect evaluations {c['oracle.evals.detect']} traced, {detect} reported"
            )
    return problems


def check_traced_counts(traced: list[Pass]) -> list[str]:
    """Every traced pass makes the same number of calls in every layer."""
    def counts(p):
        return (
            {k: st.calls for k, st in p.tracer.stats.items() if st.calls},
            {k: v for k, v in p.tracer.counts.items() if v},
        )

    ref = counts(traced[0])
    return [
        f"traced pass {k}: layer call counts differ from pass 0"
        for k, p in enumerate(traced[1:], start=1)
        if counts(p) != ref
    ]


# --------------------------------------------------------------------------
# metrics


def nearest_rank(values, q: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: list[Pass], detect_only: bool) -> dict[str, float]:
    reports = [r for p in passes for r in p.reports]
    run_s = [t for p in passes for t in p.run_s]
    n = len(reports)
    out = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "run_s.p50": statistics.median(run_s),
        "oracle_evals": sum(r.oracle_evals for r in passes[0].reports),
        "structure_rate": sum(all(structure_matches(r)) for r in reports) / n,
        "error_rate": sum(r.error is not None for r in reports) / n,
    }
    if passes[0].speed is not None:
        out["wall_cal"] = statistics.median(p.wall_cal for p in passes)
    # p95 only where at least ten runs lie beyond it
    if 0.05 * n >= 10:
        out["run_s.p95"] = nearest_rank(run_s, 0.95)
    if not detect_only:
        out["success_rate"] = sum(r.success for r in reports) / n
    return out


def per_layer(traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    """Per-pass layer metrics: counts from the first traced pass (all
    traced passes agree on them), times as medians over the traced passes."""
    t0 = traced[0].tracer

    def calls(name):
        return t0.stat(name).calls

    def secs(name, self_time=False):
        return statistics.median(
            p.tracer.stat(name).self_s if self_time else p.tracer.stat(name).s
            for p in traced
        )

    def ratio(a, b):
        return a / b if b else 0.0

    c = t0.counts
    m = {
        "fit.factor.calls": calls("fit.factor"),
        "fit.factor.s": secs("fit.factor"),
        "fit.factor.self_s": secs("fit.factor", True),
        "fit.factor.converged_share": ratio(c["fit.factor.converged"], calls("fit.factor")),
        "fit.ldse.calls": calls("fit.ldse"),
        "fit.ldse.s": secs("fit.ldse"),
        "fit.ldse.self_s": secs("fit.ldse", True),
        "fit.objective.calls": calls("fit.objective"),
        "fit.objective.s": secs("fit.objective"),
        "detect.s": secs("detect"),
        "detect.graph.calls": calls("detect.graph"),
        "detect.graph.s": secs("detect.graph"),
        "detect.peel.s": secs("detect.peel"),
        "detect.blocks.self_s": secs("detect.blocks", True),
        "detect.partition.calls": calls("detect.partition"),
        "detect.partition.s": secs("detect.partition"),
        "detect.slice.calls": calls("detect.slice"),
        "detect.slice.s": secs("detect.slice"),
        "oracle.calls": calls("oracle"),
        "oracle.evals": c["oracle.evals"],
        "oracle.s": secs("oracle"),
        "oracle.rows_per_call": ratio(c["oracle.evals"], calls("oracle")),
        "oracle.nan_share": ratio(c["oracle.nan"], c["oracle.evals"]),
        "oracle.evals.detect": c["oracle.evals.detect"],
        "oracle.evals.sweep": c["oracle.evals.sweep"],
        "oracle.evals.sample": c["oracle.evals.sample"],
        "expr.eval.calls": calls("expr.eval"),
        "expr.eval.rows": c["expr.eval.rows"],
        "expr.eval.s": secs("expr.eval"),
        "expr.parse.s": secs("expr.parse"),
        "assemble.s": secs("assemble"),
        "assemble.attempts": calls("assemble.attempt"),
        "assemble.retry_share": ratio(
            calls("assemble.attempt") - calls("assemble"), calls("assemble.attempt")
        ),
        "assemble.sweep.calls": calls("assemble.sweep"),
        "assemble.sweep.s": secs("assemble.sweep"),
        "assemble.basis.terms": c["assemble.basis.terms"],
        "assemble.term.calls": calls("assemble.term"),
        "assemble.term.s": secs("assemble.term"),
        "assemble.lstsq.s": secs("assemble.lstsq", True),
        "assemble.self_s": secs("assemble", True),
        "trace.overhead_share": statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1.0,
    }
    m["fit.objective.us_per_call"] = 1e6 * ratio(
        m["fit.objective.s"], m["fit.objective.calls"]
    )
    for no in CASE_NUMBERS:
        idx = [k for k, r in enumerate(traced[0].reports) if r.no == no]
        m[f"bench.case{no}.s"] = statistics.median(
            sum(p.run_s[k] for k in idx) for p in traced
        )
        m[f"bench.case{no}.evals"] = sum(traced[0].reports[k].oracle_evals for k in idx)
    return m
