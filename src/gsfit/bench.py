"""The benchmark: case table, demo and wide case, runs, suite aggregation."""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import assemble as asm
from . import detect as det
from .config import RunConfig
from .expr import Expr, parse
from .oracle import DomainBox, Oracle, make_oracle


@dataclass(frozen=True)
class CaseSpec:
    """One benchmark target with its expected structure."""

    no: int
    text: str
    dim: int
    box: DomainBox
    expected_repeated: tuple[int, ...]
    expected_blocks: int
    expected_factors: int
    target: Expr = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # parsed once, with the table: every run's oracle shares the tree
        object.__setattr__(self, "target", parse(self.text, self.dim))

    def oracle(self) -> Oracle:
        return make_oracle(self.target, self.box)


def _cube(lo, hi, n):
    return DomainBox.cube(lo, hi, n)


CASES: dict[int, CaseSpec] = {
    1: CaseSpec(1, "0.5*exp(x1)*sin(2*x2)", 2, _cube(-3, 3, 2), (), 1, 2),
    2: CaseSpec(2, "2*cos(x1)+sin(3*x2-x3)", 3, _cube(-3, 3, 3), (), 2, 2),
    3: CaseSpec(3, "1.2+10*sin(2*x1)-3*x2^2*cos(x3)", 3, _cube(-3, 3, 3), (), 2, 3),
    4: CaseSpec(4, "x3*sin(x1)-2*x3*cos(x2)", 3, _cube(-3, 3, 3), (3,), 2, 4),
    5: CaseSpec(
        5, "2*x1*sin(x2)*cos(x4)-0.5*x4*cos(x3)", 4, _cube(-3, 3, 4), (4,), 2, 5
    ),
    6: CaseSpec(
        6,
        "10+0.2*x1-0.2*x5^2*sin(x2)+cos(x5)*ln(3*x3+1.2)-1.2*exp(0.5*x4)",
        5, _cube(1, 3, 5), (5,), 4, 6,
    ),
    7: CaseSpec(
        7,
        "2*x4*x5*sin(x1)-x5*x2+0.5*exp(x3)*cos(x4)",
        5, _cube(-3, 3, 5), (4, 5), 3, 7,
    ),
    8: CaseSpec(
        8,
        "1.2+2*x4*cos(x2)+0.5*exp(1.2*x3)*sin(3*x1)*cos(x4)-2*cos(1.5*x5+5)",
        5, _cube(-3, 3, 5), (4,), 3, 6,
    ),
    9: CaseSpec(
        9,
        "0.5*cos(x3*x4)/(exp(x1)*x2^2)*sin(1.5*x5-2*x6)",
        6, _cube(-3, 3, 6), (), 1, 4,
    ),
    10: CaseSpec(
        10,
        "1.2-2*(x1+x2)/x3*cos(x7)+0.5*exp(x7)*x4*sin(x5*x6)",
        7, _cube(-3, 3, 7), (7,), 2, 6,
    ),
}

# Stream function over a circular cylinder: variables V, theta, R, r, Gamma.
# Ships as demo case 11; excluded from the structure-table assertions,
# except that detection must report repeated {R, r} (x3, x4) and 2 blocks.
STREAM_DEMO = CaseSpec(
    11,
    f"(x1*x4*sin(x2))*(1-x3^2/x4^2)+x5/{2 * math.pi:.17g}*ln(x4/x3)",
    5,
    DomainBox((-3.0, -3.0, 1.0, 1.0, -3.0), (3.0, 3.0, 3.0, 3.0, 3.0)),
    (3, 4), 2, 5,
)

# Case 12, outside the acceptance suite: 32 two-variable blocks of mixed
# shapes on [0.5, 2]^65, each multiplied by the repeated variable x65.
_WIDE_TERMS = ("sin(x{})*x{}", "exp(0.5*x{})*x{}", "cos(0.5*x{})*x{}^2", "x{}^2/x{}")
WIDE = CaseSpec(12, "+".join("x65*" + _WIDE_TERMS[i % 4].format(2 * i + 1, 2 * i + 2)
                             for i in range(32)), 65, _cube(0.5, 2, 65), (65,), 32, 96)

# every case a suite can run, by number: the table, the demo and the wide case
ALL_CASES: dict[int, CaseSpec] = {**CASES, STREAM_DEMO.no: STREAM_DEMO, WIDE.no: WIDE}


def get_case(no: int) -> CaseSpec:
    return ALL_CASES[no]


@dataclass(slots=True)
class CaseReport:
    """Outcome of one seeded pipeline run on one case.

    Slotted, since a suite keeps one report per run.
    """

    no: int
    seed: int
    detected_repeated: tuple[int, ...] = ()
    detected_blocks: int = 0
    detected_factors: int = 0
    match_repeated: bool = False
    match_blocks: bool = False
    match_factors: bool = False
    val_mse: float = math.inf
    train_mse: float = math.inf
    success: bool = False
    detect_seconds: float = 0.0
    wall_seconds: float = 0.0
    oracle_evals: int = 0
    detect_evals: int = 0
    error: str | None = None
    structure: dict | None = None
    model: dict | None = None

    @property
    def structure_matched(self) -> bool:
        return self.match_repeated and self.match_blocks and self.match_factors

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "no": self.no,
            "seed": self.seed,
            "repeated": list(self.detected_repeated),
            "blocks": self.detected_blocks,
            "factors": self.detected_factors,
            "match": {
                "repeated": self.match_repeated,
                "blocks": self.match_blocks,
                "factors": self.match_factors,
            },
            "val_mse": self.val_mse,
            "train_mse": self.train_mse,
            "success": self.success,
            "oracle_evals": self.oracle_evals,
            "detect_evals": self.detect_evals,
            "error": self.error,
            "structure": self.structure,
            "model": self.model,
        }
        if include_timing:
            d["wall_seconds"] = self.wall_seconds
            d["detect_seconds"] = self.detect_seconds
        return d

    def canonical_json(self) -> str:
        """Deterministic report body: timing fields excluded."""
        return json.dumps(self.to_dict(include_timing=False))


def run_case(no: int, seed: int = 0, detect_only: bool = False) -> CaseReport:
    """Run the full pipeline on one case; errors land in the report."""
    report = CaseReport(no=no, seed=seed)
    t0 = time.perf_counter()
    oracle = None
    try:
        spec = get_case(no)
        oracle = spec.oracle()
        cfg = RunConfig(seed=seed)
        structure = det.detect_structure(oracle, cfg)
        report.detect_seconds = time.perf_counter() - t0
        report.detect_evals = structure.probes_used
        report.detected_repeated = structure.repeated
        report.detected_blocks = structure.block_count()
        report.detected_factors = structure.factor_count()
        report.match_repeated = structure.repeated == spec.expected_repeated
        report.match_blocks = report.detected_blocks == spec.expected_blocks
        report.match_factors = report.detected_factors == spec.expected_factors
        report.structure = structure.to_dict()
        if not detect_only:
            model = asm.assemble_and_validate(structure, oracle, cfg)
            report.val_mse = model.val_mse
            report.train_mse = model.train_mse
            report.success = model.success
            report.model = model.to_dict()
    except Exception as err:  # pipeline failures are data, not crashes
        report.error = f"{type(err).__name__}: {err}"
    if oracle is not None:
        report.oracle_evals = oracle.eval_count
    report.wall_seconds = time.perf_counter() - t0
    return report


@dataclass
class SuiteReport:
    """Aggregated results over cases and repeats."""

    reports: list[CaseReport] = field(default_factory=list)

    def cases(self) -> list[int]:
        return sorted({r.no for r in self.reports})

    def for_case(self, no: int) -> list[CaseReport]:
        return sorted((r for r in self.reports if r.no == no), key=lambda r: r.seed)

    def _summaries(self):
        """Per case: its number, its runs, how many of them matched the
        expected structure and how many succeeded, their largest
        validation MSE, and their median evaluations and milliseconds."""
        for no in self.cases():
            runs = self.for_case(no)
            yield no, runs, (
                sum(r.structure_matched for r in runs), sum(r.success for r in runs),
                max((r.val_mse for r in runs), default=math.inf),
                float(np.median([r.oracle_evals for r in runs])),
                float(np.median([1000 * r.wall_seconds for r in runs])),
            )

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {"cases": []}
        for no, runs, (matched, succeeded, mse, evals, ms) in self._summaries():
            spec = get_case(no)
            # modal detected structure across the repeats
            detected = Counter(
                (r.detected_repeated, r.detected_blocks, r.detected_factors)
                for r in runs
            ).most_common(1)[0][0]
            entry = {
                "no": no,
                "dim": spec.dim,
                "repeated": list(detected[0]),
                "blocks": detected[1],
                "factors": detected[2],
                "match": {
                    "repeated": detected[0] == spec.expected_repeated,
                    "blocks": detected[1] == spec.expected_blocks,
                    "factors": detected[2] == spec.expected_factors,
                },
                "expected": {
                    "repeated": list(spec.expected_repeated),
                    "blocks": spec.expected_blocks,
                    "factors": spec.expected_factors,
                },
                "repeats": len(runs),
                "structure_match_rate": matched / len(runs),
                "success_rate": succeeded / len(runs),
                "mse_max": mse,
                "median_evals": evals,
                "runs": [r.to_dict(include_timing=include_timing) for r in runs],
            }
            if include_timing:
                entry["median_wall_ms"] = ms
            out["cases"].append(entry)
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(include_timing=False))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def table(self) -> str:
        rows = [
            f"{'case':>4} {'dim':>3} {'structure':>9} {'success':>7} "
            f"{'max MSE':>10} {'med evals':>9} {'med ms':>8}"
        ]
        for no, runs, (matched, succeeded, mse, evals, ms) in self._summaries():
            fitted = any(r.model is not None for r in runs)
            succ_txt = f"{succeeded:>3}/{len(runs):<3}" if fitted else f"{'-':>7}"
            mse_txt = f"{mse:>10.2e}" if fitted else f"{'-':>10}"
            rows.append(
                f"{no:>4} {get_case(no).dim:>3} {matched:>4}/{len(runs):<4} "
                f"{succ_txt} {mse_txt} {evals:>9.0f} {ms:>8.0f}"
            )
        return "\n".join(rows)


def suite_seeds(base_seed: int, case_no: int, repeats: int) -> list[int]:
    """Deterministic per-case seed schedule."""
    return [base_seed + 7919 * case_no + r for r in range(repeats)]


def run_suite(
    repeats: int = 20,
    base_seed: int = 0,
    cases: list[int] | None = None,
    parallel: bool = False,
    detect_only: bool = False,
) -> SuiteReport:
    """Run every requested case `repeats` times; aggregate order-independently.

    cases=None runs every case of the table; an empty list is an error.
    """
    if cases is None:
        cases = sorted(CASES)
    if not cases:
        raise ValueError("no cases to run")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    jobs = [(no, seed) for no in cases for seed in suite_seeds(base_seed, no, repeats)]
    nos, seeds = zip(*jobs)
    flags = [detect_only] * len(jobs)
    if parallel:
        import concurrent.futures as cf
        import os

        workers = max(1, min(8, os.cpu_count() or 1))
        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_case, nos, seeds, flags))
    else:
        reports = list(map(run_case, nos, seeds, flags))
    reports.sort(key=lambda r: (r.no, r.seed))
    return SuiteReport(reports=reports)
