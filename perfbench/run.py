"""Outside-in benchmark of the gsfit pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit-suite --seed 0 --seconds 15 --trace 0

Runs whole passes of the workload's (case, seed) jobs, one pipeline run at
a time, until --seconds have been measured. With --trace 0 the last stdout
line reports the end-to-end metrics; with --trace 1 every job runs twice,
untraced and traced, and the line reports the per-layer metrics. The line
before it is a detail record: environment, sample counts, and every metric
by name and unit, including those only defined on some workloads. A failed
correctness check sets "correct" to false; missing gsfit sources exit with
code 2 and print no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: gsfit's linear algebra is tiny, and extra BLAS threads
# would contend with the single pipeline run for the machine's cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up samples taken before the timed passes, and as many after them:
# the host's speed phases last 30 s or more, so the two halves usually see
# different phases and their median moves less from run to run.
SETUP_SAMPLES = 4


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap, ap.parse_args(argv)


def setup_seconds(cases) -> list[float]:
    """Spawn-to-exit times of fresh processes that only set up."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, cases)]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        out.append(perf_counter() - t0)
    return out


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def blas_version() -> str | None:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def with_units(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units if k in values}


def prepare() -> None:
    """Pin BLAS to one thread and put the checkout's gsfit first on the path.

    Must run before numpy is imported.
    """
    for v in BLAS_THREAD_VARS:
        os.environ[v] = "1"
    sys.path.insert(0, str(SRC))


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark invocation; return the detail record and the result."""
    import gsfit.bench as bench
    import harness

    jobs = workload.jobs(seed)
    detect_only = workload.detect_only

    setup = None if trace else setup_seconds(workload.cases)
    bench.run_case(*jobs[0], detect_only=True)   # untimed warm-up

    untraced, traced = harness.run_passes(jobs, detect_only, seconds, traced=trace)
    if setup is not None:
        setup += setup_seconds(workload.cases)
    rss_mb = harness.peak_rss_mb()
    passes = untraced + traced
    problems: list[str] = []
    if trace:
        for p in traced:
            problems += harness.check_trace(p)
        problems += harness.check_traced_counts(traced)
    for p in passes:
        for r in p.reports:
            problems += harness.check_report(r, detect_only)
    problems += harness.check_repeats(passes)

    e2e = harness.end_to_end(untraced, detect_only)
    e2e["peak_rss_mb"] = rss_mb
    if setup is not None:
        e2e["setup_s"] = statistics.median(setup)
    if trace:
        metrics = with_units(harness.per_layer(traced, untraced), harness.PER_LAYER_UNITS)
    else:
        metrics = with_units(e2e, harness.END_TO_END_UNITS)

    reports = [r for p in passes for r in p.reports]
    detail = {
        "workload": workload.name,
        "environment": environment(seed),
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "runs_per_pass": len(jobs),
        "setup_samples_s": setup,
        "reference_kernel_ms": None if trace else 1e3 * statistics.median(
            k for _, k in untraced[0].speed.samples
        ),
        "canonical_sha256": harness.canonical_digest(untraced[0]),
        "end_to_end": with_units(e2e, {**harness.END_TO_END_UNITS, **harness.DETAIL_UNITS}),
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": len(reports),
        "failed": sum(r.error is not None for r in reports),
        "metrics": metrics,
    }
    return detail, result


def main(argv=None) -> int:
    ap, args = parse_args(argv)
    if not (SRC / "gsfit" / "__init__.py").is_file():
        print(f"gsfit sources not found under {SRC}", file=sys.stderr)
        return 2
    prepare()
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}")
    detail, result = measure(workload, args.seed, args.seconds, bool(args.trace))
    for msg in detail["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
