"""Command-line entry points: detect, fit, bench.

Exit codes: 0 success, 1 usage or parse error, a target nested too
deeply to parse or evaluate, or an --out file that cannot be written,
2 detection failure, 3 no model within tolerance,
including factors gsfit cannot fit and samples that stay invalid. Every
output JSON embeds the full run configuration, seed included, so results
are self-reproducing. Output is strict JSON: a non-finite number, such as
the MSEs of a detect-only benchmark run, is written null.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import assemble as asm
from . import bench
from . import detect as det
from . import fit as ft
from .config import RunConfig
from .expr import ParseError, parse
from .oracle import DomainBox, SampleError, make_oracle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DETECT = 2
EXIT_TOLERANCE = 3


def _parse_bounds(text: str, dims: int) -> list[float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 1:
        return parts * dims
    if len(parts) != dims:
        raise ValueError(f"expected 1 or {dims} comma-separated bounds, got {len(parts)}")
    return parts


def _add_common(p: argparse.ArgumentParser) -> None:
    default = RunConfig()
    p.add_argument("--target", required=True, help="target expression over x1..xn")
    p.add_argument("--dims", type=int, required=True, help="number of variables")
    p.add_argument("--lo", default="-3", help="lower bounds (scalar or comma list)")
    p.add_argument("--hi", default="3", help="upper bounds (scalar or comma list)")
    p.add_argument("--seed", type=int, default=default.seed)
    p.add_argument("--tol-detect", type=float, default=default.tol_detect,
                   help="relative detection tolerance, at least 1e-12 and below 1")
    p.add_argument("--tol-target", type=float, default=default.tol_target,
                   help="MSE tolerance: a factor fit accepts at a normalized MSE "
                        "of at most this, validation at an absolute MSE")
    p.add_argument("--samples-per-var", type=int, default=default.samples_per_var,
                   help="most validation points per variable (validation first "
                        f"checks a block of {asm.TRAIN_POINTS_PER_TERM} points per "
                        "basis column and accepts a model trained on 2 per column at "
                        f"an MSE of {asm.EARLY_ACCEPT:g} x --tol-target or less; "
                        "otherwise training takes as many points as the block, and "
                        "the full sample is drawn only when the block does not "
                        "accept that model either)")
    p.add_argument("--max-nodes", type=int, default=default.max_nodes,
                   help="largest skeleton template node count (at least 3)")
    p.add_argument("--kmax", type=int, default=default.kmax,
                   help="largest repeated-variable cut size (at least 1)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gsfit",
        description="Recover and refit the separable structure of a target function.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_det = sub.add_parser("detect", help="detect block/factor structure only")
    _add_common(p_det)

    p_fit = sub.add_parser("fit", help="detect, fit factors, assemble, validate")
    _add_common(p_fit)

    p_bench = sub.add_parser("bench", help="run the built-in benchmark suite")
    p_bench.add_argument("--cases", default="1-10",
                         help="cases to run, e.g. '4' or '1-3,9' (11 = stream demo, "
                              "12 = wide 65-variable case)")
    p_bench.add_argument("--repeats", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--parallel", action="store_true")
    p_bench.add_argument("--detect-only", action="store_true",
                         help="skip fitting, check structure columns only")
    p_bench.add_argument("--out", default=None)
    return ap


def _print(text: str) -> None:
    """Print text to stdout; a reader that closed the pipe early (`| head`)
    ends the output quietly."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _finite(obj):
    """obj with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _emit(payload: dict, out: str | None) -> bool:
    """Write the payload as strict JSON, each non-finite float as null, to
    the file `out`, or print it when out is None; False, with an error on
    stderr, when the file cannot be written."""
    text = json.dumps(_finite(payload), indent=2, allow_nan=False)
    if not out:
        _print(text)
        return True
    try:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    except OSError as err:
        print(f"error: cannot write {out}: {err.strerror or err}", file=sys.stderr)
        return False
    return True


def _setup(args):
    if args.dims < 1:
        raise ValueError("--dims must be at least 1")
    # each RunConfig field is the flag of the same name, checked first
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    lo = _parse_bounds(args.lo, args.dims)
    hi = _parse_bounds(args.hi, args.dims)
    target = parse(args.target, args.dims)
    box = DomainBox(tuple(lo), tuple(hi))
    oracle = make_oracle(target, box)
    run_cfg = {"target": args.target, "dims": args.dims, "lo": lo, "hi": hi, **asdict(cfg)}
    return oracle, cfg, run_cfg


def cmd_run(args) -> int:
    """`detect`, or `fit`: detection, then the fit and its validation.
    Each failure prints one line to stderr and ends in its exit code."""
    try:
        oracle, cfg, run_cfg = _setup(args)
    except (ParseError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    model = None
    try:
        structure = det.detect_structure(oracle, cfg)
        if args.command == "fit":
            model = asm.assemble_and_validate(structure, oracle, cfg)
    except det.DetectionError as err:  # from detection or the factor sweeps
        print(f"detection failed: {err}", file=sys.stderr)
        return EXIT_DETECT
    except (ft.FitError, SampleError) as err:
        print(f"fit failed: {err}", file=sys.stderr)
        return EXIT_TOLERANCE
    payload = {"config": run_cfg, "structure": structure.to_dict()}
    if model is not None:
        payload.update(model=model.to_dict(), oracle_evals=oracle.eval_count)
    if not _emit(payload, args.out):
        return EXIT_USAGE
    if model is None or model.success:
        return EXIT_OK
    print(f"fit failed: validation MSE {model.val_mse:.3g} above tolerance {cfg.tol_target:g}",
          file=sys.stderr)
    for f in model.unconverged:
        names = ", ".join(f"x{v}" for v in f.var_indices)
        print(f"  factor ({names}): {f.skeleton_name} at {f.train_mse:.1e}", file=sys.stderr)
    return EXIT_TOLERANCE


def _parse_cases(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            a, b = part.split("-", 1)
            if int(b) < int(a):
                raise ValueError(f"empty case range: {part}")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    bad = [c for c in out if c not in bench.ALL_CASES]
    if bad:
        raise ValueError(f"unknown case numbers: {bad}")
    return sorted(set(out))


def cmd_bench(args) -> int:
    try:
        cases = _parse_cases(args.cases)
        if args.repeats < 1:
            raise ValueError("--repeats must be at least 1")
        if args.seed < 0:
            raise ValueError("--seed must be at least 0")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    report = bench.run_suite(
        repeats=args.repeats,
        base_seed=args.seed,
        cases=cases,
        parallel=args.parallel,
        detect_only=args.detect_only,
    )
    payload = report.to_dict()
    payload["config"] = {
        "cases": cases,
        "repeats": args.repeats,
        "seed": args.seed,
        "parallel": args.parallel,
        "detect_only": args.detect_only,
    }
    _print(report.table())
    if args.out and not _emit(payload, args.out):
        return EXIT_USAGE
    all_match = all(r.structure_matched for r in report.reports)
    return EXIT_OK if all_match else EXIT_TOLERANCE


def _join_target(argv: list[str]) -> list[str]:
    """argv with each "--target VALUE" joined into "--target=VALUE", so
    that argparse takes a target starting with "-" as the value."""
    joined = []
    for arg in argv:
        if joined and joined[-1] == "--target":
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_join_target(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    commands = {"detect": cmd_run, "fit": cmd_run, "bench": cmd_bench}
    try:
        with np.errstate(all="ignore"):
            return commands[args.command](args)
    except RecursionError:
        # the parser and tree walks recurse per level; a higher limit risks the C stack
        print("error: target nested too deeply (Python recursion limit reached)",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
