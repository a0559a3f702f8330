import copy
import json
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import gsfit.assemble as asm
import gsfit.bench as bench
import gsfit.detect as det
import gsfit.fit as ft
from gsfit.cli import main
from gsfit.config import RunConfig
from gsfit.oracle import Oracle

from fuzz_exits import draw, fit_args, read_table
from helpers import random_tree


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_detect_case4_shape(tmp_path, capsys):
    out_path = tmp_path / "s.json"
    code, _, _ = run_cli(
        ["detect", "--target", "x3*sin(x1)-2*x3*cos(x2)", "--dims", "3",
         "--lo", "-3", "--hi", "3", "--seed", "1", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["structure"]["repeated"] == [3]
    assert len(payload["structure"]["blocks"]) == 2
    assert payload["config"]["seed"] == 1
    assert payload["config"]["target"] == "x3*sin(x1)-2*x3*cos(x2)"


# its first axis spans 30 rad, beyond both scans' reach, so LDSE runs;
# at --max-nodes 14 and seed 1 its one run fits
AFFINE3 = "sin(5*x1+0.4*x2-0.9*x3+1)"


@pytest.mark.parametrize("target, dims", [
    (bench.CASES[4].text, bench.CASES[4].dim),
    (AFFINE3, 3),
])
def test_a_fit_reads_every_random_draw_from_a_keyed_stream(monkeypatch, capsys, target, dims):
    def refuse(*args, **kwargs):
        raise AssertionError("a run drew from a stream config.rng did not key")

    ldse_runs = []
    real_ldse = ft.ldse_minimize

    def counted_ldse(*args, **kwargs):
        ldse_runs.append(kwargs["rng"])
        return real_ldse(*args, **kwargs)

    monkeypatch.setattr(ft, "ldse_minimize", counted_ldse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    code, _, _ = run_cli(["fit", "--target", target, "--dims", str(dims),
                          "--max-nodes", "14", "--seed", "1"], capsys)
    assert code == 0
    assert len(ldse_runs) == (target == AFFINE3)


def test_detect_syntax_error_exit_1(capsys):
    code, _, err = run_cli(["detect", "--target", "x1+", "--dims", "1"], capsys)
    assert code == 1
    assert "error" in err


def test_detect_entangled_single_block(capsys):
    code, out, _ = run_cli(
        ["detect", "--target", "sin(x1+x2)", "--dims", "2", "--seed", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    blocks = payload["structure"]["blocks"]
    assert len(blocks) == 1
    assert blocks[0]["psi_factors"] == [[1, 2]]


@pytest.mark.parametrize("target, dims", [("x1", "1"), ("sin(x1)*x2", "2")])
def test_a_lone_block_detects_at_tolerance_zero(capsys, target, dims):
    # a lone block's slice is the total itself, so no reconstruction
    # residual, rounding included, can fail it
    code, out, _ = run_cli(
        ["detect", "--target", target, "--dims", dims, "--tol-detect", "0"], capsys
    )
    assert code == 0
    blocks = json.loads(out)["structure"]["blocks"]
    assert [b["vars"] for b in blocks] == [list(range(1, int(dims) + 1))]


def test_detect_failure_exit_2(capsys):
    code, _, err = run_cli(
        ["detect", "--target", "ln(x1-2.5)", "--dims", "1"], capsys
    )
    assert code == 2
    assert "detection failed" in err


@pytest.mark.parametrize("target, dims, reason", [
    ("sqrt(-1.706)", "1", "target invalid (nan or inf) at every probed point"),
    # valid only at x1 > 2.9: no anchor draw lands there; one attempt's
    # box probe does, and the later attempt whose probe finds no valid
    # point keeps that attempt's error
    ("sqrt(x1-2.9)*x2", "2", "anchor value invalid"),
])
def test_a_target_invalid_everywhere_gets_its_own_error(capsys, target, dims, reason):
    code, out, err = run_cli(["detect", "--target", target, "--dims", dims], capsys)
    assert code == 2 and out == ""
    assert err == f"detection failed: {reason}\n"


def test_mostly_invalid_reconstruction_is_not_reported_as_not_separable(capsys):
    # at seed 32 every anchor attempt passes every step but the
    # reconstruction, where x1 <= 0 leaves too few valid points; that
    # redraws the anchor instead of calling the target not separable
    code, _, err = run_cli(
        ["detect", "--target", "ln(x1)+x2", "--dims", "2", "--seed", "32"], capsys
    )
    assert code == 2
    assert "detection failed" in err and "not a GS system" not in err
    assert "reconstruction probes mostly invalid" in err


@pytest.mark.parametrize("seed", range(10))
def test_a_target_invalid_on_half_its_box_detects_at_every_seed(capsys, seed):
    # ln(x1) is invalid at x1 <= 0; an attempt whose reconstruction points
    # are mostly there redraws the anchor, and the redraw draws them afresh
    code, out, _ = run_cli(["detect", "--target=ln(x1)+x2", "--dims=2", f"--seed={seed}"],
                           capsys)
    assert code == 0
    assert [b["vars"] for b in json.loads(out)["structure"]["blocks"]] == [[1], [2]]


@pytest.mark.parametrize("seed", [1, 5])
def test_detect_takes_the_first_valid_anchor_draw(capsys, seed):
    # ln(x1) is invalid on half the box; at these seeds an anchor stream's
    # first draw lands there, and a later draw of the same stream is used
    code, out, _ = run_cli(
        ["detect", "--target", "ln(x1)+x2", "--dims", "2", "--seed", str(seed)], capsys
    )
    assert code == 0
    blocks = json.loads(out)["structure"]["blocks"]
    assert [b["vars"] for b in blocks] == [[1], [2]]


def test_fit_constant_target(capsys):
    code, out, _ = run_cli(
        ["fit", "--target", "5+0*x1", "--dims", "1", "--seed", "3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["c0"] == pytest.approx(5.0, abs=1e-12)
    assert payload["model"]["success"] is True


def test_fit_case1_below_tolerance(capsys):
    code, out, _ = run_cli(
        ["fit", "--target", "0.5*exp(x1)*sin(2*x2)", "--dims", "2", "--seed", "4"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["val_mse"] <= 1e-6
    assert payload["oracle_evals"] > 0


def test_fit_above_tolerance_exit_3(capsys):
    # below 1e-12 the polish runs on to convergence, so sin(2*x1) validates
    # near 3e-32; a tolerance below any reachable MSE still fails
    code, out, _ = run_cli(
        ["fit", "--target", "sin(2*x1)", "--dims", "1", "--seed", "5",
         "--tol-target", "1e-300"],
        capsys,
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["model"]["success"] is False


@pytest.mark.parametrize("args", [
    # one 2-variable factor, {x1^2*x2, x2^2} + 1 in the monomial library
    ["--target", "x2*x1^2-x2^2", "--dims", "2"],
    # one 3-variable factor, {x3^2, x1*x2/x3} + 1, at the default node cap
    ["--target", "x1*x2/x3+x3^2", "--dims", "3", "--lo", "1", "--hi", "3"],
])
def test_factors_linear_in_monomials_fit(capsys, args):
    code, out, _ = run_cli(["fit", *args, "--seed", "1"], capsys)
    assert code == 0
    assert json.loads(out)["model"]["val_mse"] <= 1e-6


@pytest.mark.parametrize("seed", [1, 2])
def test_three_variable_parametric_factor_fits_under_the_wider_cap(capsys, seed):
    # sin(x1+2*x2-x3) needs a 3-variable row, which has 14 nodes: the scan
    # and polish close it at --max-nodes 14, and the default cap leaves it out
    args = ["fit", "--target", "exp(0.5*x4)*sin(x1+2*x2-x3)", "--dims", "4",
            "--seed", str(seed)]
    code, out, _ = run_cli(args + ["--max-nodes", "14"], capsys)
    assert code == 0
    assert json.loads(out)["model"]["val_mse"] <= 1e-6
    code, _, _ = run_cli(args, capsys)
    assert code == 3


def test_fit_validation_miss_says_why_on_stderr(capsys):
    # sin(x1*x2^2) is one factor that neither a table row nor the monomial
    # library fits
    code, out, err = run_cli(
        ["fit", "--target", "sin(x1*x2^2)", "--dims", "2", "--seed", "1"], capsys
    )
    assert code == 3
    model = json.loads(out)["model"]
    assert "retries" not in model and "unconverged" not in model
    head, *factors = err.splitlines()
    assert head == (f"fit failed: validation MSE {model['val_mse']:.3g} above "
                    "tolerance 1e-06")
    # the factor that missed tolerance, named with its best skeleton
    assert len(factors) == 1
    assert re.fullmatch(r"  factor \(x1, x2\): \w+ at \d\.\de-\d\d", factors[0])


def test_main_leaves_numpy_error_state_unchanged(capsys):
    # a known state, not whatever earlier tests left behind
    with np.errstate(all="warn"):
        run_cli(["fit", "--target", "ln(x1)", "--dims", "1", "--lo", "0.5"], capsys)
        run_cli(["detect", "--target", "x1+", "--dims", "1"], capsys)
        assert set(np.geterr().values()) == {"warn"}


def test_fit_detection_settings_reach_the_factor_sweeps(capsys, monkeypatch):
    seen = []
    inner = asm.fit_structure_factors

    def spy(structure, oracle, cfg):
        seen.append(cfg)
        return inner(structure, oracle, cfg)

    monkeypatch.setattr(asm, "fit_structure_factors", spy)
    code, _, _ = run_cli(
        ["fit", "--target", "x1*x2", "--dims", "2", "--seed", "2",
         "--tol-detect", "1e-6", "--kmax", "2"],
        capsys,
    )
    assert code == 0
    assert len(seen) == 1
    assert seen[0].tol_detect == 1e-6 and seen[0].kmax == 2 and seen[0].seed == 2


@pytest.mark.parametrize("target, dims, reason", [
    ("sin(x1*x2*x3*x4)", "4", "skeleton streams cover 1 to 3 variables"),
    ("x1*x2*x3*x4*x5*x6*x7", "7", "basis explosion"),
])
def test_fit_unfittable_factors_exit_3(capsys, target, dims, reason):
    code, out, err = run_cli(["fit", "--target", target, "--dims", dims], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(f"fit failed: {reason}")


def test_fit_detection_error_in_the_factor_sweeps_exit_2(capsys, monkeypatch):
    def degenerate(*args):
        raise det.DegenerateAnchorError("psi slice mostly invalid")

    monkeypatch.setattr(asm, "fit_structure_factors", degenerate)
    code, _, err = run_cli(["fit", "--target", "x1*x2", "--dims", "2"], capsys)
    assert code == 2
    assert "detection failed: psi slice mostly invalid" in err


@pytest.mark.parametrize("command", ["detect", "fit"])
def test_a_target_starting_with_minus_is_read_as_the_target(capsys, command):
    # argparse alone reads "--target -x1*x2" as a missing value
    code, out, _ = run_cli(
        [command, "--target", "-x1*x2", "--dims", "2", "--seed", "1"], capsys
    )
    assert code == 0
    assert json.loads(out)["config"]["target"] == "-x1*x2"


def _flags(config: dict) -> list[str]:
    # "--lo=-3.0,-3.0": a bare negative list would read as an option
    out = []
    for key, value in config.items():
        if isinstance(value, list):
            value = ",".join(repr(v) for v in value)
        out.append(f"--{key.replace('_', '-')}={value}")
    return out


def test_emitted_config_reproduces_the_run(capsys):
    code, out, _ = run_cli(
        ["fit", "--target", "x1*x2", "--dims", "2", "--seed", "2"], capsys
    )
    assert code == 0
    first = json.loads(out)
    code, out, _ = run_cli(["fit", *_flags(first["config"])], capsys)
    assert code == 0
    again = json.loads(out)
    assert again["config"] == first["config"]
    assert json.dumps(again["model"]) == json.dumps(first["model"])


def test_default_flags_emit_the_default_run_config(capsys):
    code, out, _ = run_cli(["detect", "--target", "x1+x2", "--dims", "2"], capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert list(config)[:4] == ["target", "dims", "lo", "hi"]
    assert {k: config[k] for k in list(config)[4:]} == asdict(RunConfig())


def test_fit_bad_bounds_exit_1(capsys):
    code, _, err = run_cli(
        ["fit", "--target", "x1", "--dims", "1", "--lo", "1,2", "--hi", "3"], capsys
    )
    assert code == 1


def test_infinite_bound_exit_1(capsys):
    # an infinite bound used to reach detection and exit 2 with "anchor
    # value invalid"
    code, out, err = run_cli(
        ["detect", "--target", "x1*x2+x3", "--dims", "3", "--hi", "inf"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: bounds must be finite")


@pytest.mark.parametrize("args", [
    ["detect", "--target", "x1*x2", "--dims", "2"],
    ["fit", "--target", "x1*x2", "--dims", "2"],
    ["bench", "--cases", "4", "--repeats", "1", "--detect-only"],
])
def test_out_path_that_cannot_be_written_exit_1(tmp_path, capsys, args):
    out_path = tmp_path / "missing" / "x.json"
    code, _, err = run_cli([*args, "--out", str(out_path)], capsys)
    assert code == 1
    assert err.startswith(f"error: cannot write {out_path}")
    assert "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("command, target, dims", [
    # evaluation recurses once per level of the 1,999 nested adds
    pytest.param("detect", "+".join(f"x{i}" for i in range(1, 2001)), 2000,
                 id="detect-sum-of-2000"),
    # the parser recurses once per parenthesis
    ("fit", "(" * 400 + "x1" + ")" * 400, 1),
])
def test_a_target_nested_too_deeply_exit_1(capsys, command, target, dims):
    code, out, err = run_cli([command, "--target", target, "--dims", str(dims)], capsys)
    assert code == 1 and out == ""
    assert err == "error: target nested too deeply (Python recursion limit reached)\n"
    assert "Traceback" not in err


def test_fit_max_nodes_below_three_exit_1(capsys):
    code, _, err = run_cli(
        ["fit", "--target", "sin(x1)", "--dims", "1", "--max-nodes", "2"], capsys
    )
    assert code == 1
    assert "error: --max-nodes" in err


_README_FIT = ["fit", "--target", "0.5*exp(x1)*sin(2*x2)", "--dims", "2", "--seed", "1"]


def _fit_at_two_sample_sizes(capsys, *flags):
    """The README example fitted at the default --samples-per-var and at
    1, with the given flags: (full, small) outputs."""
    args = [*_README_FIT, *flags]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    full = json.loads(out)
    code, out, _ = run_cli([*args, "--samples-per-var", "1"], capsys)
    small = json.loads(out)
    n_train = 20 * (len(full["model"]["terms"]) + 1)
    assert n_train > 1 * 2  # more than one point a variable: the floor binds
    for key in ("c0", "terms", "expr", "train_mse", "rank_deficient", "success"):
        assert small["model"][key] == full["model"][key]
    assert small["structure"] == full["structure"]
    return full, small


def test_samples_per_var_sizes_only_the_validation_sample(capsys):
    # training takes its points per basis column whatever the flag, and
    # validation never takes fewer than its first block of 20 per basis
    # column: one point a variable leaves the model as it is and
    # validates on the block, not on n points. The flag only caps
    # validation: the model trained on 2 points per basis column
    # validates at about 1e-30, clear of the tolerance on the first
    # block, which both runs draw and no more
    full, small = _fit_at_two_sample_sizes(capsys)
    assert full["oracle_evals"] == small["oracle_evals"]
    assert full["model"]["val_mse"] == small["model"]["val_mse"]


def test_samples_per_var_sizes_the_sample_after_a_block_that_does_not_accept(capsys):
    # at the default tolerance the model trained on 2 points per basis
    # column accepts on its first block. At that block's MSE it does not,
    # so the run trains again on 20 points per basis column; at one point
    # a variable the block is the whole sample, and the model's MSE on it
    # is read from that run. At the largest of the three MSEs neither
    # model accepts on the block, so the block's stream goes on to draw
    # the rest of the 200 points a variable
    _, out, _ = run_cli(_README_FIT, capsys)
    first_mse = json.loads(out)["model"]["val_mse"]
    mses = [first_mse]
    for spv in ("200", "1"):
        _, out, _ = run_cli([*_README_FIT, "--tol-target", repr(first_mse),
                             "--samples-per-var", spv], capsys)
        mses.append(json.loads(out)["model"]["val_mse"])
    tol = max(mses)
    assert 1e-3 * tol < min(first_mse, mses[2])
    full, small = _fit_at_two_sample_sizes(capsys, "--tol-target", repr(tol))
    assert small["model"]["val_mse"] == mses[2]
    assert full["model"]["val_mse"] == mses[1]
    n_train = 20 * (len(full["model"]["terms"]) + 1)
    assert full["oracle_evals"] - small["oracle_evals"] == 200 * 2 - n_train
    assert full["model"]["val_mse"] != small["model"]["val_mse"]


def test_fit_samples_per_var_below_one_exit_1(capsys):
    code, out, err = run_cli(
        ["fit", "--target", "x1*x2", "--dims", "2", "--samples-per-var", "0"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: --samples-per-var must be at least 1")


def test_fit_sample_that_stays_invalid_exit_3(capsys, monkeypatch):
    real_sample = Oracle.sample

    def invalid_sample(self, count, rng):
        # the training sample's every redraw lands on invalid values
        nan_oracle = copy.copy(self)
        nan_oracle.eval_batch = lambda points: np.full(len(points), np.nan)
        return real_sample(nan_oracle, count, rng)

    monkeypatch.setattr(Oracle, "sample", invalid_sample)
    code, out, err = run_cli(
        ["fit", "--target", "x1*x2", "--dims", "2", "--seed", "1"], capsys
    )
    assert code == 3
    assert out == ""
    assert err.startswith("fit failed: could not draw a fully valid sample")


def test_random_targets_end_in_a_documented_exit_code(capsys):
    # every input ends in a model or a typed failure, never a traceback
    rng = np.random.default_rng(0)
    codes = []
    for k in range(48):
        arity = int(rng.integers(1, 4))
        text = random_tree(rng, arity).to_text()
        command = "fit" if k % 8 == 0 else "detect"
        code, _, _ = run_cli(
            [command, f"--target={text}", f"--dims={arity}", "--seed=1"], capsys
        )
        assert code in (0, 2, 3), (command, text)
        codes.append(code)
    assert 0 in codes


@pytest.mark.parametrize("box", range(4))
def test_random_targets_on_every_box_end_in_a_documented_exit_code(capsys, box):
    # detect and fit over the fuzz boxes: a model or a typed failure,
    # never a traceback
    lo, hi = [(-3, 3), (0.5, 3), (-1, 1), (1, 5)][box]
    rng = np.random.default_rng(box)
    codes = []
    for _ in range(24):
        arity = int(rng.integers(1, 5))
        text = random_tree(rng, arity).to_text()
        for command in ("detect", "fit"):
            code, _, _ = run_cli(
                [command, f"--target={text}", f"--dims={arity}", f"--lo={lo}",
                 f"--hi={hi}", "--seed=1"], capsys,
            )
            assert code in (0, 2, 3), (command, text, lo, hi)
            codes.append(code)
    assert 0 in codes


def test_every_tenth_fuzz_target_keeps_its_exit_code(capsys):
    # every tenth row of the fuzz exit table: 20 fit, 7 end in a failed
    # detection or sweep (exit 2) and 3 in a factor no skeleton fits or a
    # missed validation (exit 3), so the failure paths and LDSE run;
    # tests/fuzz_exits.py checks all 300
    drawn = draw()
    rows = [row for row in read_table() if row[0] % 10 == 0]
    assert len(rows) == 30
    for i, arity, text, expected in rows:
        assert drawn[i] == (arity, text), i
        code, _, _ = run_cli(fit_args(i, arity, text), capsys)
        assert code == expected, (i, text)


def test_a_partition_grid_on_invalid_points_ends_detection_with_its_reason(
    capsys, monkeypatch
):
    # fuzz target #140: every attempt ends in its partition grid, whose
    # points the pair's grids share one oracle call with; the error and the
    # evaluations are those of probing grid by grid
    rows = []
    inner = Oracle.eval_batch

    def spy(self, points):
        rows.append(len(points))
        return inner(self, points)

    monkeypatch.setattr(Oracle, "eval_batch", spy)
    code, _, err = run_cli(["detect", "--target", "ln(x1)/x2", "--dims", "2",
                            "--seed", "1"], capsys)
    assert code == 2
    assert err.strip() == "detection failed: factor probe grid hit invalid points"
    assert sum(rows) == 332


@pytest.mark.parametrize("target, dims", [("x1*x2", "3"), ("x1", "2")])
def test_a_variable_the_target_ignores_is_listed_and_gets_no_factor(capsys, target, dims):
    code, out, _ = run_cli(["fit", "--target", target, "--dims", dims, "--seed", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    structure, model = payload["structure"], payload["model"]
    assert structure["ignored"] == [int(dims)]
    assert [b["vars"] for b in structure["blocks"]] == [list(range(1, int(dims)))]
    assert model["val_mse"] <= 1e-6 and model["rank_deficient"] is False
    assert model["terms"] and all(f"x{dims}" not in t["expr"] for t in model["terms"])


@pytest.mark.parametrize("target", ["x3*sin(x1)-2*x3*cos(x2)", "x3*x1+cos(x3)*x2"])
@pytest.mark.parametrize("seed", range(10))
def test_a_variable_the_target_ignores_beside_a_repeated_one_fits(capsys, target, seed):
    # an ignored variable used to get a block, whose spread pair is flat,
    # so every attempt with a repeated variable failed its membership test
    code, out, err = run_cli(["fit", "--target", target, "--dims", "4", "--seed", str(seed)],
                             capsys)
    assert code == 0, err
    structure = json.loads(out)["structure"]
    assert structure["repeated"] == [3] and structure["ignored"] == [4]
    assert [(b["vars"], b["repeated"]) for b in structure["blocks"]] == [([1], [3]), ([2], [3])]


def test_bench_single_case(tmp_path, capsys):
    out_path = tmp_path / "suite.json"
    code, out, _ = run_cli(
        ["bench", "--cases", "4", "--repeats", "1", "--seed", "1",
         "--detect-only", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert "case" in out
    payload = json.loads(out_path.read_text())
    assert payload["config"]["cases"] == [4]
    assert payload["cases"][0]["structure_match_rate"] == 1.0


def test_bench_rejects_unknown_case(capsys):
    code, _, err = run_cli(["bench", "--cases", "99"], capsys)
    assert code == 1


@pytest.mark.parametrize("flags", [
    ["--cases", "3-1"],
    ["--cases", "2,5-4"],
    ["--cases", "4", "--repeats", "0"],
    ["--cases", "4", "--repeats", "-2"],
])
def test_bench_rejects_empty_runs(flags, capsys):
    # an empty case range used to run all ten cases, and a repeat count
    # below 1 printed an empty table and exited 0
    code, out, err = run_cli(["bench", *flags, "--detect-only"], capsys)
    assert code == 1
    assert err.startswith("error: ") and out == ""


def test_bench_output_is_strict_json(tmp_path, capsys):
    # a detect-only run has no model, so its MSEs are infinite: null, not
    # the Infinity that strict parsers reject
    out_path = tmp_path / "suite.json"
    code, _, _ = run_cli(["bench", "--cases", "4", "--repeats", "1", "--seed", "1",
                          "--detect-only", "--out", str(out_path)], capsys)
    assert code == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    case = json.loads(out_path.read_text(), parse_constant=refuse)["cases"][0]
    assert case["mse_max"] is None
    assert case["runs"][0]["val_mse"] is None and case["runs"][0]["train_mse"] is None


def test_bench_reads_case_ranges(tmp_path, capsys):
    out_path = tmp_path / "suite.json"
    code, _, _ = run_cli(["bench", "--cases", "1-3,9", "--repeats", "1", "--detect-only",
                          "--out", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["config"]["cases"] == [c["no"] for c in payload["cases"]] == [1, 2, 3, 9]


@pytest.mark.parametrize("command", ["detect", "fit", "bench"])
def test_a_negative_seed_exits_1(capsys, command):
    args = ["--cases", "4", "--repeats", "1"] if command == "bench" else [
        "--target", "x1+x2", "--dims", "2"]
    code, out, err = run_cli([command, *args, "--seed", "-1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: --seed must be at least 0")


@pytest.mark.parametrize("command", ["detect", "fit"])
@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_a_kmax_below_one_exits_1(capsys, command, kmax):
    # a cut size below 1 would turn peeling off and miss x3's repetition
    code, out, err = run_cli([command, "--target", "x3*sin(x1)-2*x3*cos(x2)",
                              "--dims", "3", "--seed", "1", f"--kmax={kmax}"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: --kmax must be at least 1")


@pytest.mark.parametrize("command", ["detect", "fit"])
@pytest.mark.parametrize("flag, value", [
    ("--tol-detect", "-1e-8"), ("--tol-detect", "nan"),
    ("--tol-target", "-1"), ("--tol-target", "inf"),
])
def test_a_negative_or_non_finite_tolerance_exits_1(capsys, command, flag, value):
    code, out, err = run_cli([command, "--target", "x1+x2", "--dims", "2",
                              f"{flag}={value}"], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {flag} must be finite and at least 0")


@pytest.mark.parametrize("args, message", [
    (["fit", "--dims", "2"], "--target"),
    (["detect", "--target", "x1", "--dims", "0"], "error: --dims must be at least 1"),
])
def test_usage_errors_exit_1(capsys, args, message):
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("kw", [{"cases": []}, {"cases": [4], "repeats": 0}])
def test_run_suite_rejects_empty_runs(kw):
    with pytest.raises(ValueError):
        bench.run_suite(detect_only=True, **{"repeats": 1, **kw})


def test_bench_deterministic_output(tmp_path, capsys):
    def strip(d):
        for c in d["cases"]:
            c.pop("median_wall_ms", None)
            for r in c["runs"]:
                r.pop("wall_seconds", None)
                r.pop("detect_seconds", None)
        return d

    outputs = []
    for k in range(2):
        p = tmp_path / f"s{k}.json"
        code, _, _ = run_cli(
            ["bench", "--cases", "4", "--repeats", "1", "--seed", "1",
             "--detect-only", "--out", str(p)],
            capsys,
        )
        assert code == 0
        outputs.append(json.dumps(strip(json.loads(p.read_text()))))
    assert outputs[0] == outputs[1]


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gsfit.cli", "detect", "--target", "x1+x2",
         "--dims", "2", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload["structure"]["blocks"]) == 2


@pytest.mark.parametrize("command", ["detect", "fit"])
def test_reader_that_closes_the_pipe_ends_the_output_quietly(command):
    # `gsfit fit ... | head -1`: the reader is gone before the JSON is written
    proc = subprocess.Popen(
        [sys.executable, "-m", "gsfit.cli", command, "--target", "x1*x2",
         "--dims", "2", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == ""
