import json
import subprocess
import sys

import numpy as np
import pytest

import gsfit.assemble as asm
from gsfit.cli import main


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


def test_detect_failure_exit_2(capsys):
    code, _, err = run_cli(
        ["detect", "--target", "ln(x1-2.5)", "--dims", "1"], capsys
    )
    assert code == 2
    assert "detection failed" in err


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
    code, out, _ = run_cli(
        ["fit", "--target", "sin(2*x1)", "--dims", "1", "--seed", "5",
         "--tol-target", "1e-30"],
        capsys,
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["model"]["success"] is False


def test_main_leaves_numpy_error_state_unchanged(capsys):
    # a known state, not whatever earlier tests left behind
    with np.errstate(all="warn"):
        run_cli(["fit", "--target", "ln(x1)", "--dims", "1", "--lo", "0.5"], capsys)
        run_cli(["detect", "--target", "x1+", "--dims", "1"], capsys)
        assert set(np.geterr().values()) == {"warn"}


def test_fit_detection_settings_reach_the_factor_sweeps(capsys, monkeypatch):
    seen = []
    inner = asm.fit_structure_factors

    def spy(*args, **kwargs):
        seen.append(args[5])
        return inner(*args, **kwargs)

    monkeypatch.setattr(asm, "fit_structure_factors", spy)
    code, _, _ = run_cli(
        ["fit", "--target", "x1*x2", "--dims", "2", "--seed", "2",
         "--tol-detect", "1e-6", "--kmax", "2"],
        capsys,
    )
    assert code == 0
    assert seen and all(c.tol == 1e-6 and c.kmax == 2 for c in seen)
    assert [c.seed for c in seen] == [2 + 101 * k for k in range(len(seen))]


def test_fit_bad_bounds_exit_1(capsys):
    code, _, err = run_cli(
        ["fit", "--target", "x1", "--dims", "1", "--lo", "1,2", "--hi", "3"], capsys
    )
    assert code == 1


def test_fit_max_nodes_below_three_exit_1(capsys):
    code, _, err = run_cli(
        ["fit", "--target", "sin(x1)", "--dims", "1", "--max-nodes", "2"], capsys
    )
    assert code == 1
    assert "error: --max-nodes" in err


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
