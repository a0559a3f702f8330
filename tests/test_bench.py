import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import gsfit.bench as bench
from gsfit import expr as ex
from gsfit.bench import CASES, STREAM_DEMO, WIDE, get_case, run_case, run_suite, suite_seeds

from helpers import INDEPENDENT_TARGETS, STREAM_INDEPENDENT, WIDE_INDEPENDENT, value_at


@pytest.mark.parametrize("no", sorted(CASES))
def test_case_expressions_match_independent_calculators(no):
    # guards against transcription errors in the case table
    spec = CASES[no]
    target = spec.target
    rng = np.random.default_rng(100 + no)
    lo, hi = spec.box.lo_array(), spec.box.hi_array()
    for _ in range(5):
        p = rng.uniform(lo, hi)
        expected = INDEPENDENT_TARGETS[no](p)
        assert value_at(target, p) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("no", sorted(CASES))
def test_case_expressions_at_box_midpoint(no):
    spec = CASES[no]
    mid = (spec.box.lo_array() + spec.box.hi_array()) / 2
    with np.errstate(all="ignore"):
        expected = INDEPENDENT_TARGETS[no](mid)
    got = value_at(spec.target, mid)
    if np.isfinite(expected):
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)
    else:
        # cases 9 and 10 are singular at the origin; both sides must agree
        # that the point is invalid
        assert np.isnan(got)


def test_stream_demo_matches_independent_calculator():
    target = STREAM_DEMO.target
    rng = np.random.default_rng(99)
    lo, hi = STREAM_DEMO.box.lo_array(), STREAM_DEMO.box.hi_array()
    for _ in range(5):
        p = rng.uniform(lo, hi)
        assert value_at(target, p) == pytest.approx(STREAM_INDEPENDENT(p), rel=1e-12)


def test_wide_case_matches_independent_calculator():
    target = WIDE.target
    rng = np.random.default_rng(98)
    lo, hi = WIDE.box.lo_array(), WIDE.box.hi_array()
    for _ in range(5):
        p = rng.uniform(lo, hi)
        assert value_at(target, p) == pytest.approx(WIDE_INDEPENDENT(p), rel=1e-12)


def test_the_wide_case_runs_by_number_outside_the_table():
    assert get_case(12) is WIDE and 12 not in CASES
    assert WIDE.dim == 65 and WIDE.box.lo == (0.5,) * 65 and WIDE.box.hi == (2.0,) * 65


@pytest.mark.parametrize("seed", range(10))
def test_the_wide_case_detects_its_structure(seed):
    r = run_case(12, seed=seed, detect_only=True)
    assert r.error is None
    assert r.detected_repeated == (65,)
    assert (r.detected_blocks, r.detected_factors) == (32, 96)
    assert r.structure_matched


def test_a_case_parses_its_target_once_at_construction(monkeypatch):
    # a copy of case 3 parses when it is built, and every oracle after
    # shares that one tree
    calls = []

    def parse(text, dim):
        calls.append((text, dim))
        return ex.parse(text, dim)

    monkeypatch.setattr(bench, "parse", parse)
    spec = dataclasses.replace(CASES[3])
    assert calls == [(spec.text, spec.dim)]
    first, second = spec.oracle(), spec.oracle()
    assert first.target is second.target is spec.target
    assert calls == [(spec.text, spec.dim)]


def test_case_table_expected_columns():
    assert CASES[6].box.lo == (1.0,) * 5 and CASES[6].box.hi == (3.0,) * 5
    assert CASES[6].expected_repeated == (5,)
    assert (CASES[6].expected_blocks, CASES[6].expected_factors) == (4, 6)
    assert CASES[7].expected_repeated == (4, 5)
    assert CASES[9].expected_repeated == ()
    assert get_case(11) is STREAM_DEMO


def test_run_case_detect_only_case2():
    r = run_case(2, seed=1, detect_only=True)
    assert r.error is None
    assert r.detected_repeated == ()
    assert r.detected_blocks == 2 and r.detected_factors == 2
    assert r.match_repeated and r.match_blocks and r.match_factors
    assert r.oracle_evals > 0 and r.detect_evals > 0


def test_run_case_full_case1():
    r = run_case(1, seed=1)
    assert r.success and r.val_mse <= 1e-6
    assert r.model is not None and r.structure is not None


def test_run_case_captures_errors():
    # case numbers outside the table raise KeyError inside, caught as report error
    r = run_case(42, seed=0)
    assert r.error is not None
    assert not r.success


def test_report_canonical_json_excludes_timing():
    r = run_case(1, seed=2, detect_only=True)
    d = json.loads(r.canonical_json())
    assert "wall_seconds" not in d and "detect_seconds" not in d
    assert d["no"] == 1 and d["seed"] == 2


def test_run_suite_detect_only_deterministic():
    a = run_suite(repeats=1, base_seed=5, cases=[2, 4], detect_only=True)
    b = run_suite(repeats=1, base_seed=5, cases=[2, 4], detect_only=True)
    assert a.canonical_json() == b.canonical_json()


def test_run_suite_parallel_matches_serial():
    a = run_suite(repeats=2, base_seed=3, cases=[1, 4], detect_only=True)
    b = run_suite(repeats=2, base_seed=3, cases=[1, 4], detect_only=True, parallel=True)
    assert a.canonical_json() == b.canonical_json()


@pytest.mark.parametrize("no", [2, STREAM_DEMO.no])
def test_a_run_reports_the_same_after_other_runs_filled_the_fit_tables(no):
    # in a fresh process the fit's tables start empty; here other cases
    # have filled them first
    code = f"import gsfit.bench as b; print(b.run_case({no}, seed=1).canonical_json())"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True).stdout
    assert json.loads(fresh)["error"] is None
    for other in (1, 3, 4):
        run_case(other, seed=1)
    assert run_case(no, seed=1).canonical_json() + "\n" == fresh


def test_suite_seeds_schedule():
    s = suite_seeds(0, 3, 4)
    assert len(set(s)) == 4
    assert suite_seeds(0, 3, 4) == s


def test_suite_table_renders():
    rep = run_suite(repeats=1, base_seed=1, cases=[2], detect_only=True)
    text = rep.table()
    assert "case" in text.splitlines()[0]
    assert len(text.splitlines()) == 2
