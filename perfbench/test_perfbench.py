"""Smoke test of the benchmark's own code.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import json

import pytest

import run

run.prepare()

import harness  # noqa: E402  (needs the path set by run.prepare)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Detection only, case 1, one seed: the cheapest job that still passes
# through the oracle, expr and detect layers.
SMOKE = harness.Workload("smoke", (1,), 1, True)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, key):
    detail, result = run.measure(SMOKE, seed=0, seconds=0, trace=trace)
    assert result["correct"], detail["problems"]
    assert result["attempted"] == (2 if trace else 1)
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and v["value"] == v["value"]
    if trace:
        m = result["metrics"]
        stages = sum(m[f"oracle.evals.{s}"]["value"] for s in ("detect", "sweep", "sample"))
        assert stages == m["oracle.evals"]["value"] == m["bench.case1.evals"]["value"]
        assert m["fit.factor.calls"]["value"] == 0


def test_report_checks_catch_wrong_flags():
    (p,), _ = harness.run_passes(SMOKE.jobs(0), detect_only=True, seconds=0)
    report = p.reports[0]
    assert harness.check_report(report, detect_only=True) == []
    report.match_blocks = not report.match_blocks
    assert harness.check_report(report, detect_only=True)


def test_missing_sources_exit_without_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-dir")
    code = run.main(["--workload", "detect-sweep", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
