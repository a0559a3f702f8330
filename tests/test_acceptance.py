"""Acceptance gate: every criterion at its stated tolerance.

The full 20-repeat benchmark suite runs once (shared fixture); the
criteria assert on it and print one summary line each. Run with
`pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import numpy as np
import pytest

from gsfit import expr as ex
from gsfit.bench import CASES, STREAM_DEMO, run_case, run_suite, suite_seeds
from gsfit.config import RunConfig
from gsfit.detect import detect_structure
from gsfit.fit import ldse_minimize
from gsfit.oracle import DomainBox, make_oracle

from helpers import pair_score, random_tree, value_at

BASE_SEED = 0
REPEATS = 20


@pytest.fixture(scope="module")
def suite():
    return run_suite(repeats=REPEATS, base_seed=BASE_SEED, parallel=True)


def _line(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1: structure recovery ----------------------------------------


def test_criterion_1_structure_recovery(suite):
    worst = []
    for no in sorted(CASES):
        runs = suite.for_case(no)
        assert len(runs) == REPEATS
        matches = sum(
            r.match_repeated and r.match_blocks and r.match_factors for r in runs
        )
        worst.append((no, matches))
    ok = all(m >= 19 for _, m in worst)
    detect_max = max(r.detect_seconds for r in suite.reports if r.error is None)
    _line(1, ok and detect_max < 5.0,
          f"structure match per case {worst}, max detect {detect_max:.2f}s")
    assert ok, f"structure recovery below 19/20: {worst}"
    assert detect_max < 5.0


# -- criterion 2: fit quality -------------------------------------------------


def test_criterion_2_fit_quality(suite):
    counts = []
    for no in sorted(CASES):
        runs = suite.for_case(no)
        good = sum(r.success and r.val_mse <= 1e-6 for r in runs)
        counts.append((no, good))
    ok = all(g >= 18 for _, g in counts)
    _line(2, ok, f"validation MSE <= 1e-6 per case {counts}")
    assert ok, f"fit success below 18/20: {counts}"


# -- criterion 3: wall-time ceiling -------------------------------------------


def test_criterion_3_wall_time_ceiling(suite):
    worst = max(r.wall_seconds for r in suite.reports)
    ok = worst <= 120.0
    _line(3, ok, f"slowest full case run {worst:.1f}s (ceiling 120s)")
    assert ok


# -- criterion 4: stream-function demo ----------------------------------------


def test_criterion_4_stream_function_demo():
    hits = fits = 0
    for seed in suite_seeds(BASE_SEED, 11, REPEATS):
        r = run_case(STREAM_DEMO.no, seed)
        hits += r.detected_repeated == (3, 4) and r.detected_blocks == 2
        fits += r.success and r.val_mse <= 1e-6
    ok = hits == REPEATS and fits >= 18
    _line(4, ok, f"stream demo repeated {{R,r}} + 2 blocks {hits}/20, "
                 f"validation MSE <= 1e-6 {fits}/20")
    assert hits == REPEATS
    assert fits >= 18, f"stream demo fit below 18/20: {fits}"


# -- criterion 5: property suites ----------------------------------------------


def _structure_signature(s):
    return (
        s.repeated,
        tuple((b.vars, b.repeated, b.psi_factors, b.omega_factors) for b in s.blocks),
    )


def test_criterion_5a_affine_invariance_of_detection():
    bad = []
    for no in sorted(CASES):
        spec = CASES[no]
        base = spec.target
        scaled = ex.add(ex.mul(ex.const(-2.5), base), ex.const(7.0))
        s1 = detect_structure(make_oracle(base, spec.box), RunConfig(seed=11))
        s2 = detect_structure(make_oracle(scaled, spec.box), RunConfig(seed=11))
        if _structure_signature(s1) != _structure_signature(s2):
            bad.append(no)
    _line(5, not bad, f"affine invariance (-2.5*f+7) on all 10 targets, bad={bad}")
    assert not bad


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


def _separable_instance(rng, n):
    """Random sum of additively inseparable sub-functions over a partition."""
    order = list(rng.permutation(np.arange(1, n + 1)))
    parts = []
    while order:
        size = int(rng.integers(1, min(3, len(order)) + 1))
        parts.append(sorted(order[:size]))
        order = order[size:]

    def coef():
        return float(rng.uniform(0.5, 2.5) * rng.choice([-1.0, 1.0]))

    terms = []
    for part in parts:
        g = ["sin", "cos", "exp"][int(rng.integers(0, 3))]
        if len(part) == 1:
            inner = ex.add(ex.mul(ex.const(coef()), ex.var(part[0])), ex.const(coef()))
            terms.append(ex.mul(ex.const(coef()), ex.unary(g, inner)))
        elif len(part) == 2 and rng.random() < 0.4:
            prod = ex.mul(ex.var(part[0]), ex.var(part[1]))
            terms.append(ex.mul(ex.const(coef()), ex.unary("sin", prod)))
        else:
            inner = ex.const(coef())
            for v in part:
                inner = ex.add(inner, ex.mul(ex.const(coef()), ex.var(v)))
            terms.append(ex.mul(ex.const(coef()), ex.unary(g, inner)))
    f = terms[0]
    for t in terms[1:]:
        f = ex.add(f, t)
    return f, sorted(tuple(p) for p in parts)


def _finest_additive_partition(oracle, rng):
    """Exhaustive partition search with direct slicing checks."""
    n = oracle.arity
    anchor = (oracle.box.lo_array() + oracle.box.hi_array()) / 2 + rng.uniform(-0.3, 0.3, n)
    f_anchor = value_at(oracle, anchor)
    pts = oracle.box.uniform(64, rng)
    f_all = oracle.eval_batch(pts)
    scale = max(1.0, float(np.max(np.abs(f_all))))
    valid = []
    for partition in _set_partitions(list(range(1, n + 1))):
        recon = np.full(len(pts), -(len(partition) - 1) * f_anchor)
        for part in partition:
            sliced = np.tile(anchor, (len(pts), 1))
            for v in part:
                sliced[:, v - 1] = pts[:, v - 1]
            recon += oracle.eval_batch(sliced)
        if np.max(np.abs(f_all - recon)) <= 1e-9 * scale:
            valid.append(sorted(tuple(sorted(p)) for p in partition))
    return max(valid, key=len)


def test_criterion_5b_brute_force_partition_agreement():
    rng = np.random.default_rng(77)
    agree = 0
    for k in range(25):
        n = int(rng.integers(2, 5))
        f, true_parts = _separable_instance(rng, n)
        oracle = make_oracle(f, DomainBox.cube(-3, 3, n))
        s = detect_structure(oracle, RunConfig(seed=1000 + k))
        detected = sorted(b.vars for b in s.blocks)
        brute = _finest_additive_partition(oracle, np.random.default_rng(500 + k))
        assert s.repeated == ()
        if detected == [tuple(p) for p in brute]:
            agree += 1
    _line(5, agree == 25, f"brute-force partition agreement {agree}/25")
    assert agree == 25


def test_criterion_5c_mixed_diff_zero_on_separable_pairs():
    rng = np.random.default_rng(88)
    worst = 0.0
    for k in range(50):
        g1, g2 = rng.choice(["sin", "cos", "exp"], size=2)
        f = ex.add(
            ex.mul(ex.const(float(rng.uniform(0.5, 3))),
                   ex.unary(g1, ex.mul(ex.const(float(rng.uniform(-2, 2))), ex.var(1)))),
            ex.mul(ex.const(float(rng.uniform(0.5, 3))),
                   ex.unary(g2, ex.mul(ex.const(float(rng.uniform(-2, 2))), ex.var(2)))),
        )
        o = make_oracle(f, DomainBox.cube(-3, 3, 2))
        anchor = (o.box.lo_array() + o.box.hi_array()) / 2 + rng.uniform(-1, 1, 2)
        worst = max(worst, pair_score(o, 1, 2, anchor, probes=8, seed=200 + k))
    ok = worst <= 1e-12
    _line(5, ok, f"mixed second difference on 50 separable pairs, worst {worst:.2e}")
    assert ok


def test_criterion_5d_least_squares_residual_orthogonality():
    from gsfit.assemble import least_squares, BasisTerm
    from gsfit.oracle import SampleSet

    rng = np.random.default_rng(99)
    x = rng.uniform(-3, 3, size=(300, 2))
    y = 0.7 - 1.3 * np.sin(x[:, 0]) + 2.2 * x[:, 1] ** 2 + 0.4 * np.exp(x[:, 0])
    terms = [
        BasisTerm(0, (0,), ex.parse("sin(x1)", 2)),
        BasisTerm(0, (1,), ex.parse("x2^2", 2)),
        BasisTerm(0, (2,), ex.parse("x1*x2", 2)),
    ]
    c0, c, _, _ = least_squares(terms, SampleSet(points=x, values=y))
    resid = y - c0 - sum(ci * t.evaluate(x) for ci, t in zip(c, terms))
    rel = max(
        abs(float(resid @ t.evaluate(x)))
        / (np.linalg.norm(resid) * np.linalg.norm(t.evaluate(x)))
        for t in terms
    )
    ok = rel <= 1e-9
    _line(5, ok, f"least-squares residual orthogonality {rel:.2e}")
    assert ok


def test_criterion_5e_sphere_optimizer():
    hits = 0
    for seed in range(20):
        _, v = ldse_minimize(
            lambda Z: np.einsum("pd,pd->p", Z, Z), [(-50, 50)] * 5,
            rng=np.random.default_rng(seed), target_tol=1e-9,
        )
        hits += v <= 1e-8
    _line(5, hits == 20, f"sphere d=5 reaches 1e-8 in {hits}/20 seeds")
    assert hits == 20


def test_criterion_5f_parse_print_round_trip():
    rng = np.random.default_rng(20260810)
    bad = 0
    for _ in range(1000):
        t = random_tree(rng, arity=3)
        back = ex.parse(t.to_text(), 3)
        pts = rng.uniform(-3, 3, size=(16, 3))
        a, b = t.eval_batch(pts), back.eval_batch(pts)
        same = (np.isnan(a) & np.isnan(b)) | np.isclose(a, b, rtol=1e-12, atol=1e-300)
        bad += not np.all(same)
    _line(5, bad == 0, f"parse/print round trip on 1000 trees, {bad} mismatches")
    assert bad == 0


# -- criterion 6: determinism ---------------------------------------------------


def test_criterion_6_bit_identical_reruns():
    pairs = [(4, 321), (2, 77)]
    ok = True
    for no, seed in pairs:
        a = run_case(no, seed).canonical_json()
        b = run_case(no, seed).canonical_json()
        ok = ok and a == b
    _line(6, ok, f"bit-identical report JSON for {pairs}")
    assert ok
