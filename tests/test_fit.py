import itertools
import math
import warnings

import numpy as np
import pytest

from gsfit.detect import FactorData
from gsfit.expr import parse_template
from gsfit.fit import (
    OptimizerConfig,
    Skeleton,
    _lstsq_cols,
    _make_objective,
    fit_factor,
    ldse_minimize,
    skeleton_stream,
)

DEFAULT_STREAMS = {
    1: ["const", "affine", "square", "square_offset", "inverse",
        "inverse_square", "cubic", "quadratic", "exp_scaled", "sin_affine",
        "cos_affine", "ln_affine", "sqrt_affine", "recip_affine", "vexp",
        "vsin"],
    2: ["bilinear", "affine2", "bilinear_full", "ratio", "sin_affine2",
        "cos_affine2", "exp_affine2", "sin_prod", "cos_prod", "ln_affine2",
        "ln_ratio_pos", "ln_ratio_neg", "prod_sin", "prod_exp"],
    3: ["affine3", "trilinear", "ratio2", "ratio2_const"],
}


def make_data(fn, lo=-3.0, hi=3.0, n=60, vars_=(1,), seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, len(vars_)))
    vals = fn(pts)
    return FactorData(vars=vars_, points=pts, values=vals, role="psi",
                      block_vars=vars_)


def test_stream_first_three_univariate():
    names = [s.name for s in skeleton_stream(1)]
    assert names[:3] == ["const", "affine", "square"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stream_default_names_and_order(k):
    assert [s.name for s in skeleton_stream(k)] == DEFAULT_STREAMS[k]


def test_stream_widest_cap_adds_only_affine3_families():
    extra = [s.name for s in skeleton_stream(3, max_nodes=14)][4:]
    assert extra == ["sin_affine3", "cos_affine3", "exp_affine3"]
    for k in (1, 2):
        assert [s.name for s in skeleton_stream(k, max_nodes=14)] == DEFAULT_STREAMS[k]


def _valid_design(sk, k, rng):
    """Local points, parameters and design matrix at which every column of
    sk is valid (some templates need negative or positive arguments)."""
    nl = rng.uniform(0.2, 1.0, sk.nl_count)
    for signs in itertools.product((1.0, -1.0), repeat=k):
        V = rng.uniform(0.5, 3.0, size=(40, k)) * np.asarray(signs)
        B = sk.design(V, nl)
        if B is not None:
            return V, nl, B
    raise AssertionError(f"{sk.name}: no valid sign pattern")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bound_model_is_the_scored_sum_of_columns(k):
    # the expression a fit emits must be exactly sum_j lin_j * column_j,
    # the model the objective and the least-squares solve scored
    rng = np.random.default_rng(7 + k)
    var_map = (4, 2, 6)[:k]
    for sk in skeleton_stream(k, max_nodes=14):
        assert sk.var_count <= k
        V, nl, B = _valid_design(sk, k, rng)
        lin = rng.uniform(-2.0, 2.0, sk.lin_count)
        expected = lin[0] * B[:, 0]
        for j in range(1, sk.lin_count):
            expected = expected + lin[j] * B[:, j]
        full = np.zeros((len(V), max(var_map)))
        full[:, [v - 1 for v in var_map]] = V
        got = sk.model(nl, lin, var_map).eval_batch(full)
        assert np.array_equal(got, expected), sk.name


def test_fit_exp_heavy_data_raises_no_runtime_warning():
    # wide ranges push exp(w*x) to overflow during the hint scan and search
    wide = make_data(lambda p: p[:, 0] * np.exp(0.1 * p[:, 0]), lo=1.0, hi=60.0)
    pair = make_data(lambda p: p[:, 0] * np.exp(0.3 * p[:, 1]), lo=-20.0, hi=20.0,
                     vars_=(1, 2))
    # numpy's own error state is set explicitly, so that a state left by
    # an earlier caller cannot hide the warnings from this test
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        for d in (wide, pair):
            m = fit_factor(d, OptimizerConfig(seed=0))
            assert m.converged


def test_stream_contains_required_bivariate_forms():
    names = {s.name for s in skeleton_stream(2)}
    assert "sin_affine2" in names  # sin(a*u + b*w + c) family
    assert "sin_prod" in names     # sin(a*u*w) family
    assert "affine2" in names


def test_stream_trivariate_has_ratio_form():
    names = {s.name for s in skeleton_stream(3)}
    assert "ratio2" in names       # (a*v1 + b*v2) / v3


def test_stream_rejects_out_of_range_var_count():
    with pytest.raises(ValueError):
        skeleton_stream(4)
    with pytest.raises(ValueError):
        skeleton_stream(1, max_nodes=2)


def test_stream_max_nodes_filters():
    full = skeleton_stream(2, max_nodes=12)
    small = skeleton_stream(2, max_nodes=4)
    assert len(small) < len(full)
    assert all(s.complexity <= 4 for s in small)


def test_stream_deterministic():
    a = [s.name for s in skeleton_stream(2)]
    b = [s.name for s in skeleton_stream(2)]
    assert a == b


def test_population_size_formula():
    cfg = OptimizerConfig()
    assert cfg.resolved(4)[0] == 50
    assert cfg.resolved(1)[0] == 20


def test_ldse_sphere_three_dims():
    x, v = ldse_minimize(lambda X: np.einsum("pd,pd->p", X, X), [(-50, 50)] * 3,
                         OptimizerConfig(seed=0, target_tol=1e-9))
    assert v <= 1e-8
    assert np.all(np.abs(x) < 1e-3)


def test_ldse_rosenbrock():
    def rosen(X):
        return 100 * (X[:, 1] - X[:, 0] ** 2) ** 2 + (1 - X[:, 0]) ** 2

    x, v = ldse_minimize(rosen, [(-50, 50)] * 2,
                         OptimizerConfig(seed=3, target_tol=1e-9))
    assert v <= 1e-4
    assert np.allclose(x, [1, 1], atol=0.05)


def test_ldse_stays_in_bounds_and_reports_min_seen():
    seen = []
    calls = 0

    def obj(X):
        nonlocal calls
        calls += 1
        assert X.ndim == 2 and X.shape[1] == 2
        assert np.all(X >= -5) and np.all(X <= 5)
        v = np.sum((X - 2.0) ** 2, axis=1)
        seen.extend(v.tolist())
        return v

    x, v = ldse_minimize(obj, [(-5, 5)] * 2, OptimizerConfig(seed=4, target_tol=0.0,
                                                             max_generations=60))
    assert np.all(x >= -5) and np.all(x <= 5)
    assert v == min(seen)  # the reported best is the best value ever evaluated
    assert calls <= 1 + 2 * 60  # one batched call per move


def test_ldse_deterministic():
    def obj(X):
        return np.sum(np.abs(X), axis=1) + np.sin(X[:, 0])

    a = ldse_minimize(obj, [(-10, 10)] * 2, OptimizerConfig(seed=11))
    b = ldse_minimize(obj, [(-10, 10)] * 2, OptimizerConfig(seed=11))
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_ldse_rejects_bad_bounds():
    with pytest.raises(ValueError):
        ldse_minimize(lambda X: np.zeros(len(X)), [(1.0, 1.0)], OptimizerConfig())


def _reference_mse(sk, V, y, nl):
    """One row of the profile objective, by the generic design-matrix solve."""
    B = sk.design(V, nl)
    return math.inf if B is None else _lstsq_cols(B, y)[1]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_objective_matches_per_row_reference(k):
    rng = np.random.default_rng(30 + k)
    V = rng.uniform(0.5, 3.0, size=(48, k)) * rng.choice([-1.0, 1.0], size=k)
    y = rng.normal(size=48)
    skeletons = [s for s in skeleton_stream(k, max_nodes=14) if s.nl_count]
    if k == 1:  # the solve without an offset column
        skeletons.append(Skeleton("sin_bare", (parse_template("sin(p0*x1)", 1),)))
    for sk in skeletons:
        X = rng.uniform(-2.0, 2.0, size=(50, sk.nl_count))
        got = _make_objective(sk, V, y)(X)
        want = np.array([_reference_mse(sk, V, y, row) for row in X])
        assert got.shape == (50,)
        assert np.array_equal(np.isinf(got), np.isinf(want)), sk.name
        assert np.isfinite(want).any(), sk.name
        assert np.allclose(got[np.isfinite(got)], want[np.isfinite(want)]), sk.name


def test_batched_objective_scores_rows_outside_the_domain_inf():
    V = np.linspace(-1.0, 2.0, 13)[:, None]   # contains x1 = 1 exactly
    y = np.cos(V[:, 0])
    by_name = {s.name: s for s in skeleton_stream(1)}
    # inner argument p0*x1 + p1: negative at some points, positive at all
    rows = np.array([[1.0, 0.5], [1.0, 2.0]])
    for name in ("ln_affine", "sqrt_affine"):
        got = _make_objective(by_name[name], V, y)(rows)
        assert got[0] == math.inf and np.isfinite(got[1]), name
    # 1/(p0*x1 + p1) divides by zero at x1 = 1 for (1, -1)
    got = _make_objective(by_name["recip_affine"], V, y)(np.array([[1.0, -1.0],
                                                                   [1.0, 2.0]]))
    assert got[0] == math.inf and np.isfinite(got[1])


def test_fit_constant_data():
    d = make_data(lambda p: np.full(len(p), 4.25))
    m = fit_factor(d, OptimizerConfig(seed=0))
    assert m.skeleton_name == "const"
    assert m.converged and m.train_mse <= 1e-12


def test_fit_exp_minus_anchor_shape():
    # psi-sliced exponential: e^x - e^a, an affine image of e^x
    d = make_data(lambda p: np.exp(p[:, 0]) - np.exp(0.7))
    m = fit_factor(d, OptimizerConfig(seed=0))
    assert m.converged and m.train_mse <= 1e-6
    assert m.skeleton_name == "exp_scaled"


def test_fit_sin_two_x():
    d = make_data(lambda p: np.sin(2 * p[:, 0]))
    m = fit_factor(d, OptimizerConfig(seed=0))
    assert m.converged and m.train_mse <= 1e-6
    assert m.skeleton_name in ("sin_affine", "cos_affine")


def test_fit_inverse_square():
    d = make_data(lambda p: 1.0 / p[:, 0] ** 2, lo=0.5, hi=3.0)
    m = fit_factor(d, OptimizerConfig(seed=0))
    assert m.converged
    assert m.skeleton_name == "inverse_square"


def test_fit_log_with_inner_affine():
    d = make_data(lambda p: np.log(3 * p[:, 0] + 1.2), lo=1.0, hi=3.0)
    m = fit_factor(d, OptimizerConfig(seed=0))
    assert m.converged and m.train_mse <= 1e-6


def test_fit_two_var_sin_affine():
    d = make_data(lambda p: np.sin(3 * p[:, 0] - p[:, 1]), vars_=(2, 3), n=96)
    m = fit_factor(d, OptimizerConfig(seed=0))
    assert m.converged and m.train_mse <= 1e-6


def test_fit_two_var_sin_product():
    d = make_data(lambda p: np.sin(p[:, 0] * p[:, 1]), vars_=(5, 6), n=96)
    m = fit_factor(d, OptimizerConfig(seed=0))
    assert m.converged and m.train_mse <= 1e-6


def test_fit_is_deterministic_bitwise():
    d = make_data(lambda p: np.sin(2 * p[:, 0]) * 3 + 1)
    a = fit_factor(d, OptimizerConfig(seed=5))
    b = fit_factor(d, OptimizerConfig(seed=5))
    assert np.array_equal(a.theta, b.theta)
    assert a.skeleton_name == b.skeleton_name


def test_fit_records_consistent_mse():
    d = make_data(lambda p: np.cos(p[:, 0]) * 2 - 0.5)
    m = fit_factor(d, OptimizerConfig(seed=1))
    assert m.recompute_mse() == pytest.approx(m.train_mse, abs=1e-12)


def test_fit_model_expr_matches_predictions():
    d = make_data(lambda p: p[:, 0] ** 2 * 2 + 1, vars_=(2,))
    m = fit_factor(d, OptimizerConfig(seed=1))
    # expr is over global variable x2; prediction path must agree with it
    full = np.zeros((len(d.points), 2))
    full[:, 1] = d.points[:, 0]
    assert np.allclose(m.expr.eval_batch(full), m.predict(d.points), atol=0)


@pytest.mark.parametrize("maker,vars_", [
    (lambda rng: (lambda p: rng.uniform(1, 4) * p[:, 0] + rng.uniform(-2, 2)), (1,)),
    (lambda rng: (lambda p, w=rng.uniform(0.5, 4): np.sin(w * p[:, 0] + rng.uniform(-3, 3))), (1,)),
    (lambda rng: (lambda p, w=rng.uniform(-2, 2): np.exp(w * p[:, 0])), (1,)),
])
def test_fit_recovers_stream_generated_data(maker, vars_):
    ok = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        fn = maker(rng)
        d = make_data(fn, n=48, vars_=vars_, seed=seed)
        m = fit_factor(d, OptimizerConfig(seed=seed))
        ok += m.train_mse <= 1e-6
    assert ok >= 18
