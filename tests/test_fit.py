import functools
import itertools
import math
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gsfit.config import RunConfig
from gsfit.detect import FactorData
from gsfit.expr import parse_template
import gsfit.fit as ft
from gsfit.config import rng as config_rng
from gsfit.fit import (
    _lstsq_cols,
    _make_objective,
    _ranked_hints,
    _sk,
    _with_phase,
    Skeleton,
    fit_factor,
    ldse_minimize,
    skeleton_stream,
)

from helpers import reference_polish, reference_subset_rss

# simplest first: node counts 4, 6 x4, 7, 8 and 4, 5, 6 x3, 8 x2, 10 x2
DEFAULT_STREAMS = {
    1: ["exp_scaled", "sin_affine", "ln_affine", "sqrt_affine", "vexp",
        "recip_affine", "vsin"],
    2: ["ln_ratio_pos", "ln_ratio_neg", "sin_prod", "cos_prod", "prod_exp",
        "exp_affine2", "prod_sin", "sin_affine2", "ln_affine2"],
    3: [],
}

# The monomial sums the library reproduces, by the name of the table row
# that once listed each: (variable count, columns besides the offset).
MONOMIAL_ROWS = {
    "const": (1, []),
    "affine": (1, ["x1"]),
    "square": (1, ["x1^2"]),
    "square_offset": (1, ["x1^2"]),
    "inverse": (1, ["1/x1"]),
    "inverse_square": (1, ["1/x1^2"]),
    "cubic": (1, ["x1^3"]),
    "quadratic": (1, ["x1^2", "x1"]),
    "bilinear": (2, ["x1*x2"]),
    "affine2": (2, ["x1", "x2"]),
    "bilinear_full": (2, ["x1*x2", "x1", "x2"]),
    "ratio": (2, ["x1/x2"]),
    "affine3": (3, ["x1", "x2", "x3"]),
    "trilinear": (3, ["x1*x2*x3"]),
    "ratio2": (3, ["x1/x3", "x2/x3"]),
    "ratio2_const": (3, ["x1/x3", "x2/x3", "1/x3"]),
}


def _monomial_rows(k):
    """The k-variable MONOMIAL_ROWS as library skeletons, in table order."""
    return [Skeleton("monomials", tuple(parse_template(t, k) for t in texts) + (ft._OFFSET,))
            for kk, texts in MONOMIAL_ROWS.values() if kk == k]


def make_data(fn, lo=-3.0, hi=3.0, n=60, vars_=(1,), seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, len(vars_)))
    vals = fn(pts)
    return FactorData(vars=vars_, points=pts, values=vals)


def test_stream_first_three_univariate():
    # sums of monomials are the library's, so the table starts with the
    # parametric families
    names = [s.name for s in skeleton_stream(1)]
    assert names[:3] == ["exp_scaled", "sin_affine", "ln_affine"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stream_default_names_and_order(k):
    assert [s.name for s in skeleton_stream(k)] == DEFAULT_STREAMS[k]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_stream_is_tried_simplest_first(k):
    # node counts never fall along the table's rows, and at every cap the
    # stream keeps the table's order, so rows of equal count keep theirs
    table = ft._STREAMS[k]
    nodes = [s.complexity for s in table]
    assert nodes == sorted(nodes)
    for cap in (3, 6, 8, 12, 14):
        assert skeleton_stream(k, max_nodes=cap) == [s for s in table if s.complexity <= cap]


def test_stream_widest_cap_adds_only_affine3_families():
    extra = [s.name for s in skeleton_stream(3, max_nodes=14)]
    assert extra == ["sin_affine3", "exp_affine3"]
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
    for sk in skeleton_stream(k, max_nodes=14) + _monomial_rows(k):
        assert max(c.arity_bound() for c in sk.columns) <= k
        V, nl, B = _valid_design(sk, k, rng)
        lin = rng.uniform(-2.0, 2.0, len(sk.columns))
        expected = lin[0] * B[:, 0]
        for j in range(1, len(sk.columns)):
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
            m = fit_factor(d, RunConfig(seed=0))
            assert m.converged


def test_stream_contains_required_bivariate_forms():
    names = {s.name for s in skeleton_stream(2)}
    assert "sin_affine2" in names  # sin(a*u + b*w + c) family
    assert "sin_prod" in names     # sin(a*u*w) family
    # a*u + b*w is the library's
    data = make_data(lambda p: 2.0 * p[:, 0] - 0.7 * p[:, 1], vars_=(1, 2), n=96)
    with np.errstate(all="ignore"):
        sk, exact = ft._library(*_normalized(data), 12)
    assert exact and [str(c) for c in sk.columns] == ["x1", "x2", "1"]


def test_stream_trivariate_has_ratio_form():
    # (a*v1 + b*v2) / v3 is the library's
    data = make_data(lambda p: (1.5 * p[:, 0] - 0.4 * p[:, 1]) / p[:, 2], lo=1.0,
                     vars_=(1, 2, 3), n=120)
    with np.errstate(all="ignore"):
        sk, exact = ft._library(*_normalized(data), 12)
    assert exact and [str(c) for c in sk.columns] == ["x1/x3", "x2/x3", "1"]


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
    for d, n_pop in ((4, 50), (1, 20)):
        rows = []

        def obj(X):
            rows.append(len(X))
            return np.zeros(len(X))

        ldse_minimize(obj, [(-1.0, 1.0)] * d, rng=np.random.default_rng(0), target_tol=1e-6)
        assert rows[0] == n_pop


def test_ldse_sphere_three_dims():
    x, v = ldse_minimize(lambda X: np.einsum("pd,pd->p", X, X), [(-50, 50)] * 3,
                         rng=np.random.default_rng(0), target_tol=1e-9)
    assert v <= 1e-8
    assert np.all(np.abs(x) < 1e-3)


def test_ldse_rosenbrock():
    def rosen(X):
        return 100 * (X[:, 1] - X[:, 0] ** 2) ** 2 + (1 - X[:, 0]) ** 2

    x, v = ldse_minimize(rosen, [(-50, 50)] * 2, rng=np.random.default_rng(3), target_tol=1e-9)
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

    x, v = ldse_minimize(obj, [(-5, 5)] * 2, rng=np.random.default_rng(4), target_tol=0.0,
                         max_generations=60)
    assert np.all(x >= -5) and np.all(x <= 5)
    assert v == min(seen)  # the reported best is the best value ever evaluated
    assert calls <= 1 + 2 * 60  # one batched call per move


def test_ldse_deterministic():
    def obj(X):
        return np.sum(np.abs(X), axis=1) + np.sin(X[:, 0])

    a = ldse_minimize(obj, [(-10, 10)] * 2, rng=np.random.default_rng(11), target_tol=1e-6)
    b = ldse_minimize(obj, [(-10, 10)] * 2, rng=np.random.default_rng(11), target_tol=1e-6)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_ldse_rejects_bad_bounds():
    with pytest.raises(ValueError):
        ldse_minimize(lambda X: np.zeros(len(X)), [(1.0, 1.0)], rng=np.random.default_rng(0),
                      target_tol=1e-6)


def _on_stream(kw):
    """LDSE keywords with their seed replaced by a fresh stream at it."""
    kw = dict(kw)
    return dict(kw, rng=np.random.default_rng(kw.pop("seed")))


def _reference_ldse_minimize(objective, bounds, *, rng, target_tol, max_generations=None,
                             stagnation_window=None, init_guesses=None, flat=False):
    """Reference for `ldse_minimize` as first written: duplicates found by
    an all-pairs count, the centroid by a boolean mask and .mean, fresh
    arrays for every candidate. With flat=True, as before its relative
    stagnation test: every gain of more than 1e-12 postpones the stop."""
    lo = np.asarray([b[0] for b in bounds], dtype=float)
    hi = np.asarray([b[1] for b in bounds], dtype=float)
    d = len(bounds)
    n_pop = 10 + 10 * d
    max_gens = 500 * d if max_generations is None else max_generations
    stagnation = 50 * d if stagnation_window is None else stagnation_window

    def f(X):
        v = np.asarray(objective(X), dtype=float)
        return np.where(np.isfinite(v), v, math.inf)

    pop = lo + rng.random((n_pop, d)) * (hi - lo)
    if init_guesses:
        for k in range(n_pop // 2):
            g = np.asarray(init_guesses[k % len(init_guesses)], dtype=float)
            if k >= len(init_guesses):
                g = g + rng.normal(0.0, 0.05, d) * (1.0 + np.abs(g))
            pop[k] = np.clip(g, lo, hi)
    vals = f(pop)
    best_i = int(np.argmin(vals))
    best_x, best_val = pop[best_i].copy(), float(vals[best_i])
    m = min(d, 3)
    agents = np.arange(n_pop)
    last_improve = 0
    for gen in range(max_gens):
        if best_val <= target_tol or gen - last_improve > stagnation:
            break
        idx = rng.integers(0, n_pop, size=(n_pop, m + 1))
        while True:
            dup = (idx[:, :, None] == idx[:, None, :]).sum(axis=(1, 2)) > m + 1
            if not dup.any():
                break
            idx[dup] = rng.integers(0, n_pop, size=(int(dup.sum()), m + 1))
        worst = np.argmax(vals[idx], axis=1)
        rest = np.ones(idx.shape, dtype=bool)
        rest[agents, worst] = False
        centroid = pop[idx[rest].reshape(n_pop, m)].mean(axis=1)
        xw = pop[idx[agents, worst]]
        cand = np.clip(2.0 * centroid - xw, lo, hi)
        fc = f(cand)
        retry = ~(fc < vals)
        if retry.any():
            cand[retry] = np.clip(0.5 * (centroid[retry] + xw[retry]), lo, hi)
            fc[retry] = f(cand[retry])
        better = fc < vals
        pop[better] = cand[better]
        vals[better] = fc[better]
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            step = 1e-12 if flat else max(1e-12, 1e-6 * best_val)
            if (best_val == math.inf and not flat) or vals[i] < best_val - step:
                last_improve = gen
            best_val = float(vals[i])
            best_x = pop[i].copy()
    return best_x, best_val


_flat_ldse_minimize = functools.partial(_reference_ldse_minimize, flat=True)


def _recorded(objective):
    """The objective, and the list of the batches it is called with."""
    calls = []

    def obj(X):
        calls.append(X.copy())
        return objective(X)

    return obj, calls


def _sphere(X):
    return np.einsum("pd,pd->p", X, X)


def _rosenbrock(X):
    return 100 * (X[:, 1] - X[:, 0] ** 2) ** 2 + (1 - X[:, 0]) ** 2


def _skeleton_run(fn, noise=0.0):
    """sin_affine's profile objective on 60 points of fn on [-3, 3],
    normalized, with optional Gaussian noise, and `_walk`'s settings for
    an LDSE run on it."""
    data = make_data(fn)
    y = data.values + noise * np.random.default_rng(9).normal(size=len(data.values))
    y = (y - y.mean()) / y.std()
    sk = {s.name: s for s in skeleton_stream(1)}["sin_affine"]
    objective = _make_objective(sk, data.points, y)
    hints, _ = _ranked_hints(sk, objective, data.points, y, ft._SCAN_REACH)
    return objective, [(-50.0, 50.0)] * sk.nl_count, dict(
        seed=2, target_tol=1e-14, max_generations=300, stagnation_window=40,
        init_guesses=hints)


@pytest.mark.parametrize("run", [
    lambda: (_sphere, [(-50, 50)] * 3, dict(seed=0, target_tol=1e-9)),
    lambda: (_sphere, [(-5, 5)] * 2, dict(seed=1, target_tol=0.0, max_generations=400)),
    lambda: (_rosenbrock, [(-50, 50)] * 2, dict(seed=3, target_tol=1e-9)),
    lambda: _skeleton_run(lambda p: np.sin(1.7 * p[:, 0] - 0.4)),
])
def test_ldse_matches_the_flat_stagnation_test_on_objectives_with_minimum_zero(run):
    # below 1e-6 the relative step is the flat 1e-12 one, and above it these
    # runs never go a stagnation window without a relative gain
    objective, bounds, kw = run()
    with np.errstate(all="ignore"):
        x, val = ldse_minimize(objective, bounds, **_on_stream(kw))
        ref_x, ref_val = _flat_ldse_minimize(objective, bounds, **_on_stream(kw))
    assert x.tobytes() == ref_x.tobytes() and val == ref_val


@pytest.mark.parametrize("run", [
    lambda: (lambda X: _sphere(X - 1.3) + 0.5, [(-5, 5)] * 2, dict(seed=1, target_tol=0.0)),
    lambda: (lambda X: _rosenbrock(X) + 2.0, [(-50, 50)] * 2, dict(seed=3, target_tol=0.0)),
    lambda: (lambda X: np.sum(np.abs(X), axis=1) + np.sin(X[:, 0]) + 4.0, [(-10, 10)] * 2,
             dict(seed=11, target_tol=0.0)),
    lambda: _skeleton_run(lambda p: np.sin(1.7 * p[:, 0]), noise=0.3),
])
def test_ldse_stops_sooner_above_zero_within_one_part_in_1e5(run):
    objective, bounds, kw = run()
    new, calls = _recorded(objective)
    old, ref_calls = _recorded(objective)
    with np.errstate(all="ignore"):
        _, val = ldse_minimize(new, bounds, **_on_stream(kw))
        _, ref_val = _flat_ldse_minimize(old, bounds, **_on_stream(kw))
    # the same search, stopped earlier: its batches are a strict prefix of
    # the reference's
    assert len(calls) < len(ref_calls)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(calls, ref_calls))
    assert ref_val > 0.0
    assert ref_val <= val <= ref_val * (1.0 + 1e-5)


def _ldse_run(d, kind):
    """An LDSE run in d dimensions: a shifted sphere above zero, which
    runs to its stagnation stop, the same with inf on a half-space and
    init guesses, or a skeleton's profile objective with its hints."""
    if kind == "sphere":
        return (lambda X: _sphere(X - 1.3) + 0.5, [(-5, 5)] * d,
                dict(seed=d, target_tol=0.0))
    if kind == "inf":
        return (lambda X: np.where(X[:, 0] > -1.0, _sphere(X - 2.0), math.inf),
                [(-5, 5)] * d,
                dict(seed=10 + d, target_tol=0.0, max_generations=120,
                     init_guesses=[np.full(d, 4.0), np.full(d, -3.0)]))
    name, vars_, fn = {
        1: ("exp_scaled", (1,), lambda p: np.exp(0.7 * p[:, 0])),
        2: ("sin_affine", (1,), lambda p: np.sin(1.7 * p[:, 0] - 0.4) + 0.2 * p[:, 0]),
        3: ("sin_affine2", (1, 2),
            lambda p: np.cos(2.3 * p[:, 0] + 1.1 * p[:, 1] + 0.3) + 0.1 * p[:, 1]),
    }[d]
    data = make_data(fn, vars_=vars_)
    y = (data.values - data.values.mean()) / data.values.std()
    sk = {s.name: s for s in skeleton_stream(data.points.shape[1])}[name]
    objective = _make_objective(sk, data.points, y)
    hints, _ = _ranked_hints(sk, objective, data.points, y, ft._SCAN_REACH)
    return objective, [(-50.0, 50.0)] * sk.nl_count, dict(
        seed=7, target_tol=1e-14, max_generations=300, stagnation_window=40,
        init_guesses=hints)


@pytest.mark.parametrize("kind", ["sphere", "inf", "skeleton"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_ldse_matches_the_reference_bytewise(d, kind):
    # the lean generation scores the same batches and returns the same bits;
    # d = 1 takes the centroid of a single row
    objective, bounds, kw = _ldse_run(d, kind)
    assert len(bounds) == d
    new, calls = _recorded(objective)
    old, ref_calls = _recorded(objective)
    with np.errstate(all="ignore"):
        x, val = ldse_minimize(new, bounds, **_on_stream(kw))
        ref_x, ref_val = _reference_ldse_minimize(old, bounds, **_on_stream(kw))
    assert x.tobytes() == ref_x.tobytes() and val == ref_val
    assert len(calls) == len(ref_calls) > 2
    assert all(a.tobytes() == b.tobytes() for a, b in zip(calls, ref_calls))


def _reference_objective(sk, V, y):
    """`_make_objective` as first written, with a fresh array per step."""
    shape = sk._shapes()[0]
    n = len(y)
    y_sum = float(y.sum())

    def objective(X):
        S = shape._eval(V, [X[:, k:k + 1] for k in range(X.shape[1])])
        a11 = (S * S).sum(axis=1)
        b1 = S @ y
        a12 = S.sum(axis=1)
        det = a11 * n - a12 * a12
        ok = np.isfinite(a11) & (det > 1e-300 * np.maximum(1.0, a11 * n))
        c1 = (b1 * n - y_sum * a12) / det
        c2 = (a11 * y_sum - a12 * b1) / det
        R = y - c1[:, None] * S - c2[:, None]
        mse = (R * R).sum(axis=1) / n
        return np.where(ok & np.isfinite(mse), mse, math.inf)

    return objective


@pytest.mark.parametrize("k", [1, 2, 3])
def test_objective_matches_the_reference_bytewise(k):
    rng = np.random.default_rng(60 + k)
    # mixed signs and a zero coordinate put the ln, sqrt and 1/ rows
    # outside their domain for some parameters
    V = rng.uniform(-3.0, 3.0, size=(48, k))
    V[5] = 0.0
    y = rng.normal(size=48)
    infs = 0
    for sk in [s for s in skeleton_stream(k, max_nodes=14) if s.nl_count]:
        X = rng.uniform(-4.0, 4.0, size=(80, sk.nl_count))
        X[:3] = 0.0  # a constant column: the 2x2 solve is singular
        X[3:9, -1] = 40.0  # a shift that keeps every inner argument positive
        with np.errstate(all="ignore"):
            got = _make_objective(sk, V, y)(X)
            want = _reference_objective(sk, V, y)(X)
        assert got.tobytes() == want.tobytes(), sk.name
        assert np.isfinite(got).any(), sk.name
        infs += int(np.isinf(got).sum())
    assert infs > 0


def _reference_mse(sk, V, y, nl):
    """One row of the profile objective, by the generic design-matrix solve."""
    B = sk.design(V, nl)
    return math.inf if B is None else _lstsq_cols(B, y)[1]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_objective_matches_per_row_reference(k):
    rng = np.random.default_rng(30 + k)
    V = rng.uniform(0.5, 3.0, size=(48, k)) * rng.choice([-1.0, 1.0], size=k)
    y = rng.normal(size=48)
    for sk in [s for s in skeleton_stream(k, max_nodes=14) if s.nl_count]:
        X = rng.uniform(-2.0, 2.0, size=(50, sk.nl_count))
        got = _make_objective(sk, V, y)(X)
        want = np.array([_reference_mse(sk, V, y, row) for row in X])
        assert got.shape == (50,)
        assert np.array_equal(np.isinf(got), np.isinf(want)), sk.name
        assert np.isfinite(want).any(), sk.name
        assert np.allclose(got[np.isfinite(got)], want[np.isfinite(want)]), sk.name


def test_parametric_skeleton_must_be_one_shape_and_the_offset():
    # the objective solves exactly an amplitude and an offset in closed form
    for columns in (("sin(p0*x1)",), ("1", "sin(p0*x1)"), ("sin(p0*x1)", "x1", "1")):
        with pytest.raises(ValueError, match="bad"):
            _sk("bad", *columns)
    assert _sk("good", "sin(p0*x1)", "1").nl_count == 1


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
    m = fit_factor(d, RunConfig(seed=0))
    # the library's empty sum: the offset alone
    assert m.skeleton_name == "monomials" and m.expr.kind == "const"
    assert m.converged and m.train_mse <= 1e-12


def test_fit_exp_minus_anchor_shape():
    # psi-sliced exponential: e^x - e^a, an affine image of e^x
    d = make_data(lambda p: np.exp(p[:, 0]) - np.exp(0.7))
    m = fit_factor(d, RunConfig(seed=0))
    assert m.converged and m.train_mse <= 1e-6
    assert m.skeleton_name == "exp_scaled"


def test_fit_sin_two_x():
    d = make_data(lambda p: np.sin(2 * p[:, 0]))
    m = fit_factor(d, RunConfig(seed=0))
    assert m.converged and m.train_mse <= 1e-6
    assert m.skeleton_name == "sin_affine"


def test_fit_inverse_square():
    d = make_data(lambda p: 1.0 / p[:, 0] ** 2, lo=0.5, hi=3.0)
    m = fit_factor(d, RunConfig(seed=0))
    assert m.converged
    assert m.skeleton_name == "monomials"
    with np.errstate(all="ignore"):
        sk, exact = ft._library(*_normalized(d), 12)
    assert exact and [str(c) for c in sk.columns] == ["1/x1^2", "1"]


def test_fit_log_with_inner_affine():
    d = make_data(lambda p: np.log(3 * p[:, 0] + 1.2), lo=1.0, hi=3.0)
    m = fit_factor(d, RunConfig(seed=0))
    assert m.converged and m.train_mse <= 1e-6


def test_fit_two_var_sin_affine():
    d = make_data(lambda p: np.sin(3 * p[:, 0] - p[:, 1]), vars_=(2, 3), n=96)
    m = fit_factor(d, RunConfig(seed=0))
    assert m.converged and m.train_mse <= 1e-6


def test_fit_two_var_sin_product():
    d = make_data(lambda p: np.sin(p[:, 0] * p[:, 1]), vars_=(5, 6), n=96)
    m = fit_factor(d, RunConfig(seed=0))
    assert m.converged and m.train_mse <= 1e-6


def test_fit_is_deterministic_bitwise():
    d = make_data(lambda p: np.sin(2 * p[:, 0]) * 3 + 1)
    a = fit_factor(d, RunConfig(seed=5))
    b = fit_factor(d, RunConfig(seed=5))
    assert np.array_equal(a.theta, b.theta)
    assert a.skeleton_name == b.skeleton_name


def test_fit_records_consistent_mse():
    d = make_data(lambda p: np.cos(p[:, 0]) * 2 - 0.5)
    m = fit_factor(d, RunConfig(seed=1))
    # the model represents the centered, unit-variance responses
    y = (d.values - np.mean(d.values)) / np.std(d.values)
    r = y - m.expr.eval_batch(d.points)
    assert float(np.mean(r * r)) == pytest.approx(m.train_mse, abs=1e-12)


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
        m = fit_factor(d, RunConfig(seed=seed))
        ok += m.train_mse <= 1e-6
    assert ok >= 18


# ---- scans and the ranked walk ---------------------------------------------


def _list_scan(sk, V, y, reach):
    """`_scan` as a loop over candidates: each p_k over +-reach / span of
    m_k, sin and cos with a positive first axis, ln, sqrt and 1/ on the
    grid's outer edge scaled in to the first reach, then the shift."""
    form = sk.form
    M = [m._eval(V) for m in form.terms]
    spans = [float(np.ptp(m)) or 1.0 for m in M]
    axis = [-a for a in reach[::-1]] + list(reach)
    rows = []
    for a in itertools.product(axis, repeat=len(M)):
        if form.g in ("sin", "cos") and a[0] < 0:
            continue
        if form.g in ("ln", "sqrt", "recip"):
            if max(abs(v) for v in a) != reach[-1]:
                continue
            a = [v * (reach[0] / reach[-1]) for v in a]
        rows.append([v / s for v, s in zip(a, spans)])
    if form.shift and form.g == "sin":
        lead = 1.0 if form.lead is None else form.lead._eval(V)
        rows = [list(r) for r in _with_phase(np.array(rows), np.column_stack(M), y, lead)[0]]
    elif form.shift and form.g == "exp":
        rows = [r + [0.0] for r in rows]
    elif form.shift:
        poles = []
        for r in rows:
            u = sum(p * m for p, m in zip(r, M))
            poles += [r + [(u.max() - u.min()) * pole - u.min()] for pole in ft._SCAN_POLES]
        rows = poles
    return [r for r in rows if all(abs(v) <= ft.PARAM_BOUND for v in r)]


@pytest.mark.parametrize("k", [1, 2])
def test_hint_generators_match_the_list_form_bitwise(k):
    # `_scan` is the one generator of every parametric row's starting
    # rows, along the first pass's reach and a wider one
    for seed, reach in itertools.product(range(3), [ft._SCAN_REACH, 1.5 * np.arange(1, 33)]):
        rng = np.random.default_rng(seed)
        V = rng.uniform(-3.0, 3.0, size=(50, k)) * rng.uniform(0.1, 20.0, size=k)
        y = rng.normal(size=50)
        for sk in [s for s in skeleton_stream(k) if s.nl_count]:
            with np.errstate(all="ignore"):
                got, _ = ft._scan(sk, V, y, reach)
                want = np.array(_list_scan(sk, V, y, reach))
            assert got.dtype == float and got.ndim == 2, sk.name
            assert got.shape == want.shape, sk.name
            assert got.tobytes() == want.tobytes(), sk.name


def test_the_wide_reach_leaves_out_only_rows_outside_the_box():
    # on a narrow span the parameter box, not pi * n, ends the second
    # pass's reach, and the rows beyond it are ones `_scan` drops anyway
    V = np.random.default_rng(0).uniform(-0.5, 0.5, size=(200, 1))
    y = np.sin(30 * V[:, 0])
    sk = {s.name: s for s in skeleton_stream(1)}["sin_affine"]
    reach = ft._wide_reach(sk.form, V)
    full = ft._SCAN_STEP * np.arange(1, int(math.pi * len(V) / ft._SCAN_STEP) + 1)
    assert len(ft._SCAN_REACH) < len(reach) < len(full)
    assert ft._scan(sk, V, y, reach)[0].tobytes() == ft._scan(sk, V, y, full)[0].tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_parametric_row_gets_a_scan(k):
    # the 3-variable rows included: each scan is built from the template
    # alone and has a row of finite score on random data
    rng = np.random.default_rng(20 + k)
    V = rng.uniform(-3.0, 3.0, size=(48 * k, k))
    y = rng.normal(size=48 * k)
    rows = [s for s in ft._STREAMS[k] if s.nl_count]
    assert rows
    for sk in rows:
        with np.errstate(all="ignore"):
            cands, _ = ft._scan(sk, V, y, ft._SCAN_REACH)
            hints, best = _ranked_hints(sk, _make_objective(sk, V, y), V, y, ft._SCAN_REACH)
        assert cands.ndim == 2 and cands.shape[1] == sk.nl_count and len(cands), sk.name
        assert np.all(np.abs(cands) <= ft.PARAM_BOUND), sk.name
        assert hints and math.isfinite(best), sk.name


def test_scan_reads_lead_function_terms_and_shift_off_the_template():
    by_name = {s.name: s for k in ft._STREAMS for s in ft._STREAMS[k]}
    form = by_name["prod_sin"].form
    assert (str(form.lead), form.g, [str(m) for m in form.terms], form.shift) == (
        "x1", "sin", ["x2"], True)
    form = by_name["sin_prod"].form
    assert (form.lead, form.g, [str(m) for m in form.terms], form.shift) == (
        None, "sin", ["x1*x2"], False)
    form = by_name["recip_affine"].form
    assert (form.g, [str(m) for m in form.terms], form.shift) == ("recip", ["x1"], True)
    form = by_name["exp_affine3"].form
    assert (form.g, [str(m) for m in form.terms], form.shift) == (
        "exp", ["x1", "x2", "x3"], True)


@pytest.mark.parametrize("template", [
    "sin(p0*x1)*exp(p1*x1)",   # two parametric factors
    "sin(x1*p0)",              # the parameter does not lead its term
    "sin(p0*x1+p0*x2)",        # a slot used twice
    "sin(p1*x1+p0)",           # slots out of order
    "sin(p0)",                 # no term
    "x1^p0",                   # no outer function the scan knows
    "cos(p0*x1+p1)",           # a shifted cos, which is a shifted sin
])
def test_a_template_outside_the_scan_form_fails_at_construction(template):
    with pytest.raises(ValueError, match="bad"):
        _sk("bad", template, "1")


def _phase_reference(kind, freqs, X, y):
    rows = []
    for f in freqs:
        t = X @ f if X.shape[1] > 1 else f[0] * X[:, 0]
        cols = np.column_stack([np.sin(t), np.cos(t), np.ones(len(t))])
        (a, b, _), _ = _lstsq_cols(cols, y)
        rows.append([*f, math.atan2(b, a) if kind == "sin" else math.atan2(-a, b)])
    return np.array(rows)


@pytest.mark.parametrize("kind", ["sin", "cos"])
@pytest.mark.parametrize("k", [1, 2])
def test_batched_phases_match_per_candidate_lstsq(kind, k):
    # the sin rows' phase less pi/2 is the cos phase, as cos(t + p) =
    # sin(t + p + pi/2), so a shifted cos needs no rows of its own
    rng = np.random.default_rng(5 + k)
    X = rng.uniform(-3.0, 3.0, size=(70, k))
    y = 2.0 * np.sin(1.3 * X.sum(axis=1) + 0.4) + 0.5 + 0.1 * rng.normal(size=70)
    # more rows than one chunk; the zero row makes sin and cos constant,
    # so its centered 2x2 system is singular
    freqs = rng.uniform(-5.0, 5.0, size=(ft._HINT_CHUNK + 37, k))
    singular = ft._HINT_CHUNK + 3
    freqs[singular] = 0.0
    with np.errstate(all="ignore"):
        got, mse = _with_phase(freqs, X, y)
    want = _phase_reference(kind, freqs, X, y)
    assert got.shape == (len(freqs), k + 1)
    assert np.array_equal(got[:, :k], freqs)
    regular = np.arange(len(freqs)) != singular
    shift = 0.0 if kind == "sin" else math.pi / 2
    wrapped = np.angle(np.exp(1j * (got[regular, k] - shift - want[regular, k])))
    assert np.allclose(wrapped, 0.0, atol=1e-9)
    assert np.isfinite(mse[regular]).all()
    # the singular row has no regular fit: phase 0, scored inf
    assert got[singular, k] == 0.0 and mse[singular] == math.inf


def test_with_phase_on_constant_argument_scores_every_row_inf():
    X = np.full((20, 1), 0.7)
    y = np.linspace(-1.0, 1.0, 20)
    freqs = np.array([[0.5], [1.0], [3.0]])
    with np.errstate(all="ignore"):
        got, mse = _with_phase(freqs, X, y)
    assert np.array_equal(got, np.column_stack([freqs, np.zeros(len(freqs))]))
    assert np.all(mse == math.inf)


# the shifted-sin families, whose scan rows `_with_phase` scores
_PHASED = {k: [s for s in ft._STREAMS[k] if s.nl_count and s.form.g == "sin" and s.form.shift]
           for k in (1, 2, 3)}


def _objective_scores(sk, V, y, cands):
    """Reference: every scan row scored by its skeleton's objective,
    `_HINT_CHUNK` rows per call."""
    objective = _make_objective(sk, V, y)
    return np.concatenate([objective(cands[i:i + ft._HINT_CHUNK])
                           for i in range(0, len(cands), ft._HINT_CHUNK)])


@pytest.mark.parametrize("data", ["random", "constant argument"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_phased_scan_rows_score_their_objective(k, data):
    # a shifted-sin row scores its phase solve's MSE, the objective's on
    # that row to rounding; a row whose 2x2 system is singular (every row
    # on a constant argument) scores inf, and so does its objective, whose
    # solve counts a rounding-level determinant as singular: the scan
    # ranks none
    if data == "random":
        rng = np.random.default_rng(40 + k)
        V = rng.uniform(-3.0, 3.0, size=(30 * k, k)) * rng.uniform(0.1, 5.0, size=k)
        y = rng.normal(size=len(V))
    else:
        V = np.full((20, k), 0.7)
        y = np.linspace(-1.0, 1.0, 20)
    reaches = [ft._SCAN_REACH] + ([1.5 * np.arange(1, 33)] if k < 3 else [])
    assert _PHASED[k]
    for sk, reach in itertools.product(_PHASED[k], reaches):
        with np.errstate(all="ignore"):
            cands, scores = ft._scan(sk, V, y, reach)
            want = _objective_scores(sk, V, y, cands)
            hints, best = _ranked_hints(sk, _make_objective(sk, V, y), V, y, reach)
        assert len(cands) and not np.isnan(scores).any(), sk.name
        if data != "random":
            assert np.isinf(scores).all() and hints == [] and best == math.inf, sk.name
            assert np.isinf(want).all(), sk.name
            continue
        assert np.array_equal(np.isinf(scores), np.isinf(want)), sk.name
        finite = np.isfinite(want)
        assert np.all(np.abs(scores[finite] - want[finite]) <= 1e-12 * np.var(y)), sk.name
        order = [i for i in np.argsort(want, kind="stable")[:3] if want[i] < math.inf]
        assert [h.tobytes() for h in hints] == [cands[i].tobytes() for i in order], sk.name
        assert best == (scores[order[0]] if order else math.inf), sk.name


def _rank(name, k=1, max_nodes=12):
    """The stream key of a row's LDSE runs: its rank in the stream."""
    return [s.name for s in skeleton_stream(k, max_nodes)].index(name)


def _start(gen):
    """The state a Generator starts from, which names its stream."""
    return gen.bit_generator.state["state"]["state"]


def _ldse_streams(monkeypatch):
    """Spy on LDSE: the list of the start states of its runs' streams, in
    call order."""
    streams = []
    real = ft.ldse_minimize

    def spy(objective, bounds, *, rng, **kw):
        streams.append(_start(rng))
        return real(objective, bounds, rng=rng, **kw)

    monkeypatch.setattr(ft, "ldse_minimize", spy)
    return streams


def test_sin_factor_never_runs_ldse_on_exp_scaled(monkeypatch):
    # exp_scaled is scanned and polished first, simplest first, but cannot
    # close; sin_affine's best hint polishes to an exact fit, so no LDSE runs
    streams = _ldse_streams(monkeypatch)
    m = fit_factor(make_data(lambda p: np.sin(2 * p[:, 0])), RunConfig(seed=3))
    assert m.converged and m.skeleton_name == "sin_affine"
    assert m.train_mse <= 1e-12
    assert streams == []


def _walk_log(monkeypatch, data, cfg):
    """fit_factor's events in order: ('design', name) for each skeleton
    whose linear fit is solved, ('scan', name) for each first-pass scan,
    ('wide scan', name) for each second-pass one, ('library',) for the
    monomial library's subset search and ('ldse', start) for each search,
    start the state its stream starts from."""
    log = []
    real_design, real_hints, real_ldse = Skeleton.design, ft._ranked_hints, ft.ldse_minimize
    real_library = ft._library

    def design(self, V, nl):
        log.append(("design", self.name))
        return real_design(self, V, nl)

    def ranked_hints(sk, objective, V, y, reach):
        log.append(("scan" if reach is ft._SCAN_REACH else "wide scan", sk.name))
        return real_hints(sk, objective, V, y, reach)

    def ldse(objective, bounds, *, rng, **kw):
        log.append(("ldse", _start(rng)))
        return real_ldse(objective, bounds, rng=rng, **kw)

    def library(*a):
        log.append(("library",))
        return real_library(*a)

    monkeypatch.setattr(Skeleton, "design", design)
    monkeypatch.setattr(ft, "_ranked_hints", ranked_hints)
    monkeypatch.setattr(ft, "ldse_minimize", ldse)
    monkeypatch.setattr(ft, "_library", library)
    model = fit_factor(data, cfg)
    return model, log


def test_parameter_free_rows_first_then_every_scan_before_ldse(monkeypatch):
    # noise: no skeleton fits, so the walk runs to its end
    rng = np.random.default_rng(4)
    data = make_data(lambda p: rng.normal(size=len(p)), vars_=(3,))
    model, log = _walk_log(monkeypatch, data, RunConfig(seed=2))
    assert not model.converged
    stream = skeleton_stream(1)
    parametric = [s.name for s in stream if s.nl_count]
    assert parametric == [s.name for s in stream]
    # the library searches once, first; its fit is inexact, so it is tried
    # last, after every LDSE family
    assert log[0] == ("library",) and log[-1] == ("design", "monomials")
    rest = log[1:-1]
    # every family's first scan, then the sin and cos families' second
    # ones, in table order, and only then LDSE
    wide = [s.name for s in stream if ft._wide_reach(s.form, data.points) is not None]
    assert wide == ["sin_affine", "vsin"]
    scans = [("scan", n) for n in parametric] + [("wide scan", n) for n in wide]
    assert rest[:len(scans)] == scans
    searched = rest[len(scans):]
    assert {e[1] for e in searched if e[0] == "design"} == set(parametric)
    assert all(e[0] in ("design", "ldse") for e in searched)
    assert searched[0][0] == "ldse"
    # a fixed number of restarts per family, as none reaches 1e-12
    assert sum(e[0] == "ldse" for e in searched) == ft._RESTARTS * len(parametric)


def test_a_scan_is_polished_only_when_it_beats_the_family_best(monkeypatch):
    # the wide grid holds the first pass's, so a wide scan that finds no
    # better row would only repeat the first pass's polish
    data = make_data(lambda p: np.random.default_rng(4).normal(size=len(p)), vars_=(3,))
    scans, polished = [], []
    real_hints, real_polish = ft._ranked_hints, ft._polish

    def ranked_hints(sk, objective, V, y, reach):
        hints, best = real_hints(sk, objective, V, y, reach)
        scans.append((sk.name, best))
        return hints, best

    def polish(*a):
        polished.append(scans[-1][0])
        return real_polish(*a)

    monkeypatch.setattr(ft, "_ranked_hints", ranked_hints)
    monkeypatch.setattr(ft, "_polish", polish)
    assert not fit_factor(data, RunConfig(seed=2)).converged
    first = dict(scans[:len(skeleton_stream(1))])
    wide = [n for n, best in scans[len(first):] if best < first[n]]
    assert 0 < len(wide) < len(scans) - len(first)
    assert polished == list(first) + wide


def test_accepted_parameter_free_row_skips_every_scan(monkeypatch):
    data = make_data(lambda p: 3 * p[:, 0] ** 2 - 1)
    model, log = _walk_log(monkeypatch, data, RunConfig(seed=0))
    assert model.skeleton_name == "monomials" and model.converged
    assert log == [("library",), ("design", "monomials")]
    with np.errstate(all="ignore"):
        sk, exact = ft._library(*_normalized(data), 12)
    assert exact and [str(c) for c in sk.columns] == ["x1^2", "1"]


@pytest.mark.parametrize("fn,vars_", [
    (lambda p: np.exp(0.4 * p[:, 0]) + 0.05 * np.sin(7 * p[:, 0]), (1,)),
    # these four close by the polish, without LDSE
    (lambda p: np.cos(1.5 * p[:, 0] - 0.5 * p[:, 1]), (2, 4)),
    (lambda p: np.sin(0.8 * p[:, 0] * p[:, 1]), (1, 2)),
    (lambda p: np.exp(0.5 * p[:, 0]), (1,)),
    (lambda p: np.log(3 * p[:, 0] + 10.0), (1,)),
])
def test_fit_factor_reruns_are_bit_identical(fn, vars_):
    d = make_data(fn, vars_=vars_, n=48 * len(vars_))
    a = fit_factor(d, RunConfig(seed=5))
    b = fit_factor(d, RunConfig(seed=5))
    assert a.skeleton_name == b.skeleton_name
    assert a.theta.tobytes() == b.theta.tobytes()
    assert a.train_mse == b.train_mse
    assert a.expr.to_text() == b.expr.to_text()



def _spied_fit(monkeypatch, data, cfg):
    """fit_factor, its LDSE runs in call order as (rank, restart, val),
    rank the skeleton's index in the stream, and the names of the
    families scanned in the second pass."""
    k = len(data.vars)
    run_of = {_start(config_rng(cfg.seed, 1101, rank, r)): (rank, r)
              for rank in range(len(skeleton_stream(k, cfg.max_nodes)))
              for r in range(ft._RESTARTS)}
    runs, wide = [], []
    real, real_hints = ft.ldse_minimize, ft._ranked_hints

    def spy(objective, bounds, *, rng, **kw):
        run = run_of[_start(rng)]
        x, val = real(objective, bounds, rng=rng, **kw)
        runs.append((*run, val))
        return x, val

    def ranked_hints(sk, objective, V, y, reach):
        if reach is not ft._SCAN_REACH:
            wide.append(sk.name)
        return real_hints(sk, objective, V, y, reach)

    with monkeypatch.context() as m:
        m.setattr(ft, "ldse_minimize", spy)
        m.setattr(ft, "_ranked_hints", ranked_hints)
        model = fit_factor(data, cfg)
    return model, runs, wide


def _suite_factor_data(monkeypatch):
    """(cfg, FactorData) of every factor fit of cases 1-10 and of the
    stream demo, case 11, at their first suite seed: a fit of a sweep's
    first block (marked as one) and, when that does not fit exactly, one
    of the whole sweep."""
    import gsfit.assemble as asm
    from gsfit.bench import CASES, STREAM_DEMO, get_case, suite_seeds
    from gsfit.detect import detect_structure

    out = []
    real = ft.fit_factor

    def spy(data, c):
        out.append((c, data))
        return real(data, c)

    with monkeypatch.context() as m:
        m.setattr(ft, "fit_factor", spy)
        for no in [*sorted(CASES), STREAM_DEMO.no]:
            cfg = RunConfig(seed=suite_seeds(0, no, 1)[0])
            oracle = get_case(no).oracle()
            asm.fit_structure_factors(detect_structure(oracle, cfg), oracle, cfg)
    return out


def test_suite_factors_fit_without_ldse(monkeypatch):
    # every factor of the suite and of the stream demo is fitted exactly on
    # the first block of its sweep, by the library or closed by its first
    # scan and polish: no benchmark factor draws the rest of its sweep, and
    # none reaches LDSE or the wide scan, even where LDSE is allowed
    fits = _suite_factor_data(monkeypatch)
    assert len(fits) == 50
    for cfg, data in fits:
        assert data.first_block and len(data.points) <= 16 * len(data.vars)
        model, runs, wide = _spied_fit(monkeypatch, replace(data, first_block=False), cfg)
        assert model.converged and runs == [] and wide == []


_SYNTHETIC = {
    # the first axis spans 5 * 6 = 30 rad across [-3, 3], beyond the first
    # scan's reach, and at three axes the wide pass adds nothing; LDSE
    # fits it at data and fit seeds 5, 8, 11 and 18 of 0-23
    "affine3": dict(fn=lambda p: np.sin(5 * p[:, 0] + 0.4 * p[:, 1] - 0.9 * p[:, 2] + 1),
                    n=144, vars_=(1, 2, 3)),
    "noise": dict(fn=lambda p: np.random.default_rng(4).normal(size=len(p)), vars_=(3,)),
}


def test_restarts_run_depth_first_in_scan_order(monkeypatch):
    # the affine3 target is beyond both scans' reach and noise fits
    # nothing, so LDSE runs: each family runs its restarts before the next
    # family's first, and the families go in order of best scan score over
    # both passes
    for name, seed, fits in (("affine3", 5, True), ("affine3", 18, True),
                             ("affine3", 0, False), ("noise", 2, False)):
        data = make_data(**_SYNTHETIC[name], seed=seed)
        cfg = RunConfig(seed=seed, max_nodes=14)
        stream = skeleton_stream(len(data.vars), cfg.max_nodes)
        model, log, _ = _spied_fit(monkeypatch, data, cfg)
        assert model.converged == fits
        runs = [(k, r) for k, r, _ in log]
        families = list(dict.fromkeys(k for k, _ in runs))
        assert runs == [(k, r) for k in families
                        for r in range(sum(kk == k for kk, _ in runs))]
        V = data.points
        y = (data.values - data.values.mean()) / data.values.std()
        score = []
        with np.errstate(all="ignore"):
            for sk in (stream[k] for k in families):
                reaches = [ft._SCAN_REACH, ft._wide_reach(sk.form, V)]
                score.append(min(_ranked_hints(sk, _make_objective(sk, V, y), V, y, r)[1]
                                 for r in reaches if r is not None))
        assert score == sorted(score)
        # each family runs its fixed restarts, stopping early only at 1e-12
        for k in families:
            vals = [val for kk, _, val in log if kk == k]
            assert all(v > 1e-12 for v in vals[:-1])
            assert len(vals) == ft._RESTARTS or vals[-1] <= 1e-12
        if fits:
            # the first family within tolerance ends the walk
            assert stream[families[-1]].name == model.skeleton_name
        else:
            assert len(families) == sum(sk.nl_count > 0 for sk in stream)


_OFF_GRID_TRIG = [
    (lambda p: np.sin(9 * p[:, 0] + 0.3), (1,)),
    (lambda p: np.sin(11.3 * p[:, 0]), (1,)),
    (lambda p: p[:, 0] * np.sin(7.7 * p[:, 0]), (1,)),
    (lambda p: np.cos(3 * p[:, 0] * p[:, 1]), (1, 2)),
    (lambda p: p[:, 0] * np.sin(6.7 * p[:, 1]), (1, 2)),
    (lambda p: np.cos(2.7 * p[:, 0] - 1.9 * p[:, 1] + 0.4), (1, 2)),
]


@pytest.mark.parametrize("fn,vars_", _OFF_GRID_TRIG)
def test_off_grid_trig_factors_still_converge(fn, vars_):
    # frequencies beyond the first scan's reach
    for seed in range(8):
        model = fit_factor(make_data(fn, vars_=vars_, seed=seed), RunConfig(seed=seed))
        assert model.converged, seed


@pytest.mark.parametrize("fn,vars_", _OFF_GRID_TRIG + [
    # two-axis frequencies beyond the first scan's 24 rad across the span
    (lambda p: np.sin(6 * p[:, 0] + 4.5 * p[:, 1] + 0.3), (1, 2)),
    (lambda p: np.cos(5.3 * p[:, 0] - 1.1 * p[:, 1]), (1, 2)),
    (lambda p: np.sin(4.4 * p[:, 0] - 7 * p[:, 1] + 1), (1, 2)),
])
def test_trig_factors_the_sample_resolves_converge_at_every_seed(fn, vars_):
    # the second scan pass reaches them, so they converge at seeds 0-39
    for seed in range(40):
        model = fit_factor(make_data(fn, vars_=vars_, seed=seed), RunConfig(seed=seed))
        assert model.converged, seed


def test_equal_fits_go_to_the_earlier_skeleton_in_try_order(monkeypatch):
    # of equal fits, the skeleton `_walk` yields first is kept
    a = _sk("tried_first", "exp(p0*x1)", "1")
    b = _sk("tried_second", "exp(p0*x1)", "1")
    nl = np.array([0.3])
    monkeypatch.setattr(ft, "_walk", lambda *args: iter([(a, nl), (b, nl)]))
    rng = np.random.default_rng(2)
    model = fit_factor(make_data(lambda p: rng.normal(size=len(p))), RunConfig())
    assert not model.converged
    assert model.skeleton_name == "tried_first"


# ---- the monomial library -------------------------------------------------


def _normalized(data):
    y = (data.values - data.values.mean()) / data.values.std()
    return data.points, y


def test_library_fits_the_stream_demo_omega_factor_before_ldse(monkeypatch):
    # r - R^2/r over (R, r) in [1, 3]^2: the library fits it exactly with
    # two columns, before any scan, and no LDSE run is made
    data = make_data(lambda p: p[:, 1] - p[:, 0] ** 2 / p[:, 1], lo=1.0, hi=3.0,
                     vars_=(3, 4), n=96)
    with np.errstate(all="ignore"):
        sk, exact = ft._library(*_normalized(data), 12)
    assert exact and [str(c) for c in sk.columns] == ["x2", "x1^2/x2", "1"]
    model, log = _walk_log(monkeypatch, data, RunConfig(seed=1))
    assert model.skeleton_name == "monomials" and model.train_mse <= 1e-12
    assert log == [("library",), ("design", "monomials")]


def test_an_inexact_library_fit_does_not_take_the_place_of_an_ldse_fit(monkeypatch):
    # the affine3 target is beyond both scans' reach: the library searches
    # first but fits inexactly, so LDSE runs and its exact fit is accepted
    # before the library's subset is tried
    model, log = _walk_log(monkeypatch, make_data(**_SYNTHETIC["affine3"], seed=5),
                           RunConfig(seed=5, max_nodes=14))
    assert model.skeleton_name == "sin_affine3" and model.converged
    first_ldse = next(i for i, e in enumerate(log) if e[0] == "ldse")
    assert ("library",) in log[:first_ldse]
    assert ("design", "monomials") not in log


def library_columns(V, cap):
    """The library's columns that `_library_values` keeps on V, from the
    `_library_table` within cap: (templates, node counts, values centered
    and scaled to unit norm)."""
    table = ft._library_table(V.shape[1], cap)
    keep, Z = ft._library_values(V, table.exps)
    return [m for m, k in zip(table.columns, keep) if k], table.nodes[keep], Z


def _admissible(nodes, size, cap):
    """Reference: every size-subset of the columns of these node counts
    within cap nodes, in itertools.combinations order, by brute force."""
    nodes = [int(n) for n in nodes]
    return [S for S in itertools.combinations(range(len(nodes)), size)
            if sum(nodes[j] for j in S) + size - 1 <= cap]


def _best_subset_mse(V, y, cap):
    """Reference: the lowest least-squares MSE of any 1 to 3 library
    columns plus the offset within cap nodes, by brute force."""
    kept, nodes, _ = library_columns(V, cap)
    cols = [m._eval(V) for m in kept]
    best = math.inf
    for size in (1, 2, 3):
        for S in _admissible(nodes, size, cap):
            B = np.column_stack([cols[j] for j in S] + [np.ones(len(y))])
            r = y - B @ np.linalg.lstsq(B, y, rcond=None)[0]
            best = min(best, float(r @ r) / len(y))
    return best


@pytest.mark.parametrize("k", [1, 2, 3])
def test_library_respects_max_nodes(k):
    rng = np.random.default_rng(k)
    V = rng.uniform(1.0, 3.0, size=(40 * k, k))
    y = rng.normal(size=len(V))
    with np.errstate(all="ignore"):
        for cap in range(3, 13):
            kept, nodes, _ = library_columns(V, cap)
            assert list(nodes) == [c.complexity() for c in kept] and max(nodes) <= cap
            sk, exact = ft._library(V, y, cap)
            assert not exact and sk.complexity <= cap
            B = sk.design(V, np.empty(0))
            mse = _lstsq_cols(B, y)[1]
            if cap in (5, 12):
                # the search is exhaustive within the cap
                assert mse <= _best_subset_mse(V, y, cap) * (1 + 1e-9)
    assert len(sk.columns) == 4


def test_library_exact_fit_needs_its_node_count():
    # {x1^2*x2, x2^2} has 4 + 2 nodes joined by one add: 7
    data = make_data(lambda p: p[:, 1] * p[:, 0] ** 2 - p[:, 1] ** 2, vars_=(1, 2), n=96)
    with np.errstate(all="ignore"):
        sk, exact = ft._library(*_normalized(data), 7)
        assert exact and sk.complexity == 7
        assert [str(c) for c in sk.columns] == ["x2^2", "x1^2*x2", "1"]
        sk, exact = ft._library(*_normalized(data), 6)
        assert not exact and sk.complexity <= 6
    model = fit_factor(data, RunConfig(seed=1, max_nodes=6))
    assert not model.converged


@pytest.mark.parametrize("x, texts", [
    # 1/x1 and 1/x1^2 are non-finite at 0
    ([0.0, 1.0, 2.0, 3.0], ["x1", "x1^2", "x1^3"]),
    # on +-1, x1^3 and 1/x1 equal x1, and x1^2 and 1/x1^2 are constant
    ([-1.0, 1.0, 1.0, -1.0, 1.0], ["x1"]),
])
def test_library_drops_non_finite_and_duplicate_columns(x, texts):
    V = np.array(x)[:, None]
    with np.errstate(all="ignore"):
        kept, _, Z = library_columns(V, 12)
        assert [str(c) for c in kept] == texts
        assert np.allclose(Z @ Z.T, np.corrcoef(Z)) and np.allclose(Z.sum(axis=1), 0.0)
        sk, exact = ft._library(V, np.array(x) ** 3, 12)
    assert exact and str(sk.columns[0]) in texts


@pytest.mark.parametrize("k", [1, 2, 3])
def test_library_scores_exactly_the_subsets_within_the_cap(monkeypatch, k):
    # every subset of 1 to 3 columns that fits the node cap is scored,
    # each size in itertools.combinations order, and no other
    scored = []
    real = ft._subset_rss

    def spy(G, b, yy, S):
        scored.append(S.tolist())
        return real(G, b, yy, S)

    monkeypatch.setattr(ft, "_subset_rss", spy)
    rng = np.random.default_rng(3)
    V = rng.uniform(1.0, 3.0, size=(40 * k, k))
    y = rng.normal(size=len(V))
    for cap in (3, 7, 12, 14):
        scored.clear()
        with np.errstate(all="ignore"):
            _, nodes, _ = library_columns(V, cap)
            sk, exact = ft._library(V, y, cap)
        assert not exact
        want = [_admissible(nodes, size, cap) for size in (1, 2, 3)]
        want = [[list(S) for S in w] for w in want if w]
        assert scored == want, cap
        if k == 3 and cap == 12:
            assert [len(w) for w in want] == [215, 8016, 15130]


@pytest.mark.parametrize("columns", ["random", "near-collinear"])
def test_cholesky_subset_scores_match_the_lu_reference(columns):
    # the closed-form Cholesky scores of every subset of 1 to 3 columns
    # agree with batched det and solve to 1e-12 of yy, and are inf on the
    # same subsets: x and x + 1e-6 x^2 (and x^2 and x^2 + 1e-6 x^3) are
    # singular pairs, and y is noise or an exact fit through them
    rng = np.random.default_rng(11)
    x = rng.uniform(-3.0, 3.0, 60)
    if columns == "random":
        cols = rng.normal(size=(9, 60))
    else:
        cols = np.array([x, x + 1e-6 * x ** 2, x ** 2, x ** 2 + 1e-6 * x ** 3, x ** 3,
                         1.0 / (4.0 + x), np.exp(x / 3.0), np.sin(x), x + 0.05 * x ** 2])
    Z = cols - cols.mean(axis=1, keepdims=True)
    Z /= np.sqrt((Z * Z).sum(axis=1, keepdims=True))
    for y in (rng.normal(size=60), 2.0 * cols[0] - 3e3 * cols[2] + 0.5 * cols[4] + 1.0,
              cols[2] - 0.7 * cols[4]):
        yc = y - y.mean()
        G, b, yy = Z @ Z.T, Z @ yc, float(yc @ yc)
        for size in (1, 2, 3):
            S = np.array(list(itertools.combinations(range(len(Z)), size)))
            got = ft._subset_rss(G, b, yy, S)
            want = reference_subset_rss(G, b, yy, S)
            assert np.array_equal(np.isinf(got), np.isinf(want)), size
            finite = np.isfinite(want)
            assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * yy), size
            if columns == "near-collinear":
                assert np.isinf(got[(S == 0).any(axis=1) & (S == 1).any(axis=1)]).all()


# the tables a fit builds once per process, on first use
_TABLES = ("_first_scan_grid", "_library_table", "_fd_stencil", "_monomials")


def test_importing_gsfit_builds_no_table():
    code = ("import gsfit, gsfit.fit as ft; "
            f"print(*(getattr(ft, n).cache_info().currsize for n in {_TABLES!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0"] * len(_TABLES)


def test_fits_build_one_table_entry_per_key():
    # fits at 1 to 3 variables on the fuzz boxes at every cap from 3 to 14
    # build each (variable count, cap) library table and each (g, K) scan
    # grid once, and no table per data set: the wide pass's grids are not
    # kept
    for name in _TABLES:
        getattr(ft, name).cache_clear()
    caps = range(3, 15)
    for k in (1, 2, 3):
        for i, (lo, hi) in enumerate([(-3, 3), (0.5, 3), (-1, 1), (1, 5)]):
            data = make_data(lambda p: np.sin(1.7 * p.sum(axis=1)) + p[:, 0] ** 2, lo=lo,
                             hi=hi, n=24 * k, vars_=tuple(range(1, k + 1)), seed=10 * k + i)
            for cap in caps:
                fit_factor(data, RunConfig(seed=1, max_nodes=cap, tol_target=1.0))
    info = {name: getattr(ft, name).cache_info() for name in _TABLES}
    keys = {(s.form.g, len(s.form.terms)) for k in ft._STREAMS for s in ft._STREAMS[k]
            if s.nl_count}
    assert info["_library_table"].currsize == 3 * len(caps)
    assert info["_monomials"].currsize == 3
    assert 0 < info["_first_scan_grid"].currsize <= len(keys)
    assert 0 < info["_fd_stencil"].currsize <= max(s.nl_count for k in ft._STREAMS
                                                   for s in ft._STREAMS[k])
    assert all(i.hits > 0 for i in info.values())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_monomial_values_equal_their_templates_bit_for_bit(k):
    # on the four fuzz boxes, with exact zeros (and a -0.0) planted in
    # every variable, so that every column with a denominator is NaN on
    # some rows: each column built from the power tables is its
    # template's floats, NaN on the same rows
    table = ft._library_table(k, 14)
    assert len(table.columns) == 6 ** k - 1
    for i, (lo, hi) in enumerate([(-3, 3), (0.5, 3), (-1, 1), (1, 5)]):
        V = np.random.default_rng(i).uniform(lo, hi, size=(50, k))
        for j in range(k):
            V[j::k + 3, j] = 0.0
        V[-1, 0] = -0.0
        got = ft._monomial_values(V, table.exps)
        with np.errstate(all="ignore"):
            want = np.array([m._eval(V) for m in table.columns])
        assert got.shape == want.shape == (len(table.columns), len(V))
        assert np.isnan(got).any() and np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert got[ok].tobytes() == want[ok].tobytes(), (lo, hi)


@pytest.mark.parametrize("row", list(MONOMIAL_ROWS))
def test_library_reproduces_every_monomial_row(monkeypatch, row):
    # each column set, with coefficients of mixed scale and an offset, is
    # fitted exactly by the library with exactly those columns, and
    # fit_factor accepts that fit
    k, texts = MONOMIAL_ROWS[row]
    found = []
    real = ft._library

    def spy(*a):
        found.append(real(*a))
        return found[-1]

    monkeypatch.setattr(ft, "_library", spy)
    columns = [parse_template(t, k) for t in texts]
    for lo in (-3.0, 1.0):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            V = rng.uniform(lo, 3.0, size=(40 * k, k))
            coef = (rng.choice([-1.0, 1.0], len(texts)) * rng.uniform(0.5, 2.0, len(texts))
                    * rng.choice([0.01, 1.0, 100.0], len(texts)))
            y = sum((a * c._eval(V) for a, c in zip(coef, columns)),
                    np.full(len(V), rng.uniform(-5.0, 5.0)))
            data = FactorData(vars=tuple(range(1, k + 1)), points=V, values=y)
            found.clear()
            model = fit_factor(data, RunConfig(seed=seed))
            sk, exact = found[0]
            assert exact, (lo, seed)
            assert sorted(map(str, sk.columns)) == sorted(texts + ["1"]), (lo, seed)
            assert model.converged and model.skeleton_name == "monomials", (lo, seed)


# ---- the Gauss-Newton polish -----------------------------------------------


def test_exp_off_the_hint_grid_closes_without_ldse(monkeypatch):
    # exp_scaled's scan steps 0.75 in w on [1, 3] and misses w = 0.5; the
    # polish closes it from its best row
    streams = _ldse_streams(monkeypatch)
    data = make_data(lambda p: np.exp(0.5 * p[:, 0]), lo=1.0, hi=3.0)
    model = fit_factor(data, RunConfig(seed=0))
    assert model.skeleton_name == "exp_scaled" and model.train_mse <= 1e-12
    assert streams == []
    assert model.theta[0] == pytest.approx(0.5, rel=1e-6)


_INNER_AFFINE = [
    ("ln_affine", dict(fn=lambda p: np.log(3 * p[:, 0] + 1.2), lo=1.0, hi=3.0)),
    ("ln_affine", dict(fn=lambda p: np.log(5.0 - 1.3 * p[:, 0]))),
    ("sqrt_affine", dict(fn=lambda p: np.sqrt(2.3 * p[:, 0] + 0.7), lo=0.5, hi=3.0)),
    ("recip_affine", dict(fn=lambda p: 1.0 / (1.7 * p[:, 0] + 0.4), lo=0.5, hi=3.0)),
    ("ln_affine2", dict(fn=lambda p: np.log(0.7 * p[:, 0] + 1.9 * p[:, 1] + 9.0),
                        vars_=(1, 2), n=96)),
]


@pytest.mark.parametrize("name,data", _INNER_AFFINE)
def test_inner_affine_factors_close_by_the_polish(monkeypatch, name, data):
    # only the ratio of the inner slope and shift matters to these shapes
    # once the amplitude and offset are free, so their Jacobian is
    # scale-degenerate; the truncated solve still closes them
    streams = _ldse_streams(monkeypatch)
    for seed in range(8):
        streams.clear()
        model = fit_factor(make_data(**data, seed=seed), RunConfig(seed=seed))
        assert model.skeleton_name == name and model.train_mse <= 1e-12, seed
        assert streams == [], seed


def test_a_plain_solve_stalls_on_the_scale_degenerate_jacobian(monkeypatch):
    # the same factors with the step solved to machine precision: the step
    # runs off along the null direction, and LDSE has to take over
    streams = _ldse_streams(monkeypatch)
    monkeypatch.setattr(ft, "_POLISH_RCOND", 1e-15)
    stalled = 0
    for _, data in _INNER_AFFINE:
        streams.clear()
        fit_factor(make_data(**data, seed=1), RunConfig(seed=1))
        stalled += bool(streams)
    assert stalled >= 3


def _polish_starts():
    """(skeleton, V, y, starting rows) over every parametric family on
    exact, noisy and unrelated data, the starts including the best hint
    and rows outside the shapes' domains."""
    rng = np.random.default_rng(12)
    targets = {
        1: [lambda p: np.exp(0.5 * p[:, 0]), lambda p: np.sin(9 * p[:, 0] + 0.3),
            lambda p: np.log(p[:, 0] + 3.5) + 0.2 * rng.normal(size=len(p))],
        2: [lambda p: np.cos(3 * p[:, 0] * p[:, 1]),
            lambda p: p[:, 0] * np.exp(0.3 * p[:, 1]) + 0.1 * rng.normal(size=len(p))],
    }
    for k, fns in targets.items():
        for fn in fns:
            data = make_data(fn, vars_=tuple(range(1, k + 1)), n=48 * k)
            V = data.points
            y = (data.values - data.values.mean()) / data.values.std()
            for sk in [s for s in skeleton_stream(k) if s.nl_count]:
                objective = _make_objective(sk, V, y)
                with np.errstate(all="ignore"):
                    hints, _ = _ranked_hints(sk, objective, V, y, ft._SCAN_REACH)
                starts = [*hints[:1], *rng.uniform(-5.0, 5.0, size=(4, sk.nl_count))]
                yield sk, V, y, starts


def test_polish_never_returns_a_worse_mse_than_its_start():
    moved = 0
    for sk, V, y, starts in _polish_starts():
        objective = _make_objective(sk, V, y)
        residuals = ft._make_residuals(sk, V, y)
        with np.errstate(all="ignore"):
            for x0 in starts:
                val0 = float(objective(np.atleast_2d(x0))[0])
                x, val = ft._polish(residuals, objective, x0, val0)
                assert val <= val0, sk.name
                assert np.all(np.abs(x) <= ft.PARAM_BOUND), sk.name
                if val < val0:
                    # the value returned is the objective's at the point returned
                    assert val == pytest.approx(objective(x[None, :])[0], rel=1e-9, abs=1e-18)
                    moved += 1
                else:
                    assert np.array_equal(x, x0)
    assert moved > 20


def _family_data(sk, k, seed):
    """Local points and normalized responses of sk's own shape at random
    parameters, amplitude and offset, redrawn until the shape is valid on
    every point and not constant. Each multiplier p_k stays within the first
    scan's reach across the span of its m_k, the shift within +-3."""
    rng = np.random.default_rng(seed)
    K = len(sk.form.terms)
    for _ in range(10_000):
        V = rng.uniform(-3.0, 3.0, size=(48 * k, k))
        span = np.array([np.ptp(m._eval(V)) for m in sk.form.terms])
        nl = rng.uniform(-1.0, 1.0, sk.nl_count)
        nl[:K] *= ft._SCAN_REACH[-1] / span
        nl[K:] *= 3.0
        B = sk.design(V, nl)
        if B is not None and np.ptp(B[:, 0]) > 0.0:
            y = B @ rng.uniform(-3.0, 3.0, 2)
            return V, (y - y.mean()) / y.std()
    raise AssertionError(f"{sk.name}: no valid draw")


@pytest.mark.parametrize("k", [1, 2])
def test_the_stall_stop_leaves_every_closing_polish_as_it_was(k):
    # from each scan pass's best row, as `_walk` polishes it: wherever the
    # polish without the stall stop closes, `_polish` returns its point
    # and value bit for bit, so the stop only cuts polishes that stay open
    closed = 0
    for sk in [s for s in skeleton_stream(k) if s.nl_count]:
        for seed in range(20):
            V, y = _family_data(sk, k, seed)
            objective = _make_objective(sk, V, y)
            residuals = ft._make_residuals(sk, V, y)
            with np.errstate(all="ignore"):
                for reach in (ft._SCAN_REACH, ft._wide_reach(sk.form, V)):
                    if reach is None:
                        continue
                    hints, best = _ranked_hints(sk, objective, V, y, reach)
                    ref_x, ref_val = reference_polish(residuals, objective, hints[0], best)
                    x, val = ft._polish(residuals, objective, hints[0], best)
                    if ref_val <= 1e-12:
                        assert np.array_equal(x, ref_x) and val == ref_val, (sk.name, seed)
                        closed += 1
                    else:
                        assert ref_val <= val, (sk.name, seed)
    assert closed >= 15 * len([s for s in skeleton_stream(k) if s.nl_count])


def test_a_stalled_polish_stops_after_its_first_step(monkeypatch):
    # exp_scaled cannot fit sin(2*x1): its scan is one batch of residual
    # rows and its polish one iteration of two (the finite differences and
    # the step lengths), as its first step keeps more than 0.9 of the MSE;
    # without the stall stop it makes 15 batches. sin_affine then closes
    calls = []
    real = ft._make_residuals

    def make_residuals(sk, V, y):
        residuals = real(sk, V, y)

        def counted(X):
            calls.append(sk.name)
            return residuals(X)

        return counted

    monkeypatch.setattr(ft, "_make_residuals", make_residuals)
    model = fit_factor(make_data(lambda p: np.sin(2 * p[:, 0])), RunConfig(seed=0))
    assert model.skeleton_name == "sin_affine" and model.train_mse <= 1e-12
    assert calls.count("exp_scaled") == 3


def test_a_polish_that_crawls_from_beyond_the_first_reach_is_left_to_the_wide_scan(monkeypatch):
    # cos(2.25*x1*x2) runs 2.25 * 15.3 = 34 rad across the span of x1*x2,
    # beyond the first scan's 24: from its best row the first step keeps
    # more than 0.9 of the MSE and the polish stops, where the loop without
    # the stop crawls on to a close; the wide scan reaches the frequency,
    # and its row closes
    data = make_data(lambda p: np.cos(2.25 * p[:, 0] * p[:, 1]), vars_=(1, 2), n=96)
    sk = next(s for s in skeleton_stream(2) if s.name == "cos_prod")
    V, y = _normalized(data)
    objective = _make_objective(sk, V, y)
    residuals = ft._make_residuals(sk, V, y)
    with np.errstate(all="ignore"):
        hints, best = _ranked_hints(sk, objective, V, y, ft._SCAN_REACH)
        assert reference_polish(residuals, objective, hints[0], best)[1] <= 1e-12
        assert ft._polish(residuals, objective, hints[0], best)[1] > 1e-12
    model, runs, wide = _spied_fit(monkeypatch, data, RunConfig(seed=0))
    assert model.skeleton_name == "cos_prod" and model.train_mse <= 1e-12
    assert runs == [] and "cos_prod" in wide


def test_a_polish_closed_family_is_not_searched_again(monkeypatch):
    # below any reachable MSE nothing is accepted, so the walk goes on past
    # the polished exp_scaled, and only the families the polish left open
    # get LDSE
    streams = _ldse_streams(monkeypatch)
    data = make_data(lambda p: np.exp(0.5 * p[:, 0]), lo=1.0, hi=3.0)
    model = fit_factor(data, RunConfig(seed=0, tol_target=1e-30))
    assert model.skeleton_name == "exp_scaled" and not model.converged
    assert model.train_mse <= 1e-12
    exp_streams = {_start(config_rng(0, 1101, _rank("exp_scaled"), r))
                 for r in range(ft._RESTARTS)}
    assert streams and not exp_streams & set(streams)
