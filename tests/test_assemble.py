import json
import math

import numpy as np
import pytest

import gsfit.assemble as asm
import gsfit.detect as det
import gsfit.fit as ft
from gsfit import expr as ex
from gsfit.assemble import (
    AssembledModel,
    BasisTerm,
    assemble_and_validate,
    build_basis,
    fit_structure_factors,
    least_squares,
)
from gsfit.bench import CASES, STREAM_DEMO, get_case, run_case, suite_seeds
from gsfit.config import RunConfig, derived_seed
from gsfit.detect import Block, GsStructure, detect_structure
from gsfit.fit import FactorModel, FitError
from gsfit.oracle import DomainBox, Oracle, SampleSet, make_oracle


def fake_model(e: ex.Expr, vars_: tuple[int, ...], converged: bool = True) -> FactorModel:
    return FactorModel(
        skeleton_name="given", var_indices=vars_, theta=np.zeros(0), expr=e,
        train_mse=0.0 if converged else 0.25, converged=converged,
    )


def term_of(e: ex.Expr, block=0, subset=(0,)) -> BasisTerm:
    return BasisTerm(block_index=block, factor_subset=subset, expr=e)


def sample_of(points: np.ndarray, values: np.ndarray) -> SampleSet:
    return SampleSet(points=points, values=values)


def dummy_structure(n_blocks: int) -> GsStructure:
    blocks = [Block(vars=(i + 1,), psi_factors=((i + 1,),)) for i in range(n_blocks)]
    return GsStructure(repeated=(), blocks=blocks, anchor=(0.0,) * n_blocks)


def test_build_basis_subset_counts():
    models = [
        fake_model(ex.parse("cos(x7)", 7), (7,)),
        fake_model(ex.parse("x4", 7), (4,)),
        fake_model(ex.parse("sin(x5*x6)", 7), (5, 6)),
    ]
    s = dummy_structure(1)
    terms = build_basis(s, [models])
    assert len(terms) == 7  # 2^3 - 1 nonempty subsets


def test_build_basis_case3_term_count():
    s = dummy_structure(2)
    factors = [
        [fake_model(ex.parse("sin(2*x1)", 3), (1,))],
        [fake_model(ex.parse("x2^2", 3), (2,)), fake_model(ex.parse("cos(x3)", 3), (3,))],
    ]
    terms = build_basis(s, factors)
    assert len(terms) == 1 + 3


def test_build_basis_single_factor_block():
    s = dummy_structure(1)
    terms = build_basis(s, [[fake_model(ex.parse("x1", 1), (1,))]])
    assert len(terms) == 1


def test_build_basis_leaves_out_a_factor_that_reads_no_variable():
    # a variable the target ignores fits as the constant 0: no subset that
    # holds it becomes a term, and the other factors keep their positions
    s = dummy_structure(2)
    factors = [
        [fake_model(ex.parse("x1", 4), (1,)), fake_model(ex.const(0.0), (2,)),
         fake_model(ex.parse("cos(x3)", 4), (3,))],
        [fake_model(ex.const(0.0), (4,))],
    ]
    terms = build_basis(s, factors)
    assert [(t.block_index, t.factor_subset) for t in terms] == [(0, (0,)), (0, (2,)), (0, (0, 2))]
    assert [t.expr.to_text() for t in terms] == ["x1", "cos(x3)", "x1*cos(x3)"]


def test_build_basis_explosion_guard():
    s = dummy_structure(1)
    models = [fake_model(ex.parse("x1", 7), (1,)) for _ in range(7)]
    with pytest.raises(ValueError, match="basis explosion"):
        build_basis(s, [models])


def test_least_squares_exact_sine_model():
    rng = np.random.default_rng(0)
    x = rng.uniform(-3, 3, size=(100, 1))
    y = 2.0 + 3.0 * np.sin(x[:, 0])
    terms = [term_of(ex.parse("sin(x1)", 1))]
    c0, c, mse, deficient = least_squares(terms, sample_of(x, y))
    assert c0 == pytest.approx(2.0, abs=1e-12)
    assert c[0] == pytest.approx(3.0, abs=1e-12)
    assert mse <= 1e-24
    assert not deficient


def test_least_squares_case3_exact_shape_coefficients():
    spec = CASES[3]
    o = spec.oracle()
    train = o.sample(600, seed=4)
    terms = [
        term_of(ex.parse("sin(2*x1)", 3)),
        term_of(ex.parse("x2^2*cos(x3)", 3)),
    ]
    c0, c, mse, _ = least_squares(terms, train)
    assert c0 == pytest.approx(1.2, abs=1e-9)
    assert c[0] == pytest.approx(10.0, abs=1e-9)
    assert c[1] == pytest.approx(-3.0, abs=1e-9)
    assert mse <= 1e-18


def test_least_squares_duplicate_column_flags_deficiency():
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, size=(50, 1))
    y = x[:, 0] * 4.0
    terms = [term_of(ex.parse("x1", 1)), term_of(ex.parse("x1", 1))]
    c0, c, mse, deficient = least_squares(terms, sample_of(x, y))
    assert deficient
    assert mse <= 1e-20  # fit still returned


def test_least_squares_residual_orthogonality():
    rng = np.random.default_rng(2)
    x = rng.uniform(-3, 3, size=(200, 2))
    y = 1 + 2 * np.sin(x[:, 0]) + 0.3 * x[:, 1] ** 2 + np.cos(x[:, 0] * x[:, 1])
    terms = [
        term_of(ex.parse("sin(x1)", 2)),
        term_of(ex.parse("x2^2", 2)),
        term_of(ex.parse("x1", 2)),
    ]
    c0, c, mse, _ = least_squares(terms, sample_of(x, y))
    resid = y - c0 - sum(ci * t.evaluate(x) for ci, t in zip(c, terms))
    for t in terms:
        col = t.evaluate(x)
        assert abs(resid @ col) <= 1e-9 * np.linalg.norm(resid) * np.linalg.norm(col)


def test_least_squares_nested_basis_monotone_training_mse():
    rng = np.random.default_rng(3)
    x = rng.uniform(-3, 3, size=(150, 1))
    y = np.exp(x[:, 0]) + 0.5 * x[:, 0]
    pool = [
        term_of(ex.parse("x1", 1)),
        term_of(ex.parse("x1^2", 1)),
        term_of(ex.parse("sin(x1)", 1)),
        term_of(ex.parse("exp(x1)", 1)),
    ]
    prev = math.inf
    for k in range(1, len(pool) + 1):
        _, _, mse, _ = least_squares(pool[:k], sample_of(x, y))
        assert mse <= prev + 1e-15
        prev = mse


def test_least_squares_drops_invalid_points_with_warning():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.uniform(0.5, 3, size=(95, 1)),
                        rng.uniform(-1.0, -0.5, size=(5, 1))])
    y = np.log(np.abs(x[:, 0]))
    terms = [term_of(ex.parse("ln(x1)", 1))]
    with pytest.warns(UserWarning, match="dropped 5"):
        c0, c, mse, _ = least_squares(terms, sample_of(x, y))
    assert c[0] == pytest.approx(1.0, abs=1e-10)


def test_least_squares_too_many_invalid_errors():
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.0, -0.5, size=(100, 1))
    y = np.ones(100)
    terms = [term_of(ex.parse("ln(x1)", 1))]
    with pytest.raises(ValueError, match="invalid"):
        least_squares(terms, sample_of(x, y))


def test_least_squares_needs_enough_points():
    x = np.zeros((3, 1))
    terms = [term_of(ex.parse("x1", 1))]
    with pytest.raises(ValueError, match="twice"):
        least_squares(terms, sample_of(x, np.zeros(3)))


def test_least_squares_errors_are_fit_errors():
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.0, -0.5, size=(100, 1))
    with pytest.raises(FitError, match="invalid"):
        least_squares([term_of(ex.parse("ln(x1)", 1))], sample_of(x, np.ones(100)))
    with pytest.raises(FitError, match="twice"):
        least_squares([term_of(ex.parse("x1", 1))], sample_of(x[:3], np.zeros(3)))


def test_assemble_case2_validates_below_tolerance():
    spec = CASES[2]
    o = spec.oracle()
    s = detect_structure(o, RunConfig(seed=3))
    model = assemble_and_validate(s, o, RunConfig(seed=3))
    assert model.success
    assert model.val_mse <= 1e-6


def test_assemble_zero_target():
    o = make_oracle(ex.parse("0*x1", 1), DomainBox.cube(-3, 3, 1))
    s = detect_structure(o, RunConfig(seed=3))
    model = assemble_and_validate(s, o, RunConfig(seed=3))
    assert model.c0 == pytest.approx(0.0, abs=1e-12)
    assert model.val_mse <= 1e-20
    assert model.success


def test_assembled_expr_matches_weighted_sum():
    spec = CASES[4]
    o = spec.oracle()
    s = detect_structure(o, RunConfig(seed=5))
    model = assemble_and_validate(s, o, RunConfig(seed=5))
    rng = np.random.default_rng(8)
    pts = rng.uniform(-3, 3, size=(100, 3))
    direct = model.predict(pts)
    composed = model.expr.eval_batch(pts)
    scale = np.maximum(1.0, np.abs(direct))
    assert np.all(np.abs(direct - composed) <= 1e-12 * scale)


def test_assembled_model_json_keys():
    spec = CASES[1]
    o = spec.oracle()
    s = detect_structure(o, RunConfig(seed=6))
    model = assemble_and_validate(s, o, RunConfig(seed=6))
    d = json.loads(model.to_json())
    assert set(d) >= {"c0", "terms", "expr", "train_mse", "val_mse", "success"}
    assert all(set(t) == {"block", "factor_subset", "expr", "coeff"} for t in d["terms"])
    assert d["success"] is True


def test_fit_structure_factors_counts_match_partition():
    spec = CASES[6]
    o = spec.oracle()
    s = detect_structure(o, RunConfig(seed=2))
    factors = fit_structure_factors(s, o, RunConfig(seed=2))
    assert [len(f) for f in factors] == [b.factor_count() for b in s.blocks]


def test_the_sweeps_of_a_fit_evaluate_each_shared_probe_once(monkeypatch):
    # every psi sweep reads f(anchor) and every omega sweep its block's
    # spread pair (stream 401). A detected structure carries detection's
    # anchor, which has evaluated both already; a hand-built one has none,
    # and its fit evaluates f(anchor) once and each spread pair once, at
    # the attempt (0,) of a fresh anchor
    cfg = RunConfig(seed=7)
    oracles = [spec.oracle() for spec in [*CASES.values(), STREAM_DEMO]]
    structures = [(o, detect_structure(o, cfg)) for o in oracles]
    blocks = [b for _, s in structures for b in s.blocks]
    # some structures read f(anchor) in several psi sweeps, and some read
    # a spread pair in several omega sweeps
    assert max(sum(len(b.psi_factors) for b in s.blocks) for _, s in structures) > 1
    assert max(len(b.omega_factors) for b in blocks) > 1
    anchor_rows, spreads = [], []
    inner_eval, inner_rng = Oracle.eval_batch, det._rng

    def eval_spy(self, points):
        anchor_rows[-1] += int(np.all(np.asarray(points) == anchor, axis=1).sum())
        return inner_eval(self, points)

    def rng_spy(seed, *key):
        if key[0] == 401:
            spreads[-1].append(key)
        return inner_rng(seed, *key)

    monkeypatch.setattr(Oracle, "eval_batch", eval_spy)
    monkeypatch.setattr(det, "_rng", rng_spy)
    monkeypatch.setattr(ft, "fit_factor", lambda data, cfg: data)
    for o, s in structures:
        anchor = np.asarray(s.anchor)
        hand_built = GsStructure(s.repeated, s.blocks, s.anchor)
        for structure, rows, pairs in [
            (s, 0, []),
            (hand_built, 1, [(401, 0, *b.vars) for b in s.blocks if b.omega_factors]),
        ]:
            anchor_rows.append(0)
            spreads.append([])
            data = fit_structure_factors(structure, o, cfg)
            assert [len(d) for d in data] == [b.factor_count() for b in s.blocks]
            assert anchor_rows[-1] == rows
            assert spreads[-1] == pairs


def _attempt_0(structure, oracle, cfg):
    """Reference: the one assembly attempt, written out. The sweeps and
    fits read cfg; the training sample, 20 points per basis column with
    the constant's, is drawn at derived_seed(cfg.seed, 1), and the
    validation sample, cfg.samples_per_var points per variable, at
    derived_seed(cfg.seed, 2)."""
    factors = asm.fit_structure_factors(structure, oracle, cfg)
    terms = build_basis(structure, factors)
    train = oracle.sample(20 * (len(terms) + 1), derived_seed(cfg.seed, 1))
    c0, coefs, train_mse, deficient = least_squares(terms, train)
    val = oracle.sample(cfg.samples_per_var * oracle.arity, derived_seed(cfg.seed, 2))
    model = AssembledModel(
        c0=c0, terms=terms, coefficients=coefs,
        expr=asm._compose_expr(c0, coefs, terms), train_mse=train_mse,
        val_mse=math.inf, success=False, rank_deficient=deficient,
    )
    model.val_mse = asm._mse(model, val)
    model.success = bool(model.val_mse <= cfg.tol_target)
    return model


def _counted_fits(monkeypatch):
    """Spy on the factor fits. Returns (calls, evals): each call's factor
    lists, and the oracle evaluations each call made."""
    calls, evals = [], []
    inner = asm.fit_structure_factors

    def spy(structure, oracle, cfg):
        start = oracle.eval_count
        factors = inner(structure, oracle, cfg)
        calls.append(factors)
        evals.append(oracle.eval_count - start)
        return factors

    monkeypatch.setattr(asm, "fit_structure_factors", spy)
    return calls, evals


def _flat(factors):
    return [f for models in factors for f in models]


@pytest.mark.parametrize("seed", suite_seeds(0, 11, 3))
def test_stream_demo_validates_on_its_first_attempt(monkeypatch, seed):
    # the monomial library fits the omega factor r - R^2/r, so every factor
    # converges and the model validates
    calls, _ = _counted_fits(monkeypatch)
    cfg = RunConfig(seed=seed)
    o = get_case(11).oracle()
    s = detect_structure(o, cfg)
    model = assemble_and_validate(s, o, cfg)
    assert len(calls) == 1 and all(f.converged for f in _flat(calls[0]))
    assert model.success and model.val_mse <= cfg.tol_target
    assert model.unconverged == ()
    assert model.to_json() == _attempt_0(s, o, cfg).to_json()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_attempt_with_an_unconverged_factor_is_the_last(monkeypatch, seed):
    # sin(x1*x2^2) is one factor that no skeleton fits
    calls, _ = _counted_fits(monkeypatch)
    cfg = RunConfig(seed=seed)
    o = make_oracle(ex.parse("sin(x1*x2^2)", 2), DomainBox.cube(-3.0, 3.0, 2))
    s = detect_structure(o, cfg)
    model = assemble_and_validate(s, o, cfg)
    assert len(calls) == 1 and not model.success
    assert [f.converged for f in _flat(calls[0])].count(False) == len(model.unconverged) > 0
    assert model.to_json() == _attempt_0(s, o, cfg).to_json()


# (target, dims, seed, tol_target): a miss with an unconverged factor, and
# case 9, whose factors all fit within 1e-30 while its validation MSE sits
# at rounding level, 1e-24 to 1e-15 over seeds: at seed 6 it is 2.4e-16,
# so a tolerance of 1e-21 is missed with every factor converged, by four
# orders of magnitude either way
@pytest.mark.parametrize("target, dims, seed, tol", [
    ("sin(x1*x2^2)", 2, 1, 1e-6),
    (None, 6, 6, 1e-21),
], ids=["unconverged-factor", "case9-converged"])
def test_a_validation_miss_makes_one_attempt(monkeypatch, target, dims, seed, tol):
    calls, sweep_evals = _counted_fits(monkeypatch)
    cfg = RunConfig(seed=seed, tol_target=tol)
    if target is None:
        o = get_case(9).oracle()
    else:
        o = make_oracle(ex.parse(target, dims), DomainBox.cube(-3.0, 3.0, dims))
    s = detect_structure(o, cfg)
    start = o.eval_count
    model = assemble_and_validate(s, o, cfg)
    assert not model.success and model.val_mse > tol
    assert len(calls) == 1
    assert o.eval_count - start == (
        sweep_evals[0] + 20 * (len(model.terms) + 1) + cfg.samples_per_var * dims
    )
    missed = [f for f in _flat(calls[0]) if f.train_mse > tol]
    assert len(model.unconverged) == len(missed)
    assert all(a is b for a, b in zip(model.unconverged, missed))
    assert (target is None) == (missed == [])
    assert "retries" not in model.to_dict() and "unconverged" not in model.to_dict()


# the polish fits every factor of case 9 exactly, so at the default
# tolerance these seeds validate with one fit of the factors
@pytest.mark.parametrize("seed", [71332, 73272])
def test_case9_validates_with_one_factor_fit(monkeypatch, seed):
    calls, _ = _counted_fits(monkeypatch)
    assert run_case(9, seed).success and len(calls) == 1


@pytest.mark.parametrize("no", [1, 7, 11])
def test_the_training_sample_has_twenty_points_per_basis_column(monkeypatch, no):
    # 20 * (terms + 1) points, the first rows of the samples_per_var * n
    # draw at the same seed, since the box draws row by row
    seen = []
    inner = asm.least_squares

    def spy(terms, train):
        seen.append((len(terms), train))
        return inner(terms, train)

    monkeypatch.setattr(asm, "least_squares", spy)
    cfg = RunConfig(seed=3)
    o = get_case(no).oracle()
    model = assemble_and_validate(detect_structure(o, cfg), o, cfg)
    (n_terms, train), = seen
    assert asm.TRAIN_POINTS_PER_TERM == 20 and n_terms == len(model.terms)
    assert len(train) == 20 * (n_terms + 1)
    n_full = cfg.samples_per_var * o.arity
    full = get_case(no).oracle().sample(n_full, derived_seed(cfg.seed, 1))
    assert np.array_equal(train.points, full.points[:len(train)])
    assert np.array_equal(train.values, full.values[:len(train)])


@pytest.mark.parametrize("no", [5, 7, 9, 11])
def test_basis_columns_equal_the_product_trees_bit_for_bit(no):
    # each factor evaluated once and multiplied left to right gives the
    # floats of each term's product tree, invalid points included
    cfg = RunConfig(seed=4)
    o = get_case(no).oracle()
    s = detect_structure(o, cfg)
    terms = build_basis(s, fit_structure_factors(s, o, cfg))
    assert any(len(t.factors) > 1 for t in terms)
    pts = o.box.uniform(400, np.random.default_rng(no))
    pts[:40] *= 1e3    # overflow
    pts[40:80, :] = 0.0    # division by zero in case 9
    cols = asm.basis_columns(terms, pts)
    for t, col in zip(terms, cols):
        want = t.evaluate(pts)
        assert col.tobytes() == want.tobytes()
    model = assemble_and_validate(s, o, cfg)
    tree = np.full(len(pts), model.c0)
    for c, t in zip(model.coefficients, model.terms):
        tree = tree + c * t.evaluate(pts)
    assert model.predict(pts).tobytes() == tree.tobytes()


def test_basis_columns_map_an_overflowing_product_to_nan():
    # exp(400) is finite, its square is not; ln(x2) is invalid below 0
    models = [fake_model(ex.parse(text, 2), (1,)) for text in ("exp(x1)", "exp(x1)", "ln(x2)")]
    terms = build_basis(dummy_structure(1), [models])
    pts = np.array([[400.0, 1.0], [1.0, -1.0], [0.5, 2.0]])
    cols = asm.basis_columns(terms, pts)
    for t, col in zip(terms, cols):
        assert col.tobytes() == t.evaluate(pts).tobytes()
    assert np.isnan(cols[3][0]) and np.isfinite(cols[0][0])
