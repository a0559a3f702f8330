import dataclasses
import json
import math
import warnings

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
from gsfit.config import RunConfig, rng
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


def test_the_basis_explosion_guard_raises_before_any_sweep():
    # a block of 7 factors would take 2^7 - 1 basis terms: the fit refuses
    # it before it evaluates a sweep, as it does a factor over 4 variables
    o = make_oracle(ex.parse("x1*x2*x3*x4*x5*x6*x7", 7), DomainBox.cube(-3, 3, 7))
    vars_ = tuple(range(1, 8))
    s = GsStructure((), [Block(vars_, psi_factors=tuple((v,) for v in vars_))], (0.5,) * 7)
    with pytest.raises(ft.FitError, match="^basis explosion: block 0 has 7 factors$"):
        fit_structure_factors(s, o, RunConfig())
    s.blocks[0].psi_factors = ((1, 2, 3, 4), (5,), (6,), (7,))
    with pytest.raises(ft.FitError, match="^skeleton streams cover 1 to 3 variables$"):
        fit_structure_factors(s, o, RunConfig())
    assert o.eval_count == 0


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
    train = o.sample(600, np.random.default_rng(4))
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


def test_least_squares_needs_twice_the_columns_in_valid_rows():
    # 2 terms and the constant need 6 valid rows: one invalid row of 6
    # fails, with no warning; one of 60 is dropped with one warning
    terms = [term_of(ex.parse("ln(x1)", 1)), term_of(ex.parse("x1", 1))]
    for n in (6, 60):
        x = np.linspace(0.5, 3.0, n)[:, None]
        x[2] = -1.0
        y = 2.0 * np.log(np.abs(x[:, 0])) - 0.5 * x[:, 0] + 1.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if n == 6:
                with pytest.raises(FitError, match="twice"):
                    least_squares(terms, sample_of(x, y))
            else:
                c0, c, mse, _ = least_squares(terms, sample_of(x, y))
        assert [str(w.message) for w in caught] == ([] if n == 6 else
                                                    ["dropped 1 invalid training points"])
    assert c0 == pytest.approx(1.0) and c == pytest.approx([2.0, -0.5]) and mse < 1e-20


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
    # the attempt (0,) of a fresh anchor. No fit here converges, so each
    # sweep reads them twice: for its first block and for its rest
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
    monkeypatch.setattr(ft, "fit_factor", lambda data, cfg: fake_model(
        ex.const(1.0), data.vars, converged=False))
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


def _sweep_spies(monkeypatch, fit=None):
    """Spy on the sweeps of a fit: the point batches the oracle evaluates,
    and each fit_factor call as (data, whether it is a first block). `fit`,
    when given, stands in for the real fit_factor."""
    batches, fits = [], []
    inner_eval, inner_fit = Oracle.eval_batch, fit or ft.fit_factor

    def eval_spy(self, points):
        batches.append(np.array(points))
        return inner_eval(self, points)

    def fit_spy(data, cfg):
        fits.append((data, data.first_block))
        return inner_fit(data, cfg)

    monkeypatch.setattr(Oracle, "eval_batch", eval_spy)
    monkeypatch.setattr(ft, "fit_factor", fit_spy)
    return batches, fits


def test_a_factor_exact_on_its_first_block_evaluates_only_the_block(monkeypatch):
    # case 1, 0.5*exp(x1)*sin(2*x2): each psi factor fits exactly on the 16
    # points of its sweep's first block, and the other 32 of the 48-point
    # sweep are never evaluated
    o, cfg = CASES[1].oracle(), RunConfig(seed=1)
    s = detect_structure(o, cfg)
    assert [b.psi_factors for b in s.blocks] == [((1,), (2,))]
    batches, fits = _sweep_spies(monkeypatch)
    [factors] = fit_structure_factors(s, o, cfg)
    assert all(f.converged and f.train_mse <= ft.EXACT_MSE for f in factors)
    assert [len(b) for b in batches] == [16, 16]
    assert [(d.vars, len(d.points), block) for d, block in fits] == [
        ((1,), 16, True), ((2,), 16, True)]


def test_a_factor_inexact_on_its_block_fits_one_draw_of_the_whole_sweep(monkeypatch):
    # exp(-x1^2), which no skeleton fits, misses on its block, so the rest
    # of its sweep is drawn and fitted with the block: in points and values
    # the 48-point draw of stream 301 that a sweep drawn at once reads, its
    # 48 rows evaluated once each, the block's 16 first
    o = make_oracle(ex.parse("exp(-x1^2)", 1), DomainBox.cube(-3, 3, 1))
    cfg = RunConfig(seed=1)
    s = detect_structure(o, cfg)
    batches, fits = _sweep_spies(monkeypatch)
    [[model]] = fit_structure_factors(s, o, cfg)
    assert not model.converged
    assert [(len(d.points), block) for d, block in fits] == [(16, True), (48, False)]
    at = s.at
    pts = at.uniform((1,), 48, 301, 1)
    rows = det._pin(at.point, (1,), pts)
    assert [len(b) for b in batches] == [16, 32]
    assert np.vstack(batches).tobytes() == rows.tobytes()
    whole = fits[1][0]
    assert whole.points.tobytes() == pts.tobytes()
    assert whole.values.tobytes() == (o.target.eval_batch(rows) - at.f).tobytes()


def test_an_omega_sweep_drawn_in_two_steps_is_one_draw(monkeypatch):
    # case 4, x3*sin(x1)-2*x3*cos(x2), with every fit a miss: each block's
    # omega sweep of x3 evaluates its first block of 16 points, then the
    # other 32, at both points of its spread pair, and the whole sweep, in
    # points and values, is that of one 48-point draw of the stream 402
    # of the block and the group
    o, cfg = CASES[4].oracle(), RunConfig(seed=1)
    s = detect_structure(o, cfg)
    assert [(b.vars, b.omega_factors) for b in s.blocks] == [((1,), ((3,),)), ((2,), ((3,),))]
    batches, fits = _sweep_spies(
        monkeypatch, lambda data, cfg: fake_model(ex.const(1.0), data.vars, False))
    fit_structure_factors(s, o, cfg)
    omega = [d for d, block in fits if not block and d.vars == (3,)]
    assert len(omega) == 2
    for b, whole in zip(s.blocks, omega):
        zs = s.at.uniform((3,), 48, 402, *b.vars, 3)
        # the sweep at the block's b_lo less the sweep at its b_hi
        (b_lo, b_hi, _), = s.at.spread_pairs([b.vars])
        lo, hi = (det._pin(det._pin(s.at.point, b.vars, side)[0], (3,), zs)
                  for side in (b_lo, b_hi))
        assert whole.points.tobytes() == zs.tobytes()
        assert whole.values.tobytes() == (
            o.target.eval_batch(lo) - o.target.eval_batch(hi)).tobytes()
    # per block: the psi block and its rest, then the omega block and its
    # rest, two rows a point
    assert [len(b) for b in batches] == [16, 32, 32, 64] * 2


def test_the_block_fit_runs_no_ldse(monkeypatch):
    # the affine3 target's one factor is beyond both scans' reach: its
    # block fit misses without LDSE, and the fit of its whole sweep makes
    # the one LDSE run, sin_affine3's first restart, that fits it, in 322
    # evaluations, as a fit that draws each sweep at once does
    o = make_oracle(ex.parse("sin(5*x1+0.4*x2-0.9*x3+1)", 3), DomainBox.cube(-3, 3, 3))
    cfg = RunConfig(seed=1, max_nodes=14)
    fits, runs = [], []
    inner_fit, inner_ldse = ft.fit_factor, ft.ldse_minimize

    def fit_spy(data, c):
        fits.append(data.first_block)
        return inner_fit(data, c)

    def ldse_spy(objective, bounds, *, rng, **kw):
        runs.append((fits[-1], rng.bit_generator.state["state"]["state"]))
        return inner_ldse(objective, bounds, rng=rng, **kw)

    monkeypatch.setattr(ft, "fit_factor", fit_spy)
    monkeypatch.setattr(ft, "ldse_minimize", ldse_spy)
    model = assemble_and_validate(detect_structure(o, cfg), o, cfg)
    rank = [sk.name for sk in ft.skeleton_stream(3, 14)].index("sin_affine3")
    assert fits == [True, False]
    assert runs == [(False, rng(1, 1101, rank, 0).bit_generator.state["state"]["state"])]
    assert model.success and o.eval_count == 322


def test_a_block_mostly_invalid_goes_on_to_the_whole_sweep(monkeypatch):
    # sqrt(x1) on [-1, 1] at seed 0: 7 of the block's 16 points are valid,
    # fewer than 8, so the block is not fitted and does not raise; the
    # rest of the sweep is drawn, and 30 of its 48 points are valid, which
    # is enough
    o = make_oracle(ex.parse("sqrt(x1)", 1), DomainBox.cube(-1, 1, 1))
    cfg = RunConfig(seed=0)
    assert det.isolate_psi_data(det.Anchor(o, (0.5,), cfg), (1,), first_block=True) is None
    structure = GsStructure((), [Block((1,), psi_factors=((1,),))], (0.5,))
    batches, fits = _sweep_spies(monkeypatch)
    [[model]] = fit_structure_factors(structure, o, cfg)
    assert model.converged
    assert [(len(d.points), block) for d, block in fits] == [(30, False)]
    # the block, f(anchor), then the rest
    assert [len(b) for b in batches] == [16, 1, 32]


def _attempt_0(structure, oracle, cfg, per_term=20):
    """Reference: the one assembly attempt, written out, trained on one
    sample and validated on one sample. The sweeps and fits read cfg; the
    training sample, per_term points per basis column with the
    constant's, is drawn from rng(cfg.seed, 1001), and the validation
    sample, cfg.samples_per_var points per variable or the block's
    20 * (terms + 1) where that is more, from rng(cfg.seed, 1002) in one
    draw. A run whose first block does not accept reports this model,
    at per_term 20, whenever it redraws no row; a run that accepts on
    its block trains as it does at per_term 2."""
    factors = asm.fit_structure_factors(structure, oracle, cfg)
    terms = build_basis(structure, factors)
    train = oracle.sample(per_term * (len(terms) + 1), rng(cfg.seed, 1001))
    c0, coefs, train_mse, deficient = least_squares(terms, train)
    n_val = max(cfg.samples_per_var * oracle.arity, 20 * (len(terms) + 1))
    val = oracle.sample(n_val, rng(cfg.seed, 1002))
    model = AssembledModel(
        c0=c0, terms=terms, coefficients=coefs,
        expr=asm._compose_expr(c0, coefs, terms), train_mse=train_mse,
        val_mse=math.inf, success=False, rank_deficient=deficient,
    )
    model.val_mse = asm._mse(model, val)
    model.success = bool(model.val_mse <= cfg.tol_target)
    return model


def _on_block(ref, oracle, cfg):
    """The reference model, validated on the block sequential validation
    checks first: the first 20 * (terms + 1) rows of its validation
    draw."""
    block = oracle.sample(20 * (len(ref.terms) + 1), rng(cfg.seed, 1002))
    return dataclasses.replace(ref, val_mse=asm._mse(ref, block))


def _early_accept(structure, oracle, cfg):
    """Reference for a run that accepts on its first block: the model
    trained on the first 2 * (terms + 1) rows of the one-draw training
    sample, validated on the block."""
    return _on_block(_attempt_0(structure, oracle, cfg, per_term=2), oracle, cfg)


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
    # the model trained on the first 2 * (terms + 1) rows accepts on the
    # first block, so val_mse is the block's
    ref = _early_accept(s, o, cfg)
    assert model.val_mse <= asm.EARLY_ACCEPT * cfg.tol_target and ref.success
    assert model.to_json() == ref.to_json()


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


def _tolerance_past_the_block(no, seed, passes):
    """(tol_target, full-sample MSE) for case `no` at `seed`: a tolerance
    at which its first block does not accept and the full sample passes,
    the full-sample MSE itself, or misses, one ulp below it. Both MSEs are
    those of the model fitted at the default tolerance; its factors fit at
    rounding level, well within the returned one, so a run at that
    tolerance fits the same model. Neither the model trained on the
    first 2 * (terms + 1) rows nor that trained on all 20 * (terms + 1)
    accepts on the block at the returned tolerance."""
    cfg = RunConfig(seed=seed)
    o = get_case(no).oracle()
    s = detect_structure(o, cfg)
    ref = _attempt_0(s, o, cfg)
    tol = ref.val_mse if passes else float(np.nextafter(ref.val_mse, 0.0))
    assert asm.EARLY_ACCEPT * tol < _on_block(ref, o, cfg).val_mse
    assert asm.EARLY_ACCEPT * tol < _early_accept(s, o, cfg).val_mse
    return tol, ref.val_mse


# (target, dims, seed, tol_target): a miss with an unconverged factor, and
# case 9, whose factors all fit within 1e-30 while its validation MSE sits
# at rounding level, missed with every factor converged at a tolerance
# just below it
@pytest.mark.parametrize("target, dims, seed, tol", [
    ("sin(x1*x2^2)", 2, 1, 1e-6),
    (None, 6, 6, None),
], ids=["unconverged-factor", "case9-converged"])
def test_a_validation_miss_makes_one_attempt(monkeypatch, target, dims, seed, tol):
    if tol is None:
        tol, _ = _tolerance_past_the_block(9, seed, passes=False)
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
    # a miss trains on 20 * (terms + 1) points, the first 2 * (terms + 1)
    # and then the rest, validates on its block of as many, and then on
    # the full sample, whose other rows the block's stream goes on to
    # draw: training and N validation points
    b = 20 * (len(model.terms) + 1)
    assert o.eval_count - start == sweep_evals[0] + b + cfg.samples_per_var * dims
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


def _stream_samples(monkeypatch, cfg, *tags):
    """Spy on the draws from the streams that start as rng(cfg.seed, tag)
    does, for each tag given: each call's (tag, SampleSet), in order."""
    seen, streams = [], []
    inner = Oracle.sample
    starts = {tag: rng(cfg.seed, tag).bit_generator.state for tag in tags}

    def spy(self, count, gen):
        for tag, start in starts.items():
            if gen.bit_generator.state == start:
                streams.append((tag, gen))
        out = inner(self, count, gen)
        seen.extend((tag, out) for tag, g in streams if gen is g)
        return out

    monkeypatch.setattr(Oracle, "sample", spy)
    return seen


@pytest.mark.parametrize("no", [1, 7, 11])
def test_the_training_sample_has_twenty_points_per_basis_column(monkeypatch, no):
    # a run that accepts on its first block solves once, on the first
    # 2 * (terms + 1) training points; one that does not solves again on
    # 20 * (terms + 1), the training stream going on to draw the rest.
    # Both are the first rows of a samples_per_var * n draw from the same
    # stream, since the box draws row by row
    solves = []
    inner = asm.least_squares

    def spy(terms, train):
        solves.append((len(terms), train))
        return inner(terms, train)

    past_block, _ = _tolerance_past_the_block(no, 3, passes=True)
    monkeypatch.setattr(asm, "least_squares", spy)
    assert asm.TRAIN_POINTS_PER_TERM == 20
    for tol, per_term in ((RunConfig().tol_target, [2]), (past_block, [2, 20])):
        solves.clear()
        cfg = RunConfig(seed=3, tol_target=tol)
        o = get_case(no).oracle()
        model = assemble_and_validate(detect_structure(o, cfg), o, cfg)
        assert [n for n, _ in solves] == [len(model.terms)] * len(per_term)
        assert [len(t) for _, t in solves] == [k * (len(model.terms) + 1) for k in per_term]
        n_full = cfg.samples_per_var * o.arity
        full = get_case(no).oracle().sample(n_full, rng(cfg.seed, 1001))
        for _, train in solves:
            assert np.array_equal(train.points, full.points[:len(train)])
            assert np.array_equal(train.values, full.values[:len(train)])


@pytest.mark.parametrize("no", [1, 7, 11])
def test_an_early_accept_validates_on_the_first_rows_of_the_full_draw(monkeypatch, no):
    # the block, of 20 * (terms + 1) points, is the first rows of a
    # samples_per_var * n draw from the same stream, and it alone is
    # evaluated
    cfg = RunConfig(seed=3)
    o = get_case(no).oracle()
    s = detect_structure(o, cfg)
    seen = _stream_samples(monkeypatch, cfg, 1002)
    _, sweep_evals = _counted_fits(monkeypatch)
    start = o.eval_count
    model = assemble_and_validate(s, o, cfg)
    n = len(model.terms) + 1
    ((_, block),) = seen
    assert len(block) == 20 * n < cfg.samples_per_var * o.arity
    # the first 2 * (terms + 1) training points and the block, no more
    assert o.eval_count - start == sweep_evals[0] + 2 * n + 20 * n
    assert model.success and model.val_mse <= asm.EARLY_ACCEPT * cfg.tol_target
    full = get_case(no).oracle().sample(cfg.samples_per_var * o.arity, rng(cfg.seed, 1002))
    assert np.array_equal(block.points, full.points[:20 * n])
    assert np.array_equal(block.values, full.values[:20 * n])
    assert model.val_mse == asm._mse(model, block)


# the bases of cases 4 and 7 are rank deficient, and at these workload
# seeds their models still accept on the block, trained on 2 * (terms + 1)
# points
@pytest.mark.parametrize("no, seed", [(4, 1), (4, 2), (7, 1), (7, 2)])
def test_a_rank_deficient_basis_accepts_on_its_first_training_rows(no, seed):
    cfg = RunConfig(seed=seed)
    o = get_case(no).oracle()
    s = detect_structure(o, cfg)
    model = assemble_and_validate(s, o, cfg)
    assert model.rank_deficient and model.success
    assert model.val_mse <= asm.EARLY_ACCEPT * cfg.tol_target
    assert model.to_json() == _early_accept(s, o, cfg).to_json()
    assert _attempt_0(s, o, cfg).rank_deficient


# (case, seed) at a tolerance its first block does not accept, at the
# default samples_per_var and at one point a variable, where the block is
# the whole validation sample
@pytest.mark.parametrize("spv", [200, 1])
@pytest.mark.parametrize("no, seed", [(1, 1), (9, 6)])
def test_a_block_that_does_not_accept_retrains_on_twenty_points_per_column(
        monkeypatch, no, seed, spv):
    tol, _ = _tolerance_past_the_block(no, seed, passes=True)
    cfg = RunConfig(seed=seed, tol_target=tol, samples_per_var=spv)
    o = get_case(no).oracle()
    s = detect_structure(o, cfg)
    seen = _stream_samples(monkeypatch, cfg, 1001, 1002)
    _, sweep_evals = _counted_fits(monkeypatch)
    start = o.eval_count
    model = assemble_and_validate(s, o, cfg)
    n = len(model.terms) + 1
    n_val = max(spv * o.arity, 20 * n)
    rest = [(1002, n_val - 20 * n)] if n_val > 20 * n else []
    assert [(tag, len(v)) for tag, v in seen] == [
        (1001, 2 * n), (1002, 20 * n), (1001, 18 * n), *rest]
    assert o.eval_count - start == sweep_evals[0] + 20 * n + n_val
    monkeypatch.undo()
    assert model.to_json() == _attempt_0(s, o, cfg).to_json()


def test_a_basis_invalid_on_a_first_training_row_solves_on_all_of_them(monkeypatch):
    # the first training rows are solved on only when every term is valid
    # on each; here the first term is made invalid on the first row of
    # every sample, so the run draws the rest of the training sample
    # before any validation row, solves once on it, and warns once, for
    # the one point dropped
    cfg = RunConfig(seed=1)
    o = get_case(1).oracle()
    s = detect_structure(o, cfg)
    inner = asm.basis_columns

    def first_row_invalid(terms, points):
        cols = inner(terms, points)
        cols[0][0] = np.nan
        return cols

    monkeypatch.setattr(asm, "basis_columns", first_row_invalid)
    seen = _stream_samples(monkeypatch, cfg, 1001, 1002)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = assemble_and_validate(s, o, cfg)
    assert [str(w.message) for w in caught] == ["dropped 1 invalid training points"]
    n = len(model.terms) + 1
    assert [(tag, len(v)) for tag, v in seen] == [(1001, 2 * n), (1001, 18 * n), (1002, 20 * n)]
    assert model.success and model.val_mse <= asm.EARLY_ACCEPT * cfg.tol_target
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = _on_block(_attempt_0(s, o, cfg), o, cfg)
    assert model.to_json() == ref.to_json()


# (case, seed) at a tolerance its first block does not accept: case 9
# passes and misses it, and the README example passes it
@pytest.mark.parametrize("no, seed, passes", [(9, 6, True), (9, 6, False), (1, 1, True)])
def test_the_full_sample_gives_the_one_sample_val_mse_bit_for_bit(monkeypatch, no, seed,
                                                                  passes):
    tol, full_mse = _tolerance_past_the_block(no, seed, passes)
    cfg = RunConfig(seed=seed, tol_target=tol)
    o = get_case(no).oracle()
    s = detect_structure(o, cfg)
    seen = _stream_samples(monkeypatch, cfg, 1002)
    model = assemble_and_validate(s, o, cfg)
    b, n_full = 20 * (len(model.terms) + 1), cfg.samples_per_var * o.arity
    assert [len(v) for _, v in seen] == [b, n_full - b]
    block_mse = asm._mse(model, seen[0][1])
    assert asm.EARLY_ACCEPT * tol < block_mse
    monkeypatch.undo()
    ref = _attempt_0(s, o, cfg)
    assert model.val_mse == ref.val_mse == full_mse and model.success == passes
    assert model.to_json() == ref.to_json()


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
