import json
import math

import numpy as np
import pytest

import gsfit.assemble as asm
from gsfit import expr as ex
from gsfit.assemble import (
    MAX_RETRIES,
    AssembledModel,
    BasisTerm,
    assemble_and_validate,
    build_basis,
    fit_structure_factors,
    least_squares,
)
from gsfit.bench import CASES, get_case, run_case, suite_seeds
from gsfit.config import RunConfig, derived_seed
from gsfit.detect import Block, GsStructure, detect_structure
from gsfit.fit import FactorModel, FitError
from gsfit.oracle import DomainBox, SampleSet, make_oracle


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
    factors = fit_structure_factors(s, o, RunConfig(seed=2), 2)
    assert [len(f) for f in factors] == [b.factor_count() for b in s.blocks]


def _stub_fits(monkeypatch, per_attempt):
    """Replace the factor fits: attempt k returns per_attempt(k)'s factor
    lists. Returns the list of sweep seeds the stub was called with."""
    seeds = []

    def stub(structure, oracle, cfg, sweep_seed):
        seeds.append(sweep_seed)
        return per_attempt(len(seeds) - 1)

    monkeypatch.setattr(asm, "fit_structure_factors", stub)
    return seeds


def _missing_target():
    # x1 alone leaves the sine's variance unexplained: every attempt misses
    return make_oracle(ex.parse("x1+sin(3*x1)", 1), DomainBox.cube(-3, 3, 1))


@pytest.mark.parametrize("converged", [True, False])
def test_only_a_miss_with_every_factor_converged_is_retried(monkeypatch, converged):
    factor = fake_model(ex.parse("x1", 1), (1,), converged=converged)
    seeds = _stub_fits(monkeypatch, lambda k: [[factor]])
    cfg = RunConfig(seed=4)
    model = assemble_and_validate(dummy_structure(1), _missing_target(), cfg)
    assert not model.success and math.isfinite(model.val_mse)
    attempts = MAX_RETRIES + 1 if converged else 1
    assert seeds == [4 + 101 * k for k in range(attempts)]
    assert model.retries == attempts - 1
    assert model.unconverged == (() if converged else (factor,))
    assert "unconverged" not in model.to_dict()


def test_retries_count_the_retries_made_not_the_best_attempt(monkeypatch):
    # attempt 0 is the best fit; the three retries after it are worse
    good = fake_model(ex.parse("x1", 1), (1,))
    bad = fake_model(ex.parse("x1^2", 1), (1,))
    _stub_fits(monkeypatch, lambda k: [[good if k == 0 else bad]])
    model = assemble_and_validate(dummy_structure(1), _missing_target(), RunConfig(seed=4))
    assert model.terms[0].expr is good.expr
    assert model.retries == MAX_RETRIES


def _retry_every_miss(structure, oracle, cfg):
    """Reference: the assembly loop that retried every validation miss, and
    reported the best attempt's index as its retries."""
    n_samples = cfg.samples_per_var * oracle.arity
    best = None
    for attempt in range(asm.MAX_RETRIES + 1):
        sweep_seed = cfg.seed + 101 * attempt
        factors = asm.fit_structure_factors(structure, oracle, cfg, sweep_seed)
        terms = build_basis(structure, factors)
        train = oracle.sample(n_samples, derived_seed(sweep_seed, 1))
        c0, coefs, train_mse, deficient = least_squares(terms, train)
        val = oracle.sample(n_samples, derived_seed(sweep_seed, 2))
        model = AssembledModel(
            c0=c0, terms=terms, coefficients=coefs,
            expr=asm._compose_expr(c0, coefs, terms), train_mse=train_mse,
            val_mse=math.inf, success=False, rank_deficient=deficient,
            retries=attempt,
        )
        model.val_mse = asm._mse(model, val)
        model.success = bool(model.val_mse <= cfg.tol_target)
        if best is None or model.val_mse < best.val_mse:
            best = model
        if model.success:
            break
    return best


def _counted_fits(monkeypatch):
    calls = []
    inner = asm.fit_structure_factors

    def spy(*args):
        factors = inner(*args)
        calls.append([f.converged for models in factors for f in models])
        return factors

    monkeypatch.setattr(asm, "fit_structure_factors", spy)
    return calls


@pytest.mark.parametrize("seed", suite_seeds(0, 11, 3))
def test_stream_demo_validates_on_its_first_attempt(monkeypatch, seed):
    # the monomial library fits the omega factor r - R^2/r, so every factor
    # converges and the first attempt validates
    calls = _counted_fits(monkeypatch)
    cfg = RunConfig(seed=seed)
    o = get_case(11).oracle()
    s = detect_structure(o, cfg)
    model = assemble_and_validate(s, o, cfg)
    assert len(calls) == 1 and all(calls[0])
    assert model.success and model.val_mse <= cfg.tol_target
    assert model.retries == 0 and model.unconverged == ()
    # byte-equal to attempt 0 of the loop that retried every miss
    monkeypatch.setattr(asm, "MAX_RETRIES", 0)
    assert _retry_every_miss(s, o, cfg).to_json() == model.to_json()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_attempt_with_an_unconverged_factor_is_the_last(monkeypatch, seed):
    # sin(x1*x2^2) is one factor that no skeleton fits, and refitting it on
    # fresh sweeps cannot rescue the run
    calls = _counted_fits(monkeypatch)
    cfg = RunConfig(seed=seed)
    o = make_oracle(ex.parse("sin(x1*x2^2)", 2), DomainBox.cube(-3.0, 3.0, 2))
    s = detect_structure(o, cfg)
    model = assemble_and_validate(s, o, cfg)
    assert len(calls) == 1 and calls[0].count(False) == len(model.unconverged) > 0
    assert model.retries == 0 and not model.success
    # byte-equal to attempt 0 of the loop that retried every miss
    monkeypatch.setattr(asm, "MAX_RETRIES", 0)
    assert _retry_every_miss(s, o, cfg).to_json() == model.to_json()


# (case-9 suite seed, attempts made, the best attempt's index). The polish
# fits every factor of case 9 exactly, so at the default tolerance these
# seeds validate on their first attempt; at 1e-21 both outcomes of a
# validation miss with every factor converged are in reach.
@pytest.mark.parametrize("seed, attempts, best", [(71332, 3, 2), (73272, 4, 3)])
def test_case9_retries_keep_their_attempts_and_report(monkeypatch, seed, attempts, best):
    # every factor converges on every attempt: 71332 validates on its third
    # attempt, 73272 on none
    calls = _counted_fits(monkeypatch)
    assert run_case(9, seed).success and len(calls) == 1
    calls.clear()
    cfg = RunConfig(seed=seed, tol_target=1e-21)
    o = get_case(9).oracle()
    s = detect_structure(o, cfg)
    start = o.eval_count
    new = assemble_and_validate(s, o, cfg)
    used = o.eval_count - start
    assert len(calls) == attempts and all(all(c) for c in calls)
    assert new.success == (attempts < 4)
    assert new.retries == attempts - 1
    old = _retry_every_miss(s, o, cfg)
    assert len(calls) == 2 * attempts and o.eval_count - start == 2 * used
    # the same model, but for the old loop's retries: the best attempt's index
    assert old.retries == best
    old.retries = attempts - 1
    assert new.to_json() == old.to_json()
